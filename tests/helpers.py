"""Shared utilities for the test suite."""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

import wtbound
from wtbound import (
    Cut,
    WiretapCollection,
    build_network,
    max_flow,
)
from wtbound.fileio import LabelTable
from wtbound.graph import Network
from wtbound import oracle
from wtbound.oracle import ENV_EDGE_LIMIT, MinCutFamily, OracleBounds
from wtbound.wiretap import EquivalenceClass

CORPUS_SEED = 20260814
CORPUS_SIZE = 500

# Frozen structure of the bundled two-sink instance: its 48 wiretap sets fall
# into 15 equivalence classes. Each row is (capacity, primary cut, members in
# input order), with edges named by their labels.
FIG1_CLASSES = [
    (1, "e1", ("e6", "e7")),
    (1, "e2", ("e8", "e9")),
    (1, "e4", ("e12", "e13")),
    (1, "e5", ("e14", "e15")),
    (1, "e16", ("e18", "e19")),
    (1, "e17", ("e20", "e21")),
    (2, "e1 e2", ("e6 e18", "e6 e19", "e7 e18", "e7 e19", "e8 e16", "e8 e18", "e9 e18", "e9 e19")),
    (2, "e2 e3", ("e8 e11", "e9 e10")),
    (2, "e3 e5", ("e10 e14", "e10 e15", "e11 e14", "e11 e15")),
    (2, "e3 e16", ("e10 e19", "e11 e18")),
    (2, "e3 e17", ("e10 e21", "e11 e20")),
    (2, "e4 e5", ("e12 e20", "e12 e21", "e13 e17", "e13 e21", "e14 e20", "e14 e21", "e15 e20", "e15 e21")),
    (2, "e16 e17", ("e18 e20", "e18 e21", "e19 e20", "e19 e21")),
    (3, "e1 e2 e3", ("e1 e3 e16", "e1 e11 e16", "e2 e10 e16")),
    (3, "e3 e4 e5", ("e3 e5 e17", "e4 e10 e17", "e5 e11 e17")),
]

# Covering pairs of the domination order on those classes (low, high), and
# the six extra pairs transitivity adds to give the full strict order.
# (4, 6) and (5, 11) are the pairs that earlier documentation of this
# instance left out; test_acceptance derives both from the definitions.
FIG1_COVERING = [
    (0, 6), (1, 6), (1, 7), (2, 11), (3, 8), (3, 11), (4, 6), (4, 9), (4, 12),
    (5, 10), (5, 11), (5, 12), (6, 13), (7, 13), (8, 14), (9, 13), (10, 14), (11, 14),
]

FIG1_ORDER = FIG1_COVERING + [
    (0, 13), (1, 13), (2, 14), (3, 14), (4, 13), (5, 14),
]

FIG1_MAXIMAL_CUTS = ("e1 e2 e3", "e3 e4 e5", "e16 e17")

# A four-edge network for collection texts: edge d starts at y, which the
# source misses, so a set of d alone is dropped.
COLLECTION_NETWORK = "edge a s x\nedge b x t\nedge c s t\nedge d y t\nsource s\n"


def eset(labels: LabelTable, spec: str) -> frozenset[int]:
    """Edge-id set from a space-separated label string."""
    return labels.edge_set(spec.split())


def result_block(output: str) -> dict[str, str]:
    """Parse the key=value block a CLI command prints after [result]."""
    lines = output.splitlines()
    start = lines.index("[result]")
    block = {}
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        key, _, value = line.partition("=")
        block[key] = value
    return block


def env_with_package() -> dict[str, str]:
    """The environment, with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env.pop(ENV_EDGE_LIMIT, None)
    src = str(Path(wtbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def wtb_process(argv, extra_env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python -m wtbound.cli ARGV` as a fresh process, through `run()`."""
    env = {**env_with_package(), **(extra_env or {})}
    # buffered standard streams, as by default, so run() must flush them
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "wtbound.cli", *argv], capture_output=True, env=env, **kwargs
    )


def draw_dag(draw) -> Network:
    """A DAG on <=7 nodes with <=10 edges (parallel edges possible), node ids
    ascending along every edge so node 0 is a valid source. The first edge
    leaves node 0, so some edge is always reachable. `draw` is a Hypothesis
    draw function."""
    from hypothesis import strategies as st

    n_nodes = draw(st.integers(2, 7))
    pairs = st.integers(0, n_nodes - 2).flatmap(
        lambda t: st.tuples(st.just(t), st.integers(t + 1, n_nodes - 1))
    )
    edges = [(0, draw(st.integers(1, n_nodes - 1))), *draw(st.lists(pairs, max_size=9))]
    return build_network(edges, source=0, num_nodes=n_nodes)


def random_instance(seed: int) -> tuple[Network, list[frozenset[int]]]:
    """A random DAG (<=8 nodes, <=14 edges, parallel edges possible) plus a
    random collection (<=20 sets of <=3 edges, duplicates and unreachable
    edges allowed). Node ids ascend along every edge, so node 0 is always a
    valid source."""
    rng = random.Random(seed)
    n_nodes = rng.randint(2, 8)
    n_edges = rng.randint(1, 14)
    edges = []
    for _ in range(n_edges):
        t = rng.randrange(0, n_nodes - 1)
        h = rng.randrange(t + 1, n_nodes)
        edges.append((t, h))
    net = build_network(edges, source=0)
    sets = []
    for _ in range(rng.randint(1, 20)):
        size = min(rng.randint(1, 3), n_edges)
        sets.append(frozenset(rng.sample(range(n_edges), size)))
    return net, sets


def layered_edges(width: int, depth: int, fan_in: int, seed: int) -> list[tuple[str, str, str]]:
    """The benchmark's layered DAG as (label, tail, head) triples, from
    `layered_edges` in wtbench/reference.py, a file that imports nothing from
    the package."""
    path = Path(__file__).resolve().parents[1] / "wtbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("wtbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference.layered_edges(width, depth, fan_in, seed)


def layered_network(width: int, depth: int, fan_in: int, seed: int) -> Network:
    """`layered_edges(...)` as a Network, with its source as node 0."""
    ids = {"s": 0}
    edges = []
    for _, tail, head in layered_edges(width, depth, fan_in, seed):
        edges.append((ids.setdefault(tail, len(ids)), ids.setdefault(head, len(ids))))
    return build_network(edges, source=0)


def residual_side(
    net: Network, target: frozenset[int], values: bytearray | tuple[int, ...]
) -> frozenset[int]:
    """The nodes the source reaches in the residual graph of the 0/1 flow
    `values` toward `target`, by a search over the whole network. A unit on a
    target edge leaves the network there, so no residual arc runs along a
    target edge."""
    side = {net.source}
    queue = [net.source]
    for u in queue:
        steps = [net.edges[e][1] for e in net.out_edges[u] if e not in target and not values[e]]
        steps += [net.edges[e][0] for e in net.in_edges[u] if e not in target and values[e]]
        for v in steps:
            if v not in side:
                side.add(v)
                queue.append(v)
    return frozenset(side)


class ReferenceFlow(NamedTuple):
    value: int
    values: bytearray
    side: frozenset[int]
    cut: frozenset[int]


def reference_max_flow(net: Network, target: Iterable[int]) -> ReferenceFlow:
    """The flow kernel without the live-node restriction: every search may
    enter every node. Same scan order as the package's kernel (per node,
    out-edges then in-edges, ascending ids; a search stops at the first
    unsaturated target edge), so both must find the same flow, and the last
    search, which fails, reaches the whole residual source side."""
    tset = frozenset(target)
    edges, out_edges, in_edges = net.edges, net.out_edges, net.in_edges
    flow = bytearray(len(edges))
    value = 0
    while True:
        pred = {net.source: -1}  # node -> the edge the search reached it through
        queue = [net.source]
        exit_edge = -1
        for u in queue:
            for e in out_edges[u]:
                if flow[e]:
                    continue
                if e in tset:
                    exit_edge = e
                    break
                v = edges[e][1]
                if v not in pred:
                    pred[v] = e
                    queue.append(v)
            if exit_edge >= 0:
                break
            for e in in_edges[u]:
                if flow[e] and e not in tset:
                    v = edges[e][0]
                    if v not in pred:
                        pred[v] = e
                        queue.append(v)
        if exit_edge < 0:
            break
        flow[exit_edge] = 1
        v = edges[exit_edge][0]
        while v != net.source:
            e = pred[v]
            tail, head = edges[e]
            if head == v:  # forward arc: the unit crosses e
                flow[e] = 1
                v = tail
            else:  # backward arc: the unit on e is taken back
                flow[e] = 0
                v = head
        value += 1
    side = frozenset(pred)
    cut = frozenset(e for u in side for e in out_edges[u] if e in tset or edges[e][1] not in side)
    return ReferenceFlow(value=value, values=flow, side=side, cut=cut)


def reference_preprocess(
    net: Network, raw_sets: Iterable[Iterable[int]]
) -> tuple[WiretapCollection, tuple[tuple[int, str, frozenset[int]], ...]]:
    """`preprocess` with one maximum flow per distinct set and no sharing of
    flows between sets: the same drop records (position, kind, set) and
    primary cuts."""
    drops: list[tuple[int, str, frozenset[int]]] = []
    kept: list[frozenset[int]] = []
    cuts: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for pos, raw in enumerate(raw_sets):
        s = frozenset(raw)
        if not s:
            drops.append((pos, "empty", s))
            continue
        if s in seen:
            drops.append((pos, "duplicate", s))
            continue
        seen.add(s)
        flow = max_flow(net, s)
        if flow.value == 0:
            drops.append((pos, "unreachable", s))
            continue
        kept.append(s)
        cuts.append(flow.cut)
    coll = WiretapCollection(sets=tuple(kept), classes=reference_classes(kept, cuts))
    return coll, tuple(drops)


def reference_classes(
    sets: Sequence[frozenset[int]], cuts: Sequence[frozenset[int]]
) -> tuple[EquivalenceClass, ...]:
    """`WiretapCollection.classes` by the definition: one class per distinct
    cut, in order of its first set, holding every set with that cut in input
    order, the first of them its representative."""
    distinct: list[frozenset[int]] = []
    for cut in cuts:
        if cut not in distinct:
            distinct.append(cut)
    classes = []
    for cut in distinct:
        members = tuple(s for s, c in zip(sets, cuts) if c == cut)
        classes.append(EquivalenceClass(members=members, cut=cut))
    return tuple(classes)


def set_cuts(coll: WiretapCollection) -> tuple[frozenset[int], ...]:
    """The primary cut of each of `coll.sets`, in order: the `cut` of the
    class that holds the set. Raises KeyError on a set no class holds."""
    cut_of = {s: cls.cut for cls in coll.classes for s in cls.members}
    return tuple(map(cut_of.__getitem__, coll.sets))


def member_sets(
    sets: Sequence[frozenset[int]], classes: Iterable[Sequence[int]]
) -> tuple[tuple[frozenset[int], ...], ...]:
    """Classes given as indices into `sets` (the oracle's form), as the
    member sets `EquivalenceClass.members` holds."""
    return tuple(tuple(sets[m] for m in cls) for cls in classes)


def reference_flow_key(net: Network, target: frozenset[int]) -> tuple[tuple[int, ...], frozenset[int]]:
    """The reduced flow instance `target` poses: its sorted tails and its
    edges whose head is an ancestor of some tail. `wiretap.preprocess`,
    which calls `flow.max_flow` once per key, must share a flow between two
    targets exactly when their keys are equal."""
    tails = {net.edges[e][0] for e in target}
    return (
        tuple(sorted(net.edges[e][0] for e in target)),
        frozenset(e for e in target if tails & descendants(net, net.edges[e][1])),
    )


def descendants(net: Network, u: int) -> set[int]:
    """Nodes a plain forward search from `u` reaches, `u` included."""
    reached = {u}
    stack = [u]
    while stack:
        for e in net.out_edges[stack.pop()]:
            v = net.edges[e][1]
            if v not in reached:
                reached.add(v)
                stack.append(v)
    return reached


def reachable_nodes(net: Network, removed: frozenset[int] = frozenset()) -> frozenset[int]:
    """Nodes reachable from the source once `removed` edges are deleted."""
    seen = {net.source}
    queue = [net.source]
    for u in queue:
        for e in net.out_edges[u]:
            if e in removed:
                continue
            v = net.edges[e][1]
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def reachable_after_delete(net: Network, removed: Iterable[int]) -> frozenset[int]:
    """Edges that still carry information once `removed` is deleted: the
    surviving edges whose tail the source still reaches. A set inside the
    complement is separated by `removed`. Raises UnknownEdge on a bad id."""
    gone = frozenset(removed)
    for e in gone:
        net.check_edge(e)
    alive = reachable_nodes(net, gone)
    return frozenset(
        e for e in range(len(net.edges)) if e not in gone and net.edges[e][0] in alive
    )


def reference_domination_rows(net: Network, classes: Sequence[EquivalenceClass]) -> list[int]:
    """`class_hasse(...).above` pair by pair: bit j of row i is set when
    class j has the larger capacity and no edge of class i's representative
    survives the deletion of j's primary cut."""

    def mask(edges: Iterable[int]) -> int:
        return sum(1 << e for e in edges)

    reps = [mask(c.members[0]) for c in classes]
    survivors = [mask(reachable_after_delete(net, c.cut)) for c in classes]
    return [
        sum(
            1 << j
            for j, cj in enumerate(classes)
            if len(ci.cut) < len(cj.cut) and not reps[i] & survivors[j]
        )
        for i, ci in enumerate(classes)
    ]


def separates(net: Network, blockers: Iterable[int], target: Iterable[int]) -> bool:
    """True when deleting `blockers` cuts every source path to `target`.

    A target edge in `blockers` is separated outright; any other target edge
    must have an unreachable tail once the blockers are gone. An empty target
    is vacuously separated. Raises UnknownEdge on a bad id."""
    blocked = frozenset(blockers)
    tset = frozenset(target)
    for e in blocked | tset:
        net.check_edge(e)
    alive = reachable_nodes(net, blocked)
    return all(e in blocked or net.edges[e][0] not in alive for e in tset)


def cut_leq(net: Network, c1: Cut, c2: Cut) -> bool:
    """The order among minimum cuts of one target: c1 <= c2 iff c1 separates
    c2. Its least element is the primary minimum cut."""
    return separates(net, c1.edges, c2.edges)


def minord_merge(net: Network, c1: Cut, c2: Cut) -> Cut:
    """Greatest lower bound of two minimum cuts of c1's target.

    Decomposes one maximum flow into edge-disjoint paths; each path meets
    each minimum cut exactly once, and the merge keeps, per path, whichever
    of the two crossing edges comes first. Raises ValueError when either
    input is not a minimum cut of the target."""
    flow = max_flow(net, c1.target)
    for c in (c1, c2):
        if len(c.edges) != flow.value:
            raise ValueError(f"cut {sorted(c.edges)} has capacity {len(c.edges)}, not {flow.value}")
    # split the flow into unit paths, each following the lowest-id edge that
    # still carries flow until it leaves the network through a target edge
    rem = bytearray(flow.values)
    merged: set[int] = set()
    for _ in range(flow.value):
        path: list[int] = []
        v = net.source
        while not path or path[-1] not in c1.target:
            e = next(e for e in net.out_edges[v] if rem[e])
            rem[e] = 0
            path.append(e)
            v = net.edges[e][1]
        hits1 = [i for i, e in enumerate(path) if e in c1.edges]
        hits2 = [i for i, e in enumerate(path) if e in c2.edges]
        if len(hits1) != 1 or len(hits2) != 1:
            bad = c1 if len(hits1) != 1 else c2
            raise ValueError(f"cut {sorted(bad.edges)} does not cross every flow path once")
        merged.add(path[min(hits1[0], hits2[0])])
    return Cut(target=c1.target, edges=frozenset(merged))


def equivalent(net: Network, a1: Iterable[int], a2: Iterable[int]) -> bool:
    """True when the two sets share a minimum cut: both capacities equal the
    capacity of their union."""
    s1, s2 = frozenset(a1), frozenset(a2)
    c1 = max_flow(net, s1).value
    c2 = max_flow(net, s2).value
    return c1 == c2 == max_flow(net, s1 | s2).value


def dominates(net: Network, a1: Iterable[int], a2: Iterable[int]) -> bool:
    """True when a2's class strictly dominates a1's: a1 has the smaller
    capacity, and a minimum cut of a2 also covers a1, detected through the
    union capacity. Never true for equivalent sets."""
    s1, s2 = frozenset(a1), frozenset(a2)
    c1 = max_flow(net, s1).value
    c2 = max_flow(net, s2).value
    return c1 < c2 and max_flow(net, s1 | s2).value == c2


def enumerate_decompositions(
    net: Network, target: frozenset[int], limit: int = 3, max_paths: int = 400
) -> list[tuple[tuple[int, ...], ...]]:
    """Up to `limit` distinct maximum path packings for a target, in base-edge
    form: each packing is mincut-many edge-disjoint source-to-target paths.
    Returns [] when the target is unreachable or the path space is too big.

    A path may run through a target edge and on to another one; at each node
    edges are tried in ascending id order, and a path through a target edge
    is listed before the path that ends there."""
    value = max_flow(net, target).value
    if value == 0:
        return []

    all_paths: list[tuple[int, ...]] = []

    def dfs(v: int, acc: list[int]) -> None:
        if len(all_paths) > max_paths:
            return
        for e in net.out_edges[v]:
            acc.append(e)
            dfs(net.edges[e][1], acc)
            if e in target and len(all_paths) <= max_paths:
                all_paths.append(tuple(acc))
            acc.pop()

    dfs(net.source, [])
    if len(all_paths) > max_paths:
        return []

    packings: list[tuple[tuple[int, ...], ...]] = []

    def rec(start: int, used: frozenset[int], acc: list[tuple[int, ...]]) -> None:
        if len(packings) >= limit:
            return
        if len(acc) == value:
            packings.append(tuple(acc))
            return
        for idx in range(start, len(all_paths)):
            p = all_paths[idx]
            if used.isdisjoint(p):
                rec(idx + 1, used | set(p), acc + [p])
                if len(packings) >= limit:
                    return

    rec(0, frozenset(), [])
    return packings


def pruning_loop(
    net: Network,
    coll: WiretapCollection,
    per_capacity: bool,
    select: str = "cardinality",
    rng: Optional[random.Random] = None,
) -> list[frozenset[int]]:
    """The paper's iterated cut pruning, kept as a reference for compute_bound.

    Repeatedly: pick a remaining set (largest by the `select` key, either
    "cardinality" or "mincut"; ties go to the lexicographically smallest
    edge list unless `rng` decides), take its primary minimum cut, and drop
    every set that cut separates. With `per_capacity` only sets of the picked
    capacity are dropped and every cut is kept, giving one cut per class;
    without it the kept cuts the new cut separates are dropped too, leaving
    the primary cuts of the maximal classes. Returns the cuts in pick order.
    """
    capacity = list(map(len, set_cuts(coll)))
    size = capacity if select == "mincut" else [len(s) for s in coll.sets]
    remaining = list(range(len(coll.sets)))
    cuts: list[frozenset[int]] = []
    while remaining:
        best = max(size[i] for i in remaining)
        tied = [i for i in remaining if size[i] == best]
        if rng is not None and len(tied) > 1:
            idx = tied[rng.randrange(len(tied))]
        else:
            idx = min(tied, key=lambda i: sorted(coll.sets[i]))
        cut = max_flow(net, coll.sets[idx]).cut
        survivors = reachable_after_delete(net, cut)
        if per_capacity:
            remaining = [
                i for i in remaining if capacity[i] != capacity[idx] or coll.sets[i] & survivors
            ]
        else:
            remaining = [i for i in remaining if coll.sets[i] & survivors]
            cuts = [c for c in cuts if c & survivors]
        cuts.append(cut)
    return cuts


def enumerate_min_cuts(net: Network, target: Iterable[int]) -> MinCutFamily:
    """Every minimum cut of `target`, from the oracle's worker on a fresh memo."""
    return oracle._min_cuts(oracle._Exposed(net), target)


def oracle_primary_min_cut(net: Network, target: Iterable[int]) -> Cut:
    """The primary cut of `target` as the oracle finds it, by inspecting its
    whole minimum-cut family."""
    exposed = oracle._Exposed(net)
    family = oracle._min_cuts(exposed, target)
    return Cut(target=family.target, edges=oracle._primary(exposed, family))


def oracle_bounds(net: Network, sets: Sequence[frozenset[int]]) -> OracleBounds:
    """The oracle's class structure of `sets`, each with a reachable edge."""
    exposed = oracle._Exposed(net)
    return oracle._bounds(exposed, sets, [oracle._min_cuts(exposed, s) for s in sets])


def reference_bounds(
    net: Network, sets: Sequence[frozenset[int]], fams: Sequence[MinCutFamily]
) -> OracleBounds:
    """`oracle_bounds` by the pairwise definitions, given the sets' minimum-cut
    families: components of "the families intersect" by a frontier scan, and
    class i below class j when some cut common to j's members separates each
    member of i, tested set by set with `separates`."""
    families = [set(fam.cuts) for fam in fams]

    unvisited = set(range(len(sets)))
    classes: list[tuple[int, ...]] = []
    while unvisited:
        start = min(unvisited)
        comp = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in list(unvisited - comp):
                if families[i] & families[j]:
                    comp.add(j)
                    frontier.append(j)
        unvisited -= comp
        classes.append(tuple(sorted(comp)))
    classes.sort(key=lambda c: c[0])

    common = [set.intersection(*(families[m] for m in cls)) for cls in classes]
    order: set[tuple[int, int]] = set()
    for i, cls_i in enumerate(classes):
        for j in range(len(classes)):
            if i == j:
                continue
            for cand in common[j]:
                if all(separates(net, cand, sets[m]) for m in cls_i):
                    order.add((i, j))
                    break
    maximal = [
        i for i in range(len(classes)) if not any((i, j) in order for j in range(len(classes)))
    ]
    return OracleBounds(
        n=len(classes),
        n_max=len(maximal),
        classes=tuple(classes),
        order=frozenset(order),
    )
