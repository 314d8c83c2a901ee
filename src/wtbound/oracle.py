"""Brute-force reference implementations for cross-validation.

Everything in this module works straight from the definitions: minimum cuts
are found by trying every edge subset in increasing size order, separation
is checked by a plain search from the source, equivalence means literally
sharing a minimum cut, and domination means some cut common to the whole
dominating class separates every member of the dominated one. The one public
function is `cross_check`, which compares the fast path with the private
reference workers `_min_cuts`, `_primary` and `_bounds`. Nothing here calls
the flow kernel: the module imports nothing from `flow` or `wiretap` at
module level (`cross_check` imports `wiretap` only to run the fast side),
and tests/test_oracle.py runs the workers and `cross_check` with the kernel
replaced by a stub that raises. So agreement with the fast path is
meaningful evidence. Costs are exponential; the per-target search space is
capped (WTB_MAX_ORACLE_EDGES, default 18).

`cross_check` builds one `_Exposed` memo that lives for the call and reads
that cap once. The memo is keyed by the bitmask of a deleted edge set B and
holds exposed(B), defined below. A miss costs one sweep over the nodes in
topological order, so each distinct deleted set is swept once, however many
targets, candidate cuts and class members ask about it. Every cut stays a
bitmask, from enumeration to the end; only the primary cut `_primary` picks
for each target becomes an edge set, to be compared with the fast path's.

Separation is one AND of two edge bitmasks. For a deleted set B, exposed(B)
holds every edge not in B whose tail the source still reaches once B is
gone. B separates T when every source path to T meets B: each edge of T is
in B or has an unreachable tail, since a path into an edge ends at its tail
and a reachable tail with the edge still present is a path through it. That
is exactly "no edge of T is exposed", mask(T) & exposed(B) == 0. It holds for
any union of targets at once, so "c separates every member of a class" is
one AND against the OR of the members' masks.
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .wiretap import WiretapCollection

from .errors import (
    EmptyTargetSet,
    InstanceTooLarge,
    NoPrimaryFound,
    ParameterOutOfRange,
    UnreachableTarget,
)
from .graph import EdgeId, Network, bits, topological_order

DEFAULT_EDGE_LIMIT = 18
ENV_EDGE_LIMIT = "WTB_MAX_ORACLE_EDGES"


def edge_limit() -> int:
    """Per-target cap on the enumeration universe, overridable via env.

    Raises ParameterOutOfRange unless a set override is a positive integer.
    """
    raw = os.environ.get(ENV_EDGE_LIMIT)
    if not raw:
        return DEFAULT_EDGE_LIMIT
    if not (raw.isdecimal() and int(raw) > 0):
        raise ParameterOutOfRange(f"${ENV_EDGE_LIMIT} must be a positive integer, got {raw!r}")
    return int(raw)


class MinCutFamily(NamedTuple):
    """All minimum cuts of one target, each as its edge bitmask (bit e for
    edge e), in the lexicographic order of their ascending edge lists."""

    target: frozenset[EdgeId]
    capacity: int
    cuts: tuple[int, ...]


class _Exposed(dict):
    """Deleted-edge bitmask B -> exposed(B), the edges not in B whose tail
    the source still reaches once B is deleted.

    A per-call memo. A missing key runs one sweep in topological order: a
    node is reached when an exposed edge enters it, and then its out-edges
    outside B are exposed too. B separates T iff mask(T) & exposed(B) is 0
    (see the module docstring). `limit` is edge_limit(), read once per memo.
    `upstream`, built once in the same order, holds for each node the edges
    whose head reaches it, so a target's search universe takes no sweep.
    """

    def __init__(self, net: Network) -> None:
        super().__init__()
        self.net = net
        self.limit = edge_limit()
        self.order = topological_order(net)
        self.out = [_mask(out) for out in net.out_edges]
        self.into = [_mask(into) for into in net.in_edges]
        # upstream[v]: the edges whose head reaches v, v's in-edges included
        upstream = [0] * net.num_nodes
        for v in self.order:
            for e in net.in_edges[v]:
                upstream[v] |= 1 << e | upstream[net.edges[e][0]]
        self.upstream = upstream

    def __missing__(self, removed: int) -> int:
        # plain reachability, kept separate from the fast path on purpose
        keep, out, into = ~removed, self.out, self.into
        exp = out[self.net.source] & keep
        for v in self.order:
            if into[v] & exp:
                exp |= out[v] & keep
        self[removed] = exp
        return exp


def _mask(edges: Iterable[EdgeId]) -> int:
    mask = 0
    for e in edges:
        mask |= 1 << e
    return mask


def _relevant_edges(exposed: _Exposed, target: frozenset[EdgeId]) -> list[EdgeId]:
    """Edges lying on some source-to-target path; only these can appear in a
    minimum cut, since dropping any other edge from a cut keeps it a cut."""
    # the target edges and every edge whose head reaches a target edge's tail
    edges, upstream, paths = exposed.net.edges, exposed.upstream, 0
    for e in target:
        paths |= 1 << e | upstream[edges[e][0]]
    return bits(exposed[0] & paths)


def _min_cuts(exposed: _Exposed, target: Iterable[EdgeId]) -> MinCutFamily:
    """Every minimum cut of `target`, by exhausting subsets in size order.

    Raises EmptyTargetSet on an empty target, UnknownEdge on a bad id, and
    InstanceTooLarge when more than `exposed.limit` edges lie on
    source-target paths. An unreachable target yields capacity 0 with the
    empty cut, mask 0, as the family's only member.
    """
    tset = exposed.net.edge_set(target)
    if not tset:
        raise EmptyTargetSet("target edge set is empty")
    tmask = _mask(tset)
    universe = _relevant_edges(exposed, tset)
    if len(universe) > exposed.limit:
        raise InstanceTooLarge(
            f"{len(universe)} edges lie on paths to the target, limit is {exposed.limit} "
            f"(raise ${ENV_EDGE_LIMIT} to override)"
        )
    # the universe ascends, so combinations yields each size's subsets in the
    # lexicographic order of their ascending edge lists
    singles = [1 << e for e in universe]
    for k in range(len(universe) + 1):
        found = [m for m in map(sum, combinations(singles, k)) if not tmask & exposed[m]]
        if found:
            return MinCutFamily(target=tset, capacity=k, cuts=tuple(found))
    raise AssertionError("unreachable: deleting every path edge always separates")


def _primary(exposed: _Exposed, family: MinCutFamily) -> int:
    """The edge mask of the family member that separates every other member,
    by inspection.

    Raises UnreachableTarget on capacity 0 and NoPrimaryFound if no unique
    such member exists (the fast path's correctness implies there always is
    one; this reports rather than assumes it).
    """
    if family.capacity == 0:
        raise UnreachableTarget(
            f"no edge of {sorted(family.target)} is reachable from the source"
        )
    # a cut separates every member iff it separates the union of their edges
    span = 0
    for c in family.cuts:
        span |= c
    least = [c for c in family.cuts if not span & exposed[c]]
    if len(least) != 1:
        raise NoPrimaryFound(
            f"{len(least)} candidates among {len(family.cuts)} minimum cuts "
            f"of {sorted(family.target)}"
        )
    return least[0]


class OracleBounds(NamedTuple):
    n: int
    n_max: int
    classes: tuple[tuple[int, ...], ...]
    order: frozenset[tuple[int, int]]


def _bounds(
    exposed: _Exposed, sets: Sequence[frozenset[EdgeId]], fams: Sequence[MinCutFamily]
) -> OracleBounds:
    """Class count, maximal-class count, partition, and domination order of
    `sets`, each with at least one reachable edge, given their minimum-cut
    families `fams`.

    Two sets are equivalent iff their families intersect; classes are the
    components of that relation, listed by smallest member index. Class i is
    below class j iff some cut common to all of j's members separates all of
    i's members.
    """
    # union-find over sets sharing a cut; every root is its component's least index
    root = list(range(len(sets)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    holder: dict[int, int] = {}
    for i, fam in enumerate(fams):
        for c in fam.cuts:
            a, b = find(holder.setdefault(c, i)), find(i)
            root[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(len(sets)):
        groups.setdefault(find(i), []).append(i)
    classes = [tuple(members) for members in groups.values()]

    # class i is below class j iff deleting some cut common to j's members
    # exposes no edge of any member of i
    spans = [_mask(e for m in cls for e in sets[m]) for cls in classes]
    order: set[tuple[int, int]] = set()
    for j, cls_j in enumerate(classes):
        common = set.intersection(*(set(fams[m].cuts) for m in cls_j))
        for cand in common:
            exp = exposed[cand]
            order.update((i, j) for i, span in enumerate(spans) if i != j and not span & exp)
    dominated = {i for i, _ in order}
    return OracleBounds(
        n=len(classes),
        n_max=len(classes) - len(dominated),
        classes=tuple(classes),
        order=frozenset(order),
    )


def _strict_order_pairs(above: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The relation in `HasseDiagram.above` as (dominated, dominator) pairs."""
    return frozenset((i, j) for i, row in enumerate(above) for j in bits(row))


class CheckResult(NamedTuple):
    """One comparison of `cross_check`; `detail` says how the two sides
    differ, and is empty when they agree (`ok` True)."""

    name: str
    ok: bool
    detail: str


def cross_check(net: Network, coll: "WiretapCollection") -> list[CheckResult]:
    """Compare every fast-path result against this module, item by item.

    The fast side is the class table the flow pass built (`coll.classes`,
    compared as a partition of set indices; a member missing from `coll.sets`
    reads -1), each set's primary cut, read as the `cut` of the class that
    holds it (its size is the set's capacity; a set no class holds reads the
    empty cut), and the table's `class_hasse` diagram, whose maximal classes
    are the ones `compute_bound` reports in mode "nmax". Returns one record per check; `ok`
    False means the two implementations disagree, always a bug in one of them.
    The domination record also fails when the fast relation is not a strict
    partial order, and the n_max record unless n_max <= n <= len(sets).
    A passing record's `detail` is empty: each detail is formatted only
    for a check that fails. Raises TypeError on a `coll` that is not a
    WiretapCollection, such as its class table.
    """
    from . import wiretap

    if not isinstance(coll, wiretap.WiretapCollection):
        raise TypeError(f"expected a WiretapCollection from preprocess, got {type(coll).__name__}")
    results: list[CheckResult] = []

    def record(name: str, ok: bool, detail: Callable[[], str]) -> None:
        results.append(CheckResult(name, ok, "" if ok else detail()))

    # each family is enumerated once and serves every record below
    exposed = _Exposed(net)
    families = [_min_cuts(exposed, s) for s in coll.sets]
    classes = coll.classes
    # checks every cut id before a failing record formats a cut
    diagram = wiretap.class_hasse(net, classes)
    cut_of = {s: cls.cut for cls in classes for s in cls.members}
    primaries: list[frozenset[EdgeId]] = []
    for i, s in enumerate(coll.sets):
        fast_cut = cut_of.get(s, frozenset())
        fast, slow = len(fast_cut), families[i].capacity
        record(
            f"mincut[{i}]",
            fast == slow,
            lambda: f"fast {fast}, oracle {slow} for {sorted(s)}",
        )
        slow_cut = frozenset(bits(_primary(exposed, families[i])))
        primaries.append(slow_cut)
        record(
            f"primary[{i}]",
            fast_cut == slow_cut,
            lambda: f"fast {sorted(fast_cut)}, oracle {sorted(slow_cut)} for {sorted(s)}",
        )

    ob = _bounds(exposed, coll.sets, families)
    index = {s: i for i, s in enumerate(coll.sets)}
    fast_partition = tuple(tuple(index.get(s, -1) for s in cls.members) for cls in classes)
    record(
        "partition",
        fast_partition == ob.classes,
        lambda: f"fast {fast_partition}, oracle {ob.classes}",
    )

    above = diagram.above  # bit j of above[i]: class j dominates class i
    fast_order = _strict_order_pairs(above)
    strict = all(not row >> i & 1 for i, row in enumerate(above)) and all(
        not above[j] >> i & 1 and not above[j] & ~above[i] for i, j in fast_order
    )
    record(
        "domination",
        fast_order == ob.order and strict,
        lambda: f"fast {sorted(fast_order)}, oracle {sorted(ob.order)}"
        + ("" if strict else "; fast relation is not a strict partial order"),
    )

    n, n_max = len(classes), len(diagram.maximal)
    record("n", n == ob.n, lambda: f"fast {n}, oracle {ob.n}")
    ordered = n_max <= n <= len(coll.sets)
    record(
        "n_max",
        n_max == ob.n_max and ordered,
        lambda: f"fast {n_max}, oracle {ob.n_max}"
        + ("" if ordered else f"; n_max <= n <= {len(coll.sets)} sets fails"),
    )

    dominated = {i for i, _ in ob.order}
    oracle_b = {primaries[cls[0]] for i, cls in enumerate(ob.classes) if i not in dominated}
    fast_b = {classes[i].cut for i in diagram.maximal}
    record(
        "maximal_cuts",
        fast_b == oracle_b,
        lambda: f"fast {sorted(map(sorted, fast_b))}, oracle {sorted(map(sorted, oracle_b))}",
    )
    return results
