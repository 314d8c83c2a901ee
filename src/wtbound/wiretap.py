"""Equivalence classes of wiretap sets, their domination order, and bounds.

Two wiretap sets are equivalent when they share a minimum cut; a set's class
is fully described by its primary minimum cut, so the classes form a finite
poset under domination (a strictly larger minimum-cut capacity plus a cut of
the dominator that also covers the dominated). Security codes only need to
treat one class per maximal element of that poset, which is where the
improved alphabet-size bound comes from: the count N_max of maximal classes,
always at most the class count N, which is at most the collection size.

One maximum flow per distinct reduced flow instance (in `preprocess`)
yields the capacity and primary cut of every set that poses it: sets whose
target edges have the same tails, and the same target edges inside the
searched part of the network, differ only in edges the flow never reads.
Everything after that is set algebra over the stored cuts: sets with the
same primary cut form a class, and class j dominates class i when j has the
larger capacity and deleting j's primary cut severs i's representative.
The order takes one search per class j: from the source, skipping j's cut
edges, it crosses exactly the edges that stay reachable once the cut is
deleted. A representative none of whose edges it crosses is severed, so j
dominates exactly the lower-capacity classes the search leaves unmarked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .cuts import Cut
from .flow import max_flow
from .graph import EdgeId, Network, NodeId

SetFormatter = Callable[[frozenset[EdgeId]], str]


def _default_format(edges: frozenset[EdgeId]) -> str:
    return "{" + ",".join(str(e) for e in sorted(edges)) + "}"


@dataclass(frozen=True)
class WiretapCollection:
    """Deduplicated wiretap sets with cached cut data, in input order.

    `mincuts[i]` is the minimum cut capacity of `sets[i]` and `cuts[i]` its
    primary minimum cut (sets with equal cuts share one frozenset). Build via
    `preprocess`.
    """

    sets: tuple[frozenset[EdgeId], ...]
    mincuts: tuple[int, ...]
    cuts: tuple[frozenset[EdgeId], ...]

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class EquivalenceClass:
    """One class of mutually equivalent wiretap sets.

    `members` are indices into the owning collection, ascending;
    `representative` is the first member's edge set; every member shares
    `primary_cut` and `capacity`.
    """

    members: tuple[int, ...]
    representative: frozenset[EdgeId]
    primary_cut: Cut
    capacity: int


@dataclass(frozen=True)
class HasseDiagram:
    """The domination order on classes, reduced to covering pairs.

    A pair (i, j) in `covering` means class j dominates class i with nothing
    in between. `maximal` lists the indices dominated by no class. `above[i]`
    is the full relation as a bitmask: bit j is set when class j dominates
    class i.
    """

    classes: tuple[EquivalenceClass, ...]
    covering: tuple[tuple[int, int], ...]
    maximal: tuple[int, ...]
    above: tuple[int, ...]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of `compute_bound`.

    `n_classes` / `n_max` are None when the mode skipped them. `cuts` holds
    the primary cuts of the maximal classes in modes "nmax" and "both", one
    cut per class in mode "n"; each cut's target is the class member the
    paper's pruning loop would pick, and the cuts come in that pick order.
    `recommended_alphabet` is the smallest size satisfying both this bound
    (strictly more symbols than maximal classes) and the decodability needs
    of `sinks_considered` sink nodes.
    """

    collection_size: int
    n_classes: Optional[int]
    n_max: Optional[int]
    cuts: tuple[Cut, ...]
    recommended_alphabet: int
    sinks_considered: int


_FlowKey = int | tuple[int, frozenset[EdgeId]]


def _flow_keys(net: Network) -> Callable[[frozenset[EdgeId]], _FlowKey]:
    """The function that maps a target to the reduced flow instance it
    poses: its tails, with multiplicity, and its target edges whose head is
    live. Its ids must be valid; it reads arrays built once here.

    The flow kernel searches only the live nodes L, the ancestors of the
    target edges' tails. Inside L the flow problem is fixed by three things:
    L itself, the exit capacity at each tail (the tail multiset), and which
    edges inside L stop being pass-through edges (the target edges with a
    live head). A target edge with a dead head is only an exit at its tail,
    and a non-target edge into a dead node is never searched. The flow value
    and the primary source side S (the least min-cut side, Picard & Queyranne
    1980) depend only on that problem, not on edge ids or on which maximum
    flow was found. So targets with equal keys have equal capacities, and
    cut(T) = base | {e in T : tail(e) in cut_tails}, where `base` is the
    cut's non-target edges (all with a live head, so none is a target edge
    of another target with the key) and `cut_tails` the tails of its target
    edges, both taken from the first target solved.

    The encoding is exact. The tail multiset is one int: the network's
    distinct tails are numbered 0, 1, ... and edge e weighs 1 << B*i, with i
    the number of its tail and B = len(net.edges).bit_length(), so the sum
    over T holds each tail's multiplicity in its own field of B bits. A
    multiplicity is at most the number of edges, which is below 2**B, so no
    field carries into the next and equal ints mean equal multisets. L is
    the union of the tails' ancestors, a function of that int, so the edges
    leaving those tails with a head in L are cached per int; every edge of
    T leaves one of the tails, so T's live-headed edges are one intersection
    with that entry. The key is the int alone when the intersection is empty
    and the pair (int, intersection) otherwise; an int never equals a pair,
    so each reduced instance has exactly one key.

    The cache serves collections whose sets share tail multisets: the 21,560
    sets of combination 6/4/3 have 41. An entry holds out-edges of T's tails
    only, and there is at most one per distinct reduced instance. The ints
    grow with the network: with k distinct tails a weight or key has up to
    k*B bits, so the weights take about k*k*B/16 bytes (7.3 MB for a layered
    DAG with 2,775 tails and 8,800 edges). The encoding is meant for networks
    of up to a few thousand nodes.
    """
    tails = [t for t, _ in net.edges]
    heads = [h for _, h in net.edges]
    width = len(tails).bit_length()
    field: dict[NodeId, int] = {}  # tail -> its weight; tails numbered densely
    weight = [field.setdefault(t, 1 << width * len(field)) for t in tails]
    out_edges = net.out_edges
    tail_ancestors = [net._ancestors[t] for t in tails]
    # tail key -> edges leaving those tails whose head is live
    live_headed: dict[int, frozenset[EdgeId]] = {}

    def key(target: frozenset[EdgeId]) -> _FlowKey:
        tail_key = sum(map(weight.__getitem__, target))
        inside = live_headed.get(tail_key)
        if inside is None:
            live = 0
            for e in target:
                live |= tail_ancestors[e]
            inside = frozenset(
                f for e in target for f in out_edges[tails[e]] if live >> heads[f] & 1
            )
            live_headed[tail_key] = inside
        inside = target & inside
        return (tail_key, inside) if inside else tail_key

    return key


def preprocess(
    net: Network,
    raw_sets: Iterable[Iterable[EdgeId]],
    describe: SetFormatter = _default_format,
) -> tuple[WiretapCollection, tuple[str, ...]]:
    """Deduplicate and drop degenerate sets, caching capacities and cuts.

    Runs one maximum flow per distinct reduced flow instance (`_flow_keys`),
    so distinct sets that pose the same instance share one flow. Duplicates
    keep their first occurrence; empty sets and sets none of whose edges is
    reachable from the source (minimum cut capacity 0) are dropped. Each
    drop produces a warning line. Raises UnknownEdge on bad ids.
    """
    warnings: list[str] = []
    kept: list[frozenset[EdgeId]] = []
    caps: list[int] = []
    cuts: list[frozenset[EdgeId]] = []
    shared: dict[frozenset[EdgeId], frozenset[EdgeId]] = {}
    seen: set[frozenset[EdgeId]] = set()
    # reduced instance -> (capacity, non-target cut edges, tails of cut target edges)
    solved: dict[_FlowKey, tuple[int, frozenset[EdgeId], frozenset[NodeId]]] = {}
    flow_key = _flow_keys(net)
    tails = [t for t, _ in net.edges]
    ids = frozenset(range(len(tails)))
    for raw in raw_sets:
        s = frozenset(raw)
        if not s:
            warnings.append("empty set dropped")
            continue
        if s in seen:
            warnings.append(f"duplicate set {describe(s)} dropped")
            continue
        seen.add(s)
        if not s <= ids:
            for e in s:
                net.check_edge(e)  # raises UnknownEdge on the first bad id
        key = flow_key(s)
        if key not in solved:
            flow = max_flow(net, s)
            cut_tails = frozenset(tails[e] for e in flow.cut & s)
            solved[key] = (flow.value, flow.cut - s, cut_tails)
        value, base, cut_tails = solved[key]
        if value == 0:
            warnings.append(f"unreachable set {describe(s)} dropped")
            continue
        # s has the solved target's tails, so it has an edge at each cut tail.
        cut = base.union([e for e in s if tails[e] in cut_tails]) if cut_tails else base
        kept.append(s)
        caps.append(value)
        cuts.append(shared.setdefault(cut, cut))
    coll = WiretapCollection(
        sets=tuple(kept),
        mincuts=tuple(caps),
        cuts=tuple(cuts),
    )
    return coll, tuple(warnings)


def partition_classes(coll: WiretapCollection) -> tuple[EquivalenceClass, ...]:
    """Group the collection into equivalence classes, by first-member order.

    Two sets are equivalent exactly when they share their primary minimum
    cut, so the classes are the groups of equal stored cuts; no flow runs.
    """
    groups: dict[frozenset[EdgeId], list[int]] = {}
    for i, cut in enumerate(coll.cuts):
        groups.setdefault(cut, []).append(i)
    return tuple(
        EquivalenceClass(
            members=tuple(mem),
            representative=coll.sets[mem[0]],
            primary_cut=Cut(target=coll.sets[mem[0]], edges=cut),
            capacity=coll.mincuts[mem[0]],
        )
        for cut, mem in groups.items()
    )


def _domination_rows(net: Network, classes: Sequence[EquivalenceClass]) -> list[int]:
    """Row i: bitmask of the classes that dominate class i.

    Class j dominates class i when its capacity is larger and deleting its
    primary cut leaves no edge of i's representative reachable. One search
    per class j decides its whole column: from the source, skipping j's cut
    edges, it crosses exactly the edges that survive the deletion with a
    reached tail, and marks every class whose representative holds one of
    them. A class it leaves unmarked has each representative edge in j's
    cut or behind it, so j dominates exactly the unmarked classes of lower
    capacity. Raises UnknownEdge on a bad representative or cut id.
    """
    holders = [0] * len(net.edges)  # edge -> classes whose representative holds it
    by_capacity: dict[int, int] = {}
    for i, c in enumerate(classes):
        for e in c.representative | c.primary_cut.edges:
            net.check_edge(e)
        for e in c.representative:
            holders[e] |= 1 << i
        by_capacity[c.capacity] = by_capacity.get(c.capacity, 0) | 1 << i
    lower: dict[int, int] = {}  # capacity -> classes of lower capacity
    acc = 0
    for cap in sorted(by_capacity):
        lower[cap] = acc
        acc |= by_capacity[cap]
    out_edges, edges = net.out_edges, net.edges
    rows = [0] * len(classes)
    for j, c in enumerate(classes):
        cut = c.primary_cut.edges
        seen = bytearray(net.num_nodes)
        seen[net.source] = 1
        stack = [net.source]
        marked = 0
        while stack:
            for e in out_edges[stack.pop()]:
                if e in cut:
                    continue
                marked |= holders[e]
                v = edges[e][1]
                if not seen[v]:
                    seen[v] = 1
                    stack.append(v)
        for i in _bits(lower[c.capacity] & ~marked):
            rows[i] |= 1 << j
    return rows


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, ascending, one lowest-set-bit step each."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def class_hasse(net: Network, classes: Sequence[EquivalenceClass]) -> HasseDiagram:
    """Domination order on classes, reduced to its covering pairs.

    The covering pairs of class i are the classes above it that no other
    class above it lies below. `oracle.cross_check` checks that the relation
    is a strict partial order.
    """
    above = _domination_rows(net, classes)
    covering = []
    for i, row in enumerate(above):
        implied = 0
        for j in _bits(row):
            implied |= above[j]
        covering += [(i, j) for j in _bits(row & ~implied)]
    maximal = tuple(i for i, row in enumerate(above) if not row)
    return HasseDiagram(
        classes=tuple(classes), covering=tuple(covering), maximal=maximal, above=tuple(above)
    )


def compute_bound(net: Network, coll: WiretapCollection, mode: str = "both") -> BoundReport:
    """Alphabet-size lower bounds from the class table.

    Modes: "nmax" computes only the count of maximal classes, "n" only the
    class count, "both" computes the two together. The returned
    recommendation is max(bound + 1, number of sinks), using the strongest
    bound computed; with no declared sinks the sink term is 0. An empty
    collection yields zero bounds.

    The cuts come in the order the paper's pruning loop picks them: by their
    class's largest member, ties broken by the lexicographically smallest
    edge list. The loop's result does not depend on that order.
    """
    if mode not in ("nmax", "n", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    classes = partition_classes(coll)
    n_classes = len(classes) if mode in ("n", "both") else None
    n_max = None
    if mode in ("nmax", "both"):
        rows = _domination_rows(net, classes)
        classes = tuple(c for c, row in zip(classes, rows) if not row)
        n_max = len(classes)

    def pick_key(cls: EquivalenceClass) -> tuple[int, list[EdgeId]]:
        return min((-len(coll.sets[m]), sorted(coll.sets[m])) for m in cls.members)

    picks = sorted((pick_key(cls), i) for i, cls in enumerate(classes))
    cuts = tuple(
        Cut(target=frozenset(edges), edges=classes[i].primary_cut.edges)
        for (_, edges), i in picks
    )
    bound = n_max if n_max is not None else n_classes
    return BoundReport(
        collection_size=len(coll.sets),
        n_classes=n_classes,
        n_max=n_max,
        cuts=cuts,
        recommended_alphabet=max(bound + 1, len(net.sinks)),
        sinks_considered=len(net.sinks),
    )
