"""Equivalence classes of wiretap sets, their domination order, and bounds.

Two wiretap sets are equivalent when they share a minimum cut; a set's class
is fully described by its primary minimum cut, so the classes form a finite
poset under domination (a strictly larger minimum-cut capacity plus a cut of
the dominator that also covers the dominated; between primary cuts, one cut
severing the other). Security codes only need to treat one class per
maximal element of that poset, which is where the improved alphabet-size
bound comes from: the count N_max of maximal classes, always at most the
class count N, which is at most the collection size.

One maximum flow per distinct reduced flow instance (in `preprocess`)
yields the primary cut of every set that poses it: sets whose target edges
have the same tails, and the same target edges inside the searched part of
the network, differ only in edges the flow never reads. Sets with the same
primary cut form a class, and the class table is the only place a cut is
stored: each class holds its cut once, and a set's cut, whose size is the
set's capacity, is the cut of the class that holds it. Everything after
that is set algebra over the classes' cuts: class j dominates class i when
j != i and deleting j's cut severs i's cut, with no member or capacity read
(`class_hasse` proves it). `class_hasse` is the only code that derives that
order, in one topological sweep whose masks carry one bit per class;
`compute_bound` (mode "nmax") and `oracle.cross_check` read the maximal
classes off its diagram. Records hold only what their stage computes: N is
`len(classes)`, and N_max the length of the bound's `cuts`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import flow
from .errors import ParameterOutOfRange
from .graph import EdgeId, Network, NodeId, topological_order


class EquivalenceClass(NamedTuple):
    """One class of mutually equivalent wiretap sets.

    `members` are the member edge sets in collection order; every member
    has the primary minimum cut `cut`, and `len(cut)` is the class's
    capacity. `class_hasse` reads only `cut`; `compute_bound` also picks a
    member as the target of each cut it reports.
    """

    members: tuple[frozenset[EdgeId], ...]
    cut: frozenset[EdgeId]


class WiretapCollection(NamedTuple):
    """Deduplicated wiretap sets, in input order, and their class table.

    `classes` groups the sets by equal primary cut: one class per distinct
    cut, in order of first member. A set's primary cut is the `cut` of the
    class that holds it, and its size the set's minimum cut capacity.
    Build via `preprocess`. The set count is `len(coll.sets)`; `len(coll)`
    counts the record's two fields.
    """

    sets: tuple[frozenset[EdgeId], ...]
    classes: tuple[EquivalenceClass, ...]


class _HasseFields(NamedTuple):
    maximal: tuple[int, ...]
    above: tuple[int, ...]


class HasseDiagram(_HasseFields):
    """The domination order on a class table. Build through `class_hasse`.

    Bit j of `above[i]` is set when class j dominates class i of the table,
    which is not held; `maximal` lists the classes with an empty row. The
    fields live in a NamedTuple base, and the `__dict__` of this subclass
    caches `covering`.
    """

    @cached_property
    def covering(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j), ascending, where class j dominates class i with nothing
        in between: no other class above i lies below j. Reduced on first read."""
        above = self.above
        covering = []
        for i, row in enumerate(above):
            implied = 0
            for j in _bits(row):
                implied |= above[j]
            covering += [(i, j) for j in _bits(row & ~implied)]
        return tuple(covering)


class Cut(NamedTuple):
    """An edge set `edges` separating `target` from the source.

    `BoundReport.cuts` holds one per counted class: the class's primary cut,
    with `target` the member the pick chose. The capacity is `len(edges)`.
    Nothing checks on construction that `edges` separates `target`.
    """

    target: frozenset[EdgeId]
    edges: frozenset[EdgeId]


class BoundReport(NamedTuple):
    """Outcome of `compute_bound`: the primary cuts of the classes it counts,
    each with the member the paper's pruning loop picks as its target, in
    pick order, so `len(cuts)` is the bound (N_max, or N in mode "n"); and
    the smallest alphabet above it that also serves every sink node."""

    cuts: tuple[Cut, ...]
    recommended_alphabet: int


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ...: an incremental sieve of Eratosthenes.

    `ahead` maps each coming composite to a prime that divides it; a number
    no prime has marked is the next prime. It holds one entry per prime
    yielded, so it grows with the primes asked for.
    """
    ahead: dict[int, int] = {}
    n = 2
    while True:
        p = ahead.pop(n, None)
        if p is None:
            yield n
            ahead[n * n] = n
        else:
            m = n + p
            while m in ahead:
                m += p
            ahead[m] = p
        n += 1


def preprocess(
    net: Network, raw_sets: Iterable[Iterable[EdgeId]]
) -> tuple[WiretapCollection, tuple[tuple[int, str, frozenset[EdgeId]], ...]]:
    """Deduplicate and drop degenerate sets, caching primary cuts and classes.

    Duplicates keep their first occurrence; empty sets and sets none of
    whose edges is reachable from the source (an empty primary cut) are
    dropped. Each drop is recorded as `(position, kind, set)`: the 0-based
    index in `raw_sets` and one of "empty", "duplicate" or "unreachable".
    Raises UnknownEdge on bad ids.

    One loop, one pass over `raw_sets`: each set is deduplicated, keyed,
    given its cut and placed in its class. `seen` holds every distinct set,
    an unreachable one too, so a later copy is dropped as a duplicate;
    `kept` lists the reachable ones in input order. Two sets are equivalent
    exactly when their primary cuts are equal, so the classes are the
    groups of equal cuts: `groups` maps each cut to its sets, and its
    insertion order is the classes' first-member order.

    `flow.max_flow` runs once per reduced flow instance: the set's tails,
    with multiplicity, and its target edges whose head is live. Why that
    instance fixes the cut: the flow kernel searches only the live nodes L,
    the ancestors of the target edges' tails. Inside L the flow problem is
    fixed by three things: L itself, the exit capacity at each tail (the
    tail multiset), and which edges inside L stop being pass-through edges
    (the target edges with a live head). A target edge with a dead head is
    only an exit at its tail, and a non-target edge into a dead node is
    never searched. The flow value and the primary source side S (the least
    min-cut side, Picard & Queyranne 1980) depend only on that problem, not
    on edge ids or on which maximum flow was found. So targets posing equal
    instances have equal capacities, and
    cut(T) = base | {e in T : tail(e) in cut_tails}, where `base` is the
    cut's non-target edges (all with a live head, so none is a target edge
    of another target with the instance) and `cut_tails` the tails of its
    target edges, both taken from the first target solved.

    The tail multiset is keyed by one integer: each tail the collection
    names gets the next unused prime, in order of first use, and a set's
    key is the product of its edges' tail primes. By unique factorization
    two sets have equal keys exactly when their tail multisets are equal.
    An edge's prime is looked up in a table filled the first time the
    collection names the edge, after its id is checked, so a key never
    reads a bad id. A set costs O(|T|) multiplications beyond the misses.

    L is a function of the tails, so the edges leaving them with a live head
    are cached per key; on a miss, L is read off the live mask of the flow
    the miss runs, which also solves the entry's first instance. Every edge
    of T leaves one of the tails, so T's live-headed edges are one
    intersection with that entry, skipped when the entry is empty. The
    cache holds one entry per distinct tail multiset the collection uses
    (at worst, one per set), each with out-edges of those tails only, and
    the prime tables one entry per tail and per edge the collection names,
    so memory grows with the collection, not with the network. A set's cut
    is kept only as its class's key and `cut`, once per class.
    """
    tails = [t for t, _ in net.edges]
    heads = [h for _, h in net.edges]
    out_edges = net.out_edges
    primes = _primes()
    tail_prime: dict[NodeId, int] = {}
    factor: dict[EdgeId, int] = {}  # edge named so far -> the prime of its tail
    # tail multiset key -> (edges leaving those tails whose head is live,
    #   live-headed target edges -> (non-target cut edges, tails of cut target edges))
    cache: dict[
        int,
        tuple[frozenset[EdgeId], dict[frozenset[EdgeId], tuple[frozenset[EdgeId], frozenset[NodeId]]]],
    ] = {}
    drops: list[tuple[int, str, frozenset[EdgeId]]] = []
    seen: set[frozenset[EdgeId]] = set()
    kept: list[frozenset[EdgeId]] = []
    groups: dict[frozenset[EdgeId], list[frozenset[EdgeId]]] = {}  # cut -> its sets
    for pos, raw in enumerate(raw_sets):
        s = frozenset(raw)
        if not s:
            drops.append((pos, "empty", s))
            continue
        if s in seen:
            drops.append((pos, "duplicate", s))
            continue
        seen.add(s)
        try:
            key = prod(map(factor.__getitem__, s))
        except KeyError:
            for e in s:
                net.check_edge(e)  # raises UnknownEdge on the first bad id
                t = tails[e]
                if t not in tail_prime:
                    tail_prime[t] = next(primes)
                factor[e] = tail_prime[t]
            key = prod(map(factor.__getitem__, s))
        entry = cache.get(key)
        run = None  # a new tail multiset's flow, which its reduced target misses too
        if entry is None:
            run = flow.max_flow(net, s)
            live = run.live
            inside = frozenset(
                e for t in {tails[e] for e in s} for e in out_edges[t] if live[heads[e]]
            )
            entry = cache[key] = (inside, {})
        inside, solved = entry
        reduced = s & inside if inside else inside
        found = solved.get(reduced)
        if found is None:
            cut = (run or flow.max_flow(net, s)).cut
            found = solved[reduced] = (cut - s, frozenset(tails[e] for e in cut & s))
        cut, cut_tails = found
        if cut_tails:
            # s has the solved target's tails, so it has an edge at each cut tail
            cut = cut.union([e for e in s if tails[e] in cut_tails])
        if not cut:
            drops.append((pos, "unreachable", s))
            continue
        kept.append(s)
        members = groups.get(cut)
        if members is None:
            groups[cut] = [s]
        else:
            members.append(s)
    coll = WiretapCollection(
        sets=tuple(kept),
        classes=tuple(
            EquivalenceClass(members=tuple(members), cut=cut) for cut, members in groups.items()
        ),
    )
    return coll, tuple(drops)


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, ascending, one lowest-set-bit step each."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def class_hasse(net: Network, classes: Sequence[EquivalenceClass]) -> HasseDiagram:
    """The domination order on classes, as one bitmask row per class of the
    table, which the diagram does not hold.

    Class j dominates class i when j != i and deleting j's cut severs i's
    cut: no edge of i's cut outside j's has a tail the source still reaches.
    Only the cuts are read, so a class may have no members; the cuts must be
    the distinct primary cuts `preprocess` stores. One sweep in topological
    order decides this for all j at once; bit j of each mask stands for the
    network without j's cut. `severs[e]` holds the classes whose cut
    contains edge e, and `reach[v]` the classes whose cut leaves node v
    reachable: all of them at the source, elsewhere the OR of
    `reach[tail] & ~severs[e]` over v's in-edges. Every tail is swept before
    its heads, so bit j of `reach[tail(e)] & ~severs[e]` is set exactly when
    e is not in j's cut and the source reaches e's tail with that cut
    deleted. So bit j of row i is set exactly when j != i and no edge of
    i's cut sets bit j of that mask. Raises UnknownEdge on a bad cut id.
    `oracle.cross_check` checks that the relation is a strict partial order.

    Why this is the paper's order, in which j dominates i when j has the
    larger capacity and j's cut severs every member of i. "B severs X"
    means that once B is deleted, no edge of X outside B has a tail the
    source reaches. Write S(X) for the residual source side of a maximum
    flow to the edge set X, searched over the whole network (the `side` of
    `tests/helpers.reference_max_flow`): the least minimiser, over node sets
    Y that hold the source, of k_X(Y) = #{e in X : tail in Y} +
    #{e not in X : tail in Y, head not in Y}. Write P(X) for the primary
    cut `flow.max_flow(net, X).cut`; a primary cut C has P(C) = C.

    1. Deleting P(X) leaves exactly S(X) reachable.
    2. If T is inside W, then S(W) is inside S(T): k is submodular, and
       k_W - k_T = #{e in W - T : both ends in Y} grows with Y, so
       S(T) & S(W) also minimises k_W.
    3. If C_j severs a member T of class i, it severs C_i = P(T). Let
       W = T | C_j. C_j cuts W, and every cut of W cuts C_j, so C_j is a
       minimum cut of W and S(W) = S(C_j); by (2), S(C_j) is inside S(T).
       An edge of C_i whose tail is in S(C_j) either lies in T, and so in
       C_j, which severs T, or leaves S(T), which holds S(C_j), and so lies
       in C_j. Conversely, anything that severs C_i severs T, since C_i
       cuts T.
    4. If C_j != C_i severs C_i, then |C_j| > |C_i|. Since C_j severs C_i
       it is a cut of C_i, so |C_j| >= |C_i|. At equality C_j would be a
       minimum cut of C_i, which C_i, the least one, severs in turn; two
       minimum cuts that sever each other are equal, since each path of a
       maximum flow crosses each of them exactly once.

    So no member needs to be read, and the capacity test is implied.
    """
    severs = [0] * len(net.edges)
    for j, c in enumerate(classes):
        for e in c.cut:
            net.check_edge(e)
            severs[e] |= 1 << j
    edges = net.edges
    full = (1 << len(classes)) - 1
    reach = [0] * net.num_nodes
    reach[net.source] = full
    for v in topological_order(net):
        if reach[v]:
            for e in net.out_edges[v]:
                reach[edges[e][1]] |= reach[v] & ~severs[e]
    rows = []
    for i, c in enumerate(classes):
        kept = 1 << i  # a class does not dominate itself
        for e in c.cut:
            kept |= reach[edges[e][0]] & ~severs[e]
        rows.append(full & ~kept)
    maximal = tuple(i for i, row in enumerate(rows) if not row)
    return HasseDiagram(maximal=maximal, above=tuple(rows))


def compute_bound(net: Network, classes: Sequence[EquivalenceClass], mode: str = "nmax") -> BoundReport:
    """Alphabet-size lower bound from a class table, such as `coll.classes`.

    A `WiretapCollection` in place of the table raises AttributeError.
    Mode "nmax" reports the maximal classes' cuts (`class_hasse`), mode "n"
    every class's cut with no domination pass, so `len(cuts)` is N_max or N;
    any other mode raises ParameterOutOfRange. The recommendation is
    max(len(cuts) + 1, number of sinks); with no declared sinks the sink
    term is 0. An empty table yields no cuts.

    The cuts come in the order the paper's pruning loop picks them: by their
    class's largest member, ties broken by the lexicographically smallest
    edge list. The loop's result does not depend on that order. Each cut's
    target is that picked member. Raises ParameterOutOfRange on a class with
    no members, and UnknownEdge on a bad id in a cut or target it reports.
    """
    if mode not in ("nmax", "n"):
        raise ParameterOutOfRange(f"unknown mode {mode!r}: expected 'nmax' or 'n'")
    for i, cls in enumerate(classes):
        if not cls.members:
            raise ParameterOutOfRange(f"class {i} has no members")
    if mode == "nmax":
        classes = tuple(classes[i] for i in class_hasse(net, classes).maximal)
    picks = []
    for i, cls in enumerate(classes):
        # min((-len(s), sorted(s)) for s in cls.members), without a frame per member
        sizes = list(map(len, cls.members))
        size = max(sizes)
        largest = compress(cls.members, map(size.__eq__, sizes))
        picks.append(((-size, min(map(sorted, largest))), i))
    picks.sort()
    cuts = []
    for (_, target), i in picks:
        edges = classes[i].cut
        for e in (*target, *edges):  # not their union, which keeps one of 1 and 1.0
            net.check_edge(e)
        cuts.append(Cut(target=frozenset(target), edges=edges))
    return BoundReport(cuts=tuple(cuts), recommended_alphabet=max(len(cuts) + 1, len(net.sinks)))
