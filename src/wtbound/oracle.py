"""Brute-force reference implementations for cross-validation.

Everything in this module works straight from the definitions: minimum cuts
are found by trying every edge subset in increasing size order, separation
is checked by a plain search from the source, equivalence means literally
sharing a minimum cut, and domination means some cut common to the whole
dominating class separates every member of the dominated one. No function
here calls the flow kernel (the module imports `cuts` only for the `Cut`
record, and tests/test_oracle.py runs every public function with the kernel
replaced by a stub that raises), so agreement with the fast path is
meaningful evidence. Costs are exponential; the per-target search space is
capped (WTB_MAX_ORACLE_EDGES, default 18).

Each public function reads that cap once and builds one `_Reached` memo that
lives for the call: it maps a deleted edge set to the nodes the source still
reaches, so each distinct set is searched once, however many targets,
candidate cuts and class members ask about it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    from .wiretap import WiretapCollection

from .cuts import Cut
from .errors import (
    EmptyTargetSet,
    InstanceTooLarge,
    NoPrimaryFound,
    ParameterOutOfRange,
    UnreachableTarget,
)
from .graph import EdgeId, Network

DEFAULT_EDGE_LIMIT = 18
ENV_EDGE_LIMIT = "WTB_MAX_ORACLE_EDGES"


def edge_limit() -> int:
    """Per-target cap on the enumeration universe, overridable via env.

    Raises ParameterOutOfRange unless a set override is a positive integer.
    """
    raw = os.environ.get(ENV_EDGE_LIMIT)
    if not raw:
        return DEFAULT_EDGE_LIMIT
    if not (raw.isdigit() and int(raw) > 0):
        raise ParameterOutOfRange(f"${ENV_EDGE_LIMIT} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class MinCutFamily:
    """All minimum cuts of one target, sorted by ascending edge ids."""

    target: frozenset[EdgeId]
    capacity: int
    cuts: tuple[frozenset[EdgeId], ...]


class _Reached(dict):
    """Deleted edge set -> bitmask of the nodes the source still reaches.

    A per-call memo: bit v is set when node v is reached. A missing key runs
    one `_reachable` search and stores its result.
    """

    def __init__(self, net: Network) -> None:
        super().__init__()
        self.net = net

    def __missing__(self, removed: frozenset[EdgeId]) -> int:
        self[removed] = alive = _reachable(self.net, removed)
        return alive


def _reachable(net: Network, removed: frozenset[EdgeId]) -> int:
    # plain depth-first reachability, kept separate from the fast path on purpose
    seen = 1 << net.source
    stack = [net.source]
    while stack:
        u = stack.pop()
        for e in net.out_edges[u]:
            if e in removed:
                continue
            v = net.edges[e][1]
            if not seen >> v & 1:
                seen |= 1 << v
                stack.append(v)
    return seen


def _separated(reached: _Reached, blockers: frozenset[EdgeId], target: frozenset[EdgeId]) -> bool:
    alive = reached[blockers]
    tail = reached.net.tail
    return all(e in blockers or not alive >> tail(e) & 1 for e in target)


def _relevant_edges(reached: _Reached, target: frozenset[EdgeId]) -> list[EdgeId]:
    """Edges lying on some source-to-target path; only these can appear in a
    minimum cut, since dropping any other edge from a cut keeps it a cut."""
    net = reached.net
    alive = reached[frozenset()]
    # nodes from which some target edge's tail can be reached, by reverse walk
    feeds = {net.tail(a) for a in target}
    changed = True
    while changed:
        changed = False
        for t, h in net.edges:
            if h in feeds and t not in feeds:
                feeds.add(t)
                changed = True
    out = []
    for e, (t, h) in enumerate(net.edges):
        if not alive >> t & 1:
            continue
        if e in target or h in feeds:
            out.append(e)
    return out


def enumerate_min_cuts(net: Network, target: Iterable[EdgeId]) -> MinCutFamily:
    """Every minimum cut of `target`, by exhausting subsets in size order.

    Raises EmptyTargetSet on an empty target, UnknownEdge on a bad id, and
    InstanceTooLarge when more than edge_limit() edges lie on source-target
    paths. An unreachable target yields capacity 0 with the empty cut as the
    family's only member.
    """
    return _min_cuts(_Reached(net), target, edge_limit())


def _min_cuts(reached: _Reached, target: Iterable[EdgeId], limit: int) -> MinCutFamily:
    """enumerate_min_cuts with the caller's memo and edge limit."""
    net = reached.net
    tset = frozenset(target)
    if not tset:
        raise EmptyTargetSet("target edge set is empty")
    for e in tset:
        net.check_edge(e)
    universe = _relevant_edges(reached, tset)
    if len(universe) > limit:
        raise InstanceTooLarge(
            f"{len(universe)} edges lie on paths to the target, limit is {limit} "
            f"(raise ${ENV_EDGE_LIMIT} to override)"
        )
    for k in range(len(universe) + 1):
        found = [
            frozenset(combo)
            for combo in combinations(universe, k)
            if _separated(reached, frozenset(combo), tset)
        ]
        if found:
            found.sort(key=sorted)
            return MinCutFamily(target=tset, capacity=k, cuts=tuple(found))
    raise AssertionError("unreachable: deleting every path edge always separates")


def oracle_primary_min_cut(net: Network, target: Iterable[EdgeId]) -> Cut:
    """The family member that separates every other member, by inspection.

    Raises UnreachableTarget on capacity 0 and NoPrimaryFound if no unique
    such member exists (the fast path's correctness implies there always is
    one; this reports rather than assumes it).
    """
    reached = _Reached(net)
    family = _min_cuts(reached, target, edge_limit())
    return Cut(target=family.target, edges=_primary(reached, family))


def _primary(reached: _Reached, family: MinCutFamily) -> frozenset[EdgeId]:
    """The primary cut of a family; oracle_primary_min_cut documents the errors."""
    if family.capacity == 0:
        raise UnreachableTarget(
            f"no edge of {sorted(family.target)} is reachable from the source"
        )
    least = [
        c
        for c in family.cuts
        if all(_separated(reached, c, other) for other in family.cuts)
    ]
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


def oracle_bounds(
    net: Network,
    coll: Union["WiretapCollection", Sequence[frozenset[EdgeId]]],
) -> OracleBounds:
    """Class count, maximal-class count, partition, and domination order.

    `coll` is a preprocessed collection (or a plain sequence of edge sets,
    each with at least one reachable edge). Two sets are equivalent iff their
    minimum-cut families intersect; classes are the components of that
    relation, listed by smallest member index. Class i is below class j iff
    some cut common to all of j's members separates all of i's members.
    """
    sets = list(coll.sets) if hasattr(coll, "sets") else list(coll)
    reached, limit = _Reached(net), edge_limit()
    return _bounds(reached, sets, [_min_cuts(reached, s, limit) for s in sets])


def _bounds(
    reached: _Reached, sets: Sequence[frozenset[EdgeId]], fams: Sequence[MinCutFamily]
) -> OracleBounds:
    """oracle_bounds over sets whose minimum-cut families `fams` are known."""
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
                if all(_separated(reached, cand, sets[m]) for m in cls_i):
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


def _strict_order_pairs(above: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The relation in `HasseDiagram.above` as (dominated, dominator) pairs."""
    return frozenset(
        (i, j) for i, row in enumerate(above) for j in range(row.bit_length()) if row >> j & 1
    )


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def cross_check(net: Network, coll: "WiretapCollection") -> list[CheckResult]:
    """Compare every fast-path result against this module, item by item.

    The fast side is what the flow pass stored on the collection (capacity
    and primary cut per set) and the class table derived from it. Returns one
    record per check; `ok` False means the two implementations disagree,
    which is always a bug in one of them. The domination record also fails
    when the fast relation is not a strict partial order, and the n_max
    record when n_max <= n <= len(sets) does not hold.
    """
    from . import wiretap

    results: list[CheckResult] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        results.append(CheckResult(name, ok, detail))

    # each family is enumerated once and serves every record below
    reached, limit = _Reached(net), edge_limit()
    families = [_min_cuts(reached, s, limit) for s in coll.sets]
    primaries: list[frozenset[EdgeId]] = []
    for i, s in enumerate(coll.sets):
        fast = coll.mincuts[i]
        slow = families[i].capacity
        record(
            f"mincut[{i}]",
            fast == slow,
            f"fast {fast}, oracle {slow} for {sorted(s)}",
        )
        fast_cut = coll.cuts[i]
        slow_cut = _primary(reached, families[i])
        primaries.append(slow_cut)
        record(
            f"primary[{i}]",
            fast_cut == slow_cut,
            f"fast {sorted(fast_cut)}, oracle {sorted(slow_cut)} for {sorted(s)}",
        )

    ob = _bounds(reached, coll.sets, families)
    classes = wiretap.partition_classes(coll)
    fast_partition = tuple(cls.members for cls in classes)
    record(
        "partition",
        fast_partition == ob.classes,
        f"fast {fast_partition}, oracle {ob.classes}",
    )

    diagram = wiretap.class_hasse(net, classes)
    above = diagram.above  # bit j of above[i]: class j dominates class i
    fast_order = _strict_order_pairs(above)
    strict = all(not row >> i & 1 for i, row in enumerate(above)) and all(
        not above[j] >> i & 1 and not above[j] & ~above[i] for i, j in fast_order
    )
    record(
        "domination",
        fast_order == ob.order and strict,
        f"fast {sorted(fast_order)}, oracle {sorted(ob.order)}"
        + ("" if strict else "; fast relation is not a strict partial order"),
    )

    report = wiretap.compute_bound(net, coll, mode="both")
    record("n", report.n_classes == ob.n, f"fast {report.n_classes}, oracle {ob.n}")
    ordered = report.n_max <= report.n_classes <= len(coll.sets)
    record(
        "n_max",
        report.n_max == ob.n_max and ordered,
        f"fast {report.n_max}, oracle {ob.n_max}"
        + ("" if ordered else f"; n_max <= n <= {len(coll.sets)} sets fails"),
    )

    oracle_b = {
        primaries[ob.classes[i][0]]
        for i in range(ob.n)
        if not any((i, j) in ob.order for j in range(ob.n))
    }
    fast_b = {cut.edges for cut in report.cuts}
    record(
        "maximal_cuts",
        fast_b == oracle_b,
        f"fast {sorted(map(sorted, fast_b))}, oracle {sorted(map(sorted, oracle_b))}",
    )
    return results
