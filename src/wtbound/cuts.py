"""Cuts between the source and edge sets, and the order structure on them.

A cut here is always a set of base edges whose removal leaves no path from
the source that reaches (covers) any edge of the target set, where an edge of
the target counts as reached even if the path ends with it. Minimum cuts for
a target A form a lattice under the order "C1 <= C2 iff C1 separates C2 from
the source"; its least element is the primary minimum cut, the one found
closest to the source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import TargetMismatch, UnreachableTarget
from .flow import max_flow
from .graph import EdgeId, Network, NodeId


@dataclass(frozen=True)
class Cut:
    """An edge set separating `target` from the source in some network.

    Instances are plain values; nothing checks on construction that `edges`
    actually separates `target`. The functions in this module that return
    cuts always produce minimum ones.
    """

    target: frozenset[EdgeId]
    edges: frozenset[EdgeId]

    @property
    def capacity(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[EdgeId, ...]:
        """Canonical ascending edge-id form, for display and comparison."""
        return tuple(sorted(self.edges))


def reachable_nodes(net: Network, removed: frozenset[EdgeId] = frozenset()) -> frozenset[NodeId]:
    """Nodes reachable from the source once `removed` edges are deleted."""
    seen = {net.source}
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for e in net.out_edges[u]:
            if e in removed:
                continue
            v = net.edges[e][1]
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def separates(net: Network, blockers: Iterable[EdgeId], target: Iterable[EdgeId]) -> bool:
    """True when deleting `blockers` cuts every source path to `target`.

    A target edge in `blockers` is separated outright; any other target edge
    must have an unreachable tail once the blockers are gone. An empty target
    is vacuously separated.
    """
    blocked = frozenset(blockers)
    tset = frozenset(target)
    for e in blocked | tset:
        net.check_edge(e)
    alive = reachable_nodes(net, blocked)
    return all(e in blocked or net.tail(e) not in alive for e in tset)


def mincut_capacity(net: Network, target: Iterable[EdgeId]) -> int:
    """Minimum number of edges needed to separate `target` from the source.

    Zero when no target edge is reachable. Raises EmptyTargetSet on an empty
    target and UnknownEdge on a bad id.
    """
    return max_flow(net, target).value


def primary_min_cut(net: Network, target: Iterable[EdgeId]) -> Cut:
    """The unique minimum cut of `target` lying closest to the source.

    Computed as the edges leaving the set of residual-reachable nodes of a
    maximum flow, which is the intersection of the source sides of all
    minimum cuts and hence independent of which maximum flow was found.
    Raises UnreachableTarget when no target edge is reachable (capacity 0),
    EmptyTargetSet on an empty target, UnknownEdge on a bad id.
    """
    tset = frozenset(target)
    flow = max_flow(net, tset)
    if flow.value == 0:
        raise UnreachableTarget(f"no edge of {sorted(tset)} is reachable from the source")
    return Cut(target=tset, edges=flow.cut)


def cut_leq(net: Network, c1: Cut, c2: Cut) -> bool:
    """Order among cuts of one target: c1 <= c2 iff c1 separates c2.

    On minimum cuts of a common target this is a partial order whose least
    element is the primary minimum cut. Raises TargetMismatch when the cuts
    were taken for different targets.
    """
    if c1.target != c2.target:
        raise TargetMismatch(
            f"cut targets differ: {sorted(c1.target)} vs {sorted(c2.target)}"
        )
    return separates(net, c1.edges, c2.edges)


def minord_merge(net: Network, c1: Cut, c2: Cut) -> Cut:
    """Greatest lower bound of two minimum cuts of the same target.

    Decomposes one maximum flow into edge-disjoint paths; each path meets
    each minimum cut exactly once, and the merge keeps, per path, whichever
    of the two crossing edges comes first. The result is again a minimum cut
    and it separates both inputs. Raises TargetMismatch on different targets
    and ValueError when either input is not a minimum cut of the target.
    """
    if c1.target != c2.target:
        raise TargetMismatch(
            f"cut targets differ: {sorted(c1.target)} vs {sorted(c2.target)}"
        )
    flow = max_flow(net, c1.target)
    for c in (c1, c2):
        if len(c.edges) != flow.value:
            raise ValueError(
                f"cut {sorted(c.edges)} has capacity {len(c.edges)}, "
                f"minimum is {flow.value}"
            )
    # split the flow into unit paths, each following the lowest-id edge that
    # still carries flow until it leaves the network through a target edge
    rem = bytearray(flow.values)
    merged: set[EdgeId] = set()
    for _ in range(flow.value):
        path: list[EdgeId] = []
        v = net.source
        while not path or path[-1] not in c1.target:
            e = next(e for e in net.out_edges[v] if rem[e])
            rem[e] = 0
            path.append(e)
            v = net.head(e)
        hits1 = [i for i, e in enumerate(path) if e in c1.edges]
        hits2 = [i for i, e in enumerate(path) if e in c2.edges]
        if len(hits1) != 1 or len(hits2) != 1:
            bad = c1 if len(hits1) != 1 else c2
            raise ValueError(
                f"cut {sorted(bad.edges)} does not cross every flow path "
                "exactly once; not a minimum cut of this target"
            )
        merged.add(path[min(hits1[0], hits2[0])])
    return Cut(target=c1.target, edges=frozenset(merged))
