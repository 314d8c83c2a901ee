"""Cuts between the source and edge sets: capacities and primary minimum cuts.

A cut here is always a set of base edges whose removal leaves no path from
the source that reaches (covers) any edge of the target set, where an edge of
the target counts as reached even if the path ends with it. Minimum cuts for
a target A form a lattice under the order "C1 <= C2 iff C1 separates C2 from
the source"; its least element is the primary minimum cut, the one found
closest to the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import UnreachableTarget
from .flow import max_flow
from .graph import EdgeId, Network


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

