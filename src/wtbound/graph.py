"""Acyclic directed multigraphs with unit capacities.

A network here is a finite DAG with one distinguished source, an optional set
of sink nodes, and unit capacity on every edge. Parallel edges are allowed;
edges are identified by their integer id, not by their endpoints.
"""

from __future__ import annotations

import heapq
import sys
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    CyclicGraph,
    DanglingEndpoint,
    ParameterOutOfRange,
    SourceHasIncomingEdges,
    UnknownEdge,
)

NodeId = int
EdgeId = int


class _NetworkFields(NamedTuple):
    num_nodes: int
    edges: tuple[tuple[NodeId, NodeId], ...]
    source: NodeId
    sinks: tuple[NodeId, ...] = ()


class Network(_NetworkFields):
    """Validated unit-capacity DAG. Build through `build_network`.

    Nodes are 0..num_nodes-1; edge e is `edges[e]`, its (tail, head) pair.
    `sinks` is advisory metadata used for reporting; it plays no role in cut
    computations. The fields live in a NamedTuple base; this subclass
    declares no `__slots__`, so each instance has the `__dict__` that caches
    `out_edges` and `in_edges`.
    """

    def edge_set(self, ids: Iterable[EdgeId]) -> frozenset[EdgeId]:
        """The edge ids `ids` as a frozenset: the one check of caller ids.

        `ids` is read once, into a tuple, and each id is checked in input
        order before the set is built, so freezing can neither hide a bad id
        behind an equal good one (1.0 after 1) nor fail on one it cannot
        hash. Raises UnknownEdge, naming the first id that is not an int in
        0..len(edges) - 1 by its repr (`edge id '1' not in 0..3` for the
        string "1"); True and False are ints. A frozenset comes back as
        itself, so a checked class cut stays the class's own object.
        """
        read = tuple(ids)
        last = len(self.edges) - 1
        for e in read:
            if not isinstance(e, int) or not 0 <= e <= last:
                raise UnknownEdge(f"edge id {e!r} not in 0..{last}")
        return ids if isinstance(ids, frozenset) else frozenset(read)

    @cached_property
    def out_edges(self) -> tuple[tuple[EdgeId, ...], ...]:
        """Edge ids leaving each node, ascending."""
        adj: list[list[EdgeId]] = [[] for _ in range(self.num_nodes)]
        for e, (t, _) in enumerate(self.edges):
            adj[t].append(e)
        return tuple(tuple(lst) for lst in adj)

    @cached_property
    def in_edges(self) -> tuple[tuple[EdgeId, ...], ...]:
        """Edge ids entering each node, ascending."""
        adj: list[list[EdgeId]] = [[] for _ in range(self.num_nodes)]
        for e, (_, h) in enumerate(self.edges):
            adj[h].append(e)
        return tuple(tuple(lst) for lst in adj)


def build_network(
    edges: Iterable[tuple[NodeId, NodeId]],
    source: NodeId,
    sinks: Sequence[NodeId] = (),
    num_nodes: Optional[int] = None,
) -> Network:
    """Validate and freeze a network.

    Node ids are inferred as 0..max(referenced id) unless `num_nodes` pins a
    larger range (isolated nodes are legal). Raises ParameterOutOfRange when
    `num_nodes` is not a positive int or exceeds sys.maxsize, the largest
    list size, a sink is listed twice or an edge is not a (tail, head) pair
    (naming its position), DanglingEndpoint when an edge end, the source,
    or a sink is not an int (checked before the repeated sinks, so the
    sinks [1, 1.0] name 1.0) or falls outside the node range (an inferred
    one must fit a list index), SourceHasIncomingEdges when any edge enters
    the source, and CyclicGraph when the edge list admits no topological
    order. Sinks may have outgoing edges and nodes may be unreachable;
    neither is an error here.
    """
    pairs = ((t, h) for t, h in edges)
    edge_list: list[tuple[NodeId, NodeId]] = []
    try:
        edge_list.extend(pairs)
    except (TypeError, ValueError) as exc:  # extend keeps the pairs read before the bad one
        raise ParameterOutOfRange(f"edge {len(edge_list)} is not a (tail, head) pair") from exc
    if num_nodes is not None and not (isinstance(num_nodes, int) and num_nodes > 0):
        raise ParameterOutOfRange(f"num_nodes must be a positive integer, got {num_nodes!r}")
    if num_nodes is not None and num_nodes > sys.maxsize:  # no list holds that many nodes
        raise ParameterOutOfRange(f"num_nodes {num_nodes} exceeds the largest list size {sys.maxsize}")
    referenced = [source, *sinks]
    for t, h in edge_list:
        referenced.append(t)
        referenced.append(h)
    bad = [v for v in referenced if not isinstance(v, int)]
    if bad:
        raise DanglingEndpoint(f"node id {bad[0]!r} is not an integer")
    if len(set(sinks)) < len(sinks):  # every sink is an int, so hashable
        raise ParameterOutOfRange(f"sink {max(sinks, key=sinks.count)} is listed more than once")
    low = min(referenced)
    high = max(referenced)
    if low < 0:
        raise DanglingEndpoint(f"negative node id {low}")
    if num_nodes is None:
        if high >= sys.maxsize:  # no list holds that many nodes
            raise DanglingEndpoint(f"node id {high} outside the indexable range 0..{sys.maxsize - 1}")
        num_nodes = high + 1
    elif high >= num_nodes:
        raise DanglingEndpoint(f"node id {high} outside declared range 0..{num_nodes - 1}")

    for e, (t, h) in enumerate(edge_list):
        if h == source:
            raise SourceHasIncomingEdges(f"edge {e} ({t} -> {h})", e)

    net = Network(num_nodes=num_nodes, edges=tuple(edge_list), source=source, sinks=tuple(sinks))
    topological_order(net)  # raises CyclicGraph on a cycle
    return net


def bits(mask: int) -> list[int]:
    """The set bits of `mask`, ascending, one lowest-set-bit step each: the
    edge ids of an edge bitmask, or the class indices of a domination row."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def topological_order(net: Network) -> list[NodeId]:
    """Topological order of all nodes, lowest node id first among the ready.

    Deterministic for a given network. Raises CyclicGraph, naming the
    lowest-id edge of one cycle, if the edges admit no such order.
    """
    indeg = [0] * net.num_nodes
    for _, h in net.edges:
        indeg[h] += 1
    ready = [v for v in range(net.num_nodes) if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[NodeId] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for e in net.out_edges[v]:
            h = net.edges[e][1]
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(ready, h)
    if len(order) != net.num_nodes:
        e = _edge_on_cycle(net, indeg)
        t, h = net.edges[e]
        raise CyclicGraph(f"edge {e} ({t} -> {h})", e)
    return order


def _edge_on_cycle(net: Network, indeg: list[int]) -> EdgeId:
    """The lowest-id edge of one directed cycle, given the in-degrees a
    topological sort left. Every node it could not order keeps an in-edge
    from another such node, so walking those edges backwards closes a cycle.
    """
    v = next(u for u in range(net.num_nodes) if indeg[u])
    step: dict[NodeId, EdgeId] = {}  # node -> the in-edge the walk left it by
    while v not in step:
        step[v] = next(e for e in net.in_edges[v] if indeg[net.edges[e][0]])
        v = net.edges[step[v]][0]
    cycle = [step[v]]
    u = net.edges[step[v]][0]
    while u != v:
        cycle.append(step[u])
        u = net.edges[step[u]][0]
    return min(cycle)

