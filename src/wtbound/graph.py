"""Acyclic directed multigraphs with unit capacities.

A network here is a finite DAG with one distinguished source, an optional set
of sink nodes, and unit capacity on every edge. Parallel edges are allowed;
edges are identified by their integer id, not by their endpoints.
"""

from __future__ import annotations

import heapq
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

    def check_edge(self, e: EdgeId) -> None:
        if not isinstance(e, int) or not 0 <= e < len(self.edges):
            raise UnknownEdge(f"edge id {e} not in 0..{len(self.edges) - 1}")

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
    a sink is listed twice, DanglingEndpoint when an edge end, the source, or
    a sink is not an int or falls outside the node range,
    SourceHasIncomingEdges when any edge enters the source, and CyclicGraph
    when the edge list admits no topological order. Sinks may have outgoing
    edges and nodes may be unreachable; neither is an error here.
    """
    edge_list = tuple((t, h) for t, h in edges)
    if len(set(sinks)) < len(sinks):
        raise ParameterOutOfRange(f"sink {max(sinks, key=sinks.count)} is listed more than once")
    referenced = [source, *sinks]
    for t, h in edge_list:
        referenced.append(t)
        referenced.append(h)
    bad = [v for v in referenced if not isinstance(v, int)]
    if bad:
        raise DanglingEndpoint(f"node id {bad[0]!r} is not an integer")
    low = min(referenced)
    high = max(referenced)
    if low < 0:
        raise DanglingEndpoint(f"negative node id {low}")
    if num_nodes is None:
        num_nodes = high + 1
    elif high >= num_nodes:
        raise DanglingEndpoint(f"node id {high} outside declared range 0..{num_nodes - 1}")

    for e, (t, h) in enumerate(edge_list):
        if h == source:
            raise SourceHasIncomingEdges(f"edge {e} ({t} -> {h})", e)

    net = Network(num_nodes=num_nodes, edges=edge_list, source=source, sinks=tuple(sinks))
    topological_order(net)  # raises CyclicGraph on a cycle
    return net


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

