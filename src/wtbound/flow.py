"""The flow kernel: unit-capacity maximum flow from the source to an edge set.

A cut of a target edge set is a set of edges whose removal leaves no path
from the source that reaches (covers) a target edge, the path's own last
edge included. The minimum cuts of a target form a lattice under "C1 <= C2
iff C1 separates C2 from the source"; its least element, the one closest to
the source, is the primary minimum cut. `max_flow(net, target)` returns the
minimum cut capacity as `.value` and the primary cut as `.cut`.

The flow runs on the base network's own adjacency. Each target edge (u, v)
acts as an arc from u straight to an implicit sink: a unit that crosses it
leaves the network there, so no graph is rebuilt per query. Every capacity is
one, so flow values are 0/1 and live in a bytearray indexed by edge id.

Augmenting paths are found by breadth-first search (Even & Tarjan 1975). The
search that finally fails reaches exactly the residual source side of the
flow; the edges leaving it form the primary minimum cut (Picard & Queyranne
1980), whichever maximum flow was found.

Every search is restricted to the live nodes: the ancestors of the target
edges' tails, found by one reverse search from those tails (`_live_nodes`),
which costs O(|E|) like one augmenting search. The restriction is exact. A
dead node reaches no target edge, so no unit of flow ever enters one, and no
backward residual arc leaves one; the dead nodes a search would visit lead
only to other dead nodes. The live nodes are therefore discovered in the
same order, the augmenting paths and the flow are the same as without the
restriction, and the primary cut, which never contains an edge into a dead
node, is the same too. Sets that pose the same flow problem on their live
nodes, the same tail multiset and the same target edges with a live head,
share one flow (`wiretap.preprocess`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import EmptyTargetSet
from .graph import EdgeId, Network, NodeId


class MaxFlow(NamedTuple):
    """A maximum flow from the source to a target edge set.

    `values[e]` is 1 when a unit crosses base edge e (a target edge: leaves
    the network); `value` counts the units, and is the target's minimum cut
    capacity; `cut` is the primary minimum cut, the edges leaving the
    residual source side, and the package's one spelling of it; `live[v]` is
    1 when node v reaches a target edge's tail. `value` is 0 and `cut` empty
    when no target edge is reachable.
    """

    value: int
    values: bytearray
    cut: frozenset[EdgeId]
    live: bytearray


def _live_nodes(net: Network, tails: Iterable[NodeId]) -> bytearray:
    """live[v] is 1 when node v reaches one of `tails` (each tail included)."""
    live = bytearray(net.num_nodes)
    stack = list(tails)
    for t in stack:
        live[t] = 1
    edges, in_edges = net.edges, net.in_edges
    while stack:
        for e in in_edges[stack.pop()]:
            u = edges[e][0]
            if not live[u]:
                live[u] = 1
                stack.append(u)
    return live


def max_flow(net: Network, target: Iterable[EdgeId]) -> MaxFlow:
    """Maximum flow from the source to the edge set `target`.

    Each search scans, per node, the out-edges and then the in-edges in
    ascending id order, so the flow found is deterministic. Raises
    EmptyTargetSet on an empty target and, through `Network.edge_set`,
    UnknownEdge on a bad id.
    """
    tset = net.edge_set(target)
    if not tset:
        raise EmptyTargetSet("target edge set is empty")
    is_target = bytearray(len(net.edges))
    edges, out_edges, in_edges = net.edges, net.out_edges, net.in_edges
    for e in tset:
        is_target[e] = 1
    live = _live_nodes(net, {edges[e][0] for e in tset})
    source = net.source
    flow = bytearray(len(edges))
    value = 0
    while True:
        # pred[v] = the edge the search reached v through, forward or backward
        pred = {source: -1}
        queue = [source]
        exit_edge = -1
        for u in queue:
            for e in out_edges[u]:
                if flow[e]:
                    continue
                if is_target[e]:
                    exit_edge = e
                    break
                v = edges[e][1]
                if v not in pred and live[v]:
                    pred[v] = e
                    queue.append(v)
            if exit_edge >= 0:
                break
            # the tail of an edge carrying flow is always live
            for e in in_edges[u]:
                if flow[e] and not is_target[e]:
                    v = edges[e][0]
                    if v not in pred:
                        pred[v] = e
                        queue.append(v)
        if exit_edge < 0:
            break
        flow[exit_edge] = 1
        v = edges[exit_edge][0]
        while v != source:
            e = pred[v]
            tail, head = edges[e]
            if head == v:
                flow[e] = 1
                v = tail
            else:
                flow[e] = 0
                v = head
        value += 1

    cut = frozenset(
        e
        for u in pred
        for e in out_edges[u]
        if is_target[e] or edges[e][1] not in pred and live[edges[e][1]]
    )
    return MaxFlow(value=value, values=flow, cut=cut, live=live)
