"""Network construction, validation, and topological order."""

import pytest

from wtbound import (
    CyclicGraph,
    DanglingEndpoint,
    ParameterOutOfRange,
    SourceHasIncomingEdges,
    UnknownEdge,
    build_network,
    topological_order,
)


def test_build_network_basics():
    net = build_network([(0, 1), (0, 1), (1, 2)], source=0, sinks=(2,))
    assert net.num_nodes == 3
    assert net.edges == ((0, 1), (0, 1), (1, 2))
    assert net.source == 0
    assert net.sinks == (2,)
    assert net.edges[2] == (1, 2)
    assert net.out_edges == ((0, 1), (2,), ())
    assert net.in_edges == ((), (0, 1), (2,))


def test_build_network_infers_node_count_and_accepts_isolated_nodes():
    assert build_network([(0, 3)], source=0).num_nodes == 4
    assert build_network([(0, 1)], source=0, num_nodes=5).num_nodes == 5


def test_build_network_rejects_bad_node_ids():
    with pytest.raises(DanglingEndpoint):
        build_network([(0, -1)], source=0)
    with pytest.raises(DanglingEndpoint):
        build_network([(0, 2)], source=0, num_nodes=2)
    with pytest.raises(DanglingEndpoint):
        build_network([(0, 1)], source=0, sinks=(7,), num_nodes=2)
    with pytest.raises(DanglingEndpoint):
        build_network([(0, 1)], source=-1)


def test_build_network_rejects_a_node_count_that_is_not_a_positive_int():
    for bad in (2.5, "3", -1, 0):
        with pytest.raises(ParameterOutOfRange, match=r"^num_nodes must be a positive integer, got "):
            build_network([(0, 1)], source=0, num_nodes=bad)
    # before, a count past any list index ended in a bare OverflowError
    with pytest.raises(ParameterOutOfRange, match=r"^num_nodes 10{30} exceeds the largest list size \d+$"):
        build_network([(0, 1)], source=0, num_nodes=10**30)
    # a count too small for the ids stays an endpoint error
    with pytest.raises(DanglingEndpoint, match=r"^node id 1 outside declared range 0\.\.0$"):
        build_network([(0, 1)], source=0, num_nodes=1)


def test_build_network_names_an_edge_that_is_not_a_pair():
    # before, these ended in a bare ValueError or TypeError from unpacking
    for edges, pos in (([(0, 1, 2)], 0), ([(0, 1), (1,)], 1), ([(0, 1), (1, 2), 5], 2)):
        for given in (edges, iter(edges)):
            with pytest.raises(ParameterOutOfRange, match=rf"^edge {pos} is not a \(tail, head\) pair$"):
                build_network(given, source=0)


def test_build_network_rejects_a_repeated_sink():
    # a repeated sink would count twice in compute_bound's recommended alphabet
    with pytest.raises(ParameterOutOfRange, match="sink 2 is listed more than once"):
        build_network([(0, 1), (1, 2)], source=0, sinks=(2, 2, 2, 2, 2))
    with pytest.raises(ParameterOutOfRange, match="sink 1 "):
        build_network([(0, 1), (1, 2)], source=0, sinks=[2, 1, 1])
    assert build_network([(0, 1), (1, 2)], source=0, sinks=[2, 1]).sinks == (2, 1)


def test_build_network_rejects_edges_into_the_source():
    with pytest.raises(SourceHasIncomingEdges):
        build_network([(0, 1), (1, 0)], source=0)
    with pytest.raises(SourceHasIncomingEdges):
        build_network([(0, 1)], source=1)
    # Only the source is protected; other nodes may have any in-degree.
    build_network([(0, 1), (0, 1), (0, 1)], source=0)


def test_build_network_rejects_cycles():
    with pytest.raises(CyclicGraph):
        build_network([(0, 1), (1, 2), (2, 1)], source=0)
    with pytest.raises(CyclicGraph):
        build_network([(1, 1)], source=0, num_nodes=2)
    # the error names the lowest-id edge of one cycle, here 3 -> 4 -> 5 -> 3,
    # and not edge 1, which leaves the cycle for node 2
    with pytest.raises(CyclicGraph) as exc:
        build_network([(0, 6), (3, 2), (6, 3), (3, 4), (4, 5), (5, 3)], source=0)
    assert exc.value.edge == 3
    assert str(exc.value) == "edge 3 (3 -> 4) lies on a directed cycle"


def test_edge_set():
    net = build_network([(0, 1)], source=0)
    assert net.edge_set([0]) == frozenset({0})
    with pytest.raises(UnknownEdge):
        net.edge_set([1])
    with pytest.raises(UnknownEdge):
        net.edge_set([-1])
    # the id is named by its repr, so the string "1" cannot read as edge 1
    net = build_network([(0, 1), (1, 2), (2, 3), (3, 4)], source=0)
    for bad, shown in ((4, "4"), (1.0, "1.0"), ("1", "'1'"), (None, "None")):
        with pytest.raises(UnknownEdge) as exc:
            net.edge_set([bad])
        assert str(exc.value) == f"edge id {shown} not in 0..3"
    # the ids are read once and checked in input order before they are
    # frozen, so neither a one-shot iterator's unhashable id nor a 1.0
    # after an equal 1 escapes, and the first bad id is the one named
    for ids, shown in ((iter([0, [1]]), "[1]"), ([1, 1.0], "1.0"), ((2, "1", 9), "'1'")):
        with pytest.raises(UnknownEdge) as exc:
            net.edge_set(ids)
        assert str(exc.value) == f"edge id {shown} not in 0..3"
    assert net.edge_set(iter([3, 0, 3])) == frozenset({0, 3})
    cut = frozenset({0, 2})
    assert net.edge_set(cut) is cut


def test_topological_order_is_deterministic_smallest_first():
    net = build_network([(0, 2), (0, 1)], source=0)
    assert topological_order(net) == [0, 1, 2]
    # Isolated nodes appear in id order alongside everything else.
    net2 = build_network([(1, 3)], source=1, num_nodes=5)
    assert topological_order(net2) == [0, 1, 2, 3, 4]


def test_topological_order_fig1(fig1):
    assert topological_order(fig1.net) == list(range(12))

