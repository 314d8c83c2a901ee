"""The unit-capacity flow kernel: values, flows, residual sides, primary cuts."""

import tracemalloc
from itertools import combinations

import pytest

from wtbound import (
    EmptyTargetSet,
    UnknownEdge,
    build_network,
    gen_combination,
    max_flow,
    parse_network,
    preprocess,
)
from wtbound.flow import _live_nodes

from helpers import (
    CANCELLING_EDGES,
    CORPUS_SEED,
    CORPUS_SIZE,
    descendants,
    eset,
    random_instance,
    reference_max_flow,
    residual_side,
)

SINGLESINK_SIDE = ("s", "i1", "i2", "i3", "i5", "i6", "i7", "i9")

# A hand-made maximum flow of value 4 on the single-sink instance, different
# from the one max_flow finds (it routes through i4-i8-i11 instead of i4-i10).
OTHER_SINGLESINK_FLOW = (1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1)


def test_max_flow_single_edge():
    net = build_network([(0, 1)], source=0)
    flow = max_flow(net, {0})
    assert flow.value == 1
    assert flow.values == bytearray([1])
    assert residual_side(net, {0}, flow.values) == frozenset({0})
    assert flow.cut == frozenset({0})


def test_max_flow_to_unreachable_edges_is_zero():
    net = build_network([(0, 1), (2, 3)], source=0)
    flow = max_flow(net, {1})
    assert flow.value == 0
    assert flow.values == bytearray([0, 0])
    assert residual_side(net, {1}, flow.values) == frozenset({0, 1})
    assert flow.cut == frozenset()


def test_max_flow_identity_requires_explicit_target(fig1):
    # There is no default target: the caller names the edges to reach.
    with pytest.raises(TypeError):
        max_flow(fig1.net)
    with pytest.raises(EmptyTargetSet):
        max_flow(fig1.net, ())
    with pytest.raises(UnknownEdge):
        max_flow(fig1.net, {0, -1})


def test_max_flow_rejects_bad_targets(fig1):
    # A target edge set is checked against the network where the flow kernel
    # takes it, before any edge gets a sink.
    with pytest.raises(EmptyTargetSet):
        max_flow(fig1.net, ())
    with pytest.raises(UnknownEdge):
        max_flow(fig1.net, {21})


def test_max_flow_respects_parallel_edges():
    net = build_network([(0, 1), (0, 1), (1, 2)], source=0)
    assert max_flow(net, {0, 1}).value == 2
    assert max_flow(net, {2}).value == 1


def test_max_flow_fig1_pair(fig1):
    flow = max_flow(fig1.net, eset(fig1.labels, "e19 e20"))
    assert flow.value == 2
    assert flow.cut == eset(fig1.labels, "e16 e17")


def test_max_flow_fig1_sink_in_edges(fig1):
    in_t1 = eset(fig1.labels, "e6 e10 e12 e18 e20")
    flow = max_flow(fig1.net, in_t1)
    assert flow.value == 5
    assert flow.cut == eset(fig1.labels, "e1 e2 e3 e4 e5")


def test_decompose_paths_structure(fig1):
    # The flow splits into `value` edge-disjoint unit paths, each running from
    # the source and leaving the network through a target edge.
    net = fig1.net
    target = eset(fig1.labels, "e6 e10 e12 e18 e20")
    flow = max_flow(net, target)
    assert set(flow.values) <= {0, 1}
    rem = bytearray(flow.values)
    for _ in range(flow.value):
        v, path = net.source, []
        while not path or path[-1] not in target:
            e = next(e for e in net.out_edges[v] if rem[e])
            rem[e] = 0
            path.append(e)
            v = net.edges[e][1]
        assert net.edges[path[0]][0] == net.source
        for prev, nxt in zip(path, path[1:]):
            assert net.edges[prev][1] == net.edges[nxt][0]
        assert not set(path[:-1]) & target
    assert not any(rem)


def test_residual_source_set_requires_maximum_flow(fig1):
    # The residual source side certifies that the flow is maximum: every edge
    # leaving it is saturated, none entering it carries flow, and it holds as
    # many edges as the flow has units.
    net = fig1.net
    for spec in ("e19 e20", "e6 e10 e18", "e9 e15 e21", "e3"):
        target = eset(fig1.labels, spec)
        flow = max_flow(net, target)
        side = residual_side(net, target, flow.values)
        for e, (t, h) in enumerate(net.edges):
            leaves = t in side and (e in target or h not in side)
            enters = t not in side and h in side and e not in target
            assert (e in flow.cut) == leaves
            if leaves:
                assert flow.values[e] == 1
            if enters:
                assert flow.values[e] == 0
        assert len(flow.cut) == flow.value


def test_residual_source_set_singlesink(singlesink):
    node = singlesink.labels.node_labels.index
    in_t = eset(singlesink.labels, "i5-t i9-t i10-t i11-t")
    flow = max_flow(singlesink.net, in_t)
    assert flow.value == 4
    side = residual_side(singlesink.net, in_t, flow.values)
    assert side == frozenset(node(lab) for lab in SINGLESINK_SIDE)


def test_residual_source_set_does_not_depend_on_the_flow(singlesink):
    # A hand-made maximum flow that differs from the kernel's must expose the
    # same residual source side.
    net = singlesink.net
    in_t = eset(singlesink.labels, "i5-t i9-t i10-t i11-t")
    ours = max_flow(net, in_t)
    assert list(ours.values) != list(OTHER_SINGLESINK_FLOW)
    assert sum(OTHER_SINGLESINK_FLOW[e] for e in in_t) == ours.value
    other = OTHER_SINGLESINK_FLOW
    side = residual_side(net, in_t, other)
    assert not any(net.edges[e][0] in side and not other[e] for e in in_t)
    assert side == residual_side(net, in_t, ours.values)


def assert_matches_reference(net, target):
    flow = max_flow(net, target)
    ref = reference_max_flow(net, target)
    side = residual_side(net, target, flow.values)
    assert (flow.value, flow.values, side, flow.cut) == ref, sorted(target)
    return flow


def test_dead_branches_are_pruned_without_changing_the_flow():
    # s=0 a=1 b=2 c=3 t=4 x=5 y=6: x and y hang off live nodes but reach no
    # target tail, and the source reaches them in the residual graph, so the
    # residual side holds them while the primary cut has no edge into them
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (1, 5), (5, 6), (0, 5), (2, 6), (0, 2)]
    net = build_network(edges, source=0)
    flow = assert_matches_reference(net, {3, 4})
    assert flow.value == 2
    assert flow.cut == frozenset({0, 9})
    assert residual_side(net, {3, 4}, flow.values) == frozenset({0, 5, 6})
    # toward (b, y) only s, a and b are live; the side is every node, and the
    # edges from a and b into dead nodes stay out of the cut
    flow = assert_matches_reference(net, {8})
    assert flow.value == 1
    assert flow.cut == frozenset({8})
    assert residual_side(net, {8}, flow.values) == frozenset(range(7))


def test_max_flow_takes_a_unit_back_along_a_cancelling_path():
    flow = assert_matches_reference(build_network(CANCELLING_EDGES, 0, num_nodes=12), {7, 18})
    assert flow.value == 2
    assert flow.cut == frozenset({0, 7})


def test_live_nodes_mirror_descendant_searches(fig1, singlesink):
    # u is live for some tails exactly when a plain search from u reaches one
    for net in (fig1.net, singlesink.net):
        nodes = range(net.num_nodes)
        reach = [descendants(net, u) for u in nodes]
        for tails in [(t,) for t in nodes] + list(combinations(nodes, 2)):
            live = _live_nodes(net, tails)
            assert list(live) == [int(not reach[u].isdisjoint(tails)) for u in nodes]
        # ... and max_flow's own mask is that of its target's tails
        for target in [(e,) for e in range(len(net.edges))] + list(combinations(range(len(net.edges)), 2)):
            tails = {net.edges[e][0] for e in target}
            live = max_flow(net, target).live
            assert list(live) == [int(not reach[u].isdisjoint(tails)) for u in nodes]


def test_max_flow_matches_the_unpruned_reference_over_the_corpus():
    checked = 0
    for i in range(CORPUS_SIZE):
        net, sets = random_instance(CORPUS_SEED + i)
        for target in set(sets):
            assert_matches_reference(net, target)
            checked += 1
    assert checked == 3908


def test_max_flow_matches_the_unpruned_reference_on_a_combination_network():
    net_text, sets_text = gen_combination(6, 4, 3)
    net, labels = parse_network(net_text)
    lines = sets_text.splitlines()
    assert len(lines) == 21560
    for line in lines:
        assert_matches_reference(net, labels.edge_set(line.split()))


def test_flow_sharing_takes_memory_in_the_targets_not_the_network():
    # A ladder of 3,000 nodes, each with edges to the next two, so nearly
    # every node is a tail: a table over the network's tails would take
    # megabytes here.
    n = 3000
    net = build_network([(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n], source=0)
    last = len(net.edges) - 1
    targets = [frozenset({0, 1}), frozenset({2000, 4000, last}), frozenset(range(last - 6, last + 1))]
    net.out_edges, net.in_edges  # the network's own adjacency, built once
    tracemalloc.start()
    try:
        preprocess(net, [])  # per-edge tails, heads and tail primes
        _, built_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        coll, _ = preprocess(net, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(coll.sets) == 3
    assert built_peak < 1_000_000
    assert peak - built_peak < 1_000_000
