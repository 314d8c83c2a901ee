"""Property tests: the fast path against the brute-force oracle on small
random DAGs drawn by Hypothesis."""

import pytest

from wtbound import (
    build_network,
    compute_bound,
    cross_check,
    enumerate_min_cuts,
    max_flow,
    oracle_bounds,
    oracle_primary_min_cut,
    preprocess,
)

from helpers import reference_preprocess

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def draw_dag(draw):
    """A DAG on <=7 nodes with <=10 edges (parallel edges possible), node ids
    ascending along every edge so node 0 is a valid source."""
    n_nodes = draw(st.integers(2, 7))
    pairs = st.integers(0, n_nodes - 2).flatmap(
        lambda t: st.tuples(st.just(t), st.integers(t + 1, n_nodes - 1))
    )
    edges = draw(st.lists(pairs, min_size=1, max_size=10))
    return build_network(edges, source=0, num_nodes=n_nodes)


@st.composite
def dag_and_target(draw):
    """A DAG from `draw_dag` and a nonempty target edge set."""
    net = draw_dag(draw)
    target = draw(st.frozensets(st.integers(0, len(net.edges) - 1), min_size=1, max_size=4))
    return net, target


@st.composite
def dag_and_collection(draw):
    """A DAG from `draw_dag` and a list of up to 8 edge sets of up to 3
    edges; empty, duplicate and unreachable sets are all possible."""
    net = draw_dag(draw)
    edge_set = st.frozensets(st.integers(0, len(net.edges) - 1), max_size=3)
    return net, draw(st.lists(edge_set, min_size=1, max_size=8))


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(dag_and_target())
def test_max_flow_agrees_with_the_oracle(case):
    net, target = case
    flow = max_flow(net, target)
    family = enumerate_min_cuts(net, target)
    assert flow.value == family.capacity
    assert len(flow.cut) == flow.value
    if flow.value:
        assert flow.cut == oracle_primary_min_cut(net, target).edges
    else:
        assert flow.cut == frozenset()


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(dag_and_collection())
def test_preprocess_and_bounds_agree_with_the_references(case):
    net, sets = case
    coll, warnings = preprocess(net, sets)
    assert (coll, warnings) == reference_preprocess(net, sets)
    report = compute_bound(net, coll)
    oracle = oracle_bounds(net, coll)
    assert (report.n_classes, report.n_max) == (oracle.n, oracle.n_max)


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(dag_and_collection())
def test_every_cross_check_record_is_ok(case):
    # the partition, the domination order and the maximal-cut list, among
    # the rest, each against the brute-force oracle
    net, sets = case
    coll, _ = preprocess(net, sets)
    results = cross_check(net, coll)
    assert {"partition", "domination", "maximal_cuts"} <= {r.name for r in results}
    assert [r for r in results if not r.ok] == []
