"""Property tests: the flow kernel against the brute-force oracle on small
random DAGs drawn by Hypothesis."""

import pytest

from wtbound import build_network, enumerate_min_cuts, max_flow, oracle_primary_min_cut

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def dag_and_target(draw):
    """A DAG on <=7 nodes with <=10 edges (parallel edges possible), node ids
    ascending along every edge so node 0 is a valid source, and a nonempty
    target edge set."""
    n_nodes = draw(st.integers(2, 7))
    pairs = st.integers(0, n_nodes - 2).flatmap(
        lambda t: st.tuples(st.just(t), st.integers(t + 1, n_nodes - 1))
    )
    edges = draw(st.lists(pairs, min_size=1, max_size=10))
    net = build_network(edges, source=0, num_nodes=n_nodes)
    target = draw(st.frozensets(st.integers(0, len(edges) - 1), min_size=1, max_size=4))
    return net, target


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
