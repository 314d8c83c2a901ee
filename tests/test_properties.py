"""Property tests drawn by Hypothesis: the fast path against the brute-force
oracle on small random DAGs, and the text parsers on drawn texts."""

from itertools import combinations

import pytest

import wtbound.flow
from wtbound import (
    EquivalenceClass,
    UnknownEdgeLabel,
    WiretapCollection,
    WtbError,
    build_network,
    class_hasse,
    compute_bound,
    cross_check,
    max_flow,
    parse_collection,
    parse_network,
    preprocess,
    serialize_collection,
    serialize_network,
)

from helpers import (
    CANCELLING_EDGES,
    COLLECTION_NETWORK,
    draw_dag,
    enumerate_min_cuts,
    oracle_bounds,
    oracle_primary_min_cut,
    reference_bounds,
    reference_domination_rows,
    reference_flow_key,
    reference_max_flow,
    reference_preprocess,
    set_cuts,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def dag_and_target(draw, max_nodes=7, max_edges=10):
    """A DAG from `draw_dag` and a nonempty target edge set."""
    net = draw_dag(draw, max_nodes, max_edges)
    target = draw(st.frozensets(st.integers(0, len(net.edges) - 1), min_size=1, max_size=4))
    return net, target


@st.composite
def dag_and_collection(draw, max_nodes=7, max_edges=10):
    """A DAG from `draw_dag` and a list of up to 8 edge sets of up to 3
    edges; empty, duplicate and unreachable sets are all possible."""
    net = draw_dag(draw, max_nodes, max_edges)
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
@hypothesis.given(dag_and_target(max_nodes=12, max_edges=30))
@hypothesis.example((build_network(CANCELLING_EDGES, 0, num_nodes=12), frozenset({7, 18})))
def test_max_flow_matches_the_unpruned_reference_and_conserves_flow(case):
    net, target = case
    flow = max_flow(net, target)
    ref = reference_max_flow(net, target)
    assert (flow.value, flow.values, flow.cut) == (ref.value, ref.values, ref.cut)
    # a unit on a target edge leaves the network there
    for v in range(net.num_nodes):
        if v != net.source:
            arriving = sum(flow.values[e] for e in net.in_edges[v] if e not in target)
            assert arriving == sum(flow.values[e] for e in net.out_edges[v]), v
    assert sum(flow.values[e] for e in target) == flow.value


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(dag_and_collection(max_nodes=12, max_edges=30))
def test_domination_rows_match_the_member_and_capacity_reference(case):
    # class_hasse reads only the cuts; the reference reads each class's
    # first member and compares capacities, as the paper defines domination
    net, sets = case
    classes = preprocess(net, sets)[0].classes
    assert list(class_hasse(net, classes).above) == reference_domination_rows(net, classes)


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(dag_and_collection())
def test_preprocess_and_bounds_agree_with_the_references(case):
    net, sets = case
    coll, drops = preprocess(net, sets)
    assert (coll, drops) == reference_preprocess(net, sets)
    report = compute_bound(net, coll.classes)
    oracle = oracle_bounds(net, coll.sets)
    assert (len(coll.classes), len(report.cuts)) == (oracle.n, oracle.n_max)
    classes = coll.classes
    assert list(class_hasse(net, classes).above) == reference_domination_rows(net, classes)
    fams = [enumerate_min_cuts(net, s) for s in coll.sets]
    assert oracle == reference_bounds(net, coll.sets, fams)


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


@st.composite
def dag_and_r(draw):
    """A DAG from `draw_dag` and a wiretap set size bound r in 1..3."""
    return draw_dag(draw), draw(st.integers(1, 3))


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(dag_and_r())
def test_the_maximal_cuts_of_the_r_wiretap_collection_are_its_largest_primary_sets(case):
    """On the r-wiretap collection (every edge set of size 1..r), N_max is
    the number of primary sets of size m = min(r, cap(E)), and those sets are
    the maximal cuts. A set S is primary when its primary cut P(S) is S
    itself; cap(E) is the capacity of the whole edge set E.

    - Every class has capacity |P(T)| <= m, since a cut of E is a cut of
      every T. P(T) is primary and in the collection, so the classes are the
      primary sets of size <= r. Domination needs a strictly larger
      capacity, so no class dominates one of size m.
    - Take a primary C with |C| = c < m. Then c < cap(E), so C is not a cut
      of E, and some edge e is not separated by C.
    - cap(C + e) = c + 1. Suppose a cut K of C + e had c edges. Then K is a
      minimum cut of C, and C, the least minimum cut of C, separates K. So
      every path to e meets K and hence C, which is a contradiction.
    - So D = P(C + e) has c + 1 <= r edges and is its own class in the
      collection. Deleting D severs C + e, so it severs C, and hence every
      member of C's class (C separates each of them). So D dominates C.
    """
    net, r = case
    ids = range(len(net.edges))
    sets = [frozenset(c) for size in range(1, r + 1) for c in combinations(ids, size)]
    m = min(r, max_flow(net, ids).value)
    primary = [s for s in sets if max_flow(net, s).cut == s]
    largest = {s for s in primary if len(s) == m}
    coll, _ = preprocess(net, sets)
    report = compute_bound(net, coll.classes)
    assert len(coll.classes) == len(primary)
    assert len(report.cuts) == len(largest)
    assert {cut.edges for cut in report.cuts} == largest
    # a drawn network has at most 10 edges, within the oracle's edge limit
    oracle = oracle_bounds(net, coll.sets)
    dominated = {low for low, _ in oracle.order}
    assert {
        oracle_primary_min_cut(net, coll.sets[cls[0]]).edges
        for i, cls in enumerate(oracle.classes)
        if i not in dominated
    } == largest


def star(parallel: int, onward: bool):
    """`parallel` edges s->a and, when `onward`, the path s->x->t, with every
    nonempty edge set as a target (s, x, a, t are nodes 0 to 3). Without the
    path, the set of all edges has tail s with multiplicity len(net.edges).
    With it, many targets differ only in how often s occurs among their
    tails."""
    edges = [(0, 2)] * parallel + [(0, 1), (1, 3)] * onward
    net = build_network(edges, source=0, num_nodes=4)
    ids = range(len(edges))
    targets = [frozenset(c) for size in ids for c in combinations(ids, size + 1)]
    return net, targets


@st.composite
def dag_and_targets(draw):
    """A DAG from `draw_dag` and up to 12 nonempty edge sets of up to 5 edges."""
    net = draw_dag(draw)
    target = st.frozensets(st.integers(0, len(net.edges) - 1), min_size=1, max_size=5)
    return net, draw(st.lists(target, min_size=1, max_size=12))


@hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
@hypothesis.given(dag_and_targets())
@hypothesis.example(star(8, False))
@hypothesis.example(star(4, True))
@hypothesis.example(star(8, True))
def test_solver_shares_a_flow_exactly_when_the_reference_keys_are_equal(case):
    # The kernel sees the first target of each shared flow. Their keys must
    # be distinct and as many as the targets' keys, and every cut exact
    # (an unreachable target's cut is empty): together these hold only when
    # `preprocess` groups the targets as the reference key does.
    net, targets = case
    flows = []

    def recording(net, target):
        flows.append(target)
        return max_flow(net, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wtbound.flow, "max_flow", recording)
        coll, drops = preprocess(net, targets)
    cuts = dict(zip(coll.sets, set_cuts(coll)))
    cuts.update((t, frozenset()) for _, kind, t in drops if kind == "unreachable")
    assert cuts.keys() == set(targets)
    keys = [reference_flow_key(net, t) for t in flows]
    assert len(set(keys)) == len(keys)
    assert len(keys) == len({reference_flow_key(net, t) for t in cuts})
    for t, cut in cuts.items():
        assert cut == max_flow(net, t).cut


@hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
@hypothesis.given(dag_and_targets())
def test_regularizing_by_the_stored_cuts_needs_no_flow(case):
    # `wtb bound --regularize` keeps each class's cut as its own set and
    # class, which holds when every primary cut is its own primary cut.
    net, targets = case
    coll, _ = preprocess(net, targets)
    cuts = tuple(c.cut for c in coll.classes)
    # class order is first-member order: the sets' distinct cuts as they come
    assert cuts == tuple(dict.fromkeys(set_cuts(coll)))
    for c in cuts:
        assert max_flow(net, c).cut == c
    regular = WiretapCollection(sets=cuts, classes=tuple(EquivalenceClass((c,), c) for c in cuts))
    assert preprocess(net, set_cuts(coll))[0] == regular
    assert bound_summary(net, regular) == bound_summary(net, coll)
    # the diagram is read off the cuts, which regularizing keeps in order
    assert class_hasse(net, regular.classes).above == class_hasse(net, coll.classes).above


def bound_summary(net, coll):
    """N, N_max and the set of maximal cuts of `coll`."""
    report = compute_bound(net, coll.classes)
    return len(coll.classes), len(report.cuts), {cut.edges for cut in report.cuts}


@hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
@hypothesis.given(dag_and_targets(), st.data())
def test_relabelling_the_edges_keeps_the_bound(case, data):
    # Classes and domination depend on the edges, not on their ids: build
    # the network from a permuted edge list, and map the cuts back.
    net, targets = case
    perm = data.draw(st.permutations(range(len(net.edges))))  # new id i is old edge perm[i]
    new_id = {old: new for new, old in enumerate(perm)}
    relabelled = build_network(
        [net.edges[old] for old in perm], source=net.source, num_nodes=net.num_nodes
    )
    coll, _ = preprocess(relabelled, [frozenset(new_id[e] for e in t) for t in targets])
    n, n_max, cuts = bound_summary(relabelled, coll)
    mapped_back = {frozenset(perm[e] for e in cut) for cut in cuts}
    assert (n, n_max, mapped_back) == bound_summary(net, preprocess(net, targets)[0])


@hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
@hypothesis.given(dag_and_targets(), st.data())
def test_shuffling_the_collection_keeps_the_bound(case, data):
    net, targets = case
    shuffled = data.draw(st.permutations(targets))
    got = bound_summary(net, preprocess(net, shuffled)[0])
    assert got == bound_summary(net, preprocess(net, targets)[0])


NODE_LABELS = ("s", "a", "b", "t")
NETWORK_TOKENS = ("node", "edge", "source", "sink", *NODE_LABELS, "#", "x,y")


@st.composite
def network_text(draw):
    """A network text: one source line, up to 4 edge lines with distinct
    labels, up to 3 node or sink lines and up to 2 lines of arbitrary tokens
    (blank, comment, a label containing ',' or a malformed directive), in any
    order. Some 7% of the drawn texts parse."""
    label = st.sampled_from(NODE_LABELS)
    lines = [["source", draw(label)]]
    edges = draw(st.lists(st.tuples(label, label, label), max_size=4, unique_by=lambda e: e[0]))
    lines += [["edge", *edge] for edge in edges]
    lines += draw(st.lists(st.tuples(st.sampled_from(("node", "sink")), label).map(list), max_size=3))
    lines += draw(st.lists(st.lists(st.sampled_from(NETWORK_TOKENS), max_size=4), max_size=2))
    return "\n".join(" ".join(tokens) for tokens in draw(st.permutations(lines)))


@hypothesis.settings(derandomize=True, database=None, max_examples=500, deadline=None)
@hypothesis.given(network_text())
def test_network_texts_round_trip_or_raise_a_typed_error(text):
    # any exception other than a WtbError escapes and fails the test
    try:
        net, labels = parse_network(text)
    except WtbError:
        return
    assert parse_network(serialize_network(net, labels)) == (net, labels)


COLLECTION_TOKENS = ("a", "b", "c", "d", "z", "x,y", "#")


@hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
@hypothesis.given(
    st.lists(st.lists(st.sampled_from(COLLECTION_TOKENS), max_size=3), max_size=6).map(
        lambda lines: "\n".join(" ".join(tokens) for tokens in lines)
    )
)
def test_collection_texts_round_trip_or_name_their_first_bad_line(text):
    net, labels = parse_network(COLLECTION_NETWORK)
    bad = [
        lineno
        for lineno, line in enumerate(text.splitlines(), start=1)
        if set(line.split("#", 1)[0].split()) - set(labels.edge_labels)
    ]
    if bad:
        with pytest.raises(UnknownEdgeLabel, match=rf"^line {bad[0]}:"):
            parse_collection(text, net, labels)
        return
    coll, _ = parse_collection(text, net, labels)
    again, warnings = parse_collection(serialize_collection(coll.sets, labels), net, labels)
    assert again.sets == coll.sets
    assert warnings == ()
