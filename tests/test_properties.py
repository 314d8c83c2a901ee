"""Property tests drawn by Hypothesis: the fast path against the brute-force
oracle on small random DAGs, and the text parsers on drawn texts."""

import sys
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
    export_hasse_dot,
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


def test_closing_a_collection_under_subsets_keeps_its_maximal_cuts():
    """An adversary who can tap A can tap any subset of A, so a collection
    is often closed under subsets. Its maximal cuts are those of the sets it
    is the closure of; only N grows. Write S(X) and P(X) as in the docstring
    of `class_hasse`. If T lies inside A, then P(A) severs P(T): deleting
    P(A) leaves S(A) reachable, and S(A) lies inside S(T). An edge of P(T)
    with its tail in S(A) either lies in T, and so in A and in P(A), or
    leaves S(T), and so leaves S(A) and lies in P(A). So every class of the
    closure equals or is dominated by the class of a listed set.
    """
    st = hypothesis.strategies

    @st.composite
    def dag_and_tops(draw):
        net = draw_dag(draw, max_nodes=10, max_edges=20)
        top = st.frozensets(st.integers(0, len(net.edges) - 1), min_size=1, max_size=4)
        return net, draw(st.lists(top, min_size=1, max_size=6))

    grew = 0

    @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @hypothesis.given(dag_and_tops())
    def check(case):
        nonlocal grew
        net, tops = case
        closure = [
            frozenset(c) for top in tops for k in range(1, len(top) + 1) for c in combinations(top, k)
        ]
        listed, closed = preprocess(net, tops)[0], preprocess(net, closure)[0]
        cuts = [{c.edges for c in compute_bound(net, coll.classes).cuts} for coll in (listed, closed)]
        assert cuts[0] == cuts[1]
        grew += len(closed.classes) > len(listed.classes)

    check()
    assert grew > 0  # the closure has more classes in some drawn cases


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


def near_misses(good, hashable=False):
    """`good`, a strategy of valid ids, or a near miss of one: an equal
    float, a bool, a negative int, an int past any index, a digit string, a
    tuple of the wrong length, or (unless `hashable`) a one-item list."""
    misses = [
        good.map(float),
        st.booleans(),
        st.integers(-3, -1),
        st.integers(2**63, 2**70),
        good.map(str),
        good.map(lambda v: (v,)),
        good.map(lambda v: (v, v, v)),
    ]
    if not hashable:
        misses.append(good.map(lambda v: [v]))
    return st.one_of(good, st.one_of(misses))  # half of the draws are good


CONTRACT_FUNCTIONS = (
    "max_flow",
    "build_network",
    "preprocess",
    "compute_bound",
    "class_hasse",
    "export_hasse_dot",
    "cross_check",
)


@st.composite
def near_miss_call(draw):
    """A public function's name, and a call of it whose containers hold
    near-miss elements, `max_flow`'s and `preprocess`'s as lists or one-shot
    iterators, and `build_network` a `num_nodes` past any list size at
    times; `call(True)` passes one container of the wrong type instead (a
    bare tuple of the two fields for a table's last class)."""
    net = draw_dag(draw, max_nodes=6, max_edges=8)
    ids = st.integers(0, len(net.edges) - 1)
    edge = near_misses(ids)
    edge_set = st.frozensets(near_misses(ids, hashable=True), max_size=3)
    entry = st.builds(EquivalenceClass, st.lists(edge_set, max_size=3).map(tuple), edge_set)
    name = draw(st.sampled_from(CONTRACT_FUNCTIONS))
    once = draw(st.sampled_from([list, iter]))  # a reusable or a one-shot container
    if name == "max_flow":
        target = draw(st.lists(edge, min_size=1, max_size=3))
        return name, lambda wrong: max_flow(net, None if wrong else once(target))
    if name == "build_network":
        n = net.num_nodes
        node = near_misses(st.integers(0, n - 1))
        arity = st.sampled_from([2] * 8 + [1, 3])  # a pair, or a tuple of the wrong length
        pair = arity.flatmap(lambda k: st.tuples(*[node] * k))
        edges, source = draw(st.lists(pair, max_size=4)), draw(node)
        sinks = draw(st.lists(node, min_size=1, max_size=2))
        num_nodes = draw(st.sampled_from([None, n, sys.maxsize + 1, 10**30]))
        return name, lambda wrong: build_network(None if wrong else edges, source, sinks, num_nodes)
    if name == "preprocess":
        sets = draw(st.lists(st.lists(edge, max_size=3), max_size=4))
        return name, lambda wrong: preprocess(net, None if wrong else once(map(once, sets)))
    classes, bare = draw(st.lists(entry, max_size=3)), tuple(draw(entry))

    def table(wrong):
        return [*classes, bare] if wrong else classes

    if name == "compute_bound":
        mode = draw(st.sampled_from(["n", "nmax"]))
        return name, lambda wrong: compute_bound(net, table(wrong), mode=mode)
    if name == "class_hasse":
        return name, lambda wrong: class_hasse(net, table(wrong))
    if name == "export_hasse_dot":

        def export(wrong):
            # a diagram of as many rows, over good cuts
            rows = len(table(wrong))
            good = [EquivalenceClass((), frozenset({j % len(net.edges)})) for j in range(rows)]
            return export_hasse_dot(table(wrong), class_hasse(net, good))

        return name, export
    sets = draw(st.lists(edge_set.filter(bool), max_size=3))
    coll = WiretapCollection(sets=tuple(sets), classes=tuple(classes))
    return name, lambda wrong: cross_check(net, coll.classes if wrong else coll)


# a path s -> a -> t, edges 0 and 1, for the fixed examples below
PATH = build_network([(0, 1), (1, 2)], source=0)
# a class cut holding ids that do not compare, which a failing record would sort
UNSORTABLE = WiretapCollection(
    sets=(frozenset({1}),), classes=(EquivalenceClass((frozenset({1}),), frozenset({"1", 0})),)
)


@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(near_miss_call())
@hypothesis.example(("max_flow", lambda wrong: max_flow(PATH, None if wrong else [0, [1]])))
@hypothesis.example(("max_flow", lambda wrong: max_flow(PATH, None if wrong else iter([0, [1]]))))
@hypothesis.example(("build_network", lambda wrong: build_network(None if wrong else [(0, 2**63)], 0)))
@hypothesis.example(
    ("cross_check", lambda wrong: cross_check(PATH, UNSORTABLE.classes if wrong else UNSORTABLE))
)
def test_near_miss_elements_succeed_or_raise_a_typed_error(case):
    # the README's contract: every bad element inside a documented container
    # raises a WtbError, and a container of the wrong type TypeError. Any
    # other exception escapes and fails the test
    name, call = case  # the name reads in a falsifying example
    try:
        call(False)
    except WtbError:
        pass
    with pytest.raises(TypeError):
        call(True)
