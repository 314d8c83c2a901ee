"""Collection preprocessing, equivalence classes, domination, and the bounds."""

import random
from itertools import combinations
from math import comb

import pytest

import wtbound.flow
from wtbound import (
    DanglingEndpoint,
    EquivalenceClass,
    HasseDiagram,
    ParameterOutOfRange,
    UnknownEdge,
    build_network,
    class_hasse,
    compute_bound,
    cross_check,
    gen_combination,
    parse_collection,
    parse_network,
    max_flow,
    preprocess,
)

from helpers import (
    CORPUS_SEED,
    CORPUS_SIZE,
    FIG1_CLASSES,
    FIG1_COVERING,
    FIG1_MAXIMAL_CUTS,
    FIG1_ORDER,
    dominates,
    draw_dag,
    equivalent,
    eset,
    layered_network,
    oracle_bounds,
    pruning_loop,
    random_instance,
    reachable_after_delete,
    reference_classes,
    reference_domination_rows,
    reference_preprocess,
    set_cuts,
)

# s=0 a=1 b=2 t=3 c=4 d=5: three parallel edges s->a (0-2), a->b (3), three
# parallel edges a->t (4-6), b->t (7), and c->d (8), which the source misses
HAND_EDGES = [(0, 1), (0, 1), (0, 1), (1, 2), (1, 3), (1, 3), (1, 3), (2, 3), (4, 5)]


def test_preprocess_keeps_fig1_intact(fig1):
    assert len(fig1.coll.sets) == 48
    assert fig1.warnings == ()
    assert tuple(map(len, set_cuts(fig1.coll))) == tuple(len(s) for s in fig1.coll.sets)
    singles = sum(1 for s in fig1.coll.sets if len(s) == 1)
    assert (singles, len(fig1.coll.sets) - singles) == (12, 36)


def test_preprocess_drops_and_warns():
    from wtbound import build_network

    net = build_network([(0, 1), (2, 3)], source=0)
    coll, drops = preprocess(net, [{0}, set(), {0}, {1}])
    assert coll.sets == (frozenset({0}),)
    assert set_cuts(coll) == (frozenset({0}),)
    assert drops == (
        (1, "empty", frozenset()),
        (2, "duplicate", frozenset({0})),
        (3, "unreachable", frozenset({1})),
    )


def assert_preprocess_matches_reference(net, sets):
    got = preprocess(net, sets)
    assert got == reference_preprocess(net, sets)
    return got


def test_preprocess_shares_a_flow_only_between_equal_reduced_instances(monkeypatch):
    net = build_network(HAND_EDGES, source=0)
    sets = [{4, 5}, {5, 6}, {3, 4}, {4, 5, 6}, {3, 7}, {4, 7}, {8}]
    sets += [{0, 1, 3}, {0, 3, 4}, {0, 4}, {0, 4, 5}]
    coll, drops = assert_preprocess_matches_reference(net, sets)
    flows = []
    real = wtbound.flow.max_flow

    def recording(net, target):
        flows.append(target)
        return real(net, target)

    monkeypatch.setattr(wtbound.flow, "max_flow", recording)
    assert preprocess(net, sets) == (coll, drops)
    assert drops == ((6, "unreachable", frozenset({8})),)
    # Parallel target edges on one tail pose one instance; so does a->b while
    # b is not a tail, since b then reaches no target. Each set's cut holds
    # its own target edges.
    cuts = set_cuts(coll)
    assert coll.sets[:3] == (frozenset({4, 5}), frozenset({5, 6}), frozenset({3, 4}))
    assert cuts[:3] == coll.sets[:3]
    # Three exits at a: the three edges into a are the cut.
    assert cuts[3] == frozenset({0, 1, 2})
    # Equal tails a and b: with a->b a target, its head b is live and no
    # unit can pass through it to b->t, so the two sets must not share a flow.
    assert cuts[4] == frozenset({3})
    assert cuts[5] == frozenset({3, 4})
    # Tails s, s, a and s, a, a: one tail set, two multisets, two flows;
    # both cuts are the three edges into a.
    assert cuts[6:8] == (frozenset({0, 1, 2}),) * 2
    # Tails s, a and s, a, a with the same live-headed target {0}: only the
    # multiplicity at a tells them apart. With one exit at a, a stays on the
    # source side; with two, it does not. {0, 4, 5} poses {0, 3, 4}'s instance.
    assert cuts[8:] == (frozenset({0, 4}), frozenset({0, 1, 2}))
    assert flows == [{4, 5}, {4, 5, 6}, {3, 7}, {4, 7}, {8}, {0, 1, 3}, {0, 3, 4}, {0, 4}]


def test_preprocess_finds_live_nodes_once_per_flow(fig1, monkeypatch):
    # the solver reads a new tail tuple's live nodes off the flow it runs,
    # so the only reverse searches are the ones inside max_flow
    calls = {"max_flow": 0, "_live_nodes": 0}
    for name in calls:
        def counting(*args, real=getattr(wtbound.flow, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(wtbound.flow, name, counting)
    layered = layered_network(6, 3, 2, 1)
    pairs = [frozenset(c) for r in (1, 2) for c in combinations(range(len(layered.edges)), r)]
    for net, sets, flows in ((fig1.net, fig1.coll.sets, 27), (layered, pairs, 128)):
        calls.update(dict.fromkeys(calls, 0))
        preprocess(net, sets)
        assert calls == {"max_flow": flows, "_live_nodes": flows}


def test_preprocess_groups_drawn_collections_as_the_references_do():
    # Each drawn collection holds an empty set, a repeat, and an unreachable
    # set twice, shuffled among the drawn sets: the loop must keep the
    # unreachable one in `seen` so that its copy drops as a duplicate.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def collections(draw):
        drawn = draw_dag(draw)
        # two fresh nodes past the drawn ones: the source misses their edge
        n = drawn.num_nodes
        net = build_network([*drawn.edges, (n, n + 1)], source=0, num_nodes=n + 2)
        off = len(drawn.edges)
        edge_set = st.frozensets(st.integers(0, off), max_size=3)
        sets = draw(st.lists(edge_set, min_size=1, max_size=8))
        sets += [frozenset(), sets[0], frozenset({off}), frozenset({off})]
        return net, draw(st.permutations(sets))

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(collections())
    def check(case):
        net, sets = case
        coll, drops = preprocess(net, sets)
        want, want_drops = reference_preprocess(net, sets)
        cuts = set_cuts(coll)
        assert coll.classes == reference_classes(coll.sets, cuts)
        assert (coll.sets, cuts, drops) == (want.sets, set_cuts(want), want_drops)
        unreachable = frozenset({len(net.edges) - 1})
        kinds = [kind for _, kind, s in drops if s == unreachable]
        assert kinds[0] == "unreachable" and set(kinds[1:]) == {"duplicate"}
        oracle = oracle_bounds(net, coll.sets)
        assert len(coll.classes) == oracle.n
        for mode, count in (("n", oracle.n), ("nmax", oracle.n_max)):
            assert len(compute_bound(net, coll.classes, mode=mode).cuts) == count

    check()


def test_preprocess_checks_every_id_before_sharing_a_flow():
    net = build_network(HAND_EDGES, source=0)
    for bad in ({4, 9}, {4, -1}):
        with pytest.raises(UnknownEdge):
            preprocess(net, [{4, 5}, bad])


def test_preprocess_matches_the_per_set_reference_over_the_corpus():
    for i in range(CORPUS_SIZE):
        net, sets = random_instance(CORPUS_SEED + i)
        assert_preprocess_matches_reference(net, sets)


def test_preprocess_runs_one_flow_per_relay_subset(monkeypatch):
    net_text, sets_text = gen_combination(6, 4, 3)
    net, labels = parse_network(net_text)
    sets = [labels.edge_set(line.split()) for line in sets_text.splitlines()]
    assert len(sets) == 21560
    coll, drops = assert_preprocess_matches_reference(net, sets)
    assert len(coll.sets) == 21560 and drops == ()

    calls = []
    real = wtbound.flow.max_flow

    def counting(net, target):
        calls.append(target)
        return real(net, target)

    monkeypatch.setattr(wtbound.flow, "max_flow", counting)
    assert preprocess(net, sets) == (coll, drops)
    # A set takes relay-to-sink edges from distinct relays, so its tails are
    # the relays it taps: one flow per nonempty subset of at most r = 3 of
    # the 6 relays.
    assert len(calls) == sum(comb(6, j) for j in (1, 2, 3)) == 41


def test_regularize_replaces_a_set_by_its_primary_cut(fig1):
    # `wtb bound --regularize` replaces every set by this stand-in.
    lab = fig1.labels
    assert max_flow(fig1.net, eset(lab, "e6 e10 e18")).cut == eset(lab, "e1 e2 e3")
    # Regular sets are their own minimum cut but not always their primary one.
    assert max_flow(fig1.net, eset(lab, "e18")).cut == eset(lab, "e16")


def test_equivalent(fig1):
    lab = fig1.labels
    assert equivalent(fig1.net, eset(lab, "e6"), eset(lab, "e7"))
    assert equivalent(fig1.net, eset(lab, "e18 e20"), eset(lab, "e19 e21"))
    assert not equivalent(fig1.net, eset(lab, "e6"), eset(lab, "e8"))
    assert not equivalent(fig1.net, eset(lab, "e6"), eset(lab, "e6 e18"))
    assert equivalent(fig1.net, eset(lab, "e6"), eset(lab, "e6"))


def test_dominates(fig1):
    lab = fig1.labels
    assert dominates(fig1.net, eset(lab, "e6"), eset(lab, "e6 e18"))
    assert not dominates(fig1.net, eset(lab, "e6 e18"), eset(lab, "e6"))
    # Equivalent sets never dominate each other.
    assert not dominates(fig1.net, eset(lab, "e6"), eset(lab, "e7"))
    # Capacity must grow and the dominator must cover the dominated.
    assert not dominates(fig1.net, eset(lab, "e6"), eset(lab, "e12 e20"))


def test_partition_classes_fig1(fig1):
    classes = fig1.coll.classes
    assert len(classes) == 15
    for cls, (cap, cut_spec, member_specs) in zip(classes, FIG1_CLASSES):
        assert len(cls.cut) == cap
        assert cls.cut == eset(fig1.labels, cut_spec)
        assert list(cls.members) == [eset(fig1.labels, spec) for spec in member_specs]
    # Classes partition the collection.
    all_members = [s for cls in classes for s in cls.members]
    assert sorted(all_members, key=fig1.coll.sets.index) == list(fig1.coll.sets)


def test_class_hasse_fig1(fig1):
    diagram = class_hasse(fig1.net, fig1.coll.classes)
    assert sorted(diagram.covering) == FIG1_COVERING
    assert diagram.maximal == (12, 13, 14)
    order = {(i, j) for i, row in enumerate(diagram.above) for j in range(15) if row >> j & 1}
    assert order == set(FIG1_ORDER)


@pytest.mark.parametrize("instance", ["fig1", "layered-hasse"])
def test_covering_pairs_come_in_ascending_order(fig1, instance):
    # `wtb hasse` and the DOT export print the covering pairs as they come
    if instance == "fig1":
        net, coll, pairs = fig1.net, fig1.coll, len(FIG1_COVERING)
    else:  # the layered-hasse benchmark shape, r=2
        net = layered_network(5, 4, 2, 1)
        sets = [frozenset(c) for r in (1, 2) for c in combinations(range(len(net.edges)), r)]
        coll, pairs = preprocess(net, sets)[0], 466
    covering = class_hasse(net, coll.classes).covering
    assert len(covering) == pairs
    assert covering == tuple(sorted(covering))


def test_bound_and_verify_never_read_the_covering(fig1, monkeypatch):
    # the covering pairs are reduced only for `wtb hasse`
    def unread(self):
        raise AssertionError("HasseDiagram.covering was read")

    monkeypatch.setattr(HasseDiagram, "covering", property(unread))
    report = compute_bound(fig1.net, fig1.coll.classes)
    assert {c.edges for c in report.cuts} == {eset(fig1.labels, s) for s in FIG1_MAXIMAL_CUTS}
    checks = cross_check(fig1.net, fig1.coll)
    assert checks and all(c.ok for c in checks)


def test_reachable_after_delete(fig1):
    lab = fig1.labels
    assert reachable_after_delete(fig1.net, ()) == frozenset(range(21))
    assert reachable_after_delete(fig1.net, eset(lab, "e1 e2 e3")) == eset(
        lab, "e4 e5 e12 e13 e14 e15 e17 e20 e21"
    )
    assert reachable_after_delete(fig1.net, eset(lab, "e16 e17")) == eset(
        lab, "e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15"
    )
    assert reachable_after_delete(fig1.net, eset(lab, "e1 e2 e3 e4 e5")) == frozenset()
    with pytest.raises(UnknownEdge):
        reachable_after_delete(fig1.net, {77})


def assert_rows_match_reference(net, coll):
    classes = coll.classes
    rows = list(class_hasse(net, classes).above)
    assert rows == reference_domination_rows(net, classes)
    return rows


def test_domination_rows_match_the_pairwise_reference_over_the_corpus(corpus):
    for rec in corpus:
        assert_rows_match_reference(rec.net, rec.coll)


def test_domination_rows_match_the_pairwise_reference_on_combination_6_4_3():
    net_text, sets_text = gen_combination(6, 4, 3)
    net, labels = parse_network(net_text)
    coll, _ = preprocess(net, (labels.edge_set(line.split()) for line in sets_text.splitlines()))
    rows = assert_rows_match_reference(net, coll)
    # the 20 classes of capacity 3 are the maximal ones
    assert sum(1 for row in rows if not row) == comb(6, 3)


@pytest.mark.parametrize("shape", [(5, 4, 2, 1), (6, 3, 2, 1)])
def test_domination_rows_match_the_pairwise_reference_on_layered_networks(shape):
    # the layered-hasse and verify-layered benchmark shapes, r=2
    net = layered_network(*shape)
    sets = [frozenset(c) for r in (1, 2) for c in combinations(range(len(net.edges)), r)]
    coll, _ = preprocess(net, sets)
    rows = assert_rows_match_reference(net, coll)
    assert any(rows) and not all(rows)


def test_domination_columns_match_reachability_on_a_class_heavy_network():
    # about 1,900 classes: the full pairwise reference is slow here, so a
    # fixed sample of dominator columns is checked against every row
    net = layered_network(40, 30, 2, 1)
    rng = random.Random(2000)
    sets = [frozenset(rng.sample(range(len(net.edges)), rng.randint(1, 3))) for _ in range(2000)]
    classes = preprocess(net, sets)[0].classes
    assert len(classes) > 1500
    above = class_hasse(net, classes).above
    reps = [c.members[0] for c in classes]
    caps = [len(c.cut) for c in classes]
    set_bits = 0
    for j in rng.sample(range(len(classes)), 100):
        survivors = reachable_after_delete(net, classes[j].cut)
        for i, row in enumerate(above):
            want = caps[i] < caps[j] and survivors.isdisjoint(reps[i])
            assert (row >> j & 1) == want, (i, j)
            set_bits += want
    assert set_bits


def test_severing_a_member_is_severing_its_class_cut(corpus):
    # class_hasse's theorem on primary cuts: C_j severs a member of class i
    # exactly when it severs C_i, and between distinct classes only when
    # C_j is the larger cut. "Severs" is read off the surviving edges.
    pairs = 0
    for rec in corpus:
        classes = rec.coll.classes
        survivors = [reachable_after_delete(rec.net, c.cut) for c in classes]
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                severs_cut = survivors[j].isdisjoint(ci.cut)
                for member in ci.members:
                    assert survivors[j].isdisjoint(member) == severs_cut, (rec.seed, i, j)
                if severs_cut and i != j:
                    assert len(cj.cut) > len(ci.cut), (rec.seed, i, j)
                    pairs += 1
    assert pairs


def test_domination_rows_read_only_the_cuts(fig1):
    # Hand-built tables with each class's first member rotated, now off its
    # own cut, or with no members at all give the table's own rows; the
    # member-reading definition tells the rotated table apart.
    classes = fig1.coll.classes
    rows = list(class_hasse(fig1.net, classes).above)
    rotated = [
        c._replace(members=(classes[i - 1].members[0], *c.members[1:]))
        for i, c in enumerate(classes)
    ]
    bare = [c._replace(members=()) for c in classes]
    assert list(class_hasse(fig1.net, rotated).above) == rows
    assert list(class_hasse(fig1.net, bare).above) == rows
    assert reference_domination_rows(fig1.net, rotated) != rows


def test_covering_reduces_a_row_that_holds_class_0(fig1):
    # With fig1's last set first, class 0 is a maximal class that dominates
    # others, so a covering pair may have to be told apart by bit 0.
    sets = fig1.coll.sets
    diagram = class_hasse(fig1.net, preprocess(fig1.net, (sets[-1], *sets[:-1]))[0].classes)
    above = diagram.above
    assert any(row & 1 for row in above)
    reduced = [
        (i, j)
        for i, row in enumerate(above)
        for j in range(len(above))
        if row >> j & 1 and not any(row >> k & 1 and above[k] >> j & 1 for k in range(len(above)))
    ]
    assert len(diagram.covering) == 18
    assert list(diagram.covering) == reduced


def test_bad_class_ids_raise_unknown_edge():
    # A 3-edge path s -> a -> b -> t, hand-built classes around a good one.
    # class_hasse reads only the cuts, so only a bad cut id fails there;
    # compute_bound checks the member it reports as a cut's target.
    net = build_network([(0, 1), (1, 2), (2, 3)], source=0)
    good = preprocess(net, [{1, 2}])[0].classes[0]
    bad_cut = good._replace(cut=frozenset({5}))
    with pytest.raises(UnknownEdge):
        class_hasse(net, [good, bad_cut])
    with pytest.raises(UnknownEdge):
        compute_bound(net, (bad_cut,))
    for member in ({-1}, {9}):
        cls = good._replace(members=(frozenset(member),))
        assert class_hasse(net, [cls]).above == (0,)
        for mode in ("n", "nmax"):
            with pytest.raises(UnknownEdge, match=rf"^edge id {min(member)} not in 0\.\.2$"):
                compute_bound(net, (cls,), mode=mode)


def test_compute_bound_checks_every_cut_it_reports_in_both_modes():
    # mode "n" runs no class_hasse, so compute_bound checks the cut ids
    # itself; the target and the cut are checked one after the other, since
    # their union would hold only one of 1 and 1.0
    net = build_network([(0, 1), (1, 2), (2, 3)], source=0)
    for cut, bad in ((frozenset({5}), "5"), (frozenset({1.0}), r"1\.0")):
        cls = EquivalenceClass((frozenset({1}),), cut)
        for mode in ("n", "nmax"):
            with pytest.raises(UnknownEdge, match=rf"^edge id {bad} not in 0\.\.2$"):
                compute_bound(net, [cls], mode=mode)


def test_a_class_with_no_members_has_no_target_to_report(fig1):
    classes = list(fig1.coll.classes)
    classes[4] = classes[4]._replace(members=())
    for mode in ("n", "nmax"):
        with pytest.raises(ParameterOutOfRange, match=r"^class 4 has no members$"):
            compute_bound(fig1.net, classes, mode=mode)


def test_ids_that_are_not_ints_raise_typed_errors():
    net = build_network([(0, 1), (1, 2), (2, 3)], source=0)
    with pytest.raises(UnknownEdge, match=r"^edge id 1\.0 not in 0\.\.2$"):
        max_flow(net, [1.0])
    with pytest.raises(UnknownEdge, match=r"^edge id 1\.0 not in 0\.\.2$"):
        preprocess(net, [[1.0]])
    with pytest.raises(DanglingEndpoint, match=r"^node id 1\.5 is not an integer$"):
        build_network([(0, 1.5)], 0)
    with pytest.raises(DanglingEndpoint, match=r"^node id '1' is not an integer$"):
        build_network([(0, "1")], 0)
    with pytest.raises(DanglingEndpoint, match=r"^node id 1\.0 is not an integer$"):
        build_network([(0, 1)], 0, sinks=(1.0,))
    # class_hasse checks each cut id before it indexes by it
    good = preprocess(net, [{1, 2}])[0].classes[0]
    with pytest.raises(UnknownEdge, match=r"^edge id 1\.0 not in 0\.\.2$"):
        class_hasse(net, [good, good._replace(cut=frozenset({1.0}))])
    # bool subclasses int, so True and False stay ids
    assert build_network([(False, True)], source=False).edges == ((False, True),)
    assert max_flow(net, [True]).value == 1


def test_compute_bound_fig1_modes(fig1):
    lab = fig1.labels
    expected_b = {eset(lab, s) for s in FIG1_MAXIMAL_CUTS}

    nmax = compute_bound(fig1.net, fig1.coll.classes)
    assert nmax == compute_bound(fig1.net, fig1.coll.classes, mode="nmax")
    assert len(nmax.cuts) == 3
    assert nmax.recommended_alphabet == 4
    assert {c.edges for c in nmax.cuts} == expected_b

    n_only = compute_bound(fig1.net, fig1.coll.classes, mode="n")
    assert len(n_only.cuts) == len(fig1.coll.classes) == 15
    assert {c.edges for c in n_only.cuts} == {
        eset(lab, cut_spec) for _, cut_spec, _ in FIG1_CLASSES
    }
    assert n_only.recommended_alphabet == 16


def test_compute_bound_selection_and_tie_breaks(fig1):
    # compute_bound lists its cuts in the pruning loop's default pick order;
    # the other choice key and random tie-breaks only reorder them.
    net, coll = fig1.net, fig1.coll
    for mode, per_capacity in (("n", True), ("nmax", False)):
        got = [c.edges for c in compute_bound(net, coll.classes, mode=mode).cuts]
        assert got == pruning_loop(net, coll, per_capacity)
        assert set(pruning_loop(net, coll, per_capacity, "mincut")) == set(got)
        for seed in range(10):
            rng = random.Random(seed)
            assert set(pruning_loop(net, coll, per_capacity, rng=rng)) == set(got)


def test_compute_bound_picks_the_smallest_of_the_largest_members():
    # Each class's pick is its lexicographically smallest member among its
    # largest ones, which here is never its smallest member overall:
    # {b} < {b,c} but {b,c} is picked, and {e} < {e,f,g} but {e,f,g} is.
    # Taking the smallest member instead would put {b,c}'s class before
    # {b,k}'s ([1] < [1,2] < [1,3] by edge id).
    net, labels = parse_network(
        "edge a s x\nedge b x t\nedge k s t\nedge c x t\n"
        "edge d s y\nedge e y t\nedge f y t\nedge g y t\nsource s\n"
    )
    coll, warnings = parse_collection("b\nb c\ne f g\ne\nb e\nb k\n", net, labels)
    assert warnings == ()
    for mode, per_capacity, picks in (
        ("n", True, ["e f g", "b k", "b c", "b e"]),
        ("nmax", False, ["b k", "b e"]),
    ):
        cuts = compute_bound(net, coll.classes, mode=mode).cuts
        assert [c.target for c in cuts] == [eset(labels, p) for p in picks]
        assert [c.edges for c in cuts] == pruning_loop(net, coll, per_capacity)


def test_compute_bound_picks_by_the_size_then_edge_list_key():
    # s->x twice (0, 1), x->t three times (2-4), s->t (5). The maximal
    # class cut by x's two in-edges {0, 1} has members of sizes 2 and 3, so
    # its pick must come from its largest member only.
    net = build_network([(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (0, 2)], source=0)
    sets = [{2, 3}, {5}, {3, 4}, {2, 3, 4}, {0, 1}, {0}, {2, 4}]
    coll, drops = preprocess(net, sets)
    assert drops == ()
    sizes = {cls.cut: sorted(map(len, cls.members)) for cls in coll.classes}
    assert sizes[frozenset({0, 1})] == [2, 2, 2, 2, 3]

    def old_key(cls):
        return min((-len(s), sorted(s)) for s in cls.members)

    for mode in ("n", "nmax"):
        report = compute_bound(net, coll.classes, mode=mode)
        picked = {c.edges: c for c in report.cuts}
        classes = [cls for cls in coll.classes if cls.cut in picked]
        assert len(classes) == len(report.cuts)
        classes.sort(key=old_key)
        assert [c.edges for c in report.cuts] == [cls.cut for cls in classes]
        assert [c.target for c in report.cuts] == [
            frozenset(old_key(cls)[1]) for cls in classes
        ]
    assert picked[frozenset({0, 1})].target == frozenset({2, 3, 4})


def test_compute_bound_degenerate_inputs(fig1):
    for mode in ("n", "nmax"):
        rep = compute_bound(fig1.net, (), mode=mode)
        assert rep.cuts == ()
        assert rep.recommended_alphabet == 2  # two sinks still need distinct symbols

    net = build_network([(0, 1)], source=0)
    coll, _ = preprocess(net, [{0}])
    for mode in ("n", "nmax"):
        assert len(compute_bound(net, coll.classes, mode=mode).cuts) == 1
    assert compute_bound(net, ()).recommended_alphabet == 1

    with pytest.raises(ParameterOutOfRange, match=r"^unknown mode 'fast': expected 'nmax' or 'n'$"):
        compute_bound(fig1.net, fig1.coll.classes, mode="fast")


def test_compute_bound_refuses_a_collection_in_place_of_its_class_table(fig1):
    # the call compute_bound(net, coll) fails loudly in every mode; it cannot
    # read the record's two fields as two classes and return a count
    for mode in ("n", "nmax"):
        with pytest.raises(AttributeError):
            compute_bound(fig1.net, fig1.coll, mode=mode)
