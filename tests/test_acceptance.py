"""End-to-end acceptance gate.

Each test pins one externally observable guarantee of the package: the
numbers computed for the bundled two-sink instance, invariance of the
maximal-cut list under every tie-breaking choice, the full class structure
and its order diagram, the single-sink primary cut, bound values and runtime
on a generated benchmark, and exact agreement between the fast flow-based
path and the exhaustive brute-force path over a large randomized corpus.
"""

import random
import time
from math import comb

import pytest

from wtbound import (
    Cut,
    class_hasse,
    compute_bound,
    gen_combination,
    max_flow,
    parse_collection,
    parse_network,
)
from wtbound.cli import main
from wtbound.oracle import ENV_EDGE_LIMIT

from helpers import (
    CORPUS_SIZE,
    FIG1_CLASSES,
    FIG1_COVERING,
    FIG1_MAXIMAL_CUTS,
    cut_leq,
    dominates,
    enumerate_decompositions,
    enumerate_min_cuts,
    equivalent,
    eset,
    member_sets,
    minord_merge,
    oracle_bounds,
    oracle_primary_min_cut,
    pruning_loop,
    residual_side,
    result_block,
    separates,
    set_cuts,
)

# The two covering pairs (low, high) that earlier documentation of this
# instance left out, each with a minimum cut shared by the high class's
# members and the edges of the low class's members. That 16-pair diagram was
# wrong: deleting the cut leaves every tail of those edges unreachable, so the
# definitions force both pairs, and FIG1_COVERING holds all 18.
DERIVED_COVERING = (((4, 6), "e1 e2", "e18 e19"), ((5, 11), "e4 e5", "e20 e21"))


def test_bundled_two_sink_instance_bounds_via_cli(data_files, capsys):
    started = time.perf_counter()
    code = main(["bound", str(data_files / "fig1.net"), str(data_files / "fig1.wsets")])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    block = result_block(out)
    assert block["sets"] == "48"
    assert block["n"] == "15"
    assert block["n_max"] == "3"
    assert block["recommended_alphabet"] == "4"
    assert elapsed < 1.0


def test_maximal_cut_list_is_invariant_under_tie_breaking(fig1):
    expected = {eset(fig1.labels, spec) for spec in FIG1_MAXIMAL_CUTS}
    report = compute_bound(fig1.net, fig1.coll.classes)
    assert {c.edges for c in report.cuts} == expected
    assert (len(fig1.coll.classes), len(report.cuts)) == (15, 3)
    for select in ("cardinality", "mincut"):
        assert set(pruning_loop(fig1.net, fig1.coll, False, select)) == expected
        assert len(pruning_loop(fig1.net, fig1.coll, True, select)) == 15
        for seed in range(50):
            rng = random.Random(seed)
            assert set(pruning_loop(fig1.net, fig1.coll, False, select, rng)) == expected
            assert len(pruning_loop(fig1.net, fig1.coll, True, select, rng)) == 15


def test_two_sink_instance_class_structure(fig1):
    classes = fig1.coll.classes
    assert len(classes) == 15
    assert sorted(len(c.members) for c in classes) == [2] * 9 + [3] * 2 + [4] * 2 + [8] * 2
    for cls, (cap, cut_spec, member_specs) in zip(classes, FIG1_CLASSES):
        assert len(cls.cut) == cap
        assert cls.cut == eset(fig1.labels, cut_spec)
        assert list(cls.members) == [
            eset(fig1.labels, spec) for spec in member_specs
        ]
    diagram = class_hasse(fig1.net, classes)
    assert diagram.maximal == (12, 13, 14)
    maximal_reps = {classes[i].members[0] for i in diagram.maximal}
    assert maximal_reps == {
        eset(fig1.labels, spec) for spec in ("e18 e20", "e1 e3 e16", "e3 e5 e17")
    }
    assert {classes[i].cut for i in diagram.maximal} == {
        eset(fig1.labels, spec) for spec in FIG1_MAXIMAL_CUTS
    }


def test_two_sink_instance_matches_reference_diagram(fig1):
    """The covering diagram of the bundled two-sink instance is FIG1_COVERING.

    Earlier documentation of this instance gave 16 covering pairs, without
    (4, 6) and (5, 11). The test first derives those two pairs by brute
    force, without the flow kernel. The capacity-2 class 6 has the minimum
    cut {e1,e2}. Deleting it leaves the tails of e18 and e19 unreachable, so
    class 6 dominates the capacity-1 class 4, whose members are {e18} and
    {e19}. No class has a capacity strictly between 1 and 2, so no class
    sits between them and the pair is covering. Likewise {e4,e5} of class 11
    severs e20 and e21 of class 5. The transitive reduction of the oracle's
    order must give the whole 18-pair reference. Only then does the test
    compare the fast path's diagram with that reference.
    """
    lab = fig1.labels
    ob = oracle_bounds(fig1.net, fig1.coll.sets)
    classes = fig1.coll.classes
    assert member_sets(fig1.coll.sets, ob.classes) == tuple(cls.members for cls in classes)
    families = [
        [enumerate_min_cuts(fig1.net, fig1.coll.sets[m]) for m in members]
        for members in ob.classes
    ]
    for (low, high), cut_spec, low_spec in DERIVED_COVERING:
        assert [fam.capacity for fam in families[low]] == [1] * len(families[low])
        assert [fam.capacity for fam in families[high]] == [2] * len(families[high])
        cut = eset(lab, cut_spec)
        assert all(cut in fam.cuts for fam in families[high]), (low, high)
        low_edges = frozenset().union(*(fig1.coll.sets[m] for m in ob.classes[low]))
        assert low_edges == eset(lab, low_spec)
        assert separates(fig1.net, cut, low_edges), (low, high)
        assert (low, high) in ob.order
        between = [k for k in range(ob.n) if (low, k) in ob.order and (k, high) in ob.order]
        assert between == [], (low, high)

    oracle_covering = sorted(
        (i, j)
        for (i, j) in ob.order
        if not any((i, k) in ob.order and (k, j) in ob.order for k in range(ob.n))
    )
    assert oracle_covering == FIG1_COVERING

    diagram = class_hasse(fig1.net, classes)
    computed = sorted(diagram.covering)
    extra = sorted(set(computed) - set(FIG1_COVERING))
    missing = sorted(set(FIG1_COVERING) - set(computed))
    assert computed == FIG1_COVERING, (
        f"computed covering disagrees with the 18-pair reference diagram: "
        f"extra pairs {extra}, missing pairs {missing} (0-based class indices)"
    )
    assert diagram.maximal == (12, 13, 14)


def test_single_sink_primary_cut(singlesink, monkeypatch):
    node = singlesink.labels.node_labels.index
    in_t = eset(singlesink.labels, "i5-t i9-t i10-t i11-t")
    flow = max_flow(singlesink.net, in_t)
    assert flow.value == 4
    assert residual_side(singlesink.net, in_t, flow.values) == frozenset(
        node(lab) for lab in ("s", "i1", "i2", "i3", "i5", "i6", "i7", "i9")
    )
    assert flow.cut == eset(singlesink.labels, "s-i4 i5-t i7-i10 i9-t")
    # every edge lies on a source-to-sink path here, so brute force needs the
    # documented override to search all 21 edges
    monkeypatch.setenv(ENV_EDGE_LIMIT, "21")
    assert flow.cut == oracle_primary_min_cut(singlesink.net, in_t).edges


def test_generated_benchmark_bounds_and_runtime():
    started = time.perf_counter()
    net_text, sets_text = gen_combination(6, 5, 3)
    net, labels = parse_network(net_text)
    coll, warnings = parse_collection(sets_text, net, labels)
    report = compute_bound(net, coll.classes)
    elapsed = time.perf_counter() - started
    assert warnings == ()
    assert len(coll.sets) == 2905
    assert (len(coll.classes), len(report.cuts)) == (41, 20)
    assert elapsed < 30.0


def test_combination_family_meets_its_closed_forms():
    # With at least two lower edges per relay, every relay subset of size
    # 1..r is its own class and the r-subsets are the maximal ones.
    cases = 0
    for n in range(2, 7):
        for k in range(1, n + 1):
            per_relay = comb(n - 1, k - 1)
            for r in range(1, n + 1):
                total = sum(comb(n, c) * per_relay**c for c in range(1, r + 1))
                if per_relay < 2 or total > 30_000:
                    continue
                net_text, sets_text = gen_combination(n, k, r, max_sets=total)
                net, labels = parse_network(net_text)
                coll, warnings = parse_collection(sets_text, net, labels)
                report = compute_bound(net, coll.classes)
                assert (len(coll.sets), warnings) == (total, ()), (n, k, r)
                n_classes = sum(comb(n, c) for c in range(1, r + 1))
                assert (len(coll.classes), len(report.cuts)) == (n_classes, comb(n, r)), (n, k, r)
                cases += 1
    assert cases == 40


def test_fast_path_matches_brute_force_over_the_corpus(corpus):
    assert len(corpus) == CORPUS_SIZE
    for rec in corpus:
        net, coll = rec.net, rec.coll
        for i, (s, cut) in enumerate(zip(coll.sets, set_cuts(coll))):
            assert len(cut) == rec.fams[i].capacity, (rec.seed, sorted(s))
            run = max_flow(net, s)
            assert run.value == rec.fams[i].capacity, (rec.seed, sorted(s))
            fast_cut = run.cut
            assert fast_cut == oracle_primary_min_cut(net, s).edges, (rec.seed, sorted(s))
            assert fast_cut in rec.fams[i].cuts, (rec.seed, sorted(s))

        assert tuple(cls.members for cls in rec.classes) == member_sets(
            coll.sets, rec.ob.classes
        ), rec.seed

        fast_order = set()
        for i, ci in enumerate(rec.classes):
            for j, cj in enumerate(rec.classes):
                if i != j and dominates(net, ci.members[0], cj.members[0]):
                    fast_order.add((i, j))
        assert fast_order == set(rec.ob.order), rec.seed

        assert len(rec.classes) == rec.ob.n, rec.seed
        assert len(rec.report.cuts) == rec.ob.n_max, rec.seed
        oracle_maximal_cuts = {
            oracle_primary_min_cut(net, coll.sets[cls[0]]).edges
            for i, cls in enumerate(rec.ob.classes)
            if not any((i, j) in rec.ob.order for j in range(rec.ob.n))
        }
        assert {c.edges for c in rec.report.cuts} == oracle_maximal_cuts, rec.seed


def test_equivalence_and_domination_axioms_over_the_corpus(corpus):
    for rec in corpus:
        net, coll = rec.net, rec.coll
        class_of = {}
        for c, members in enumerate(rec.ob.classes):
            for m in members:
                class_of[m] = c

        # The sharing-a-minimum-cut relation is a genuine equivalence and the
        # fast union test agrees with it pair by pair. (Symmetry holds by
        # construction; same-class membership carries transitivity.)
        for i, si in enumerate(coll.sets):
            assert equivalent(net, si, si), rec.seed
            for j in range(i + 1, len(coll.sets)):
                sj = coll.sets[j]
                fast_eq = equivalent(net, si, sj)
                shares_cut = bool(set(rec.fams[i].cuts) & set(rec.fams[j].cuts))
                assert fast_eq == shares_cut, (rec.seed, i, j)
                assert fast_eq == (class_of[i] == class_of[j]), (rec.seed, i, j)

        # Domination on classes is a strict partial order, capacity-monotone,
        # and never holds between equivalent sets.
        order = rec.ob.order
        caps = [
            max_flow(net, coll.sets[members[0]]).value for members in rec.ob.classes
        ]
        for i in range(rec.ob.n):
            assert (i, i) not in order, rec.seed
        for (i, j) in order:
            assert (j, i) not in order, rec.seed
            assert caps[i] < caps[j], rec.seed
            for (j2, k) in order:
                if j2 == j:
                    assert (i, k) in order, (rec.seed, i, j, k)
        for members in rec.ob.classes:
            if len(members) > 1:
                a, b = coll.sets[members[0]], coll.sets[members[1]]
                assert not dominates(net, a, b), rec.seed
                assert not dominates(net, b, a), rec.seed


def test_cut_order_axioms_over_the_corpus(corpus):
    for rec in corpus:
        net = rec.net
        merge_budget = 3
        for fam in rec.fams:
            cuts = [Cut(target=fam.target, edges=c) for c in fam.cuts[:15]]
            k = len(cuts)
            leq = {
                (a, b): cut_leq(net, ca, cb)
                for a, ca in enumerate(cuts)
                for b, cb in enumerate(cuts)
            }
            for a in range(k):
                assert leq[a, a], rec.seed
                for b in range(k):
                    if leq[a, b] and leq[b, a]:
                        assert cuts[a].edges == cuts[b].edges, rec.seed
                    for c in range(k):
                        if leq[a, b] and leq[b, c]:
                            assert leq[a, c], (rec.seed, a, b, c)

            # The primary cut is the unique least element of the family.
            if k == len(fam.cuts):
                primary = max_flow(net, fam.target).cut
                p = next(a for a in range(k) if cuts[a].edges == primary)
                least = [a for a in range(k) if all(leq[a, b] for b in range(k))]
                assert least == [p], (rec.seed, sorted(fam.target))

            # Merging two minimum cuts yields their greatest lower bound.
            if k < 2 or merge_budget == 0:
                continue
            merge_budget -= 1
            for a in range(min(k, 6)):
                for b in range(min(k, 6)):
                    merged = minord_merge(net, cuts[a], cuts[b])
                    assert merged.edges in fam.cuts, rec.seed
                    m = fam.cuts.index(merged.edges)
                    if m < k:
                        assert leq[m, a] and leq[m, b], rec.seed
                    else:
                        assert cut_leq(net, merged, cuts[a]), rec.seed
                        assert cut_leq(net, merged, cuts[b]), rec.seed
                    for d in range(k):
                        if leq[d, a] and leq[d, b]:
                            assert cut_leq(net, cuts[d], merged), rec.seed


def test_cut_order_is_decomposition_independent(corpus):
    families_checked = 0
    families_with_three = 0
    for rec in corpus:
        net = rec.net
        for fam in rec.fams:
            decomps = enumerate_decompositions(net, fam.target)
            if len(decomps) < 2:
                continue
            families_checked += 1
            families_with_three += len(decomps) >= 3
            cuts = fam.cuts[:6]
            for ca in cuts:
                for cb in cuts:
                    expected = separates(net, ca, cb)
                    for packing in decomps:
                        agrees = True
                        for path in packing:
                            hits_a = [i for i, e in enumerate(path) if e in ca]
                            hits_b = [i for i, e in enumerate(path) if e in cb]
                            # a maximum packing crosses every minimum cut
                            # exactly once per path
                            assert len(hits_a) == 1 and len(hits_b) == 1, rec.seed
                            if hits_a[0] > hits_b[0]:
                                agrees = False
                        assert agrees == expected, (rec.seed, sorted(ca), sorted(cb))
    # the corpus must exercise plenty of targets with several distinct
    # maximum packings, including three-way comparisons
    assert families_checked > 100
    assert families_with_three > 50


def test_bound_ordering_and_tightness_over_the_corpus(corpus):
    saturated = 0
    for rec in corpus:
        n_max = len(rec.report.cuts)
        assert n_max <= len(rec.classes) <= len(rec.coll.sets), rec.seed
        if rec.coll.sets and n_max == len(rec.coll.sets):
            saturated += 1
            assert all(len(members) == 1 for members in rec.ob.classes), rec.seed
            assert rec.ob.order == frozenset(), rec.seed
    # the saturated case (every set its own maximal class) must occur
    assert saturated > 0


def test_bound_cuts_follow_the_pruning_loop_over_the_corpus(corpus):
    # The class table reproduces the paper's pruning loop cut for cut, in its
    # default pick order, in both modes.
    for rec in corpus:
        for mode, per_capacity in (("n", True), ("nmax", False)):
            report = compute_bound(rec.net, rec.coll.classes, mode=mode)
            expected = pruning_loop(rec.net, rec.coll, per_capacity)
            assert [c.edges for c in report.cuts] == expected, (rec.seed, mode)
