"""Minimum-cut capacities and primary cuts, and the test-side separation
test and cut order they are checked with."""

import pytest

from wtbound import (
    Cut,
    UnknownEdge,
    build_network,
    max_flow,
)

from helpers import cut_leq, eset, minord_merge, reachable_nodes, separates


def test_reachable_nodes(fig1):
    assert reachable_nodes(fig1.net) == frozenset(range(12))
    blocked = eset(fig1.labels, "e1 e2 e3 e4 e5")
    assert reachable_nodes(fig1.net, blocked) == frozenset({fig1.net.source})
    # Cutting e16 unhooks i7 and nothing else.
    i7 = fig1.labels.node_labels.index("i7")
    assert reachable_nodes(fig1.net, eset(fig1.labels, "e16")) == frozenset(
        v for v in range(12) if v != i7
    )


def test_separates(fig1):
    lab = fig1.labels
    assert separates(fig1.net, eset(lab, "e1 e2 e3"), eset(lab, "e6 e10 e18"))
    assert separates(fig1.net, eset(lab, "e16"), eset(lab, "e18"))
    assert separates(fig1.net, eset(lab, "e16"), eset(lab, "e19"))
    assert not separates(fig1.net, eset(lab, "e16"), eset(lab, "e20"))
    # A blocker that is itself a target edge separates that edge outright.
    assert separates(fig1.net, eset(lab, "e6"), eset(lab, "e6"))
    # Empty targets are vacuously separated; bad ids are rejected.
    assert separates(fig1.net, eset(lab, "e1"), ())
    with pytest.raises(UnknownEdge):
        separates(fig1.net, {99}, {0})
    with pytest.raises(UnknownEdge):
        separates(fig1.net, {0}, {99})


def test_mincut_capacity(fig1):
    lab = fig1.labels
    assert max_flow(fig1.net, eset(lab, "e6")).value == 1
    assert max_flow(fig1.net, eset(lab, "e19 e20")).value == 2
    assert max_flow(fig1.net, eset(lab, "e6 e10 e12 e18 e20")).value == 5
    assert max_flow(fig1.net, eset(lab, "e1 e2 e3 e4 e5")).value == 5


def test_mincut_capacity_unreachable_is_zero():
    net = build_network([(0, 1), (2, 3)], source=0)
    assert max_flow(net, {1}).value == 0


def test_primary_min_cut_goldens(fig1):
    lab = fig1.labels
    cases = [
        ("e1", "e1"),
        ("e18", "e16"),
        ("e19 e20", "e16 e17"),
        ("e6 e10 e18", "e1 e2 e3"),
        ("e6 e10 e12 e18 e20", "e1 e2 e3 e4 e5"),
    ]
    for target_spec, cut_spec in cases:
        assert max_flow(fig1.net, eset(lab, target_spec)).cut == eset(lab, cut_spec)


def test_primary_min_cut_singlesink(singlesink):
    lab = singlesink.labels
    in_t = eset(lab, "i5-t i9-t i10-t i11-t")
    run = max_flow(singlesink.net, in_t)
    assert run.value == 4
    assert run.cut == eset(lab, "s-i4 i5-t i7-i10 i9-t")


def test_primary_min_cut_separates_its_target(fig1):
    lab = fig1.labels
    for spec in ("e18", "e19 e20", "e6 e10 e18", "e9 e15 e21"):
        target = eset(lab, spec)
        run = max_flow(fig1.net, target)
        assert separates(fig1.net, run.cut, target)
        assert len(run.cut) == run.value


def test_primary_min_cut_unreachable_target():
    net = build_network([(0, 1), (2, 3)], source=0)
    run = max_flow(net, {1})
    assert (run.value, run.cut) == (0, frozenset())


def test_cut_leq_on_a_small_family(fig1):
    lab = fig1.labels
    target = eset(lab, "e19 e20")
    family = {
        spec: Cut(target=target, edges=eset(lab, spec))
        for spec in ("e16 e17", "e16 e20", "e17 e19", "e19 e20")
    }
    primary = Cut(target=target, edges=max_flow(fig1.net, target).cut)
    assert primary.edges == family["e16 e17"].edges
    for cut in family.values():
        assert cut_leq(fig1.net, primary, cut)
        assert cut_leq(fig1.net, cut, family["e19 e20"])
        assert cut_leq(fig1.net, cut, cut)
    assert not cut_leq(fig1.net, family["e16 e20"], family["e17 e19"])
    assert not cut_leq(fig1.net, family["e17 e19"], family["e16 e20"])


def test_minord_merge_picks_the_earlier_edge_per_path(fig1):
    lab = fig1.labels
    target = eset(lab, "e19 e20")
    c1 = Cut(target=target, edges=eset(lab, "e16 e20"))
    c2 = Cut(target=target, edges=eset(lab, "e17 e19"))
    merged = minord_merge(fig1.net, c1, c2)
    assert merged.edges == eset(lab, "e16 e17")
    assert cut_leq(fig1.net, merged, c1)
    assert cut_leq(fig1.net, merged, c2)
    # Merging with the primary cut is absorbing.
    primary = Cut(target=target, edges=max_flow(fig1.net, target).cut)
    assert minord_merge(fig1.net, primary, c1).edges == primary.edges
    assert minord_merge(fig1.net, c1, c1).edges == c1.edges


def test_minord_merge_rejects_non_minimum_cuts(fig1):
    lab = fig1.labels
    target = eset(lab, "e19 e20")
    ok = Cut(target=target, edges=eset(lab, "e16 e17"))
    too_big = Cut(target=target, edges=eset(lab, "e16 e17 e18"))
    not_a_cut = Cut(target=target, edges=eset(lab, "e16 e18"))
    with pytest.raises(ValueError):
        minord_merge(fig1.net, ok, too_big)
    with pytest.raises(ValueError):
        minord_merge(fig1.net, ok, not_a_cut)
