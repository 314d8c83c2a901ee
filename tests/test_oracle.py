"""The brute-force reference path: exhaustive cut families and cross-checks."""

import pytest

from wtbound import (
    EmptyTargetSet,
    InstanceTooLarge,
    ParameterOutOfRange,
    UnknownEdge,
    UnreachableTarget,
    build_network,
    cross_check,
    enumerate_min_cuts,
    oracle_bounds,
    oracle_primary_min_cut,
    partition_classes,
)
from wtbound.oracle import DEFAULT_EDGE_LIMIT, ENV_EDGE_LIMIT, edge_limit

from helpers import FIG1_ORDER, eset


def test_edge_limit_env_override(monkeypatch):
    monkeypatch.delenv(ENV_EDGE_LIMIT, raising=False)
    assert edge_limit() == DEFAULT_EDGE_LIMIT == 18
    monkeypatch.setenv(ENV_EDGE_LIMIT, "25")
    assert edge_limit() == 25
    monkeypatch.setenv(ENV_EDGE_LIMIT, "")
    assert edge_limit() == DEFAULT_EDGE_LIMIT
    for raw in ("abc", "0", "-1", "1e3"):
        monkeypatch.setenv(ENV_EDGE_LIMIT, raw)
        with pytest.raises(ParameterOutOfRange):
            edge_limit()


def test_enumerate_min_cuts_families(fig1):
    lab = fig1.labels
    fam = enumerate_min_cuts(fig1.net, eset(lab, "e19 e20"))
    assert fam.capacity == 2
    assert fam.cuts == tuple(
        eset(lab, spec) for spec in ("e16 e17", "e16 e20", "e17 e19", "e19 e20")
    )
    fam18 = enumerate_min_cuts(fig1.net, eset(lab, "e18"))
    assert fam18.capacity == 1
    assert fam18.cuts == (eset(lab, "e16"), eset(lab, "e18"))


def test_enumerate_min_cuts_unreachable_target():
    net = build_network([(0, 1), (2, 3)], source=0)
    fam = enumerate_min_cuts(net, {1})
    assert fam.capacity == 0
    assert fam.cuts == (frozenset(),)


def test_enumerate_min_cuts_input_errors(fig1):
    with pytest.raises(EmptyTargetSet):
        enumerate_min_cuts(fig1.net, ())
    with pytest.raises(UnknownEdge):
        enumerate_min_cuts(fig1.net, {21})


def test_enumerate_min_cuts_instance_guard(fig1, monkeypatch):
    monkeypatch.delenv(ENV_EDGE_LIMIT, raising=False)
    # Every edge of the two-sink instance lies on a path to some sink edge,
    # so this target's search universe has 21 edges, over the default cap.
    all_sink_edges = eset(fig1.labels, "e6 e9 e10 e11 e12 e15 e18 e19 e20 e21")
    with pytest.raises(InstanceTooLarge) as exc:
        enumerate_min_cuts(fig1.net, all_sink_edges)
    assert ENV_EDGE_LIMIT in str(exc.value)
    monkeypatch.setenv(ENV_EDGE_LIMIT, "21")
    assert enumerate_min_cuts(fig1.net, all_sink_edges).capacity == 5


def test_oracle_primary_min_cut(fig1):
    lab = fig1.labels
    cut = oracle_primary_min_cut(fig1.net, eset(lab, "e19 e20"))
    assert cut.edges == eset(lab, "e16 e17")
    assert oracle_primary_min_cut(fig1.net, eset(lab, "e18")).edges == eset(lab, "e16")
    net = build_network([(0, 1), (2, 3)], source=0)
    with pytest.raises(UnreachableTarget):
        oracle_primary_min_cut(net, {1})


def test_oracle_bounds_fig1(fig1):
    ob = oracle_bounds(fig1.net, fig1.coll)
    assert ob.n == 15
    assert ob.n_max == 3
    assert ob.order == frozenset(FIG1_ORDER)
    fast = partition_classes(fig1.net, fig1.coll)
    assert ob.classes == tuple(cls.members for cls in fast)


def test_oracle_bounds_accepts_plain_sequences(fig1):
    lab = fig1.labels
    sets = [eset(lab, "e6"), eset(lab, "e7"), eset(lab, "e18 e20")]
    ob = oracle_bounds(fig1.net, sets)
    assert ob.classes == ((0, 1), (2,))
    assert ob.order == frozenset()
    assert (ob.n, ob.n_max) == (2, 2)


def test_cross_check_fig1_all_green(fig1):
    results = cross_check(fig1.net, fig1.coll)
    assert len(results) == 2 * 48 + 5
    bad = [r for r in results if not r.ok]
    assert bad == []
    names = {r.name for r in results}
    assert {"partition", "domination", "n", "n_max", "maximal_cuts"} <= names
