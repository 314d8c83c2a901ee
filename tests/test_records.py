"""The record types: immutable, value-equal, hashable, picklable NamedTuples."""

import pickle

import pytest

import wtbound
from wtbound import (
    BoundReport,
    CheckResult,
    Cut,
    EquivalenceClass,
    HasseDiagram,
    LabelTable,
    Network,
    ParameterOutOfRange,
    WiretapCollection,
    build_network,
    class_hasse,
    compute_bound,
    max_flow,
)
from wtbound.flow import MaxFlow

from helpers import FIG1_COVERING, enumerate_min_cuts


@pytest.fixture(scope="module")
def records(fig1):
    """One record of each type, taken from what the package computes on fig1."""
    classes = fig1.coll.classes
    report = compute_bound(fig1.net, classes)
    return {
        "Network": fig1.net,
        "LabelTable": fig1.labels,
        "Cut": report.cuts[0],
        "WiretapCollection": fig1.coll,
        "EquivalenceClass": classes[0],
        "HasseDiagram": class_hasse(fig1.net, classes),
        "BoundReport": report,
        "MinCutFamily": enumerate_min_cuts(fig1.net, fig1.coll.sets[0]),
    }


RECORD_NAMES = (
    "Network",
    "LabelTable",
    "Cut",
    "WiretapCollection",
    "EquivalenceClass",
    "HasseDiagram",
    "BoundReport",
    "MinCutFamily",
)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_contract(records, name):
    rec = records[name]
    assert type(rec).__name__ == name
    assert repr(rec).startswith(f"{name}({rec._fields[0]}=")

    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))

    twin = type(rec)(**rec._asdict())
    assert twin is not rec
    assert twin == rec and hash(twin) == hash(rec)

    first, second = rec._fields[:2]
    swapped = rec._replace(**{first: getattr(rec, second)})
    assert type(swapped) is type(rec)
    assert getattr(swapped, first) == getattr(rec, second)
    assert swapped[1:] == rec[1:]
    assert swapped != rec

    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is type(rec) and copy == rec


RECORD_FIELDS = {
    Network: ("num_nodes", "edges", "source", "sinks"),
    LabelTable: ("node_labels", "edge_labels"),
    MaxFlow: ("value", "values", "cut", "live"),
    Cut: ("target", "edges"),
    EquivalenceClass: ("members", "cut"),
    WiretapCollection: ("sets", "classes"),
    HasseDiagram: ("maximal", "above"),
    BoundReport: ("cuts", "recommended_alphabet"),
    CheckResult: ("name", "ok", "detail"),
}


@pytest.mark.parametrize("record", list(RECORD_FIELDS), ids=lambda record: record.__name__)
def test_each_record_holds_only_what_its_stage_computes(record):
    # no field is a copy of another's length or a value a mode may leave
    # out: N is len(classes), N_max len(report.cuts), and the diagram's
    # table is the one the caller passed to class_hasse
    assert record._fields == RECORD_FIELDS[record]
    for annotation in record.__annotations__.values():
        assert "Optional" not in str(annotation) and "None" not in str(annotation)


def test_compute_bound_has_one_mode_per_behaviour(fig1):
    with pytest.raises(ParameterOutOfRange, match="expected 'nmax' or 'n'"):
        compute_bound(fig1.net, fig1.coll.classes, mode="both")


def test_each_cut_is_stored_once_in_its_class(fig1):
    # a set's cut is its class's `cut`, and a class's representative its
    # first member: neither is stored a second time
    for cls in fig1.coll.classes:
        assert type(cls.cut) is frozenset
        assert max_flow(fig1.net, cls.members[0]).cut == cls.cut


def test_the_primary_cut_has_one_spelling():
    # `max_flow(net, T).cut` is the primary cut; `Cut` is the bound report's
    # record, and its capacity is `len(cut.edges)`
    assert not hasattr(Cut, "capacity")
    assert wtbound.Cut is wtbound.wiretap.Cut
    assert not hasattr(wtbound.flow, "primary_min_cut")
    assert not hasattr(wtbound, "primary_min_cut")


def test_network_adjacency_is_computed_once(fig1):
    net = Network(*fig1.net)
    out_edges, in_edges = net.out_edges, net.in_edges
    assert net.out_edges is out_edges and net.in_edges is in_edges
    assert out_edges == fig1.net.out_edges and in_edges == fig1.net.in_edges
    # a replaced network computes its own adjacency, not its parent's
    moved = net._replace(edges=((0, 2), (2, 1)), num_nodes=3)
    assert moved.out_edges == ((0,), (), (1,)) and moved.in_edges == ((), (1,), (0,))
    assert pickle.loads(pickle.dumps(net)).out_edges == out_edges


def test_hasse_covering_is_computed_once(fig1):
    diagram = class_hasse(fig1.net, fig1.coll.classes)
    unread = pickle.loads(pickle.dumps(diagram))
    covering = diagram.covering
    assert sorted(covering) == FIG1_COVERING and diagram.covering is covering
    # a diagram pickled before the first read computes its own covering
    assert "covering" not in vars(unread)
    assert unread.covering == covering and unread.covering is not covering
    assert pickle.loads(pickle.dumps(diagram)).covering == covering
    # a replaced diagram computes its own covering, not its parent's
    chain = diagram._replace(maximal=(2,), above=(0b110, 0b100, 0))
    assert chain.covering == ((0, 1), (1, 2))


def test_network_defaults_and_equality():
    net = build_network([(0, 1)], source=0)
    assert net == Network(num_nodes=2, edges=((0, 1),), source=0)
    assert net.sinks == ()
    assert repr(net) == "Network(num_nodes=2, edges=((0, 1),), source=0, sinks=())"


def test_label_table_id_map_is_computed_once():
    labels = LabelTable(node_labels=("s", "t"), edge_labels=("a", "b"))
    ids = labels._edge_ids
    assert labels._edge_ids is ids and ids == {"a": 0, "b": 1}
    assert labels.edge_set(["b"]) == frozenset({1})
    assert labels._edge_ids is ids
