"""Text formats, label tables, generators, and DOT export."""

import re
import time
from itertools import product
from math import comb

import pytest

from wtbound import (
    CollectionTooLarge,
    CyclicGraph,
    EmptyTargetSet,
    ParameterOutOfRange,
    ParseError,
    SourceHasIncomingEdges,
    UnknownEdge,
    UnknownEdgeLabel,
    build_network,
    class_hasse,
    compute_bound,
    export_hasse_dot,
    gen_combination,
    gen_r_wiretap,
    max_flow,
    parse_collection,
    parse_network,
    preprocess,
    serialize_collection,
    serialize_network,
)
from wtbound import fileio
from wtbound.fileio import LabelTable

from helpers import COLLECTION_NETWORK, eset

G21_DOT = (
    "digraph classes {\n"
    "  rankdir=BT;\n"
    '  n1 [label="Cl1 (1 set)", peripheries=2];\n'
    '  n2 [label="Cl2 (1 set)", peripheries=2];\n'
    "}\n"
)


def test_parse_network_fig1(fig1):
    assert fig1.net.num_nodes == 12
    assert len(fig1.net.edges) == 21
    assert fig1.labels.node_labels[fig1.net.source] == "s"
    assert [fig1.labels.node_labels[t] for t in fig1.net.sinks] == ["t1", "t2"]
    assert fig1.labels.edge_labels == tuple(f"e{i}" for i in range(1, 22))


def test_parse_network_implicit_nodes():
    net, labels = parse_network("edge x a b\nedge y b c\nsource a\nsink c\n")
    assert labels.node_labels == ("a", "b", "c")
    assert net.edges == ((0, 1), (1, 2))
    assert net.source == 0
    assert net.sinks == (2,)


# every boundary str.splitlines splits at, "\r\n" counted as one
LINE_BOUNDARIES = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def test_parse_network_comments_and_blank_lines():
    # a comment ends at every line boundary: the line after it still counts
    text = "# part one\n\nedge x a b   # the only edge\nsource a\n"
    bad = "# part one\n\nedge x a b   # the only edge\nflow x # no directive\n"
    cases = [(text.replace("\n", sep), bad.replace("\n", sep)) for sep in LINE_BOUNDARIES]
    mixed = ["".join(map(str.__add__, t.splitlines(), LINE_BOUNDARIES[7:])) for t in (text, bad)]
    cases.append(tuple(mixed))
    for text, bad in cases:
        net, labels = parse_network(text)
        assert labels.edge_labels == ("x",), repr(text)
        assert net.edges == ((0, 1),)
        with pytest.raises(ParseError) as exc:
            parse_network(bad)
        assert str(exc.value) == "line 4: unknown directive 'flow'", repr(bad)


def test_parse_network_errors_carry_line_numbers():
    cases = [
        ("node a b\nsource a\n", "line 1"),
        ("node a\nnode a\nsource a\n", "duplicate node"),
        ("edge x a b\nedge x a b\nsource a\n", "duplicate edge"),
        ("edge x a\nsource a\n", "edge takes"),
        ("flow x\n", "unknown directive"),
        ("edge x a b\nsource a\nsource b\n", "already set"),
        ("edge x a b\nsink b\nsink b\nsource a\n", "duplicate sink"),
        ("edge x a b\n", "no source"),
        ("node a,b\nsource a\n", "','"),
        ("edge x a b\nsource a,b\n", "line 2: label 'a,b' may not contain ','"),
        ("node a\nsource a,b\n", "line 2: label 'a,b' may not contain ','"),
        ("edge x a b\nsource a\n\nsink b,c\n", "line 4: label 'b,c' may not contain ','"),
        ("edge x a b\nedge y b c,d\nsource a\n", "line 2: label 'c,d' may not contain ','"),
        ("edge x a,z b\nsource a,z\n", "line 1: label 'a,z' may not contain ','"),
        ("node a\nedge x a b\nsource a\n", "unknown node 'b'"),
        ("edge x a b\nsource c\n", "unknown node 'c'"),
        ("edge x a b\nsink c\nsource a\n", "unknown node 'c'"),
        ("edge x a b\nsource a\n\nsink b\nsink zz\n", "line 5: unknown node 'zz'"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_network(text)
        assert fragment in str(exc.value), text


def test_parse_network_graph_errors_pass_through():
    # each carries the line and the file's labels of the edge it names
    cases = [
        (CyclicGraph, "edge x a b\nedge y b c\nedge z c b\nsource a\n",
         "line 2: edge 'y' (b -> c) lies on a directed cycle"),
        (CyclicGraph, "edge x a b\n\n# loop\nedge l b b\nsource a\n",
         "line 4: edge 'l' (b -> b) lies on a directed cycle"),
        (SourceHasIncomingEdges, "edge x a b\nsource b\n",
         "line 1: edge 'x' (a -> b) enters the source"),
        (SourceHasIncomingEdges, "edge e1 s a\nedge e2 a s\nsource s\n",
         "line 2: edge 'e2' (a -> s) enters the source"),
    ]
    for error, text, message in cases:
        with pytest.raises(error) as exc:
            parse_network(text)
        assert str(exc.value) == message, text


def test_parse_network_skips_one_byte_order_mark():
    # the mark some editors write is not content, so line 1 still counts
    assert parse_network("\ufeff" + COLLECTION_NETWORK) == parse_network(COLLECTION_NETWORK)
    cases = [
        (ParseError, "node a b\nsource a\n", "line 1: node takes one label"),
        (ParseError, "edge x a b\nsource a\nsource b\n", "line 3: source already set on line 2"),
        (SourceHasIncomingEdges, "edge x a b\nsource b\n", "line 1: edge 'x' (a -> b) enters the source"),
    ]
    for error, text, message in cases:
        for marked in (text, "\ufeff" + text):
            with pytest.raises(error) as exc:
                parse_network(marked)
            assert str(exc.value) == message, marked
    with pytest.raises(ParseError) as exc:
        parse_network("\ufeff\ufeff" + COLLECTION_NETWORK)  # only one mark is skipped
    assert str(exc.value) == "line 1: unknown directive '\\ufeffedge'"


def test_parse_collection_skips_one_byte_order_mark():
    # the parse and both line re-walks, for a bad label and for the drops,
    # read the lines without the mark
    net, labels = parse_network(COLLECTION_NETWORK)
    text = "d\na a  # z\n\nc\na\n"
    for marked in (text, "\ufeff" + text):
        coll, warnings = parse_collection(marked, net, labels)
        assert coll.sets == (frozenset({0}), frozenset({2}))
        assert warnings == (
            "line 1: unreachable set {d} dropped",
            "line 5: duplicate set {a} dropped",
        ), marked
    for text, line in (("z a\n", 1), ("a\n\nb z\n", 3)):
        for marked in (text, "\ufeff" + text):
            with pytest.raises(UnknownEdgeLabel) as exc:
                parse_collection(marked, net, labels)
            assert str(exc.value) == f"line {line}: unknown edge label 'z'", marked
    with pytest.raises(UnknownEdgeLabel) as exc:
        parse_collection("\ufeff\ufeffa\n", net, labels)
    assert str(exc.value) == "line 1: unknown edge label '\\ufeffa'"


def test_serialize_network_round_trip(fig1, singlesink):
    for bundle in (fig1, singlesink):
        text = serialize_network(bundle.net, bundle.labels)
        net2, labels2 = parse_network(text)
        assert net2 == bundle.net
        assert labels2 == bundle.labels
        assert serialize_network(net2, labels2) == text


def test_label_table():
    table = LabelTable(node_labels=("a", "b"), edge_labels=("x", "y", "z"))
    assert table.edge_set(["y"]) == frozenset({1})
    assert table.edge_set(["z", "x"]) == frozenset({0, 2})
    assert table.format_edges({2, 0}) == "x,z"
    assert table.format_set({2, 0}) == "{x,z}"
    with pytest.raises(UnknownEdgeLabel):
        table.edge_set(["w"])


def test_parse_collection_reports_lines_and_warnings(fig1):
    with pytest.raises(UnknownEdgeLabel) as exc:
        parse_collection("e1\ne97\n", fig1.net, fig1.labels)
    assert "line 2" in str(exc.value)

    coll, warnings = parse_collection(
        "e6\n# comment\n\ne6\ne7 e6\n", fig1.net, fig1.labels
    )
    assert coll.sets == (eset(fig1.labels, "e6"), eset(fig1.labels, "e6 e7"))
    assert warnings == ("line 4: duplicate set {e6} dropped",)


def test_parse_collection_names_the_true_line_of_a_bad_label():
    net, labels = parse_network(COLLECTION_NETWORK)
    cases = [
        ("a\nb\nz", 3),
        ("a\nb\nz\n", 3),
        ("# only a comment\n\n   \nz a\n", 4),
        ("a\n# x\n\nb c  # z\n\t\nb z\n", 6),
        ("a\r\n\r\nc z\r\n", 3),
    ]
    # 'z' after '#' is no label; the rescan must count lines as the parse does
    lines = ["a # z", "", "b c #z", "", "z b"]
    cases += [(sep.join(lines), 5) for sep in LINE_BOUNDARIES]
    cases.append(("".join(map(str.__add__, lines, LINE_BOUNDARIES[3:])), 5))
    for text, line in cases:
        with pytest.raises(UnknownEdgeLabel) as exc:
            parse_collection(text, net, labels)
        assert str(exc.value) == f"line {line}: unknown edge label 'z'", text


def test_parse_collection_lines_comments_and_warnings():
    net, labels = parse_network(COLLECTION_NETWORK)
    text = "a a  # z is no label\nd\n\nc # c\na\nd\nb c\nc b\n"
    texts = [text.replace("\n", newline) for newline in LINE_BOUNDARIES]
    texts.append("".join(map(str.__add__, text.splitlines(), LINE_BOUNDARIES[2:])))
    for text in texts:
        coll, warnings = parse_collection(text, net, labels)
        assert coll.sets == (frozenset({0}), frozenset({2}), frozenset({1, 2}))
        assert warnings == (
            "line 2: unreachable set {d} dropped",
            "line 5: duplicate set {a} dropped",
            "line 6: duplicate set {d} dropped",
            "line 8: duplicate set {b,c} dropped",
        ), repr(text)


def test_parse_collection_reraises_a_key_error_that_names_no_label(monkeypatch):
    # only an unknown label becomes UnknownEdgeLabel; any other KeyError
    # from preprocessing passes through unchanged
    net, labels = parse_network(COLLECTION_NETWORK)
    error = KeyError("a")

    def failing(net, sets):
        raise error

    monkeypatch.setattr(fileio, "preprocess", failing)
    with pytest.raises(KeyError) as exc:
        parse_collection("a\nb\n", net, labels)
    assert exc.value is error


def test_serialize_collection_round_trip(fig1):
    text = serialize_collection(fig1.coll.sets, fig1.labels)
    coll2, warnings = parse_collection(text, fig1.net, fig1.labels)
    assert warnings == ()
    assert coll2.sets == fig1.coll.sets
    assert serialize_collection((), fig1.labels) == ""


@pytest.mark.parametrize(
    "nodes, edges, bad",
    [
        (("s", "v", "t"), ("a b", "y"), "a b"),
        (("s", "v", "t"), ("x", "a#b"), "a#b"),
        (("s", "v", "t"), ("", "y"), ""),
        (("s", "v", "t"), ("x", "a,b"), "a,b"),
        (("s t", "v", "t"), ("x", "y"), "s t"),
    ],
)
def test_serializers_refuse_a_label_the_parsers_cannot_read_back(nodes, edges, bad):
    net = build_network([(0, 1), (1, 2)], source=0, sinks=(2,))
    labels = LabelTable(node_labels=nodes, edge_labels=edges)
    with pytest.raises(ParseError, match=re.escape(f"label {bad!r} ")):
        serialize_network(net, labels)
    if bad in edges:
        with pytest.raises(ParseError, match=re.escape(f"label {bad!r} ")):
            serialize_collection([{0}, {0, 1}], labels)
    else:
        assert serialize_collection([{0}, {0, 1}], labels) == "x\nx y\n"
    # any other single token reads back, whatever its characters
    labels = LabelTable(node_labels=("s", "é", "t"), edge_labels=("x;y", "node"))
    text = serialize_network(net, labels)
    assert parse_network(text) == (net, labels)
    assert parse_collection(serialize_collection([{0, 1}], labels), net, labels)[0].sets == (
        frozenset({0, 1}),
    )


@pytest.mark.parametrize(
    "nodes, edges",
    [(("s", "v"), ("x", "y")), (("s", "v", "t", "u"), ("x", "y")), (("s", "v", "t"), ("x",))],
)
def test_serialize_network_refuses_a_table_of_another_size(nodes, edges):
    # before, too few labels ended in a bare IndexError and a spare node
    # label was written as a node the network does not have
    net = build_network([(0, 1), (1, 2)], source=0, sinks=(2,))
    labels = LabelTable(node_labels=nodes, edge_labels=edges)
    message = f"{len(nodes)} node and {len(edges)} edge labels for 3 nodes and 2 edges"
    with pytest.raises(ParameterOutOfRange, match=f"^{message}$"):
        serialize_network(net, labels)


def test_serializers_refuse_a_repeated_label():
    # a repeated label would read back as its first id, or not at all
    net = build_network([(0, 1), (1, 2)], source=0, sinks=(2,))
    with pytest.raises(ParseError, match="^label 's' is repeated$"):
        serialize_network(net, LabelTable(node_labels=("s", "s", "t"), edge_labels=("x", "y")))
    labels = LabelTable(node_labels=("s", "v", "t"), edge_labels=("x", "x"))
    with pytest.raises(ParseError, match="^label 'x' is repeated$"):
        serialize_network(net, labels)
    with pytest.raises(ParseError, match="^label 'x' is repeated$"):
        serialize_collection([{0}], labels)
    # a node and an edge may share a label: they are read in separate tables
    labels = LabelTable(node_labels=("s", "x", "t"), edge_labels=("x", "y"))
    assert parse_network(serialize_network(net, labels)) == (net, labels)


def test_serialize_collection_refuses_an_id_outside_the_table():
    # before, a negative id was written as another edge's label
    net = build_network([(0, 1), (1, 2)], source=0, sinks=(2,))
    labels = LabelTable(node_labels=("s", "v", "t"), edge_labels=("x", "y"))
    for sets, bad in (([{-1}, {0, -2}], -1), ([{0}, {0, 2}], 2)):
        with pytest.raises(UnknownEdge) as checked:
            net.edge_set([bad])
        assert str(checked.value) == f"edge id {bad!r} not in 0..1"
        with pytest.raises(UnknownEdge, match=f"^{re.escape(str(checked.value))}$"):
            serialize_collection(sets, labels)
    with pytest.raises(UnknownEdge, match=r"^edge id 1 not in 0\.\.0$"):
        gen_r_wiretap(net, LabelTable(node_labels=("s", "v", "t"), edge_labels=("x",)), 1)


@pytest.mark.parametrize(
    "sets, bad",
    [(["ab"], "a"), ([[0.0]], 0.0), ([{0}, [1.0, 0]], 1.0), ([[1, "x"]], "x"), ([["1"]], "1")],
)
def test_serialize_collection_refuses_an_id_that_is_not_an_int(sets, bad):
    # before, "ab" (the ids "a" and "b") ended in a bare TypeError from the
    # range check, and 0.0 in one from indexing the label table; a string id
    # is quoted, so "1" cannot read as the edge id 1
    net = build_network([(0, 1), (1, 2)], source=0, sinks=(2,))
    labels = LabelTable(node_labels=("s", "v", "t"), edge_labels=("x", "y"))
    with pytest.raises(UnknownEdge) as checked:
        net.edge_set([bad])
    assert str(checked.value) == f"edge id {bad!r} not in 0..1"
    with pytest.raises(UnknownEdge, match=f"^{re.escape(str(checked.value))}$"):
        serialize_collection(sets, labels)


def test_serialize_collection_takes_a_bool_as_an_int():
    labels = LabelTable(node_labels=("s", "v", "t"), edge_labels=("x", "y"))
    assert serialize_collection([{True}, [False, True]], labels) == "y\nx y\n"


def test_serialize_collection_refuses_an_empty_set():
    # before, the empty set was written as a blank line, which the parser
    # skips, so [set(), {0}] read back as [{0}]
    labels = LabelTable(node_labels=("s", "v", "t"), edge_labels=("x", "y"))
    for sets in ([set(), {0}], [{0}, frozenset()]):
        with pytest.raises(EmptyTargetSet):
            serialize_collection(sets, labels)


def test_gen_combination_small_instance():
    net_text, sets_text = gen_combination(2, 1, 1)
    assert net_text == (
        "node s\nnode v1\nnode v2\nnode t1\nnode t2\n"
        "edge a1 s v1\nedge a2 s v2\nedge b1_1 v1 t1\nedge b2_2 v2 t2\n"
        "source s\nsink t1\nsink t2\n"
    )
    assert sets_text == "b1_1\nb2_2\n"
    # Deterministic: a second call produces identical bytes.
    assert gen_combination(2, 1, 1) == (net_text, sets_text)


def test_gen_combination_shape_and_bound():
    net_text, sets_text = gen_combination(4, 3, 2)
    net, labels = parse_network(net_text)
    coll, warnings = parse_collection(sets_text, net, labels)
    assert (net.num_nodes, len(net.edges), len(net.sinks)) == (9, 16, 4)
    assert len(coll.sets) == 66
    assert warnings == ()
    report = compute_bound(net, coll.classes)
    assert (len(coll.classes), len(report.cuts)) == (10, 6)
    assert report.recommended_alphabet == 7


def test_gen_combination_rejects_bad_parameters():
    for n, k, r in ((0, 1, 1), (2, 0, 1), (2, 3, 1), (2, 1, 0), (2, 1, 3)):
        with pytest.raises(ParameterOutOfRange):
            gen_combination(n, k, r)
    for cap in (0, -5):
        with pytest.raises(ParameterOutOfRange, match=f"^max_sets must be at least 1, got {cap}$"):
            gen_combination(2, 1, 1, max_sets=cap)
    assert gen_combination(2, 1, 1, max_sets=2)[1] == "b1_1\nb2_2\n"
    with pytest.raises(CollectionTooLarge):
        gen_combination(6, 5, 3, max_sets=100)


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda net, labels: gen_combination(3.0, 2, 1), "n", 3.0),
        (lambda net, labels: gen_combination("3", 2, 1), "n", "3"),
        (lambda net, labels: gen_combination(3, 2.0, 1), "k", 2.0),
        (lambda net, labels: gen_combination(3, 2, 1.0), "r", 1.0),
        (lambda net, labels: gen_combination(3, 2, 1, max_sets=10.5), "max_sets", 10.5),
        (lambda net, labels: gen_r_wiretap(net, labels, 1.5), "r", 1.5),
        (lambda net, labels: gen_r_wiretap(net, labels, 1, max_sets=2.5), "max_sets", 2.5),
    ],
    ids=["comb-n", "comb-n-str", "comb-k", "comb-r", "comb-max_sets", "rwiretap-r", "rwiretap-max_sets"],
)
def test_generators_refuse_a_size_that_is_not_an_int(fig1, call, name, value):
    # a bare TypeError before, or a float taken as its floor or as a cap
    with pytest.raises(ParameterOutOfRange, match=f"^{name} must be an int, got {value!r}$"):
        call(fig1.net, fig1.labels)


def test_generators_take_a_bool_as_an_int(fig1):
    assert gen_combination(2, True, True, max_sets=2) == gen_combination(2, 1, 1, max_sets=2)
    assert gen_r_wiretap(fig1.net, fig1.labels, True) == gen_r_wiretap(fig1.net, fig1.labels, 1)


def test_generators_stop_counting_at_the_cap():
    # the exact counts have thousands of digits: forming them takes minutes
    # at these sizes, and Python refuses to print them
    start = time.perf_counter()
    message = "^more than 100000 wiretap sets would be generated$"
    with pytest.raises(CollectionTooLarge, match=message):
        gen_combination(200, 100, 200)
    with pytest.raises(CollectionTooLarge, match=message):
        gen_combination(10**6, 5 * 10**5, 10**6)
    net = build_network([(0, 1)] * 15000, source=0)
    labels = LabelTable(node_labels=("s", "t"), edge_labels=tuple(f"e{i}" for i in range(15000)))
    with pytest.raises(CollectionTooLarge, match=message):
        gen_r_wiretap(net, labels, 15000)
    assert time.perf_counter() - start < 5
    # below the cap the per-relay count is exact
    for n in range(1, 30):
        for k in range(n + 1):
            got, want = fileio._capped_comb(n, k, 10_000), comb(n, k)
            assert (got == want) if want <= 10_000 else (got > 10_000), (n, k)


def test_gen_combination_checks_its_set_count(monkeypatch):
    # the check must raise without `assert`, which `python -O` strips
    monkeypatch.setattr(fileio, "product", lambda *lists: list(product(*lists))[1:])
    with pytest.raises(AssertionError, match="count formula gives 2"):
        gen_combination(2, 1, 1)


def test_gen_r_wiretap(fig1):
    text = gen_r_wiretap(fig1.net, fig1.labels, 1)
    assert text.splitlines() == [f"e{i}" for i in range(1, 22)]
    # r larger than the edge count caps at the edge count.
    small_net, small_labels = parse_network(gen_combination(2, 1, 1)[0])
    assert len(gen_r_wiretap(small_net, small_labels, 99).splitlines()) == 2**4 - 1
    with pytest.raises(ParameterOutOfRange):
        gen_r_wiretap(fig1.net, fig1.labels, 0)
    for cap in (0, -5):
        with pytest.raises(ParameterOutOfRange, match=f"^max_sets must be at least 1, got {cap}$"):
            gen_r_wiretap(fig1.net, fig1.labels, 1, max_sets=cap)
    assert gen_r_wiretap(fig1.net, fig1.labels, 1, max_sets=21) == text
    with pytest.raises(CollectionTooLarge):
        gen_r_wiretap(fig1.net, fig1.labels, 2, max_sets=100)


def test_gen_r_wiretap_pipeline_bound(fig1):
    text = gen_r_wiretap(fig1.net, fig1.labels, 2)
    coll, warnings = parse_collection(text, fig1.net, fig1.labels)
    assert len(coll.sets) == 231
    assert warnings == ()
    report = compute_bound(fig1.net, coll.classes)
    assert (len(coll.classes), len(report.cuts)) == (24, 17)


def test_export_hasse_dot_small_golden():
    net_text, sets_text = gen_combination(2, 1, 1)
    net, labels = parse_network(net_text)
    coll, _ = parse_collection(sets_text, net, labels)
    diagram = class_hasse(net, coll.classes)
    assert export_hasse_dot(coll.classes, diagram) == G21_DOT


def test_export_hasse_dot_fig1(fig1):
    diagram = class_hasse(fig1.net, fig1.coll.classes)
    dot = export_hasse_dot(fig1.coll.classes, diagram)
    lines = dot.splitlines()
    assert lines[0] == "digraph classes {"
    assert lines[1] == "  rankdir=BT;"
    assert lines[-1] == "}"
    assert sum(1 for l in lines if "->" in l) == 18
    assert sum(1 for l in lines if "peripheries=2" in l) == 3
    assert '  n7 [label="Cl7 (8 sets)"];' in lines
    assert "  n1 -> n7;" in lines
    # Covering arrows point from the dominated class to its dominator.
    assert "  n13 [label=\"Cl13 (4 sets)\", peripheries=2];" in lines


def test_export_hasse_dot_refuses_a_table_of_another_length(fig1):
    # the diagram holds one row per class, not the table it was built from
    diagram = class_hasse(fig1.net, fig1.coll.classes)
    with pytest.raises(ParameterOutOfRange, match="^14 classes for a diagram of 15 rows$"):
        export_hasse_dot(fig1.coll.classes[:-1], diagram)
    with pytest.raises(ParameterOutOfRange, match="^16 classes for a diagram of 15 rows$"):
        export_hasse_dot(fig1.coll.classes + fig1.coll.classes[:1], diagram)


def test_export_hasse_dot_refuses_arguments_of_the_wrong_type(fig1):
    # a wrong argument type is a TypeError, as Python itself raises
    with pytest.raises(TypeError, match="^expected a HasseDiagram from class_hasse, got NoneType$"):
        export_hasse_dot((), None)
    rows = tuple(class_hasse(fig1.net, fig1.coll.classes))  # the fields, not the diagram
    with pytest.raises(TypeError, match="got tuple$"):
        export_hasse_dot(fig1.coll.classes, rows)
    # a collection has two fields, so a diagram of two rows matches its length
    net = build_network([(0, 1), (0, 2)], source=0)
    coll, _ = preprocess(net, [{0}, {1}])
    with pytest.raises(TypeError, match="^expected a class table .* got a WiretapCollection$"):
        export_hasse_dot(coll, class_hasse(net, coll.classes))
    # a table of bare tuples as long as the rows: before, a bare AttributeError
    diagram = class_hasse(net, coll.classes)
    with pytest.raises(TypeError, match="^expected an EquivalenceClass as class 0, got tuple$"):
        export_hasse_dot([()] * len(diagram.above), diagram)


def test_singlesink_data_file(singlesink):
    assert singlesink.net.num_nodes == 13
    assert len(singlesink.net.edges) == 21
    in_t = eset(singlesink.labels, "i5-t i9-t i10-t i11-t")
    assert max_flow(singlesink.net, in_t).value == 4
