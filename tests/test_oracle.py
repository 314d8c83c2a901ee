"""The brute-force reference path: exhaustive cut families and cross-checks."""

import ast
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from wtbound import (
    EmptyTargetSet,
    HasseDiagram,
    InstanceTooLarge,
    ParameterOutOfRange,
    UnknownEdge,
    UnreachableTarget,
    build_network,
    cross_check,
    preprocess,
)
from wtbound import flow, oracle, wiretap
from wtbound.graph import bits
from wtbound.oracle import DEFAULT_EDGE_LIMIT, ENV_EDGE_LIMIT, edge_limit

from helpers import (
    FIG1_ORDER,
    dag_and_sets,
    enumerate_min_cuts,
    eset,
    examples,
    layered_network,
    member_sets,
    oracle_bounds,
    oracle_primary_min_cut,
    reference_bounds,
    separates,
)


def test_edge_limit_env_override(monkeypatch):
    monkeypatch.delenv(ENV_EDGE_LIMIT, raising=False)
    assert edge_limit() == DEFAULT_EDGE_LIMIT == 18
    monkeypatch.setenv(ENV_EDGE_LIMIT, "25")
    assert edge_limit() == 25
    monkeypatch.setenv(ENV_EDGE_LIMIT, "")
    assert edge_limit() == DEFAULT_EDGE_LIMIT
    for raw in ("abc", "0", "-1", "1e3", "²"):
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


def test_min_cut_masks_come_in_the_order_of_their_sorted_edge_lists():
    # the worker keeps its masks in the order combinations yields them, and
    # no sort: over an ascending universe that is the lexicographic order
    hypothesis = pytest.importorskip("hypothesis")

    sizes = Counter()
    # a path s -> a -> b -> t: each of its three edges alone cuts the last.
    # Derandomized draws are seeded from this function's source, so without
    # this case an edit here can leave no family of three cuts drawn
    path = build_network([(0, 1), (1, 2), (2, 3)], source=0)

    @examples(300)
    @hypothesis.given(dag_and_sets(max_edges=14))
    @hypothesis.example((path, [frozenset({2})]))
    def check(case):
        net, (target,) = case
        family = oracle._min_cuts(oracle._Exposed(net), target)
        cuts = [bits(mask) for mask in family.cuts]
        assert cuts == sorted(cuts)
        assert len(set(family.cuts)) == len(cuts)
        sizes[min(len(cuts), 3)] += 1

    check()
    assert sizes[3] > 0, sizes  # some families hold three cuts or more


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
    ob = oracle_bounds(fig1.net, fig1.coll.sets)
    assert ob.n == 15
    assert ob.n_max == 3
    assert ob.order == frozenset(FIG1_ORDER)
    fast = fig1.coll.classes
    assert member_sets(fig1.coll.sets, ob.classes) == tuple(cls.members for cls in fast)


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


def _failures(net, coll):
    return {r.name: r.detail for r in cross_check(net, coll) if not r.ok}


def test_a_passing_check_formats_no_detail(fig1):
    # the verify-layered benchmark shape with its r=2 collection, and fig1
    net = layered_network(6, 3, 2, 1)
    sets = [frozenset(c) for r in (1, 2) for c in combinations(range(len(net.edges)), r)]
    for net, coll in ((net, preprocess(net, sets)[0]), (fig1.net, fig1.coll)):
        results = cross_check(net, coll)
        assert all(r.ok for r in results)
        assert {r.detail for r in results} == {""}


# s=0 a=1 b=2 t=3: two parallel edges s->a (0, 1), a->b (2), two parallel
# edges a->t (3, 4), b->t (5); the four classes have the cuts {0, 1}, {3},
# {2} and {4}
SMALL_EDGES = [(0, 1), (0, 1), (1, 2), (1, 3), (1, 3), (2, 3)]
SMALL_SETS = [{3, 4}, {3}, {2}, {2, 5}, {4}, {5}]


def test_a_failing_check_keeps_its_detail_text(monkeypatch):
    # every text below is the one cross_check wrote before details were
    # formatted only for failing checks
    net = build_network(SMALL_EDGES, source=0)
    coll, _ = preprocess(net, SMALL_SETS)
    first, second, *rest = coll.classes
    assert (first.cut, second.cut) == (frozenset({0, 1}), frozenset({3}))
    # the first two classes swap cuts
    swapped = (first._replace(cut=second.cut), second._replace(cut=first.cut), *rest)
    assert _failures(net, coll._replace(classes=swapped)) == {
        "mincut[0]": "fast 1, oracle 2 for [3, 4]",
        "primary[0]": "fast [3], oracle [0, 1] for [3, 4]",
        "mincut[1]": "fast 2, oracle 1 for [3]",
        "primary[1]": "fast [0, 1], oracle [3] for [3]",
        "domination": "fast [(0, 1), (2, 1), (3, 1)], oracle [(1, 0), (2, 0), (3, 0)]",
    }
    # and then the second class's member moves to the first
    moved = (
        swapped[0]._replace(members=(*first.members, *second.members)),
        swapped[1]._replace(members=()),
        *rest,
    )
    assert _failures(net, coll._replace(classes=moved)) == {
        "mincut[0]": "fast 1, oracle 2 for [3, 4]",
        "primary[0]": "fast [3], oracle [0, 1] for [3, 4]",
        "partition": "fast ((0, 1), (), (2, 3, 5), (4,)), oracle ((0,), (1,), (2, 3, 5), (4,))",
        "domination": "fast [(0, 1), (2, 1), (3, 1)], oracle [(1, 0), (2, 0), (3, 0)]",
    }
    # the last class is gone, so its member reads the empty cut
    assert _failures(net, coll._replace(classes=coll.classes[:3])) == {
        "mincut[4]": "fast 0, oracle 1 for [4]",
        "primary[4]": "fast [], oracle [4] for [4]",
        "partition": "fast ((0,), (1,), (2, 3, 5)), oracle ((0,), (1,), (2, 3, 5), (4,))",
        "domination": "fast [(1, 0), (2, 0)], oracle [(1, 0), (2, 0), (3, 0)]",
        "n": "fast 3, oracle 4",
    }
    # a diagram whose relation has a loop and more maximal classes than classes
    broken = HasseDiagram(maximal=(1,) * 5, above=(0b11, 0, 0b1, 0))
    monkeypatch.setattr(wiretap, "class_hasse", lambda net, classes: broken)
    assert _failures(net, coll) == {
        "domination": "fast [(0, 0), (0, 1), (2, 0)], oracle [(1, 0), (2, 0), (3, 0)]"
        "; fast relation is not a strict partial order",
        "n_max": "fast 5, oracle 1; n_max <= n <= 6 sets fails",
        "maximal_cuts": "fast [[3]], oracle [[0, 1]]",
    }


def _set_failures(failures):
    return {name for name in failures if "[" in name}


def test_cross_check_fails_a_member_moved_to_another_class(fig1):
    # a set's fast cut is read through the class that holds it, so a set
    # filed under the wrong class must show as a wrong cut, not pass
    coll, lab = fig1.coll, fig1.labels
    first, second = coll.classes[:2]
    assert (first.cut, second.cut) == (eset(lab, "e1"), eset(lab, "e2"))
    moved = first.members[1]
    classes = (
        first._replace(members=first.members[:1]),
        second._replace(members=(*second.members, moved)),
        *coll.classes[2:],
    )
    failures = _failures(fig1.net, coll._replace(classes=classes))
    i = coll.sets.index(moved)
    assert _set_failures(failures) == {f"primary[{i}]"}
    assert "partition" in failures


def test_cross_check_fails_every_member_of_a_class_with_a_swapped_cut(fig1):
    coll = fig1.coll
    k = 6  # eight members, cut {e1, e2}; class 7 has another cut of size 2
    assert len(coll.classes[k].members) == 8
    assert coll.classes[k].cut != coll.classes[k + 1].cut
    classes = list(coll.classes)
    classes[k] = classes[k]._replace(cut=classes[k + 1].cut)
    failures = _failures(fig1.net, coll._replace(classes=tuple(classes)))
    primary = {name for name in _set_failures(failures) if name.startswith("primary")}
    assert primary == {f"primary[{coll.sets.index(s)}]" for s in coll.classes[k].members}


def test_cross_check_reads_a_set_no_class_holds_as_an_empty_cut(fig1):
    coll = fig1.coll
    first = coll.classes[0]
    dropped = first.members[1]
    classes = (first._replace(members=first.members[:1]), *coll.classes[1:])
    failures = _failures(fig1.net, coll._replace(classes=classes))
    i = coll.sets.index(dropped)
    assert _set_failures(failures) == {f"mincut[{i}]", f"primary[{i}]"}
    assert failures[f"mincut[{i}]"].startswith("fast 0, oracle 1")
    assert failures[f"primary[{i}]"].startswith("fast [], oracle [0]")
    assert "partition" in failures


def test_cross_check_fails_the_partition_for_a_member_missing_from_the_sets(fig1):
    # a class member that is not in coll.sets has no set index; it reads -1
    # and fails the partition record instead of ending the check
    coll = fig1.coll
    missing = coll.sets[0]
    failures = _failures(fig1.net, coll._replace(sets=coll.sets[1:]))
    assert list(failures) == ["partition"]
    assert "-1" in failures["partition"]
    assert any(missing in cls.members for cls in coll.classes)


def test_cross_check_refuses_a_class_table_in_place_of_its_collection(fig1):
    # before, a bare AttributeError: 'tuple' object has no attribute 'sets'
    with pytest.raises(TypeError, match="^expected a WiretapCollection from preprocess, got tuple$"):
        cross_check(fig1.net, fig1.coll.classes)


def test_oracle_bounds_equal_the_pairwise_reference_over_the_corpus(corpus):
    for rec in corpus:
        reference = reference_bounds(rec.net, rec.coll.sets, rec.fams)
        assert rec.ob == reference, rec.seed


def test_oracle_bounds_equal_the_pairwise_reference_on_the_verify_shape():
    # the verify-layered benchmark shape with its r=2 collection
    net = layered_network(6, 3, 2, 1)
    sets = [frozenset(c) for r in (1, 2) for c in combinations(range(len(net.edges)), r)]
    coll, _ = preprocess(net, sets)
    fams = [enumerate_min_cuts(net, s) for s in coll.sets]
    ob = oracle_bounds(net, coll.sets)
    assert ob == reference_bounds(net, coll.sets, fams)
    assert 0 < ob.n_max < ob.n and ob.order


def test_the_exposed_mask_is_the_separation_definition(corpus):
    # every (minimum cut, set) pair of the corpus, with both answers present
    answers = Counter()
    for rec in corpus:
        exposed = oracle._Exposed(rec.net)
        for cut in {c for fam in rec.fams for c in fam.cuts}:
            mask = exposed[oracle._mask(cut)]
            for s in rec.coll.sets:
                separated = separates(rec.net, cut, s)
                assert (not oracle._mask(s) & mask) == separated, (rec.seed, cut, s)
                answers[separated] += 1
    assert min(answers.values()) > 1000, answers


def _path_edges(net, target) -> list:
    """The edges on some source-to-target path, by a forward search from the
    source and a reverse search from the target edges' tails."""

    def search(start, step):
        seen, stack = set(start), list(start)
        while stack:
            for w in step(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    reached = search([net.source], lambda v: [net.edges[e][1] for e in net.out_edges[v]])
    feeding = search(
        [net.edges[e][0] for e in target], lambda v: [net.edges[e][0] for e in net.in_edges[v]]
    )
    return [
        e for e, (t, h) in enumerate(net.edges) if t in reached and (e in target or h in feeding)
    ]


def test_the_search_universe_is_every_edge_on_a_source_to_target_path():
    hypothesis = pytest.importorskip("hypothesis")

    # edge 1 enters the target's tail from node 2, which the source never reaches
    stray = build_network([(0, 1), (2, 1), (1, 3)], source=0)

    @examples(300)
    @hypothesis.given(dag_and_sets(max_edges=14))
    @hypothesis.example((stray, [frozenset({2})]))
    def check(case):
        net, (target,) = case
        assert oracle._relevant_edges(oracle._Exposed(net), target) == _path_edges(net, target)

    check()


class _NoStore(oracle._Exposed):
    """The per-call memo with storing switched off: every question runs its
    own sweep, as the oracle did before the memo."""

    def __missing__(self, removed):
        exposed = super().__missing__(removed)
        del self[removed]
        return exposed


def _count_searches(monkeypatch) -> list:
    """Record the deleted edge mask of every sweep from now on."""
    calls = []
    sweep = oracle._Exposed.__missing__

    def counted(self, removed):
        calls.append(removed)
        return sweep(self, removed)

    monkeypatch.setattr(oracle._Exposed, "__missing__", counted)
    return calls


def _oracle_answers(net, coll):
    return (
        cross_check(net, coll),
        oracle_bounds(net, coll.sets),
        [enumerate_min_cuts(net, s) for s in coll.sets],
        [oracle_primary_min_cut(net, s) for s in coll.sets],
    )


def test_the_reachability_memo_changes_no_result(corpus, monkeypatch):
    calls = _count_searches(monkeypatch)
    memoized = [_oracle_answers(rec.net, rec.coll) for rec in corpus]
    searches = len(calls)
    monkeypatch.setattr(oracle, "_Exposed", _NoStore)
    for rec, expected in zip(corpus, memoized):
        assert _oracle_answers(rec.net, rec.coll) == expected, rec.seed
    # without storing, the same questions must cost more searches, or the
    # comparison above would not have exercised the memo
    assert len(calls) - searches > searches


def test_one_search_per_distinct_deleted_set(fig1, monkeypatch):
    # the verify-layered benchmark shape with its r=2 collection: the oracle
    # asks about the empty set, every single edge and every edge pair
    net = layered_network(6, 3, 2, 1)
    sets = [frozenset(c) for r in (1, 2) for c in combinations(range(len(net.edges)), r)]
    coll, _ = preprocess(net, sets)
    assert (len(net.edges), len(coll.sets)) == (30, 465)
    calls = _count_searches(monkeypatch)
    assert all(r.ok for r in cross_check(net, coll))
    assert len(calls) == len(set(calls)) == 1 + 30 + 435
    calls.clear()
    assert all(r.ok for r in cross_check(fig1.net, fig1.coll))
    assert len(calls) == len(set(calls)) > 0


def test_the_oracle_runs_without_the_flow_kernel(fig1, corpus, monkeypatch):
    # every collection here was preprocessed, by the fast path, before the stub
    instances = [(fig1.net, fig1.coll)] + [(rec.net, rec.coll) for rec in corpus[::25]]
    kernel = flow.max_flow

    def no_kernel(*args, **kwargs):
        raise AssertionError("the oracle called the flow kernel")

    stubbed = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wtbound" and getattr(module, "max_flow", None) is kernel:
            monkeypatch.setattr(module, "max_flow", no_kernel)
            stubbed.add(name)
    assert stubbed == {"wtbound", "wtbound.flow"}
    for net, coll in instances:
        exposed = oracle._Exposed(net)
        families = [oracle._min_cuts(exposed, s) for s in coll.sets]
        for family in families:
            assert oracle._primary(exposed, family) in family.cuts
        assert oracle._bounds(exposed, coll.sets, families).n <= len(coll.sets)
        assert all(r.ok for r in cross_check(net, coll))


def _module_level_imports(body) -> set:
    """The modules that the statements in `body` import when the module
    loads: function bodies and `if TYPE_CHECKING:` blocks are left out."""
    names = set()
    for node in body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative to the package
                module = "wtbound" + (f".{node.module}" if node.module else "")
            else:
                module = node.module
            if module == "wtbound":  # `from . import flow` names the modules
                names.update(f"wtbound.{alias.name}" for alias in node.names)
            else:
                names.add(module)
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            names |= _module_level_imports(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "handlers", "finalbody"):
                names |= _module_level_imports(getattr(node, field, []))
    return names


def test_the_oracle_imports_neither_the_kernel_nor_the_fast_path():
    # The independence is structural: when the oracle loads it takes from
    # the package only its errors and the network record, never `flow` or
    # `wiretap`. Equality, not a subset, so a walker that missed the
    # relative imports could not pass.
    names = _module_level_imports(ast.parse(Path(oracle.__file__).read_text()).body)
    package = {name for name in names if name.split(".")[0] == "wtbound"}
    assert package == {"wtbound.errors", "wtbound.graph"}
