"""Whole `wtb` runs at scale: in-process, `verify` on a whole r-wiretap
collection, combination 7/5/3 (122,955 sets), which is past the oracle's
reach, under `bound` and `hasse`, and the 500 corpus instances joined at
their source, whose answer the oracle gives piece by piece; as processes
under a memory limit, a layered network of 89,400 edges."""

import os
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import combinations

import pytest

from wtbound.cli import main

from helpers import (
    CORPUS_SEED,
    CORPUS_SIZE,
    join_at_source,
    layered_edges,
    oracle_answer,
    random_instance,
    result_block,
    wtb_process,
)


def wtb(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `wtb ARGV`."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def cut_sets(block: dict[str, str]) -> set[frozenset[str]]:
    """The printed cuts, each as a set of labels: labels inside a cut print
    in edge-id order, which a relabelled network changes."""
    return {frozenset(v.split(",")) for k, v in block.items() if k.startswith("cut.")}


def test_verify_on_a_whole_r_wiretap_collection(tmp_path):
    # the 4 source edges carry cap(E) = 4, so the primary sets are the 14
    # nonempty subsets of {a1..a4} of size <= 3, and the maximal ones are
    # the four of size 3
    prefix = tmp_path / "c422"
    assert wtb("gen", "combination", "--n", 4, "--k", 2, "--r", 2, "--out-prefix", prefix)[0] == 0
    net, sets = f"{prefix}.net", tmp_path / "rw3.wsets"
    code, out, _ = wtb("gen", "rwiretap", net, "--r", 3, "--out", sets)
    assert code == 0 and result_block(out)["sets"] == "696"
    code, out, _ = wtb("verify", net, sets)
    assert code == 0 and result_block(out)["mismatches"] == "0"
    code, out, _ = wtb("bound", net, sets)
    block = result_block(out)
    assert code == 0 and (block["n"], block["n_max"], block["cuts"]) == ("14", "4", "4")
    assert cut_sets(block) == {frozenset(c) for c in combinations(["a1", "a2", "a3", "a4"], 3)}


def test_the_corpus_joined_at_its_source(tmp_path):
    # 3,719 edges and 5,350 sets in 1,802 classes, 910 of them maximal: the
    # sums of the pieces' answers, by the proof in `join_at_source`
    pieces = [random_instance(CORPUS_SEED + i) for i in range(CORPUS_SIZE)]
    answers = [oracle_answer(*piece) for piece in pieces]
    joined = join_at_source(pieces, CORPUS_SEED)
    net, sets = tmp_path / "joined.net", tmp_path / "joined.wsets"
    edges = joined.net.edges
    net.write_text("".join(f"edge e{e} v{t} v{h}\n" for e, (t, h) in enumerate(edges)) + "source v0\n")
    sets.write_text("".join(" ".join(f"e{e}" for e in sorted(s)) + "\n" for s in joined.sets))
    n = sum(n for n, _, _ in answers)
    n_max = sum(n_max for _, n_max, _ in answers)
    cuts = {
        frozenset(f"e{ids[e]}" for e in cut)
        for ids, (_, _, piece_cuts) in zip(joined.edge_ids, answers)
        for cut in piece_cuts
    }
    code, out, _ = wtb("bound", net, sets)
    block = result_block(out)
    assert code == 0 and (block["n"], block["n_max"]) == (str(n), str(n_max))
    assert cut_sets(block) == cuts
    code, out, _ = wtb("hasse", net, sets, "--dot", tmp_path / "joined.dot")
    block = result_block(out)
    assert code == 0 and block["classes"] == str(n)
    assert len(block["maximal"].split(",")) == n_max


@pytest.fixture(scope="module")
def c753(tmp_path_factory):
    """Combination 7/5/3's files, its `wtb bound` stdout, and a directory for copies."""
    work = tmp_path_factory.mktemp("c753")
    argv = ["--n", 7, "--k", 5, "--r", 3, "--max-sets", 200_000, "--out-prefix", work / "c753"]
    assert wtb("gen", "combination", *argv)[0] == 0
    net, sets = work / "c753.net", work / "c753.wsets"
    code, out, _ = wtb("bound", net, sets)
    assert code == 0
    return net, sets, out, work


def test_combination_7_5_3_bound(c753):
    block = result_block(c753[2])
    assert block["sets"] == "122955"
    assert (block["n"], block["n_max"], block["cuts"]) == ("63", "35", "35")


def test_combination_7_5_3_hasse_reads_the_same_class_table(c753):
    net, sets, _, work = c753
    code, out, _ = wtb("hasse", net, sets, "--dot", work / "c753.dot")
    block = result_block(out)
    assert code == 0 and block["classes"] == "63"
    assert len(block["maximal"].split(",")) == 35  # bound's n_max


def test_combination_7_5_3_does_not_depend_on_line_order(c753):
    net, sets, bound, work = c753
    lines = sets.read_text().splitlines()
    random.Random(1).shuffle(lines)
    shuffled = work / "shuffled.wsets"
    shuffled.write_text("\n".join(lines) + "\n")
    assert wtb("bound", net, shuffled) == (0, bound, "")


def test_combination_7_5_3_does_not_depend_on_comments_or_crlf(c753):
    # a trailing comment on every line, comment-only and blank lines between
    # the sets, and \r\n line ends
    net, sets, bound, work = c753
    text = ["# combination 7/5/3", ""]
    for i, line in enumerate(sets.read_text().splitlines()):
        text += [f"{line}  # set {i + 1}", "# between sets" if i % 2 else ""]
    commented = work / "commented.wsets"
    commented.write_text("\r\n".join(text) + "\r\n", newline="")
    assert wtb("bound", net, commented) == (0, bound, "")


def test_combination_7_5_3_does_not_depend_on_edge_ids(c753):
    net, sets, bound, work = c753
    lines = net.read_text().splitlines()
    slots = [i for i, line in enumerate(lines) if line.startswith("edge ")]
    edges = [lines[i] for i in slots]
    random.Random(1).shuffle(edges)
    for i, line in zip(slots, edges):
        lines[i] = line
    relabelled = work / "relabelled.net"
    relabelled.write_text("\n".join(lines) + "\n")
    code, out, _ = wtb("bound", relabelled, sets)
    block = result_block(out)
    assert code == 0 and (block["n"], block["n_max"], block["cuts"]) == ("63", "35", "35")
    assert cut_sets(block) == cut_sets(result_block(bound))


def test_combination_7_5_3_regularized(c753):
    net, sets, _, _ = c753
    code, out, _ = wtb("bound", net, sets, "--regularize")
    block = result_block(out)
    assert code == 0 and block["regularized_from"] == "122955"
    assert (block["n"], block["n_max"], block["cuts"]) == ("63", "35", "35")


def test_combination_7_5_3_errors_name_their_line(c753):
    net, sets, _, work = c753
    bad = work / "bad.wsets"
    bad.write_text(sets.read_text() + "nosuchedge\n")
    code, out, err = wtb("bound", net, bad)
    assert (code, out) == (2, "")
    assert "line 122956: unknown edge label" in err
    argv = ["--n", 7, "--k", 5, "--r", 3, "--max-sets", 0, "--out-prefix", work / "zero"]
    assert wtb("gen", "combination", *argv)[0] == 2


@pytest.mark.skipif(os.name != "posix", reason="limits the child's address space with preexec_fn")
def test_layered_network_of_89400_edges(tmp_path):
    # flows must take no memory that grows with the square of the network:
    # each run gets 400,000 KiB of address space (`ulimit -v 400000`)
    import resource

    def limit_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (400_000 * 1024, hard))

    edges = layered_edges(300, 100, 3, 1)
    net, sets = tmp_path / "layered.net", tmp_path / "layered.wsets"
    net.write_text("".join(f"edge {lab} {t} {h}\n" for lab, t, h in edges) + "source s\n")
    labels = [lab for lab, _, _ in edges]
    rng = random.Random(1)
    sets.write_text("".join(" ".join(rng.sample(labels, 3)) + "\n" for _ in range(5)))
    for argv, key, want in (
        (["primary-cut", net, "--target", labels[-1]], "capacity", "1"),
        (["bound", net, sets], "sets", "5"),
    ):
        proc = wtb_process([str(a) for a in argv], timeout=60, preexec_fn=limit_memory)
        assert proc.returncode == 0, proc.stderr
        assert result_block(proc.stdout.decode())[key] == want
