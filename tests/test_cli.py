"""The wtb command line: output contracts and exit codes."""

import argparse
import ast
import gc
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wtbound
from wtbound import (
    compute_bound,
    gen_combination,
    parse_collection,
    parse_network,
)
from wtbound.cli import build_parser, main, run
from wtbound.oracle import ENV_EDGE_LIMIT

from helpers import FIG1_MAXIMAL_CUTS, env_with_package, result_block, wtb_process
from test_golden import COMMANDS, GEN, GOLDEN, INPUTS


@pytest.fixture()
def g21(tmp_path):
    net_text, sets_text = gen_combination(2, 1, 1)
    net_path = tmp_path / "g21.net"
    sets_path = tmp_path / "g21.wsets"
    net_path.write_text(net_text)
    sets_path.write_text(sets_text)
    return net_path, sets_path


def test_bound_fig1(data_files, capsys):
    code = main(["bound", str(data_files / "fig1.net"), str(data_files / "fig1.wsets")])
    out = capsys.readouterr().out
    assert code == 0
    block = result_block(out)
    assert block["nodes"] == "12"
    assert block["edges"] == "21"
    assert block["sets"] == "48"
    assert block["mode"] == "both"
    assert block["n"] == "15"
    assert block["n_max"] == "3"
    assert block["cuts"] == "3"
    assert block["recommended_alphabet"] == "4"
    got_cuts = {block["cut.1"], block["cut.2"], block["cut.3"]}
    assert got_cuts == {spec.replace(" ", ",") for spec in FIG1_MAXIMAL_CUTS}
    assert "maximal classes (N_max): 3" in out


def test_bound_is_deterministic(data_files, capsys):
    argv = ["bound", str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_bound_mode_n(data_files, capsys):
    code = main(
        ["bound", str(data_files / "fig1.net"), str(data_files / "fig1.wsets"), "--mode", "n"]
    )
    block = result_block(capsys.readouterr().out)
    assert code == 0
    assert block["n"] == "15"
    assert "n_max" not in block
    assert block["cuts"] == "15"
    assert block["recommended_alphabet"] == "16"


@pytest.mark.parametrize("instance", ["fig1", "c422"])
@pytest.mark.parametrize("mode", ["both", "nmax", "n"])
def test_the_printed_bound_is_the_cut_count(data_files, tmp_path, capsys, instance, mode):
    # N_max in modes both and nmax, N in mode n: the report's cut count either
    # way, and mode both is the library's mode nmax plus the class count
    if instance == "fig1":
        net_path, sets_path = data_files / "fig1.net", data_files / "fig1.wsets"
    else:
        net_path, sets_path = tmp_path / "c422.net", tmp_path / "c422.wsets"
        for path, text in zip((net_path, sets_path), gen_combination(4, 2, 2)):
            path.write_text(text)
    net, labels = parse_network(net_path.read_text())
    coll, _ = parse_collection(sets_path.read_text(), net, labels)
    report = compute_bound(net, coll.classes, mode="n" if mode == "n" else "nmax")
    if mode == "n":
        assert len(report.cuts) == len(coll.classes)
    assert report.recommended_alphabet == max(len(report.cuts) + 1, len(net.sinks))
    assert main(["bound", str(net_path), str(sets_path), "--mode", mode]) == 0
    out = capsys.readouterr().out
    assert f"an alphabet with more than {len(report.cuts)} symbols suffices" in out
    block = result_block(out)
    assert block["cuts"] == str(len(report.cuts))
    assert block.get("n") == (None if mode == "nmax" else str(len(coll.classes)))
    assert block.get("n_max") == (None if mode == "n" else str(len(report.cuts)))
    assert block["recommended_alphabet"] == str(report.recommended_alphabet)


def test_bound_regularize_and_report(data_files, tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(
        [
            "bound",
            str(data_files / "fig1.net"),
            str(data_files / "fig1.wsets"),
            "--regularize",
            "--report",
            str(report),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    block = result_block(out)
    assert block["regularized_from"] == "48"
    assert block["sets"] == "15"
    assert (block["n"], block["n_max"]) == ("15", "3")
    assert report.read_text() == out


def test_bound_report_that_cannot_be_written_prints_no_result(data_files, tmp_path, capsys):
    # a missing parent directory, a directory in place of the file, and no path
    for report in (tmp_path / "missing" / "report.txt", tmp_path, ""):
        code = main(
            [
                "bound",
                str(data_files / "fig1.net"),
                str(data_files / "fig1.wsets"),
                "--report",
                str(report),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        if report == "":  # named by its option, not by the '.' it would open
            assert captured.err == "error: --report: empty path\n"
        else:
            assert str(report) in captured.err


def test_an_empty_output_path_names_its_option(data_files, tmp_path, capsys, monkeypatch):
    # an empty --out-prefix would write hidden '.net' and '.wsets' files here
    monkeypatch.chdir(tmp_path)
    net, sets = str(data_files / "fig1.net"), str(data_files / "fig1.wsets")
    for option, argv in (
        ("--dot", ["hasse", net, sets, "--dot", ""]),
        ("--out", ["gen", "rwiretap", net, "--r", "1", "--out", ""]),
        (
            "--out-prefix",
            ["gen", "combination", "--n", "2", "--k", "1", "--r", "1", "--out-prefix", ""],
        ),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {option}: empty path\n")
    assert list(tmp_path.iterdir()) == []


def test_classes_fig1(data_files, capsys):
    code = main(["classes", str(data_files / "fig1.net"), str(data_files / "fig1.wsets")])
    block = result_block(capsys.readouterr().out)
    assert code == 0
    assert block["classes"] == "15"
    assert block["class.1.capacity"] == "1"
    assert block["class.1.cut"] == "e1"
    assert block["class.1.members"] == "{e6};{e7}"
    assert block["class.7.cut"] == "e1,e2"
    assert block["class.7.size"] == "8"


def test_hasse_fig1(data_files, tmp_path, capsys):
    dot_path = tmp_path / "classes.dot"
    code = main(
        [
            "hasse",
            str(data_files / "fig1.net"),
            str(data_files / "fig1.wsets"),
            "--dot",
            str(dot_path),
        ]
    )
    block = result_block(capsys.readouterr().out)
    assert code == 0
    assert block["classes"] == "15"
    assert block["covering"] == "18"
    assert block["maximal"] == "13,14,15"
    assert block["cover.1"] == "1<7"
    dot = dot_path.read_text()
    assert dot.startswith("digraph classes {")
    assert dot.count("->") == 18
    assert dot.count("peripheries=2") == 3


def test_primary_cut_and_mincut(data_files, capsys):
    code = main(
        ["primary-cut", str(data_files / "fig1.net"), "--target", "e19, e20"]
    )
    block = result_block(capsys.readouterr().out)
    assert code == 0
    assert block["target"] == "e19,e20"
    assert block["cut"] == "e16,e17"
    assert block["capacity"] == "2"

    code = main(["mincut", str(data_files / "fig1.net"), "--target", "e6"])
    block = result_block(capsys.readouterr().out)
    assert code == 0
    assert block["mincut"] == "1"


def test_primary_cut_names_the_labels_of_an_unreachable_target(tmp_path, capsys):
    split = tmp_path / "split.net"
    split.write_text("edge a s x\nedge b y t\nsource s\n")
    assert main(["primary-cut", str(split), "--target", "b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no edge of {b} is reachable from the source\n"


def test_gen_combination_command(tmp_path, capsys):
    prefix = tmp_path / "g21"
    code = main(
        ["gen", "combination", "--n", "2", "--k", "1", "--r", "1", "--out-prefix", str(prefix)]
    )
    block = result_block(capsys.readouterr().out)
    assert code == 0
    net_text, sets_text = gen_combination(2, 1, 1)
    assert (tmp_path / "g21.net").read_text() == net_text
    assert (tmp_path / "g21.wsets").read_text() == sets_text
    assert block["nodes"] == "5"
    assert block["edges"] == "4"
    assert block["sinks"] == "2"
    assert block["sets"] == "2"


def test_gen_over_the_cap_names_the_cap_and_writes_nothing(tmp_path, capsys):
    # the set counts have 60 and over 4,300 digits; the second is more than
    # Python will turn into a string
    for n in (60, 200):
        args = ["--n", str(n), "--k", str(n // 2), "--r", str(n), "--out-prefix", str(tmp_path / "g")]
        assert main(["gen", "combination", *args]) == 2
        assert capsys.readouterr().err == "error: more than 100000 wiretap sets would be generated\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_a_cap_below_one_and_writes_nothing(data_files, tmp_path, capsys):
    for cap in ("0", "-5"):
        for args in (
            ["combination", "--n", "2", "--k", "1", "--r", "1", "--out-prefix", str(tmp_path / "g")],
            ["rwiretap", str(data_files / "fig1.net"), "--r", "1", "--out", str(tmp_path / "r.wsets")],
        ):
            assert main(["gen", *args, "--max-sets", cap]) == 2
            assert capsys.readouterr().err == f"error: max_sets must be at least 1, got {cap}\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_rwiretap_command(data_files, tmp_path, capsys):
    out = tmp_path / "r1.wsets"
    code = main(
        ["gen", "rwiretap", str(data_files / "fig1.net"), "--r", "1", "--out", str(out)]
    )
    block = result_block(capsys.readouterr().out)
    assert code == 0
    assert block["sets"] == "21"
    assert len(out.read_text().splitlines()) == 21


def test_gen_rwiretap_names_the_largest_size_it_wrote(tmp_path, capsys):
    # r above the edge count writes every set; no set has more than 2 edges
    net = tmp_path / "two.net"
    net.write_text("edge a s x\nedge b x t\nsource s\n")
    out = tmp_path / "r.wsets"
    code = main(["gen", "rwiretap", str(net), "--r", "5", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert f"wrote {out} (3 wiretap sets, sizes 1..2)" in stdout.splitlines()
    block = result_block(stdout)
    assert block["sets"] == "3"
    assert block["r"] == "5"
    assert out.read_text() == "a\nb\na b\n"


def test_gen_rwiretap_on_a_network_with_no_edges_names_no_sizes(tmp_path, capsys):
    net = tmp_path / "bare.net"
    net.write_text("node s\nsource s\n")
    out = tmp_path / "r.wsets"
    code = main(["gen", "rwiretap", str(net), "--r", "2", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.splitlines()[0] == f"wrote {out} (0 wiretap sets)"
    assert result_block(stdout) == {"wsets": str(out), "sets": "0", "r": "2"}
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "command, tables, diagrams",
    [
        (["bound"], 1, 1),
        (["bound", "--mode", "nmax"], 1, 1),
        (["bound", "--regularize"], 1, 1),
        (["bound", "--mode", "n"], 1, 0),
        (["classes"], 1, 0),
        (["hasse", "--dot"], 1, 1),
        (["verify"], 1, 1),
    ],
    ids=["bound", "bound-nmax", "bound-regularize", "bound-n", "classes", "hasse", "verify"],
)
def test_each_command_builds_one_class_table(
    data_files, tmp_path, capsys, monkeypatch, command, tables, diagrams
):
    # one `preprocess`, which groups the classes, per collection command, and
    # one domination pass for each command that needs the maximal classes
    import wtbound.wiretap

    calls = {"preprocess": 0, "class_hasse": 0}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wtbound"]
    for name in calls:
        real = getattr(wtbound.wiretap, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:  # `from .wiretap import preprocess` holds its own reference
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    fig1 = [str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]
    if command[-1] == "--dot":
        command = [*command, str(tmp_path / "fig1.dot")]
    assert main([command[0], *fig1, *command[1:]]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert calls == {"preprocess": tables, "class_hasse": diagrams}


def test_verify_clean_instance(g21, capsys):
    net_path, sets_path = g21
    code = main(["verify", str(net_path), str(sets_path)])
    out = capsys.readouterr().out
    block = result_block(out)
    assert code == 0
    assert block["checks"] == "9"
    assert block["mismatches"] == "0"
    assert "MISMATCH" not in out


def test_verify_reports_mismatches_with_exit_4(g21, capsys, monkeypatch):
    import wtbound.flow

    # a flow kernel that adds edge 0 to every cut
    real = wtbound.flow.max_flow

    def corrupt(net, target):
        flow = real(net, target)
        return flow._replace(cut=flow.cut | {0})

    monkeypatch.setattr(wtbound.flow, "max_flow", corrupt)
    net_path, sets_path = g21
    code = main(["verify", str(net_path), str(sets_path)])
    out = capsys.readouterr().out
    assert code == 4
    assert "MISMATCH" in out
    assert result_block(out)["mismatches"] != "0"


def test_files_with_a_byte_order_mark_read_as_without(data_files, tmp_path, capsys):
    plain = [data_files / "fig1.net", data_files / "fig1.wsets"]
    marked = []
    for path in plain:
        copy = tmp_path / path.name
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked.append(copy)
    assert main(["bound", *map(str, plain)]) == 0
    want = capsys.readouterr().out
    assert main(["bound", *map(str, marked)]) == 0
    assert capsys.readouterr().out == want
    # a decode error still names the file's own byte offset, the mark counted
    bad = tmp_path / "bad.wsets"
    bad.write_bytes(b"\xef\xbb\xbfa\xff\n")
    assert main(["bound", str(marked[0]), str(bad)]) == 2
    assert f"{bad}: byte 4: not valid UTF-8" in capsys.readouterr().err


def test_exit_1_on_usage_errors(capsys):
    assert main([]) == 1
    assert main(["bound"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["bound", "a.net", "b.wsets", "--mode", "fast"]) == 1


HELP = (("-h", "--help"), "help", False, "==SUPPRESS==", None, "show this help message and exit", "_HelpAction", None)
NETWORK = ((), "network", True, None, None, None, "_StoreAction", None)
COLLECTION = ((), "collection", True, None, None, None, "_StoreAction", None)
TARGET = (("--target",), "target", True, None, None, "comma-separated edge labels", "_StoreAction", None)
R = (("--r",), "r", True, None, None, None, "_StoreAction", "int")
MAX_SETS = (("--max-sets",), "max_sets", False, 100000, None, None, "_StoreAction", "int")

# Every parser `wtb` builds: its usage (whitespace collapsed, since argparse
# wraps it to the terminal), the command function it calls, and per argument,
# in declaration order, (option strings, dest, required, default, choices,
# help, action class, type). Subcommand lists give (name, help) in order.
PARSERS = {
    "wtb": (
        "usage: wtb [-h] {bound,classes,hasse,primary-cut,mincut,gen,verify} ...",
        None,
        [HELP, ((), "command", True, None, None, None, "_SubParsersAction", None)],
        [
            ("bound", "compute the class-count bounds N and N_max"),
            ("classes", "list the equivalence classes"),
            ("hasse", "export the class order as a DOT diagram"),
            ("primary-cut", "primary minimum cut of an edge set"),
            ("mincut", "minimum cut capacity to an edge set"),
            ("gen", "deterministic instance generators"),
            (
                "verify",
                "cross-check fast results against brute force "
                "(universe capped per target; override with WTB_MAX_ORACLE_EDGES)",
            ),
        ],
    ),
    "wtb bound": (
        "usage: wtb bound [-h] [--mode {nmax,n,both}] [--regularize] [--report REPORT] "
        "network collection",
        "_cmd_bound",
        [
            HELP, NETWORK, COLLECTION,
            (("--mode",), "mode", False, "both", ("nmax", "n", "both"), None, "_StoreAction", None),
            (
                ("--regularize",), "regularize", False, False, None,
                "replace every set by its primary minimum cut first", "_StoreTrueAction", None,
            ),
            (("--report",), "report", False, None, None, "also write the report to this file", "_StoreAction", None),
        ],
        None,
    ),
    "wtb classes": ("usage: wtb classes [-h] network collection", "_cmd_classes", [HELP, NETWORK, COLLECTION], None),
    "wtb hasse": (
        "usage: wtb hasse [-h] --dot DOT network collection",
        "_cmd_hasse",
        [
            HELP, NETWORK, COLLECTION,
            (("--dot",), "dot", True, None, None, "output path for DOT text", "_StoreAction", None),
        ],
        None,
    ),
    "wtb primary-cut": (
        "usage: wtb primary-cut [-h] --target TARGET network", "_cmd_primary_cut", [HELP, NETWORK, TARGET], None
    ),
    "wtb mincut": ("usage: wtb mincut [-h] --target TARGET network", "_cmd_mincut", [HELP, NETWORK, TARGET], None),
    "wtb gen": (
        "usage: wtb gen [-h] {combination,rwiretap} ...",
        None,
        [HELP, ((), "generator", True, None, None, None, "_SubParsersAction", None)],
        [("combination", "relay network with one sink per k-subset"), ("rwiretap", "all edge sets of size up to r")],
    ),
    "wtb gen combination": (
        "usage: wtb gen combination [-h] --n N --k K --r R --out-prefix OUT_PREFIX [--max-sets MAX_SETS]",
        "_cmd_gen_combination",
        [
            HELP,
            (("--n",), "n", True, None, None, None, "_StoreAction", "int"),
            (("--k",), "k", True, None, None, None, "_StoreAction", "int"),
            R,
            (("--out-prefix",), "out_prefix", True, None, None, None, "_StoreAction", None),
            MAX_SETS,
        ],
        None,
    ),
    "wtb gen rwiretap": (
        "usage: wtb gen rwiretap [-h] --r R --out OUT [--max-sets MAX_SETS] network",
        "_cmd_gen_rwiretap",
        [HELP, NETWORK, R, (("--out",), "out", True, None, None, None, "_StoreAction", None), MAX_SETS],
        None,
    ),
    "wtb verify": ("usage: wtb verify [-h] network collection", "_cmd_verify", [HELP, NETWORK, COLLECTION], None),
}


def declarations(parser, path="wtb"):
    """{path: (usage, command function, arguments, subcommands)} for `parser`
    and every parser under it, in the layout of PARSERS."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    func = parser.get_default("func")
    arguments = [
        (
            tuple(a.option_strings), a.dest, a.required, a.default,
            None if a in subs or a.choices is None else tuple(a.choices),
            a.help, type(a).__name__, a.type and a.type.__name__,
        )
        for a in parser._actions
    ]
    found = {
        path: (
            " ".join(parser.format_usage().split()),
            func and func.__name__,
            arguments,
            [(c.dest, c.help) for a in subs for c in a._choices_actions] or None,
        )
    }
    for a in subs:
        for name, child in a.choices.items():
            found.update(declarations(child, f"{path} {name}"))
    return found


def test_every_parser_declares_the_same_arguments():
    # pins the declarations rather than the --help bytes, whose headings
    # differ between Python versions
    assert declarations(build_parser()) == PARSERS


def test_exit_2_on_input_errors(data_files, tmp_path, capsys, monkeypatch):
    # missing file
    assert main(["bound", str(tmp_path / "nope.net"), str(tmp_path / "nope.wsets")]) == 2
    # malformed network text
    bad = tmp_path / "bad.net"
    bad.write_text("flow x\n")
    assert main(["mincut", str(bad), "--target", "x"]) == 2
    # files that are not valid UTF-8, named with the offset of the bad byte
    latin = tmp_path / "latin.net"
    latin.write_bytes(b"edge a s t\n# caf\xe9\nsource s\n")
    assert main(["mincut", str(latin), "--target", "a"]) == 2
    assert f"{latin}: byte 16: not valid UTF-8" in capsys.readouterr().err
    latin_sets = tmp_path / "latin.wsets"
    latin_sets.write_bytes(b"a\xff\n")
    assert main(["bound", str(data_files / "fig1.net"), str(latin_sets)]) == 2
    assert f"{latin_sets}: byte 1: not valid UTF-8" in capsys.readouterr().err
    # unknown edge label in a target
    assert main(["mincut", str(data_files / "fig1.net"), "--target", "zz"]) == 2
    # unreachable target edge
    split = tmp_path / "split.net"
    split.write_text("edge x a b\nedge y c d\nsource a\n")
    assert main(["primary-cut", str(split), "--target", "y"]) == 2
    # generator range and size errors
    assert main(["gen", "combination", "--n", "2", "--k", "3", "--r", "1", "--out-prefix", str(tmp_path / "g")]) == 2
    assert main(
        ["gen", "rwiretap", str(data_files / "fig1.net"), "--r", "2", "--out", str(tmp_path / "r.wsets"), "--max-sets", "5"]
    ) == 2
    # a brute-force edge limit that is not a positive integer
    monkeypatch.setenv(ENV_EDGE_LIMIT, "abc")
    assert main(["verify", str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]) == 2
    assert ENV_EDGE_LIMIT in capsys.readouterr().err
    # ... also when the collection is empty, so no set reaches the oracle
    empty = tmp_path / "empty.wsets"
    empty.write_text("")
    assert main(["verify", str(data_files / "fig1.net"), str(empty)]) == 2
    assert ENV_EDGE_LIMIT in capsys.readouterr().err


def test_exit_3_when_brute_force_is_too_large(data_files, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENV_EDGE_LIMIT, raising=False)
    sets_path = tmp_path / "big.wsets"
    sets_path.write_text("i5-t i9-t i10-t i11-t\n")
    code = main(["verify", str(data_files / "singlesink.net"), str(sets_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert ENV_EDGE_LIMIT in err
    # With a raised cap the same instance verifies cleanly.
    monkeypatch.setenv(ENV_EDGE_LIMIT, "21")
    assert main(["verify", str(data_files / "singlesink.net"), str(sets_path)]) == 0


def test_verify_output_is_unchanged_under_python_optimize(data_files):
    # `python -O` strips assert statements; no check may depend on them.
    env = env_with_package()
    files = [str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]
    argv = ["-m", "wtbound.cli", "verify", *files]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True, env=env)
        for flags in ([], ["-O"])
    )
    assert optimized.returncode == 0
    assert result_block(optimized.stdout)["mismatches"] == "0"
    assert optimized.stdout == plain.stdout


def test_package_holds_no_assert_statements():
    # invariants are explicit checks, so `python -O` leaves them in place
    package = Path(wtbound.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every `wtb` process pays for its imports; `dataclasses` alone pulls in
    # `inspect`, `ast`, `dis` and `tokenize`. Compare with a bare interpreter,
    # since `site` loads more on some installs.
    probe = "import sys; {}; print(*sys.modules, sep='\\n')"
    bare, cli = (
        set(
            subprocess.run(
                [sys.executable, "-c", probe.format(statement)],
                capture_output=True,
                text=True,
                env=env_with_package(),
                check=True,
            ).stdout.split()
        )
        for statement in ("pass", "import wtbound.cli")
    )
    added = cli - bare
    assert "wtbound.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect"}), sorted(added)


def test_only_verify_loads_the_oracle(data_files):
    # the brute force is compiled on first use, so `bound`, `classes` and
    # `hasse` processes never pay for it
    env = env_with_package()
    probe = "import sys, wtbound.cli; print('wtbound.oracle' in sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert loaded.stdout == "False\n"
    files = [str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]
    verify = subprocess.run(
        [sys.executable, "-m", "wtbound.cli", "verify", *files],
        capture_output=True,
        text=True,
        env=env,
    )
    assert verify.returncode == 0, verify.stderr
    assert result_block(verify.stdout)["mismatches"] == "0"


def test_every_public_name_resolves_before_the_oracle_is_loaded():
    # a fresh process, so the oracle's names resolve through the package's
    # module __getattr__ rather than from an already imported module
    probe = (
        "import sys, wtbound\n"
        "print('wtbound.oracle' in sys.modules)\n"
        "print(*sorted(set(wtbound.__all__) - set(vars(wtbound))))\n"
        "star = {}\n"
        "exec('from wtbound import *', star)\n"
        "print(*sorted(n for n in wtbound.__all__ if star.get(n) is not getattr(wtbound, n)))\n"
        "print(*sorted(set(wtbound.__all__) - set(dir(wtbound))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env_with_package(),
        check=True,
    ).stdout
    # the second line holds the lazily resolved names: the oracle's public
    # surface is its check and the check's record
    assert out == "False\nCheckResult cross_check\n\n\n"
    assert len(wtbound.__all__) == len(set(wtbound.__all__)) == 35
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wtbound.no_such_name


def test_collection_warnings_go_to_stderr(data_files, tmp_path, capsys):
    sets_path = tmp_path / "dup.wsets"
    sets_path.write_text("e6\ne6\n")
    code = main(["bound", str(data_files / "fig1.net"), str(sets_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "warning: line 2: duplicate set {e6} dropped\n"
    assert "duplicate" not in captured.out
    assert result_block(captured.out)["sets"] == "1"


def test_console_script_declaration():
    # Needs no install, so the `wtb` entry point stays checked where the
    # smoke test below is skipped.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["wtb"] == "wtbound.cli:run"
    module, _, attr = scripts["wtb"].partition(":")
    assert getattr(importlib.import_module(module), attr) is run


@pytest.mark.skipif(
    shutil.which("wtb") is None,
    reason="the wtb console script is not on PATH; install it with "
    "`pip install -e . --no-build-isolation`",
)
def test_installed_entry_point_smoke(data_files, tmp_path):
    # every golden command through the installed script, so through run(),
    # as every benchmark process runs; test_golden.py calls main()
    for name in INPUTS:
        (tmp_path / name).write_bytes((data_files / name).read_bytes())
    subprocess.run(["wtb", *GEN], cwd=tmp_path, check=True)
    for name, argv in COMMANDS.items():
        proc = subprocess.run(["wtb", *argv], cwd=tmp_path, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b""), name
        assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes(), name
        if "--dot" in argv:
            dot = argv[argv.index("--dot") + 1]
            assert (tmp_path / dot).read_bytes() == (GOLDEN / dot).read_bytes(), name


def test_process_exit_codes(data_files):
    fig1 = [str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]
    cases = [
        (0, ["bound", *fig1], {}),
        (1, ["bound"], {}),
        (2, ["bound", str(data_files / "fig1.net"), str(data_files / "missing.wsets")], {}),
        (3, ["verify", *fig1], {ENV_EDGE_LIMIT: "1"}),
    ]
    for code, argv, extra_env in cases:
        proc = wtb_process(argv, extra_env)
        assert proc.returncode == code, (argv, proc.stderr)
        assert bool(proc.stderr) == (code != 0)


def test_process_stdout_matches_main_past_the_pipe_buffer(tmp_path, capsys):
    # os._exit skips the interpreter's own flush, so a report larger than
    # the pipe buffer must still arrive whole
    prefix = str(tmp_path / "c653")
    assert main(["gen", "combination", "--n", "6", "--k", "5", "--r", "3", "--out-prefix", prefix]) == 0
    argv = ["classes", prefix + ".net", prefix + ".wsets"]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 65536
    proc = wtb_process(argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_process_writes_whole_report_and_dot_files(data_files, tmp_path):
    fig1 = [str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]
    report = tmp_path / "report.txt"
    proc = wtb_process(["bound", *fig1, "--report", str(report)])
    assert proc.returncode == 0
    assert report.read_bytes() == proc.stdout
    dot = tmp_path / "process.dot"
    in_process_dot = tmp_path / "main.dot"
    assert wtb_process(["hasse", *fig1, "--dot", str(dot)]).returncode == 0
    assert main(["hasse", *fig1, "--dot", str(in_process_dot)]) == 0
    assert dot.read_text() == in_process_dot.read_text()
    assert dot.read_text().endswith("}\n")


def test_process_warnings_reach_stderr(data_files, tmp_path):
    sets_path = tmp_path / "dup.wsets"
    sets_path.write_text("e6\ne6\n")
    proc = wtb_process(["bound", str(data_files / "fig1.net"), str(sets_path)])
    assert proc.returncode == 0
    assert proc.stderr == b"warning: line 2: duplicate set {e6} dropped\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="LC_ALL=C means ASCII on Linux")
def test_process_writes_utf8_files_under_an_ascii_locale(tmp_path, capsys):
    # an ASCII locale: no UTF-8 mode, no locale coercion, no forced stream encoding
    ascii_env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": ""}
    net = tmp_path / "accent.net"
    net.write_bytes("edge \u00e9 s a\nedge b a t\nsource s\nsink t\n".encode("utf-8"))
    out = tmp_path / "r.wsets"
    proc = wtb_process(["gen", "rwiretap", str(net), "--r", "2", "--out", str(out)], ascii_env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_bytes().decode("utf-8") == "\u00e9\nb\n\u00e9 b\n"
    assert main(["bound", str(net), str(out)]) == 0
    block = result_block(capsys.readouterr().out)
    assert (block["sets"], block["n_max"], block["cut.1"]) == ("3", "1", "\u00e9")
    dot = tmp_path / "accent.dot"
    proc = wtb_process(["hasse", str(net), str(out), "--dot", str(dot)], ascii_env)
    assert proc.returncode == 0 and dot.read_text(encoding="utf-8").endswith("}\n")
    # a report stdout cannot print is an input error, and writes no file
    report = tmp_path / "report.txt"
    proc = wtb_process(["bound", str(net), str(out), "--report", str(report)], ascii_env)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr
    assert proc.stdout == b"" and not report.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="LC_ALL=C means ASCII on Linux")
def test_process_writes_no_dot_file_when_its_result_cannot_be_printed(tmp_path):
    # the summary line names the source, which an ASCII stdout cannot hold
    ascii_env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": ""}
    net = tmp_path / "accent.net"
    net.write_bytes("edge a \u00e9 x\nedge b x t\nsource \u00e9\nsink t\n".encode("utf-8"))
    sets = tmp_path / "accent.wsets"
    sets.write_text("a\nb\n")
    dot = tmp_path / "accent.dot"
    proc = wtb_process(["hasse", str(net), str(sets), "--dot", str(dot)], ascii_env)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr
    assert proc.stdout == b"" and not dot.exists()


def test_process_writes_no_collection_when_its_path_cannot_be_printed(data_files, tmp_path):
    # `wrote <path>` is the result, so a path stdout cannot encode fails the run
    out = tmp_path / "\u00fc.wsets"
    argv = ["gen", "rwiretap", str(data_files / "fig1.net"), "--r", "1", "--out", str(out)]
    proc = wtb_process(argv, {"PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr
    assert proc.stdout == b"" and list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child with preexec_fn")
def test_process_with_stdout_closed_exits_cleanly(data_files):
    # with fd 1 closed at start, sys.stdout is None: print writes nothing,
    # and the final flush must skip the stream rather than fail on it
    proc = wtb_process(
        ["bound", str(data_files / "fig1.net"), str(data_files / "fig1.wsets")],
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_a_run_leaves_no_cyclic_garbage_that_grows_with_the_collection(data_files, tmp_path, capsys):
    # run() switches the collector off for the whole process; that is safe
    # only while the cyclic garbage a run leaves is the same on a 48-set and
    # a 21,560-set collection (argparse's parser graph)
    prefix = str(tmp_path / "c643")
    assert main(["gen", "combination", "--n", "6", "--k", "4", "--r", "3", "--out-prefix", prefix]) == 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        found, sizes = [], []
        fig1 = [str(data_files / "fig1.net"), str(data_files / "fig1.wsets")]
        for files in (fig1, [prefix + ".net", prefix + ".wsets"]):
            capsys.readouterr()
            assert main(["bound", *files]) == 0
            found.append(gc.collect())
            sizes.append(result_block(capsys.readouterr().out)["sets"])
    finally:
        if enabled:
            gc.enable()
    assert sizes == ["48", "21560"]
    assert found[0] == found[1]
