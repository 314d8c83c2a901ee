"""The code the README shows under "Library", run as written."""

import re
from pathlib import Path

from wtbound import EquivalenceClass, compute_bound
from wtbound.cli import main

from helpers import result_block

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The ```python blocks of the README's "## Library" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_the_library_example_runs_as_documented(capsys):
    example = library_blocks()[0]
    scope: dict = {}
    exec(compile(example, str(README), "exec"), scope)
    assert "digraph" in capsys.readouterr().out
    assert scope["dropped"] == ((4, "duplicate", frozenset({0})),)
    report = scope["report"]
    assert (scope["n"], scope["n_max"]) == (4, 1) == (len(scope["coll"].classes), len(report.cuts))
    assert (scope["capacity"], scope["cut"]) == (1, frozenset({2}))


def test_the_regularize_expression_gives_what_the_command_prints(fig1, data_files, capsys):
    expression = library_blocks()[1]
    scope = {"coll": fig1.coll, "EquivalenceClass": EquivalenceClass}
    exec(compile(expression, str(README), "exec"), scope)
    regular = scope["regular"]
    assert isinstance(regular, tuple) and all(isinstance(c, EquivalenceClass) for c in regular)

    argv = ["bound", str(data_files / "fig1.net"), str(data_files / "fig1.wsets"), "--regularize"]
    assert main(argv) == 0
    block = result_block(capsys.readouterr().out)
    report = compute_bound(fig1.net, regular)
    assert (block["sets"], block["n"], block["n_max"]) == (
        str(len(regular)),
        str(len(regular)),
        str(len(report.cuts)),
    )
    printed = {key: value for key, value in block.items() if key.startswith("cut.")}
    assert printed == {
        f"cut.{i}": fig1.labels.format_edges(c.edges) for i, c in enumerate(report.cuts, start=1)
    }
