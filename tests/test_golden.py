"""`wtb` output pinned byte for byte.

Each command runs through `main` from one temporary working directory that
holds the bundled instances and `gen combination --n 4 --k 2 --r 2` (66
sets), so every path it prints is relative. Its stdout, and for `hasse` its
DOT file, must equal the files under tests/golden/.
"""

from pathlib import Path

import pytest

from wtbound.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SINGLESINK_TARGET = "i5-t,i9-t,i10-t,i11-t"


def _collection_commands(prefix: str) -> dict[str, list[str]]:
    files = [f"{prefix}.net", f"{prefix}.wsets"]
    return {
        f"{prefix}-bound": ["bound", *files],
        f"{prefix}-bound-mode-n": ["bound", *files, "--mode", "n"],
        f"{prefix}-bound-mode-nmax": ["bound", *files, "--mode", "nmax"],
        f"{prefix}-bound-regularize": ["bound", *files, "--regularize"],
        f"{prefix}-bound-regularize-mode-n": ["bound", *files, "--regularize", "--mode", "n"],
        f"{prefix}-bound-regularize-mode-nmax": ["bound", *files, "--regularize", "--mode", "nmax"],
        f"{prefix}-classes": ["classes", *files],
        f"{prefix}-hasse": ["hasse", *files, "--dot", f"{prefix}-hasse.dot"],
        f"{prefix}-verify": ["verify", *files],
    }


# golden name -> argv; the stdout lives in GOLDEN / f"{name}.out"
COMMANDS = {
    **_collection_commands("fig1"),
    "singlesink-primary-cut": ["primary-cut", "singlesink.net", "--target", SINGLESINK_TARGET],
    "singlesink-mincut": ["mincut", "singlesink.net", "--target", SINGLESINK_TARGET],
    **_collection_commands("comb"),
}


# the working directory's bundled files, and the command that writes comb.*
INPUTS = ("fig1.net", "fig1.wsets", "singlesink.net")
GEN = ["gen", "combination", "--n", "4", "--k", "2", "--r", "2", "--out-prefix", "comb"]


@pytest.fixture(scope="module")
def workdir(data_files, tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name in INPUTS:
        (directory / name).write_bytes((data_files / name).read_bytes())
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        assert main(GEN) == 0
    return directory


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_is_byte_identical_to_the_golden_file(name, workdir, monkeypatch, capsys):
    capsys.readouterr()
    monkeypatch.chdir(workdir)
    argv = COMMANDS[name]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    if "--dot" in argv:
        dot = argv[argv.index("--dot") + 1]
        assert (workdir / dot).read_bytes() == (GOLDEN / dot).read_bytes()
