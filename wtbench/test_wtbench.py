"""Tests of the benchmark itself: seeded inputs repeat, the gate catches errors.

    python3 -m pytest wtbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import run  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_build_is_byte_identical_per_seed(workload, tmp_path):
    builds = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        builds[name] = workloads.build(workload, seed, tmp_path / name)
    a, b, c = builds["a"], builds["b"], builds["c"]
    assert [f.read_bytes() for f in a.files] == [f.read_bytes() for f in b.files]
    assert a.sizes == b.sizes == c.sizes
    assert a.files[1].read_bytes() != c.files[1].read_bytes()


def _answer(inst):
    proc = subprocess.run(
        [sys.executable, "-m", "wtbound.cli", *inst.argv], env=ENV, capture_output=True, text=True
    )
    dot = inst.dot.read_text() if inst.dot else None
    return proc.returncode, proc.stdout, dot


def _perturbed(inst, **changes):
    if "expected" in changes:
        changes["expected"] = {**inst.expected, **changes["expected"]}
    return dataclasses.replace(inst, **changes)


@pytest.mark.parametrize("workload", ["comb-bound", "comb-classes", "layered-hasse"])
def test_gate_fails_a_run_when_an_expected_value_is_perturbed(workload, tmp_path):
    inst = workloads.build(workload, 5, tmp_path)
    answer = _answer(inst)
    assert workloads.check(inst, *answer) == []

    key = {"comb-bound": "n_max", "comb-classes": "classes", "layered-hasse": "covering"}[workload]
    wrong = str(int(inst.expected[key]) - 1)
    assert workloads.check(_perturbed(inst, expected={key: wrong}), *answer)
    if inst.cut_sets is not None:
        cut = next(iter(inst.cut_sets))
        cuts = inst.cut_sets - {cut} | {frozenset({"a1"})}
        assert workloads.check(_perturbed(inst, cut_sets=cuts), *answer)
    if inst.class_relays is not None:
        relays = {**inst.class_relays, 3: inst.class_relays[3] + 1}
        assert workloads.check(_perturbed(inst, class_relays=relays), *answer)
    if inst.cover_pairs is not None:
        pairs = sorted(inst.cover_pairs)
        assert workloads.check(_perturbed(inst, cover_pairs=frozenset(pairs[1:])), *answer)
    code, stdout, dot = answer
    assert workloads.check(inst, 4, stdout, dot)


def test_gate_fails_a_verify_run_with_mismatches(tmp_path):
    inst = workloads.build("verify-layered", 5, tmp_path)
    clean = "verify: 935 checks, 0 mismatches\n\n[result]\nchecks=935\nmismatches=0\n"
    assert workloads.check(inst, 0, clean, None) == []
    assert workloads.check(inst, 4, clean.replace("=0", "=2"), None)
    assert workloads.check(_perturbed(inst, expected={"mismatches": "1"}), 0, clean, None)


def test_layered_reference_matches_the_recorded_counts(tmp_path):
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        inst = workloads.build("layered-hasse", seed, tmp_path / str(seed))
        counts = {
            "classes": inst.sizes["classes"],
            "covering": len(inst.cover_pairs),
            "maximal": len(inst.expected["maximal"].split(",")),
        }
        assert counts == workloads.LAYERED_HASSE_COUNTS


def test_traced_counts_repeat_and_cover_every_layer_metric(tmp_path):
    from wtbound import fileio

    net_text, sets_text = fileio.gen_combination(4, 3, 2)
    (tmp_path / "c.net").write_text(net_text)
    (tmp_path / "c.wsets").write_text(sets_text)
    runs = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "classes", "c.net", "c.wsets"],
            cwd=tmp_path,
            env=ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        runs.append(run.layer_metrics(json.loads(spans.read_text()), 1.0, 0.5))
    assert set(runs[0]) == set(run.PER_LAYER)
    counted = [m for m in run.PER_LAYER if not m.endswith("_s")]
    assert {m: runs[0][m] for m in counted} == {m: runs[1][m] for m in counted}
    assert runs[0]["flow.max_flow.calls"] > 0
    assert runs[0]["wiretap.preprocess.sets_in"] == len(sets_text.splitlines())


def test_reference_run_imports_nothing_from_the_package():
    code = (
        "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
        "assert not [m for m in sys.modules if m.startswith('wtbound')]"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH_DIR / "reference.py")], check=True)


def test_benchmark_json_lists_the_metrics_and_workloads_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
