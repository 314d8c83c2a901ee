"""Seeded instances for the wtb benchmark, and the gate that checks answers.

Each workload is one `wtb` subcommand on one generated instance. `build`
writes the instance for a seed into a directory; `check` compares one run's
exit code, stdout and DOT file with what that instance must produce.

The seed never changes how much work an instance holds, only its order: it
shuffles the collection lines (and, for the layered networks, the edge
lines, which renumbers the edges). The layered shapes are drawn once from
LAYERED_SHAPE_SEED, because drawing a new shape per seed moved the class
count of `layered-hasse` between 214 and 266 and its run time with it.

Expected answers come from outside the program under test: closed forms for
the combination family, and for the layered networks the reference flow in
reference.py plus counts confirmed once by `wtb verify` (brute force).
The package itself is used only to generate instances (`gen_combination`,
`gen_r_wiretap`), as the `wtb gen` commands do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Optional

from reference import layered_edges, reference_classes
from wtbound import fileio

LAYERED_SHAPE_SEED = 1

# Counts for the layered-hasse shape, invariant under the seed's shuffles.
# Confirmed by `WTB_MAX_ORACLE_EDGES=22 wtb verify` on that shape (largest
# relevant-edge universe 19 edges): 0 mismatches.
LAYERED_HASSE_COUNTS = {"classes": 248, "covering": 466, "maximal": 223}


@dataclass(frozen=True)
class Spec:
    command: str
    family: str  # "combination" or "layered"
    params: tuple[int, ...]  # (n, k, r) or (width, depth, fan_in, r)


WORKLOADS = {
    "comb-bound": Spec("bound", "combination", (6, 4, 3)),
    "comb-classes": Spec("classes", "combination", (6, 5, 3)),
    "layered-hasse": Spec("hasse", "layered", (5, 4, 2, 2)),
    "verify-layered": Spec("verify", "layered", (6, 3, 2, 2)),
}


@dataclass
class Instance:
    """One workload's files for one seed, and the answer its run must give.

    `argv` follows `wtb`; `sizes` records nodes, edges, sets and classes;
    `expected` maps `[result]` keys to their exact values; `cut_sets`,
    `class_relays` and `cover_pairs` hold the answers that need more than
    one key to check.
    """

    argv: tuple[str, ...]
    files: tuple[Path, ...]
    sizes: dict[str, int]
    expected: dict[str, str]
    dot: Optional[Path] = None
    cut_sets: Optional[frozenset[frozenset[str]]] = None
    class_relays: Optional[dict[int, int]] = None  # relay count -> members per class
    cover_pairs: Optional[frozenset[tuple[int, int]]] = None


def layered_network_text(edges: list[tuple[str, str, str]], width: int, depth: int) -> str:
    """Network file for `edges`; the last layer's nodes are the sinks."""
    lines = ["node s"] + [f"node n{l}_{i}" for l in range(depth) for i in range(width)]
    lines += [f"edge {lab} {t} {h}" for lab, t, h in edges]
    lines.append("source s")
    lines += [f"sink n{depth - 1}_{i}" for i in range(width)]
    return "\n".join(lines) + "\n"


def _shuffled_lines(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, directory: Path) -> Instance:
    """Write the instance of `workload` for `seed` into `directory`."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    net_path = directory / f"{workload}.net"
    sets_path = directory / f"{workload}.wsets"
    if spec.family == "combination":
        net_text, sets_text = fileio.gen_combination(*spec.params)
        sets_text = _shuffled_lines(sets_text, rng)
    else:
        width, depth, fan_in, r = spec.params
        edges = layered_edges(width, depth, fan_in, LAYERED_SHAPE_SEED)
        rng.shuffle(edges)
        net_text = layered_network_text(edges, width, depth)
        net, labels = fileio.parse_network(net_text)
        sets_text = _shuffled_lines(fileio.gen_r_wiretap(net, labels, r), rng)
    net_path.write_text(net_text)
    sets_path.write_text(sets_text)
    argv = (spec.command, str(net_path), str(sets_path))
    dot = directory / f"{workload}.dot" if spec.command == "hasse" else None
    inst = Instance(
        argv=argv + ("--dot", str(dot)) if dot else argv,
        files=(net_path, sets_path),
        sizes={"sets": len(sets_text.splitlines())},
        expected={"dot": str(dot)} if dot else {},
        dot=dot,
    )
    if spec.family == "combination":
        _expect_combination(inst, spec)
    else:
        _expect_layered(inst, spec, edges, sets_text)
    return inst


def _expect_combination(inst: Instance, spec: Spec) -> None:
    """Closed forms of the combination family (see the package README)."""
    n, k, r = spec.params
    per_relay = comb(n - 1, k - 1)
    n_classes = sum(comb(n, c) for c in range(1, r + 1))
    inst.sizes.update(nodes=1 + n + comb(n, k), edges=n + k * comb(n, k), classes=n_classes)
    inst.expected["sets"] = str(inst.sizes["sets"])
    if spec.command == "bound":
        inst.expected.update(
            nodes=str(inst.sizes["nodes"]),
            edges=str(inst.sizes["edges"]),
            mode="both",
            n=str(n_classes),
            n_max=str(comb(n, r)),
            cuts=str(comb(n, r)),
            recommended_alphabet=str(max(comb(n, r) + 1, comb(n, k))),
        )
        # the maximal classes' primary cuts: every r-subset of the source edges
        inst.cut_sets = frozenset(
            frozenset(f"a{i}" for i in relays) for relays in combinations(range(1, n + 1), r)
        )
    else:
        inst.expected["classes"] = str(n_classes)
        # one class per nonempty relay subset of size <= r; its primary cut
        # is that subset's source edges, its members the choices of one
        # relay-to-sink edge per relay
        inst.class_relays = {c: per_relay**c for c in range(1, r + 1)}


def _expect_layered(
    inst: Instance, spec: Spec, edges: list[tuple[str, str, str]], sets_text: str
) -> None:
    width, depth, _, _ = spec.params
    ids = {lab: e for e, (lab, _, _) in enumerate(edges)}
    sets = [frozenset(ids[lab] for lab in line.split()) for line in sets_text.splitlines()]
    ends = [(t, h) for _, t, h in edges]
    reps, cover = reference_classes(ends, "s", sets)
    inst.sizes.update(nodes=1 + width * depth, edges=len(edges), classes=len(reps))
    if spec.command == "verify":
        inst.expected["mismatches"] = "0"
        return
    dominated = {lo for lo, _ in cover}
    inst.expected.update(
        classes=str(len(reps)),
        covering=str(len(cover)),
        maximal=",".join(str(i) for i in range(1, len(reps) + 1) if i not in dominated),
    )
    inst.cover_pairs = cover
    counts = {"classes": len(reps), "covering": len(cover), "maximal": len(reps) - len(dominated)}
    if counts != LAYERED_HASSE_COUNTS:
        raise RuntimeError(
            f"layered-hasse reference gives {counts}, recorded {LAYERED_HASSE_COUNTS}"
        )


def result_block(stdout: str) -> dict[str, str]:
    """The `key=value` lines after `[result]`."""
    _, sep, block = stdout.partition("\n[result]\n")
    if not sep:
        return {}
    return dict(line.split("=", 1) for line in block.splitlines() if "=" in line)


def check(inst: Instance, returncode: int, stdout: str, dot_text: Optional[str]) -> list[str]:
    """Every way this run's answer differs from the expected one; empty if right."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    got = result_block(stdout)
    problems = [
        f"{key}={got.get(key)!r}, expected {want!r}"
        for key, want in inst.expected.items()
        if got.get(key) != want
    ]
    if inst.cut_sets is not None:
        cuts = [
            frozenset(got.get(f"cut.{i}", "").split(","))
            for i in range(1, len(inst.cut_sets) + 1)
        ]
        if set(cuts) != inst.cut_sets:
            problems.append("maximal cuts differ from every r-subset of the source edges")
    if inst.class_relays is not None:
        problems += _check_classes(inst, got)
    if inst.cover_pairs is not None:
        covers = {got.get(f"cover.{k}") for k in range(1, len(inst.cover_pairs) + 1)}
        want = {f"{lo}<{hi}" for lo, hi in inst.cover_pairs}
        if covers != want:
            problems.append("covering pairs differ from the reference")
        arrows = {line.strip() for line in (dot_text or "").splitlines() if "->" in line}
        if arrows != {f"n{lo} -> n{hi};" for lo, hi in inst.cover_pairs}:
            problems.append("DOT arrows differ from the reference covering pairs")
    return problems


def _check_classes(inst: Instance, got: dict[str, str]) -> list[str]:
    """Combination classes: one per relay subset, cut = its source edges."""
    problems = []
    cuts = set()
    members_total = 0
    for i in range(1, int(inst.expected["classes"]) + 1):
        cut = got.get(f"class.{i}.cut", "").split(",")
        relays = {lab[1:] for lab in cut}
        members = [m.strip("{}").split(",") for m in got.get(f"class.{i}.members", "").split(";")]
        size = inst.class_relays.get(len(cut))
        ok = (
            all(lab.startswith("a") for lab in cut)
            and got.get(f"class.{i}.capacity") == str(len(cut))
            and got.get(f"class.{i}.size") == str(size)
            and len(members) == size
            and all(
                len(m) == len(cut) and {lab[1:].split("_")[0] for lab in m} == relays
                for m in members
            )
        )
        if not ok:
            problems.append(f"class {i} is not one relay subset with its source-edge cut")
        cuts.add(",".join(cut))
        members_total += len(members)
    if len(cuts) != int(inst.expected["classes"]):
        problems.append("two classes share a primary cut")
    if members_total != inst.sizes["sets"]:
        problems.append(f"classes hold {members_total} sets, collection has {inst.sizes['sets']}")
    return problems
