"""Command line front end.

Subcommands: bound, classes, hasse, primary-cut, mincut, gen, verify. Every
command prints a human-readable report followed by a `[result]` block of
key=value lines for scripting. Exit codes: 0 success, 1 usage error, 2 bad
input (unparseable files, unknown labels, unreachable targets, generator
range errors, a label stdout's encoding cannot print), 3 instance too large
for brute-force verification, 4 verify found a fast-vs-oracle mismatch.
Every file read or written is UTF-8.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from . import fileio, flow, wiretap
from .errors import InstanceTooLarge, ParameterOutOfRange, ParseError, WtbError
from .fileio import LabelTable
from .graph import Network
from .wiretap import WiretapCollection


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not valid UTF-8") from None
    return text.removeprefix("\ufeff")  # a byte-order mark is not content


def _output_path(option: str, path: Optional[str]) -> Optional[str]:
    """`path` as given for `option`; an empty one is refused by name, where
    opening it would report a directory named '.'."""
    if path == "":
        raise ParameterOutOfRange(f"{option}: empty path")
    return path


def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")  # what _read_text reads, whatever the locale


def _load_network(path: str) -> tuple[Network, LabelTable]:
    return fileio.parse_network(_read_text(path))


def _load_collection(path: str, net: Network, labels: LabelTable) -> WiretapCollection:
    coll, warnings = fileio.parse_collection(_read_text(path), net, labels)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return coll


def _parse_target(spec: str, labels: LabelTable) -> frozenset[int]:
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    return labels.edge_set(parts)


def _network_summary(net: Network, labels: LabelTable) -> str:
    sinks = " ".join(labels.node_labels[t] for t in net.sinks) or "(none)"
    return (
        f"network: {net.num_nodes} nodes, {len(net.edges)} edges, "
        f"source {labels.node_labels[net.source]}, sinks {sinks}"
    )


def _finish(human: list[str], machine: list[tuple[str, object]], report_path: Optional[str] = None) -> None:
    text = "\n".join(human) + "\n\n[result]\n"
    text += "".join(f"{k}={v}\n" for k, v in machine)
    # Write the file first: a run that cannot write it prints no result. A
    # label stdout cannot encode fails the run before the file is written.
    if report_path is not None:
        encoding = getattr(sys.stdout, "encoding", None)  # None when fd 1 is closed
        if encoding:
            text.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
        _write_text(report_path, text)
    print(text, end="")


def _cmd_bound(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    coll = _load_collection(args.collection, net, labels)
    human = [_network_summary(net, labels)]
    machine: list[tuple[str, object]] = [
        ("nodes", net.num_nodes),
        ("edges", len(net.edges)),
    ]
    if args.regularize:
        before = len(coll.sets)
        # A primary cut is its own primary cut, so no flow runs here and
        # each distinct cut is a class of its own.
        cuts = tuple(dict.fromkeys(coll.cuts))
        coll = WiretapCollection(
            sets=cuts,
            cuts=cuts,
            classes=tuple(wiretap.EquivalenceClass((c,), flow.Cut(c, c)) for c in cuts),
        )
        human.append(
            f"regularized: {before} sets replaced by {len(coll.sets)} distinct minimum cuts"
        )
        machine.append(("regularized_from", before))
    human.append(f"collection: {len(coll.sets)} sets")
    machine += [("sets", len(coll.sets)), ("mode", args.mode)]

    result = wiretap.compute_bound(net, coll, mode=args.mode)
    if result.n_classes is not None:
        human.append(f"equivalence classes (N): {result.n_classes}")
        machine.append(("n", result.n_classes))
    if result.n_max is not None:
        human.append(f"maximal classes (N_max): {result.n_max}")
        machine.append(("n_max", result.n_max))
    label = "maximal classes" if result.n_max is not None else "classes"
    human.append(f"primary cuts of the {label}:")
    human += [f"  {labels.format_set(c.edges)}" for c in result.cuts]
    machine.append(("cuts", len(result.cuts)))
    machine += [
        (f"cut.{i + 1}", labels.format_edges(c.edges)) for i, c in enumerate(result.cuts)
    ]
    human.append(
        f"an alphabet with more than {len(result.cuts)} symbols suffices for this collection; "
        f"recommended size at least {result.recommended_alphabet} "
        f"(covers {len(net.sinks)} sinks)"
    )
    machine.append(("recommended_alphabet", result.recommended_alphabet))
    _finish(human, machine, _output_path("--report", args.report))
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    coll = _load_collection(args.collection, net, labels)
    classes = coll.classes
    human = [_network_summary(net, labels), f"collection: {len(coll.sets)} sets"]
    human.append(f"{len(classes)} equivalence classes")
    machine: list[tuple[str, object]] = [("sets", len(coll.sets)), ("classes", len(classes))]
    for i, cls in enumerate(classes, start=1):
        human.append(
            f"class {i}: capacity {cls.primary_cut.capacity}, primary cut "
            f"{labels.format_set(cls.primary_cut.edges)}, {len(cls.members)} sets"
        )
        members = list(map(labels.format_set, cls.members))
        human += [f"  {member}" for member in members]
        machine += [
            (f"class.{i}.capacity", cls.primary_cut.capacity),
            (f"class.{i}.cut", labels.format_edges(cls.primary_cut.edges)),
            (f"class.{i}.size", len(cls.members)),
            (f"class.{i}.members", ";".join(members)),
        ]
    _finish(human, machine)
    return 0


def _cmd_hasse(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    coll = _load_collection(args.collection, net, labels)
    classes = coll.classes
    diagram = wiretap.class_hasse(net, classes)
    dot = fileio.export_hasse_dot(diagram)
    _write_text(_output_path("--dot", args.dot), dot)
    human = [
        _network_summary(net, labels),
        f"{len(classes)} classes, {len(diagram.covering)} covering pairs, "
        f"{len(diagram.maximal)} maximal",
        "maximal classes: " + ", ".join(f"Cl{i + 1}" for i in diagram.maximal),
        f"wrote DOT to {args.dot}",
    ]
    machine: list[tuple[str, object]] = [
        ("classes", len(classes)),
        ("covering", len(diagram.covering)),
        ("maximal", ",".join(str(i + 1) for i in diagram.maximal)),
        ("dot", args.dot),
    ]
    machine += [
        (f"cover.{k + 1}", f"{lo + 1}<{hi + 1}")
        for k, (lo, hi) in enumerate(diagram.covering)
    ]
    _finish(human, machine)
    return 0


def _cmd_primary_cut(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    target = _parse_target(args.target, labels)
    cut = flow.primary_min_cut(net, target)
    human = [
        f"primary minimum cut of {labels.format_set(target)}: "
        f"{labels.format_set(cut.edges)} (capacity {cut.capacity})"
    ]
    machine = [
        ("target", labels.format_edges(target)),
        ("cut", labels.format_edges(cut.edges)),
        ("capacity", cut.capacity),
    ]
    _finish(human, machine)
    return 0


def _cmd_mincut(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    target = _parse_target(args.target, labels)
    cap = flow.max_flow(net, target).value
    human = [
        f"minimum cut capacity between source and {labels.format_set(target)}: {cap}"
    ]
    machine = [("target", labels.format_edges(target)), ("mincut", cap)]
    _finish(human, machine)
    return 0


def _cmd_gen_combination(args: argparse.Namespace) -> int:
    net_text, sets_text = fileio.gen_combination(
        args.n, args.k, args.r, max_sets=args.max_sets
    )
    net_path = Path(args.out_prefix + ".net")
    sets_path = Path(args.out_prefix + ".wsets")
    _write_text(net_path, net_text)
    _write_text(sets_path, sets_text)
    net, _ = fileio.parse_network(net_text)
    n_sets = sets_text.count("\n")
    human = [
        f"wrote {net_path} ({net.num_nodes} nodes, {len(net.edges)} edges, "
        f"{len(net.sinks)} sinks)",
        f"wrote {sets_path} ({n_sets} wiretap sets)",
    ]
    machine = [
        ("net", str(net_path)),
        ("wsets", str(sets_path)),
        ("nodes", net.num_nodes),
        ("edges", len(net.edges)),
        ("sinks", len(net.sinks)),
        ("sets", n_sets),
    ]
    _finish(human, machine)
    return 0


def _cmd_gen_rwiretap(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    text = fileio.gen_r_wiretap(net, labels, args.r, max_sets=args.max_sets)
    _write_text(_output_path("--out", args.out), text)
    n_sets = text.count("\n")
    sizes = f", sizes 1..{min(args.r, len(net.edges))}" if n_sets else ""
    human = [f"wrote {args.out} ({n_sets} wiretap sets{sizes})"]
    machine = [("wsets", args.out), ("sets", n_sets), ("r", args.r)]
    _finish(human, machine)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    coll = _load_collection(args.collection, net, labels)
    # through the package, which loads the oracle on first use and is where
    # the benchmark tracer puts its wrapper
    from . import cross_check

    checks = cross_check(net, coll)
    bad = [c for c in checks if not c.ok]
    human = []
    for c in checks:
        mark = "ok" if c.ok else "MISMATCH"
        line = f"{c.name}: {mark}"
        if not c.ok:
            line += f" ({c.detail})"
        human.append(line)
    human.append(f"verify: {len(checks)} checks, {len(bad)} mismatches")
    machine = [("checks", len(checks)), ("mismatches", len(bad))]
    _finish(human, machine)
    return 4 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wtb",
        description="Alphabet-size lower bounds for secure coding on wiretap networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the input shapes commands share, as argparse parents
    net = argparse.ArgumentParser(add_help=False)
    net.add_argument("network")
    net_sets = argparse.ArgumentParser(add_help=False, parents=[net])
    net_sets.add_argument("collection")
    net_target = argparse.ArgumentParser(add_help=False, parents=[net])
    net_target.add_argument("--target", required=True, help="comma-separated edge labels")

    p = sub.add_parser(
        "bound", parents=[net_sets], help="compute the class-count bounds N and N_max"
    )
    p.add_argument("--mode", choices=("nmax", "n", "both"), default="both")
    p.add_argument(
        "--regularize",
        action="store_true",
        help="replace every set by its primary minimum cut first",
    )
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("classes", parents=[net_sets], help="list the equivalence classes")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("hasse", parents=[net_sets], help="export the class order as a DOT diagram")
    p.add_argument("--dot", required=True, help="output path for DOT text")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser(
        "primary-cut", parents=[net_target], help="primary minimum cut of an edge set"
    )
    p.set_defaults(func=_cmd_primary_cut)

    p = sub.add_parser("mincut", parents=[net_target], help="minimum cut capacity to an edge set")
    p.set_defaults(func=_cmd_mincut)

    p = sub.add_parser("gen", help="deterministic instance generators")
    gen_sub = p.add_subparsers(dest="generator", required=True)

    g = gen_sub.add_parser("combination", help="relay network with one sink per k-subset")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--out-prefix", required=True)
    g.add_argument("--max-sets", type=int, default=fileio.DEFAULT_MAX_SETS)
    g.set_defaults(func=_cmd_gen_combination)

    g = gen_sub.add_parser("rwiretap", parents=[net], help="all edge sets of size up to r")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--max-sets", type=int, default=fileio.DEFAULT_MAX_SETS)
    g.set_defaults(func=_cmd_gen_rwiretap)

    p = sub.add_parser(
        "verify",
        parents=[net_sets],
        help="cross-check fast results against brute force "
        "(universe capped per target; override with WTB_MAX_ORACLE_EDGES)",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (WtbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:  # a label that stdout's encoding cannot hold
        print(f"error: standard output: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run `main` as a whole `wtb` process, and end the process once its answer is out.

    The `wtb` console script and `python -m wtbound.cli` both come here.
    The cyclic garbage collector is off for the run: a run makes no cycles
    that grow with its input, so the collector would only rescan the live
    sets. After the two standard streams are flushed, `os._exit` skips the
    interpreter's teardown; every file the package writes is closed by then,
    and it registers no `atexit` handler. If a flush fails, `sys.exit` ends
    the process as usual. Library callers and tests call `main`, which keeps
    the collector and a normal exit.
    """
    gc.disable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
