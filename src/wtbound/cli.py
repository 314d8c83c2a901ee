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
from .errors import InstanceTooLarge, ParameterOutOfRange, ParseError, UnreachableTarget, WtbError
from .fileio import LabelTable
from .graph import Network


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not valid UTF-8") from None


def _output_path(option: str, path: Optional[str]) -> Optional[str]:
    """`path` as given for `option`; an empty one is refused by name, where
    opening it would report a directory named '.'."""
    if path == "":
        raise ParameterOutOfRange(f"{option}: empty path")
    return path


def _load_network(path: str) -> tuple[Network, LabelTable]:
    return fileio.parse_network(_read_text(path))


def _load_collection(path: str, net: Network, labels: LabelTable) -> wiretap.WiretapCollection:
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


def _finish(
    human: list[str],
    machine: list[tuple[str, object]],
    files: Sequence[tuple[str, Optional[str], Optional[str]]] = (),
) -> None:
    """Print the result after writing `files`; no other code writes a file.

    Each file is `(option, path, text)`: a None path means the option was
    not given, a None text the result itself. Empty paths are refused, a
    result stdout cannot encode fails the run, and only then is each file
    written, as UTF-8 (what `_read_text` reads, whatever the locale). So a
    run writes files only if it can print, and prints once they are written.
    """
    text = "\n".join(human) + "\n\n[result]\n"
    text += "".join(f"{k}={v}\n" for k, v in machine)
    given = [(_output_path(opt, path), body) for opt, path, body in files if path is not None]
    if given:
        encoding = getattr(sys.stdout, "encoding", None)  # None when fd 1 is closed
        if encoding:
            text.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
    for path, body in given:
        Path(path).write_text(text if body is None else body, encoding="utf-8")
    print(text, end="")


def _cmd_bound(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    coll = _load_collection(args.collection, net, labels)
    human = [_network_summary(net, labels)]
    machine: list[tuple[str, object]] = [
        ("nodes", net.num_nodes),
        ("edges", len(net.edges)),
    ]
    n_sets, classes = len(coll.sets), coll.classes
    if args.regularize:
        # A primary cut is its own primary cut, so no flow runs here and
        # each distinct cut is a class of its own.
        classes = tuple(wiretap.EquivalenceClass((c.cut,), c.cut) for c in coll.classes)
        human.append(f"regularized: {n_sets} sets replaced by {len(classes)} distinct minimum cuts")
        machine.append(("regularized_from", n_sets))
        n_sets = len(classes)
    human.append(f"collection: {n_sets} sets")
    machine += [("sets", n_sets), ("mode", args.mode)]

    result = wiretap.compute_bound(net, classes, mode="n" if args.mode == "n" else "nmax")
    if args.mode != "nmax":
        human.append(f"equivalence classes (N): {len(classes)}")
        machine.append(("n", len(classes)))
    if args.mode != "n":
        human.append(f"maximal classes (N_max): {len(result.cuts)}")
        machine.append(("n_max", len(result.cuts)))
    label = "classes" if args.mode == "n" else "maximal classes"
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
    _finish(human, machine, [("--report", args.report, None)])
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
            f"class {i}: capacity {len(cls.cut)}, primary cut "
            f"{labels.format_set(cls.cut)}, {len(cls.members)} sets"
        )
        members = list(map(labels.format_set, cls.members))
        human += [f"  {member}" for member in members]
        machine += [
            (f"class.{i}.capacity", len(cls.cut)),
            (f"class.{i}.cut", labels.format_edges(cls.cut)),
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
    _finish(human, machine, [("--dot", args.dot, fileio.export_hasse_dot(classes, diagram))])
    return 0


def _cmd_primary_cut(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    target = _parse_target(args.target, labels)
    run = flow.max_flow(net, target)
    if run.value == 0:
        raise UnreachableTarget(
            f"no edge of {labels.format_set(target)} is reachable from the source"
        )
    human = [
        f"primary minimum cut of {labels.format_set(target)}: "
        f"{labels.format_set(run.cut)} (capacity {run.value})"
    ]
    machine = [
        ("target", labels.format_edges(target)),
        ("cut", labels.format_edges(run.cut)),
        ("capacity", run.value),
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
    prefix = _output_path("--out-prefix", args.out_prefix)
    net_path = Path(f"{prefix}.net")  # printed as Path spells it: ./x.net is x.net
    sets_path = Path(f"{prefix}.wsets")
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
    files = [("--out-prefix", str(net_path), net_text), ("--out-prefix", str(sets_path), sets_text)]
    _finish(human, machine, files)
    return 0


def _cmd_gen_rwiretap(args: argparse.Namespace) -> int:
    net, labels = _load_network(args.network)
    text = fileio.gen_r_wiretap(net, labels, args.r, max_sets=args.max_sets)
    n_sets = text.count("\n")
    sizes = f", sizes 1..{min(args.r, len(net.edges))}" if n_sets else ""
    human = [f"wrote {args.out} ({n_sets} wiretap sets{sizes})"]
    machine = [("wsets", args.out), ("sets", n_sets), ("r", args.r)]
    _finish(human, machine, [("--out", args.out, text)])
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
