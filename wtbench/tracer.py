"""Run one `wtb` command in this process with spans at the layer boundaries.

    PYTHONPATH=src python3 wtbench/tracer.py SPANS.json ARGS...

ARGS are what would follow `wtb`. Each function in TRACED is wrapped in
every `wtbound` module that holds a reference to it, so calls through
`from .cuts import mincut_capacity` are seen too. A call records a span
[name, start, end, parent index]; spans and counters stay in memory and are
written to SPANS.json once the command returns. A traced name the package no
longer defines is listed under "absent". Exits with the command's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

TRACED = (
    "cli.main",
    "fileio.parse_network",
    "fileio.parse_collection",
    "fileio.export_hasse_dot",
    "wiretap.preprocess",
    "wiretap.partition_classes",
    "wiretap.class_hasse",
    "wiretap.compute_bound",
    "wiretap.dominates",
    "cuts.mincut_capacity",
    "cuts.primary_min_cut",
    "graph.split_and_sink",
    "flow.max_flow",
    "oracle.enumerate_min_cuts",
    "oracle.cross_check",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def counted(self, name, fn):
        """Add the counters measured at this boundary around `fn`."""
        counts = self.counts
        if name == "flow.max_flow":

            def max_flow(*args, **kwargs):
                flow = fn(*args, **kwargs)
                counts["flow.augmenting_paths"] += flow.value
                return flow

            return max_flow
        if name == "wiretap.preprocess":

            def preprocess(net, raw_sets, *args, **kwargs):
                raw = list(raw_sets)
                counts["wiretap.preprocess.sets_in"] += len(raw)
                coll, warnings = fn(net, raw, *args, **kwargs)
                counts["wiretap.preprocess.sets_kept"] += len(coll.sets)
                return coll, warnings

            return preprocess
        return fn

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "wtbound"]
        for name in TRACED:
            module_name, attr = name.split(".")
            try:
                original = getattr(importlib.import_module(f"wtbound.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self.span(name, self.counted(name, original))
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    out_path, wtb_args = argv[0], argv[1:]
    import wtbound.cli  # noqa: F401  (loads every module the CLI uses)

    tracer = Tracer()
    tracer.install()
    try:
        code = wtbound.cli.main(wtb_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as out:
            trace = {"spans": tracer.spans, "counts": tracer.counts, "absent": tracer.absent}
            json.dump(trace, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
