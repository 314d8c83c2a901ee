"""Reference code that shares nothing with the package under test.

Two uses. The layered workloads take their expected answers from
`reference_classes`. And `python3 reference.py` runs a fixed amount of the
same code as a speed reference: the benchmark times it next to every `wtb`
run and reports `wtb` time in multiples of it (see run.py), which takes out
much of the host's speed changes. It must not import `wtbound`, so that no
change to the package moves the reference.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations
from typing import Optional

REFERENCE_SHAPE = (5, 4, 2, 1)  # width, depth, fan-in, seed of the layered-hasse shape
REFERENCE_REPEATS = 5


def layered_edges(width: int, depth: int, fan_in: int, seed: int) -> list[tuple[str, str, str]]:
    """Edges (label, tail, head) of a layered DAG with `depth` layers.

    The source `s` has one edge into each layer-0 node; each later node
    draws `fan_in` distinct predecessors from the layer before it with
    `random.Random(seed)`. Edge labels run e1, e2, ... in generation order.
    """
    rng = random.Random(seed)
    ends = [("s", f"n0_{i}") for i in range(width)]
    for layer in range(1, depth):
        for i in range(width):
            for p in sorted(rng.sample(range(width), fan_in)):
                ends.append((f"n{layer - 1}_{p}", f"n{layer}_{i}"))
    return [(f"e{k}", t, h) for k, (t, h) in enumerate(ends, start=1)]


def _reach(ends: list[tuple[str, str]], source: str, removed: frozenset[int]) -> set[str]:
    seen = {source}
    changed = True
    while changed:
        changed = False
        for e, (t, h) in enumerate(ends):
            if e not in removed and t in seen and h not in seen:
                seen.add(h)
                changed = True
    return seen


def reference_primary_cut(
    ends: list[tuple[str, str]], source: str, target: frozenset[int]
) -> frozenset[int]:
    """Primary minimum cut of `target` by unit-capacity augmenting paths.

    Each target edge (u, v) becomes an arc u -> sink: a path past a target
    edge is already cut wherever its prefix to that edge is. The primary cut
    is the set of arcs leaving the residual-reachable nodes of the maximum
    flow.
    """
    sink = None
    arcs = [(t, sink if e in target else h) for e, (t, h) in enumerate(ends)]
    flow = [0] * len(arcs)
    while True:
        parent: dict[Optional[str], int] = {source: -1}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for a, (t, h) in enumerate(arcs):
                if t == u and not flow[a] and h not in parent:
                    parent[h] = a
                    queue.append(h)
                elif h == u and flow[a] and t not in parent:
                    parent[t] = a
                    queue.append(t)
        if sink not in parent:
            return frozenset(a for a, (t, h) in enumerate(arcs) if t in parent and h not in parent)
        v = sink
        while v != source:
            a = parent[v]
            t, h = arcs[a]
            flow[a] = 1 if h == v else 0
            v = t if h == v else h


def reference_classes(
    ends: list[tuple[str, str]], source: str, sets: list[frozenset[int]]
) -> tuple[list[int], frozenset[tuple[int, int]]]:
    """Classes (first member per class) and covering pairs, 1-based as `wtb` prints them.

    Sets are equivalent exactly when they share their primary cut; class j
    dominates class i when its capacity is larger and its primary cut severs
    i's sets (the primary cut severs everything any minimum cut of j does).
    """
    first: dict[frozenset[int], int] = {}
    for i, s in enumerate(sets):
        first.setdefault(reference_primary_cut(ends, source, s), i)
    cuts = list(first)
    survivors = [_reach(ends, source, cut) for cut in cuts]
    above = []
    for cut_i in cuts:
        rep = sets[first[cut_i]]
        row = 0
        for j, cut_j in enumerate(cuts):
            if len(cut_i) < len(cut_j) and all(
                e in cut_j or ends[e][0] not in survivors[j] for e in rep
            ):
                row |= 1 << j
        above.append(row)
    cover = set()
    for i, row in enumerate(above):
        implied = 0
        for j in range(len(cuts)):
            if row >> j & 1:
                implied |= above[j]
        direct = row & ~implied
        cover.update((i + 1, j + 1) for j in range(len(cuts)) if direct >> j & 1)
    return [first[c] for c in cuts], frozenset(cover)


def reference_work() -> None:
    """The speed reference: classes of every 1- and 2-edge set of a fixed shape."""
    ends = [(t, h) for _, t, h in layered_edges(*REFERENCE_SHAPE)]
    sets = [frozenset(c) for r in (1, 2) for c in combinations(range(len(ends)), r)]
    for _ in range(REFERENCE_REPEATS):
        reference_classes(ends, "s", sets)


if __name__ == "__main__":
    reference_work()
