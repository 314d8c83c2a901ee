"""Text formats for networks and wiretap collections, generators, DOT export.

Network files are line oriented: `node L`, `edge L TAIL HEAD`, `source L`,
`sink L`, with `#` starting a comment anywhere and blank lines ignored. When
a file declares any `node` line the node set is closed and unknown labels are
errors; otherwise nodes spring into being on first use in an edge line.
Collection files hold one wiretap set per line as whitespace-separated edge
labels. Both formats round-trip exactly through the serializers.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations, product, repeat
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CollectionTooLarge,
    CyclicGraph,
    EmptyTargetSet,
    ParameterOutOfRange,
    ParseError,
    SourceHasIncomingEdges,
    UnknownEdge,
    UnknownEdgeLabel,
)
from .graph import EdgeId, Network, build_network
from .wiretap import EquivalenceClass, HasseDiagram, WiretapCollection, _check_table, preprocess

DEFAULT_MAX_SETS = 100_000


class _LabelFields(NamedTuple):
    node_labels: tuple[str, ...]
    edge_labels: tuple[str, ...]


class LabelTable(_LabelFields):
    """Two-way mapping between file labels and internal integer ids.

    Like `graph.Network`, a field-only NamedTuple base plus a subclass
    whose instances have a `__dict__` for the cached id map.
    """

    @cached_property
    def _edge_ids(self) -> dict[str, EdgeId]:
        return {lab: i for i, lab in enumerate(self.edge_labels)}

    def edge_set(self, labels: Iterable[str]) -> frozenset[EdgeId]:
        try:
            return frozenset(map(self._edge_ids.__getitem__, labels))
        except KeyError as exc:
            raise UnknownEdgeLabel(f"unknown edge label {exc.args[0]!r}") from None

    def format_edges(self, edges: Iterable[EdgeId]) -> str:
        """Comma-joined labels in ascending id order."""
        return ",".join(map(self.edge_labels.__getitem__, sorted(edges)))

    def format_set(self, edges: Iterable[EdgeId]) -> str:
        return "{" + self.format_edges(edges) + "}"


# a comment: '#' up to, not including, any boundary str.splitlines splits at,
# so taking comments off keeps every line; a text with no '#' is not copied
_COMMENT = re.compile(r"#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")


def _token_lines(text: str) -> Iterator[list[str]]:
    """The tokens of each line before any '#'; a line with none gives [].
    One leading byte-order mark, as some editors write, is not content."""
    return map(str.split, _COMMENT.sub("", text.removeprefix("\ufeff")).splitlines())


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line with a token before any '#'."""
    return filter(itemgetter(1), enumerate(_token_lines(text), start=1))


def _check_label(label: str, lineno: int) -> None:
    if "," in label:
        raise ParseError(f"line {lineno}: label {label!r} may not contain ','")


# directive -> (argument count, the arguments as an arity error names them)
_DIRECTIVES = {
    "node": (1, "one label"),
    "edge": (3, "label, tail, head"),
    "source": (1, "one label"),
    "sink": (1, "one label"),
}


def _check_written(labels: Iterable[str]) -> None:
    """Raise ParseError on a label the parsers would not read back as itself:
    one that is not one token free of '#' and ',', or a repeated one."""
    seen: set[str] = set()
    for label in labels:
        if label.split() != [label] or "#" in label or "," in label:
            raise ParseError(f"label {label!r} is not one token free of '#' and ','")
        if label in seen:
            raise ParseError(f"label {label!r} is repeated")
        seen.add(label)


def parse_network(text: str) -> tuple[Network, LabelTable]:
    """Read a network file into a validated Network plus its label table.

    Raises ParseError on malformed lines, labels containing ',' (checked on
    the line that first names them: node, edge, source or sink), unknown or
    duplicate labels, and a missing or repeated source. Raises CyclicGraph
    and SourceHasIncomingEdges from the graph layer, with the line and
    labels of the edge they name.
    """
    node_labels: list[str] = []
    node_ids: dict[str, int] = {}
    edge_labels: list[str] = []
    edge_seen: set[str] = set()  # edge_labels as a set, for the duplicate check
    edge_specs: list[tuple[int, str, str]] = []  # lineno, tail label, head label
    source_label: str | None = None
    source_line = 0
    sink_lines: dict[str, int] = {}  # sink label -> line number
    explicit_nodes = False

    for lineno, (directive, *args) in _content_lines(text):
        if directive not in _DIRECTIVES:
            raise ParseError(f"line {lineno}: unknown directive {directive!r}")
        arity, takes = _DIRECTIVES[directive]
        if len(args) != arity:
            raise ParseError(f"line {lineno}: {directive} takes {takes}")
        if directive == "source" and source_label is not None:
            raise ParseError(f"line {lineno}: source already set on line {source_line}")
        for arg in args:
            _check_label(arg, lineno)
        lab = args[0]
        if directive == "node":
            if lab in node_ids:
                raise ParseError(f"line {lineno}: duplicate node {lab!r}")
            explicit_nodes = True
            node_ids[lab] = len(node_labels)
            node_labels.append(lab)
        elif directive == "edge":
            if lab in edge_seen:
                raise ParseError(f"line {lineno}: duplicate edge {lab!r}")
            edge_seen.add(lab)
            edge_labels.append(lab)
            edge_specs.append((lineno, args[1], args[2]))
        elif directive == "source":
            source_label, source_line = lab, lineno
        else:
            if lab in sink_lines:
                raise ParseError(f"line {lineno}: duplicate sink {lab!r}")
            sink_lines[lab] = lineno

    def resolve(label: str, lineno: int, create: bool) -> int:
        if label in node_ids:
            return node_ids[label]
        if explicit_nodes or not create:
            raise ParseError(f"line {lineno}: unknown node {label!r}")
        node_ids[label] = len(node_labels)
        node_labels.append(label)
        return node_ids[label]

    edges = []
    for lineno, tail_lab, head_lab in edge_specs:
        t = resolve(tail_lab, lineno, create=True)
        h = resolve(head_lab, lineno, create=True)
        edges.append((t, h))
    if source_label is None:
        raise ParseError("no source line")
    source = resolve(source_label, source_line, create=False)
    sinks = tuple(resolve(lab, lineno, create=False) for lab, lineno in sink_lines.items())

    try:
        net = build_network(edges, source, sinks, num_nodes=len(node_labels))
    except (CyclicGraph, SourceHasIncomingEdges) as exc:
        lineno, tail_lab, head_lab = edge_specs[exc.edge]
        where = f"line {lineno}: edge {edge_labels[exc.edge]!r} ({tail_lab} -> {head_lab})"
        raise type(exc)(where, exc.edge) from None
    return net, LabelTable(node_labels=tuple(node_labels), edge_labels=tuple(edge_labels))


def serialize_network(net: Network, labels: LabelTable) -> str:
    """Write a network back out; parse_network(result) reproduces it exactly.

    Raises ParameterOutOfRange when the table does not hold one label per
    node and per edge, and ParseError on a node or edge label that would
    not read back.
    """
    counts = (len(labels.node_labels), len(labels.edge_labels))
    if counts != (net.num_nodes, len(net.edges)):
        raise ParameterOutOfRange(
            f"{counts[0]} node and {counts[1]} edge labels "
            f"for {net.num_nodes} nodes and {len(net.edges)} edges"
        )
    _check_written(labels.node_labels)
    _check_written(labels.edge_labels)
    lines = [f"node {lab}" for lab in labels.node_labels]
    for e, (t, h) in enumerate(net.edges):
        lines.append(
            f"edge {labels.edge_labels[e]} {labels.node_labels[t]} {labels.node_labels[h]}"
        )
    lines.append(f"source {labels.node_labels[net.source]}")
    lines.extend(f"sink {labels.node_labels[t]}" for t in net.sinks)
    return "\n".join(lines) + "\n"


def parse_collection(
    text: str, net: Network, labels: LabelTable
) -> tuple[WiretapCollection, tuple[str, ...]]:
    """Read a collection file and preprocess it against `net`.

    Returns the deduplicated collection plus one warning per dropped line,
    naming the line. Raises UnknownEdgeLabel with a line number when a label
    is not in the table.

    One pass: `preprocess` reads, and freezes, the sets into one list from
    a chain of C-level iterators over `_token_lines`, the line reader
    network files share, which skips lines with no label and maps each
    label to its id, so the resolved sets are held but no token list is.
    Line numbers are recovered only when needed, by walking the same lines
    once more through `_content_lines`: for the first unknown label, and,
    when a set was dropped, to map drop positions (the k-th content line)
    back to line numbers.
    """
    # no name holds the list of lines, so it is freed once the last is read
    ids = labels._edge_ids
    sets = map(map, repeat(ids.__getitem__), filter(None, _token_lines(text)))
    try:
        coll, drops = preprocess(net, sets)
    except KeyError:
        for lineno, tokens in _content_lines(text):
            try:
                labels.edge_set(tokens)
            except UnknownEdgeLabel as exc:
                raise UnknownEdgeLabel(f"line {lineno}: {exc}") from None
        raise
    if not drops:
        return coll, ()
    positions = {pos for pos, _, _ in drops}
    linenos = [n for pos, (n, _) in enumerate(_content_lines(text)) if pos in positions]
    return coll, tuple(
        f"line {n}: {kind} set {labels.format_set(s)} dropped"
        for n, (_, kind, s) in zip(linenos, drops)
    )


def serialize_collection(
    sets: Iterable[Iterable[EdgeId]], labels: LabelTable
) -> str:
    """One line per set, labels in ascending edge-id order. Raises ParseError
    on an edge label that would not read back, UnknownEdge on an id outside
    the table or not an int (`True` is one), and EmptyTargetSet on an empty
    set, whose blank line the parser skips."""
    _check_written(labels.edge_labels)
    last = len(labels.edge_labels) - 1
    lines = []
    for s in sets:
        ids = list(s)
        if not ids:
            raise EmptyTargetSet("an empty wiretap set has no line that reads back")
        try:
            ids.sort()
            for e in ids[:1] + ids[-1:]:  # an id out of range is the least or the greatest
                if not 0 <= e <= last:
                    raise UnknownEdge(f"edge id {e!r} not in 0..{last}")  # Network.edge_set's words
            lines.append(" ".join(map(labels.edge_labels.__getitem__, ids)))
        except TypeError:  # an id that does not compare with ints or index the table
            bad = next(e for e in ids if not isinstance(e, int))
            raise UnknownEdge(f"edge id {bad!r} not in 0..{last}") from None
    return "\n".join(lines) + ("\n" if lines else "")


def _capped_comb(n: int, k: int, cap: int) -> int:
    """C(n, k) when it is at most `cap`, otherwise some number above `cap`.

    Multiplies up C(n - k + i, i) for i = 1..min(k, n - k). Each step is an
    exact integer no smaller than the last, so it stops at the first one
    above `cap`.
    """
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > cap:
            break
    return c


def _check_ints(**sizes: object) -> None:
    """Refuse, by name, a size argument that is not an int (`True` is one)."""
    for name, value in sizes.items():
        if not isinstance(value, int):
            raise ParameterOutOfRange(f"{name} must be an int, got {value!r}")


def _count_sets(counts: Iterable[int], max_sets: int) -> int:
    """The sum of `counts`, added in order. Raises CollectionTooLarge at the
    first partial sum above `max_sets`, so later counts are never formed."""
    total = 0
    for count in counts:
        total += count
        if total > max_sets:
            raise CollectionTooLarge(f"more than {max_sets} wiretap sets would be generated")
    return total


def gen_combination(
    n: int, k: int, r: int, max_sets: int = DEFAULT_MAX_SETS
) -> tuple[str, str]:
    """Benchmark family: n relay nodes, one sink per k-subset of them.

    The source feeds every relay; each sink draws one edge from each relay of
    its subset. Wiretap sets take up to r relay-to-sink edges, no two from
    the same relay. Returns (network text, collection text), byte-identical
    across runs. Raises ParameterOutOfRange, before any count is formed,
    unless all four are ints, 1 <= k <= n, 1 <= r <= n and max_sets >= 1,
    and CollectionTooLarge when the set count would top `max_sets`.
    """
    _check_ints(n=n, k=k, r=r, max_sets=max_sets)
    if n < 1:
        raise ParameterOutOfRange(f"n must be at least 1, got {n}")
    if not 1 <= k <= n:
        raise ParameterOutOfRange(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if not 1 <= r <= n:
        raise ParameterOutOfRange(f"r must satisfy 1 <= r <= n, got r={r}, n={n}")
    if max_sets < 1:
        raise ParameterOutOfRange(f"max_sets must be at least 1, got {max_sets}")
    per_node = _capped_comb(n - 1, k - 1, max_sets)  # lower edges per relay
    # a per_node above the cap makes the first count, n * per_node, top it too
    total = _count_sets((comb(n, c) * per_node**c for c in range(1, r + 1)), max_sets)

    subsets = list(combinations(range(1, n + 1), k))
    net_lines = ["node s"]
    net_lines += [f"node v{i}" for i in range(1, n + 1)]
    net_lines += [f"node t{j}" for j in range(1, len(subsets) + 1)]
    net_lines += [f"edge a{i} s v{i}" for i in range(1, n + 1)]
    lower: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for j, subset in enumerate(subsets, start=1):
        for i in subset:
            net_lines.append(f"edge b{i}_{j} v{i} t{j}")
            lower[i].append(f"b{i}_{j}")
    net_lines.append("source s")
    net_lines += [f"sink t{j}" for j in range(1, len(subsets) + 1)]

    set_lines = []
    for c in range(1, r + 1):
        for nodes in combinations(range(1, n + 1), c):
            for pick in product(*(lower[i] for i in nodes)):
                set_lines.append(" ".join(pick))
    if len(set_lines) != total:
        raise AssertionError(f"generated {len(set_lines)} sets, the count formula gives {total}")
    return "\n".join(net_lines) + "\n", "\n".join(set_lines) + "\n"


def gen_r_wiretap(
    net: Network, labels: LabelTable, r: int, max_sets: int = DEFAULT_MAX_SETS
) -> str:
    """Collection of every edge set of size 1..r, in size-then-id order.

    Raises ParameterOutOfRange unless r and max_sets are ints of at least 1,
    CollectionTooLarge when the count would top `max_sets`, and UnknownEdge
    when `labels` holds fewer edge labels than `net` has edges.
    """
    _check_ints(r=r, max_sets=max_sets)
    if r < 1:
        raise ParameterOutOfRange(f"r must be at least 1, got {r}")
    if max_sets < 1:
        raise ParameterOutOfRange(f"max_sets must be at least 1, got {max_sets}")
    n_edges = len(net.edges)
    r_eff = min(r, n_edges)
    _count_sets((comb(n_edges, c) for c in range(1, r_eff + 1)), max_sets)
    return serialize_collection(
        (ids for c in range(1, r_eff + 1) for ids in combinations(range(n_edges), c)),
        labels,
    )


def export_hasse_dot(classes: Sequence[EquivalenceClass], diagram: HasseDiagram) -> str:
    """Render the order `class_hasse(net, classes)` found as deterministic DOT text.

    One node per class, labeled Cl<i> with its member count, read from
    `classes`; an arrow from each dominated class up to its covering
    dominator; maximal classes drawn with a double border. Raises
    ParameterOutOfRange when `classes` and the diagram's rows differ in length,
    and TypeError on a `WiretapCollection` in place of its class table or a
    `diagram` that is not a HasseDiagram.
    """
    _check_table(classes)
    if not isinstance(diagram, HasseDiagram):
        raise TypeError(f"expected a HasseDiagram from class_hasse, got {type(diagram).__name__}")
    if len(classes) != len(diagram.above):
        raise ParameterOutOfRange(
            f"{len(classes)} classes for a diagram of {len(diagram.above)} rows"
        )
    lines = ["digraph classes {", "  rankdir=BT;"]
    maximal = set(diagram.maximal)
    for i, cls in enumerate(classes):
        count = len(cls.members)
        label = f"Cl{i + 1} ({count} set{'s' if count != 1 else ''})"
        extra = ", peripheries=2" if i in maximal else ""
        lines.append(f'  n{i + 1} [label="{label}"{extra}];')
    for lo, hi in diagram.covering:
        lines.append(f"  n{lo + 1} -> n{hi + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"
