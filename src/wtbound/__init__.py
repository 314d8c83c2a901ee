"""Alphabet-size lower bounds for secure network coding on wiretap networks.

Given an acyclic unit-capacity network and a collection of wiretap edge
sets, this package groups the sets into equivalence classes (sets sharing a
minimum cut), orders the classes by domination, and computes two lower
bounds on the alphabet any secure code needs: the class count N and the
usually much smaller count N_max of maximal classes. A brute-force oracle
re-derives everything from the definitions for cross-validation, and the
`wtb` command line exposes the whole pipeline on plain text files.
"""

from importlib import import_module

from .errors import (
    CollectionTooLarge,
    CyclicGraph,
    DanglingEndpoint,
    EmptyTargetSet,
    InstanceTooLarge,
    NoPrimaryFound,
    ParameterOutOfRange,
    ParseError,
    SourceHasIncomingEdges,
    UnknownEdge,
    UnknownEdgeLabel,
    UnreachableTarget,
    WtbError,
)
from .graph import (
    Network,
    build_network,
    topological_order,
)
from .flow import (
    max_flow,
)
from .wiretap import (
    BoundReport,
    Cut,
    EquivalenceClass,
    HasseDiagram,
    WiretapCollection,
    class_hasse,
    compute_bound,
    preprocess,
)
from .fileio import (
    LabelTable,
    export_hasse_dot,
    gen_combination,
    gen_r_wiretap,
    parse_collection,
    parse_network,
    serialize_collection,
    serialize_network,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CheckResult",
    "CollectionTooLarge",
    "Cut",
    "CyclicGraph",
    "DanglingEndpoint",
    "EmptyTargetSet",
    "EquivalenceClass",
    "HasseDiagram",
    "InstanceTooLarge",
    "LabelTable",
    "Network",
    "NoPrimaryFound",
    "ParameterOutOfRange",
    "ParseError",
    "SourceHasIncomingEdges",
    "UnknownEdge",
    "UnknownEdgeLabel",
    "UnreachableTarget",
    "WiretapCollection",
    "WtbError",
    "build_network",
    "class_hasse",
    "compute_bound",
    "cross_check",
    "export_hasse_dot",
    "gen_combination",
    "gen_r_wiretap",
    "max_flow",
    "parse_collection",
    "parse_network",
    "preprocess",
    "serialize_collection",
    "serialize_network",
    "topological_order",
]

# The oracle is loaded on first use of one of its names, so processes that
# never cross-check do not pay for compiling it.
_ORACLE_NAMES = frozenset({"CheckResult", "cross_check"})


def __getattr__(name: str):
    # import_module, since `from . import oracle` here would recurse
    if name in _ORACLE_NAMES:
        return getattr(import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)
