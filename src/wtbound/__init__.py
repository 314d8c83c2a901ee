"""Alphabet-size lower bounds for secure network coding on wiretap networks.

Given an acyclic unit-capacity network and a collection of wiretap edge
sets, this package groups the sets into equivalence classes (sets sharing a
minimum cut), orders the classes by domination, and computes two lower
bounds on the alphabet any secure code needs: the class count N and the
usually much smaller count N_max of maximal classes. A brute-force oracle
re-derives everything from the definitions for cross-validation, and the
`wtb` command line exposes the whole pipeline on plain text files.

Every public name is read from the package, and each loads the module that
defines it on first use: `import wtbound` alone loads no submodule, and a
process that never cross-checks never loads the oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    **dict.fromkeys(
        (
            "CollectionTooLarge",
            "CyclicGraph",
            "DanglingEndpoint",
            "EmptyTargetSet",
            "InstanceTooLarge",
            "NoPrimaryFound",
            "ParameterOutOfRange",
            "ParseError",
            "SourceHasIncomingEdges",
            "UnknownEdge",
            "UnknownEdgeLabel",
            "UnreachableTarget",
            "WtbError",
        ),
        "errors",
    ),
    **dict.fromkeys(("Network", "build_network", "topological_order"), "graph"),
    **dict.fromkeys(("max_flow",), "flow"),
    **dict.fromkeys(
        (
            "BoundReport",
            "Cut",
            "EquivalenceClass",
            "HasseDiagram",
            "WiretapCollection",
            "class_hasse",
            "compute_bound",
            "preprocess",
        ),
        "wiretap",
    ),
    **dict.fromkeys(
        (
            "LabelTable",
            "export_hasse_dot",
            "gen_combination",
            "gen_r_wiretap",
            "parse_collection",
            "parse_network",
            "serialize_collection",
            "serialize_network",
        ),
        "fileio",
    ),
    **dict.fromkeys(("CheckResult", "cross_check"), "oracle"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
