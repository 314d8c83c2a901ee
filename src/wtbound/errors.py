"""Exception types raised across the package.

Every error raised by this package derives from WtbError so callers (and the
CLI) can catch one base class and map each condition to an exit code.
"""


class WtbError(Exception):
    """Base class for all errors raised by wtbound."""


# graph construction

class _EdgeFault(WtbError):
    """A graph error shown by one edge, whose id is `edge`.

    The message is `where` (how the caller names the edge) followed by the
    class's `problem`.
    """

    problem = ""

    def __init__(self, where: str, edge: int) -> None:
        super().__init__(f"{where} {self.problem}")
        self.edge = edge


class CyclicGraph(_EdgeFault):
    """The edge list contains a directed cycle; `edge` lies on one."""

    problem = "lies on a directed cycle"


class SourceHasIncomingEdges(_EdgeFault):
    """The designated source node has an incoming edge; `edge` is the first."""

    problem = "enters the source"


class DanglingEndpoint(WtbError):
    """An edge references a node id outside the declared node range."""


class UnknownEdge(WtbError):
    """An edge id is outside the network's edge range."""


# flow and cut computations

class EmptyTargetSet(WtbError):
    """A target edge set must be nonempty."""


class UnreachableTarget(WtbError):
    """No edge of the target set is reachable from the source."""


# oracle

class InstanceTooLarge(WtbError):
    """Brute-force enumeration would exceed the configured edge limit."""


class NoPrimaryFound(WtbError):
    """No unique minimum cut separating every other minimum cut exists."""


# file parsing and generators

class ParseError(WtbError):
    """A network or collection file is malformed."""


class UnknownEdgeLabel(WtbError):
    """A collection or CLI target references an edge label not in the network."""


class ParameterOutOfRange(WtbError):
    """A generator parameter, a setting or a library argument is out of range."""


class CollectionTooLarge(WtbError):
    """A generator would emit more wiretap sets than the configured cap."""
