"""Exception types raised across the package.

Every error raised by this package derives from WtbError so callers (and the
CLI) can catch one base class and map each condition to an exit code.
"""


class WtbError(Exception):
    """Base class for all errors raised by wtbound."""


# graph construction

class CyclicGraph(WtbError):
    """The edge list contains a directed cycle."""


class SourceHasIncomingEdges(WtbError):
    """The designated source node has at least one incoming edge."""


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
    """A generator parameter or a setting violates its documented range."""


class CollectionTooLarge(WtbError):
    """A generator would emit more wiretap sets than the configured cap."""
