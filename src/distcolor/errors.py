"""Exception hierarchy shared across the package.

The command line exits 2 on InternalConsistencyError, a library bug, and 1
on any other, bad input. A bad directive to ``tree.bfs_tree`` or
``greedy.greedy_extend`` comes from a construction, so it is the former.
"""


class DistcolorError(Exception):
    """Base class for every error raised by this package."""


class DimacsError(DistcolorError):
    """A DIMACS graph or coloring file could not be parsed."""


class PreconditionError(DistcolorError):
    """Input violates a documented precondition (caller error)."""


class PropernessError(PreconditionError):
    """A coloring puts the same color on both ends of an edge, or a
    total/proper coloring was required and not supplied."""


class PaletteExhaustedError(DistcolorError):
    """Greedy coloring ran out of some vertex's list, as lists of Δ+1 colors
    may; running out of a construction's palette 1..k is a bug instead."""


class SearchBoundError(PreconditionError):
    """Graph exceeds the configured size bound of an exhaustive search."""


class InternalConsistencyError(DistcolorError):
    """A step the underlying theory guarantees has failed; indicates a bug upstream."""
