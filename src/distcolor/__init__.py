"""Proper distinguishing colorings for connected graphs of girth at least five.

A proper coloring is distinguishing when the identity is the only color
preserving automorphism.  ``solve`` builds one with at most one color more
than the maximum degree (the six-cycle alone gets two more, four colors),
``color_delta_plus_2`` and ``list_color_delta_plus_2`` trade one extra color
for a much simpler construction, and every returned coloring is certified
before it reaches the caller, in one way: fixedness propagation from the
shortest BFS-order prefix that certifies every vertex, a prefix that color
refinement seeded by the coloring must pin down.

``connected_girth5_graphs`` lists the connected girth-5 graphs up to
isomorphism that the acceptance suite checks ``exact_chi_D`` on, so that a
user can run the same exhaustive check of the theorem on more vertices.

``BfsTree`` is exported because every ``SolveResult`` carries one, the tree
its coloring was built and certified on. The steps that build and certify
a coloring (``bfs_tree``, ``greedy_extend``, ``fixed_propagation``) and
``diameter`` are not: no command and no example needs them, and they stay
importable from their modules.
"""

from .coloring import Coloring, ListAssignment, parse_coloring, render_coloring
from .corpus import connected_girth5_graphs
from .errors import (
    DimacsError,
    DistcolorError,
    InternalConsistencyError,
    PaletteExhaustedError,
    PreconditionError,
    PropernessError,
    SearchBoundError,
)
from .generators import generate
from .graph import Graph, girth, is_connected, parse_graph, render_graph
from .greedy import color_delta_plus_2, list_color_delta_plus_2
from .solver import SolveResult, is_c6, render_result, solve
from .symmetry import (
    Permutation,
    SymmetryVerdict,
    automorphisms,
    exact_chi_D,
    find_isomorphism,
    is_distinguishing,
)
from .tree import BfsTree

__all__ = [
    "BfsTree",
    "Coloring",
    "DimacsError",
    "DistcolorError",
    "Graph",
    "InternalConsistencyError",
    "ListAssignment",
    "PaletteExhaustedError",
    "Permutation",
    "PreconditionError",
    "PropernessError",
    "SearchBoundError",
    "SolveResult",
    "SymmetryVerdict",
    "automorphisms",
    "color_delta_plus_2",
    "connected_girth5_graphs",
    "exact_chi_D",
    "find_isomorphism",
    "generate",
    "girth",
    "is_c6",
    "is_connected",
    "is_distinguishing",
    "list_color_delta_plus_2",
    "parse_coloring",
    "parse_graph",
    "render_coloring",
    "render_graph",
    "render_result",
    "solve",
]
