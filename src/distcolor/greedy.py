"""Greedy colorings along a breadth-first order, plus the two-extra-colors constructions.

The root of the BFS tree takes a color from the caller; every later vertex
gets the smallest color available under one of two local rules:

* rule "i", when the vertex has a colored neighbor besides its parent: avoid
  the colors of all colored neighbors;
* rule "ii", otherwise: avoid the colors of its parent and the siblings
  before it.

Callers can pin single vertices: a fixed color, which need only be proper,
or a chooser, which picks among the colors the vertex's rule allows; the
plain rules are what the color-count guarantees below are about.

The loop keeps no record of its steps. A vertex's rule can be read off the
tree and the finished coloring: its neighbors before it in the tree's order
are the ones colored at its turn, so it followed rule ii when only its parent
is among them and rule i when more are. Criterion 6 of the acceptance corpus
checks the color bounds that way.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .coloring import Coloring, ListAssignment
from .errors import (
    InternalConsistencyError,
    PaletteExhaustedError,
    PreconditionError,
)
from .graph import Graph, has_cycle_shorter_than_five
from .symmetry import certify
from .tree import BfsTree, bfs_tree

Chooser = Callable[[int, tuple[int, ...], tuple[int | None, ...]], int | None]


def greedy_extend(
    g: Graph,
    tree: BfsTree,
    root_color: int,
    *,
    k: int | None = None,
    picks: Mapping[int, int | Chooser] | None = None,
    lists: ListAssignment | None = None,
) -> Coloring:
    """Color the tree's root with ``root_color``, then every other vertex along
    the tree's order.

    ``root_color`` must be a positive integer, and the root cannot be
    picked. Palette is 1..k (default max degree plus 2) unless ``lists``
    gives per-vertex palettes. ``picks`` pins a vertex to a fixed color,
    which must be in its palette and differ from its colored neighbors'
    colors, or to a chooser, which gets the palette colors the vertex's rule
    allows (no call when there are none) and must answer one of them.
    Anything else is a bug in the construction: InternalConsistencyError.
    So is running out of the palette 1..k, which every construction sizes
    to fit; an exhausted list raises PaletteExhaustedError. ``tree`` must be
    a BFS tree of ``g``. The result is proper.

    The vertices are taken child group by child group, which is sigma's
    order. With the plain palette a vertex costs O(deg v): rule i's scan
    stops within deg v + 1 colors, and rule ii's scans over one child group
    resume where the last one stopped, O(1) per vertex amortized. So the
    whole extension is O(n + m) at any degree. A list or a pick adds a
    scan of that vertex's palette; the input checks add O(n).
    """
    n = g.n
    if len(tree.order) != n:
        raise PreconditionError("tree does not cover the graph")
    if lists is not None and len(lists) != n:
        raise PreconditionError("list assignment length does not match the graph")
    root = tree.root
    if not isinstance(root_color, int) or root_color < 1:
        raise PreconditionError(f"root {root} colored with {root_color!r}")
    picks = picks or {}
    if root in picks:
        raise PreconditionError(f"the root {root} cannot be picked")
    delta = g.max_degree()
    if lists is None:
        k = delta + 2 if k is None else k
        if k < 1:
            raise PreconditionError(f"bad palette bound {k}")

    adj = g.adj
    values: list[int | None] = [None] * n
    values[root] = root_color

    # Sigma lists the children of each vertex in turn, so walking the child
    # groups visits sigma. Every vertex before v in sigma is colored when v's
    # turn comes, its parent included, so rule i applies exactly when v has a
    # second colored neighbor. Rule ii blocks the colors of v's parent and of
    # the siblings before v: the group's ``block``, which gains each color as
    # it is assigned. Every color below ``least`` is in it, so with the plain
    # palette rule ii's scan starts there and, the set only growing, the
    # group's scans take O(group size) steps in all. A chooser is handed
    # the palette minus the same blocked set.
    color_of = values.__getitem__
    children = tree.children
    near_root = frozenset(adj[root])
    listed = lists is not None
    for parent in tree.order:
        group = children[parent]
        if not group:
            continue
        block = {values[parent]}
        least = 1
        for v in group:
            around = list(map(color_of, adj[v]))
            count = len(around) - around.count(None)
            if count > 1:
                blocked = set(around)
                c = 1
            else:
                blocked = block
                c = least
            if v in picks:
                palette = lists[v] if listed else range(1, k + 1)
                c = picks[v]
                if callable(c):
                    allowed = tuple(x for x in palette if x not in blocked)
                    c = c(v, allowed, tuple(values)) if allowed else None
                    ok = c in allowed
                else:
                    ok = c in palette and c not in around
                if not ok:
                    raise InternalConsistencyError(
                        f"picked color {c} is not available at vertex {v}"
                    )
            elif listed:
                for c in lists[v]:
                    if c not in blocked:
                        break
                else:
                    raise PaletteExhaustedError(f"no available color for vertex {v}")
            else:
                while c in blocked:
                    c += 1
                if c > k:
                    raise InternalConsistencyError(f"no available color for vertex {v}")
                if blocked is block:
                    least = c
                if c > delta and v not in near_root:
                    # the only case in which _check_color_bounds can raise,
                    # so the only one that works out the neighborhood stats;
                    # rule i's ``blocked`` is the set of neighbor colors, None
                    # for an uncolored neighbor, and one colored neighbor or
                    # none are trivially distinct
                    distinct = count < 2 or len(blocked) - (None in blocked) == count
                    stats = (count == len(around), distinct)
                    _check_color_bounds(v, count > 1, c, delta, stats)
            values[v] = c
            block.add(c)

    return Coloring(values)


# The name under which the benchmark tracer (benchmarks/tracing.py) wraps
# greedy; bound to greedy_extend, its span counts every greedy call.
greedy_extend_traced = greedy_extend


def _check_color_bounds(v, neighbor_rule, c, delta, stats):
    # guaranteed bounds for unconstrained rules away from the root's closed
    # neighborhood: rule ii (``neighbor_rule`` False) stays below delta+1;
    # rule i reaches delta+1 only when every neighbor is colored, all
    # distinctly
    all_colored, distinct = stats
    if not neighbor_rule:
        if c > delta:
            raise InternalConsistencyError(f"sibling rule used color {c} at vertex {v}")
    elif c > delta + 1:
        raise InternalConsistencyError(f"neighbor rule used color {c} at vertex {v}")
    elif c == delta + 1 and not (all_colored and distinct):
        raise InternalConsistencyError(
            f"vertex {v} used color {c} without distinctly colored full neighborhood"
        )


def _rooted_tree(g: Graph) -> BfsTree:
    """The BFS tree at vertex 0, after ``solve``'s input checks in its order
    and words: some vertex, connected (the tree spans g), girth at least five."""
    if g.n == 0:
        raise PreconditionError("graph has no vertices")
    tree = bfs_tree(g, 0)
    if has_cycle_shorter_than_five(g):
        raise PreconditionError("girth must be at least five")
    return tree


def color_delta_plus_2(g: Graph) -> Coloring:
    """Distinguishing proper coloring with at most max degree + 2 colors.

    The root, vertex 0, takes the top color; nobody else can reach it, so
    color refinement isolates the root in one round and propagation from it
    certifies everything else level by level.
    """
    tree = _rooted_tree(g)
    k = g.max_degree() + 2
    coloring = greedy_extend(g, tree, k, k=k)
    # the root holds k, so any second k is a leak
    if coloring.values.count(k) > 1:
        raise InternalConsistencyError("top color leaked past the root")
    certify(g, tree, coloring)
    return coloring


def list_color_delta_plus_2(g: Graph, lists: ListAssignment) -> Coloring:
    """Distinguishing proper coloring from per-vertex lists.

    Works like color_delta_plus_2: the root, vertex 0, takes the smallest
    color alpha from its own list, alpha is deleted from every other list,
    and the rest is greedy. Lists of size max degree + 2 always suffice; one
    color smaller is accepted and may raise PaletteExhaustedError. The lists
    are checked after the graph.

    Messages about a list number its vertex from 1, as a list file does, so
    ``distcolor listcolor`` names the file's vertex.
    """
    tree = _rooted_tree(g)
    if len(lists) != g.n:
        raise PreconditionError("list assignment length does not match the graph")
    need = g.max_degree() + 1
    for v, colors in enumerate(lists.lists):
        if v > 0 and len(colors) < need:
            raise PreconditionError(f"list for vertex {v + 1} has fewer than {need} colors")
    alpha = min(lists[0])
    pruned = lists.without(alpha, keep=0)
    coloring = greedy_extend(g, tree, alpha, lists=pruned)
    if coloring.values.count(alpha) > 1:
        raise InternalConsistencyError("root color leaked into another list")
    for v, (c, allowed) in enumerate(zip(coloring.values, lists.lists)):
        if c not in allowed:
            raise InternalConsistencyError(f"vertex {v + 1} was colored outside its list")
    certify(g, tree, coloring)
    return coloring
