"""Greedy colorings along a breadth-first order, plus the two-extra-colors constructions.

Each vertex beyond the precolored prefix gets the smallest color available
under one of two local rules:

* rule "i", when the vertex has a colored neighbor besides its parent: avoid
  the colors of all colored neighbors;
* rule "ii", otherwise: avoid the colors of its parent and its siblings.

Callers can override single vertices (forced colors or a chooser picking from
the available candidates) and forbid colors at specific vertices; the plain
rules are what the color-count guarantees below are about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .coloring import Coloring, ListAssignment
from .errors import (
    InternalConsistencyError,
    PaletteExhaustedError,
    PreconditionError,
)
from .graph import Graph, has_cycle_shorter_than_five
from .symmetry import fixed_propagation, is_distinguishing
from .tree import BfsTree, bfs_tree

RULE_PREFIX = "prefix"
RULE_NEIGHBORS = "i"
RULE_SIBLINGS = "ii"
RULE_FORCED = "forced"
RULE_CHOOSER = "chooser"

Chooser = Callable[[int, tuple[int, ...], tuple[int | None, ...]], int]


@dataclass(frozen=True)
class GreedyStep:
    """What happened when one vertex was colored.

    ``colored_neighbors``, ``all_neighbors_colored`` and
    ``neighbor_colors_distinct`` describe the moment just before the color was
    assigned; ``constrained`` is True when anything beyond the two plain rules
    (forbidden colors, lists, a forced color, a chooser) influenced the choice.
    """

    vertex: int
    rule: str
    color: int
    colored_neighbors: int
    all_neighbors_colored: bool
    neighbor_colors_distinct: bool
    constrained: bool


def greedy_extend_traced(
    g: Graph,
    tree: BfsTree,
    prefix: Mapping[int, int],
    *,
    k: int | None = None,
    forced: Mapping[int, int] | None = None,
    forbidden: Mapping[int, frozenset[int] | set[int]] | None = None,
    choosers: Mapping[int, Chooser] | None = None,
    lists: ListAssignment | None = None,
) -> tuple[Coloring, tuple[GreedyStep, ...]]:
    """Color every vertex beyond ``prefix``, returning the coloring and a trace.

    ``prefix`` must color a nonempty prefix of the tree's vertex order and be
    proper. Palette is 1..k (default max degree plus 2) unless ``lists`` gives
    per-vertex palettes. Raises PaletteExhaustedError when a vertex has no
    available color.
    """
    n = g.n
    if len(tree.order) != n:
        raise PreconditionError("tree does not cover the graph")
    if lists is not None and len(lists) != n:
        raise PreconditionError("list assignment length does not match the graph")
    if not prefix:
        raise PreconditionError("prefix is empty")
    if set(prefix) != set(tree.order[: len(prefix)]):
        raise PreconditionError("prefix does not color a prefix of the vertex order")
    forced = dict(forced or {})
    forbidden = {v: frozenset(cs) for v, cs in (forbidden or {}).items()}
    choosers = dict(choosers or {})
    for v in list(forced) + list(choosers):
        if v in prefix:
            raise PreconditionError(f"vertex {v} is in the prefix and cannot be overridden")
    if set(forced) & set(choosers):
        raise PreconditionError("a vertex has both a forced color and a chooser")
    if lists is None:
        k = g.max_degree() + 2 if k is None else k
        if k < 1:
            raise PreconditionError(f"bad palette bound {k}")

    values: list[int | None] = [None] * n
    for v, c in prefix.items():
        if not isinstance(c, int) or c < 1:
            raise PreconditionError(f"prefix colors vertex {v} with {c!r}")
        values[v] = c
    for u, v in g.edges():
        if values[u] is not None and values[u] == values[v]:
            raise PreconditionError("prefix coloring is not proper")

    delta = g.max_degree()
    root = tree.root
    steps = [
        GreedyStep(v, RULE_PREFIX, prefix[v], 0, False, False, False)
        for v in tree.order[: len(prefix)]
    ]

    for v in tree.order[len(prefix):]:
        neighbor_colors = [values[u] for u in g.adj[v] if values[u] is not None]
        stats = (
            len(neighbor_colors),
            len(neighbor_colors) == len(g.adj[v]),
            len(set(neighbor_colors)) == len(neighbor_colors),
        )
        palette = lists[v] if lists is not None else range(1, k + 1)
        banned = forbidden.get(v, frozenset())
        parent = tree.parent[v]

        if v in forced:
            c = forced[v]
            if c in neighbor_colors:
                raise PreconditionError(f"forced color {c} on vertex {v} breaks properness")
            values[v] = c
            steps.append(GreedyStep(v, RULE_FORCED, c, *stats, True))
            continue

        if v in choosers:
            candidates = tuple(
                c for c in palette if c not in banned and c not in neighbor_colors
            )
            if not candidates:
                raise PaletteExhaustedError(f"no available color for vertex {v}")
            c = choosers[v](v, candidates, tuple(values))
            if c not in candidates:
                raise InternalConsistencyError(f"chooser picked unavailable color {c}")
            values[v] = c
            steps.append(GreedyStep(v, RULE_CHOOSER, c, *stats, True))
            continue

        if any(values[u] is not None for u in g.adj[v] if u != parent):
            rule = RULE_NEIGHBORS
            blocked = set(neighbor_colors)
        else:
            rule = RULE_SIBLINGS
            blocked = {
                values[u]
                for u in tree.siblings(v) + (parent,)
                if values[u] is not None
            }
        c = next((c for c in palette if c not in blocked and c not in banned), None)
        if c is None:
            raise PaletteExhaustedError(f"no available color for vertex {v}")
        constrained = bool(banned) or lists is not None
        if not constrained and v != root and not g.has_edge(v, root):
            _check_color_bounds(v, rule, c, delta, stats)
        values[v] = c
        steps.append(GreedyStep(v, rule, c, *stats, constrained))

    coloring = Coloring(values, None if lists is not None else k)
    if not coloring.is_proper(g):
        raise InternalConsistencyError("greedy coloring came out improper")
    return coloring, tuple(steps)


def _check_color_bounds(v, rule, c, delta, stats):
    # guaranteed bounds for unconstrained rules away from the root's closed
    # neighborhood: rule ii stays below delta+1; rule i reaches delta+1 only
    # when every neighbor is colored, all distinctly
    count, all_colored, distinct = stats
    if rule == RULE_SIBLINGS and c > delta:
        raise InternalConsistencyError(f"sibling rule used color {c} at vertex {v}")
    if rule == RULE_NEIGHBORS:
        if c > delta + 1:
            raise InternalConsistencyError(f"neighbor rule used color {c} at vertex {v}")
        if c == delta + 1 and not (all_colored and distinct):
            raise InternalConsistencyError(
                f"vertex {v} used color {c} without distinctly colored full neighborhood"
            )


def greedy_extend(
    g: Graph,
    tree: BfsTree,
    prefix: Mapping[int, int],
    *,
    k: int | None = None,
    forced: Mapping[int, int] | None = None,
    forbidden: Mapping[int, frozenset[int] | set[int]] | None = None,
    choosers: Mapping[int, Chooser] | None = None,
    lists: ListAssignment | None = None,
) -> Coloring:
    coloring, _ = greedy_extend_traced(
        g, tree, prefix, k=k, forced=forced, forbidden=forbidden,
        choosers=choosers, lists=lists,
    )
    return coloring


def _certify(g: Graph, tree: BfsTree, coloring: Coloring, prefix: list[int]) -> None:
    # fast path: local propagation from the fixed prefix; exact search only
    # if propagation leaves gaps
    certified = fixed_propagation(g, tree, coloring, prefix)
    if len(certified) == g.n:
        return
    if not is_distinguishing(g, coloring).distinguishing:
        raise InternalConsistencyError("construction produced a breakable coloring")


def color_delta_plus_2(g: Graph, w: int = 0) -> Coloring:
    """Distinguishing proper coloring with at most max degree + 2 colors.

    The root w takes the top color; nobody else can reach it, so w is fixed
    and the greedy rules pin everything else down level by level.
    """
    if has_cycle_shorter_than_five(g):
        raise PreconditionError("girth below five")
    k = g.max_degree() + 2
    tree = bfs_tree(g, w)
    coloring = greedy_extend(g, tree, {w: k}, k=k)
    if any(coloring[v] == k for v in range(g.n) if v != w):
        raise InternalConsistencyError("top color leaked past the root")
    _certify(g, tree, coloring, [w])
    return coloring


def list_color_delta_plus_2(g: Graph, lists: ListAssignment, w: int = 0) -> Coloring:
    """Distinguishing proper coloring from per-vertex lists.

    Works like color_delta_plus_2: w takes the smallest color alpha from its
    own list, alpha is deleted from every other list, and the rest is greedy.
    Lists of size max degree + 2 always suffice; one color smaller is accepted
    and may raise PaletteExhaustedError.
    """
    if has_cycle_shorter_than_five(g):
        raise PreconditionError("girth below five")
    if len(lists) != g.n:
        raise PreconditionError("list assignment length does not match the graph")
    if not (0 <= w < g.n):
        raise PreconditionError(f"vertex {w} out of range")
    need = g.max_degree() + 1
    for v in range(g.n):
        if v != w and len(lists[v]) < need:
            raise PreconditionError(f"list for vertex {v} has fewer than {need} colors")
    if not lists[w]:
        raise PreconditionError(f"list for vertex {w} is empty")
    alpha = min(lists[w])
    pruned = lists.without(alpha, keep=w)
    tree = bfs_tree(g, w)
    coloring = greedy_extend(g, tree, {w: alpha}, lists=pruned)
    if any(coloring[v] == alpha for v in range(g.n) if v != w):
        raise InternalConsistencyError("root color leaked into another list")
    for v in range(g.n):
        if coloring[v] not in lists[v]:
            raise InternalConsistencyError(f"vertex {v} was colored outside its list")
    _certify(g, tree, coloring, [w])
    return coloring
