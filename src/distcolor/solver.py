"""Distinguishing proper colorings within one color of the maximum degree.

``solve`` covers every connected graph of girth at least five, the six-cycle
with a fourth color. The structural cases of the proof form one ordered
table, ``_CASES``, and ``solve`` runs the first that applies. Each case
finds its witness (a vertex of deficient degree, a geodesic or
diameter-three configuration), pins a BFS tree, colors its root, overrides a
handful of vertices and lets the greedy rules do the rest; the Petersen and
Heawood graphs get stored colorings instead. The paper's last cubic case, a
vertex with two dissimilar neighbors, has no code: a cubic girth-five graph
with no geodesic configuration has at most 14 vertices, and the tests solve
every one of them through the cases above. Every case returns its tree and
coloring, and ``solve`` certifies them with ``symmetry.certify``, the path
the Δ+2 and list constructions share: fixedness propagation from the
shortest sigma-prefix that certifies every vertex, which color refinement
must pin down. An improper or uncertifiable coloring is reported as an
internal bug rather than a user error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Callable, Iterator

from .coloring import Coloring, render_coloring
from .errors import InternalConsistencyError, PreconditionError
from .generators import heawood, petersen
from .graph import Graph, distances, has_cycle_shorter_than_five, is_connected
from .greedy import Chooser, greedy_extend
from .symmetry import certify, find_isomorphism
from .tree import LAST, BfsTree, bfs_tree

BRANCH_PATH_OR_CYCLE = "path_or_cycle"
BRANCH_NONREGULAR = "nonregular"
BRANCH_GEODESIC = "geodesic"
BRANCH_DIAMETER3 = "diameter3"
BRANCH_MOORE = "moore_recursive"
# No case takes this branch; the benchmark still reports a count for it.
BRANCH_DISSIMILAR = "dissimilar_neighbors"
BRANCH_SPECIAL = "special"
BRANCH_C6 = "c6"

@dataclass(frozen=True)
class GeodesicConfig:
    """A geodesic w-x1-x2-x3 whose endpoint x3 has a neighbor x also far from w."""

    w: int
    x1: int
    x2: int
    x3: int
    x: int


@dataclass(frozen=True)
class DiameterThreeConfig:
    """Three length-3 paths from w to z3 through distinct middle vertices."""

    w: int
    x1: int
    x2: int
    y1: int
    y2: int
    z1: int
    z2: int
    z3: int


@dataclass(frozen=True)
class SolveResult:
    """A certified coloring plus the construction it came from.

    Every returned result is certified: ``prefix`` is the shortest
    sigma-prefix of ``tree`` from which fixed_propagation certifies every
    vertex, and color refinement seeded by the coloring isolates every prefix
    vertex, so the propagation from it is sound.
    """

    coloring: Coloring
    colors_used: int
    branch: str
    tree: BfsTree
    prefix: tuple[int, ...]


# What a case builds: the BFS tree and the coloring to certify along it.
Parts = tuple[BfsTree, Coloring]

# What the geodesic scan finds: the first configuration or, in a graph
# without one, the diameter (at most 3).
GeodesicScan = GeodesicConfig | int


def render_result(result: SolveResult) -> str:
    header = f"c branch={result.branch} colors={result.colors_used} certified=1"
    return header + "\n" + render_coloring(result.coloring)


@cache
def special_colorings() -> tuple[tuple[str, Graph, Coloring], ...]:
    """The stored four-colorings behind the special branch, on the named
    graphs of ``generators`` in their numbering.

    Built once per process; every caller shares the immutable objects.
    """
    return (
        ("petersen", petersen(), Coloring((2, 2, 2, 2, 1, 4, 4, 1, 3, 3))),
        ("heawood", heawood(), Coloring((2, 3, 2, 3, 4, 3, 2, 1, 2, 1, 2, 1, 2, 4))),
    )


def _validate(g: Graph) -> None:
    if g.n == 0:
        raise PreconditionError("graph has no vertices")
    if not is_connected(g):
        raise PreconditionError("graph must be connected")
    if has_cycle_shorter_than_five(g):
        raise PreconditionError("girth must be at least five")


def is_c6(g: Graph) -> bool:
    """True when g is a six-cycle, the one graph ``solve`` gives Δ+2 colors."""
    return (
        g.n == 6
        and all(g.degree(v) == 2 for v in g.vertices())
        and is_connected(g)
    )


def _walk_from(g: Graph, start: int) -> list[int]:
    """Vertex sequence along a path or cycle, starting toward the smaller id."""
    order = [start]
    prev = None
    v = start
    while len(order) < g.n:
        step = [u for u in g.adj[v] if u != prev]
        if not step:
            break
        prev, v = v, min(step)
        order.append(v)
    return order


def _c6_case(
    g: Graph, delta: int, scan: Callable[[], GeodesicScan]
) -> Parts | None:
    """1,2,3,1,2,4 along the six-cycle from vertex 0, which three colors
    cannot distinguish; None for any other graph. Every graph that reaches
    a case is connected, so six vertices, six edges and Δ = 2 make the
    six-cycle."""
    if not (delta == 2 and g.n == 6 and g.m == 6):
        return None
    color = dict(zip(_walk_from(g, 0), (1, 2, 3, 1, 2, 4)))
    return bfs_tree(g, 0), Coloring([color[v] for v in g.vertices()])


def _path_or_cycle_case(
    g: Graph, delta: int, scan: Callable[[], GeodesicScan]
) -> Parts | None:
    """One end 1 then 2,3 alternating; cycles open 1,2,3,1,2 then alternate."""
    if delta > 2:
        return None
    values: list[int | None] = [None] * g.n
    ends = [v for v in g.vertices() if g.degree(v) <= 1]
    if ends:
        order = _walk_from(g, min(ends))
        for idx, v in enumerate(order):
            values[v] = 1 if idx == 0 else (2 if idx % 2 == 1 else 3)
    else:
        order = _walk_from(g, 0)
        head = (1, 2, 3, 1, 2)
        for idx, v in enumerate(order):
            values[v] = head[idx] if idx < 5 else (3 if idx % 2 == 1 else 2)
    return bfs_tree(g, order[0]), Coloring(values)


def _nonregular_case(
    g: Graph, delta: int, scan: Callable[[], GeodesicScan]
) -> Parts | None:
    """Root the tree at a vertex of deficient degree and give it the top color.

    No other vertex of degree below the maximum can reach the top color under
    the greedy rules, which pins w; the rest follows from the tree structure.
    """
    w = next((v for v in g.vertices() if g.degree(v) < delta), None)
    if w is None:
        return None
    tree = bfs_tree(g, w)
    return tree, greedy_extend(g, tree, delta + 1, k=delta + 1)


def _neighborhood_split_chooser(
    g: Graph, hub: int, anchor: int, avoid: int | None = None
) -> Chooser:
    """Chooser keeping hub's neighborhood color multiset distinct from anchor's.

    Its candidates are the colors the vertex's greedy rule allows, so under
    rule ii they already skip the siblings' colors and keep their
    pairwise-distinct pattern. At least two candidates are left, and at most
    one of them can equalize the two neighborhood multisets. ``avoid`` names
    a color to dodge when any other candidate works.
    """

    def choose(v: int, candidates: tuple[int, ...], values: tuple[int | None, ...]) -> int:
        if len(candidates) < 2:
            raise InternalConsistencyError(
                f"vertex {v} should have at least two color options, has {candidates}"
            )
        rest = [values[u] for u in g.adj[hub] if u != v]
        anchor_colors = [values[u] for u in g.adj[anchor]]
        if None in rest or None in anchor_colors:
            raise InternalConsistencyError(
                "the compared neighborhoods are not fully colored"
            )
        target = sorted(anchor_colors)
        ok = [c for c in candidates if sorted(rest + [c]) != target]
        if not ok:
            raise InternalConsistencyError(
                f"no candidate color separates vertices {hub} and {anchor}"
            )
        if avoid is not None:
            preferred = [c for c in ok if c != avoid]
            if preferred:
                return min(preferred)
        return min(ok)

    return choose


def _first_geodesic_config(g: Graph) -> GeodesicScan:
    """First (smallest root, then smallest pair) geodesic configuration, if any;
    otherwise the diameter of g.

    g must be connected. A graph without a configuration has diameter at most
    3: were some vertex at distance 4 or more from w, the distance-3 vertex of
    a shortest path to it would be an x3 with a neighbor x at distance 4. By
    then the scan has run a BFS from every vertex, so the diameter is the
    largest eccentricity it saw, and no second all-sources BFS is needed.

    A Δ-regular graph with Δ ≥ 2 on Δ²+1 vertices needs no BFS at all: with
    girth at least five, the caller's precondition, the 1 + Δ + Δ(Δ−1)
    vertices within two steps of any vertex are distinct and so are all of
    them (the Moore bound), and the diameter is 2. K1 and K2 also have
    Δ²+1 vertices, with diameters 0 and 1, hence Δ ≥ 2.
    """
    delta = g.max_degree()
    if delta >= 2 and g.n == delta * delta + 1 and min(map(len, g.adj)) == delta:
        return 2
    diam = 0
    for w in g.vertices():
        dist = distances(g, w)
        pairs = [
            (x3, x)
            for x3 in g.vertices()
            if dist[x3] == 3
            for x in g.adj[x3]
            if dist[x] >= 3
        ]
        if not pairs:
            diam = max(diam, max(dist))
            continue
        x3, x = min(pairs)
        x2 = min(u for u in g.adj[x3] if dist[u] == 2)
        x1 = min(u for u in g.adj[x2] if dist[u] == 1)
        return GeodesicConfig(w, x1, x2, x3, x)
    return diam


def _geodesic_parts(g: Graph, cfg: GeodesicConfig) -> Parts:
    """Top color on w and x2, 1 on their first children; x3 splits the pair.

    The two top-colored vertices are the only ones that can carry a repeated
    color in their neighborhood, and x3's chosen color makes those two
    neighborhood multisets differ.
    """
    w, x1, x2, x3 = cfg.w, cfg.x1, cfg.x2, cfg.x3
    y1 = min(u for u in g.adj[w] if u != x1)
    # x1 first among w's children and x2 first among x1's puts x2 first on
    # level 2, so the BFS gives x2 every level-3 neighbor as a child; with x3
    # the last of them, all other neighbors of x2 are colored when x3's turn
    # comes and x3's far neighbor x is not.
    tree = bfs_tree(g, w, slots={x1: 0, y1: 1, x2: 0, x3: LAST})
    k = g.max_degree() + 1
    chooser = _neighborhood_split_chooser(g, hub=x2, anchor=w)
    picks = {x1: 1, y1: 1, x2: k, x3: chooser}
    return tree, greedy_extend(g, tree, k, k=k, picks=picks)


def _geodesic_case(
    g: Graph, delta: int, scan: Callable[[], GeodesicScan]
) -> Parts | None:
    found = scan()
    return None if isinstance(found, int) else _geodesic_parts(g, found)


def _diam3_configs(g: Graph) -> Iterator[tuple[DiameterThreeConfig, list[int | float]]]:
    """Yield admissible diameter-three configurations, most-canonical first,
    each with the distances from its root."""
    for w in g.vertices():
        dist = distances(g, w)
        for z3 in (v for v in g.vertices() if dist[v] == 3):
            nbrs = g.adj[z3]
            if any(dist[u] != 2 for u in nbrs):
                continue
            for z2, x2, y2 in permutations(sorted(nbrs), 3):
                z1 = min(u for u in g.adj[z2] if dist[u] == 1)
                x1 = min(u for u in g.adj[x2] if dist[u] == 1)
                y1 = min(u for u in g.adj[y2] if dist[u] == 1)
                if len({x1, y1, z1}) != 3:
                    continue
                yield DiameterThreeConfig(w, x1, x2, y1, y2, z1, z2, z3), dist


def _diam3_parts(
    g: Graph, cfg: DiameterThreeConfig, dist: list[int | float]
) -> Parts:
    """Two top-colored spine vertices over a shared 1-colored pair.

    z1 ends up the only top-colored vertex with two neighbors colored 1 (w and
    z2), z3's color separates those two by neighborhood multiset, and
    keeping color 1 off the other children of x1 and z1, and off those of y1
    next to z2, keeps every competing child distinct.
    """
    delta = g.max_degree()
    w, x1, x2, y1, y2, z1, z2, z3 = (
        cfg.w, cfg.x1, cfg.x2, cfg.y1, cfg.y2, cfg.z1, cfg.z2, cfg.z3,
    )
    children_x1 = [u for u in g.adj[x1] if dist[u] == 2]
    children_y1 = [u for u in g.adj[y1] if dist[u] == 2]
    children_z1 = [u for u in g.adj[z1] if dist[u] == 2]
    # First children chosen away from the key vertices: f_y keeps color 1 off
    # z2's earlier-colored neighborhood, f_x keeps 3 available at y2's turn.
    # Each exists: at least three candidates, at most one disqualified.
    f_x = min(
        (u for u in children_x1 if u != x2 and not g.has_edge(u, y2)),
        default=None,
    )
    f_y = min(
        (u for u in children_y1 if u != y2 and not g.has_edge(u, z2)),
        default=None,
    )
    if f_x is None or f_y is None:
        raise InternalConsistencyError("no admissible first child beside the spine")
    parents = {u: z2 for u in g.adj[z2] if dist[u] == 3}
    slots = {
        x1: 0, y1: 1, z1: 2,
        f_x: 0, x2: 1,
        f_y: 0, y2: 1,
        z2: 0, z3: LAST,
    }
    tree = bfs_tree(g, w, parents=parents, slots=slots)
    # color 1 stays off the children of x1 and z1 and off those of y1 next
    # to z2; the pins below replace the entries of x2 and z2
    picks: dict[int, int | Chooser] = dict.fromkeys(children_x1 + children_z1, _avoid_one)
    picks.update((u, _avoid_one) for u in children_y1 if g.has_edge(u, z2))
    chooser = _neighborhood_split_chooser(g, hub=z2, anchor=w, avoid=delta + 1)
    picks.update({x1: delta + 1, z1: delta + 1, z2: 1, x2: 3, y2: 3, z3: chooser})
    return tree, greedy_extend(g, tree, 1, k=delta + 1, picks=picks)


def _avoid_one(v: int, candidates: tuple[int, ...], values: tuple[int | None, ...]) -> int | None:
    """The least candidate other than 1, or None when there is none."""
    return next((c for c in candidates if c != 1), None)


def _diameter3_case(
    g: Graph, delta: int, scan: Callable[[], GeodesicScan]
) -> Parts | None:
    """Build on the first diameter-three configuration."""
    if delta < 4 or scan() != 3:
        return None
    found = next(_diam3_configs(g), None)
    if found is None:
        raise InternalConsistencyError("no diameter-three configuration")
    return _diam3_parts(g, *found)


def _moore_case(
    g: Graph, delta: int, scan: Callable[[], GeodesicScan]
) -> Parts | None:
    """Solve the graph minus w's closed neighborhood, then paint that collar.

    The collar N(w) takes the top color, which the recursive coloring never
    uses; w is then the only vertex with two top-colored neighbors, and each
    collar vertex is the sole common neighbor of any two of its fixed ones.
    The reduced graph is an induced subgraph of a girth-five graph and
    (Δ−1)-regular with Δ ≥ 4, so not the six-cycle: once it is found
    connected, the case table runs on it without ``solve``'s validation or
    certification: ``solve`` certifies the whole coloring.
    """
    if delta < 4 or scan() != 2:
        return None
    if g.n != delta * delta + 1:
        raise InternalConsistencyError(
            "vertex count contradicts regular girth-five diameter-two structure"
        )
    w = 0
    keep = sorted(set(g.vertices()) - {w} - set(g.adj[w]))
    sub, old_to_new = g.induced_subgraph(keep)
    if not is_connected(sub):
        raise InternalConsistencyError(
            "removing a closed neighborhood disconnected the graph"
        )
    if any(sub.degree(v) != delta - 1 for v in sub.vertices()):
        raise InternalConsistencyError("reduced graph is not regular one degree down")
    _, _, inner = _run_cases(sub)
    if inner.max_color() > delta:
        raise InternalConsistencyError("recursive coloring exceeded its palette")
    values: list[int | None] = [None] * g.n
    for old in keep:
        values[old] = inner.values[old_to_new[old]]
    for u in g.adj[w]:
        values[u] = delta + 1
    values[w] = 1
    return bfs_tree(g, w), Coloring(values)


def _special_case(
    g: Graph, delta: int, scan: Callable[[], GeodesicScan]
) -> Parts | None:
    """Transport a stored four-coloring onto the Petersen or Heawood graph
    through an isomorphism; None for any other graph."""
    if delta != 3:
        return None
    for _, h, stored in special_colorings():
        if g.n != h.n:
            continue
        iso = find_isomorphism(g, h)
        if iso is None:
            continue
        values = [stored[iso(v)] for v in g.vertices()]
        return bfs_tree(g, 0), Coloring(values)
    return None


# The paper's cases in the order solve tries them. Each takes the graph, its
# maximum degree and the geodesic scan (a memo, run on first use) and returns
# (tree, coloring), or None when its case does not apply. The cases after the
# geodesic one run only when the scan found no configuration, so they read
# the diameter off it.
_CASES = (
    (BRANCH_C6, _c6_case),
    (BRANCH_PATH_OR_CYCLE, _path_or_cycle_case),
    (BRANCH_NONREGULAR, _nonregular_case),
    (BRANCH_GEODESIC, _geodesic_case),
    (BRANCH_DIAMETER3, _diameter3_case),
    (BRANCH_MOORE, _moore_case),
    (BRANCH_SPECIAL, _special_case),
)


def solve(g: Graph) -> SolveResult:
    """Certified proper distinguishing coloring, at most Δ+1 colors (C6: 4).

    The first case of ``_CASES`` that applies builds the coloring: the
    six-cycle (Δ+2 = 4 colors); paths and cycles (Δ ≤ 2); a vertex of
    deficient degree; a geodesic configuration; diameter 3 (Δ ≥ 4); diameter 2
    (Δ ≥ 4, a Moore graph, handled recursively); and the Petersen and Heawood
    graphs, which get stored colorings. Every other cubic graph of girth five
    has a geodesic configuration, so a graph that no case takes is a bug. The
    geodesic scan runs at most once per call, with at most one BFS per vertex,
    and the two diameter cases read the diameter off it. ``symmetry.certify``
    then certifies the case's coloring; its failures name the branch.
    """
    _validate(g)
    branch, tree, coloring = _run_cases(g)
    try:
        prefix = certify(g, tree, coloring)
    except InternalConsistencyError as err:
        raise InternalConsistencyError(f"{branch}: {err}") from err
    return SolveResult(coloring, coloring.num_colors(), branch, tree, prefix)


def _run_cases(g: Graph) -> tuple[str, BfsTree, Coloring]:
    """The first case of ``_CASES`` that applies to g, a graph already known
    connected and of girth at least five: its branch and the tree and
    coloring it built, not yet certified."""
    delta = g.max_degree()
    scan = cache(lambda: _first_geodesic_config(g))
    for branch, case in _CASES:
        parts = case(g, delta, scan)
        if parts is not None:
            return (branch, *parts)
    raise InternalConsistencyError("dispatcher found no applicable case")


def solve_c6_extension(g: Graph) -> SolveResult:
    """``solve`` on the six-cycle: four colors, 1,2,3,1,2,4 around the
    cycle. Raises PreconditionError for any other graph."""
    if not is_c6(g):
        raise PreconditionError("input is not a six-cycle")
    return solve(g)
