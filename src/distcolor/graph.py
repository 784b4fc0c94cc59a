"""Undirected simple graphs: construction, DIMACS text I/O, and basic metrics.

Vertices are 0-indexed integers internally; the DIMACS text format is 1-indexed.
Adjacency lists are kept sorted, so equal graphs compare equal and every
iteration order is deterministic.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable

from .errors import DimacsError, PreconditionError

INFINITY = math.inf

# Vertex bound of the exhaustive searches in distcolor.symmetry; parse_graph
# also uses it to cap the vertex count of a problem line.
SEARCH_BOUND = 128


class Graph:
    """An immutable simple graph with sorted adjacency lists.

    Edges are checked as they are added: both ends in range, no self-loop,
    and no duplicate in either order. A duplicate is found in the adjacency
    set being built, so each edge costs one membership test and no key.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            near = adj[u]
            if v in near:
                raise PreconditionError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            near.add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(ns) for ns in self.adj)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        # bit u of neighbor_masks[v] is set iff u ~ v: the symmetry search's rows
        return tuple(sum(1 << u for u in ns) for ns in self.adj)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def _max_degree(self) -> int:
        return max(map(len, self.adj), default=0)

    def max_degree(self) -> int:
        return self._max_degree

    @cached_property
    def _has_short_cycle(self) -> bool:
        # has_cycle_shorter_than_five's walk check, run once per graph:
        # stamp[w] == v marks w as a neighbor of v or as already reached
        adj = self.adj
        stamp = [-1] * self.n
        for v, near in enumerate(adj):
            for u in near:
                stamp[u] = v
            for u in near:
                for w in adj[u]:
                    if stamp[w] == v and w != v:
                        return True
                    stamp[w] = v
        return False

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def vertices(self) -> range:
        return range(self.n)

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph on ``keep``; returns it with the old-vertex -> new-vertex map."""
        kept = sorted(set(keep))
        index = {v: i for i, v in enumerate(kept)}
        sub_edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(kept), sub_edges), index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _is_ascii_number(field: str) -> bool:
    return field.isdigit() and field.isascii()


def number_test(text: str) -> Callable[[str], bool] | None:
    """The test that a field of ``text`` is a number, ASCII digits only, or
    None when ``int`` alone reads nothing else there: ASCII text with no
    ``+``, ``-`` or ``_``, since ``int`` also takes a sign, ``_`` and other
    scripts' digits. Callers keep ``int`` inside ``except ValueError``: past
    its digit limit (4300 by default) it raises on digits too."""
    if text.isascii() and not ("+" in text or "-" in text or "_" in text):
        return None
    return _is_ascii_number


def parse_graph(text: str) -> Graph:
    """Parse a DIMACS graph: one ``p edge n m`` line, ``e u v`` lines, ``c`` comments.

    Vertices are 1-indexed in the text. Malformed lines, out-of-range vertices,
    duplicate edges and self-loops are each reported as a distinct parse error
    naming the line; a number is a field that ``number_test`` accepts. Each
    line is split once; an edge's duplicate check is one integer key, its
    ends in ascending order.
    """
    n = None
    expected_m = None
    edges: list[tuple[int, int]] = []
    seen: set[int] = set()
    is_number = number_test(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            try:
                _, a, b = fields
                if is_number and not (is_number(a) and is_number(b)):
                    raise ValueError(raw)
                u, v = int(a), int(b)
            except ValueError:
                raise DimacsError(
                    f"line {lineno}: malformed edge line: {raw.strip()!r}"
                ) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {lineno}: vertex out of range: {raw.strip()!r}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop: {raw.strip()!r}")
            key = u * stride + v if u < v else v * stride + u
            if key in seen:
                raise DimacsError(f"line {lineno}: duplicate edge: {raw.strip()!r}")
            seen.add(key)
            edges.append((u - 1, v - 1))
        elif tag[0] == "c":
            continue
        elif tag == "p":
            line = raw.strip()
            if n is not None:
                raise DimacsError(f"line {lineno}: repeated problem line")
            try:
                _, kind, a, b = fields
                if kind != "edge" or is_number and not (is_number(a) and is_number(b)):
                    raise ValueError(line)
                n, expected_m = int(a), int(b)
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed problem line: {line!r}") from None
            # more than 2m+1 vertices leave the graph disconnected, which
            # solve, color2 and listcolor refuse, and more than SEARCH_BOUND
            # are beyond verify and exact: refuse before allocating them
            limit = max(2 * expected_m + 1, SEARCH_BOUND)
            if n > limit:
                raise DimacsError(
                    f"line {lineno}: {n} vertices with {expected_m} edges"
                    f" exceeds the limit of {limit}"
                )
            stride = n + 1
        else:
            raise DimacsError(f"line {lineno}: malformed line: {raw.strip()!r}")
    if n is None:
        raise DimacsError("missing problem line")
    if expected_m is not None and expected_m != len(edges):
        raise DimacsError(f"problem line promises {expected_m} edges, found {len(edges)}")
    return Graph(n, edges)


def render_graph(g: Graph) -> str:
    """Canonical DIMACS text: problem line, then sorted 1-indexed edges."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def distances(g: Graph, source: int) -> list[int | float]:
    """BFS distances from ``source``; unreachable vertices get infinity.

    Level by level: the level is a counter, so a newly reached vertex gets it
    without reading its parent's distance.
    """
    if not 0 <= source < g.n:
        raise PreconditionError(f"source {source} out of range")
    adj = g.adj
    dist: list[int | float] = [INFINITY] * g.n
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] is INFINITY:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return dist

def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return INFINITY not in distances(g, 0)


def diameter(g: Graph) -> int:
    """Largest pairwise distance; raises on disconnected input."""
    if g.n == 0:
        raise PreconditionError("diameter of the empty graph is undefined")
    best = 0
    for v in range(g.n):
        ecc = max(distances(g, v))
        if ecc is INFINITY:
            raise PreconditionError("graph is disconnected")
        best = max(best, int(ecc))
    return best


def girth(g: Graph) -> int | float:
    """Exact length of a shortest cycle, or infinity for a forest.

    One BFS per root: every non-tree edge (u, w) closes a walk of length
    dist[u] + dist[w] + 1 through the root, which always contains a cycle no
    longer than that; for roots on a shortest cycle the bound is attained, so
    the minimum over all roots is exact. O(n * m), so only the generators'
    structural checks and the tests call it; input validation uses
    has_cycle_shorter_than_five.
    """
    best: int | float = INFINITY
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


def has_cycle_shorter_than_five(g: Graph) -> bool:
    """True iff the graph has a triangle or a 4-cycle: the girth-five validator.

    Walks every v-u-w with w != v. A w adjacent to v closes a triangle, and a
    w reached from v through two different neighbors closes a 4-cycle. Every
    such cycle shows up from each of its vertices, so the test is exact. One
    stamp array, reused for every v, marks v's neighbors and the w already
    reached, so a walk step is one read and one write and no per-vertex list
    or set is built. The walks still cost sum(deg(u)^2) steps, O(n * Δ²),
    against O(n * m) for girth(), and run once per graph: the verdict is kept
    on the immutable graph.
    """
    return g._has_short_cycle
