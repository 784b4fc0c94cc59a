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
    ``parse_graph`` keeps the same edge rules with DIMACS messages and builds
    its graph with ``_from_sets``.
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
        self._adopt(adj)

    @classmethod
    def _from_sets(cls, adj: list[set[int]]) -> "Graph":
        """The graph of adjacency sets whose edges are already checked: in
        range, no self-loop, each edge in both ends' sets."""
        g = cls.__new__(cls)
        g._adopt(adj)
        return g

    def _adopt(self, adj: list[set[int]]) -> None:
        # the one place a graph's form is built from its checked sets
        self.n = len(adj)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(ns) for ns in self.adj)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        # bit u of neighbor_masks[v] is set iff u ~ v: the symmetry search's rows
        return tuple(sum(1 << u for u in ns) for ns in self.adj)

    @cached_property
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
        # has_cycle_shorter_than_five's walk, run once per graph: from each v
        # only through lower-ranked u to lower-ranked w, ranked by (degree,
        # id); stamp[w] == v marks w as a neighbor of v or as already reached
        adj = self.adj
        n = self.n
        rank = [len(near) * n + v for v, near in enumerate(adj)]
        stamp = [-1] * n
        for v, near in enumerate(adj):
            top = rank[v]
            for u in near:
                stamp[u] = v
            for u in near:
                if rank[u] < top:
                    for w in adj[u]:
                        if rank[w] < top:
                            if stamp[w] == v:
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
    line is split once, and each edge is checked once, straight into the
    adjacency sets that the graph is built from.
    """
    n = None
    expected_m = None
    adj: list[set[int]] = []
    is_number = number_test(text)
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
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
                u, v = int(a) - 1, int(b) - 1
            except ValueError:
                raise DimacsError(
                    f"line {lineno}: malformed edge line: {raw.strip()!r}"
                ) from None
            if not (0 <= u < n and 0 <= v < n):
                raise DimacsError(f"line {lineno}: vertex out of range: {raw.strip()!r}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop: {raw.strip()!r}")
            near = adj[u]
            if v in near:
                raise DimacsError(f"line {lineno}: duplicate edge: {raw.strip()!r}")
            near.add(v)
            adj[v].add(u)
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
            # are beyond verify and exact: refuse before allocating them. A
            # valid text has m edge lines, so m is at most its line count
            limit = max(2 * min(expected_m, len(lines)) + 1, SEARCH_BOUND)
            if n > limit:
                raise DimacsError(
                    f"line {lineno}: {n} vertices with {expected_m} edges"
                    f" exceeds the limit of {limit}"
                )
            adj = [set() for _ in range(n)]
        else:
            raise DimacsError(f"line {lineno}: malformed line: {raw.strip()!r}")
    if n is None:
        raise DimacsError("missing problem line")
    found = sum(map(len, adj)) // 2
    if expected_m != found:
        raise DimacsError(f"problem line promises {expected_m} edges, found {found}")
    return Graph._from_sets(adj)


def render_graph(g: Graph) -> str:
    """Canonical DIMACS text: problem line, then sorted 1-indexed edges."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def distances(g: Graph, source: int) -> list[int | float]:
    """BFS distances from ``source``; unreachable vertices get infinity."""
    if not 0 <= source < g.n:
        raise PreconditionError(f"source {source} out of range")
    return _bfs_levels(g.adj, source, INFINITY)


def _bfs_levels(
    adj: tuple[tuple[int, ...], ...], source: int, far: object
) -> list:
    """BFS distances from ``source`` over ``adj``, with ``far`` for each
    vertex it does not reach; ``far`` must not equal a distance.

    Level by level: the level is a counter, so a newly reached vertex gets it
    without reading its parent's distance.
    """
    dist = [far] * len(adj)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] is far:
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
            raise PreconditionError("graph must be connected")
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

    Ranks the vertices by (degree, id) and walks, from each v, every v-u-w
    with u and w ranked below v. A w adjacent to v closes a triangle, and a
    w reached from v through two different neighbors closes a 4-cycle. Every
    such cycle has exactly one top-ranked vertex, whose walks find it, so the
    test is exact. One stamp array, reused for every v, marks v's neighbors
    and the w already reached, so a walk step is one read and one write and
    no per-vertex list or set is built. The walks cost the sum over the
    edges of the lower end's degree (Chiba and Nishizeki): O(m) on trees and
    stars, O(m * sqrt(m)) at worst, against O(n * m) for girth(). They run
    once per graph: the verdict is kept on the immutable graph.
    """
    return g._has_short_cycle
