"""Graph families used by the test corpus and the command line.

Fixed graphs are built from frozen combinatorial data (LCF words, incidence
rules, chord lists) and checked structurally, so a typo in the data cannot
silently produce the wrong graph. A ``Graph`` is immutable, so each named
graph is built and checked once per process and every later call returns
that same object. Random families are deterministic for a given seed.
"""

from __future__ import annotations

import heapq
import random
from functools import cache

from .errors import InternalConsistencyError, PreconditionError
from .graph import Graph, girth, is_connected


def path(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 adjacent to all others."""
    if n < 1:
        raise PreconditionError("star needs at least one vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniformly random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise PreconditionError("tree needs at least one vertex")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    # a heap of the current leaves: each step joins the least one, O(log n)
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), leaves[0]))
    return Graph(n, edges)


def _lcf(shifts: list[int], repeats: int) -> Graph:
    n = len(shifts) * repeats
    edges = {(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)}
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        edges.add((min(i, j), max(i, j)))
    g = Graph(n, sorted(edges))
    if g.m != n + n // 2 or any(len(g.adj[v]) != 3 for v in range(n)):
        raise InternalConsistencyError("chord word is not antisymmetric")
    return g


def _check(g: Graph, n: int, m: int, degree: int, want_girth: int) -> Graph:
    ok = (
        g.n == n
        and g.m == m
        and all(len(g.adj[v]) == degree for v in range(n))
        and is_connected(g)
        and girth(g) == want_girth
    )
    if not ok:
        raise InternalConsistencyError("graph data failed its structural check")
    return g


@cache
def petersen() -> Graph:
    """Kneser graph of the 2-subsets of a 5-set, adjacency by disjointness."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[p], index[q])
        for p in pairs
        for q in pairs
        if p < q and not set(p) & set(q)
    ]
    return _check(Graph(10, edges), 10, 15, 3, 5)


@cache
def heawood() -> Graph:
    return _check(_lcf([5, -5], 7), 14, 21, 3, 6)


@cache
def mcgee() -> Graph:
    return _check(_lcf([12, 7, -7], 8), 24, 36, 3, 7)


@cache
def tutte_coxeter() -> Graph:
    return _check(_lcf([-13, -9, 7, -7, 9, 13], 5), 30, 45, 3, 8)


def _generalized_petersen(n: int, k: int) -> Graph:
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return Graph(2 * n, sorted({(min(u, v), max(u, v)) for u, v in edges}))


@cache
def dodecahedron() -> Graph:
    return _check(_generalized_petersen(10, 2), 20, 30, 3, 5)


@cache
def desargues() -> Graph:
    return _check(_generalized_petersen(10, 3), 20, 30, 3, 6)


@cache
def pappus() -> Graph:
    """Incidence graph of the nine points and nine non-vertical lines of AG(2,3)."""
    edges = []
    for a in range(3):
        for b in range(3):
            line = 9 + 3 * a + b
            for x in range(3):
                point = 3 * x + (a * x + b) % 3
                edges.append((point, line))
    return _check(Graph(18, edges), 18, 27, 3, 6)


_ROBERTSON_CHORDS = [
    (0, 4), (0, 7), (1, 9), (1, 12), (2, 6), (2, 14), (3, 8), (3, 11),
    (4, 15), (5, 13), (5, 17), (6, 10), (7, 16), (8, 13), (9, 17),
    (10, 15), (11, 18), (12, 16), (14, 18),
]


@cache
def robertson() -> Graph:
    """The unique 4-regular girth-5 graph on 19 vertices: a 19-cycle plus chords."""
    edges = [(i, (i + 1) % 19) for i in range(19)] + _ROBERTSON_CHORDS
    return _check(Graph(19, sorted({(min(u, v), max(u, v)) for u, v in edges})), 19, 38, 4, 5)


@cache
def hoffman_singleton() -> Graph:
    """Five pentagons and five pentagrams joined by the rule p(h,j) ~ q(i, hi+j mod 5)."""
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    g = Graph(50, sorted({(min(u, v), max(u, v)) for u, v in edges}))
    return _check(g, 50, 175, 7, 5)


def random_girth5(n: int, max_degree: int, seed: int = 0) -> Graph:
    """Random connected graph of girth at least 5 and bounded degree.

    Grows a random spanning tree, then sweeps the non-edges in random order,
    adding each one whose endpoints currently sit at distance at least 4 and
    below the degree cap. New cycles through an added edge have length at
    least 5, so the girth bound holds throughout. The tree keeps the graph
    connected, so a depth-3 neighborhood test decides each distance; the
    output is the one a full breadth-first search per candidate gave.
    """
    if max_degree < 1:
        raise PreconditionError("degree cap must be positive")
    base = random_tree(n, seed)
    if base.max_degree() > max_degree:
        # rebuild as a random path-like tree under the cap
        rng = random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        edges = []
        degree = [0] * n
        for i in range(1, n):
            spots = [v for v in order[:i] if degree[v] < max_degree]
            if not spots:
                raise PreconditionError("degree cap too small for a tree")
            parent = rng.choice(spots)
            edges.append((parent, order[i]))
            degree[parent] += 1
            degree[order[i]] += 1
        base = Graph(n, edges)
    rng = random.Random(seed + 1)
    adj = [set(ns) for ns in base.adj]
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]
    ]
    rng.shuffle(candidates)
    for u, v in candidates:
        if len(adj[u]) >= max_degree or len(adj[v]) >= max_degree:
            continue
        if _within_three(adj, u, v):
            continue
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def _within_three(adj: list[set[int]], u: int, v: int) -> bool:
    """True iff v is at distance at most 3 from u: O(Δ²) set probes.

    v is a neighbor of u, shares a neighbor with u, or is adjacent to a
    neighbor of a neighbor of u.
    """
    near_v = adj[v]
    return v in adj[u] or any(
        x in near_v or not near_v.isdisjoint(adj[x]) for x in adj[u]
    )


GENERATORS = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "star": (star, ("n",)),
    "random-tree": (random_tree, ("n", "seed")),
    "petersen": (petersen, ()),
    "heawood": (heawood, ()),
    "mcgee": (mcgee, ()),
    "tutte-coxeter": (tutte_coxeter, ()),
    "dodecahedron": (dodecahedron, ()),
    "desargues": (desargues, ()),
    "pappus": (pappus, ()),
    "robertson": (robertson, ()),
    "hoffman-singleton": (hoffman_singleton, ()),
    "random-girth5": (random_girth5, ("n", "max_degree", "seed")),
}


def generate(kind: str, n: int | None = None, max_degree: int | None = None,
             seed: int | None = None) -> Graph:
    """Build a named graph; unused parameters for the kind must stay unset."""
    if kind not in GENERATORS:
        raise PreconditionError(f"unknown graph kind {kind!r}")
    fn, wanted = GENERATORS[kind]
    given = {"n": n, "max_degree": max_degree, "seed": seed}
    args = {}
    for name in wanted:
        if given[name] is None:
            if name == "seed":
                continue
            raise PreconditionError(f"graph kind {kind!r} needs {name}")
        args[name] = given.pop(name)
    extras = [name for name, val in given.items() if val is not None and name not in wanted]
    if extras:
        raise PreconditionError(f"graph kind {kind!r} does not take {extras[0]}")
    return fn(**args)
