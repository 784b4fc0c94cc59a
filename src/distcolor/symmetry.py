"""Exact symmetry machinery.

Backtracking search over vertex images with (color, degree, neighborhood
signature) pruning drives everything here: automorphism generators and exact
group order, the distinguishing-coloring verifier, pinned-image and
isomorphism searches, and the brute-force oracle for the exact distinguishing
chromatic number. Fixedness propagation replays the local certification rules
that the greedy constructions are built around.

All searches are deterministic: vertices and candidate images are always
scanned in ascending order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .coloring import Coloring
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    PropernessError,
    SearchBoundError,
)
from .graph import Graph, has_cycle_shorter_than_five
from .tree import BfsTree

SEARCH_BOUND = 128
EXACT_BOUND = 10


@dataclass(frozen=True)
class Permutation:
    """A bijection of vertex ids, stored as its image tuple."""

    image: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __len__(self) -> int:
        return len(self.image)

    def is_identity(self) -> bool:
        return all(u == v for v, u in enumerate(self.image))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for v, u in enumerate(self.image):
            inv[u] = v
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: v -> self(other(v))."""
        return Permutation(tuple(self.image[u] for u in other.image))

    def preserves_adjacency(self, g: Graph, h: Graph | None = None) -> bool:
        h = h if h is not None else g
        if len(self.image) != g.n or sorted(self.image) != list(range(h.n)):
            return False
        if g.m != h.m:
            return False
        return all(h.has_edge(self.image[u], self.image[v]) for u, v in g.edges())

    def preserves_coloring(self, coloring: Coloring) -> bool:
        return all(coloring[u] == coloring[v] for v, u in enumerate(self.image))

    def render(self) -> str:
        """One ``u -> v`` line per vertex, 1-indexed."""
        return "\n".join(f"{v + 1} -> {u + 1}" for v, u in enumerate(self.image)) + "\n"


@dataclass(frozen=True)
class SymmetryVerdict:
    distinguishing: bool
    witness: Permutation | None

    def __post_init__(self) -> None:
        if self.distinguishing != (self.witness is None):
            raise InternalConsistencyError("verdict and witness disagree")


def _check_bound(g: Graph, max_vertices: int) -> None:
    if g.n > max_vertices:
        raise SearchBoundError(f"graph has {g.n} vertices, search bound is {max_vertices}")


def _wl_labels(graphs: list[Graph], bases: list[list[object]]) -> list[list[int]]:
    """Iterated neighborhood refinement, canonical across all given graphs.

    Vertices with different labels cannot correspond under any isomorphism
    that preserves the base labels.
    """
    table: dict[object, int] = {}

    def canon(key: object) -> int:
        val = table.get(key)
        if val is None:
            val = table[key] = len(table)
        return val

    labels = [
        [canon((base[v], len(g.adj[v]))) for v in range(g.n)]
        for g, base in zip(graphs, bases)
    ]
    while True:
        before = len({l for ls in labels for l in ls})
        labels = [
            [
                canon((ls[v], tuple(sorted(ls[u] for u in g.adj[v]))))
                for v in range(g.n)
            ]
            for g, ls in zip(graphs, labels)
        ]
        after = len({l for ls in labels for l in ls})
        if after == before:
            return labels


def _candidate_lists(label_g: list[int], label_h: list[int]) -> list[list[int]]:
    by_label: dict[int, list[int]] = {}
    for u, l in enumerate(label_h):
        by_label.setdefault(l, []).append(u)
    return [list(by_label.get(l, ())) for l in label_g]


def _bitmasks(g: Graph) -> list[int]:
    return [sum(1 << u for u in ns) for ns in g.adj]


def _search(
    g: Graph,
    h: Graph,
    order: list[int],
    cand: list[list[int]],
    pins: dict[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every label- and adjacency-consistent bijection g -> h.

    Vertices are assigned along ``order`` with candidate images ascending, so
    with order = 0..n-1 the image tuples come out in lexicographic order.
    """
    n = g.n
    if pins:
        cand = list(cand)
        for v, u in pins.items():
            cand[v] = [u] if u in cand[v] else []
    hbits = _bitmasks(h)
    f = [-1] * n
    req = [0] * n
    used = 0
    adj = g.adj

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        nonlocal used
        if i == n:
            yield tuple(f)
            return
        v = order[i]
        req_v = req[v]
        for u in cand[v]:
            if used >> u & 1:
                continue
            # images of v's assigned neighbors must be exactly the assigned
            # neighbors of u; this checks adjacency and non-adjacency at once
            if hbits[u] & used != req_v:
                continue
            f[v] = u
            used |= 1 << u
            bit = 1 << u
            for w in adj[v]:
                if f[w] < 0:
                    req[w] |= bit
            yield from rec(i + 1)
            f[v] = -1
            used &= ~bit
            for w in adj[v]:
                if f[w] < 0:
                    req[w] &= ~bit
    yield from rec(0)


def _connected_order(g: Graph, starts: Iterable[int]) -> list[int]:
    """BFS order from ``starts`` so each new vertex has an assigned neighbor."""
    seen: list[int] = []
    in_seen = [False] * g.n
    queue: list[int] = []
    for s in list(starts) + list(range(g.n)):
        if in_seen[s]:
            continue
        in_seen[s] = True
        queue.append(s)
        while queue:
            v = queue.pop(0)
            seen.append(v)
            for u in g.adj[v]:
                if not in_seen[u]:
                    in_seen[u] = True
                    queue.append(u)
    return seen


def _auto_candidates(g: Graph, coloring: Coloring | None) -> list[list[int]]:
    base: list[object] = (
        list(coloring.values) if coloring is not None else [0] * g.n
    )
    labels = _wl_labels([g], [base])[0]
    return _candidate_lists(labels, labels)


def _assert_automorphism(g: Graph, f: Permutation, coloring: Coloring | None) -> None:
    # replay check on every return; cheap insurance against search bugs
    if not f.preserves_adjacency(g):
        raise InternalConsistencyError("search returned a non-automorphism")
    if coloring is not None and not f.preserves_coloring(coloring):
        raise InternalConsistencyError("search returned a color-breaking map")


def automorphisms(
    g: Graph,
    coloring: Coloring | None = None,
    max_vertices: int = SEARCH_BOUND,
) -> tuple[list[Permutation], int]:
    """Generators and exact order of the (color-preserving) automorphism group.

    Order comes from orbit-stabilizer counting along the base 0, 1, ..., n-1:
    the orbit of each base point under the stabilizer of its predecessors is
    found by pinned searches, and the group order is the product of orbit
    sizes. The returned generators are the witnesses those searches found.
    """
    _check_bound(g, max_vertices)
    if coloring is not None and len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    cand = _auto_candidates(g, coloring)
    gens: list[Permutation] = []
    order = 1
    pins: dict[int, int] = {}
    for b in range(g.n):
        orbit = {b}
        level_gens: list[Permutation] = []
        for u in cand[b]:
            if u == b or u in orbit:
                continue
            found = next(iter(_search(g, g, list(range(g.n)), cand, {**pins, b: u})), None)
            if found is None:
                continue
            f = Permutation(found)
            _assert_automorphism(g, f, coloring)
            level_gens.append(f)
            orbit = _orbit(b, level_gens)
        order *= len(orbit)
        gens.extend(level_gens)
        pins[b] = b
    return gens, order


def _orbit(point: int, gens: list[Permutation]) -> set[int]:
    orbit = {point}
    queue = [point]
    while queue:
        p = queue.pop()
        for f in gens:
            q = f(p)
            if q not in orbit:
                orbit.add(q)
                queue.append(q)
    return orbit


def enumerate_automorphisms(
    g: Graph,
    coloring: Coloring | None = None,
    max_vertices: int = SEARCH_BOUND,
) -> list[Permutation]:
    """Every (color-preserving) automorphism, in lexicographic order.

    Exponential in the group size; meant as a test oracle on small graphs.
    """
    _check_bound(g, max_vertices)
    cand = _auto_candidates(g, coloring)
    out = []
    for image in _search(g, g, list(range(g.n)), cand):
        f = Permutation(image)
        _assert_automorphism(g, f, coloring)
        out.append(f)
    return out


def is_distinguishing(
    g: Graph,
    coloring: Coloring,
    max_vertices: int = SEARCH_BOUND,
) -> SymmetryVerdict:
    """Decide whether only the identity automorphism preserves the coloring.

    The witness on failure is the lexicographically least non-identity
    color-preserving automorphism, for reproducible failure messages.
    """
    _check_bound(g, max_vertices)
    if len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    if not coloring.is_total():
        raise PropernessError("coloring is not total")
    if not coloring.is_proper(g):
        raise PropernessError("coloring is not proper")
    cand = _auto_candidates(g, coloring)
    if all(c == [v] for v, c in enumerate(cand)):
        return SymmetryVerdict(True, None)
    identity = tuple(range(g.n))
    for image in _search(g, g, list(range(g.n)), cand):
        if image == identity:
            continue
        f = Permutation(image)
        _assert_automorphism(g, f, coloring)
        return SymmetryVerdict(False, f)
    return SymmetryVerdict(True, None)


def exists_automorphism_mapping(
    g: Graph,
    u: int,
    v: int,
    max_vertices: int = SEARCH_BOUND,
) -> bool:
    """True iff some automorphism of g maps u to v."""
    _check_bound(g, max_vertices)
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise PreconditionError("vertex out of range")
    if u == v:
        return True
    cand = _auto_candidates(g, None)
    if v not in cand[u]:
        return False
    order = _connected_order(g, [u])
    found = next(iter(_search(g, g, order, cand, {u: v})), None)
    if found is None:
        return False
    _assert_automorphism(g, Permutation(found), None)
    return True


def is_vertex_transitive(g: Graph, max_vertices: int = SEARCH_BOUND) -> bool:
    """True iff the orbit of vertex 0 under the automorphism group is V(g)."""
    _check_bound(g, max_vertices)
    if g.n <= 1:
        return True
    degs = {len(ns) for ns in g.adj}
    if len(degs) > 1:
        return False
    cand = _auto_candidates(g, None)
    orbit = {0}
    gens: list[Permutation] = []
    for u in range(1, g.n):
        if u in orbit:
            continue
        if u not in cand[0]:
            return False
        found = next(iter(_search(g, g, _connected_order(g, [0]), cand, {0: u})), None)
        if found is None:
            return False
        f = Permutation(found)
        _assert_automorphism(g, f, None)
        gens.append(f)
        orbit = _orbit(0, gens)
    return len(orbit) == g.n


def find_isomorphism(
    g: Graph,
    h: Graph,
    max_vertices: int = SEARCH_BOUND,
) -> Permutation | None:
    """A vertex bijection g -> h preserving adjacency, or None.

    Short-circuits on vertex count and degree sequence before searching.
    """
    _check_bound(g, max_vertices)
    _check_bound(h, max_vertices)
    if g.n != h.n or g.m != h.m:
        return None
    if sorted(len(ns) for ns in g.adj) != sorted(len(ns) for ns in h.adj):
        return None
    label_g, label_h = _wl_labels([g, h], [[0] * g.n, [0] * h.n])
    if sorted(label_g) != sorted(label_h):
        return None
    cand = _candidate_lists(label_g, label_h)
    rarest = min(range(g.n), key=lambda v: (len(cand[v]), v)) if g.n else 0
    order = _connected_order(g, [rarest]) if g.n else []
    found = next(iter(_search(g, h, order, cand)), None)
    if found is None:
        return None
    f = Permutation(found)
    if not f.preserves_adjacency(g, h):
        raise InternalConsistencyError("search returned a non-isomorphism")
    return f


def fixed_propagation(
    g: Graph,
    tree: BfsTree,
    coloring: Coloring,
    fixed_prefix: Iterable[int],
) -> frozenset[int]:
    """Certify vertices that every color-preserving automorphism must fix.

    Starting from a trusted sigma-prefix, two sound rules run to a fixpoint:

    * a vertex with two certified neighbors is their unique common neighbor
      (girth at least 5) and is certified;
    * for a certified vertex x, any uncertified neighbor one level below x
      whose color is unique among those neighbors is certified (the root is
      always in the prefix, so color-preserving automorphisms preserve levels
      and map that set to itself).

    Sufficient, not necessary: an empty gain is not a proof of symmetry. If
    the prefix really is fixed and all vertices end up certified, the coloring
    is distinguishing.
    """
    if len(coloring) != g.n or len(tree.order) != g.n:
        raise PreconditionError("graph, tree and coloring sizes disagree")
    if not coloring.is_total():
        raise PropernessError("coloring is not total")
    if not coloring.is_proper(g):
        raise PropernessError("coloring is not proper")
    if has_cycle_shorter_than_five(g):
        raise PreconditionError("girth below five")
    prefix = list(fixed_prefix)
    if not prefix:
        raise PreconditionError("fixed_prefix is empty")
    if set(prefix) != set(tree.order[: len(set(prefix))]):
        raise PreconditionError("fixed_prefix is not a sigma-prefix")

    colors = coloring.values
    level = tree.level
    certified = set(prefix)
    changed = True
    while changed:
        changed = False
        for v in tree.order:
            if v in certified:
                continue
            hits = 0
            for u in g.adj[v]:
                if u in certified:
                    hits += 1
                    if hits == 2:
                        break
            if hits >= 2:
                certified.add(v)
                changed = True
        for x in tree.order:
            if x not in certified:
                continue
            below = [
                u
                for u in g.adj[x]
                if u not in certified and level[u] == level[x] + 1
            ]
            if not below:
                continue
            counts = Counter(colors[u] for u in below)
            for y in below:
                if counts[colors[y]] == 1:
                    certified.add(y)
                    changed = True
    return frozenset(certified)


def exact_chi_D(g: Graph, max_vertices: int = EXACT_BOUND) -> int:
    """Exact distinguishing chromatic number by exhaustive search.

    Enumerates proper colorings in canonical form (color c appears before
    color c+1), which is enough because renaming colors changes neither
    properness nor the set of color-preserving automorphisms. Exponential;
    intended as a test oracle for graphs with at most ten vertices.
    """
    if g.n > max_vertices:
        raise SearchBoundError(f"graph has {g.n} vertices, exact bound is {max_vertices}")
    if g.n == 0:
        raise PreconditionError("empty graph")
    values = [0] * g.n

    def rgs(v: int, used: int, k: int) -> Iterator[tuple[int, ...]]:
        if v == g.n:
            if used == k:
                yield tuple(values)
            return
        limit = min(used + 1, k)
        for c in range(1, limit + 1):
            if any(values[u] == c for u in g.adj[v] if u < v):
                continue
            values[v] = c
            yield from rgs(v + 1, max(used, c), k)
            values[v] = 0

    for k in range(1, g.n + 1):
        for assignment in rgs(0, 0, k):
            if is_distinguishing(g, Coloring(assignment, k)).distinguishing:
                return k
    raise InternalConsistencyError("no distinguishing coloring found")
