"""Exact symmetry machinery.

Backtracking search over vertex images with (color, degree, neighborhood
signature) pruning drives everything here: automorphism generators and exact
group order, the distinguishing-coloring verifier, pinned-image and
isomorphism searches, and the exhaustive search for the exact distinguishing
chromatic number, pruned by the automorphism group. Fixedness propagation replays the local certification rules
that the greedy constructions are built around.

``certify`` is the one certification path of every construction (``solve``,
Δ+2 and list): it checks the coloring once, lets propagation certify every
vertex from a sigma-prefix, and proves that prefix fixed by color refinement,
or failing that by the exact search.

All searches are deterministic: vertices and candidate images are always
scanned in ascending order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

from .coloring import Coloring
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    PropernessError,
    SearchBoundError,
)
from .graph import SEARCH_BOUND, Graph, distances, has_cycle_shorter_than_five
from .tree import BfsTree

EXACT_BOUND = 10

CERTIFICATE_PROPAGATION = "propagation"
CERTIFICATE_SEARCH = "search"


@dataclass(frozen=True)
class Permutation:
    """A bijection of vertex ids, stored as its image tuple."""

    image: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __len__(self) -> int:
        return len(self.image)

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


def _check_bound(g: Graph) -> None:
    if g.n > SEARCH_BOUND:
        raise SearchBoundError(f"graph has {g.n} vertices, search bound is {SEARCH_BOUND}")


def _wl_rounds(g: Graph, base: list[object]) -> Iterator[list[int]]:
    """Iterated neighborhood refinement of one graph's vertex labels.

    Yields the labels of every round: first (base label, degree), then each
    refinement, ending with the first round that splits no class. Vertices
    with different labels in any round cannot correspond under any
    automorphism that preserves the base labels.

    The first refinement round also carries distances. When some round-0
    label is held by one vertex alone, the vertex with the least such label
    is fixed by every label-preserving map, so its BFS distances are
    invariant; they are folded into the labels before the round. The stable
    partition already refines them, so it is the one plain refinement
    reaches, in fewer rounds: at most three on a path or cycle with a unique
    color, against about half its length.
    """
    table: dict[object, int] = {}

    def canon(key: object) -> int:
        val = table.get(key)
        if val is None:
            val = table[key] = len(table)
        return val

    labels = [canon((base[v], len(g.adj[v]))) for v in range(g.n)]
    yield labels
    # every round-0 label is an id below len(table)
    sizes = [0] * len(table)
    for l in labels:
        sizes[l] += 1
    if 1 in sizes:
        dist = distances(g, labels.index(sizes.index(1)))
        labels = [canon((l, d)) for l, d in zip(labels, dist)]
    classes = len(set(labels))
    while True:
        labels = [
            canon((labels[v], tuple(sorted(labels[u] for u in g.adj[v]))))
            for v in range(g.n)
        ]
        yield labels
        before, classes = classes, len(set(labels))
        if classes == before:
            return


def _wl_labels(g: Graph, base: list[object]) -> list[int]:
    """The stable round of ``_wl_rounds``: labels of the coarsest equitable
    partition that refines (base label, degree)."""
    for labels in _wl_rounds(g, base):
        pass
    return labels


def prefix_is_fixed(g: Graph, coloring: Coloring, vertices: Iterable[int]) -> bool:
    """True when refinement seeded by the coloring isolates every given vertex.

    Refinement classes are invariant under color-preserving automorphisms, so
    a vertex alone in its class is fixed by all of them. When no other vertex
    holds the color of any given vertex (a Δ+2 or list root), round 0's
    (color, degree) labels would already isolate them all, so the answer is
    True with no labels built. Otherwise refinement stops at the first round
    that isolates every vertex. A color held by one vertex brings in
    distances from it with the first refinement round, and a path or cycle
    with such a color is settled in at most three rounds instead of about
    half its length. False once refinement is stable without isolating every
    vertex, which proves nothing either way.
    """
    if len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    targets = set(vertices)
    values = coloring.values
    sizes = Counter(values)
    if all(sizes[values[v]] == 1 for v in targets):
        return True
    for labels in _wl_rounds(g, list(values)):
        sizes = Counter(labels)
        if all(sizes[labels[v]] == 1 for v in targets):
            return True
    return False


def _candidate_lists(label_g: list[int], label_h: list[int]) -> list[list[int]]:
    by_label: dict[int, list[int]] = {}
    for u, l in enumerate(label_h):
        by_label.setdefault(l, []).append(u)
    return [list(by_label.get(l, ())) for l in label_g]


def _search(
    g: Graph, h: Graph, order: list[int], cand: list[list[int]]
) -> Iterator[tuple[int, ...]]:
    """Yield every label- and adjacency-consistent bijection g -> h.

    ``cand[v]`` lists the images v may take; a pin is a one-element list.
    Vertices are assigned along ``order`` with candidate images ascending, so
    with order = 0..n-1 the image tuples come out in lexicographic order.
    """
    n = g.n
    hbits = h.neighbor_masks
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


def _connected_order(g: Graph, start: int) -> list[int]:
    """BFS order from ``start``, then from each unreached vertex in ascending
    order, so each new vertex of a component has an assigned neighbor.

    The order itself is the queue: O(n + m).
    """
    order: list[int] = []
    seen = [False] * g.n
    head = 0
    for s in (start, *range(g.n)):
        if not seen[s]:
            seen[s] = True
            order.append(s)
        while head < len(order):
            for u in g.adj[order[head]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
            head += 1
    return order


def _auto_candidates(g: Graph, coloring: Coloring | None) -> list[list[int]]:
    base: list[object] = (
        list(coloring.values) if coloring is not None else [0] * g.n
    )
    labels = _wl_labels(g, base)
    return _candidate_lists(labels, labels)


def _assert_automorphism(g: Graph, f: Permutation, coloring: Coloring | None) -> None:
    # replay check on every return; cheap insurance against search bugs
    if not f.preserves_adjacency(g):
        raise InternalConsistencyError("search returned a non-automorphism")
    if coloring is not None and not f.preserves_coloring(coloring):
        raise InternalConsistencyError("search returned a color-breaking map")


def automorphisms(
    g: Graph, coloring: Coloring | None = None
) -> tuple[list[Permutation], int]:
    """Generators and exact order of the (color-preserving) automorphism group.

    Order comes from orbit-stabilizer counting along the base 0, 1, ..., n-1:
    the orbit of each base point under the stabilizer of its predecessors is
    found by pinned searches, and the group order is the product of orbit
    sizes. The returned generators are the witnesses those searches found.
    """
    _check_bound(g)
    if coloring is not None and len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    cand = _auto_candidates(g, coloring)
    gens: list[Permutation] = []
    order = 1
    for b in range(g.n):
        orbit = {b}
        level_gens: list[Permutation] = []
        for u in cand[b]:
            if u == b or u in orbit:
                continue
            pinned = [[v] for v in range(b)] + [[u]] + cand[b + 1:]
            found = next(_search(g, g, list(range(g.n)), pinned), None)
            if found is None:
                continue
            f = Permutation(found)
            _assert_automorphism(g, f, coloring)
            level_gens.append(f)
            orbit = _orbit(b, level_gens)
        order *= len(orbit)
        gens.extend(level_gens)
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


def is_distinguishing(g: Graph, coloring: Coloring) -> SymmetryVerdict:
    """Decide whether only the identity automorphism preserves the coloring.

    The witness on failure is the lexicographically least non-identity
    color-preserving automorphism, for reproducible failure messages.
    """
    _check_bound(g)
    if len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    if not coloring.is_total():
        raise PropernessError("coloring is not total")
    if not coloring.is_proper(g):
        raise PropernessError("coloring is not proper")
    return _search_verdict(g, coloring)


def _search_verdict(g: Graph, coloring: Coloring) -> SymmetryVerdict:
    """``is_distinguishing`` without its checks, for ``certify``.

    The caller has checked the bound and that the coloring is total and
    proper.
    """
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


# No library code calls this; the benchmark tracer (benchmarks/tracing.py) wraps it.
def exists_automorphism_mapping(g: Graph, u: int, v: int) -> bool:
    """True iff some automorphism of g maps u to v."""
    _check_bound(g)
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise PreconditionError("vertex out of range")
    if u == v:
        return True
    cand = _auto_candidates(g, None)
    if v not in cand[u]:
        return False
    cand[u] = [v]
    found = next(_search(g, g, _connected_order(g, u), cand), None)
    if found is None:
        return False
    _assert_automorphism(g, Permutation(found), None)
    return True


def find_isomorphism(g: Graph, h: Graph) -> Permutation | None:
    """A vertex bijection g -> h preserving adjacency, or None.

    Short-circuits on vertex and edge count. Otherwise refines the disjoint
    union g ⊔ h, with h's vertices shifted by n: a vertex of g may map only
    to a vertex of h with its stable label, and isomorphic graphs hold every
    label equally often. Round 0 labels by degree, so differing degree
    sequences end here too. The search then starts at the vertex of g with
    the fewest candidates.
    """
    _check_bound(g)
    _check_bound(h)
    n = g.n
    if n != h.n or g.m != h.m:
        return None
    union = Graph(2 * n, g.edges() + [(u + n, v + n) for u, v in h.edges()])
    labels = _wl_labels(union, [0] * (2 * n))
    label_g, label_h = labels[:n], labels[n:]
    if sorted(label_g) != sorted(label_h):
        return None
    cand = _candidate_lists(label_g, label_h)
    rarest = min(range(n), key=lambda v: (len(cand[v]), v)) if n else 0
    order = _connected_order(g, rarest) if n else []
    found = next(_search(g, h, order, cand), None)
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

    Both rules are monotone (certifying more never disables one), so the
    result is their least fixpoint whatever the order they fire in. A
    worklist re-applies them only where a new certification changes their
    inputs: a newly certified x re-examines itself and its certified
    neighbors one level up, except the one whose second rule certified x,
    where the loss of x leaves no color unique. O(m * max degree) after the
    O(n + m) input checks.
    """
    if has_cycle_shorter_than_five(g):
        raise PreconditionError("girth below five")
    if len(coloring) != g.n or len(tree.order) != g.n:
        raise PreconditionError("graph, tree and coloring sizes disagree")
    if not coloring.is_total():
        raise PropernessError("coloring is not total")
    if not coloring.is_proper(g):
        raise PropernessError("coloring is not proper")
    prefix = set(fixed_prefix)
    if not prefix:
        raise PreconditionError("fixed_prefix is empty")
    if prefix != set(tree.order[: len(prefix)]):
        raise PreconditionError("fixed_prefix is not a sigma-prefix")
    return _propagate(g, tree, coloring, prefix)


def certify(
    g: Graph,
    tree: BfsTree,
    coloring: Coloring,
    prefix: Iterable[int] | None = None,
) -> tuple[tuple[int, ...], str]:
    """Prove a constructed coloring distinguishing: the prefix and certificate kind.

    The coloring must be total and proper. Propagation must then certify
    every vertex from ``prefix``, a sigma-prefix of ``tree``; with no prefix
    given, the shortest one that does is used. Propagation assumes the prefix
    is fixed. When color refinement isolates every prefix vertex, every
    color-preserving automorphism fixes the prefix, and with it the root and
    so the BFS levels; propagation's rules are then sound and only the
    identity is left (``"propagation"``). Otherwise the exact search decides,
    under its vertex bound (``"search"``). The caller has checked the girth.
    The inputs come from the library's own constructions, so a failed check
    is an InternalConsistencyError; only the search's bound raises
    SearchBoundError.
    """
    if len(coloring) != g.n or len(tree.order) != g.n:
        raise InternalConsistencyError("graph, tree and coloring sizes disagree")
    if not coloring.is_total():
        raise InternalConsistencyError("coloring is not total")
    if not coloring.is_proper(g):
        raise InternalConsistencyError("coloring is not proper")
    if prefix is None:
        for end in range(1, g.n + 1):
            if len(_propagate(g, tree, coloring, tree.order[:end])) == g.n:
                prefix = tree.order[:end]
                break
        else:
            raise InternalConsistencyError("no prefix certifies the coloring")
    else:
        prefix = tuple(prefix)
        if (
            set(prefix) != set(tree.order[: len(prefix)])
            or len(_propagate(g, tree, coloring, prefix)) != g.n
        ):
            raise InternalConsistencyError(
                "the stated prefix does not certify every vertex"
            )
    if prefix_is_fixed(g, coloring, prefix):
        return prefix, CERTIFICATE_PROPAGATION
    _check_bound(g)
    if _search_verdict(g, coloring).distinguishing:
        return prefix, CERTIFICATE_SEARCH
    raise InternalConsistencyError(
        "coloring preserved by a non-identity automorphism"
    )


def _propagate(
    g: Graph,
    tree: BfsTree,
    coloring: Coloring,
    prefix: Iterable[int],
) -> frozenset[int]:
    """``fixed_propagation`` without its checks, for ``certify``.

    ``prefix`` must be a sigma-prefix without repeats, and the coloring total
    and proper. A worklist of newly certified vertices, each remembering the
    vertex that certified it (none for the prefix); see ``fixed_propagation``.
    """
    # Popping a newly certified x counts it at its neighbors (rule 1) and
    # re-examines, for rule 2, x itself and each certified neighbor one level
    # up, whose uncertified lower neighbors just lost x. The one exception is
    # x's certifier y, whose lower set already went without x when y was last
    # examined:
    # - rule 2: the examination of y that certified x took every uniquely
    #   colored vertex out of y's lower set at once, so each color left there
    #   is held at least twice and losing x makes none unique;
    # - rule 1: the pop of y that completed x's count examined y itself after
    #   its adjacency loop, so that examination saw y's lower set without x.
    # Any other vertex that leaves that set later has another certifier or
    # none, and its own pop re-examines y.
    colors = coloring.values
    level = tree.level
    adj = g.adj
    certified = [False] * g.n
    hits = [0] * g.n
    certifier = [-1] * g.n
    work = list(prefix)
    for v in work:
        certified[v] = True
    while work:
        x = work.pop()
        up = level[x] - 1
        skip = certifier[x]
        examine = [x]
        for u in adj[x]:
            if certified[u]:
                if level[u] == up and u != skip:
                    examine.append(u)
            else:
                hits[u] += 1
                if hits[u] == 2:
                    certified[u] = True
                    certifier[u] = x
                    work.append(u)
        for y in examine:
            down = level[y] + 1
            below = [u for u in adj[y] if not certified[u] and level[u] == down]
            if not below:
                continue
            if len(below) == 1:
                unique = below
            else:
                counts: dict[int, int] = {}
                for u in below:
                    c = colors[u]
                    counts[c] = counts.get(c, 0) + 1
                unique = [u for u in below if counts[colors[u]] == 1]
            for u in unique:
                certified[u] = True
                certifier[u] = y
                work.append(u)
    return frozenset(compress(range(g.n), certified))


def exact_chi_D(g: Graph) -> int:
    """Exact distinguishing chromatic number by exhaustive search.

    Enumerates, for k = 1, 2, ..., the proper colorings with exactly k colors
    in canonical form (color c appears before color c+1), which is enough
    because renaming colors changes neither properness nor the set of
    color-preserving automorphisms. The automorphism group is computed once,
    and only colorings it does not already rule out reach the exact search:

    * twins (vertices with equal neighbor sets) are swapped by an
      automorphism that fixes everything else, so the enumeration treats them
      like edges and never generates a coloring that gives them one color;
    * a coloring preserved by one of the group's generators, which are never
      the identity, is rejected;
    * when the group is trivial, the first proper coloring is distinguishing.

    Each rule rejects only colorings that some non-identity automorphism
    preserves, so the value is the one plain enumeration gives. Exponential;
    intended as a test oracle for graphs with at most ten vertices.
    """
    if g.n > EXACT_BOUND:
        raise SearchBoundError(f"graph has {g.n} vertices, exact bound is {EXACT_BOUND}")
    if g.n == 0:
        raise PreconditionError("empty graph")
    gens, order = automorphisms(g)
    for k in range(1, g.n + 1):
        for values in _unruled_colorings(g, k, gens):
            if order == 1 or _search_verdict(g, Coloring(values)).distinguishing:
                return k
    raise InternalConsistencyError("no distinguishing coloring found")


def _unruled_colorings(
    g: Graph, k: int, gens: list[Permutation]
) -> Iterator[tuple[int, ...]]:
    """Canonical proper colorings with exactly k colors that give twins
    different colors and that no generator in ``gens`` preserves."""
    n = g.n
    nbrs = g.neighbor_sets
    # earlier neighbors and twins of each vertex: the colors it must avoid
    apart = [
        [u for u in range(v) if u in nbrs[v] or nbrs[u] == nbrs[v]]
        for v in range(n)
    ]
    images = [f.image for f in gens]
    values = [0] * n

    def rgs(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            if used == k and not any(
                all(values[u] == c for u, c in zip(image, values)) for image in images
            ):
                yield tuple(values)
            return
        for c in range(1, min(used + 1, k) + 1):
            if any(values[u] == c for u in apart[v]):
                continue
            values[v] = c
            yield from rgs(v + 1, max(used, c))

    yield from rgs(0, 0)
