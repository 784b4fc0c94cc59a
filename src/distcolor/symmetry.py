"""Exact symmetry machinery.

Backtracking search over vertex images with (color, degree, neighborhood
signature) pruning drives everything here: automorphism generators and exact
group order, the distinguishing-coloring verifier, pinned-image and
isomorphism searches, and the exhaustive search for the exact distinguishing
chromatic number, pruned by the automorphism group. Fixedness propagation replays the local certification rules
that the greedy constructions are built around.

``certify`` is the one certification path of every construction (``solve``,
Δ+2 and list): it checks the coloring once, finds in one propagation pass the
shortest sigma-prefix from which propagation certifies every vertex, and
proves that prefix fixed by color refinement seeded by the coloring. There is
no search fallback: a prefix that refinement leaves unfixed is a bug.

All searches are deterministic: vertices and candidate images are always
scanned in ascending order, except that ``automorphisms`` takes its base
points from the last vertex down.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .coloring import Coloring
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    PropernessError,
    SearchBoundError,
)
from .graph import SEARCH_BOUND, Graph, _bfs_levels, has_cycle_shorter_than_five
from .tree import BfsTree

EXACT_BOUND = 10


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
    refinement, ending with the first discrete round (every vertex alone in
    its class) or else the first round that splits no class. Vertices with
    different labels in any round cannot correspond under any automorphism
    that preserves the base labels, so a discrete round already shows that
    the identity is the only one, and no round after it can say more.

    When some round-0 label is held by one vertex alone, the vertex with the
    least such label is fixed by every label-preserving map, so its BFS
    distances are invariant. They are folded into the labels as a round of
    their own, before the first refinement round. The stable partition
    already refines them, so it is the one plain refinement reaches, in
    fewer rounds: a path with a unique color at one end is discrete after
    the fold, against about half its length.

    A round means its partition, not its label values. Round 0 takes dense
    ids from one pass over the (base label, degree) pairs. The fold packs
    each (label, distance) pair into one integer, top + label·(n+1) +
    distance, where top is the round-0 class count, so every fold label
    lies above every round-0 id; a vertex the BFS does not reach counts as
    distance n. No pair needs a table entry. Each refinement round numbers
    its own (label, sorted neighbor labels) keys 0…k−1 in a table of its
    own, whose size k is the round's class count; the table dies with the
    round, so refinement holds O(n + m) at any round count (4.1 MB instead of
    27 MB on the ``solve`` coloring of a 20000-vertex random tree, 9
    rounds, when one table served every round).
    """
    n = g.n
    adj = g.adj
    table: dict[object, int] = {}
    ids = table.setdefault
    labels = [ids(key, len(table)) for key in zip(base, map(len, adj))]
    yield labels
    # every round-0 label is an id below len(table)
    classes = len(table)
    if classes == n:
        return
    sizes = [0] * classes
    for l in labels:
        sizes[l] += 1
    if 1 in sizes:
        dist = _bfs_levels(adj, labels.index(sizes.index(1)), n)
        step = n + 1
        labels = [classes + l * step + d for l, d in zip(labels, dist)]
        yield labels
        classes = len(set(labels))
        if classes == n:
            return
    while True:
        table = {}
        ids = table.setdefault
        labels = [
            ids((labels[v], tuple(sorted(labels[u] for u in adj[v]))), len(table))
            for v in range(n)
        ]
        yield labels
        before, classes = classes, len(table)
        if classes in (before, n):
            return


def _wl_labels(g: Graph, base: list[object]) -> list[int]:
    """The last round of ``_wl_rounds``: labels of the coarsest equitable
    partition that refines (base label, degree), or of a discrete partition
    reached first, which that equitable partition would equal."""
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
    distances from it as a round of their own, right after round 0; on the
    ``solve`` coloring of a path that round is already discrete, against
    about half its length in plain rounds. False once refinement is stable
    without isolating every vertex, which proves nothing either way.

    Each test, on the colors and on each round's labels, is one pass over
    the labels that counts the vertices holding a label of a given vertex:
    O(n) whatever the number of given vertices.
    """
    if len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    targets = set(vertices)
    values = coloring.values
    if _isolates(values, targets):
        return True
    for labels in _wl_rounds(g, list(values)):
        if _isolates(labels, targets):
            return True
    return False


def _isolates(labels: Sequence[object], targets: set[int]) -> bool:
    """True when each vertex of ``targets`` holds a label no other vertex
    holds. Every label in ``held`` is held at least once, so the vertices
    holding one number len(held) only when each is held by one vertex
    alone, a target that then shares it with no other target."""
    held = {labels[v] for v in targets}
    return sum(map(held.__contains__, labels)) == len(held)


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

    Orbit-stabilizer counting along the base 0, 1, ..., n-1, walked from its
    deepest point n-1 up to 0. Let G_b be the stabilizer of 0, ..., b-1 and
    G_n the trivial group. Every generator found at a deeper point c > b
    fixes 0, ..., c-1, so it lies in G_b, and the ones found so far generate
    G_{b+1}. The orbit of b under G_b is grown under all of them: a pinned
    search starts only for a candidate image u > b that is not yet in that
    orbit (an image below b is pinned to itself), and each witness it finds
    becomes a generator and grows the orbit. The group order is the product
    of the orbit sizes, and the witnesses generate the whole group.
    """
    _check_bound(g)
    if coloring is not None and len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    labels = _wl_labels(g, list(coloring.values) if coloring is not None else [0] * g.n)
    cand = _candidate_lists(labels, labels)
    gens: list[Permutation] = []
    order = 1
    for b in range(g.n - 1, -1, -1):
        # the deeper generators all fix b, so its orbit starts alone
        orbit = {b}
        for u in cand[b]:
            if u <= b or u in orbit:
                continue
            pinned = [[v] for v in range(b)] + [[u]] + cand[b + 1:]
            found = next(_search(g, g, list(range(g.n)), pinned), None)
            if found is None:
                continue
            f = Permutation(found)
            _assert_automorphism(g, f, coloring)
            gens.append(f)
            orbit = _orbit(b, gens)
        order *= len(orbit)
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
    """``is_distinguishing`` without its checks, for it and ``exact_chi_D``.

    The caller has checked the bound and that the coloring is total and
    proper.
    """
    labels = _wl_labels(g, list(coloring.values))
    if len(set(labels)) == g.n:
        # discrete: every vertex is alone in its class, so fixed by every
        # color-preserving automorphism
        return SymmetryVerdict(True, None)
    cand = _candidate_lists(labels, labels)
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
    """True iff some automorphism of g maps u to v: v lies in u's orbit under
    the generators of ``automorphisms``."""
    _check_bound(g)
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise PreconditionError("vertex out of range")
    return v in _orbit(u, automorphisms(g)[0])


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
    certified, _ = _propagate(g, tree, coloring, tree.order[: len(prefix)])
    return frozenset(compress(range(g.n), certified))


def certify(g: Graph, tree: BfsTree, coloring: Coloring) -> tuple[int, ...]:
    """Prove a constructed coloring distinguishing; return the prefix it rests on.

    The coloring must be total and proper. One propagation pass takes sigma
    vertices of ``tree`` as prefix vertices, one more each time the rules
    stall, until every vertex is certified; the vertices it took form the
    shortest sigma-prefix from which propagation certifies everything.
    Propagation assumes the prefix is fixed. Color refinement seeded by the
    coloring must then isolate every prefix vertex: every color-preserving
    automorphism fixes the prefix, and with it the root and so the BFS
    levels; propagation's rules are then sound and only the identity is
    left. The caller has checked the girth. The inputs come from the
    library's own constructions, so a failed check, refinement included, is
    an InternalConsistencyError.
    """
    if len(coloring) != g.n or len(tree.order) != g.n:
        raise InternalConsistencyError("graph, tree and coloring sizes disagree")
    if not coloring.is_total():
        raise InternalConsistencyError("coloring is not total")
    if not coloring.is_proper(g):
        raise InternalConsistencyError("coloring is not proper")
    prefix = tree.order[: _propagate(g, tree, coloring, tree.order)[1]]
    if not prefix_is_fixed(g, coloring, prefix):
        raise InternalConsistencyError(
            f"refinement does not isolate the certifying prefix of {len(prefix)} vertices"
        )
    return prefix


def _propagate(
    g: Graph,
    tree: BfsTree,
    coloring: Coloring,
    prefix: Iterable[int],
) -> tuple[list[bool], int]:
    """``fixed_propagation`` without its checks: whether each vertex is
    certified, and how many vertices of ``prefix`` it took. Only
    ``fixed_propagation`` turns the flags into a set; ``certify`` reads the
    count alone.

    ``prefix`` must be a sigma-prefix without repeats, and the coloring total
    and proper. Its vertices are taken one at a time, the next one only once
    the rules stall; a vertex already certified when its turn comes adds
    nothing. Both rules are monotone, so the result is the least fixpoint of
    the whole prefix, and the count, which ends at the last vertex that
    added something, is the length of the shortest part of ``prefix`` that
    certifies as much. A worklist of newly certified vertices, each
    remembering the vertex that certified it (none for a prefix vertex); see
    ``fixed_propagation``. A count of the vertices left uncertified ends the
    pass once it reaches zero, when no rule can add anything.
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
    # none, and its own pop re-examines y. A prefix vertex, taken when the
    # worklist runs dry, has none, so its pop re-examines every certified
    # neighbor one level up.
    # The adjacency loop also gathers x's own lower set, as it stands after
    # the loop's rule-1 certifications, so x's examination rescans nothing.
    colors = coloring.values
    level = tree.level
    adj = g.adj
    certified = [False] * g.n
    hits = [0] * g.n
    certifier = [-1] * g.n
    taken = 0
    left = g.n
    for i, p in enumerate(prefix, 1):
        if not left:
            break
        if certified[p]:
            continue
        taken = i
        certified[p] = True
        left -= 1
        work = [p]
        while work and left:
            x = work.pop()
            here = level[x]
            up, down = here - 1, here + 1
            skip = certifier[x]
            examine = [x]
            below = []
            for u in adj[x]:
                if certified[u]:
                    if level[u] == up and u != skip:
                        examine.append(u)
                else:
                    hits[u] += 1
                    if hits[u] == 2:
                        certified[u] = True
                        certifier[u] = x
                        left -= 1
                        work.append(u)
                    elif level[u] == down:
                        below.append(u)
            for y in examine:
                if y != x:
                    # y is one level up, so its lower set lies on x's level
                    below = [u for u in adj[y] if not certified[u] and level[u] == here]
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
                left -= len(unique)
    return certified, taken


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
    return _exact_chi_D(g, automorphisms(g))


def _exact_chi_D(g: Graph, group: tuple[list[Permutation], int]) -> int:
    """``exact_chi_D`` from g's group as ``automorphisms(g)`` returns it, for
    a caller that already holds the group. The caller has checked that g has
    1 to ``EXACT_BOUND`` vertices."""
    gens, order = group
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
