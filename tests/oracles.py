"""Slow reference versions of the construction core, for differential tests.

Each one is the straightforward form that the library's version replaced:

* ``bfs_tree_by_min_parent`` gives every vertex its sigma-first neighbor one
  level up with a ``min`` and arranges every child group;
* ``greedy_extend_by_rules`` restates rules i and ii literally per vertex
  and records a ``GreedyStep``, with its rule name, for each one, where the
  library keeps no record of its steps;
* ``propagate_by_rounds`` rescans the whole order every round until nothing
  changes, and ``shortest_certifying_prefix_by_loop`` runs it once per
  prefix length, shortest first, where ``certify`` takes its prefix in one
  propagation pass;
* ``exact_chi_D_by_enumeration`` sends every canonical proper coloring
  (``canonical_colorings``) to the full ``is_distinguishing``;
* ``girth5_extensions_unpruned`` attaches a new vertex to every valid set,
  with no regard to the parent's symmetry or the new vertex's profile.
* ``random_tree_by_sorted_list`` re-sorts its list of leaves after every
  push where ``random_tree`` keeps a heap;
* ``random_girth5_by_bfs`` decides each candidate edge of ``random_girth5``
  with a full breadth-first search instead of the depth-3 test;
* ``wl_labels_plain`` refines round by round from (base label, degree)
  alone, with no distances folded in, and ``prefix_is_fixed_plain`` reads
  its rounds;
* ``wl_rounds_until_stable`` folds in distances from a vertex with a unique
  round-0 label inside its first refinement round, and always runs to the
  first round that splits no class, where ``_wl_rounds`` yields the fold as
  a round of its own and stops at the first discrete round;
* ``wl_rounds_shared_table`` numbers the keys of every refinement round in
  one table kept until refinement ends, and counts each round's classes
  with a set, where ``_wl_rounds`` starts a table per round and reads the
  count off its size;
* ``connected_order_by_pop`` pops its BFS queue from the front of a list;
* ``has_short_cycle_by_walk`` walks every 2-path v-u-w from every v, where
  the graph's walk goes only downhill in (degree, id) rank;
* ``find_isomorphism_joint`` refines g and h side by side (``wl_labels_plain``
  of both) instead of their disjoint union, after a degree-sequence check;
* ``automorphisms_forward_base`` walks the base 0, 1, ..., n-1 forward, grows
  each orbit under that base point's own generators only, and tries every
  candidate image, those below the base point included, where
  ``automorphisms`` walks it from n-1 down and reuses every deeper generator;
* ``exists_automorphism_mapping_pinned`` pins u to v and runs one search
  along a BFS order from u, where ``exists_automorphism_mapping`` looks v up
  in u's orbit under the automorphism group;
* ``search_all`` enumerates every bijection that the symmetry searches
  accept, in one generator, where the library keeps one search state that
  stops at its first completion;
* ``automorphisms_by_pinned_searches`` starts a fresh pinned ``search_all``
  from depth 0 for every candidate image of every base point, where
  ``automorphisms`` walks one search state back up the identity and searches
  from the base point's own depth;
* ``search_verdict_by_enumeration`` enumerates the color-preserving
  automorphisms in lexicographic order and returns the first that is not
  the identity, where ``_search_verdict`` takes the first generator of the
  group walk.

They must return exactly what the library returns, errors included; the
automorphism oracle returns other generators of the same group with the same
order. ``auto_candidates`` gives each vertex the images its stable
refinement label allows. ``group_closure`` lists the group that generators generate.
``check_tree`` replays the structural invariants of a BFS tree.
``enumerate_automorphisms`` lists a whole automorphism group, the reference
for properties of the library's searches. ``girth5_graphs``,
``small_graphs``, ``hub_trees`` and ``random_proper_coloring`` draw their
inputs, ``hub_tree`` builds a tree with one high-degree vertex,
``CONSTRUCTION_GRAPHS`` holds a few at construction sizes, and
``cubic_girth5_completions`` lists cubic girth-5 graphs exhaustively.
``relabel`` renames a graph's vertices, and ``is_identity`` tests a
permutation. ``line_events`` counts the lines of Python a call runs, the
work guard of tests that must not depend on the host's speed.
``STORED_SPECIAL_COLORINGS`` holds the Petersen and Heawood graphs as the
solver once numbered them, with the four-colorings it stored for them.
"""

import random
import sys
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

from hypothesis import strategies as st

from distcolor.coloring import Coloring
from distcolor.errors import (
    InternalConsistencyError,
    PaletteExhaustedError,
    PreconditionError,
    PropernessError,
    SearchBoundError,
)
from distcolor.generators import cycle, path, random_girth5, random_tree
from distcolor.graph import INFINITY, Graph, _bfs_levels, distances
from distcolor.greedy import _check_color_bounds
from distcolor.symmetry import (
    EXACT_BOUND,
    Permutation,
    SymmetryVerdict,
    _assert_automorphism,
    _candidate_lists,
    _check_bound,
    _connected_order,
    _orbit,
    _wl_labels,
    is_distinguishing,
)
from distcolor.tree import LAST, BfsTree


def bfs_tree_by_min_parent(g, root, parents=None, slots=None):
    """The BFS tree from the levels: each vertex hangs under its parent
    directive or else its sigma-first neighbor one level up, and a child
    group with a ranked child comes in ascending (rank, id), unranked
    children after every finite rank and before LAST."""
    if not 0 <= root < g.n:
        raise PreconditionError(f"root {root} out of range")
    parents = dict(parents or {})
    slots = dict(slots or {})

    dist = distances(g, root)
    if any(d == INFINITY for d in dist):
        raise PreconditionError("graph must be connected")
    level = [int(d) for d in dist]

    for v, p in parents.items():
        if not 0 <= v < g.n or not 0 <= p < g.n:
            raise InternalConsistencyError(f"parent directive names unknown vertex ({v}, {p})")
        if v == root:
            raise InternalConsistencyError("the root has no parent")
        if not g.has_edge(v, p):
            raise InternalConsistencyError(f"{p} is not a neighbor of {v}")
        if level[p] != level[v] - 1:
            raise InternalConsistencyError(f"{p} is not one level above {v}")

    parent = [None] * g.n
    order = [root]
    children = [[] for _ in range(g.n)]
    pos_in_order = {root: 0}
    buckets = [[] for _ in range(max(level) + 1)]
    for v in range(g.n):
        buckets[level[v]].append(v)
    current = [root]
    for lvl, below in enumerate(buckets[1:]):
        group = {p: [] for p in current}
        for v in below:
            if v in parents:
                p = parents[v]
            else:
                p = min(
                    (u for u in g.adj[v] if level[u] == lvl),
                    key=lambda u: pos_in_order[u],
                )
            group[p].append(v)
        nxt = []
        for p in current:
            ranked = sorted((slots[v], v) for v in group[p] if v in slots)
            kids = (
                [v for rank, v in ranked if rank != LAST]
                + sorted(v for v in group[p] if v not in slots)
                + [v for rank, v in ranked if rank == LAST]
            )
            children[p] = kids
            for c in kids:
                parent[c] = p
            nxt.extend(kids)
        for i, c in enumerate(nxt):
            pos_in_order[c] = len(order) + i
        order.extend(nxt)
        current = nxt

    tree = BfsTree(
        root=root,
        parent=tuple(parent),
        level=tuple(level),
        order=tuple(order),
        children=tuple(tuple(c) for c in children),
    )
    check_tree(g, tree)
    return tree


def check_tree(g, t):
    """Assert the invariants of a BFS tree and its order sigma."""
    assert len(t.order) == g.n and set(t.order) == set(range(g.n))
    for i in range(1, len(t.order)):
        assert t.level[t.order[i - 1]] <= t.level[t.order[i]]
    for v in t.order:
        p = t.parent[v]
        if v == t.root:
            assert p is None and t.level[v] == 0
        else:
            assert p is not None and g.has_edge(v, p)
            assert t.level[v] == t.level[p] + 1
    # children of one parent are consecutive, parents in sigma order
    by_level = {}
    for v in t.order:
        by_level.setdefault(t.level[v], []).append(v)
    for lvl, vs in by_level.items():
        if lvl == 0:
            continue
        expected = [c for p in by_level[lvl - 1] for c in t.children[p]]
        assert vs == expected


RULE_PREFIX = "prefix"
RULE_NEIGHBORS = "i"
RULE_SIBLINGS = "ii"
# a picked vertex: a fixed color, or a chooser's answer
RULE_FORCED = "forced"
RULE_CHOOSER = "chooser"


@dataclass(frozen=True)
class GreedyStep:
    """What happened when one vertex was colored.

    ``all_neighbors_colored`` and ``neighbor_colors_distinct`` describe the
    moment just before the color was assigned; ``constrained`` is True when
    anything beyond the two plain rules (lists, a pick) influenced the
    choice.
    """

    vertex: int
    rule: str
    color: int
    all_neighbors_colored: bool
    neighbor_colors_distinct: bool
    constrained: bool


def greedy_extend_by_rules(g, tree, prefix, *, k=None, picks=None, lists=None):
    n = g.n
    if len(tree.order) != n:
        raise PreconditionError("tree does not cover the graph")
    if lists is not None and len(lists) != n:
        raise PreconditionError("list assignment length does not match the graph")
    if not prefix:
        raise PreconditionError("prefix is empty")
    if set(prefix) != set(tree.order[: len(prefix)]):
        raise PreconditionError("prefix does not color a prefix of the vertex order")
    picks = dict(picks or {})
    for v in picks:
        if v in prefix:
            raise PreconditionError(f"vertex {v} is in the prefix and cannot be picked")
    if lists is None:
        k = g.max_degree() + 2 if k is None else k
        if k < 1:
            raise PreconditionError(f"bad palette bound {k}")

    values = [None] * n
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
        GreedyStep(v, RULE_PREFIX, prefix[v], False, False, False)
        for v in tree.order[: len(prefix)]
    ]
    for v in tree.order[len(prefix):]:
        neighbor_colors = [values[u] for u in g.adj[v] if values[u] is not None]
        stats = (
            len(neighbor_colors) == len(g.adj[v]),
            len(set(neighbor_colors)) == len(neighbor_colors),
        )
        palette = lists[v] if lists is not None else range(1, k + 1)
        parent = tree.parent[v]
        if any(values[u] is not None for u in g.adj[v] if u != parent):
            rule = RULE_NEIGHBORS
            blocked = set(neighbor_colors)
        else:
            rule = RULE_SIBLINGS
            # the parent and its children colored so far: the siblings before v
            blocked = {values[u] for u in tree.children[parent] + (parent,)} - {None}

        if v in picks:
            # a fixed color need only be proper; a chooser picks among the
            # colors the rule allows
            pick = picks[v]
            if callable(pick):
                rule = RULE_CHOOSER
                candidates = [x for x in palette if x not in blocked]
                c = pick(v, tuple(candidates), tuple(values)) if candidates else None
            else:
                rule, c = RULE_FORCED, pick
                candidates = [x for x in palette if x not in neighbor_colors]
            if c not in candidates:
                raise InternalConsistencyError(
                    f"picked color {c} is not available at vertex {v}"
                )
            values[v] = c
            steps.append(GreedyStep(v, rule, c, *stats, True))
            continue

        c = next((c for c in palette if c not in blocked), None)
        if c is None:
            # a list is named as its file numbers it, from 1
            if lists is not None:
                raise PaletteExhaustedError(f"no available color for vertex {v + 1}")
            raise InternalConsistencyError(f"no available color for vertex {v}")
        constrained = lists is not None
        if not constrained and v != root and not g.has_edge(v, root):
            _check_color_bounds(v, rule == RULE_NEIGHBORS, c, delta, stats)
        values[v] = c
        steps.append(GreedyStep(v, rule, c, *stats, constrained))

    coloring = Coloring(values)
    if not coloring.is_proper(g):
        raise InternalConsistencyError("greedy coloring came out improper")
    return coloring, tuple(steps)


def propagate_by_rounds(g, tree, coloring, fixed_prefix):
    if len(coloring) != g.n or len(tree.order) != g.n:
        raise PreconditionError("graph, tree and coloring sizes disagree")
    if not coloring.is_total():
        raise PropernessError("coloring is not total")
    if not coloring.is_proper(g):
        raise PropernessError("coloring is not proper")
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
            if sum(u in certified for u in g.adj[v]) >= 2:
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
            counts = Counter(colors[u] for u in below)
            for y in below:
                if counts[colors[y]] == 1:
                    certified.add(y)
                    changed = True
    return frozenset(certified)


def shortest_certifying_prefix_by_loop(g, tree, coloring):
    for end in range(1, g.n + 1):
        prefix = tree.order[:end]
        if len(propagate_by_rounds(g, tree, coloring, prefix)) == g.n:
            return prefix
    raise PreconditionError("the graph has no vertices")


def search_all(g, h, order, cand):
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

    def rec(i):
        nonlocal used
        if i == n:
            yield tuple(f)
            return
        v = order[i]
        req_v = req[v]
        for u in cand[v]:
            if used >> u & 1:
                continue
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


def automorphisms_by_pinned_searches(g, coloring=None):
    _check_bound(g)
    if coloring is not None and len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    cand = auto_candidates(g, coloring)
    gens = []
    order = 1
    for b in range(g.n - 1, -1, -1):
        orbit = {b}
        for u in cand[b]:
            if u <= b or u in orbit:
                continue
            pinned = [[v] for v in range(b)] + [[u]] + cand[b + 1:]
            found = next(search_all(g, g, list(range(g.n)), pinned), None)
            if found is None:
                continue
            f = Permutation(found)
            _assert_automorphism(g, f, coloring)
            gens.append(f)
            orbit = _orbit(b, gens)
        order *= len(orbit)
    return gens, order


def search_verdict_by_enumeration(g, coloring):
    labels = _wl_labels(g, list(coloring.values))
    if len(set(labels)) == g.n:
        return SymmetryVerdict(True, None)
    cand = _candidate_lists(labels, labels)
    identity = tuple(range(g.n))
    for image in search_all(g, g, list(range(g.n)), cand):
        if image == identity:
            continue
        f = Permutation(image)
        _assert_automorphism(g, f, coloring)
        return SymmetryVerdict(False, f)
    return SymmetryVerdict(True, None)


def auto_candidates(g, coloring):
    labels = _wl_labels(g, list(coloring.values) if coloring is not None else [0] * g.n)
    return _candidate_lists(labels, labels)


def exists_automorphism_mapping_pinned(g, u, v):
    _check_bound(g)
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise PreconditionError("vertex out of range")
    if u == v:
        return True
    cand = auto_candidates(g, None)
    if v not in cand[u]:
        return False
    cand[u] = [v]
    found = next(search_all(g, g, _connected_order(g, u), cand), None)
    if found is None:
        return False
    _assert_automorphism(g, Permutation(found), None)
    return True


def enumerate_automorphisms(g, coloring=None):
    """Every (color-preserving) automorphism, in lexicographic order.

    Exponential in the group size; for small graphs only.
    """
    _check_bound(g)
    cand = auto_candidates(g, coloring)
    out = []
    for image in search_all(g, g, list(range(g.n)), cand):
        f = Permutation(image)
        _assert_automorphism(g, f, coloring)
        out.append(f)
    return out


def automorphisms_forward_base(g, coloring=None):
    _check_bound(g)
    if coloring is not None and len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    cand = auto_candidates(g, coloring)
    gens = []
    order = 1
    for b in range(g.n):
        orbit = {b}
        level_gens = []
        for u in cand[b]:
            if u == b or u in orbit:
                continue
            pinned = [[v] for v in range(b)] + [[u]] + cand[b + 1:]
            found = next(search_all(g, g, list(range(g.n)), pinned), None)
            if found is None:
                continue
            f = Permutation(found)
            _assert_automorphism(g, f, coloring)
            level_gens.append(f)
            orbit = _orbit(b, level_gens)
        order *= len(orbit)
        gens.extend(level_gens)
    return gens, order


def group_closure(gens, n):
    """The image tuples of every element of the group ``gens`` generate on
    n points, the identity included."""
    identity = tuple(range(n))
    seen = {identity}
    queue = [identity]
    while queue:
        p = queue.pop()
        for f in gens:
            q = tuple(f.image[x] for x in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def canonical_colorings(g, k):
    """Every proper coloring with exactly k colors in which color c appears
    before color c+1, in lexicographic order."""
    values = [0] * g.n

    def rgs(v, used):
        if v == g.n:
            if used == k:
                yield tuple(values)
            return
        for c in range(1, min(used + 1, k) + 1):
            if any(values[u] == c for u in g.adj[v] if u < v):
                continue
            values[v] = c
            yield from rgs(v + 1, max(used, c))
            values[v] = 0

    yield from rgs(0, 0)


def exact_chi_D_by_enumeration(g):
    if g.n > EXACT_BOUND:
        raise SearchBoundError(f"graph has {g.n} vertices, exact bound is {EXACT_BOUND}")
    if g.n == 0:
        raise PreconditionError("graph has no vertices")
    for k in range(1, g.n + 1):
        for values in canonical_colorings(g, k):
            if is_distinguishing(g, Coloring(values)).distinguishing:
                return k
    raise InternalConsistencyError("no distinguishing coloring found")


def girth5_extensions_unpruned(g):
    # a new vertex on every independent set with pairwise disjoint
    # neighborhoods: exactly the sets that create no 3- or 4-cycle
    n = g.n
    nbr = [set(g.adj[v]) for v in range(n)]
    edges = list(g.edges())
    for size in range(n + 1):
        for chosen in combinations(range(n), size):
            if all(
                b not in nbr[a] and not nbr[a] & nbr[b]
                for a, b in combinations(chosen, 2)
            ):
                yield Graph(n + 1, edges + [(a, n) for a in chosen])


def random_tree_by_sorted_list(n, seed=0):
    """``random_tree`` keeping its leaves in a list, sorted after each push."""
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
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        edges.append((leaves.pop(0), v))
        degree[v] -= 1
        if degree[v] == 1:
            leaves.append(v)
            leaves.sort()
    edges.append((leaves[0], leaves[1]))
    return Graph(n, edges)


def random_girth5_by_bfs(n, max_degree, seed=0):
    if max_degree < 1:
        raise PreconditionError("degree cap must be positive")
    base = random_tree(n, seed)
    if base.max_degree() > max_degree:
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
        if _bfs_distance(adj, u, v) < 4:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def _bfs_distance(adj, s, t):
    seen = {s}
    queue = deque([(s, 0)])
    while queue:
        v, d = queue.popleft()
        if v == t:
            return d
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append((u, d + 1))
    return len(adj)


def wl_rounds_plain(graphs, bases):
    table = {}

    def canon(key):
        if key not in table:
            table[key] = len(table)
        return table[key]

    labels = [
        [canon((base[v], len(g.adj[v]))) for v in range(g.n)]
        for g, base in zip(graphs, bases)
    ]
    yield labels
    while True:
        before = len({l for ls in labels for l in ls})
        labels = [
            [canon((ls[v], tuple(sorted(ls[u] for u in g.adj[v])))) for v in range(g.n)]
            for g, ls in zip(graphs, labels)
        ]
        yield labels
        if len({l for ls in labels for l in ls}) == before:
            return


def wl_rounds_until_stable(g, base):
    table = {}

    def canon(key):
        val = table.get(key)
        if val is None:
            val = table[key] = len(table)
        return val

    labels = [canon((base[v], len(g.adj[v]))) for v in range(g.n)]
    yield labels
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


def wl_rounds_shared_table(g, base):
    n = g.n
    table = {}
    ids = table.setdefault
    labels = [ids(key, len(table)) for key in zip(base, map(len, g.adj))]
    yield labels
    classes = len(table)
    if classes == n:
        return
    sizes = [0] * classes
    for l in labels:
        sizes[l] += 1
    if 1 in sizes:
        dist = _bfs_levels(g.adj, labels.index(sizes.index(1)), n)
        step = n + 1
        labels = [classes + l * step + d for l, d in zip(labels, dist)]
        yield labels
        classes = len(set(labels))
        if classes == n:
            return

    def canon(key):
        val = table.get(key)
        if val is None:
            val = table[key] = len(table)
        return val

    while True:
        labels = [
            canon((labels[v], tuple(sorted(labels[u] for u in g.adj[v]))))
            for v in range(g.n)
        ]
        yield labels
        before, classes = classes, len(set(labels))
        if classes in (before, g.n):
            return


def wl_labels_plain(graphs, bases):
    for labels in wl_rounds_plain(graphs, bases):
        pass
    return labels


def prefix_is_fixed_plain(g, coloring, vertices):
    if len(coloring) != g.n:
        raise PreconditionError("coloring length does not match the graph")
    (labels,) = wl_labels_plain([g], [list(coloring.values)])
    sizes = Counter(labels)
    return all(sizes[labels[v]] == 1 for v in set(vertices))


def connected_order_by_pop(g, start):
    seen = []
    in_seen = [False] * g.n
    queue = []
    for s in [start] + list(range(g.n)):
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


def has_short_cycle_by_walk(g):
    stamp = [-1] * g.n
    for v, near in enumerate(g.adj):
        for u in near:
            stamp[u] = v
        for u in near:
            for w in g.adj[u]:
                if stamp[w] == v and w != v:
                    return True
                stamp[w] = v
    return False


def find_isomorphism_joint(g, h):
    _check_bound(g)
    _check_bound(h)
    if g.n != h.n or g.m != h.m:
        return None
    if sorted(map(len, g.adj)) != sorted(map(len, h.adj)):
        return None
    label_g, label_h = wl_labels_plain([g, h], [[0] * g.n, [0] * h.n])
    if sorted(label_g) != sorted(label_h):
        return None
    cand = _candidate_lists(label_g, label_h)
    rarest = min(range(g.n), key=lambda v: (len(cand[v]), v)) if g.n else 0
    order = connected_order_by_pop(g, rarest) if g.n else []
    found = next(search_all(g, h, order, cand), None)
    return None if found is None else Permutation(found)


def line_events(call, path=None):
    """How many lines of Python ``call()`` executes, only those of the source
    file ``path`` when one is given."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if path is not None and frame.f_code.co_filename != path:
            return None
        if event == "line":
            count += 1
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(before)
    return count


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


# connected inputs at the sizes the constructions run on: the benchmark's
# 200 to 800 vertices and below
CONSTRUCTION_GRAPHS = (
    path(450),
    cycle(800),
    random_tree(300, seed=1),
    random_girth5(100, max_degree=5, seed=2),
    random_girth5(400, max_degree=3, seed=3),
)


@st.composite
def girth5_graphs(draw, max_n=30):
    """Random trees, paths, cycles and random girth-5 graphs, all connected."""
    family = draw(st.sampled_from(("tree", "path", "cycle", "girth5")))
    n = draw(st.integers(min_value=5, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if family == "tree":
        return random_tree(n, seed=seed)
    if family == "path":
        return path(n)
    if family == "cycle":
        return cycle(n)
    return random_girth5(n, max_degree=draw(st.integers(min_value=3, max_value=5)), seed=seed)


def hub_tree(leaves, tail):
    """A path on ``tail`` vertices whose middle vertex also holds ``leaves``
    leaves; a star when ``tail`` is 1."""
    hub = tail // 2
    edges = [(i, i + 1) for i in range(tail - 1)]
    edges += [(hub, tail + i) for i in range(leaves)]
    return Graph(tail + leaves, edges)


@st.composite
def hub_trees(draw, max_n=30):
    """Stars and hub trees: one child group holds most of the vertices."""
    tail = draw(st.integers(min_value=1, max_value=5))
    return hub_tree(draw(st.integers(min_value=2, max_value=max_n - tail)), tail)


@st.composite
def small_graphs(draw, max_n=8):
    """Any simple graph on 1..max_n vertices: any girth, possibly
    disconnected, often with isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def cubic_girth5_completions(n):
    """Cubic graphs of girth at least five on n vertices, one or more labelled
    copies of each isomorphism class with at most n - 10 vertices off vertex
    0's component (all of them when n < 20).

    Around any vertex, girth five makes the radius-2 ball a 10-vertex tree,
    fixed here as 0-1,2,3; 1-4,5; 2-6,7; 3-8,9. The least vertex of degree
    below three is then joined, in ascending order, to later vertices at
    distance at least four; vertices 10.. are interchangeable while
    isolated, so only the least isolated one is tried.
    """
    adj = [set() for _ in range(n)]
    for u, v in ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)):
        adj[u].add(v)
        adj[v].add(u)

    def far(u, v):
        reach = {u}
        for _ in range(3):
            reach |= {w for x in reach for w in adj[x]}
        return v not in reach

    def complete():
        u = next((w for w in range(n) if len(adj[w]) < 3), None)
        if u is None:
            yield Graph(n, [(a, b) for a in range(n) for b in adj[a] if a < b])
            return
        fresh = next((w for w in range(10, n) if not adj[w]), None)
        for v in range(max(adj[u], default=u) + 1, n):
            if len(adj[v]) == 3 or (not adj[v] and v != fresh) or not far(u, v):
                continue
            adj[u].add(v)
            adj[v].add(u)
            yield from complete()
            adj[u].remove(v)
            adj[v].remove(u)

    yield from complete()


def random_proper_coloring(g, rng: random.Random, k: int) -> Coloring:
    """A total proper coloring from 1..k (k above the max degree), vertices in random order."""
    values = [None] * g.n
    order = list(range(g.n))
    rng.shuffle(order)
    for v in order:
        taken = {values[u] for u in g.adj[v]}
        values[v] = rng.choice([c for c in range(1, k + 1) if c not in taken])
    return Coloring(values)


def relabel(g, image):
    """g with vertex v renamed to image[v]; image must be a bijection on V."""
    return Graph(g.n, [(image[u], image[v]) for u, v in g.edges()])


def rooted_at(g, w):
    """g with w and 0 swapping names, so that a construction rooted at
    vertex 0 starts from the vertex that was w."""
    image = list(g.vertices())
    image[0], image[w] = w, 0
    return relabel(g, image)


def is_identity(p: Permutation) -> bool:
    return all(u == v for v, u in enumerate(p.image))


# A 9-cycle with three long chords and a hub on the remaining triple, and a
# 14-cycle with a chord out of every second vertex, each with the stored
# coloring that the special branch transported before it took the named
# graphs of ``generators``.
STORED_SPECIAL_COLORINGS = (
    (
        [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (3, 7), (6, 1), (9, 2), (9, 5), (9, 8)],
        (2, 1, 2, 4, 3, 2, 4, 2, 3, 1),
    ),
    (
        [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(1, 14, 2)],
        (2, 3, 2, 3, 2, 1, 2, 1, 4, 3, 2, 1, 2, 4),
    ),
)
