"""Acceptance checks: the shared graph corpus and one runner per criterion.

The same runners back the ``distcolor corpus`` subcommand and the acceptance
test module, so a green table in one means a green table in the other.  Every
construction criteria 1, 2, 3 and 5 run passes one outside check,
``_check_coloring``: properness, the color bound and the exact symmetry
search, instead of the flags the library already sets on its own results.
"""

import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .coloring import Coloring, ListAssignment
from .errors import DistcolorError, PreconditionError
from .generators import (
    cycle,
    desargues,
    dodecahedron,
    heawood,
    hoffman_singleton,
    mcgee,
    pappus,
    path,
    petersen,
    random_girth5,
    random_tree,
    robertson,
    star,
    tutte_coxeter,
)
from .graph import Graph
from .greedy import color_delta_plus_2, greedy_extend, list_color_delta_plus_2
from .solver import BRANCH_C6, BRANCH_MOORE, is_c6, solve, special_colorings
from .symmetry import (
    Permutation,
    _exact_chi_D,
    automorphisms,
    exact_chi_D,
    find_isomorphism,
    fixed_propagation,
    is_distinguishing,
)
from .tree import BfsTree, bfs_tree

NAMED_GRAPHS = (
    ("petersen", petersen),
    ("heawood", heawood),
    ("dodecahedron", dodecahedron),
    ("pappus", pappus),
    ("desargues", desargues),
    ("mcgee", mcgee),
    ("tutte-coxeter", tutte_coxeter),
    ("robertson", robertson),
)

TREE_COUNT = 100
RANDOM_COUNT = 200
LISTS_PER_GRAPH = 100
PROPERTY_RUNS = 10_000


class CriterionFailure(Exception):
    """One acceptance check did not hold."""


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CriterionFailure(message)


def _check_coloring(label: str, g: Graph, coloring: Coloring, bound: int) -> None:
    # the outside check of a construction: proper, within its color bound
    # and preserved by no nontrivial automorphism
    _need(coloring.is_proper(g), f"{label}: improper coloring")
    top = coloring.max_color()
    _need(top <= bound, f"{label}: color {top} exceeds {bound}")
    _need(
        is_distinguishing(g, coloring).distinguishing,
        f"{label}: coloring is not distinguishing",
    )


def corpus_graphs(
    seed: int = 0, trees: int = TREE_COUNT, randoms: int = RANDOM_COUNT
) -> Iterator[tuple[str, Graph]]:
    """Yield (label, graph) over the whole solve corpus.

    Cycles of length three and four are left out: their girth is below five,
    so no construction accepts them.  The six-cycle is included; ``solve``
    gives it four colors, the one graph above Δ+1.
    """
    for n in range(3, 31):
        yield f"path-{n}", path(n)
    for n in range(5, 31):
        yield f"cycle-{n}", cycle(n)
    for i in range(trees):
        n = 3 + ((seed + i) * 37) % 38
        yield f"tree-{i}", random_tree(n, seed=seed + i)
    for d in range(1, 9):
        yield f"star-{d}", star(d + 1)
    for label, build in NAMED_GRAPHS:
        yield label, build()
    for i in range(randoms):
        n = 8 + ((seed + i) * 13) % 33
        d = 3 + (seed + i) % 4
        yield f"girth5-{i}", random_girth5(n, max_degree=d, seed=seed + i)


def check_theorem_suite(graphs: list[tuple[str, Graph]]) -> str:
    """Criterion 1: solve the corpus within Δ+1 colors (four on the
    six-cycle), verified exactly."""
    start = time.perf_counter()
    for label, g in graphs:
        result = solve(g)
        bound = 4 if result.branch == BRANCH_C6 else g.max_degree() + 1
        _check_coloring(label, g, result.coloring, bound)
    elapsed = time.perf_counter() - start
    _need(elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is 120s")
    return f"{len(graphs)} graphs solved and verified"


def check_moore_recursion() -> str:
    """Criterion 2: Hoffman-Singleton through the recursive branch, 8 colors."""
    g = hoffman_singleton()
    start = time.perf_counter()
    result = solve(g)
    _check_coloring("hoffman-singleton", g, result.coloring, 8)
    elapsed = time.perf_counter() - start
    _need(
        result.branch == BRANCH_MOORE,
        f"expected branch {BRANCH_MOORE}, got {result.branch}",
    )
    _need(elapsed < 300.0, f"took {elapsed:.1f}s, budget is 300s")
    return f"hoffman-singleton: {result.colors_used} colors via {result.branch}, verified"


def check_stored_colorings() -> str:
    """Criterion 3: the stored 4-colorings are proper and distinguishing."""
    for label, g, coloring in special_colorings():
        _check_coloring(label, g, coloring, 4)
        _need(
            coloring.num_colors() == 4,
            f"{label}: {coloring.num_colors()} colors instead of 4",
        )
    label, g, coloring = special_colorings()[0]
    for u, v in combinations(g.vertices(), 2):
        if coloring[u] != coloring[v]:
            continue
        mu = sorted(coloring[x] for x in g.adj[u])
        mv = sorted(coloring[x] for x in g.adj[v])
        _need(
            mu != mv,
            f"{label}: vertices {u} and {v} share color and neighborhood multiset",
        )
    return (
        "petersen and heawood colorings proper, 4 colors, distinguishing;"
        " same-colored petersen vertices have distinct neighborhood multisets"
    )


def _girth5_extensions(
    g: Graph, gens: list[Permutation]
) -> Iterator[tuple[tuple, Graph]]:
    # attach a new vertex to a non-empty independent set with pairwise
    # disjoint neighborhoods: non-empty keeps the connected parent connected,
    # and the rest are exactly the sets that create no 3- or 4-cycle; one set
    # per orbit of the parent's automorphism group, which ``gens`` generates,
    # and only extensions in which no non-cut vertex has a smaller profile
    # than the new vertex; each comes with the dedup key its profiles give
    n = g.n
    nbr = g.neighbor_sets
    edges = g.edges()
    for size in range(1, n + 1):
        for chosen in combinations(range(n), size):
            ok = True
            for a, b in combinations(chosen, 2):
                if b in nbr[a] or not nbr[a].isdisjoint(nbr[b]):
                    ok = False
                    break
            if not ok or not _least_in_orbit(chosen, gens):
                continue
            h = Graph(n + 1, edges + [(a, n) for a in chosen])
            profiles = _profiles(h)
            new = profiles[n]
            if all(p >= new or _is_cut_vertex(h, v) for v, p in enumerate(profiles)):
                yield _iso_key(h, profiles), h


def _is_cut_vertex(g: Graph, u: int) -> bool:
    """True when deleting u disconnects the connected graph g."""
    start = 1 if u == 0 else 0
    seen = {u, start}
    stack = [start]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) < g.n


def _least_in_orbit(chosen: tuple[int, ...], gens: list[Permutation]) -> bool:
    """True when no image of the sorted set under the group sorts before it."""
    seen = {chosen}
    queue = [chosen]
    while queue:
        current = queue.pop()
        for f in gens:
            image = tuple(sorted(f.image[a] for a in current))
            if image < chosen:
                return False
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return True


def _profiles(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    # (degree, sorted neighbor degrees) of each vertex: an isomorphism invariant
    return [
        (len(ns), tuple(sorted(len(g.adj[u]) for u in ns))) for ns in g.adj
    ]


def _iso_key(g: Graph, profiles: list[tuple[int, tuple[int, ...]]]) -> tuple:
    # an isomorphism invariant of g, from its ``_profiles``
    return (g.n, g.m, tuple(sorted(profiles)))


def _dedup(keyed: list[tuple[tuple, Graph]]) -> list[Graph]:
    # one graph per isomorphism class, each given with its ``_iso_key``
    buckets: dict[tuple, list[Graph]] = {}
    reps: list[Graph] = []
    for key, h in keyed:
        bucket = buckets.setdefault(key, [])
        if any(find_isomorphism(h, seen) is not None for seen in bucket):
            continue
        bucket.append(h)
        reps.append(h)
    return reps


def connected_girth5_graphs(max_n: int) -> list[Graph]:
    """All connected graphs of girth >= 5 on 1..max_n vertices, up to isomorphism.

    Grown one vertex at a time, connected graphs only.  Every connected
    graph H on two or more vertices has a non-cut vertex, and deleting one
    leaves a connected graph of girth >= 5, so extending the connected
    representatives level by level, each new vertex on a non-empty set,
    reaches every isomorphism class.  The new vertex is never a cut vertex,
    since deleting it leaves the connected parent.

    Two pruning rules keep fewer extensions for the isomorphism dedup, after
    McKay's isomorph-free generation.  Attachment sets that an automorphism
    of the parent maps onto each other give isomorphic extensions, so only
    the least sorted set of each orbit is tried.  And an extension is kept
    only when no non-cut vertex has a smaller (degree, sorted neighbor
    degrees) profile than the new vertex.  Neither loses a class: given H,
    delete the non-cut vertex u of least profile; H - u is connected with
    girth >= 5, so it is isomorphic to a representative G of the level
    below, and the least set in the orbit of the image of N(u), non-empty
    because H is connected, rebuilds H from G with the new vertex in u's
    place, where its profile and its cut status are u's.
    """
    return [g for g, _ in _grown_classes(max_n)]


def _grown_classes(
    max_n: int,
) -> list[tuple[Graph, tuple[list[Permutation], int] | None]]:
    """``connected_girth5_graphs`` with the automorphism group that grew each
    class: ``automorphisms(g)`` of every class below max_n vertices, computed
    once to prune its extensions, and None for the classes on max_n
    vertices, which are not extended."""
    _at_least_one("max_n", max_n)
    level = [Graph(1, [])]
    out: list[tuple[Graph, tuple[list[Permutation], int] | None]] = []
    for _ in range(2, max_n + 1):
        grouped = [(g, automorphisms(g)) for g in level]
        out.extend(grouped)
        level = _dedup([e for g, (gens, _) in grouped for e in _girth5_extensions(g, gens)])
    out.extend((g, None) for g in level)
    return out


def check_exact_boundary() -> str:
    """Criterion 4: exhaustive exact values on at most 7 vertices.

    Each class's group is computed once: the enumeration's group where it
    grew the class, and a new one for the classes on 7 vertices.
    """
    classes = _grown_classes(7)
    # 1+1+1+2+4+8+18 classes on 1..7 vertices: a pruning fault that loses
    # one would shrink the exhaustive check without a sign
    _need(len(classes) == 35, f"{len(classes)} isomorphism classes instead of 35")
    six_cycles = 0
    for g, group in classes:
        value = _exact_chi_D(g, automorphisms(g) if group is None else group)
        if is_c6(g):
            six_cycles += 1
            _need(value == 4, f"six-cycle: exact value {value} instead of 4")
        else:
            bound = g.max_degree() + 1
            _need(
                value <= bound,
                f"{g.n} vertices, {g.m} edges: exact value {value} exceeds {bound}",
            )
    _need(six_cycles == 1, f"{six_cycles} six-cycles among representatives")
    _need(exact_chi_D(star(4)) == 4, "claw: exact value is not 4")
    _need(exact_chi_D(cycle(5)) == 3, "five-cycle: exact value is not 3")
    return (
        f"{len(classes)} isomorphism classes within the bound;"
        " the six-cycle is the only graph above Δ+1"
    )


def check_two_extra_colors(
    graphs: list[tuple[str, Graph]],
    seed: int,
    lists_per_graph: int = LISTS_PER_GRAPH,
) -> str:
    """Criterion 5: Δ+2 colorings and their list version across the corpus.

    One walk over the given corpus: every graph gets its Δ+2 coloring, and
    every graph of at most 20 vertices its list trials, drawn from an rng
    seeded by ``seed``, the seed the corpus was built from.
    """
    _at_least_one("lists_per_graph", lists_per_graph)
    rng = random.Random(1009 * seed + 7)
    small = 0
    for label, g in graphs:
        _check_coloring(f"{label} Δ+2", g, color_delta_plus_2(g), g.max_degree() + 2)
        if g.n > 20:
            continue
        small += 1
        size = g.max_degree() + 2
        universe = range(1, 2 * size + 1)
        for trial in range(lists_per_graph):
            lists = ListAssignment(
                [rng.sample(universe, size) for _ in g.vertices()]
            )
            coloring = list_color_delta_plus_2(g, lists)
            respected = all(coloring[v] in lists[v] for v in g.vertices())
            _need(respected, f"{label} trial {trial}: color outside its list")
            _need(
                coloring.is_proper(g),
                f"{label} trial {trial}: improper list coloring",
            )
            if trial == 0:
                _need(
                    is_distinguishing(g, coloring).distinguishing,
                    f"{label}: list coloring is not distinguishing",
                )
    return (
        f"{len(graphs)} Δ+2 colorings verified;"
        f" {small * lists_per_graph} list assignments over {small} small graphs respected"
    )


def _property_graphs(seed: int, runs: int) -> Iterator[tuple[Graph, BfsTree, int]]:
    # a fresh graph every few runs, alternating sparse girth-5 graphs and
    # trees; the root, and with it the BFS tree, and the root's color change
    # on every run
    g = None
    for i in range(runs):
        if i % 5 == 0 or g is None:
            mix = seed + i
            if (i // 5) % 2 == 0:
                n = 5 + (mix * 7) % 12
                g = random_girth5(n, max_degree=3 + mix % 3, seed=mix)
            else:
                g = random_tree(4 + (mix * 11) % 13, seed=mix)
        yield g, bfs_tree(g, (seed + 3 * i) % g.n), i


def check_greedy_bounds(runs: list[tuple[Graph, BfsTree, int]]) -> str:
    """Criterion 6: rule color bounds hold on every unconstrained step.

    Each vertex's rule is read off the tree and the finished coloring: the
    neighbors before it in the tree's order are the ones colored at its
    turn, so it followed rule ii when only its parent is among them and
    rule i when more are. The root's closed neighborhood is skipped: the
    bounds do not hold there.
    """
    _at_least_one("runs", len(runs))
    checked = 0
    for g, tree, i in runs:
        delta = g.max_degree()
        coloring = greedy_extend(g, tree, 1 + i % (delta + 2))
        _need(coloring.is_proper(g), f"run {i}: improper greedy output")
        values = coloring.values
        rank = [0] * g.n
        for position, v in enumerate(tree.order):
            rank[v] = position
        skip = {tree.root, *g.adj[tree.root]}
        for v in tree.order:
            if v in skip:
                continue
            color = values[v]
            before = [values[u] for u in g.adj[v] if rank[u] < rank[v]]
            if len(before) == 1:
                _need(color <= delta, f"run {i}: sibling rule used color {color} > {delta}")
            else:
                _need(
                    color <= delta + 1,
                    f"run {i}: neighbor rule used color {color} > {delta + 1}",
                )
                if color == delta + 1:
                    _need(
                        len(before) == g.degree(v) and len(set(before)) == len(before),
                        f"run {i}: top color without a rainbow neighborhood",
                    )
            checked += 1
    return f"{len(runs)} greedy runs, {checked} unconstrained steps within bounds"


def check_propagation_soundness(instances: list[tuple[Graph, BfsTree, int]]) -> str:
    """Criterion 7: whenever propagation certifies everything, it is right."""
    _at_least_one("instances", len(instances))
    certified_all = 0
    for g, tree, i in instances:
        delta = g.max_degree()
        coloring = greedy_extend(g, tree, delta + 2)
        fixed = fixed_propagation(g, tree, coloring, tree.order[:1])
        if len(fixed) != g.n:
            continue
        certified_all += 1
        _need(
            is_distinguishing(g, coloring).distinguishing,
            f"instance {i}: certified coloring has a color-preserving symmetry",
        )
    _need(
        certified_all >= len(instances) // 2,
        f"only {certified_all} of {len(instances)} instances certified every vertex",
    )
    return f"{certified_all} of {len(instances)} instances certified all vertices, all sound"


def _at_least_one(name: str, volume: int) -> None:
    # a volume below 1 would check nothing and still report a pass
    if volume < 1:
        raise PreconditionError(f"{name} must be at least 1, got {volume}")


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion run."""

    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {self.name:<18} {word} {self.seconds:8.1f}s  {self.detail}"


def _run(number: int, name: str, check: Callable[[], str]) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = check()
        passed = True
    except (CriterionFailure, DistcolorError) as exc:
        detail = str(exc) or exc.__class__.__name__
        passed = False
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def run_all(seed: int = 0, count: int = PROPERTY_RUNS) -> list[CriterionResult]:
    """Run every acceptance criterion; ``count`` scales the random volumes.

    The defaults reproduce the full acceptance suite.  A smaller count shrinks
    the random corpus and the property-test runs proportionally for a quicker
    (non-authoritative) pass.  A count below 1 would run nothing and still
    report seven passes, so it raises PreconditionError.

    Each input is built once, before the first criterion, and shared: the
    corpus graphs by criteria 1 and 5, the property-test graphs with the
    BFS tree of each run by criteria 6 and 7.  No row's time includes that
    build.
    """
    _at_least_one("count", count)
    factor = count / PROPERTY_RUNS
    trees = max(1, round(TREE_COUNT * factor))
    randoms = max(1, round(RANDOM_COUNT * factor))
    lists = max(1, round(LISTS_PER_GRAPH * factor))
    graphs = list(corpus_graphs(seed, trees, randoms))
    runs = list(_property_graphs(seed, count))
    return [
        _run(1, "theorem-suite", lambda: check_theorem_suite(graphs)),
        _run(2, "moore-recursion", check_moore_recursion),
        _run(3, "stored-colorings", check_stored_colorings),
        _run(4, "exact-boundary", check_exact_boundary),
        _run(
            5,
            "two-extra-colors",
            lambda: check_two_extra_colors(graphs, seed, lists),
        ),
        _run(6, "greedy-bounds", lambda: check_greedy_bounds(runs)),
        _run(7, "propagation", lambda: check_propagation_soundness(runs)),
    ]
