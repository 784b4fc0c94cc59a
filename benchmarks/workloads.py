"""Inputs, operations and output checks of the four benchmark workloads.

Set-up builds every input from the workload seed; an operation hands the
program only those inputs. The checks use this file's own code (edge lists,
properness, colour bounds, witness replay) and never the program's verifier.
Graphs above 128 vertices get properness and bound checks only, because the
exact verifier refuses them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from distcolor import coloring, corpus, generators, graph, greedy, solver, symmetry

CORPUS_COUNT = 100
CORPUS_RUNS = 4
CORPUS_STEP = 9

Edges = list[tuple[int, int]]


class CheckFailure(Exception):
    """An operation returned a wrong output."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` raises CheckFailure or returns the rendered output text that the
    output digest covers.
    """

    kind: str
    label: str
    vertices: int
    size: int
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    """The operations of one pass, in order.

    ``trace_passes`` is the fixed pass count of a traced run.
    """

    ops: list[Op]
    trace_passes: int


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---- graphs, the benchmark's own way ----------------------------------------


def _adjacency(n: int, edges: Edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _check_input(n: int, edges: Edges) -> None:
    """Connected, simple and free of 3- and 4-cycles."""
    adj = _adjacency(n, edges)
    if any(len(set(ns)) != len(ns) or v in ns for v, ns in enumerate(adj)):
        raise ValueError("input graph is not simple")
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
    if len(seen) != n:
        raise ValueError("input graph is disconnected")
    for v in range(n):
        # a 3-cycle through v returns to a neighbour of v in two steps, a
        # 4-cycle reaches one vertex by two different two-step walks
        near = set(adj[v])
        reached: set[int] = set()
        for u in adj[v]:
            for w in adj[u]:
                if w == v:
                    continue
                if w in near or w in reached:
                    raise ValueError("input graph has girth below five")
                reached.add(w)


def _dimacs(n: int, edges: Edges) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _capped_tree(n: int, cap: int, rng: random.Random) -> Edges:
    """Random recursive tree: each new vertex joins an earlier one below the cap."""
    degree = [0] * n
    open_ = [0]
    edges = []
    for v in range(1, n):
        while True:
            i = rng.randrange(len(open_))
            p = open_[i]
            if degree[p] < cap:
                break
            open_[i] = open_[-1]
            open_.pop()
        edges.append((p, v))
        degree[p] += 1
        degree[v] += 1
        open_.append(v)
    return edges


def _rejection_girth5(n: int, cap: int, rng: random.Random) -> Edges:
    """Random connected graph of girth at least five and maximum degree ``cap``.

    A random tree under the cap, then random pairs of vertices below the cap,
    each kept when a BFS of depth three from one end misses the other, so the
    new cycles have length at least five. Stops after ``4n`` rejections in a row.
    """
    adj = [set() for _ in range(n)]
    for u, v in _capped_tree(n, cap, rng):
        adj[u].add(v)
        adj[v].add(u)
    below = [v for v in range(n) if len(adj[v]) < cap]
    rejected = 0
    while len(below) >= 2 and rejected < 4 * n:
        u, v = rng.sample(below, 2)
        near = {u}
        frontier = [u]
        for _ in range(3):
            frontier = [w for x in frontier for w in adj[x] if w not in near]
            near.update(frontier)
        if v in near:
            rejected += 1
            continue
        rejected = 0
        adj[u].add(v)
        adj[v].add(u)
        below = [w for w in below if len(adj[w]) < cap]
    return [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]


def _max_degree(n: int, edges: Edges) -> int:
    return max(len(ns) for ns in _adjacency(n, edges))


def _named_graphs() -> list[tuple[str, graph.Graph]]:
    return [(label, build()) for label, build in corpus.NAMED_GRAPHS] + [
        ("hoffman-singleton", generators.hoffman_singleton())
    ]


# ---- checks, the benchmark's own way ----------------------------------------


def _check_proper(edges: Edges, values: list[int], bound: int) -> None:
    _need(all(isinstance(c, int) and 1 <= c <= bound for c in values),
          f"a colour lies outside 1..{bound}")
    _need(all(values[u] != values[v] for u, v in edges), "coloring is not proper")


def _parse_vertex_lines(lines: list[str], n: int) -> list[int]:
    values: list[int | None] = [None] * n
    for line in lines:
        fields = line.split()
        _need(len(fields) == 3 and fields[0] == "v", f"bad coloring line {line!r}")
        v, c = int(fields[1]), int(fields[2])
        _need(1 <= v <= n and values[v - 1] is None, f"bad vertex in {line!r}")
        values[v - 1] = c
    _need(None not in values, "coloring is not total")
    return values  # type: ignore[return-value]


def _render_verdict(verdict: symmetry.SymmetryVerdict) -> str:
    """The bytes ``distcolor verify`` prints."""
    if verdict.distinguishing:
        return "distinguishing\n"
    return "not distinguishing; color-preserving witness:\n" + verdict.witness.render() + "\n"


_WITNESS_HEAD = "not distinguishing; color-preserving witness:"


def _check_verdict(text: str, edges: Edges, values: list[int], expect: bool | None) -> str:
    """``expect`` is the verdict known by construction, or None."""
    if text == "distinguishing\n":
        _need(expect is not False, "a breakable coloring was called distinguishing")
        return text
    _need(expect is not True, "a distinguishing coloring got a witness")
    lines = text.splitlines()
    _need(lines[0] == _WITNESS_HEAD and lines[-1] == "", "malformed witness text")
    image = [-1] * len(values)
    for line in lines[1:-1]:
        a, arrow, b = line.split()
        _need(arrow == "->", f"malformed witness line {line!r}")
        image[int(a) - 1] = int(b) - 1
    _need(sorted(image) == list(range(len(values))), "witness is not a permutation")
    _need(image != list(range(len(values))), "witness is the identity")
    edge_set = {frozenset(e) for e in edges}
    _need(all(frozenset((image[u], image[v])) in edge_set for u, v in edges),
          "witness breaks adjacency")
    _need(all(values[image[v]] == values[v] for v in range(len(values))),
          "witness breaks the coloring")
    return text


# ---- solve-pipeline ---------------------------------------------------------


def _pipeline(text: str) -> tuple[str, str, str]:
    g = graph.parse_graph(text)
    if solver.is_c6(g):
        result = solver.solve_c6_extension(g)
    else:
        result = solver.solve(g)
    out = solver.render_result(result)
    parsed = coloring.parse_coloring(out, g.n)
    return result.branch, out, _render_verdict(symmetry.is_distinguishing(g, parsed))


def _check_pipeline(n: int, edges: Edges, bound: int, output: tuple[str, str, str]) -> str:
    _, out, verdict = output
    head, *rest = out.splitlines()
    match = re.fullmatch(r"c branch=\w+ colors=(\d+) certified=1", head)
    _need(match is not None, f"bad result header {head!r}")
    values = _parse_vertex_lines(rest, n)
    _check_proper(edges, values, bound)
    _need(int(match.group(1)) == len(set(values)), "header colour count is wrong")
    _need(verdict == "distinguishing\n", "the solved coloring failed verification")
    return out + verdict


# Sizes are fixed and the seed draws the random structure, so that the mix of
# operation costs, and with it every percentile, is the same for every seed.
# Thirteen operations cost clearly less than the Heawood graph's and thirteen
# clearly more, so the median operation is that fixed graph.
def _solve_inputs(rng: random.Random) -> list[tuple[str, graph.Graph]]:
    graphs = [(f"path-{n}", generators.path(n)) for n in (20, 60, 128)]
    graphs += [(f"cycle-{n}", generators.cycle(n)) for n in (6, 25, 70, 128)]
    graphs += [
        (f"tree-{n}", generators.random_tree(n, seed=rng.randrange(2**31)))
        for n in (30, 60, 128)
    ]
    graphs += [
        (f"girth5-{n}-{d}", generators.random_girth5(n, d, seed=rng.randrange(2**31)))
        for d in (3, 4, 5, 6)
        for n in (34 if d == 3 else 46, 90)
    ]
    return graphs + _named_graphs()


def solve_pipeline(seed: int) -> Workload:
    """DIMACS text -> parse -> solve -> render -> parse -> verify, per graph."""
    ops = []
    for label, g in _solve_inputs(random.Random(seed)):
        edges = g.edges()
        _check_input(g.n, edges)
        bound = 4 if label == "cycle-6" else g.max_degree() + 1
        text = _dimacs(g.n, edges)
        ops.append(Op(
            "solve", label, g.n, g.n + len(edges),
            lambda text=text: _pipeline(text),
            lambda out, n=g.n, edges=edges, bound=bound: _check_pipeline(n, edges, bound, out),
        ))
    return Workload(ops, trace_passes=10)


# ---- color2-large -----------------------------------------------------------

# (family, vertices, degree cap); every graph is coloured by both calls. The
# sizes order the graphs by cost with the fixed 450-path in the middle and
# the fixed 800-cycle on top, so that the median and the tail operations are
# the same graphs for every seed.
_LARGE_MIX = (
    ("tree", 300, 3), ("path", 300, 2), ("girth5", 200, 4),
    ("path", 450, 2),
    ("girth5", 400, 3), ("girth5", 300, 5), ("cycle", 800, 2),
)


def _large_graph(family: str, n: int, cap: int, rng: random.Random) -> Edges:
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if family == "tree":
        return _capped_tree(n, cap, rng)
    return _rejection_girth5(n, cap, rng)


def _check_color2(edges: Edges, bound: int, out: coloring.Coloring) -> str:
    _check_proper(edges, list(out.values), bound)
    return coloring.render_coloring(out)


def _check_listcolor(edges: Edges, lists: list[list[int]], out: coloring.Coloring) -> str:
    values = list(out.values)
    _check_proper(edges, values, max(map(max, lists)))
    _need(all(c in allowed for c, allowed in zip(values, lists)), "a colour is off its list")
    return coloring.render_coloring(out)


def color2_large(seed: int) -> Workload:
    """Alternating Δ+2 and list Δ+2 colorings of 300- and 600-vertex graphs."""
    rng = random.Random(seed)
    ops = []
    for family, n, cap in _LARGE_MIX:
        edges = _large_graph(family, n, cap, rng)
        _check_input(n, edges)
        delta = _max_degree(n, edges)
        size = delta + 2
        lists = [sorted(rng.sample(range(1, 2 * size + 1), size)) for _ in range(n)]
        g = graph.Graph(n, edges)
        assignment = coloring.ListAssignment(lists)
        label = f"{family}-{n}-{delta}"
        ops.append(Op(
            "color2", label, n, n + len(edges),
            lambda g=g: greedy.color_delta_plus_2(g),
            lambda out, edges=edges, bound=delta + 2: _check_color2(edges, bound, out),
        ))
        ops.append(Op(
            "listcolor", label, n, n + len(edges),
            lambda g=g, assignment=assignment: greedy.list_color_delta_plus_2(g, assignment),
            lambda out, edges=edges, lists=lists: _check_listcolor(edges, lists, out),
        ))
    return Workload(ops, trace_passes=2)


# ---- verify-symmetric -------------------------------------------------------


def _petersen_swap() -> list[int]:
    # generators.petersen numbers the 2-subsets of {0..4} lexicographically;
    # swapping 0 and 1 fixes {0,1} and pairs sets that share an element
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    swap = {0: 1, 1: 0}
    return [pairs.index(tuple(sorted(swap.get(x, x) for x in p))) for p in pairs]


def _generalized_petersen_half_turn() -> list[int]:
    return [(i + 5) % 10 for i in range(10)] + [10 + (i + 5) % 10 for i in range(10)]


# A non-identity automorphism whose orbits are independent sets, per named
# graph, in the vertex numbering of distcolor.generators. Set-up replays each
# one. Every non-identity automorphism of the McGee graph maps some vertex to
# a neighbour of its orbit, so each of its proper colorings is distinguishing.
_ORBIT_MAPS: dict[str, Callable[[], list[int]]] = {
    "petersen": _petersen_swap,
    "heawood": lambda: [(i + 2) % 14 for i in range(14)],
    "dodecahedron": _generalized_petersen_half_turn,
    "desargues": _generalized_petersen_half_turn,
    "pappus": lambda: [3 * (v // 3) + (v % 3 + 1) % 3 for v in range(9)]
    + [9 + 3 * ((v - 9) // 3) + ((v - 9) % 3 + 1) % 3 for v in range(9, 18)],
    "tutte-coxeter": lambda: [(i + 6) % 30 for i in range(30)],
    "robertson": lambda: [10, 6, 2, 3, 11, 18, 14, 15, 4, 5, 13, 8, 7, 0, 1, 12, 16, 17, 9],
    "hoffman-singleton": lambda: [5 * (-(v // 5) % 5) + v % 5 for v in range(25)]
    + [25 + 5 * (-((v - 25) // 5) % 5) + v % 5 for v in range(25, 50)],
}


def _orbits(image: list[int]) -> list[list[int]]:
    seen = [False] * len(image)
    orbits = []
    for v in range(len(image)):
        orbit = []
        while not seen[v]:
            seen[v] = True
            orbit.append(v)
            v = image[v]
        if orbit:
            orbits.append(orbit)
    return orbits


def _orbit_constant(n: int, edges: Edges, image: list[int], rng: random.Random) -> list[int]:
    """A proper coloring that ``image`` preserves: one colour per orbit."""
    edge_set = {frozenset(e) for e in edges}
    if sorted(image) != list(range(n)) or image == list(range(n)) or not all(
        frozenset((image[u], image[v])) in edge_set for u, v in edges
    ):
        raise ValueError("orbit map is not a non-identity automorphism")
    orbits = _orbits(image)
    if any(frozenset(p) in edge_set for o in orbits for p in combinations(o, 2)):
        raise ValueError("an orbit is not an independent set")
    orbit_of = {v: i for i, o in enumerate(orbits) for v in o}
    adj = _adjacency(n, edges)
    colours: dict[int, int] = {}
    for i in rng.sample(range(len(orbits)), len(orbits)):
        taken = {colours.get(orbit_of[u]) for v in orbits[i] for u in adj[v]}
        colours[i] = min(c for c in range(1, len(taken) + 2) if c not in taken)
    return [colours[orbit_of[v]] for v in range(n)]


def _rotation_periodic(n: int, rng: random.Random) -> list[int]:
    """Colour i mod p of a cycle, for a proper divisor p of n: rotation by p fixes it."""
    period = rng.choice([p for p in range(2, n // 2 + 1) if n % p == 0])
    pattern: list[int] = []
    for i in range(period):
        banned = {pattern[-1]} if pattern else set()
        if i == period - 1:
            banned.add(pattern[0])
        pattern.append(rng.choice([c for c in (1, 2, 3) if c not in banned]))
    return [pattern[i % period] for i in range(n)]


def _random_proper(n: int, edges: Edges, colours: int, rng: random.Random) -> list[int]:
    adj = _adjacency(n, edges)
    values = [0] * n
    for v in rng.sample(range(n), n):
        taken = {values[u] for u in adj[v]}
        values[v] = rng.choice([c for c in range(1, colours + 1) if c not in taken])
    return values


def _verify(graph_text: str, coloring_text: str) -> str:
    g = graph.parse_graph(graph_text)
    col = coloring.parse_coloring(coloring_text, g.n)
    return _render_verdict(symmetry.is_distinguishing(g, col))


def verify_symmetric(seed: int) -> Workload:
    """The verify path on cycles, cubic graphs, Robertson and Hoffman–Singleton."""
    rng = random.Random(seed)
    graphs = [(f"cycle-{n}", generators.cycle(n)) for n in (12, 40, 90, 128)]
    graphs += _named_graphs()
    ops = []
    for label, g in graphs:
        edges = g.edges()
        _check_input(g.n, edges)
        certified = list(solver.solve(g).coloring.values)
        colorings = [("certified", certified, True)]
        if label.startswith("cycle-"):
            colorings.append(("periodic", _rotation_periodic(g.n, rng), False))
        elif label in _ORBIT_MAPS:
            image = _ORBIT_MAPS[label]()
            colorings.append(("orbit", _orbit_constant(g.n, edges, image, rng), False))
        for i in range(2):
            values = _random_proper(g.n, edges, g.max_degree() + 1, rng)
            colorings.append((f"random{i}", values, None))
        graph_text = _dimacs(g.n, edges)
        for kind, values, expect in colorings:
            _check_proper(edges, values, max(values))
            coloring_text = "".join(f"v {v + 1} {c}\n" for v, c in enumerate(values))
            ops.append(Op(
                "verify", f"{label}-{kind}", g.n, g.n + len(edges),
                lambda gt=graph_text, ct=coloring_text: _verify(gt, ct),
                lambda out, edges=edges, values=values, expect=expect: _check_verdict(
                    out, edges, values, expect
                ),
            ))
    return Workload(ops, trace_passes=40)


# ---- corpus-quick -----------------------------------------------------------


def _check_corpus(results: list[corpus.CriterionResult]) -> str:
    _need([r.number for r in results] == list(range(1, 8)), "criteria are missing")
    failed = [f"{r.number}: {r.detail}" for r in results if not r.passed]
    _need(not failed, "criteria failed: " + "; ".join(failed))
    # the detail text carries timings, so only the verdicts are digested
    return "".join(f"criterion {r.number} {r.name} PASS\n" for r in results)


def corpus_quick(seed: int) -> Workload:
    """``run_all`` at a reduced count, one full run per operation.

    A pass makes CORPUS_RUNS runs, so that the few random graphs of one
    reduced corpus weigh less. ``corpus_graphs`` sizes its random tree by the
    corpus seed modulo 38, its random girth-5 graphs by the seed modulo 33 and
    their degree cap by the seed modulo 4; corpus seeds CORPUS_STEP apart
    spread over all of these whatever the workload seed.
    """
    factor = CORPUS_COUNT / corpus.PROPERTY_RUNS
    trees = max(1, round(corpus.TREE_COUNT * factor))
    randoms = max(1, round(corpus.RANDOM_COUNT * factor))
    ops = []
    first = CORPUS_RUNS * CORPUS_STEP * seed
    for run_seed in range(first, first + CORPUS_RUNS * CORPUS_STEP, CORPUS_STEP):
        vertices = sum(g.n for _, g in corpus.corpus_graphs(run_seed, trees, randoms))
        ops.append(Op(
            "corpus", f"run_all-{CORPUS_COUNT}-seed{run_seed}", vertices, 0,
            lambda run_seed=run_seed: corpus.run_all(run_seed, count=CORPUS_COUNT),
            _check_corpus,
        ))
    return Workload(ops, trace_passes=2)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "solve-pipeline": solve_pipeline,
    "color2-large": color2_large,
    "verify-symmetric": verify_symmetric,
    "corpus-quick": corpus_quick,
}
