"""The full construction: branch dispatch, branch internals, certification."""

import hashlib
import random
import sys
from collections import Counter
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distcolor import graph as graph_module
from distcolor import solver
from distcolor.cli import main
from distcolor.coloring import Coloring, ListAssignment
from distcolor.corpus import connected_girth5_graphs, corpus_graphs
from distcolor.errors import InternalConsistencyError, PreconditionError
from distcolor.generators import (
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
from distcolor.graph import Graph, diameter, distances, girth, is_connected, render_graph
from distcolor.greedy import color_delta_plus_2, list_color_delta_plus_2
from distcolor.solver import (
    BRANCH_C6,
    BRANCH_DIAMETER3,
    BRANCH_GEODESIC,
    BRANCH_MOORE,
    BRANCH_NONREGULAR,
    BRANCH_PATH_OR_CYCLE,
    BRANCH_SPECIAL,
    DiameterThreeConfig,
    GeodesicConfig,
    _CASES,
    _diam3_configs,
    _diam3_parts,
    _diameter3_case,
    _first_geodesic_config,
    _geodesic_parts,
    _moore_case,
    _nonregular_case,
    _special_case,
    render_result,
    solve,
    solve_c6_extension,
    special_colorings,
)
from distcolor.symmetry import (
    certify,
    exact_chi_D,
    find_isomorphism,
    fixed_propagation,
    is_distinguishing,
    prefix_is_fixed,
)
from distcolor.tree import BfsTree, bfs_tree
from oracles import (
    STORED_SPECIAL_COLORINGS,
    cubic_girth5_completions,
    girth5_graphs,
    relabel,
    small_graphs,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

ALL_BRANCHES = {
    BRANCH_PATH_OR_CYCLE,
    BRANCH_NONREGULAR,
    BRANCH_GEODESIC,
    BRANCH_MOORE,
    BRANCH_SPECIAL,
    BRANCH_C6,
    BRANCH_DIAMETER3,
}


def check(g, result, bound):
    assert result.coloring.is_total()
    assert result.coloring.is_proper(g)
    assert result.coloring.max_color() <= bound
    assert result.colors_used == result.coloring.num_colors()
    assert is_distinguishing(g, result.coloring).distinguishing
    assert result.branch in ALL_BRANCHES
    fixed = fixed_propagation(g, result.tree, result.coloring, result.prefix)
    assert fixed == frozenset(g.vertices())


def run_case(case, g):
    """One entry of solve's case table on g, given the scan solve hands it."""
    return case(g, g.max_degree(), lambda: _first_geodesic_config(g))


def test_single_vertex_and_edge():
    r = solve(Graph(1, []))
    assert r.coloring.values == (1,) and r.branch == BRANCH_PATH_OR_CYCLE
    assert solve(path(2)).coloring.values == (1, 2)


def test_paths_get_three_colors():
    assert solve(path(4)).coloring.values == (1, 2, 3, 2)
    assert solve(path(5)).coloring.values == (1, 2, 3, 2, 3)
    r = solve(path(30))
    check(path(30), r, 3)
    assert r.branch == BRANCH_PATH_OR_CYCLE


def test_cycles_get_three_colors():
    assert solve(cycle(5)).coloring.values == (1, 2, 3, 1, 2)
    assert solve(cycle(7)).coloring.values == (1, 2, 3, 1, 2, 3, 2)
    r = solve(cycle(29))
    check(cycle(29), r, 3)


# what ``distcolor solve`` printed on the six-cycle when it was routed
# around ``solve``, notice line included
C6_SOLVE_OUTPUT = (
    "c six-cycle input: three colors cannot break its symmetries,"
    " using the four-color construction\n"
    "c branch=c6 colors=4 certified=1\n"
    "v 1 1\nv 2 2\nv 3 3\nv 4 1\nv 5 2\nv 6 4\n"
)


def test_solve_takes_the_six_cycle_in_its_first_case(tmp_path, capsys):
    g = cycle(6)
    r = solve(g)
    assert r.branch == BRANCH_C6 == _CASES[0][0]
    assert r.coloring.values == (1, 2, 3, 1, 2, 4)
    check(g, r, 4)
    assert solve_c6_extension(g) == r
    graph_file = tmp_path / "c6.col"
    graph_file.write_text(render_graph(g))
    assert main(["solve", str(graph_file)]) == 0
    assert capsys.readouterr() == (C6_SOLVE_OUTPUT, "")


def test_c6_entry_point_rejects_everything_else():
    with pytest.raises(PreconditionError):
        solve_c6_extension(cycle(5))
    with pytest.raises(PreconditionError):
        solve_c6_extension(path(6))


def test_the_six_cycle_is_checked_for_connectivity_once(monkeypatch):
    # solve's validation proves the graph connected; the six-cycle case
    # reads its size alone and runs no second BFS
    calls = []

    def counted(g):
        calls.append(g)
        return is_connected(g)

    monkeypatch.setattr(solver, "is_connected", counted)
    assert solve(cycle(6)).branch == BRANCH_C6
    assert len(calls) == 1


def test_six_cycle_needs_the_fourth_color():
    assert exact_chi_D(cycle(6)) == 4


def test_stars_use_the_nonregular_branch():
    g = star(4)
    r = solve(g)
    assert r.branch == BRANCH_NONREGULAR
    assert r.coloring.values == (1, 4, 2, 3)
    check(g, r, 4)
    big = star(9)
    check(big, solve(big), 9)


def test_trees_use_the_nonregular_branch():
    g = random_tree(25, seed=11)
    r = solve(g)
    assert r.branch == BRANCH_NONREGULAR
    check(g, r, g.max_degree() + 1)


def test_nonregular_requires_a_deficient_vertex():
    assert run_case(_nonregular_case, petersen()) is None


@pytest.mark.parametrize(
    "build, branch, colors",
    [
        (petersen, BRANCH_SPECIAL, 4),
        (heawood, BRANCH_SPECIAL, 4),
        (mcgee, BRANCH_GEODESIC, 4),
        (tutte_coxeter, BRANCH_GEODESIC, 4),
        (dodecahedron, BRANCH_GEODESIC, 4),
        (desargues, BRANCH_GEODESIC, 4),
        (pappus, BRANCH_GEODESIC, 4),
        (robertson, BRANCH_GEODESIC, 5),
        (hoffman_singleton, BRANCH_MOORE, 8),
    ],
    ids=lambda val: getattr(val, "__name__", str(val)),
)
def test_named_graph_dispatch(build, branch, colors):
    g = build()
    r = solve(g)
    assert r.branch == branch
    assert r.colors_used == colors
    check(g, r, g.max_degree() + 1)


def test_solve_is_deterministic():
    g = mcgee()
    assert solve(g).coloring == solve(g).coloring


def test_geodesic_configuration_on_the_dodecahedron():
    g = dodecahedron()
    cfg = _first_geodesic_config(g)
    assert cfg == GeodesicConfig(w=0, x1=1, x2=2, x3=3, x=4)
    tree, coloring = _geodesic_parts(g, cfg)
    # the construction pins w through x2; the shortest prefix is shorter
    prefix = certify(g, tree, coloring)
    assert prefix == (0, 1)
    assert len(prefix) <= tree.order.index(cfg.x2) + 1
    assert coloring.is_proper(g)
    assert coloring.max_color() <= 4
    assert is_distinguishing(g, coloring).distinguishing


def test_no_geodesic_configuration_at_diameter_two(monkeypatch):
    # without a configuration the scan answers with the diameter; a Moore
    # graph (Δ-regular on Δ²+1 vertices, girth 5) has diameter 2, so its
    # scan runs no BFS
    def refuse(*_):
        raise AssertionError("the scan ran a BFS on a Moore graph")

    monkeypatch.setattr(solver, "distances", refuse)
    for g in (cycle(5), petersen(), hoffman_singleton()):
        assert _first_geodesic_config(g) == 2


def test_construction_builds_no_neighbor_sets():
    # neighbor_sets makes a frozenset per vertex; reading one neighborhood
    # or checking a directive must not build it on a fresh graph
    geodesic = Graph(20, dodecahedron().edges())
    assert solve(geodesic).branch == BRANCH_GEODESIC
    for g in (path(60), random_tree(80, seed=3), Graph(20, geodesic.edges())):
        solve(g)
        color_delta_plus_2(g)
        assert "neighbor_sets" not in g.__dict__


def test_diameter_three_on_the_robertson_graph():
    # solve takes the geodesic case here, and no corpus graph reaches the
    # diameter-three case, so its exact output is pinned on this config
    g = robertson()
    cfg, dist = next(_diam3_configs(g))
    assert cfg == DiameterThreeConfig(
        w=0, x1=1, x2=9, y1=18, y2=11, z1=7, z2=6, z3=10
    )
    tree, coloring = _diam3_parts(g, cfg, dist)
    certify(g, tree, coloring)
    assert coloring.values == (
        1, 5, 2, 1, 3, 2, 1, 5, 2, 3, 2, 3, 4, 3, 1, 4, 2, 1, 2,
    )
    assert is_distinguishing(g, coloring).distinguishing


def test_diameter_three_preconditions():
    assert run_case(_diameter3_case, petersen()) is None
    assert run_case(_diameter3_case, hoffman_singleton()) is None


def hoffman_singleton_minus_a_closed_neighborhood():
    # the graph the Moore case recurses on, and the only input that reaches
    # the diameter-three case
    g = hoffman_singleton()
    return g.induced_subgraph(sorted(set(g.vertices()) - {0} - set(g.adj[0])))[0]


def test_every_diameter_three_configuration_certifies():
    # the case builds on the first configuration only, so every other one
    # must work as well
    robertson_configs = list(_diam3_configs(robertson()))
    assert len(robertson_configs) == 720
    g = hoffman_singleton_minus_a_closed_neighborhood()
    for h, configs in (
        (robertson(), robertson_configs),
        (g, islice(_diam3_configs(g), 200)),
    ):
        for cfg, dist in configs:
            # the construction pins w through z2, so no longer prefix is needed
            tree, coloring = _diam3_parts(h, cfg, dist)
            assert len(certify(h, tree, coloring)) <= tree.order.index(cfg.z2) + 1


def test_the_diameter_three_case_on_its_one_input():
    g = hoffman_singleton_minus_a_closed_neighborhood()
    parts = _diam3_parts(g, *next(_diam3_configs(g)))
    assert run_case(_diameter3_case, g) == parts
    assert solver._run_cases(g) == (BRANCH_DIAMETER3, *parts)


def geodesic_configs(g):
    """Every geodesic configuration at every root, x1 and x2 included."""
    for w in g.vertices():
        dist = distances(g, w)
        for x3 in g.vertices():
            if dist[x3] != 3:
                continue
            for x in (u for u in g.adj[x3] if dist[u] >= 3):
                for x2 in (u for u in g.adj[x3] if dist[u] == 2):
                    for x1 in (u for u in g.adj[x2] if dist[u] == 1):
                        yield GeodesicConfig(w, x1, x2, x3, x)


# sha256 over the (tree order, coloring) pairs that the two directive-driven
# constructions build on 4,736 configurations: every diameter-three one of
# the Robertson graph, the first 2,000 of Hoffman-Singleton minus a closed
# neighborhood, and every geodesic one of six cubic and quartic graphs
CONFIGURATIONS_GOLDEN = "121b75455aa4fa2c3aaff8def0f7334ce8778d16f6f25402d9bf4b55d2a4d181"


def test_the_constructions_build_the_same_trees_and_colorings():
    digest = hashlib.sha256()
    count = 0
    robertson_graph = robertson()
    reduced = hoffman_singleton_minus_a_closed_neighborhood()
    diameter_three = (
        (robertson_graph, _diam3_configs(robertson_graph)),
        (reduced, islice(_diam3_configs(reduced), 2000)),
    )
    for g, configs in diameter_three:
        for cfg, dist in configs:
            tree, coloring = _diam3_parts(g, cfg, dist)
            digest.update(repr((tree.order, coloring.values)).encode())
            count += 1
    for build in (dodecahedron, desargues, mcgee, tutte_coxeter, robertson, pappus):
        g = build()
        for cfg in geodesic_configs(g):
            tree, coloring = _geodesic_parts(g, cfg)
            digest.update(repr((tree.order, coloring.values)).encode())
            count += 1
    assert count == 4736
    assert digest.hexdigest() == CONFIGURATIONS_GOLDEN


@pytest.mark.parametrize(
    "build",
    [
        lambda: path(7),
        lambda: random_tree(30, seed=1),
        petersen,
        heawood,
        mcgee,
        robertson,
        hoffman_singleton,
        hoffman_singleton_minus_a_closed_neighborhood,
    ],
    ids=["path", "random-tree", "petersen", "heawood", "mcgee", "robertson",
         "hoffman-singleton", "hoffman-singleton-minus-n0"],
)
def test_every_case_returns_parts_or_none(build):
    # in solve's order, so each case sees only what solve would hand it
    g = build()
    for branch, case in solver._CASES:
        parts = run_case(case, g)
        if parts is not None:
            break
    assert branch == solve(g).branch
    assert isinstance(parts, tuple) and len(parts) == 2
    tree, coloring = parts
    assert isinstance(tree, BfsTree) and isinstance(coloring, Coloring)


def test_moore_branch_solves_hoffman_singleton():
    g = hoffman_singleton()
    r = solve(g)
    assert r.branch == BRANCH_MOORE
    coloring = r.coloring
    assert coloring.is_proper(g)
    assert coloring.max_color() <= 8
    assert coloring[0] == 1
    assert all(coloring[v] == 8 for v in g.adj[0])


def test_moore_branch_preconditions():
    assert run_case(_moore_case, petersen()) is None
    assert run_case(_moore_case, robertson()) is None


@PROPERTY_SETTINGS
@given(st.one_of(girth5_graphs(), small_graphs()))
def test_the_geodesic_scan_answers_with_the_diameter(g):
    assume(is_connected(g))
    found = _first_geodesic_config(g)
    if isinstance(found, int):
        assert found == diameter(g) <= 3
    else:
        dist = distances(g, found.w)
        assert dist[found.x3] == 3 and dist[found.x] >= 3


def test_solve_takes_the_diameter_from_the_geodesic_scan(monkeypatch):
    # the Moore case and its recursive diameter-three solve both need the
    # diameter; the geodesic scan has already run one BFS per vertex
    g = hoffman_singleton()
    expected = solve(g)

    def refuse(_):
        raise AssertionError("solve ran a second all-sources BFS")

    calls = []
    real = graph_module.distances

    def counted(g, source):
        calls.append(source)
        return real(g, source)

    monkeypatch.setattr(graph_module, "diameter", refuse)
    monkeypatch.setattr(solver, "diameter", refuse, raising=False)
    for name, module in list(sys.modules.items()):
        if name.startswith("distcolor") and getattr(module, "distances", None) is real:
            monkeypatch.setattr(module, "distances", counted)
    assert solve(g) == expected
    # 42 scan roots on the reduced graph, 2 connectivity checks (solve's
    # and the Moore case's on the reduced graph), the directive check of
    # the diameter-three tree and the first diameter-three root. The scan
    # of Hoffman-Singleton itself runs no BFS: a 7-regular girth-5 graph on
    # 50 = 7² + 1 vertices has diameter 2 by the Moore bound (96 when it
    # ran its 50 roots). A tree without directives runs no separate BFS.
    assert len(calls) == 46


# connected cubic girth-5 graphs up to isomorphism (OEIS A014372); the 9
# classes on 14 vertices take too long to separate with find_isomorphism
CUBIC_GIRTH5_CLASSES = {10: 1, 12: 2}


@pytest.mark.parametrize(
    "n, branches",
    [
        (10, {BRANCH_SPECIAL: 4}),
        (12, {BRANCH_GEODESIC: 76}),
        (14, {BRANCH_GEODESIC: 1820, BRANCH_SPECIAL: 8}),
    ],
)
def test_every_small_cubic_girth5_graph_takes_geodesic_or_special(n, branches):
    # Why the paper's last cubic case (a vertex with two neighbors that no
    # automorphism swaps) needs no code. A cubic girth-5 graph that gets
    # past the geodesic case has no geodesic configuration. Around any
    # vertex w, girth 5 puts 3 vertices at distance 1 and 6 at distance 2,
    # each of the 6 with one neighbor at distance 1. A configuration is a
    # vertex at distance 3 with a neighbor at distance 3 or more; with none,
    # nothing lies beyond distance 3 and each vertex at distance 3 has all
    # three neighbors at distance 2. The 6 have 12 edge ends left, so at
    # most 4 vertices lie at distance 3 and n <= 1 + 3 + 6 + 4 = 14.
    # Cubic means n even, girth 5 means n >= 10. Every labelled completion
    # on 10, 12 and 14 vertices is solved, none deduplicated.
    graphs = list(cubic_girth5_completions(n))
    assert all(is_connected(g) for g in graphs)
    assert Counter(solve(g).branch for g in graphs) == branches
    if n in CUBIC_GIRTH5_CLASSES:
        distinct = []
        for g in graphs:
            if all(find_isomorphism(g, seen) is None for seen in distinct):
                distinct.append(g)
        assert len(distinct) == CUBIC_GIRTH5_CLASSES[n]


@pytest.mark.parametrize("n", [12, 14])
def test_the_plain_bfs_gives_x2_every_level_3_neighbor(n):
    # x2 is the first child of w's first child x1, so it is the first vertex
    # on level 2, and each level-3 neighbor takes it as parent with no
    # directive; checked on every labelled cubic girth-5 graph that has a
    # geodesic configuration (those on 10 vertices are Petersen graphs, of
    # diameter 2, and have none)
    configured = 0
    for g in cubic_girth5_completions(n):
        cfg = _first_geodesic_config(g)
        if isinstance(cfg, int):
            continue
        configured += 1
        tree, _ = _geodesic_parts(g, cfg)
        dist = distances(g, cfg.w)
        assert tree.order[1 + g.degree(cfg.w)] == cfg.x2
        assert set(tree.children[cfg.x2]) == {u for u in g.adj[cfg.x2] if dist[u] == 3}
        assert tree.children[cfg.x2][-1] == cfg.x3
    assert configured > 0


def test_special_branch_transports_through_isomorphisms():
    g = petersen()
    relabel = [(v * 7 + 2) % 10 for v in range(10)]
    h = Graph(10, [(relabel[u], relabel[v]) for u, v in g.edges()])
    r = solve(h)
    assert r.branch == BRANCH_SPECIAL
    coloring = r.coloring
    assert coloring.is_proper(h)
    assert coloring.num_colors() == 4
    assert is_distinguishing(h, coloring).distinguishing


def test_special_branch_rejects_other_cubic_graphs():
    assert run_case(_special_case, mcgee()) is None


def test_stored_colorings_expose_both_graphs():
    stored = special_colorings()
    assert [label for label, _, _ in stored] == ["petersen", "heawood"]
    for (_, g, _), build in zip(stored, (petersen, heawood)):
        assert list(g.edges()) == list(build().edges())
    for _, g, coloring in stored:
        assert coloring.is_proper(g)
        assert coloring.num_colors() == 4


@pytest.mark.parametrize("index", [0, 1], ids=["petersen", "heawood"])
def test_special_colorings_match_the_former_stored_pair(index):
    # the stored colorings moved to the generators' numbering; on every
    # relabeling solve must give what the former graph and coloring gave
    g = (petersen, heawood)[index]()
    edges, values = STORED_SPECIAL_COLORINGS[index]
    old_h = Graph(g.n, edges)
    rng = random.Random(index)
    graphs = [g]
    for _ in range(200):
        image = list(g.vertices())
        rng.shuffle(image)
        graphs.append(relabel(g, image))
    for h in graphs:
        iso = find_isomorphism(h, old_h)
        assert solve(h).coloring.values == tuple(values[iso(v)] for v in h.vertices())


def test_solve_validates_its_input():
    with pytest.raises(PreconditionError):
        solve(Graph(0, []))
    with pytest.raises(PreconditionError):
        solve(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(PreconditionError):
        solve(cycle(4))


def _forbid_girth(monkeypatch):
    """Make girth() raise wherever a distcolor module binds it."""

    def forbidden(g):
        raise AssertionError("girth() is O(n*m) and must not run in validation")

    for name, module in list(sys.modules.items()):
        if name == "distcolor" or name.startswith("distcolor."):
            for attr, value in list(vars(module).items()):
                if value is girth:
                    monkeypatch.setattr(module, attr, forbidden)


def test_validation_runs_without_girth(monkeypatch):
    g = random_girth5(40, max_degree=4, seed=11)
    inputs = (petersen(), path(40))
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    k23 = Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    _forbid_girth(monkeypatch)

    for h in inputs:
        assert solve(h).coloring.is_proper(h)
    coloring = color_delta_plus_2(g)
    palette = range(1, g.max_degree() + 3)
    assert list_color_delta_plus_2(g, ListAssignment([palette] * g.n)).is_proper(g)
    assert len(fixed_propagation(g, bfs_tree(g, 0), coloring, [0])) == g.n

    # a triangle, and a triangle-free graph whose shortest cycle has length 4
    for bad, colors in ((triangle, (1, 2, 3)), (k23, (1, 1, 2, 2, 2))):
        with pytest.raises(PreconditionError):
            solve(bad)
        with pytest.raises(PreconditionError):
            color_delta_plus_2(bad)
        with pytest.raises(PreconditionError):
            list_color_delta_plus_2(bad, ListAssignment([range(1, 6)] * bad.n))
        with pytest.raises(PreconditionError):
            fixed_propagation(bad, bfs_tree(bad, 0), Coloring(colors), [0])


def test_a_moved_prefix_is_not_certified():
    # propagation from the first two vertices certifies all nine, but the
    # rotation by three preserves the coloring and moves the prefix
    g = cycle(9)
    tree = bfs_tree(g, 0)
    coloring = Coloring((1, 2, 3) * 3)
    prefix = tree.order[:2]
    assert len(fixed_propagation(g, tree, coloring, prefix)) == g.n
    with pytest.raises(InternalConsistencyError, match="^refinement"):
        certify(g, tree, coloring)


@pytest.mark.parametrize(
    "values", [(1, 2, 2, 1, 2), (1, 2, None, 1, 2)], ids=["improper", "not-total"]
)
def test_a_broken_case_is_an_internal_failure(values, monkeypatch):
    def broken(g, delta, scan):
        return bfs_tree(g, 0), Coloring(values)

    monkeypatch.setattr(solver, "_CASES", ((BRANCH_PATH_OR_CYCLE, broken),))
    # solve names the branch whose coloring failed its certificate
    with pytest.raises(InternalConsistencyError, match=f"^{BRANCH_PATH_OR_CYCLE}: "):
        solve(path(5))


def test_solve_checks_properness_once_per_call(monkeypatch):
    # the Moore case solves Hoffman-Singleton minus a closed neighborhood,
    # and only the whole coloring is certified
    checked = []
    check = Coloring.is_proper

    def counted_check(self, g):
        checked.append(g)
        return check(self, g)

    solved = []
    run = solver._run_cases

    def counted_cases(g):
        solved.append(g)
        return run(g)

    monkeypatch.setattr(Coloring, "is_proper", counted_check)
    monkeypatch.setattr(solver, "_run_cases", counted_cases)
    for build, calls in ((petersen, 1), (hoffman_singleton, 2)):
        checked.clear()
        solved.clear()
        solver.solve(build())
        assert len(solved) == calls
        assert checked == solved[:1]


def test_corpus_is_certified_by_propagation():
    for label, g in corpus_graphs(0, trees=20, randoms=40):
        r = solve(g)
        assert fixed_propagation(g, r.tree, r.coloring, r.prefix) == frozenset(g.vertices())
        assert prefix_is_fixed(g, r.coloring, r.prefix), label
        assert is_distinguishing(g, r.coloring).distinguishing, label


def test_every_small_girth5_class_certifies_under_relabelling():
    # each connected girth-5 graph on at most ten vertices, up to
    # isomorphism, renamed two ways: certification does not depend on the
    # numbering that picks the root and the BFS order
    graphs = connected_girth5_graphs(10)
    assert len(graphs) == 683
    for seed, g in enumerate(graphs):
        for rng in (random.Random(seed), random.Random(-1 - seed)):
            image = list(g.vertices())
            rng.shuffle(image)
            h = relabel(g, image)
            r = solve(h)
            check(h, r, 4 if r.branch == BRANCH_C6 else h.max_degree() + 1)


# sha256 over the full seed-0 corpus: each result's rendering and its
# certifying prefix, the shortest there is; any change to a branch's output
# shows
CORPUS_GOLDEN = "5effa59ee7d77793a6485c29bc42dae60d5ac7d93a75325399c57489c0993370"


def test_corpus_output_is_unchanged():
    digest = hashlib.sha256()
    count = 0
    for label, g in corpus_graphs(0):
        r = solve(g)
        digest.update(
            f"{label}\n{render_result(r)}c prefix={' '.join(map(str, r.prefix))}\n".encode()
        )
        count += 1
    assert count == 370
    assert digest.hexdigest() == CORPUS_GOLDEN


def test_a_prefix_that_refinement_leaves_unfixed_is_an_internal_error(monkeypatch):
    # no search stands behind refinement, at any size
    monkeypatch.setattr("distcolor.symmetry.prefix_is_fixed", lambda *args: False)
    with pytest.raises(InternalConsistencyError, match="^special: refinement"):
        solve(petersen())
    with pytest.raises(InternalConsistencyError, match="^path_or_cycle: refinement"):
        solve(path(200))


@pytest.mark.parametrize(
    "build",
    [
        lambda: path(1000),
        lambda: cycle(1001),
        lambda: random_tree(1000, seed=3),
        lambda: random_girth5(300, max_degree=4, seed=3),
    ],
    ids=["path-1000", "cycle-1001", "tree-1000", "girth5-300"],
)
def test_large_graphs_solve_past_the_search_bound(build):
    g = build()
    r = solve(g)
    assert r.coloring.is_total() and r.coloring.is_proper(g)
    assert r.coloring.max_color() <= g.max_degree() + 1
    assert fixed_propagation(g, r.tree, r.coloring, r.prefix) == frozenset(g.vertices())


def test_render_result_header():
    text = render_result(solve(petersen()))
    lines = text.splitlines()
    assert lines[0] == "c branch=special colors=4 certified=1"
    assert lines[1].startswith("v 1 ")
    assert len(lines) == 11


def test_solution_matches_exact_optimum_when_small():
    for g in (path(5), cycle(7), star(4), petersen()):
        r = solve(g)
        assert exact_chi_D(g) <= r.colors_used


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_random_girth5_graphs_solve_within_bound(seed):
    g = random_girth5(8 + seed % 25, max_degree=3 + seed % 4, seed=seed)
    r = solve(g)
    check(g, r, g.max_degree() + 1)


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_random_trees_solve_within_bound(seed):
    g = random_tree(3 + seed % 30, seed=seed)
    r = solve(g)
    check(g, r, g.max_degree() + 1)
