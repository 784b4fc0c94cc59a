"""The full construction: branch dispatch, branch internals, certification."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor.coloring import Coloring, ListAssignment
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
from distcolor.graph import Graph, girth
from distcolor.greedy import color_delta_plus_2, list_color_delta_plus_2
from distcolor.solver import (
    BRANCH_C6,
    BRANCH_DIAMETER3,
    BRANCH_DISSIMILAR,
    BRANCH_GEODESIC,
    BRANCH_MOORE,
    BRANCH_NONREGULAR,
    BRANCH_PATH_OR_CYCLE,
    BRANCH_SPECIAL,
    DiameterThreeConfig,
    GeodesicConfig,
    color_diameter3,
    color_dissimilar_neighbors,
    color_geodesic,
    color_moore_recursive,
    color_nonregular,
    color_path_or_cycle,
    color_special,
    find_diam3_config,
    find_geodesic_config,
    is_c6,
    render_result,
    solve,
    solve_c6_extension,
    special_colorings,
)
from distcolor.symmetry import exact_chi_D, fixed_propagation, is_distinguishing
from distcolor.tree import bfs_tree

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

ALL_BRANCHES = {
    BRANCH_PATH_OR_CYCLE,
    BRANCH_NONREGULAR,
    BRANCH_GEODESIC,
    BRANCH_MOORE,
    BRANCH_DISSIMILAR,
    BRANCH_SPECIAL,
    BRANCH_C6,
    BRANCH_DIAMETER3,
}


def check(g, result, bound):
    assert result.certified
    assert result.coloring.is_total()
    assert result.coloring.is_proper(g)
    assert result.coloring.max_color() <= bound
    assert result.colors_used == result.coloring.num_colors()
    assert is_distinguishing(g, result.coloring).distinguishing
    assert result.branch in ALL_BRANCHES
    fixed = fixed_propagation(g, result.tree, result.coloring, result.prefix)
    assert fixed == frozenset(g.vertices())


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


def test_six_cycle_is_refused_and_rerouted():
    g = cycle(6)
    assert is_c6(g)
    with pytest.raises(PreconditionError):
        solve(g)
    with pytest.raises(PreconditionError):
        color_path_or_cycle(g)
    r = solve_c6_extension(g)
    assert r.branch == BRANCH_C6
    assert r.coloring.values == (1, 2, 3, 1, 2, 4)
    check(g, r, 4)


def test_c6_entry_point_rejects_everything_else():
    with pytest.raises(PreconditionError):
        solve_c6_extension(cycle(5))
    with pytest.raises(PreconditionError):
        solve_c6_extension(path(6))


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
    with pytest.raises(PreconditionError):
        color_nonregular(cycle(5), 0)


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
    cfg = find_geodesic_config(g)
    assert cfg == GeodesicConfig(w=0, x1=1, x2=2, x3=3, x=4)
    coloring = color_geodesic(g, cfg)
    assert coloring.is_proper(g)
    assert coloring.max_color() <= 4
    assert is_distinguishing(g, coloring).distinguishing


def test_no_geodesic_configuration_at_diameter_two():
    assert find_geodesic_config(petersen()) is None


def test_geodesic_rejects_fabricated_configurations():
    g = dodecahedron()
    with pytest.raises(PreconditionError):
        color_geodesic(g, GeodesicConfig(w=0, x1=1, x2=2, x3=3, x=17))


def test_diameter_three_on_the_robertson_graph():
    g = robertson()
    cfg = find_diam3_config(g)
    assert cfg == DiameterThreeConfig(
        w=0, x1=1, x2=9, y1=18, y2=11, z1=7, z2=6, z3=10
    )
    coloring = color_diameter3(g, cfg)
    assert coloring.values == (
        1, 5, 2, 1, 3, 2, 1, 5, 2, 3, 2, 3, 4, 3, 1, 4, 2, 1, 2,
    )
    assert is_distinguishing(g, coloring).distinguishing


def test_diameter_three_preconditions():
    with pytest.raises(PreconditionError):
        find_diam3_config(petersen())
    with pytest.raises(PreconditionError):
        find_diam3_config(hoffman_singleton())


def test_moore_branch_solves_hoffman_singleton():
    g = hoffman_singleton()
    coloring = color_moore_recursive(g, 0)
    assert coloring.is_proper(g)
    assert coloring.max_color() <= 8
    assert coloring[0] == 1
    assert all(coloring[v] == 8 for v in g.adj[0])


def test_moore_branch_preconditions():
    with pytest.raises(PreconditionError):
        color_moore_recursive(petersen(), 0)
    with pytest.raises(PreconditionError):
        color_moore_recursive(robertson(), 0)


def test_dissimilar_neighbors_on_a_path():
    coloring = color_dissimilar_neighbors(path(4), 1, 0, 2)
    assert coloring.values == (1, 3, 1, 2)


def test_dissimilar_neighbors_reject_similar_pairs():
    g = dodecahedron()
    x1, y1 = g.adj[0][:2]
    with pytest.raises(PreconditionError):
        color_dissimilar_neighbors(g, 0, x1, y1)


def test_special_branch_transports_through_isomorphisms():
    g = petersen()
    relabel = [(v * 7 + 2) % 10 for v in range(10)]
    h = Graph(10, [(relabel[u], relabel[v]) for u, v in g.edges()])
    coloring = color_special(h)
    assert coloring.is_proper(h)
    assert coloring.num_colors() == 4
    assert is_distinguishing(h, coloring).distinguishing


def test_special_branch_rejects_other_cubic_graphs():
    with pytest.raises(PreconditionError):
        color_special(mcgee())


def test_stored_colorings_expose_both_graphs():
    stored = special_colorings()
    assert [label for label, _, _ in stored] == ["petersen", "heawood"]
    for _, g, coloring in stored:
        assert coloring.is_proper(g)
        assert coloring.num_colors() == 4


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
        assert solve(h).certified
    coloring = color_delta_plus_2(g)
    palette = range(1, g.max_degree() + 3)
    assert list_color_delta_plus_2(g, ListAssignment.uniform(g.n, palette)).is_proper(g)
    assert len(fixed_propagation(g, bfs_tree(g, 0), coloring, [0])) == g.n

    # a triangle, and a triangle-free graph whose shortest cycle has length 4
    for bad, colors in ((triangle, (1, 2, 3)), (k23, (1, 1, 2, 2, 2))):
        with pytest.raises(PreconditionError):
            solve(bad)
        with pytest.raises(PreconditionError):
            color_delta_plus_2(bad)
        with pytest.raises(PreconditionError):
            list_color_delta_plus_2(bad, ListAssignment.uniform(bad.n, range(1, 6)))
        with pytest.raises(PreconditionError):
            fixed_propagation(bad, bfs_tree(bad, 0), Coloring(colors, 3), [0])


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
