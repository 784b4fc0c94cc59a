"""Named graph constructions and the random generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distcolor.generators as generators_module
from distcolor.errors import PreconditionError
from distcolor.generators import (
    GENERATORS,
    cycle,
    desargues,
    dodecahedron,
    generate,
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
from distcolor.graph import INFINITY, diameter, girth, is_connected
from oracles import outcome, random_girth5_by_bfs

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


@pytest.mark.parametrize(
    "build, n, m, degree, expected_girth",
    [
        (petersen, 10, 15, 3, 5),
        (heawood, 14, 21, 3, 6),
        (mcgee, 24, 36, 3, 7),
        (tutte_coxeter, 30, 45, 3, 8),
        (dodecahedron, 20, 30, 3, 5),
        (desargues, 20, 30, 3, 6),
        (pappus, 18, 27, 3, 6),
        (robertson, 19, 38, 4, 5),
        (hoffman_singleton, 50, 175, 7, 5),
    ],
    ids=lambda val: getattr(val, "__name__", str(val)),
)
def test_named_graphs_have_their_parameters(build, n, m, degree, expected_girth):
    g = build()
    assert g.n == n
    assert g.m == m
    assert all(g.degree(v) == degree for v in g.vertices())
    assert girth(g) == expected_girth
    assert is_connected(g)


def test_named_graphs_are_built_and_checked_once(monkeypatch):
    named = [build for build, params in GENERATORS.values() if not params]
    assert len(named) == 9
    checked = []
    monkeypatch.setattr(
        generators_module, "girth", lambda g: checked.append(g) or girth(g)
    )
    for build in named:
        build.cache_clear()
    first = [build() for build in named]
    second = [build() for build in named]
    assert all(a is b for a, b in zip(first, second))
    assert len(checked) == len(named)
    assert all(g is built for g, built in zip(checked, first))


def test_moore_graphs_have_diameter_two():
    assert diameter(petersen()) == 2
    assert diameter(hoffman_singleton()) == 2


def test_path_and_cycle_shapes():
    g = path(5)
    assert g.m == 4 and g.degree(0) == 1 and g.degree(2) == 2
    h = cycle(5)
    assert h.m == 5 and all(h.degree(v) == 2 for v in h.vertices())
    assert girth(h) == 5


def test_star_centers_vertex_zero():
    g = star(6)
    assert g.degree(0) == 5
    assert all(g.degree(v) == 1 for v in range(1, 6))
    assert girth(g) == INFINITY


def test_tiny_sizes():
    assert path(1).n == 1 and path(1).m == 0
    assert path(2).m == 1
    assert star(1).n == 1
    with pytest.raises(PreconditionError):
        cycle(2)
    with pytest.raises(PreconditionError):
        path(0)
    with pytest.raises(PreconditionError):
        star(0)


def test_random_tree_is_a_tree():
    g = random_tree(17, seed=4)
    assert g.m == 16
    assert is_connected(g)
    assert girth(g) == INFINITY


def test_random_tree_is_deterministic():
    assert random_tree(12, seed=9) == random_tree(12, seed=9)
    assert random_tree(12, seed=9) != random_tree(12, seed=10)


def test_random_girth5_respects_its_contract():
    g = random_girth5(25, max_degree=4, seed=2)
    assert g.n == 25
    assert is_connected(g)
    assert girth(g) >= 5
    assert g.max_degree() <= 4
    assert g == random_girth5(25, max_degree=4, seed=2)


def test_generate_dispatches_by_kind():
    assert generate("petersen") == petersen()
    assert generate("path", n=4) == path(4)
    assert generate("random-tree", n=9, seed=3) == random_tree(9, seed=3)
    assert generate("random-girth5", n=12, max_degree=3, seed=1) == random_girth5(
        12, max_degree=3, seed=1
    )


def test_generate_rejects_bad_requests():
    with pytest.raises(PreconditionError):
        generate("nope")
    with pytest.raises(PreconditionError):
        generate("path")
    with pytest.raises(PreconditionError):
        generate("petersen", n=10)
    with pytest.raises(PreconditionError):
        generate("cycle", n=2)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=5, max_value=40),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_girth5_always_valid(n, d, seed):
    g = random_girth5(n, max_degree=d, seed=seed)
    assert g.n == n
    assert is_connected(g)
    assert girth(g) >= 5
    assert g.max_degree() <= d


def test_random_girth5_matches_the_bfs_oracle_on_a_grid():
    # graphs or errors, including degree caps too small for a tree
    for n in range(1, 61):
        for d in range(1, 8):
            for seed in (0, 1, 1234):
                assert outcome(random_girth5, n, d, seed) == outcome(
                    random_girth5_by_bfs, n, d, seed
                ), (n, d, seed)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=1, max_value=90),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**31),
)
def test_random_girth5_matches_the_bfs_oracle(n, d, seed):
    assert outcome(random_girth5, n, d, seed) == outcome(random_girth5_by_bfs, n, d, seed)


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_random_tree_always_valid(n, seed):
    g = random_tree(n, seed=seed)
    assert g.n == n
    assert g.m == n - 1
    assert is_connected(g)
