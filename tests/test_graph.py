"""Graph construction, DIMACS parsing, and metric computations."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distcolor.errors import DimacsError, PreconditionError
from distcolor.generators import (
    cycle,
    heawood,
    mcgee,
    path,
    petersen,
    random_tree,
    star,
    tutte_coxeter,
)
from distcolor.graph import (
    INFINITY,
    Graph,
    diameter,
    distances,
    girth,
    has_cycle_shorter_than_five,
    is_connected,
    parse_graph,
    render_graph,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


@st.composite
def sparse_graphs(draw):
    """A random tree on at most 14 vertices plus at most 4 extra edges.

    Sparse enough that girth-5 graphs and triangle-free 4-cycles both turn up
    often, where small_graphs mostly draws triangles.
    """
    n = draw(st.integers(min_value=1, max_value=14))
    # offsets from v - 1, so that draws and shrinks lean to long paths, not stars
    edges = [(v - 1 - draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    tree = set(edges)
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    if spare:
        extra = draw(st.integers(min_value=1, max_value=min(4, len(spare))))
        edges += draw(st.permutations(spare))[:extra]
    return Graph(n, edges)


K23 = Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
CUBE = Graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
C5_PENDANT = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])


def test_adjacency_is_sorted_and_symmetric():
    g = Graph(4, [(2, 0), (3, 2), (0, 1)])
    assert g.adj[0] == (1, 2)
    assert g.adj[2] == (0, 3)
    assert g.m == 3
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(1, 3)


def test_degree_and_vertices():
    g = star(5)
    assert g.degree(0) == 4
    assert g.max_degree() == 4
    assert list(g.vertices()) == [0, 1, 2, 3, 4]
    assert g.neighbors(1) == (0,)


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(PreconditionError):
        Graph(3, [(1, 1)])
    with pytest.raises(PreconditionError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(PreconditionError):
        Graph(2, [(0, 5)])


def test_induced_subgraph_relabels_consistently():
    g = petersen()
    keep = [v for v in g.vertices() if v not in (0, 1)]
    sub, old_to_new = g.induced_subgraph(keep)
    assert sub.n == 8
    for u in keep:
        for v in keep:
            if u < v:
                assert sub.has_edge(old_to_new[u], old_to_new[v]) == g.has_edge(u, v)


def test_distances_and_diameter():
    g = path(5)
    assert distances(g, 0) == [0, 1, 2, 3, 4]
    assert diameter(g) == 4
    assert diameter(petersen()) == 2


def test_distances_mark_unreachable():
    g = Graph(3, [(0, 1)])
    assert distances(g, 0)[2] == INFINITY
    assert not is_connected(g)
    assert is_connected(path(3))


def test_girth_of_named_graphs():
    assert girth(petersen()) == 5
    assert girth(heawood()) == 6
    assert girth(mcgee()) == 7
    assert girth(tutte_coxeter()) == 8
    assert girth(cycle(5)) == 5
    assert girth(path(7)) == INFINITY
    assert girth(random_tree(20, seed=3)) == INFINITY


def test_short_cycle_detection():
    assert has_cycle_shorter_than_five(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert has_cycle_shorter_than_five(cycle(4))
    assert not has_cycle_shorter_than_five(cycle(5))
    assert not has_cycle_shorter_than_five(path(10))


def test_parse_and_render_round_trip_named():
    for g in (petersen(), heawood(), path(6), star(4)):
        assert parse_graph(render_graph(g)) == g


def test_parse_skips_comments_and_blanks():
    text = "c a comment\n\np edge 3 2\ne 1 2\nc another\ne 2 3\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2\n",
        "p edge 3 1\np edge 3 1\ne 1 2\n",
        "p edge 3 2\ne 1 2\n",
        "p edge 3 1\ne 1 4\n",
        "p edge 3 2\ne 1 2\ne 2 1\n",
        "p edge 3 1\ne 1 1\n",
        "p edge 3 1\nq 1 2\n",
        "p edge x 1\ne 1 2\n",
    ],
    ids=[
        "missing-problem-line",
        "repeated-problem-line",
        "edge-count-mismatch",
        "vertex-out-of-range",
        "duplicate-edge",
        "self-loop",
        "unknown-line",
        "malformed-problem-line",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(DimacsError):
        parse_graph(text)


@PROPERTY_SETTINGS
@given(small_graphs())
def test_round_trip_is_identity(g):
    assert parse_graph(render_graph(g)) == g


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(), sparse_graphs()))
@example(K23)
@example(CUBE)
@example(petersen())
@example(heawood())
@example(C5_PENDANT)
def test_girth_matches_shortcut_predicate(g):
    assert has_cycle_shorter_than_five(g) == (girth(g) < 5)


@PROPERTY_SETTINGS
@given(small_graphs())
def test_diameter_agrees_with_distances(g):
    if not is_connected(g):
        return
    expected = max(
        max(d for d in distances(g, v) if not math.isinf(d)) for v in g.vertices()
    )
    assert diameter(g) == expected
