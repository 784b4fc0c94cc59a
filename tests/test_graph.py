"""Graph construction, DIMACS parsing, and metric computations."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distcolor.graph as graph_module
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
    SEARCH_BOUND,
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
    assert g.adj[1] == (0,)


def test_rejects_self_loops_and_duplicates():
    for n, edges, message in [
        (3, [(1, 1)], "self-loop at vertex 1"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        (3, [(1, 0), (0, 1)], "duplicate edge (0, 1)"),
        (3, [(2, 1), (2, 1)], "duplicate edge (1, 2)"),
        (2, [(0, 5)], "edge (0, 5) out of range for n=2"),
        (2, [(-1, 0)], "edge (-1, 0) out of range for n=2"),
        (2, [(5, 5)], "edge (5, 5) out of range for n=2"),
        (-1, [], "vertex count must be nonnegative"),
    ]:
        with pytest.raises(PreconditionError) as err:
            Graph(n, edges)
        assert str(err.value) == message


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


def test_short_cycle_walk_runs_once_per_graph(monkeypatch):
    memo = vars(Graph)["_has_short_cycle"]
    walk = memo.func
    walked = []
    monkeypatch.setattr(memo, "func", lambda g: walked.append(g) or walk(g))
    # a fresh object: the memoized petersen() may already hold its verdict
    g = Graph(10, petersen().edges())
    for _ in range(3):
        assert not has_cycle_shorter_than_five(g)
    assert has_cycle_shorter_than_five(cycle(4))
    assert walked == [g, cycle(4)]


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
    "text, message",
    [
        ("e 1 2\n", "line 1: edge before problem line"),
        ("p edge 3 1\np edge 3 1\ne 1 2\n", "line 2: repeated problem line"),
        ("p edge 3 2\ne 1 2\n", "problem line promises 2 edges, found 1"),
        ("p edge 3 1\ne 1 4\n", "line 2: vertex out of range: 'e 1 4'"),
        ("p edge 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge: 'e 2 1'"),
        ("p edge 3 1\ne 1 1\n", "line 2: self-loop: 'e 1 1'"),
        ("p edge 3 1\nq 1 2\n", "line 2: malformed line: 'q 1 2'"),
        ("p edge x 1\ne 1 2\n", "line 1: malformed problem line: 'p edge x 1'"),
        ("p edge 3 2\ne 1 2\n  e   1 2  \n", "line 3: duplicate edge: 'e   1 2'"),
        ("c\n\np edge 3 1\ne 0 2\n", "line 4: vertex out of range: 'e 0 2'"),
        ("p edge 3 1\n\te 1\n", "line 2: malformed edge line: 'e 1'"),
        ("p edge 3 1\ne 1 2 3\n", "line 2: malformed edge line: 'e 1 2 3'"),
        ("p edge 3 1\ne 1 x\n", "line 2: malformed edge line: 'e 1 x'"),
        ("p edge 3\n", "line 1: malformed problem line: 'p edge 3'"),
        ("p edge -1 0\n", "line 1: malformed problem line: 'p edge -1 0'"),
        ("p col 3 1\n", "line 1: malformed problem line: 'p col 3 1'"),
        ("c only a comment\n", "missing problem line"),
        ("p edge 3 1\n  edge 1 2 \n", "line 2: malformed line: 'edge 1 2'"),
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
        "duplicate-edge-same-order",
        "vertex-zero",
        "short-edge-line",
        "long-edge-line",
        "non-integer-vertex",
        "short-problem-line",
        "negative-problem-line",
        "wrong-problem-kind",
        "comments-only",
        "unknown-tag",
    ],
)
def test_parse_rejects_malformed_input(text, message):
    # the exact text, line number included, is what the CLI prints on stderr
    with pytest.raises(DimacsError) as err:
        parse_graph(text)
    assert str(err.value) == message


# past the interpreter's default limit of 4300 digits for int()
LONG = "9" * 4301
PATH_10 = "".join(f"e {v} {v + 1}\n" for v in range(1, 10))


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 1_0 9\n" + PATH_10, "line 1: malformed problem line: 'p edge 1_0 9'"),
        ("p edge 10 +9\n" + PATH_10, "line 1: malformed problem line: 'p edge 10 +9'"),
        ("p edge 10 9\ne +9 1_0\n", "line 2: malformed edge line: 'e +9 1_0'"),
        ("p edge 10 1\ne 1 \u0661\n", "line 2: malformed edge line: 'e 1 \u0661'"),
        ("p edge 10 1\ne \uff11 2\n", "line 2: malformed edge line: 'e \uff11 2'"),
        ("p edge 10 1\ne -1 2\n", "line 2: malformed edge line: 'e -1 2'"),
        ("p edge 10 1\ne 1 \u00b2\n", "line 2: malformed edge line: 'e 1 \u00b2'"),
        (f"p edge 10 1\ne 1 {LONG}\n", f"line 2: malformed edge line: 'e 1 {LONG}'"),
        (f"p edge 10 {LONG}\n", f"line 1: malformed problem line: 'p edge 10 {LONG}'"),
    ],
    ids=[
        "underscore-count", "plus-count", "plus-and-underscore", "arabic-indic",
        "fullwidth", "minus", "superscript", "long-vertex", "long-count",
    ],
)
def test_parse_reads_only_ascii_digits(text, message):
    # int() also takes a sign, "_" between digits and other scripts'
    # digits; read that way, the first text was a 10-vertex path. "²" is a
    # digit to str.isdigit() alone, and int() itself raises ValueError past
    # 4300 digits
    with pytest.raises(DimacsError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize("comment", ["c a-b", "c +1", "c 1_0", "c \u0661 \u00e9"])
def test_parse_reads_numbers_beside_signs_and_other_scripts_in_comments(comment):
    # such characters anywhere in the text turn on the per-field test
    assert parse_graph(f"{comment}\np edge 3 2\ne 1 2\ne 2 3\n") == Graph(3, [(0, 1), (1, 2)])


def test_parse_refuses_more_vertices_than_edges_or_searches_use(monkeypatch):
    # the header alone must not allocate: a stub stands in for huge graphs
    real = graph_module.Graph

    def small_only(n, edges):
        if n > 1000:
            raise AssertionError(f"a graph of {n} vertices was allocated")
        return real(n, edges)

    monkeypatch.setattr(graph_module, "Graph", small_only)
    for text in ("p edge 1000000000 0\n", "p edge 129 0\n", "p edge 200 3\ne 1 2\n"):
        with pytest.raises(DimacsError, match="exceeds the limit"):
            parse_graph(text)
    # up to max(2m+1, SEARCH_BOUND) vertices are still read
    assert parse_graph("p edge 128 0\n").n == SEARCH_BOUND
    assert parse_graph("p edge 131 65\n" + "".join(
        f"e {2 * i + 1} {2 * i + 2}\n" for i in range(65)
    )).n == 131


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
