"""Automorphism search, distinguishing verdicts, and fixedness propagation."""

import random
import tracemalloc
from itertools import permutations, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distcolor import symmetry
from distcolor.coloring import Coloring, ListAssignment
from distcolor.corpus import NAMED_GRAPHS, connected_girth5_graphs, corpus_graphs
from distcolor.errors import (
    InternalConsistencyError,
    PreconditionError,
    PropernessError,
    SearchBoundError,
)
from distcolor.generators import (
    cycle,
    desargues,
    dodecahedron,
    heawood,
    mcgee,
    pappus,
    path,
    petersen,
    random_girth5,
    random_tree,
    star,
)
from distcolor.graph import Graph, distances
from distcolor.greedy import color_delta_plus_2, list_color_delta_plus_2
from distcolor.solver import is_c6, solve, solve_c6_extension
from distcolor.symmetry import (
    Permutation,
    _connected_order,
    _orbit,
    _search_verdict,
    _unruled_colorings,
    _wl_labels,
    _wl_rounds,
    automorphisms,
    certify,
    exact_chi_D,
    exists_automorphism_mapping,
    find_isomorphism,
    fixed_propagation,
    is_distinguishing,
    prefix_is_fixed,
)
from distcolor.tree import bfs_tree
from oracles import (
    CONSTRUCTION_GRAPHS,
    automorphisms_forward_base,
    canonical_colorings,
    connected_order_by_pop,
    enumerate_automorphisms,
    exact_chi_D_by_enumeration,
    exists_automorphism_mapping_pinned,
    find_isomorphism_joint,
    girth5_graphs,
    group_closure,
    is_identity,
    outcome,
    prefix_is_fixed_plain,
    propagate_by_rounds,
    random_proper_coloring,
    relabel,
    shortest_certifying_prefix_by_loop,
    small_graphs,
    wl_labels_plain,
    wl_rounds_shared_table,
    wl_rounds_until_stable,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    assert p(0) == 1 and p(2) == 0 and len(p) == 3
    assert not is_identity(p)
    assert is_identity(Permutation((0, 1, 2)))


def test_permutation_render_is_one_indexed():
    assert Permutation((2, 1, 0)).render() == "1 -> 3\n2 -> 2\n3 -> 1\n"


def test_adjacency_preservation():
    g = path(3)
    assert Permutation((2, 1, 0)).preserves_adjacency(g)
    assert not Permutation((1, 0, 2)).preserves_adjacency(g)


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda: Graph(1, []), 1),
        (lambda: path(3), 2),
        (lambda: star(4), 6),
        (lambda: cycle(5), 10),
        (lambda: cycle(6), 12),
        (lambda: petersen(), 120),
        (lambda: heawood(), 336),
        (lambda: dodecahedron(), 120),
    ],
    ids=["k1", "p3", "claw", "c5", "c6", "petersen", "heawood", "dodecahedron"],
)
def test_group_orders(build, order):
    _, found = automorphisms(build())
    assert found == order


def test_enumeration_matches_counted_order():
    g = cycle(6)
    gens, order = automorphisms(g)
    everything = enumerate_automorphisms(g)
    assert len(everything) == order
    assert all(f.preserves_adjacency(g) for f in everything)
    assert all(any(f.image == e.image for e in everything) for f in gens)


def test_coloring_cuts_the_group_down():
    g = cycle(6)
    alternating = Coloring((1, 2, 1, 2, 1, 2))
    _, order = automorphisms(g, alternating)
    assert order == 6


def test_alternating_six_cycle_witness_is_lex_least():
    verdict = is_distinguishing(cycle(6), Coloring((1, 2, 1, 2, 1, 2)))
    assert not verdict.distinguishing
    assert verdict.witness.image == (0, 5, 4, 3, 2, 1)


def test_three_path_witness():
    verdict = is_distinguishing(path(3), Coloring((1, 2, 1)))
    assert not verdict.distinguishing
    assert verdict.witness.image == (2, 1, 0)


def test_distinguishing_five_cycle():
    verdict = is_distinguishing(cycle(5), Coloring((1, 2, 1, 2, 3)))
    assert verdict.distinguishing
    assert verdict.witness is None


def test_verdict_requires_total_proper_colorings():
    g = path(3)
    with pytest.raises(PropernessError):
        is_distinguishing(g, Coloring((1, 1, 2)))
    with pytest.raises(PropernessError):
        is_distinguishing(g, Coloring((1, None, 2)))


def test_similar_and_dissimilar_vertices():
    assert exists_automorphism_mapping(petersen(), 0, 7)
    g = path(4)
    assert exists_automorphism_mapping(g, 0, 3)
    assert not exists_automorphism_mapping(g, 0, 2)
    assert not exists_automorphism_mapping(g, 0, 1)


def test_automorphism_mapping_matches_the_pinned_search():
    # every pair on the 82 connected girth-5 classes up to 8 vertices and
    # on the small named graphs and the star; vertex 0 against every vertex
    # on the dodecahedron and cycle(40), whose groups each call rebuilds
    everywhere = [*connected_girth5_graphs(8), petersen(), heawood(), star(12)]
    assert len(everywhere) == 85
    pairs = [(g, u, v) for g in everywhere for u in g.vertices() for v in g.vertices()]
    pairs += [(g, 0, v) for g in (dodecahedron(), cycle(40)) for v in g.vertices()]
    for g, u, v in pairs:
        assert exists_automorphism_mapping(g, u, v) == exists_automorphism_mapping_pinned(
            g, u, v
        ), (g.edges(), u, v)


def test_isomorphism_found_under_relabeling():
    g = petersen()
    relabel = [(v * 3 + 1) % 10 for v in range(10)]
    h = Graph(10, [(relabel[u], relabel[v]) for u, v in g.edges()])
    iso = find_isomorphism(g, h)
    assert iso is not None
    assert iso.preserves_adjacency(g, h)


def test_isomorphism_distinguishes_cubic_twins():
    assert find_isomorphism(desargues(), dodecahedron()) is None
    assert find_isomorphism(path(3), path(4)) is None


@settings(max_examples=300, deadline=None)
@given(small_graphs(), small_graphs(), st.data())
def test_isomorphism_matches_joint_refinement(g, other, data):
    image = data.draw(st.permutations(range(g.n)))
    copy = relabel(g, image)
    # a near miss: the copy with one edge moved keeps n and m
    edges = copy.edges()
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not copy.has_edge(u, v)]
    pairs = [copy, other]
    if edges and missing:
        drop = data.draw(st.sampled_from(edges))
        add = data.draw(st.sampled_from(missing))
        pairs.append(Graph(g.n, [e for e in edges if e != drop] + [add]))
    for h in pairs:
        assert find_isomorphism(g, h) == find_isomorphism_joint(g, h)


def test_isomorphism_of_named_cubic_graphs_matches_joint_refinement():
    # regular graphs: refinement leaves one class and the search decides
    named = [petersen(), heawood(), pappus(), dodecahedron(), desargues(), mcgee()]
    rng = random.Random(13)
    relabelled = [relabel(g, rng.sample(range(g.n), g.n)) for g in named]
    for g in named:
        for h in named + relabelled:
            found = find_isomorphism(g, h)
            assert found == find_isomorphism_joint(g, h)
            assert (found is not None) == (h in (g, relabelled[named.index(g)]))


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_connected_order_matches_the_popped_queue(g, data):
    start = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    assert _connected_order(g, start) == connected_order_by_pop(g, start)


def test_vertex_transitivity():
    # the generators from automorphisms generate the whole group, so the
    # orbit of vertex 0 under them is V exactly for vertex-transitive graphs
    for g, transitive in (
        (petersen(), True),
        (cycle(6), True),
        (heawood(), True),
        (path(4), False),
        (star(4), False),
    ):
        gens, _ = automorphisms(g)
        assert (_orbit(0, gens) == set(g.vertices())) == transitive


def _group_inputs():
    # every class on up to 8 vertices and the named graphs, each uncolored,
    # with a seeded random 2-coloring and with a random proper coloring
    rng = random.Random(22)
    graphs = connected_girth5_graphs(8) + [build() for _, build in NAMED_GRAPHS]
    for g in graphs:
        yield g, None
        yield g, Coloring(tuple(rng.randint(1, 2) for _ in g.vertices()))
        yield g, random_proper_coloring(g, rng, g.max_degree() + 1)


def test_automorphisms_match_the_forward_base_oracle():
    # the same order and the same generated group as the forward walk; and
    # since base points 0..b-1 are pinned, an image u < b is taken, so a
    # pinned search reads [[0], ..., [b - 1], [u], ...] and must have u > b
    pins = []
    search = symmetry._search

    def recorded(g, h, order, cand):
        b = next(i for i, c in enumerate(cand) if c != [i])
        pins.append((b, cand[b]))
        return search(g, h, order, cand)

    for g, coloring in list(_group_inputs()):
        with patch.object(symmetry, "_search", recorded):
            gens, order = automorphisms(g, coloring)
        old_gens, old_order = automorphisms_forward_base(g, coloring)
        assert order == old_order
        closure = group_closure(gens, g.n)
        assert len(closure) == order
        assert closure == group_closure(old_gens, g.n)
    assert pins
    assert all(len(c) == 1 and c[0] > b for b, c in pins)


@pytest.mark.parametrize(
    "build, count, forward",
    [(lambda: star(12), 10, 55), (lambda: star(5), 3, 6), (lambda: petersen(), 4, 8)],
    ids=["star-12", "star-5", "petersen"],
)
def test_deeper_generators_grow_each_orbit(build, count, forward):
    # star(n): one transposition per leaf below the last, n - 2 generators,
    # where the forward walk finds (n - 1)(n - 2) / 2
    g = build()
    assert len(automorphisms(g)[0]) == count
    assert len(automorphisms_forward_base(g)[0]) == forward


def test_search_bound_is_enforced():
    big = random_tree(200, seed=1)
    with pytest.raises(SearchBoundError):
        automorphisms(big)
    with pytest.raises(SearchBoundError):
        exact_chi_D(path(11))


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: Graph(1, []), 1),
        (lambda: path(2), 2),
        (lambda: path(3), 3),
        (lambda: path(4), 2),
        (lambda: cycle(5), 3),
        (lambda: cycle(6), 4),
        (lambda: star(4), 4),
        (lambda: petersen(), 4),
    ],
    ids=["k1", "k2", "p3", "p4", "c5", "c6", "claw", "petersen"],
)
def test_exact_values_on_small_graphs(build, value):
    assert exact_chi_D(build()) == value


def test_exact_values_match_the_enumeration_oracle_on_every_class():
    graphs = connected_girth5_graphs(8)
    assert len(graphs) == 82
    for g in graphs:
        assert exact_chi_D(g) == exact_chi_D_by_enumeration(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
# two disjoint edges: a group of order 8 in which a 2-coloring that no
# generator preserves is still preserved by a product of two of them
@example(Graph(4, [(0, 1), (2, 3)]))
@example(Graph(4, [(0, 1)]))
def test_exact_values_match_the_enumeration_oracle_on_any_graph(g):
    assert exact_chi_D(g) == exact_chi_D_by_enumeration(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=7))
def test_every_coloring_the_prefilter_rejects_has_a_symmetry(g):
    gens, _ = automorphisms(g)
    for k in range(1, g.n + 1):
        canonical = set(canonical_colorings(g, k))
        kept = set(_unruled_colorings(g, k, gens))
        assert kept <= canonical
        for values in canonical - kept:
            preserving = enumerate_automorphisms(g, Coloring(values))
            assert any(not is_identity(f) for f in preserving)


def test_propagation_certifies_the_claw_from_its_center():
    g = star(4)
    tree = bfs_tree(g, 0)
    fixed = fixed_propagation(g, tree, Coloring((4, 1, 2, 3)), tree.order[:1])
    assert fixed == frozenset(g.vertices())


def test_propagation_walks_down_the_five_cycle():
    g = cycle(5)
    tree = bfs_tree(g, 0)
    fixed = fixed_propagation(g, tree, Coloring((3, 1, 2, 1, 2)), tree.order[:1])
    assert fixed == frozenset(g.vertices())


def test_propagation_cannot_certify_a_symmetric_coloring():
    # vertex 0 is not actually fixed here, and the rules make no progress
    g = cycle(6)
    tree = bfs_tree(g, 0)
    fixed = fixed_propagation(g, tree, Coloring((1, 2, 1, 2, 1, 2)), tree.order[:1])
    assert fixed == frozenset({0})


def test_propagation_stalls_without_unique_colors():
    g = star(4)
    tree = bfs_tree(g, 0)
    fixed = fixed_propagation(g, tree, Coloring((2, 1, 1, 1)), tree.order[:1])
    assert fixed == frozenset({0})


def test_propagation_validates_its_inputs():
    g = cycle(5)
    tree = bfs_tree(g, 0)
    good = Coloring((3, 1, 2, 1, 2))
    with pytest.raises(PreconditionError):
        fixed_propagation(g, tree, good, (1,))
    with pytest.raises(PreconditionError):
        fixed_propagation(g, tree, good, ())
    with pytest.raises(PropernessError):
        fixed_propagation(g, tree, Coloring((3, 1, 2, 1, None)), tree.order[:1])
    with pytest.raises(PropernessError):
        fixed_propagation(g, tree, Coloring((3, 1, 2, 2, 1)), tree.order[:1])
    square = cycle(4)
    with pytest.raises(PreconditionError):
        fixed_propagation(
            square, bfs_tree(square, 0), Coloring((1, 2, 1, 2)), (0,)
        )


def test_certify_returns_the_shortest_certifying_prefix():
    g = star(4)
    assert certify(g, bfs_tree(g, 0), Coloring((4, 1, 2, 3))) == (0,)
    # on the nine-cycle the root alone leaves both of its neighbors colored 2,
    # so propagation takes vertex 1 as well; the marked root fixes both
    g = cycle(9)
    assert certify(g, bfs_tree(g, 0), Coloring((4, 2, 3, 1, 2, 3, 1, 3, 2))) == (0, 1)


def test_certify_refuses_what_it_cannot_prove():
    g = star(4)
    tree = bfs_tree(g, 0)
    # propagation stalls below the center until it takes 0, 1, 2, which
    # refinement cannot isolate: two leaves can swap
    with pytest.raises(InternalConsistencyError, match="prefix of 3 vertices"):
        certify(g, tree, Coloring((2, 1, 1, 1)))
    for broken in ((4, 1, 2, None), (1, 1, 2, 3), (4, 1, 2)):
        with pytest.raises(InternalConsistencyError):
            certify(g, tree, Coloring(broken))


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_propagation_is_sound(seed):
    g = random_girth5(6 + seed % 9, max_degree=3 + seed % 3, seed=seed)
    w = seed % g.n
    tree = bfs_tree(g, w)
    coloring = color_delta_plus_2(g, w=w)
    fixed = fixed_propagation(g, tree, coloring, tree.order[:1])
    if len(fixed) == g.n:
        assert is_distinguishing(g, coloring).distinguishing


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_witnesses_are_real_symmetries(seed):
    g = random_girth5(6 + seed % 8, max_degree=3, seed=seed)
    values = tuple(1 + (v % 2) for v in g.vertices())
    coloring = Coloring(values)
    if not coloring.is_proper(g):
        return
    verdict = is_distinguishing(g, coloring)
    if verdict.witness is not None:
        assert verdict.witness.preserves_adjacency(g)
        assert verdict.witness.preserves_coloring(coloring)
        assert not is_identity(verdict.witness)


def test_prefix_is_fixed_on_the_nine_cycle():
    g = cycle(9)
    periodic = Coloring((1, 2, 3) * 3)
    assert not prefix_is_fixed(g, periodic, [0])
    marked = Coloring((4, 2, 3) + (1, 2, 3) * 2)
    assert prefix_is_fixed(g, marked, [0])
    assert prefix_is_fixed(g, marked, range(9))
    with pytest.raises(PreconditionError):
        prefix_is_fixed(g, Coloring((1, 2)), [0])


@pytest.mark.parametrize(
    "g, coloring",
    [
        (path(300), solve(path(300)).coloring),
        (cycle(301), solve(cycle(301)).coloring),
        (
            random_girth5(60, max_degree=4, seed=5),
            color_delta_plus_2(random_girth5(60, max_degree=4, seed=5)),
        ),
    ],
    ids=["solve-path-300", "solve-cycle-301", "delta-plus-2-girth5-60"],
)
def test_prefix_of_every_vertex_matches_the_plain_oracle(g, coloring):
    # the one-pass test of each round reads all n targets at once
    everyone = range(g.n)
    assert prefix_is_fixed(g, coloring, everyone) == prefix_is_fixed_plain(g, coloring, everyone)


def _two_components():
    # P3 on 0..2 and P5 on 3..7: no automorphism swaps the components
    return Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])


def _brute_force_automorphisms(g, coloring):
    return [
        image
        for image in permutations(range(g.n))
        if all(g.has_edge(image[u], image[v]) for u, v in g.edges())
        and all(coloring[image[v]] == coloring[v] for v in range(g.n))
    ]


def test_distance_fold_keeps_unreached_vertices_apart_by_label():
    # vertex 0 alone holds color 3, so the fold takes distances from it;
    # the P5 is out of its reach, and there only the round-0 label splits
    g = _two_components()
    symmetric = Coloring((3, 1, 2) + (1, 2, 1, 2, 1))
    rounds = list(_wl_rounds(g, list(symmetric.values)))
    assert len(set(rounds[0])) < len(set(rounds[1])) < g.n
    assert not is_distinguishing(g, symmetric).distinguishing
    assert automorphisms(g, symmetric)[1] == 2
    assert len(enumerate_automorphisms(g, symmetric)) == 2
    assert len(_brute_force_automorphisms(g, symmetric)) == 2
    broken = Coloring((3, 1, 2) + (1, 2, 1, 2, 3))
    assert is_distinguishing(g, broken).distinguishing
    assert automorphisms(g, broken)[1] == 1
    assert len(enumerate_automorphisms(g, broken)) == 1


@pytest.mark.parametrize(
    "image", [range(8), (5, 6, 7, 0, 1, 2, 3, 4)], ids=["p3-first", "p5-first"]
)
def test_distance_fold_matches_brute_force_on_two_components(image):
    # every 3-coloring of P3 ⊔ P5, numbered either way: the fold round is the
    # partition by (round-0 label, distance), and on proper colorings the
    # group keeps the elements of the uncolored group of order 4 that
    # preserve the coloring
    g = relabel(_two_components(), list(image))
    group = _brute_force_automorphisms(g, Coloring((1,) * g.n))
    assert len(group) == 4
    folds = 0
    for values in product((1, 2, 3), repeat=g.n):
        rounds = list(_wl_rounds(g, list(values)))
        first = rounds[0]
        alone = [l for l in first if first.count(l) == 1]
        if alone and len(rounds) > 1:
            folds += 1
            dist = distances(g, first.index(min(alone)))
            assert _partition(rounds[1]) == _partition(list(zip(first, dist)))
        coloring = Coloring(values)
        if not coloring.is_proper(g):
            continue
        kept = sum(all(values[f[v]] == values[v] for v in range(g.n)) for f in group)
        assert automorphisms(g, coloring)[1] == kept
        assert len(enumerate_automorphisms(g, coloring)) == kept
        assert is_distinguishing(g, coloring).distinguishing == (kept == 1)
    assert folds > 0


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_refinement_fixed_vertices_are_fixed_by_every_automorphism(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    density = rng.choice((0.2, 0.35, 0.5))
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
    # few colors, so that symmetric colorings are common
    palette = rng.randint(1, 3)
    values: list[int] = []
    for v in range(n):
        taken = {values[u] for u in g.adj[v] if u < v}
        free = [c for c in range(1, palette + 1) if c not in taken]
        values.append(rng.choice(free) if free else max(taken) + 1)
    coloring = Coloring(tuple(values))
    autos = enumerate_automorphisms(g, coloring)
    for v in range(n):
        if prefix_is_fixed(g, coloring, [v]):
            assert all(f(v) == v for f in autos)


def test_propagation_re_examines_a_parent_whose_child_is_certified_elsewhere():
    # 8-cycle rooted at 0 with pendants 8 at 3 and 9 at 5, colored like 4:
    # 3 and 5 each see two lower neighbors of color 3 until 4 is certified by
    # its two certified neighbors; only then are 8 and 9 unique below them
    g = Graph(10, [(i, (i + 1) % 8) for i in range(8)] + [(3, 8), (5, 9)])
    coloring = Coloring([1, 2, 1, 2, 3, 1, 2, 3, 3, 3])
    tree = bfs_tree(g, 0)
    assert fixed_propagation(g, tree, coloring, [0]) == frozenset(range(10))


@settings(max_examples=150, deadline=None)
@given(girth5_graphs(), st.integers(min_value=0, max_value=10_000))
def test_propagation_matches_the_round_robin_oracle(g, seed):
    rng = random.Random(seed)
    w = rng.randrange(g.n)
    colorings = _delta_plus_2_colorings(g, w, rng) + (
        random_proper_coloring(g, rng, g.max_degree() + rng.randint(1, 3)),
    )
    _matches_the_round_robin_oracle(g, bfs_tree(g, w), colorings)


@pytest.mark.parametrize("g", CONSTRUCTION_GRAPHS, ids=repr)
def test_propagation_matches_the_round_robin_oracle_at_construction_sizes(g):
    rng = random.Random(g.n)
    for w in (0, rng.randrange(g.n)):
        colorings = _delta_plus_2_colorings(g, w, rng)
        _matches_the_round_robin_oracle(g, bfs_tree(g, w), colorings)


def _certifies_the_loops_prefix(g, rng):
    # solve's coloring along its own tree, and the Δ+2 and list colorings
    # rooted at a random vertex
    r = solve_c6_extension(g) if is_c6(g) else solve(g)
    assert r.prefix == shortest_certifying_prefix_by_loop(g, r.tree, r.coloring)
    w = rng.randrange(g.n)
    tree = bfs_tree(g, w)
    for coloring in _delta_plus_2_colorings(g, w, rng):
        assert certify(g, tree, coloring) == shortest_certifying_prefix_by_loop(
            g, tree, coloring
        )


@settings(max_examples=150, deadline=None)
@given(girth5_graphs(), st.integers(min_value=0, max_value=10_000))
def test_certify_finds_the_prefix_of_the_per_length_loop(g, seed):
    _certifies_the_loops_prefix(g, random.Random(seed))


@pytest.mark.parametrize("g", CONSTRUCTION_GRAPHS, ids=repr)
def test_certify_finds_the_prefix_of_the_per_length_loop_at_construction_sizes(g):
    _certifies_the_loops_prefix(g, random.Random(g.n))


def test_certify_finds_the_prefix_of_the_per_length_loop_on_the_corpus():
    rng = random.Random(0)
    for _, g in corpus_graphs(0):
        _certifies_the_loops_prefix(g, rng)


def _delta_plus_2_colorings(g, w, rng):
    """The Δ+2 coloring rooted at w and a list coloring from random lists."""
    size = g.max_degree() + 2
    lists = ListAssignment(
        [rng.sample(range(1, 2 * size + 1), size) for _ in range(g.n)]
    )
    return color_delta_plus_2(g, w=w), list_color_delta_plus_2(g, lists, w=w)


def _matches_the_round_robin_oracle(g, tree, colorings):
    for coloring in colorings:
        for length in (1, 2, 3):
            prefix = tree.order[:length]
            assert fixed_propagation(g, tree, coloring, prefix) == propagate_by_rounds(
                g, tree, coloring, prefix
            )


def _partition(labels):
    """Each vertex's class as the first position holding its label: equal
    lists mean equal partitions, whatever the label ids."""
    first = {}
    return [first.setdefault(l, i) for i, l in enumerate(labels)]


@st.composite
def _colored_small_graphs(draw):
    # any base labels, proper or not; half the time one vertex gets a color
    # of its own, so that refinement folds in its distances
    g = draw(small_graphs())
    k = draw(st.integers(min_value=1, max_value=3))
    values = draw(st.lists(st.integers(min_value=1, max_value=k), min_size=g.n, max_size=g.n))
    if draw(st.booleans()):
        values[draw(st.integers(min_value=0, max_value=g.n - 1))] = k + 1
    return g, values


@settings(max_examples=300, deadline=None)
@given(_colored_small_graphs(), st.data())
def test_refinement_reaches_the_plain_stable_partition(colored, data):
    g, values = colored
    labels = _wl_labels(g, values)
    (plain,) = wl_labels_plain([g], [values])
    assert _partition(labels) == _partition(plain)
    targets = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    coloring = Coloring(values)
    assert prefix_is_fixed(g, coloring, targets) == prefix_is_fixed_plain(g, coloring, targets)


def _union(g, h):
    """g ⊔ h, with h's vertices shifted by g.n, as find_isomorphism builds it."""
    return Graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


@settings(max_examples=300, deadline=None)
@given(_colored_small_graphs(), st.data())
def test_union_refinement_of_a_relabelled_copy_matches_the_joint_one(colored, data):
    g, values = colored
    image = data.draw(st.permutations(range(g.n)))
    h = relabel(g, image)
    moved = [None] * g.n
    for v, u in enumerate(image):
        moved[u] = values[v]
    labels = _wl_labels(_union(g, h), values + moved)
    plain = wl_labels_plain([g, h], [values, moved])
    assert _partition(labels) == _partition(plain[0] + plain[1])
    assert sorted(labels[: g.n]) == sorted(labels[g.n :])


@settings(max_examples=300, deadline=None)
@given(_colored_small_graphs(), _colored_small_graphs())
def test_union_refinement_of_unrelated_graphs_matches_the_joint_one(first, second):
    # a color held once in the union folds in distances from one vertex of
    # one graph; every vertex of the other is at distance infinity
    (g, base_g), (h, base_h) = first, second
    labels = _wl_labels(_union(g, h), base_g + base_h)
    plain = wl_labels_plain([g, h], [base_g, base_h])
    assert _partition(labels) == _partition(plain[0] + plain[1])


@pytest.mark.parametrize(
    "g, coloring",
    [
        (path(128), solve(path(128)).coloring),
        (path(30), color_delta_plus_2(path(30))),
        (cycle(31), color_delta_plus_2(cycle(31))),
    ],
    ids=["solve-path-128", "delta-plus-2-path-30", "delta-plus-2-cycle-31"],
)
def test_refinement_with_a_unique_color_ends_within_three_rounds(g, coloring):
    # the plain round loop needs about half the diameter: 64, 15 and 16
    # rounds; here the fold of distances from the unique color is already
    # discrete, so round 0 and the fold are the only rounds
    rounds = list(_wl_rounds(g, list(coloring.values)))
    assert len(rounds) == 2
    assert len(set(rounds[-1])) == g.n


@pytest.mark.parametrize(
    "g, coloring, rounds, until_stable",
    [
        (cycle(128), solve(cycle(128)).coloring, 62, 63),
        (petersen(), solve(petersen()).coloring, 2, 3),
        (petersen(), Coloring((1,) * 10), 2, 2),
    ],
    ids=["solve-cycle-128", "solve-petersen", "petersen-one-color"],
)
def test_refinement_stops_at_its_first_discrete_round(g, coloring, rounds, until_stable):
    # the stable round loop confirms a discrete round with one more round
    # that splits nothing, unless the fold made it; a partition that is not
    # discrete still ends at the first round that splits no class
    base = list(coloring.values)
    assert sum(1 for _ in _wl_rounds(g, base)) == rounds
    assert sum(1 for _ in wl_rounds_until_stable(g, base)) == until_stable


def _rounds_match_the_shared_table(g, base):
    ours = [_partition(labels) for labels in _wl_rounds(g, base)]
    assert ours == [_partition(labels) for labels in wl_rounds_shared_table(g, base)]


@PROPERTY_SETTINGS
@given(girth5_graphs(), st.data())
def test_a_table_per_round_yields_the_rounds_of_one_shared_table(g, data):
    # any base labels; half the time one vertex holds a color of its own,
    # so that the distance round runs too
    k = data.draw(st.integers(min_value=1, max_value=4))
    base = data.draw(st.lists(st.integers(min_value=1, max_value=k), min_size=g.n, max_size=g.n))
    if data.draw(st.booleans()):
        base[data.draw(st.integers(min_value=0, max_value=g.n - 1))] = k + 1
    _rounds_match_the_shared_table(g, base)


def test_a_table_per_round_on_the_solve_coloring_of_the_128_cycle():
    g = cycle(128)
    _rounds_match_the_shared_table(g, list(solve(g).coloring.values))


def test_refinement_keeps_one_round_in_memory():
    # 7 rounds on a 5000-vertex tree; a table kept across rounds holds a
    # key per vertex and round, a 5.2 MB peak, and one table per round 0.8 MB
    g = random_tree(5000, seed=1)
    base = list(solve(g).coloring.values)
    tracemalloc.start()
    try:
        rounds = 0
        for _ in _wl_rounds(g, base):
            rounds += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rounds == 7
    assert peak < 2_000_000


@settings(max_examples=300, deadline=None)
@given(_colored_small_graphs(), st.data())
def test_the_discrete_stop_changes_no_answer(colored, data):
    # every consumer of refinement answers as it does when refinement runs
    # on to the first round that splits no class
    g, values = colored
    coloring = Coloring(values)
    targets = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    if data.draw(st.booleans()):
        other = relabel(g, data.draw(st.permutations(range(g.n))))
    else:
        other = data.draw(small_graphs())

    def answers():
        return (
            _partition(_wl_labels(g, values)),
            prefix_is_fixed(g, coloring, targets),
            outcome(is_distinguishing, g, coloring),
            _search_verdict(g, coloring),
            automorphisms(g, coloring),
            find_isomorphism(g, other),
        )

    fast = answers()
    with patch.object(symmetry, "_wl_rounds", wl_rounds_until_stable):
        assert fast == answers()
