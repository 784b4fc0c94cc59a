"""Greedy color extension rules and the two extra-color constructions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor import graph, greedy, solver, symmetry
from distcolor.coloring import Coloring, ListAssignment
from distcolor.corpus import corpus_graphs
from distcolor.errors import (
    InternalConsistencyError,
    PaletteExhaustedError,
    PreconditionError,
)
from distcolor.generators import (
    cycle,
    path,
    petersen,
    random_girth5,
    random_tree,
    star,
)
from distcolor.greedy import color_delta_plus_2, greedy_extend, list_color_delta_plus_2
from distcolor.symmetry import is_distinguishing
from distcolor.tree import bfs_tree
from oracles import (
    RULE_CHOOSER,
    RULE_FORCED,
    RULE_NEIGHBORS,
    RULE_PREFIX,
    RULE_SIBLINGS,
    girth5_graphs,
    greedy_extend_by_rules,
    hub_tree,
    hub_trees,
    line_events,
    outcome,
    rooted_at,
)

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


def test_claw_prefix_forces_leaf_colors():
    g = star(4)
    coloring = greedy_extend(g, bfs_tree(g, 0), 4)
    assert coloring.values == (4, 1, 2, 3)


def test_path_rolls_out_from_the_end():
    g = path(3)
    coloring = greedy_extend(g, bfs_tree(g, 0), 3)
    assert coloring.values == (3, 1, 2)


def test_five_cycle_trace_uses_both_rules():
    # the library keeps no trace; the rule oracle records one per vertex
    g = cycle(5)
    tree = bfs_tree(g, 0)
    coloring, steps = greedy_extend_by_rules(g, tree, {0: 3})
    assert coloring.values == (3, 1, 2, 1, 2)
    assert greedy_extend(g, tree, 3) == coloring
    assert [s.rule for s in steps] == [
        RULE_PREFIX,
        RULE_SIBLINGS,
        RULE_SIBLINGS,
        RULE_SIBLINGS,
        RULE_NEIGHBORS,
    ]
    last = steps[-1]
    assert last.vertex == 3
    assert last.all_neighbors_colored
    assert not last.neighbor_colors_distinct
    assert not last.constrained


def test_forced_colors_are_validated_for_properness():
    # only a construction picks colors, so a clash is a library bug
    g = path(3)
    with pytest.raises(
        InternalConsistencyError, match="picked color 1 is not available at vertex 1"
    ):
        greedy_extend(g, bfs_tree(g, 0), 1, picks={1: 1})


def test_forced_step_is_marked():
    g = path(3)
    tree = bfs_tree(g, 0)
    coloring, steps = greedy_extend_by_rules(g, tree, {0: 1}, picks={1: 3})
    assert coloring.values == (1, 3, 1)
    assert greedy_extend(g, tree, 1, picks={1: 3}) == coloring
    assert steps[1].rule == RULE_FORCED
    assert steps[1].constrained


def avoiding(colors):
    # a chooser that takes the least allowed color outside ``colors``
    def choose(v, candidates, values):
        return next((c for c in candidates if c not in colors), None)

    return choose


@pytest.mark.parametrize(
    "vertex, pick, color",
    [
        (3, 2, 2),
        (3, 6, 6),
        (3, lambda *a: 6, 6),
        (4, lambda *a: 1, 1),
    ],
    ids=["neighbor-color", "past-palette", "chooser-past-palette", "chooser-sibling-color"],
)
def test_a_pick_must_be_an_available_color(vertex, pick, color):
    # a fixed color must be in the palette and proper; a chooser's answer
    # must be among the colors its vertex's rule allows. On the five-cycle,
    # vertex 3 comes last and both its neighbors hold 2; vertex 4 follows
    # its sibling 1, so rule ii keeps 1 from it although 1 would be proper
    g = cycle(5)
    tree = bfs_tree(g, 0)
    assert greedy_extend(g, tree, 3, k=5).values == (3, 1, 2, 1, 2)
    expected = (
        InternalConsistencyError,
        f"picked color {color} is not available at vertex {vertex}",
    )
    kwargs = dict(k=5, picks={vertex: pick})
    assert outcome(greedy_extend, g, tree, 3, **kwargs) == expected
    assert outcome(greedy_extend_by_rules, g, tree, {0: 3}, **kwargs) == expected


def test_palette_can_run_out():
    # only a construction colors from the plain palette 1..k, and each sizes
    # k to fit, so running out is a bug; a list can run out on bad input
    g = star(4)
    tree = bfs_tree(g, 0)
    with pytest.raises(InternalConsistencyError, match="no available color for vertex 2"):
        greedy_extend(g, tree, 1, k=2)
    lists = ListAssignment([(1, 2)] * 4)
    with pytest.raises(PaletteExhaustedError, match="no available color for vertex 2"):
        greedy_extend(g, tree, 1, lists=lists)


def test_forbidden_colors_are_skipped():
    # a chooser that avoids 2 at vertex 1 takes the next color its rule allows
    g = path(4)
    tree = bfs_tree(g, 0)
    picks = {1: avoiding({2})}
    coloring, steps = greedy_extend_by_rules(g, tree, {0: 1}, picks=picks)
    assert coloring.values == (1, 3, 1, 2)
    assert greedy_extend(g, tree, 1, picks=picks) == coloring
    assert steps[1].constrained
    assert not steps[2].constrained


def test_a_chooser_sees_only_the_colors_its_rule_allows():
    # the leaves of the claw follow rule ii: the third sees neither the
    # root's color nor its two siblings' colors, though both are proper
    g = star(4)
    tree = bfs_tree(g, 0)
    seen = {}

    def record(v, candidates, values):
        seen[v] = candidates
        return candidates[0]

    coloring = greedy_extend(g, tree, 1, k=5, picks={3: record})
    assert seen[3] == (4, 5)
    assert coloring.values == (1, 2, 3, 4)


def test_a_chooser_without_an_answer_is_a_bug():
    # path(3) from vertex 0 with root color 2 and k = 2 leaves vertex 1 only
    # color 1; the diameter-three case's chooser that keeps 1 off a vertex
    # answers None, a construction bug and not an exhausted palette
    g = path(3)
    with pytest.raises(InternalConsistencyError, match="picked color None is not available"):
        greedy_extend(g, bfs_tree(g, 0), 2, k=2, picks={1: solver._avoid_one})


def test_chooser_picks_among_legal_candidates():
    g = cycle(5)
    seen = {}

    def pick_largest(v, candidates, values):
        seen[v] = candidates
        return max(candidates)

    tree = bfs_tree(g, 0)
    coloring = greedy_extend(g, tree, 3, picks={3: pick_largest})
    assert seen[3] == (1, 3, 4)
    assert coloring[3] == 4
    seen.clear()
    traced, steps = greedy_extend_by_rules(g, tree, {0: 3}, picks={3: pick_largest})
    assert traced == coloring and seen[3] == (1, 3, 4)
    chooser_steps = [s for s in steps if s.rule == RULE_CHOOSER]
    assert [s.vertex for s in chooser_steps] == [3]
    assert chooser_steps[0].constrained


def test_chooser_answer_is_checked():
    # an illegal answer is a bug in the caller's chooser, not bad input
    g = cycle(5)
    with pytest.raises(InternalConsistencyError):
        greedy_extend(g, bfs_tree(g, 0), 3, picks={3: lambda *a: 2})


def test_the_root_takes_only_its_own_positive_color():
    g = path(4)
    tree = bfs_tree(g, 1)
    with pytest.raises(PreconditionError, match="root 1 cannot be picked"):
        greedy_extend(g, tree, 2, picks={1: 3})
    with pytest.raises(PreconditionError, match="root 1 cannot be picked"):
        greedy_extend(g, tree, 2, picks={1: pick_last})
    for bad in (0, "1"):
        with pytest.raises(PreconditionError, match="root 1 colored with"):
            greedy_extend(g, tree, bad)
    assert greedy_extend(g, tree, 2).values == (1, 2, 3, 1)


def test_lists_replace_the_palette():
    g = path(3)
    lists = ListAssignment([(5, 6, 7)] * 3)
    coloring = greedy_extend(g, bfs_tree(g, 0), 5, lists=lists)
    assert coloring.values == (5, 6, 5)


def test_two_extra_colors_on_a_path():
    coloring = color_delta_plus_2(path(3))
    assert coloring.values == (4, 1, 2)


def test_two_extra_colors_on_the_claw():
    coloring = color_delta_plus_2(star(4))
    assert coloring.values == (5, 1, 2, 3)


def test_two_extra_colors_on_petersen():
    g = petersen()
    coloring = color_delta_plus_2(g)
    assert coloring.max_color() == 5
    assert sum(1 for v in g.vertices() if coloring[v] == 5) == 1
    assert is_distinguishing(g, coloring).distinguishing


def test_uniform_lists_reduce_to_plain_construction():
    # the list version starts from the smallest list color, so uniform lists
    # reproduce the plain construction up to swapping color 1 to the top
    g = petersen()
    lists = ListAssignment([range(1, 6)] * g.n)
    shifted = list_color_delta_plus_2(g, lists)
    plain = color_delta_plus_2(g)
    assert shifted[0] == 1 and plain[0] == 5
    assert all(shifted[v] == plain[v] + 1 for v in g.vertices() if v != 0)


def test_list_construction_follows_the_lists():
    g = path(3)
    lists = ListAssignment([(5, 6, 7)] * 3)
    coloring = list_color_delta_plus_2(g, lists)
    assert coloring.values == (5, 6, 7)


def test_undersized_list_is_rejected():
    g = path(3)
    with pytest.raises(PreconditionError):
        list_color_delta_plus_2(
            g, ListAssignment(((5, 6, 7), (5,), (5, 6, 7)))
        )


def test_preconditions_on_shape():
    from distcolor.graph import Graph

    with pytest.raises(PreconditionError):
        color_delta_plus_2(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(PreconditionError):
        color_delta_plus_2(cycle(4))


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_greedy_output_is_proper_and_deterministic(seed):
    if seed % 2:
        g = random_girth5(8 + seed % 20, max_degree=3 + seed % 4, seed=seed)
    else:
        g = random_tree(5 + seed % 20, seed=seed)
    root = seed % g.n
    tree = bfs_tree(g, root)
    root_color = 1 + seed % (g.max_degree() + 2)
    first = greedy_extend(g, tree, root_color)
    assert first.is_total()
    assert first.is_proper(g)
    assert first[root] == root_color
    assert greedy_extend(g, tree, root_color) == first


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_rule_bounds_hold_away_from_the_root(seed):
    g = random_girth5(8 + seed % 15, max_degree=3 + seed % 3, seed=seed)
    delta = g.max_degree()
    root = seed % g.n
    tree = bfs_tree(g, root)
    coloring, steps = greedy_extend_by_rules(g, tree, {root: delta + 2})
    assert greedy_extend(g, tree, delta + 2) == coloring
    for step in steps:
        if step.constrained or step.vertex == root or g.has_edge(step.vertex, root):
            continue
        if step.rule == RULE_SIBLINGS:
            assert step.color <= delta
        elif step.rule == RULE_NEIGHBORS:
            assert step.color <= delta + 1
            if step.color == delta + 1:
                assert step.all_neighbors_colored
                assert step.neighbor_colors_distinct


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_two_extra_colors_certified_everywhere(seed):
    g = random_girth5(6 + seed % 12, max_degree=3 + seed % 3, seed=seed)
    g = rooted_at(g, seed % g.n)
    coloring = color_delta_plus_2(g)
    delta = g.max_degree()
    assert coloring.is_proper(g)
    assert coloring.max_color() <= delta + 2
    assert sum(1 for v in g.vertices() if coloring[v] == delta + 2) == 1
    assert is_distinguishing(g, coloring).distinguishing


def pick_last(v, candidates, values):
    return candidates[-1]


@settings(max_examples=100, deadline=None)
@given(st.one_of(girth5_graphs(), hub_trees()), st.integers(min_value=0, max_value=10_000))
def test_greedy_matches_the_rule_oracle(g, seed):
    rng = random.Random(seed)
    tree = bfs_tree(g, rng.randrange(g.n))
    k = g.max_degree() + rng.randint(1, 3)
    root_color = rng.randint(1, k)
    rest = list(tree.order[1:])
    picked = rng.sample(rest, min(len(rest), rng.randint(0, 6)))
    # a fixed color or a chooser that takes the last allowed color on the
    # first two, a chooser that avoids one or two colors on the rest
    picks = {v: rng.choice([rng.randint(1, k + 1), pick_last]) for v in picked[:2]}
    for v in picked[2:]:
        picks[v] = avoiding(set(rng.sample(range(1, k + 1), rng.randint(1, 2))))
    lists = None
    if rng.random() < 0.5:
        lists = ListAssignment(
            [rng.sample(range(1, 2 * k + 1), k - rng.randint(0, 1)) for _ in range(g.n)]
        )
    kwargs = dict(k=None if lists else k, picks=picks, lists=lists)
    expected = outcome(greedy_extend_by_rules, g, tree, {tree.root: root_color}, **kwargs)
    if isinstance(expected[0], Coloring):
        expected = expected[0]
    assert outcome(greedy_extend, g, tree, root_color, **kwargs) == expected


@pytest.mark.parametrize(
    "build",
    [lambda: path(5000), lambda: cycle(5001), lambda: random_tree(5000, seed=3)],
    ids=["path-5000", "cycle-5001", "random-tree-5000"],
)
def test_large_inputs_are_certified_by_propagation_alone(build):
    g = build()
    delta = g.max_degree()
    rng = random.Random(g.n)
    lists = ListAssignment(
        [rng.sample(range(1, 2 * (delta + 2) + 1), delta + 2) for _ in range(g.n)]
    )
    for w in (0, g.n // 2):
        h = rooted_at(g, w)
        tree = bfs_tree(h, 0)
        plain = color_delta_plus_2(h)
        assert plain.is_proper(h) and plain.max_color() <= delta + 2
        listed = list_color_delta_plus_2(h, lists)
        assert listed.is_proper(h)
        assert all(listed[v] in lists[v] for v in h.vertices())
        for coloring in (plain, listed):
            assert symmetry.certify(h, tree, coloring) == (0,)


@pytest.mark.parametrize("build", [star, lambda n: hub_tree(n - 9, 9)], ids=["star", "hub-tree"])
@pytest.mark.parametrize(
    "run",
    [color_delta_plus_2, lambda g: g._has_short_cycle],
    ids=["color_delta_plus_2", "short-cycle-walk"],
)
def test_construction_work_is_linear_at_any_degree(build, run):
    # the graphs are built outside the count; doubling n at most doubles the
    # lines run, where walks and scans quadratic in the degree quadruple them
    small, large = build(400), build(800)
    ratio = line_events(lambda: run(large)) / line_events(lambda: run(small))
    assert ratio <= 2.2


def test_each_construction_checks_properness_once(monkeypatch):
    calls = []
    check = Coloring.is_proper

    def counted(self, g):
        calls.append(g)
        return check(self, g)

    monkeypatch.setattr(Coloring, "is_proper", counted)
    g = random_girth5(60, max_degree=4, seed=5)
    color_delta_plus_2(g)
    assert len(calls) == 1
    lists = ListAssignment([range(1, g.max_degree() + 3)] * g.n)
    list_color_delta_plus_2(g, lists)
    assert len(calls) == 2


def test_each_construction_builds_one_tree_and_no_distance_bfs(monkeypatch):
    # connectivity is read off the BFS tree the construction needs anyway
    calls = []

    def counted(module, name):
        run = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return run(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(graph, "_bfs_levels")
    counted(symmetry, "_bfs_levels")
    counted(greedy, "bfs_tree")
    g = random_girth5(200, 4, seed=3)
    lists = ListAssignment([range(1, g.max_degree() + 3)] * g.n)
    for construct in (color_delta_plus_2, lambda g: list_color_delta_plus_2(g, lists)):
        calls.clear()
        construct(g)
        assert calls == ["bfs_tree"]


def test_corpus_is_certified_from_the_root_by_propagation(monkeypatch):
    # the root's color is unique, so refinement isolates it in one round
    certificates = []

    def recorded(*args):
        certificates.append(symmetry.certify(*args))
        return certificates[-1]

    monkeypatch.setattr(greedy, "certify", recorded)
    rng = random.Random(0)
    for label, g in corpus_graphs(0):
        color_delta_plus_2(g)
        size = g.max_degree() + 2
        lists = ListAssignment(
            [rng.sample(range(1, 2 * size + 1), size) for _ in g.vertices()]
        )
        list_color_delta_plus_2(g, lists)
        assert certificates == [(0,)] * 2, label
        certificates.clear()


def test_root_certificates_build_no_refinement_labels(monkeypatch):
    # the root's color is held by no other vertex, so prefix_is_fixed answers
    # without refining
    def no_refinement(*args, **kwargs):
        raise AssertionError("refinement labels were built")

    graphs = [path(41), cycle(40), random_tree(60, seed=4), random_girth5(50, max_degree=4, seed=8)]
    cases = []
    for g in graphs:
        rng = random.Random(g.n)
        size = g.max_degree() + 2
        lists = ListAssignment([rng.sample(range(1, 2 * size + 1), size) for _ in g.vertices()])
        for w in (0, g.n // 2):
            cases.append((rooted_at(g, w), lists))
    expected = [(color_delta_plus_2(g), list_color_delta_plus_2(g, lists)) for g, lists in cases]

    monkeypatch.setattr(symmetry, "_wl_rounds", no_refinement)
    for (g, lists), colorings in zip(cases, expected):
        assert (color_delta_plus_2(g), list_color_delta_plus_2(g, lists)) == colorings
        tree = bfs_tree(g, 0)
        for coloring in colorings:
            assert symmetry.certify(g, tree, coloring) == (0,)
