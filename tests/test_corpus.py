"""The acceptance machinery itself: corpus shape, enumeration, result rows."""

from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from distcolor import corpus, symmetry
from distcolor.corpus import (
    LISTS_PER_GRAPH,
    PROPERTY_RUNS,
    RANDOM_COUNT,
    TREE_COUNT,
    CriterionFailure,
    CriterionResult,
    _dedup,
    _girth5_extensions,
    _grown_classes,
    _iso_key,
    _profiles,
    _property_graphs,
    _run,
    check_exact_boundary,
    check_greedy_bounds,
    check_propagation_soundness,
    check_two_extra_colors,
    connected_girth5_graphs,
    corpus_graphs,
    run_all,
)
from distcolor.errors import PreconditionError
from distcolor.generators import path, petersen
from distcolor.graph import Graph, girth, is_connected
from distcolor.symmetry import automorphisms, find_isomorphism
from oracles import girth5_extensions_unpruned

# isomorphism classes of connected graphs with girth >= 5 on 1..9 vertices
CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 4, 6: 8, 7: 18, 8: 47, 9: 137}


def brute_force_classes(n):
    """Every connected girth >= 5 graph on n labeled vertices, deduplicated."""
    pairs = list(combinations(range(n), 2))
    reps = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if not is_connected(g) or girth(g) < 5:
            continue
        if any(find_isomorphism(g, seen) is not None for seen in reps):
            continue
        reps.append(g)
    return reps


def test_enumeration_counts_frozen():
    graphs = connected_girth5_graphs(9)
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == CLASS_COUNTS
    assert len(graphs) == 219
    assert len(connected_girth5_graphs(7)) == 35


def test_pruned_extensions_reach_every_class():
    # every connected level against the extensions of every valid non-empty
    # attachment set, the sets that keep the graph connected
    pruned = unpruned = [Graph(1, [])]
    for n in range(1, 8):
        pruned = _dedup(
            [e for g in pruned for e in _girth5_extensions(g, automorphisms(g)[0])]
        )
        unpruned = _dedup(
            [
                (_iso_key(h, _profiles(h)), h)
                for g in unpruned
                for h in girth5_extensions_unpruned(g)
                if h.adj[n]
            ]
        )
        assert len(pruned) == len(unpruned) == CLASS_COUNTS[n + 1]


def test_extensions_skip_a_cut_vertex_of_smaller_profile():
    # two Petersen graphs joined by a path through c: c has the least
    # profile, (2, (4, 4)), but is a cut vertex, so H is grown from H - u
    # for a non-cut u of least profile, where the new vertex's profile is
    # not the least
    p = petersen()
    edges = p.edges() + [(a + 10, b + 10) for a, b in p.edges()] + [(0, 20), (10, 20)]
    h = Graph(21, edges)
    u = next(v for v in range(1, 10) if v not in p.adj[0])
    index = {v: i for i, v in enumerate(v for v in range(21) if v != u)}
    parent = Graph(20, [(index[a], index[b]) for a, b in edges if u not in (a, b)])
    extensions = _girth5_extensions(parent, automorphisms(parent)[0])
    assert any(find_isomorphism(e, h) is not None for _, e in extensions)


def test_enumeration_profiles_each_extension_once(monkeypatch):
    # one _profiles call per extension tried, none again for the dedup key
    calls = []

    def counted(g):
        calls.append(g.n)
        return _profiles(g)

    monkeypatch.setattr(corpus, "_profiles", counted)
    connected_girth5_graphs(7)
    assert len(calls) == 62


def test_enumeration_computes_one_group_per_grown_class(monkeypatch):
    # one automorphisms call per connected class on 1..6 vertices, 17 in
    # all; criterion 4 reuses those groups for its exact values and adds one
    # per class on 7 vertices and one each for the claw and the five-cycle,
    # 37 in all. Both modules' bindings are counted, since exact_chi_D calls
    # its own
    sizes = []

    def counted(g, coloring=None):
        sizes.append(g.n)
        return automorphisms(g, coloring)

    monkeypatch.setattr(corpus, "automorphisms", counted)
    monkeypatch.setattr(symmetry, "automorphisms", counted)
    connected_girth5_graphs(7)
    assert Counter(sizes) == {n: CLASS_COUNTS[n] for n in range(1, 7)}
    sizes.clear()
    check_exact_boundary()
    expected = Counter({n: CLASS_COUNTS[n] for n in range(1, 8)})
    expected.update([4, 5])
    assert Counter(sizes) == expected
    assert len(sizes) == 37


def test_grown_classes_carry_their_own_groups():
    classes = _grown_classes(7)
    assert [g for g, _ in classes] == connected_girth5_graphs(7)
    for g, group in classes:
        if g.n < 7:
            assert group == automorphisms(g)
        else:
            assert group is None


def test_exact_boundary_fails_on_a_lost_class(monkeypatch):
    classes = _grown_classes(7)
    monkeypatch.setattr(corpus, "_grown_classes", lambda max_n: classes[:-1])
    with pytest.raises(CriterionFailure, match="34 isomorphism classes instead of 35"):
        check_exact_boundary()


@pytest.mark.parametrize("max_n", [0, -2])
def test_enumeration_rejects_a_size_below_one(max_n):
    with pytest.raises(PreconditionError, match=f"max_n must be at least 1, got {max_n}"):
        connected_girth5_graphs(max_n)


def test_enumeration_matches_brute_force_small():
    graphs = connected_girth5_graphs(5)
    for n in range(1, 6):
        level = [g for g in graphs if g.n == n]
        assert len(level) == len(brute_force_classes(n))


def test_enumeration_representatives_are_valid_and_distinct():
    graphs = connected_girth5_graphs(6)
    for g in graphs:
        assert is_connected(g)
        assert girth(g) >= 5
    for a, b in combinations(graphs, 2):
        assert find_isomorphism(a, b) is None


def test_corpus_composition():
    labels = [label for label, _ in corpus_graphs()]
    assert len(labels) == len(set(labels))
    assert len(labels) == 28 + 26 + TREE_COUNT + 8 + 8 + RANDOM_COUNT
    assert "cycle-6" in labels
    assert "cycle-3" not in labels
    assert "cycle-4" not in labels
    assert "hoffman-singleton" not in labels


def test_corpus_graphs_satisfy_solver_preconditions():
    for label, g in corpus_graphs(trees=10, randoms=20):
        assert is_connected(g), label
        assert girth(g) >= 5, label


def test_corpus_scaling_arguments():
    labels = [label for label, _ in corpus_graphs(trees=3, randoms=5)]
    assert sum(1 for label in labels if label.startswith("tree-")) == 3
    assert sum(1 for label in labels if label.startswith("girth5-")) == 5


def test_two_extra_colors_walks_the_corpus_once(monkeypatch):
    # it walks the corpus it is given and builds none of its own
    graphs = list(corpus_graphs(0, 3, 5))

    def refused(*args):
        raise AssertionError("criterion 5 built a corpus")

    monkeypatch.setattr(corpus, "corpus_graphs", refused)
    detail = check_two_extra_colors(graphs, 0, 2)
    assert detail == (
        "78 Δ+2 colorings verified; 102 list assignments over 51 small graphs respected"
    )


def test_property_checks_take_the_tree_of_each_run(monkeypatch):
    # each run comes with its BFS tree at the run's own root; criteria 6
    # and 7 read it and build none of their own
    runs = list(_property_graphs(0, 20))
    assert [tree.root for _, tree, _ in runs] == [3 * i % g.n for g, _, i in runs]

    def refused(*args, **kwargs):
        raise AssertionError("a property check built a BFS tree")

    monkeypatch.setattr(corpus, "bfs_tree", refused)
    assert check_greedy_bounds(runs) == "20 greedy runs, 142 unconstrained steps within bounds"
    assert check_propagation_soundness(runs) == (
        "20 of 20 instances certified all vertices, all sound"
    )


def test_run_all_builds_each_input_once(monkeypatch):
    # count 100: one random tree and two random girth-5 graphs in the corpus,
    # and 20 property-test graphs, ten of each kind; criteria 1 and 5 share
    # the corpus, 6 and 7 the property-test graphs and the tree of each of
    # the 100 runs
    calls = Counter()

    def counting(name, build):
        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return counted

    monkeypatch.setattr(corpus, "random_girth5", counting("girth5", corpus.random_girth5))
    monkeypatch.setattr(corpus, "random_tree", counting("tree", corpus.random_tree))
    monkeypatch.setattr(corpus, "bfs_tree", counting("bfs_tree", corpus.bfs_tree))
    results = run_all(0, count=100)
    assert all(r.passed for r in results)
    assert calls == {"girth5": 12, "tree": 11, "bfs_tree": 100}


def test_run_all_small_count_passes():
    results = run_all(count=50)
    assert [r.number for r in results] == [1, 2, 3, 4, 5, 6, 7]
    assert all(r.passed for r in results)
    assert all(r.detail for r in results)
    for r in results:
        line = r.line()
        assert line.startswith(f"criterion {r.number} ")
        assert "PASS" in line
        assert r.detail in line


def test_run_reports_failure_line():
    def broken():
        raise CriterionFailure("boom")

    result = _run(9, "always-broken", broken)
    assert result == CriterionResult(9, "always-broken", False, "boom", result.seconds)
    assert "FAIL" in result.line()
    assert "boom" in result.line()


def test_run_reports_success_detail():
    result = _run(1, "trivial", lambda: "all fine")
    assert result.passed
    assert result.detail == "all fine"


def test_constants_match_full_volumes():
    assert TREE_COUNT == 100
    assert RANDOM_COUNT == 200
    assert LISTS_PER_GRAPH == 100
    assert PROPERTY_RUNS == 10_000


@pytest.mark.parametrize("count", [0, -3])
def test_run_all_rejects_a_count_below_one(count):
    # it would run nothing and still report seven passes
    with pytest.raises(PreconditionError, match="count must be at least 1"):
        run_all(count=count)


@pytest.mark.parametrize(
    "runner, volume, empty",
    [
        (partial(check_two_extra_colors, [("path-3", path(3))], 0), "lists_per_graph", 0),
        (check_greedy_bounds, "runs", []),
        (check_propagation_soundness, "instances", []),
    ],
    ids=["criterion-5", "criterion-6", "criterion-7"],
)
def test_check_runners_reject_an_empty_volume(runner, volume, empty):
    # an empty volume checks nothing, so a pass would mean nothing
    with pytest.raises(PreconditionError, match=f"{volume} must be at least 1, got 0"):
        runner(**{volume: empty})
