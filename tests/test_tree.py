"""Breadth-first spanning trees and their ordering directives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor import tree as tree_module
from distcolor.errors import InternalConsistencyError, PreconditionError
from distcolor.generators import cycle, path, petersen, random_girth5, star
from distcolor.graph import Graph, distances
from distcolor.tree import LAST, bfs_tree
from oracles import (
    CONSTRUCTION_GRAPHS,
    bfs_tree_by_min_parent,
    check_tree,
    girth5_graphs,
    outcome,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def test_levels_match_bfs_distances():
    g = petersen()
    tree = bfs_tree(g, 0)
    dist = distances(g, 0)
    assert all(tree.level[v] == dist[v] for v in g.vertices())
    assert tree.root == 0
    assert tree.parent[0] is None


def test_order_starts_at_root_and_respects_levels():
    # below the root each level holds one vertex per branch, two in all (the
    # 8-cycle ends in one), so the order pins how parents are taken in sigma
    cases = (
        (cycle(7), 2, (2, 1, 3, 0, 4, 6, 5)),
        (cycle(8), 3, (3, 2, 4, 1, 5, 0, 6, 7)),
        (path(9), 4, (4, 3, 5, 2, 6, 1, 7, 0, 8)),
    )
    for g, root, expected in cases:
        tree = bfs_tree(g, root)
        assert tree.order == expected
        levels = [tree.level[v] for v in tree.order]
        assert levels == sorted(levels)


def test_parents_precede_children_in_order():
    g = random_girth5(20, max_degree=4, seed=9)
    tree = bfs_tree(g, 0)
    for v in g.vertices():
        p = tree.parent[v]
        if p is not None:
            assert tree.order.index(p) < tree.order.index(v)
            assert g.has_edge(p, v)


def test_default_parent_is_smallest_earlier_neighbor():
    g = cycle(5)
    tree = bfs_tree(g, 0)
    assert tree.parent[1] == 0
    assert tree.parent[4] == 0
    assert tree.children[0] == (1, 4)


def test_slot_directives_pin_child_order(monkeypatch):
    # any ranking is an order: tied and gapped ranks sort by (rank, id), the
    # unranked children follow in ascending id and LAST comes after them; a
    # slot on the root or an unknown vertex ranks nothing. Slots alone need
    # no distance BFS.
    def refuse(*_):
        raise AssertionError("a slots-only call ran a distance BFS")

    monkeypatch.setattr(tree_module, "distances", refuse)
    g = star(5)
    cases = (
        ({3: 0, 1: LAST}, (3, 2, 4, 1)),
        ({1: 0, 2: 0}, (1, 2, 3, 4)),
        ({4: 0, 2: 0}, (2, 4, 1, 3)),
        ({3: 7, 1: 5}, (1, 3, 2, 4)),
        ({1: LAST, 2: LAST}, (3, 4, 1, 2)),
        ({4: LAST, 2: 9}, (2, 1, 3, 4)),
        ({0: 0, 99: 0}, (1, 2, 3, 4)),
    )
    for slots, children in cases:
        tree = bfs_tree(g, 0, slots=slots)
        assert tree.children[0] == children
        assert tree.order == (0, *children)
        assert tree == bfs_tree_by_min_parent(g, 0, slots=slots)


def test_parent_directive_reroutes_an_edge():
    g = petersen()
    dist = distances(g, 0)
    two = [v for v in g.vertices() if dist[v] == 2]
    target = two[0]
    options = [u for u in g.adj[target] if dist[u] == 1]
    tree = bfs_tree(g, 0, parents={target: options[-1]})
    assert tree.parent[target] == options[-1]


def test_root_position_and_sigma_prefix():
    g = path(6)
    tree = bfs_tree(g, 3)
    assert tree.order[0] == 3
    assert set(tree.order) == set(g.vertices())


def test_disconnected_graph_is_rejected():
    with pytest.raises(PreconditionError):
        bfs_tree(Graph(3, [(0, 1)]), 0)
    with pytest.raises(PreconditionError):
        bfs_tree(path(3), 7)
    # before any bad directive, as the oracle reports it
    g = Graph(4, [(0, 1), (2, 3)])
    for parents, slots in (({}, {99: 0}), ({}, {0: 0}), ({5: 0}, {}), ({1: 0}, {1: "x"})):
        assert outcome(bfs_tree, g, 0, parents, slots) == (
            PreconditionError, "graph must be connected"
        ) == outcome(bfs_tree_by_min_parent, g, 0, parents, slots)


def test_bad_directives_are_rejected():
    # only a construction writes directives, so a bad one is a library bug
    g = star(5)
    with pytest.raises(InternalConsistencyError, match="the root has no parent"):
        bfs_tree(g, 0, parents={0: 1})
    with pytest.raises(InternalConsistencyError, match="2 is not a neighbor of 1"):
        bfs_tree(g, 0, parents={1: 2})
    with pytest.raises(InternalConsistencyError, match="unknown vertex"):
        bfs_tree(g, 0, parents={99: 0})


def test_parent_directive_must_sit_one_level_up():
    g = path(5)
    with pytest.raises(InternalConsistencyError, match="4 is not one level above 3"):
        bfs_tree(g, 0, parents={3: 4})


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=19))
def test_tree_is_spanning_and_consistent(seed, root_pick):
    g = random_girth5(12 + seed % 9, max_degree=3 + seed % 3, seed=seed)
    root = root_pick % g.n
    tree = bfs_tree(g, root)
    check_tree(g, tree)
    dist = distances(g, root)
    assert sorted(tree.order) == list(g.vertices())
    assert all(tree.level[v] == dist[v] for v in g.vertices())
    for v in g.vertices():
        if v != root:
            p = tree.parent[v]
            assert p is not None and tree.level[p] == tree.level[v] - 1


@PROPERTY_SETTINGS
@given(girth5_graphs(), st.integers(min_value=0, max_value=10_000))
def test_bfs_tree_matches_the_min_parent_oracle(g, seed):
    _matches_the_min_parent_oracle(g, random.Random(seed))


@pytest.mark.parametrize("g", CONSTRUCTION_GRAPHS, ids=repr)
def test_bfs_tree_matches_the_min_parent_oracle_at_construction_sizes(g):
    for seed in range(5):
        _matches_the_min_parent_oracle(g, random.Random(seed))


def _matches_the_min_parent_oracle(g, rng):
    # rooted at random, with no directives and with random ones: the tree
    # and every error agree with the oracle
    root = rng.randrange(g.n)
    assert bfs_tree(g, root) == bfs_tree_by_min_parent(g, root)
    dist = distances(g, root)
    parents = {}
    for v in rng.sample(range(g.n), rng.randint(0, 4)):
        above = [u for u in g.adj[v] if dist[u] == dist[v] - 1]
        if above:
            parents[v] = rng.choice(above)
    # ranks, tied, gapped or LAST, on some children of a few parents in the
    # tree the parent directives leave
    plain = bfs_tree_by_min_parent(g, root, parents)
    slots = {}
    with_kids = [p for p in plain.order if plain.children[p]]
    for p in rng.sample(with_kids, min(len(with_kids), rng.randint(0, 6))):
        kids = plain.children[p]
        for c in rng.sample(kids, rng.randint(0, len(kids))):
            slots[c] = rng.choice([0, 0, 1, 2, 5, LAST])
    expected = bfs_tree_by_min_parent(g, root, parents, slots)
    assert bfs_tree(g, root, parents=parents, slots=slots) == expected
    # one arbitrary extra parent directive, often not an edge one level up:
    # both raise alike
    parents[rng.randrange(g.n)] = rng.randrange(g.n)
    assert outcome(bfs_tree, g, root, parents, slots) == outcome(
        bfs_tree_by_min_parent, g, root, parents, slots
    )
