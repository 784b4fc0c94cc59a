"""Breadth-first spanning trees and their ordering directives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor.errors import PreconditionError, TreeConstraintError
from distcolor.generators import cycle, path, petersen, random_girth5, star
from distcolor.graph import Graph, distances
from distcolor.tree import LAST, bfs_tree

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
            assert tree.position(p) < tree.position(v)
            assert g.has_edge(p, v)


def test_default_parent_is_smallest_earlier_neighbor():
    g = cycle(5)
    tree = bfs_tree(g, 0)
    assert tree.parent[1] == 0
    assert tree.parent[4] == 0
    assert tree.children[0] == (1, 4)


def test_siblings_share_a_parent():
    g = star(4)
    tree = bfs_tree(g, 0)
    assert tree.siblings(1) == (2, 3)
    assert tree.siblings(0) == ()


def test_slot_directives_pin_child_order():
    g = star(5)
    tree = bfs_tree(g, 0, slots={3: 0, 1: LAST})
    assert tree.children[0] == (3, 2, 4, 1)
    assert tree.order == (0, 3, 2, 4, 1)


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
    assert tree.position(3) == 0
    assert set(tree.order) == set(g.vertices())


def test_disconnected_graph_is_rejected():
    with pytest.raises(PreconditionError):
        bfs_tree(Graph(3, [(0, 1)]), 0)
    with pytest.raises(PreconditionError):
        bfs_tree(path(3), 7)


def test_bad_directives_are_rejected():
    g = star(5)
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, parents={0: 1})
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, parents={1: 2})
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, slots={0: 0})
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, slots={1: 0, 2: 0})
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, slots={1: LAST, 2: LAST})
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, slots={99: 0})
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, slots={1: "middle"})


def test_parent_directive_must_sit_one_level_up():
    g = path(5)
    with pytest.raises(TreeConstraintError):
        bfs_tree(g, 0, parents={3: 4})


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=19))
def test_tree_is_spanning_and_consistent(seed, root_pick):
    g = random_girth5(12 + seed % 9, max_degree=3 + seed % 3, seed=seed)
    root = root_pick % g.n
    tree = bfs_tree(g, root)
    dist = distances(g, root)
    assert sorted(tree.order) == list(g.vertices())
    assert all(tree.level[v] == dist[v] for v in g.vertices())
    for v in g.vertices():
        if v != root:
            p = tree.parent[v]
            assert p is not None and tree.level[p] == tree.level[v] - 1
