"""Girth, automorphism-group order and isomorphism checked against networkx.

networkx is an optional, test-only oracle: these tests are skipped without it.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor.generators import (
    desargues,
    dodecahedron,
    heawood,
    hoffman_singleton,
    mcgee,
    pappus,
    petersen,
    random_girth5,
    random_tree,
    robertson,
    tutte_coxeter,
)
from distcolor.graph import girth
from distcolor.symmetry import automorphisms, find_isomorphism
from oracles import relabel

nx = pytest.importorskip("networkx")

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

# Hoffman-Singleton's 252,000 automorphisms are too many for GraphMatcher to
# list, so it is left out of the group-order comparison only.
NAMED = (petersen, heawood, mcgee, tutte_coxeter, dodecahedron, desargues, pappus, robertson)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def nx_group_order(g):
    h = to_nx(g)
    return sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


@st.composite
def small_girth5_graphs(draw):
    # trees stay at 8 vertices: GraphMatcher lists every automorphism, and a
    # star on n vertices has (n - 1)! of them
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        return random_tree(draw(st.integers(min_value=1, max_value=8)), seed=seed)
    n = draw(st.integers(min_value=5, max_value=12))
    return random_girth5(n, max_degree=draw(st.integers(min_value=2, max_value=4)), seed=seed)


@pytest.mark.parametrize("build", NAMED + (hoffman_singleton,), ids=lambda b: b.__name__)
def test_girth_of_named_graphs_matches_networkx(build):
    g = build()
    assert girth(g) == nx.girth(to_nx(g))


@pytest.mark.parametrize("build", NAMED, ids=lambda b: b.__name__)
def test_group_order_of_named_graphs_matches_networkx(build):
    g = build()
    assert automorphisms(g)[1] == nx_group_order(g)


def has_unique_degree(g):
    return 1 in Counter(len(ns) for ns in g.adj).values()


def assert_group_and_isomorphisms_match(g, seed):
    assert automorphisms(g)[1] == nx_group_order(g)
    rng = random.Random(seed)
    image = list(range(g.n))
    rng.shuffle(image)
    relabelled = relabel(g, image)
    assert find_isomorphism(g, relabelled) is not None
    assert nx.is_isomorphic(to_nx(g), to_nx(relabelled))
    # a second graph from the same family and size: sometimes isomorphic
    other = (
        random_tree(g.n, seed=seed)
        if g.m == g.n - 1
        else random_girth5(g.n, max_degree=g.max_degree(), seed=seed)
    )
    assert (find_isomorphism(g, other) is not None) == nx.is_isomorphic(to_nx(g), to_nx(other))


@PROPERTY_SETTINGS
@given(small_girth5_graphs(), st.integers(min_value=0, max_value=10_000))
def test_random_graphs_match_networkx(g, seed):
    assert girth(g) == nx.girth(to_nx(g))
    assert_group_and_isomorphisms_match(g, seed)


@PROPERTY_SETTINGS
@given(small_girth5_graphs().filter(has_unique_degree), st.integers(min_value=0, max_value=10_000))
def test_graphs_with_a_unique_degree_match_networkx(g, seed):
    # a vertex of unique degree is alone in its round-0 class, so refinement
    # with no coloring folds in its distances, in the group order and in
    # both graphs of every isomorphism test
    assert_group_and_isomorphisms_match(g, seed)
