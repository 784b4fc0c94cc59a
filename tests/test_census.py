"""An exhaustive census of the theorem on every connected girth-5 graph with
at most eleven vertices, up to isomorphism: 2,476 classes.

Each class gets its exact distinguishing chromatic number from
``symmetry._exact_chi_D``, with the automorphism group that grew the class
in the enumeration (a new one for the classes on eleven vertices), and a
coloring from ``solve`` (four colors on the six-cycle). The
private entry point skips ``EXACT_BOUND``, which stays at ten for
``exact_chi_D`` and ``distcolor exact``. The paper's bound, χ_D ≤ Δ+1
except for the six-cycle, is checked against both, and the distributions
are pinned per vertex count.
"""

from collections import Counter
from itertools import combinations

import pytest

from distcolor.corpus import _grown_classes
from distcolor.generators import cycle, path, petersen, star
from distcolor.graph import Graph
from distcolor.solver import is_c6, solve
from distcolor.symmetry import _exact_chi_D, automorphisms, find_isomorphism

MAX_N = 11

# vertex count -> {χ_D − Δ: classes}
CHI_MINUS_DELTA = {
    1: {1: 1},
    2: {1: 1},
    3: {1: 1},
    4: {0: 1, 1: 1},
    5: {0: 1, 1: 3},
    6: {0: 6, 1: 1, 2: 1},
    7: {-1: 3, 0: 12, 1: 3},
    8: {-1: 13, 0: 32, 1: 2},
    9: {-2: 3, -1: 54, 0: 76, 1: 4},
    10: {-2: 26, -1: 216, 0: 217, 1: 5},
    11: {-3: 6, -2: 159, -1: 994, 0: 631, 1: 3},
}

# vertex count -> {colors solve uses − χ_D: classes}
SOLVE_MINUS_CHI = {
    1: {0: 1},
    2: {0: 1},
    3: {0: 1},
    4: {0: 1, 1: 1},
    5: {0: 3, 1: 1},
    6: {0: 2, 1: 6},
    7: {0: 3, 1: 12, 2: 3},
    8: {0: 2, 1: 32, 2: 13},
    9: {0: 4, 1: 76, 2: 54, 3: 3},
    10: {0: 5, 1: 222, 2: 211, 3: 26},
    11: {0: 3, 1: 689, 2: 940, 3: 155, 4: 6},
}


def _subdivided_k4():
    # each edge of K4 through a middle vertex of its own: girth 6
    edges = []
    for middle, (u, v) in enumerate(combinations(range(4), 2), start=4):
        edges += [(u, middle), (v, middle)]
    return Graph(10, edges)


def _spider():
    # the radius-2 ball of a cubic girth-5 graph: a root, three children,
    # two leaves under each child
    return Graph(10, [(0, 1), (0, 2), (0, 3)] + [(c, 2 * c + l) for c in (1, 2, 3) for l in (2, 3)])


def attaining_graphs():
    """The classes on at most eleven vertices with χ_D = Δ+1: stars, paths
    on an odd number of vertices, cycles other than the six-cycle, and four
    more, all on at most ten vertices."""
    return (
        [star(n) for n in range(1, MAX_N + 1)]
        + [path(n) for n in (5, 7, 9, 11)]
        + [cycle(n) for n in (5, 7, 8, 9, 10, 11)]
        + [
            petersen().induced_subgraph(range(1, 10))[0],
            _spider(),
            _subdivided_k4(),
            petersen(),
        ]
    )


@pytest.fixture(scope="module")
def census():
    # (graph, χ_D, colors solve uses) for every class
    rows = []
    for g, group in _grown_classes(MAX_N):
        chi = _exact_chi_D(g, automorphisms(g) if group is None else group)
        result = solve(g)
        rows.append((g, chi, result.colors_used))
    return rows


def test_census_covers_every_class(census):
    assert len(census) == 2476
    assert Counter(g.n for g, _, _ in census) == {
        n: sum(counts.values()) for n, counts in CHI_MINUS_DELTA.items()
    }


def test_solve_stays_between_the_exact_value_and_the_bound(census):
    for g, chi, used in census:
        bound = 4 if is_c6(g) else g.max_degree() + 1
        assert chi <= used <= bound, g.edges()


def test_exact_values_per_vertex_count(census):
    chi_minus_delta = {n: Counter() for n in CHI_MINUS_DELTA}
    solve_minus_chi = {n: Counter() for n in SOLVE_MINUS_CHI}
    for g, chi, used in census:
        chi_minus_delta[g.n][chi - g.max_degree()] += 1
        solve_minus_chi[g.n][used - chi] += 1
    assert chi_minus_delta == CHI_MINUS_DELTA
    assert solve_minus_chi == SOLVE_MINUS_CHI


def test_six_cycle_alone_exceeds_the_bound(census):
    above = [g for g, chi, _ in census if chi > g.max_degree() + 1]
    assert len(above) == 1 and is_c6(above[0])


def test_classes_attaining_the_bound(census):
    attaining = [g for g, chi, _ in census if chi == g.max_degree() + 1]
    expected = attaining_graphs()
    assert len(attaining) == len(expected) == 25
    for h in expected:
        assert sum(find_isomorphism(g, h) is not None for g in attaining) == 1
