"""Acceptance suite: one test per criterion, at full volume.

Each test prints its ``criterion N name PASS/FAIL`` row (run pytest with -s
to watch them stream) and then asserts the outcome, so a red criterion shows
both the row and the first failing detail.  The ``distcolor corpus``
subcommand prints the same table without pytest.  As there, the corpus
graphs and the property-test graphs are each built once and shared.
"""

import pytest

from distcolor.corpus import (
    PROPERTY_RUNS,
    _property_graphs,
    _run,
    check_exact_boundary,
    check_greedy_bounds,
    check_moore_recursion,
    check_propagation_soundness,
    check_stored_colorings,
    check_theorem_suite,
    check_two_extra_colors,
    corpus_graphs,
)


@pytest.fixture(scope="module")
def graphs():
    return list(corpus_graphs())


@pytest.fixture(scope="module")
def runs():
    return list(_property_graphs(0, PROPERTY_RUNS))


def report(number, name, check):
    result = _run(number, name, check)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_theorem_suite(graphs):
    # paths, cycles, random trees, stars, the named graphs, and 200 random
    # girth-5 graphs, every output re-verified, under the two-minute budget
    report(1, "theorem-suite", lambda: check_theorem_suite(graphs))


def test_criterion_2_moore_recursion():
    # hoffman-singleton through the recursive branch with at most 8 colors,
    # exactly verified, under the five-minute budget
    report(2, "moore-recursion", check_moore_recursion)


def test_criterion_3_stored_colorings():
    # the stored petersen and heawood colorings: proper, exactly four colors,
    # distinguishing; same-colored petersen vertices differ in their
    # neighborhood color multisets
    report(3, "stored-colorings", check_stored_colorings)


def test_criterion_4_exact_boundary():
    # every connected girth-5 graph on at most 7 vertices, up to isomorphism:
    # the exact optimum stays within Δ+1 except for the six-cycle at 4
    report(4, "exact-boundary", check_exact_boundary)


def test_criterion_5_two_extra_colors(graphs):
    # Δ+2 colorings across the corpus, plus 100 random list assignments of
    # size Δ+2 per small graph, all respected and certified
    report(5, "two-extra-colors", lambda: check_two_extra_colors(graphs, 0))


def test_criterion_6_greedy_bounds(runs):
    # 10,000 traced greedy runs: unconstrained neighbor-rule steps stay
    # within Δ+1 (top color only on rainbow neighborhoods), sibling-rule
    # steps within Δ
    report(6, "greedy-bounds", lambda: check_greedy_bounds(runs))


def test_criterion_7_propagation_soundness(runs):
    # 10,000 instances: whenever propagation certifies every vertex, the
    # exact symmetry search confirms the coloring is distinguishing
    report(7, "propagation", lambda: check_propagation_soundness(runs))
