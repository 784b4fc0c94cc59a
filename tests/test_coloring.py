"""Colorings, list assignments, and their text formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor.coloring import (
    Coloring,
    ListAssignment,
    parse_coloring,
    parse_lists,
    render_coloring,
)
from distcolor.errors import DimacsError, PreconditionError
from distcolor.generators import cycle, path, petersen

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def test_total_coloring_basics():
    c = Coloring((1, 2, 1))
    assert len(c) == 3
    assert c[1] == 2
    assert c.is_total()
    assert c.used_colors() == {1, 2}
    assert c.num_colors() == 2
    assert c.max_color() == 2


def test_partial_coloring_tracks_colored_vertices():
    c = Coloring((1, None, 3))
    assert not c.is_total()
    assert c.used_colors() == {1, 3}


def test_equality_and_hashing():
    a = Coloring((1, 2))
    b = Coloring((1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Coloring((2, 1))


def test_is_proper_ignores_uncolored_endpoints():
    g = path(3)
    assert Coloring((1, None, 1)).is_proper(g)
    assert Coloring((1, 2, 1)).is_proper(g)
    assert not Coloring((1, 1, None)).is_proper(g)


def test_proper_on_cycle():
    g = cycle(5)
    assert Coloring((1, 2, 1, 2, 3)).is_proper(g)
    assert not Coloring((1, 2, 1, 2, 1)).is_proper(g)


def test_render_parse_round_trip():
    c = Coloring((4, 1, None, 2))
    text = render_coloring(c)
    assert "v 3" not in text
    assert parse_coloring(text, 4) == c


def test_parse_accepts_comments():
    c = parse_coloring("c header\nv 1 5\n\nv 2 1\n", 2)
    assert c.values == (5, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("v 1\n", "line 1: malformed coloring line: 'v 1'"),
        ("v 0 1\n", "line 1: vertex out of range: 'v 0 1'"),
        ("v 3 1\n", "line 1: vertex out of range: 'v 3 1'"),
        ("v 1 0\n", "line 1: colors are positive integers: 'v 1 0'"),
        ("v 1 2\nv 1 3\n", "line 2: vertex 1 colored twice"),
        ("w 1 2\n", "line 1: malformed coloring line: 'w 1 2'"),
        ("c\n\n  v 1 2 3 \n", "line 3: malformed coloring line: 'v 1 2 3'"),
        ("v 1 x\n", "line 1: malformed coloring line: 'v 1 x'"),
    ],
    ids=[
        "short-line",
        "vertex-zero",
        "vertex-high",
        "color-zero",
        "repeat",
        "bad-tag",
        "long-line",
        "non-integer-color",
    ],
)
def test_parse_rejects_malformed_colorings(text, message):
    # the exact text, line number included, is what the CLI prints on stderr
    with pytest.raises(DimacsError) as err:
        parse_coloring(text, 2)
    assert str(err.value) == message


# int() takes the first four; "²" is a digit to str.isdigit() alone, and
# int() raises ValueError itself past its default limit of 4300 digits
NOT_NUMBERS = ["+1", "1_0", "-1", "\u0661", "\u00b2", "9" * 4301]
NOT_NUMBER_IDS = ["plus", "underscore", "minus", "arabic-indic", "superscript", "long"]


@pytest.mark.parametrize("field", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_parse_coloring_reads_only_ascii_digits(field):
    for line in (f"v {field} 1", f"v 1 {field}"):
        with pytest.raises(DimacsError) as err:
            parse_coloring(line + "\n", 20)
        assert str(err.value) == f"line 1: malformed coloring line: {line!r}"


def test_rejects_nonpositive_colors():
    with pytest.raises(PreconditionError):
        Coloring((0, 1))
    with pytest.raises(PreconditionError):
        Coloring((-2,))


def test_list_assignment_basics():
    lists = ListAssignment(((1, 2), (2, 3), (1, 3)))
    assert len(lists) == 3
    assert lists[1] == (2, 3)


def test_without_deletes_a_color_from_every_list_but_one():
    lists = ListAssignment([range(1, 5)] * 3)
    assert lists[0] == (1, 2, 3, 4)
    pruned = lists.without(2, keep=0)
    assert pruned[0] == (1, 2, 3, 4)
    assert pruned[1] == (1, 3, 4)


def test_without_refuses_to_empty_a_list():
    # the message numbers the vertex from 1, as a list file does
    with pytest.raises(PreconditionError, match="^list of vertex 2 is empty$"):
        ListAssignment([(1, 2), (1,)]).without(1, keep=0)


def test_empty_list_is_rejected():
    with pytest.raises(PreconditionError):
        ListAssignment(((1, 2), ()))


def test_non_positive_color_is_named_by_the_files_vertex():
    # each list is sorted first, so (3, 0, 5) is refused by its first color
    with pytest.raises(PreconditionError, match="^list of vertex 2 has a non-positive color$"):
        ListAssignment([(2, 1), (3, 0, 5)])


def test_parse_lists_round_trip():
    lists = parse_lists("l 1 5 6 7\nl 2 6 5\n", 2)
    assert lists[0] == (5, 6, 7)
    assert lists[1] == (5, 6)


@pytest.mark.parametrize(
    "text",
    ["l 1\n", "l 5 1 2\n", "x 1 2\n", "l 1 2\n"],
    ids=["no-colors", "vertex-high", "bad-tag", "missing-vertex"],
)
def test_parse_lists_rejects_malformed(text):
    with pytest.raises(DimacsError):
        parse_lists(text, 3)


def test_parse_lists_names_the_line_of_a_non_positive_color():
    # a zero is a number; the parser refuses it as a color, naming the line
    for text, lineno, line in (
        ("l 1 0 2 3 4\nl 2 1 2\n", 1, "l 1 0 2 3 4"),
        ("c lists\nl 1 1 2\nl 2 3 2 00\n", 3, "l 2 3 2 00"),
    ):
        with pytest.raises(DimacsError) as err:
            parse_lists(text, 2)
        assert str(err.value) == f"line {lineno}: colors are positive integers: {line!r}"


@pytest.mark.parametrize("field", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_parse_lists_reads_only_ascii_digits(field):
    for line in (f"l {field} 1 2", f"l 1 2 {field}"):
        with pytest.raises(DimacsError) as err:
            parse_lists(line + "\n", 20)
        assert str(err.value) == f"line 1: malformed list line: {line!r}"


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=12,
    )
)
def test_round_trip_preserves_partial_colorings(values):
    c = Coloring(tuple(values))
    assert parse_coloring(render_coloring(c), len(values)) == c


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_uniform_lists_have_requested_size(n, k):
    lists = ListAssignment([range(1, k + 1)] * n)
    assert all(lists[v] == tuple(range(1, k + 1)) for v in range(n))


def test_improper_pair_detected_on_petersen():
    g = petersen()
    values = [1] * 10
    assert not Coloring(tuple(values)).is_proper(g)
