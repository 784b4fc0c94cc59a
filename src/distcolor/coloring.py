"""Vertex colorings and per-vertex color lists.

Colors are positive integers. The text format is one ``v <vertex> <color>``
line per colored vertex, 1-indexed, sorted by vertex; ``c`` lines are comments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimacsError, PreconditionError
from .graph import Graph, number_test


class Coloring:
    """A partial or total assignment of colors to vertices.

    ``values[v]`` is the color of v, or None while v is uncolored. The
    values are the whole state: equal values make equal colorings.
    """

    def __init__(self, values: Sequence[int | None]):
        vals = tuple(values)
        for v, c in enumerate(vals):
            if c is not None and (not isinstance(c, int) or c < 1):
                raise PreconditionError(f"vertex {v} has bad color {c!r}")
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, v: int) -> int | None:
        return self.values[v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coloring) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Coloring({list(self.values)})"

    def is_total(self) -> bool:
        return None not in self.values

    def used_colors(self) -> set[int]:
        return {c for c in self.values if c is not None}

    def num_colors(self) -> int:
        return len(self.used_colors())

    def max_color(self) -> int:
        return max(self.used_colors(), default=0)

    def is_proper(self, g: Graph) -> bool:
        """No edge joins two vertices of the same color (uncolored ends are fine)."""
        if len(self.values) != g.n:
            raise PreconditionError("coloring length does not match the graph")
        values = self.values
        for c, nbrs in zip(values, g.adj):
            if c is not None:
                for u in nbrs:
                    if values[u] == c:
                        return False
        return True


def parse_coloring(text: str, n: int) -> Coloring:
    """Parse ``v <vertex> <color>`` lines (1-indexed vertices).

    Each line is split once, and a vertex colored twice is found in the
    values being filled. A number is a field that ``graph.number_test``
    accepts. Errors name the line and quote it stripped.
    """
    values: list[int | None] = [None] * n
    is_number = number_test(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        try:
            tag, a, b = fields
            if tag != "v" or is_number and not (is_number(a) and is_number(b)):
                raise ValueError(raw)
            v, color = int(a), int(b)
        except ValueError:
            raise DimacsError(
                f"line {lineno}: malformed coloring line: {raw.strip()!r}"
            ) from None
        if not 1 <= v <= n:
            raise DimacsError(f"line {lineno}: vertex out of range: {raw.strip()!r}")
        if color < 1:
            raise DimacsError(
                f"line {lineno}: colors are positive integers: {raw.strip()!r}"
            )
        if values[v - 1] is not None:
            raise DimacsError(f"line {lineno}: vertex {v} colored twice")
        values[v - 1] = color
    return Coloring(values)


def render_coloring(coloring: Coloring) -> str:
    lines = [
        f"v {v + 1} {c}"
        for v, c in enumerate(coloring.values)
        if c is not None
    ]
    return "\n".join(lines) + "\n" if lines else ""


class ListAssignment:
    """A sorted tuple of allowed colors per vertex. Messages number a vertex
    from 1, as a list file does."""

    def __init__(self, lists: Sequence[Iterable[int]]):
        self.lists: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(colors))) for colors in lists
        )
        for v, colors in enumerate(self.lists):
            if not colors:
                raise PreconditionError(f"list of vertex {v + 1} is empty")
            if colors[0] < 1:  # sorted: the first color is the smallest
                raise PreconditionError(f"list of vertex {v + 1} has a non-positive color")

    def __len__(self) -> int:
        return len(self.lists)

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.lists[v]

    def without(self, color: int, keep: int) -> "ListAssignment":
        """Delete ``color`` from every list except vertex ``keep``'s."""
        lists = list(self.lists)
        for v, colors in enumerate(lists):
            if v != keep and color in colors:
                if len(colors) == 1:
                    raise PreconditionError(f"list of vertex {v + 1} is empty")
                i = colors.index(color)
                lists[v] = colors[:i] + colors[i + 1:]
        # deleting one color keeps every list sorted, distinct and positive
        result = ListAssignment.__new__(ListAssignment)
        result.lists = tuple(lists)
        return result


def parse_lists(text: str, n: int) -> ListAssignment:
    """Parse ``l <vertex> <color>...`` lines (1-indexed vertices), a number
    being a field that ``graph.number_test`` accepts. Each line is split
    once; errors name the line and quote it stripped."""
    lists: list[list[int] | None] = [None] * n
    is_number = number_test(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        numbers = fields[1:]
        try:
            well_formed = fields[0] == "l" and len(numbers) >= 2
            if not well_formed or is_number and not all(map(is_number, numbers)):
                raise ValueError(raw)
            v, *colors = map(int, numbers)
        except ValueError:
            raise DimacsError(
                f"line {lineno}: malformed list line: {raw.strip()!r}"
            ) from None
        if not 1 <= v <= n:
            raise DimacsError(f"line {lineno}: vertex out of range: {raw.strip()!r}")
        if min(colors) < 1:
            raise DimacsError(
                f"line {lineno}: colors are positive integers: {raw.strip()!r}"
            )
        if lists[v - 1] is not None:
            raise DimacsError(f"line {lineno}: vertex {v} listed twice")
        lists[v - 1] = colors
    missing = [v + 1 for v, colors in enumerate(lists) if colors is None]
    if missing:
        raise DimacsError(f"no color list for vertices {missing}")
    return ListAssignment([colors for colors in lists if colors is not None])
