"""Vertex colorings and per-vertex color lists.

Colors are positive integers. The text format is one ``v <vertex> <color>``
line per colored vertex, 1-indexed, sorted by vertex; ``c`` lines are comments.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import DimacsError, PreconditionError
from .graph import Graph


class Coloring:
    """A partial or total assignment of colors to vertices.

    ``values[v]`` is the color of v, or None while v is uncolored. ``k`` is an
    optional palette bound recorded by whoever produced the coloring.
    """

    def __init__(self, values: Sequence[int | None], k: int | None = None):
        vals = tuple(values)
        for v, c in enumerate(vals):
            if c is not None and (not isinstance(c, int) or c < 1):
                raise PreconditionError(f"vertex {v} has bad color {c!r}")
        if k is not None and k < 1:
            raise PreconditionError(f"bad palette bound {k}")
        self.values = vals
        self.k = k

    @classmethod
    def from_dict(cls, n: int, assignment: Mapping[int, int], k: int | None = None) -> "Coloring":
        values: list[int | None] = [None] * n
        for v, c in assignment.items():
            if not 0 <= v < n:
                raise PreconditionError(f"vertex {v} out of range")
            values[v] = c
        return cls(values, k)

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
        return all(c is not None for c in self.values)

    def colored_vertices(self) -> list[int]:
        return [v for v, c in enumerate(self.values) if c is not None]

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

    def with_color(self, v: int, c: int) -> "Coloring":
        values = list(self.values)
        values[v] = c
        return Coloring(values, self.k)


def parse_coloring(text: str, n: int) -> Coloring:
    """Parse ``v <vertex> <color>`` lines (1-indexed vertices).

    Each line is split once, and a vertex colored twice is found in the
    values being filled. Errors name the line and quote it stripped.
    """
    values: list[int | None] = [None] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if fields[0] != "v" or len(fields) != 3:
            raise DimacsError(f"line {lineno}: malformed coloring line: {raw.strip()!r}")
        try:
            v, color = int(fields[1]), int(fields[2])
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
    """A sorted tuple of allowed colors per vertex."""

    def __init__(self, lists: Sequence[Iterable[int]]):
        self.lists: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(colors))) for colors in lists
        )
        for v, colors in enumerate(self.lists):
            if not colors:
                raise PreconditionError(f"list of vertex {v} is empty")
            if any(c < 1 for c in colors):
                raise PreconditionError(f"list of vertex {v} has a non-positive color")

    @classmethod
    def uniform(cls, n: int, colors: Iterable[int]) -> "ListAssignment":
        colors = tuple(colors)
        return cls([colors] * n)

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
                    raise PreconditionError(f"list of vertex {v} is empty")
                i = colors.index(color)
                lists[v] = colors[:i] + colors[i + 1:]
        # deleting one color keeps every list sorted, distinct and positive
        result = ListAssignment.__new__(ListAssignment)
        result.lists = tuple(lists)
        return result


def parse_lists(text: str, n: int) -> ListAssignment:
    """Parse ``l <vertex> <color>...`` lines (1-indexed vertices)."""
    lists: list[list[int] | None] = [None] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "l" or len(fields) < 3:
            raise DimacsError(f"line {lineno}: malformed list line: {line!r}")
        try:
            v = int(fields[1])
            colors = [int(f) for f in fields[2:]]
        except ValueError:
            raise DimacsError(f"line {lineno}: malformed list line: {line!r}") from None
        if not 1 <= v <= n:
            raise DimacsError(f"line {lineno}: vertex out of range: {line!r}")
        if lists[v - 1] is not None:
            raise DimacsError(f"line {lineno}: vertex {v} listed twice")
        lists[v - 1] = colors
    missing = [v + 1 for v, colors in enumerate(lists) if colors is None]
    if missing:
        raise DimacsError(f"no color list for vertices {missing}")
    return ListAssignment([colors for colors in lists if colors is not None])
