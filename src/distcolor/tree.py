"""Breadth-first spanning trees with a deterministic vertex order.

The order sigma lists vertices level by level. Within level i+1 the vertices
are grouped by parent, parents taken in their own sigma order, and inside one
group children come in ascending id unless a directive pins them elsewhere.
That is the order of a plain BFS queue over the sorted adjacency lists, so
one BFS builds the levels, parents, children and sigma together.

Directives:
  * ``parents[v] = p`` reassigns v's parent to the neighbor p one level up;
  * ``slots[v] = k`` pins v to position k among its parent's children;
  * ``slots[v] = LAST`` makes v the last child of its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import PreconditionError, TreeConstraintError
from .graph import INFINITY, Graph, distances

LAST = "last"


@dataclass(frozen=True)
class BfsTree:
    root: int
    parent: tuple[int | None, ...]
    level: tuple[int, ...]
    order: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    def siblings(self, v: int) -> tuple[int, ...]:
        """The other children of v's parent (empty for the root)."""
        p = self.parent[v]
        if p is None:
            return ()
        return tuple(c for c in self.children[p] if c != v)


def bfs_tree(
    g: Graph,
    root: int,
    parents: Mapping[int, int] | None = None,
    slots: Mapping[int, int | str] | None = None,
) -> BfsTree:
    """Build the BFS tree at ``root`` under the given ordering directives.

    One BFS whose queue is sigma itself: each dequeued vertex claims its
    unvisited neighbors in adjacency order, so each vertex without a
    directive hangs under its sigma-first neighbor one level up. A vertex
    whose parent directive names another vertex waits for that one. O(n + m).

    Raises TreeConstraintError for infeasible directives and PreconditionError
    for a disconnected graph or bad root. Only a call with directives copies
    them and runs a distance BFS first: parent directives are checked against
    the true levels, and a disconnected graph is reported before any
    directive. A vertex that claims no child, a leaf of the tree, costs only
    its adjacency scan.
    """
    if not 0 <= root < g.n:
        raise PreconditionError(f"root {root} out of range")
    parents = dict(parents) if parents else {}
    slots = dict(slots) if slots else {}
    adj = g.adj

    if parents or slots:
        dist = distances(g, root)
        if INFINITY in dist:
            raise PreconditionError("graph is disconnected")
        for v, p in parents.items():
            if not 0 <= v < g.n or not 0 <= p < g.n:
                raise TreeConstraintError(f"parent directive names unknown vertex ({v}, {p})")
            if v == root:
                raise TreeConstraintError("the root has no parent")
            if p not in adj[v]:
                raise TreeConstraintError(f"{p} is not a neighbor of {v}")
            if dist[p] != dist[v] - 1:
                raise TreeConstraintError(f"{p} is not one level above {v}")
        for v, s in slots.items():
            if not 0 <= v < g.n:
                raise TreeConstraintError(f"slot directive names unknown vertex {v}")
            if v == root:
                raise TreeConstraintError("the root occupies no child slot")
            if s != LAST and (not isinstance(s, int) or s < 0):
                raise TreeConstraintError(f"bad slot {s!r} for vertex {v}")

    # The sorted adjacency lists make every child group ascending, so only a
    # group that a slot directive names needs arranging. A vertex that claims
    # no child keeps the shared empty group and adds nothing to sigma.
    parent: list[int | None] = [None] * g.n
    for v, p in parents.items():
        parent[v] = p
    level = [-1] * g.n
    level[root] = 0
    order: list[int] = [root]
    children: list[tuple[int, ...]] = [()] * g.n
    for p in order:
        below = level[p] + 1
        kids = []
        for u in adj[p]:
            if level[u] < 0:
                q = parent[u]
                if q is None or q == p:
                    level[u] = below
                    parent[u] = p
                    kids.append(u)
        if kids:
            if slots and any(u in slots for u in kids):
                kids = _arrange(p, kids, slots)
            children[p] = tuple(kids)
            order.extend(kids)
    if len(order) != g.n:
        raise PreconditionError("graph is disconnected")

    return BfsTree(
        root=root,
        parent=tuple(parent),
        level=tuple(level),
        order=tuple(order),
        children=tuple(children),
    )


def _arrange(p: int, kids: list[int], slots: Mapping[int, int | str]) -> list[int]:
    """Order one child group: pinned positions first, the rest ascending."""
    total = len(kids)
    result: list[int | None] = [None] * total
    pinned: set[int] = set()
    last = [v for v in kids if slots.get(v) == LAST]
    if len(last) > 1:
        raise TreeConstraintError(f"two last-child directives under parent {p}")
    if last:
        result[total - 1] = last[0]
        pinned.add(last[0])
    for v in kids:
        s = slots.get(v)
        if s is None or s == LAST:
            continue
        assert isinstance(s, int)
        if s >= total:
            raise TreeConstraintError(
                f"slot {s} out of range for vertex {v} (parent {p} has {total} children)"
            )
        if result[s] is not None:
            raise TreeConstraintError(f"slot {s} under parent {p} claimed twice")
        result[s] = v
        pinned.add(v)
    free = iter(v for v in kids if v not in pinned)
    return [v if v is not None else next(free) for v in result]

