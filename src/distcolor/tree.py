"""Breadth-first spanning trees with a deterministic vertex order.

The order sigma lists vertices level by level. Within level i+1 the vertices
are grouped by parent, parents taken in their own sigma order, and inside one
group children come in ascending id unless a directive ranks them.
That is the order of a plain BFS queue over the sorted adjacency lists, so
one BFS builds the levels, parents, children and sigma together.

Directives:
  * ``parents[v] = p`` reassigns v's parent to the neighbor p one level up;
  * ``slots[v] = r`` ranks v among its parent's children: a group with a
    ranked child comes in ascending (rank, id), the unranked children after
    the ranked ones in ascending id, and a child ranked ``LAST`` after all.

Any ranking is an order, so slots cannot conflict. A parent directive that
is not an edge one level up would break the levels certification trusts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import InternalConsistencyError, PreconditionError
from .graph import INFINITY, Graph, distances

LAST = math.inf
_UNRANKED = 2**63  # past any rank a caller writes, before LAST


@dataclass(frozen=True)
class BfsTree:
    root: int
    parent: tuple[int | None, ...]
    level: tuple[int, ...]
    order: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]


def bfs_tree(
    g: Graph,
    root: int,
    parents: Mapping[int, int] | None = None,
    slots: Mapping[int, float] | None = None,
) -> BfsTree:
    """Build the BFS tree at ``root`` under the given ordering directives.

    One BFS whose queue is sigma itself: each dequeued vertex claims its
    unvisited neighbors in adjacency order, so each vertex without a
    directive hangs under its sigma-first neighbor one level up. A vertex
    whose parent directive names another vertex waits for that one. O(n + m),
    plus a sort of each child group that holds a ranked child.

    Raises PreconditionError for a disconnected graph or bad root, and
    InternalConsistencyError, a bug in the construction, for a bad parent
    directive. Only parent directives run a distance BFS first, for the true
    levels, and a disconnected graph is reported before any of them.
    """
    if not 0 <= root < g.n:
        raise PreconditionError(f"root {root} out of range")
    parents = parents or {}
    slots = slots or {}
    adj = g.adj

    if parents:
        dist = distances(g, root)
        if INFINITY in dist:
            raise PreconditionError("graph must be connected")
        for v, p in parents.items():
            if not 0 <= v < g.n or not 0 <= p < g.n:
                raise InternalConsistencyError(f"parent directive names unknown vertex ({v}, {p})")
            if v == root:
                raise InternalConsistencyError("the root has no parent")
            if p not in adj[v]:
                raise InternalConsistencyError(f"{p} is not a neighbor of {v}")
            if dist[p] != dist[v] - 1:
                raise InternalConsistencyError(f"{p} is not one level above {v}")

    # The sorted adjacency lists make every child group ascending, so only a
    # group with a ranked child needs sorting. A vertex that claims no child
    # keeps the shared empty group and adds nothing to sigma.
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
                kids.sort(key=lambda u: (slots.get(u, _UNRANKED), u))
            children[p] = tuple(kids)
            order.extend(kids)
    if len(order) != g.n:
        raise PreconditionError("graph must be connected")

    return BfsTree(
        root=root,
        parent=tuple(parent),
        level=tuple(level),
        order=tuple(order),
        children=tuple(children),
    )
