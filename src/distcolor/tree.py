"""Breadth-first spanning trees with a deterministic vertex order.

The order sigma lists vertices level by level. Within level i+1 the vertices
are grouped by parent, parents taken in their own sigma order, and inside one
group children come in ascending id unless a directive pins them elsewhere.

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

    def position(self, v: int) -> int:
        """Index of v in sigma."""
        return self.order.index(v)

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

    Raises TreeConstraintError for infeasible directives and PreconditionError
    for a disconnected graph or bad root.
    """
    if not 0 <= root < g.n:
        raise PreconditionError(f"root {root} out of range")
    parents = dict(parents or {})
    slots = dict(slots or {})

    dist = distances(g, root)
    if any(d == INFINITY for d in dist):
        raise PreconditionError("graph is disconnected")
    level = [int(d) for d in dist]

    for v, p in parents.items():
        if not 0 <= v < g.n or not 0 <= p < g.n:
            raise TreeConstraintError(f"parent directive names unknown vertex ({v}, {p})")
        if v == root:
            raise TreeConstraintError("the root has no parent")
        if not g.has_edge(v, p):
            raise TreeConstraintError(f"{p} is not a neighbor of {v}")
        if level[p] != level[v] - 1:
            raise TreeConstraintError(f"{p} is not one level above {v}")
    for v, s in slots.items():
        if not 0 <= v < g.n:
            raise TreeConstraintError(f"slot directive names unknown vertex {v}")
        if v == root:
            raise TreeConstraintError("the root occupies no child slot")
        if s != LAST and (not isinstance(s, int) or s < 0):
            raise TreeConstraintError(f"bad slot {s!r} for vertex {v}")

    parent: list[int | None] = [None] * g.n
    order: list[int] = [root]
    children: list[list[int]] = [[] for _ in range(g.n)]
    pos_in_order = {root: 0}

    # Bucket the vertices by level once, each bucket in ascending id, so every
    # child group below comes out ascending and the whole build is O(n + m).
    buckets: list[list[int]] = [[] for _ in range(max(level) + 1)]
    for v in range(g.n):
        buckets[level[v]].append(v)
    current = [root]
    for lvl, below in enumerate(buckets[1:]):
        # Parent of each level-(lvl+1) vertex: directive, else its sigma-first
        # neighbor one level up.
        group: dict[int, list[int]] = {p: [] for p in current}
        for v in below:
            if v in parents:
                p = parents[v]
            else:
                p = min(
                    (u for u in g.adj[v] if level[u] == lvl),
                    key=lambda u: pos_in_order[u],
                )
            group[p].append(v)
        nxt: list[int] = []
        for p in current:
            kids = _arrange(p, group[p], slots)
            children[p] = kids
            for c in kids:
                parent[c] = p
            nxt.extend(kids)
        for i, c in enumerate(nxt):
            pos_in_order[c] = len(order) + i
        order.extend(nxt)
        current = nxt

    tree = BfsTree(
        root=root,
        parent=tuple(parent),
        level=tuple(level),
        order=tuple(order),
        children=tuple(tuple(c) for c in children),
    )
    _check_tree(g, tree)
    return tree


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


def _check_tree(g: Graph, t: BfsTree) -> None:
    """Replay the structural invariants; they hold by construction."""
    assert len(t.order) == g.n and set(t.order) == set(range(g.n))
    for i in range(1, len(t.order)):
        assert t.level[t.order[i - 1]] <= t.level[t.order[i]]
    for v in t.order:
        p = t.parent[v]
        if v == t.root:
            assert p is None and t.level[v] == 0
        else:
            assert p is not None and g.has_edge(v, p)
            assert t.level[v] == t.level[p] + 1
    # children of one parent are consecutive, parents in sigma order
    by_level: dict[int, list[int]] = {}
    for v in t.order:
        by_level.setdefault(t.level[v], []).append(v)
    for lvl, vs in by_level.items():
        if lvl == 0:
            continue
        expected = [c for p in by_level[lvl - 1] for c in t.children[p]]
        assert vs == expected
