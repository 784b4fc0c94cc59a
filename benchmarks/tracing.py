"""Spans around the public functions of each distcolor module, for the traced run.

``Tracer.install`` replaces each traced function wherever a distcolor module
binds it (``solver.girth``, ``greedy.girth`` and ``symmetry.girth`` are the
same function bound three times) and ``uninstall`` puts the originals back.
Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once at the end. The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

# module -> traced functions; "Class.method" names a method
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("parse_graph", "girth", "is_connected", "diameter", "distances"),
    "coloring": ("parse_coloring", "Coloring.is_proper"),
    "tree": ("bfs_tree",),
    "greedy": ("greedy_extend_traced",),
    "symmetry": (
        "is_distinguishing",
        "fixed_propagation",
        "find_isomorphism",
        "exists_automorphism_mapping",
        "exact_chi_D",
    ),
    "solver": ("solve", "render_result"),
}

# span name -> (ratio name, whether one call's outcome counts as useful)
OUTCOMES: dict[str, tuple[str, Callable[[tuple, object], bool]]] = {
    "symmetry.is_distinguishing": (
        "distinguishing_ratio", lambda args, verdict: verdict.distinguishing
    ),
    # calls that certified every vertex, over all calls
    "symmetry.fixed_propagation": (
        "full_ratio", lambda args, fixed: len(fixed) == args[0].n
    ),
}


def span_names() -> list[str]:
    return [
        f"{module}.{function.split('.')[-1]}"
        for module, functions in LAYERS.items()
        for function in functions
    ]


class Tracer:
    def __init__(self) -> None:
        self.names = span_names()
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.useful: Counter[str] = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable) -> Callable:
        nid = self.names.index(span)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        outcome = OUTCOMES.get(span, (None, None))[1]
        useful = self.useful

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(args, result):
                useful[span] += 1
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "distcolor" or key.startswith("distcolor.")
        ]
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"distcolor.{module_name}"]
            for function in functions:
                span = f"{module_name}.{function.split('.')[-1]}"
                if "." in function:
                    owner_name, attr = function.split(".")
                    owner = getattr(module, owner_name)
                    self._patch(owner, attr, self._wrap(span, getattr(owner, attr)))
                    continue
                original = getattr(module, function)
                wrapper = self._wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Calls, inclusive busy time and self time per span name, plus ratios.

        Busy time counts only spans with no ancestor of the same name, so a
        recursive call is not counted twice; self time subtracts the direct
        children, which never overlap in one thread.
        """
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                children[self.parent[i]] += duration[i]
        calls: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for i in range(count):
            span = self.names[self.name[i]]
            calls[span] += 1
            own[span] += duration[i] - children[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                busy[span] += duration[i]
        metrics: dict[str, float] = {}
        for span in self.names:
            metrics[f"{span}.calls"] = calls[span]
            metrics[f"{span}.busy_s"] = busy[span]
            metrics[f"{span}.self_s"] = own[span]
        for span, (ratio, _) in OUTCOMES.items():
            metrics[f"{span}.{ratio}"] = self.useful[span] / calls[span] if calls[span] else 0.0
        metrics["graph.girth.calls_per_op"] = calls["graph.girth"] / ops
        return metrics

    def write(self, path: Path, environment: dict[str, object]) -> None:
        origin = self.start[0] if self.start else 0.0
        record = {
            "environment": environment,
            "names": self.names,
            "name": self.name.tolist(),
            "start": [round(t - origin, 9) for t in self.start],
            "end": [round(t - origin, 9) for t in self.end],
            "parent": self.parent.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(record, handle, separators=(",", ":"))
