"""distcolor benchmark: one client in a closed loop, timed end to end or traced per module.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload solve-pipeline --seed 0 --seconds 30 --trace 0

``--trace 0`` sets up the workload five times (``setup_s`` is the median),
then makes whole passes over its operations, with nothing patched, until
``--seconds`` have gone by, and reports the end-to-end metrics. Its times are
CPU times scaled to a reference speed by a calibration kernel timed between
the operations (see Speed).
``--trace 1`` alternates a fixed number of untraced passes with as many
passes in which every traced function is wrapped (see tracing.py), and
reports the per-layer metrics. Every output is checked outside the timed span; with the default
seed the sha256 over the first pass's rendered outputs must match
``digests.json``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 5
TAIL_BEYOND = 10
CALIBRATE_EVERY = 0.05  # seconds between two timings of the calibration kernel
KERNEL_REFERENCE = 0.001  # seconds the kernel takes at the reference speed
_RING = 600
_RING_ADJ = [[(v + 1) % _RING, (v - 1) % _RING, (v * 7 + 3) % _RING] for v in range(_RING)]


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _kernel() -> int:
    """Fixed pure-Python work in the style of the program: breadth-first
    searches over adjacency lists with a dict of distances."""
    total = 0
    for source in range(0, _RING, 150):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for v in frontier:
                d = dist[v] + 1
                for w in _RING_ADJ[v]:
                    if w not in dist:
                        dist[w] = d
                        following.append(w)
            frontier = following
        total += sum(dist.values())
    return total


class Speed:
    """The host's speed over a run, from the calibration kernel's times.

    The shared virtual machine this benchmark is meant for loses its CPU to
    other tenants for milliseconds at a time, and runs up to twice as slow
    for seconds at a time, both far past any useful bound. Time taken away
    is left out by timing CPU time of this single-threaded, I/O-free loop
    (``time.thread_time``) rather than wall time. A slow spell slows the
    program and this kernel alike, so the kernel is timed at least every
    CALIBRATE_EVERY seconds between operations, and each CPU time is scaled
    by KERNEL_REFERENCE over the mean of the kernel times just before and
    just after it: the time the operation would take on a host where the
    kernel takes KERNEL_REFERENCE. The kernel is this file's own code, so a
    change to the program leaves it alone.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # wall clock at the end of each kernel run
        self.took: list[float] = []  # CPU time of each kernel run

    def tick(self, force: bool = False) -> None:
        if force or not self.at or time.perf_counter() - self.at[-1] >= CALIBRATE_EVERY:
            start = time.thread_time()
            _kernel()
            self.took.append(time.thread_time() - start)
            self.at.append(time.perf_counter())

    def scale(self, start: float, wall: float, cpu: float) -> float:
        """The CPU time ``cpu`` of a span that began at ``start``, at the reference speed."""
        after = bisect.bisect_left(self.at, start)
        before = max(after - 1, 0)
        after = min(after, len(self.at) - 1)
        return cpu * KERNEL_REFERENCE * 2 / (self.took[before] + self.took[after])


class Loop:
    """Runs passes over the operations, checks outputs and keeps the samples."""

    def __init__(self, ops, speed: Speed | None = None) -> None:
        self.ops = ops
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.samples: list[tuple[float, int, int]] = []  # (seconds, vertices, n + m)
        self.starts: list[float] = []
        self.cpu: list[float] = []  # CPU seconds of each sample
        self.index: list[int] = []  # the operation of each sample
        self.outputs: list[object] = []
        self._rendered: list[str | None] = [None] * len(ops)

    def run_pass(self, keep_outputs: bool = False) -> list[tuple[float, int, int]]:
        """One pass over the operations; returns the samples it added."""
        clock = time.perf_counter
        first = len(self.samples)
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if self.speed is not None:
                self.speed.tick()
            try:
                start = clock()
                cpu = time.thread_time()
                out = op.run()
                cpu = time.thread_time() - cpu
                elapsed = clock() - start
                text = op.check(out)
            except Exception as exc:  # every failure counts; the loop goes on
                self._record_failure(op, exc)
                continue
            if self._rendered[i] is None:
                self._rendered[i] = text
            elif self._rendered[i] != text:
                self._record_failure(op, RuntimeError("output differs from the first pass"))
                continue
            self.samples.append((elapsed, op.vertices, op.size))
            self.starts.append(start)
            self.cpu.append(cpu)
            self.index.append(i)
            if keep_outputs:
                self.outputs.append((op, out))
        return self.samples[first:]

    def _record_failure(self, op, exc: Exception) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"benchmark: {op.label} failed: {exc!r}", file=sys.stderr)
            traceback.print_exception(exc, limit=3, file=sys.stderr)

    def digest(self) -> str | None:
        """sha256 over every rendered output of one pass, in pass order."""
        if any(text is None for text in self._rendered):
            return None
        return hashlib.sha256("".join(self._rendered).encode()).hexdigest()


def _busy(samples: list[tuple[float, int, int]]) -> float:
    return sum(s for s, _, _ in samples)


def _tail(times: list[float]) -> tuple[float, str]:
    """The value with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], f"max of {len(ordered)} samples"
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], f"p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} samples"


def _scaling_exponent(samples: list[tuple[float, int, int]]) -> float:
    """Least-squares slope of log(call time) against log(n + m); 0 without spread."""
    points = [(math.log(size), math.log(s)) for s, _, size in samples if size > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def _freeze() -> None:
    """Collect the set-up's garbage and exempt what is left from collection.

    Thousands of back-to-back operations allocate enough to trigger a full
    collection every half second or so, far more often than one command-line
    call would. Each one scans every object the imports and set-up made and
    takes 4 to 5 ms, and where those pauses land decides ``call_tail_ms``.
    Frozen, those objects are skipped, as in a server that freezes after
    start-up; what the operations allocate is collected as before.
    """
    gc.collect()
    gc.freeze()


def _timings(
    loop: Loop, setups: list[tuple[float, float, float]], scale
) -> tuple[dict[str, float], str]:
    """The end-to-end times; ``scale(start, wall, cpu)`` gives a span's seconds."""
    times = [
        scale(t, wall, cpu) * 1000
        for t, (wall, _, _), cpu in zip(loop.starts, loop.samples, loop.cpu)
    ]
    per_op: list[list[float]] = [[] for _ in loop.ops]
    for i, t in zip(loop.index, times):
        per_op[i].append(t)
    # each operation's own median time, so that a burst of host load during
    # a few samples moves the throughput as little as it moves the median
    medians = [(op.vertices, statistics.median(t)) for op, t in zip(loop.ops, per_op) if t]
    tail, tail_note = _tail(times)
    return {
        "setup_s": statistics.median(scale(*setup) for setup in setups),
        "call_p50_ms": statistics.median(times),
        "call_tail_ms": tail,
        "vertices_per_s": 1000 * sum(v for v, _ in medians) / sum(t for _, t in medians),
    }, tail_note


def _end_to_end(build, seed: int, seconds: float) -> tuple[Loop, dict[str, float], list[str]]:
    speed = Speed()
    setups = []
    speed.tick(force=True)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cpu = time.thread_time()
        workload = build(seed)
        workload.ops[0].run()  # warm-up
        setups.append((start, time.perf_counter() - start, time.thread_time() - cpu))
        speed.tick(force=True)
    _freeze()
    loop = Loop(workload.ops, speed)
    start = time.perf_counter()
    passes = 0
    elapsed = 0.0
    # whole passes, ending as close to ``seconds`` as the mean pass allows
    while passes == 0 or elapsed + elapsed / passes / 2 < seconds:
        loop.run_pass()
        passes += 1
        elapsed = time.perf_counter() - start
    speed.tick(force=True)
    if not loop.samples:
        raise SystemExit(_fail("every operation failed"))
    metrics, tail_note = _timings(loop, setups, speed.scale)
    wall, _ = _timings(loop, setups, lambda _, seconds, cpu: seconds)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = [
        f"passes {passes}, wall {elapsed:.2f}s, calibration kernel timed {len(speed.took)} times,"
        f" median {1000 * statistics.median(speed.took):.4f} ms of CPU time"
        f" (reference {1000 * KERNEL_REFERENCE:g} ms)",
        f"call_tail_ms is the {tail_note}",
        "unscaled wall-clock values: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()),
    ]
    return loop, metrics, notes


def _per_layer(
    name: str, build, seed: int, branches: list[str]
) -> tuple[Loop, dict[str, float], list[str]]:
    import tracing

    workload = build(seed)
    workload.ops[0].run()  # warm-up
    _freeze()
    loop = Loop(workload.ops)
    tracer = tracing.Tracer()
    # untraced and traced passes alternate, so that drift in machine speed
    # weighs on both sides of the overhead ratio alike
    plain: list[tuple[float, int, int]] = []
    traced: list[tuple[float, int, int]] = []
    for _ in range(workload.trace_passes):
        plain += loop.run_pass(keep_outputs=True)
        tracer.install()
        try:
            traced += loop.run_pass()
        finally:
            tracer.uninstall()
    criteria: Counter[int] = Counter()
    chosen: Counter[str] = Counter()
    for op, out in loop.outputs:
        if op.kind == "corpus":
            for result in out:
                criteria[result.number] += result.seconds
        elif op.kind == "solve":
            chosen[out[0]] += 1
    plain_ops = len(loop.outputs)

    metrics = tracer.layer_metrics(workload.trace_passes * len(workload.ops))
    for branch in branches:
        metrics[f"solver.branch.{branch}.count"] = chosen[branch]
    for number in range(1, 8):
        metrics[f"corpus.criterion{number}_s"] = criteria[number] / max(plain_ops, 1)
    metrics["trace.overhead_ratio"] = _busy(traced) / _busy(plain) if plain else 0.0
    metrics["scaling_exponent"] = _scaling_exponent(plain)
    spans = HERE / "out" / f"spans-{name}.json.gz"
    tracer.write(spans, _environment())
    notes = [
        f"passes {workload.trace_passes} untraced and {workload.trace_passes} traced, alternating,"
        f" {len(tracer.start)} spans written to {spans.relative_to(ROOT)}",
    ]
    return loop, metrics, notes


def _environment() -> dict[str, object]:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "distcolor" / "__init__.py").is_file():
        return _fail(f"no distcolor sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import distcolor
    from distcolor import solver

    if not Path(distcolor.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"imported distcolor from {distcolor.__file__}, not this checkout")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        return _fail(f"unknown workload {args.workload!r}, not one of {known}")
    build = workloads.WORKLOADS[args.workload]

    if args.trace:
        branches = sorted(v for k, v in vars(solver).items() if k.startswith("BRANCH_"))
        loop, metrics, notes = _per_layer(args.workload, build, args.seed, branches)
        wanted = spec["per_layer"]
    else:
        loop, metrics, notes = _end_to_end(build, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    digest = loop.digest()
    digest_ok = True
    if args.seed == DEFAULT_SEED:
        expected = json.loads((HERE / "digests.json").read_text()).get(args.workload)
        digest_ok = digest is not None and digest == expected
        if not digest_ok:
            print(f"benchmark: output digest {digest} != recorded {expected}", file=sys.stderr)
    mismatch = set(metrics) ^ {m["name"] for m in wanted}
    if mismatch:
        return _fail(f"metrics disagree with BENCHMARK.json: {sorted(mismatch)}")

    environment = _environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          + ", ".join(f"{k} {v}" for k, v in environment.items()))
    for note in notes:
        print(note)
    print(f"attempted {loop.attempted}, failed {loop.failed}, "
          f"failed_ratio {loop.failed / max(loop.attempted, 1):.4f}")
    checked = "checked" if args.seed == DEFAULT_SEED else "not recorded for this seed"
    print(f"output digest {digest} ({checked})")
    for m in wanted:
        print(f"{m['name']:<48} {metrics[m['name']]:>16.6f} {m['unit']}")
    correct = loop.failed == 0 and digest_ok and loop.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
