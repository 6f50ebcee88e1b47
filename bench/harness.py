"""Benchmark core: tracing spans, self time, percentiles and the op loop.

Nothing here imports insertproc: the set-up measurement reads the fixture
lists without paying the package import, and the benchmark's own tests
exercise this module on synthetic data.
"""

from __future__ import annotations

import math
import statistics
import threading
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional


WORKLOADS = ("verify", "count", "sample")

# Fixture files each workload reads; the set-up measurement loads the same.
GRAPH_FIXTURES = {
    "verify": ("k3", "k4", "k5", "k222", "k2222"),
    "count": ("k3", "k4", "k5", "k222", "kite", "cycle5"),
    "sample": ("k3", "k4", "k222", "k2222", "kite"),
}
SFT_FIXTURES = {"verify": (), "count": (),
                "sample": ("coloring3", "alternating2", "cyclic3")}


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[str]
    failed: bool = False
    work: int = 0


class NullTracer:
    """Untraced mode: calls go straight through, nothing is recorded."""

    op_id: Optional[str] = None

    def call(self, name: str, fn: Callable, *args, work: int = 0, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Records a span around every call, in memory, with its parent."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, work: int = 0, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        failed = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op_id,
                                     failed, work)


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end))
                   for a, b in children.get(i, ()) if b > s.start and a < s.end]
        out.append((s.end - s.start) - covered_length(clipped))
    return out


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples above its rank."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class OpOutcome:
    op_id: str
    kind: str
    start: float
    latency_s: float
    failed: bool
    reason: str = ""


@dataclass
class Kind:
    """How to run and check one kind of operation.

    ``run(tracer, args, prepared)`` is the timed call into the package.
    ``check(args, result)`` is the second route, outside the timed region;
    it returns a failure reason, or an empty string when the output holds.
    ``prepare(args)`` builds untimed inputs the program produces itself,
    such as a sampled batch that a later call consumes.
    ``repeats`` runs a sub-millisecond operation several times back to
    back; its latency is the median of the runs.  A single run that
    short is timed mostly on caches the calibration before it has just
    evicted, and how long those take to refill varies with the load on
    the host far more than the calibration does.
    """

    run: Callable
    check: Callable
    prepare: Optional[Callable] = None
    repeats: int = 1


@dataclass
class LoopResult:
    outcomes: list[OpOutcome] = field(default_factory=list)
    # per operation id, its latency scaled to the reference host speed
    scaled: dict[str, float] = field(default_factory=dict)
    timed_s: float = 0.0
    wall_s: float = 0.0
    rounds: int = 0


# The host speed is measured by a fixed computation that takes
# REFERENCE_CALIBRATION_S at the reference speed: right before and right
# after each timed call, unless the last calibration is under
# CALIBRATE_EVERY_S old, and every BACKGROUND_EVERY_S during an operation
# that has run longer than LONG_OP_S.
REFERENCE_CALIBRATION_S = 0.001
CALIBRATE_EVERY_S = 0.002
BACKGROUND_EVERY_S = 0.05
LONG_OP_S = 0.5


def _calibration_work() -> int:
    table: dict = {}
    for i in range(1500):
        key = tuple(range(i % 9))
        table[key, i] = [Fraction(i, 7)] if i % 5 == 0 else i * 3
    return len(table)


def calibrate() -> float:
    """Seconds a fixed computation takes on the host now; the faster of two.

    A shared host can run Python code up to twice as slow for stretches
    of seconds to minutes.  The computation allocates tuples, lists,
    dicts and fractions, the kind of work the package does, and the
    package's operations slow down with it in step; it is written here
    so that no change to the package changes it.  Dividing a latency by
    it gives the latency at a fixed host speed.
    """
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        _calibration_work()
        best = min(best, perf_counter() - start)
    return best


class SpeedProbe:
    """Calibrations taken next to operations and during long ones.

    The main thread calls ``take_if_stale`` right before and right after
    each timed call.  The host's speed can change within tens of
    milliseconds, so an operation is scaled only by the calibrations
    nearest to it.  A background thread calibrates every
    ``BACKGROUND_EVERY_S`` while an operation has been running for more
    than ``LONG_OP_S``, so an operation lasting seconds is scaled by the
    host speed measured during it.  Each such
    calibration holds the interpreter lock for about two milliseconds,
    which the long operation pays; short operations are never
    interrupted.
    """

    def __init__(self) -> None:
        # in time order: each calibration is timed and stored under the lock
        self._times: list[float] = []
        self._durations: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.op_start: Optional[float] = None

    def __enter__(self) -> "SpeedProbe":
        self.take()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(BACKGROUND_EVERY_S):
            started = self.op_start
            if started is not None and perf_counter() - started > LONG_OP_S:
                self.take()

    def take(self) -> None:
        """Calibrate now."""
        with self._lock:
            self._times.append(perf_counter())
            self._durations.append(calibrate())

    def take_if_stale(self) -> None:
        """Calibrate unless the last calibration is recent."""
        if perf_counter() - self._times[-1] >= CALIBRATE_EVERY_S:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured speed during ``[start, end]``.

        Averages the calibrations taken in the interval and the nearest
        one on each side of it.
        """
        with self._lock:
            lo = max(bisect_right(self._times, start) - 1, 0)
            hi = min(bisect_left(self._times, end) + 1, len(self._times))
            used = self._durations[lo:hi]
        return REFERENCE_CALIBRATION_S / (sum(used) / len(used))


def execute(op_id: str, kind_name: str, kind: Kind, args: dict,
            tracer: NullTracer, checked: Optional[tuple] = None,
            around: Callable[[], None] = lambda: None
            ) -> tuple[OpOutcome, object]:
    """Run one operation, time it, then check its output.

    ``checked`` is an earlier ``(result, reason)`` of the same operation:
    an equal result takes over that verdict instead of running the check
    again.  ``around`` is called right before and right after the timed
    call.  An exception or a failed check marks the operation failed;
    it is never retried.  Returns the outcome and the result.
    """
    prepared = kind.prepare(args) if kind.prepare else None
    tracer.op_id = op_id
    around()
    start = perf_counter()
    results, times = [], []
    try:
        for _ in range(kind.repeats):
            began = perf_counter()
            results.append(tracer.call("bench.op", kind.run, tracer, args,
                                       prepared))
            times.append(perf_counter() - began)
    except Exception as exc:  # the op failed; record it and go on
        latency = perf_counter() - start
        around()
        tracer.op_id = None
        return OpOutcome(op_id, kind_name, start, latency, True,
                         f"raised {type(exc).__name__}: {exc}"), None
    around()
    latency = statistics.median(times)
    result = results[0]
    if any(r != result for r in results[1:]):
        reason = "repeated runs gave different results"
    elif checked is not None and checked[0] == result:
        reason = checked[1]
    else:
        try:
            reason = tracer.call("bench.check", kind.check, args, result)
        except Exception:
            reason = "check raised: " + traceback.format_exc(limit=2).strip()
    tracer.op_id = None
    return OpOutcome(op_id, kind_name, start, latency, bool(reason),
                     reason), result


def run_rounds(make_round: Callable[[int], list[tuple[str, dict]]],
               kinds: dict[str, Kind], seconds: float, label: str
               ) -> tuple[LoopResult, list[list[tuple[str, dict]]]]:
    """Closed loop, one client: whole rounds until ``seconds`` of scaled work.

    A round is a fixed mix of operations generated from the seed; running
    whole rounds keeps the mix identical from run to run.  Each
    operation's latency is scaled by the host speed measured around and
    during it (see ``SpeedProbe``).  Counting scaled work makes the number of
    rounds independent of the host's speed.  Returns the rounds run, for
    replay.
    """
    result = LoopResult()
    rounds: list[list[tuple[str, dict]]] = []
    tracer = NullTracer()
    with SpeedProbe() as probe:
        while sum(result.scaled.values()) < seconds:
            r = len(rounds)
            ops = make_round(r)
            rounds.append(ops)
            done = []
            for i, (kind_name, args) in enumerate(ops):
                probe.op_start = perf_counter()
                outcome, _ = execute(f"{label}-r{r}-{i}-{kind_name}",
                                     kind_name, kinds[kind_name], args, tracer,
                                     around=probe.take_if_stale)
                probe.op_start = None
                done.append(outcome)
            for o in done:
                result.outcomes.append(o)
                result.timed_s += o.latency_s
                result.scaled[o.op_id] = o.latency_s * probe.scale(
                    o.start, o.start + o.latency_s)
    result.rounds = len(rounds)
    return result, rounds


def replay_paired(rounds: list[list[tuple[str, dict]]], kinds: dict[str, Kind],
                  tracer: Tracer, label: str) -> tuple[LoopResult, LoopResult]:
    """Run every operation of ``rounds`` twice, untraced and traced.

    The two runs of each operation follow each other, in alternating
    order, so drift in machine speed and warm caches fall on both sides
    alike; the difference of the two timed totals is the tracing cost.
    """
    plain, traced = LoopResult(), LoopResult()
    sides = [(plain, NullTracer(), "plain"), (traced, tracer, "traced")]
    for r, ops in enumerate(rounds):
        for i, (kind_name, args) in enumerate(ops):
            sides.reverse()
            checked = None
            for result, tr, tag in sides:
                start = perf_counter()
                outcome, res = execute(f"{label}-{tag}-r{r}-{i}-{kind_name}",
                                       kind_name, kinds[kind_name], args, tr,
                                       checked)
                result.wall_s += perf_counter() - start
                result.outcomes.append(outcome)
                result.timed_s += outcome.latency_s
                checked = (res, outcome.reason)
    plain.rounds = traced.rounds = len(rounds)
    return plain, traced


MODULES = ("graphs", "buildings", "poly", "consistency", "dependence",
           "process", "sft", "cli")

# (metric, unit, span name, field); field "rate" divides work by busy time
_FUNCTION_METRICS = (
    ("graphs.load.busy_s", "s", "graphs.load", "busy_s"),
    ("buildings.building_count.calls", "count", "buildings.building_count", "calls"),
    ("buildings.building_count.busy_s", "s", "buildings.building_count", "busy_s"),
    ("buildings.building_count.words_per_s", "1/s", "buildings.building_count", "rate"),
    ("buildings.reduced_count.busy_s", "s", "buildings.reduced_count", "busy_s"),
    ("consistency.check_consistency.busy_s", "s", "consistency.check_consistency", "busy_s"),
    ("consistency.check_consistency.words_per_s", "1/s", "consistency.check_consistency", "rate"),
    ("dependence.check_k_dependence.busy_s", "s", "dependence.check_k_dependence", "busy_s"),
    ("dependence.check_k_dependence.pairs_per_s", "1/s", "dependence.check_k_dependence", "rate"),
    ("dependence.min_k_search.busy_s", "s", "dependence.min_k_search", "busy_s"),
    ("dependence.gap_sum.busy_s", "s", "dependence.gap_sum", "busy_s"),
    ("process.marginal.busy_s", "s", "process.marginal", "busy_s"),
    ("process.marginal.words_per_s", "1/s", "process.marginal", "rate"),
    ("process.sample_exact.busy_s", "s", "process.sample_exact", "busy_s"),
    ("process.sample_exact.draws_per_s", "1/s", "process.sample_exact", "rate"),
    ("process.sample_insertion.symbols_per_s", "1/s", "process.sample_insertion", "rate"),
    ("process.insertion_law.busy_s", "s", "process.insertion_law", "busy_s"),
    ("process.empirical_gap_independence.busy_s", "s",
     "process.empirical_gap_independence", "busy_s"),
    ("sft.check_lr.busy_s", "s", "sft.check_lr", "busy_s"),
    ("sft.sample_sft.busy_s", "s", "sft.sample_sft", "busy_s"),
    ("poly.reduced_count_symbolic.busy_s", "s", "poly.reduced_count_symbolic", "busy_s"),
    ("cli.verify_identities.busy_s", "s", "cli.verify_identities", "busy_s"),
    ("cli.main.busy_s", "s", "cli.main", "busy_s"),
)

# measured by the set-up step, outside the worker
SETUP_LAYER_METRICS = (("cli.interpreter_s", "s"), ("cli.import_s", "s"))

TRACE_METRICS = (("bench.self_s", "s"), ("bench.check_s", "s"),
                 ("trace.unspanned_s", "s"),
                 ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
                 ("trace.overhead_pct", "%"))

PER_LAYER = tuple(
    [(f"{m}.{f}", u) for m in MODULES
     for f, u in (("calls", "count"), ("busy_s", "s"), ("failed", "count"))]
    + [(name, unit) for name, unit, _, _ in _FUNCTION_METRICS]
    + list(SETUP_LAYER_METRICS) + list(TRACE_METRICS))

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """calls, self time, failures and work per span name."""
    totals: dict[str, dict] = {}
    for s, busy in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "failed": 0,
                                       "work": 0})
        t["calls"] += 1
        t["busy_s"] += busy
        t["failed"] += s.failed
        t["work"] += s.work
    return totals


def trace_metrics(spans: list[Span], traced_wall_s: float, traced_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass, and what tracing cost.

    ``traced_s`` and ``untraced_s`` are the timed work of the same
    operations with tracing on and off.

    Self times of the package's layers plus the benchmark's own time add
    up to the traced pass's wall time.  The benchmark's own time is the
    self time of its op spans (code around the timed calls), its check
    spans (the second routes, outside the timed region) and the loop
    time outside any span.
    """
    totals = layer_totals(spans)
    out: dict[str, float] = {}
    for m in MODULES:
        mine = [t for name, t in totals.items() if name.split(".")[0] == m]
        for f in ("calls", "busy_s", "failed"):
            out[f"{m}.{f}"] = sum(t[f] for t in mine)
    for metric, _, name, f in _FUNCTION_METRICS:
        t = totals.get(name, {"calls": 0, "busy_s": 0.0, "failed": 0, "work": 0})
        if f == "rate":
            out[metric] = t["work"] / t["busy_s"] if t["busy_s"] > 0 else 0.0
        else:
            out[metric] = t[f]
    rooted = covered_length([(s.start, s.end) for s in spans if s.parent is None])
    unspanned = traced_wall_s - rooted
    out["bench.self_s"] = unspanned + sum(
        t["busy_s"] for name, t in totals.items() if name.startswith("bench."))
    out["bench.check_s"] = totals.get("bench.check", {"busy_s": 0.0})["busy_s"]
    out["trace.unspanned_s"] = unspanned
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    return out
