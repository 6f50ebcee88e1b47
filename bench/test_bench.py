"""Tests of the benchmark's own logic.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from harness import (END_TO_END, PER_LAYER, Kind, NullTracer, Span, Tracer,
                     WORKLOADS, covered_length, execute, percentile,
                     run_rounds, self_times, trace_metrics)
from workloads import ROUNDS, count_round, kinds_for, verify_round

from insertproc import (DependenceCounterexample, DependenceReport, gap_sum,
                        graph_from_json_dict)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    make = ROUNDS[workload]
    first = json.dumps([make(7, r) for r in range(2)])
    assert json.dumps([make(7, r) for r in range(2)]) == first
    assert json.dumps([make(8, r) for r in range(2)]) != first
    assert json.dumps(make(7, 0)) != json.dumps(make(7, 1))


def test_percentile_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50) == (50.0, 50)
    assert percentile(values, 90) == (90.0, 10)
    assert percentile([3.0], 90) == (3.0, 0)
    # 0.9 * 11 = 9.9 rounds up to rank 10, leaving one sample above
    assert percentile([float(v) for v in range(11)], 90) == (9.0, 1)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "op")


def test_self_time_subtracts_covered_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),      # overlaps a: union is 1..6
        _span("a.inner", 2.0, 3.5, parent=1),
        _span("c", 9.0, 12.0, parent=0),     # sticks out of its parent
        _span("other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 1.5, 3.0, 1.0])
    assert covered_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_trace_metrics_account_for_the_wall_time():
    spans = [
        Span("bench.op", 0.0, 5.0, None, "op", work=0),
        Span("graphs.load", 0.0, 1.0, 0, "op"),
        Span("dependence.check_k_dependence", 1.0, 4.0, 0, "op", work=30),
        Span("bench.check", 5.0, 6.0, None, "op"),
    ]
    m = trace_metrics(spans, traced_wall_s=6.5, traced_s=5.0, untraced_s=4.0)
    assert m["graphs.load.busy_s"] == pytest.approx(1.0)
    assert m["dependence.calls"] == 1
    assert m["dependence.check_k_dependence.pairs_per_s"] == pytest.approx(10.0)
    assert m["trace.unspanned_s"] == pytest.approx(0.5)
    assert m["bench.check_s"] == pytest.approx(1.0)
    layers = sum(m[f"{mod}.busy_s"] for mod in ("graphs", "dependence"))
    assert layers + m["bench.self_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["trace.overhead_pct"] == pytest.approx(25.0)
    assert set(m) | {"cli.interpreter_s", "cli.import_s"} == {n for n, _ in PER_LAYER}


def test_tracer_records_parent_and_failure():
    tr = Tracer()
    tr.op_id = "x"

    def boom():
        raise ValueError("no")

    def outer():
        tr.call("inner", lambda: 1)
        with pytest.raises(ValueError):
            tr.call("bad", boom)
        return 2

    assert tr.call("outer", outer) == 2
    by_name = {s.name: s for s in tr.spans}
    assert by_name["inner"].parent == 0 and by_name["bad"].parent == 0
    assert by_name["bad"].failed and not by_name["outer"].failed
    assert by_name["outer"].op_id == "x"


def test_wrong_result_is_counted_failed(tmp_path):
    kinds = kinds_for("count", tmp_path)
    kind_name, args = next(op for op in ROUNDS["count"](3, 0) if op[0] == "count")
    good = kinds[kind_name]
    ok, _ = execute("good", kind_name, good, args, NullTracer())
    assert not ok.failed, ok.reason

    def off_by_one(tr, a, prepared):
        b, r = good.run(tr, a, prepared)
        return b + Fraction(1), r

    bad, _ = execute("bad", kind_name, Kind(off_by_one, good.check), args,
                     NullTracer())
    assert bad.failed and "B" in bad.reason

    def raises(tr, a, prepared):
        raise RuntimeError("broken")

    crashed, _ = execute("crash", kind_name, Kind(raises, good.check), args,
                         NullTracer())
    assert crashed.failed and "RuntimeError" in crashed.reason


def test_false_counterexample_is_counted_failed(tmp_path):
    # an iid graph whose report carries a witness with lhs == expected, the
    # shape of the int64 wraparound in check_k_dependence on looped graphs
    graph = {"vertices": 4,
             "weights": [[i, j, "114/113"] for i in range(4) for j in range(4)]}
    args = {"name": "looped-k4", "graph": graph, "k": 3, "window": 1,
            "verified": True, "spot": [[[0], [1]]], "pairs": 16}
    lhs = gap_sum(graph_from_json_dict(graph), (0,), (0,), 3)

    def false_witness(tr, a, prepared):
        cx = DependenceCounterexample((0,), (0,), lhs, lhs)
        return DependenceReport(3, 1, 1, {}, cx)

    kind = kinds_for("verify", tmp_path)["kdep"]
    outcome, _ = execute("wrapped", "kdep", Kind(false_witness, kind.check),
                         args, NullTracer())
    assert outcome.failed and "lhs equals expected" in outcome.reason


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_rounds_are_whole_and_every_op_is_scaled():
    calls = []

    def make_round(r):
        return [("echo", {"v": r * 10 + i}) for i in range(3)]

    def run(tr, args, prepared):
        calls.append(args["v"])
        return args["v"]

    kinds = {"echo": Kind(run, lambda args, result: "" if result == args["v"] else "bad")}
    loop, rounds = run_rounds(make_round, kinds, 1e-9, "t")
    assert calls == [0, 1, 2] and len(rounds) == 1 and loop.rounds == 1
    assert sorted(loop.scaled) == ["t-r0-0-echo", "t-r0-1-echo", "t-r0-2-echo"]
    assert all(v > 0 for v in loop.scaled.values())
    assert not any(o.failed for o in loop.outcomes)


def test_repeated_op_runs_every_time_and_must_agree():
    calls = []

    def run(tr, args, prepared):
        calls.append(len(calls))
        return args["v"] if args["steady"] else len(calls)

    kind = Kind(run, lambda args, result: "", repeats=5)
    steady, _ = execute("steady", "echo", kind, {"v": 1, "steady": True},
                        NullTracer())
    assert len(calls) == 5 and not steady.failed
    drifting, _ = execute("drifting", "echo", kind, {"v": 1, "steady": False},
                          NullTracer())
    assert drifting.failed and "different results" in drifting.reason


def test_interleaved_rounds_reorder_without_changing_the_ops():
    for make, workload in ((verify_round, "verify"), (count_round, "count")):
        plain, ops = make(5, 0), ROUNDS[workload](5, 0)
        assert ops != plain
        assert sorted(map(json.dumps, ops)) == sorted(map(json.dumps, plain))
    assert ROUNDS["verify"](5, 0)[0][0] == "identities"
