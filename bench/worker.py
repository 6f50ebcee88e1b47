"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; writes its result
as JSON to ``--out``.  Untraced runs give the end-to-end metrics.  Traced
runs first run the workload untraced for a third of ``--seconds``, then
replay exactly the same operations twice over, untraced and traced, op
by op; the two replays' timed work gives the tracing overhead, and the
traced replay's spans give the per-layer metrics.  Both replays follow
a first pass, so neither pays the one-time costs of warming up.
"""

from __future__ import annotations

import argparse
import json
import resource
from dataclasses import asdict
from pathlib import Path

from harness import (Tracer, WORKLOADS, percentile, replay_paired, run_rounds,
                     trace_metrics)
from workloads import ROUNDS, kinds_for


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory for the files CLI operations read")
    args = parser.parse_args()

    kinds = kinds_for(args.workload, Path(args.workdir))

    def make_round(r):
        return ROUNDS[args.workload](args.seed, r)

    seconds = args.seconds / 3 if args.trace else args.seconds
    loop, rounds = run_rounds(make_round, kinds, seconds, args.workload)
    outcomes = list(loop.outcomes)
    result = {"rounds": loop.rounds, "timed_s": loop.timed_s}
    if args.trace:
        tracer = Tracer()
        plain, traced = replay_paired(rounds, kinds, tracer, args.workload)
        outcomes += plain.outcomes + traced.outcomes
        result["layers"] = trace_metrics(tracer.spans, traced.wall_s,
                                         traced.timed_s, plain.timed_s)
        result["spans"] = [asdict(s) for s in tracer.spans]
    scaled = list(loop.scaled.values())
    p50, above50 = percentile(scaled, 50)
    p90, above90 = percentile(scaled, 90)
    kinds_run: dict[str, int] = {}
    for o in loop.outcomes:
        kinds_run[o.kind] = kinds_run.get(o.kind, 0) + 1
    result.update({
        "ops_per_s": len(scaled) / sum(scaled),
        "raw_ops_per_s": len(scaled) / loop.timed_s,
        "latency_p50_ms": 1000 * p50,
        "latency_p90_ms": 1000 * p90,
        "latency_samples": len(scaled),
        "samples_above_p50": above50,
        "samples_above_p90": above90,
        "ops_by_kind": kinds_run,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(outcomes),
        "failures": [{"id": o.op_id, "reason": o.reason}
                     for o in outcomes if o.failed],
        "latencies_ms": {o.op_id: 1000 * o.latency_s for o in loop.outcomes},
        "scaled_latencies_ms": {k: 1000 * v for k, v in loop.scaled.items()},
    })
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
