"""Benchmark of insertproc: one run of one workload.

Usage, from the repository root::

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0

The run times cold starts (a fresh interpreter importing the package
and loading the workload's fixtures) before and after it runs the
workload in one fresh worker process (``worker.py``) as a closed loop
with one client.  It prints every metric with its unit and sample count, lists
each failed operation with its id and reason, writes a result file under
``bench/results/`` and prints, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from harness import (END_TO_END, GRAPH_FIXTURES, PER_LAYER,
                     REFERENCE_CALIBRATION_S, SFT_FIXTURES, WORKLOADS)

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
# cold starts timed before the workload, and as many again after it
SETUP_REPEATS = 2
RUN_LIMIT_S = 160

_COLD_START = """
import json, sys, time
t0 = time.perf_counter()
import insertproc
t1 = time.perf_counter()
from insertproc.fixtures import load_graph_fixture, load_sft_fixture
for name in sys.argv[1].split(","):
    load_graph_fixture(name)
for name in filter(None, sys.argv[2].split(",")):
    load_sft_fixture(name)
print(json.dumps({"import_s": t1 - t0}))
"""


def _wall(cmd: list[str], env: dict) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return time.perf_counter() - start, done.stdout


def cold_start_command(workload: str) -> list[str]:
    return [sys.executable, "-c", _COLD_START,
            ",".join(GRAPH_FIXTURES[workload]), ",".join(SFT_FIXTURES[workload])]


def time_cold_starts(cold: list[str], env: dict, samples: dict) -> None:
    """Add ``SETUP_REPEATS`` timed cold starts and bare starts to ``samples``."""
    for _ in range(SETUP_REPEATS):
        samples["bare"].append(_wall([sys.executable, "-c", "pass"], env)[0])
        wall, out = _wall(cold, env)
        samples["starts"].append(wall)
        samples["imports"].append(json.loads(out)["import_s"])


def setup_metrics(samples: dict) -> dict:
    """Medians of the cold starts timed before and after the workload.

    Taking them on both sides of the workload spreads them over the
    run, so one slow or fast stretch of the host moves fewer of them.
    """
    return {"setup_s": statistics.median(samples["starts"]),
            "cli.interpreter_s": statistics.median(samples["bare"]),
            "cli.import_s": statistics.median(samples["imports"]),
            "setup_samples": samples["starts"]}


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "insertproc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'insertproc'}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    RESULTS.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    cold = cold_start_command(args.workload)
    _wall(cold, env)  # the first start compiles the bytecode; not timed
    samples: dict[str, list[float]] = {"bare": [], "starts": [], "imports": []}
    time_cold_starts(cold, env, samples)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = RESULTS / f"{stem}.worker.json"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(raw), "--workdir", str(workdir)],
            env=env, timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        print(f"error: the worker exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(raw.read_text())
    raw.unlink()
    time_cold_starts(cold, env, samples)
    setup = setup_metrics(samples)

    attempted = result["attempted"]
    failures = result["failures"]
    values = {"setup_s": setup["setup_s"]}
    values.update({k: result[k] for k in ("ops_per_s", "latency_p50_ms",
                                          "latency_p90_ms", "peak_rss_mb")})
    notes = {
        "setup_s": f"median of {2 * SETUP_REPEATS} cold starts, unscaled",
        "ops_per_s": f"{result['latency_samples']} ops in {result['rounds']} "
                     f"rounds; {result['raw_ops_per_s']:.4g} unscaled",
        "latency_p50_ms": f"n={result['latency_samples']}, "
                          f"{result['samples_above_p50']} above",
        "latency_p90_ms": f"n={result['latency_samples']}, "
                          f"{result['samples_above_p90']} above",
        "peak_rss_mb": "worker process",
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops attempted, {len(failures)} failed; timings "
          f"scaled to the host speed at which the calibration takes "
          f"{1000 * REFERENCE_CALIBRATION_S:g} ms")
    for name, unit in END_TO_END:
        print(f"  {name:44s} {values[name]:14.6g} {unit:6s} ({notes[name]})")
    print(f"  {'failed_ops_frac':44s} {len(failures) / attempted:14.6g} "
          f"{'':6s} ({len(failures)} of {attempted})")
    layers = {}
    if args.trace:
        layers = dict(result["layers"])
        layers["cli.interpreter_s"] = setup["cli.interpreter_s"]
        layers["cli.import_s"] = setup["cli.import_s"]
        for name, unit in PER_LAYER:
            print(f"  {name:44s} {layers[name]:14.6g} {unit}")
    for f in failures:
        print(f"FAILED {f['id']}: {f['reason']}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "ops": attempted, "ops_by_kind": result["ops_by_kind"],
        "rounds": result["rounds"], "timed_s": result["timed_s"],
        "latency_samples": result["latency_samples"],
        "samples_above_p50": result["samples_above_p50"],
        "samples_above_p90": result["samples_above_p90"],
        "setup_samples_s": setup["setup_samples"],
        "raw_ops_per_s": result["raw_ops_per_s"],
        "end_to_end": values, "per_layer": layers,
        "failed_ops_frac": len(failures) / attempted, "failures": failures,
        "latencies_ms": result["latencies_ms"],
        "scaled_latencies_ms": result["scaled_latencies_ms"],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(result["spans"]))

    chosen = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else values
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in chosen}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
