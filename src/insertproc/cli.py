"""Command-line interface: analyze graphs, run verifications, sample processes.

All commands read and write JSON; reports are deterministic functions of
the configuration (keys sorted, no timestamps), so identical invocations
produce byte-identical output.  Exit status: 0 on success or verified, 1
when a counterexample or violation was found (the report carries the
witness), 2 on usage, parse or bound errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Optional

from .buildings import bruteforce_sweep, recurrence_sweep
from .consistency import ConsistencyNotVerified, check_consistency
from .dependence import check_k_dependence, min_k_search
from .graphs import (WeightedGraph, classify_multipartite, find_kite,
                     graph_from_json_dict, graph_to_json_dict,
                     has_directed_triangle, is_strongly_connected, regularity,
                     triangles_per_edge, uniform_weight)
from .poly import reduced_count_symbolic, short_word_closed_forms
from .process import sample_exact, sample_insertion
from .sft import check_lr, not_finitely_dependent_certificate, sft_from_json_dict

__all__ = ["RunConfig", "run", "verify_identities", "main", "entry"]

_ENUMERATION_BOUND = 10 ** 7
_MIDDLE_BOUND = 10 ** 5


@dataclass
class RunConfig:
    """Parsed invocation; field defaults are the documented flag defaults."""

    command: str
    graph_path: Optional[str] = None
    sft_path: Optional[str] = None
    max_n: int = 4
    max_m: int = 4
    k: int = 1
    max_k: int = 4
    window: int = 4
    count: int = 100
    seed: int = 0
    threads: int = 1
    out: Optional[str] = None
    pretty: bool = False
    method: str = "exact"
    certify: bool = False


class _UsageError(Exception):
    pass


def _load_graph(config: RunConfig) -> WeightedGraph:
    if not config.graph_path:
        raise _UsageError("this command requires --graph PATH")
    try:
        with open(config.graph_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {config.graph_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"malformed JSON in {config.graph_path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    try:
        return graph_from_json_dict(data)
    except ValueError as exc:
        raise _UsageError(f"invalid graph in {config.graph_path}: {exc}") from exc


def _load_sft(config: RunConfig):
    if not config.sft_path:
        raise _UsageError("this command requires --sft PATH")
    try:
        with open(config.sft_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {config.sft_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"malformed JSON in {config.sft_path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    try:
        return sft_from_json_dict(data)
    except ValueError as exc:
        raise _UsageError(f"invalid shift in {config.sft_path}: {exc}") from exc


def _check_enumeration(q: int, n: int) -> None:
    if q ** n > _ENUMERATION_BOUND:
        raise _UsageError(
            f"enumeration bound exceeded: {q}**{n} > {_ENUMERATION_BOUND}; "
            f"lower the window")


def _check_middles(q: int, k: int) -> None:
    if q ** k > _MIDDLE_BOUND:
        raise _UsageError(
            f"gap enumeration bound exceeded: {q}**{k} > {_MIDDLE_BOUND}")


def _cmd_analyze(config: RunConfig) -> tuple[int, dict]:
    g = _load_graph(config)
    sym = g.is_symmetric()
    loopless = g.is_loopless()
    uw = uniform_weight(g)
    report = {
        "command": "analyze",
        "graph": config.graph_path,
        "vertices": g.vertex_count,
        "positive_edges": sum(1 for _ in g.positive_edges()),
        "symmetric": sym,
        "loopless": loopless,
        "uniform_weight": {
            "is_uniform": uw.is_uniform,
            "w": str(uw.w) if uw.w is not None else None,
            "violations": [[list(pair), str(w)] for pair, w in uw.violations[:10]],
        },
        "regular_out_degree": regularity(g),
        "directed_triangle": (list(has_directed_triangle(g))
                              if has_directed_triangle(g) else None),
        "strongly_connected": is_strongly_connected(g),
    }
    if sym and loopless:
        kite = find_kite(g)
        cls = classify_multipartite(g)
        report["triangles_per_edge"] = triangles_per_edge(g)
        report["kite"] = list(kite) if kite else None
        report["complete_multipartite"] = {
            "is_complete_multipartite": cls.is_complete_multipartite,
            "parts": [list(p) for p in cls.parts] if cls.parts else None,
            "q": cls.q,
            "r": cls.r,
        }
    else:
        report["triangles_per_edge"] = None
        report["kite"] = None
        report["complete_multipartite"] = None
    return 0, report


def _cmd_check_c(config: RunConfig) -> tuple[int, dict]:
    g = _load_graph(config)
    if config.max_n < 2:
        raise _UsageError("--max-n must be at least 2")
    _check_enumeration(g.vertex_count, config.max_n)
    result = check_consistency(g, config.max_n)
    report = {"command": "check-c", "graph": config.graph_path}
    report.update(result.to_json_dict())
    return (0 if result.verified else 1), report


def _cmd_check_kdep(config: RunConfig) -> tuple[int, dict]:
    g = _load_graph(config)
    if config.k < 0:
        raise _UsageError("--k must be nonnegative")
    if config.max_n < 1 or config.max_m < 1:
        raise _UsageError("--max-n and --max-m must be at least 1")
    _check_enumeration(g.vertex_count, max(config.max_n, config.max_m) + 1)
    _check_middles(g.vertex_count, config.k)
    report = {"command": "check-kdep", "graph": config.graph_path}
    try:
        result = check_k_dependence(g, config.k, config.max_n, config.max_m)
    except ConsistencyNotVerified as exc:
        report.update({
            "k": config.k,
            "verified": False,
            "consistency_failure": str(exc),
        })
        return 1, report
    report.update(result.to_json_dict())
    return (0 if result.verified else 1), report


def _cmd_min_k(config: RunConfig) -> tuple[int, dict]:
    g = _load_graph(config)
    if config.max_k < 0:
        raise _UsageError("--max-k must be nonnegative")
    _check_enumeration(g.vertex_count, max(config.max_n, config.max_m) + 1)
    _check_middles(g.vertex_count, config.max_k)
    report = {"command": "min-k", "graph": config.graph_path,
              "max_k": config.max_k}
    try:
        result = min_k_search(g, config.max_k, config.max_n, config.max_m)
    except ConsistencyNotVerified as exc:
        report.update({"found": None, "consistency_failure": str(exc)})
        return 1, report
    report["found"] = result.found
    report["per_k"] = {str(k): r.verified for k, r in sorted(result.reports.items())}
    return (0 if result.found is not None else 1), report


def _cmd_sample(config: RunConfig) -> tuple[int, str]:
    g = _load_graph(config)
    if config.window < 1:
        raise _UsageError("--window must be at least 1")
    if config.count < 0:
        raise _UsageError("--count must be nonnegative")
    _check_enumeration(g.vertex_count, config.window)
    if config.method == "exact":
        batch = sample_exact(g, config.window, config.seed, config.count)
        words = batch.words
    else:
        rng = random.Random(config.seed)
        words = tuple(sample_insertion(g, config.window, rng.getrandbits(63))[0]
                      for _ in range(config.count))
    lines = "\n".join(json.dumps(list(w)) for w in words)
    return 0, lines + ("\n" if lines else "")


def _cmd_sft(config: RunConfig) -> tuple[int, dict]:
    shift = _load_sft(config)
    lr = check_lr(shift)
    report = {
        "command": "sft",
        "sft": config.sft_path,
        "alphabet": shift.q,
        "window_length": shift.n,
        "windows": len(shift.allowed),
        "lr": {
            "is_constant": lr.is_constant,
            "K": lr.K,
            "violation": lr.violation,
        },
    }
    if config.certify:
        report["certificate"] = not_finitely_dependent_certificate(shift)
    return (0 if lr.is_constant else 1), report


def verify_identities(max_len: int = 5, random_graphs: int = 5,
                      seed: int = 20240801, threads: int = 1) -> dict:
    """Closed-form checks plus the two-route building-count sweep.

    The symbolic closed forms for generic words of lengths 2..4 are
    compared against independently constructed reference polynomials; then
    for a family of small graphs every word up to ``max_len`` is counted
    by both the deletion recurrence and direct summation over arrival
    orders, and the values are compared exactly.
    """
    forms = short_word_closed_forms()
    closed = {str(n): reduced_count_symbolic(n) == forms[n] for n in (2, 3, 4)}
    graphs: list[tuple[str, dict]] = []
    from .graphs import complete_graph, kite_graph  # local to keep import light
    graphs.append(("K2", graph_to_json_dict(complete_graph(2))))
    graphs.append(("K3", graph_to_json_dict(complete_graph(3))))
    graphs.append(("kite", graph_to_json_dict(kite_graph())))
    rng = random.Random(seed)
    for i in range(random_graphs):
        rows = [[0] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                if a != b:
                    rows[a][b] = Fraction(rng.randint(1, 12), 8)
        graphs.append((f"random{i}", graph_to_json_dict(WeightedGraph(rows))))
    jobs = [(name, data, max_len) for name, data in graphs]
    if threads > 1:
        with Pool(processes=min(threads, len(jobs))) as pool:
            sweep_results = pool.map(_sweep_worker, jobs)
    else:
        sweep_results = [_sweep_worker(job) for job in jobs]
    report = {
        "closed_forms": closed,
        "sweeps": [{"graph": name, "max_len": max_len, "ok": ok,
                    "words_checked": words} for name, ok, words in sweep_results],
    }
    report["all_passed"] = all(closed.values()) and all(
        s["ok"] for s in report["sweeps"])
    return report


def _sweep_worker(job: tuple[str, dict, int]) -> tuple[str, bool, int]:
    name, data, max_len = job
    g = graph_from_json_dict(data)
    rec = recurrence_sweep(g, max_len)
    bf = bruteforce_sweep(g, max_len)
    words = 0
    for m in range(max_len + 1):
        rv, rs = rec[m]
        bv, bs = bf[m]
        factor = rs // bs
        if not bool((rv == bv * factor).all()):
            return name, False, words
        words += len(rv)
    return name, True, words


def _cmd_verify_identities(config: RunConfig) -> tuple[int, dict]:
    if config.max_n < 2 or config.max_n > 7:
        raise _UsageError("--max-n for verify-identities must be between 2 and 7")
    if config.threads < 1:
        raise _UsageError("--threads must be at least 1")
    report = {"command": "verify-identities"}
    report.update(verify_identities(max_len=config.max_n, seed=config.seed,
                                    threads=config.threads))
    return (0 if report["all_passed"] else 1), report


_COMMANDS = {
    "analyze": _cmd_analyze,
    "check-c": _cmd_check_c,
    "check-kdep": _cmd_check_kdep,
    "min-k": _cmd_min_k,
    "sample": _cmd_sample,
    "sft": _cmd_sft,
    "verify-identities": _cmd_verify_identities,
}


def run(config: RunConfig) -> int:
    """Execute one command and write its report; returns the exit status."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        status, report = handler(config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(report, str):
        text = report
    else:
        text = json.dumps(report, sort_keys=True,
                          indent=2 if config.pretty else None) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insertproc",
        description="Exact verification and sampling of insertion processes "
                    "on weighted graphs and shifts of finite type.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the report to PATH instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON report")

    p = sub.add_parser("analyze", help="structural report for a graph")
    p.add_argument("--graph", metavar="PATH", required=True)
    add_common(p)

    p = sub.add_parser("check-c", help="verify extension consistency")
    p.add_argument("--graph", metavar="PATH", required=True)
    p.add_argument("--max-n", type=int, default=5,
                   help="check word lengths below this bound (default 5)")
    add_common(p)

    p = sub.add_parser("check-kdep", help="verify the gap-k independence identity")
    p.add_argument("--graph", metavar="PATH", required=True)
    p.add_argument("--k", type=int, default=1, help="gap length (default 1)")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=4)
    add_common(p)

    p = sub.add_parser("min-k", help="search for the least verified gap")
    p.add_argument("--graph", metavar="PATH", required=True)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=4)
    add_common(p)

    p = sub.add_parser("sample", help="sample words from the insertion process")
    p.add_argument("--graph", metavar="PATH", required=True)
    p.add_argument("--window", type=int, default=4,
                   help="word length to sample (default 4)")
    p.add_argument("--count", type=int, default=100,
                   help="number of words (default 100)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed; fixed default 0, never time-derived")
    p.add_argument("--method", choices=("exact", "insertion"), default="exact",
                   help="exact marginal sampler or stepwise insertion sampler")
    add_common(p)

    p = sub.add_parser("sft", help="window-count check and certificate for a shift")
    p.add_argument("--sft", "--file", dest="sft", metavar="PATH", required=True)
    p.add_argument("--certify", action="store_true",
                   help="include the not-finitely-dependent certificate")
    add_common(p)

    p = sub.add_parser("verify-identities",
                       help="closed-form and two-route counting checks")
    p.add_argument("--max-n", type=int, default=5,
                   help="sweep words up to this length (default 5)")
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the sweep (default 1)")
    add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.graph_path = getattr(args, "graph", None)
    config.sft_path = getattr(args, "sft", None)
    for field_name, attr in [("max_n", "max_n"), ("max_m", "max_m"),
                             ("k", "k"), ("max_k", "max_k"),
                             ("window", "window"), ("count", "count"),
                             ("seed", "seed"), ("threads", "threads"),
                             ("method", "method")]:
        if hasattr(args, attr):
            setattr(config, field_name, getattr(args, attr))
    config.out = getattr(args, "out", None)
    config.pretty = getattr(args, "pretty", False)
    config.certify = getattr(args, "certify", False)
    return config


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return run(_config_from_args(args))


def entry() -> None:
    sys.exit(main())
