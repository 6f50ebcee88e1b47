"""Command-line interface: analyze graphs, run verifications, sample processes.

The CLI parses flags, loads the JSON input and calls the library.  Input
checks and resource bounds belong to the library functions it calls (the
sweep bounds are defined in :mod:`insertproc.graphs` and
:mod:`insertproc.buildings`), so the API and the CLI refuse the same
inputs; the CLI turns a ``ValueError`` into exit status 2 and checks only
what it owns itself, the window and count of its loop over the insertion
sampler.  Every size, its own included, passes the one size check of
:mod:`insertproc.graphs` and every vertex its one vertex check, which
refuse bools, floats and sizes below their least with ``ValueError``.

All commands read and write JSON; reports are deterministic functions of
the flags (keys sorted, no timestamps), so identical invocations produce
byte-identical output.  Exit status: 0 on success or verified, 1 when a
counterexample or violation was found (the report carries the witness),
2 on usage, parse or bound errors and when ``--out`` cannot be written.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from multiprocessing import Pool
from typing import Optional

from .buildings import bruteforce_sweep, recurrence_sweep
from .consistency import ConsistencyNotVerified, check_consistency
from .dependence import check_k_dependence, min_k_search
from .graphs import (WeightedGraph, _size, classify_multipartite, complete_graph,
                     find_kite, graph_from_json_dict, graph_to_json_dict,
                     has_directed_triangle, is_strongly_connected, kite_graph,
                     regularity, triangles_per_edge, uniform_weight)
from .poly import reduced_count_symbolic, short_word_closed_forms
from .process import DeadEndError, sample_exact, sample_insertion
from .sft import check_lr, not_finitely_dependent_certificate, sft_from_json_dict

__all__ = ["verify_identities", "main", "entry"]


def _load(path: str, parse, what: str):
    """``parse`` applied to the JSON document at ``path``; failures are ValueErrors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"invalid {what} in {path}: {exc}") from exc


def _load_graph(args: argparse.Namespace) -> WeightedGraph:
    return _load(args.graph, graph_from_json_dict, "graph")


def _cmd_analyze(args: argparse.Namespace) -> tuple[int, dict]:
    g = _load_graph(args)
    sym = g.is_symmetric()
    loopless = g.is_loopless()
    uw = uniform_weight(g)
    triangle = has_directed_triangle(g)
    report = {
        "command": "analyze",
        "graph": args.graph,
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
        "directed_triangle": list(triangle) if triangle else None,
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


def _cmd_check_c(args: argparse.Namespace) -> tuple[int, dict]:
    g = _load_graph(args)
    result = check_consistency(g, args.max_n)
    report = {"command": "check-c", "graph": args.graph}
    report.update(result.to_json_dict())
    return (0 if result.verified else 1), report


def _cmd_check_kdep(args: argparse.Namespace) -> tuple[int, dict]:
    g = _load_graph(args)
    report = {"command": "check-kdep", "graph": args.graph}
    try:
        result = check_k_dependence(g, args.k, args.max_n, args.max_m)
    except ConsistencyNotVerified as exc:
        report.update({
            "k": args.k,
            "verified": False,
            "consistency_failure": str(exc),
        })
        return 1, report
    report.update(result.to_json_dict())
    return (0 if result.verified else 1), report


def _cmd_min_k(args: argparse.Namespace) -> tuple[int, dict]:
    g = _load_graph(args)
    report = {"command": "min-k", "graph": args.graph, "max_k": args.max_k}
    try:
        result = min_k_search(g, args.max_k, args.max_n, args.max_m)
    except ConsistencyNotVerified as exc:
        report.update({"found": None, "consistency_failure": str(exc)})
        return 1, report
    report["found"] = result.found
    report["per_k"] = {str(k): r.verified for k, r in sorted(result.reports.items())}
    return (0 if result.found is not None else 1), report


def _cmd_sample(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args)
    if args.method == "exact":
        words = sample_exact(g, args.window, args.seed, args.count).words
    else:
        # this loop is the CLI's own, and so are the checks of its flags
        window = _size(args.window, "--window", 1)
        count = _size(args.count, "--count")
        rng = random.Random(args.seed)
        words = tuple(sample_insertion(g, window, rng.getrandbits(63))[0]
                      for _ in range(count))
    lines = "\n".join(json.dumps(list(w)) for w in words)
    return 0, lines + ("\n" if lines else "")


def _cmd_sft(args: argparse.Namespace) -> tuple[int, dict]:
    shift = _load(args.sft, sft_from_json_dict, "shift")
    lr = check_lr(shift)
    report = {
        "command": "sft",
        "sft": args.sft,
        "alphabet": shift.q,
        "window_length": shift.n,
        "windows": len(shift.allowed),
        "lr": {
            "is_constant": lr.is_constant,
            "K": lr.K,
            "violation": lr.violation,
        },
    }
    if args.certify:
        report["certificate"] = not_finitely_dependent_certificate(shift)
    return (0 if lr.is_constant else 1), report


def verify_identities(max_len: int = 5, seed: int = 20240801,
                      threads: int = 1) -> dict:
    """Closed-form checks plus the two-route building-count sweep.

    The symbolic closed forms for generic words of lengths 2..4 are
    compared against independently constructed reference polynomials; then
    for K2, K3, the kite and five random 4-vertex tables drawn from
    ``seed``, every word up to ``max_len`` is counted by both the deletion
    recurrence and direct summation over arrival orders, and the values
    are compared exactly.  The arrival-order class sums run over the
    positive words; every other word counts zero on both routes, since
    every building links every consecutive pair, and is compared as such.
    ``max_len`` runs from 2 to 7, and ``threads``
    worker processes, at most one per graph, share the sweep.
    """
    max_len = _size(max_len, "sweep length", 2)
    if max_len > 7:
        raise ValueError("sweep length must be between 2 and 7")
    threads = _size(threads, "threads", 1)
    forms = short_word_closed_forms()
    closed = {str(n): reduced_count_symbolic(n) == forms[n] for n in (2, 3, 4)}
    graphs: list[tuple[str, dict]] = []
    graphs.append(("K2", graph_to_json_dict(complete_graph(2))))
    graphs.append(("K3", graph_to_json_dict(complete_graph(3))))
    graphs.append(("kite", graph_to_json_dict(kite_graph())))
    rng = random.Random(seed)
    for i in range(5):
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


def _cmd_verify_identities(args: argparse.Namespace) -> tuple[int, dict]:
    report = {"command": "verify-identities"}
    report.update(verify_identities(max_len=args.max_n, seed=args.seed,
                                    threads=args.threads))
    return (0 if report["all_passed"] else 1), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insertproc",
        description="Exact verification and sampling of insertion processes "
                    "on weighted graphs and shifts of finite type.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, handler) -> None:
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the report to PATH instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON report")

    p = sub.add_parser("analyze", help="structural report for a graph")
    p.add_argument("--graph", metavar="PATH", required=True)
    add_common(p, _cmd_analyze)

    p = sub.add_parser("check-c", help="verify extension consistency")
    p.add_argument("--graph", metavar="PATH", required=True)
    p.add_argument("--max-n", type=int, default=5,
                   help="check word lengths below this bound (default 5)")
    add_common(p, _cmd_check_c)

    p = sub.add_parser("check-kdep", help="verify the gap-k independence identity")
    p.add_argument("--graph", metavar="PATH", required=True)
    p.add_argument("--k", type=int, default=1, help="gap length (default 1)")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=4)
    add_common(p, _cmd_check_kdep)

    p = sub.add_parser("min-k", help="search for the least verified gap")
    p.add_argument("--graph", metavar="PATH", required=True)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=4)
    add_common(p, _cmd_min_k)

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
    add_common(p, _cmd_sample)

    p = sub.add_parser("sft", help="window-count check and certificate for a shift")
    p.add_argument("--sft", "--file", dest="sft", metavar="PATH", required=True)
    p.add_argument("--certify", action="store_true",
                   help="include the not-finitely-dependent certificate")
    add_common(p, _cmd_sft)

    p = sub.add_parser("verify-identities",
                       help="closed-form and two-route counting checks")
    p.add_argument("--max-n", type=int, default=5,
                   help="sweep words up to this length (default 5)")
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the sweep (default 1)")
    add_common(p, _cmd_verify_identities)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and write its report; returns the exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        status, report = args.handler(args)
    except (ValueError, DeadEndError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(report, str):
        text = report
    else:
        text = json.dumps(report, sort_keys=True,
                          indent=2 if args.pretty else None) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
