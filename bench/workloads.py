"""The three workloads: seeded inputs, the timed calls, and their checks.

Inputs are plain data made from ``(workload, seed, round)`` alone: seeded
vertex relabelings of the bundled fixture files, seeded rational weights,
seeded random positive words and sampler seeds.  Fixture files are read
as JSON here, not through the package, so the program only ever sees the
generated inputs.  Every operation builds its graphs afresh from those
inputs, so the per-graph memo starts cold, as in a command-line run.

Each timed call into the package goes through ``tr.call(<layer>, ...)``;
the layer names are ``<module>.<function>`` of the package.  Each check
recomputes the output by a second route outside the timed region and
returns a failure reason, or ``""`` when the output holds.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

from harness import GRAPH_FIXTURES, SFT_FIXTURES, Kind

from insertproc import (building_count, building_count_bruteforce,
                        building_weight, check_consistency, check_k_dependence,
                        check_lr, empirical_gap_independence, gap_sum,
                        graph_from_json_dict, insertion_law, marginal,
                        min_k_search, reduced_count, reduced_count_symbolic,
                        sample_exact, sample_insertion, sample_sft,
                        sft_from_json_dict, word_weight)
from insertproc import cli

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "insertproc" / "data"


# ---------------------------------------------------------------- inputs

def fixture(name: str) -> dict:
    return json.loads((DATA_DIR / f"{name}.json").read_text())


def relabel(graph: dict, rng: random.Random) -> dict:
    """The same graph with its vertices permuted by a seeded permutation."""
    n = graph["vertices"]
    perm = list(range(n))
    rng.shuffle(perm)
    weights = sorted([perm[i], perm[j], w] for i, j, w in graph["weights"])
    return {"vertices": n, "weights": weights}


def relabel_shift(shift: dict, rng: random.Random) -> dict:
    perm = list(range(shift["q"]))
    rng.shuffle(perm)
    allowed = sorted([perm[s] for s in t] for t in shift["allowed"])
    return {"q": shift["q"], "n": shift["n"], "allowed": allowed}


def adjacency(graph: dict) -> list[list[int]]:
    out = [[] for _ in range(graph["vertices"])]
    for i, j, w in graph["weights"]:
        if Fraction(w) > 0:
            out[i].append(j)
    return [sorted(o) for o in out]


def random_walk(adj: list[list[int]], length: int, rng: random.Random) -> list[int]:
    """A random positive word: a walk along positive-weight edges."""
    word = [rng.randrange(len(adj))]
    while len(word) < length:
        word.append(rng.choice(adj[word[-1]]))
    return word


def count_walks(adj: list[list[int]], length: int) -> int:
    """Number of positive words of one length."""
    ways = [1] * len(adj)
    for _ in range(length - 1):
        ways = [sum(ways[j] for j in adj[i]) for i in range(len(adj))]
    return sum(ways)


def first_walk(adj: list[list[int]], length: int) -> tuple[int, ...]:
    """Lexicographically least positive word of one length."""
    def rec(prefix: list[int]):
        if len(prefix) == length:
            return tuple(prefix)
        for v in (range(len(adj)) if not prefix else adj[prefix[-1]]):
            found = rec(prefix + [v])
            if found:
                return found
        return None
    return rec([])


def pairs_in_window(adj, max_left: int, max_right: int) -> int:
    """|positive words of length n| x |of length m|, summed over the window."""
    left = sum(count_walks(adj, n) for n in range(1, max_left + 1))
    right = sum(count_walks(adj, m) for m in range(1, max_right + 1))
    return left * right


def words_below(adj, max_len: int) -> int:
    return sum(count_walks(adj, n) for n in range(1, max_len))


def random_table(rng: random.Random, loops: bool) -> dict:
    """Four vertices, off-diagonal weights in [1/8, 3/2], optional loops."""
    weights = []
    for a in range(4):
        for b in range(4):
            w = (Fraction(rng.randint(1, 12), 8) if a != b
                 else Fraction(rng.randint(0, 6), 8) if loops else Fraction(0))
            if w:
                weights.append([a, b, f"{w.numerator}/{w.denominator}"])
    return {"vertices": 4, "weights": weights}


def looped_uniform(q: int, rng: random.Random) -> dict:
    """Complete graph with loops and one weight a/b, a and b log-uniform in [1, 10^4].

    The range spans both sides of ``check_k_dependence``'s int64/object
    dtype choice.
    """
    a = int(10 ** rng.uniform(0, 4))
    b = int(10 ** rng.uniform(0, 4))
    w = Fraction(a, b)
    text = f"{w.numerator}/{w.denominator}"
    return {"vertices": q,
            "weights": [[i, j, text] for i in range(q) for j in range(q)]}


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


def verify_round(seed: int, r: int) -> list[tuple[str, dict]]:
    rng = round_rng("verify", seed, r)
    ops: list[tuple[str, dict]] = []
    # acceptance criterion 3: the paper's positive classifications
    for name, k in (("k3", 2), ("k4", 1), ("k222", 2), ("k2222", 1)):
        g = relabel(fixture(name), rng)
        adj = adjacency(g)
        spot = [[random_walk(adj, rng.randint(1, 4), rng),
                 random_walk(adj, rng.randint(1, 4), rng)] for _ in range(2)]
        ops.append(("classify", {"name": name, "graph": g, "k": k,
                                 "words": words_below(adj, 6),
                                 "pairs": pairs_in_window(adj, 4, 4),
                                 "spot": spot}))
    for name, found in (("k3", 2), ("k4", 1)):
        g = relabel(fixture(name), rng)
        ops.append(("min_k", {"name": name, "graph": g, "max_k": 3,
                              "window": 4, "expected": found}))
    k5 = relabel(fixture("k5"), rng)
    for k in (1, 2):
        ops.append(("kdep", {"name": "k5", "graph": k5, "k": k, "window": 3,
                             "verified": False,
                             "pairs": pairs_in_window(adjacency(k5), 3, 3)}))
    # the classification at smaller windows, in equal-cost ops; the round
    # has enough of them that its 90th latency percentile falls among them
    for _ in range(24):
        for name, k, window, verified in (("k5", 3, 3, False), ("k4", 1, 3, True),
                                          ("k222", 2, 2, True)):
            g = relabel(fixture(name), rng)
            adj = adjacency(g)
            ops.append(("kdep", {
                "name": name, "graph": g, "k": k, "window": window,
                "verified": verified,
                "spot": [[random_walk(adj, rng.randint(1, window), rng),
                          random_walk(adj, rng.randint(1, window), rng)]],
                "pairs": pairs_in_window(adj, window, window)}))
    k3 = relabel(fixture("k3"), rng)
    ops.append(("kdep", {"name": "k3", "graph": k3, "k": 1, "window": 4,
                         "verified": False, "witness": ["6", "8"],
                         "pairs": pairs_in_window(adjacency(k3), 4, 4)}))
    # iid processes: every gap must verify
    window = 2
    for q, k in product((2, 3, 4), (1, 2, 3)):
        g = looped_uniform(q, rng)
        adj = adjacency(g)
        ops.append(("kdep", {"name": f"looped-k{q}", "graph": g, "k": k,
                             "window": window, "verified": True,
                             "spot": [[random_walk(adj, rng.randint(1, window), rng),
                                       random_walk(adj, rng.randint(1, window), rng)]],
                             "pairs": pairs_in_window(adj, window, window)}))
    # random weight tables: consistency fails early; these many cheap ops
    # put the round's median latency among them
    for i in range(400):
        g = random_table(rng, loops=i % 3 == 0)
        ops.append(("consistency", {"graph": g, "max_len": 5,
                                    "words": words_below(adjacency(g), 5)}))
    ops.append(("identities", {"seed": rng.getrandbits(32)}))
    for n in range(2, 7):
        g = random_table(rng, loops=True)
        ops.append(("symbolic", {"n": n, "distinct": True, "graph": g,
                                 "word": [rng.randrange(4) for _ in range(n)]}))
    n = rng.randint(2, 6)
    g = random_table(rng, loops=True)
    loop = rng.choice([v for v, o in enumerate(adjacency(g)) if v in o] or [0])
    ops.append(("symbolic", {"n": n, "distinct": False, "graph": g,
                             "word": [loop] * n}))
    # whole command-line runs, in process
    ops.append(("cli", {"graph": relabel(fixture("k222"), rng),
                        "argv": ["check-c", "--max-n", "5"],
                        "code": 0, "expect": {"verified": True}}))
    name, k = rng.choice((("k3", 2), ("k4", 1)))
    ops.append(("cli", {"graph": relabel(fixture(name), rng),
                        "argv": ["check-kdep", "--k", str(k), "--max-n", "3",
                                 "--max-m", "3"],
                        "code": 0, "expect": {"verified": True}}))
    name, found = rng.choice((("k3", 2), ("k4", 1)))
    ops.append(("cli", {"graph": relabel(fixture(name), rng),
                        "argv": ["min-k", "--max-k", "3", "--max-n", "3",
                                 "--max-m", "3"],
                        "code": 0, "expect": {"found": found}}))
    return ops


def count_round(seed: int, r: int) -> list[tuple[str, dict]]:
    rng = round_rng("count", seed, r)
    ops: list[tuple[str, dict]] = []
    # per graph: one word of length 8, checked by brute force; 32 each of
    # lengths 9..13, a bulk of over nine tenths of the operations that
    # holds both percentiles; two each of lengths 14..17, which take most
    # of the time
    for name in GRAPH_FIXTURES["count"]:
        for length in range(8, 18):
            for _ in range(1 if length == 8 else 32 if length <= 13 else 2):
                g = relabel(fixture(name), rng)
                ops.append(("count", {"name": name, "graph": g,
                                      "word": random_walk(adjacency(g), length, rng)}))
    for name in ("k4", "k222", "kite"):
        for k in (1, 2, 3):
            g = relabel(fixture(name), rng)
            adj = adjacency(g)
            ops.append(("gap", {"name": name, "graph": g, "k": k,
                                "x": random_walk(adj, rng.randint(1, 3), rng),
                                "y": random_walk(adj, rng.randint(1, 3), rng)}))
    return ops


def sample_round(seed: int, r: int) -> list[tuple[str, dict]]:
    rng = round_rng("sample", seed, r)
    ops: list[tuple[str, dict]] = []
    # K4 at window 8 24 more times: equal-cost operations, enough of them
    # that the round's 90th latency percentile falls near their middle
    marginals = [(name, n) for name in ("k3", "k4", "kite") for n in (7, 8, 9)]
    for name, n in marginals + [("k4", 8)] * 24:
        g = relabel(fixture(name), rng)
        adj = adjacency(g)
        ops.append(("marginal", {"name": name, "graph": g, "n": n,
                                 "words": count_walks(adj, n),
                                 "spot": [random_walk(adj, n, rng)
                                          for _ in range(3)]}))
    for name in ("k4", "k222", "kite"):
        for n in (4, 5, 6):
            ops.append(("exact", {"name": name, "graph": relabel(fixture(name), rng),
                                  "n": n, "count": 10_000,
                                  "seed": rng.getrandbits(32)}))
    # two draws at each window, spread evenly over 20..80, so the mix of
    # costs is the same in every round; these are two thirds of the round
    # and hold its median
    for name in ("k3", "k4", "k222", "k2222"):
        for n in range(20, 81, 6):
            for _ in range(2):
                ops.append(("insertion", {"name": name,
                                          "graph": relabel(fixture(name), rng),
                                          "n": n, "seed": rng.getrandbits(32)}))
    for name in ("k3", "k4", "k222"):
        for n in (4, 5, 6):
            ops.append(("law", {"name": name, "graph": relabel(fixture(name), rng),
                                "n": n}))
    for name in SFT_FIXTURES["sample"]:
        ops.append(("sft", {"name": name,
                            "shift": relabel_shift(fixture(name), rng),
                            "window": 5, "count": 1000,
                            "seed": rng.getrandbits(32)}))
    for name, gap in (("k3", 2), ("k4", 1), ("k4", 3)):
        ops.append(("gap_independence", {"name": name,
                                         "graph": relabel(fixture(name), rng),
                                         "n": 6, "count": 10_000, "gap": gap,
                                         "seed": rng.getrandbits(32)}))
    return ops


def interleaved(make_round, first: tuple[str, ...] = ()):
    """The round's operations in a seeded random order, kinds in ``first`` first.

    A host's speed drifts within a run, so each kind of operation is
    spread over the whole round rather than run in one block, where one
    slow or fast stretch would move all of it together.  An operation
    that sets the worker's peak memory goes first, where the heap it
    starts from is the same in every run.
    """
    def make(seed: int, r: int) -> list[tuple[str, dict]]:
        ops = make_round(seed, r)
        random.Random(f"order/{seed}/{r}").shuffle(ops)
        ops.sort(key=lambda op: op[0] not in first)
        return ops
    return make


# verify_identities more than doubles the verify worker's peak memory
ROUNDS = {"verify": interleaved(verify_round, first=("identities",)),
          "count": interleaved(count_round), "sample": interleaved(sample_round)}


# ---------------------------------------------------------------- checks

def _fresh(args: dict):
    return graph_from_json_dict(args["graph"])


def _load(tr, args: dict):
    return tr.call("graphs.load", graph_from_json_dict, args["graph"])


def _witness_reason(g, cx, k: int) -> str:
    """Re-evaluate a reported counterexample with ``gap_sum``."""
    if cx.expected is None:
        return "" if cx.lhs == 0 else f"zero-constant witness has lhs {cx.lhs}"
    lhs = gap_sum(g, cx.x, cx.y, k)
    if lhs != cx.lhs:
        return f"witness {cx.x},{cx.y}: reported lhs {cx.lhs}, gap_sum gives {lhs}"
    if lhs == cx.expected:
        return (f"false {cx.reason} witness {cx.x},{cx.y}: "
                f"lhs equals expected ({lhs})")
    return ""


def _spot_reason(g, report, k: int, spot) -> str:
    for x, y in spot:
        lhs = gap_sum(g, x, y, k)
        want = (report.constants[(len(x), len(y))]
                * building_count(g, x) * building_count(g, y))
        if lhs != want:
            return f"pair {x},{y}: gap_sum {lhs} != c*B(x)*B(y) = {want}"
    return ""


# verify

def run_classify(tr, args, prepared):
    g = _load(tr, args)
    c = tr.call("consistency.check_consistency", check_consistency, g, 6,
                work=args["words"])
    r = tr.call("dependence.check_k_dependence", check_k_dependence, g,
                args["k"], 4, 4, consistency=c, work=args["pairs"])
    return c, r


def check_classify(args, result) -> str:
    c, r = result
    if not c.verified or c.degenerate_at is not None:
        return f"{args['name']}: consistency to window 6 not verified"
    if not r.verified:
        return f"{args['name']}: k={args['k']} expected verified, got {r.counterexample}"
    if not all(v > 0 for v in r.constants.values()):
        return f"{args['name']}: non-positive constant"
    return _spot_reason(_fresh(args), r, args["k"], args["spot"])


def run_min_k(tr, args, prepared):
    g = _load(tr, args)
    return tr.call("dependence.min_k_search", min_k_search, g, args["max_k"],
                   args["window"], args["window"])


def check_min_k(args, result) -> str:
    if result.found != args["expected"]:
        return f"{args['name']}: least k {result.found}, paper gives {args['expected']}"
    g = _fresh(args)
    for k, report in result.reports.items():
        if k < result.found:
            if report.verified:
                return f"{args['name']}: k={k} verified below the least k"
            reason = _witness_reason(g, report.counterexample, k)
            if reason:
                return reason
    return ""


def run_kdep(tr, args, prepared):
    g = _load(tr, args)
    w = args["window"]
    return tr.call("dependence.check_k_dependence", check_k_dependence, g,
                   args["k"], w, w, work=args["pairs"])


def check_kdep(args, result) -> str:
    where = f"{args['name']} k={args['k']} window {args['window']}"
    g = _fresh(args)
    if args["verified"]:
        if not result.verified:
            cx = result.counterexample
            reason = _witness_reason(g, cx, args["k"])
            return f"{where}: expected verified; {reason or cx}"
        return _spot_reason(g, result, args["k"], args["spot"])
    if result.verified:
        return f"{where}: expected a counterexample, got verified"
    cx = result.counterexample
    if "witness" in args and sorted(str(v) for v in (cx.lhs, cx.expected)) != args["witness"]:
        return f"{where}: witness values {cx.lhs}, {cx.expected}, paper gives 6 and 8"
    return _witness_reason(g, cx, args["k"])


def run_consistency(tr, args, prepared):
    g = _load(tr, args)
    return tr.call("consistency.check_consistency", check_consistency, g,
                   args["max_len"], work=args["words"])


def _extension_ratio(g, word: tuple, side: str) -> Fraction:
    """sum_v B(x v) / B(x) (or B(v x)), by the building recurrence."""
    q = g.vertex_count
    ext = sum(building_count(g, word + (v,) if side == "right" else (v,) + word)
              for v in range(q))
    return ext / building_count(g, word)


def check_consistency_report(args, result) -> str:
    g = _fresh(args)
    adj = adjacency(args["graph"])
    for n, c in result.constants.items():
        if _extension_ratio(g, first_walk(adj, n), "right") != c:
            return f"c_{n} = {c} disagrees with the B-route extension ratio"
    cx = result.counterexample
    if cx is None:
        return ""
    word = tuple(cx.word)
    if _extension_ratio(g, word, cx.side) != cx.observed:
        return f"counterexample {word}: observed ratio {cx.observed} not reproduced"
    if _extension_ratio(g, first_walk(adj, len(word)), "right") != cx.expected:
        return f"counterexample {word}: anchored constant {cx.expected} not reproduced"
    if cx.observed == cx.expected:
        return f"counterexample {word}: observed equals expected"
    return ""


def run_identities(tr, args, prepared):
    return tr.call("cli.verify_identities", cli.verify_identities, max_len=7,
                   seed=args["seed"], threads=1)


def check_identities(args, report) -> str:
    if not report["all_passed"] or not all(report["closed_forms"].values()):
        return f"verify_identities failed: {report}"
    sizes = {"K2": 2, "K3": 3}
    for sweep in report["sweeps"]:
        q = sizes.get(sweep["graph"], 4)
        if sweep["words_checked"] != sum(q ** m for m in range(8)):
            return f"{sweep['graph']}: {sweep['words_checked']} words checked"
    return "" if len(report["sweeps"]) == 8 else "wrong number of sweeps"


def run_symbolic(tr, args, prepared):
    return tr.call("poly.reduced_count_symbolic", reduced_count_symbolic,
                   args["n"], args["distinct"])


def check_symbolic(args, poly) -> str:
    g = _fresh(args)
    word = tuple(args["word"])
    value = poly.evaluate(lambda a, b: g.weight(word[a - 1], word[b - 1]))
    want = reduced_count(g, word)
    return "" if value == want else f"closed form {value} != reduced count {want}"


def make_cli_kind(workdir: Path) -> Kind:
    def prepare(args):
        path = workdir / "graph.json"
        path.write_text(json.dumps(args["graph"]))
        return [args["argv"][0], "--graph", str(path)] + args["argv"][1:]

    def run(tr, args, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tr.call("cli.main", cli.main, argv)
        return code, buf.getvalue()

    def check(args, result) -> str:
        code, text = result
        if code != args["code"]:
            return f"{args['argv'][0]}: exit {code}, expected {args['code']}"
        report = json.loads(text)
        for key, value in args["expect"].items():
            if report.get(key) != value:
                return f"{args['argv'][0]}: {key} = {report.get(key)}, expected {value}"
        return ""

    return Kind(run, check, prepare)


# count

def run_count(tr, args, prepared):
    word = args["word"]
    b = tr.call("buildings.building_count", building_count, _load(tr, args),
                word, work=1)
    r = tr.call("buildings.reduced_count", reduced_count, _load(tr, args),
                word, work=1)
    return b, r


def check_count(args, result) -> str:
    b, r = result
    g = _fresh(args)
    word = args["word"]
    if len(word) <= 8 and building_count_bruteforce(g, word) != b:
        return f"{args['name']} {word}: B disagrees with the permutation sum"
    if b != word_weight(g, word) * r:
        return f"{args['name']} {word}: B != w(x) R(x)"
    return ""


def run_gap(tr, args, prepared):
    g = _load(tr, args)
    return tr.call("dependence.gap_sum", gap_sum, g, args["x"], args["y"],
                   args["k"], work=g.vertex_count ** args["k"])


def check_gap(args, value) -> str:
    g = _fresh(args)
    x, y = tuple(args["x"]), tuple(args["y"])
    total = Fraction(0)
    for mid in product(range(g.vertex_count), repeat=args["k"]):
        word = x + mid + y
        total += word_weight(g, word) * reduced_count(g, word)
    return "" if total == value else f"gap_sum {value} != sum of w(x)R(x) {total}"


# sample

def run_marginal(tr, args, prepared):
    g = _load(tr, args)
    return tr.call("process.marginal", marginal, g, args["n"], work=args["words"])


def check_marginal(args, m) -> str:
    if sum(m.table.values()) != 1:
        return "marginal does not sum to 1"
    if len(m.table) != args["words"]:
        return f"{len(m.table)} words in the table, {args['words']} positive words"
    g = _fresh(args)
    for word in args["spot"]:
        if m.probability(word) * m.normalizer != building_count(g, word):
            return f"P({word}) * Z != B({word})"
    return ""


def run_exact(tr, args, prepared):
    g = _load(tr, args)
    return tr.call("process.sample_exact", sample_exact, g, args["n"],
                   args["seed"], args["count"], work=args["count"])


def check_exact(args, batch) -> str:
    if len(batch.words) != args["count"]:
        return f"{len(batch.words)} draws, asked for {args['count']}"
    g = _fresh(args)
    for word in set(batch.words):
        if len(word) != args["n"] or building_count(g, word) <= 0:
            return f"draw {word} has no positive building count"
    if sample_exact(g, args["n"], args["seed"], args["count"]).words != batch.words:
        return "same seed gave a different batch"
    return ""


def run_insertion(tr, args, prepared):
    g = _load(tr, args)
    return tr.call("process.sample_insertion", sample_insertion, g, args["n"],
                   args["seed"], work=args["n"])


def check_insertion(args, result) -> str:
    word, order = result
    n = args["n"]
    if len(word) != n or sorted(order) != list(range(n)):
        return "draw and build order do not have the window length"
    g = _fresh(args)
    # B(x) = w(x) R(x) with R(x) >= 1, so a positive traced building
    # weight and word weight mean a positive building count
    if building_weight(g, word, order) <= 0 or word_weight(g, word) <= 0:
        return f"draw {word} has no positive building count"
    if sample_insertion(g, n, args["seed"]) != result:
        return "same seed gave a different draw"
    return ""


def run_law(tr, args, prepared):
    g = _load(tr, args)
    return tr.call("process.insertion_law", insertion_law, g, args["n"])


def check_law(args, law) -> str:
    if sum(law.values()) != 1:
        return "insertion law does not sum to 1"
    table = marginal(_fresh(args), args["n"]).table
    if {w: p for w, p in law.items() if p} != dict(table):
        return "insertion law differs from the exact marginal"
    return ""


def run_sft(tr, args, prepared):
    s = tr.call("sft.load", sft_from_json_dict, args["shift"])
    lr = tr.call("sft.check_lr", check_lr, s)
    words = tr.call("sft.sample_sft", sample_sft, s, args["window"],
                    args["seed"], args["count"], work=args["count"])
    return lr, words


def check_sft(args, result) -> str:
    lr, words = result
    shift = args["shift"]
    allowed = {tuple(t) for t in shift["allowed"]}
    n = shift["n"]
    ext = {t: sum(u[:-1] == t[1:] for u in allowed) for t in allowed}
    if not lr.is_constant or set(ext.values()) != {lr.K}:
        return f"extension count K = {lr.K}, direct count gives {sorted(set(ext.values()))}"
    if len(words) != args["count"]:
        return f"{len(words)} words, asked for {args['count']}"
    for w in words:
        if len(w) != args["window"] + n - 1 or any(
                tuple(w[i:i + n]) not in allowed for i in range(len(w) - n + 1)):
            return f"word {w} leaves the shift"
    again = sample_sft(sft_from_json_dict(shift), args["window"], args["seed"],
                       args["count"])
    return "" if again == words else "same seed gave a different batch"


def prepare_gap_independence(args):
    return sample_exact(_fresh(args), args["n"], args["seed"], args["count"])


def run_gap_independence(tr, args, batch):
    return tr.call("process.empirical_gap_independence",
                   empirical_gap_independence, batch, args["gap"],
                   work=args["count"])


def check_gap_independence(args, res) -> str:
    # P_1 is uniform on every graph, since B of a one-symbol word is 1
    q = args["graph"]["vertices"]
    batch = prepare_gap_independence(args)
    count = len(batch.words)
    expected = count / (q * q)
    observed: dict[tuple[int, int], int] = {}
    for w in batch.words:
        key = (w[0], w[args["gap"] + 1])
        observed[key] = observed.get(key, 0) + 1
    stat = sum((observed.get((u, v), 0) - expected) ** 2 / expected
               for u in range(q) for v in range(q))
    if res.df != q * q - 1 or res.sample_size != count:
        return f"df {res.df} or sample size {res.sample_size} wrong"
    if not math.isclose(res.statistic, stat, rel_tol=1e-9, abs_tol=1e-9):
        return f"statistic {res.statistic} != {stat}"
    return "" if 0.0 <= res.p_value <= 1.0 else f"p-value {res.p_value}"


def kinds_for(workload: str, workdir: Path) -> dict[str, Kind]:
    if workload == "verify":
        return {
            "classify": Kind(run_classify, check_classify),
            "min_k": Kind(run_min_k, check_min_k),
            "kdep": Kind(run_kdep, check_kdep),
            "consistency": Kind(run_consistency, check_consistency_report,
                                repeats=5),
            "identities": Kind(run_identities, check_identities),
            "symbolic": Kind(run_symbolic, check_symbolic),
            "cli": make_cli_kind(workdir),
        }
    if workload == "count":
        return {"count": Kind(run_count, check_count),
                "gap": Kind(run_gap, check_gap)}
    return {
        "marginal": Kind(run_marginal, check_marginal),
        "exact": Kind(run_exact, check_exact),
        "insertion": Kind(run_insertion, check_insertion),
        "law": Kind(run_law, check_law),
        "sft": Kind(run_sft, check_sft),
        "gap_independence": Kind(run_gap_independence, check_gap_independence,
                                 prepare_gap_independence),
    }
