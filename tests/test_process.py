"""Marginals, samplers and the statistical independence test."""

import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insertproc import (DeadEndError, WeightedGraph, building_count,
                        building_weight, check_consistency,
                        check_k_dependence, complete_graph,
                        empirical_gap_independence, insertion_law,
                        insertion_marginal_gap, kite_graph, marginal,
                        multipartite_graph, proper_coloring_windows,
                        sample_exact, sample_insertion, sample_sft,
                        stationarity_check)
from insertproc import process
from insertproc.fixtures import GRAPH_FIXTURES, load_graph_fixture
from insertproc.process import _chi2_sf, _gap_row


def test_marginal_k3_values():
    m1 = marginal(complete_graph(3), 1)
    assert all(p == Fraction(1, 3) for p in m1.table.values())
    m2 = marginal(complete_graph(3), 2)
    assert len(m2.table) == 6
    assert all(p == Fraction(1, 6) for p in m2.table.values())
    m3 = marginal(complete_graph(3), 3)
    assert m3.table[(0, 1, 0)] == Fraction(1, 15)
    assert m3.table[(0, 1, 2)] == Fraction(1, 10)
    assert m3.normalizer == 60
    assert sum(m3.table.values()) == 1


def test_marginal_probability_checks_the_symbols():
    m = marginal(complete_graph(3), 2)
    for word in ([True, False], [1.0, 0.0]):
        with pytest.raises(ValueError, match="non-integer symbols"):
            m.probability(word)
    assert m.probability([np.int64(0), np.int32(1)]) == Fraction(1, 6)
    # well-formed words outside the table
    assert m.probability([0, 0]) == m.probability([0, 3]) == m.probability([0]) == 0


def test_marginal_support_is_positive_walks():
    m = marginal(complete_graph(3), 4)
    for word in m.table:
        assert all(a != b for a, b in zip(word, word[1:]))


def test_marginal_bound():
    with pytest.raises(ValueError):
        marginal(complete_graph(6), 12)


def test_one_vertex_windows_are_cut_at_length_24():
    # 1**n never exceeds a bound, so one vertex is cut at the bound's bit
    # length, as every q is; this caps the memo's recursion
    g = WeightedGraph([[1]])
    assert marginal(g, 24).normalizer > 0
    with pytest.raises(ValueError, match="length 2000 > 24"):
        marginal(g, 2000)
    with pytest.raises(ValueError, match="length 1501 > 24"):
        check_k_dependence(g, 1, 1500, 1)
    with pytest.raises(ValueError, match="length 3000 > 24"):
        check_consistency(g, 3000)


def test_sample_exact_bound():
    # rejected before any word is enumerated, as marginal is
    with pytest.raises(ValueError, match="enumeration bound"):
        sample_exact(complete_graph(10), 8, 0, 1)
    with pytest.raises(ValueError, match="enumeration bound"):
        sample_sft(proper_coloring_windows(3), 10, 0, 1)


def test_window_checked_before_the_empty_batch():
    with pytest.raises(ValueError, match="window length"):
        sample_exact(complete_graph(3), 0, 0, 0)
    with pytest.raises(ValueError, match="enumeration bound"):
        sample_exact(complete_graph(4), 12, 0, 0)
    assert sample_exact(complete_graph(4), 11, 0, 0).words == ()


def test_stationarity_checks_both_windows_before_a_sweep(monkeypatch):
    # the length-(n+1) window is refused before the length-n one is swept
    def sweep(g, n):
        raise AssertionError(f"a sweep of length {n} started")

    monkeypatch.setattr(process, "_scaled_buildings", sweep)
    with pytest.raises(ValueError, match=r"6\*\*9 > 10000000"):
        stationarity_check(complete_graph(6), 8)
    # the bound comes ahead of the length-n "no positive word" refusal
    with pytest.raises(ValueError, match=r"3\*\*15 > 10000000"):
        stationarity_check(WeightedGraph([[0] * 3] * 3), 14)


def test_insertion_law_bound():
    with pytest.raises(ValueError, match="enumeration bound"):
        insertion_law(complete_graph(4), 12)
    # a huge window is refused without forming q**n
    with pytest.raises(ValueError, match="enumeration bound"):
        marginal(complete_graph(3), 10 ** 12)


@st.composite
def _weighted_lengths(draw):
    q = draw(st.integers(min_value=1, max_value=3))
    weight = st.builds(Fraction, st.integers(min_value=0, max_value=5),
                       st.sampled_from([1, 2, 3, 4]))
    rows = [[draw(weight) for _ in range(q)] for _ in range(q)]
    return WeightedGraph(rows), draw(st.integers(min_value=1, max_value=5))


@given(_weighted_lengths())
@settings(max_examples=40, deadline=None)
def test_marginal_is_normalized_building_count(case):
    # random rational tables with zero weights and loops
    g, n = case
    counts = {w: building_count(g, w)
              for w in product(range(g.vertex_count), repeat=n)}
    z = sum(counts.values())
    if z == 0:
        with pytest.raises(ValueError, match="no word"):
            marginal(g, n)
        return
    m = marginal(g, n)
    assert m.normalizer == z
    assert dict(m.table) == {w: b / z for w, b in counts.items() if b}


def test_stationarity():
    ok, defect = stationarity_check(complete_graph(4), 3)
    assert ok and defect == 0
    ok, defect = stationarity_check(complete_graph(3, 2), 3)
    assert not ok and defect > 0
    ok, defect = stationarity_check(complete_graph(2), 4)
    assert ok and defect == 0


def test_sample_exact_determinism_and_support():
    g = complete_graph(3)
    a = sample_exact(g, 4, 123, 500)
    b = sample_exact(g, 4, 123, 500)
    c = sample_exact(g, 4, 124, 500)
    assert a.words == b.words
    assert a.words != c.words
    assert all(all(x != y for x, y in zip(w, w[1:])) for w in a.words)


# each index a draw lands on names a word through the lexicographic order
# of the masses, so these batches pin that order as well as the masses
PINNED_BATCHES = {
    ("k4", 8, 0): ["12132313", "31231020", "01230121", "32121320",
                   "13212013", "32010230", "30321232", "32123130"],
    ("k4", 8, 2024): ["03023101", "20321203", "03120213", "23130303",
                      "30103202", "30120103", "20202120", "21301030"],
    ("k222", 6, 0): ["210512", "512054", "015432", "540421",
                     "243420", "531042", "454320", "540504"],
    ("k222", 6, 2024): ["102313", "324323", "105123", "421054",
                        "431532", "432012", "315104", "351051"],
    ("kite", 7, 0): ["1020120", "2121030", "0102102", "3021012",
                     "1201201", "3012010", "2102120", "3021012"],
    ("kite", 7, 2024): ["0202012", "1210210", "0210101", "2021021",
                        "2101020", "2101020", "1202103", "2010210"],
}


@pytest.mark.parametrize("name, n, seed", sorted(PINNED_BATCHES))
def test_sample_exact_batches_are_pinned(name, n, seed):
    batch = sample_exact(load_graph_fixture(name), n, seed, 8)
    assert ["".join(map(str, w)) for w in batch.words] == PINNED_BATCHES[
        name, n, seed]


def test_sample_exact_empty():
    assert sample_exact(complete_graph(3), 3, 0, 0).words == ()


def test_sample_exact_ndjson():
    batch = sample_exact(complete_graph(3), 2, 0, 3)
    lines = batch.to_ndjson().splitlines()
    assert len(lines) == 3
    import json
    assert all(isinstance(json.loads(line), list) for line in lines)


def test_sample_exact_frequencies():
    # moderate-size binomial check at a fixed seed
    g = complete_graph(3)
    m = marginal(g, 3)
    batch = sample_exact(g, 3, 7, 20000)
    counts = {}
    for w in batch.words:
        counts[w] = counts.get(w, 0) + 1
    for word, p in m.table.items():
        freq = counts.get(word, 0) / 20000
        sigma = math.sqrt(float(p) * (1 - float(p)) / 20000)
        assert abs(freq - float(p)) <= 5 * sigma


def test_insertion_step_normalizer_complete_graphs():
    # on a complete graph the per-step total weight depends only on the
    # current length: ends offer 2(q-1), each interior slot q-2
    for q in range(2, 7):
        g = complete_graph(q)
        rows = {}
        rng = random.Random(q)
        for i in range(1, 9):
            word = [rng.randrange(q)]
            while len(word) < i:
                v = rng.randrange(q)
                if v != word[-1]:
                    word.append(v)
            flanks = zip([q] + word, word + [q])
            totals = [(rows.get(f) or _gap_row(rows, g, *f))[0] for f in flanks]
            assert sum(totals) == 2 * (q - 1) + (i - 1) * (q - 2)


def test_gap_rows_are_shared_by_twin_classes():
    # every pair of flanks, the end sentinel q included, read through its
    # twin classes as the samplers read it, holds the row of its own
    # flanks; twins share one row per pair of twin classes
    rng = random.Random(4)
    rows = [[Fraction(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(3)]
            for _ in range(3)]
    for row in rows:
        row.append(row[1])
    rows.append(list(rows[1]))
    for g in (multipartite_graph(3, 2), multipartite_graph(4, 2),
              WeightedGraph(rows), complete_graph(4)):
        q, num, den = g.vertex_count, g._num, g._den
        twin = (g._twin or tuple(range(q))) + (q,)
        gap_rows = {}
        for a, b in product(range(q + 1), repeat=2):
            weights = [(num[a][v] if a < q else den)
                       * (num[v][b] if b < q else den) for v in range(q)]
            key = twin[a], twin[b]
            total, vertices, cumulative, row_weights = (
                gap_rows.get(key) or _gap_row(gap_rows, g, *key))
            assert vertices == [v for v in range(q) if weights[v]]
            assert row_weights == [w for w in weights if w]
            assert cumulative == list(accumulate(row_weights))
            assert total == sum(weights)
        classes = len(set(twin))
        assert len(gap_rows) == classes ** 2


class _FixedBits:
    """Stands in for the generator: every 64-bit draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def getrandbits(self, k):
        assert k == 64
        return self.u


def _binary_search_index(u, cumulative, total):
    """The first index whose running total ``c`` has ``c * 2**64 > u * total``."""
    target = u * total
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] << 64 > target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_draw_index_matches_the_binary_search(monkeypatch):
    # sample_exact's inline draw lands where the binary search does: the
    # masses and the 64-bit draw are planted in place of the walk and the
    # generator, one word per mass
    rng = random.Random(5)
    wide = 0
    for trial in range(400):
        size = rng.randint(1, 40)
        bits = rng.choice((1, 8, 64, 70, 130))
        masses = [rng.randrange(2 ** bits) + 1 for _ in range(size)]
        cumulative = list(accumulate(masses))
        total = cumulative[-1]
        wide += total > 2 ** 64
        us = [0, 2 ** 64 - 1, rng.getrandbits(64)]
        # the least draw that passes a chosen running total
        c = rng.choice(cumulative)
        us.append(-(-(c << 64) // total) if c < total else 2 ** 64 - 1)
        table = {(i,): m for i, m in enumerate(masses)}
        monkeypatch.setattr(process, "_scaled_masses", lambda g, n: table)
        for u in us:
            monkeypatch.setattr(process, "Random", lambda seed: _FixedBits(u))
            assert (sample_exact(complete_graph(2), 1, 0, 1).words
                    == ((_binary_search_index(u, cumulative, total),),)), (trial, u)
    assert wide > 100


def _flat_sample_insertion(g, n, seed):
    """Reference sampler: one draw per step over every (gap, vertex) pair."""
    num, den, q = g._num, g._den, g.vertex_count
    rng = random.Random(seed)
    word, arrival = [], []
    for step in range(n):
        cands, cumulative, total = [], [], 0
        for j in range(step + 1):
            for v in range(q):
                left = num[word[j - 1]][v] if j > 0 else den
                right = num[v][word[j]] if j < step else den
                if left and right:
                    total += left * right
                    cands.append((j, v))
                    cumulative.append(total)
        if not cands:
            raise DeadEndError(f"no insertion has positive weight at length {step}")
        j, v = cands[_binary_search_index(rng.getrandbits(64), cumulative, total)]
        word.insert(j, v)
        arrival.insert(j, step)
    order = [0] * n
    for pos, t in enumerate(arrival):
        order[t] = pos
    return tuple(word), tuple(order)


def _random_tables(count, seed, max_q=6):
    # directed rational tables; some rows all zero, loops allowed
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(1, max_q)
        rows = [[Fraction(rng.randint(0, 9), rng.randint(1, 5))
                 if rng.random() < 0.6 else 0 for _ in range(q)]
                for _ in range(q)]
        for i in rng.sample(range(q), rng.randint(0, q // 2)):
            rows[i] = [0] * q
        yield WeightedGraph(rows)


def _outcome(sampler, g, n, seed):
    try:
        return sampler(g, n, seed)
    except DeadEndError as exc:
        return str(exc)


def test_sample_insertion_matches_the_flat_sampler():
    graphs = [load_graph_fixture(name) for name in sorted(GRAPH_FIXTURES)]
    graphs += _random_tables(20, 11)
    dead_ends = 0
    for g in graphs:
        for n in (0, 1, 2, 7, 30, 80):
            for seed in range(10):
                got = _outcome(sample_insertion, g, n, seed)
                assert got == _outcome(_flat_sample_insertion, g, n, seed), (g, n, seed)
                dead_ends += isinstance(got, str)
    assert dead_ends > 0


def test_sample_insertion_stream_is_pinned():
    # drawn by the flat-candidate sampler before the two-stage draw
    assert sample_insertion(complete_graph(4), 30, 7) == (
        (2, 3, 2, 1, 2, 1, 0, 2, 0, 1, 3, 0, 1, 2, 1, 2, 0, 1, 3, 0, 1, 2, 0,
         2, 0, 1, 3, 1, 2, 1),
        (26, 23, 11, 27, 7, 25, 28, 9, 5, 12, 8, 18, 4, 13, 29, 24, 20, 1, 22,
         0, 6, 19, 3, 10, 14, 15, 16, 21, 2, 17))


# (graph, seed): the window-80 word and its build order, drawn before the
# gap rows became plain tuples; K222 and K2222 read rows shared by twin
# classes, and the looped table (vertex 3 a twin of vertex 1) weighted
# rows with loops and zeros
_LOOPED = WeightedGraph([[1, 2, 0, 2], [Fraction(1, 2), 1, 3, 1],
                         [2, 0, Fraction(3, 2), 0], [Fraction(1, 2), 1, 3, 1]])
PINNED_STREAMS = {
    "k222": (multipartite_graph(3, 2), 5,
             "20154353121310201243135342105351315024202104215020215054535432"
             "312120120432124502",
             (45, 29, 47, 59, 54, 51, 64, 62, 34, 14, 20, 39, 70, 44, 4, 25, 57,
              41, 19, 65, 37, 61, 3, 53, 42, 5, 71, 1, 60, 73, 8, 6, 23, 13, 69,
              52, 9, 74, 12, 79, 31, 0, 32, 78, 16, 22, 67, 48, 49, 58, 2, 26,
              21, 55, 11, 38, 10, 15, 75, 76, 24, 28, 43, 30, 27, 68, 33, 56, 50,
              77, 7, 17, 66, 35, 40, 72, 18, 36, 46, 63)),
    "k2222": (multipartite_graph(4, 2), 6,
              "02542346521032305360216035410364707142506716305027241602356360"
              "710135465725350707",
              (36, 21, 59, 11, 8, 30, 70, 64, 18, 0, 24, 9, 69, 76, 35, 4, 31,
               43, 63, 52, 41, 2, 26, 77, 22, 25, 16, 49, 61, 54, 62, 3, 1, 72,
               66, 74, 32, 67, 10, 45, 78, 73, 38, 75, 57, 19, 33, 27, 5, 37, 58,
               13, 50, 20, 60, 28, 17, 46, 68, 71, 40, 14, 12, 53, 44, 56, 51,
               29, 42, 23, 55, 39, 15, 47, 79, 7, 34, 65, 6, 48)),
    "looped": (_LOOPED, 7,
               "31332222222222222220300012222222033031122222222200030100001331"
               "332201331312220011",
               (71, 34, 21, 73, 17, 69, 77, 18, 12, 24, 19, 38, 11, 54, 79, 70,
                68, 0, 62, 1, 14, 56, 10, 32, 39, 52, 50, 59, 9, 45, 13, 8, 61,
                47, 53, 44, 48, 63, 42, 74, 33, 20, 16, 66, 2, 22, 41, 27, 36,
                51, 6, 43, 15, 26, 76, 35, 78, 3, 46, 64, 67, 28, 29, 40, 65, 5,
                7, 23, 57, 4, 60, 25, 49, 55, 37, 58, 72, 30, 75, 31)),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_sample_insertion_window_80_streams_are_pinned(name):
    g, seed, word, order = PINNED_STREAMS[name]
    assert _LOOPED._twin == (0, 1, 2, 1)
    got_word, got_order = sample_insertion(g, 80, seed)
    assert ("".join(map(str, got_word)), got_order) == (word, order)


def test_sample_insertion_builds_no_dense_flank_table():
    # (q + 1)**2 gap rows of K300 would hold about 27 million integers
    g = complete_graph(300)
    tracemalloc.start()
    try:
        sample_insertion(g, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_sample_insertion_trace():
    g = complete_graph(3)
    word, order = sample_insertion(g, 6, 99)
    assert len(word) == 6
    assert sorted(order) == list(range(6))
    assert building_weight(g, word, order) > 0
    # deterministic given the seed
    assert (word, order) == sample_insertion(g, 6, 99)


def test_sample_insertion_length_one_uniform():
    law = insertion_law(complete_graph(4), 1)
    assert all(p == Fraction(1, 4) for p in law.values())


def test_sample_insertion_dead_end():
    g = WeightedGraph.from_weights(1, {})
    with pytest.raises(DeadEndError):
        sample_insertion(g, 2, 0)
    with pytest.raises(DeadEndError):
        insertion_law(g, 2)


def test_insertion_law_matches_marginal_on_multipartite():
    for g in (complete_graph(3), multipartite_graph(3, 2)):
        for n in range(1, 5):
            assert insertion_marginal_gap(g, n) == 0


def test_insertion_law_matches_marginal_weighted_complete():
    # uniform weight is preserved under the insertion bias on complete
    # multipartite graphs even when the weight is not 1
    assert insertion_marginal_gap(complete_graph(3, 2), 3) == 0


def test_insertion_law_gap_on_kite():
    # the kite's varying step normalizer already separates the laws at
    # length two; the exact total-variation distance is 1/12
    assert insertion_marginal_gap(kite_graph(), 2) == Fraction(1, 12)


def test_insertion_law_sums_to_one():
    law = insertion_law(kite_graph(), 3)
    assert sum(law.values()) == 1


def _fraction_law(g, n):
    """Reference law: the dynamic program over ``Fraction`` probabilities.

    Reads the weights through ``weight`` rather than the gap rows; an
    absent flank counts 1.
    """
    q, one = g.vertex_count, Fraction(1)
    states = {(): Fraction(1)}
    for _ in range(n):
        nxt = {}
        for word, prob in states.items():
            cands = []
            for j in range(len(word) + 1):
                for v in range(q):
                    left = g.weight(word[j - 1], v) if j else one
                    right = g.weight(v, word[j]) if j < len(word) else one
                    if left * right:
                        cands.append((j, v, left * right))
            total = sum(w for _, _, w in cands)
            if not total:
                raise DeadEndError(
                    f"no insertion has positive weight from word {word}")
            for j, v, w in cands:
                child = word[:j] + (v,) + word[j:]
                nxt[child] = nxt.get(child, Fraction(0)) + prob * (w / total)
        states = nxt
    return states


def _fraction_gap(law, g, n):
    """Reference total-variation distance of ``law``, summed over ``Fraction`` values."""
    marg = marginal(g, n).table
    diff = Fraction(0)
    for w in set(law) | set(marg):
        diff += abs(law.get(w, Fraction(0)) - marg.get(w, Fraction(0)))
    return diff / 2


def _fraction_stationarity(g, n):
    """Reference stationarity check over ``Fraction`` marginal tables."""
    p_n = marginal(g, n)
    p_n1 = marginal(g, n + 1)
    drop_last, drop_first = {}, {}
    for word, prob in p_n1.table.items():
        drop_last[word[:-1]] = drop_last.get(word[:-1], Fraction(0)) + prob
        drop_first[word[1:]] = drop_first.get(word[1:], Fraction(0)) + prob
    defect = Fraction(0)
    for w in set(p_n.table) | set(drop_last) | set(drop_first):
        base = p_n.table.get(w, Fraction(0))
        for side in (drop_last, drop_first):
            defect = max(defect, abs(side.get(w, Fraction(0)) - base))
    return defect == 0, defect


def _pickled_outcome(fn, g, n):
    """The result's pickle, which pins types and dict order, or the error."""
    try:
        return pickle.dumps(fn(g, n))
    except (DeadEndError, ValueError) as exc:
        return type(exc), str(exc)


def _law_cases():
    graphs = [load_graph_fixture(name) for name in sorted(GRAPH_FIXTURES)]
    return graphs + list(_random_tables(30, 17, max_q=4))


def test_insertion_law_and_gap_match_the_fraction_forms():
    dead_ends, gaps = 0, set()
    for g in _law_cases():
        for n in range(6):
            law = _pickled_outcome(_fraction_law, g, n)
            assert _pickled_outcome(insertion_law, g, n) == law, (g, n)
            if isinstance(law, bytes):
                gap = _pickled_outcome(partial(_fraction_gap, pickle.loads(law)), g, n)
            else:
                gap = law
                dead_ends += 1
            assert _pickled_outcome(insertion_marginal_gap, g, n) == gap, (g, n)
            if isinstance(gap, bytes):
                gaps.add(pickle.loads(gap) > 0)
    assert dead_ends > 0 and gaps == {False, True}


def test_stationarity_check_matches_the_fraction_check():
    verdicts = set()
    for g in _law_cases():
        for n in range(5):
            got = _pickled_outcome(stationarity_check, g, n)
            assert got == _pickled_outcome(_fraction_stationarity, g, n), (g, n)
            if isinstance(got, bytes):
                verdicts.add(pickle.loads(got)[0])
    assert verdicts == {False, True}


def test_gap_independence_k4():
    g = complete_graph(4)
    batch = sample_exact(g, 5, 0, 20000)
    res = empirical_gap_independence(batch, 1)
    assert res.p_value > 0.001
    res0 = empirical_gap_independence(batch, 0)
    assert res0.p_value < 1e-12  # adjacent symbols never collide


def test_gap_independence_k3_rejects():
    g = complete_graph(3)
    batch = sample_exact(g, 5, 0, 20000)
    res = empirical_gap_independence(batch, 1)
    assert res.p_value < 1e-6


def test_chi2_sf_closed_forms():
    assert _chi2_sf(2.0, 2) == pytest.approx(math.exp(-1), rel=1e-15)
    assert _chi2_sf(3.0, 1) == pytest.approx(math.erfc(math.sqrt(1.5)), rel=1e-15)
    assert _chi2_sf(0.0, 5) == 1.0
    assert _chi2_sf(math.inf, 5) == 0.0
    assert math.isnan(_chi2_sf(1.0, 0))


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(5)
    xs = [1e-6, 0.1, 1.0, 7.5, 40.0, 150.0, 600.0, 1600.0]
    xs += [rng.uniform(0, 400) for _ in range(40)]
    for df in list(range(1, 40)) + [63, 80, 99, 143, 255, 399]:
        for x in xs:
            want = float(stats.chi2.sf(x, df))
            if want > 1e-290:
                assert _chi2_sf(x, df) == pytest.approx(want, rel=1e-12), (x, df)


def test_gap_independence_validation():
    batch = sample_exact(complete_graph(3), 3, 0, 10)
    with pytest.raises(ValueError):
        empirical_gap_independence(batch, 2)
    with pytest.raises(ValueError):
        empirical_gap_independence(sample_exact(complete_graph(3), 3, 0, 0), 1)


def test_exact_marginal_dependence_structure():
    # positions (1,3) of the three-window law on the four-vertex complete
    # graph factor exactly; on the three-vertex graph they do not, while
    # positions (1,4) of its four-window law do
    k4 = complete_graph(4)
    m3 = marginal(k4, 3)
    joint = {}
    for word, p in m3.table.items():
        key = (word[0], word[2])
        joint[key] = joint.get(key, Fraction(0)) + p
    assert all(p == Fraction(1, 16) for p in joint.values())
    assert len(joint) == 16

    k3 = complete_graph(3)
    m4 = marginal(k3, 4)
    joint = {}
    for word, p in m4.table.items():
        key = (word[0], word[3])
        joint[key] = joint.get(key, Fraction(0)) + p
    assert all(p == Fraction(1, 9) for p in joint.values())

    m3 = marginal(k3, 3)
    joint = {}
    for word, p in m3.table.items():
        key = (word[0], word[2])
        joint[key] = joint.get(key, Fraction(0)) + p
    tv = sum(abs(p - Fraction(1, 9)) for p in joint.values()) / 2
    assert tv == Fraction(1, 15)
