"""End-to-end acceptance criteria.

One test per criterion; each prints a PASS line (visible under ``-s``)
after its assertions hold.  Everything is exact arithmetic except the
explicitly statistical sampler check, whose tolerance is four binomial
standard errors at a fixed seed.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from insertproc import (building_count, building_count_bruteforce,
                        check_consistency, check_k_dependence,
                        check_pair_power_invariance, complete_graph,
                        de_bruijn, gap_sum, insertion_marginal_gap,
                        kite_graph, kite_obstruction, marginal,
                        multipartite_graph, pair_power_sum,
                        proper_coloring_windows, reduced_count,
                        reduced_count_symbolic, regularity, sample_exact,
                        sample_sft, short_word_closed_forms,
                        not_finitely_dependent_certificate, check_lr,
                        triangles_per_edge, uniform_defect, uniform_weight,
                        WeightedGraph)
from insertproc.buildings import bruteforce_sweep, recurrence_sweep
from insertproc.fixtures import GRAPH_FIXTURES, SFT_FIXTURES

pytestmark = pytest.mark.acceptance

RANDOM_SWEEP_SEED = 20240801


def _random_tables(count=100, seed=RANDOM_SWEEP_SEED):
    """Random rational weight tables on 4 vertices, loops on every third."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                if a != b:
                    rows[a][b] = Fraction(rng.randint(1, 12), 8)
                elif i % 3 == 0:
                    rows[a][b] = Fraction(rng.randint(0, 6), 8)
        graphs.append(WeightedGraph(rows))
    return graphs


def test_criterion_1_oracle_equivalence():
    """Recurrence equals brute force on every word of length <= 7."""
    start = time.time()
    graphs = [complete_graph(2), complete_graph(3), complete_graph(4),
              kite_graph()] + _random_tables()
    words_checked = 0
    rng = random.Random(1)
    for g in graphs:
        rec = recurrence_sweep(g, 7)
        brute = bruteforce_sweep(g, 7)
        for m in range(8):
            rec_values, rec_scale = rec[m]
            brute_values, brute_scale = brute[m]
            factor = rec_scale // brute_scale
            assert rec_scale == factor * brute_scale
            assert bool((rec_values == brute_values * factor).all()), (g, m)
            words_checked += len(rec_values)
        # tie the batched sweeps to the scalar operations themselves
        for m in (3, 5):
            for _ in range(3):
                word = tuple(rng.randrange(g.vertex_count) for _ in range(m))
                idx = 0
                for s in word:
                    idx = idx * g.vertex_count + s
                rec_values, rec_scale = rec[m]
                assert building_count(g, word) == Fraction(
                    int(rec_values[idx]), rec_scale)
                assert building_count(g, word) == building_count_bruteforce(g, word)
    elapsed = time.time() - start
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (oracle equivalence, {words_checked} words, "
          f"{len(graphs)} graphs, {elapsed:.1f}s): PASS")


def test_criterion_2_closed_forms():
    """Symbolic reduced counts match the reference closed forms exactly."""
    forms = short_word_closed_forms()
    for n in (2, 3, 4):
        assert (reduced_count_symbolic(n) - forms[n]).is_zero(), n
    print("\nACCEPTANCE 2 (closed forms n=2,3,4): PASS")


def test_criterion_3_positive_classification():
    """Consistency to window 6 and k-dependence at window 4 on the four fixtures."""
    start = time.time()
    cases = [("K3", complete_graph(3), 2),
             ("K4", complete_graph(4), 1),
             ("K222", multipartite_graph(3, 2), 2),
             ("K2222", multipartite_graph(4, 2), 1)]
    for name, g, k in cases:
        consistency = check_consistency(g, 6)
        assert consistency.verified, name
        assert consistency.degenerate_at is None, name
        report = check_k_dependence(g, k, 4, 4, consistency=consistency)
        assert report.verified, name
        assert all(c > 0 for c in report.constants.values()), name
    elapsed = time.time() - start
    assert elapsed < 600, f"classification took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 (positive classification, {elapsed:.1f}s): PASS")


def test_criterion_4_negative_classification():
    """Failures come with explicit numeric witnesses."""
    k3 = complete_graph(3)
    report = check_k_dependence(k3, 1, 4, 4)
    assert not report.verified
    assert {report.counterexample.lhs, report.counterexample.expected} == {6, 8}
    assert gap_sum(k3, (0,), (0,), 1) == 8
    assert gap_sum(k3, (0,), (1,), 1) == 6

    k5 = complete_graph(5)
    for k in range(1, 5):
        rep = check_k_dependence(k5, k, 3, 3)
        assert not rep.verified, k
        cx = rep.counterexample
        assert gap_sum(k5, cx.x, cx.y, k) == cx.lhs
        assert cx.lhs != cx.expected

    weighted = check_consistency(complete_graph(3, 2), 4)
    assert not weighted.verified
    assert len(weighted.counterexample.word) == 3

    assert uniform_defect(3, 2) == Fraction(3, 2)
    print("\nACCEPTANCE 4 (negative classification witnesses): PASS")


def test_criterion_5_uniform_weight_relations():
    """Degree and triangle-count relations on consistent uniform fixtures."""
    checked = 0
    for name, build in GRAPH_FIXTURES.items():
        g = build()
        uw = uniform_weight(g)
        if not uw.is_uniform:
            continue
        report = check_consistency(g, 4)
        if not report.verified or report.degenerate_at is not None:
            continue
        checked += 1
        d = regularity(g)
        assert d is not None, name
        assert report.constants[1] == 2 * uw.w * d, name
        t = triangles_per_edge(g)
        assert t is not None, name
        assert Fraction(t) == (report.constants[2] - report.constants[1]) / uw.w ** 2, name
    assert checked >= 8

    lhs, rhs = kite_obstruction(kite_graph(), (0, 1, 2, 3))
    assert lhs >= 2
    assert rhs == 0
    assert reduced_count(kite_graph(), (1, 0, 1)) == reduced_count(kite_graph(), (3, 0, 1))
    print(f"\nACCEPTANCE 5 (uniform-weight relations on {checked} fixtures, "
          f"kite obstruction {lhs} > {rhs}): PASS")


def test_criterion_6_pair_power_invariance():
    """Power sums are pair-independent on complete graphs, and not after a perturbation."""
    for q in (3, 4, 5):
        ok, witness = check_pair_power_invariance(complete_graph(q), 8)
        assert ok and witness is None, q
    rows = [[Fraction(0) if i == j else Fraction(1) for j in range(4)]
            for i in range(4)]
    rows[0][1] = rows[1][0] = Fraction(2)
    perturbed = WeightedGraph(rows)
    ok, witness = check_pair_power_invariance(perturbed, 8)
    assert not ok
    n, ref_pair, bad_pair, ref_value, bad_value = witness
    assert pair_power_sum(perturbed, *bad_pair, n) == bad_value
    assert ref_value != bad_value
    print(f"\nACCEPTANCE 6 (power-sum invariance, witness at n={n}): PASS")


def test_criterion_7_exact_marginal_dependence():
    """Joint laws factor exactly at the right gaps and not before."""
    k4 = complete_graph(4)
    joint = {}
    for word, p in marginal(k4, 3).table.items():
        key = (word[0], word[2])
        joint[key] = joint.get(key, Fraction(0)) + p
    assert len(joint) == 16
    assert all(p == Fraction(1, 16) for p in joint.values())

    k3 = complete_graph(3)
    joint = {}
    for word, p in marginal(k3, 4).table.items():
        key = (word[0], word[3])
        joint[key] = joint.get(key, Fraction(0)) + p
    assert len(joint) == 9
    assert all(p == Fraction(1, 9) for p in joint.values())

    joint = {}
    for word, p in marginal(k3, 3).table.items():
        key = (word[0], word[2])
        joint[key] = joint.get(key, Fraction(0)) + p
    gap = sum(abs(p - Fraction(1, 9)) for p in joint.values()) / 2
    assert gap == Fraction(1, 15)
    print(f"\nACCEPTANCE 7 (marginal dependence, K3 window-3 gap {gap}): PASS")


def test_criterion_8_sampler_validation():
    """Sampled frequencies track the exact marginal; insertion law is exact."""
    g = complete_graph(4)
    n, count, seed = 5, 100_000, 0
    table = marginal(g, n).table
    batch = sample_exact(g, n, seed, count)
    counts = {}
    for w in batch.words:
        counts[w] = counts.get(w, 0) + 1
    worst = 0.0
    for word, p in table.items():
        pf = float(p)
        sigma = math.sqrt(pf * (1 - pf) / count)
        deviation = abs(counts.get(word, 0) / count - pf) / sigma
        worst = max(worst, deviation)
        assert deviation <= 4, (word, deviation)

    for graph in (complete_graph(3), multipartite_graph(3, 2)):
        for length in range(1, 7):
            assert insertion_marginal_gap(graph, length) == 0, (graph, length)
    print(f"\nACCEPTANCE 8 (sampler: worst z {worst:.2f} at 1e5 draws; "
          f"insertion law exact to length 6): PASS")


def test_criterion_9_sft_suite():
    """Window counts, de Bruijn consistency, sampling, and certificates."""
    coloring = proper_coloring_windows(3)
    lr = check_lr(coloring)
    assert lr.is_constant and lr.K == 2

    report = check_consistency(de_bruijn(coloring), 5)
    assert report.verified
    assert all(c == 2 * lr.K for c in report.constants.values())

    words = sample_sft(coloring, 5, 11, 500)
    for w in words:
        for i in range(len(w) - 1):
            assert (w[i], w[i + 1]) in coloring.allowed

    for name, build in SFT_FIXTURES.items():
        cert = not_finitely_dependent_certificate(build())
        assert cert["verdict"] == "not_finitely_dependent", name
        assert cert["directed_triangle"] is None, name
    print(f"\nACCEPTANCE 9 (shift suite: K={lr.K}, constants 2K, "
          f"{len(words)} samples in-shift, {len(SFT_FIXTURES)} certificates): PASS")
