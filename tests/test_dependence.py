"""Gap sums, k-dependence verification, and the triangle certificate."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from insertproc import dependence
from insertproc import (ConsistencyNotVerified, ConsistencyReport,
                        WeightedGraph, building_count, check_consistency,
                        check_k_dependence, complete_graph, cycle_graph,
                        gap_sum, kite_graph, min_k_search, multipartite_graph,
                        positive_words, proper_coloring_windows, de_bruijn,
                        triangle_necessity, word_weight)
from insertproc.buildings import (_least_words, _scaled_building,
                                  _scaled_reduced)

K3 = complete_graph(3)
K4 = complete_graph(4)


def test_gap_sum_values():
    assert gap_sum(K4, (0,), (1,), 1) == 12
    assert gap_sum(K4, (0,), (0,), 1) == 12
    assert gap_sum(K3, (0,), (0,), 1) == 8
    assert gap_sum(K3, (0,), (1,), 1) == 6


def test_gap_sum_k_zero():
    # empty middle: the sum is just the stitched building count
    assert gap_sum(K3, (0,), (1,), 0) == 2
    assert gap_sum(K3, (0,), (0,), 0) == 0


def test_gap_sum_zero_weight_words():
    assert gap_sum(K3, (0, 0), (1,), 2) == 0
    assert gap_sum(K3, (0, 1), (2, 2), 1) == 0


def test_gap_sum_validation():
    with pytest.raises(ValueError):
        gap_sum(K3, (), (1,), 1)
    with pytest.raises(ValueError):
        gap_sum(K3, (0,), (1,), -1)
    with pytest.raises(ValueError, match="bool"):
        gap_sum(K4, (True,), (1,), 1)
    assert gap_sum(K4, np.array([0]), (np.int64(1),), 1) == 12
    # 4**9 middles were past the walk's bound; the chart has 38 states
    assert gap_sum(K4, (0,), (1,), 9) == Fraction(_complete_normalizer(4, 11), 16)


def test_gap_sum_chart_bound_refuses_before_allocating():
    # 256 states are accepted and 258 refused; a gap of 10**6 on K4 would
    # be a table 4 * 10**6 states on a side
    assert gap_sum(complete_graph(2), (0,), (0,), 127) == 2 ** 128
    with pytest.raises(ValueError, match="chart bound exceeded: 258 states"):
        gap_sum(complete_graph(2), (0,), (0,), 128)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="chart bound"):
            gap_sum(K4, (0,), (1,), 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16, peak


def _complete_normalizer(q, n):
    """``Z_n`` of K_q: ``Z_1 = q`` and ``Z_{j+1} = ((q-2) j + q) Z_j``."""
    z = q
    for j in range(1, n):
        z *= (q - 2) * j + q
    return z


def test_gap_sum_past_the_old_middle_bound():
    # K3 is 2-dependent and K4 1-dependent, so past those gaps the sum
    # factors as Z_{k+2} / q**2; K3 at k = 1 does not
    for q, ks in ((3, range(2, 31)), (4, range(1, 31))):
        g = complete_graph(q)
        for k in ks:
            assert gap_sum(g, (0,), (1,), k) == Fraction(
                _complete_normalizer(q, k + 2), q * q), (q, k)
    assert gap_sum(K3, (0,), (1,), 1) != Fraction(_complete_normalizer(3, 3), 9)


def _tables_with_copies(seed):
    """Looped random 4-vertex tables with one vertex copied once or twice.

    Their twin classes have unequal sizes, and the relabeling scatters
    the class representatives.
    """
    rng = random.Random(seed)
    for copies in (1, 2) * 4:
        rows = [[Fraction(rng.randint(0, 4), rng.choice((1, 2)))
                 for _ in range(4)] for _ in range(4)]
        for _ in range(copies):
            v = rng.randrange(4)
            for row in rows:
                row.append(row[v])
            rows.append(list(rows[v]))
        perm = rng.sample(range(len(rows)), len(rows))
        yield WeightedGraph([[rows[a][b] for b in perm] for a in perm])


def _middle_walk(g, x, y, k):
    """``sum_W B(x W y)``, scaled as the chart, over every middle on the memo."""
    return sum(_scaled_building(g, x + w + y)
               for w in itertools.product(range(g.vertex_count), repeat=k))


def test_gap_sum_chart_matches_the_middle_walk():
    # one chart with k free positions against the memo counts of the
    # q**k stitched words, on looped rational tables
    rng = random.Random(9)
    for _ in range(6):
        g = WeightedGraph([[Fraction(rng.randint(0, 4), rng.choice((1, 2, 3)))
                            for _ in range(4)] for _ in range(4)])
        for k in range(6):
            x = tuple(rng.randrange(4) for _ in range(rng.randint(1, 2)))
            y = tuple(rng.randrange(4) for _ in range(rng.randint(1, 2)))
            scale = g._den ** (2 * (len(x) + k + len(y)) - 2)
            assert gap_sum(g, x, y, k) * scale == _middle_walk(g, x, y, k)
    # with twins the memo keys on class words; the symbols of x and y
    # need not be representatives
    for g in _tables_with_copies(11):
        assert g._twin is not None
        q = g.vertex_count
        for k in range(4):
            for _ in range(4):
                x = tuple(rng.randrange(q) for _ in range(rng.randint(1, 2)))
                y = tuple(rng.randrange(q) for _ in range(rng.randint(1, 2)))
                scale = g._den ** (2 * (len(x) + k + len(y)) - 2)
                assert gap_sum(g, x, y, k) * scale == _middle_walk(g, x, y, k)


def test_zero_weight_left_words_give_zero_gap_sums():
    # every building links every consecutive pair, so a zero-weight x
    # gives a zero gap sum on both counting routes; this is why the
    # checker compares positive-weight pairs only
    rng = random.Random(8)
    for _ in range(10):
        g = WeightedGraph([[rng.choice((0, 0, 0, 1, Fraction(1, 2)))
                            for _ in range(4)] for _ in range(4)])
        ys = [y for m in (1, 2) for y in positive_words(g, m)]
        xs = [x for n in (1, 2, 3)
              for x in itertools.product(range(4), repeat=n)
              if word_weight(g, x) == 0]
        assert xs and ys
        for k in range(3):
            for x in xs:
                for y in ys:
                    assert gap_sum(g, x, y, k) == 0
                    assert _middle_walk(g, x, y, k) == 0


def _dependence_by_gap_sum(g, k, window):
    """The report of check_k_dependence, from every original pair by gap_sum."""
    q = g.vertex_count
    words = {n: [w for w in itertools.product(range(q), repeat=n)
                 if word_weight(g, w)] for n in range(1, window + 1)}
    constants = {}
    report = {"k": k, "max_left": window, "max_right": window,
              "verified": True, "constants": constants,
              "counterexample": None}
    for n, m in itertools.product(range(1, window + 1), repeat=2):
        xs, ys = words[n], words[m]
        if not xs or not ys:
            continue
        c = gap_sum(g, xs[0], ys[0], k) / (building_count(g, xs[0])
                                            * building_count(g, ys[0]))
        constants[f"{n},{m}"] = str(c)
        if c == 0:
            return dict(report, verified=False, counterexample={
                "x": list(xs[0]), "y": list(ys[0]), "lhs": "0",
                "expected": None, "reason": "zero-constant"})
        # x outer and y inner, each in lexicographic order: the first
        # failing pair is the lexicographically least
        for x, y in itertools.product(xs, ys):
            lhs = gap_sum(g, x, y, k)
            expected = c * building_count(g, x) * building_count(g, y)
            if lhs != expected:
                return dict(report, verified=False, counterexample={
                    "x": list(x), "y": list(y), "lhs": str(lhs),
                    "expected": str(expected), "reason": "ratio-mismatch"})
    return report


def test_class_sweep_matches_every_pair_by_gap_sum():
    # these tables fail consistency, so a verified report stands in for
    # it: the gap-sum sweep itself is defined on any table.  Complete
    # multipartite graphs with unequal parts have class graphs with
    # automorphisms that do not keep class sizes
    stand_in = ConsistencyReport(4)
    rng = random.Random(13)
    blown_up = []
    for sizes in ((2, 1), (1, 2, 1), (3, 1, 2), (2, 2, 1, 1)):
        part = [c for c, s in enumerate(sizes) for _ in range(s)]
        rng.shuffle(part)
        blown_up.append(WeightedGraph([[int(a != b) for b in part]
                                       for a in part]))
    # automorphism (0 1)(2 3), and the least failing pair ((2,), (0,)) has
    # a left word past the first orbit representative
    swapped = WeightedGraph([[1, 1, 1, 1], [1, 1, 1, 1], [1, 3, 2, 2],
                             [3, 1, 2, 2]])
    for g in [*_tables_with_copies(12), *blown_up, swapped]:
        for k in range(3):
            report = check_k_dependence(g, k, 3, 3, consistency=stand_in)
            assert report.to_json_dict() == _dependence_by_gap_sum(
                g, k, 3), (g, k)


def test_witness_rechecked_by_the_interval_dp(monkeypatch):
    # a memo-side lhs that disagrees with the interval DP must not be
    # reported as a counterexample
    def skewed(g, w):
        return _scaled_reduced(g, w) + (1 if w == (0, 1, 2) else 0)

    monkeypatch.setattr(dependence, "_scaled_reduced", skewed)
    with pytest.raises(RuntimeError, match="interval DP"):
        check_k_dependence(K4, 1, 1, 1)


def test_k4_one_dependent_window_four():
    report = check_k_dependence(K4, 1, 4, 4)
    assert report.verified
    assert report.constants[(1, 1)] == 12


def test_k3_two_dependent_window_four():
    assert check_k_dependence(K3, 2, 4, 4).verified


def test_k3_gap_one_counterexample():
    report = check_k_dependence(K3, 1, 4, 4)
    assert not report.verified
    cx = report.counterexample
    assert (cx.x, cx.y) == ((0,), (1,))
    assert cx.lhs == 6
    assert cx.expected == 8
    assert report.constants[(1, 1)] == 8


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_k5_fails_every_gap(k):
    report = check_k_dependence(complete_graph(5), k, 3, 3)
    assert not report.verified
    cx = report.counterexample
    # the witness is a genuine numeric violation, reproducible by gap_sum
    assert gap_sum(complete_graph(5), cx.x, cx.y, k) == cx.lhs
    assert cx.lhs != cx.expected


def test_symmetry_reduction_is_invisible():
    # the reduced sweep gives the report of every original pair by gap_sum
    for g, k in [(K3, 1), (K3, 2), (K4, 1), (multipartite_graph(2, 2), 1)]:
        assert check_k_dependence(g, k, 3, 3).to_json_dict() == (
            _dependence_by_gap_sum(g, k, 3)), (g, k)
    # multipartite_graph(3, 4) has 12 vertices, past the class bound of the
    # symmetry search, but 3 classes, whose 6 size-preserving automorphisms
    # reduce it to one left word of each length 1 and 2.  It is too large for the reference; each of its words
    # stands for a word of K3, and each of the k middle positions for the 4
    # vertices of a class, so its constants are K3's times 4**k
    k3_4 = multipartite_graph(3, 4)
    assert [list(_least_words(k3_4, n)) for n in (1, 2, 3)] == [
        [(0,)], [(0, 1)], [(0, 1, 0), (0, 1, 2)]]
    report = check_k_dependence(k3_4, 2, 3, 3)
    assert report.verified
    k3 = check_k_dependence(K3, 2, 3, 3)
    assert report.constants == {nm: c * 4 ** 2
                                for nm, c in k3.constants.items()}


def test_k9_symmetry_is_not_listed():
    # K9's 362,880 size-keeping automorphisms are searched one orbit step
    # at a time; listing them all took 1.6 s and about 90 MB of traced
    # memory.  The left words are K9's orbit representatives, and the
    # verdict and witness are the parent's
    assert list(_least_words(complete_graph(9), 2)) == [(0, 1)]
    tracemalloc.start()
    try:
        report = check_k_dependence(complete_graph(9), 1, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert report.to_json_dict() == {
        "k": 1, "max_left": 2, "max_right": 2, "verified": False,
        "constants": {"1,1": "32"},
        "counterexample": {"x": [0], "y": [1], "lhs": "42", "expected": "32",
                           "reason": "ratio-mismatch"}}


def test_k10_left_words_are_its_orbit_patterns():
    # K10's 3,628,800 automorphisms leave one left word per pattern of
    # repeated symbols: 1, 1, 2 and 5 at lengths 1 to 4, out of 7,290 words
    # at length 4, found without listing the group
    g = complete_graph(10)
    tracemalloc.start()
    try:
        words = [list(_least_words(g, n)) for n in range(1, 5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert words == [[(0,)], [(0, 1)], [(0, 1, 0), (0, 1, 2)],
                     [(0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 2, 0), (0, 1, 2, 1),
                      (0, 1, 2, 3)]]


def test_consistency_precondition_enforced():
    with pytest.raises(ConsistencyNotVerified):
        check_k_dependence(kite_graph(), 1, 3, 3)
    with pytest.raises(ConsistencyNotVerified):
        check_k_dependence(complete_graph(3, 2), 1, 3, 3)


def test_short_consistency_report_is_refused():
    # a verified report must reach max(max_left, max_right) + 1
    report = check_consistency(K4, 3)
    assert report.verified
    with pytest.raises(ValueError,
                       match="consistency verified only to 3, need 5"):
        check_k_dependence(K4, 1, 4, 4, consistency=report)


def test_multipartite_transfer():
    # gap sums over the blown-up graph gain a factor r^k per middle
    # symbol and r per extension; the constants relate by r^k
    r, k = 2, 2
    base = check_k_dependence(K3, k, 3, 3)
    blown = check_k_dependence(multipartite_graph(3, r), k, 3, 3)
    assert base.verified and blown.verified
    for (n, m), c in base.constants.items():
        assert blown.constants[(n, m)] == c * r ** k


def test_min_k_search_results():
    assert min_k_search(K4, 3).found == 1
    assert min_k_search(K3, 3).found == 2
    assert min_k_search(complete_graph(2), 5).found is None


def test_min_k_reports_every_gap():
    result = min_k_search(K3, 3)
    assert set(result.reports) == {0, 1, 2}
    assert not result.reports[0].verified
    assert not result.reports[1].verified
    assert result.reports[1].counterexample.lhs == 6
    assert result.reports[2].verified


def test_min_k_consistency_precondition():
    with pytest.raises(ConsistencyNotVerified):
        min_k_search(kite_graph(), 2)


def test_k2_fails_every_gap_with_witness():
    for k in range(0, 6):
        report = check_k_dependence(complete_graph(2), k, 4, 4)
        assert not report.verified
        cx = report.counterexample
        assert gap_sum(complete_graph(2), cx.x, cx.y, k) == cx.lhs


def test_triangle_necessity_certificates():
    cert = triangle_necessity(multipartite_graph(2, 2))
    assert cert["verdict"] == "not_finitely_dependent"
    assert cert["directed_triangle"] is None

    cert = triangle_necessity(K3)
    assert cert["verdict"] == "inconclusive"
    assert cert["directed_triangle"] is not None

    cert = triangle_necessity(cycle_graph(5))
    assert cert["verdict"] == "not_finitely_dependent"

    db = de_bruijn(proper_coloring_windows(3))
    assert triangle_necessity(db)["verdict"] == "not_finitely_dependent"


def test_report_json_shape():
    doc = check_k_dependence(K3, 1, 3, 3).to_json_dict()
    assert doc["verified"] is False
    assert doc["counterexample"]["x"] == [0]
    assert doc["counterexample"]["lhs"] == "6"
    assert doc["constants"]["1,1"] == "8"


def test_desk_scale_classification():
    # among small uniform-weight connected fixtures with verified
    # consistency, exactly the complete multipartite graphs with three or
    # four parts admit a finite gap within the window
    fixtures = {
        "K2": (complete_graph(2), None),
        "K3": (K3, 2),
        "K4": (K4, 1),
        "K5": (complete_graph(5), None),
        "K22": (multipartite_graph(2, 2), None),
        "K222": (multipartite_graph(3, 2), 2),
        "C5": (cycle_graph(5), None),
    }
    for name, (g, expected) in fixtures.items():
        found = min_k_search(g, 2, 3, 3).found
        assert found == expected, name


def test_desk_scale_classification_exhaustive():
    # every connected unit-weight graph on up to six vertices: only the
    # regular ones can verify consistency, and among the consistent ones
    # only the triangle (gap 2), the four-clique (gap 1) and the
    # octahedron (gap 2) admit a finite gap within the window
    import itertools

    from insertproc import WeightedGraph, check_consistency

    passers = {}
    consistent = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 2 ** len(pairs)):
            degree = [0] * n
            spec = {}
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    degree[i] += 1
                    degree[j] += 1
                    spec[(i, j)] = 1
                    spec[(j, i)] = 1
            # consistency forces regularity; skipping irregular masks only
            # skips guaranteed failures (spot-checked separately below)
            if len(set(degree)) != 1 or degree[0] == 0:
                continue
            g = WeightedGraph.from_weights(n, spec)
            from insertproc import is_strongly_connected
            if not is_strongly_connected(g):
                continue
            report = check_consistency(g, 5)
            if not report.verified or report.degenerate_at is not None:
                continue
            consistent += 1
            found = min_k_search(g, 2, 3, 3).found
            key = (n, degree[0])
            passers.setdefault(key, set()).add(found)
    # the consistent family: cliques, cycles, and the regular complete
    # multipartite graphs that fit in six vertices
    assert consistent >= 8
    expected_found = {
        (2, 1): {None},   # single edge
        (3, 2): {2},      # triangle
        (4, 2): {None},   # four-cycle
        (4, 3): {1},      # four-clique
        (5, 2): {None},   # five-cycle
        (5, 4): {None},   # five-clique
        (6, 2): {None},   # six-cycle
        (6, 3): {None},   # three-three bipartite
        (6, 4): {2},      # octahedron
        (6, 5): {None},   # six-clique
    }
    assert passers == expected_found
    # irregular graphs fail consistency outright (the skipped branch)
    assert not check_consistency(kite_graph(), 5).verified
    from insertproc import path_graph
    assert not check_consistency(path_graph(4), 5).verified
