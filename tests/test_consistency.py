"""Extension-consistency verification and the uniform-weight obstructions."""

import itertools
import random
from fractions import Fraction

import pytest

from insertproc import (WeightedGraph, check_consistency,
                        check_pair_power_invariance, complete_graph,
                        cycle_graph, kite_graph, kite_obstruction,
                        multipartite_graph, pair_power_sum, path_graph,
                        reduced_count, uniform_defect, word_weight)


def test_k3_constants():
    report = check_consistency(complete_graph(3), 4)
    assert report.verified
    assert report.constants == {1: Fraction(4), 2: Fraction(5), 3: Fraction(6)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_complete_graphs_verified(q):
    assert check_consistency(complete_graph(q), 6).verified


def test_weighted_k3_fails_at_length_three():
    report = check_consistency(complete_graph(3, 2), 4)
    assert not report.verified
    assert len(report.counterexample.word) == 3
    assert report.counterexample.observed != report.counterexample.expected
    # lengths one and two still carry constants
    assert set(report.constants) == {1, 2, 3}
    assert report.constants[1] == 8  # 2 w d with w=2, d=2


def test_max_len_validation():
    with pytest.raises(ValueError):
        check_consistency(complete_graph(3), 1)


def test_degenerate_graph_flagged():
    # length-1 words always have weight 1, so the edgeless graph first
    # runs out of positive words at length 2; no zero constant is stored
    g = WeightedGraph.from_weights(2, {})
    report = check_consistency(g, 4)
    assert report.verified
    assert report.degenerate_at == 2
    assert report.constants == {}


def test_one_way_edge_degenerates():
    g = WeightedGraph.from_weights(2, {(0, 1): 1})
    report = check_consistency(g, 4)
    # the single length-1 anchor (0,) has a right extension but (1,) has
    # none, so the constant cannot be shared
    assert not report.verified or report.degenerate_at is not None


def test_report_json_shape():
    doc = check_consistency(complete_graph(3, 2), 4).to_json_dict()
    assert doc["verified"] is False
    assert doc["counterexample"]["side"] in ("left", "right")
    assert isinstance(doc["constants"]["1"], str)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2])
def test_multipartite_constants_transfer(q, r):
    # blowing each vertex up into a part of size r multiplies every
    # extension constant by r
    base = check_consistency(complete_graph(q), 5)
    blown = check_consistency(multipartite_graph(q, r), 5)
    assert base.verified and blown.verified
    for n, c in base.constants.items():
        assert blown.constants[n] == r * c


def _relabeled(rows, rng):
    perm = rng.sample(range(len(rows)), len(rows))
    return WeightedGraph([[rows[a][b] for b in perm] for a in perm])


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
        yield _relabeled(rows, rng)


def _consistency_by_chart(g, max_len):
    """The report of check_consistency, from every original word by the chart."""
    q = g.vertex_count
    constants = {}
    for n in range(1, max_len):
        anchor = None
        for word in itertools.product(range(q), repeat=n):
            if word_weight(g, word) == 0:
                continue
            base = reduced_count(g, word)
            right = sum(g.weight(word[-1], v) * reduced_count(g, word + (v,))
                        for v in range(q)) / base
            left = sum(g.weight(u, word[0]) * reduced_count(g, (u,) + word)
                       for u in range(q)) / base
            if anchor is None:
                anchor = right
                if right:
                    constants[str(n)] = str(right)
            for side, ratio in (("right", right), ("left", left)):
                if ratio != anchor:
                    return {"max_len": max_len, "verified": False,
                            "constants": constants, "degenerate_at": None,
                            "counterexample": {
                                "word": list(word), "side": side,
                                "observed": str(ratio),
                                "expected": str(anchor)}}
        if anchor is None:
            return {"max_len": max_len, "verified": True,
                    "constants": constants, "counterexample": None,
                    "degenerate_at": n}
    return {"max_len": max_len, "verified": True, "constants": constants,
            "counterexample": None, "degenerate_at": None}


def test_class_word_sweep_matches_every_word_by_chart():
    # the sweep walks class words and weights each extension by its class
    # size; the reference walks every original word.  Besides the random
    # tables (which fail at length 1): a relabeled K222 (verified), the
    # weight-2 K222 (fails at length 3), and a looped table on classes of
    # sizes 2, 1, 1 whose size-weighted rows and columns all sum to 5, so
    # that it fails only at length 2
    rng = random.Random(4)
    graphs = list(_tables_with_copies(3)) + [
        _relabeled([[1, 1, 1, 2], [1, 1, 1, 2], [1, 1, 2, 1], [2, 2, 1, 0]],
                   rng),
        _relabeled([[int(a % 3 != b % 3) for b in range(6)] for a in range(6)],
                   rng),
        multipartite_graph(3, 2, 2)]
    failed_past_one = 0
    for g in graphs:
        assert g._twin is not None
        report = check_consistency(g, 4).to_json_dict()
        assert report == _consistency_by_chart(g, 4)
        cx = report["counterexample"]
        failed_past_one += cx is not None and len(cx["word"]) > 1
    assert failed_past_one == 2


def test_cycle_is_consistent_but_triangle_free():
    report = check_consistency(cycle_graph(5), 5)
    assert report.verified
    assert all(c == 4 for c in report.constants.values())


def test_path_fails_at_length_one():
    report = check_consistency(path_graph(3), 4)
    assert not report.verified
    assert len(report.counterexample.word) == 1


def test_pair_power_sum_values():
    k4 = complete_graph(4)
    assert pair_power_sum(k4, 0, 1, 1) == 3
    k3 = complete_graph(3)
    assert pair_power_sum(k3, 0, 1, 2) == 1
    with pytest.raises(ValueError):
        pair_power_sum(k3, 1, 1, 2)
    with pytest.raises(ValueError):
        pair_power_sum(k3, 0, 1, 0)


def test_pair_power_sum_symmetric_even_exponent():
    g = complete_graph(4, Fraction(2, 3))
    for i in range(4):
        for j in range(4):
            if i != j:
                assert pair_power_sum(g, i, j, 2) == pair_power_sum(g, j, i, 2)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_pair_power_invariance_complete(q):
    ok, witness = check_pair_power_invariance(complete_graph(q), 8)
    assert ok and witness is None


def test_pair_power_invariance_two_vertices():
    ok, _ = check_pair_power_invariance(complete_graph(2), 6)
    assert ok


def test_pair_power_invariance_perturbed():
    rows = [[0 if i == j else Fraction(1) for j in range(4)] for i in range(4)]
    rows[0][1] = rows[1][0] = Fraction(2)
    ok, witness = check_pair_power_invariance(WeightedGraph(rows), 8)
    assert not ok
    n, ref_pair, bad_pair, ref, val = witness
    assert n == 1 and ref != val


def test_pair_power_invariance_hypothesis_checked():
    with pytest.raises(ValueError):
        check_pair_power_invariance(path_graph(3), 4)  # zero off-diagonal
    loopy = WeightedGraph.from_weights(
        2, {(0, 0): 1, (0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        check_pair_power_invariance(loopy, 4)


def test_uniform_defect_values():
    assert uniform_defect(3, 1) == 0
    assert uniform_defect(4, 1) == 0
    assert uniform_defect(3, 2) == Fraction(3, 2)
    with pytest.raises(ValueError):
        uniform_defect(2, 1)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("w", [Fraction(1, 2), 1, 2, 3])
def test_uniform_defect_internal_cross_check(q, w):
    # the operation recomputes the defect from reduced counts and raises
    # on mismatch, so a clean return is itself the assertion; the sign
    # pattern pins the unique consistent weight
    value = uniform_defect(q, w)
    if w == 1:
        assert value == 0
    else:
        assert value != 0


def test_kite_obstruction_values():
    g = kite_graph()
    lhs, rhs = kite_obstruction(g, (0, 1, 2, 3))
    assert lhs == 2
    assert rhs == 0
    # the reduced brackets agree even though the sums differ
    assert reduced_count(g, (1, 0, 1)) == reduced_count(g, (3, 0, 1))


def test_kite_obstruction_term_structure():
    g = kite_graph()
    a, b, c, d = 0, 1, 2, 3
    for v in range(4):
        term = (reduced_count(g, (b, a, b, v)) - reduced_count(g, (d, a, b, v))) \
            * g.weight(b, v)
        expected = 2 * g.weight(a, v) * g.weight(b, v) \
            * (g.weight(b, v) - g.weight(d, v))
        assert term == expected
        if v == c:
            assert term == 2
        if g.weight(b, v) == 0:
            assert term == 0


def test_kite_obstruction_validation():
    g = kite_graph()
    with pytest.raises(ValueError):
        kite_obstruction(g, (1, 0, 2, 3))  # pendant attaches to 0, not 1
    with pytest.raises(ValueError):
        kite_obstruction(complete_graph(4), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        kite_obstruction(complete_graph(4, 2), (0, 1, 2, 3))


def test_kite_obstruction_past_the_enumeration_bound():
    # the kite plus 56 isolated vertices: a window-4 sweep would exceed
    # the bound at 60**4 words, and the right side needs none
    edges = [(0, 1), (0, 2), (1, 2), (0, 3)]
    g = WeightedGraph.from_weights(
        60, {pair: 1 for i, j in edges for pair in ((i, j), (j, i))})
    assert kite_obstruction(g, (0, 1, 2, 3)) == (2, 0)


_KITE_WEIGHTS = {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1, (1, 2): 1,
                 (2, 1): 1, (0, 3): 1, (3, 0): 2}


@pytest.mark.parametrize("g, kite, message", [
    (WeightedGraph.from_weights(4, _KITE_WEIGHTS), (0, 1, 2, 3),
     "uniform-weight graphs"),
    (kite_graph(), (0, 1, 1, 3), "four distinct vertices"),
    (path_graph(4), (1, 0, 2, 3), "do not form a triangle"),
    (complete_graph(4), (0, 1, 2, 3), "vertex 3 is not a pendant"),
], ids=["not uniform", "repeated vertex", "no triangle", "not a pendant"])
def test_kite_obstruction_refusals(g, kite, message):
    with pytest.raises(ValueError, match=message):
        kite_obstruction(g, kite)
    assert kite_obstruction(kite_graph(), (0, 1, 2, 3)) == (2, 0)


def test_pair_power_invariance_needs_two_vertices():
    with pytest.raises(ValueError, match="at least two vertices"):
        check_pair_power_invariance(WeightedGraph([[0]]), 2)
    assert check_pair_power_invariance(complete_graph(2), 2) == (True, None)


def test_uniform_defect_refuses_a_zero_weight():
    with pytest.raises(ValueError, match="uniform weight must be positive"):
        uniform_defect(3, 0)
    assert uniform_defect(3, 1) == 0


def test_uniform_weight_degree_relations():
    # on uniform-weight consistent fixtures: c_1 = 2 w d and the triangle
    # count per edge is (c_2 - c_1) / w^2
    from insertproc import regularity, triangles_per_edge, uniform_weight
    fixtures = [complete_graph(2), complete_graph(3), complete_graph(4),
                multipartite_graph(2, 2), multipartite_graph(3, 2),
                cycle_graph(5)]
    for g in fixtures:
        report = check_consistency(g, 4)
        assert report.verified
        uw = uniform_weight(g)
        assert uw.is_uniform
        d = regularity(g)
        assert d is not None
        assert report.constants[1] == 2 * uw.w * d
        t = triangles_per_edge(g)
        assert t is not None
        assert Fraction(t) == (report.constants[2] - report.constants[1]) / uw.w ** 2
