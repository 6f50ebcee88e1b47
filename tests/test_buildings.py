"""Building counts: constructions, recurrences, and the brute-force oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insertproc import (WeightedGraph, building_count,
                        building_count_bruteforce, building_weight,
                        check_k_dependence, complete_graph, constraint_graph,
                        check_consistency, cycle_graph, kite_graph,
                        multipartite_graph, block_projection,
                        classify_multipartite, gap_sum, marginal,
                        positive_words, reduced_count, word_weight)
from insertproc.buildings import (_interval_scaled, _scaled_building,
                                  _scaled_reduced, bruteforce_sweep,
                                  constraint_edge_classes, recurrence_sweep)

K3 = complete_graph(3)
K4 = complete_graph(4)


def test_word_weight():
    assert word_weight(K3, (0, 1, 0)) == 1
    assert word_weight(K3, (0, 0)) == 0
    assert word_weight(K3, ()) == 1
    assert word_weight(K3, (2,)) == 1
    g = complete_graph(3, Fraction(1, 2))
    assert word_weight(g, (0, 1, 2)) == Fraction(1, 4)


def test_constraint_graph_identity_order_is_path():
    cg = constraint_graph(K4, (0, 1, 2, 3), (0, 1, 2, 3))
    assert cg.pair_multiset() == ((0, 1), (1, 2), (2, 3))


def test_constraint_graph_singleton_empty():
    assert constraint_graph(K3, (1,), (0,)).edges == ()


def test_constraint_graph_seven_symbol_order():
    # arrival order of positions 4,7,5,2,6,1,3 in 1-based terms; each
    # arrival links to its nearest present neighbor on each side, which
    # gives the full path plus three skip edges: nine edges in total
    cg = constraint_graph(K4, (0, 1, 2, 3, 0, 1, 2), (3, 6, 4, 1, 5, 0, 2))
    assert len(cg.edges) == 9
    assert cg.pair_multiset() == (
        (0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6))


def test_constraint_graph_rejects_length_mismatch():
    with pytest.raises(ValueError):
        constraint_graph(K3, (0, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        constraint_graph(K3, (0, 1), (0, 0))


def test_building_weight_identity_equals_word_weight():
    for word in [(0, 1, 0), (0, 1, 2), (2, 0, 2, 1)]:
        n = len(word)
        assert building_weight(K3, word, tuple(range(n))) == word_weight(K3, word)


def test_building_weight_examples():
    # arrival orders in position form: (0,2,1) makes position 2 see its
    # left neighbor at position 0 first, hitting the zero loop weight
    assert building_weight(K3, (0, 1, 0), (0, 2, 1)) == 0
    assert building_weight(K3, (0, 1, 0), (1, 0, 2)) == 1


def test_bruteforce_base_cases():
    assert building_count_bruteforce(K3, ()) == 1
    assert building_count_bruteforce(K3, (2,)) == 1
    assert building_count_bruteforce(K3, (0, 1, 0)) == 4


def test_bruteforce_is_the_sum_over_arrival_orders():
    # the oracle groups orders by the edge set they link; summing
    # building_weight order by order must give the same count
    rng = random.Random(6)
    for _ in range(6):
        g = _random_graph(rng, rng.randint(2, 4), with_loops=True)
        for n in range(7):
            word = tuple(rng.randrange(g.vertex_count) for _ in range(n))
            orders = itertools.permutations(range(n))
            assert building_count_bruteforce(g, word) == sum(
                building_weight(g, word, o) for o in orders)


def test_bruteforce_rejects_long_words():
    with pytest.raises(ValueError):
        building_count_bruteforce(K3, (0, 1) * 5)


def test_recurrence_known_values():
    assert building_count(K3, (0, 1, 0)) == 4
    assert building_count(K4, (0, 1, 0, 2)) == 16
    assert building_count(K3, (0, 0, 1)) == 0


def test_reduced_count_base_cases():
    assert reduced_count(K3, ()) == 1
    assert reduced_count(K3, (1,)) == 1
    # length two is always 2, regardless of the pair's weight
    assert reduced_count(K3, (0, 1)) == 2
    assert reduced_count(K3, (0, 0)) == 2


def test_reduced_count_length_three():
    assert reduced_count(K3, (0, 1, 0)) == 4  # skip pair is the zero loop
    assert reduced_count(K3, (0, 1, 2)) == 6  # 4 + 2 w(0,2)


def test_factorization_exhaustive_k3():
    for n in range(0, 6):
        for word in positive_words(K3, n):
            assert building_count(K3, word) == word_weight(K3, word) * reduced_count(K3, word)


def test_oracle_equivalence_exhaustive_small():
    graphs = [complete_graph(2), K3, kite_graph()]
    for g in graphs:
        for n in range(0, 5):
            for word in itertools.product(range(g.vertex_count), repeat=n):
                assert building_count(g, word) == building_count_bruteforce(g, word)


def test_triangle_free_collapse():
    # no directed triangle forces the reduced count to 2^(n-1) on
    # positive-weight words
    for g in (complete_graph(2), multipartite_graph(2, 2), cycle_graph(5)):
        for n in range(1, 11):
            for word in positive_words(g, n):
                assert reduced_count(g, word) == 2 ** (n - 1)


def test_projection_invariance():
    # exhaustive over all words up to length 6: collapsing each vertex to
    # its part leaves every building count unchanged
    g = multipartite_graph(3, 2)
    quotient = complete_graph(3)
    cls = classify_multipartite(g)
    part = {v: block_projection(g, cls, (v,))[0] for v in range(6)}
    for n in range(1, 7):
        for word in itertools.product(range(6), repeat=n):
            projected = tuple(part[s] for s in word)
            assert building_count(g, word) == building_count(quotient, projected)


def _random_graph(rng, n, with_loops=False):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j and not with_loops:
                continue
            rows[i][j] = Fraction(rng.randint(0, 6), rng.choice([1, 2, 4]))
    return WeightedGraph(rows)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_random(seed, n):
    rng = random.Random(seed)
    g = _random_graph(rng, rng.randint(2, 4), with_loops=rng.random() < 0.3)
    word = tuple(rng.randrange(g.vertex_count) for _ in range(n))
    assert building_count(g, word) == building_count_bruteforce(g, word)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_reduced_count_lower_bound(seed, n):
    # endpoint deletions alone give at least 2^(n-1)
    rng = random.Random(seed)
    g = _random_graph(rng, rng.randint(2, 4), with_loops=True)
    word = tuple(rng.randrange(g.vertex_count) for _ in range(n))
    assert reduced_count(g, word) >= 2 ** (n - 1)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_factorization_random(seed, n):
    rng = random.Random(seed)
    g = _random_graph(rng, rng.randint(2, 4), with_loops=rng.random() < 0.3)
    word = tuple(rng.randrange(g.vertex_count) for _ in range(n))
    assert building_count(g, word) == word_weight(g, word) * reduced_count(g, word)


def test_constraint_edge_classes_structure():
    # class counts over all arrival orders sum to n!, every class
    # contains the path, and no pair repeats
    from math import factorial
    for n in range(2, 7):
        classes = constraint_edge_classes(n)
        assert sum(c for _, c in classes) == factorial(n)
        path = {(i, i + 1) for i in range(n - 1)}
        for pairs, _ in classes:
            assert path <= set(pairs)
            assert len(set(pairs)) == len(pairs)


def test_sweeps_agree_with_scalar_ops():
    rng = random.Random(11)
    g = _random_graph(rng, 4)
    rec = recurrence_sweep(g, 5)
    bf = bruteforce_sweep(g, 5)
    for m in range(6):
        rv, rs = rec[m]
        bv, bs = bf[m]
        for idx in rng.sample(range(4 ** m), min(8, 4 ** m)):
            word = tuple((idx // 4 ** (m - 1 - p)) % 4 for p in range(m))
            expected = building_count(g, word)
            assert Fraction(int(rv[idx]), rs) == expected
            assert Fraction(int(bv[idx]), bs) == expected


@pytest.mark.parametrize("top", [12, 200, 40_000, 2 ** 40])
def test_sweeps_agree_at_every_weight_width(top):
    # the brute force stores pair weights in the narrowest signed type
    # that holds them (int8 up to int64 here) and multiplies in int64
    # while its bound is below 2**62, in object arrays past it; every
    # entry must stay exact
    rng = random.Random(top)
    g = WeightedGraph([[rng.randint(1, top) for _ in range(3)]
                       for _ in range(3)])
    rec = recurrence_sweep(g, 5)
    bf = bruteforce_sweep(g, 5)
    for m in range(6):
        (rv, rs), (bv, bs) = rec[m], bf[m]
        assert all(int(a) == int(b) * (rs // bs) for a, b in zip(rv, bv))


def test_sweeps_object_fallback():
    # large numerators push the bound past int64; values must stay exact
    rows = [[0 if i == j else Fraction(97, 16) for j in range(3)] for i in range(3)]
    g = WeightedGraph(rows)
    rec = recurrence_sweep(g, 6)
    bf = bruteforce_sweep(g, 6)
    rv, rs = rec[6]
    bv, bs = bf[6]
    assert rs // bs > 0
    assert all(int(a) == int(b) * (rs // bs) for a, b in zip(rv, bv))
    word = (0, 1, 2, 0, 1, 2)
    idx = sum(word[p] * 3 ** (5 - p) for p in range(6))
    assert Fraction(int(rv[idx]), rs) == building_count(g, word)


def test_bruteforce_sweep_keeps_one_prefix_chain():
    # one q^m array per distinct extras prefix peaked near 39 MB on this
    # input; the current prefix chain holds at most m - 1 of them
    tracemalloc.start()
    try:
        bruteforce_sweep(kite_graph(), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_long_walks_do_not_recurse():
    word = next(positive_words(complete_graph(2), 2000))
    assert word == (0, 1) * 1000


def test_word_validation():
    with pytest.raises(ValueError):
        building_count(K3, (0, 3))
    with pytest.raises(ValueError):
        reduced_count(K3, (-1,))
    # bools are not vertices, numpy integers are
    with pytest.raises(ValueError, match="bool"):
        building_count(K3, (True, False))
    with pytest.raises(ValueError, match="bool"):
        reduced_count(K3, (0, np.True_))
    with pytest.raises(ValueError):
        building_count(K3, (0.0, 1))
    assert building_count(K3, (np.int64(0), np.int8(1), np.uint16(0))) == 4
    assert reduced_count(K3, np.array([0, 1, 2])) == 6
    with pytest.raises(ValueError, match="outside"):
        building_count(K3, np.array([0, 3]))


def _scaled_reduced_by_classes(g, word):
    """R(x) D^(n-1) as the sum over constraint-edge classes of their non-path edges.

    A class of ``e`` non-path edges carries ``D^(n-1-e)``; ``e <= n-2``.
    """
    n = len(word)
    if n <= 1:
        return 1
    num = g._num
    den = g._den
    total = 0
    for pairs, count in constraint_edge_classes(n):
        extras = [num[word[i]][word[j]] for i, j in pairs if j > i + 1]
        total += count * den ** (n - 1 - len(extras)) * prod(extras)
    return total


@st.composite
def _weighted_charts(draw):
    q = draw(st.integers(min_value=1, max_value=4))
    weight = st.builds(Fraction, st.integers(min_value=0, max_value=7),
                       st.sampled_from([1, 2, 3, 5]))
    rows = [[draw(weight) for _ in range(q)] for _ in range(q)]
    word = draw(st.lists(st.integers(min_value=0, max_value=q - 1),
                         max_size=8))
    # up to three positions are free: they may take every vertex
    free = draw(st.sets(st.integers(min_value=0, max_value=7), max_size=3))
    chart = [tuple(range(q)) if p in free else (s,) for p, s in enumerate(word)]
    return WeightedGraph(rows), chart


@given(_weighted_charts())
@settings(max_examples=60, deadline=None)
def test_three_kernels_agree(case):
    # interval DP, memoized deletion recurrence and the sum over arrival
    # orders, on B and on R, with zero weights and loops allowed; a chart
    # with free positions is checked against its words, enumerated
    g, chart = case
    words = list(itertools.product(*chart))
    n = len(chart)
    den = g._den
    b_scale = den ** max(0, 2 * n - 2)
    b = sum(building_count_bruteforce(g, w) for w in words)
    assert Fraction(_interval_scaled(g, chart), b_scale) == b
    assert Fraction(sum(_scaled_building(g, w) for w in words), b_scale) == b
    r = sum(_scaled_reduced_by_classes(g, w) for w in words)
    assert _interval_scaled(g, chart, reduced=True) == r
    assert sum(_scaled_reduced(g, w) for w in words) == r


def test_long_word_factorization():
    rng = random.Random(60)
    g = complete_graph(4, Fraction(3, 2))
    word = [0]
    while len(word) < 60:
        word.append(rng.choice([v for v in range(4) if v != word[-1]]))
    word = tuple(word)
    assert building_count(g, word) == word_weight(g, word) * reduced_count(g, word)
    short = word[:14]
    chart = [(s,) for s in short]
    assert _interval_scaled(g, chart) == _scaled_building(g, short)
    assert _interval_scaled(g, chart, reduced=True) == _scaled_reduced(g, short)


def test_single_word_counts_leave_the_memo_empty():
    g = complete_graph(4)
    word = (0, 1, 2, 3, 0, 2, 1, 3, 1)
    building_count(g, word)
    reduced_count(g, word)
    gap_sum(g, word, word, 2)
    assert g._tcache == {}


def test_sweeps_fill_only_the_memo_of_reduced_counts():
    g = kite_graph()
    marginal(g, 5)
    assert not hasattr(g, "_bcache") and g._tcache
    g = complete_graph(3)
    check_k_dependence(g, 2, 2, 2)
    assert not hasattr(g, "_bcache") and g._tcache


def test_memo_has_no_size_cap():
    # sweeps are bounded where they are entered, so the memo keeps the row
    # of every prefix however large it has grown
    g = complete_graph(3)
    g._tcache.update(dict.fromkeys(range(400_000), 0))
    marginal(g, 8)
    assert all(u in g._tcache for u in positive_words(g, 7))


def _twin_tables(seed, count):
    """Looped random tables on three vertices, vertex 3 a copy of a random one."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        rows = [[Fraction(rng.randint(0, 4), rng.choice([1, 2, 3]))
                 for _ in range(3)] for _ in range(3)]
        copy = rng.randrange(3)
        for row in rows:
            row.append(row[copy])
        rows.append(list(rows[copy]))
        g = WeightedGraph(rows)
        assert g._twin == tuple(copy if v == 3 else v for v in range(4))
        graphs.append(g)
    return graphs


def test_memo_keyed_on_twin_classes_counts_like_the_chart():
    # the memo holds class words, the chart the words as given
    for g in _twin_tables(17, 3):
        for n in range(7):
            for w in itertools.product(range(4), repeat=n):
                assert _scaled_reduced(g, w) == _interval_scaled(
                    g, [(s,) for s in w], reduced=True)


def test_multipartite_memo_keeps_one_symbol_per_part():
    g = multipartite_graph(4, 2)
    marginal(g, 5)
    assert g._tcache and all(max(w) < 4 for w in g._tcache)


@pytest.mark.parametrize("g", _twin_tables(23, 3) + [multipartite_graph(4, 2)],
                         ids=["twin0", "twin1", "twin2", "k2222"])
def test_every_stored_row_counts_like_the_chart(g):
    # the sweeps fill the rows of positive prefixes; single lookups fill,
    # on a miss, the rows of every prefix they reach, zero-weight ones too
    q = g.vertex_count
    recurrence_sweep(g, 6)
    check_consistency(g, 5)
    rng = random.Random(q)
    for _ in range(20):
        _scaled_reduced(g, tuple(rng.randrange(q) for _ in range(7)))
    assert len(g._tcache) > 50
    for u, row in g._tcache.items():
        assert list(row) == [_interval_scaled(g, [(s,) for s in u + (a,)],
                                              reduced=True)
                             for a in range(q)], u
