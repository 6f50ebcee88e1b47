"""Building counts: constructions, recurrences, and the brute-force oracle."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import prod
from operator import itemgetter, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insertproc import (WeightedGraph, building_count,
                        building_count_bruteforce, building_weight,
                        check_k_dependence, complete_graph, constraint_graph,
                        check_consistency, cycle_graph, kite_graph,
                        multipartite_graph, path_graph, block_projection,
                        classify_multipartite, gap_sum, marginal,
                        positive_words, reduced_count, word_weight)
from insertproc import buildings, dependence
from insertproc.consistency import (ConsistencyCounterexample,
                                    ConsistencyReport)
from insertproc.buildings import (_candidates, _chains, _completions,
                                  _fill_row, _interval_scaled, _least_words,
                                  _orbits, _prefix_row, _scaled_building,
                                  _scaled_buildings, _scaled_reduced, _walks,
                                  bruteforce_sweep, constraint_edge_classes,
                                  recurrence_sweep)
from insertproc.fixtures import GRAPH_FIXTURES

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


# the oracle where positive words are sparse and where they are dense, to
# length 6, with the first length held in an object array (past 6: none)
_ORACLE_TABLES = {
    "path4": (path_graph(4), 7),
    "sink": (WeightedGraph([[0, 1, 2], [Fraction(1, 2), 0, 0], [0, 0, 0]]), 7),
    "one-vertex": (WeightedGraph([[0]]), 7),
    "one-loop": (WeightedGraph([[Fraction(3, 2)]]), 7),
    "looped": (_random_graph(random.Random(5), 3, with_loops=True), 7),
    "object": (WeightedGraph([[0 if i == j else Fraction(97, 16)
                               for j in range(3)] for i in range(3)]), 6),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_TABLES))
def test_bruteforce_sweep_is_zero_off_the_positive_words(name):
    g, wide = _ORACLE_TABLES[name]
    sweep = bruteforce_sweep(g, 6)
    for m in range(7):
        values, scale = sweep[m]
        assert values.dtype == (object if m >= wide else np.int64), m
        words = itertools.product(range(g.vertex_count), repeat=m)
        for idx, word in enumerate(words):
            count = Fraction(int(values[idx]), scale)
            assert count == building_count_bruteforce(g, word), word
            if word_weight(g, word) == 0:
                assert values[idx] == 0, word
            else:
                assert count > 0, word


def test_sweeps_refuse_before_allocating():
    # 4**13 words would be an object array of 67 M entries, and length 9
    # would enumerate 9! arrival orders
    tracemalloc.start()
    try:
        for call in (lambda: recurrence_sweep(K4, 13),
                     lambda: recurrence_sweep(K4, 10 ** 9),
                     lambda: bruteforce_sweep(complete_graph(8), 8)):
            with pytest.raises(ValueError, match="enumeration bound exceeded"):
                call()
        for call in (lambda: bruteforce_sweep(complete_graph(2), 9),
                     lambda: constraint_edge_classes(9)):
            with pytest.raises(ValueError, match="brute-force bound 8"):
                call()
        for call in (lambda: recurrence_sweep(K4, -1),
                     lambda: bruteforce_sweep(K4, -1),
                     lambda: constraint_edge_classes(-1)):
            with pytest.raises(ValueError, match="nonnegative"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16, peak
    # the largest accepted lengths
    assert len(recurrence_sweep(complete_graph(2), 8)[8][0]) == 2 ** 8
    assert len(bruteforce_sweep(complete_graph(2), 8)[8][0]) == 2 ** 8


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
    # of every orbit-least prefix however large it has grown
    g = complete_graph(3)
    g._tcache.update(dict.fromkeys(range(400_000), 0))
    marginal(g, 8)
    least = list(_least_words(g, 7))
    assert least and all(u in g._tcache for u in least)


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


def _walk_reference(g, n):
    """The prefix walk without symmetry: every positive prefix reads its own row."""
    if n <= 1:
        return dict.fromkeys(positive_words(g, n), 1)
    num, den, out, twin, cache = g._num, g._den, g._out, g._twin, g._tcache
    masses = {}
    stack = [((v,), 1, _prefix_row(g, (v,)))
             for v in reversed(range(g.vertex_count))]
    while stack:
        u, spine, row = stack.pop()
        last = u[-1]
        links = num[last]
        if len(u) == n - 1:
            for a in out[last]:
                masses[u + (a,)] = spine * links[a] * row[a]
            continue
        for a in reversed(out[last]):
            w = u + (a,)
            key = w if twin is None else itemgetter(*w)(twin)
            stack.append((w, spine * links[a],
                          cache.get(key) or _fill_row(cache, num, den, key)))
    return masses


def _relabeled(rows, rng):
    q = len(rows)
    perm = list(range(q))
    rng.shuffle(perm)
    return WeightedGraph([[rows[perm[i]][perm[j]] for j in range(q)]
                          for i in range(q)])


def _symmetric_tables(seed):
    """Seeded tables with planted symmetry, each relabeled at random.

    Complete and complete multipartite graphs (equal and unequal parts),
    weighted circulants, directed cycles, the same with loops, and tables
    with a zero row or a zero column.
    """
    rng = random.Random(seed)
    tables = []
    for q in (2, 3, 4, 5):
        w = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        tables.append([[0 if i == j else w for j in range(q)] for i in range(q)])
    for sizes in ((2, 2), (1, 2, 2), (2, 2, 2), (1, 1, 3), (1, 1, 2, 2)):
        part = [p for p, s in enumerate(sizes) for _ in range(s)]
        tables.append([[0 if a == b else 1 for b in part] for a in part])
    for q in (3, 4, 5, 6):
        for _ in range(2):
            shifts = rng.sample(range(1, q), rng.randint(1, q - 1))
            weights = {s: Fraction(rng.randint(1, 4), rng.randint(1, 2))
                       for s in shifts}
            tables.append([[weights.get((j - i) % q, 0) for j in range(q)]
                           for i in range(q)])
    for q in (3, 4, 5):
        tables.append([[1 if j == (i + 1) % q else 0 for j in range(q)]
                       for i in range(q)])
    for rows in list(tables[-6:]):
        tables.append([[2 if i == j else w for j, w in enumerate(row)]
                       for i, row in enumerate(rows)])
    for rows in (tables[2], tables[9]):
        q = len(rows)
        # a vertex that nothing leaves, and one that nothing enters
        tables.append([list(r) + [1] for r in rows] + [[0] * (q + 1)])
        tables.append([list(r) + [0] for r in rows] + [[1] * q + [0]])
    return [_relabeled(rows, rng) for rows in tables]


def _look_alike_tables(seed):
    """Seeded tables whose vertices all have the same sorted row and column.

    Random 3-regular graphs on 8 vertices, regular tournaments on 7 and 9,
    and two tables with two vertices of equal rows whose columns differ,
    so that exchanging them is no symmetry; all relabeled.  Some have
    symmetries and some only the identity, and the symmetry search must
    try maps that fail.
    """
    rng = random.Random(seed)
    tables = []
    while len(tables) < 3:
        stubs = [v for v in range(8) for _ in range(3)]
        rng.shuffle(stubs)
        rows = [[0] * 8 for _ in range(8)]
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or rows[a][b]:
                break
            rows[a][b] = rows[b][a] = 1
        else:
            tables.append(rows)
    for q in (7, 9):
        rows = [[int(0 < (j - i) % q <= q // 2) for j in range(q)]
                for i in range(q)]
        for _ in range(60):
            # reversing a directed triangle keeps every in- and out-degree
            a, b, c = rng.sample(range(q), 3)
            if rows[a][b] and rows[b][c] and rows[c][a]:
                rows[a][b] = rows[b][c] = rows[c][a] = 0
                rows[b][a] = rows[c][b] = rows[a][c] = 1
        tables.append(rows)
    tables.append([[0, 0, 0, 2], [0, 0, 0, 2], [0, 1, 2, 2], [1, 0, 0, 0]])
    tables.append([[1, 0, 1, 0], [0, 1, 1, 0], [1, 2, 1, 1], [2, 1, 2, 0]])
    return [_relabeled(rows, rng) for rows in tables]


def test_look_alike_tables_reach_both_outcomes_of_the_search():
    groups = [len(_class_group(g)) for g in _look_alike_tables(1)]
    assert 1 in groups and max(groups) > 1, groups


def _sweep_cases():
    graphs = [make() for _, make in sorted(GRAPH_FIXTURES.items())]
    return (graphs + _symmetric_tables(5) + _twin_tables(31, 4)
            + _look_alike_tables(1))


def _class_group(g):
    """Every size-keeping automorphism of the class graph, listed, as vertex maps."""
    reps, size = _orbits(g).reps, _orbits(g).size
    table = [[g._num[a][b] for b in reps] for a in reps]
    maps = []
    for p in _completions(table, _candidates(table, [size[a] for a in reps]),
                          {}):
        image = list(range(g.vertex_count))
        for a, i in zip(reps, p):
            image[a] = reps[i]
        maps.append(tuple(image))
    return maps


def test_planted_symmetry_reaches_the_orbit_walk():
    for g in _symmetric_tables(5):
        assert len(_class_group(g)) > 1
        assert _orbits(g).root is not None


def test_orbit_walk_matches_the_plain_walk():
    # values and lexicographic order, on a cold memo and on one the other
    # walk has filled
    for g in _sweep_cases():
        q = g.vertex_count
        for n in range(0, 7):
            if q ** n > 20_000:
                break
            cold = WeightedGraph([[Fraction(v, g._den) for v in row]
                                  for row in g._num])
            expected = list(_walk_reference(cold, n).items())
            assert list(_scaled_buildings(g, n).items()) == expected, (g, n)
            assert list(_scaled_buildings(cold, n).items()) == expected, (g, n)


def test_orbit_walk_fills_only_orbit_least_prefixes():
    # the longest rows the walk reads are its own lookups, which it makes
    # only for the least word of each prefix's orbit
    for g in (K4, complete_graph(5), cycle_graph(5), kite_graph(),
              multipartite_graph(3, 2)):
        g = WeightedGraph([[g.weight(a, b) for b in range(g.vertex_count)]
                           for a in range(g.vertex_count)])
        assert _orbits(g).root is not None
        _scaled_buildings(g, 6)
        longest = sorted(u for u in g._tcache if len(u) == 5)
        assert longest == list(_least_words(g, 5)), g


def _orbit_reps_reference(words, group):
    """Lexicographically least representative of each orbit, by a visited set."""
    visited, reps = set(), []
    for w in words:
        if w not in visited:
            reps.append(w)
            visited.update(tuple(p[s] for s in w) for p in group)
    return reps


def test_least_words_are_the_orbit_representatives():
    # the searched steps against orbits of the listed group
    routes = set()
    for g in _verifier_cases():
        reps, out = _orbits(g).reps, _orbits(g).out
        group = _class_group(g)
        assert (_orbits(g).root is None) == (len(group) == 1), g
        routes.add((len(group) == 1, g._twin is None))
        for n in range(0, 6):
            words = list(_walks(out, n, reps))
            assert list(_least_words(g, n)) == (
                _orbit_reps_reference(words, group)), (g, n)
    # the plain walk (no twins, no symmetry) and the pruned walk with
    # and without a symmetry are each taken
    assert routes == {(True, True), (True, False), (False, True),
                      (False, False)}


def test_chains_carry_the_least_image_its_relabeling_and_the_link_product():
    # the walk of every class chain from the root: each image is the least
    # word of its orbit under the listed group, pi takes the word there, and
    # the weight multiplies the links; with least, the walk yields exactly
    # the chains whose pi stays the identity
    for g in _verifier_cases():
        orbits = _orbits(g)
        reps, out = orbits.reps, orbits.out
        group = _class_group(g)
        links = [[w * s for w, s in zip(row, orbits.size)] for row in g._num]
        head = [v + 2 for v in range(g.vertex_count)]
        for n in range(0, 6):
            if len(reps) ** n > 5_000:
                break
            full = list(_chains(orbits, out, links, n, reps, head,
                                orbits.root, None))
            assert [w for w, _, _, _ in full] == list(_walks(out, n, reps))
            for word, weight, image, pi in full:
                assert image == min(tuple(p[s] for s in word) for p in group)
                assert image == (word if pi is None
                                 else tuple(pi[s] for s in word)), (g, word)
                assert weight == prod(
                    [head[s] for s in word[:1]]
                    + [links[a][b] for a, b in zip(word, word[1:])])
            least = list(_chains(orbits, out, links, n, reps, head,
                                 orbits.root, None, least=True))
            assert least == [t for t in full if t[3] is None], (g, n)


def test_symmetry_steps_are_kept_with_the_graph(monkeypatch):
    # a second sweep on the same graph looks for no step; an equal graph
    # built anew looks for its own
    for g in (complete_graph(5), cycle_graph(5)):
        first = marginal(g, 4)
        steps = dict(_orbits(g).steps)
        looked = []
        step = buildings._Orbits.step

        def counted(self, fixed, b):
            looked.append((fixed, b))
            return step(self, fixed, b)

        monkeypatch.setattr(buildings._Orbits, "step", counted)
        assert marginal(g, 4) == first
        assert not looked and _orbits(g).steps == steps
        assert marginal(type(g)([[g.weight(a, b) for b in range(5)]
                                 for a in range(5)]), 4) == first
        assert len(looked) == len(steps)
        monkeypatch.undo()


@pytest.mark.parametrize("g", [K4, cycle_graph(5)], ids=["k4", "cycle5"])
def test_recurrence_sweep_matches_the_brute_force_to_length_7(g):
    rec = recurrence_sweep(g, 7)
    bf = bruteforce_sweep(g, 7)
    for m in range(8):
        (rv, rs), (bv, bs) = rec[m], bf[m]
        assert rs % bs == 0
        assert [int(a) for a in rv] == [int(b) * (rs // bs) for b in bv], m


# The verifier sweeps on the orbit walk: consistency words and gap-sum
# middles, against test-side copies of the sweeps that walk every class word

def _consistency_reference(g, max_len):
    """``check_consistency`` over every class word, as before the orbit walk."""
    den2 = g._den * g._den
    orbits = _orbits(g)
    reps, size, out = orbits.reps, orbits.size, orbits.out
    into = [[v for v in col if size[v]] for col in g._in]
    right_links = [[w * s for w, s in zip(row, size)] for row in g._num]
    left_links = [[s * w for w in row] for row, s in zip(g._num, size)]
    constants = {}
    for n in range(1, max_len):
        anchor = None
        for word in _walks(out, n, reps):
            base = _scaled_reduced(g, word)
            right = sum(map(mul, right_links[word[-1]], _prefix_row(g, word)))
            left = sum(left_links[u][word[0]] * _scaled_reduced(g, (u,) + word)
                       for u in into[word[0]])
            if anchor is None:
                anchor = right, base
                expected = Fraction(right, base * den2)
                if right:
                    constants[n] = expected
            for side, total in (("right", right), ("left", left)):
                if total * anchor[1] != anchor[0] * base:
                    return ConsistencyReport(max_len, constants,
                                             ConsistencyCounterexample(
                                                 word, side,
                                                 Fraction(total, base * den2),
                                                 expected))
        if anchor is None:
            return ConsistencyReport(max_len, constants, None, degenerate_at=n)
    return ConsistencyReport(max_len, constants, None, None)


def _unequal_multipartite():
    graphs = []
    for sizes in ((1, 1, 2), (1, 2, 3), (1, 1, 1, 2), (1, 2, 2, 3), (2, 3)):
        part = [p for p, s in enumerate(sizes) for _ in range(s)]
        graphs.append(WeightedGraph([[0 if a == b else 1 for b in part]
                                     for a in part]))
    return graphs


def _random_tables(seed, count):
    """Random 3- to 5-vertex tables with weights in [1/8, 3/2], some looped."""
    rng = random.Random(seed)
    return [WeightedGraph([[Fraction(rng.randint(1, 12), 8) if a != b
                            else Fraction(rng.randint(0, 6), 8) * (i % 3 == 0)
                            for b in range(q)] for a in range(q)])
            for i, q in enumerate(rng.choice((3, 4, 5)) for _ in range(count))]


def _verifier_cases():
    return _sweep_cases() + _unequal_multipartite() + _random_tables(3, 12)


def _copy(g):
    return WeightedGraph([[Fraction(v, g._den) for v in row]
                          for row in g._num])


def test_consistency_reports_match_the_sweep_over_every_class_word():
    for g in _verifier_cases():
        for max_len in range(2, 9):
            if g.vertex_count ** max_len > 50_000:
                break
            assert check_consistency(_copy(g), max_len) == (
                _consistency_reference(_copy(g), max_len)), (g, max_len)


def _middle_sum_reference(g, x, y, k):
    """The gap sum over every class middle, each read on the row of ``x W``."""
    orbits = _orbits(g)
    links = [[w * s for w, s in zip(row, orbits.size)] for row in g._num]
    total = 0
    for mid in _walks(orbits.out, k, orbits.out[x[-1]]):
        weight, a = 1, x[-1]
        for c in mid:
            weight *= links[a][c]
            a = c
        if g._num[a][y[0]]:
            total += weight * g._num[a][y[0]] * _scaled_reduced(g, x + mid + y)
    return total


def test_middle_sums_match_the_walk_over_every_middle():
    # every orbit-least x and every class word y up to length 3, at
    # k = 0-3, on the memo as the sweep leaves it
    for g in _verifier_cases():
        orbits = _orbits(g)
        classes = len(orbits.reps)
        ys = [y for m in (1, 2, 3) for y in _walks(orbits.out, m, orbits.reps)]
        for k in range(4):
            for n in (1, 2, 3):
                if classes ** (n + k + 3) > 20_000:
                    break
                for x in _least_words(g, n):
                    terms = dependence._middles(orbits, x, k)
                    for y in ys:
                        assert dependence._reduced_gap_sum(g, terms, y) == (
                            _middle_sum_reference(g, x, y, k)), (g, x, y, k)


def _searched_root(g):
    """``_fixing(0)`` of a fresh :class:`_Orbits`, by the search alone."""
    orbits = buildings._Orbits(g)
    reps = orbits.reps
    orbits._index = dict(zip(reps, range(len(reps))))
    orbits._candidates = _candidates(orbits._table,
                                     [orbits.size[a] for a in reps])
    return orbits._fixing(0)


def _colliding_tables(seed):
    """Seeded tables with equal row sums, some also with equal sorted rows.

    Small weights make both collisions common; most have no symmetry.
    """
    rng = random.Random(seed)
    tables = []
    while len(tables) < 40:
        q = rng.choice((3, 4, 5))
        g = WeightedGraph([[rng.randint(0, 2) for _ in range(q)]
                           for _ in range(q)])
        sums = [sum(row) for row in g._num]
        if len(set(sums)) < q:
            tables.append(g)
    return tables


def test_trivial_group_check_agrees_with_the_search():
    cases = (_colliding_tables(2) + _verifier_cases() + _twin_tables(41, 6))
    trivial = {True: 0, False: 0}
    for g in cases:
        orbits = _orbits(g)
        root = orbits.root
        assert root == _searched_root(g), g
        assert (root is None) == (len(_class_group(g)) == 1), g
        reps = orbits.reps
        table = [[g._num[a][b] for b in reps] for a in reps]
        distinct = (len({sum(r) for r in table}) == len(reps)
                    or len({tuple(sorted(r)) for r in table}) == len(reps))
        # the search runs only where rows collide
        searched = hasattr(orbits, "_candidates")
        assert searched != distinct, g
        if root is None:
            trivial[searched] += 1
    # both routes to the identity group are taken: the cheap check and,
    # on tables whose rows collide, the search
    assert trivial[True] and trivial[False], trivial


def test_orbit_sweeps_fill_fewer_rows():
    # the work before the orbit walks was 4,368, 164 and 39,360 rows
    g = complete_graph(4)
    marginal(g, 8)
    assert len(g._tcache) == 805
    g = complete_graph(5)
    report = check_k_dependence(g, 3, 3, 3)
    assert len(g._tcache) == 32
    cx = report.counterexample
    assert (cx.x, cx.y, cx.lhs, cx.expected) == ((0,), (1,), 4200, 4144)
    g = complete_graph(4)
    assert check_consistency(g, 10).verified
    assert len(g._tcache) == 10_932
    g = multipartite_graph(4, 2)
    assert check_k_dependence(g, 1, 4, 4).verified
    assert len(g._tcache) == 2_451
