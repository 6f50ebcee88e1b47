"""Graph model, constructors and structural predicates."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from insertproc import (ShiftOfFiniteType, WeightedGraph, block_projection,
                        bruteforce_sweep, building_count, check_consistency,
                        check_k_dependence, check_pair_power_invariance,
                        classify_multipartite, complete_graph,
                        constraint_edge_classes, constraint_graph, cycle_graph,
                        empirical_gap_independence, find_kite, gap_sum,
                        graph_from_json_dict, graph_to_json_dict,
                        has_directed_triangle, insertion_law,
                        insertion_marginal_gap, is_strongly_connected,
                        kite_graph, marginal, min_k_search, multipartite_graph,
                        pair_power_sum, path_graph, positive_words,
                        proper_coloring_windows, recurrence_sweep,
                        reduced_count_symbolic, regularity, sample_exact,
                        sample_insertion, sample_sft, stationarity_check,
                        triangles_per_edge, uniform_defect, uniform_weight)
from insertproc.cli import verify_identities
from insertproc.fixtures import GRAPH_FIXTURES, fixture_text, load_graph_fixture
from insertproc.graphs import _candidates, _completions


def _automorphisms(num, colors=None):
    """Every permutation of a table's indices that keeps each entry, listed.

    The search that the symmetry steps use, run to the end; with
    ``colors``, each index must also keep its color.  Its cost grows with
    the group: on a cycle of 100 vertices it takes seconds.
    """
    return tuple(sorted(_completions(num, _candidates(num, colors), {})))


def test_complete_graph_weights():
    g = complete_graph(3)
    assert g.weight(0, 1) == 1
    assert g.weight(1, 0) == 1
    assert g.weight(0, 0) == 0
    assert g.vertex_count == 3


def test_complete_graph_single_vertex():
    g = complete_graph(1)
    assert g.vertex_count == 1
    assert g.weight(0, 0) == 0


def test_complete_graph_half_weights():
    g = complete_graph(4, Fraction(1, 2))
    edges = list(g.positive_edges())
    assert len(edges) == 12
    assert all(w == Fraction(1, 2) for _, _, w in edges)


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


def test_multipartite_structure():
    g = multipartite_graph(3, 2)
    assert g.vertex_count == 6
    for i in range(6):
        assert len(g.out_neighbors(i)) == 4
        for j in range(6):
            expected = 1 if i % 3 != j % 3 else 0
            assert g.weight(i, j) == expected


def test_multipartite_r1_equals_complete():
    for q in (2, 3, 5):
        assert multipartite_graph(q, 1, Fraction(2, 3)) == complete_graph(q, Fraction(2, 3))


def test_multipartite_22_is_four_cycle():
    g = multipartite_graph(2, 2)
    assert g.vertex_count == 4
    assert regularity(g) == 2
    assert triangles_per_edge(g) == 0


def test_multipartite_rejects_zero():
    with pytest.raises(ValueError):
        multipartite_graph(0, 2)
    with pytest.raises(ValueError):
        multipartite_graph(2, 0)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        WeightedGraph([[0, -1], [1, 0]])


def test_uniform_weight_complete():
    report = uniform_weight(complete_graph(3))
    assert report.is_uniform
    assert report.w == 1
    assert report.violations == ()


def test_uniform_weight_asymmetric():
    g = WeightedGraph.from_weights(2, {(0, 1): 1, (1, 0): 2})
    report = uniform_weight(g)
    assert not report.is_uniform
    assert ((0, 1), Fraction(1)) in report.violations


def test_uniform_weight_loop():
    g = WeightedGraph.from_weights(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1})
    report = uniform_weight(g)
    assert not report.is_uniform
    assert ((0, 0), Fraction(1)) in report.violations


def test_uniform_weight_all_zero():
    report = uniform_weight(WeightedGraph.from_weights(3, {}))
    assert not report.is_uniform
    assert report.w is None


def test_uniform_weight_two_values():
    g = WeightedGraph.from_weights(3, {(0, 1): 1, (1, 0): 1, (1, 2): 2, (2, 1): 2})
    assert not uniform_weight(g).is_uniform


def test_directed_triangle_complete():
    witness = has_directed_triangle(complete_graph(3))
    assert witness is not None
    a, b, c = witness
    g = complete_graph(3)
    assert g.weight(a, b) * g.weight(b, c) * g.weight(a, c) > 0


def test_directed_triangle_two_cycle():
    g = WeightedGraph.from_weights(2, {(0, 1): 1, (1, 0): 1})
    assert has_directed_triangle(g) is None


def test_directed_triangle_loop():
    g = WeightedGraph.from_weights(2, {(0, 0): 1})
    assert has_directed_triangle(g) == (0, 0, 0)


def test_directed_triangle_bipartite_free():
    for g in (multipartite_graph(2, 2), multipartite_graph(2, 3), path_graph(5)):
        assert has_directed_triangle(g) is None


def test_strongly_connected():
    assert is_strongly_connected(complete_graph(4))
    assert is_strongly_connected(complete_graph(1))
    two_edges = WeightedGraph.from_weights(
        4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})
    assert not is_strongly_connected(two_edges)
    one_way = WeightedGraph.from_weights(2, {(0, 1): 1})
    assert not is_strongly_connected(one_way)


def test_find_kite_on_kite():
    assert find_kite(kite_graph()) == (0, 1, 2, 3)


def test_find_kite_none_on_complete_and_multipartite():
    assert find_kite(complete_graph(4)) is None
    assert find_kite(multipartite_graph(3, 2)) is None


def test_find_kite_rejects_directed_and_loops():
    with pytest.raises(ValueError):
        find_kite(WeightedGraph.from_weights(2, {(0, 1): 1}))
    with pytest.raises(ValueError):
        find_kite(WeightedGraph.from_weights(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1}))


def _kite_brute(g):
    """Independent induced-kite scan over unordered 4-subsets."""
    from itertools import combinations, permutations
    n = g.vertex_count
    adj = [[g.weight(i, j) > 0 for j in range(n)] for i in range(n)]
    found = []
    for four in combinations(range(n), 4):
        for d in four:
            rest = [v for v in four if v != d]
            for tri in permutations(rest):
                a, b, c = tri
                if (adj[a][b] and adj[b][c] and adj[a][c]
                        and adj[d][a] and not adj[d][b] and not adj[d][c]):
                    found.append(frozenset([(a,), (frozenset([b, c])), (d,)]))
    return bool(found)


def test_find_kite_matches_bruteforce_exhaustive():
    # all symmetric loopless graphs on 5 vertices, sampled densely on 6
    import itertools
    import random
    pairs5 = list(itertools.combinations(range(5), 2))
    rng = random.Random(7)
    masks = rng.sample(range(2 ** len(pairs5)), 200)
    for mask in masks:
        spec = {}
        for b, (i, j) in enumerate(pairs5):
            if mask >> b & 1:
                spec[(i, j)] = 1
                spec[(j, i)] = 1
        g = WeightedGraph.from_weights(5, spec)
        assert (find_kite(g) is not None) == _kite_brute(g)


def test_regularity():
    assert regularity(complete_graph(4)) == 3
    assert regularity(path_graph(3)) is None
    assert regularity(multipartite_graph(3, 2)) == 4
    assert regularity(WeightedGraph.from_weights(2, {})) == 0


def test_triangles_per_edge():
    assert triangles_per_edge(complete_graph(3)) == 1
    assert triangles_per_edge(complete_graph(4)) == 2
    assert triangles_per_edge(cycle_graph(4)) == 0
    assert triangles_per_edge(WeightedGraph.from_weights(3, {})) is None
    assert triangles_per_edge(kite_graph()) is None  # varies between edges


def test_classify_multipartite_fixtures():
    cls = classify_multipartite(multipartite_graph(3, 2))
    assert cls.is_complete_multipartite
    assert cls.q == 3 and cls.r == 2
    assert cls.parts == ((0, 3), (1, 4), (2, 5))

    cls = classify_multipartite(complete_graph(5))
    assert cls.is_complete_multipartite and cls.q == 5 and cls.r == 1

    assert not classify_multipartite(kite_graph()).is_complete_multipartite


def test_classify_multipartite_unequal_parts():
    # path on 3 vertices: non-adjacency classes {0, 2} and {1}
    cls = classify_multipartite(path_graph(3))
    assert cls.is_complete_multipartite
    assert cls.q == 2
    assert cls.r is None
    assert cls.parts == ((0, 2), (1,))


def test_block_projection_values():
    g = multipartite_graph(3, 2)
    cls = classify_multipartite(g)
    assert block_projection(g, cls, (0, 1, 5)) == (0, 1, 2)
    with pytest.raises(ValueError):
        block_projection(g, cls, (0, 9))


def test_block_projection_rejects_non_integer_symbols():
    # True and 1.0 would otherwise project as vertex 1
    g = multipartite_graph(2, 2)
    cls = classify_multipartite(g)
    for word in ([True, 0], [1.0, 2]):
        with pytest.raises(ValueError, match="non-integer vertices"):
            block_projection(g, cls, word)
    assert block_projection(g, cls, [np.int64(1), 2]) == (1, 0)


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 4), (2, 6)])
def test_block_projection_preserves_weights(q, r):
    g = multipartite_graph(q, r, Fraction(3, 4))
    cls = classify_multipartite(g)
    quotient = complete_graph(q, Fraction(3, 4))
    f = {v: block_projection(g, cls, (v,))[0] for v in range(q * r)}
    for i in range(q * r):
        for j in range(q * r):
            assert g.weight(i, j) == quotient.weight(f[i], f[j])


@pytest.mark.parametrize("name", ["k2", "k3", "k4", "k5", "k6", "kite",
                                  "cycle5", "path4"])
def test_fixtures_without_twins(name):
    assert load_graph_fixture(name)._twin is None


@pytest.mark.parametrize("name,q", [("k22", 2), ("k222", 3), ("k2222", 4)])
def test_multipartite_twins_are_the_parts(name, q):
    # the fixture puts vertex v in part v % q, so its least twin is v % q
    g = load_graph_fixture(name)
    assert g._twin == tuple(v % q for v in range(g.vertex_count))


def test_twins_need_equal_rows_and_columns():
    # equal rows but different columns, and the reverse: the loop at 0
    # weighs 1 and the loop at 1 weighs 2, so the vertices are not twins
    assert WeightedGraph([[1, 2], [1, 2]])._twin is None
    assert WeightedGraph([[1, 1], [2, 2]])._twin is None
    assert WeightedGraph([[1, 1, 0], [1, 1, 0], [3, 3, 0]])._twin == (0, 0, 2)


@pytest.mark.parametrize("q,r,w", [(2, 2, 1), (3, 2, 2), (4, 1, 1), (3, 3, 1)])
def test_multipartite_invariants(q, r, w):
    g = multipartite_graph(q, r, w)
    report = uniform_weight(g)
    assert report.is_uniform and report.w == w
    assert regularity(g) == (q - 1) * r
    cls = classify_multipartite(g)
    assert cls.is_complete_multipartite and cls.q == q and cls.r == r


def test_automorphisms_complete():
    auts = _automorphisms(complete_graph(3)._num)
    assert len(auts) == 6
    assert tuple(range(3)) in auts


def test_automorphisms_multipartite_count():
    # part permutations times within-part swaps: 3! * 2^3
    assert len(_automorphisms(multipartite_graph(3, 2)._num)) == 48


def test_automorphisms_preserve_weights():
    g = kite_graph()
    for p in _automorphisms(g._num):
        for i in range(4):
            for j in range(4):
                assert g.weight(i, j) == g.weight(p[i], p[j])


def test_automorphisms_are_every_permutation_that_keeps_the_table():
    # the backtracking search, against a filter over all q! permutations,
    # on seeded tables with and without planted symmetry; with a partial
    # map fixed, its first completion is the least permutation extending it
    rng = random.Random(7)
    for _ in range(80):
        q = rng.randint(1, 5)
        num = [[rng.choice([0, 0, 1, 2]) for _ in range(q)] for _ in range(q)]
        if rng.random() < 0.5:
            num = [[num[min(i, j)][max(i, j)] for j in range(q)]
                   for i in range(q)]
        if rng.random() < 0.3:
            num = [[int(i != j) for j in range(q)] for i in range(q)]
        colors = [rng.randrange(2) for _ in range(q)] if rng.random() < 0.4 else None
        expected = tuple(
            p for p in itertools.permutations(range(q))
            if all(num[i][j] == num[p[i]][p[j]] for i in range(q) for j in range(q))
            and (colors is None or all(colors[i] == colors[p[i]] for i in range(q))))
        assert _automorphisms(num, colors) == expected, (num, colors)
        for _ in range(4):
            fixed = dict(zip(rng.sample(range(q), rng.randint(1, q)),
                             rng.sample(range(q), q)))
            first = next((p for p in expected
                          if all(p[k] == u for k, u in fixed.items())), None)
            assert next(_completions(num, _candidates(num, colors), fixed),
                        None) == first, (num, colors, fixed)


def test_one_completion_lists_no_other():
    # K9 has 362,880 automorphisms; the first that swaps 0 and 8 is found
    # without listing the rest
    num = [[int(i != j) for j in range(9)] for i in range(9)]
    tracemalloc.start()
    try:
        first = next(_completions(num, _candidates(num), {0: 8, 8: 0}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert first == (8, 1, 2, 3, 4, 5, 6, 7, 0)


def test_json_roundtrip():
    g = WeightedGraph.from_weights(3, {(0, 1): Fraction(3, 2), (1, 2): 1})
    doc = graph_to_json_dict(g)
    assert doc["vertices"] == 3
    assert [0, 1, "3/2"] in doc["weights"]
    assert graph_from_json_dict(json.loads(json.dumps(doc))) == g


def test_one_table_keeps_the_weights():
    # the graph keeps only numerators over the lcm of the denominators, so
    # every spelling of one weight gives one graph
    spellings = [("1/2", "3"), ("2/4", "6/2"), (Fraction(1, 2), 3),
                 (Fraction(2, 4), Fraction(3))]
    graphs = [WeightedGraph.from_weights(2, {(0, 1): h, (1, 0): t})
              for h, t in spellings]
    assert all(g == graphs[0] and hash(g) == hash(graphs[0]) for g in graphs)
    g = graphs[0]
    assert g.weight(0, 1) == Fraction(1, 2) and g.weight(1, 0) == 3
    assert list(g.positive_edges()) == [(0, 1, Fraction(1, 2)), (1, 0, 3)]
    assert WeightedGraph([[0, 1], [2, 0]]) == WeightedGraph([["0", "1"],
                                                             ["2", "0"]])
    for other in ({(0, 1): "1/3", (1, 0): 3}, {(0, 1): "1/2", (1, 0): 4},
                  {(0, 1): "1/2", (1, 0): 3, (0, 0): 1}):
        assert WeightedGraph.from_weights(2, other) != g
    # equal numerators over different denominators
    assert complete_graph(2, "1/2") != complete_graph(2, "1/3")


@pytest.mark.parametrize("name", sorted(GRAPH_FIXTURES))
def test_fixture_file_is_its_graph_saved(name):
    text = json.dumps(graph_to_json_dict(load_graph_fixture(name)), indent=2,
                      sort_keys=True) + "\n"
    assert text == fixture_text(name)


def test_vertex_count_bound_refuses_before_allocating():
    # a sparse document of a few bytes names the dense table's size
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="table bound exceeded"):
            graph_from_json_dict({"vertices": 10 ** 9, "weights": [[0, 1, "1"]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16, peak
    # the least refused count: 3162**2 is within the bound
    with pytest.raises(ValueError, match="3163\\*\\*2 > 10000000"):
        WeightedGraph.from_weights(3163, {})


def test_sparse_document_builds_no_fraction_per_cell():
    # the zeros that from_weights fills in are plain ints and stay ints;
    # a Fraction in every cell of this table would peak at about 72 MB
    tracemalloc.start()
    try:
        g = graph_from_json_dict({"vertices": 1000, "weights": [[0, 1, "1"]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20, peak
    assert g.weight(0, 1) == 1 and g.weight(1, 0) == 0
    assert g.out_neighbors(0) == (1,) and g.in_neighbors(1) == (0,)


def test_int_cells_weigh_like_their_fractions():
    ints = WeightedGraph([[0, 2, 1], [3, 0, 0], [1, 1, 7]])
    assert ints == WeightedGraph([[Fraction(w) for w in row] for row in
                                  [[0, 2, 1], [3, 0, 0], [1, 1, 7]]])
    mixed = WeightedGraph([[0, "1/2"], [3, 1]])
    assert mixed._den == 2 and mixed._num == ((0, 1), (6, 2))
    assert mixed.weight(1, 0) == 3 and mixed.out_neighbors(0) == (1,)
    with pytest.raises(ValueError, match="negative weight -1"):
        WeightedGraph([[0, -1], [1, 0]])


def test_json_errors():
    with pytest.raises(ValueError):
        graph_from_json_dict({"vertices": 2})
    with pytest.raises(ValueError):
        graph_from_json_dict({"vertices": 0, "weights": []})
    with pytest.raises(ValueError):
        graph_from_json_dict({"vertices": 2, "weights": [[0, 5, "1"]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"vertices": 2, "weights": [[0, 1, 0.5]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"vertices": 2, "weights": [[0, 1, "1"], [0, 1, "2"]]})


@pytest.mark.parametrize("doc, message", [
    ({"vertices": True, "weights": []}, "positive integer"),
    ({"vertices": 2, "weights": [[False, 1, "1"]]}, "non-integer vertices"),
    ({"vertices": 2, "weights": [[0, True, "1"]]}, "non-integer vertices"),
    ({"vertices": 2, "weights": [[0, 1, True]]}, "bool"),
])
def test_json_rejects_bools(doc, message):
    with pytest.raises(ValueError, match=message):
        graph_from_json_dict(doc)


@pytest.mark.parametrize("weights", [
    {(True, False): 1},
    [(0, True, 1)],
    {(0.0, 1): 1},
    [("0", 1, 1)],
])
def test_from_weights_rejects_non_integer_indices(weights):
    # True and False would otherwise index as 1 and 0
    with pytest.raises(ValueError, match="non-integer vertices"):
        WeightedGraph.from_weights(2, weights)


def test_weight_rejects_bool_vertices():
    g = complete_graph(3)
    for i, j in ((True, False), (0, True), (False, 1)):
        with pytest.raises(ValueError, match="non-integer vertices"):
            g.weight(i, j)
    assert g.weight(np.int64(1), 0) == 1


def test_weight_rejects_float_vertices():
    g = complete_graph(3)
    for i, j in ((1.0, 2), (0, 2.0)):
        with pytest.raises(ValueError, match="non-integer vertices"):
            g.weight(i, j)
    with pytest.raises(ValueError, match="out of range"):
        g.weight(0, 3)


def test_neighbors_check_the_vertex():
    # bools, negative and float indices once read another vertex's tuple
    g = path_graph(3)
    for lookup in (g.out_neighbors, g.in_neighbors):
        for v in (True, 1.0):
            with pytest.raises(ValueError, match="non-integer vertices"):
                lookup(v)
        for v in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                lookup(v)
        assert lookup(np.int64(1)) == lookup(1) == (0, 2)


def test_from_weights_rejects_bool_vertex_count():
    for count in (True, False):
        with pytest.raises(ValueError, match="bool"):
            WeightedGraph.from_weights(count, {})


K3 = complete_graph(3)
_BATCH = sample_exact(K3, 3, 0, 20)

# (entry point, a call taking the size, the least size, a valid size); the
# sizes of every module's public functions go through graphs._size
_SIZES = [
    ("complete_graph", lambda n: complete_graph(n), 1, 3),
    ("multipartite_graph parts", lambda n: multipartite_graph(n, 2), 1, 2),
    ("multipartite_graph size", lambda n: multipartite_graph(2, n), 1, 2),
    ("path_graph", lambda n: path_graph(n), 1, 3),
    ("cycle_graph", lambda n: cycle_graph(n), 3, 4),
    ("from_weights", lambda n: WeightedGraph.from_weights(n, {}), 1, 2),
    ("positive_words", lambda n: list(positive_words(K3, n)), 0, 2),
    ("constraint_edge_classes", lambda n: constraint_edge_classes(n), 0, 3),
    ("bruteforce_sweep", lambda n: bruteforce_sweep(K3, n), 0, 3),
    ("recurrence_sweep", lambda n: recurrence_sweep(K3, n), 0, 3),
    ("check_consistency", lambda n: check_consistency(K3, n), 2, 3),
    ("pair_power_sum", lambda n: pair_power_sum(K3, 0, 1, n), 1, 3),
    ("check_pair_power_invariance",
     lambda n: check_pair_power_invariance(K3, n), 1, 3),
    ("uniform_defect", lambda n: uniform_defect(n, 2), 3, 4),
    ("gap_sum", lambda n: gap_sum(K3, (0,), (1,), n), 0, 1),
    ("check_k_dependence k", lambda n: check_k_dependence(K3, n, 2, 2), 0, 1),
    ("check_k_dependence left",
     lambda n: check_k_dependence(K3, 1, n, 2), 1, 2),
    ("check_k_dependence right",
     lambda n: check_k_dependence(K3, 1, 2, n), 1, 2),
    ("min_k_search", lambda n: min_k_search(K3, n, 2, 2), 0, 2),
    ("marginal", lambda n: marginal(K3, n), 1, 3),
    ("stationarity_check", lambda n: stationarity_check(K3, n), 1, 2),
    ("sample_exact window", lambda n: sample_exact(K3, n, 0, 5), 1, 3),
    ("sample_exact count", lambda n: sample_exact(K3, 3, 0, n), 0, 5),
    ("sample_insertion", lambda n: sample_insertion(K3, n, 0), 0, 4),
    ("insertion_law", lambda n: insertion_law(K3, n), 0, 3),
    ("insertion_marginal_gap", lambda n: insertion_marginal_gap(K3, n), 1, 3),
    ("empirical_gap_independence",
     lambda n: empirical_gap_independence(_BATCH, n), 0, 1),
    ("ShiftOfFiniteType q",
     lambda n: ShiftOfFiniteType(n, 2, [(0, 1), (1, 0)]), 1, 2),
    ("ShiftOfFiniteType n",
     lambda n: ShiftOfFiniteType(2, n, [(0, 1)]), 1, 2),
    ("proper_coloring_windows", lambda n: proper_coloring_windows(n), 2, 3),
    ("sample_sft window",
     lambda n: sample_sft(proper_coloring_windows(3), n, 0, 4), 1, 3),
    ("sample_sft count",
     lambda n: sample_sft(proper_coloring_windows(3), 3, 0, n), 0, 4),
    ("reduced_count_symbolic", lambda n: reduced_count_symbolic(n), 2, 3),
    ("verify_identities max_len", lambda n: verify_identities(max_len=n), 2, 3),
    ("verify_identities threads",
     lambda n: verify_identities(max_len=2, threads=n), 1, 1),
]


@pytest.mark.parametrize("call, least, valid", [case[1:] for case in _SIZES],
                         ids=[case[0] for case in _SIZES])
def test_every_size_is_one_check(call, least, valid):
    # True would count as 1, and a float exponent would give a float
    # result where every verification path is exact
    for bad in (True, False, np.True_, float(valid), valid + 0.5, "2",
                least - 1):
        with pytest.raises(ValueError):
            call(bad)
    # the output, as repr shows it, is the plain int's: no numpy scalar
    # is stored in a report
    assert repr(call(np.int64(valid))) == repr(call(valid))
    assert repr(call(np.uint8(valid))) == repr(call(valid))


def test_numpy_bools_are_not_vertices():
    sink = WeightedGraph.from_weights(2, {(1, 0): 1})
    for call in (lambda: K3.weight(np.True_, 0),
                 lambda: K3.weight(0, np.False_),
                 lambda: K3.out_neighbors(np.True_),
                 lambda: building_count(K3, (0, np.True_)),
                 lambda: gap_sum(K3, (0,), (np.True_,), 1),
                 lambda: ShiftOfFiniteType(2, 2, [(np.True_, 0), (0, 1)])):
        with pytest.raises(ValueError, match="bool"):
            call()
    with pytest.raises(ValueError, match="non-integer"):
        marginal(K3, 2).probability((np.True_, 0))
    # an arrival order's positions are integers too; (True, 0) would link
    # position 0 to position True
    for order in ((True, 0), (1.0, 0), (np.True_, 0)):
        with pytest.raises(ValueError, match="non-integer"):
            constraint_graph(K3, (0, 1), order)
    assert (constraint_graph(K3, (0, 1), (np.int64(1), 0))
            == constraint_graph(K3, (0, 1), (1, 0)))
    # vertex 0 of the sink graph has no out-edge, so j must be checked
    # before the sum over out-edges
    for i, j in ((0, 99), (99, 0), (0, True), (0, 1.0)):
        with pytest.raises(ValueError, match="vertex"):
            pair_power_sum(sink, i, j, 2)
    with pytest.raises(ValueError):
        pair_power_sum(K3, 0, 1, 2.5)


def test_from_weights_accepts_numpy_indices():
    g = WeightedGraph.from_weights(2, {(np.int64(0), np.int32(1)): "3/2"})
    assert g.weight(0, 1) == Fraction(3, 2)
    assert g == WeightedGraph.from_weights(2, [(0, 1, Fraction(3, 2))])


def test_from_weights_rejects_duplicate_triples():
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph.from_weights(2, [(0, 1, 1), (1, 0, 1), (0, 1, 2)])
