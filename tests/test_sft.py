"""Shifts of finite type, de Bruijn graphs, and the projected process."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from insertproc import (ShiftOfFiniteType, check_consistency, check_lr,
                        de_bruijn, de_bruijn_windows, has_directed_triangle,
                        marginal, not_finitely_dependent_certificate, project,
                        proper_coloring_windows, sample_sft,
                        sft_from_json_dict, sft_to_json_dict)
from insertproc.fixtures import SFT_FIXTURES, load_sft_fixture


def test_validation():
    with pytest.raises(ValueError):
        ShiftOfFiniteType.from_windows(2, [(0, 0)])
    with pytest.raises(ValueError):
        ShiftOfFiniteType.from_windows(2, [])
    with pytest.raises(ValueError):
        ShiftOfFiniteType.from_windows(2, [(0, 2)])
    with pytest.raises(ValueError):
        ShiftOfFiniteType.from_windows(2, [(0, 1), (1, 0, 1)])


def test_de_bruijn_two_cycle():
    s = ShiftOfFiniteType.from_windows(2, [(0, 1), (1, 0)])
    g = de_bruijn(s)
    assert g.vertex_count == 2
    assert g.weight(0, 1) == 1 and g.weight(1, 0) == 1
    assert g.weight(0, 0) == 0 and g.weight(1, 1) == 0


def test_de_bruijn_cost_does_not_grow_with_the_alphabet():
    s = ShiftOfFiniteType(10 ** 9, 2, [[0, 1], [1, 0]])
    assert de_bruijn(s) == de_bruijn(ShiftOfFiniteType(2, 2, [[0, 1], [1, 0]]))
    assert len(sample_sft(s, 3, 1, 2)) == 2


@pytest.mark.parametrize("name", sorted(SFT_FIXTURES))
def test_de_bruijn_links_every_overlap(name):
    s = load_sft_fixture(name)
    windows = de_bruijn_windows(s)
    g = de_bruijn(s)
    for i, a in enumerate(windows):
        for j, b in enumerate(windows):
            assert g.weight(i, j) == (a[1:] == b[:-1])


def test_de_bruijn_coloring():
    s = proper_coloring_windows(3)
    g = de_bruijn(s)
    windows = de_bruijn_windows(s)
    assert g.vertex_count == 6
    index = {w: i for i, w in enumerate(windows)}
    for (a, b) in windows:
        for c in range(3):
            expected = 1 if (b, c) in s.allowed else 0
            assert g.weight(index[(a, b)], index.get((b, c), 0)) in (0, 1)
            if expected:
                assert g.weight(index[(a, b)], index[(b, c)]) == 1
    # every vertex has in- and out-degree two
    assert all(len(g.out_neighbors(v)) == 2 for v in range(6))
    assert all(len(g.in_neighbors(v)) == 2 for v in range(6))


def test_de_bruijn_never_has_directed_triangle():
    # exhaustive over all loopless window sets for tiny alphabets, then a
    # random sample of larger ones
    import itertools
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        pool = [t for t in itertools.product(range(q), repeat=n)
                if len(set(t)) > 1]
        for r in range(1, len(pool) + 1):
            if q == 3 and r > 3:
                break
            for subset in itertools.combinations(pool, r):
                s = ShiftOfFiniteType.from_windows(q, subset)
                assert has_directed_triangle(de_bruijn(s)) is None
    rng = random.Random(0)
    pool = [t for t in itertools.product(range(3), repeat=3) if len(set(t)) > 1]
    for _ in range(300):
        size = rng.randint(1, len(pool))
        s = ShiftOfFiniteType.from_windows(3, rng.sample(pool, size))
        assert has_directed_triangle(de_bruijn(s)) is None


def test_check_lr_values():
    assert check_lr(proper_coloring_windows(3)).K == 2
    assert check_lr(ShiftOfFiniteType.from_windows(2, [(0, 1), (1, 0)])).K == 1
    report = check_lr(ShiftOfFiniteType.from_windows(3, [(0, 1), (0, 2), (1, 0)]))
    assert not report.is_constant
    assert report.violation is not None


def test_check_lr_matches_de_bruijn_consistency():
    # the window-count condition and the graph-side verifier agree on
    # random small shifts whenever the graph is non-degenerate
    import itertools
    rng = random.Random(42)
    pool = [t for t in itertools.product(range(3), repeat=2) if len(set(t)) > 1]
    checked = 0
    for _ in range(200):
        size = rng.randint(1, len(pool))
        s = ShiftOfFiniteType.from_windows(3, rng.sample(pool, size))
        lr = check_lr(s)
        report = check_consistency(de_bruijn(s), 4)
        if report.degenerate_at is not None and lr.is_constant:
            # with K = 0 the graph runs out of words immediately
            assert lr.K == 0
            continue
        assert lr.is_constant == report.verified
        if lr.is_constant:
            checked += 1
            assert all(c == 2 * lr.K for c in report.constants.values())
    assert checked > 0


def test_de_bruijn_consistency_constants_coloring():
    report = check_consistency(de_bruijn(proper_coloring_windows(3)), 5)
    assert report.verified
    assert all(c == 4 for c in report.constants.values())


def test_project():
    assert project([(0, 1), (1, 0), (0, 1)]) == (0, 1, 0, 1)
    assert project([(2, 0, 1)]) == (2, 0, 1)
    with pytest.raises(ValueError) as err:
        project([(0, 1), (0, 1)])
    assert "0" in str(err.value)
    with pytest.raises(ValueError):
        project([])


def test_sample_sft_coloring():
    s = proper_coloring_windows(3)
    words = sample_sft(s, 5, 3, 100)
    assert len(words) == 100
    assert all(len(w) == 6 for w in words)
    for w in words:
        for i in range(len(w) - 1):
            assert (w[i], w[i + 1]) in s.allowed
    # deterministic
    assert words == sample_sft(s, 5, 3, 100)


def test_sample_sft_batch_is_pinned():
    # drawn before the exact sampler's draw was inlined
    words = sample_sft(proper_coloring_windows(3), 5, 11, 20)
    assert ["".join(map(str, w)) for w in words] == [
        "210121", "210120", "202020", "102021", "210120", "020120", "202102",
        "102102", "121020", "020102", "102020", "012102", "120121", "210202",
        "121201", "121012", "101210", "102021", "201210", "121210"]


def test_sample_sft_alternating():
    s = proper_coloring_windows(2)
    words = sample_sft(s, 4, 0, 50)
    assert set(words) <= {(0, 1, 0, 1, 0), (1, 0, 1, 0, 1)}


def test_sample_sft_window_one():
    s = proper_coloring_windows(3)
    words = sample_sft(s, 1, 5, 200)
    assert set(words) <= s.allowed
    assert all(len(w) == 2 for w in words)


def test_sample_sft_requires_lr():
    bad = ShiftOfFiniteType.from_windows(3, [(0, 1), (0, 2), (1, 0)])
    with pytest.raises(ValueError):
        sample_sft(bad, 3, 0, 10)


def test_alternating_projection_is_parity():
    # the projected two-letter process puts mass 1/2 on each alternating
    # word and stays dependent at every gap
    s = proper_coloring_windows(2)
    g = de_bruijn(s)
    windows = de_bruijn_windows(s)
    for m in range(1, 9):
        table = marginal(g, m).table
        projected = {}
        for path, p in table.items():
            word = project([windows[v] for v in path])
            projected[word] = projected.get(word, Fraction(0)) + p
        assert len(projected) == 2
        assert all(p == Fraction(1, 2) for p in projected.values())
        length = m + 1
        for gap in range(0, length - 1):
            joint = {}
            for word, p in projected.items():
                key = (word[0], word[gap + 1])
                joint[key] = joint.get(key, Fraction(0)) + p
            # product law would give mass 1/4 to four pairs
            assert any(p != Fraction(1, 4) for p in joint.values())


def test_certificates():
    for s in (proper_coloring_windows(3), proper_coloring_windows(2),
              ShiftOfFiniteType.from_windows(3, [(0, 1), (1, 2), (2, 0)])):
        cert = not_finitely_dependent_certificate(s)
        assert cert["verdict"] == "not_finitely_dependent"
        assert cert["directed_triangle"] is None
        assert cert["windows"] == len(s.allowed)


def test_json_roundtrip():
    s = proper_coloring_windows(3)
    doc = sft_to_json_dict(s)
    assert doc["q"] == 3 and doc["n"] == 2
    assert sft_from_json_dict(json.loads(json.dumps(doc))) == s
    with pytest.raises(ValueError):
        sft_from_json_dict({"q": 2, "n": 2})
    with pytest.raises(ValueError):
        sft_from_json_dict({"q": 2, "n": 2, "allowed": [[0, 0]]})


@pytest.mark.parametrize("doc, message", [
    ({"q": True, "n": 2, "allowed": [[0, 1]]}, "must be integers"),
    ({"q": 2, "n": True, "allowed": [[0]]}, "must be integers"),
    # [0, true] would merge into [0, 1] once the windows form a set
    ({"q": 2, "n": 2, "allowed": [[0, 1], [0, True]]}, "non-integer"),
])
def test_json_rejects_bools(doc, message):
    with pytest.raises(ValueError, match=message):
        sft_from_json_dict(doc)


@pytest.mark.parametrize("q, n, window, message", [
    (True, 2, (0, 1), "must be integers"),
    (2, True, (0,), "must be integers"),
    (2, 2, (False, 1), "non-integer"),
])
def test_validation_rejects_bools(q, n, window, message):
    with pytest.raises(ValueError, match=message):
        ShiftOfFiniteType(q, n, frozenset([window]))


def test_empty_window_set_refused():
    # from_windows refuses an empty list before it reads a window length
    with pytest.raises(ValueError, match="must be nonempty"):
        ShiftOfFiniteType(2, 2, [])
    assert ShiftOfFiniteType(2, 2, [(0, 1)]).allowed == {(0, 1)}


def test_project_refuses_a_mismatched_length():
    with pytest.raises(ValueError, match="position 1 has mismatched length"):
        project([(0, 1), (1,)])
    assert project([(0, 1), (1, 0)]) == (0, 1, 0)


@pytest.mark.parametrize("doc, message", [
    ([[0, 1]], "must be a JSON object"),
    ({"q": 2, "n": 2, "allowed": "01"}, "must be a list of windows"),
])
def test_json_rejects_malformed_documents(doc, message):
    with pytest.raises(ValueError, match=message):
        sft_from_json_dict(doc)
    assert sft_from_json_dict({"q": 2, "n": 2, "allowed": [[0, 1]]}) \
        == ShiftOfFiniteType(2, 2, [(0, 1)])


def test_sample_sft_refuses_k_zero():
    # the one window (0, 1) extends on neither side: K = 0, so only
    # window 1 has paths
    s = ShiftOfFiniteType(2, 2, [(0, 1)])
    assert check_lr(s).K == 0
    with pytest.raises(ValueError, match="K = 0"):
        sample_sft(s, 2, 0, 3)
    assert sample_sft(s, 1, 0, 3) == ((0, 1),) * 3


def test_numpy_symbols_are_stored_as_ints():
    s = ShiftOfFiniteType(2, 2, [(np.int64(0), 1), (1, np.int32(0))])
    assert s == ShiftOfFiniteType(2, 2, [(0, 1), (1, 0)])
    assert all(type(a) is int for t in s.allowed for a in t)
    with pytest.raises(ValueError, match="non-integer"):
        ShiftOfFiniteType(2, 2, [(0.0, 1), (1, 0)])


def test_numpy_sizes_are_stored_as_ints():
    s = ShiftOfFiniteType(np.int64(2), np.int64(2), [(0, 1), (1, 0)])
    assert s == ShiftOfFiniteType(2, 2, [(0, 1), (1, 0)])
    assert type(s.q) is int and type(s.n) is int
    for q, n in ((True, 2), (2.0, 2), (2, True), (2, 2.0)):
        with pytest.raises(ValueError, match="must be integers"):
            ShiftOfFiniteType(q, n, [(0, 1), (1, 0)])


def test_from_windows_rejects_bool_symbols():
    # (0, True) equals (0, 1) and would merge with it once the set is formed
    with pytest.raises(ValueError, match="non-integer"):
        ShiftOfFiniteType.from_windows(2, [(0, 1), (0, True), (1, 0)])
    s = ShiftOfFiniteType(2, 2, [(0, 1), (1, 0), (0, 1)])
    assert s.allowed == frozenset({(0, 1), (1, 0)})
    assert s == ShiftOfFiniteType.from_windows(2, [(1, 0), (0, 1)])
