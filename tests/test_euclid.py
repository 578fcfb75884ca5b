"""Euclidean-table construction: frozen rows and structural invariants."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings

from aag import euclid, oracle, verify
from aag.classify import VERDICT_NEITHER, classify
from aag.cli import Grid, _verify_reject, iter_cells
from aag.core import validate_params
from aag.errors import AagError, NonsenseInput
from aag.euclid import (
    EuclidRow,
    EuclidTable,
    build_table,
    decompose,
    format_table,
    tilde_for_pair,
)

from conftest import valid_params


class TestDecompose:
    def test_frozen(self):
        assert decompose(155, 20) == (7, 15, 1)
        assert decompose(40, 20) == (2, 0, 0)
        assert decompose(0, 5) == (0, 0, 0)
        assert decompose(22, 20) == (1, 2, 1)
        assert decompose(1, 20) == (0, 1, 1)

    def test_reassembly(self):
        for s in range(0, 60):
            for k in range(1, 9):
                sigma, rho, ell = decompose(s, k)
                assert s == sigma * k + ell * rho
                assert 0 <= rho < k
                assert (ell == 0) == (rho == 0)

    def test_bad_input(self):
        with pytest.raises(NonsenseInput):
            decompose(-1, 3)
        with pytest.raises(NonsenseInput):
            decompose(3, 0)


class TestFrozenTables:
    def test_running_example(self, ex1):
        t = build_table(ex1)
        triples = [(row.s, row.p, row.r) for row in t.rows[:3]]
        assert triples == [(155, 0, 1), (22, 1, -1), (21, 8, -9)]
        assert [row.r_prime for row in t.rows[:3]] == [33, 7, -1]
        assert t.mu == 1
        assert t.hypothesis_ok
        # s_mu - s_{mu+1} = 1: widetilde decomposition (0, 1, 1), r-tilde 12.
        assert (t.tilde_sigma, t.tilde_rho, t.tilde_ell, t.tilde_r) == (0, 1, 1, 12)
        # Case with rho_mu > rho_{mu+1} > 0: r-tilde - h = r'_mu - r'_{mu+1}.
        assert t.tilde_r - ex1.h == t.pivot.r_prime - t.after_pivot.r_prime == 8

    def test_running_example_full_descent(self, ex1):
        t = build_table(ex1)
        assert t.rows[-1].s == 0
        assert t.rows[-1].p == 155  # determinant identity at the tail
        assert t.rows[-1].r == -177

    def test_raw_negative_d(self, ex2_raw):
        t = build_table(ex2_raw)
        triples = [(row.s, row.p, row.r) for row in t.rows[:4]]
        assert triples == [(163, 0, -2), (78, 1, -2), (71, 3, -4), (64, 5, -6)]
        assert [row.r_prime for row in t.rows[:3]] == [7, 3, 0]
        assert t.mu == 1
        assert t.hypothesis_ok

    def test_normalized_presentation(self, ex2_normalized):
        assert (ex2_normalized.a, ex2_normalized.d) == (125, 2)
        t = build_table(ex2_normalized)
        triples = [(row.s, row.p, row.r) for row in t.rows[:5]]
        assert triples == [(125, 0, 2), (85, 1, 0), (45, 2, -2), (5, 3, -4), (0, 25, -34)]
        assert t.mu == 2

    def test_format_table(self, ex1):
        text = format_table(build_table(ex1))
        lines = text.splitlines()
        assert lines[0].split() == ["i", "s", "p", "r", "r'", "q"]
        assert "<- mu" in lines[2]
        assert lines[1].split()[:5] == ["0", "155", "0", "1", "33"]


def _check_invariants(params, t):
    a, d, c, h = params.a, params.d, params.c, params.h
    rows = t.rows
    # Row equation and decomposition on every row.
    for row in rows:
        assert row.s * d - row.p * c == row.r * a
        assert row.s == row.sigma * params.k + row.ell * row.rho
        assert row.r_prime == row.r + h * (row.sigma + row.ell)
    # Determinant identities on consecutive pairs.
    for lo, hi in zip(rows, rows[1:]):
        assert lo.s * hi.p - hi.s * lo.p == a
        assert hi.s * lo.r - lo.s * hi.r == c
        assert hi.p * lo.r - lo.p * hi.r == d
        assert hi.q is None or hi.q >= 2
    # Monotonicity.
    s_seq = [row.s for row in rows]
    p_seq = [row.p for row in rows]
    rp_seq = [row.r_prime for row in rows]
    assert all(x > y for x, y in zip(s_seq, s_seq[1:]))
    assert all(x < y for x, y in zip(p_seq, p_seq[1:]))
    assert all(x > y for x, y in zip(rp_seq, rp_seq[1:]))
    if d > 0:
        r_seq = [row.r for row in rows]
        assert all(x > y for x, y in zip(r_seq, r_seq[1:]))
    # Pivot bracketing, start/end signs.
    assert rows[0].r_prime > 0
    assert rows[-1].r_prime < 0
    assert t.pivot.r_prime > 0 >= t.after_pivot.r_prime
    assert t.mu >= 1
    # Tilde fields agree with the generic pair helper, and the pair
    # comparison falls into exactly the advertised case split.
    assert (rows[t.mu], rows[t.mu + 1]) == (t.pivot, t.after_pivot)
    assert tilde_for_pair(t.pivot, t.after_pivot, params.k, h) == (
        t.tilde_sigma,
        t.tilde_rho,
        t.tilde_ell,
        t.tilde_r,
    )
    rho_mu, rho_next = t.pivot.rho, t.after_pivot.rho
    drop = t.pivot.r_prime - t.after_pivot.r_prime
    if (rho_mu == 0 and rho_next > 0) or (rho_mu > rho_next > 0):
        assert t.tilde_r - h == drop
    else:
        assert t.tilde_r == drop
    # r-tilde >= 2 on every consecutive pair.
    for lo, hi in zip(rows, rows[1:]):
        assert tilde_for_pair(lo, hi, params.k, h)[3] >= 2


class TestInvariants:
    @given(valid_params())
    @settings(max_examples=250, deadline=None)
    def test_random_valid(self, params):
        _check_invariants(params, build_table(params))

    @given(valid_params(normalize=False))
    @settings(max_examples=250, deadline=None)
    def test_raw_presentations(self, params):
        _check_invariants(params, build_table(params))

    def test_worked_examples(self, ex1, ex2_raw, ex2_normalized):
        for params in (ex1, ex2_raw, ex2_normalized):
            _check_invariants(params, build_table(params))

    def test_high_h_negative_d(self):
        # d < 0 with h >= 2 is never rewritten; the table must still work.
        params = validate_params(165, -1, 4, 19, 186)
        t = build_table(params)
        _check_invariants(params, t)
        assert t.hypothesis_ok == (t.pivot.r_prime >= 4 or t.pivot.rho == 0)


def _naive_rows(params):
    """The table by its definition: row 1 is the least s_1 >= 0 with
    s_1*d ≡ c (mod a), then the ceiling-quotient recurrence down to s = 0."""
    a, d, h, k, c = params.a, params.d, params.h, params.k, params.c
    s1 = next(s for s in range(a) if (s * d - c) % a == 0)
    triples, quotients = [(a, 0, d), (s1, 1, (s1 * d - c) // a)], [None, None]
    while triples[-1][0] > 0:
        (s0, p0, r0), (s, p, r) = triples[-2], triples[-1]
        q = (s0 + s - 1) // s
        triples.append((q * s - s0, q * p - p0, q * r - r0))
        quotients.append(q)
    rows = []
    for index, ((s, p, r), q) in enumerate(zip(triples, quotients)):
        sigma, rho, ell = decompose(s, k)
        rows.append((index, s, p, r, q, sigma, rho, ell, r + h * (sigma + ell)))
    return rows


def _full_walk(params):
    """The table as one full walk: every row, then the first i >= 1 with
    r'_i <= 0 gives μ = i - 1.  Returns (rows, μ, tilde, hypothesis_ok)."""
    rows = [EuclidRow(*row) for row in _naive_rows(params)]
    mu = next(i for i in range(len(rows) - 1) if rows[i + 1].r_prime <= 0)
    piv, nxt = rows[mu], rows[mu + 1]
    sigma, rho, ell = decompose(piv.s - nxt.s, params.k)
    tilde = (sigma, rho, ell, piv.r - nxt.r + params.h * (sigma + ell))
    return rows, mu, tilde, piv.r_prime >= params.h or piv.rho == 0


def _seeded_battery(seed, count):
    """Validated tuples: random c, and long tables (c ≡ -d mod a, so s_1 = a - 1
    and the table has a + 1 rows), each in both presentations."""
    rng = random.Random(seed)
    for _ in range(count):
        a = int(10 ** rng.uniform(0.8, 3.6))
        d = rng.choice([x for x in range(-9, 10) if x])
        h, k = rng.randint(1, 4), rng.randint(1, 20)
        for c in (rng.randint(3, 5 * a), (-d) % a + a * rng.randint(1, 4)):
            for normalize in (True, False):
                try:
                    yield validate_params(a, d, h, k, c, normalize=normalize)
                except AagError:
                    pass


class TestPivotFirst:
    def test_equals_the_full_walk(self):
        long_tables = 0
        for params in _seeded_battery(20261018, 400):
            t = build_table(params)
            assert "rows" not in vars(t)  # the pivot search builds no row list
            rows, mu, tilde, hypothesis_ok = _full_walk(params)
            assert (t.mu, t.pivot, t.after_pivot) == (mu, rows[mu], rows[mu + 1])
            assert (t.tilde_sigma, t.tilde_rho, t.tilde_ell, t.tilde_r) == tilde
            assert t.hypothesis_ok == hypothesis_ok
            assert t.rows == tuple(rows)
            long_tables += len(rows) == params.a + 1
        assert long_tables >= 100

    def test_rows_are_built_once(self, ex1):
        t = build_table(ex1)
        assert t.rows is t.rows
        assert t == build_table(ex1)


class TestRowValues:
    def test_rows_are_immutable(self, ex1):
        row = build_table(ex1).rows[0]
        with pytest.raises(AttributeError):
            row.s = 1

    def test_rows_hash_and_compare_by_value(self, ex1):
        first, again = build_table(ex1).rows, build_table(ex1).rows
        assert first == again and first[0] is not again[0]
        assert hash(first[0]) == hash(again[0])
        assert len(set(first + again)) == len(first)
        assert first[0] == EuclidRow(0, 155, 0, 1, None, 7, 15, 1, 33) == (0, 155, 0, 1, None, 7, 15, 1, 33)

    @given(valid_params())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_naive_recurrence(self, params):
        assert list(build_table(params).rows) == _naive_rows(params)

    @given(valid_params(normalize=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_naive_recurrence_raw(self, params):
        assert list(build_table(params).rows) == _naive_rows(params)


class TestRowCount:
    @given(valid_params(normalize=False))
    @settings(max_examples=250, deadline=None)
    def test_matches_the_built_table(self, params):
        # The rows' cap counts them from the runs: one row over the cap they
        # refuse, naming exactly as many rows as they have; at the cap they build.
        n = len(build_table(params).rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("AAG_MAX_A", str(n - 2))
            with pytest.raises(NonsenseInput, match=f"has {n} rows,"):
                build_table(params).rows
            mp.setenv("AAG_MAX_A", str(n - 1))
            assert len(build_table(params).rows) == n

    def test_long_table_counts_a_plus_one_rows(self):
        # c ≡ -d (mod a) gives s_1 = a - 1 and quotient 2 all the way down;
        # the count comes from the runs, before any row is built.
        a = 10**12 + 39
        t = build_table(validate_params(a, 1, 4, 20, 5 * a - 1))
        with pytest.raises(NonsenseInput, match="has 1000000000040 rows,"):
            t.rows

    def test_past_the_cap_the_table_answers_but_its_rows_refuse(self, monkeypatch):
        monkeypatch.setenv("AAG_MAX_A", "1000")
        # c ≡ -d (mod a): a + 1 = 1020 rows, above the cap of 1001.
        p = validate_params(1019, 1, 4, 20, 5094)
        t = build_table(p)
        cls = classify(p, t)
        assert (cls.verdict, cls.type, cls.frobenius) == (VERDICT_NEITHER, 20, 199684)
        with pytest.raises(NonsenseInput, match="has 1020 rows, above the cap of 1001"):
            t.rows
        # A short table's rows are built whatever a is.
        assert len(build_table(validate_params(999_999_991, -45_454_537, 4, 20, 177)).rows) == 24
        monkeypatch.delenv("AAG_MAX_A")
        rep = oracle.oracle_report(list(p.generators))
        assert (rep.frobenius, rep.type, rep.pf) == (cls.frobenius, cls.type, cls.pf)
        assert len(t.rows) == 1020


class TestKnownCost:
    """``build_table`` at a = 10^12 + 1: O(log a) counted steps whatever k is."""

    @pytest.mark.parametrize("k", [3, 50, 1000, 4000])
    @pytest.mark.parametrize("shape", ["long", "friendly", "small c"])
    def test_walks_no_more_runs_than_the_table_has(self, k, shape, monkeypatch):
        a = 10**12 + 1
        d, h, c = {
            "long": (1, 4, 5 * a - 1),  # a + 1 rows
            "friendly": (7, 2, 3 * a + 1),
            "small c": (7, 2, k + 159),
        }[shape]
        p = validate_params(a, d, h, k, c, check_minimality=False)
        runs = len(euclid._column_runs(a, d, c))
        # An earlier case may hold this column: count a walk from a cold cache.
        euclid._column_runs.cache_clear()
        yielded, r_primes = [], []
        walk, r_prime_at = euclid._runs, euclid._r_prime_at

        def counted_walk(*args):
            for run in walk(*args):
                yielded.append(run)
                yield run

        def counted_r_prime(*args):
            r_primes.append(args)
            return r_prime_at(*args)

        def refuse(table):
            raise AssertionError("build_table read the table's rows")

        monkeypatch.setattr(euclid, "_runs", counted_walk)
        monkeypatch.setattr(euclid, "_r_prime_at", counted_r_prime)
        monkeypatch.setattr(EuclidTable, "rows", property(refuse))
        t = build_table(p)
        assert t.pivot.index == t.mu and t.after_pivot.index == t.mu + 1
        assert 0 < len(yielded) <= runs <= 4 * a.bit_length()
        assert len(r_primes) <= len(yielded) + a.bit_length() + 1

    @pytest.mark.parametrize("d", [1, -2])
    def test_a_grid_walks_each_column_once(self, d, monkeypatch):
        # iter_cells meets the (k, h) cells of a column in a row, so one
        # (a, d) pair walks the runs once per c, and the run check of
        # ``aag verify`` reads each table's own runs without a walk.
        a, grid = 163, Grid(range(163, 164), range(d, d + 1), range(170, 187), range(2, 6), range(1, 5))
        walks, walk = [], euclid._runs

        def counted_walk(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(euclid, "_runs", counted_walk)
        euclid._column_runs.cache_clear()
        skips = Counter()
        cells = list(iter_cells(grid, a, d, skips, reject=_verify_reject))
        assert set(skips) <= {"HypothesisViolated", "NotMinimal"}  # every cell validates
        assert len(cells) > 100
        assert len(walks) == len({args[2] for args in walks}) == len(grid.c)
        walks.clear()
        assert all(verify.euclid_violations(p, t) == [] for p, t in cells)
        assert walks == []
