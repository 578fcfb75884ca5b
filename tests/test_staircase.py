"""Apery staircase vs. the brute-force oracle, plus plane plumbing."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aag import oracle, staircase
from aag.core import AagParams, phi, validate_params
from aag.errors import HypothesisViolated, NonsenseInput
from aag.euclid import build_table
from aag.grobner import plane_monomial
from aag.pseudofrob import pf_tilde
from aag.staircase import (
    StandardPoint,
    _top_row_max,
    apery_set,
    apery_values,
    frobenius,
    iter_apery_points,
    rectangles,
    weight,
)

from conftest import monomial, valid_params


class TestPlaneMaps:
    def test_frozen(self):
        assert plane_monomial(0, 3, 20) == monomial(22, x21=3)
        assert plane_monomial(21, 6, 20) == monomial(22, x1=1, x20=1, x21=6)
        assert plane_monomial(45, 1, 20) == monomial(22, x5=1, x20=2, x21=1)

    def test_negative_point(self):
        for y, z in ((-1, 0), (0, -1)):
            with pytest.raises(NonsenseInput):
                StandardPoint(y, z)

    def test_points_are_immutable_values(self):
        pt = StandardPoint(21, 6)
        with pytest.raises(AttributeError):
            pt.y = 0
        assert pt == StandardPoint(21, 6) == (21, 6)
        assert hash(pt) == hash(StandardPoint(21, 6))
        assert len({pt, StandardPoint(21, 6), StandardPoint(6, 21)}) == 2
        y, z = pt
        assert (y, z) == (pt.y, pt.z) == (21, 6)


class TestFrozenStaircase:
    def test_running_example_rectangles(self, ex1):
        t = build_table(ex1)
        ap = apery_set(ex1, t)
        assert (t.pivot.s, t.after_pivot.s, t.pivot.p, t.after_pivot.p) == (22, 21, 1, 8)
        assert len(ap.points) == 155
        assert StandardPoint(0, 7) in ap.points
        assert StandardPoint(0, 8) not in ap.points
        assert StandardPoint(21, 6) in ap.points
        assert StandardPoint(21, 7) not in ap.points
        assert StandardPoint(1, 7) not in ap.points  # second rectangle: z < 7

    def test_running_example_frobenius(self, ex1):
        t = build_table(ex1)
        assert frobenius(ex1, t) == 2168
        assert phi(monomial(22, x1=1, x20=1, x21=6), ex1) - 155 == 2168


def _assert_matches_oracle(params):
    t = build_table(params)
    values = apery_values(params, t)
    expected = oracle.apery_oracle(list(params.generators), params.a)
    assert sorted(values) == sorted(expected)
    # One value per residue class, so φ restricted to the points is injective.
    assert len({v % params.a for v in values}) == params.a
    assert frobenius(params, t) == max(expected) - params.a
    # Point set agrees with the lazy iterator and the φ evaluation route.
    pts = apery_set(params, t).points
    assert pts == set(iter_apery_points(t))
    direct = sorted(
        phi(plane_monomial(pt.y, pt.z, params.k), params) for pt in pts
    )
    assert direct == sorted(values)


class TestOracleEquivalence:
    def test_worked_examples(self, ex1, ex2_raw, ex2_normalized):
        for params in (ex1, ex2_raw, ex2_normalized):
            _assert_matches_oracle(params)

    def test_negative_d_high_h(self):
        _assert_matches_oracle(validate_params(165, -1, 4, 19, 186))

    def test_big_integers(self):
        # a * max(gen) >= 2**59, so the oracle runs its Dijkstra path.
        params = validate_params(31, 2**58 + 1, 1, 3, 1152921504606846972)
        _assert_matches_oracle(params)
        t = build_table(params)
        assert pf_tilde(params, t).pf_numbers == oracle.oracle_report(
            list(params.generators)
        ).pf

    def test_long_table(self):
        params = validate_params(997, 1, 1, 20, 1993)
        t = build_table(params)
        assert (len(t.rows), t.pivot.s) == (998, 973)
        assert frobenius(params, t) == 48828
        _assert_matches_oracle(params)

    def test_k_one(self):
        params = validate_params(5, 2, 1, 1, 11)
        assert frobenius(params, build_table(params)) == 13
        _assert_matches_oracle(params)

    @given(valid_params())
    @settings(max_examples=120, deadline=None)
    def test_random(self, params):
        t = build_table(params)
        if not t.hypothesis_ok:
            return
        _assert_matches_oracle(params)

    @given(valid_params(normalize=False))
    @settings(max_examples=120, deadline=None)
    def test_random_raw_presentation(self, params):
        t = build_table(params)
        if not t.hypothesis_ok:
            return
        _assert_matches_oracle(params)


def _reference_top_row_max(params, lo, hi, z):
    """The candidate columns as ``_top_row_max`` weighed them point by
    point: a ``StandardPoint`` and a ``weight`` call for each column."""
    last_unit = hi - 1 - (hi - 2) % params.k
    columns = {lo, hi - 1, last_unit} if last_unit >= lo else {lo, hi - 1}
    return max(weight(params, StandardPoint(y, z)) for y in columns)


class TestCandidateColumns:
    @given(
        st.integers(1, 10**6),
        st.integers(-(10**6), 10**6).filter(bool),
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(0, 200),
        st.integers(1, 200),
        st.integers(0, 30),
    )
    @settings(max_examples=300, deadline=None)
    def test_top_row_max_is_the_column_scan(self, a, d, h, k, lo, width, z):
        gens = (a, *(h * a + i * d for i in range(1, k + 1)), 1)
        assume(min(gens) > 0)
        params = AagParams(a=a, d=d, h=h, k=k, c=1, generators=gens)
        hi = lo + width
        scan = max(weight(params, StandardPoint(y, z)) for y in range(lo, hi))
        assert _top_row_max(params, lo, hi, z) == scan

    def test_frobenius_matches_the_per_point_reference(self, staircase_battery):
        for params, t in staircase_battery:
            reference = max(
                _reference_top_row_max(params, lo, hi, height - 1)
                for lo, hi, height in rectangles(t)
                if lo < hi
            )
            frob = frobenius(params, t)
            assert frob == reference - params.a, params
            assert frob == pf_tilde(params, t).pf_numbers[-1], params

    def test_frobenius_weighs_at_most_six_columns(self, monkeypatch):
        params = validate_params(997, 1, 1, 20, 1993)
        t = build_table(params)
        weighed = []
        column_weight = staircase._column_weight

        def counting_column_weight(p, y):
            weighed.append(y)
            return column_weight(p, y)

        monkeypatch.setattr(staircase, "_column_weight", counting_column_weight)
        assert frobenius(params, t) == 48828
        assert 0 < len(weighed) <= 6 < t.pivot.s


class TestHypothesisGate:
    def test_violating_instance_raises(self, hypothesis_violator):
        p, t = hypothesis_violator
        with pytest.raises(HypothesisViolated):
            apery_set(p, t)
        with pytest.raises(HypothesisViolated):
            frobenius(p, t)
