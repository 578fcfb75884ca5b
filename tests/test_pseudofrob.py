"""Tests for the pseudo-Frobenius decision table."""

import pytest
from hypothesis import given, settings

from aag import oracle, pseudofrob, staircase
from aag.core import Monomial, phi, validate_params
from aag.errors import HypothesisViolated, NonsenseInput
from aag.euclid import build_table
from aag.pseudofrob import PfResult, _pf1_dispatch, _pf2_dispatch, pf_tilde
from aag.grobner import plane_monomial
from aag.staircase import StandardPoint, apery_set, frobenius, weight

from conftest import monomial, valid_params

# One witness per decision-table clause, with the full trace and the
# oracle-confirmed pseudo-Frobenius set frozen.  Together the witnesses hit
# every pf1 clause (1a-1e, 2a-2d) and every pf2 clause (3-7ii).
CLAUSE_WITNESSES = [
    (13, -1, 2, 2, 40, "PF1: clause 1a; PF2: clause 5i", [107, 108]),
    (9, -1, 1, 2, 11, "PF1: clause 1b; PF2: clause 5i", [10, 12, 13]),
    (8, -3, 2, 2, 11, "PF1: clause 1c; PF2: clause 4i", [25]),
    (13, -2, 2, 2, 23, "PF1: clause 1d; PF2: clause 4i", [56, 77]),
    (9, 2, 2, 3, 23, "PF1: clause 1e; PF2: clause 5i", [34, 35, 37, 39]),
    (8, -3, 2, 2, 7, "PF1: clause 2a; PF2: clause 6iii", [19]),
    (8, -3, 2, 3, 11, "PF1: clause 2b; PF2: clause 6i", [3, 6, 9, 12]),
    (8, -5, 2, 2, 7, "PF1: clause 2c; PF2: clause 6ii", [5, 9, 10]),
    (8, -1, 2, 4, 11, "PF1: clause 2d; PF2: clause 6iii", [17, 18]),
    (12, -5, 3, 2, 40, "PF1: clause 2a; PF2: clause 3", [125]),
    (11, 1, 3, 3, 61, "PF1: clause 2d; PF2: clause 4ii", [60, 120]),
    (8, -1, 2, 2, 11, "PF1: clause 2c; PF2: clause 5i", [17, 18, 20, 21]),
    (8, 3, 2, 4, 23, "PF1: clause 2d; PF2: clause 5ii", [17, 20, 34, 37]),
    (8, 1, 2, 2, 11, "PF1: clause 2a; PF2: clause 5iii", [21, 31]),
    (8, -1, 2, 3, 11, "PF1: clause 2a; PF2: clause 7i", [17, 18, 20]),
    (13, 2, 2, 4, 40, "PF1: clause 2d; PF2: clause 7ii", [51, 89]),
]


def _reference_pf_tilde(p, t):
    """The families as ``pf_tilde`` weighed them point by point: a
    ``StandardPoint`` and a ``weight`` call for each point of both runs."""
    run1, clause1 = _pf1_dispatch(p, t)
    run2, clause2 = _pf2_dispatch(p, t)
    rows = (t.after_pivot.p - 1, t.after_pivot.p - t.pivot.p - 1)
    pf1, pf2 = (
        [StandardPoint(p.k * base + i, z) for i in range(lo, hi + 1)]
        for (lo, hi, base), z in zip((run1, run2), rows)
    )
    points = (*pf1, *pf2)
    weights = [weight(p, pt) for pt in points]
    values = sorted(w - p.a for w in weights)
    return (
        tuple(pf1),
        tuple(pf2),
        tuple(values),
        len(values),
        points[weights.index(max(weights))],
        f"PF1: clause {clause1}; PF2: clause {clause2}",
    )


def _check_against_oracle(p):
    """Full cross-check of the dispatch output against the brute-force oracle."""
    t = build_table(p)
    if not t.hypothesis_ok:
        return None
    r = pf_tilde(p, t)
    assert r.pf_numbers == oracle.oracle_report(p.generators).pf
    assert r.type == len(r.pf1) + len(r.pf2) == len(r.pf_numbers) >= 1
    assert r.pf_numbers[-1] == frobenius(p, t)
    frob = r.frob_point
    assert phi(plane_monomial(frob.y, frob.z, p.k), p) - p.a == r.pf_numbers[-1]
    return r


class TestWorkedExample:
    def test_frozen_families(self, ex1):
        t = build_table(ex1)
        r = pf_tilde(ex1, t)
        assert [str(plane_monomial(pt.y, pt.z, 20)) for pt in r.pf1] == ["x21^7"]
        assert [str(plane_monomial(pt.y, pt.z, 20)) for pt in r.pf2] == ["x1*x20*x21^6"]
        assert r.pf_numbers == (1084, 2168)
        assert r.type == 2
        assert str(plane_monomial(r.frob_point.y, r.frob_point.z, 20)) == "x1*x20*x21^6"
        assert r.case_trace == "PF1: clause 2b; PF2: clause 7i"

    def test_values_match_weights(self, ex1):
        t = build_table(ex1)
        r = pf_tilde(ex1, t)
        # 7 * 177 - 155 and 621 + 640 + 6 * 177 - 155
        assert phi(monomial(22, x21=7), ex1) - ex1.a == 1084
        assert phi(monomial(22, x1=1, x20=1, x21=6), ex1) - ex1.a == 2168
        assert r.pf_numbers[-1] == frobenius(ex1, t) == 2168

    def test_oracle_agrees(self, ex1):
        assert _check_against_oracle(ex1) is not None


class TestClauseWitnesses:
    @pytest.mark.parametrize("a,d,h,k,c,trace,pf", CLAUSE_WITNESSES)
    def test_frozen_trace_and_values(self, a, d, h, k, c, trace, pf):
        p = validate_params(a, d, h, k, c, normalize=False)
        t = build_table(p)
        r = pf_tilde(p, t)
        assert r.case_trace == trace
        assert list(r.pf_numbers) == pf
        assert r.pf_numbers == oracle.oracle_report(p.generators).pf

    def test_every_clause_covered(self):
        pf1_seen, pf2_seen = set(), set()
        for a, d, h, k, c, trace, _ in CLAUSE_WITNESSES:
            first, second = trace.split("; ")
            pf1_seen.add(first.split()[-1])
            pf2_seen.add(second.split()[-1])
        assert pf1_seen == {"1a", "1b", "1c", "1d", "1e", "2a", "2b", "2c", "2d"}
        assert pf2_seen == {
            "3", "4i", "4ii", "5i", "5ii", "5iii", "6i", "6ii", "6iii", "7i", "7ii",
        }

    def test_pf2_empty_iff_clause_3_or_6iii(self):
        p = validate_params(12, -5, 3, 2, 40, normalize=False)
        t = build_table(p)
        assert t.after_pivot.s == 0
        r = pf_tilde(p, t)
        assert r.pf2 == ()
        assert r.case_trace.endswith("PF2: clause 3")


class TestStructuralInvariants:
    def _assert_invariants(self, p):
        t = build_table(p)
        r = pf_tilde(p, t)
        piv, nxt = t.pivot, t.after_pivot
        k = p.k
        apery_monomials = {plane_monomial(pt.y, pt.z, k) for pt in apery_set(p, t).points}
        pf1 = [plane_monomial(pt.y, pt.z, k) for pt in r.pf1]
        pf2 = [plane_monomial(pt.y, pt.z, k) for pt in r.pf2]
        for m in pf1:
            assert m.exponents[k + 1] == nxt.p - 1
        for m in pf2:
            assert m.exponents[k + 1] == nxt.p - piv.p - 1
        for m in (*pf1, *pf2):
            assert m.exponents[0] == 0
            assert m in apery_monomials
            # maximality screen: multiplying by any non-unit generator
            # variable must leave the standard region
            for i in range(1, k + 2):
                bumped = list(m.exponents)
                bumped[i] += 1
                assert Monomial(tuple(bumped)) not in apery_monomials
        assert list(r.pf_numbers) == sorted(r.pf_numbers)
        assert len(set(r.pf_numbers)) == len(r.pf_numbers)

    def test_worked_examples(self, ex1, ex2_raw, ex2_normalized):
        for p in (ex1, ex2_raw, ex2_normalized):
            self._assert_invariants(p)

    @pytest.mark.parametrize("a,d,h,k,c,trace,pf", CLAUSE_WITNESSES)
    def test_clause_witnesses(self, a, d, h, k, c, trace, pf):
        self._assert_invariants(validate_params(a, d, h, k, c, normalize=False))

    def test_recompute_matches_cached_fields(self, ex1):
        t = build_table(ex1)
        r = pf_tilde(ex1, t)
        values = sorted(
            phi(plane_monomial(pt.y, pt.z, ex1.k), ex1) - ex1.a for pt in (*r.pf1, *r.pf2)
        )
        assert values == list(r.pf_numbers)
        assert len(values) == r.type

    def test_trace_is_deterministic(self, ex1):
        t = build_table(ex1)
        first = pf_tilde(ex1, t)
        second = pf_tilde(ex1, t)
        assert first == second
        assert isinstance(first, PfResult)


class TestArithmeticWeights:
    """``pf_tilde`` weighs each run as an integer progression; the per-point
    weighing it replaced is the reference."""

    def test_matches_the_per_point_reference(self, staircase_battery):
        for p, t in staircase_battery:
            r = pf_tilde(p, t)
            got = (r.pf1, r.pf2, r.pf_numbers, r.type, r.frob_point, r.case_trace)
            assert got == _reference_pf_tilde(p, t), p

    def test_builds_no_point_and_calls_no_weight(self, ex1, monkeypatch):
        cases = [ex1] + [
            validate_params(a, d, h, k, c, normalize=False)
            for a, d, h, k, c, _, _ in CLAUSE_WITNESSES
        ]
        tables = [build_table(p) for p in cases]
        built, weighed = [], []
        new = StandardPoint.__new__

        def counting_new(cls, y, z):
            built.append((y, z))
            return new(cls, y, z)

        def counting_weight(params, pt):
            weighed.append(pt)
            return weight(params, pt)

        monkeypatch.setattr(StandardPoint, "__new__", counting_new)
        monkeypatch.setattr(staircase, "weight", counting_weight)
        monkeypatch.setattr(pseudofrob, "weight", counting_weight)
        results = [(pf_tilde(p, t), frobenius(p, t)) for p, t in zip(cases, tables)]
        assert built == [] and weighed == []
        # The points are built when read, and frob_point weighs them.
        for r, frob in results:
            assert r.pf_numbers[-1] == frob
            assert len(r.pf1) + len(r.pf2) == r.type
            r.frob_point
        assert built and weighed


class TestRandomAgreement:
    @settings(max_examples=250, deadline=None)
    @given(p=valid_params())
    def test_normalized_draws(self, p):
        _check_against_oracle(p)

    @settings(max_examples=250, deadline=None)
    @given(p=valid_params(normalize=False))
    def test_raw_draws(self, p):
        _check_against_oracle(p)


class TestGuards:
    def test_hypothesis_gate(self, hypothesis_violator):
        p, t = hypothesis_violator
        with pytest.raises(HypothesisViolated):
            pf_tilde(p, t)

    def test_k_one_rejected(self):
        p = validate_params(5, 2, 1, 1, 11, normalize=False)
        t = build_table(p)
        with pytest.raises(NonsenseInput):
            pf_tilde(p, t)

    @pytest.mark.parametrize("run", [(0, 1, -1), (-1, 0, 0)])
    def test_negative_run_rejected(self, ex1, monkeypatch, run):
        # The dispatch never yields k*base + lo < 0; a run that did would
        # name a point off the plane, refused as StandardPoint refuses it.
        t = build_table(ex1)
        monkeypatch.setattr(pseudofrob, "_pf1_dispatch", lambda p, t: (run, "1x"))
        lo, hi, base = run
        message = rf"^plane point \({20 * base + lo}, {t.after_pivot.p - 1}\) has a negative part$"
        with pytest.raises(NonsenseInput, match=message):
            pf_tilde(ex1, t)
