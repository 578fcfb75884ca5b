"""Binomial families: frozen instances, kernel membership, certification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from aag.core import monomial, phi, validate_params
from aag.errors import HypothesisViolated, NonsenseInput
from aag.euclid import build_table, tilde_for_pair
from aag.grobner import (
    Binomial,
    certify_basis,
    families_BCD,
    family_A,
    kernel_check,
    order_key,
    plane_monomial,
    row_binomials,
    tilde_binomials,
)
from aag.staircase import StandardPoint, apery_set

from conftest import valid_params


def _lead_divisors(params, t, basis):
    """Each plane point of [0, s_mu+k) x [0, p_{mu+1}] with the indices of
    the basis leads that divide its monomial."""
    k = params.k
    leads = [b.lead.exponents for b in basis]
    out = {}
    for y in range(t.pivot.s + k):
        for z in range(t.after_pivot.p + 1):
            m = plane_monomial(y, z, k).exponents
            out[StandardPoint(y, z)] = {
                i for i, lead in enumerate(leads) if all(e <= f for e, f in zip(lead, m))
            }
    return out


def _certify_matches_definition(params):
    """certify_basis agrees with its definition, for the full basis and for
    each single B/C/D element dropped: the plane points of the box that no
    lead divides are exactly the Apery points."""
    t = build_table(params)
    if not t.hypothesis_ok:
        return
    basis = family_A(params) + families_BCD(params, t)
    apery = apery_set(params, t).points
    divisors = _lead_divisors(params, t, basis)
    standard = {pt for pt, divs in divisors.items() if not divs}
    assert standard == apery
    assert certify_basis(params, t, basis=basis)
    for i, b in enumerate(basis):
        if b.family == "A":
            continue
        standard = {pt for pt, divs in divisors.items() if divs <= {i}}
        dropped = basis[:i] + basis[i + 1 :]
        assert certify_basis(params, t, basis=dropped) == (standard == apery), str(b)


class TestFamilyA:
    def test_frozen_k3(self):
        p = validate_params(7, 1, 2, 3, 30, check_minimality=False)
        fam = family_A(p)
        as_strs = {str(b) for b in fam}
        assert as_strs == {
            "x1^2 - x0^2*x2 [A]",
            "x1*x2 - x0^2*x3 [A]",
            "x2^2 - x1*x3 [A]",
        }

    def test_frozen_k2(self):
        p = validate_params(5, 2, 1, 2, 13, check_minimality=False)
        fam = family_A(p)
        assert [str(b) for b in fam] == ["x1^2 - x0*x2 [A]"]

    def test_each_call_returns_a_fresh_list(self):
        p = validate_params(7, 1, 2, 3, 30, check_minimality=False)
        fam = family_A(p)
        fam.clear()
        assert len(family_A(p)) == 3 and family_A(p) is not family_A(p)

    @given(valid_params())
    @settings(max_examples=60, deadline=None)
    def test_count_and_kernel(self, params):
        fam = family_A(params)
        assert len(fam) == params.k * (params.k - 1) // 2
        for b in fam:
            assert kernel_check(b, params)
            assert order_key(b.lead, params) > order_key(b.tail, params)
            assert b.lead.exponents[0] == 0


class TestFamiliesBCD:
    def test_frozen_running_example(self, ex1):
        t = build_table(ex1)
        fams = families_BCD(ex1, t)
        b = [x for x in fams if x.family == "B"]
        c = [x for x in fams if x.family == "C"]
        d = [x for x in fams if x.family == "D"]
        assert str(b[0]) == "x2*x20 - x0^7*x21 [B]"
        assert len(b) == 1 + 18  # main + companions j = 1..k-rho_mu = 18
        assert str(b[1]) == "x3*x20 - x0^3*x1*x21 [B]"
        assert str(b[-1]) == "x20^2 - x0^3*x18*x21 [B]"
        assert str(c[0]) == "x1*x21^7 - x0^12 [C]"
        assert len(c) == 1 + 19
        assert str(c[1]) == "x2*x21^7 - x0^8*x1 [C]"
        assert [str(x) for x in d] == ["x21^8 - x0*x1*x20 [D]"]

    def test_frozen_k1(self):
        # k = 1: no unit variables, every column has y mod 1 = 0.
        p = validate_params(5, 2, 1, 1, 11)
        t = build_table(p)
        assert family_A(p) == []
        assert [str(b) for b in families_BCD(p, t)] == [
            "x1^3 - x0^2*x2 [B]",
            "x1^2*x2 - x0^5 [C]",
            "x2^2 - x0^3*x1 [D]",
        ]
        _certify_matches_definition(p)

    def test_kernel_frozen(self, ex1):
        # x21^8 - x0*x1*x20: 8*177 = 1416 = 155 + 621 + 640.
        t = build_table(ex1)
        d = [x for x in families_BCD(ex1, t) if x.family == "D"][0]
        assert phi(d.lead, ex1) == 1416 == phi(d.tail, ex1)
        assert kernel_check(d, ex1)

    def test_kernel_rejects(self, ex1):
        b = Binomial(monomial(22, x1=1), monomial(22, x2=1), "A")
        assert not kernel_check(b, ex1)

    def test_c_empty_when_next_s_zero(self):
        # Find a validated tuple with s_{mu+1} = 0.
        found = None
        for a in range(8, 90):
            for c in range(3, 160):
                try:
                    p = validate_params(a, 1, 1, 3, c)
                except Exception:
                    continue
                t = build_table(p)
                if t.hypothesis_ok and t.after_pivot.s == 0:
                    found = (p, t)
                    break
            if found:
                break
        assert found, "no s_{mu+1}=0 instance in the search box"
        p, t = found
        assert all(x.family != "C" for x in families_BCD(p, t))

    def test_hypothesis_gate(self, hypothesis_violator):
        p, t = hypothesis_violator
        with pytest.raises(HypothesisViolated):
            families_BCD(p, t)
        with pytest.raises(HypothesisViolated):
            certify_basis(p, t)


class TestRowAndTilde:
    def test_tilde_frozen(self, ex1):
        t = build_table(ex1)
        tb = tilde_binomials(t, ex1)
        # Pair (0,1): s0-s1 = 133 = 6*20+13, p1-p0 = 1, r-tilde = 30.
        assert str(tb[0]) == "x13*x20^6*x21 - x0^30 [Tilde]"
        assert phi(tb[0].lead, ex1) == 30 * 155
        # Pair (1,2): s1-s2 = 1, p2-p1 = 7, r-tilde = 12.
        assert str(tb[1]) == "x1*x21^7 - x0^12 [Tilde]"
        assert phi(tb[1].lead, ex1) == 621 + 7 * 177 == 12 * 155

    @given(valid_params(normalize=False))
    @settings(max_examples=80, deadline=None)
    def test_tilde_properties(self, params):
        t = build_table(params)
        tb = tilde_binomials(t, params)
        assert len(tb) == len(t.rows) - 1
        for b, lo, hi in zip(tb, t.rows, t.rows[1:]):
            assert kernel_check(b, params)
            _s, rho, _l, r_tilde = tilde_for_pair(lo, hi, params.k, params.h)
            assert r_tilde >= 2
            if rho > 0:
                assert r_tilde > params.h

    @given(valid_params(normalize=False))
    @settings(max_examples=80, deadline=None)
    def test_row_binomials(self, params):
        t = build_table(params)
        rb = row_binomials(t, params)
        assert len(rb) == len(t.rows)
        for b in rb:
            assert kernel_check(b, params)
            assert order_key(b.lead, params) > order_key(b.tail, params)


class TestCertification:
    def test_frozen_running_example(self, ex1):
        t = build_table(ex1)
        assert certify_basis(ex1, t)

    def test_corrupted_basis_fails(self, ex1):
        t = build_table(ex1)
        basis = family_A(ex1) + families_BCD(ex1, t)
        dropped = [b for b in basis if str(b) != "x2*x20 - x0^7*x21 [B]"]
        assert len(dropped) == len(basis) - 1
        assert not certify_basis(ex1, t, basis=dropped)

    def test_missing_a_elements_fail(self, ex1):
        t = build_table(ex1)
        fam_a, bcd = family_A(ex1), families_BCD(ex1, t)
        assert len(fam_a) == 190
        assert not certify_basis(ex1, t, basis=bcd)
        for i, b in enumerate(fam_a):
            assert not certify_basis(ex1, t, basis=fam_a[:i] + fam_a[i + 1 :] + bcd), str(b)

    def test_swapped_orientation_fails(self, ex1):
        t = build_table(ex1)
        basis = family_A(ex1) + families_BCD(ex1, t)
        first_a = next(i for i, b in enumerate(basis) if b.family == "A")
        swapped = [i for i, b in enumerate(basis) if b.family != "A"] + [first_a]
        assert len(swapped) == len(basis) - 190 + 1
        for i in swapped:
            b = basis[i]
            flipped = Binomial(b.tail, b.lead, b.family)
            assert kernel_check(flipped, ex1)
            assert not certify_basis(ex1, t, basis=basis[:i] + [flipped] + basis[i + 1 :]), str(b)

    def test_extra_element_with_the_lead_on_the_x0_side_fails(self, ex1):
        # A lead carrying x0 divides no plane monomial, so the column
        # profile cannot see such an element: only the leading-term check
        # rejects it.
        t = build_table(ex1)
        basis = family_A(ex1) + families_BCD(ex1, t)
        rows = row_binomials(t, ex1)
        assert certify_basis(ex1, t, basis=basis + rows)
        for b in rows:
            flipped = Binomial(b.tail, b.lead, b.family)
            assert not certify_basis(ex1, t, basis=basis + [flipped]), str(b)

    def test_wrong_arity_raises(self, ex1):
        t = build_table(ex1)
        bad = Binomial(monomial(5, x1=1), monomial(5, x2=1), "B")
        with pytest.raises(NonsenseInput):
            certify_basis(ex1, t, basis=family_A(ex1) + [bad])

    def test_worked_examples(self, ex1, ex2_raw, ex2_normalized):
        for p in (ex1, ex2_raw, ex2_normalized):
            assert certify_basis(p, build_table(p))
        p = validate_params(165, -1, 4, 19, 186)
        assert certify_basis(p, build_table(p))

    @given(valid_params())
    @settings(max_examples=100, deadline=None)
    def test_random(self, params):
        t = build_table(params)
        if not t.hypothesis_ok:
            return
        assert certify_basis(params, t)

    @given(valid_params(normalize=False))
    @settings(max_examples=100, deadline=None)
    def test_random_raw(self, params):
        t = build_table(params)
        if not t.hypothesis_ok:
            return
        assert certify_basis(params, t)

    @given(valid_params())
    @settings(max_examples=60, deadline=None)
    def test_matches_definition(self, params):
        _certify_matches_definition(params)

    @given(valid_params(normalize=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_definition_raw(self, params):
        _certify_matches_definition(params)
