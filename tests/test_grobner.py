"""Binomial families: frozen instances, kernel membership, certification."""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from aag import grobner
from aag.cli import main as cli_main
from aag.core import Monomial, phi, validate_params
from aag.errors import AagError, HypothesisViolated, NonsenseInput
from aag.euclid import EuclidTable, build_table, tilde_for_pair
from aag.grobner import (
    Binomial,
    _family_A_holds,
    _standard_is_staircase,
    certify_basis,
    families_BCD,
    family_A,
    kernel_check,
    order_key,
    plane_monomial,
    row_binomials,
    tilde_binomials,
)
from aag.pseudofrob import pf_tilde
from aag.staircase import StandardPoint, apery_set, frobenius, rectangles

from conftest import monomial, valid_params


def _reference_families_BCD(params, table):
    """B, C and D built straight as ``Monomial`` pairs from the pivot rows:
    the construction that ``families_BCD`` now renders from plane terms."""
    k, h = params.k, params.h
    piv, nxt = table.pivot, table.after_pivot
    out = [Binomial(plane_monomial(piv.s, 0, k), plane_monomial(0, piv.p, k, piv.r_prime), "B")]
    if piv.rho > 0:
        out += [
            Binomial(
                plane_monomial(piv.s + j, 0, k), plane_monomial(j, piv.p, k, piv.r_prime - h), "B"
            )
            for j in range(1, k - piv.rho + 1)
        ]
    if nxt.s > 0:
        ds, dp, r_tilde = piv.s - nxt.s, nxt.p - piv.p, table.tilde_r
        out.append(Binomial(plane_monomial(ds, dp, k), plane_monomial(0, 0, k, r_tilde), "C"))
        if table.tilde_rho > 0:
            out += [
                Binomial(plane_monomial(ds + j, dp, k), plane_monomial(j, 0, k, r_tilde - h), "C")
                for j in range(1, k - table.tilde_rho + 1)
            ]
    out.append(
        Binomial(plane_monomial(0, nxt.p, k), plane_monomial(nxt.s, 0, k, -nxt.r_prime), "D")
    )
    return out


def _verdict(params, table, override):
    """certify_basis on the default basis, or with ``basis=`` the A and B, C,
    D binomials as ``Monomial`` pairs when ``override``; an error raised while
    building or checking is the verdict too."""
    try:
        basis = family_A(params) + families_BCD(params, table) if override else None
        return certify_basis(params, table, basis=basis)
    except AagError as exc:
        return type(exc).__name__


def _table_corruptions(params, t):
    """Copies of ``t`` with one pivot or tilde field moved by ±1, and with the
    pivot pair moved to the neighbouring row pairs (rows of the same table,
    so every binomial stays in the kernel)."""
    for name in ("pivot", "after_pivot"):
        row = getattr(t, name)
        for field in ("s", "p", "r_prime", "rho"):
            for step in (-1, 1):
                moved = row._replace(**{field: getattr(row, field) + step})
                yield dataclasses.replace(t, **{name: moved})
    for field in ("tilde_r", "tilde_rho"):
        for step in (-1, 1):
            yield dataclasses.replace(t, **{field: getattr(t, field) + step})
    rows = t.rows
    for mu in (t.mu - 1, t.mu + 1):
        if 0 <= mu < len(rows) - 1:
            sigma, rho, ell, r = tilde_for_pair(rows[mu], rows[mu + 1], params.k, params.h)
            yield dataclasses.replace(
                t, mu=mu, pivot=rows[mu], after_pivot=rows[mu + 1],
                tilde_sigma=sigma, tilde_rho=rho, tilde_ell=ell, tilde_r=r,
            )


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


def _plane_point(m, k):
    """The plane point (y, z) of a plane monomial M(y, z)."""
    exps = m.exponents
    units = exps[1:k]
    pt = StandardPoint(k * exps[k] + (units.index(1) + 1 if 1 in units else 0), exps[k + 1])
    assert plane_monomial(*pt, k) == m
    return pt


def _column_walk(leads, k, width):
    """H(y) for y < width: the least ζ over the leads covering column y,
    infinity where none does, walked block by block of k columns.

    A lead at y0 = α0·k + i0 covers y when y // k >= α0 and i0 is 0 or
    y mod k.  This Θ(s_μ) walk is the reference for the corner test.
    """
    by_block = {}
    for pt in leads:
        by_block.setdefault(pt.y // k, []).append(pt)
    cover = [math.inf] * k  # least ζ per i0 over the blocks seen so far
    heights = []
    for alpha in range(-(-width // k)):
        for pt in by_block.get(alpha, ()):
            i0 = pt.y % k
            cover[i0] = min(cover[i0], pt.z)
        heights += [min(cover[0], zeta) for zeta in cover]
    return heights[:width]


def _walk_verdict(leads, t, k):
    """The column heights are the staircase heights, then k zeros."""
    profile = [height for lo, hi, height in rectangles(t) for _ in range(lo, hi)]
    return _column_walk(leads, k, len(profile) + k) == profile + [0] * k


_MOVES = [(dy, dz) for dy in (-2, -1, 0, 1, 2) for dz in (-1, 0, 1) if dy or dz]


def _seeded_lead_sets(seed=16, tuples=2000):
    """(params, table, label, leads) for seeded hypothesis tuples, k from 1
    to 8, half of them d < 0, h = 1 and kept in both presentations: the
    plane leads of B, C and D, then copies with a lead dropped, moved or
    added."""
    rng = random.Random(seed)
    count = 0
    while count < tuples:
        a, k, c = rng.randint(5, 150), rng.randint(1, 8), rng.randint(3, 400)
        d, h = (rng.randint(-7, -1), 1) if count % 2 else (rng.randint(1, 9), rng.randint(1, 4))
        try:
            pair = [validate_params(a, d, h, k, c, normalize=n) for n in (False, True)]
        except AagError:
            continue
        for p in pair[: 1 + pair[1].normalized]:
            t = build_table(p)
            if not t.hypothesis_ok:
                continue
            count += 1
            leads = [_plane_point(b.lead, k) for b in families_BCD(p, t)]
            yield p, t, "true", leads
            for _ in range(2):
                i = rng.randrange(len(leads))
                yield p, t, "drop", leads[:i] + leads[i + 1 :]
                dy, dz = rng.choice(_MOVES)
                moved = StandardPoint(max(leads[i].y + dy, 0), max(leads[i].z + dz, 0))
                yield p, t, "move", leads[:i] + [moved] + leads[i + 1 :]
                added = StandardPoint(rng.randrange(t.pivot.s + k), rng.randrange(t.after_pivot.p + 1))
                yield p, t, "add", leads + [added]


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
        # One guard for every closed form, naming the pivot's r', ρ and h.
        p, t = hypothesis_violator
        messages = set()
        for compute in (families_BCD, certify_basis, pf_tilde, frobenius):
            with pytest.raises(HypothesisViolated) as err:
                compute(p, t)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert f"r'_mu={t.pivot.r_prime}, rho_mu={t.pivot.rho}, h={p.h}" in messages.pop()


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
        # A lead carrying x0 divides no plane monomial, so the corner test
        # cannot see such an element: only the leading-term check rejects it.
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


def test_corner_test_matches_the_column_walk():
    # The corner test against the Θ(s_μ) column walk on true and corrupted
    # lead sets; every true set passes, and many corrupted ones fail.
    verdicts, ks, raw = {}, set(), False
    for p, t, label, leads in _seeded_lead_sets():
        verdict = _standard_is_staircase(leads, t, p.k)
        assert verdict == _walk_verdict(leads, t, p.k), ((p.a, p.d, p.h, p.k, p.c), label, leads)
        verdicts.setdefault(label, []).append(verdict)
        ks.add(p.k)
        raw |= not p.normalized and p.d < 0 and p.h == 1
    assert all(verdicts["true"]) and len(verdicts["true"]) >= 2000
    assert ks == set(range(1, 9)) and raw
    corrupted = [v for label in ("drop", "move", "add") for v in verdicts[label]]
    assert corrupted.count(False) > len(corrupted) // 2


class TestIntegerCertificate:
    """The default certificate (A on symbolic weights, B, C, D on plane
    terms) against the ``basis=`` override, which checks every binomial as a
    ``Monomial`` pair."""

    def test_families_render_the_reference_construction(self, verify_grid, staircase_battery):
        for p, t in verify_grid + random.Random(21).sample(staircase_battery, 500):
            assert families_BCD(p, t) == _reference_families_BCD(p, t), (p.a, p.d, p.h, p.k, p.c)

    def test_default_matches_the_override_on_the_verify_grid(self, verify_grid):
        ks, raw = set(), False
        for p, t in verify_grid:
            assert _verdict(p, t, False) is _verdict(p, t, True) is True, (p.a, p.d, p.h, p.k, p.c)
            ks.add(p.k)
            raw |= not p.normalized and p.d < 0 and p.h == 1
        assert ks == set(range(1, 7)) and raw and any(p.normalized for p, _ in verify_grid)

    def test_default_matches_the_override_on_the_staircase_battery(self, staircase_battery):
        for p, t in random.Random(21).sample(staircase_battery, 2000):
            assert _verdict(p, t, False) is _verdict(p, t, True) is True, (p.a, p.d, p.h, p.k, p.c)

    def test_default_matches_the_override_on_corrupted_tables(self, verify_grid):
        verdicts = Counter()
        for p, t in verify_grid[::20]:
            for bad in _table_corruptions(p, t):
                default = _verdict(p, bad, False)
                assert default == _verdict(p, bad, True), ((p.a, p.d, p.h, p.k, p.c), bad)
                verdicts[default] += 1
        assert verdicts[False] > 1000 and verdicts["NonsenseInput"] > 100 and verdicts[True] > 10

    def test_builds_no_monomial_and_checks_A_once_per_k_h(self, verify_grid, ex1, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the default certificate built or weighed a monomial")

        for name in ("phi", "plane_monomial", "kernel_check", "Monomial"):
            monkeypatch.setattr(grobner, name, refuse)
        terms, calls = grobner._a_terms, Counter()

        def counted(k, h):
            calls[k, h] += 1
            return terms(k, h)

        monkeypatch.setattr(grobner, "_a_terms", counted)
        _family_A_holds.cache_clear()
        grobner._family_A.cache_clear()
        try:
            tables = [(ex1, build_table(ex1))] + verify_grid[::7]
            assert all(certify_basis(p, t) for p, t in tables)
        finally:
            _family_A_holds.cache_clear()
            grobner._family_A.cache_clear()
        assert calls == Counter({(p.k, p.h): 1 for p, _ in tables})

    def test_negative_x0_power_raises(self, ex1):
        # r'_{mu+1} > 0 gives the D tail x0^{-r'_{mu+1}}; r~ < 0 the C tail.
        t = build_table(ex1)
        for bad in (
            dataclasses.replace(t, after_pivot=t.after_pivot._replace(r_prime=1)),
            dataclasses.replace(t, tilde_r=-1),
        ):
            with pytest.raises(NonsenseInput, match="negative"):
                certify_basis(ex1, bad)
            with pytest.raises(NonsenseInput, match="negative"):
                families_BCD(ex1, bad)

    @pytest.mark.parametrize(
        "tup",
        [
            (155, 1, 4, 20, 177),
            (163, -2, 1, 19, 170),
            (163, 7, 1, 19, 179),
            (165, -2, 1, 19, 174),
            (165, -1, 4, 19, 186),
            (165, 4, 1, 19, 170),
            (165, 7, 3, 19, 183),
        ],
    )
    def test_cli_grobner_prints_the_reference_basis(self, tup, capsys):
        # The 7 reference-sweep records, in (a, d, h, k, c) order.
        a, d, h, k, c = tup
        argv = ["analyze", "--a", a, "--d", d, "--h", h, "--k", k, "--c", c, "--grobner"]
        assert cli_main([str(x) for x in argv]) == 0
        p = validate_params(a, d, h, k, c)
        expected = family_A(p) + _reference_families_BCD(p, build_table(p))
        assert capsys.readouterr().out == "".join(f"{b}\n" for b in expected)


class TestKnownCost:
    @pytest.fixture(autouse=True)
    def refuse_rows(self, monkeypatch):
        def refuse(table):
            raise AssertionError("certification read the table's rows")

        monkeypatch.setattr(EuclidTable, "rows", property(refuse))

    def test_k_1000_certifies_without_a_monomial(self, monkeypatch):
        # The parent construction built 499,500 A monomials of 1,002
        # exponents here; the default certificate weighs integers only.
        def refuse(*args, **kwargs):
            raise AssertionError("the default certificate built a monomial")

        monkeypatch.setattr(grobner, "Monomial", refuse)
        a = 10**9 + 7
        p = validate_params(a, 3, 2, 1000, 3 * a + 1)
        assert certify_basis(p, build_table(p))

    @pytest.mark.parametrize("a", [10**6 + 1, 10**9 + 19, 10**12 + 1])
    def test_long_tables_certify_at_any_scale(self, a):
        # (a, 1, 4, 20, 5a - 1) has a + 1 rows and s_μ near 0.96a; the
        # corner test reads only the pivot rows, so memory does not grow with a.
        tracemalloc.start()
        try:
            p = validate_params(a, 1, 4, 20, 5 * a - 1)
            t = build_table(p)
            certified = certify_basis(p, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certified and t.pivot.s > 9 * a // 10
        assert peak < 1 << 20
