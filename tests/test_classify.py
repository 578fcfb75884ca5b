"""Tests for the symmetric / almost-symmetric classification routes."""

import dataclasses
import json
import random
import tracemalloc
from importlib.resources import files
from itertools import product

import pytest
from hypothesis import given, settings

import aag.classify as classify_module
from aag import oracle
from aag.classify import (
    ALL_FAMILIES,
    ALMOST_SYMMETRIC_FAMILIES,
    FAMILIES,
    SYMMETRIC_FAMILIES,
    VERDICT_ALMOST_SYMMETRIC,
    VERDICT_NEITHER,
    VERDICT_ORACLE_ONLY,
    VERDICT_SYMMETRIC,
    _raw_presentation,
    classify,
    classify_with_fast_path,
    family_frobenius,
    family_generate,
    family_type,
    fast_path,
    match_families,
    nari_check,
)
from aag.core import validate_params
from aag.errors import (
    AagError,
    AmbiguousFastPath,
    FamilyConstraintViolated,
    MalformedPf,
)
from aag.euclid import EuclidTable, build_table

from conftest import valid_params

# The complete list of almost-symmetric tuples in the reference sweep box
# (150 <= a <= 165, |d| <= 9, k in {19, 20}, h <= 4, c <= 200), frozen with
# family, solved parameters, type, and Frobenius number.  Input order is
# (a, d, c, k, h) as the sweep emits it.
SWEEP_RECORDS = [
    (155, 1, 177, 20, 4, "Thm5.3-(ii)", {"sigma": 1, "p": 8, "r": -1}, 2, 2168),
    (163, -2, 170, 19, 1, "Thm5.3-(i)", {"l": 14, "sigma": 4, "p": 3, "r": -2}, 6, 668),
    (165, 4, 170, 19, 1, "Thm5.4-(i)", {"l": 5, "sigma": 2, "p": 4, "r": -4}, 6, 996),
    (165, -2, 174, 19, 1, "Thm5.3-(i)", {"l": 12, "sigma": 4, "p": 3, "r": -2}, 8, 680),
    (163, 7, 179, 19, 1, "Thm5.4-(v)", {"sigma": 3, "p": 6, "r": -5}, 2, 1198),
    (165, 7, 183, 19, 3, "Thm5.4-(iii)", {"sigma": 2, "p": 7, "r": -7}, 19, 2063),
    (165, -1, 186, 19, 4, "Thm5.4-(iii)", {"sigma": 2, "p": 7, "r": -8}, 19, 2251),
]

# Two frozen members per family: (family, params, (a, d, h, k, c), type, F).
# Types and Frobenius numbers are oracle-confirmed.
FAMILY_MEMBERS = [
    ("Thm4.1-case1", {"h": 1, "k": 3, "sigma": 1, "p": 1, "p_prime": 2, "r": 2, "r_hat": -3}, (10, 7, 1, 3, 15), 1, 53),
    ("Thm4.1-case1", {"h": 1, "k": 3, "sigma": 1, "p": 1, "p_prime": 3, "r": 2, "r_hat": -2}, (15, 8, 1, 3, 10), 1, 67),
    ("Thm4.1-case2", {"h": 1, "k": 3, "sigma": 2, "sigma_prime": 2, "p": 1, "p_prime": 3, "r": -1}, (18, -1, 1, 3, 10), 1, 39),
    ("Thm4.1-case2", {"h": 1, "k": 3, "sigma": 2, "sigma_prime": 2, "p": 1, "p_prime": 3, "r": 1}, (18, 5, 1, 3, 22), 1, 93),
    ("Thm4.1-case3", {"h": 1, "k": 3, "sigma": 2, "p": 1, "p_prime": 2, "r": -1}, (9, 1, 1, 3, 17), 1, 25),
    ("Thm4.1-case3", {"h": 2, "k": 4, "sigma": 1, "p": 1, "p_prime": 2, "r": -1}, (7, 2, 2, 4, 19), 1, 31),
    ("Thm4.1-case4", {"h": 1, "k": 3, "sigma": 1, "p": 1, "p_prime": 2, "r_hat": -3}, (6, 1, 1, 3, 10), 1, 11),
    ("Thm4.1-case4", {"h": 1, "k": 3, "sigma": 1, "p": 1, "p_prime": 3, "r_hat": -2}, (10, -1, 1, 3, 6), 1, 11),
    ("Thm5.1", {"k": 3, "d": 2}, (5, 2, 1, 3, 8), 4, 6),
    ("Thm5.1", {"k": 5, "d": 4}, (7, 4, 1, 5, 17), 6, 20),
    ("Thm5.2", {"h": 2, "k": 3, "sigma": 1, "p": 2}, (5, -1, 2, 3, 6), 4, 4),
    ("Thm5.2", {"h": 3, "k": 4, "sigma": 2, "p": 3}, (19, -11, 3, 4, 15), 5, 55),
    ("Thm5.3-(i)", {"k": 3, "l": 2, "sigma": 2, "p": 2, "r": 1}, (11, 4, 1, 3, 21), 2, 50),
    ("Thm5.3-(i)", {"k": 3, "l": 2, "sigma": 2, "p": 2, "r": 2}, (11, 6, 1, 3, 26), 2, 64),
    ("Thm5.3-(ii)", {"h": 1, "k": 3, "sigma": 1, "p": 2, "r": -1}, (6, 1, 1, 3, 11), 2, 10),
    ("Thm5.3-(ii)", {"h": 2, "k": 4, "sigma": 1, "p": 3, "r": -1}, (13, 2, 2, 4, 25), 2, 74),
    ("Thm5.4-(i)", {"k": 4, "l": 1, "sigma": 1, "p": 2, "r": -3}, (13, 1, 1, 4, 20), 2, 38),
    ("Thm5.4-(i)", {"k": 4, "l": 1, "sigma": 1, "p": 2, "r": -4}, (13, 2, 1, 4, 27), 2, 50),
    ("Thm5.4-(ii)", {"h": 1, "k": 3, "sigma": 2, "p": 2, "r": -3}, (11, 1, 1, 3, 17), 2, 32),
    ("Thm5.4-(ii)", {"h": 1, "k": 3, "sigma": 2, "p": 2, "r": -4}, (11, 2, 1, 3, 23), 2, 42),
    ("Thm5.4-(iii)", {"h": 1, "k": 3, "sigma": 2, "p": 2, "r": -3}, (12, 1, 1, 3, 19), 3, 35),
    ("Thm5.4-(iii)", {"h": 1, "k": 3, "sigma": 2, "p": 3, "r": -2}, (17, 1, 1, 3, 12), 3, 45),
    ("Thm5.4-(iv)", {"k": 3, "p": 2, "r": -2}, (6, 1, 1, 3, 5), 4, 4),
    ("Thm5.4-(iv)", {"k": 4, "p": 3, "r": -3}, (8, 5, 1, 4, 11), 5, 25),
    ("Thm5.4-(v)", {"k": 3, "sigma": 2, "p": 2, "r": -3}, (9, -1, 1, 3, 11), 2, 10),
    ("Thm5.4-(v)", {"k": 3, "sigma": 2, "p": 2, "r": -5}, (9, 1, 1, 3, 25), 2, 26),
    # The case1 boundary r + h*sigma = 0 (r'_mu = h on a rho_mu = 2 pivot).
    ("Thm4.1-case1", {"h": 1, "k": 4, "sigma": 1, "p": 1, "p_prime": 25, "r": -1, "r_hat": -18}, (150, -7, 1, 4, 108), 1, 2707),
]

# r-range boundary members the solved-parameter inequalities of the family
# statements would misplace; the full route's match and the corrected fast
# path both must accept them: (a, d, h, k, c, family, solved, type, F).
BOUNDARY_MEMBERS = [
    (52, -5, 3, 3, 25, "Thm5.4-(iii)", {"sigma": 2, "p": 10, "r": -5}, 3, 465),
    (63, -8, 1, 5, 153, "Thm5.4-(v)", {"sigma": 7, "p": 2, "r": -6}, 2, 260),
    (161, -6, 1, 5, 192, "Thm5.4-(i)", {"l": 1, "sigma": 6, "p": 5, "r": -6}, 2, 1548),
]


def _assert_agreement(p):
    """The fast/full agreement contract for one tuple."""
    full = classify(p)
    try:
        fast = fast_path(p)
    except AmbiguousFastPath as exc:  # pragma: no cover - would be a bug
        raise AssertionError(f"ambiguous fast path for {p}: {exc}")
    if full.verdict == VERDICT_ALMOST_SYMMETRIC and full.family is not None:
        assert fast is not None, f"fast path missed {p}"
        assert (fast.family, fast.solved, fast.type, fast.frobenius) == (
            full.family,
            full.solved,
            full.type,
            full.frobenius,
        )
    else:
        assert fast is None, (
            f"fast path hit {fast and fast.family} on a {full.verdict} tuple {p}"
        )
    return full, fast


def _fast_first(p, t=None):
    """The reference order for ``classify_with_fast_path``: fast path first,
    full route on a miss or an ambiguity."""
    try:
        hit = fast_path(p)
    except AmbiguousFastPath:
        hit = None
    if hit is not None:
        return hit
    return classify(p, t)


def _outcome(route, p, t=None):
    """The route's whole Classification, or the class of what it raised."""
    try:
        return route(p, t)
    except AagError as exc:
        return type(exc)


# Small ranges for every family parameter; ``_generated_members`` walks the
# ones a family reads.
_MEMBER_GRID = {
    "k": (3, 4, 5),
    "h": (1, 2),
    "d": (2, 4),
    "l": (1, 2),
    "sigma": (1, 2, 3),
    "sigma_prime": (2, 3),
    "p": (1, 2, 3),
    "p_prime": (2, 3, 4),
    "r": tuple(range(-5, 3)),
    "r_hat": (-4, -3, -2),
}


def _step(v, at, by):
    """``v`` with its entry ``at`` moved by ``by``."""
    return (*v[:at], v[at] + by, *v[at + 1 :])


def _generated_members():
    """(family id, raw tuple) for every ``family_generate`` member whose
    parameters lie in ``_MEMBER_GRID``."""
    out = []
    for fam in FAMILIES:
        names = ("k", *fam.keys)
        names += ("h",) if fam.h_default is None else ()
        names += ("d",) if fam.id == "Thm5.1" else ()
        for values in product(*(_MEMBER_GRID[name] for name in names)):
            try:
                out.append((fam.id, family_generate(fam.id, dict(zip(names, values)))))
            except AagError:
                continue
    return out


class TestNariCheck:
    def test_type_two_pair(self):
        assert nari_check([1084, 2168], 2168) is True

    def test_singleton_is_vacuous(self):
        assert nari_check([9], 9) is True

    def test_broken_pairing(self):
        assert nari_check([3, 5, 10], 10) is False

    def test_last_entry_must_be_frobenius(self):
        with pytest.raises(MalformedPf):
            nari_check([3, 5], 10)

    def test_empty_list_rejected(self):
        with pytest.raises(MalformedPf):
            nari_check([], 0)


class TestRegistry:
    def test_ids_match_public_tuples_and_schema(self):
        schema = json.loads(files("aag").joinpath("schemas/scan_record.schema.json").read_text())
        enum = [fam for fam in schema["properties"]["family"]["enum"] if fam is not None]
        ids = tuple(fam.id for fam in FAMILIES)
        assert ids == ALL_FAMILIES == tuple(enum)
        assert ALL_FAMILIES == SYMMETRIC_FAMILIES + ALMOST_SYMMETRIC_FAMILIES

    def test_almost_symmetric_records_have_a_fast_path_solve(self):
        for fam in FAMILIES:
            assert (fam.solve is None) == fam.symmetric, fam.id

    def test_requires_reads_only_h_k_and_d(self):
        # fast_path settles ``requires`` once per (h, k, d) shape: each
        # condition takes exactly those three, positionally.
        for fam in FAMILIES:
            for h, k, d in product((1, 2, 3), (2, 3, 4, 5), (-2, 1, 2)):
                for violation in fam.requires:
                    message = violation(h, k, d)
                    assert message is None or isinstance(message, str)

    def test_admissible_families_are_those_whose_requires_pass(self):
        for h, k, d in product(range(1, 6), range(1, 26), (*range(-9, 0), *range(1, 10))):
            expected = tuple(
                fam
                for fam in FAMILIES
                if not fam.symmetric and all(check(h, k, d) is None for check in fam.requires)
            )
            assert classify_module._admissible(h, k, d) == expected, (h, k, d)

    def test_back_solve_slopes_are_the_first_differences(self):
        # The fast path reads each candidate's slopes once, at sigma = r = 0:
        # sound while a is affine in sigma and free of r and d is affine in
        # both, everywhere on the grid.
        rng = random.Random(31)
        for fam in FAMILIES:
            slots = [at for at in (fam.sigma_at, fam.r_at) if at is not None]
            if not slots:
                continue
            points = list(product(*(_MEMBER_GRID[name] for name in fam.params)))
            for v in rng.sample(points, min(len(points), 300)):
                origin = tuple(0 if i in slots else x for i, x in enumerate(v))
                a0, d0, a_sigma, d_sigma, d_r = classify_module._slopes(fam, origin)
                sigma = v[fam.sigma_at] if fam.sigma_at is not None else 0
                r = v[fam.r_at] if fam.r_at is not None else 0
                a, d, _ = fam.synthesize(*v)
                assert (a, d) == (a0 + a_sigma * sigma, d0 + d_sigma * sigma + d_r * r), (fam.id, v)
                for at, slopes in ((fam.sigma_at, (a_sigma, d_sigma)), (fam.r_at, (0, d_r))):
                    if at is None:
                        continue
                    steps = [fam.synthesize(*_step(v, at, n))[:2] for n in (1, 2)]
                    (a1, d1), (a2, d2) = steps
                    assert (a2 - 2 * a1 + a, d2 - 2 * d1 + d) == (0, 0), (fam.id, v, at)
                    assert (a1 - a, d1 - d) == slopes, (fam.id, v, at)


class TestRawPresentation:
    EXPECTED = ("Thm5.3-(i)", {"l": 14, "sigma": 4, "p": 3, "r": -2}, 6, 668)

    def test_normalized_tuple_is_not_revalidated(self, monkeypatch):
        p = validate_params(163, -2, 1, 19, 170)
        assert p.normalized

        def refuse(gens):
            raise AssertionError("minimality re-checked on an already validated tuple")

        monkeypatch.setattr(oracle, "is_minimal_generating", refuse)
        for r in (classify(p), fast_path(p)):
            assert (r.family, r.solved, r.type, r.frobenius) == self.EXPECTED

    def test_raw_generators_match_the_raw_tuple(self):
        p = validate_params(163, -2, 1, 19, 170)
        raw = validate_params(163, -2, 1, 19, 170, normalize=False)
        assert _raw_presentation(p) == raw

    def test_rewritten_neither_tuple_is_answered_on_the_callers_table(self, monkeypatch):
        # (150, -1, 1, 19, 170) is rewritten to (131, 1, 1, 19, 170); a
        # NeitherSpecial verdict matches no family, so no raw table is built.
        p = validate_params(150, -1, 1, 19, 170)
        t = build_table(p)
        expected = classify(_raw_presentation(p))

        def refuse(*args, **kwargs):
            raise AssertionError("classify built a table")

        monkeypatch.setattr(classify_module, "build_table", refuse)
        cls = classify(p, t)
        assert (cls.verdict, cls.type, cls.frobenius) == (VERDICT_NEITHER, 32, 523)
        assert (cls.verdict, cls.type, cls.frobenius, cls.pf) == (
            expected.verdict, expected.type, expected.frobenius, expected.pf,
        )

    def test_fast_path_neither_validates_nor_builds_a_table(self, monkeypatch):
        p = validate_params(163, -2, 1, 19, 170)

        def refuse(*args, **kwargs):
            raise AssertionError("fast path left closed-form arithmetic")

        monkeypatch.setattr(classify_module, "validate_params", refuse)
        monkeypatch.setattr(classify_module, "build_table", refuse)
        r = fast_path(p)
        assert (r.family, r.solved, r.type, r.frobenius) == self.EXPECTED


class TestSweepRecords:
    @pytest.mark.parametrize("a,d,c,k,h,family,solved,typ,frob", SWEEP_RECORDS)
    def test_full_route(self, a, d, c, k, h, family, solved, typ, frob):
        p = validate_params(a, d, h, k, c)
        r = classify(p)
        assert r.verdict == VERDICT_ALMOST_SYMMETRIC
        assert r.family == family
        assert r.solved == solved
        assert r.type == typ
        assert r.frobenius == frob
        assert r.fast_path_used is False

    @pytest.mark.parametrize(
        "a,d,c,k,h,family,solved,typ,frob",
        [*SWEEP_RECORDS, (9, 1, 25, 3, 1, "Thm5.4-(v)", {"sigma": 2, "p": 2, "r": -5}, 2, 26)],
    )
    def test_fast_route(self, a, d, c, k, h, family, solved, typ, frob):
        p = validate_params(a, d, h, k, c)
        r = fast_path(p)
        assert r is not None
        assert r.fast_path_used is True
        assert (r.family, r.solved, r.type, r.frobenius) == (family, solved, typ, frob)

    @pytest.mark.parametrize("a,d,c,k,h,family,solved,typ,frob", SWEEP_RECORDS[:2])
    def test_oracle_agrees(self, a, d, c, k, h, family, solved, typ, frob):
        p = validate_params(a, d, h, k, c)
        rep = oracle.oracle_report(list(p.generators))
        assert rep.almost_symmetric
        assert (rep.type, rep.frobenius) == (typ, frob)


class TestFamilyMembers:
    @pytest.mark.parametrize("family,params,tuple_,typ,frob", FAMILY_MEMBERS)
    def test_generate_matches_frozen_tuple(self, family, params, tuple_, typ, frob):
        p = family_generate(family, params)
        assert (p.a, p.d, p.h, p.k, p.c) == tuple_

    @pytest.mark.parametrize("family,params,tuple_,typ,frob", FAMILY_MEMBERS)
    def test_round_trip(self, family, params, tuple_, typ, frob):
        p = family_generate(family, params)
        r = classify(p)
        expected_verdict = (
            VERDICT_SYMMETRIC
            if family in SYMMETRIC_FAMILIES
            else VERDICT_ALMOST_SYMMETRIC
        )
        assert r.verdict == expected_verdict
        assert r.family == family
        assert r.type == typ
        assert r.frobenius == frob
        # The solved parameters regenerate the same tuple.
        solved = dict(r.solved)
        solved.setdefault("h", p.h)
        solved.setdefault("k", p.k)
        if family == "Thm5.1":
            solved["d"] = p.d
        back = family_generate(family, solved)
        assert (back.a, back.d, back.h, back.k, back.c) == tuple_

    @pytest.mark.parametrize("family,params,tuple_,typ,frob", FAMILY_MEMBERS)
    def test_oracle_confirms(self, family, params, tuple_, typ, frob):
        p = family_generate(family, params)
        rep = oracle.oracle_report(list(p.generators))
        assert rep.type == typ
        assert rep.frobenius == frob
        if family in SYMMETRIC_FAMILIES:
            assert rep.symmetric
        else:
            assert rep.almost_symmetric and rep.type >= 2

    @pytest.mark.parametrize("family,params,tuple_,typ,frob", FAMILY_MEMBERS)
    def test_formula_helpers_agree(self, family, params, tuple_, typ, frob):
        p = family_generate(family, params)
        r = classify(p)
        assert family_type(family, r.solved, p) == typ
        assert family_frobenius(family, r.solved, p) == frob

    @pytest.mark.parametrize("family,params,tuple_,typ,frob", FAMILY_MEMBERS)
    def test_fingerprint_is_unique(self, family, params, tuple_, typ, frob):
        p = family_generate(family, params)
        t = build_table(p)
        hits = match_families(p, t, ALL_FAMILIES)
        assert [fam for fam, _ in hits] == [family]


class TestSymmetricWitness:
    """sigma=1, k=3, p=2, p_prime=3, r=1, r_hat=-2 gives (15, 7, 10)."""

    def test_classifies_symmetric(self):
        p = validate_params(15, 7, 1, 3, 10)
        r = classify(p)
        assert r.verdict == VERDICT_SYMMETRIC
        assert r.family == "Thm4.1-case1"
        assert r.solved == {"sigma": 1, "p": 2, "p_prime": 3, "r": 1, "r_hat": -2}
        assert r.type == 1
        assert r.frobenius == 63
        assert oracle.oracle_report(list(p.generators)).type == 1

    def test_fast_path_silent_on_symmetric(self):
        assert fast_path(validate_params(15, 7, 1, 3, 10)) is None

    def test_single_pf_value_off_frobenius_is_malformed(self, monkeypatch):
        # A one-value dispatch bug must not pass as Symmetric: its PF set
        # has to end at F as on every other closed-form verdict.
        p = validate_params(15, 7, 1, 3, 10)
        real = classify_module.pf_tilde(p, build_table(p))
        assert real.pf_numbers == (63,)

        def off_by_one(params, table):
            return dataclasses.replace(real, pf_numbers=(62,))

        monkeypatch.setattr(classify_module, "pf_tilde", off_by_one)
        with pytest.raises(MalformedPf):
            classify(p)


class TestBoundaryMembers:
    @pytest.mark.parametrize("a,d,h,k,c,family,solved,typ,frob", BOUNDARY_MEMBERS)
    def test_both_routes_accept(self, a, d, h, k, c, family, solved, typ, frob):
        p = validate_params(a, d, h, k, c)
        full = classify(p)
        assert (full.family, full.solved, full.type, full.frobenius) == (
            family,
            solved,
            typ,
            frob,
        )
        fast = fast_path(p)
        assert fast is not None
        assert (fast.family, fast.solved, fast.type, fast.frobenius) == (
            family,
            solved,
            typ,
            frob,
        )

    @pytest.mark.parametrize("a,d,h,k,c,family,solved,typ,frob", BOUNDARY_MEMBERS)
    def test_oracle_confirms(self, a, d, h, k, c, family, solved, typ, frob):
        p = validate_params(a, d, h, k, c, normalize=False)
        rep = oracle.oracle_report(list(p.generators))
        assert rep.almost_symmetric
        assert (rep.type, rep.frobenius) == (typ, frob)


class TestOracleOnlyRouting:
    def test_k_below_three(self):
        p = validate_params(5, 1, 1, 2, 8, normalize=False)
        r = classify(p)
        assert r.verdict == VERDICT_ORACLE_ONLY
        assert r.family is None and r.solved == {}
        assert (r.type, r.frobenius) == (1, 9)

    def test_k_below_three_fast_path_silent(self):
        assert fast_path(validate_params(5, 1, 1, 2, 8, normalize=False)) is None

    def test_hypothesis_violator_routed(self, hypothesis_violator):
        p, t = hypothesis_violator
        assert not t.hypothesis_ok
        r = classify(p)
        assert r.verdict == VERDICT_ORACLE_ONLY
        rep = oracle.oracle_report(list(p.generators))
        assert (r.type, r.frobenius) == (rep.type, rep.frobenius)

    def test_conclusions_fail_outside_hypothesis(self):
        # (11, -5, 2, 3, 8) satisfies the letter conditions of a symmetric
        # family but violates the pivot hypothesis; it is not symmetric.
        p = validate_params(11, -5, 2, 3, 8, normalize=False)
        r = classify(p)
        assert r.verdict == VERDICT_ORACLE_ONLY
        assert (r.type, r.frobenius) == (4, 13)
        rep = oracle.oracle_report(list(p.generators))
        assert rep.type == 4 and not rep.almost_symmetric

    def test_generate_rejects_hypothesis_violation(self):
        with pytest.raises(FamilyConstraintViolated, match="hypothesis"):
            family_generate(
                "Thm4.1-case3",
                {"h": 2, "k": 3, "sigma": 1, "p": 1, "p_prime": 3, "r": -3},
            )


class TestSubHypothesisGap:
    """Tuples solving a family's equations below the pivot hypothesis.

    The two-column-family formulas with r < -h*sigma produce tuples whose
    table violates the standing hypothesis; both routes must refuse to
    classify them (some are genuinely not almost symmetric).
    """

    # (a, d, h, k, c, oracle_type, oracle_frob)
    GAP_TUPLES = [
        (6, -1, 2, 3, 13, 2, 14),
        (11, -4, 2, 3, 13, 5, 19),
        (16, -7, 2, 3, 13, 5, 30),
    ]

    @pytest.mark.parametrize("a,d,h,k,c,typ,frob", GAP_TUPLES)
    def test_full_route_defers_to_oracle(self, a, d, h, k, c, typ, frob):
        p = validate_params(a, d, h, k, c, normalize=False)
        assert not build_table(p).hypothesis_ok
        r = classify(p)
        assert r.verdict == VERDICT_ORACLE_ONLY
        assert (r.type, r.frobenius) == (typ, frob)

    @pytest.mark.parametrize("a,d,h,k,c,typ,frob", GAP_TUPLES)
    def test_fast_path_refuses(self, a, d, h, k, c, typ, frob):
        p = validate_params(a, d, h, k, c, normalize=False)
        assert fast_path(p) is None


class TestFamilyGenerateConstraints:
    @pytest.mark.parametrize(
        "family,params,fragment",
        [
            ("Thm5.1", {"k": 4, "d": 2}, "odd"),
            ("Thm5.1", {"k": 3, "d": 3}, "even"),
            ("Thm5.2", {"h": 1, "k": 3, "sigma": 1, "p": 2}, "h >= 2"),
            ("Thm4.1-case1",
             {"h": 1, "k": 3, "sigma": 1, "p": 1, "p_prime": 2, "r": 1, "r_hat": -4},
             "gcd"),
            ("Thm5.4-(i)", {"k": 4, "l": 1, "sigma": 1, "p": 2, "r": -1}, "r <= -2"),
            ("Thm5.4-(ii)", {"h": 2, "k": 3, "sigma": 2, "p": 2, "r": -2}, "r < -h"),
            ("Thm5.4-(iii)", {"h": 2, "k": 3, "sigma": 2, "p": 2, "r": -2}, "r < -h"),
            ("Thm5.4-(iv)", {"k": 3, "p": 2, "r": -1}, "r < -1"),
            ("Thm5.4-(v)", {"k": 3, "sigma": 2, "p": 2, "r": -2}, "r <= -3"),
            ("Thm5.4-(i)", {"k": 3, "l": 1, "sigma": 1, "p": 2, "r": -2}, "k >= 4"),
            ("Thm4.1-case1",
             {"h": 2, "k": 3, "sigma": 1, "p": 1, "p_prime": 2, "r": -3, "r_hat": -3},
             r"need r \+ h\*sigma >= 0, got -1"),
            ("Thm5.2", {"k": 3}, "missing h, p, sigma$"),
            ("Thm5.4-(iv)", {"k": 3, "p": 2}, "missing r$"),
            ("Thm5.1", {"k": 3}, "missing d$"),
            ("Thm5.1", {"k": 3, "d": 2, "sigma": 9, "r_hat": -7}, "unknown r_hat, sigma$"),
            ("Thm4.1-case3",
             {"h": 1, "k": 3, "sigma": 2, "p": 1, "p_prime": 2, "r": -1, "l": 1},
             "unknown l$"),
        ],
    )
    def test_stated_constraints_enforced(self, family, params, fragment):
        with pytest.raises(FamilyConstraintViolated, match=fragment):
            family_generate(family, params)

    def test_unknown_family_rejected(self):
        with pytest.raises(FamilyConstraintViolated, match="unknown"):
            family_generate("Thm9.9", {"k": 3})

    def test_boundary_r_values_now_generate(self):
        # r at the structural bound, above the solved-parameter inequality
        # r < -sigma, still produces oracle-confirmed members.
        p = family_generate("Thm5.4-(i)", {"k": 4, "l": 1, "sigma": 2, "p": 2, "r": -2})
        r = classify(p)
        assert (r.family, r.type, r.frobenius) == ("Thm5.4-(i)", 2, 44)
        rep = oracle.oracle_report(list(p.generators))
        assert (rep.type, rep.frobenius) == (2, 44) and rep.almost_symmetric
        p = family_generate("Thm5.4-(v)", {"k": 3, "sigma": 3, "p": 3, "r": -3})
        r = classify(p)
        assert (r.family, r.type, r.frobenius) == ("Thm5.4-(v)", 2, 38)
        rep = oracle.oracle_report(list(p.generators))
        assert (rep.type, rep.frobenius) == (2, 38) and rep.almost_symmetric


class TestClassifyWithFastPath:
    def test_uses_fast_route_on_family_member(self):
        p = validate_params(155, 1, 4, 20, 177)
        r = classify_with_fast_path(p)
        assert r.fast_path_used is True
        assert r.family == "Thm5.3-(ii)"
        assert (r.type, r.frobenius) == (2, 2168)

    def test_falls_back_when_fast_silent(self):
        p = validate_params(15, 7, 1, 3, 10)  # symmetric: fast path is silent
        r = classify_with_fast_path(p)
        assert r.fast_path_used is False
        assert r.verdict == VERDICT_SYMMETRIC
        assert r.family == "Thm4.1-case1"

    def test_fallback_reuses_the_callers_table(self, monkeypatch):
        p = validate_params(15, 7, 1, 3, 10)  # raw presentation, fast path silent
        t = build_table(p)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the caller's table was rebuilt")

        monkeypatch.setattr(classify_module, "build_table", refuse)
        r = classify_with_fast_path(p, t)
        assert r.fast_path_used is False
        assert (r.verdict, r.family) == (VERDICT_SYMMETRIC, "Thm4.1-case1")

    @pytest.fixture
    def calls(self, monkeypatch):
        """The log of ``fast_path`` calls, oracle reports and table builds
        that ``classify_with_fast_path`` makes."""
        log = []

        def logged(name, inner):
            def wrapper(*args, **kwargs):
                log.append(name)
                return inner(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(classify_module, "fast_path", logged("fast", fast_path))
        monkeypatch.setattr(oracle, "oracle_report", logged("oracle", oracle.oracle_report))
        monkeypatch.setattr(classify_module, "build_table", logged("table", build_table))
        return log

    @pytest.mark.parametrize(
        "args,verdict,family",
        [
            ((999_999_937, 1_861_391, 4, 20, 73_325_467_808), VERDICT_NEITHER, None),
            ((15, 7, 1, 3, 10), VERDICT_SYMMETRIC, "Thm4.1-case1"),
        ],
    )
    def test_closed_form_answers_without_the_fast_path(self, calls, args, verdict, family):
        p = validate_params(*args)
        r = classify_with_fast_path(p)
        assert (r.verdict, r.family, r.fast_path_used) == (verdict, family, False)
        assert calls == ["table"]
        calls.clear()
        assert classify_with_fast_path(p, build_table(p)) == r
        assert calls == []  # no table of its own

    @pytest.mark.parametrize("a,d,c,k,h,family,solved,typ,frob", SWEEP_RECORDS)
    def test_almost_symmetric_verdict_takes_one_fast_path_call(
        self, calls, a, d, c, k, h, family, solved, typ, frob
    ):
        r = classify_with_fast_path(validate_params(a, d, h, k, c))
        assert (r.family, r.solved, r.type, r.frobenius) == (family, solved, typ, frob)
        assert r.fast_path_used is True
        assert calls.count("fast") == 1 and "oracle" not in calls

    def test_oracle_route_makes_no_fast_path_call(self, calls, hypothesis_violator):
        # A k >= 3 tuple whose table fails the hypothesis, and a k = 2 tuple:
        # the oracle answers both, and the fast path is never asked.
        k2 = validate_params(155, 1, 4, 2, 177)
        for p, t in (hypothesis_violator, (k2, build_table(k2))):
            calls.clear()
            r = classify_with_fast_path(p, t)
            assert r.verdict == VERDICT_ORACLE_ONLY
            assert calls == ["oracle"]


class TestAgreementAndSoundness:
    @given(p=valid_params(k_range=(3, 6)))
    @settings(max_examples=150, deadline=None)
    def test_fast_full_agreement(self, p):
        _assert_agreement(p)

    def test_fast_hits_are_full_route_members_on_a_raw_box(self):
        # Every valid raw-presentation cell of a small box, including the
        # ones whose table fails the hypothesis: a fast-path hit must be an
        # almost-symmetric full-route verdict with the same family data.
        hits = violators = 0
        for a, d, c, k, h in product(range(3, 26), range(-3, 4), range(2, 41), (3, 4), (1, 2)):
            try:
                p = validate_params(a, d, h, k, c, normalize=False)
            except AagError:
                continue
            t = build_table(p)
            violators += not t.hypothesis_ok
            fast = fast_path(p)
            if fast is None:
                continue
            hits += 1
            full = classify(p, t)
            assert full.verdict == VERDICT_ALMOST_SYMMETRIC, (a, d, c, k, h)
            assert (fast.family, fast.solved, fast.type, fast.frobenius) == (
                full.family,
                full.solved,
                full.type,
                full.frobenius,
            ), (a, d, c, k, h)
        assert (hits, violators) == (174, 758)

    def test_full_route_first_answers_as_the_fast_path_first(self, verify_grid):
        # The verify grid (every other table, k from 1 to 6, both
        # presentations), generated members of every family in both
        # presentations and the sweep tuples: whole Classifications
        # (fast_path_used, pf and case_trace too), or the same error class.
        members = _generated_members()
        assert {family for family, _ in members} == set(ALL_FAMILIES)
        cases = list(verify_grid[::2])
        for _, raw in members:
            cases += [(raw, None), (validate_params(raw.a, raw.d, raw.h, raw.k, raw.c), None)]
        for a, d, c, k, h, *_ in SWEEP_RECORDS:
            for normalize in (False, True):
                cases.append((validate_params(a, d, h, k, c, normalize=normalize), None))
        hits = 0
        for p, t in cases:
            reference = _outcome(_fast_first, p, t)
            assert _outcome(classify_with_fast_path, p, t) == reference, p
            hits += getattr(reference, "fast_path_used", False)
        assert (len(members), len(cases), hits) == (995, 13_439, 1_004)

    def test_fast_path_misses_a_battery_of_hypothesis_violators(self):
        # Outside the hypothesis the family claims can fail, so a fast-path
        # hit there would be an unchecked answer.  h >= 2 only: every table
        # with h = 1 satisfies the hypothesis.
        rng = random.Random(30)
        violators = []
        while len(violators) < 2_000:
            a, k, h = rng.randint(5, 3_000), rng.randint(3, 25), rng.randint(2, 5)
            d, c = rng.randint(-a, a), rng.randint(2, 2 * h * a)
            try:
                p = validate_params(a, d, h, k, c)
            except AagError:
                continue
            if not build_table(p).hypothesis_ok:
                violators.append(p)
        assert [p for p in violators if fast_path(p) is not None] == []

    @given(p=valid_params(a_range=(5, 80), c_range=(3, 150), k_range=(2, 6)))
    @settings(max_examples=80, deadline=None)
    def test_verdicts_sound_against_oracle(self, p):
        r = classify(p)
        rep = oracle.oracle_report(list(p.generators))
        assert (r.type, r.frobenius) == (rep.type, rep.frobenius)
        if r.verdict == VERDICT_SYMMETRIC:
            assert rep.type == 1
        elif r.verdict == VERDICT_ALMOST_SYMMETRIC:
            assert rep.almost_symmetric and rep.type >= 2
        elif r.verdict == VERDICT_NEITHER:
            assert not rep.almost_symmetric and rep.type >= 2

    @given(p=valid_params(k_range=(3, 6)))
    @settings(max_examples=150, deadline=None)
    def test_almost_symmetric_type_bound(self, p):
        r = classify(p)
        if r.verdict == VERDICT_ALMOST_SYMMETRIC:
            assert 2 <= r.type <= p.k + 1
            assert r.family in ALMOST_SYMMETRIC_FAMILIES


class TestKnownCost:
    @pytest.fixture(autouse=True)
    def refuse_rows(self, monkeypatch):
        def refuse(table):
            raise AssertionError("classify read the table's rows")

        monkeypatch.setattr(EuclidTable, "rows", property(refuse))

    def test_long_table_is_classified_from_its_pivot_rows(self):
        # c ≡ -d (mod a): the table has a + 1 = 999,984 rows, and classify
        # must answer without building them.
        p = validate_params(999_983, 1, 4, 20, 4_999_914)
        tracemalloc.start()
        try:
            cls = classify(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cls.verdict, cls.frobenius, cls.type) == (VERDICT_NEITHER, 192_304_692_302, 2)
        assert peak < 1 << 20

    def test_long_table_takes_the_closed_form_with_the_fast_path(self):
        # The same 999,984-row NeitherSpecial table through the library
        # entry point: the closed form answers, and the fast path never runs.
        cls = classify_with_fast_path(validate_params(999_983, 1, 4, 20, 4_999_914))
        assert (cls.verdict, cls.frobenius, cls.type) == (VERDICT_NEITHER, 192_304_692_302, 2)
        assert cls.fast_path_used is False

    @pytest.mark.parametrize(
        "a,frobenius",
        [
            (1019, 199_684),
            (1_000_001, 192_308_153_846),
            (1_000_000_019, 192_307_699_615_384_684),
            (10**12 + 1, 192_307_692_308_153_846_153_846),
        ],
    )
    def test_long_tables_cost_the_same_at_any_scale(self, a, frobenius):
        # (a, 1, 4, 20, 5a - 1) has a + 1 rows, past the default row cap
        # from a = 10**6 on; validation (minimality checked) and classify
        # read only the pivot rows, so the memory bound does not grow with a.
        tracemalloc.start()
        try:
            cls = classify(validate_params(a, 1, 4, 20, 5 * a - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cls.verdict, cls.type, cls.frobenius) == (VERDICT_NEITHER, 20, frobenius)
        assert peak < 1 << 20
