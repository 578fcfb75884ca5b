"""Validation, normalization, closed-form minimality and weighted-degree tests."""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aag import core, oracle
from aag.classify import classify_with_fast_path
from aag.core import (
    AagParams,
    Monomial,
    _arithmetic_apery,
    _floor_path_min,
    _triple_member,
    is_minimal,
    phi,
    validate_params,
)
from aag.euclid import EuclidTable, build_table
from aag.errors import (
    AagError,
    GcdViolation,
    NonPositiveGenerator,
    NonsenseInput,
    NotMinimal,
)
from aag.pseudofrob import pf_tilde
from aag.staircase import frobenius

from conftest import monomial


class TestValidateFrozen:
    def test_running_example(self):
        p = validate_params(155, 1, 4, 20, 177)
        assert p.generators == (155, *range(621, 641), 177)
        assert not p.normalized
        assert (p.a, p.d, p.h, p.k, p.c) == (155, 1, 4, 20, 177)

    def test_gcd_violation(self):
        with pytest.raises(GcdViolation):
            validate_params(6, 2, 1, 3, 7)

    def test_negative_d_rewrite(self):
        p = validate_params(20, -1, 1, 3, 23)
        assert p.normalized
        assert (p.a, p.d) == (17, 1)
        assert p.generators == (17, 18, 19, 20, 23)

    def test_rewrite_preserves_generator_set(self):
        raw_gens = {20, 19, 18, 17, 23}
        p = validate_params(20, -1, 1, 3, 23)
        assert set(p.generators) == raw_gens

    def test_raw_presentation_kept_on_request(self):
        p = validate_params(20, -1, 1, 3, 23, normalize=False)
        assert not p.normalized
        assert (p.a, p.d) == (20, -1)
        assert p.generators == (20, 19, 18, 17, 23)

    def test_negative_d_high_h_not_rewritten(self):
        # d < 0 with h >= 2 stays as-is (handled directly downstream).
        p = validate_params(165, -1, 4, 19, 186)
        assert not p.normalized
        assert p.generators[0] == 165
        assert p.generators[1] == 4 * 165 - 1


class TestValidateErrors:
    @pytest.mark.parametrize(
        "args",
        [
            (0, 1, 1, 3, 7),
            (5, 0, 1, 3, 7),
            (5, 1, 0, 3, 7),
            (5, 1, 1, 0, 7),
            (5, 1, 1, 3, 0),
            (5.0, 1, 1, 3, 7),
            (5, 1, True, 3, 7),
        ],
    )
    def test_nonsense(self, args):
        with pytest.raises(NonsenseInput):
            validate_params(*args)

    def test_nonpositive_generator(self):
        # h=2: no rewrite; 2*5 + 3*(-4) = -2.
        with pytest.raises(NonPositiveGenerator):
            validate_params(5, -4, 2, 3, 11)

    def test_rewrite_to_nonpositive(self):
        # h=1, a+kd = 20 - 21 < 0: the rewritten first generator is invalid.
        with pytest.raises(NonPositiveGenerator):
            validate_params(20, -7, 1, 3, 11)

    def test_not_minimal_c_in_span(self):
        # c = 11 = 5 + 6 lies in <5, 6, 7>.
        with pytest.raises(NotMinimal):
            validate_params(5, 1, 1, 2, 11)

    def test_not_minimal_duplicate(self):
        with pytest.raises(NotMinimal):
            validate_params(5, 1, 1, 2, 6)

    def test_minimality_skippable(self):
        p = validate_params(5, 1, 1, 2, 11, check_minimality=False)
        assert p.generators == (5, 6, 7, 11)

    def test_more_generators_than_the_smallest_one(self):
        # (4, 5, 6, 7) is minimal with k + 2 = 4 generators; k = 3 gives
        # five generators, one more than the smallest generator 4 allows.
        assert validate_params(4, 1, 1, 2, 7).generators == (4, 5, 6, 7)
        with pytest.raises(NotMinimal):
            validate_params(4, 1, 1, 3, 9)
        assert not is_minimal(validate_params(4, 1, 1, 3, 9, check_minimality=False))

    def test_huge_k_is_refused_without_building_the_generators(self):
        start = time.perf_counter()
        with pytest.raises(NotMinimal) as exc:
            validate_params(7, 1, 1, 10**12, 11)
        assert time.perf_counter() - start < 0.1
        assert len(str(exc.value)) < 200

    def test_huge_k_above_the_cap_is_refused_in_constant_time(self):
        # k + 2 <= a, so only the AAG_MAX_A cap stops 10**9 generators.
        a = 10**12 + 39
        start = time.perf_counter()
        with pytest.raises(NonsenseInput) as exc:
            validate_params(a, 1, 1, 10**9, 3 * a + 1)
        assert time.perf_counter() - start < 0.1
        assert "AAG_MAX_A" in str(exc.value)

    @pytest.mark.parametrize("check_minimality", [True, False])
    def test_small_k_above_a_lowered_cap(self, monkeypatch, check_minimality):
        monkeypatch.setenv("AAG_MAX_A", "21")
        with pytest.raises(NonsenseInput):
            validate_params(155, 1, 4, 20, 177, check_minimality=check_minimality)
        monkeypatch.setenv("AAG_MAX_A", "22")
        assert validate_params(155, 1, 4, 20, 177, check_minimality=check_minimality).k == 20

    def test_not_minimal_is_reported_before_the_cap(self, monkeypatch):
        monkeypatch.setenv("AAG_MAX_A", "3")
        with pytest.raises(NotMinimal):
            validate_params(4, 1, 1, 3, 9)


class TestParamsRecord:
    """``AagParams`` is a slotted frozen record, and the fast shape check in
    front of ``validate_params`` keeps every error class and message."""

    def test_slotted_frozen_record(self):
        p = validate_params(155, 1, 4, 20, 177)
        assert not hasattr(p, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.c = 178

    @pytest.mark.parametrize("args", [(155, 1, 4, 20, 177), (20, -1, 1, 3, 23)])
    def test_pickle_equality_and_hash(self, args):
        p = validate_params(*args)
        again = pickle.loads(pickle.dumps(p))
        assert again == p == validate_params(*args) and again is not p
        assert hash(again) == hash(p)
        assert (again.normalized, again.generators) == (p.normalized, p.generators)
        assert len({p, again, validate_params(*args)}) == 1
        assert p != validate_params(155, 1, 4, 20, 179)

    def test_replace(self):
        p = validate_params(155, 1, 4, 20, 177)
        q = dataclasses.replace(p, c=179, generators=(*p.generators[:-1], 179))
        assert type(q) is AagParams and (q.c, q.generators[-1]) == (179, 179)
        assert (q.a, q.d, q.h, q.k, q.normalized) == (p.a, p.d, p.h, p.k, p.normalized)
        assert q.arithmetic_part() == p.arithmetic_part() and q != p

    @pytest.mark.parametrize(
        "args,message",
        [
            ((True, 1, 1, 3, 7), "a must be an integer, got True"),
            ((5, 1, True, 3, 7), "h must be an integer, got True"),
            ((5, 1, 1, False, 7), "k must be an integer, got False"),
            ((5, True, 1, 3, 7), "d must be an integer, got True"),
            ((5.0, 1, 1, 3, 7), "a must be an integer, got 5.0"),
            ((5, 1, 1, 3, "7"), "c must be an integer, got '7'"),
            ((5, 1.0, 1, 3, 7), "d must be an integer, got 1.0"),
            ((5, None, 1, 3, 7), "d must be an integer, got None"),
            ((0, 1, 1, 3, 7), "a must be positive, got 0"),
            ((5, 1, -1, 3, 7), "h must be positive, got -1"),
            ((5, 1, 1, 0, 7), "k must be positive, got 0"),
            ((5, 1, 1, 3, -7), "c must be positive, got -7"),
            ((0, 0, 0, 0, 0), "a must be positive, got 0"),
            ((5, 0, 1, 3, 7), "d must be nonzero (d=0 collapses the arithmetic part)"),
            ((5, 0, 0, 3, 7), "h must be positive, got 0"),
        ],
    )
    def test_every_shape_error_keeps_its_class_and_message(self, args, message):
        with pytest.raises(NonsenseInput) as exc:
            validate_params(*args)
        assert type(exc.value) is NonsenseInput and str(exc.value) == message

    def test_int_subclasses_take_the_named_checks(self):
        class Wide(int):
            pass

        p = validate_params(Wide(155), Wide(1), 4, 20, Wide(177))
        assert p == validate_params(155, 1, 4, 20, 177)
        with pytest.raises(NonsenseInput, match="d must be nonzero"):
            validate_params(155, Wide(0), 4, 20, 177)


class TestGeneratorInvariants:
    @given(
        st.integers(2, 60),
        st.integers(-6, 9),
        st.integers(1, 4),
        st.integers(2, 8),
        st.integers(2, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_spacing_and_positivity(self, a, d, h, k, c):
        try:
            p = validate_params(a, d, h, k, c)
        except Exception:
            return
        g = p.generators
        assert len(g) == p.k + 2
        assert all(x > 0 for x in g)
        assert g[1] - p.h * g[0] == p.d
        assert all(g[i + 1] - g[i] == p.d for i in range(1, p.k))
        assert math.gcd(*g) == 1
        assert oracle.is_minimal_generating(list(g))
        if p.d < 0:
            assert p.h >= 2  # after normalization


def _unchecked(a, d, h, k, c, normalize=True):
    return validate_params(a, d, h, k, c, normalize=normalize, check_minimality=False)


def _agrees_with_oracle(p: AagParams) -> bool:
    return is_minimal(p) == oracle.is_minimal_generating(list(p.generators))


def _reference_is_minimal(p: AagParams) -> bool:
    """The per-difference search ``is_minimal`` ran before it settled whole
    progressions: every distinct positive generator difference is searched
    on its own, through the Apery function of T or ``_triple_member``."""
    gens = p.generators
    if p.k + 2 > min(gens) or len(set(gens)) != len(gens) or 1 in gens:
        return False
    a, d, h, k, c = p.a, p.d, p.h, p.k, p.c
    if d < 0 and h == 1:
        a, d = a + k * d, -d
    arithmetic = [a, *(h * a + i * d for i in range(1, k + 1))]
    top, bottom = max(a, arithmetic[-1]), min(a, arithmetic[-1])
    smallest = min(gens)
    apery = core._arithmetic_apery(a, d, h, k)
    in_triple = _triple_member(top, bottom, c)
    smallest_in_a = min(arithmetic)
    translates = sorted((0, *arithmetic[1:-1]))

    def in_s(x: int) -> bool:
        by_c = min(x // c, smallest_in_a - 1) + 1
        if by_c <= k * min(x // top + 1, core._SHORT_SEARCH):
            return any(y >= apery(y) for y in range(x, x - by_c * c, -c))
        return any(in_triple(x - g) for g in translates if g <= x)

    differences = {m * abs(d) for m in range(1, k)}
    differences.update(abs(g - a) for g in arithmetic[1:])
    differences.update(abs(c - g) for g in arithmetic)
    return not any(in_s(v) for v in differences if v >= smallest)


class TestClosedFormMinimality:
    """``core.is_minimal`` against the oracle's pair criterion."""

    def test_strided_box_in_both_presentations(self):
        cases = 0
        for a in range(1, 48, 4):
            for d in range(-9, 10, 2):
                for h in (1, 2, 3):
                    for k in (1, 2, 3, 5):
                        for c in range(1, 140, 9):
                            for normalize in (True, False):
                                try:
                                    p = _unchecked(a, d, h, k, c, normalize)
                                except AagError:
                                    continue
                                assert _agrees_with_oracle(p), (a, d, h, k, c, normalize)
                                cases += 1
        assert cases > 10_000

    @given(
        st.integers(1, 90),
        st.integers(-15, 15),
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(1, 400),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_tuples(self, a, d, h, k, c, normalize):
        try:
            p = _unchecked(a, d, h, k, c, normalize)
        except AagError:
            return
        assert _agrees_with_oracle(p)

    @pytest.mark.parametrize("a,d,h,k", [(3, -1, 3, 4), (2, -1, 4, 5), (3, -2, 4, 4)])
    def test_negative_d_window_when_a_below_k(self, a, d, h, k):
        # With a < k the least sum in a residue class can take J = j + m*a
        # with m > 0, so the m = 0 formula alone is wrong here.
        w = _arithmetic_apery(a, d, h, k)
        table = oracle.apery_oracle([a, *(h * a + i * d for i in range(1, k + 1))], a)
        assert [w(r) for r in range(a)] == table
        j = [r * pow(d, -1, a) % a for r in range(a)]
        assert [-(-jr // k) * h * a + jr * d for jr in j] != table
        for c in range(2, 40):
            try:
                p = _unchecked(a, d, h, k, c)
            except AagError:
                continue
            assert _agrees_with_oracle(p), c

    @pytest.mark.parametrize(
        "args,minimal",
        [
            ((30, 1, 1, 3, 7), True),  # c < a
            ((30, 1, 1, 3, 61), False),  # c = 30 + 31
            ((30, 1, 1, 3, 31), False),  # c equals the generator a + d
            ((9, -2, 2, 3, 14), False),  # c equals the generator 2a - 2d
            ((1, 1, 1, 3, 5), False),  # a = 1
            ((5, -3, 2, 3, 7), False),  # ha + kd = 1
            ((3, -1, 2, 3, 7), False),  # ha + 3d = a: a duplicate inside A
        ],
    )
    def test_named_corners(self, args, minimal):
        p = _unchecked(*args)
        assert is_minimal(p) is minimal
        assert _agrees_with_oracle(p)

    def test_raw_negative_d_h1_reads_the_same_set(self):
        for c in range(2, 60):
            try:
                raw = _unchecked(20, -3, 1, 4, c, normalize=False)
            except AagError:
                continue
            rewritten = _unchecked(20, -3, 1, 4, c)
            assert is_minimal(raw) == is_minimal(rewritten)
            assert _agrees_with_oracle(raw), c


class TestMembershipSearches:
    """The two searches behind ``is_minimal`` against brute force."""

    def test_floor_path_min(self):
        rng = random.Random(3)
        for _ in range(3000):
            q, p, n = rng.randint(1, 60), rng.randint(0, 150), rng.randint(0, 80)
            r, A, D = rng.randint(0, q - 1), rng.randint(-50, 50), rng.randint(-50, 50)
            brute = min((A * i - D * ((p * i + r) // q) for i in range(1, n + 1)), default=None)
            assert _floor_path_min(p, q, r, n, A, D) == brute, (p, q, r, n, A, D)

    def test_triple_member_matches_a_sieve(self):
        # Small generators and y up to 1200 reach both the step-by-step and
        # the Euclidean search.
        rng = random.Random(5)
        for _ in range(150):
            bottom, top = sorted(rng.sample(range(1, 40), 2))
            c = rng.randint(1, 40)
            sieve = [True]
            for y in range(1, 1201):
                sieve.append(any(y >= g and sieve[y - g] for g in (top, bottom, c)))
            member = _triple_member(top, bottom, c)
            assert [member(y) for y in range(-2, 1201)] == [False, False, *sieve], (top, bottom, c)

    @pytest.mark.parametrize(
        "args", [(2951, -3354875, 2282, 2, 24935), (1529, -1643877, 2163, 2, 5991)]
    )
    def test_large_h_takes_the_euclidean_search(self, args, monkeypatch):
        calls = []

        def counted(*a):
            calls.append(a)
            return _floor_path_min(*a)

        monkeypatch.setattr(core, "_floor_path_min", counted)
        p = _unchecked(*args)
        assert is_minimal(p) and calls
        assert oracle.is_minimal_generating(list(p.generators))


def _seeded_battery(seed: int, count: int):
    """``count`` validated tuples (minimality not checked) in three strata:
    small a in both presentations, the d < 0 window h*(a // k) < |d|, and a
    log-uniform in [10^6, 10^12] with c often a near-sum of generators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        stratum = len(out) % 3
        k = rng.randint(1, 40)
        normalize = rng.random() < 0.5
        if stratum == 0:
            a, h = rng.randint(k + 2, 300), rng.randint(1, 5)
            d = rng.choice((-1, 1)) * rng.randint(1, 30)
            c = rng.randint(k + 2, 3000)
        elif stratum == 1:
            a, h = rng.randint(k + 2, 200), rng.randint(2, 4)
            d = -rng.randint(h * (a // k) + 1, h * (a // k) + 40)
            c = rng.randint(k + 2, 5000)
        else:
            a, h = int(10 ** rng.uniform(6, 12)), rng.randint(1, 6)
            d = rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 6))
            gens = (a, h * a + d, h * a + k * d)
            if rng.random() < 0.5:
                c = rng.randint(1, 3) * rng.choice(gens) + rng.randint(0, 3) * rng.choice(gens)
                c += rng.randint(-3 * abs(d), 3 * abs(d))
            else:
                c = int(10 ** rng.uniform(math.log10(k + 3), 13))
        try:
            out.append(_unchecked(a, d, h, k, c, normalize))
        except AagError:
            continue
    return out


class TestProgressionSearch:
    """``is_minimal`` settles whole progressions of differences; the
    per-difference search it replaced is the reference."""

    def test_agrees_with_the_per_difference_search(self):
        battery = _seeded_battery(18, 21_000)
        answers = [is_minimal(p) for p in battery]
        assert answers == [_reference_is_minimal(p) for p in battery]
        assert 3_000 < answers.count(False) < 18_000
        assert sum(p.a >= 10**6 for p in battery) == 7_000
        window = [p for p in battery if p.d < 0 and p.h * (p.a // p.k) < -p.d]
        assert len(window) > 5_000
        assert sum(not p.normalized and p.d < 0 and p.h == 1 for p in battery) > 300

    @pytest.mark.parametrize("a,d,h,c", [(1_000_003, 7, 2, 3_000_017), (10_007, -3, 2, 50_021)])
    def test_lookups_do_not_grow_with_k(self, a, d, h, c, monkeypatch):
        lookups = []
        apery_of = core._arithmetic_apery

        def counted_apery(*args):
            w = apery_of(*args)

            def counted(r):
                lookups.append(r)
                return w(r)

            return counted

        monkeypatch.setattr(core, "_arithmetic_apery", counted_apery)
        new, reference = [], []
        for k in (3, 10, 50, 100, 200, 500):
            p = _unchecked(a, d, h, k, c)
            lookups.clear()
            answer = is_minimal(p)
            new.append(len(lookups))
            lookups.clear()
            assert answer == _reference_is_minimal(p)
            reference.append(len(lookups))
        # Each difference is below c, so one translate: at most two lookups
        # for each of the six progressions.
        assert max(new) <= 12, new
        assert reference[-1] >= 500 > 12 * reference[0], reference

    @pytest.mark.parametrize("k", [50, 200, 1000, 4000])
    def test_known_cost_over_the_c_band(self, k, counted_searches):
        # Small c against differences near 2a: at k <= 200 some progressions
        # have more than 3k translates and reach the triple tests.
        lookups, arguments = counted_searches
        long_calls = 0
        for c in range(k + 2, k + 401, 7):
            p = _unchecked(1_000_003, 7, 2, k, c)
            lookups.clear()
            arguments.clear()
            answer = is_minimal(p)
            assert len(lookups) <= 2 * 6 * max(64, 3 * k), c
            assert len(arguments) == len(set(arguments)) <= 3 * k, c
            long_calls += bool(arguments)
            if k <= 200:
                assert answer == _reference_is_minimal(p), c
        assert (long_calls > 0) == (k <= 200), long_calls

    def test_long_progressions_agree_with_the_oracle(self, monkeypatch):
        # Small c and a up to 3,000, so that progressions of differences
        # have more than max(64, 3k) translates; h = 1 with d < 0 also
        # takes the raw presentation.
        calls = []
        search = core._translate_search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(core, "_translate_search", counted)
        rng = random.Random(22)
        checked = reached = 0
        while checked < 1_000:
            k, h = rng.randint(3, 40), rng.randint(1, 6)
            a, c = rng.randint(k + 2, 3_000), rng.randint(k + 2, k + 60)
            d = rng.choice((-1, 1)) * rng.randint(1, 40)
            try:
                p = _unchecked(a, d, h, k, c, normalize=rng.random() < 0.5)
            except AagError:
                continue
            before = len(calls)
            assert _agrees_with_oracle(p), (a, d, h, k, c, p.normalized)
            reached += len(calls) > before
            checked += 1
        assert reached > 150, reached


@pytest.fixture
def counted_searches(monkeypatch):
    """Record every Apery lookup of ``is_minimal`` and every argument of its
    triple test; returns the two lists."""
    lookups, arguments = [], []
    apery_of, triple_of = core._arithmetic_apery, core._triple_member

    def counted_apery(*args):
        w = apery_of(*args)

        def counted(r):
            lookups.append(r)
            return w(r)

        return counted

    def counted_triple(*args):
        member = triple_of(*args)

        def counted(y):
            arguments.append(y)
            return member(y)

        return counted

    monkeypatch.setattr(core, "_arithmetic_apery", counted_apery)
    monkeypatch.setattr(core, "_triple_member", counted_triple)
    return lookups, arguments


class TestKnownCost:
    """``validate_params`` at a = 10^12 + 1: counted work bounded in k, no rows."""

    A = 10**12 + 1

    @pytest.fixture(autouse=True)
    def refuse_rows(self, monkeypatch):
        def refuse(table):
            raise AssertionError("validation read a table's rows")

        monkeypatch.setattr(EuclidTable, "rows", property(refuse))

    @pytest.mark.parametrize(
        "d,h,k,c,minimal",
        [
            (7, 2, 3, 3 * A + 1, True),
            (7, 2, 4000, 3 * A + 1, True),
            (1, 4, 4000, 5 * A - 1, True),  # a table of a + 1 rows
            (7, 2, 1000, 1065, True),  # small c: the triple tests decide
            (7, 2, 4000, 4159, True),
            (7, 2, 4000, 4007, False),
        ],
    )
    def test_validation_is_bounded_in_k(self, d, h, k, c, minimal, counted_searches):
        lookups, arguments = counted_searches
        if minimal:
            assert validate_params(self.A, d, h, k, c).k == k
        else:
            with pytest.raises(NotMinimal):
                validate_params(self.A, d, h, k, c)
        assert len(lookups) <= 2 * 6 * max(64, 3 * k)
        assert len(arguments) == len(set(arguments)) <= 3 * k
        assert bool(arguments) == (c < 10**6)


@pytest.fixture
def no_oracle(monkeypatch):
    """Make every oracle table call raise, so a passing test made none."""

    def refuse(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr(oracle, "is_minimal_generating", refuse)
    monkeypatch.setattr(oracle, "apery_oracle", refuse)


class TestLargeA:
    """Minimality past the oracle cap, with the oracle switched off."""

    def test_small_analogue_agrees_with_oracle(self):
        # a = 11 = 1 (mod 5), as for a = 10**12 + 1 below.
        p = _unchecked(11, 1, 1, 3, 5)
        assert is_minimal(p) and _agrees_with_oracle(p)

    def test_minimal_at_a_10_12(self, no_oracle):
        # a = 1 (mod 5): every element of S below a is a multiple of 5, and
        # no difference of two generators is.
        a = 10**12 + 1
        start = time.perf_counter()
        p = validate_params(a, 1, 1, 3, 5)
        assert time.perf_counter() - start < 0.5
        assert p.generators == (a, a + 1, a + 2, a + 3, 5)

    def test_sum_of_two_generators_is_not_minimal(self, no_oracle):
        a = 10**12 + 1
        start = time.perf_counter()
        with pytest.raises(NotMinimal):
            validate_params(a, 1, 1, 3, 2 * a + 1)  # c = a + (a + 1)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "args,minimal",
        [
            ((16602560, -4811039571391, 1159108, 4, 4084), True),
            ((677693954, -670927630799521, 5940094, 6, 1389684), False),
        ],
    )
    def test_large_h_is_quick(self, args, minimal, no_oracle):
        # Stepping through the multiples of c or of max(a, ha+kd) would
        # take millions of steps here.
        start = time.perf_counter()
        assert is_minimal(_unchecked(*args)) is minimal
        assert time.perf_counter() - start < 0.5

    def test_family_member_at_a_10_9_classifies_without_oracle(self, no_oracle):
        # A Thm5.3-(ii) member with sigma = 1, p = 45454546, r = -1.
        p = validate_params(999_999_991, -45_454_537, 4, 20, 177)
        cls = classify_with_fast_path(p)
        assert (cls.family, cls.type, cls.frobenius) == ("Thm5.3-(ii)", 2, 14_090_908_948)
        assert cls.fast_path_used

    def test_friendly_tuple_at_a_10_9_classifies_without_oracle(self, no_oracle):
        # Smallest generator a ~ 10**9, above the oracle cap; a 14-row table.
        p = validate_params(999_999_937, 1_861_391, 4, 20, 73_325_467_808)
        t = build_table(p)
        cls = classify_with_fast_path(p)
        assert (cls.verdict, len(t.rows)) == ("NeitherSpecial", 14)
        assert (cls.type, cls.frobenius) == (pf_tilde(p, t).type, frobenius(p, t))


class TestMonomial:
    def test_negative_exponent_rejected(self):
        with pytest.raises(NonsenseInput):
            Monomial((1, -1))

    def test_str(self):
        m = monomial(22, x1=1, x20=1, x21=6)
        assert str(m) == "x1*x20*x21^6"
        assert str(monomial(4)) == "1"
        assert str(Monomial(())) == "1"


class TestPhi:
    def test_frozen_running_example(self):
        p = validate_params(155, 1, 4, 20, 177)
        m = monomial(22, x1=1, x20=1, x21=6)
        assert phi(m, p) == 621 + 640 + 6 * 177 == 2323

    def test_empty_and_single(self):
        p = validate_params(155, 1, 4, 20, 177)
        assert phi(monomial(22), p) == 0
        assert phi(monomial(22, x0=1), p) == 155

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_additive(self, data):
        p = validate_params(11, 2, 1, 3, 15, check_minimality=False)
        exps = st.tuples(*[st.integers(0, 5)] * 5)
        e1, e2 = data.draw(exps), data.draw(exps)
        product = Monomial(tuple(x + y for x, y in zip(e1, e2)))
        assert phi(product, p) == phi(Monomial(e1), p) + phi(Monomial(e2), p)

    def test_arity_check(self):
        p = validate_params(155, 1, 4, 20, 177)
        with pytest.raises(NonsenseInput):
            phi(monomial(5, x0=1), p)
