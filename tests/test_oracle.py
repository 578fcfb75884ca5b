"""Oracle checks against independently known semigroup facts.

Every frozen value here is classical (two-generator formulas, textbook
examples) or hand-computed from the definition; nothing is derived from the
structural machinery this oracle is meant to audit.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aag.errors import NonPositiveGenerator, NonsenseInput, NotCoprime
from aag.oracle import (
    _apery_dijkstra,
    _apery_numpy,
    apery_oracle,
    is_minimal_generating,
    oracle_report,
)


class TestFrozenClassics:
    def test_three_five(self):
        # <3,5>: 0,3,5,6,8,9,10,...; gaps 1,2,4,7.
        assert apery_oracle([3, 5]) == [0, 10, 5]
        rep = oracle_report([3, 5])
        assert rep.frobenius == 7
        assert rep.pf == (7,)
        assert rep.genus == 4

    def test_max_embedding_dim(self):
        # <5,6,7,8,9>: every positive integer from 5 on.
        assert apery_oracle([5, 6, 7, 8, 9]) == [0, 6, 7, 8, 9]
        rep = oracle_report([5, 6, 7, 8, 9])
        assert rep.pf == (1, 2, 3, 4)
        assert rep.frobenius == 4
        assert rep.genus == 4

    def test_naturals(self):
        assert apery_oracle([1]) == [0]
        rep = oracle_report([1])
        assert rep.frobenius == -1
        assert rep.pf == (-1,)
        assert rep.genus == 0
        assert rep.symmetric and rep.almost_symmetric and rep.type == 1

    def test_pseudo_symmetric_345(self):
        # <3,4,5>: gaps 1, 2; PF = {1, 2}; 1+1 = 2 = F so almost symmetric.
        assert apery_oracle([3, 4, 5]) == [0, 4, 5]
        rep = oracle_report([3, 4, 5])
        assert rep.pf == (1, 2)
        assert rep.type == 2 and not rep.symmetric and rep.almost_symmetric

    def test_not_almost_symmetric(self):
        # <3,7,8>: PF = {4,5}, and 4+4 != 5.
        rep = oracle_report([3, 7, 8])
        assert rep.pf == (4, 5)
        assert not rep.almost_symmetric

    def test_modulus_override(self):
        # Apery of <2,3> with respect to 4 (4 = 2+2 lies in the semigroup).
        assert apery_oracle([2, 3], modulus=4) == [0, 5, 2, 3]

    def test_report_consistency(self):
        rep = oracle_report([3, 5])
        assert rep.frobenius == 7 == max(rep.pf)
        assert rep.modulus == 3
        assert rep.symmetric and rep.almost_symmetric


class TestTwoGeneratorFormulas:
    @given(st.integers(2, 80), st.integers(2, 80))
    @settings(max_examples=60, deadline=None)
    def test_frobenius_genus_type(self, p, q):
        if math.gcd(p, q) != 1:
            return
        rep = oracle_report(sorted({p, q}))
        assert rep.frobenius == p * q - p - q
        assert rep.genus == (p - 1) * (q - 1) // 2
        assert rep.pf == (p * q - p - q,)
        assert rep.almost_symmetric  # symmetric, so vacuously


class TestMinimality:
    def test_frozen(self):
        assert is_minimal_generating([5, 6, 7, 8, 9])
        assert not is_minimal_generating([3, 5, 8])  # 8 = 3+5
        assert is_minimal_generating([1])
        assert not is_minimal_generating([1, 2])
        assert not is_minimal_generating([3, 5, 5])  # duplicate
        assert is_minimal_generating([2, 3])
        assert is_minimal_generating([6, 10, 15])  # pairwise gcds > 1

    @given(st.lists(st.integers(2, 50), min_size=2, max_size=5, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_against_direct_definition(self, gens):
        if math.gcd(*gens) != 1:
            return
        gens = sorted(gens)
        # Direct definition: drop each generator, check if it is a sum of
        # the others via bounded DP over [0, g].
        def in_span(value, pool):
            reachable = [False] * (value + 1)
            reachable[0] = True
            for x in range(1, value + 1):
                reachable[x] = any(x >= g and reachable[x - g] for g in pool)
            return reachable[value]

        expected = all(
            not in_span(g, [x for x in gens if x != g]) for g in gens
        )
        assert is_minimal_generating(gens) == expected


class TestErrors:
    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            apery_oracle([2, 4])
        with pytest.raises(NotCoprime):
            is_minimal_generating([6, 10])

    def test_bad_generators(self):
        with pytest.raises(NonsenseInput):
            apery_oracle([])
        with pytest.raises(NonPositiveGenerator):
            apery_oracle([0, 3])
        with pytest.raises(NonPositiveGenerator):
            apery_oracle([3, -5])
        with pytest.raises(NonsenseInput):
            apery_oracle([2.5, 3])  # type: ignore[list-item]

    def test_modulus_cap(self, monkeypatch):
        monkeypatch.setenv("AAG_MAX_A", "100")
        with pytest.raises(NonsenseInput):
            apery_oracle([3, 5], modulus=101)
        assert apery_oracle([3, 5], modulus=100)[0] == 0
        monkeypatch.setenv("AAG_MAX_A", "banana")
        with pytest.raises(NonsenseInput):
            apery_oracle([3, 5])
        for value in ("0", "-5"):
            monkeypatch.setenv("AAG_MAX_A", value)
            with pytest.raises(NonsenseInput, match="must be a positive integer"):
                apery_oracle([3, 5])


class TestBackendAgreement:
    """The vectorised scan and the heap-based search are distinct algorithms;
    they must agree everywhere."""

    @given(
        st.lists(st.integers(2, 120), min_size=1, max_size=6, unique=True),
        st.integers(2, 150),
    )
    @settings(max_examples=120, deadline=None)
    def test_numpy_vs_dijkstra(self, gens, m):
        steps = sorted({g for g in gens if g % m != 0})
        if not steps or math.gcd(math.gcd(*steps), m) != 1:
            # Residues unreachable; both backends would assert.  Out of scope.
            return
        assert _apery_numpy(steps, m) == _apery_dijkstra(steps, m)

    def test_huge_generators_use_exact_path(self):
        # Large enough that m*max(gen) trips the int64 guard.
        big = (1 << 60) + 1
        table = apery_oracle([3, big])
        assert table[0] == 0
        assert table[big % 3] == big


class TestAperyDefinition:
    @given(st.lists(st.integers(2, 40), min_size=2, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_matches_sieve(self, gens):
        if math.gcd(*gens) != 1:
            return
        m = min(gens)
        bound = m * max(gens) + 1
        reachable = [False] * bound
        reachable[0] = True
        for x in range(1, bound):
            reachable[x] = any(x >= g and reachable[x - g] for g in gens)
        expected = [
            min(x for x in range(r, bound, m) if reachable[x]) for r in range(m)
        ]
        assert apery_oracle(gens) == expected
