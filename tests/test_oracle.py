"""Oracle checks against independently known semigroup facts.

Every frozen value here is classical (two-generator formulas, textbook
examples) or hand-computed from the definition; nothing is derived from the
structural machinery this oracle is meant to audit.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aag.oracle
from aag.cli import Grid, _verify_reject, iter_cells
from aag.errors import NonPositiveGenerator, NonsenseInput, NotCoprime
from aag.oracle import (
    _apery_dijkstra,
    _steps,
    _walk_numpy,
    apery_oracle,
    is_minimal_generating,
    oracle_report,
    oracle_reports,
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
        assert next(_walk_numpy([steps], m)).tolist() == _apery_dijkstra(steps, m)

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


#: The tiny strided verify grid: a <= 80, c <= 300, strides 37 and 53.
TINY_VERIFY = Grid(range(2, 81, 37), range(-9, 10), range(2, 301, 53), range(3, 7), range(1, 4))


def _chunk_lists(grid: Grid, a: int, d: int) -> list[list[int]]:
    """The generator lists of one verify chunk, in the order ``aag verify`` walks them."""
    cells = iter_cells(grid, a, d, Counter(), reject=_verify_reject)
    return sorted(list(p.generators) for p, _ in cells)


def _trie_nodes(lists, m: int) -> int:
    """Distinct nonempty step prefixes: one cyclic closure each."""
    return len({tuple(s[:i]) for s in (_steps(g, m) for g in lists) for i in range(1, len(s) + 1)})


def _walk_equals_per_list(lists, m: int) -> None:
    assert list(oracle_reports(lists, m)) == [oracle_report(gens, m) for gens in lists]


class TestWalk:
    """``oracle_reports`` shares closures along common prefixes; every report
    must equal the one-list ``oracle_report`` field for field."""

    def test_tiny_verify_grid_chunks(self):
        checked = 0
        for a in TINY_VERIFY.a:
            for d in TINY_VERIFY.d:
                lists = _chunk_lists(TINY_VERIFY, a, d)
                reports = list(oracle_reports(lists, a))
                assert reports == [oracle_report(gens, a) for gens in lists]
                for gens, rep in zip(lists, reports):
                    assert rep.apery == tuple(_apery_dijkstra(_steps(gens, a), a))
                checked += len(lists)
        assert checked == 909

    def test_duplicates_and_multiples_of_the_modulus(self):
        _walk_equals_per_list([[7, 7, 9, 9, 11], [7, 14, 9, 11], [7, 9, 21, 11, 9], [7, 9, 11]], 7)
        rep = next(oracle_reports([[3, 6, 5, 5, 3]], 3))
        assert rep.generators == (3, 6, 5, 5, 3) and rep.pf == (7,)

    def test_prefix_lists_and_a_single_list(self):
        _walk_equals_per_list([[11, 13], [11, 13, 17], [11, 13, 17, 19], [11, 13, 17], [11, 13]], 11)
        _walk_equals_per_list([[11, 13, 17, 19], [11, 13]], 11)
        _walk_equals_per_list([[5, 6, 7, 8, 9]], 5)
        assert list(oracle_reports([], 5)) == []

    def test_dijkstra_list_inside_a_walk(self):
        big = (1 << 60) + 1
        lists = [[3, 7, 8], [3, 7, big], [3, 7, 11], [3, big]]
        reports = list(oracle_reports(lists, 3))
        assert reports == [oracle_report(gens, 3) for gens in lists]
        assert reports[1].apery == (0, 7, 14) and reports[3].apery == (0, 2 * big, big)

    def test_errors_match_the_one_list_report(self):
        with pytest.raises(NotCoprime):
            list(oracle_reports([[3, 5], [6, 9]], 3))
        with pytest.raises(NonsenseInput, match="not in the semigroup"):
            list(oracle_reports([[3, 5]], 4))

    @given(
        st.integers(2, 60),
        st.lists(st.integers(1, 150), min_size=1, max_size=5),
        st.lists(
            st.tuples(st.integers(0, 5), st.lists(st.integers(1, 150), max_size=3)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_drawn_families_sharing_prefixes(self, m, prefix, branches):
        lists = [[m] + prefix[:cut] + tail for cut, tail in branches]
        lists = [gens for gens in lists if math.gcd(*gens) == 1]
        _walk_equals_per_list(lists, m)  # drawn order
        _walk_equals_per_list(sorted(lists), m)  # prefix-adjacent order

    def test_one_closure_per_trie_node(self, monkeypatch):
        calls = []
        close = aag.oracle._close

        def counting_close(dist, g, m):
            calls.append(g)
            close(dist, g, m)

        monkeypatch.setattr(aag.oracle, "_close", counting_close)
        lists = _chunk_lists(TINY_VERIFY, 76, 3)
        list(oracle_reports(lists, 76))
        nodes = _trie_nodes(lists, 76)
        assert len(calls) == nodes
        assert sum(len(_steps(gens, 76)) for gens in lists) > 3 * nodes  # the sharing pays


def _live_bytes_at_each_table(lists, m: int) -> list[int]:
    """Traced bytes held while each table of the walk is drawn, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return [tracemalloc.get_traced_memory()[0] - base for _ in _walk_numpy(lists, m)]
    finally:
        tracemalloc.stop()


class TestWalkMemory:
    """Bounded by tracemalloc, not by wall time."""

    M = 50_021
    SLACK = 1 << 16

    def test_single_list_keeps_one_table(self):
        live = _live_bytes_at_each_table([[self.M + i for i in range(1, 8)]], self.M)
        assert live[0] <= 8 * self.M + self.SLACK

    def test_walk_keeps_at_most_longest_plus_one_tables(self):
        # Each list branches off lower than the one before, so the first
        # list's walk must keep every level for a later list.
        head = [self.M + i for i in range(1, 7)]
        lists = [head[:cut] + [self.M + 100 + cut] for cut in range(6, 0, -1)]
        longest = max(map(len, lists))
        live = _live_bytes_at_each_table(lists, self.M)
        assert max(live) <= (longest + 1) * 8 * self.M + self.SLACK
        assert max(live) >= 6 * 8 * self.M  # the levels really are kept

    def test_criterion7_shape_allocates_no_more_than_before(self):
        # 22 generators as in acceptance criterion 7, at a tenth of its
        # modulus.  Before the walk the peak was 72 bytes per residue: the
        # table, its list of Python ints, and one closure's index, values
        # and slope arrays still bound while the next closure allocated.
        a = 99_991
        gens = [a] + [4 * a + i for i in range(1, 21)] + [4 * a + 61]
        apery_oracle([3, 5])  # numpy imported outside the trace
        tracemalloc.start()
        try:
            table = apery_oracle(gens, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == a
        assert peak <= 72 * a
