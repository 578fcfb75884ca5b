"""Negative-remainder Euclidean tables and the pivot row.

Given validated parameters (a, d, h, k, c), the table's row i carries a
triple (s_i, p_i, r_i) solving the key equation

    s_i * d - p_i * c = r_i * a.

Row 0 is (a, 0, d); row 1 takes the smallest s_1 >= 0 with
s_1*d ≡ c (mod a) and p_1 = 1.  Later rows follow the division-with-
negative-rest recurrences

    s_{i-1} = q_{i+1} s_i - s_{i+1},   0 <= s_{i+1} < s_i,
    p_{i+1} = q_{i+1} p_i - p_{i-1},
    r_{i+1} = q_{i+1} r_i - r_{i-1},

with q_{i+1} the ceiling quotient, so the s-sequence strictly decreases to
s_{m+1} = 0 while p strictly increases.  Consecutive rows satisfy the
determinant identities

    s_i p_{i+1} - s_{i+1} p_i = a,
    s_{i+1} r_i - s_i r_{i+1} = c,
    p_{i+1} r_i - p_i r_{i+1} = d.

Writing s = σk + lρ (ρ = 0, l = 0 when k | s, else ρ = s mod k, l = 1),
the corrected value r' = r + h(σ + l) strictly decreases along the table;
since r'_0 > 0 (a consequence of ha + kd > 0) and the final r' is
negative, there is a unique pivot index μ with r'_μ > 0 >= r'_{μ+1}.
The "tilde" quantities decompose s_μ - s_{μ+1} the same way:
r̃ = r_μ - r_{μ+1} + h(σ̃ + l̃).  Everything downstream (Apery staircase,
binomial families, pseudo-Frobenius dispatch) reads only this table.

Cost.  A quotient q followed by a run of quotients 2 continues one
arithmetic progression in (s, p, r), and a table has O(log a) such runs
(see ``_runs``), so ``build_table`` finds the pivot by bisecting r'
inside the run where it changes sign: the pivot data (μ, the rows μ and
μ + 1, the tilde fields, the hypothesis) cost O(log a) steps whatever the
table's length.  The runs depend on (a, d, c) alone, so the tables of a
column share one walk (``_column_runs``, a 32-entry cache of O(log a) runs
each) and ``EuclidTable.runs`` is that tuple.  ``rows``, a view over it,
expands every row on first read: Θ(a) time and memory on a long table, the
one part that the size cap AAG_MAX_A limits, kept on its table, never in a
module cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

from .core import AagParams, max_modulus
from .errors import NonsenseInput, NoPivot


class EuclidRow(NamedTuple):
    """One table row: index, the triple (s, p, r), the quotient q that
    produced it (None for rows 0 and 1), the decomposition s = σk + lρ,
    and r' = r + h(σ + l).  A named tuple: one cheap allocation per row,
    and a row unpacks and compares equal to the plain tuple of its fields."""

    index: int
    s: int
    p: int
    r: int
    q: int | None
    sigma: int
    rho: int
    ell: int
    r_prime: int


class _Run(NamedTuple):
    """Rows index .. index + count - 1 of a table: row index + j carries
    (s + j·ds, p + j·dp, r + j·dr); its quotient is q for j = 0 and 2 after."""

    index: int
    s: int
    p: int
    r: int
    ds: int
    dp: int
    dr: int
    count: int
    q: int | None


@dataclass(frozen=True)
class EuclidTable:
    """Pivot and tilde data of the table of ``params``; ``rows`` on demand.

    ``pivot`` and ``after_pivot`` are the rows μ and μ + 1.
    ``hypothesis_ok`` is the structural hypothesis: r'_μ >= h, or k divides
    s_μ (ρ_μ = 0).  It always holds when h = 1, since r'_μ > 0.
    """

    params: AagParams
    mu: int
    pivot: EuclidRow
    after_pivot: EuclidRow
    tilde_sigma: int
    tilde_rho: int
    tilde_ell: int
    tilde_r: int
    hypothesis_ok: bool
    #: The table as its O(log a) runs: the tuple of its (a, d, c) column
    #: (``_column_runs``), shared with every table of that column.
    runs: tuple[_Run, ...] = field(repr=False, compare=False)

    @cached_property
    def rows(self) -> tuple[EuclidRow, ...]:
        """All rows 0..m+1 (s_{m+1} = 0), a view over ``runs`` built on first read and kept.

        Θ(a) time and memory on a long table, so more than AAG_MAX_A + 1
        rows (``core.max_modulus``), counted from the runs, raise
        ``NonsenseInput`` before any is built; the pivot data do not need them.
        """
        params = self.params
        a, d, h, k, c = params.a, params.d, params.h, params.k, params.c
        runs = self.runs
        total, cap = sum(run.count for run in runs), max_modulus()
        if total > cap + 1:
            raise NonsenseInput(
                f"the table of (a={a}, d={d}, h={h}, k={k}, c={c}) has {total} rows, "
                f"above the cap of {cap + 1} (set AAG_MAX_A to raise it)"
            )
        rows: list[EuclidRow] = []
        for start, s, p, r, ds, dp, dr, count, q in runs:
            for index in range(start, start + count):
                rows.append(_make_row(index, s, p, r, q, k, h))
                s, p, r, q = s + ds, p + dp, r + dr, 2
        return tuple(rows)


def decompose(s: int, k: int) -> tuple[int, int, int]:
    """Write s = σ·k + l·ρ with 0 <= ρ < k and l = 0 exactly when k | s.

    Returns (σ, ρ, l).  decompose(0, k) = (0, 0, 0).
    """
    if k < 1:
        raise NonsenseInput(f"k must be positive, got {k}")
    if s < 0:
        raise NonsenseInput(f"s must be nonnegative, got {s}")
    sigma, rho = divmod(s, k)
    if rho == 0:
        return sigma, 0, 0
    return sigma, rho, 1


def _make_row(index: int, s: int, p: int, r: int, q: int | None, k: int, h: int) -> EuclidRow:
    # ``decompose`` inlined: k >= 1 is validated and the recurrence keeps
    # s >= 0, so its checks cannot fire here; verify.euclid_violations
    # checks the stored pivot rows with ``decompose``.
    sigma, rho = divmod(s, k)
    ell = 1 if rho else 0
    return EuclidRow(index, s, p, r, q, sigma, rho, ell, r + h * (sigma + ell))


def _row_at(run: _Run, j: int, k: int, h: int) -> EuclidRow:
    """Row index + j of ``run``."""
    s, p, r = run.s + j * run.ds, run.p + j * run.dp, run.r + j * run.dr
    return _make_row(run.index + j, s, p, r, run.q if j == 0 else 2, k, h)


def _r_prime_at(run: _Run, j: int, k: int, h: int) -> int:
    """r' of row index + j of ``run``: r + h(σ + l), and σ + l is ⌈s/k⌉."""
    return run.r + j * run.dr + h * -(-(run.s + j * run.ds) // k)


def tilde_for_pair(lo: EuclidRow, hi: EuclidRow, k: int, h: int) -> tuple[int, int, int, int]:
    """Tilde quantities of the consecutive rows ``lo``, ``hi``.

    Decomposes s_lo - s_hi = σ̃k + l̃ρ̃ and returns
    (σ̃, ρ̃, l̃, r̃ = r_lo - r_hi + h(σ̃ + l̃)).  For the pivot pair this
    reproduces the table's own tilde fields.
    """
    sigma, rho, ell = decompose(lo.s - hi.s, k)
    return sigma, rho, ell, lo.r - hi.r + h * (sigma + ell)


@lru_cache(maxsize=32)
def _column_runs(a: int, d: int, c: int) -> tuple[_Run, ...]:
    """The runs (``_runs``) of the tables of the (a, d, c) column, walked once.

    Rows, quotients and runs depend on (a, d, c) alone; h and k only move
    r' and the pivot.  A grid walk meets a column's (k, h) cells in a row,
    so a few entries serve it, and each holds O(log a) runs.  Rows of a table
    are kept on the table, never here.
    """
    s1 = (c % a) * pow(d % a, -1, a) % a  # the inverse exists because gcd(a, d) = 1
    r1, rem = divmod(s1 * d - c, a)
    if rem:
        raise AssertionError("s1 does not solve s*d ≡ c (mod a)")
    # Unpacked, not tuple(generator): that over-allocates and shrinks each
    # tuple, and a sweep's peak RSS grew by 0.6 MB with it.
    return (*_runs(a, d, s1, r1),)


def _runs(a: int, d: int, s1: int, r1: int) -> Iterator[_Run]:
    """The table as runs: rows 0 and 1 on their own, then runs that each
    open with one step of quotient q and go on with every quotient 2 after it.

    A quotient 2 gives row i+1 = 2·row i - row i-1, so the rows after a step
    keep its difference (ds, dp, dr), and the quotient stays 2 while
    s_i >= s_{i-1} - s_i: a run that opens at s has 1 + s // -ds rows.  A
    run ends where the next quotient exceeds 2, so only the first run can
    open with q = 2.  The quotients q_2, q_3, ... are the negative-regular
    continued fraction of a/s_1, which turns each regular partial quotient
    a_i of a/s_1 into one quotient (i even) or a_i - 1 quotients 2 (i odd)
    (Popescu-Pampu, *The geometry of continued fractions and the topology
    of surface singularities*, 2007), so a table has O(log a) runs.  This
    is the one walker of a table: pivot, row count and rows.
    """
    yield _Run(0, a, 0, d, 0, 0, 0, 1, None)
    yield _Run(1, s1, 1, r1, 0, 0, 0, 1, None)
    index, s0, p0, r0, s, p, r = 2, a, 0, d, s1, 1, r1
    while s > 0:
        q = -(-s0 // s)  # ceiling quotient, always >= 2 here
        ds, dp, dr = (q - 1) * s - s0, (q - 1) * p - p0, (q - 1) * r - r0
        count = 1 + (s + ds) // -ds
        yield _Run(index, s + ds, p + dp, r + dr, ds, dp, dr, count, q)
        s0, p0, r0 = s + (count - 1) * ds, p + (count - 1) * dp, r + (count - 1) * dr
        s, p, r = s0 + ds, p0 + dp, r0 + dr
        index += count


def build_table(params: AagParams) -> EuclidTable:
    """Run the negative-rest algorithm for validated parameters.

    Walks the table run by run and bisects r' inside the run where it
    changes sign, so the pivot data cost O(log a) steps however long the
    table is; only the rows μ and μ + 1 are built, and no table is refused
    for its length.  The full row list (``EuclidTable.rows``) is built from
    the same runs on first read, and only it is capped by AAG_MAX_A.  So a
    table costs O(log a) steps whatever k is: one r' per run walked, and
    O(log a) more in the bisection.
    """
    a, d, h, k, c = params.a, params.d, params.h, params.k, params.c
    runs = _column_runs(a, d, c)
    # r' strictly decreases, so the first row i >= 1 with r'_i <= 0 sits in
    # the first run (after row 0) whose last row has r' <= 0: bisect there.
    piv = None
    for n in range(1, len(runs)):
        run = runs[n]
        lo, hi = 0, run.count - 1
        if _r_prime_at(run, hi, k, h) <= 0:
            while lo < hi:
                mid = (lo + hi) // 2
                if _r_prime_at(run, mid, k, h) <= 0:
                    hi = mid
                else:
                    lo = mid + 1
            before = (run, lo - 1) if lo else (runs[n - 1], runs[n - 1].count - 1)
            piv, nxt = _row_at(*before, k, h), _row_at(run, lo, k, h)
            break
    if piv is None or piv.r_prime <= 0:
        raise NoPivot(
            f"no row with r' > 0 >= next r' for (a={a}, d={d}, h={h}, k={k}, c={c})"
        )
    # Positional: a frozen dataclass pays more for keywords.  The fields run
    # params, mu, pivot, after_pivot, the four tilde fields, hypothesis_ok, runs.
    hypothesis_ok = piv.r_prime >= h or piv.rho == 0
    return EuclidTable(params, piv.index, piv, nxt, *tilde_for_pair(piv, nxt, k, h), hypothesis_ok, runs)


def format_table(table: EuclidTable) -> str:
    """Aligned text rendering with columns i | s | p | r | r' | q."""
    header = ("i", "s", "p", "r", "r'", "q")
    body = [
        (
            str(row.index),
            str(row.s),
            str(row.p),
            str(row.r),
            str(row.r_prime),
            "" if row.q is None else str(row.q),
        )
        for row in table.rows
    ]
    widths = [max(len(h), *(len(line[j]) for line in body)) for j, h in enumerate(header)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for j, line in enumerate(body):
        marker = " <- mu" if j == table.mu else ""
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)) + marker)
    return "\n".join(lines)
