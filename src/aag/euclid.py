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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import AagParams
from .errors import NonsenseInput, NoPivot
from .oracle import max_modulus


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


@dataclass(frozen=True)
class EuclidTable:
    """All rows 0..m+1 (s_{m+1} = 0) plus pivot and tilde data.

    ``hypothesis_ok`` is the structural hypothesis: r'_μ >= h, or k divides
    s_μ (ρ_μ = 0).  It always holds when h = 1, since r'_μ > 0.
    """

    rows: tuple[EuclidRow, ...]
    mu: int
    tilde_sigma: int
    tilde_rho: int
    tilde_ell: int
    tilde_r: int
    hypothesis_ok: bool

    @property
    def pivot(self) -> EuclidRow:
        return self.rows[self.mu]

    @property
    def after_pivot(self) -> EuclidRow:
        return self.rows[self.mu + 1]


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
    # rechecks s = σk + lρ on every row it reads.
    sigma, rho = divmod(s, k)
    ell = 1 if rho else 0
    return EuclidRow(index, s, p, r, q, sigma, rho, ell, r + h * (sigma + ell))


def tilde_for_pair(table: EuclidTable, i: int, k: int, h: int) -> tuple[int, int, int, int]:
    """Tilde quantities of the consecutive pair (i, i+1).

    Decomposes s_i - s_{i+1} = σ̃k + l̃ρ̃ and returns
    (σ̃, ρ̃, l̃, r̃ = r_i - r_{i+1} + h(σ̃ + l̃)).  For i = μ this reproduces
    the table's own tilde fields.
    """
    lo, hi = table.rows[i], table.rows[i + 1]
    sigma, rho, ell = decompose(lo.s - hi.s, k)
    return sigma, rho, ell, lo.r - hi.r + h * (sigma + ell)


def row_count(a: int, s1: int) -> int:
    """Number of rows of the table that starts with s_0 = a, s_1 = s1.

    The quotients q_2, q_3, ... are the negative-regular continued
    fraction of a/s1.  It turns each regular partial quotient a_i of a/s1
    with i even into one quotient and each a_i with i odd into a_i - 1
    quotients equal to 2 (Popescu-Pampu, *The geometry of continued
    fractions and the topology of surface singularities*, 2007), so the
    count takes O(log a) steps however long the table is.
    """
    count, i = 2, 0
    while s1:
        quotient = a // s1
        count += 1 if i % 2 == 0 else quotient - 1
        a, s1, i = s1, a % s1, i + 1
    return count


def build_table(params: AagParams) -> EuclidTable:
    """Run the negative-rest algorithm for validated parameters.

    The full table is retained (all rows down to s = 0): the trailing rows
    feed the consecutive-pair binomial checks even though the pivot region
    alone determines the Apery set.  A table has at most a + 1 rows, and
    one with more than AAG_MAX_A + 1 (see ``oracle.max_modulus``) is
    refused with ``NonsenseInput`` before it is built.
    """
    a, d, h, k, c = params.a, params.d, params.h, params.k, params.c
    inverse = pow(d % a, -1, a)  # exists because gcd(a, d) = 1
    s1 = (c % a) * inverse % a
    r1, rem = divmod(s1 * d - c, a)
    if rem:
        raise AssertionError("s1 does not solve s*d ≡ c (mod a)")
    count, cap = row_count(a, s1), max_modulus()
    if count > cap + 1:
        raise NonsenseInput(
            f"the table of (a={a}, d={d}, h={h}, k={k}, c={c}) has {count} rows, "
            f"above the cap of {cap + 1} (set AAG_MAX_A to raise it)"
        )
    rows = [_make_row(0, a, 0, d, None, k, h), _make_row(1, s1, 1, r1, None, k, h)]
    s0, p0, r0, s, p, r = a, 0, d, s1, 1, r1
    while s > 0:
        q = -(-s0 // s)  # ceiling quotient, always >= 2 here
        s0, p0, r0, s, p, r = s, p, r, q * s - s0, q * p - p0, q * r - r0
        rows.append(_make_row(len(rows), s, p, r, q, k, h))

    mu = -1
    for i in range(len(rows) - 1):
        if rows[i + 1].r_prime <= 0:
            mu = i
            break
    if mu < 0 or rows[mu].r_prime <= 0:
        raise NoPivot(
            f"no row with r' > 0 >= next r' for (a={a}, d={d}, h={h}, k={k}, c={c})"
        )

    t_sigma, t_rho, t_ell = decompose(rows[mu].s - rows[mu + 1].s, k)
    t_r = rows[mu].r - rows[mu + 1].r + h * (t_sigma + t_ell)
    table = EuclidTable(
        rows=tuple(rows),
        mu=mu,
        tilde_sigma=t_sigma,
        tilde_rho=t_rho,
        tilde_ell=t_ell,
        tilde_r=t_r,
        hypothesis_ok=rows[mu].r_prime >= h or rows[mu].rho == 0,
    )
    return table


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
