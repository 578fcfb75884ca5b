"""Binomial families of the defining ideal and a column-profile basis check.

The semigroup ring's defining ideal I is prime and binomial: a binomial
lies in I exactly when its two monomials have equal weighted degree φ.
Every side below, except the A leads x_i x_j, is a power of x0 times a
plane monomial M(y, z) = L_i x_k^α x_{k+1}^z with y = αk + i
(``plane_monomial``, the one layout of a plane point as an exponent
vector); a column y + j past a multiple of k carries into x_k.  With
Δs = s_μ − s_{μ+1} and Δp = p_{μ+1} − p_μ, four families are constructed
straight from the Euclidean table:

  A: x_i x_j - x0^{h·[i+j <= k]} M(i + j, 0)             1 <= i <= j <= k-1
  B: M(s_μ, 0) - x0^{r'_μ} M(0, p_μ), plus, when ρ_μ > 0, the companions
     M(s_μ + j, 0) - x0^{r'_μ - h} M(j, p_μ) for j = 1..k-ρ_μ
  C: M(Δs, Δp) - x0^{r̃}, plus, when ρ̃ > 0, the companions
     M(Δs + j, Δp) - x0^{r̃ - h} M(j, 0); empty when s_{μ+1} = 0
  D: M(0, p_{μ+1}) - x0^{-r'_{μ+1}} M(s_{μ+1}, 0)

plus two kernel families that the tests check: one binomial per table
row ("Row", M(s, 0) against x0^{r'} M(0, p)) and one per consecutive row
pair ("Tilde").  The ``aag verify`` battery does not build them, since its
table invariants imply their kernel membership (see ``verify``).

``certify_basis`` checks the Groebner-basis property of G = A∪B∪C∪D
without any S-polynomial machinery: under the weighted degrevlex order
(φ first, ties by reverse lexicographic with x0 lowest), it verifies that
every element sits in I with the claimed leading term, and that the plane
monomials not divisible by any leading term are exactly the Apery
staircase — a complete certificate, because φ is injective on standard
monomials and a monomial algebra has exactly |Ap| = a standard residues.
It requires every x_i x_j (1 <= i <= j <= k-1) to be a lead, so a
monomial involving two of x_1..x_{k-1} (or one squared) is never
standard, and the check stays inside the plane.  There, a plane lead at
y0 = α0·k + i0 and height ζ divides M(y, z) exactly when y // k >= α0,
i0 is 0 or y mod k, and z >= ζ, so the standard monomials of column y
are the z below a height H(y), the least ζ over the leads covering y.  Divisibility propagates along M(y+k, z) = x_k M(y, z),
so comparing H on the columns y < s_μ + k with the staircase heights
followed by k zeros settles the whole quadrant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import AagParams, Monomial, phi
from .errors import HypothesisViolated, NonsenseInput
from .euclid import EuclidTable, tilde_for_pair
from .staircase import StandardPoint, rectangles


def plane_monomial(y: int, z: int, k: int, x0: int = 0) -> Monomial:
    """The monomial x0^e · M(y, z), e = ``x0``, M(y, z) = L_i x_k^α x_{k+1}^z.

    Here α = y // k and i = y % k.  This is the one layout of a plane point
    as an exponent vector: a column that reaches the next multiple of k
    carries into the power of x_k.
    """
    if k < 1:
        raise NonsenseInput(f"k must be positive, got {k}")
    alpha, i = divmod(y, k)
    if i:
        return Monomial((x0, *(0,) * (i - 1), 1, *(0,) * (k - 1 - i), alpha, z))
    return Monomial((x0, *(0,) * (k - 1), alpha, z))


@dataclass(frozen=True)
class Binomial:
    """lead - tail with a family tag in {A, B, C, D, Row, Tilde}."""

    lead: Monomial
    tail: Monomial
    family: str

    def __str__(self) -> str:
        return f"{self.lead} - {self.tail} [{self.family}]"


def order_key(m: Monomial, params: AagParams):
    """Sort key for weighted degrevlex with x0 ≺ x1 ≺ ... ≺ x_{k+1}.

    Higher φ wins; on φ ties the monomial with the *smaller* exponent at
    the smallest differing variable is the larger one (reverse lex), which
    lexicographic comparison of the negated exponent vector implements.
    """
    return (phi(m, params), tuple(-e for e in m.exponents))


def kernel_check(b: Binomial, params: AagParams) -> bool:
    """Does the binomial lie in the defining ideal (equal φ on both sides)?"""
    return phi(b.lead, params) == phi(b.tail, params)


def family_A(params: AagParams) -> list[Binomial]:
    """All k(k-1)/2 quadratic relations among x_1 .. x_{k-1}."""
    return list(_family_A(params.k, params.h))


@functools.lru_cache(maxsize=32)
def _family_A(k: int, h: int) -> tuple[Binomial, ...]:
    # The A binomials depend on (k, h) alone, and a grid walk meets few
    # distinct pairs; the values are frozen, so callers may share them.
    out = []
    for i in range(1, k):
        for j in range(i, k):
            exps = [0] * (k + 2)
            exps[i] += 1
            exps[j] += 1
            tail = plane_monomial(i + j, 0, k, h if i + j <= k else 0)
            out.append(Binomial(Monomial(tuple(exps)), tail, "A"))
    return tuple(out)


def families_BCD(params: AagParams, table: EuclidTable) -> list[Binomial]:
    """The table-derived families B, C, D as one tagged list."""
    if not table.hypothesis_ok:
        raise HypothesisViolated(
            "families B/C/D are only constructed when r'_mu >= h or k | s_mu"
        )
    k, h = params.k, params.h
    piv, nxt = table.pivot, table.after_pivot
    out = [
        Binomial(plane_monomial(piv.s, 0, k), plane_monomial(0, piv.p, k, piv.r_prime), "B")
    ]
    if piv.rho > 0:
        out += [
            Binomial(
                plane_monomial(piv.s + j, 0, k),
                plane_monomial(j, piv.p, k, piv.r_prime - h),
                "B",
            )
            for j in range(1, k - piv.rho + 1)
        ]

    if nxt.s > 0:
        ds, dp, r_tilde = piv.s - nxt.s, nxt.p - piv.p, table.tilde_r
        out.append(Binomial(plane_monomial(ds, dp, k), plane_monomial(0, 0, k, r_tilde), "C"))
        if table.tilde_rho > 0:
            out += [
                Binomial(
                    plane_monomial(ds + j, dp, k),
                    plane_monomial(j, 0, k, r_tilde - h),
                    "C",
                )
                for j in range(1, k - table.tilde_rho + 1)
            ]

    out.append(
        Binomial(plane_monomial(0, nxt.p, k), plane_monomial(nxt.s, 0, k, -nxt.r_prime), "D")
    )
    return out


def row_binomials(table: EuclidTable, params: AagParams) -> list[Binomial]:
    """One kernel element per table row: M(s, 0) against x0^{r'} M(0, p).

    The row equation gives φ(M(s, 0)) = φ(M(0, p)) + r'·a, so the x0 power
    goes to M(0, p) when r' >= 0 and to M(s, 0) when r' < 0.  With x0 lowest
    the side carrying x0 is the smaller, so M(s, 0) leads exactly when
    r' > 0; at r' = 0 M(0, p) leads, as M(s, 0) has an exponent at ρ or k.
    """
    k = params.k
    out = []
    for row in table.rows:
        big = plane_monomial(row.s, 0, k, max(-row.r_prime, 0))
        small = plane_monomial(0, row.p, k, max(row.r_prime, 0))
        if row.r_prime <= 0:
            big, small = small, big
        out.append(Binomial(big, small, "Row"))
    return out


def tilde_binomials(table: EuclidTable, params: AagParams) -> list[Binomial]:
    """The consecutive-pair kernel elements, one per pair i = 0..m."""
    k, rows = params.k, table.rows
    return [
        Binomial(
            plane_monomial(lo.s - hi.s, hi.p - lo.p, k),
            plane_monomial(0, 0, k, tilde_for_pair(lo, hi, k, params.h)[3]),
            "Tilde",
        )
        for lo, hi in zip(rows, rows[1:])
    ]


def _column_heights(leads: list[StandardPoint], k: int, width: int) -> list[float]:
    """H(y) for y < width: the least ζ over the leads covering column y.

    A lead at y0 = α0·k + i0 covers y when y // k >= α0 and i0 is 0 or
    y mod k; a column no lead covers has height infinity.
    """
    by_block: dict[int, list[StandardPoint]] = {}
    for pt in leads:
        by_block.setdefault(pt.y // k, []).append(pt)
    cover = [math.inf] * k  # least ζ per i0 over the blocks seen so far
    heights: list[float] = []
    for alpha in range(-(-width // k)):
        for pt in by_block.get(alpha, ()):
            i0 = pt.y % k
            cover[i0] = min(cover[i0], pt.z)
        heights += [min(cover[0], zeta) for zeta in cover]
    return heights[:width]


def certify_basis(
    params: AagParams,
    table: EuclidTable,
    basis: list[Binomial] | None = None,
) -> bool:
    """Certify that A∪B∪C∪D is a Groebner basis of the defining ideal.

    Returns True iff every element kernel-checks with the constructed
    monomial as its true leading term, every x_i x_j (1 <= i <= j <= k-1)
    is a lead, and the column heights H(y) of the standard plane monomials
    are the staircase heights on y < s_μ followed by k zeros, summing to a.
    ``basis`` overrides the generating set, which lets tests confirm that
    corrupted sets fail.
    """
    if not table.hypothesis_ok:
        raise HypothesisViolated("certification requires the staircase hypothesis")
    k = params.k
    if basis is None:
        basis = family_A(params) + families_BCD(params, table)
    for b in basis:
        if not kernel_check(b, params):
            return False
        # With φ(lead) = φ(tail), ``order_key`` ranks lead above tail exactly
        # when lead's exponent tuple is the lexicographically smaller one.
        if b.lead.exponents >= b.tail.exponents:
            return False

    leads, unit_pairs = [], set()
    for b in basis:
        exps = b.lead.exponents
        units = exps[1:k]
        if sum(units) >= 2:  # two unit factors: divides no plane monomial
            if sum(exps) == 2:
                unit_pairs.add(exps)  # x_i x_j, an A lead
            continue
        if exps[0]:
            continue  # has x0: divides no plane monomial
        i = units.index(1) + 1 if 1 in units else 0
        leads.append(StandardPoint(k * exps[k] + i, exps[k + 1]))
    if len(unit_pairs) != k * (k - 1) // 2:
        return False
    profile = [height for lo, hi, height in rectangles(table) for _ in range(lo, hi)]
    heights = _column_heights(leads, k, len(profile) + k)
    return heights == profile + [0] * k and sum(profile) == params.a
