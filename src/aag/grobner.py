"""Binomial families of the defining ideal and a staircase-corner basis check.

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
(y0, ζ) divides M(y, z) exactly when y >= y0, z >= ζ, and y ≡ y0 (mod k)
or k | y0.  With E(y) the staircase height of column y (0 from s_μ on,
never increasing), the standard plane monomials are the staircase exactly
when no lead has ζ < E(y0) and a lead divides each outer corner: the
first column of each residue on each piece [0, Δs), [Δs, s_μ), [s_μ, ∞),
at that piece's height, since divisibility passes from M(y, z) to
M(y + k, z) = x_k M(y, z).  The default basis is weighed as integers: A,
which depends on (k, h) alone, once per pair on (coefficient of a,
coefficient of d) weights x0 ↦ (1, 0), x_i ↦ (h, i); each side
x0^e M(αk + i, z) of B, C, D as e·a + α·g_k + g_i + z·c, its exponent vector
ranked as (e, u(i), α, z) with u(0) = 0, u(i) = k − i.  So the certificate
costs O(k²) once per (k, h) and O(k log k) per table, whatever a is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .core import AagParams, Monomial, phi
from .errors import NonsenseInput
from .euclid import EuclidTable, tilde_for_pair
from .staircase import StandardPoint, rectangles, require_hypothesis


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


def _a_terms(k: int, h: int) -> Iterator[tuple[int, int, int, int]]:
    """(i, j, e, y) of each A binomial x_i x_j - x0^e M(y, 0)."""
    return ((i, j, h if i + j <= k else 0, i + j) for i in range(1, k) for j in range(i, k))


@functools.lru_cache(maxsize=32)
def _family_A(k: int, h: int) -> tuple[Binomial, ...]:
    # The A binomials depend on (k, h) alone, and a grid walk meets few
    # distinct pairs; the values are frozen, so callers may share them.
    out = []
    for i, j, e, y in _a_terms(k, h):
        exps = [0] * (k + 2)
        exps[i] += 1
        exps[j] += 1
        out.append(Binomial(Monomial(tuple(exps)), plane_monomial(y, 0, k, e), "A"))
    return tuple(out)


@functools.lru_cache(maxsize=256)
def _family_A_holds(k: int, h: int) -> bool:
    """Is every A binomial in the kernel and led by x_i x_j, at any a and d?  x_i x_j
    weighs (2h, i + j), x0^e M(αk + v, 0) weighs (e + h(α + [v > 0]), αk + v), and
    x_i x_j leads when (0, u(i)) < (e, u(v)); on a tie it has a second unit."""
    for i, j, e, y in _a_terms(k, h):
        alpha, v = divmod(y, k)
        if (e + h * (alpha + (v > 0)), y) != (2 * h, i + j) or (0, k - i) >= (e, v and k - v):
            return False
    return True


def _plane_terms(params: AagParams, table: EuclidTable) -> list[tuple[str, tuple, tuple]]:
    """B, C, D as (family, lead, tail), each side a plane term (e, y, z) = x0^e M(y, z)."""
    require_hypothesis(table)
    k, h = params.k, params.h
    piv, nxt = table.pivot, table.after_pivot
    out = [("B", (0, piv.s, 0), (piv.r_prime, 0, piv.p))]
    if piv.rho > 0:
        out += [
            ("B", (0, piv.s + j, 0), (piv.r_prime - h, j, piv.p)) for j in range(1, k - piv.rho + 1)
        ]
    if nxt.s > 0:
        ds, dp, r_tilde = piv.s - nxt.s, nxt.p - piv.p, table.tilde_r
        out.append(("C", (0, ds, dp), (r_tilde, 0, 0)))
        if table.tilde_rho > 0:
            out += [
                ("C", (0, ds + j, dp), (r_tilde - h, j, 0))
                for j in range(1, k - table.tilde_rho + 1)
            ]
    out.append(("D", (0, 0, nxt.p), (-nxt.r_prime, nxt.s, 0)))
    return out


def families_BCD(params: AagParams, table: EuclidTable) -> list[Binomial]:
    """The table-derived families B, C, D as one tagged list."""
    return [
        Binomial(plane_monomial(y, z, params.k, e), plane_monomial(v, w, params.k, f), family)
        for family, (e, y, z), (f, v, w) in _plane_terms(params, table)
    ]


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


def _standard_is_staircase(leads: list[StandardPoint], table: EuclidTable, k: int) -> bool:
    """Are the plane points that no lead in ``leads`` divides the staircase?
    No lead may lie inside it, and one must divide each outer corner."""
    (_, split, tall), (_, end, low) = rectangles(table)
    if any(z < (tall if y < split else low if y < end else 0) for y, z in leads):
        return False
    leads, never = sorted(leads), end + k  # ``never`` lies past every corner
    for lo, top in ((0, tall), (split, low), (end, 0)):  # split = end: (end, 0) implies it
        first = {}  # least column per residue of the leads at most top high
        for y, z in leads:
            if z <= top:
                first.setdefault(y % k, y)
        reach = first.get(0, never)  # a lead at a multiple of k covers every residue
        if any(min(reach, first.get(i, never)) > lo + (i - lo) % k for i in range(k)):
            return False
    return True


def _plane_leads(params: AagParams, table: EuclidTable) -> list[tuple[int, int]] | None:
    """The plane leads (y, z) of B, C, D, or None when a check fails.  Each side is
    weighed first, so a negative part always raises, as its ``Monomial`` would."""
    k, a, c = params.k, params.a, params.c
    block, terms, keys = (0, *params.generators[1 : k + 1]), _plane_terms(params, table), []
    for e, y, z in (side for _, lead, tail in terms for side in (lead, tail)):
        if min(e, y, z) < 0:
            raise NonsenseInput(f"plane term x0^{e} M({y}, {z}) has a negative part")
        alpha, i = divmod(y, k)
        keys.append((e * a + alpha * block[k] + block[i] + z * c, e, i and k - i, alpha, z))
    if any(big[0] != small[0] or big[1:] >= small[1:] for big, small in zip(keys[::2], keys[1::2])):
        return None
    return [lead[1:] for _, lead, _ in terms if not lead[0]]


def certify_basis(
    params: AagParams,
    table: EuclidTable,
    basis: list[Binomial] | None = None,
) -> bool:
    """Certify that A∪B∪C∪D is a Groebner basis of the defining ideal.

    Returns True iff every element kernel-checks with the constructed
    monomial as its true leading term, every x_i x_j (1 <= i <= j <= k-1)
    is a lead, the standard plane monomials are the staircase (checked at
    its outer corners) and its two rectangles hold a points.  The default
    basis is checked on integers, building no ``Monomial``.  ``basis``
    overrides the generating set and checks each element as a ``Monomial``
    pair, which lets tests confirm that corrupted sets fail.  Whatever a
    is, A costs O(k^2) steps once per (k, h) (cached) and the rest O(k log k)
    per table; a ``basis`` override costs O(k) per binomial.
    """
    require_hypothesis(table)
    k = params.k
    if basis is None:
        leads = _plane_leads(params, table) if _family_A_holds(k, params.h) else None
        if leads is None:
            return False
    else:
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
    area = sum((hi - lo) * top for lo, hi, top in rectangles(table))
    return _standard_is_staircase(leads, table, k) and area == params.a
