"""Plane representation of monomials and the two-rectangle Apery set.

A monomial L_i * x_k^α * x_{k+1}^z (with L_0 = 1 and L_i = x_i for
0 < i < k) is drawn at the plane point (y, z) where y = αk + i.  The
Apery set of the semigroup with respect to a is the union of two
half-open rectangles determined by the pivot rows of the Euclidean table:

    {0 <= y < s_μ - s_{μ+1},  0 <= z < p_{μ+1}}
  ∪ {s_μ - s_{μ+1} <= y < s_μ,  0 <= z < p_{μ+1} - p_μ}

whose total cardinality is a by the determinant identity
s_μ p_{μ+1} - s_{μ+1} p_μ = a.

The weight of a point is φ(M(y, z)) = α·g_k + g_i + z·c with g_0 = 0
(``weight``), so a point costs O(1) whatever k is.

The Frobenius number is max φ over the Apery set minus a.  φ grows with z,
so each rectangle's maximum sits on its top row; along that row only a
constant number of columns can win.  Within a block of k columns
g_1, ..., g_{k-1}, g_k run up when d > 0 and down when d < 0, and g_0 = 0
lies below all of them.  For d > 0 the row therefore rises left to right
and peaks at its last column hi − 1.  For d < 0 it peaks in each block at
i = 1, those peaks rise with α, and between peaks it falls: the maximum is
the last column y ≡ 1 (mod k) in range or, when there is none, the first
column lo.  The candidates {lo, hi − 1, last y ≡ 1} cover both signs, so
``frobenius`` weighs at most six columns whatever s_μ is, each as the
integer α·g_k + g_i + z·c from the block weights, without building a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .core import AagParams
from .errors import HypothesisViolated, NonsenseInput
from .euclid import EuclidTable


class _Point(NamedTuple):
    y: int
    z: int


class StandardPoint(_Point):
    """Plane coordinates (y, z) of a monomial L_i x_k^α x_{k+1}^z."""

    __slots__ = ()

    def __new__(cls, y: int, z: int) -> StandardPoint:
        if y < 0 or z < 0:
            raise NonsenseInput(f"plane point ({y}, {z}) has a negative part")
        return tuple.__new__(cls, (y, z))


@dataclass(frozen=True)
class AperySet:
    """The Apery points of the staircase."""

    points: frozenset[StandardPoint]


def require_hypothesis(table: EuclidTable) -> None:
    """The one guard of every closed form proved under the hypothesis."""
    if not table.hypothesis_ok:
        piv = table.pivot
        raise HypothesisViolated(
            "the staircase closed forms need r'_mu >= h or rho_mu = 0; "
            f"pivot row has r'_mu={piv.r_prime}, rho_mu={piv.rho}, h={table.params.h}"
        )


def rectangles(table: EuclidTable) -> tuple[tuple[int, int, int], ...]:
    """The staircase as two column blocks (lo, hi, height).

    Columns lo <= y < hi hold the points z < height:
    (0, Δs, p_{μ+1}) and (Δs, s_μ, p_{μ+1} − p_μ) with Δs = s_μ − s_{μ+1}.
    The second block is empty when s_{μ+1} = 0.
    """
    piv, nxt = table.pivot, table.after_pivot
    split = piv.s - nxt.s
    return (0, split, nxt.p), (split, piv.s, nxt.p - piv.p)


def iter_apery_points(table: EuclidTable) -> Iterator[StandardPoint]:
    """Yield the Apery points rectangle by rectangle (row-major)."""
    require_hypothesis(table)
    for lo, hi, height in rectangles(table):
        for y in range(lo, hi):
            for z in range(height):
                yield StandardPoint(y, z)


def apery_set(params: AagParams, table: EuclidTable) -> AperySet:
    """Materialized Apery set; cardinality is checked to equal a."""
    points = frozenset(iter_apery_points(table))
    if len(points) != params.a:
        raise AssertionError(
            f"Apery rectangle count {len(points)} != a = {params.a}"
        )
    return AperySet(points=points)


def _column_weight(params: AagParams, y: int) -> int:
    """α·g_k + g_i with y = αk + i and g_0 = 0: the weight of (y, 0)."""
    alpha, i = divmod(y, params.k)
    gens = params.generators
    return alpha * gens[params.k] + (gens[i] if i else 0)


def weight(params: AagParams, pt: StandardPoint) -> int:
    """φ(M(y, z)) = α·g_k + g_i + z·c with y = αk + i and g_0 = 0."""
    return _column_weight(params, pt.y) + pt.z * params.c


def _top_row_max(params: AagParams, lo: int, hi: int, z: int) -> int:
    """Largest weight on row z over the columns lo <= y < hi (lo < hi)."""
    last_unit = hi - 1 - (hi - 2) % params.k  # last y < hi with y ≡ 1 (mod k)
    best = max(_column_weight(params, lo), _column_weight(params, hi - 1))
    if last_unit > lo:
        best = max(best, _column_weight(params, last_unit))
    return best + z * params.c


def frobenius(params: AagParams, table: EuclidTable) -> int:
    """Frobenius number: max φ over the Apery set, minus a."""
    require_hypothesis(table)
    best = max(
        _top_row_max(params, lo, hi, height - 1)
        for lo, hi, height in rectangles(table)
        if lo < hi
    )
    return best - params.a


def apery_values(params: AagParams, table: EuclidTable) -> list[int]:
    """φ of every Apery point (rectangle order, not sorted)."""
    require_hypothesis(table)
    k, c = params.k, params.c
    # weight is affine in α, w(αk + i) = α·g_k + g_i, so the k + 1 block
    # weights g_0 = 0, g_1, ..., g_k give every column without a point each.
    block = (0, *params.generators[1 : k + 1])
    out: list[int] = []
    for lo, hi, height in rectangles(table):
        for y in range(lo, hi):
            alpha, i = divmod(y, k)
            w = alpha * block[k] + block[i]
            out.extend(range(w, w + height * c, c))
    return out
