"""Pseudo-Frobenius monomial families from the Euclidean table pivot data.

The pseudo-Frobenius numbers of the semigroup are the integers ``f`` outside
the semigroup with ``f + s`` inside it for every nonzero element ``s``.  Under
the standing hypothesis (``r'_mu >= h`` or ``rho_mu = 0``) they are the values
``weight(pt) - a`` of an explicitly constructible set of standard monomials,
each held as its plane point ``(y, z)`` of the Apery staircase (see
``staircase``), and split into two families by the row ``z``:

* ``pf1``: ``z = p_{mu+1} - 1``,
* ``pf2``: ``z = p_{mu+1} - p_mu - 1``.

Each family is produced by a flat decision table keyed on the pivot pair of
the Euclidean table.  Every arm names one column run ``(lo, hi, base)`` on its
row: the points ``(k*base + i, z)`` for ``lo <= i <= hi``, so a single member
is a run of one and an empty family a run with ``hi < lo``.  Every arm also
carries a clause identifier (``1a`` .. ``2d`` for ``pf1``, ``3`` .. ``7ii``
for ``pf2``) that is recorded in the result trace, so a computed answer can
always be traced back to the exact guard that produced it.  A reachable
configuration that matches no arm raises ``InternalDispatchGap`` -- by
design that error is never expected to fire.

The values are weighed run by run as integers.  Column i of block ``base``
weighs ``base*g_k + g_i + z*c`` with ``g_0 = 0``, and ``g_i = ha + i*d``
steps by ``d``, so a run's values are one arithmetic progression, plus one
term when the run holds column 0.  ``PfResult`` stores the two runs, each
with its row, and builds their points only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import AagParams
from .errors import (
    DuplicatePfValue,
    InternalDispatchGap,
    MalformedPf,
    NonsenseInput,
)
from .euclid import EuclidTable
from .staircase import StandardPoint, require_hypothesis, weight


@dataclass(frozen=True, slots=True)
class PfResult:
    """Pseudo-Frobenius runs, their integer values, and the dispatch trace.

    ``runs`` holds the two families as column runs ``(first, last, z)``: the
    plane points ``(y, z)`` with ``first <= y <= last``, none when
    ``last < first``.  The first run lies on row ``z = p_{mu+1} - 1``, the
    second on row ``z = p_{mu+1} - p_mu - 1``.  The points are built only
    when read: ``pf1`` and ``pf2`` are the points of the two runs
    (``grobner.plane_monomial(pt.y, pt.z, k)`` gives the monomial), and
    ``frob_point`` is the point of maximal ``weight`` under ``params`` (its
    value is the Frobenius number).  ``pf_numbers`` is the sorted list of
    ``weight(pt) - a`` over both families and ``type`` its cardinality.
    ``case_trace`` is the deterministic record of which decision-table
    clause fired for each family, formatted like
    ``"PF1: clause 2b; PF2: clause 7i"``.
    """

    runs: tuple[tuple[int, int, int], tuple[int, int, int]]
    pf_numbers: tuple[int, ...]
    type: int
    case_trace: str
    params: AagParams = field(repr=False)

    @property
    def pf1(self) -> tuple[StandardPoint, ...]:
        return _run_points(self.runs[0])

    @property
    def pf2(self) -> tuple[StandardPoint, ...]:
        return _run_points(self.runs[1])

    @property
    def frob_point(self) -> StandardPoint:
        return max((*self.pf1, *self.pf2), key=lambda pt: weight(self.params, pt))


def _run_points(run: tuple[int, int, int]) -> tuple[StandardPoint, ...]:
    first, last, z = run
    return tuple(StandardPoint(y, z) for y in range(first, last + 1))


_EMPTY = (1, 0, 0)  # a column run with hi < lo: no member


def _pf1_dispatch(p: AagParams, t: EuclidTable) -> tuple[tuple[int, int, int], str]:
    """Decision table for the ``p_{mu+1} - 1`` family (clauses 1a-1e, 2a-2d)."""
    k = p.k
    nxt = t.after_pivot
    rho1 = nxt.rho
    t_sigma, t_rho = t.tilde_sigma, t.tilde_rho

    if nxt.r_prime == 0:
        if rho1 == 0:
            return _EMPTY, "1a"
        if t_rho == 0:
            return (1, k - rho1, t_sigma - 1), "1b"
        if t_rho == 1 and t_sigma == 0:
            return _EMPTY, "1c"
        if t_rho == 1:
            return (1, k - rho1, t_sigma - 1), "1d"
        if t_rho > 1:
            return (1, min(t_rho - 1, k - rho1), t_sigma), "1e"
    elif nxt.r_prime < 0:
        if t_rho == 0:
            return (1, k - 1, t_sigma - 1), "2a"
        if t_rho == 1 and t_sigma == 0:
            return (0, 0, 0), "2b"
        if t_rho == 1:
            return (1, k, t_sigma - 1), "2c"
        if t_rho > 1:
            return (1, t_rho - 1, t_sigma), "2d"
    raise InternalDispatchGap(
        "pf1 dispatch matched no clause: "
        f"r'_(mu+1)={nxt.r_prime}, rho_(mu+1)={rho1}, "
        f"tilde_rho={t_rho}, tilde_sigma={t_sigma}"
    )


def _pf2_dispatch(p: AagParams, t: EuclidTable) -> tuple[tuple[int, int, int], str]:
    """Decision table for the ``p_{mu+1} - p_mu - 1`` family (clauses 3-7ii)."""
    k, h = p.k, p.h
    piv, nxt = t.pivot, t.after_pivot
    s1 = nxt.s
    drop = piv.s - nxt.s

    if s1 == 0:
        return _EMPTY, "3"
    if piv.rho == 0:
        if s1 >= k - 1:
            return (1, k - 1, piv.sigma - 1), "4i"
        return (t.tilde_rho, k - 1, piv.sigma - 1), "4ii"
    if piv.rho == 1:
        if piv.r_prime > h:
            if s1 >= k:
                return (1, k, piv.sigma - 1), "5i"
            if s1 > 1:
                return (t.tilde_rho, k, piv.sigma - 1), "5ii"
            if s1 == 1:
                return (0, 0, piv.sigma), "5iii"
        elif piv.r_prime == h:
            if drop == 1:
                return (1, k, piv.sigma - 1), "6i"
            if 1 < drop <= piv.s - k:
                return (1, 1, piv.sigma - 1), "6ii"
            if drop > piv.s - k:
                return _EMPTY, "6iii"
    elif piv.rho > 1:
        if s1 >= piv.rho - 1:
            return (1, piv.rho - 1, piv.sigma), "7i"
        return (t.tilde_rho, piv.rho - 1, piv.sigma), "7ii"
    raise InternalDispatchGap(
        "pf2 dispatch matched no clause: "
        f"s_(mu+1)={s1}, rho_mu={piv.rho}, r'_mu={piv.r_prime}, h={h}, "
        f"s_mu={piv.s}"
    )


def pf_tilde(p: AagParams, t: EuclidTable) -> PfResult:
    """Compute both pseudo-Frobenius families, as column runs, and their
    values from the pivot data.

    Requires ``k >= 2`` and the standing hypothesis (``r'_mu >= h`` or
    ``rho_mu = 0``); outside the hypothesis the closed-form families are not
    valid and the brute-force oracle is the only route.
    """
    if p.k < 2:
        raise NonsenseInput(
            f"the pseudo-Frobenius decision table requires k >= 2, got k={p.k}"
        )
    require_hypothesis(t)

    run1, clause1 = _pf1_dispatch(p, t)
    run2, clause2 = _pf2_dispatch(p, t)
    k, d, gens = p.k, p.d, p.generators
    rows = (t.after_pivot.p - 1, t.after_pivot.p - t.pivot.p - 1)
    runs, values = [], []
    for (lo, hi, base), z in zip((run1, run2), rows):
        first = k * base + lo
        runs.append((first, first + hi - lo, z))
        if hi < lo:
            continue
        if first < 0 or z < 0:
            raise NonsenseInput(f"plane point ({first}, {z}) has a negative part")
        # Column i weighs base*g_k + g_i + z*c with g_0 = 0: the term of
        # column 0, then g_i = ha + i*d stepping by d up to column hi <= k.
        off = base * gens[k] + z * p.c - p.a
        if lo == 0:
            values.append(off)
        step_lo = max(lo, 1)
        if step_lo <= hi:
            values.extend(range(off + gens[step_lo], off + gens[hi] + d, d))
    if not values:
        raise MalformedPf(
            "both pseudo-Frobenius families came out empty "
            f"(clauses {clause1}/{clause2}); the type is always >= 1"
        )

    values.sort()
    if len(set(values)) != len(values):
        # The weight map is injective on the pseudo-Frobenius points, so a
        # duplicate value can only mean a dispatch bug.
        raise DuplicatePfValue(
            f"pseudo-Frobenius values collide: {values} for a={p.a}, d={p.d}, "
            f"h={p.h}, k={p.k}, c={p.c}"
        )
    # Positional (runs, pf_numbers, type, case_trace, params): keywords cost more.
    trace = f"PF1: clause {clause1}; PF2: clause {clause2}"
    return PfResult(tuple(runs), tuple(values), len(values), trace, p)
