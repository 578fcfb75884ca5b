"""Symmetric and almost-symmetric classification with closed-form families.

A validated parameter tuple is classified from its Euclidean table alone:

* ``Symmetric``      -- exactly one pseudo-Frobenius number,
* ``AlmostSymmetric``-- type >= 2 and the mirror pairing f_i + f_{t-i} = F
  holds across the sorted pseudo-Frobenius list,
* ``NeitherSpecial`` -- everything else the closed forms can handle,
* ``OracleOnly``     -- the standing hypothesis fails or k < 3, so the
  type, Frobenius number and pseudo-Frobenius set come from the brute-force
  oracle.

Symmetric and almost-symmetric semigroups belong to thirteen closed-form
families.  Each family is one theorem, held as one :class:`Family` record in
the ordered registry :data:`FAMILIES`: where its parameters sit on the two
table rows around the pivot, its type and Frobenius formulas, its stated
side conditions, its (a, d, c) synthesis and, for almost-symmetric families,
the equation that pins the column count ``p``.  A tuple is a member exactly
when the family's parameters pass its side conditions and its synthesis
gives back the tuple's (a, d, c): both routes below match a family by that
one test, and ``family_generate`` builds members from the same conditions
and synthesis.  The family id strings are the stable output vocabulary of
this package: downstream consumers match on them, so they are data, not
prose.

Two routes produce a classification:

* :func:`classify` -- the full route: build the table, compute the
  pseudo-Frobenius families, run the pairing check, then read each
  candidate family's parameters off the pivot rows and run its membership
  test.
* :func:`fast_path` -- the quadratic route: for each almost-symmetric
  family, take ``p`` from its quadratic (or linear) equation in exact
  integer arithmetic, back-solve ``sigma`` and ``r`` from ``a`` and ``d``,
  and accept only when the family's membership test holds.  The two routes
  agree everywhere (tested).  The fast route needs no table, but it solves
  one quadratic per ``l`` below ``k``: at (155, 1, 4, 20, 177) it takes
  37 us, against 6 us for ``build_table`` and 35 us for ``classify`` on
  that table, most of it the membership tests of the nine almost-symmetric
  families, which only a Symmetric or AlmostSymmetric verdict runs.  At
  the NeitherSpecial (52217, 225, 1, 17, 106581), ``classify`` takes 10 us
  and a ``fast_path`` miss 38 us.  So :func:`classify_with_fast_path` runs
  the full route first, and the fast path only on an AlmostSymmetric
  verdict or before the oracle.  Given no table, it takes 17 us instead of
  63 us at that tuple, but 90 us instead of 37 us at (155, 1, 4, 20, 177),
  which pays both routes (2-core host, Python 3.11.7, timeit best of 5).
  The command line answers through ``classify`` only.

Both routes match families on the *raw* presentation: parameters that were
rewritten during validation (d < 0, h = 1) are converted back before
matching, since the family tables are stated for the original generator
tuple.  The verdict, type, PF set and Frobenius number depend only on the
generator set, so ``classify`` takes them from the caller's table in
either presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .core import AagParams, validate_params
from .errors import AmbiguousFastPath, FamilyConstraintViolated, MalformedPf
from .euclid import EuclidRow, EuclidTable, build_table
from .pseudofrob import pf_tilde
from .staircase import frobenius

VERDICT_SYMMETRIC = "Symmetric"
VERDICT_ALMOST_SYMMETRIC = "AlmostSymmetric"
VERDICT_NEITHER = "NeitherSpecial"
VERDICT_ORACLE_ONLY = "OracleOnly"


@dataclass(frozen=True, slots=True)
class Classification:
    """Outcome of classifying one parameter tuple.

    ``solved`` holds the family parameters recovered from the table (keys
    among ``p``, ``p_prime``, ``sigma``, ``sigma_prime``, ``r``, ``r_hat``,
    ``l``); it is empty when no family matched or the verdict carries no
    family.  ``frobenius`` and ``type`` are always the true values (closed
    form on the main routes, oracle on the ``OracleOnly`` route), and so is
    ``pf``, the sorted pseudo-Frobenius numbers, on the routes of
    :func:`classify`; :func:`fast_path` does not compute it and leaves it
    empty.  ``case_trace`` names the pseudo-Frobenius dispatch clauses that
    fired (``pseudofrob.PfResult.case_trace``); it is None on the
    ``OracleOnly`` route and from :func:`fast_path`.
    """

    verdict: str
    family: str | None
    solved: dict[str, int] = field(default_factory=dict)
    type: int = 0
    frobenius: int = 0
    fast_path_used: bool = False
    pf: tuple[int, ...] = ()
    case_trace: str | None = None


def nari_check(pf_numbers: list[int], frob: int) -> bool:
    """Mirror-pairing test on a sorted pseudo-Frobenius list.

    True iff the list is a singleton, or f_i + f_{t-i} = F for all
    i = 1..t-1 (1-based over the first t-1 entries).  The last entry must be
    F itself; anything else indicates a malformed input.
    """
    if not pf_numbers:
        raise MalformedPf("empty pseudo-Frobenius list")
    if pf_numbers[-1] != frob:
        raise MalformedPf(
            f"last pseudo-Frobenius number {pf_numbers[-1]} is not the "
            f"Frobenius number {frob}"
        )
    t = len(pf_numbers)
    return all(pf_numbers[i - 1] + pf_numbers[t - i - 1] == frob for i in range(1, t))


def _raw_presentation(p: AagParams) -> AagParams:
    """Undo the d < 0, h = 1 rewrite: families are matched on the raw tuple.

    The rewrite lists the same generators from the other end, and that set
    was already validated, so nothing is checked again.
    """
    if not p.normalized:
        return p
    return AagParams(
        a=p.a + p.k * p.d,
        d=-p.d,
        h=p.h,
        k=p.k,
        c=p.c,
        generators=(*reversed(p.arithmetic_part()), p.c),
    )


# ---------------------------------------------------------------------------
# The family registry.
# ---------------------------------------------------------------------------

#: A stated side condition: None when it holds for the variables, else the
#: message that ``family_generate`` raises.
Condition = Callable[..., str | None]


@dataclass(frozen=True)
class Family:
    """One classification theorem.

    ``read`` takes the pivot row and the row after it and returns the values
    of ``keys`` there.  Every other callable takes the family's variables as
    keywords and ignores the rest: the presentation ``a, d, h, k, c`` with
    ``a1 = ha + d``, ``a2 = ha + 2d``, ``ak = ha + kd``, and the family
    parameters among ``l, sigma, sigma_prime, p, p_prime, r, r_hat``.

    The stated side conditions are split into ``requires`` (on ``h``, ``k``
    and, for one family, ``d``: which presentations the family covers) and
    ``conditions`` (on the family parameters); ``family_generate`` checks
    them in that order.  ``synthesize`` gives the member's ``(a, d, c)``; a
    tuple is a member exactly when its parameters pass both kinds of
    condition and synthesize back to its ``(a, d, c)`` (:func:`_is_member`).
    ``a`` is affine in ``sigma`` and ``d`` is affine in ``r``, which is what
    lets the fast path back-solve both.  ``solve`` (almost-symmetric
    families only) lists the candidate values of ``p``, with ``l`` where the
    family has one, for a presentation; ``fast_guard`` is an extra
    fast-path-only acceptance test.
    """

    id: str
    symmetric: bool
    keys: tuple[str, ...]
    read: Callable[[EuclidRow, EuclidRow], tuple[int, ...]]
    t_formula: Callable[..., int]
    f_formula: Callable[..., int]
    requires: tuple[Condition, ...]
    conditions: tuple[Condition, ...]
    synthesize: Callable[..., tuple[int, int, int]]
    h_default: int | None = 1
    solve: Callable[..., list[dict[str, int]]] | None = None
    fast_guard: Callable[..., bool] | None = None


def _integer_roots(kc: int, b: int, constant: int) -> list[int]:
    """Integer roots of kc*p^2 - b*p - constant = 0 with perfect-square test.

    Returns the integer roots among both branches (the written "+" branch
    first).  A negative or non-square discriminant yields no roots.
    """
    disc = b * b + 4 * kc * constant
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    out = []
    for numerator in (b + root, b - root):
        if numerator % (2 * kc) == 0:
            value = numerator // (2 * kc)
            if value not in out:
                out.append(value)
    return out


def _exact(numerator: int, denominator: int) -> list[int]:
    """``[numerator / denominator]`` when the division is exact, else ``[]``."""
    if denominator == 0 or numerator % denominator:
        return []
    return [numerator // denominator]


_K3 = lambda k, **_: None if k >= 3 else f"requires k >= 3, got {k}"
_H1 = lambda h, **_: None if h == 1 else "requires h = 1"
_H_POSITIVE = lambda h, **_: None if h >= 1 else f"requires h >= 1, got {h}"
_SIGMA1 = lambda sigma, **_: None if sigma >= 1 else f"sigma must be >= 1, got {sigma}"
_SIGMA2 = lambda sigma, **_: None if sigma >= 2 else f"sigma must be >= 2, got {sigma}"
_P2 = lambda p, **_: None if p >= 2 else f"p must be >= 2, got {p}"
_P_ORDERED = lambda p, p_prime, **_: None if p_prime > p > 0 else "need p_prime > p > 0"
_R_SHIFTED = lambda r, h, sigma, **_: (
    None if r + h * (sigma + 1) > 0 else "need r + h*(sigma+1) > 0"
)
_R_BELOW_H = lambda r, h, **_: None if r < -h else f"need r < -h, got {r}"

FAMILIES: tuple[Family, ...] = (
    Family(
        id="Thm4.1-case1",
        symmetric=True,
        keys=("sigma", "p", "p_prime", "r", "r_hat"),
        read=lambda piv, nxt: (piv.sigma, piv.p, nxt.p, piv.r, nxt.r),
        t_formula=lambda **_: 1,
        f_formula=lambda a, a1, ak, c, sigma, p_prime, **_: a1 + sigma * ak + c * (p_prime - 1) - a,
        requires=(_K3,),
        conditions=(
            _SIGMA1,
            lambda p, p_prime, **_: (
                None if 1 <= p < p_prime else f"need 1 <= p < p_prime, got {p}, {p_prime}"
            ),
            lambda r_hat, **_: None if r_hat < -1 else f"r_hat must be < -1, got {r_hat}",
            lambda p_prime, r_hat, **_: (
                None if math.gcd(p_prime, r_hat) == 1 else "gcd(p_prime, r_hat) must be 1"
            ),
            lambda r, h, sigma, **_: (
                None if r + h * sigma >= 0 else f"need r + h*sigma >= 0, got {r + h * sigma}"
            ),
        ),
        synthesize=lambda k, sigma, p, p_prime, r, r_hat, **_: (
            (sigma * k + 2) * p_prime,
            p_prime * r - p * r_hat,
            -(sigma * k + 2) * r_hat,
        ),
    ),
    Family(
        id="Thm4.1-case2",
        symmetric=True,
        keys=("sigma", "sigma_prime", "p", "p_prime", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.sigma, piv.p, nxt.p, piv.r),
        t_formula=lambda **_: 1,
        f_formula=lambda a, a1, ak, c, sigma, p, p_prime, **_: (
            a1 + sigma * ak + c * (p_prime - p - 1) - a
        ),
        requires=(_K3,),
        conditions=(
            lambda sigma, sigma_prime, **_: (
                None if sigma >= sigma_prime >= 2 else "need sigma >= sigma_prime >= 2"
            ),
            _P_ORDERED,
            _R_SHIFTED,
        ),
        synthesize=lambda h, k, sigma, sigma_prime, p, p_prime, r, **_: (
            (sigma * k + 2) * p_prime - sigma_prime * k * p,
            p_prime * r + p * h * sigma_prime,
            sigma_prime * k * r + (sigma * k + 2) * sigma_prime * h,
        ),
    ),
    Family(
        id="Thm4.1-case3",
        symmetric=True,
        keys=("sigma", "p", "p_prime", "r"),
        read=lambda piv, nxt: (piv.sigma, piv.p, nxt.p, piv.r),
        t_formula=lambda **_: 1,
        f_formula=lambda a, a1, ak, c, sigma, p, p_prime, **_: (
            a1 + sigma * ak + c * (p_prime - p - 1) - a
        ),
        requires=(_K3,),
        conditions=(_SIGMA1, _P_ORDERED, _R_SHIFTED),
        synthesize=lambda h, k, sigma, p, p_prime, r, **_: (
            (sigma * k + 2) * p_prime - (sigma * k + 1) * p,
            p_prime * r + p * h * (sigma + 1),
            (sigma * k + 1) * r + (sigma * k + 2) * (sigma + 1) * h,
        ),
    ),
    Family(
        id="Thm4.1-case4",
        symmetric=True,
        keys=("sigma", "p", "p_prime", "r_hat"),
        read=lambda piv, nxt: (piv.sigma, piv.p, nxt.p, nxt.r),
        t_formula=lambda **_: 1,
        f_formula=lambda a, a1, ak, c, sigma, p_prime, **_: (
            a1 + (sigma - 1) * ak + c * (p_prime - 1) - a
        ),
        requires=(_K3,),
        conditions=(
            _SIGMA1,
            _P_ORDERED,
            lambda r_hat, h, **_: None if r_hat < -h else f"need r_hat < -h, got {r_hat}",
        ),
        synthesize=lambda h, k, sigma, p, p_prime, r_hat, **_: (
            (sigma * k + 1) * p_prime - (k - 1) * p,
            -p_prime * h * sigma - p * r_hat,
            -(k - 1) * h * sigma - (sigma * k + 1) * r_hat,
        ),
    ),
    Family(
        # F = k*d; (a, d, c) pins the member, there is nothing to solve.
        id="Thm5.1",
        symmetric=False,
        keys=(),
        read=lambda piv, nxt: (),
        t_formula=lambda k, **_: k + 1,
        f_formula=lambda k, d, **_: k * d,
        requires=(
            _H1,
            lambda k, **_: None if k >= 3 and k % 2 == 1 else f"k must be odd and >= 3, got {k}",
            lambda d, **_: (
                None if d >= 2 and d % 2 == 0 else f"d must be a positive even number, got {d}"
            ),
        ),
        conditions=(),
        synthesize=lambda k, d, **_: (k + 2, d, k + 2 + (d // 2) * k),
        solve=lambda **_: [{}],
    ),
    Family(
        # F = 3a1 - 2a2 - ak; c and d together pin p.
        id="Thm5.2",
        symmetric=False,
        keys=("sigma", "p"),
        read=lambda piv, nxt: (piv.sigma, nxt.p),
        t_formula=lambda k, **_: k + 1,
        f_formula=lambda a1, a2, ak, **_: 3 * a1 - 2 * a2 - ak,
        requires=(lambda h, **_: None if h >= 2 else f"requires h >= 2, got {h}", _K3),
        conditions=(_SIGMA1, _P2),
        synthesize=lambda h, k, sigma, p, **_: (
            (sigma * k + 1) * p - sigma * k,
            1 - h * sigma * (p - 1),
            h * sigma + sigma * k + 1,
        ),
        h_default=None,
        solve=lambda d, h, k, c, **_: [
            {"p": 1 + q} for q in _exact((1 - d) * (h + k), h * (c - 1))
        ],
    ),
    Family(
        id="Thm5.3-(i)",
        symmetric=False,
        keys=("l", "sigma", "p", "r"),
        read=lambda piv, nxt: (nxt.rho, piv.sigma, nxt.p, piv.r),
        t_formula=lambda k, l, **_: k - l + 1,
        f_formula=lambda a, a1, ak, c, sigma, p, **_: a1 + sigma * ak + (p - 2) * c - a,
        requires=(_H1, _K3),
        conditions=(
            lambda l, k, **_: None if 1 <= l <= k - 1 else f"need 1 <= l <= k-1, got l={l}",
            lambda sigma, p, **_: None if sigma >= 2 and p >= 2 else "need sigma >= 2 and p >= 2",
            lambda r, sigma, **_: None if r > -(sigma + 1) else f"need r > -(sigma+1), got {r}",
        ),
        synthesize=lambda k, l, sigma, p, r, **_: (
            (sigma * k + 2) * p - ((sigma - 1) * k + l),
            p * r + sigma,
            ((sigma - 1) * k + l) * r + (sigma * k + 2) * sigma,
        ),
        solve=lambda a, d, k, c, ak, **_: [
            {"l": l, "p": p}
            for l in range(1, k)
            for p in _integer_roots(
                k * c, k * (c + a + l * d - ak) - 2 * ak, ak * (a + l) - k * (a + l * d)
            )
        ],
    ),
    Family(
        # The two-column family with t = 2.
        id="Thm5.3-(ii)",
        symmetric=False,
        keys=("sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, piv.r),
        t_formula=lambda **_: 2,
        f_formula=lambda a, a1, ak, c, sigma, p, **_: a1 + sigma * ak + (p - 2) * c - a,
        requires=(_H_POSITIVE, _K3),
        conditions=(
            lambda sigma, p, **_: None if sigma >= 1 and p >= 2 else "need sigma >= 1 and p >= 2",
            lambda r, h, sigma, **_: (
                None if r > -h * (sigma + 1) - 1 else f"need r > -h*(sigma+1)-1, got {r}"
            ),
        ),
        synthesize=lambda h, k, sigma, p, r, **_: (
            (sigma * k + 2) * p - (sigma * k + 1),
            p * r + h * (sigma + 1) + 1,
            (sigma * k + 1) * r + (sigma * k + 2) * (h * (sigma + 1) + 1),
        ),
        h_default=None,
        solve=lambda a, k, c, a1, ak, **_: [
            {"p": p}
            for p in _integer_roots(k * c, k * (c + a + a1) - 2 * ak, ak * (a + 1) - k * (a + a1))
        ],
        # Stricter than the stated r > -h(sigma+1)-1: the fast path has no
        # table, and members with r < -h*sigma violate the pivot hypothesis.
        fast_guard=lambda r, h, sigma, **_: r >= -h * sigma,
    ),
    Family(
        id="Thm5.4-(i)",
        symmetric=False,
        keys=("l", "sigma", "p", "r"),
        read=lambda piv, nxt: (piv.rho - 2, piv.sigma, nxt.p, nxt.r),
        t_formula=lambda l, **_: l + 1,
        f_formula=lambda a, a1, ak, c, sigma, p, **_: a1 + sigma * ak + (p - 1) * c - a,
        requires=(_H1, lambda k, **_: None if k >= 4 else f"requires k >= 4, got {k}"),
        conditions=(
            _SIGMA1,
            lambda l, k, **_: None if 1 <= l <= k - 3 else f"need 1 <= l <= k-3, got l={l}",
            _P2,
            lambda r, **_: None if r <= -2 else f"need r <= -2, got {r}",
        ),
        synthesize=lambda k, l, sigma, p, r, **_: (
            (sigma * k + l + 2) * p - l * (p - 1),
            -p * sigma - (p - 1) * r,
            -l * sigma - (sigma * k + l + 2) * r,
        ),
        solve=lambda a, d, k, c, ak, **_: [
            {"l": l, "p": p}
            for l in range(1, k - 2)
            for p in _integer_roots(k * c, k * (c + (l + 2) * d) - 2 * ak, ak * (a - l))
        ],
    ),
    Family(
        id="Thm5.4-(ii)",
        symmetric=False,
        keys=("sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, nxt.r),
        t_formula=lambda k, **_: k - 1,
        f_formula=lambda a, a1, ak, c, sigma, p, **_: a1 + (sigma - 1) * ak + (p - 1) * c - a,
        requires=(_H_POSITIVE, _K3),
        conditions=(_SIGMA2, _P2, _R_BELOW_H),
        synthesize=lambda h, k, sigma, p, r, **_: (
            sigma * k * p - (k - 2) * (p - 1),
            (1 - h * sigma) * p - (p - 1) * r,
            (k - 2) * (1 - h * sigma) - sigma * k * r,
        ),
        h_default=None,
        solve=lambda a, k, c, ak, **_: [
            {"p": p} for p in _integer_roots(k * c, k * (c - a + ak) - 2 * ak, ak * (a - k + 2))
        ],
    ),
    Family(
        id="Thm5.4-(iii)",
        symmetric=False,
        keys=("sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, nxt.r),
        t_formula=lambda k, **_: k,
        f_formula=lambda a, a1, ak, c, sigma, p, **_: a1 + (sigma - 1) * ak + (p - 1) * c - a,
        requires=(_H_POSITIVE, _K3),
        conditions=(_SIGMA1, _P2, _R_BELOW_H),
        synthesize=lambda h, k, sigma, p, r, **_: (
            (sigma * k + 1) * p - (k - 1) * (p - 1),
            (1 - h * sigma) * p - (p - 1) * r,
            (k - 1) * (1 - h * sigma) - (sigma * k + 1) * r,
        ),
        h_default=None,
        solve=lambda a, d, k, c, ak, **_: [
            {"p": p}
            for p in _integer_roots(k * c, k * (c + d - a + ak) - 2 * ak, ak * (a - k + 1))
        ],
    ),
    Family(
        # a alone pins p.
        id="Thm5.4-(iv)",
        symmetric=False,
        keys=("p", "r"),
        read=lambda piv, nxt: (piv.p, nxt.r),
        t_formula=lambda k, **_: k + 1,
        f_formula=lambda a, c, p, **_: p * c - a,
        requires=(_H1, _K3),
        conditions=(
            lambda p, **_: None if p >= 1 else f"p must be >= 1, got {p}",
            lambda r, **_: None if r < -1 else f"need r < -1, got {r}",
        ),
        synthesize=lambda k, p, r, **_: (k + p + 1, -(p + 1) - p * r, -k - (k + 1) * r),
        solve=lambda a, k, **_: [{"p": a - k - 1}],
    ),
    Family(
        id="Thm5.4-(v)",
        symmetric=False,
        keys=("sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, nxt.r),
        t_formula=lambda **_: 2,
        f_formula=lambda a, a1, ak, c, sigma, p, **_: a1 + (sigma - 2) * ak + (p - 1) * c - a,
        requires=(_H1, _K3),
        conditions=(
            _SIGMA2,
            _P2,
            lambda r, **_: None if r <= -3 else f"need r <= -3, got {r}",
        ),
        synthesize=lambda k, sigma, p, r, **_: (
            (sigma * k + 1) * p - (2 * k - 1) * (p - 1),
            -p * sigma - (p - 1) * r,
            -sigma * (2 * k - 1) - (sigma * k + 1) * r,
        ),
        solve=lambda a, d, k, c, ak, **_: [
            {"p": p}
            for p in _integer_roots(k * c, k * (c + d + 2 * ak) - 2 * ak, ak * (a - 2 * k + 1))
        ],
    ),
)

_BY_ID = {fam.id: fam for fam in FAMILIES}
SYMMETRIC_FAMILIES = tuple(fam.id for fam in FAMILIES if fam.symmetric)
ALMOST_SYMMETRIC_FAMILIES = tuple(fam.id for fam in FAMILIES if not fam.symmetric)
ALL_FAMILIES = tuple(_BY_ID)


def _family(family: str) -> Family:
    try:
        return _BY_ID[family]
    except KeyError:
        raise FamilyConstraintViolated(f"unknown family id {family!r}") from None


def _variables(p: AagParams) -> dict[str, int]:
    """The presentation variables every family formula may read."""
    a, d, h, k = p.a, p.d, p.h, p.k
    return {
        "a": a,
        "d": d,
        "h": h,
        "k": k,
        "c": p.c,
        "a1": h * a + d,
        "a2": h * a + 2 * d,
        "ak": h * a + k * d,
    }


def _is_member(fam: Family, v: dict[str, int]) -> bool:
    """Whether ``v`` -- presentation variables and family parameters --
    names a member of ``fam``: the synthesis gives back ``v``'s (a, d, c),
    which settles most candidates, and the stated side conditions hold."""
    return fam.synthesize(**v) == (v["a"], v["d"], v["c"]) and not any(
        violation(**v) for violation in (*fam.requires, *fam.conditions)
    )


def match_families(
    p: AagParams, t: EuclidTable, candidates: tuple[str, ...]
) -> list[tuple[str, dict[str, int]]]:
    """The families among ``candidates`` that ``p`` is a member of, with the
    parameters read off its pivot rows, in canonical order."""
    env = _variables(p)
    hits = []
    for family in candidates:
        fam = _family(family)
        solved = dict(zip(fam.keys, fam.read(t.pivot, t.after_pivot)))
        if _is_member(fam, {**env, **solved}):
            hits.append((family, solved))
    return hits


def family_type(family: str, solved: dict[str, int], p: AagParams) -> int:
    """The family's claimed type, from its closed-form t-formula."""
    return _family(family).t_formula(**{**solved, **_variables(p)})


def family_frobenius(family: str, solved: dict[str, int], p: AagParams) -> int:
    """The family's claimed Frobenius number, from its closed-form F-formula.

    Each formula is the weight of the family's maximal pseudo-Frobenius
    monomial minus ``a`` (with the two special literal forms ``F = k d`` and
    ``F = 3 a_1 - 2 a_2 - a_k`` kept as stated for their families).
    """
    return _family(family).f_formula(**{**solved, **_variables(p)})


def family_generate(family: str, params: dict[str, int]) -> AagParams:
    """Construct a validated parameter tuple from a family's formulas.

    ``params`` uses the same keys as ``Classification.solved`` plus ``h``
    and ``k`` where the family does not pin them.  Side conditions are the
    families' stated ones; violations raise ``FamilyConstraintViolated``.
    A synthesized (a, d, c) can still fail validation (gcd, minimality,
    d = 0) -- those errors propagate so callers can report them.

    The family conclusions hold only under the package's standing
    hypothesis on the pivot row, so parameters whose synthesized table
    violates it are rejected as constraint violations too (the stated
    letter conditions do not always force it when h >= 2, and the claims
    genuinely fail on some tuples outside it).
    """
    fam = _family(family)
    v = dict(params) if fam.h_default is None else {"h": fam.h_default, **params}
    for violation in (*fam.requires, *fam.conditions):
        message = violation(**v)
        if message is not None:
            raise FamilyConstraintViolated(f"{family}: {message}")
    a, d, c = fam.synthesize(**v)
    out = validate_params(a, d, v["h"], v["k"], c, normalize=False)
    if not build_table(out).hypothesis_ok:
        raise FamilyConstraintViolated(
            f"{family}: parameters {params} synthesize a table that violates "
            f"the standing pivot hypothesis (a={a}, d={d}, c={c})"
        )
    return out


# ---------------------------------------------------------------------------
# Full classification route.
# ---------------------------------------------------------------------------


def classify(p: AagParams, t: EuclidTable | None = None) -> Classification:
    """Classify a validated tuple via the Euclidean table and the families.

    ``t`` is the caller's table of ``p`` (built when None).  The verdict,
    type, PF set, Frobenius number and dispatch trace come from it in either
    presentation; only a Symmetric or AlmostSymmetric verdict on a rewritten
    d < 0, h = 1 tuple builds the raw table, to read the family parameters.
    Beyond ``build_table`` it costs O(k log k) steps whatever a is (at most
    k + 1 PF values, O(1) per family test); ``OracleOnly`` (k < 3 or no
    hypothesis) costs the oracle's O(m * k) time and O(m) memory instead,
    m the smallest generator, refused above AAG_MAX_A.
    """
    if t is None:
        t = build_table(p)
    if p.k < 3 or not t.hypothesis_ok:
        from . import oracle
        report = oracle.oracle_report(list(p.generators))
        return Classification(
            verdict=VERDICT_ORACLE_ONLY,
            family=None,
            solved={},
            type=report.type,
            frobenius=report.frobenius,
            fast_path_used=False,
            pf=report.pf,
        )

    result = pf_tilde(p, t)
    frob = frobenius(p, t)
    # nari_check raises MalformedPf unless max PF = F, whatever the type.
    if not nari_check(list(result.pf_numbers), frob):
        return Classification(
            verdict=VERDICT_NEITHER,
            family=None,
            solved={},
            type=result.type,
            frobenius=frob,
            fast_path_used=False,
            pf=result.pf_numbers,
            case_trace=result.case_trace,
        )
    if result.type == 1:
        verdict, candidates = VERDICT_SYMMETRIC, SYMMETRIC_FAMILIES
    else:
        verdict, candidates = VERDICT_ALMOST_SYMMETRIC, ALMOST_SYMMETRIC_FAMILIES

    raw = _raw_presentation(p)
    hits = match_families(raw, t if raw is p else build_table(raw), candidates)
    family, solved = hits[0] if hits else (None, {})
    return Classification(
        verdict=verdict,
        family=family,
        solved=solved,
        type=result.type,
        frobenius=frob,
        fast_path_used=False,
        pf=result.pf_numbers,
        case_trace=result.case_trace,
    )


# ---------------------------------------------------------------------------
# Quadratic fast path.
# ---------------------------------------------------------------------------


def _affine_root(fam: Family, v: dict, key: str, i: int, target: int) -> int | None:
    """Exact ``v[key]`` with ``fam.synthesize(**v)[i] == target``, or None.

    The synthesized component is affine in ``v[key]``, so its values at 0
    and 1 give the intercept and the slope.
    """
    at0 = fam.synthesize(**{**v, key: 0})[i]
    slope = fam.synthesize(**{**v, key: 1})[i] - at0
    if slope == 0 or (target - at0) % slope:
        return None
    return (target - at0) // slope


def _members(fam: Family, env: dict[str, int]) -> list[dict[str, int]]:
    """Solved parameters of every member of ``fam`` with this presentation
    (the caller has checked ``fam.requires`` on it)."""
    hits = []
    for pinned in fam.solve(**env):
        # a does not depend on r: any r will do while sigma is solved.
        v = {**env, "r": 0, **pinned}
        if "sigma" in fam.keys:
            v["sigma"] = _affine_root(fam, v, "sigma", 0, env["a"])
            if v["sigma"] is None:
                continue
        if "r" in fam.keys:
            v["r"] = _affine_root(fam, v, "r", 1, env["d"])
            if v["r"] is None:
                continue
        if _is_member(fam, v) and (fam.fast_guard is None or fam.fast_guard(**v)):
            hits.append({key: v[key] for key in fam.keys})
    return hits


def fast_path(p: AagParams) -> Classification | None:
    """Almost-symmetric classification by exact quadratic/linear solving.

    Returns the unique fully-consistent family hit as a Classification, or
    None when no family's equations admit a consistent integer solution
    (the caller then falls back to :func:`classify`).  Two distinct
    consistent hits raise ``AmbiguousFastPath``.
    """
    p = _raw_presentation(p)
    if p.k < 3:
        return None
    # ``requires`` reads only h, k and d, so the presentation settles it
    # once per call, before any solve.
    shape = {"h": p.h, "k": p.k, "d": p.d}
    env = _variables(p)
    hits = [
        (fam, solved)
        for fam in FAMILIES
        if fam.solve is not None and not any(violation(**shape) for violation in fam.requires)
        for solved in _members(fam, env)
    ]
    if not hits:
        return None
    if len(hits) > 1:
        described = "; ".join(f"{fam.id} with {solved}" for fam, solved in hits)
        raise AmbiguousFastPath(
            f"multiple families consistent for a={p.a}, d={p.d}, h={p.h}, "
            f"k={p.k}, c={p.c}: {described}"
        )
    fam, solved = hits[0]
    return Classification(
        verdict=VERDICT_ALMOST_SYMMETRIC,
        family=fam.id,
        solved=solved,
        type=family_type(fam.id, solved, p),
        frobenius=family_frobenius(fam.id, solved, p),
        fast_path_used=True,
    )


def classify_with_fast_path(p: AagParams, t: EuclidTable | None = None) -> Classification:
    """The full route on the caller's table ``t`` (built when None), with the
    fast path tried only where it can change the answer: on an
    AlmostSymmetric verdict, and before the oracle (k < 3 or no hypothesis)."""
    if t is None:
        t = build_table(p)
    full = classify(p, t) if p.k >= 3 and t.hypothesis_ok else None
    if full is not None and full.verdict != VERDICT_ALMOST_SYMMETRIC:
        return full
    try:
        hit = fast_path(p)
    except AmbiguousFastPath:
        hit = None
    return hit or full or classify(p, t)
