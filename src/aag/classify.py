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
the ordered registry :data:`FAMILIES`: its declared parameters, where they
sit on the two table rows around the pivot, its type and Frobenius
formulas, its stated side conditions, its (a, d, c) synthesis and, for
almost-symmetric families, the equation that pins the column count ``p``.
A tuple is a member exactly when the family's parameters pass its side
conditions and its synthesis gives back the tuple's (a, d, c): both routes
below match a family by that one test, and ``family_generate`` builds
members from the same conditions and synthesis.  The family id strings are
the stable output vocabulary of this package: downstream consumers match
on them, so they are data, not prose.

Two routes produce a classification:

* :func:`classify` -- the full route, which also decides when the oracle
  answers: build the table, compute the pseudo-Frobenius families, run the
  pairing check, then read each candidate family's parameters off the
  pivot rows and run its membership test.
* :func:`fast_path` -- the quadratic route: for each almost-symmetric
  family that admits the tuple's (h, k, d), settled once per shape, take
  ``p`` from its quadratic (or linear) equation in exact integer
  arithmetic, back-solve ``sigma`` and ``r`` from ``a`` and ``d``, and
  accept only when the family's membership test holds.  The two routes
  agree everywhere (tested).  It needs no table, but a miss solves every
  admissible family's equations: k - 1 quadratics for Thm5.3-(i), k - 3
  for Thm5.4-(i) and at most one for each other family.  So
  :func:`classify_with_fast_path` runs the full route first, and the fast
  path only on an AlmostSymmetric verdict.  The command line answers
  through ``classify`` only.

Both routes match families on the *raw* presentation: parameters that were
rewritten during validation (d < 0, h = 1) are converted back before
matching, since the family tables are stated for the original generator
tuple.  The verdict, type, PF set and Frobenius number depend only on the
generator set, so ``classify`` takes them from the caller's table in
either presentation.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    generators = (*reversed(p.arithmetic_part()), p.c)
    return AagParams(a=p.a + p.k * p.d, d=-p.d, h=p.h, k=p.k, c=p.c, generators=generators)


# ---------------------------------------------------------------------------
# The family registry.
# ---------------------------------------------------------------------------

#: The presentation the formulas and ``solve`` read, with a_i = h*a + i*d.
_Presentation = namedtuple("_Presentation", "a d h k c a1 a2 ak")


@dataclass(frozen=True, eq=False)
class Family:
    """One classification theorem.

    ``params`` declares the family's parameters once, in order: ``h``, ``k``
    (and ``d`` for Thm5.1), then ``keys``, the ones ``Classification.solved``
    reports.  ``synthesize``, ``conditions`` and ``fast_guard`` take their
    values positionally, ``read`` gives the ``keys`` values on the pivot row
    and the next, and the formulas (a type of 1 unless given) take a
    ``_Presentation`` and those.  The stated side conditions are
    ``requires`` (each on ``(h, k, d)``: which presentations the family
    covers) and ``conditions`` (on ``params``); each gives the first
    violation's message or None, and ``family_generate`` checks them in
    that order.  A tuple is a member exactly when its parameters pass both
    and ``synthesize`` gives back its ``(a, d, c)`` (:func:`_is_member`).
    ``a`` is affine in ``sigma`` and free of ``r``, and ``d`` is affine in
    both (tested): the fast path back-solves them for each candidate
    ``solve`` lists (``params`` values with ``p``, and ``l``, pinned and
    ``sigma`` and ``r`` at 0) and accepts what ``fast_guard`` passes too.
    """

    id: str
    symmetric: bool
    params: tuple[str, ...]
    read: Callable[[EuclidRow, EuclidRow], tuple[int, ...]]
    f_formula: Callable[..., int]
    requires: tuple[Callable[[int, int, int], str | None], ...]
    synthesize: Callable[..., tuple[int, int, int]]
    t_formula: Callable[..., int] = lambda g, *_: 1
    conditions: Callable[..., str | None] = lambda *_: None
    h_default: int | None = 1
    solve: Callable[[_Presentation], list[tuple[int, ...]]] | None = None
    fast_guard: Callable[..., bool] = lambda *_: True
    keys: tuple[str, ...] = field(init=False)
    sigma_at: int | None = field(init=False)
    r_at: int | None = field(init=False)

    def __post_init__(self):
        keys = tuple(name for name in self.params if name not in ("h", "k", "d"))
        at = {name: self.params.index(name) for name in ("sigma", "r") if name in keys}
        for name, value in ("keys", keys), ("sigma_at", at.get("sigma")), ("r_at", at.get("r")):
            object.__setattr__(self, name, value)


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


_K3 = lambda h, k, d: None if k >= 3 else f"requires k >= 3, got {k}"
_H1 = lambda h, k, d: None if h == 1 else "requires h = 1"
_H_POSITIVE = lambda h, k, d: None if h >= 1 else f"requires h >= 1, got {h}"
_SIGMA1 = lambda sigma: None if sigma >= 1 else f"sigma must be >= 1, got {sigma}"
_SIGMA2 = lambda sigma: None if sigma >= 2 else f"sigma must be >= 2, got {sigma}"
_P2 = lambda p: None if p >= 2 else f"p must be >= 2, got {p}"
_P_ORDERED = lambda p, p_prime: None if p_prime > p > 0 else "need p_prime > p > 0"
_R_SHIFTED = lambda h, sigma, r: None if r + h * (sigma + 1) > 0 else "need r + h*(sigma+1) > 0"
_R_BELOW_H = lambda h, r: None if r < -h else f"need r < -h, got {r}"

FAMILIES: tuple[Family, ...] = (
    Family(
        id="Thm4.1-case1",
        symmetric=True,
        params=("h", "k", "sigma", "p", "p_prime", "r", "r_hat"),
        read=lambda piv, nxt: (piv.sigma, piv.p, nxt.p, piv.r, nxt.r),
        f_formula=lambda g, sigma, p, p_prime, *_: g.a1 + sigma * g.ak + g.c * (p_prime - 1) - g.a,
        requires=(_K3,),
        conditions=lambda h, k, sigma, p, p_prime, r, r_hat: (
            _SIGMA1(sigma)
            or (None if 1 <= p < p_prime else f"need 1 <= p < p_prime, got {p}, {p_prime}")
            or (None if r_hat < -1 else f"r_hat must be < -1, got {r_hat}")
            or (None if math.gcd(p_prime, r_hat) == 1 else "gcd(p_prime, r_hat) must be 1")
            or (None if r + h * sigma >= 0 else f"need r + h*sigma >= 0, got {r + h * sigma}")
        ),
        synthesize=lambda h, k, sigma, p, p_prime, r, r_hat: (
            (sigma * k + 2) * p_prime,
            p_prime * r - p * r_hat,
            -(sigma * k + 2) * r_hat,
        ),
    ),
    Family(
        id="Thm4.1-case2",
        symmetric=True,
        params=("h", "k", "sigma", "sigma_prime", "p", "p_prime", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.sigma, piv.p, nxt.p, piv.r),
        f_formula=lambda g, sigma, _, p, p_prime, r: (
            g.a1 + sigma * g.ak + g.c * (p_prime - p - 1) - g.a
        ),
        requires=(_K3,),
        conditions=lambda h, k, sigma, sigma_prime, p, p_prime, r: (
            (None if sigma >= sigma_prime >= 2 else "need sigma >= sigma_prime >= 2")
            or _P_ORDERED(p, p_prime)
            or _R_SHIFTED(h, sigma, r)
        ),
        synthesize=lambda h, k, sigma, sigma_prime, p, p_prime, r: (
            (sigma * k + 2) * p_prime - sigma_prime * k * p,
            p_prime * r + p * h * sigma_prime,
            sigma_prime * k * r + (sigma * k + 2) * sigma_prime * h,
        ),
    ),
    Family(
        id="Thm4.1-case3",
        symmetric=True,
        params=("h", "k", "sigma", "p", "p_prime", "r"),
        read=lambda piv, nxt: (piv.sigma, piv.p, nxt.p, piv.r),
        f_formula=lambda g, sigma, p, p_prime, r: (
            g.a1 + sigma * g.ak + g.c * (p_prime - p - 1) - g.a
        ),
        requires=(_K3,),
        conditions=lambda h, k, sigma, p, p_prime, r: (
            _SIGMA1(sigma) or _P_ORDERED(p, p_prime) or _R_SHIFTED(h, sigma, r)
        ),
        synthesize=lambda h, k, sigma, p, p_prime, r: (
            (sigma * k + 2) * p_prime - (sigma * k + 1) * p,
            p_prime * r + p * h * (sigma + 1),
            (sigma * k + 1) * r + (sigma * k + 2) * (sigma + 1) * h,
        ),
    ),
    Family(
        id="Thm4.1-case4",
        symmetric=True,
        params=("h", "k", "sigma", "p", "p_prime", "r_hat"),
        read=lambda piv, nxt: (piv.sigma, piv.p, nxt.p, nxt.r),
        f_formula=lambda g, sigma, p, p_prime, _: (
            g.a1 + (sigma - 1) * g.ak + g.c * (p_prime - 1) - g.a
        ),
        requires=(_K3,),
        conditions=lambda h, k, sigma, p, p_prime, r_hat: (
            _SIGMA1(sigma)
            or _P_ORDERED(p, p_prime)
            or (None if r_hat < -h else f"need r_hat < -h, got {r_hat}")
        ),
        synthesize=lambda h, k, sigma, p, p_prime, r_hat: (
            (sigma * k + 1) * p_prime - (k - 1) * p,
            -p_prime * h * sigma - p * r_hat,
            -(k - 1) * h * sigma - (sigma * k + 1) * r_hat,
        ),
    ),
    Family(
        # F = k*d; (a, d, c) pins the member, there is nothing to solve.
        id="Thm5.1",
        symmetric=False,
        params=("h", "k", "d"),
        read=lambda piv, nxt: (),
        t_formula=lambda g: g.k + 1,
        f_formula=lambda g: g.k * g.d,
        requires=(
            _H1,
            lambda h, k, d: None if k >= 3 and k % 2 == 1 else f"k must be odd and >= 3, got {k}",
            lambda h, k, d: (
                None if d >= 2 and d % 2 == 0 else f"d must be a positive even number, got {d}"
            ),
        ),
        synthesize=lambda h, k, d: (k + 2, d, k + 2 + (d // 2) * k),
        solve=lambda g: [(g.h, g.k, g.d)],
    ),
    Family(
        # F = 3a1 - 2a2 - ak; c and d together pin p.
        id="Thm5.2",
        symmetric=False,
        params=("h", "k", "sigma", "p"),
        read=lambda piv, nxt: (piv.sigma, nxt.p),
        t_formula=lambda g, *_: g.k + 1,
        f_formula=lambda g, *_: 3 * g.a1 - 2 * g.a2 - g.ak,
        requires=(lambda h, k, d: None if h >= 2 else f"requires h >= 2, got {h}", _K3),
        conditions=lambda h, k, sigma, p: _SIGMA1(sigma) or _P2(p),
        synthesize=lambda h, k, sigma, p: (
            (sigma * k + 1) * p - sigma * k,
            1 - h * sigma * (p - 1),
            h * sigma + sigma * k + 1,
        ),
        h_default=None,
        solve=lambda g: [
            (g.h, g.k, 0, 1 + q) for q in _exact((1 - g.d) * (g.h + g.k), g.h * (g.c - 1))
        ],
    ),
    Family(
        id="Thm5.3-(i)",
        symmetric=False,
        params=("h", "k", "l", "sigma", "p", "r"),
        read=lambda piv, nxt: (nxt.rho, piv.sigma, nxt.p, piv.r),
        t_formula=lambda g, l, *_: g.k - l + 1,
        f_formula=lambda g, l, sigma, p, r: g.a1 + sigma * g.ak + (p - 2) * g.c - g.a,
        requires=(_H1, _K3),
        conditions=lambda h, k, l, sigma, p, r: (
            (None if 1 <= l <= k - 1 else f"need 1 <= l <= k-1, got l={l}")
            or (None if sigma >= 2 and p >= 2 else "need sigma >= 2 and p >= 2")
            or (None if r > -(sigma + 1) else f"need r > -(sigma+1), got {r}")
        ),
        synthesize=lambda h, k, l, sigma, p, r: (
            (sigma * k + 2) * p - ((sigma - 1) * k + l),
            p * r + sigma,
            ((sigma - 1) * k + l) * r + (sigma * k + 2) * sigma,
        ),
        solve=lambda g: [
            (g.h, g.k, l, 0, p, 0)
            for l in range(1, g.k)
            for p in _integer_roots(
                g.k * g.c,
                g.k * (g.c + g.a + l * g.d - g.ak) - 2 * g.ak,
                g.ak * (g.a + l) - g.k * (g.a + l * g.d),
            )
        ],
    ),
    Family(
        # The two-column family with t = 2.
        id="Thm5.3-(ii)",
        symmetric=False,
        params=("h", "k", "sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, piv.r),
        t_formula=lambda g, *_: 2,
        f_formula=lambda g, sigma, p, r: g.a1 + sigma * g.ak + (p - 2) * g.c - g.a,
        requires=(_H_POSITIVE, _K3),
        conditions=lambda h, k, sigma, p, r: (
            (None if sigma >= 1 and p >= 2 else "need sigma >= 1 and p >= 2")
            or (None if r > -h * (sigma + 1) - 1 else f"need r > -h*(sigma+1)-1, got {r}")
        ),
        synthesize=lambda h, k, sigma, p, r: (
            (sigma * k + 2) * p - (sigma * k + 1),
            p * r + h * (sigma + 1) + 1,
            (sigma * k + 1) * r + (sigma * k + 2) * (h * (sigma + 1) + 1),
        ),
        h_default=None,
        solve=lambda g: [
            (g.h, g.k, 0, p, 0)
            for p in _integer_roots(
                g.k * g.c,
                g.k * (g.c + g.a + g.a1) - 2 * g.ak,
                g.ak * (g.a + 1) - g.k * (g.a + g.a1),
            )
        ],
        # Stricter than the stated r > -h(sigma+1)-1: the fast path has no
        # table, and members with r < -h*sigma violate the pivot hypothesis.
        fast_guard=lambda h, k, sigma, p, r: r >= -h * sigma,
    ),
    Family(
        id="Thm5.4-(i)",
        symmetric=False,
        params=("h", "k", "l", "sigma", "p", "r"),
        read=lambda piv, nxt: (piv.rho - 2, piv.sigma, nxt.p, nxt.r),
        t_formula=lambda g, l, *_: l + 1,
        f_formula=lambda g, l, sigma, p, r: g.a1 + sigma * g.ak + (p - 1) * g.c - g.a,
        requires=(_H1, lambda h, k, d: None if k >= 4 else f"requires k >= 4, got {k}"),
        conditions=lambda h, k, l, sigma, p, r: (
            _SIGMA1(sigma)
            or (None if 1 <= l <= k - 3 else f"need 1 <= l <= k-3, got l={l}")
            or _P2(p)
            or (None if r <= -2 else f"need r <= -2, got {r}")
        ),
        synthesize=lambda h, k, l, sigma, p, r: (
            (sigma * k + l + 2) * p - l * (p - 1),
            -p * sigma - (p - 1) * r,
            -l * sigma - (sigma * k + l + 2) * r,
        ),
        solve=lambda g: [
            (g.h, g.k, l, 0, p, 0)
            for l in range(1, g.k - 2)
            for p in _integer_roots(
                g.k * g.c, g.k * (g.c + (l + 2) * g.d) - 2 * g.ak, g.ak * (g.a - l)
            )
        ],
    ),
    Family(
        id="Thm5.4-(ii)",
        symmetric=False,
        params=("h", "k", "sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, nxt.r),
        t_formula=lambda g, *_: g.k - 1,
        f_formula=lambda g, sigma, p, r: g.a1 + (sigma - 1) * g.ak + (p - 1) * g.c - g.a,
        requires=(_H_POSITIVE, _K3),
        conditions=lambda h, k, sigma, p, r: _SIGMA2(sigma) or _P2(p) or _R_BELOW_H(h, r),
        synthesize=lambda h, k, sigma, p, r: (
            sigma * k * p - (k - 2) * (p - 1),
            (1 - h * sigma) * p - (p - 1) * r,
            (k - 2) * (1 - h * sigma) - sigma * k * r,
        ),
        h_default=None,
        solve=lambda g: [
            (g.h, g.k, 0, p, 0)
            for p in _integer_roots(
                g.k * g.c, g.k * (g.c - g.a + g.ak) - 2 * g.ak, g.ak * (g.a - g.k + 2)
            )
        ],
    ),
    Family(
        id="Thm5.4-(iii)",
        symmetric=False,
        params=("h", "k", "sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, nxt.r),
        t_formula=lambda g, *_: g.k,
        f_formula=lambda g, sigma, p, r: g.a1 + (sigma - 1) * g.ak + (p - 1) * g.c - g.a,
        requires=(_H_POSITIVE, _K3),
        conditions=lambda h, k, sigma, p, r: _SIGMA1(sigma) or _P2(p) or _R_BELOW_H(h, r),
        synthesize=lambda h, k, sigma, p, r: (
            (sigma * k + 1) * p - (k - 1) * (p - 1),
            (1 - h * sigma) * p - (p - 1) * r,
            (k - 1) * (1 - h * sigma) - (sigma * k + 1) * r,
        ),
        h_default=None,
        solve=lambda g: [
            (g.h, g.k, 0, p, 0)
            for p in _integer_roots(
                g.k * g.c, g.k * (g.c + g.d - g.a + g.ak) - 2 * g.ak, g.ak * (g.a - g.k + 1)
            )
        ],
    ),
    Family(
        # a alone pins p.
        id="Thm5.4-(iv)",
        symmetric=False,
        params=("h", "k", "p", "r"),
        read=lambda piv, nxt: (piv.p, nxt.r),
        t_formula=lambda g, *_: g.k + 1,
        f_formula=lambda g, p, r: p * g.c - g.a,
        requires=(_H1, _K3),
        conditions=lambda h, k, p, r: (
            (None if p >= 1 else f"p must be >= 1, got {p}")
            or (None if r < -1 else f"need r < -1, got {r}")
        ),
        synthesize=lambda h, k, p, r: (k + p + 1, -(p + 1) - p * r, -k - (k + 1) * r),
        solve=lambda g: [(g.h, g.k, g.a - g.k - 1, 0)],
    ),
    Family(
        id="Thm5.4-(v)",
        symmetric=False,
        params=("h", "k", "sigma", "p", "r"),
        read=lambda piv, nxt: (piv.sigma, nxt.p, nxt.r),
        t_formula=lambda g, *_: 2,
        f_formula=lambda g, sigma, p, r: g.a1 + (sigma - 2) * g.ak + (p - 1) * g.c - g.a,
        requires=(_H1, _K3),
        conditions=lambda h, k, sigma, p, r: (
            _SIGMA2(sigma) or _P2(p) or (None if r <= -3 else f"need r <= -3, got {r}")
        ),
        synthesize=lambda h, k, sigma, p, r: (
            (sigma * k + 1) * p - (2 * k - 1) * (p - 1),
            -p * sigma - (p - 1) * r,
            -sigma * (2 * k - 1) - (sigma * k + 1) * r,
        ),
        solve=lambda g: [
            (g.h, g.k, 0, p, 0)
            for p in _integer_roots(
                g.k * g.c, g.k * (g.c + g.d + 2 * g.ak) - 2 * g.ak, g.ak * (g.a - 2 * g.k + 1)
            )
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


def _variables(p: AagParams) -> _Presentation:
    """The presentation variables every family formula may read."""
    a, d, h, k = p.a, p.d, p.h, p.k
    return _Presentation(a, d, h, k, p.c, h * a + d, h * a + 2 * d, h * a + k * d)


def _is_member(fam: Family, v: Sequence[int], shape: tuple[int, int, int], target: tuple) -> bool:
    """Whether the values ``v`` of ``fam.params`` name a member with shape
    (h, k, d) and ``target`` (a, d, c): the synthesis gives back ``target``,
    which settles most candidates, and the stated side conditions hold."""
    return (
        fam.synthesize(*v) == target
        and fam.conditions(*v) is None
        and not any(violation(*shape) for violation in fam.requires)
    )


def match_families(
    p: AagParams, t: EuclidTable, candidates: tuple[str, ...]
) -> list[tuple[str, dict[str, int]]]:
    """The families among ``candidates`` that ``p`` is a member of, with the
    parameters read off its pivot rows, in canonical order."""
    shape, target = (p.h, p.k, p.d), (p.a, p.d, p.c)
    hits = []
    for family in candidates:
        fam = _family(family)
        values = fam.read(t.pivot, t.after_pivot)
        if _is_member(fam, shape[: len(fam.params) - len(values)] + values, shape, target):
            hits.append((family, dict(zip(fam.keys, values))))
    return hits


def family_type(family: str, solved: dict[str, int], p: AagParams) -> int:
    """The family's claimed type, from its closed-form t-formula."""
    fam = _family(family)
    return fam.t_formula(_variables(p), *(solved[name] for name in fam.keys))


def family_frobenius(family: str, solved: dict[str, int], p: AagParams) -> int:
    """The family's claimed Frobenius number, from its closed-form F-formula.

    Each formula is the weight of the family's maximal pseudo-Frobenius
    monomial minus ``a`` (with the two special literal forms ``F = k d`` and
    ``F = 3 a_1 - 2 a_2 - a_k`` kept as stated for their families).
    """
    fam = _family(family)
    return fam.f_formula(_variables(p), *(solved[name] for name in fam.keys))


def family_generate(family: str, params: dict[str, int]) -> AagParams:
    """Construct a validated parameter tuple from a family's formulas.

    ``params`` holds exactly the family's ``Family.params`` (``h`` is 1 by
    default where the family pins it).  A missing or unknown key and a
    violated stated side condition raise ``FamilyConstraintViolated``.  A
    synthesized (a, d, c) can still fail validation (gcd, minimality,
    d = 0) -- those errors propagate so callers can report them.

    The family conclusions hold only under the package's standing
    hypothesis on the pivot row, so parameters whose synthesized table
    violates it are rejected as constraint violations too (the stated
    letter conditions do not always force it when h >= 2, and the claims
    genuinely fail on some tuples outside it).
    """
    fam = _family(family)
    given = dict(params) if fam.h_default is None else {"h": fam.h_default, **params}
    missing, unknown = set(fam.params) - set(given), set(given) - set(fam.params)
    for problem, names in (("missing", missing), ("unknown", unknown)):
        if names:
            raise FamilyConstraintViolated(f"{family}: {problem} {', '.join(sorted(names))}")
    v = tuple(given[name] for name in fam.params)
    h, k = given["h"], given["k"]
    # ``requires`` reads the member's d, which only Thm5.1 is given.
    a, d, c = fam.synthesize(*v)
    message = next(filter(None, (check(h, k, d) for check in fam.requires)), None)
    if (message := message or fam.conditions(*v)) is not None:
        raise FamilyConstraintViolated(f"{family}: {message}")
    out = validate_params(a, d, h, k, c, normalize=False)
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
            type=report.type,
            frobenius=report.frobenius,
            pf=report.pf,
        )

    result = pf_tilde(p, t)
    frob = frobenius(p, t)
    # nari_check raises MalformedPf unless max PF = F, whatever the type.
    if not nari_check(list(result.pf_numbers), frob):
        verdict, candidates = VERDICT_NEITHER, ()
    elif result.type == 1:
        verdict, candidates = VERDICT_SYMMETRIC, SYMMETRIC_FAMILIES
    else:
        verdict, candidates = VERDICT_ALMOST_SYMMETRIC, ALMOST_SYMMETRIC_FAMILIES

    hits = []
    if candidates:
        raw = _raw_presentation(p)
        hits = match_families(raw, t if raw is p else build_table(raw), candidates)
    family, solved = hits[0] if hits else (None, {})
    return Classification(
        verdict=verdict,
        family=family,
        solved=solved,
        type=result.type,
        frobenius=frob,
        pf=result.pf_numbers,
        case_trace=result.case_trace,
    )


# ---------------------------------------------------------------------------
# Quadratic fast path.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _admissible(h: int, k: int, d: int) -> tuple[Family, ...]:
    """The almost-symmetric families whose ``requires`` all hold at the
    shape (h, k, d), in registry order; ``requires`` reads nothing else."""
    admitted = (fam for fam in FAMILIES if not any(check(h, k, d) for check in fam.requires))
    return tuple(fam for fam in admitted if fam.solve is not None)


@functools.lru_cache(maxsize=1024)
def _slopes(fam: Family, v: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """``(a0, d0, a_sigma, d_sigma, d_r)``: a = a0 + a_sigma*sigma and
    d = d0 + d_sigma*sigma + d_r*r around the ``solve`` candidate ``v``
    (sigma and r at 0), from its synthesis and one unit step along each."""
    a0, d0, _ = fam.synthesize(*v)
    a_sigma = d_sigma = d_r = 0
    if fam.sigma_at is not None:
        a1, d1, _ = fam.synthesize(*v[: fam.sigma_at], 1, *v[fam.sigma_at + 1 :])
        a_sigma, d_sigma = a1 - a0, d1 - d0
    if fam.r_at is not None:
        d_r = fam.synthesize(*v[: fam.r_at], 1, *v[fam.r_at + 1 :])[1] - d0
    return a0, d0, a_sigma, d_sigma, d_r


def _back_solve(fam: Family, v: tuple[int, ...], a: int, d: int) -> list[int] | None:
    """The ``solve`` candidate ``v`` with sigma and r set so that it
    synthesizes ``a`` and ``d``, or None when no integers do."""
    a0, d0, a_sigma, d_sigma, d_r = _slopes(fam, v)
    v = list(v)
    if fam.sigma_at is not None:
        if a_sigma == 0 or (a - a0) % a_sigma:
            return None
        v[fam.sigma_at] = sigma = (a - a0) // a_sigma
        d0 += sigma * d_sigma
    if fam.r_at is not None:
        if d_r == 0 or (d - d0) % d_r:
            return None
        v[fam.r_at] = (d - d0) // d_r
    return v


def fast_path(p: AagParams) -> Classification | None:
    """Almost-symmetric classification by exact quadratic/linear solving.

    Returns the unique fully-consistent family hit as a Classification, or
    None when no family's equations admit a consistent integer solution,
    and always for k < 3.  Two distinct consistent hits raise
    ``AmbiguousFastPath``.  :func:`classify_with_fast_path` calls it only
    on an AlmostSymmetric verdict of :func:`classify`.
    """
    p = _raw_presentation(p)
    if p.k < 3:
        return None
    g = _variables(p)
    shape, target = (p.h, p.k, p.d), (p.a, p.d, p.c)
    hits = []
    for fam in _admissible(p.h, p.k, p.d):
        for v in fam.solve(g):
            v = _back_solve(fam, v, p.a, p.d)
            if v is not None and _is_member(fam, v, shape, target) and fam.fast_guard(*v):
                hits.append((fam, v[len(v) - len(fam.keys) :]))
    if not hits:
        return None
    if len(hits) > 1:
        described = "; ".join(f"{f.id} with {dict(zip(f.keys, vs))}" for f, vs in hits)
        raise AmbiguousFastPath(
            f"multiple families consistent for a={p.a}, d={p.d}, h={p.h}, "
            f"k={p.k}, c={p.c}: {described}"
        )
    fam, values = hits[0]
    return Classification(
        verdict=VERDICT_ALMOST_SYMMETRIC,
        family=fam.id,
        solved=dict(zip(fam.keys, values)),
        type=fam.t_formula(g, *values),
        frobenius=fam.f_formula(g, *values),
        fast_path_used=True,
    )


def classify_with_fast_path(p: AagParams, t: EuclidTable | None = None) -> Classification:
    """:func:`classify` on the caller's table ``t`` (built when None), with
    the fast path tried only where it can change the answer: on an
    AlmostSymmetric verdict.  A miss or an ambiguity keeps that answer."""
    full = classify(p, t)
    if full.verdict != VERDICT_ALMOST_SYMMETRIC:
        return full
    try:
        return fast_path(p) or full
    except AmbiguousFastPath:
        return full
