"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import math
import random
from itertools import product

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from aag.core import AagParams, Monomial, validate_params
from aag.errors import AagError, NonsenseInput


def monomial(nvars: int, **powers: int) -> Monomial:
    """Convenience constructor: ``monomial(5, x0=2, x4=1)`` -> x0^2*x4."""
    exps = [0] * nvars
    for name, e in powers.items():
        if not name.startswith("x"):
            raise NonsenseInput(f"bad variable name {name!r}")
        exps[int(name[1:])] = e
    return Monomial(tuple(exps))


@pytest.fixture(scope="session")
def ex1():
    """The running worked example: (a, d, h, k, c) = (155, 1, 4, 20, 177)."""
    return validate_params(155, 1, 4, 20, 177)


@pytest.fixture(scope="session")
def ex2_raw():
    """(163, -2, 1, 19, 170) kept in its original presentation."""
    return validate_params(163, -2, 1, 19, 170, normalize=False)


@pytest.fixture(scope="session")
def ex2_normalized():
    """(163, -2, 1, 19, 170) after the d<0, h=1 rewrite: (125, 2, ...)."""
    return validate_params(163, -2, 1, 19, 170)


@pytest.fixture(scope="session")
def hypothesis_violator():
    """A validated tuple whose pivot row fails the structural hypothesis
    (needs h >= 2, rho_mu > 0, r'_mu < h)."""
    from aag.euclid import build_table

    for a in range(10, 80):
        for d in (-3, -2, -1, 1, 2, 3):
            for h in (2, 3):
                for k in (3, 4):
                    for c in range(5, 120):
                        try:
                            p = validate_params(a, d, h, k, c)
                        except AagError:
                            continue
                        t = build_table(p)
                        if not t.hypothesis_ok:
                            return p, t
    raise AssertionError("no hypothesis-violating tuple in the search box")


@pytest.fixture(scope="session")
def staircase_battery():
    """20,000 seeded (params, table) pairs that satisfy the staircase
    hypothesis: k from 2 to 40, a log-uniform up to 10^12, |d| log-uniform
    below the bound that keeps the generators positive, c log-uniform in
    [k + 3, 40a + 10], half of them h = 1 with d < 0, each kept raw or
    rewritten at random."""
    from aag.euclid import build_table

    rng = random.Random(19)
    out = []
    while len(out) < 20_000:
        k = rng.randint(2, 40)
        a = int(10 ** rng.uniform(math.log10(k + 2), 12))
        if len(out) % 2:
            h, d = 1, -int(10 ** rng.uniform(0, math.log10(max(2, a / k))))
        else:
            h = rng.randint(1, 6)
            d = rng.choice((-1, 1)) * int(10 ** rng.uniform(0, math.log10(max(2, h * a / k))))
        c = int(10 ** rng.uniform(math.log10(k + 3), math.log10(40 * a + 10)))
        try:
            p = validate_params(a, d, h, k, c, normalize=rng.random() < 0.5)
        except AagError:
            continue
        t = build_table(p)
        if t.hypothesis_ok:
            out.append((p, t))
    return out


@pytest.fixture(scope="session")
def verify_grid():
    """(params, table) over the strided ``aag verify`` grid (a 2–400 step 37,
    d −9..9, c 2–600 step 53, h 1–3) with k from 1 to 6, in the raw
    presentation and, where the d < 0, h = 1 rewrite applies, the rewritten
    one too; only tables that satisfy the staircase hypothesis."""
    from aag.euclid import build_table

    out = []
    for a, d, c, k, h in product(
        range(2, 401, 37), range(-9, 10), range(2, 601, 53), range(1, 7), range(1, 4)
    ):
        for normalize in (False, True):
            try:
                p = validate_params(a, d, h, k, c, normalize=normalize)
            except AagError:
                continue
            if normalize and not p.normalized:
                continue  # the same tuple as the raw one
            t = build_table(p)
            if t.hypothesis_ok:
                out.append((p, t))
    return out


@st.composite
def valid_params(
    draw,
    a_range=(5, 120),
    d_range=(-7, 9),
    h_range=(1, 3),
    k_range=(2, 6),
    c_range=(3, 260),
    normalize=True,
) -> AagParams:
    """Draw a validated AagParams tuple, discarding invalid draws."""
    a = draw(st.integers(*a_range))
    d = draw(st.integers(*d_range))
    h = draw(st.integers(*h_range))
    k = draw(st.integers(*k_range))
    c = draw(st.integers(*c_range))
    assume(d != 0)
    try:
        return validate_params(a, d, h, k, c, normalize=normalize)
    except AagError:
        assume(False)
        raise AssertionError("unreachable")
