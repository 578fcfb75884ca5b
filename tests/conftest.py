"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

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
