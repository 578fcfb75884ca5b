"""Parameter validation and the weighted-degree map shared by all modules.

The semigroups studied here are generated by an "almost arithmetic" part
a, ha+d, ha+2d, ..., ha+kd together with one extra generator c, subject to
gcd(a, d) = 1, all generators positive, and the list being a *minimal*
generating system (embedding dimension k+2).  ``validate_params`` is the one
gate every entry point goes through; everything downstream may assume its
invariants.

When d < 0 and h = 1 the arithmetic part a, a+d, ..., a+kd is the same set
read backwards from a+kd, so the tuple is rewritten to (a+kd, -d) with the
``normalized`` flag set; structural results can then assume d < 0 only
occurs with h >= 2.  Callers that need the untouched presentation (the
classifier matches row shapes of the original tuple) pass
``normalize=False``.

All arithmetic is plain Python integers: values widen without bounds, so
quadratic discriminants near (k*c*a)**2 are exact and nothing can wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle
from .errors import (
    GcdViolation,
    NonPositiveGenerator,
    NonsenseInput,
    NotMinimal,
)


@dataclass(frozen=True)
class AagParams:
    """Validated parameter tuple (a, d, h, k, c) plus derived data.

    ``generators`` lists g0 = a, gi = ha + i*d for i = 1..k, g_{k+1} = c in
    that order.  ``normalized`` records whether the d<0, h=1 rewrite was
    applied to the values stored here.
    """

    a: int
    d: int
    h: int
    k: int
    c: int
    generators: tuple[int, ...]
    normalized: bool = False

    def arithmetic_part(self) -> tuple[int, ...]:
        """The generators a, ha+d, ..., ha+kd without c."""
        return self.generators[:-1]


@dataclass(frozen=True)
class Monomial:
    """A monomial in x0, ..., x_{k+1}, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.exponents):
            raise NonsenseInput(f"negative exponent in {self.exponents}")

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exponents) != len(other.exponents):
            raise NonsenseInput("monomial arities differ")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"


def monomial(nvars: int, **powers: int) -> Monomial:
    """Convenience constructor: ``monomial(5, x0=2, x4=1)`` -> x0^2*x4."""
    exps = [0] * nvars
    for name, e in powers.items():
        if not name.startswith("x"):
            raise NonsenseInput(f"bad variable name {name!r}")
        exps[int(name[1:])] = e
    return Monomial(tuple(exps))


def _require_positive_int(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise NonsenseInput(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise NonsenseInput(f"{name} must be positive, got {value}")


def validate_params(
    a: int,
    d: int,
    h: int,
    k: int,
    c: int,
    *,
    normalize: bool = True,
    check_minimality: bool = True,
) -> AagParams:
    """Validate (a, d, h, k, c) and build the generator list.

    Checks, in order: basic shape (positive a, h, k, c and nonzero integer
    d); the d<0, h=1 rewrite (applied before further checks when
    ``normalize`` is on); positivity of every generator; gcd(a, d) = 1 and
    gcd of all generators = 1; and minimality of the generating system via
    the oracle (skippable with ``check_minimality=False`` for callers that
    have already established it).

    Raises NonsenseInput, NonPositiveGenerator, GcdViolation or NotMinimal.
    """
    for name, value in (("a", a), ("h", h), ("k", k), ("c", c)):
        _require_positive_int(name, value)
    if not isinstance(d, int) or isinstance(d, bool):
        raise NonsenseInput(f"d must be an integer, got {d!r}")
    if d == 0:
        raise NonsenseInput("d must be nonzero (d=0 collapses the arithmetic part)")

    normalized = False
    if normalize and d < 0 and h == 1:
        # Same generator set listed from the other end: a+kd, (a+kd)+|d|, ...
        a, d = a + k * d, -d
        normalized = True
        if a <= 0:
            raise NonPositiveGenerator(f"a+kd = {a} is not positive")

    if h * a + k * d <= 0:
        raise NonPositiveGenerator(f"ha+kd = {h * a + k * d} is not positive")
    if math.gcd(a, d) != 1:
        raise GcdViolation(f"gcd(a,d) = {math.gcd(a, d)}")

    gens = (a, *(h * a + i * d for i in range(1, k + 1)), c)
    if math.gcd(*gens) != 1:
        # Unreachable given gcd(a, d) = 1, but the invariant is cheap to state.
        raise GcdViolation(f"gcd of generators is {math.gcd(*gens)}")

    if check_minimality and not oracle.is_minimal_generating(list(gens)):
        raise NotMinimal(
            f"generators {gens} are not a minimal system (embedding dimension < k+2)"
        )
    return AagParams(a=a, d=d, h=h, k=k, c=c, generators=gens, normalized=normalized)


def phi(m: Monomial, p: AagParams) -> int:
    """Weighted degree: total weight of the monomial under the generators.

    phi(x0^e0 * ... * x_{k+1}^e_{k+1}) = sum e_i * g_i.  Additive in the
    monomial, which is what makes it a semigroup grading.
    """
    if len(m.exponents) != p.k + 2:
        raise NonsenseInput(
            f"monomial has {len(m.exponents)} variables, params need {p.k + 2}"
        )
    return sum(e * g for e, g in zip(m.exponents, p.generators))
