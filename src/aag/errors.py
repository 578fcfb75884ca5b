"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
anything else is a plain ValueError/AssertionError bug.  All classes carry a
human-readable message and, where useful, the offending values as attributes.
"""

from __future__ import annotations


class AagError(Exception):
    """Base class for all package-specific errors."""


class NonsenseInput(AagError):
    """Input is malformed at a level below any mathematical check.

    Examples: empty generator list, non-integer where an integer is
    required, a modulus request beyond the configured oracle cap.
    """


class NonPositiveGenerator(AagError):
    """A generator (or a parameter that must yield one) is <= 0."""


class GcdViolation(AagError):
    """gcd(a, d) != 1, so the five parameters do not describe a semigroup
    of the intended embedding dimension.  Inputs are rejected, never
    silently reduced."""


class NotCoprime(AagError):
    """Oracle asked about a generator set with gcd > 1 (not a numerical
    semigroup)."""


class NotMinimal(AagError):
    """The parameter tuple produces a redundant generator, so the stated
    embedding dimension k+2 is wrong."""


class HypothesisViolated(AagError):
    """The structural hypothesis (pivot row has r' >= h, or its s-value is
    divisible by k) fails, and the requested computation is only proved
    under that hypothesis."""


class NoPivot(AagError):
    """No table row satisfies r' > 0 >= next r'.  Cannot happen for valid
    inputs; raised instead of returning garbage if it ever does."""


class InternalDispatchGap(AagError):
    """The pseudo-Frobenius case dispatch reached a parameter combination
    that the case analysis claims is impossible.  Always a bug or a new
    mathematical situation; never swallowed."""


class DuplicatePfValue(AagError):
    """Two distinct maximal monomials evaluated to the same pseudo-Frobenius
    number, which would make the reported type wrong."""


class MalformedPf(AagError):
    """The computed pseudo-Frobenius data is internally inconsistent
    (e.g. empty where it must not be, or Frobenius not the maximum)."""


class FamilyConstraintViolated(AagError):
    """Family-synthesis parameters violate the family's stated ranges."""


class AmbiguousFastPath(AagError):
    """More than one closed-form family matched the fast-path probe with
    consistent parameters; the caller should fall back to the full route."""
