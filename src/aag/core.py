"""Parameter validation and the weighted-degree map shared by all modules.

The semigroups studied here are generated by an "almost arithmetic" part
a, ha+d, ha+2d, ..., ha+kd together with one extra generator c, subject to
gcd(a, d) = 1, all generators positive, and the list being a *minimal*
generating system (embedding dimension k+2).  ``validate_params`` is the one
gate every entry point goes through; everything downstream may assume its
invariants.  Minimality is decided in closed form by ``is_minimal``: the
generator differences form at most six progressions of step d or -d, each
settled with at most two Apery lookups per translate by a multiple of c,
or with one test per term when it has more than max(64, 3k) translates, so
a call costs O(k) steps whatever a is; the brute-force oracle referees it
in the tests and in ``aag verify``.  The Apery function of the arithmetic
part, with d^-1 mod a, depends on (a, d, h, k) alone, so the cells of a c
column share it through a 32-entry cache of small closures.

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

import functools
import math
import operator
import os
from dataclasses import dataclass

from .errors import (
    GcdViolation,
    NonPositiveGenerator,
    NonsenseInput,
    NotMinimal,
)

DEFAULT_MAX_MODULUS = 1_000_000


def max_modulus() -> int:
    """Size cap: AAG_MAX_A environment variable, a positive integer, default 10**6.

    It caps the oracle modulus, the rows of a division table
    (``euclid.EuclidTable.rows``; the table's pivot data are not capped),
    the ``aag analyze --apery`` dump and the generator count k + 2
    (``validate_params``): the computations whose size grows with a or k.
    """
    raw = os.environ.get("AAG_MAX_A")
    if raw is None:
        return DEFAULT_MAX_MODULUS
    try:
        value = int(raw)
    except ValueError:
        raise NonsenseInput(f"AAG_MAX_A must be an integer, got {raw!r}") from None
    if value < 1:
        raise NonsenseInput(f"AAG_MAX_A must be a positive integer, got {value}")
    return value


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial in x0, ..., x_{k+1}, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.exponents and min(self.exponents) < 0:
            raise NonsenseInput(f"negative exponent in {self.exponents}")

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"


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
    ``normalize`` is on); positivity of every generator; gcd(a, d) = 1,
    which makes all generators coprime; and minimality of the system by
    ``is_minimal`` (skippable with ``check_minimality=False`` for callers
    that check it later or not at all).  A system of k + 2 > m generators,
    m the smallest, is refused before the generators are built, and so,
    whatever ``check_minimality`` says, is k + 2 above the size cap
    ``max_modulus()`` (``AAG_MAX_A``): both checks are O(1).  The
    rest costs O(k) steps, with ``is_minimal``'s bound, whatever a is.

    Raises NonsenseInput, NonPositiveGenerator, GcdViolation or NotMinimal.
    """
    if not (
        type(a) is type(d) is type(h) is type(k) is type(c) is int
        and a > 0 and h > 0 and k > 0 and c > 0 and d
    ):
        # Only a failing check, or an int subclass, pays for the named checks.
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

    ha, ak = h * a, h * a + k * d
    if ak <= 0:
        raise NonPositiveGenerator(f"ha+kd = {ak} is not positive")
    if math.gcd(a, d) != 1:
        raise GcdViolation(f"gcd(a,d) = {math.gcd(a, d)}")
    smallest = min(a, ha + d, ak, c)
    if check_minimality and k + 2 > smallest:
        # Checked before the k + 2 generators are built, so a huge k costs O(1).
        raise NotMinimal(
            f"k+2 = {k + 2} generators exceed the smallest generator {smallest}; "
            "a minimal system has at most that many"
        )
    cap = max_modulus()
    if k + 2 > cap:
        # A minimal system with more generators has its smallest one above
        # the cap too; refused here in O(1).
        raise NonsenseInput(
            f"k+2 = {k + 2} generators exceed the cap {cap} (set AAG_MAX_A to raise it)"
        )

    # gcd(a, d) = 1 makes the generators coprime: gcd(a, ha + d) = gcd(a, d).
    gens = (a, *range(ha + d, ak + d, d), c)
    p = AagParams(a, d, h, k, c, gens, normalized)  # positional: keywords cost more
    if check_minimality and not is_minimal(p):
        raise NotMinimal(
            f"generators {gens} are not a minimal system (embedding dimension < k+2)"
        )
    return p


@functools.lru_cache(maxsize=32)
def _arithmetic_apery(a: int, d: int, h: int, k: int):
    """Apery function of T = <a, ha+d, ..., ha+kd> with respect to a.

    Returns ``w`` with ``w(r)`` the least element of T congruent to r mod
    a, so x is in T exactly when x >= w(x mod a).  Needs gcd(a, d) = 1 and,
    when d < 0, h >= 2 (the d < 0, h = 1 set is rewritten by the caller).

    A sum of t generators ha+i*d is t*ha + J*d with t <= J <= t*k, and its
    residue is J*d mod a; for a given J the least t is ceil(J/k).  So w(r)
    is the least ceil(J/k)*ha + J*d over J = j + m*a, m >= 0, where
    j = r * d^-1 mod a.  For d > 0 that cost grows with J and m = 0 wins.

    For d < 0 the cost ceil(J/k)*ha - J*|d| is not monotone, and the
    bound is m < k.  If the least sum of a class had t > a summands, then
    t - a summands with index sum J - a*k (which lies in [t - a, (t - a)*k]
    because J > (t - 1)*k) would give a sum in the same class that is
    smaller by a*(ha + kd) > 0.  So t <= a, J <= a*k and m < k (j = 0 is
    the empty sum).  When h * (a // k) >= |d|, m = 0 wins outright:
    ceil((J + m*a)/k) - ceil(J/k) >= m * (a // k), so the cost rises by at
    least m * a * (h * (a // k) - |d|) >= 0.  That covers every a >= k*|d|.

    Kept per (a, d, h, k) in a 32-entry cache, d^-1 with it: a grid walk
    asks for the same few closures across a c column's cells.
    """
    d_inv = pow(d, -1, a)
    ha = h * a
    if d > 0 or h * (a // k) >= -d:

        def w(r: int) -> int:
            j = r * d_inv % a
            return -(-j // k) * ha + j * d

        return w

    def w_window(r: int) -> int:
        j = r * d_inv % a
        return min(-(-J // k) * ha + J * d for J in range(j, j + k * a, a))

    return w_window


#: A membership search of up to this many steps per translate runs step by
#: step; a longer one runs ``_floor_path_min`` (see ``_triple_member``).
#: ``is_minimal`` settles a progression of differences whole when it has at
#: most max(this, 3k) translates by multiples of c; past about 2k-3k of them
#: its k terms' triple tests cost less (measured at k = 100 ... 4,000).
_SHORT_SEARCH = 64


def _floor_path_min(p: int, q: int, r: int, n: int, A: int, D: int) -> int | None:
    """Least A*i - D*((p*i + r) // q) over 1 <= i <= n (None when n = 0).

    Needs 0 <= r < q.  The universal Euclidean algorithm: the lattice path
    of y = (p*i + r) // q, read as a word of "up" and "right" steps, is a
    product of O(log q) powers of two letters, and a path segment is
    summarized by (right steps, up steps, least A*x - D*y at a right step
    relative to its start), which multiplies associatively.
    """
    identity = (0, 0, None)

    def mul(s, t):
        if t[2] is None:
            least = s[2]
        else:
            shifted = A * s[0] - D * s[1] + t[2]
            least = shifted if s[2] is None else min(s[2], shifted)
        return (s[0] + t[0], s[1] + t[1], least)

    def power(s, e):
        out = identity
        while e:
            if e & 1:
                out = mul(out, s)
            s = mul(s, s)
            e >>= 1
        return out

    def word(p, q, r, n, up, right):
        if n == 0:
            return identity
        if p >= q:
            return word(p % q, q, r, n, up, mul(power(up, p // q), right))
        m = (p * n + r) // q
        if m == 0:
            return power(right, n)
        head = mul(power(right, (q - r - 1) // p), up)
        middle = word(q, p, (q - r - 1) % p, m - 1, right, up)
        return mul(mul(head, middle), power(right, n - (q * m - r - 1) // p))

    return word(p, q, r, n, (0, 1, None), (1, 0, A))[2]


def _triple_member(top: int, bottom: int, c: int):
    """Membership test for <top, bottom, c>: is y - q*top in <bottom, c>?

    With g = gcd(bottom, c), bottom = g*b and c = g*m, the remainder must
    be a multiple of g, which fixes q modulo period = g / gcd(top, g):
    q = q0 + n*period, and z_n = (y - q*top) / g = z - n*step.  Then z_n
    is in <b, m> exactly when the least u >= 0 with u*b = z_n (mod m) has
    u*b <= z_n, that is when F(n) = n*step + b*((alpha + n*beta) mod m)
    is at most z, with alpha = z/b and beta = -step/b, both mod m.  Up to
    ``_SHORT_SEARCH`` values of n are tried one by one.  Beyond that,
    (alpha + n*beta) mod m = alpha + n*beta - m*((n*beta + alpha) // m)
    turns min F into ``_floor_path_min``, in O(log^2 m) steps.
    """
    g = math.gcd(bottom, c)
    b, m = bottom // g, c // g
    b_inv = pow(b, -1, m)
    g_top = math.gcd(top, g)
    period = g // g_top
    top_inv = pow(top // g_top, -1, period)
    step = top // g_top

    def member(y: int) -> bool:
        if y < 0 or y % g_top:
            return False
        q0 = (y // g_top) * top_inv % period
        if q0 * top > y:
            return False
        z = (y - q0 * top) // g
        n_max = (y // top - q0) // period
        if n_max < _SHORT_SEARCH:
            return any(
                (z - n * step) * b_inv % m * b <= z - n * step for n in range(n_max + 1)
            )
        alpha = z * b_inv % m
        beta = -step * b_inv % m
        least = _floor_path_min(beta, m, alpha, n_max, step + b * beta, b * m)
        return b * alpha + min(0, least) <= z

    return member


def _translate_search(a: int, ak: int, c: int, terms) -> bool:
    """Is one of ``terms`` in <G, B, c>, G = max(a, ak), B = min(a, ak)?
    A test covers every translate by a multiple of c (see ``is_minimal``)."""
    in_triple = _triple_member(max(a, ak), min(a, ak), c)
    return any(in_triple(x) for x in terms)


def is_minimal(p: AagParams) -> bool:
    """Are the k+2 generators a minimal generating system of S?

    Equals ``oracle.is_minimal_generating(list(p.generators))`` on every
    validated tuple, in time that does not grow with a.  A minimal system
    has at most as many generators as its smallest generator m (they lie
    in distinct classes mod m), so k + 2 > m makes the system redundant
    (a generator equal to 1 among them), and so does a duplicate generator.
    Otherwise a generator g is redundant exactly when g - g' lies in S for
    a smaller generator g' (the pair criterion of the oracle).  The
    positive differences form at most six arithmetic progressions of step
    d or -d: m*|d| for 1 <= m < k, g_i - a and c - g_i for 1 <= i <= k
    (each split where its sign flips, the negative part read as a - g_i
    and g_i - c), and |c - a|.  A difference below the smallest generator
    is never in S, so each progression is cut there.

    x is in S = T + N*c, T = <a, ha+d, ..., ha+kd>, exactly when x - t*c
    is in T for some t <= min(x // c, min(A) - 1): a witness with
    t < min(A) exists because c*g is in T for g in A.  For each t the
    translates of a progression form a progression y, y + e, ... of step
    e = +-d again, and one lemma settles it with at most two lookups of
    the Apery function of T (``_arithmetic_apery``).  With
    j(y) = y * d^-1 mod a, y is in T exactly when
    y - J*d >= ceil(J/k)*h*a for J = j(y) + m*a with m = 0 (or some m < k
    in the d < 0 window).  Along the progression j moves by +-1 and wraps
    at most once, since it has at most k < a terms; on a wrap-free piece
    y - J*d is fixed and ceil(J/k) does not fall as J grows.  So the term
    of least j on each piece is in T whenever any term of it is: the
    first term and the term with j = 0 when j rises, the term with j = 0
    and the last term when j falls.

    A progression with more than max(64, 3k) translates goes to
    ``_translate_search``: is a term in T3 = <G, B, c>, G = max(a, ha+kd),
    B = min(a, ha+kd)?  As g_i + g_j is g_{i+j} + ha (i + j <= k) or
    g_{i+j-k} + (ha+kd), S is the union of g_i + T3, 0 <= i < k (g_0 = 0).
    If x - g_i = t is in T3 for a difference x and i >= 1, then one of
    t + ha, t + (ha+kd), t + a, t + c (all in T3) is a difference:
    c - g_{i+j} or c - g_{i+j-k} for x = c - g_j (likewise a - g_j),
    g_{j-i} - a or (i-j)|d| for g_j - a, |j-i||d| for g_j - c, c - g_i or
    a - g_i for |c - a|, and (m-i)|d|, (m+i)|d| or (m+i-k)|d| for m|d|.
    So some difference is in S exactly when one is in T3, and the long
    progressions may be tested against T3 alone.

    A call makes at most 2 * 6 * max(64, 3k) Apery lookups, O(1) each
    (O(k) in the d < 0 window of ``_arithmetic_apery``), and at most 3k
    ``_triple_member`` tests of O(64 + log^2 c) steps, whatever a is.
    """
    gens = p.generators
    a, d, h, k, c = p.a, p.d, p.h, p.k, p.c
    # g_1, ..., g_k step by d != 0: their least one is an end, and only c
    # can repeat a generator, since a = g_i needs (h - 1)a = -i*d, so a | i
    # (gcd(a, d) = 1), while i <= k < k + 2 <= a.
    smallest = min(a, gens[1], gens[k], c)
    if k + 2 > smallest or gens.count(c) > 1:
        return False
    if d < 0 and h == 1:
        # The raw presentation lists the same set from the other end.
        a, d = a + k * d, -d
    g1, ak = h * a + d, h * a + k * d
    smallest_in_a = min(a, g1, ak)
    apery = _arithmetic_apery(a, d, h, k)
    d_inv = pow(d, -1, a)
    deferred = set()
    # (first term, step, number of terms); the step is d or -d.
    progressions = (
        (abs(d), abs(d), k - 1),
        (g1 - a, d, k),
        (a - g1, -d, k),
        (c - g1, -d, k),
        (g1 - c, d, k),
        (abs(c - a), d, 1),
    )
    short = max(_SHORT_SEARCH, 3 * k)
    for first, step, count in progressions:
        # A progression is monotone: its terms of at least ``smallest`` are one run.
        if step > 0:
            skip = max(0, -((first - smallest) // step))
            first, count = first + skip * step, count - skip
        else:
            count = min(count, (first - smallest) // -step + 1)
        if count <= 0:
            continue
        last = first + (count - 1) * step
        by_c = min(max(first, last) // c, smallest_in_a - 1) + 1
        if by_c > short:
            deferred.update(range(first, last + step, step))
            continue
        for t in range(by_c):
            y, z = first - t * c, last - t * c
            j = y * d_inv % a
            if step == d:
                # j rises from j(y) and wraps to 0 at term a - j, if any.
                wrap = y + (a - j) * step
                if y >= apery(y) or (a - j < count and wrap >= apery(wrap)):
                    return False
            else:
                # j falls to 0 at term j, then wraps to a - 1; the last term
                # has the least j after the wrap (or overall, without one).
                zero = y + j * step
                if z >= apery(z) or (j < count - 1 and zero >= apery(zero)):
                    return False
    return not deferred or not _translate_search(a, ak, c, deferred)


def phi(m: Monomial, p: AagParams) -> int:
    """Weighted degree: total weight of the monomial under the generators.

    phi(x0^e0 * ... * x_{k+1}^e_{k+1}) = sum e_i * g_i.  Additive in the
    monomial, which is what makes it a semigroup grading.
    """
    if len(m.exponents) != p.k + 2:
        raise NonsenseInput(
            f"monomial has {len(m.exponents)} variables, params need {p.k + 2}"
        )
    return sum(map(operator.mul, m.exponents, p.generators))
