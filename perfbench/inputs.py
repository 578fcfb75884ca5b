"""Seeded inputs for the ``analyze_large`` workload.

Integer arithmetic only and no import of ``aag``: the draw costs nothing
in set-up beyond the interpreter, and the same seed gives the same tuples
on any machine.

Each query is a tuple (a, d, h, k, c) for the semigroup
<a, ha+d, ..., ha+kd, c>.  The modulus a is log-uniform in [10^3, 10^5],
stratified (one draw per equal-width slice of log a) so that the slow
tail, which sets the 95th latency percentile, has the same shape for
every seed.  Two kinds are drawn:

* friendly (3/4): c is random, so s_1 = c/d mod a is random and the
  division table is short; the minimality oracle at modulus a dominates.
* long-table (1/4): c = j*a - d, so s_1 = a - 1 and the table has a + 1
  rows; ``build_table`` and the Frobenius column scan are linear in a.

Validity is guaranteed by construction, without the oracle:
``3*k*|d| < a`` makes a, ha+d, ..., ha+kd a minimal system (any sum of two
of them exceeds the largest, and no ha+id is a multiple of a), and c is
larger than all of them and outside their semigroup (checked by
``in_arithmetic_semigroup``), so the k+2 generators are minimal.
"""

from __future__ import annotations

import math
import random

A_LOW, A_HIGH = 10**3, 10**5
K_RANGE = (3, 20)
H_RANGE = (1, 4)
#: Lattice step for k across the strata; coprime to the 18 values of k.
K_STEP = 7
#: c is drawn below C_SPAN * h * a.
C_SPAN = 20

FRIENDLY = "friendly"
LONG_TABLE = "long-table"


def iroot(n: int, r: int) -> int:
    """Floor of the r-th root of n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def log_strata(low: int, high: int, n: int) -> list[int]:
    """n + 1 boundaries low = b_0 < ... < b_n = high, equal in log scale.

    b_j = floor(low * (high / low) ** (j / n)), computed exactly as an
    integer n-th root.
    """
    return [iroot(low ** (n - j) * high**j, n) for j in range(n + 1)]


def in_arithmetic_semigroup(x: int, a: int, d: int, h: int, k: int) -> bool:
    """Is x in <a, ha+d, ..., ha+kd>?  (Requires gcd(a, d) = 1.)

    A sum of t generators ha+id has the form t*ha + j*d with t <= j <= t*k,
    and every such j is reachable; adding multiples of a covers the rest.
    So x is a member iff for some t >= 0 there is j in [t, t*k] with
    j*d = x (mod a) and x - t*ha - j*d >= 0.
    """
    if x < 0:
        return False
    j0 = x * pow(d, -1, a) % a
    smallest = h * a - k * abs(d)  # smallest weight of one ha+id
    for t in range(x // smallest + 1):
        lo, hi = t, t * k
        if d > 0:
            j = lo + (j0 - lo) % a  # least j >= lo in the class
        else:
            j = hi - (hi - j0) % a  # greatest j <= hi in the class
        if lo <= j <= hi and x - t * h * a - j * d >= 0:
            return True
    return False


def _draw_query(
    rng: random.Random, a: int, k: int, h: int, sign: int, kind: str
) -> tuple[int, int, int, int, int]:
    d_max = (a - 1) // (3 * k)
    while True:
        d = sign * rng.randint(1, d_max)
        if math.gcd(a, d) == 1:
            break
    top = max(a, h * a + d, h * a + k * d)
    while True:
        if kind == LONG_TABLE:
            c = rng.randint(h + 1, C_SPAN * h) * a - d
        else:
            c = rng.randint(top + 1, C_SPAN * h * a)
        if c > top and not in_arithmetic_semigroup(c, a, d, h, k):
            return a, d, h, k, c


def draw_queries(seed: int, n: int, a_low: int = A_LOW, a_high: int = A_HIGH) -> list[dict]:
    """n queries, 3/4 friendly and 1/4 long-table, in a seeded order."""
    rng = random.Random(seed)
    k_lo, k_hi = K_RANGE
    h_lo, h_hi = H_RANGE
    queries = []
    for kind, count in ((FRIENDLY, n - n // 4), (LONG_TABLE, n // 4)):
        bounds = log_strata(a_low, a_high, count)
        # k, h and the sign of d step through their values along the a
        # strata (a rank-1 lattice), so each value covers the whole a range
        # and the mix of slow and fast queries is the same for every seed;
        # the seed draws a within its stratum, |d|, c and the order.  (h = 1
        # with d < 0 is rewritten by validate_params, which shortens the
        # first table of a long-table query.)
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            a = rng.randint(lo, max(lo, hi - 1))
            k = k_lo + (K_STEP * j) % (k_hi - k_lo + 1)
            h = h_lo + j % (h_hi - h_lo + 1)
            sign = (1, -1)[j // (h_hi - h_lo + 1) % 2]
            queries.append({"kind": kind, "params": _draw_query(rng, a, k, h, sign, kind)})
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries
