"""Brute-force ground truth for numerical semigroups given by generators.

Everything here works from an explicit generator list and first principles:
the Apery table of a semigroup S with respect to a modulus m in S is computed
as shortest paths in the residue graph (vertices = residues mod m, one arc per
generator), and the Frobenius number, pseudo-Frobenius set, type, genus and
symmetry flags are all read off that table.  No structural theory is used, so
this module is a fully independent cross-check for the closed-form machinery
in the rest of the package; it deliberately imports nothing from it.

The fast path vectorises the shortest-path computation with numpy.  For each
generator g the residues split into gcd(m, g) cycles under repeated addition
of g, and relaxing along a cycle is a min-plus prefix scan: with
b[j] = dist[j] - j*g, the relaxed value at position j is min(b[:j+1]) + j*g.
The wrap-around adds one term: a walk from a later start i > j reaches j at
b[i] + (length + j)*g, so min(b) + length*g covers all of them.  One such scan
per generator is exact, because a sum of generators can always be reordered to
group equal generators together, and more than one full lap of a cycle only
adds (cycle length)*g > 0 to an equal-residue value.

All intermediate values stay below 2**60 on the numpy path (a minimal class
representative uses at most m-1 generator copies, hence is < m*max(gen)); if
m*max(gen) approaches that bound the module falls back to a pure-Python
Dijkstra with arbitrary-precision integers.  numpy is imported by the
functions that build tables, so importing the package does not load it.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from typing import Sequence

from .errors import NonPositiveGenerator, NonsenseInput, NotCoprime

DEFAULT_MAX_MODULUS = 1_000_000

# numpy relaxation is used only while m * max(gen) stays below this; the
# sentinel 2**60 then provably exceeds every candidate value (true values are
# < m*max(gen) < 2**59, chain extensions add < 2*m*max(gen) < 2**60).
_NUMPY_SAFE_PRODUCT = 1 << 59


def max_modulus() -> int:
    """Size cap: AAG_MAX_A environment variable, a positive integer, default 10**6.

    It caps the oracle modulus, the rows of a division table
    (``euclid.EuclidTable.rows``; the table's pivot data are not capped),
    the ``aag analyze --apery`` dump and the generator count k + 2
    (``core.validate_params``): the computations whose size grows with a or k.
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


@dataclass(frozen=True)
class OracleReport:
    """Everything the oracle can say about one semigroup.

    ``apery`` is indexed by residue mod the modulus used (``apery[0] == 0``);
    ``pf`` is the sorted pseudo-Frobenius set, ``type`` its size,
    ``frobenius`` equals ``max(apery) - modulus`` and also ``max(pf)``.
    ``almost_symmetric`` reports the pairing criterion f_i + f_{t-i} = F on
    the sorted pseudo-Frobenius numbers, which holds vacuously when t = 1,
    so symmetric semigroups carry both flags.
    """

    generators: tuple[int, ...]
    modulus: int
    apery: tuple[int, ...]
    frobenius: int
    pf: tuple[int, ...]
    type: int
    genus: int
    symmetric: bool
    almost_symmetric: bool


def _clean_generators(generators: Sequence[int]) -> list[int]:
    gens = list(generators)
    if not gens:
        raise NonsenseInput("empty generator list")
    for g in gens:
        if not isinstance(g, int) or isinstance(g, bool):
            raise NonsenseInput(f"generator {g!r} is not an integer")
        if g <= 0:
            raise NonPositiveGenerator(f"generator {g} is not positive")
    return gens


def _require_coprime(gens: Sequence[int]) -> None:
    if math.gcd(*gens) != 1:
        raise NotCoprime(f"gcd of generators is {math.gcd(*gens)}, not 1")


def _check_modulus(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise NonsenseInput(f"modulus must be a positive integer, got {m!r}")
    cap = max_modulus()
    if m > cap:
        raise NonsenseInput(
            f"modulus {m} exceeds the oracle cap {cap} (set AAG_MAX_A to raise it)"
        )


def apery_oracle(generators: Sequence[int], modulus: int | None = None) -> list[int]:
    """Apery table of ``<generators>`` with respect to ``modulus``.

    Returns the list ``w`` of length m with ``w[r]`` = least element of the
    semigroup congruent to r mod m.  ``modulus`` defaults to the smallest
    generator (the classical Apery set); any positive modulus is accepted,
    whether or not it lies in the semigroup.
    """
    gens = _clean_generators(generators)
    _require_coprime(gens)
    m = min(gens) if modulus is None else modulus
    _check_modulus(m)
    if m == 1:
        return [0]
    # Drop duplicates and generators that are multiples of m: a minimal class
    # representative never uses a summand congruent to 0 (dropping it would
    # shrink the value within the same class).
    steps = sorted({g for g in gens if g % m != 0})
    if not steps:
        raise NotCoprime(f"all generators are multiples of the modulus {m}")
    if m * max(steps) < _NUMPY_SAFE_PRODUCT:
        table = _apery_numpy(steps, m)
    else:
        table = _apery_dijkstra(steps, m)
    return table


def _apery_numpy(gens: list[int], m: int) -> list[int]:
    import numpy as np

    dist = np.full(m, 1 << 60, dtype=np.int64)  # sentinel, see _NUMPY_SAFE_PRODUCT
    dist[0] = 0
    for g in gens:
        step = g % m
        delta = math.gcd(step, m)
        length = m // delta
        # Residues split into `delta` cycles of length `length` under +step;
        # row i of `idx` walks cycle i in visiting order from residue i.
        idx = (
            np.arange(delta, dtype=np.int64)[:, None]
            + np.arange(length, dtype=np.int64)[None, :] * step
        ) % m
        vals = dist[idx]
        # Cyclic closure for one g, see the module docstring.
        slope = np.arange(length, dtype=np.int64) * g
        vals -= slope
        np.minimum.accumulate(vals, axis=1, out=vals)
        np.minimum(vals, vals[:, -1:] + length * g, out=vals)
        vals += slope
        dist[idx] = vals
    top = int(dist.max())
    # gcd(gens) = 1 guarantees every residue class is hit, with a true value
    # below m*max(gens); anything at sentinel scale would be a bug.
    if top >= _NUMPY_SAFE_PRODUCT:
        raise AssertionError("unreachable residue despite coprime generators")
    return dist.tolist()


def _apery_dijkstra(gens: list[int], m: int) -> list[int]:
    dist: list[int | None] = [None] * m
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    seen = 0
    while heap and seen < m:
        value, res = heapq.heappop(heap)
        if dist[res] is not None and value > dist[res]:
            continue
        seen += 1
        for g in gens:
            nres = (res + g) % m
            nval = value + g
            if dist[nres] is None or nval < dist[nres]:
                dist[nres] = nval
                heapq.heappush(heap, (nval, nres))
    if any(v is None for v in dist):
        raise AssertionError("unreachable residue despite coprime generators")
    return dist  # type: ignore[return-value]


def is_minimal_generating(generators: Sequence[int]) -> bool:
    """Is the given list a minimal generating system of its semigroup?

    Uses a single full-set Apery table and the pair criterion: g_j is
    redundant iff g_j - g_i lies in the semigroup for some i != j.  (Any
    representation of a value v < g_j only involves summands <= v, hence
    never g_j itself, so testing membership in the *full* semigroup is
    enough; and the smallest generator can never be a sum of larger ones.)
    """
    gens = _clean_generators(generators)
    if len(set(gens)) != len(gens):
        return False
    if 1 in gens:
        return gens == [1]
    _require_coprime(gens)
    m = min(gens)
    table = apery_oracle(gens, m)
    for j, gj in enumerate(gens):
        for i, gi in enumerate(gens):
            if i == j:
                continue
            v = gj - gi
            if v > 0 and table[v % m] <= v:
                return False
    return True


def oracle_report(generators: Sequence[int], modulus: int | None = None) -> OracleReport:
    """Compute one shared Apery table and derive every oracle quantity.

    The pseudo-Frobenius numbers are the maximal Apery elements minus the
    modulus.  An Apery element w is maximal for the order "s <= s' iff
    s' - s in S" exactly when w + g leaves the Apery set for every
    generator g: if w + x is in the Apery set for some nonzero x in S,
    peeling one generator g off x keeps w + g in the Apery set as well.
    The genus counts (w[r] - r)/m gaps per residue class r (Selmer).
    All of this needs m in S, that is, m equal to the least ``table[-g mod m]
    + g`` over the generators g (the least positive element of S divisible
    by m); any other modulus raises ``NonsenseInput``.
    """
    gens = _clean_generators(generators)
    _require_coprime(gens)
    m = min(gens) if modulus is None else modulus
    table = apery_oracle(gens, m)
    if min(table[-g % m] + g for g in gens) != m:
        raise NonsenseInput(f"modulus {m} is not in the semigroup generated by {gens}")
    if m == 1:
        pf = [-1]
    elif m * max(gens) < _NUMPY_SAFE_PRODUCT:
        import numpy as np

        w = np.asarray(table, dtype=np.int64)
        dominated = np.zeros(m, dtype=bool)
        for g in sorted(set(gens)):
            shifted = w + g
            dominated |= w[shifted % m] == shifted
        pf = sorted((w[~dominated] - m).tolist())
    else:
        pf = sorted(
            value - m
            for value in table
            if all(table[(value + g) % m] != value + g for g in gens)
        )
    t = len(pf)
    frob = pf[-1]
    nari = all(pf[i] + pf[t - 2 - i] == frob for i in range(t - 1))
    return OracleReport(
        generators=tuple(gens),
        modulus=m,
        apery=tuple(table),
        frobenius=max(table) - m,
        pf=tuple(pf),
        type=t,
        genus=(sum(table) - (m - 1) * m // 2) // m,
        symmetric=(t == 1),
        almost_symmetric=nari,
    )
