"""Brute-force ground truth for numerical semigroups given by generators.

Everything here works from an explicit generator list and first principles:
the Apery table of a semigroup S with respect to a modulus m in S is computed
as shortest paths in the residue graph (vertices = residues mod m, one arc per
generator), and the Frobenius number, pseudo-Frobenius set, type, genus and
symmetry flags are all read off that table.  No structural theory is used, so
this module is a fully independent cross-check for the closed-form machinery
in the rest of the package; it imports nothing from it but the error types
and the size cap ``core.max_modulus``.

The fast path vectorises the shortest-path computation with numpy.  For each
generator g the residues split into gcd(m, g) cycles under repeated addition
of g, and relaxing along a cycle is a min-plus prefix scan: with
b[j] = dist[j] - j*g, the relaxed value at position j is min(b[:j+1]) + j*g.
The wrap-around adds one term: a walk from a later start i > j reaches j at
b[i] + (length + j)*g, so min(b) + length*g covers all of them.  One such scan
per generator is exact, because a sum of generators can always be reordered to
group equal generators together, and more than one full lap of a cycle only
adds (cycle length)*g > 0 to an equal-residue value.  This is the round-robin
method (Böcker and Lipták, *A fast and simple algorithm for the money changing
problem*, Algorithmica 48, 2007).

The order of the generators does not matter either: by induction, after the
scans of g_1, ..., g_L the table holds, for each residue, the least sum of
those L generators in its class (or the sentinel), since such a sum is a sum
of g_1, ..., g_{L-1} plus some copies of g_L.  So the table after L scans
depends only on the first L generators, and ``oracle_reports`` walks a batch
of generator lists over one modulus sharing them: consecutive lists with the
same first L generators share those L scans (one scan per node of the trie of
the lists, when lists that share prefixes are adjacent).  A level's table is
kept only while the next list shares that level (as a copy when the walk goes
on past it), so a single list holds one table and a walk at most one per
level plus the working one: (longest list + 1) tables.  The scans run in the caller's generator order,
without duplicates and multiples of m; sorting them would move a trailing
generator (the ``c`` of a tuple) among the leading ones and break the shared
prefixes.

All intermediate values stay below 2**60 on the numpy path (a minimal class
representative uses at most m-1 generator copies, hence is < m*max(gen)); if
m*max(gen) approaches that bound the module falls back, list by list, to a
pure-Python Dijkstra with arbitrary-precision integers.  numpy is imported by
the functions that build tables, so importing the package does not load it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import max_modulus
from .errors import NonPositiveGenerator, NonsenseInput, NotCoprime

# numpy relaxation is used only while m * max(gen) stays below this; the
# sentinel 2**60 then provably exceeds every candidate value (true values are
# < m*max(gen) < 2**59, chain extensions add < 2*m*max(gen) < 2**60).
_NUMPY_SAFE_PRODUCT = 1 << 59


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
    table = next(_tables([_steps(gens, m)], m))
    return table if isinstance(table, list) else table.tolist()


def _steps(gens: Sequence[int], m: int) -> list[int]:
    """The generators that the table is built from: the caller's order,
    without duplicates and multiples of m.  A minimal class representative
    never uses a summand congruent to 0 (dropping it would shrink the value
    within the same class)."""
    steps = list(dict.fromkeys(g for g in gens if g % m))
    if not steps and m > 1:
        raise NotCoprime(f"all generators are multiples of the modulus {m}")
    return steps


def _tables(step_lists: list[list[int]], m: int) -> Iterator:
    """The Apery table over m of each step list, in order.

    Lists with m*max(steps) below the int64 guard get numpy arrays from one
    shared walk (``_walk_numpy``); the others get Python lists from
    ``_apery_dijkstra``, one search each.
    """
    on_numpy = [m * max(steps, default=0) < _NUMPY_SAFE_PRODUCT for steps in step_lists]
    walk = _walk_numpy([steps for steps, fast in zip(step_lists, on_numpy) if fast], m)
    for steps, fast in zip(step_lists, on_numpy):
        yield next(walk) if fast else _apery_dijkstra(steps, m)


def _walk_numpy(step_lists: list[list[int]], m: int) -> Iterator:
    """Yield the Apery table (an int64 array) of each step list in turn.

    Level L of a list is its table after the scans of its first L steps.
    ``shared[j]`` is the prefix length that list j shares with list j + 1,
    which resumes from there.  ``kept[L - 1]`` is the table of level L, kept
    for the levels that the next list shares, so the walk holds at most
    (longest list + 1) tables.  A yielded table is valid until the next one
    is drawn.
    """
    import numpy as np

    shared = [_common_prefix(x, y) for x, y in zip(step_lists, step_lists[1:])] + [0]
    kept: list[np.ndarray] = []
    resume = 0
    for steps, keep in zip(step_lists, shared):
        if resume == 0:
            table = np.full(m, 1 << 60, dtype=np.int64)  # sentinel, see _NUMPY_SAFE_PRODUCT
            table[0] = 0
        elif keep >= resume:
            table = kept[resume - 1].copy()
        else:
            table = kept.pop()
        del kept[keep:]
        for level in range(resume, len(steps)):
            _close(table, steps[level], m)
            if level < keep:
                kept.append(table if level + 1 == len(steps) else table.copy())
        # gcd(gens) = 1 guarantees every residue class is hit, with a true
        # value below m*max(gens); anything at sentinel scale would be a bug.
        if int(table.max()) >= _NUMPY_SAFE_PRODUCT:
            raise AssertionError("unreachable residue despite coprime generators")
        yield table
        resume = keep


def _common_prefix(x: list[int], y: list[int]) -> int:
    n = 0
    for u, v in zip(x, y):
        if u != v:
            break
        n += 1
    return n


def _close(dist, g: int, m: int) -> None:
    """Relax ``dist`` in place along every cycle of +g mod m: the cyclic
    closure for one generator (see the module docstring)."""
    import numpy as np

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
    slope = np.arange(length, dtype=np.int64) * g
    vals -= slope
    np.minimum.accumulate(vals, axis=1, out=vals)
    np.minimum(vals, vals[:, -1:] + length * g, out=vals)
    vals += slope
    dist[idx] = vals


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
    by m); any other modulus raises ``NonsenseInput``.  This is the one-list
    case of ``oracle_reports``.
    """
    gens = _clean_generators(generators)
    _require_coprime(gens)
    m = min(gens) if modulus is None else modulus
    return next(oracle_reports([gens], m))


def oracle_reports(
    generator_lists: Iterable[Sequence[int]], modulus: int
) -> Iterator[OracleReport]:
    """``oracle_report(gens, modulus)`` for each list, in order, from one walk.

    Consecutive lists that start with the same generators share the scans
    of those generators (see the module docstring), so a caller puts such
    lists next to each other.  Every list is checked before the first
    report is built.
    """
    lists = []
    for generators in generator_lists:
        gens = _clean_generators(generators)
        _require_coprime(gens)
        lists.append(gens)
    if not lists:
        return
    _check_modulus(modulus)
    step_lists = [_steps(gens, modulus) for gens in lists]
    for gens, steps, table in zip(lists, step_lists, _tables(step_lists, modulus)):
        yield _report(gens, steps, modulus, table)


def _report(gens: list[int], steps: list[int], m: int, table) -> OracleReport:
    """The report of ``gens`` from its Apery table over m, a numpy array or
    (past the int64 guard) a list; see ``oracle_report``.  Generators that
    are multiples of m never make w + g an Apery element, so the maximality
    test reads only ``steps``."""
    values = table if isinstance(table, list) else table.tolist()
    if min(values[-g % m] + g for g in gens) != m:
        raise NonsenseInput(f"modulus {m} is not in the semigroup generated by {gens}")
    if m == 1:
        pf = [-1]
    elif isinstance(table, list):
        pf = sorted(
            value - m
            for value in values
            if all(values[(value + g) % m] != value + g for g in steps)
        )
    else:
        pf = _pf_numpy(table, steps, m)
    t = len(pf)
    frob = pf[-1]
    nari = all(pf[i] + pf[t - 2 - i] == frob for i in range(t - 1))
    apery = tuple(values)
    return OracleReport(
        generators=tuple(gens),
        modulus=m,
        apery=apery,
        frobenius=max(apery) - m,
        pf=tuple(pf),
        type=t,
        genus=(sum(apery) - (m - 1) * m // 2) // m,
        symmetric=(t == 1),
        almost_symmetric=nari,
    )


#: Most residue-generator pairs that one maximality pass of ``_pf_numpy``
#: compares at once; a modulus above it takes one generator per pass.
_PF_BLOCK = 1 << 16


def _pf_numpy(w, steps: list[int], m: int) -> list[int]:
    """Sorted pseudo-Frobenius numbers: the Apery elements w with w + g
    outside the Apery set for every step g, minus m."""
    import numpy as np

    dominated = np.zeros(m, dtype=bool)
    block = max(1, _PF_BLOCK // m)
    for i in range(0, len(steps), block):
        shifted = w + np.array(steps[i : i + block], dtype=np.int64)[:, None]
        dominated |= (w[shifted % m] == shifted).any(axis=0)
    return sorted((w[~dominated] - m).tolist())
