"""Per-tuple cross-verification battery.

Four check groups, each returning a list of human-readable violation
messages (empty means the tuple passed):

* ``closed_form_violations`` -- Apery set, pseudo-Frobenius set and
  Frobenius number from the closed forms, and the closed-form minimality
  check that admitted the tuple, against the brute-force oracle.
* ``euclid_violations``      -- structural invariants of the Euclidean
  table, checked run by run and never on its rows: indices, the row
  equation, the quotient recurrence s_{i-1} = q_{i+1} s_i - s_{i+1} (q >= 2,
  none on rows 0 and 1), the three determinant identities, r~ >= 2, s/p/r'
  monotonicity (and r when d > 0), the end at s = 0, pivot bracketing, the
  stored pivot rows against their runs and ``decompose``, and the pivot
  tilde relation with its case split.
* ``grobner_violations``     -- the generating-set certification.
* ``agreement_violations``   -- the quadratic fast path against the full
  classification route: an almost-symmetric verdict with a family must be
  reproduced exactly; anything else must leave the fast path silent.  Both
  routes need k >= 3, so ``verify_tuple`` skips this group below that.

``verify_tuple`` runs all four on the presentation it is given (``aag
verify`` walks the raw one, as ``aag scan`` does; the acceptance tests
also check the rewritten d < 0, h = 1 one).  The battery only applies to
tuples whose table satisfies the staircase hypothesis (callers skip the
rest).  It checks each fact once: φ(M(s, 0)) = ha⌈s/k⌉ + sd and
φ(M(0, p)) = pc, so the row equation and the decomposition that
``EuclidTable.rows`` gives each row put every row binomial of
``grobner.row_binomials`` in the kernel, and the row equations of two
rows put their ``grobner.tilde_binomials`` pair binomial there too.

The oracle report is the one costly input, so ``verify_tuple`` takes it as
an argument (``closed_form_violations`` builds it when not given).  ``aag
verify`` passes the reports of one ``oracle.oracle_reports`` walk per
(a, d) chunk: its cells share the modulus a and the leading generators
ha + d, ..., ha + kd, and in lexicographic order of the generator lists
(by h, then by k and c) the closures of a shared prefix run once, with at
most k + 2 tables held for the largest k of the grid.
"""

from __future__ import annotations

from . import oracle
from .classify import VERDICT_ALMOST_SYMMETRIC, Classification, classify, fast_path
from .core import AagParams
from .errors import AmbiguousFastPath
from .euclid import EuclidTable, _row_at, decompose, tilde_for_pair
from .grobner import certify_basis
from .pseudofrob import pf_tilde
from .staircase import apery_values, frobenius


def closed_form_violations(
    p: AagParams,
    t: EuclidTable,
    rep: oracle.OracleReport | None = None,
    full: Classification | None = None,
) -> list[str]:
    """Apery / PF / Frobenius closed forms and minimality against the oracle.

    ``rep`` is the oracle's report of ``p.generators`` over ``p.a``, built
    here when not given.  ``full`` is ``classify(p, t)`` when the caller
    has it (k >= 3): its PF set and Frobenius number are the closed forms
    on ``t``, so they are compared instead of running ``pf_tilde`` and
    ``frobenius`` again.  Every tuple that reaches the battery passed
    ``core.is_minimal``; the oracle's Apery table (one table serves every
    check here) confirms that no positive difference of two generators lies
    in S.
    """
    out = []
    if rep is None:
        rep = oracle.oracle_report(list(p.generators), p.a)
    # The oracle holds one value per residue, so the two multisets are equal
    # exactly when the a closed values fill the residue slots with rep.apery.
    closed = apery_values(p, t)
    slots = [None] * p.a
    for v in closed:
        slots[v % p.a] = v
    if len(closed) != p.a or tuple(slots) != rep.apery:
        closed_apery, oracle_apery = sorted(closed), sorted(rep.apery)
        out.append(f"apery mismatch: closed {closed_apery[:6]}... vs oracle {oracle_apery[:6]}...")
    differences = {g - g2 for g in p.generators for g2 in p.generators if g > g2}
    in_s = sorted(v for v in differences if rep.apery[v % p.a] <= v)
    if in_s:
        out.append(f"minimality mismatch: generator differences {in_s[:6]} lie in S")
    if full is None:
        closed_pf, closed_f = list(pf_tilde(p, t).pf_numbers), frobenius(p, t)
    else:
        closed_pf, closed_f = list(full.pf), full.frobenius
    oracle_pf = list(rep.pf)
    if closed_pf != oracle_pf:
        out.append(f"pf mismatch: closed {closed_pf} vs oracle {oracle_pf}")
    oracle_f = rep.frobenius
    if closed_f != oracle_f:
        out.append(f"frobenius mismatch: closed {closed_f} vs oracle {oracle_f}")
    return out


def _pair_violations(i: int, j: int, lo: tuple, hi: tuple, p: AagParams) -> list[str]:
    """Determinants, r~ >= 2 and the s, p, r' (r if d > 0) steps of rows i, j = (s, p, r)."""
    (s0, p0, r0), (s1, p1, r1) = lo, hi
    h, k, out = p.h, p.k, []
    if s0 * p1 - s1 * p0 != p.a:
        out.append(f"rows {i},{j}: determinant a identity broken")
    if s1 * r0 - s0 * r1 != p.c:
        out.append(f"rows {i},{j}: determinant c identity broken")
    if p1 * r0 - p0 * r1 != p.d:
        out.append(f"rows {i},{j}: determinant d identity broken")
    if r0 - r1 - h * ((s1 - s0) // k) < 2:  # r~ = r0 - r1 + h⌈(s0 - s1)/k⌉
        out.append(f"rows {i},{j}: r~ < 2")
    if s0 <= s1:
        out.append("s not strictly decreasing")
    if p0 >= p1:
        out.append("p not strictly increasing")
    if r0 - h * (-s0 // k) <= r1 - h * (-s1 // k):
        out.append("r' not strictly decreasing")
    if p.d > 0 and r0 <= r1:
        out.append("r not strictly decreasing although d > 0")
    return out


def euclid_violations(p: AagParams, t: EuclidTable) -> list[str]:
    """Structural invariants of the (already built) Euclidean table, run by run.

    Row j of a run is (s, p, r) + j·(ds, dp, dr) with quotient 2 for j >= 1,
    so the key equation holds on the run when it holds at j = 0 and for the
    step, the pair checks are constant on it (the j² terms cancel) and the
    quotient recurrence holds from its third row on.  r' moves by
    dr + h(⌈(s + ds)/k⌉ − ⌈s/k⌉), which repeats once s mod k does: at most k
    steps settle it.  So each run costs O(k) and ``t.rows`` is never read.
    """
    a, d, c, h, k = p.a, p.d, p.c, p.h, p.k
    out: list[str] = []
    pos, before, last, last_index, found, mu = 0, None, None, 0, {}, t.mu
    for run in t.runs:
        index, s, pp, r, ds, dp, dr, count, q = run
        if count < 1:
            continue  # holds no row, as ``rows`` expands it
        if index != pos:
            out.append(f"row {pos}: index {index} != position {pos}")
        if s * d - pp * c != r * a:
            out.append(f"row {index}: s*d - p*c != r*a")
        if ds * d - dp * c != dr * a:
            out.append(f"row {index + 1}: s*d - p*c != r*a")
        if pos < 2 and (q is not None or (pos == 0 and count > 1)):
            out.append("rows 0,1 carry a quotient")
        if pos >= 2 and q is not None and q < 2:
            out.append(f"row {index}: quotient {q} < 2")
        if pos >= 2 and (q is None or before[0] != q * last[0] - s):
            out.append(f"row {index}: s_(i-1) != q_(i+1) s_i - s_(i+1)")
        if last is not None:
            out += _pair_violations(last_index, index, last, (s, pp, r), p)
        if count > 1:
            out += _pair_violations(index, index + 1, (s, pp, r), (s + ds, pp + dp, r + dr), p)
            if pos and last[0] != s - ds:
                out.append(f"row {index + 1}: s_(i-1) != q_(i+1) s_i - s_(i+1)")
            ceil = [-(-(s + j * ds) // k) for j in range(min(count, k + 1))]
            if any(dr + h * (y - x) >= 0 for x, y in zip(ceil, ceil[1:])):
                out.append("r' not strictly decreasing")
        for target in (mu, mu + 1):
            if pos <= target < pos + count:
                found[target] = _row_at(run, target - pos, k, h)
        n = count - 1
        before = (s + (n - 1) * ds, pp + (n - 1) * dp, r + (n - 1) * dr) if n else last
        last, last_index, pos = (s + n * ds, pp + n * dp, r + n * dr), index + n, pos + count
    first = t.runs[0]
    if not (first.r - h * (-first.s // k) > 0 and last[2] - h * (-last[0] // k) < 0):
        out.append("r' does not change sign over the table")
    if last[0] != 0:
        out.append(f"row {last_index}: the table ends at s = {last[0]}, not 0")
    if not (t.pivot.r_prime > 0 >= t.after_pivot.r_prime):
        out.append("pivot does not bracket the r' sign change")
    if found.get(mu) != t.pivot or found.get(mu + 1) != t.after_pivot:
        out.append("pivot rows disagree with the rows mu, mu+1 of the table")
    for row in (t.pivot, t.after_pivot):
        if (row.sigma, row.rho, row.ell) != decompose(row.s, k):
            out.append(f"row {row.index}: s decomposition broken")
    tilde = (t.tilde_sigma, t.tilde_rho, t.tilde_ell, t.tilde_r)
    if tilde_for_pair(t.pivot, t.after_pivot, k, h) != tilde:
        out.append("stored tilde fields disagree with the pair computation")
    rho_mu, rho_next = t.pivot.rho, t.after_pivot.rho
    drop = t.pivot.r_prime - t.after_pivot.r_prime
    if (rho_mu == 0 and rho_next > 0) or (rho_mu > rho_next > 0):
        if t.tilde_r - h != drop:
            out.append("pivot tilde relation r~ - h != r'_mu - r'_{mu+1}")
    elif t.tilde_r != drop:
        out.append("pivot tilde relation r~ != r'_mu - r'_{mu+1}")
    return list(dict.fromkeys(out))


def grobner_violations(p: AagParams, t: EuclidTable) -> list[str]:
    """Generating-set certification of A∪B∪C∪D."""
    return [] if certify_basis(p, t) else ["basis certification failed"]


def agreement_violations(p: AagParams, full: Classification) -> list[str]:
    """Fast-path route against ``full``, the full route's classification of ``p``."""
    out = []
    try:
        fast = fast_path(p)
    except AmbiguousFastPath as exc:
        return [f"ambiguous fast path: {exc}"]
    if full.verdict == VERDICT_ALMOST_SYMMETRIC and full.family is not None:
        if fast is None:
            out.append(f"fast path missed {full.family} {full.solved}")
        elif (fast.family, fast.solved, fast.type, fast.frobenius) != (
            full.family,
            full.solved,
            full.type,
            full.frobenius,
        ):
            out.append(
                f"fast path solved {fast.family} {fast.solved} "
                f"(t={fast.type}, F={fast.frobenius}) but full route has "
                f"{full.family} {full.solved} (t={full.type}, F={full.frobenius})"
            )
    elif fast is not None:
        out.append(f"fast path hit {fast.family} on a {full.verdict} tuple")
    return out


def verify_tuple(p: AagParams, t: EuclidTable, rep: oracle.OracleReport) -> list[str]:
    """All four check groups on one hypothesis-satisfying tuple, with ``rep``
    the oracle's report of ``p.generators`` over ``p.a``.

    The tuple is classified once when k >= 3, and that classification
    serves both the closed-form and the agreement group.  Below k = 3
    ``fast_path`` is silent and ``classify`` would only build a second
    oracle report, so the agreement group does not run and the closed-form
    group computes the PF set and Frobenius number itself.
    """
    full = classify(p, t) if p.k >= 3 else None
    out = closed_form_violations(p, t, rep, full)
    out += euclid_violations(p, t)
    out += grobner_violations(p, t)
    if full is not None:
        out += agreement_violations(p, full)
    return out
