"""Per-tuple cross-verification battery.

Four check groups, each returning a list of human-readable violation
messages (empty means the tuple passed):

* ``closed_form_violations`` -- Apery set, pseudo-Frobenius set and
  Frobenius number from the closed forms, and the closed-form minimality
  check that admitted the tuple, against the brute-force oracle.
* ``euclid_violations``      -- structural invariants of the Euclidean
  table: each row's index against its position, the row equation, the
  canonical decomposition of s and r', the quotient recurrence
  s_{i-1} = q_{i+1} s_i - s_{i+1} (q >= 2, none on rows 0 and 1), the
  three determinant identities, s/p/r' monotonicity (and r when d > 0),
  pivot bracketing, the stored pivot rows against the rows μ and μ + 1,
  and the consecutive-pair tilde relation with its case split at the
  pivot.
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
φ(M(0, p)) = pc, so the row equation, r' = r + h(σ + l) and
(σ, ρ, l) = decompose(s, k) put every row binomial of
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
from .euclid import EuclidTable, decompose, tilde_for_pair
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


def euclid_violations(p: AagParams, t: EuclidTable) -> list[str]:
    """Structural invariants of the (already built) Euclidean table."""
    out = []
    a, d, c, h, k = p.a, p.d, p.c, p.h, p.k
    rows = t.rows
    for i, row in enumerate(rows):
        if row.index != i:
            out.append(f"row {i}: index {row.index} != position {i}")
        if row.s * d - row.p * c != row.r * a:
            out.append(f"row {row.index}: s*d - p*c != r*a")
        if (row.sigma, row.rho, row.ell) != decompose(row.s, k):
            out.append(f"row {row.index}: s decomposition broken")
        if row.r_prime != row.r + h * (row.sigma + row.ell):
            out.append(f"row {row.index}: r' != r + h(sigma+ell)")
    for lo, hi in zip(rows, rows[1:]):
        if lo.s * hi.p - hi.s * lo.p != a:
            out.append(f"rows {lo.index},{hi.index}: determinant a identity broken")
        if hi.s * lo.r - lo.s * hi.r != c:
            out.append(f"rows {lo.index},{hi.index}: determinant c identity broken")
        if hi.p * lo.r - lo.p * hi.r != d:
            out.append(f"rows {lo.index},{hi.index}: determinant d identity broken")
        if hi.q is not None and hi.q < 2:
            out.append(f"row {hi.index}: quotient {hi.q} < 2")
        if tilde_for_pair(lo, hi, k, h)[3] < 2:
            out.append(f"rows {lo.index},{hi.index}: r~ < 2")
    if rows[0].q is not None or rows[1].q is not None:
        out.append("rows 0,1 carry a quotient")
    for lo, mid, hi in zip(rows, rows[1:], rows[2:]):
        if hi.q is None or lo.s != hi.q * mid.s - hi.s:
            out.append(f"row {hi.index}: s_(i-1) != q_(i+1) s_i - s_(i+1)")
    s_seq = [row.s for row in rows]
    p_seq = [row.p for row in rows]
    rp_seq = [row.r_prime for row in rows]
    if not all(x > y for x, y in zip(s_seq, s_seq[1:])):
        out.append("s not strictly decreasing")
    if not all(x < y for x, y in zip(p_seq, p_seq[1:])):
        out.append("p not strictly increasing")
    if not all(x > y for x, y in zip(rp_seq, rp_seq[1:])):
        out.append("r' not strictly decreasing")
    if d > 0:
        r_seq = [row.r for row in rows]
        if not all(x > y for x, y in zip(r_seq, r_seq[1:])):
            out.append("r not strictly decreasing although d > 0")
    if not (rows[0].r_prime > 0 and rows[-1].r_prime < 0):
        out.append("r' does not change sign over the table")
    if not (t.pivot.r_prime > 0 >= t.after_pivot.r_prime):
        out.append("pivot does not bracket the r' sign change")
    if rows[t.mu] != t.pivot or rows[t.mu + 1] != t.after_pivot:
        out.append("pivot rows disagree with the rows mu, mu+1 of the table")
    if tilde_for_pair(t.pivot, t.after_pivot, k, h) != (
        t.tilde_sigma,
        t.tilde_rho,
        t.tilde_ell,
        t.tilde_r,
    ):
        out.append("stored tilde fields disagree with the pair computation")
    rho_mu, rho_next = t.pivot.rho, t.after_pivot.rho
    drop = t.pivot.r_prime - t.after_pivot.r_prime
    if (rho_mu == 0 and rho_next > 0) or (rho_mu > rho_next > 0):
        if t.tilde_r - h != drop:
            out.append("pivot tilde relation r~ - h != r'_mu - r'_{mu+1}")
    elif t.tilde_r != drop:
        out.append("pivot tilde relation r~ != r'_mu - r'_{mu+1}")
    return out


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
