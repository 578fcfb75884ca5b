"""Per-tuple cross-verification battery.

Four check groups, each returning a list of human-readable violation
messages (empty means the tuple passed):

* ``closed_form_violations`` -- Apery set, pseudo-Frobenius set and
  Frobenius number from the closed forms, and the closed-form minimality
  check that admitted the tuple, against the brute-force oracle.
* ``euclid_violations``      -- structural invariants of the Euclidean
  table: the row equation, the three determinant identities, s/p/r'
  monotonicity (and r when d > 0), pivot bracketing, the stored pivot
  rows against the rows μ and μ + 1, and the consecutive-pair tilde
  relation with its case split at the pivot.
* ``grobner_violations``     -- the generating-set certification plus
  kernel membership of the row and pair binomials.
* ``agreement_violations``   -- the quadratic fast path against the full
  classification route: an almost-symmetric verdict with a family must be
  reproduced exactly; anything else must leave the fast path silent.

``verify_tuple`` runs all four.  The battery only applies to tuples whose
table satisfies the staircase hypothesis (callers skip the rest).
"""

from __future__ import annotations

from . import oracle
from .classify import VERDICT_ALMOST_SYMMETRIC, Classification, classify, fast_path
from .core import AagParams
from .errors import AmbiguousFastPath
from .euclid import EuclidTable, tilde_for_pair
from .grobner import certify_basis, kernel_check, row_binomials, tilde_binomials
from .pseudofrob import pf_tilde
from .staircase import apery_values, frobenius


def closed_form_violations(p: AagParams, t: EuclidTable) -> list[str]:
    """Apery / PF / Frobenius closed forms and minimality against the oracle.

    Every tuple that reaches the battery passed ``core.is_minimal``; the
    oracle's Apery table (one table serves every check here) confirms that
    no positive difference of two generators lies in S.
    """
    out = []
    rep = oracle.oracle_report(list(p.generators), p.a)
    closed_apery = sorted(apery_values(p, t))
    oracle_apery = sorted(rep.apery)
    if closed_apery != oracle_apery:
        out.append(f"apery mismatch: closed {closed_apery[:6]}... vs oracle {oracle_apery[:6]}...")
    differences = {g - g2 for g in p.generators for g2 in p.generators if g > g2}
    in_s = sorted(v for v in differences if rep.apery[v % p.a] <= v)
    if in_s:
        out.append(f"minimality mismatch: generator differences {in_s[:6]} lie in S")
    closed_pf = list(pf_tilde(p, t).pf_numbers)
    oracle_pf = list(rep.pf)
    if closed_pf != oracle_pf:
        out.append(f"pf mismatch: closed {closed_pf} vs oracle {oracle_pf}")
    closed_f = frobenius(p, t)
    oracle_f = rep.frobenius
    if closed_f != oracle_f:
        out.append(f"frobenius mismatch: closed {closed_f} vs oracle {oracle_f}")
    return out


def euclid_violations(p: AagParams, t: EuclidTable) -> list[str]:
    """Structural invariants of the (already built) Euclidean table."""
    out = []
    a, d, c, h, k = p.a, p.d, p.c, p.h, p.k
    rows = t.rows
    for row in rows:
        if row.s * d - row.p * c != row.r * a:
            out.append(f"row {row.index}: s*d - p*c != r*a")
        if row.s != row.sigma * k + row.ell * row.rho:
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
    """Generating-set certification plus row/pair kernel membership."""
    out = []
    if not certify_basis(p, t):
        out.append("basis certification failed")
    for b in row_binomials(t, p):
        if not kernel_check(b, p):
            out.append(f"row binomial not in kernel: {b}")
    for b in tilde_binomials(t, p):
        if not kernel_check(b, p):
            out.append(f"pair binomial not in kernel: {b}")
    return out


def agreement_violations(
    p: AagParams, full: Classification | None = None, t: EuclidTable | None = None
) -> list[str]:
    """Fast-path route against the full classification route.

    Pass a precomputed full-route ``Classification`` to avoid repeating it
    when the caller already has one, or the tuple's table ``t`` for
    ``classify`` to reuse.
    """
    out = []
    if full is None:
        full = classify(p, t)
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


def verify_tuple(p: AagParams, t: EuclidTable) -> list[str]:
    """All four check groups on one hypothesis-satisfying tuple."""
    out = closed_form_violations(p, t)
    out += euclid_violations(p, t)
    out += grobner_violations(p, t)
    out += agreement_violations(p, t=t)
    return out
