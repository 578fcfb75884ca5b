"""The verify battery's table checks subsume the row and pair kernel checks.

``aag verify`` does not check that the per-row and per-pair binomials
(``grobner.row_binomials``, ``grobner.tilde_binomials``) lie in the kernel,
because ``verify.euclid_violations`` implies it.  These tests corrupt the
rows of seeded tables, in the raw and in the rewritten d < 0, h = 1
presentation, and check that every corruption the kernel checks would flag
is flagged by ``euclid_violations``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from aag.core import validate_params
from aag.errors import AagError
from aag.euclid import EuclidRow, EuclidTable, build_table
from aag.grobner import kernel_check, row_binomials, tilde_binomials
from aag.verify import euclid_violations

#: Row fields that carry integers; ``q`` is None on rows 0 and 1.
FIELDS = ("index", "s", "p", "r", "q", "sigma", "rho", "ell", "r_prime")


def _seeded_tables(seed: int = 14, draws: int = 60):
    """(params, table) for seeded valid tuples, half of them d < 0, h = 1,
    each in both presentations (the two coincide unless d < 0, h = 1)."""
    rng = random.Random(seed)
    out = []
    while len(out) < 2 * draws:
        a, k, c = rng.randint(5, 60), rng.randint(2, 6), rng.randint(3, 180)
        if len(out) % 4:
            d, h = rng.choice([i for i in range(-7, 10) if i]), rng.randint(1, 3)
        else:
            d, h = rng.randint(-7, -1), 1
        try:
            pair = [validate_params(a, d, h, k, c, normalize=n) for n in (False, True)]
        except AagError:
            continue
        out += [(p, build_table(p)) for p in pair]
    return out


TABLES = _seeded_tables()


def _with_rows(t: EuclidTable, rows: tuple[EuclidRow, ...]) -> EuclidTable:
    """A copy of ``t`` whose ``rows`` reads ``rows``; the pivot fields are kept."""
    copy = dataclasses.replace(t)
    copy.__dict__["rows"] = rows
    return copy


def _corruptions(tables):
    """(params, label, original row, corrupted table) for each row of each
    table with one field moved by ±1, and with the non-canonical
    decomposition (σ − 1, ρ + k, l = 1) and the r' it implies."""
    for p, t in tables:
        rows = t.rows
        for i, row in enumerate(rows):
            bad = [
                (f"{field}{step:+d}", row._replace(**{field: getattr(row, field) + step}))
                for field in FIELDS
                if getattr(row, field) is not None
                for step in (-1, 1)
            ]
            if row.sigma >= 1:
                sigma = row.sigma - 1
                noncanonical = row._replace(
                    sigma=sigma, rho=row.rho + p.k, ell=1, r_prime=row.r + p.h * (sigma + 1)
                )
                bad.append(("non-canonical", noncanonical))
            for label, new in bad:
                yield p, f"row {i} {label}", row, _with_rows(t, rows[:i] + (new,) + rows[i + 1 :])


def _kernel_catches(p, t) -> bool:
    """Would the row and pair kernel checks flag ``t``?"""
    try:
        binomials = row_binomials(t, p) + tilde_binomials(t, p)
        return not all(kernel_check(b, p) for b in binomials)
    except AagError:
        return True


def _euclid_catches(p, t) -> bool:
    try:
        return bool(euclid_violations(p, t))
    except AagError:
        return True


def test_seeded_tables_cover_both_presentations():
    assert any(p.normalized for p, _ in TABLES)
    assert any(not p.normalized and p.d < 0 and p.h == 1 for p, _ in TABLES)
    assert all(not euclid_violations(p, t) and not _kernel_catches(p, t) for p, t in TABLES)


@pytest.mark.parametrize("presentation", ["raw", "rewritten"])
def test_euclid_checks_catch_every_corruption_the_kernel_checks_catch(presentation):
    tables = TABLES[0::2] if presentation == "raw" else TABLES[1::2]
    kernel_caught, missed = 0, []
    for p, label, _, corrupted in _corruptions(tables):
        if _kernel_catches(p, corrupted):
            kernel_caught += 1
            if not _euclid_catches(p, corrupted):
                missed.append(((p.a, p.d, p.h, p.k, p.c), label))
    assert kernel_caught > 1000
    assert missed == []


def test_non_canonical_decomposition_is_caught():
    # s = (σ − 1)k + (ρ + k) still holds, and r' = r + hσ is what the
    # non-canonical fields imply; with ρ > 0 the row binomial leaves the
    # kernel, so the table checks must reject the decomposition itself.
    seen = 0
    for p, label, row, corrupted in _corruptions(TABLES):
        if label.endswith("non-canonical"):
            assert _euclid_catches(p, corrupted), ((p.a, p.d, p.h, p.k, p.c), label)
            if row.rho > 0:
                assert _kernel_catches(p, corrupted)
                seen += 1
    assert seen > 100
