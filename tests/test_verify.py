"""The verify battery's run checks against the row walk and the kernel checks.

``verify.euclid_violations`` checks a table run by run (``EuclidTable.runs``)
and never reads its rows.  These tests keep the row walk that it replaced as
``_reference_euclid_violations`` and corrupt the runs of seeded tables, in
the raw and in the rewritten d < 0, h = 1 presentation.  Every corruption
that the row walk or the per-row and per-pair kernel checks
(``grobner.row_binomials``, ``grobner.tilde_binomials``) flag on the
expanded rows is flagged on the runs, and every moved quotient or index is
flagged even where those see nothing.  The stored pivot rows are corrupted
too, the non-canonical decomposition among them.  Further tests pin the
pair that the ``r~ < 2`` check names, run the check up to a = 10^12 + 1
with ``rows`` refused, and corrupt the closed-form Apery values that
``closed_form_violations`` compares with the oracle's one value per residue.
"""

from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter

import pytest

from aag import oracle, verify
from aag.core import validate_params
from aag.errors import AagError
from aag.euclid import EuclidRow, EuclidTable, _Run, build_table, decompose, tilde_for_pair
from aag.grobner import kernel_check, row_binomials, tilde_binomials
from aag.staircase import apery_values
from aag.verify import closed_form_violations, euclid_violations


def _reference_euclid_violations(p, t) -> list[str]:
    """The row walk that ``euclid_violations`` replaced: every row and every
    pair of ``t.rows``."""
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


def _seeded_tables(seed: int = 14, draws: int = 150):
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


def _with_runs(t: EuclidTable, runs: tuple[_Run, ...]) -> EuclidTable:
    """A copy of ``t`` whose ``runs`` reads ``runs``, and whose ``rows``
    expand them; the pivot fields are kept."""
    copy = dataclasses.replace(t)
    copy.__dict__["runs"] = runs
    return copy


def _with_rows(t: EuclidTable, rows: tuple[EuclidRow, ...]) -> EuclidTable:
    """A copy of ``t`` whose ``rows`` reads ``rows``."""
    copy = dataclasses.replace(t)
    copy.__dict__["rows"] = rows
    return copy


def _last_row(run: _Run) -> tuple[int, int, int, int]:
    """(index, s, p, r) of the last row of ``run``."""
    n = run.count - 1
    return run.index + n, run.s + n * run.ds, run.p + n * run.dp, run.r + n * run.dr


def _run_corruptions(tables):
    """(params, label, corrupted table) for each run of each table with one
    field moved by ±1, and with moves that keep the key equation and its
    step identity: the first row or the step moved by ±(a, 0, d), the first
    row moved by ±(ds, dp, dr)."""
    for p, t in tables:
        runs = t.runs
        for n, run in enumerate(runs):
            bad = [
                (f"{field}{step:+d}", run._replace(**{field: getattr(run, field) + step}))
                for field in _Run._fields
                if getattr(run, field) is not None
                for step in (-1, 1)
            ]
            for sign in (-1, 1):
                a, d = sign * p.a, sign * p.d
                bad.append((f"row{sign:+d}*row0", run._replace(s=run.s + a, r=run.r + d)))
                bad.append((f"step{sign:+d}*row0", run._replace(ds=run.ds + a, dr=run.dr + d)))
                if run.ds:
                    shifted = run._replace(
                        s=run.s + sign * run.ds, p=run.p + sign * run.dp, r=run.r + sign * run.dr
                    )
                    bad.append((f"row{sign:+d}*step", shifted))
            for label, new in bad:
                yield p, f"run {n} {label}", _with_runs(t, runs[:n] + (new,) + runs[n + 1 :])


def _pivot_corruptions(tables):
    """(params, label, original row, corrupted table) for each stored pivot
    row of each table with one field moved by ±1, and with the
    non-canonical decomposition (σ − 1, ρ + k, l = 1) and the r' it implies."""
    for p, t in tables:
        for name in ("pivot", "after_pivot"):
            row = getattr(t, name)
            bad = [
                (f"{field}{step:+d}", row._replace(**{field: getattr(row, field) + step}))
                for field in EuclidRow._fields
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
                yield p, f"{name} {label}", row, dataclasses.replace(t, **{name: new})


def _kernel_catches(p, t) -> bool:
    """Would the row and pair kernel checks flag ``t``?"""
    try:
        binomials = row_binomials(t, p) + tilde_binomials(t, p)
        return not all(kernel_check(b, p) for b in binomials)
    except AagError:
        return True


def _reference_catches(p, t) -> bool:
    """Would the row walk flag ``t``?  A table too short to hold its pivot
    rows (an ``IndexError`` in the walk) is flagged."""
    try:
        return bool(_reference_euclid_violations(p, t))
    except (AagError, IndexError):
        return True


def _euclid_catches(p, t) -> bool:
    try:
        return bool(euclid_violations(p, t))
    except AagError:
        return True


def test_seeded_tables_cover_both_presentations():
    assert any(p.normalized for p, _ in TABLES)
    assert any(not p.normalized and p.d < 0 and p.h == 1 for p, _ in TABLES)
    for p, t in TABLES:
        assert not euclid_violations(p, t) and not _reference_euclid_violations(p, t)
        assert not _kernel_catches(p, t)


def _kinds(messages: list[str]) -> set[str]:
    """The kinds of fault that ``messages`` name: their numbers blanked."""
    return {re.sub(r"-?\d+", "#", m) for m in messages}


@pytest.mark.parametrize("presentation", ["raw", "rewritten"])
def test_euclid_checks_catch_every_corruption_the_kernel_checks_catch(presentation):
    # Flagged whenever the row walk or the kernel checks flag the expanded
    # rows, and naming every kind of fault that the row walk names.
    tables = TABLES[0::2] if presentation == "raw" else TABLES[1::2]
    caught, missed = Counter(), []
    for p, label, corrupted in _run_corruptions(tables):
        try:
            named = _kinds(_reference_euclid_violations(p, corrupted))
        except (AagError, IndexError):
            named = {"the row walk raised"}
        by_kernel = _kernel_catches(p, corrupted)
        caught["rows"] += bool(named)
        caught["kernel"] += by_kernel
        if named or by_kernel:
            found = _kinds(euclid_violations(p, corrupted))
            if not found or not named - {"the row walk raised"} <= found:
                missed.append(((p.a, p.d, p.h, p.k, p.c), label))
    assert caught["rows"] > 3000 and caught["kernel"] > 1000
    assert missed == []


def test_moves_that_keep_the_key_equation_are_caught_by_the_pair_checks():
    # These moves leave every row on the key equation, so only the pair,
    # quotient and monotonicity checks (or the pivot rows) can see them.
    caught = Counter()
    for p, label, corrupted in _run_corruptions(TABLES):
        if "*" in label and _reference_catches(p, corrupted):
            found = euclid_violations(p, corrupted)
            assert not any("s*d - p*c" in v for v in found), (label, found)
            named = [v for v in found if v.startswith("rows ") or "strictly" in v or "s_(i-1)" in v]
            assert named, label
            caught[label.split()[2]] += 1
    assert len(caught) == 6 and min(caught.values()) > 100


def test_every_pivot_row_corruption_is_caught():
    # The stored rows mu and mu + 1 against the rows rebuilt from their runs.
    seen = 0
    for p, label, _, corrupted in _pivot_corruptions(TABLES):
        assert _euclid_catches(p, corrupted), ((p.a, p.d, p.h, p.k, p.c), label)
        assert _reference_catches(p, corrupted), ((p.a, p.d, p.h, p.k, p.c), label)
        seen += 1
    for p, t in TABLES:
        for field in ("tilde_sigma", "tilde_rho", "tilde_ell", "tilde_r"):
            for step in (-1, 1):
                corrupted = dataclasses.replace(t, **{field: getattr(t, field) + step})
                assert _euclid_catches(p, corrupted), ((p.a, p.d, p.h, p.k, p.c), field, step)
                seen += 1
    assert seen > 4000


def test_non_canonical_decomposition_is_caught():
    # s = (σ − 1)k + (ρ + k) still holds, and r' = r + hσ is what the
    # non-canonical fields imply; with ρ > 0 the row binomial of that row
    # leaves the kernel, so the check must reject the decomposition itself.
    seen = 0
    for p, label, row, corrupted in _pivot_corruptions(TABLES):
        if label.endswith("non-canonical"):
            bad = getattr(corrupted, label.split()[0])
            found = euclid_violations(p, corrupted)
            assert f"row {row.index}: s decomposition broken" in found, (p, label)
            if row.rho > 0:
                assert _kernel_catches(p, _with_rows(corrupted, (bad,)))
                seen += 1
    assert seen > 50


def test_every_quotient_and_index_corruption_is_caught():
    # q through s_{i-1} = q_{i+1} s_i - s_{i+1}, index against the position.
    seen = Counter()
    for p, label, corrupted in _run_corruptions(TABLES):
        field = label.split()[2].rstrip("+-1")
        if field in ("q", "index"):
            assert _euclid_catches(p, corrupted), ((p.a, p.d, p.h, p.k, p.c), label)
            seen[field] += 1
    assert seen["q"] > 1000 and seen["index"] > 2000


def test_small_r_tilde_is_caught_on_its_own_pair():
    # Move the first row of run n (its r) so that the pair across the run's
    # start has r~ = 1, then r~ = 2; then move the run's step dr so that the
    # pairs inside it have r~ = 1, then 2.  The check fires on the first
    # such pair, and only there, exactly below 2.  Raising r or dr only
    # raises the r~ of the pair after the run.
    seen = Counter()
    for p, t in TABLES:
        runs = t.runs
        for n, run in enumerate(runs[1:], start=1):
            last, first = _last_row(runs[n - 1]), (run.index, run.s, run.p, run.r)
            r_tilde = last[3] - first[3] - p.h * ((first[1] - last[1]) // p.k)
            moves = [("start", (last[0], run.index), r_tilde, lambda x: run._replace(r=run.r + x))]
            if run.count > 1:
                inner = -run.dr - p.h * (run.ds // p.k)
                step = (run.index, run.index + 1)
                moves.append(("step", step, inner, lambda x: run._replace(dr=run.dr + x)))
            for kind, (i, j), value, move in moves:
                assert value >= 2
                for target, expected in ((1, [f"rows {i},{j}: r~ < 2"]), (2, [])):
                    corrupted = _with_runs(t, runs[:n] + (move(value - target),) + runs[n + 1 :])
                    fired = [v for v in euclid_violations(p, corrupted) if v.endswith("r~ < 2")]
                    assert fired == expected, ((p.a, p.d, p.h, p.k, p.c), n, kind, target)
                    reference = _reference_euclid_violations(p, corrupted)
                    assert [v for v in reference if v.endswith("r~ < 2")][:1] == expected
                seen[kind] += 1
    assert seen["start"] > 300 and seen["step"] > 100


def test_the_check_is_empty_on_the_verify_grid(verify_grid, monkeypatch):
    def refuse(table):
        raise AssertionError("the run check read the table's rows")

    monkeypatch.setattr(EuclidTable, "rows", property(refuse))
    assert len(verify_grid) > 20_000
    assert [(p.a, p.d, p.h, p.k, p.c) for p, t in verify_grid if euclid_violations(p, t)] == []


class TestKnownCost:
    @pytest.fixture(autouse=True)
    def refuse_rows(self, monkeypatch):
        def refuse(table):
            raise AssertionError("the run check read the table's rows")

        monkeypatch.setattr(EuclidTable, "rows", property(refuse))

    @pytest.mark.parametrize("a", [10**3, 10**6, 10**9, 10**12 + 1])
    @pytest.mark.parametrize("shape", ["long", "friendly"])
    def test_checks_the_runs_at_any_scale(self, a, shape, monkeypatch):
        # (a, 1, 4, 20, 5a − 1) has a + 1 rows in 3 runs; (a, 7, 2, 5,
        # 3a + 1) has a short table.  The pair checks run at most twice per
        # run, whatever the row count.
        pairs = Counter()
        check = verify._pair_violations

        def counted(*args):
            pairs["calls"] += 1
            return check(*args)

        monkeypatch.setattr(verify, "_pair_violations", counted)
        d, h, k, c = (1, 4, 20, 5 * a - 1) if shape == "long" else (7, 2, 5, 3 * a + 1)
        p = validate_params(a, d, h, k, c)
        t = build_table(p)
        assert euclid_violations(p, t) == []
        rows = sum(run.count for run in t.runs)
        assert 0 < pairs["calls"] <= 2 * len(t.runs) <= 4 * a.bit_length()
        assert rows == a + 1 if shape == "long" else rows < 4 * a.bit_length()


def _apery_corruptions(values: list[int], a: int, rng: random.Random):
    """A value dropped, a value moved by a (same residue), and one residue
    duplicated while another is dropped (every value still an Apery one)."""
    i, j = rng.sample(range(len(values)), 2)
    dropped = values[:i] + values[i + 1 :]
    shifted = values.copy()
    shifted[i] += a
    duplicated = values.copy()
    duplicated[j] = values[i]
    return {"drop": dropped, "shift": shifted, "duplicate": duplicated}


def test_every_apery_corruption_is_caught(monkeypatch):
    rng = random.Random(19)
    caught = Counter()
    for p, t in TABLES:
        if not t.hypothesis_ok or p.a < 2:
            continue
        rep = oracle.oracle_report(list(p.generators), p.a)
        values = apery_values(p, t)
        assert closed_form_violations(p, t, rep) == []
        for kind, corrupt in _apery_corruptions(values, p.a, rng).items():
            monkeypatch.setattr(verify, "apery_values", lambda params, table: corrupt)
            found = closed_form_violations(p, t, rep)
            assert [m for m in found if m.startswith("apery mismatch")], (kind, p)
            caught[kind] += 1
        monkeypatch.undo()
    assert min(caught.values()) > 40 and len(caught) == 3
