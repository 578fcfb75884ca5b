"""The three benchmark workloads: inputs, one measured pass, and the gate.

Each workload drives the package's public entry points from outside:

* ``sweep``: the reference grid scan through ``aag.cli.main(["scan",
  ...])`` on one worker.  34,816 tiny tuples with short tables, so
  per-call costs (minimality oracle, ``pf_tilde``/``phi``, table rebuilds)
  dominate.  Gate: the 7 pinned records, byte for byte.
* ``verify``: the strided battery ``aag verify --stride-a 37 --stride-c
  53 --workers 2``.  Many small-modulus oracle tables plus basis
  certification, and the only workload that forks cli pool workers.
  Gate: ``checked = 12565, mismatches = 0``.
* ``analyze_large``: 200 seeded single-tuple queries through the library
  path ``validate_params -> build_table -> frobenius, pf_tilde ->
  classify_with_fast_path``, one caller in a closed loop.  The only
  workload where the Θ(a) table and Frobenius scan and large-modulus
  oracle calls show.  Gate: every answer equals ``oracle_report``,
  computed after the timed passes.

A pass returns its wall time, the number of items it handled and the
latency of each request; ``check`` counts attempted and failed
operations over the kept outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import inputs

#: The reference sweep box (34,816 cells) and its 7 records.
SWEEP_BOX = {"a": (150, 165), "d": (-5, 10), "c": (170, 186), "k": (19, 20), "h": (1, 4)}
SWEEP_BOX_TINY = {"a": (155, 155), "d": (1, 1), "c": (170, 186), "k": (19, 20), "h": (1, 4)}
SWEEP_RECORDS = (
    '{"a":155,"d":1,"c":177,"k":20,"h":4,"verdict":"AlmostSymmetric","family":"Thm5.3-(ii)","l":null,"p":8,"sigma":1,"r":-1,"type":2,"frobenius":2168,"fast_path":false,"hypothesis_ok":true}',
    '{"a":163,"d":-2,"c":170,"k":19,"h":1,"verdict":"AlmostSymmetric","family":"Thm5.3-(i)","l":14,"p":3,"sigma":4,"r":-2,"type":6,"frobenius":668,"fast_path":false,"hypothesis_ok":true}',
    '{"a":163,"d":7,"c":179,"k":19,"h":1,"verdict":"AlmostSymmetric","family":"Thm5.4-(v)","l":null,"p":6,"sigma":3,"r":-5,"type":2,"frobenius":1198,"fast_path":false,"hypothesis_ok":true}',
    '{"a":165,"d":-2,"c":174,"k":19,"h":1,"verdict":"AlmostSymmetric","family":"Thm5.3-(i)","l":12,"p":3,"sigma":4,"r":-2,"type":8,"frobenius":680,"fast_path":false,"hypothesis_ok":true}',
    '{"a":165,"d":-1,"c":186,"k":19,"h":4,"verdict":"AlmostSymmetric","family":"Thm5.4-(iii)","l":null,"p":7,"sigma":2,"r":-8,"type":19,"frobenius":2251,"fast_path":false,"hypothesis_ok":true}',
    '{"a":165,"d":4,"c":170,"k":19,"h":1,"verdict":"AlmostSymmetric","family":"Thm5.4-(i)","l":5,"p":4,"sigma":2,"r":-4,"type":6,"frobenius":996,"fast_path":false,"hypothesis_ok":true}',
    '{"a":165,"d":7,"c":183,"k":19,"h":3,"verdict":"AlmostSymmetric","family":"Thm5.4-(iii)","l":null,"p":7,"sigma":2,"r":-7,"type":19,"frobenius":2063,"fast_path":false,"hypothesis_ok":true}',
)

VERIFY_ARGS = ["--stride-a", "37", "--stride-c", "53", "--workers", "2"]
VERIFY_ARGS_TINY = VERIFY_ARGS + ["--a-max", "80", "--c-max", "300"]
VERIFY_CHECKED, VERIFY_CHECKED_TINY = 12565, 909

ANALYZE_QUERIES, ANALYZE_QUERIES_TINY = 200, 12
ANALYZE_A_TINY = (10**3, 2 * 10**3)


@dataclass
class Pass:
    """One measured pass: wall time, items handled, per-request latencies."""

    wall_s: float
    items: int
    latencies_s: list[float]
    output: object = None
    errors: list[str] = field(default_factory=list)


def _cell_count(box: dict) -> int:
    count = 1
    for lo, hi in box.values():
        count *= hi - lo + 1
    return count


def _in_box(record: str, box: dict) -> bool:
    fields = json.loads(record)
    return all(lo <= fields[name] <= hi for name, (lo, hi) in box.items())


class Sweep:
    """The reference grid scan on one worker."""

    name = "sweep"
    rate_name = "cells_per_s"

    def __init__(self, mods: dict, out_dir, tiny: bool, corrupt: bool):
        self.cli = mods["cli"]
        self.box = SWEEP_BOX_TINY if tiny else SWEEP_BOX
        self.out = out_dir / f"sweep-records-{os.getpid()}.jsonl"
        expected = [r for r in SWEEP_RECORDS if _in_box(r, self.box)]
        if corrupt:
            expected[0] = expected[0].replace('"frobenius":', '"frobenius":1')
        self.expected = "".join(line + "\n" for line in expected).encode()

    def prepare(self, seed: int) -> list[str]:
        argv = ["scan"]
        for name, (lo, hi) in self.box.items():
            argv += [f"--{name}-min", str(lo), f"--{name}-max", str(hi)]
        return argv + ["--hypothesis-only", "--workers", "1", "--out", str(self.out)]

    def run_pass(self, argv: list[str], tracer=None) -> Pass:
        errors = []
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            code, errors = None, [traceback.format_exc()]
        wall = time.perf_counter() - start
        output = self.out.read_bytes() if code == 0 else None
        self.out.unlink(missing_ok=True)
        if code not in (0, None):
            errors.append(f"aag scan exited {code}")
        return Pass(wall, _cell_count(self.box), [wall], output, errors)

    def check(self, argv, passes: list[Pass]) -> tuple[int, int, dict]:
        expected = self.expected.splitlines()
        attempted = failed = 0
        for p in passes:
            got = (p.output or b"").splitlines()
            attempted += len(expected)
            if p.output is None:
                failed += len(expected)
                continue
            wrong = sum(1 for e, g in zip(expected, got) if e != g)
            missing = max(0, len(expected) - len(got))
            extra = max(0, len(got) - len(expected))
            failed += min(len(expected), wrong + missing + extra)
        return attempted, failed, {"cells": _cell_count(self.box), "records": len(expected)}


class Verify:
    """The strided verification battery on two workers."""

    name = "verify"
    rate_name = "checked_per_s"

    def __init__(self, mods: dict, out_dir, tiny: bool, corrupt: bool):
        self.cli = mods["cli"]
        self.args = VERIFY_ARGS_TINY if tiny else VERIFY_ARGS
        self.checked = VERIFY_CHECKED_TINY if tiny else VERIFY_CHECKED
        self.expected_checked = self.checked + (1 if corrupt else 0)

    def prepare(self, seed: int) -> list[str]:
        return ["verify", *self.args]

    def run_pass(self, argv: list[str], tracer=None) -> Pass:
        errors = []
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(argv)
        except Exception:
            code, errors = None, [traceback.format_exc()]
        wall = time.perf_counter() - start
        lines = stdout.getvalue().splitlines()
        if code != 0:
            errors.append(f"aag verify exited {code}")
        return Pass(wall, self.checked, [wall], lines[-1] if lines else None, errors)

    def check(self, argv, passes: list[Pass]) -> tuple[int, int, dict]:
        attempted = failed = 0
        expected = self.expected_checked
        for p in passes:
            attempted += expected
            try:
                report = json.loads(p.output)
                bad = report["mismatches"] + abs(report["checked"] - expected)
            except (TypeError, ValueError, KeyError):
                bad = expected
            failed += min(expected, bad)
        return attempted, failed, {"expected_checked": expected}


@dataclass(frozen=True)
class Answer:
    frobenius: int | None  # closed form, when the hypothesis holds
    type: int | None  # |PF| from pf_tilde, when the hypothesis holds
    cls_frobenius: int
    cls_type: int
    verdict: str
    hypothesis_ok: bool
    rows: int


class AnalyzeLarge:
    """Seeded single-tuple queries along the library path, closed loop."""

    name = "analyze_large"
    rate_name = "queries_per_s"

    def __init__(self, mods: dict, out_dir, tiny: bool, corrupt: bool):
        self.mods = mods
        self.tiny = tiny
        self.corrupt = corrupt
        self.expected: dict[int, tuple] = {}
        self.given_rows: dict[int, int] = {}  # rows of the table as given

    def prepare(self, seed: int) -> list[dict]:
        if self.tiny:
            return inputs.draw_queries(seed, ANALYZE_QUERIES_TINY, *ANALYZE_A_TINY)
        return inputs.draw_queries(seed, ANALYZE_QUERIES)

    def answer(self, a, d, h, k, c) -> Answer:
        """The README library path; module attributes are looked up per call."""
        m = self.mods
        p = m["core"].validate_params(a, d, h, k, c)
        t = m["euclid"].build_table(p)
        frob = typ = None
        if t.hypothesis_ok:
            frob = m["staircase"].frobenius(p, t)
            typ = m["pseudofrob"].pf_tilde(p, t).type
        cls = m["classify"].classify_with_fast_path(p)
        return Answer(frob, typ, cls.frobenius, cls.type, cls.verdict, t.hypothesis_ok, len(t.rows))

    def run_pass(self, queries: list[dict], tracer=None) -> Pass:
        answers, latencies, errors = [], [], []
        clock = time.perf_counter
        start = clock()
        for q in queries:
            if tracer is not None:
                tracer.qid = q["id"]
            begin = clock()
            try:
                answers.append(self.answer(*q["params"]))
            except Exception:
                answers.append(None)
                errors.append(f"query {q['id']} {q['params']}: {traceback.format_exc()}")
            latencies.append(clock() - begin)
        wall = clock() - start
        return Pass(wall, len(queries), latencies, answers, errors)

    def _expected(self, q: dict) -> tuple[int, int, str]:
        """(F, type, verdict) from the brute-force oracle.

        The verdict is the oracle's symmetry class, or ``OracleOnly`` where
        the table of the tuple as given (the one ``classify`` routes on)
        fails the staircase hypothesis.
        """
        if q["id"] not in self.expected:
            a, d, h, k, c = q["params"]
            gens = [a, *(h * a + i * d for i in range(1, k + 1)), c]
            rep = self.mods["oracle"].oracle_report(gens)
            raw = self.mods["core"].validate_params(
                a, d, h, k, c, normalize=False, check_minimality=False
            )
            table = self.mods["euclid"].build_table(raw)
            self.given_rows[q["id"]] = len(table.rows)
            if not table.hypothesis_ok:
                verdict = "OracleOnly"
            elif rep.symmetric:
                verdict = "Symmetric"
            elif rep.almost_symmetric:
                verdict = "AlmostSymmetric"
            else:
                verdict = "NeitherSpecial"
            frob = rep.frobenius + (1 if self.corrupt and q["id"] == 0 else 0)
            self.expected[q["id"]] = (frob, rep.type, verdict)
        return self.expected[q["id"]]

    def _correct(self, q: dict, ans: Answer | None) -> bool:
        if ans is None:
            return False
        frob, typ, verdict = self._expected(q)
        if ans.hypothesis_ok and (ans.frobenius, ans.type) != (frob, typ):
            return False
        return (ans.cls_frobenius, ans.cls_type, ans.verdict) == (frob, typ, verdict)

    def check(self, queries, passes: list[Pass]) -> tuple[int, int, dict]:
        attempted = failed = 0
        for p in passes:
            for q, ans in zip(queries, p.output):
                attempted += 1
                failed += not self._correct(q, ans)
        return attempted, failed, self.composition(queries, passes[0].output)

    def composition(self, queries, answers) -> dict:
        """Query counts by kind and route, and long-table row ranges.

        ``long_table_rows`` is the table the query builds first (after the
        h = 1, d < 0 rewrite, which shortens it); ``long_table_rows_as_given``
        is the table ``classify`` builds from the tuple as given.
        """
        kinds = [q["kind"] for q in queries]
        long_ids = [q["id"] for q in queries if q["kind"] == inputs.LONG_TABLE]
        first = [answers[i].rows for i in long_ids if answers[i] is not None]
        given = [self.given_rows[i] for i in long_ids if i in self.given_rows]

        def span(values):
            return [min(values), max(values)] if values else None

        return {
            "queries": len(queries),
            "friendly": kinds.count(inputs.FRIENDLY),
            "long_table": kinds.count(inputs.LONG_TABLE),
            "oracle_only": sum(1 for ans in answers if ans is not None and ans.verdict == "OracleOnly"),
            "long_table_rows": span(first),
            "long_table_rows_as_given": span(given),
            "a_range": span([q["params"][0] for q in queries]),
        }


WORKLOADS = {w.name: w for w in (Sweep, Verify, AnalyzeLarge)}


def print_errors(passes: list[Pass], limit: int = 3) -> None:
    errors = [e for p in passes for e in p.errors]
    for err in errors[:limit]:
        print(err, file=sys.stderr)
    if len(errors) > limit:
        print(f"... {len(errors) - limit} more errors", file=sys.stderr)
