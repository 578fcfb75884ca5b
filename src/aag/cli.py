"""Command-line interface for the AAG toolkit.

Subcommands
-----------
analyze   one tuple in depth (table, Apery data, PF set, verdict, family)
scan      a parameter grid -> one record per almost-symmetric tuple
          (or per analyzed tuple with ``--all``), JSON-lines or CSV; the
          default grid is the reference sweep box, so ``aag scan
          --hypothesis-only`` reproduces the reference sweep
verify    cross-check battery (closed forms, table invariants, binomial
          basis, fast-path agreement) over a grid, against the oracle
table     just the negative-remainder division table for one tuple
oracle    brute-force report for an explicit generator list

Exit codes: 0 success, 1 verification mismatch, 2 validation error,
64 usage error.  ``AAG_MAX_A`` caps the oracle modulus (see ``oracle``), so
it limits the routes that need the oracle (``OracleOnly`` tuples, ``aag
oracle``, ``--oracle-verify`` and ``aag verify``); minimality is checked in
closed form.  It also caps the table rows that ``table``, ``analyze`` and
``verify`` read (not ``scan``), the ``--apery`` dump and k + 2 generators.
An invalid ``AAG_MAX_A`` exits 2 before any command runs.

Serialization: scans emit JSON-lines (or CSV with the fixed header
``a,d,c,k,h,verdict,family,l,p,sigma,r,type,frobenius,fast_path,
hypothesis_ok``); ``analyze`` emits a single JSON document.  Integers
whose magnitude exceeds 2^53 are serialized as decimal strings so that
consumers reading doubles never lose precision.  Scan output is
deterministic: records appear in lexicographic (a, d, c, k, h) order and
are byte-identical across runs and worker counts.

The ``verdict`` and ``family`` strings emitted here are part of the
output schema (see ``classify``); they are identifiers, not prose.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import Counter
from dataclasses import asdict
from itertools import product
from multiprocessing import get_context
from typing import NamedTuple

from . import oracle
from .classify import (
    VERDICT_ALMOST_SYMMETRIC,
    VERDICT_NEITHER,
    VERDICT_ORACLE_ONLY,
    VERDICT_SYMMETRIC,
    Classification,
    classify,
)
from .core import AagParams, is_minimal, validate_params
from .errors import AagError, NonsenseInput
from .euclid import EuclidTable, build_table, format_table
from .grobner import families_BCD, family_A
from .staircase import apery_values, iter_apery_points
from .verify import verify_tuple

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64

#: Largest integer magnitude serialized as a JSON number.
_SAFE_INT = 1 << 53

#: Fixed field order for scan records; doubles as the CSV header.
RECORD_FIELDS = (
    "a",
    "d",
    "c",
    "k",
    "h",
    "verdict",
    "family",
    "l",
    "p",
    "sigma",
    "r",
    "type",
    "frobenius",
    "fast_path",
    "hypothesis_ok",
)


def _enc(obj):
    """Recursively rewrite ints with magnitude > 2^53 as decimal strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _SAFE_INT else obj
    if isinstance(obj, (list, tuple)):
        return [_enc(v) for v in obj]
    if isinstance(obj, dict):
        return {key: _enc(v) for key, v in obj.items()}
    return obj


def _json_line(record: dict) -> str:
    return json.dumps(_enc(record), separators=(",", ":"))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


# ---------------------------------------------------------------------------
# scan / verify grids
# ---------------------------------------------------------------------------


class Grid(NamedTuple):
    """A rectangular grid of tuples: one range per parameter, strides applied.

    Picklable so grid chunks can be fanned out to worker processes; the
    chunking is by (a, d) pair, submitted in lexicographic order, so the
    merged record stream is identical for any worker count.
    """

    a: range
    d: range
    c: range
    k: range
    h: range


def _grid(args, *, stride_a: int = 1, stride_c: int = 1) -> Grid:
    """The inclusive ``--NAME-min``/``--NAME-max`` ranges of the parsed arguments."""
    return Grid(
        a=range(args.a_min, args.a_max + 1, stride_a),
        d=range(args.d_min, args.d_max + 1),
        c=range(args.c_min, args.c_max + 1, stride_c),
        k=range(args.k_min, args.k_max + 1),
        h=range(args.h_min, args.h_max + 1),
    )


def iter_cells(grid: Grid, a: int, d: int, skips: Counter, *, reject):
    """Yield (params, table) for the kept (c, k, h) cells of one (a, d) pair.

    Each cell is validated as given, with no d < 0, h = 1 rewrite, so
    ``scan`` and ``verify`` answer in the presentation of the record.  A
    cell is dropped, and counted in ``skips`` under the reason, when it
    fails validation (the error's class name), when ``reject(p, t)`` names
    a reason, or when it is not minimal; the minimality check runs last, so
    rejected cells never pay for it.
    """
    for c, k, h in product(grid.c, grid.k, grid.h):
        try:
            p = validate_params(a, d, h, k, c, normalize=False, check_minimality=False)
        except AagError as exc:
            skips[type(exc).__name__] += 1
            continue
        t = build_table(p)
        reason = reject(p, t)
        if reason is None and not is_minimal(p):
            reason = "NotMinimal"
        if reason is not None:
            skips[reason] += 1
            continue
        yield p, t


def _oracle_agrees(p: AagParams, cls: Classification) -> bool:
    """Does the oracle confirm the verdict's class, type, Frobenius number and PF set?

    An ``OracleOnly`` answer is the oracle's own, so it agrees by
    construction and no second oracle report is built for it.
    """
    if cls.verdict == VERDICT_ORACLE_ONLY:
        return True
    rep = oracle.oracle_report(list(p.generators))
    symmetry_ok = {
        VERDICT_SYMMETRIC: rep.symmetric,
        VERDICT_ALMOST_SYMMETRIC: rep.almost_symmetric,
        VERDICT_NEITHER: not rep.almost_symmetric,
    }[cls.verdict]
    return symmetry_ok and (rep.frobenius, rep.type, rep.pf) == (cls.frobenius, cls.type, cls.pf)


def _scan_cell(p: AagParams, t: EuclidTable, *, oracle_verify: bool, emit_all: bool):
    """Classify one validated cell -> its record, or None when it is not emitted."""
    cls = classify(p, t)
    if cls.verdict != VERDICT_ALMOST_SYMMETRIC and not emit_all:
        return None
    solved = cls.solved or {}
    record = {
        "a": p.a,
        "d": p.d,
        "c": p.c,
        "k": p.k,
        "h": p.h,
        "verdict": cls.verdict,
        "family": cls.family,
        "l": solved.get("l"),
        "p": solved.get("p"),
        "sigma": solved.get("sigma"),
        "r": solved.get("r"),
        "type": cls.type,
        "frobenius": cls.frobenius,
        "fast_path": cls.fast_path_used,
        "hypothesis_ok": t.hypothesis_ok,
    }
    if oracle_verify:
        record["oracle_agrees"] = _oracle_agrees(p, cls)
    return record


def _scan_chunk(task):
    """Worker: one (a, d) pair -> (records, skip reasons plus ``"analyzed"``)."""
    grid, a, d, hypothesis_only, oracle_verify, emit_all = task

    def below_hypothesis(p, t):
        return "HypothesisFiltered" if hypothesis_only and t.pivot.r_prime < p.h else None

    records: list[dict] = []
    tally: Counter = Counter()
    for p, t in iter_cells(grid, a, d, tally, reject=below_hypothesis):
        try:
            record = _scan_cell(p, t, oracle_verify=oracle_verify, emit_all=emit_all)
        except NonsenseInput as exc:  # the oracle past its cap; other errors end the scan
            tally[type(exc).__name__] += 1
            continue
        tally["analyzed"] += 1
        if record is not None:
            records.append(record)
    return records, tally


def _verify_reject(p: AagParams, t: EuclidTable):
    if p.k < 2:  # pf_tilde's closed form needs k >= 2
        return "KBelowTwo"
    return None if t.hypothesis_ok else "HypothesisViolated"


def _verify_chunk(task):
    """Worker: the battery on one (a, d) pair -> (first failures, skip
    reasons plus ``"checked"`` and ``"mismatches"``)."""
    grid, a, d = task
    failures: list[tuple[tuple[int, int, int, int, int], list[str]]] = []
    tally: Counter = Counter()
    for p, t in iter_cells(grid, a, d, tally, reject=_verify_reject):
        problems = verify_tuple(p, t)
        tally["checked"] += 1
        if problems:
            tally["mismatches"] += 1
            if len(failures) < 5:
                failures.append(((a, d, p.c, p.k, p.h), problems))
    return failures, tally


def _merge_chunks(results) -> tuple[list, Counter]:
    """Concatenate the workers' items in submission order and add their tallies."""
    items: list = []
    tally: Counter = Counter()
    for chunk_items, chunk_tally in results:
        items.extend(chunk_items)
        tally.update(chunk_tally)
    return items, tally


def _run_chunks(worker, tasks, workers: int) -> list:
    """Map worker over tasks, preserving submission order exactly."""
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with get_context().Pool(min(workers, len(tasks))) as pool:
        return pool.map(worker, tasks, chunksize=1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_scan(args) -> int:
    grid = _grid(args)
    print(f"grid: {math.prod(map(len, grid))} tuples", file=sys.stderr)

    try:
        stream = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print(f"aag scan: error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    try:
        flags = (args.hypothesis_only, args.oracle_verify, args.all)
        tasks = [(grid, a, d, *flags) for a, d in product(grid.a, grid.d)]
        records, skips = _merge_chunks(_run_chunks(_scan_chunk, tasks, args.workers))
        analyzed = skips.pop("analyzed", 0)

        if args.format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(RECORD_FIELDS)
            for record in records:
                writer.writerow([_csv_cell(record[f]) for f in RECORD_FIELDS])
        else:
            for record in records:
                stream.write(_json_line(record) + "\n")
        stream.flush()
    finally:
        if args.out:
            stream.close()

    skipped = sum(skips.values())
    print(
        f"emitted {len(records)} records; analyzed {analyzed}; skipped {skipped}",
        file=sys.stderr,
    )
    if args.explain_skips and skips:
        print("skips by reason:", file=sys.stderr)
        for reason in sorted(skips):
            print(f"  {reason}: {skips[reason]}", file=sys.stderr)

    disagreements = [r for r in records if r.get("oracle_agrees") is False]
    if disagreements:
        first = disagreements[0]
        coords = {f: first[f] for f in ("a", "d", "c", "k", "h")}
        print(f"oracle disagreement at {coords}", file=sys.stderr)
        print(f"{len(disagreements)} oracle disagreements", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args) -> int:
    grid = _grid(args, stride_a=args.stride_a, stride_c=args.stride_c)
    print(f"grid: {math.prod(map(len, grid))} tuples", file=sys.stderr)

    tasks = [(grid, a, d) for a, d in product(grid.a, grid.d)]
    failures, tally = _merge_chunks(_run_chunks(_verify_chunk, tasks, args.workers))
    checked = tally.pop("checked", 0)
    mismatches = tally.pop("mismatches", 0)
    skipped = sum(tally.values())

    if failures:
        (a, d, c, k, h), problems = failures[0]
        print(f"first failing tuple: a={a} d={d} c={c} k={k} h={h}", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
    print(
        json.dumps({"checked": checked, "skipped": skipped, "mismatches": mismatches})
    )
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _load_tuple(args, *, normalize: bool = True) -> tuple[AagParams, EuclidTable]:
    """Validate the --a/--d/--h/--k/--c tuple and build its table."""
    p = validate_params(args.a, args.d, args.h, args.k, args.c, normalize=normalize)
    return p, build_table(p)


def _analyze_report(args, p: AagParams, t: EuclidTable) -> dict:
    cls = classify(p, t)
    report = {
        "params": {"a": args.a, "d": args.d, "h": args.h, "k": args.k, "c": args.c},
        "presentation": {
            "a": p.a,
            "d": p.d,
            "h": p.h,
            "k": p.k,
            "c": p.c,
            "generators": list(p.generators),
            "normalized": p.normalized,
        },
        "table": {
            "rows": [[row.index, row.s, row.p, row.r, row.r_prime, row.q] for row in t.rows],
            "mu": t.mu,
            "tilde": {
                "sigma": t.tilde_sigma,
                "rho": t.tilde_rho,
                "ell": t.tilde_ell,
                "r": t.tilde_r,
            },
        },
        "hypothesis_ok": t.hypothesis_ok,
        "frobenius": cls.frobenius,
        "type": cls.type,
        "pf": list(cls.pf),
        "case_trace": cls.case_trace,
        "verdict": cls.verdict,
        "family": cls.family,
        "solved": cls.solved,
        "fast_path_used": cls.fast_path_used,
    }
    if args.oracle_verify:
        report["oracle_agrees"] = _oracle_agrees(p, cls)
    return report


def cmd_analyze(args) -> int:
    p, t = _load_tuple(args)
    if args.apery:
        cap = oracle.max_modulus()
        if p.a > cap:
            # One line per Apery element, a lines, built as one list.
            raise NonsenseInput(
                f"--apery prints a = {p.a} lines, above the cap {cap} (set AAG_MAX_A to raise it)"
            )
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("y", "z", "phi"))
        for pt, value in zip(iter_apery_points(t), apery_values(p, t)):
            writer.writerow((pt.y, pt.z, value))
        return EXIT_OK
    if args.grobner:
        for binomial in family_A(p) + families_BCD(p, t):
            print(binomial)
        return EXIT_OK

    report = _analyze_report(args, p, t)
    if args.json:
        print(json.dumps(_enc(report), indent=2))
        return EXIT_OK

    given = report["params"]
    print(
        "tuple: a={a} d={d} h={h} k={k} c={c}".format(**given)
        + ("  (rewritten to a={0} d={1})".format(p.a, p.d) if p.normalized else "")
    )
    print("generators: " + " ".join(str(g) for g in p.generators))
    print(format_table(t))
    print(f"hypothesis (r' >= h at pivot, or k | s_mu): {'holds' if t.hypothesis_ok else 'fails'}")
    print(f"frobenius: {report['frobenius']}")
    pf_str = " ".join(str(v) for v in report["pf"])
    print(f"pf: {pf_str}  (type {report['type']})")
    if report["case_trace"]:
        print(f"trace: {report['case_trace']}")
    print(f"verdict: {report['verdict']}")
    if report["family"] is not None:
        solved = " ".join(f"{key}={val}" for key, val in sorted(report["solved"].items()))
        print(f"family: {report['family']}  ({solved})")
    print(f"fast path used: {'yes' if report['fast_path_used'] else 'no'}")
    return EXIT_OK


def cmd_table(args) -> int:
    _, t = _load_tuple(args, normalize=not args.raw)
    print(format_table(t))
    print(
        f"tilde: sigma={t.tilde_sigma} rho={t.tilde_rho} "
        f"ell={t.tilde_ell} r={t.tilde_r}"
    )
    print(f"hypothesis (r' >= h at pivot, or k | s_mu): {'holds' if t.hypothesis_ok else 'fails'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        gens = [int(part) for part in args.gens.split(",")]
    except ValueError:
        raise AagError(f"--gens must be comma-separated integers, got {args.gens!r}")
    rep = oracle.oracle_report(gens, args.modulus)
    print(json.dumps(_enc(asdict(rep)), separators=(",", ":")))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 64 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """argparse type for counts and strides: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_tuple_args(parser) -> None:
    parser.add_argument("--a", type=int, required=True, help="multiple generator a")
    parser.add_argument("--d", type=int, required=True, help="common difference d (nonzero)")
    parser.add_argument("--h", type=int, required=True, help="multiplier h")
    parser.add_argument("--k", type=int, required=True, help="arithmetic length k")
    parser.add_argument("--c", type=int, required=True, help="extra generator c")


def _add_grid_args(parser, defaults) -> None:
    for name, (lo, hi) in defaults.items():
        parser.add_argument(f"--{name}-min", type=int, default=lo, help=f"low end of {name} range (inclusive)")
        parser.add_argument(f"--{name}-max", type=int, default=hi, help=f"high end of {name} range (inclusive)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="aag",
        description="Almost-arithmetic numerical semigroups with one extra generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one tuple in depth")
    _add_tuple_args(analyze)
    analyze.add_argument("--oracle-verify", action="store_true", help="cross-check against the brute-force oracle")
    mode = analyze.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="emit a single JSON document")
    mode.add_argument("--apery", action="store_true", help="dump Apery (y,z,phi) triples as CSV")
    mode.add_argument("--grobner", action="store_true", help="print the binomial basis, one per line")
    analyze.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan", help="scan a parameter grid and emit records")
    _add_grid_args(
        scan,
        {"a": (150, 165), "d": (-5, 10), "c": (170, 186), "k": (19, 20), "h": (1, 4)},
    )
    scan.add_argument("--format", choices=("json-lines", "csv"), default="json-lines")
    scan.add_argument("--out", help="write records to this file (default: stdout)")
    scan.add_argument("--workers", type=_positive_int, default=1, help="parallel worker processes")
    scan.add_argument(
        "--hypothesis-only",
        action="store_true",
        help=(
            "drop tuples whose pivot has r' < h before analysis; stricter than the "
            "staircase hypothesis, which also holds when k | s_mu"
        ),
    )
    scan.add_argument("--oracle-verify", action="store_true", help="cross-check every record against the oracle")
    scan.add_argument("--all", action="store_true", help="emit every analyzed tuple, not just almost-symmetric ones")
    scan.add_argument("--explain-skips", action="store_true", help="itemize skip reasons on stderr")
    scan.set_defaults(func=cmd_scan)

    verify = sub.add_parser("verify", help="run the verification battery over a grid")
    _add_grid_args(
        verify,
        {"a": (2, 400), "d": (-9, 9), "c": (2, 600), "k": (3, 6), "h": (1, 3)},
    )
    verify.add_argument("--stride-a", type=_positive_int, default=1, help="subsample a by this step")
    verify.add_argument("--stride-c", type=_positive_int, default=1, help="subsample c by this step")
    verify.add_argument("--workers", type=_positive_int, default=1, help="parallel worker processes")
    verify.set_defaults(func=cmd_verify)

    table = sub.add_parser("table", help="print the division table for one tuple")
    _add_tuple_args(table)
    table.add_argument("--raw", action="store_true", help="skip the d<0, h=1 rewrite")
    table.set_defaults(func=cmd_table)

    orc = sub.add_parser("oracle", help="brute-force report for explicit generators")
    orc.add_argument("--gens", required=True, help="comma-separated generator list")
    orc.add_argument("--modulus", type=int, default=None, help="Apery modulus, an element of the semigroup (default: smallest generator)")
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        oracle.max_modulus()  # an invalid AAG_MAX_A ends the run once, not per cell
        return args.func(args)
    except AagError as exc:
        print(json.dumps({"error": type(exc).__name__, "reason": str(exc)}))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
