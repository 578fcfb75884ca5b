"""CLI contract tests: exit codes, record schema, determinism, dumps."""

import dataclasses
import json
import math
import os
import pickle
import re
import shlex
import subprocess
import sys
from collections import Counter
from itertools import product
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import aag
import aag.verify
from aag import oracle, pseudofrob
from aag.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RECORD_FIELDS,
    Grid,
    _build_parser,
    _enc,
    _scan_chunk,
    _verify_chunk,
    _verify_reject,
    iter_cells,
    main,
)
from aag.classify import classify
from aag.core import validate_params
from aag.errors import AagError, InternalDispatchGap
from aag.euclid import build_table
from aag.staircase import frobenius
from aag.verify import closed_form_violations, verify_tuple

SCHEMA = json.loads(
    files("aag").joinpath("schemas/scan_record.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

EX1 = ("--a", "155", "--d", "1", "--h", "4", "--k", "20", "--c", "177")
# Rewritten by validation to (125, 2, 1, 19, 170).
EX2 = ("--a", "163", "--d=-2", "--h", "1", "--k", "19", "--c", "170")

# Small grid that contains a mix of valid, invalid and hypothesis-failing
# tuples; used for scan/verify round trips.
SMALL_GRID = (
    "--a-min", "10", "--a-max", "25",
    "--d-min", "-2", "--d-max", "2",
    "--c-min", "5", "--c-max", "30",
    "--k-min", "3", "--k-max", "3",
    "--h-min", "1", "--h-max", "2",
)

# The reference sweep box of acceptance criterion 1.
SWEEP_BOX = (
    "--a-min", "150", "--a-max", "165",
    "--d-min", "-5", "--d-max", "10",
    "--c-min", "170", "--c-max", "186",
    "--k-min", "19", "--k-max", "20",
    "--h-min", "1", "--h-max", "4",
)


def _off_by_one_frobenius(p, t):
    """A deliberately wrong closed-form Frobenius number."""
    return frobenius(p, t) + 1


def _break_frobenius(monkeypatch):
    """Make the closed-form Frobenius number the battery compares off by one:
    the one ``classify`` reports for a k >= 3 tuple, and ``verify``'s own
    ``frobenius`` for a k = 2 one.  (``classify`` itself refuses a Frobenius
    number that is not its largest PF number, so it is broken downstream.)"""

    def off_by_one_classify(p, t):
        full = classify(p, t)
        return dataclasses.replace(full, frobenius=full.frobenius + 1)

    monkeypatch.setattr(aag.verify, "classify", off_by_one_classify)
    monkeypatch.setattr(aag.verify, "frobenius", _off_by_one_frobenius)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_tuple_flags_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a", "5"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", *EX1, "--fast"],
            ["scan", "--fast-only"],
            ["verify", "--self-test-invert"],
        ],
        ids=["analyze-fast", "scan-fast-only", "verify-self-test-invert"],
    )
    def test_removed_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--stride-a", "--stride-c"])
    def test_zero_stride_is_usage_error(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, "0"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["scan", "verify"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, command, workers):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", workers])
        assert exc.value.code == EXIT_USAGE

    def test_unwritable_out_is_usage_error_before_scanning(self, capsys, tmp_path, monkeypatch):
        def no_scan(task):
            raise AssertionError("a cell was scanned")

        monkeypatch.setattr("aag.cli._scan_chunk", no_scan)
        missing = tmp_path / "nonexistent" / "x.jsonl"
        code, out, err = run_cli(capsys, "scan", *SMALL_GRID, "--out", str(missing))
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[1:] == [
            f"aag scan: error: cannot write --out {missing}: No such file or directory"
        ]

    def test_verify_runs_through_the_module_level_worker(self, capsys, monkeypatch):
        # The worker is looked up on the module at call time, so a wrapper
        # installed there (as a tracer does) sees every chunk.
        seen = []

        def fake_chunk(task):
            seen.append(task[1:3])
            return [], Counter(checked=1)

        monkeypatch.setattr("aag.cli._verify_chunk", fake_chunk)
        code, out, _ = run_cli(capsys, "verify", *SMALL_GRID)
        assert code == EXIT_OK
        assert seen == [(a, d) for a in range(10, 26) for d in range(-2, 3)]
        assert json.loads(out) == {"checked": len(seen), "skipped": 0, "mismatches": 0}

    def test_gcd_violation_exits_2_with_reason(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--a", "6", "--d", "2", "--h", "1", "--k", "3", "--c", "7"
        )
        assert code == EXIT_VALIDATION
        doc = json.loads(out)
        assert doc["error"] == "GcdViolation"
        assert "gcd(a,d)" in doc["reason"] and "2" in doc["reason"]

    @pytest.mark.parametrize("command", ["scan", "verify"])
    @pytest.mark.parametrize("value", ["banana", "0"])
    def test_invalid_max_a_exits_2_once(self, capsys, monkeypatch, command, value):
        # Read once before the run, not once per cell as a skip reason.
        monkeypatch.setenv("AAG_MAX_A", value)
        code, out, err = run_cli(capsys, command, *SMALL_GRID)
        assert code == EXIT_VALIDATION
        (line,) = out.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "NonsenseInput" and "AAG_MAX_A" in doc["reason"]
        assert err == ""

    def test_bad_oracle_gens_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--gens", "10,x")
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "AagError"

    @pytest.mark.parametrize("gens", ["10,,17", "10,17,", "", ","])
    def test_empty_gens_tokens_exit_2(self, capsys, gens):
        code, out, _ = run_cli(capsys, "oracle", "--gens", gens)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "AagError"

    def test_gens_tolerate_spaces(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--gens", "10, 17, 24, 31, 15")
        assert code == EXIT_OK
        assert json.loads(out)["frobenius"] == 53


class TestAnalyze:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *EX1, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["params"] == {"a": 155, "d": 1, "h": 4, "k": 20, "c": 177}
        assert doc["hypothesis_ok"] is True
        assert doc["frobenius"] == 2168
        assert doc["type"] == 2
        assert doc["pf"] == [1084, 2168]
        assert doc["verdict"] == "AlmostSymmetric"
        assert doc["family"] == "Thm5.3-(ii)"
        assert doc["solved"] == {"sigma": 1, "p": 8, "r": -1}
        assert doc["fast_path_used"] is False
        assert len(doc["presentation"]["generators"]) == 22

    def test_oracle_verify_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *EX1, "--oracle-verify", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["fast_path_used"] is False
        assert doc["oracle_agrees"] is True
        assert doc["family"] == "Thm5.3-(ii)"

    def test_k_below_three_takes_oracle_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--a", "3", "--d", "1", "--h", "1", "--k", "1", "--c", "5",
            "--json", "--oracle-verify",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] == "OracleOnly"
        assert doc["pf"] == [1, 2] and doc["case_trace"] is None
        assert (doc["type"], doc["frobenius"]) == (2, 2)
        assert doc["oracle_agrees"] is True

    @pytest.mark.parametrize("flags,calls", [((), 1), (("--oracle-verify",), 1)])
    def test_oracle_only_builds_one_report_itself(self, capsys, monkeypatch, flags, calls):
        # The PF list comes from classify's OracleOnly report, and
        # --oracle-verify does not ask the oracle to confirm its own answer.
        built = []
        report = oracle.oracle_report

        def counting_report(*args, **kwargs):
            built.append(args)
            return report(*args, **kwargs)

        monkeypatch.setattr(oracle, "oracle_report", counting_report)
        code, out, _ = run_cli(
            capsys, "analyze", "--a", "3", "--d", "1", "--h", "1", "--k", "1", "--c", "5",
            "--json", *flags,
        )
        assert code == EXIT_OK
        assert json.loads(out)["pf"] == [1, 2]
        assert len(built) == calls

    @pytest.mark.parametrize(
        "tup,flags",
        [(tup, flags) for tup in (EX1, EX2) for flags in ((), ("--json",))],
        ids=["flags0", "flags1", "rewritten-flags0", "rewritten-flags1"],
    )
    def test_pf_tilde_runs_once(self, capsys, monkeypatch, tup, flags):
        # The dispatch trace comes with classify's answer, not from a second
        # run, also on a rewritten d < 0, h = 1 tuple.
        calls = []
        pf_tilde = pseudofrob.pf_tilde

        def counting_pf_tilde(*args):
            calls.append(args)
            return pf_tilde(*args)

        for module in (pseudofrob, aag.classify, aag.cli, aag.verify):
            if hasattr(module, "pf_tilde"):
                monkeypatch.setattr(module, "pf_tilde", counting_pf_tilde)
        code, out, _ = run_cli(capsys, "analyze", *tup, *flags)
        assert code == EXIT_OK
        assert "PF1: clause" in out
        assert len(calls) == 1

    def test_trace_of_a_rewritten_tuple_names_the_shown_table(self, capsys):
        # (163, -2, 1, 19, 170) is shown as its rewrite (125, 2, 1, 19, 170).
        code, out, _ = run_cli(
            capsys, "analyze", "--a", "163", "--d=-2", "--h", "1", "--k", "19",
            "--c", "170", "--json",
        )
        assert code == EXIT_OK
        p = validate_params(163, -2, 1, 19, 170)
        assert json.loads(out)["case_trace"] == pseudofrob.pf_tilde(p, build_table(p)).case_trace

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *EX1)
        assert code == EXIT_OK
        assert "verdict: AlmostSymmetric" in out
        assert "frobenius: 2168" in out
        assert "family: Thm5.3-(ii)" in out
        assert "<- mu" in out

    def test_normalized_presentation_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--a", "163", "--d=-2", "--h", "1", "--k", "19",
            "--c", "170", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["params"]["a"] == 163 and doc["params"]["d"] == -2
        assert doc["presentation"] == {
            "a": 125, "d": 2, "h": 1, "k": 19, "c": 170,
            "generators": doc["presentation"]["generators"], "normalized": True,
        }
        assert doc["family"] == "Thm5.3-(i)"
        assert doc["frobenius"] == 668

    def test_apery_dump_is_csv_of_triples(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *EX1, "--apery")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "y,z,phi"
        assert lines[1] == "0,0,0"
        assert len(lines) == 1 + 155  # one triple per Apery element
        values = sorted(int(line.split(",")[2]) for line in lines[1:])
        gens = [155] + [4 * 155 + i for i in range(1, 21)] + [177]
        assert values == sorted(oracle.apery_oracle(gens, 155))

    def test_apery_dump_above_the_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("AAG_MAX_A", "154")
        code, out, _ = run_cli(capsys, "analyze", *EX1, "--apery")
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "NonsenseInput"
        # A tuple outside the hypothesis is refused before the CSV header.
        tuple_ = ("--a", "10", "--d", "1", "--h", "2", "--k", "3", "--c", "17")
        code, out, _ = run_cli(capsys, "analyze", *tuple_, "--apery")
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "HypothesisViolated"

    def test_grobner_dump_format_and_count(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *EX1, "--grobner")
        assert code == EXIT_OK
        lines = out.splitlines()
        k = 20
        assert sum(line.endswith("[A]") for line in lines) == k * (k - 1) // 2
        assert all(" - " in line and line[-3:] in ("[A]", "[B]", "[C]", "[D]") for line in lines)
        assert any(line.endswith("[D]") for line in lines)

    def test_json_and_apery_are_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *EX1, "--json", "--apery"])
        assert exc.value.code == EXIT_USAGE


class TestScan:
    def test_records_validate_against_schema(self, capsys):
        code, out, err = run_cli(capsys, "scan", *SMALL_GRID, "--all")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert records, "expected at least one analyzed record"
        for record in records:
            VALIDATOR.validate(record)
            assert list(record) == list(RECORD_FIELDS)
        assert "grid: 4160 tuples" in err

    def test_byte_identical_across_worker_counts(self, capsys):
        _, out1, _ = run_cli(capsys, "scan", *SMALL_GRID, "--all")
        _, out3, _ = run_cli(capsys, "scan", *SMALL_GRID, "--all", "--workers", "3")
        assert out1 == out3
        assert out1  # non-empty

    def test_records_sorted_lexicographically(self, capsys):
        _, out, _ = run_cli(capsys, "scan", *SMALL_GRID, "--all")
        keys = [
            (r["a"], r["d"], r["c"], r["k"], r["h"])
            for r in map(json.loads, out.splitlines())
        ]
        assert keys == sorted(keys)

    def test_csv_header_is_fixed(self, capsys):
        code, out, _ = run_cli(capsys, "scan", *SMALL_GRID, "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "a,d,c,k,h,verdict,family,l,p,sigma,r,type,frobenius,fast_path,hypothesis_ok"

    def test_empty_range_yields_empty_dataset(self, capsys):
        code, out, err = run_cli(
            capsys, "scan",
            "--a-min", "10", "--a-max", "9",
            "--d-min", "1", "--d-max", "1",
            "--c-min", "5", "--c-max", "5",
            "--k-min", "3", "--k-max", "3",
            "--h-min", "1", "--h-max", "1",
        )
        assert code == EXIT_OK
        assert out == ""
        assert "grid: 0 tuples" in err

    def test_default_grid_is_the_reference_sweep(self, capsys):
        # `aag scan --hypothesis-only` alone reproduces the reference sweep.
        default = run_cli(capsys, "scan", "--hypothesis-only", "--workers", "2")
        boxed = run_cli(capsys, "scan", *SWEEP_BOX, "--hypothesis-only", "--workers", "2")
        assert default == boxed
        code, out, err = default
        assert code == EXIT_OK
        assert len(out.splitlines()) == 7
        assert err.splitlines()[0] == "grid: 34816 tuples"

    def test_default_scan_emits_only_almost_symmetric(self, capsys):
        _, out, _ = run_cli(capsys, "scan", *SMALL_GRID)
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        assert all(r["verdict"] == "AlmostSymmetric" for r in records)

    def test_oracle_verify_sets_field_and_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "scan", *SMALL_GRID, "--oracle-verify")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        assert all(r["oracle_agrees"] is True for r in records)

    def test_out_file_and_skip_itemization(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        code, out, err = run_cli(
            capsys, "scan", *SMALL_GRID, "--all", "--out", str(out_path),
            "--explain-skips",
        )
        assert code == EXIT_OK
        assert out == ""
        file_records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert file_records
        assert "skips by reason:" in err
        assert "NonsenseInput" in err  # d = 0 cells

    @pytest.mark.parametrize(
        "flags,emitted,analyzed,skipped,reasons",
        [
            ((), 42, 1428, 2732, {"GcdViolation": 832, "NonsenseInput": 832, "NotMinimal": 1068}),
            (
                ("--hypothesis-only",), 38, 1258, 2902,
                {"GcdViolation": 832, "HypothesisFiltered": 413, "NonsenseInput": 832, "NotMinimal": 825},
            ),
        ],
    )
    def test_small_grid_tallies(self, capsys, flags, emitted, analyzed, skipped, reasons):
        code, out, err = run_cli(capsys, "scan", *SMALL_GRID, "--explain-skips", *flags)
        assert code == EXIT_OK
        assert len(out.splitlines()) == emitted
        assert err.splitlines() == [
            "grid: 4160 tuples",
            f"emitted {emitted} records; analyzed {analyzed}; skipped {skipped}",
            "skips by reason:",
            *(f"  {reason}: {n}" for reason, n in reasons.items()),
        ]
        _, out_all, _ = run_cli(capsys, "scan", *SMALL_GRID, "--all", *flags)
        assert len(out_all.splitlines()) == analyzed

    def test_cells_are_checked_for_minimality_without_the_oracle(self, monkeypatch):
        grid = Grid(a=range(10, 26), d=range(-2, 3), c=range(5, 31), k=range(3, 4), h=range(1, 3))
        is_minimal_generating = oracle.is_minimal_generating

        def refuse(*args, **kwargs):
            raise AssertionError("oracle called")

        monkeypatch.setattr(oracle, "is_minimal_generating", refuse)
        monkeypatch.setattr(oracle, "apery_oracle", refuse)
        skips: Counter = Counter()
        kept = [
            p
            for a in range(10, 26)
            for d in range(-2, 3)
            for p, _ in iter_cells(grid, a, d, skips, reject=lambda p, t: None)
        ]
        monkeypatch.undo()
        assert (len(kept), skips["NotMinimal"]) == (1428, 1068)
        assert all(is_minimal_generating(list(p.generators)) for p in kept)

    def test_invalid_pairs_keep_each_cells_skip_reason(self):
        # d = 0 and gcd(a, d) > 1 pairs are settled per (k, h); each cell is
        # still counted under the reason its own validation gives, also where
        # a non-positive a, h, k or c or ha + kd <= 0 fails first.  A c range
        # of one sign, or none, must add no reason with a zero count.
        settled_reasons = set()
        for cs in (range(-1, 4), range(1, 4), range(-2, 1), range(0)):
            grid = Grid(a=range(-2, 9), d=range(-4, 5), c=cs, k=range(0, 4), h=range(0, 3))
            for a, d in product(grid.a, grid.d):
                walked, expected = Counter(), Counter()
                list(iter_cells(grid, a, d, walked, reject=lambda p, t: "Kept"))
                for c, k, h in product(grid.c, grid.k, grid.h):
                    try:
                        validate_params(a, d, h, k, c, normalize=False, check_minimality=False)
                        expected["Kept"] += 1
                    except AagError as exc:
                        expected[type(exc).__name__] += 1
                assert dict(walked) == dict(expected), (cs, a, d)
                if d == 0 or math.gcd(a, d) > 1:
                    settled_reasons |= set(walked)
        assert settled_reasons == {"GcdViolation", "NonPositiveGenerator", "NonsenseInput"}

    def test_gcd_only_grid_explains_only_its_reason(self, capsys):
        # Every cell has gcd(a, d) = 2 and c > 0: no other reason, not even
        # one counted zero times, reaches the skip summary.
        code, out, err = run_cli(
            capsys, "scan", "--a-min", "4", "--a-max", "4", "--d-min", "2", "--d-max", "2",
            "--c-min", "5", "--c-max", "6", "--k-min", "1", "--k-max", "2",
            "--h-min", "1", "--h-max", "1", "--explain-skips",
        )
        assert (code, out) == (EXIT_OK, "")
        assert err.splitlines() == [
            "grid: 4 tuples",
            "emitted 0 records; analyzed 0; skipped 4",
            "skips by reason:",
            "  GcdViolation: 4",
        ]

    def test_hypothesis_only_is_stricter_than_the_hypothesis(self, capsys):
        # r'_mu < h here, but rho_mu = 0 (k | s_mu), so the staircase
        # hypothesis holds and the tuple is an almost-symmetric record.
        cell = (
            "--a-min", "164", "--a-max", "164", "--d-min=-1", "--d-max=-1",
            "--c-min", "185", "--c-max", "185", "--k-min", "19", "--k-max", "19",
            "--h-min", "4", "--h-max", "4", "--explain-skips",
        )
        code, out, err = run_cli(capsys, "scan", *cell, "--oracle-verify")
        assert code == EXIT_OK
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert (record["family"], record["hypothesis_ok"]) == ("Thm5.4-(ii)", True)
        assert record["oracle_agrees"] is True
        code, out, err = run_cli(capsys, "scan", *cell, "--hypothesis-only")
        assert code == EXIT_OK
        assert out == ""
        assert err.splitlines()[1:] == [
            "emitted 0 records; analyzed 0; skipped 1",
            "skips by reason:",
            "  HypothesisFiltered: 1",
        ]

    def test_hypothesis_only_filters(self, capsys):
        _, _, err_all = run_cli(capsys, "scan", *SMALL_GRID, "--all")
        _, _, err_hyp = run_cli(capsys, "scan", *SMALL_GRID, "--all", "--hypothesis-only")
        assert "HypothesisFiltered" not in err_all
        assert int(err_hyp.split("analyzed ")[1].split(";")[0]) <= int(
            err_all.split("analyzed ")[1].split(";")[0]
        )

    def test_a_table_past_the_row_cap_is_still_scanned(self, capsys, monkeypatch):
        # c ≡ -d (mod a): 1020 rows, above the cap of 1001; scan reads only
        # the pivot rows.
        monkeypatch.setenv("AAG_MAX_A", "1000")
        code, out, err = run_cli(
            capsys, "scan", "--a-min", "1019", "--a-max", "1019", "--d-min", "1", "--d-max", "1",
            "--c-min", "5094", "--c-max", "5094", "--k-min", "20", "--k-max", "20",
            "--h-min", "4", "--h-max", "4", "--all",
        )
        assert code == EXIT_OK
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert (record["verdict"], record["type"], record["frobenius"]) == ("NeitherSpecial", 20, 199684)
        assert err.splitlines()[1] == "emitted 1 records; analyzed 1; skipped 0"

    def test_oracle_only_cells_past_the_oracle_cap_are_skipped(self, capsys):
        # a = 1000003 is above the default oracle cap: the k < 3 cells are
        # OracleOnly and are skipped, the k = 3 cell is closed form.
        code, out, err = run_cli(
            capsys, "scan", "--a-min", "1000003", "--a-max", "1000003", "--d-min", "1", "--d-max", "2",
            "--c-min", "2000009", "--c-max", "2000010", "--k-min", "1", "--k-max", "3",
            "--h-min", "1", "--h-max", "1", "--all", "--explain-skips",
        )
        assert code == EXIT_OK
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert (record["a"], record["d"], record["c"], record["k"]) == (1000003, 2, 2000009, 3)
        assert err.splitlines()[1:] == [
            "emitted 1 records; analyzed 1; skipped 11",
            "skips by reason:",
            "  NonsenseInput: 4",
            "  NotMinimal: 7",
        ]

    def test_other_errors_still_end_the_scan(self, capsys, monkeypatch):
        def gap(p, t):
            raise InternalDispatchGap("no clause")

        monkeypatch.setattr("aag.classify.classify", gap)
        code, out, _ = run_cli(capsys, "scan", *SMALL_GRID)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "InternalDispatchGap"


class TestVerify:
    GRID = (
        "--a-min", "10", "--a-max", "30",
        "--d-min", "-3", "--d-max", "3",
        "--c-min", "5", "--c-max", "40",
        "--k-min", "3", "--k-max", "4",
        "--h-min", "1", "--h-max", "2",
    )

    def test_small_grid_has_zero_mismatches(self, capsys):
        code, out, err = run_cli(capsys, "verify", *self.GRID)
        assert code == EXIT_OK
        counts = json.loads(out)
        assert counts["mismatches"] == 0
        assert counts["checked"] > 100
        assert counts["skipped"] > 0
        assert "grid:" in err

    @pytest.mark.parametrize("off_by_one,mismatches", [(False, 0), (True, 1307)])
    def test_small_grid_tallies(self, capsys, monkeypatch, off_by_one, mismatches):
        if off_by_one:
            _break_frobenius(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", *SMALL_GRID)
        assert code == (EXIT_MISMATCH if mismatches else EXIT_OK)
        assert json.loads(out) == {"checked": 1307, "skipped": 2853, "mismatches": mismatches}

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_first_failing_tuple_is_pinned(self, capsys, monkeypatch, workers):
        # The oracle walks each chunk in generator order; the report names
        # the first failing cell in grid order.
        _break_frobenius(monkeypatch)
        code, out, err = run_cli(capsys, "verify", *SMALL_GRID, "--workers", workers)
        assert code == EXIT_MISMATCH
        assert out == '{"checked": 1307, "skipped": 2853, "mismatches": 1307}\n'
        assert err == (
            "grid: 4160 tuples\n"
            "first failing tuple: a=10 d=-1 c=6 k=3 h=1\n"
            "  frobenius mismatch: closed 12 vs oracle 11\n"
        )

    def test_chunk_outcomes_follow_cell_order(self, monkeypatch):
        grid = Grid(range(20, 21), range(1, 2), range(5, 31), range(3, 5), range(1, 3))
        cells = [p for p, _ in iter_cells(grid, 20, 1, Counter(), reject=_verify_reject)]
        walk = sorted(cells, key=lambda p: p.generators)
        assert walk != cells
        _break_frobenius(monkeypatch)
        failures, tally = _verify_chunk((grid, 20, 1))
        assert [(c, k, h) for (_, _, c, k, h), _ in failures] == [(p.c, p.k, p.h) for p in cells[:5]]
        assert tally["checked"] == tally["mismatches"] == len(cells)

        # h = 1 cells with c >= 20 and h = 2 cells with c < 20 raise: the walk
        # meets an h = 1 one first, the grid order an h = 2 one.
        def gap(p, t):
            if (p.h == 1) == (p.c >= 20):
                raise InternalDispatchGap(f"no clause at c={p.c} h={p.h}")
            return classify(p, t)

        monkeypatch.setattr(aag.verify, "classify", gap)
        first = next(p for p in cells if (p.h == 1) == (p.c >= 20))
        assert next(p for p in walk if (p.h == 1) == (p.c >= 20)) != first
        with pytest.raises(InternalDispatchGap, match=f"no clause at c={first.c} h={first.h}$"):
            _verify_chunk((grid, 20, 1))

    def test_battery_walks_the_raw_presentation(self, capsys, monkeypatch):
        # d < 0, h = 1 cells reach the battery as given, as in scan.
        seen = []

        def recording_verify_tuple(p, t, rep):
            seen.append(p)
            return verify_tuple(p, t, rep)

        monkeypatch.setattr("aag.verify.verify_tuple", recording_verify_tuple)
        code, out, _ = run_cli(capsys, "verify", *self.GRID)
        assert code == EXIT_OK
        assert json.loads(out)["mismatches"] == 0
        assert sum(p.d < 0 and p.h == 1 for p in seen) > 50
        assert not any(p.normalized for p in seen)

    def test_battery_flags_a_redundant_generator(self):
        # 61 = 30 + 31: what the battery reports if closed-form minimality
        # ever kept such a tuple.
        p = validate_params(30, 1, 1, 3, 61, check_minimality=False)
        problems = closed_form_violations(p, build_table(p))
        assert problems == ["minimality mismatch: generator differences [30, 31] lie in S"]

    def test_k_below_two_is_skipped(self, capsys):
        grid = (
            "--a-min", "5", "--a-max", "30",
            "--d-min", "1", "--d-max", "3",
            "--c-min", "7", "--c-max", "40",
            "--h-min", "1", "--h-max", "2",
        )
        code, out, _ = run_cli(capsys, "verify", *grid, "--k-min", "1", "--k-max", "1")
        assert code == EXIT_OK
        assert json.loads(out) == {"checked": 0, "skipped": 26 * 3 * 34 * 2, "mismatches": 0}
        code, out, _ = run_cli(capsys, "verify", *grid, "--k-min", "1", "--k-max", "2")
        assert code == EXIT_OK
        counts = json.loads(out)
        assert counts["mismatches"] == 0
        assert counts["checked"] > 0
        assert counts["checked"] + counts["skipped"] == 26 * 3 * 34 * 2 * 2

    def test_k_two_builds_no_second_oracle_report(self, monkeypatch):
        # The chunk's walk passes the report; nothing in the battery builds one.
        p = validate_params(11, 3, 1, 2, 13)
        t = build_table(p)
        rep = oracle.oracle_report(list(p.generators), p.a)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return rep

        monkeypatch.setattr(oracle, "oracle_report", counting)
        assert verify_tuple(p, t, rep) == []
        assert calls == []

    def test_closed_forms_run_once_per_checked_tuple(self, capsys, monkeypatch):
        # classify's PF set and Frobenius number serve the closed-form group
        # of a k >= 3 tuple; a k = 2 one computes them in the battery.
        calls = Counter()

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

        for name, function in (("pf_tilde", pseudofrob.pf_tilde), ("frobenius", frobenius)):
            for module in (pseudofrob, aag.staircase, aag.classify, aag.verify, aag.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, function))
        code, out, _ = run_cli(
            capsys, "verify",
            "--a-min", "10", "--a-max", "25",
            "--d-min", "-2", "--d-max", "2",
            "--c-min", "5", "--c-max", "30",
            "--k-min", "2", "--k-max", "3",
            "--h-min", "1", "--h-max", "2",
            "--workers", "1",
        )
        assert code == EXIT_OK
        checked = json.loads(out)["checked"]
        assert checked > 1307  # the k = 3 cells of SMALL_GRID, and k = 2 ones
        assert calls == {"pf_tilde": checked, "frobenius": checked}

    def test_worker_counts_agree(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", *self.GRID)
        _, out2, _ = run_cli(capsys, "verify", *self.GRID, "--workers", "3")
        assert json.loads(out1) == json.loads(out2)

    def test_inverted_comparator_fails_everything(self, capsys, monkeypatch):
        # A broken closed form must fail every checked tuple.
        _break_frobenius(monkeypatch)
        code, out, err = run_cli(
            capsys, "verify",
            "--a-min", "10", "--a-max", "16",
            "--d-min", "1", "--d-max", "2",
            "--c-min", "5", "--c-max", "25",
            "--k-min", "3", "--k-max", "3",
            "--h-min", "1", "--h-max", "1",
        )
        assert code == EXIT_MISMATCH
        counts = json.loads(out)
        assert counts["checked"] > 0
        assert counts["mismatches"] == counts["checked"]
        assert "first failing tuple:" in err
        assert "frobenius mismatch" in err

    def test_strides_subsample_deterministically(self, capsys):
        _, out1, err = run_cli(capsys, "verify", *self.GRID, "--stride-a", "3", "--stride-c", "5")
        _, out2, _ = run_cli(capsys, "verify", *self.GRID, "--stride-a", "3", "--stride-c", "5")
        # a in 10, 13, ..., 28 and c in 5, 10, ..., 40
        assert err.splitlines()[0] == f"grid: {7 * 7 * 8 * 2 * 2} tuples"
        counts = json.loads(out1)
        assert json.loads(out2) == counts
        assert counts["mismatches"] == 0
        full = json.loads(run_cli(capsys, "verify", *self.GRID)[1])
        assert counts["checked"] < full["checked"]


class TestTableAndOracle:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "table", *EX1)
        assert code == EXIT_OK
        assert "<- mu" in out
        assert "tilde: sigma=" in out
        assert "hypothesis" in out

    def test_table_raw_skips_rewrite(self, capsys):
        _, raw, _ = run_cli(
            capsys, "table", "--a", "163", "--d=-2", "--h", "1", "--k", "19",
            "--c", "170", "--raw",
        )
        _, rewritten, _ = run_cli(
            capsys, "table", "--a", "163", "--d=-2", "--h", "1", "--k", "19",
            "--c", "170",
        )
        assert raw != rewritten
        assert "163" in raw.splitlines()[1]

    def test_oracle_report_json(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--gens", "10,17,24,31,15")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["frobenius"] == 53
        assert doc["pf"] == [53]
        assert doc["type"] == 1
        assert doc["symmetric"] is True
        assert doc["modulus"] == 10
        assert len(doc["apery"]) == 10

    def test_analyze_answers_past_the_oracle_cap(self, capsys):
        # Smallest generator a ~ 10**9: minimality, table, PF and verdict
        # are all closed form.
        code, out, _ = run_cli(
            capsys, "analyze", "--a", "999999937", "--d", "1861391", "--h", "4",
            "--k", "20", "--c", "73325467808", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["verdict"], doc["type"], len(doc["pf"])) == ("NeitherSpecial", 4, 4)
        assert doc["pf"][-1] == doc["frobenius"]

    def test_long_table_past_the_cap_exits_2(self, capsys, monkeypatch):
        # c = 3a - 1, d = 1: the table would have a + 1 = 10008 rows.
        monkeypatch.setenv("AAG_MAX_A", "10000")
        code, out, _ = run_cli(
            capsys, "analyze", "--a", "10007", "--d", "1", "--h", "1", "--k", "3", "--c", "30020",
        )
        assert code == EXIT_VALIDATION
        assert json.loads(out) == {
            "error": "NonsenseInput",
            "reason": "the table of (a=10007, d=1, h=1, k=3, c=30020) has 10008 rows, "
            "above the cap of 10001 (set AAG_MAX_A to raise it)",
        }

    @pytest.mark.parametrize("modulus", ["4", "7", "1"])
    def test_oracle_modulus_outside_s_exits_2(self, capsys, modulus):
        code, out, _ = run_cli(capsys, "oracle", "--gens", "3,5", "--modulus", modulus)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"] == "NonsenseInput"

    def test_oracle_modulus_inside_s(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--gens", "3,5", "--modulus", "8")  # 8 = 3 + 5
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["frobenius"], doc["pf"]) == (7, [7])

    def test_oracle_explicit_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--gens", "10,17,24,31,15", "--modulus", "15")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["modulus"] == 15
        assert doc["frobenius"] == 53  # intrinsic, modulus-independent


class TestSerialization:
    def test_enc_big_integers_become_strings(self):
        safe = 1 << 53
        assert _enc(safe) == safe
        assert _enc(safe + 1) == str(safe + 1)
        assert _enc(-(safe + 1)) == str(-(safe + 1))
        assert _enc(True) is True
        assert _enc({"x": [safe + 2, 3]}) == {"x": [str(safe + 2), 3]}

    def test_record_fields_match_schema(self):
        assert set(SCHEMA["required"]) == set(RECORD_FIELDS)
        assert set(SCHEMA["properties"]) == set(RECORD_FIELDS) | {"oracle_agrees"}

    def test_chunk_tasks_and_workers_survive_pickling(self):
        # Start methods other than fork send each task and worker by pickle.
        grid = Grid(a=range(10, 13), d=range(1, 3), c=range(5, 31), k=range(3, 4), h=range(1, 3))
        scan_task = (grid, 11, 2, False, False, True)
        for worker, task in ((_scan_chunk, scan_task), (_verify_chunk, (grid, 11, 2))):
            restored_worker, restored_task = pickle.loads(pickle.dumps((worker, task)))
            assert restored_worker is worker
            assert restored_task == task
            assert restored_worker(restored_task) == worker(task)


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_every_readme_command_parses(self, capsys):
        # Every `aag ...` line of the README's shell blocks; a removed or
        # misspelled flag makes the parser exit 64.
        blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("aag ")]
        assert len(lines) >= 8
        rejected = []
        for line in lines:
            try:
                _build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                rejected.append(line)
        assert rejected == [], capsys.readouterr().err


#: Modules that ``import aag.cli`` leaves to the commands whose routes call them.
LAZY_MODULES = (
    "aag.classify", "aag.euclid", "aag.staircase", "aag.pseudofrob", "aag.grobner",
    "aag.verify", "aag.oracle", "multiprocessing", "csv", "numpy",
)


def child_env() -> dict:
    """This environment with the directory of the imported ``aag`` first
    on PYTHONPATH, so a child interpreter imports the same package."""
    package_root = os.path.dirname(os.path.dirname(aag.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


class TestConsoleEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aag.cli", *EX1, "--json"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == EXIT_USAGE  # module form needs a subcommand first

        proc = subprocess.run(
            [sys.executable, "-m", "aag.cli", "analyze", *EX1, "--json"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["frobenius"] == 2168

    def test_import_loads_no_numpy(self):
        # numpy is needed only where the oracle builds a table, and each
        # command imports the modules of its route: the import loads the core.
        script = f"import sys, aag.cli; print(*sorted(set({LAZY_MODULES!r}) & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize(
        "command,loaded",
        [
            (("verify", *SMALL_GRID), {"aag.classify", "aag.grobner", "aag.oracle", "aag.verify", "numpy"}),
            (("scan", *SMALL_GRID), {"aag.classify", "aag.euclid"}),
        ],
        ids=["verify", "scan"],
    )
    def test_imports_before_the_workers_fork(self, command, loaded):
        # Forked workers inherit the parent's modules instead of each
        # importing them on its first chunk (numpy on its first oracle table).
        script = (
            "import sys, aag.cli\n"
            f"aag.cli._run_chunks = lambda *args: print(*set({LAZY_MODULES!r}) & set(sys.modules)) or []\n"
            "aag.cli.main(sys.argv[1:])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *command, "--workers", "2"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert loaded <= set(proc.stdout.splitlines()[0].split())
