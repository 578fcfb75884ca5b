"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end figures under the names the workloads are discussed by.
FIGURE_NAMES = {
    "sweep": ("setup_s", "cells_per_s", "peak_rss_mb", "failed_frac"),
    "verify": ("setup_s", "checked_per_s", "peak_rss_mb", "failed_frac"),
    "analyze_large": ("setup_s", "query_p50_ms", "query_p95_ms", "peak_rss_mb", "failed_frac"),
}
UNIT_OF = {"setup_s": "s", "cells_per_s": "1/s", "checked_per_s": "1/s", "query_p50_ms": "ms",
           "query_p95_ms": "ms", "peak_rss_mb": "MB", "failed_frac": "("}


def bench(workload: str, trace: int, *extra: str, seed: int = 7) -> tuple[int, list[str], dict]:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload):
    code, lines, result = bench(workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in FIGURE_NAMES[workload]:
        assert any(line.startswith(f"{name} ") and UNIT_OF[name] in line for line in lines), name

    code, lines, result = bench(workload, 1)
    assert code == 0 and result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert any(line.startswith("trace_overhead_s ") for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_a_corrupted_expected_answer_counts_as_failed(workload):
    code, lines, result = bench(workload, 0, "--corrupt-expected")
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    frac = next(line for line in lines if line.startswith("failed_frac "))
    assert float(frac.split()[1]) > 0


def test_same_seed_same_inputs():
    first = inputs.draw_queries(3, 40)
    assert first == inputs.draw_queries(3, 40)
    assert first != inputs.draw_queries(4, 40)
    kinds = [q["kind"] for q in first]
    assert kinds.count(inputs.FRIENDLY) == 30 and kinds.count(inputs.LONG_TABLE) == 10


def test_drawn_tuples_are_valid_by_construction():
    """The oracle agrees that every drawn generating system is minimal."""
    mods = run.import_aag()
    for q in inputs.draw_queries(5, workloads.ANALYZE_QUERIES_TINY, *workloads.ANALYZE_A_TINY):
        a, d, h, k, c = q["params"]
        gens = [a, *(h * a + i * d for i in range(1, k + 1)), c]
        assert mods["oracle"].is_minimal_generating(gens), q


def test_membership_matches_the_oracle():
    mods = run.import_aag()
    a, d, h, k = 37, -3, 2, 4
    gens = [a, *(h * a + i * d for i in range(1, k + 1))]
    apery = mods["oracle"].apery_oracle(gens)
    for x in range(0, 3000):
        assert inputs.in_arithmetic_semigroup(x, a, d, h, k) == (apery[x % a] <= x), x


def test_without_the_package_the_benchmark_fails(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for rel in SPEC["paths"]:
        dest = tmp_path / rel
        dest.mkdir(parents=True)
        for path in (ROOT / rel).glob("*.py"):
            (dest / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
