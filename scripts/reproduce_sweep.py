"""Reproduce the reference sweep.

Scans the box 150 <= a <= 165, -5 <= d <= 10, 170 <= c <= 186,
19 <= k <= 20, 1 <= h <= 4 under the pivot filter r' >= h, once
single-threaded and once with several workers, checks the two outputs
are byte-identical, and prints the almost-symmetric records found.
Timing lives in perfbench/.

Usage: python3 scripts/reproduce_sweep.py [--workers N]
"""

import argparse
import sys
import tempfile
from pathlib import Path

from aag.cli import _positive_int
from aag.cli import main as cli_main

BOX = [
    "--a-min", "150", "--a-max", "165",
    "--d-min", "-5", "--d-max", "10",
    "--c-min", "170", "--c-max", "186",
    "--k-min", "19", "--k-max", "20",
    "--h-min", "1", "--h-max", "4",
]


def run_scan(workers: int, out: Path) -> None:
    argv = [
        "scan", *BOX, "--hypothesis-only",
        "--workers", str(workers), "--out", str(out),
    ]
    code = cli_main(argv)
    if code != 0:
        sys.exit(f"scan exited {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=_positive_int, default=8, help="worker count for the parallel run")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        single = Path(tmp) / "single.jsonl"
        parallel = Path(tmp) / "parallel.jsonl"
        run_scan(1, single)
        run_scan(args.workers, parallel)
        if single.read_bytes() != parallel.read_bytes():
            sys.exit("outputs differ between worker counts")
        records = single.read_text().splitlines()

    print(f"{len(records)} almost-symmetric records (identical at 1 and {args.workers} workers):")
    for line in records:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
