"""Benchmark of the ``aag`` package on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,verify,analyze_large} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures whole passes of the workload for about S
seconds and reports the end-to-end metrics; with ``--trace 1`` it makes
an untraced, a traced and another untraced pass, and reports the
per-layer metrics plus the tracing overhead (traced wall time minus the
mean of the two untraced ones).  Metric names and units are read from
``BENCHMARK.json``.
Every output is checked (see ``workloads``).  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Detailed results
and the spans of a traced pass are written under ``.bench_out/``.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2.  ``--size tiny`` shrinks every workload
and ``--corrupt-expected`` falsifies one expected answer; both exist for
the benchmark's own smoke test.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Input generation is repeated this many times per run.
SETUP_REPEATS = 7

#: Import probes before, between and after the timed passes.  One probe
#: takes about 0.15 s on a host whose speed drifts within seconds, so
#: probes taken in one batch left a quartile spread near 0.3 over runs;
#: spread over the run, their median follows the host as the passes do.
PROBES_PER_GAP = 7

#: Importing the package in a fresh interpreter, timed from inside it.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, aag.cli; print(time.perf_counter() - t)"
)

AAG_MODULES = ("core", "oracle", "euclid", "staircase", "pseudofrob", "classify", "grobner", "verify", "cli")

#: Per-layer fields that are work counts of the function (see tracer).
WORK_FIELDS = ("residues", "rows", "columns", "hits")


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MiB.

    The import probes are reaped after this is read (see ImportProbes),
    so the children are the cli pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: list[float], q: int) -> float:
    """q-th percentile with linear interpolation (one value: that value)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "aag").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "src_lines": src_lines,
    }


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class ImportProbes:
    """Times the import of numpy and ``aag.cli`` in fresh interpreters.

    A probe is waited for with WNOWAIT and reaped only by ``close``: the
    kernel adds a child's peak RSS to RUSAGE_CHILDREN when it is reaped,
    so probes reaped after ``peak_rss_mb`` stay out of that figure."""

    def __init__(self):
        self.times: list[float] = []
        self.exited: list[subprocess.Popen] = []

    def run(self, count: int) -> None:
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, stdout=subprocess.PIPE, text=True
            )
            out = proc.stdout.read()
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            self.exited.append(proc)
            self.times.append(float(out.split()[-1]))

    def close(self) -> None:
        for proc in self.exited:
            proc.stdout.close()
            if proc.wait() != 0:
                raise SystemExit(f"import probe exited {proc.returncode}")
        self.exited = []


def import_aag() -> dict:
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"aag.{name}") for name in AAG_MODULES}
    origin = Path(mods["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"aag was imported from {origin}, not from {SRC}")
    return mods


#: Fewest measured passes per timed run.  Passes of one workload take
#: 10-18 s on a 2-vCPU host whose speed drifts, so a budget-only rule would
#: flip between one and two passes from run to run.
MIN_PASSES = 2


def measure(workload, data, seconds: float, between) -> list:
    """Whole passes: at least MIN_PASSES, then more while the next one is
    expected to end within ``seconds``.  ``between()`` runs before, between
    and after the passes, outside their wall time."""
    passes = []
    elapsed = 0.0
    while True:
        between()
        passes.append(workload.run_pass(data))
        elapsed += passes[-1].wall_s
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            between()
            return passes


def end_to_end(workload, passes: list, setup_s: float, rss_mb: float) -> tuple[dict, list[str]]:
    """The ``end_to_end`` metrics of BENCHMARK.json.  Workload meanings:
    items_per_s is grid cells/s (sweep), checked tuples/s (verify) or
    queries/s (analyze_large); latency_*_ms is one query (analyze_large)
    or one whole command, a pass (sweep, verify)."""
    rates = [p.items / p.wall_s for p in passes]
    latencies_ms = [lat * 1e3 for p in passes for lat in p.latencies_s]
    values = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(rates),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "peak_rss_mb": rss_mb,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}
    lines = [
        f"setup_s {setup_s:.4f} s",
        f"{workload.rate_name} {values['items_per_s']:.2f} 1/s  (median of {len(passes)} passes)",
    ]
    if workload.name == "analyze_large":
        lines += [
            f"query_p50_ms {values['latency_p50_ms']:.3f} ms  (n={len(latencies_ms)})",
            f"query_p95_ms {values['latency_p95_ms']:.3f} ms  (n={len(latencies_ms)})",
        ]
    else:
        lines.append(
            f"pass_wall_s {' '.join(f'{p.wall_s:.3f}' for p in passes)} s"
        )
    lines.append(f"peak_rss_mb {rss_mb:.1f} MB")
    return metrics, lines


def per_layer(stats: dict, overhead_s: float, spans: int) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json, named
    ``<module>.<function>.<field>``; ``trace.*`` describe the trace."""
    metrics = {}
    for metric in SPEC["per_layer"]:
        fn, field = metric["name"].rsplit(".", 1)
        row = stats.get(fn, {})
        if fn == "trace":
            value = overhead_s if field == "overhead_s" else spans
        elif field == "distinct_ratio":
            value = row["distinct"] / row["calls"] if row.get("calls") else 0.0
        elif field in WORK_FIELDS:
            value = row.get("work", 0)
        else:
            value = row.get(field, 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def write_spans(path: Path, merged: dict, self_s: list[float]) -> None:
    import numpy

    cols = {name: numpy.asarray(values, dtype=numpy.int64) for name, values in merged["cols"].items()}
    numpy.savez_compressed(
        path,
        names=numpy.asarray(merged["names"]),
        start=numpy.asarray(merged["starts"]),
        end=numpy.asarray(merged["ends"]),
        self_s=numpy.asarray(self_s),
        **cols,
    )


def run_traced(workload, data, out_dir: Path, mods: dict) -> tuple[list, dict, dict]:
    import tracer as tracing

    untraced = [workload.run_pass(data)]
    spool = out_dir / f"spool-{os.getpid()}"
    shutil.rmtree(spool, ignore_errors=True)
    spool.mkdir()
    tracer = tracing.Tracer(mods, spool)
    tracer.install()
    try:
        traced = workload.run_pass(data, tracer)
    finally:
        merged = tracer.collect()
        shutil.rmtree(spool, ignore_errors=True)
    # Untraced passes on both sides cancel a host speed that drifts
    # steadily across the three passes.
    untraced.append(workload.run_pass(data))
    untraced_s = statistics.mean(p.wall_s for p in untraced)
    self_s = tracing.span_self_times(merged)
    stats = tracing.layer_stats(merged, self_s)
    overhead = traced.wall_s - untraced_s
    spans = len(merged["starts"])
    write_spans(out_dir / f"{workload.name}-spans.npz", merged, self_s)
    detail = {
        "untraced_wall_s": [p.wall_s for p in untraced],
        "traced_wall_s": traced.wall_s,
        "overhead_s": overhead,
        "layers": stats,
    }
    return [*untraced, traced], per_layer(stats, overhead, spans), detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "analyze_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aag" / "__init__.py").is_file():
        print(f"error: no aag package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    import workloads

    mods = import_aag()
    workload = workloads.WORKLOADS[args.workload](
        mods, OUT_DIR, args.size == "tiny", args.corrupt_expected
    )
    draws, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        draws.append(workload.prepare(args.seed))
        gen_s.append(time.perf_counter() - start)
    data = draws[0]
    if any(d != data for d in draws):
        raise SystemExit("input generation is not deterministic")

    if args.trace:
        passes, metrics, detail = run_traced(workload, data, OUT_DIR, mods)
        lines = [
            f"untraced_wall_s {' '.join(f'{w:.3f}' for w in detail['untraced_wall_s'])} s",
            f"traced_wall_s {detail['traced_wall_s']:.3f} s",
            f"trace_overhead_s {detail['overhead_s']:.3f} s",
        ]
        import_s, probe_s = None, []
    else:
        probes = ImportProbes()
        try:
            passes = measure(workload, data, args.seconds, lambda: probes.run(PROBES_PER_GAP))
            # Read before the probes are reaped and the git call, which are
            # child processes too, and before the oracle gate of
            # analyze_large, which allocates.
            rss = peak_rss_mb()
        finally:
            probes.close()
        probe_s = probes.times
        import_s = statistics.median(probe_s)
        setup_s = import_s + statistics.median(gen_s)
        metrics, lines = end_to_end(workload, passes, setup_s, rss)
        detail = {"pass_wall_s": [p.wall_s for p in passes]}

    facts = machine_facts()
    print(f"machine {json.dumps(facts)}")

    attempted, failed, info = workload.check(data, passes)
    workloads.print_errors(passes)
    lines.append(f"failed_frac {failed / attempted:.6f}  ({failed}/{attempted})")
    for line in lines:
        print(line)
    print(f"workload {json.dumps(info)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "machine": facts,
        "setup": {"import_s": import_s, "import_probe_s": probe_s, "generate_s": gen_s},
        "composition": info,
        "failed_frac": failed / attempted,
        **detail,
        **result,
    }
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"{args.workload}{suffix}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
