"""Per-layer tracing of the ``aag`` package, installed from outside.

``Tracer.install`` replaces every public function of the traced modules,
wherever a module holds a reference to it (so ``from .euclid import
build_table`` in ``classify`` is covered too), with a timing wrapper;
``uninstall`` puts the originals back.  No file of the package changes.

Two kinds of wrapper:

* span functions (``SPAN_FUNCTIONS``) record one span per call: name,
  start, end, parent span, span id, query/cell id (the query index set by
  the workload, or for ``cli`` runs a hash of the cell's (a, d, h, k, c),
  taken from its first validation), a work count and a tuple key.  Spans
  stay in memory in typed arrays and are written out once, at the end.
* every other public function is only counted: calls, total and self
  time.  These run up to millions of times per pass (``phi``,
  ``kernel_check``, ``decompose``), and a span each would cost more
  memory than the pass itself.

Self time is a call's duration minus the time of the calls it made into
other traced functions.  ``cli.main`` fans work out to forked pool
workers; their spans name the ``cli.main`` span as parent (the open-span
stack is inherited by ``fork``), each worker writes its spans to a file
after every chunk, and the self time of a span with children in other
processes also subtracts the union of those children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Functions that get a span per call.  The rest are counted only.
SPAN_FUNCTIONS = (
    "core.validate_params",
    "oracle.is_minimal_generating",
    "oracle.apery_oracle",
    "oracle.pf_oracle",
    "oracle.frobenius_oracle",
    "oracle.oracle_report",
    "euclid.build_table",
    "staircase.frobenius",
    "staircase.apery_values",
    "pseudofrob.pf_tilde",
    "classify.classify",
    "classify.fast_path",
    "classify.classify_with_fast_path",
    "grobner.certify_basis",
    "verify.closed_form_violations",
    "verify.euclid_violations",
    "verify.grobner_violations",
    "verify.agreement_violations",
    "verify.verify_tuple",
    "cli.main",
)

#: ``cli`` is traced at its entry point only: the ``cmd_*`` bodies are
#: the grid walk, serialization and fan-out, which is cli.main's self time.
CLI_FUNCTIONS = ("main",)

#: Pool workers of ``cli``; wrapped to flush each worker's spans per chunk.
CLI_CHUNK_WORKERS = ("_scan_chunk", "_verify_chunk")

VERDICT_CODES = {
    "Symmetric": 1,
    "AlmostSymmetric": 2,
    "NeitherSpecial": 3,
    "OracleOnly": 4,
}
ROUTE_NAMES = {1: "symmetric", 2: "almost_symmetric", 3: "neither", 4: "oracle_only"}
ROUTED = ("classify.classify", "classify.classify_with_fast_path")

_COLUMNS = ("name", "span", "parent", "qid", "work", "key")


def _tuple_key(a, d, h, k, c) -> int:
    return hash((a, d, h, k, c))


def _work_apery(args, kwargs, result):
    gens = args[0]
    modulus = args[1] if len(args) > 1 else kwargs.get("modulus")
    return (min(gens) if modulus is None else modulus), 0


def _work_table(args, kwargs, result):
    p = args[0]
    return len(result.rows), _tuple_key(p.a, p.d, p.h, p.k, p.c)


def _work_frobenius(args, kwargs, result):
    return args[1].pivot.s, 0


def _work_fast_path(args, kwargs, result):
    return int(result is not None), 0


def _work_verdict(args, kwargs, result):
    return VERDICT_CODES[result.verdict], 0


#: Work count recorded with each span: Σ m over oracle Apery tables, rows
#: per table (and the tuple, for the distinct ratio), s_μ per Frobenius
#: scan, fast-path hits, and the verdict of each classification.
_WORK = {
    "oracle.apery_oracle": _work_apery,
    "euclid.build_table": _work_table,
    "staircase.frobenius": _work_frobenius,
    "classify.fast_path": _work_fast_path,
    "classify.classify": _work_verdict,
    "classify.classify_with_fast_path": _work_verdict,
}


class Tracer:
    """Wraps the package's public functions and collects spans and counts.

    ``aag_modules`` maps short names (``"core"``, ..., ``"cli"``) to the
    traced modules.  ``spool`` is a directory for the per-chunk span files
    of forked workers; it must exist and be empty.
    """

    def __init__(self, aag_modules: dict, spool: Path):
        self.modules = aag_modules
        self.spool = spool
        self.names: list[str] = []
        self.patches: list[tuple[object, str, object]] = []
        self.qid = -1
        self.active = False
        self.root_pid = os.getpid()
        self._reset_process()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state -----------------------------------------------------------

    def _reset_process(self) -> None:
        self.pid = os.getpid()
        self.next_span = self.pid << 32
        self._clear_records()

    def _clear_records(self) -> None:
        self.cols = {name: array("q") for name in _COLUMNS}
        self.starts = array("d")
        self.ends = array("d")
        self.child_s = array("d")  # in-process time of traced callees
        # counted functions: name -> [calls, total_s, self_s]
        self.counts: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])

    def _after_fork(self) -> None:
        if self.active:
            stack = self.stack
            self._reset_process()
            # Spans still open in the parent stay open here as parents;
            # callee time is not charged to them from this process.
            self.stack = [[sid, 0.0] for sid, _ in stack]

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        originals = {}
        for short, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                if short == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                originals[fn] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        cli = self.modules["cli"]
        for attr in CLI_CHUNK_WORKERS:
            fn = getattr(cli, attr)
            wrappers[fn] = self._wrap_chunk(fn)
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        self.stack = []
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches.clear()
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name in SPAN_FUNCTIONS:
            return self._wrap_span(fn, name)
        return self._wrap_counted(fn, name)

    def _wrap_counted(self, fn, name: str):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = tracer.stack
            # A counted frame carries the enclosing span's id as its own.
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                row = tracer.counts[name]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]

        return counted

    def _wrap_span(self, fn, name: str):
        tracer = self
        clock = time.perf_counter
        name_id = len(self.names)
        self.names.append(name)
        work_of = _WORK.get(name)
        marks_cell = name == "core.validate_params"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            if marks_cell and len(stack) == 1:
                # A top-level validation inside a cli run starts a new cell.
                tracer.qid = _tuple_key(*args[:5])
            sid = tracer.next_span
            tracer.next_span += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                work, key = (0, 0)
                if work_of is not None and result is not None:
                    work, key = work_of(args, kwargs, result)
                cols = tracer.cols
                cols["name"].append(name_id)
                cols["span"].append(sid)
                cols["parent"].append(parent)
                cols["qid"].append(tracer.qid)
                cols["work"].append(work)
                cols["key"].append(key)
                tracer.starts.append(start)
                tracer.ends.append(end)
                tracer.child_s.append(frame[1])

        return span

    def _wrap_chunk(self, fn):
        tracer = self

        @functools.wraps(fn)
        def chunk(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.pid != tracer.root_pid:
                    tracer._flush()

        return chunk

    # -- collection --------------------------------------------------------

    def _snapshot(self) -> dict:
        return {
            "cols": {name: col.tolist() for name, col in self.cols.items()},
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "child_s": self.child_s.tolist(),
            "counts": dict(self.counts),
        }

    def _flush(self) -> None:
        """Append this worker's spans to its spool file and clear them."""
        with open(self.spool / f"spans-{self.pid}.pkl", "ab") as out:
            pickle.dump(self._snapshot(), out)
        self._clear_records()

    def collect(self) -> dict:
        """Uninstall, then merge this process's and every worker's records."""
        self.uninstall()
        parts = [self._snapshot()]
        for path in sorted(self.spool.glob("spans-*.pkl")):
            with open(path, "rb") as src:
                while True:
                    try:
                        parts.append(pickle.load(src))
                    except EOFError:
                        break
            path.unlink()
        merged = {
            "names": list(self.names),
            "cols": {name: [] for name in _COLUMNS},
            "starts": [],
            "ends": [],
            "child_s": [],
            "counts": defaultdict(lambda: [0, 0.0, 0.0]),
        }
        for part in parts:
            for name in _COLUMNS:
                merged["cols"][name].extend(part["cols"][name])
            for field in ("starts", "ends", "child_s"):
                merged[field].extend(part[field])
            for fname, (calls, total, own) in part["counts"].items():
                row = merged["counts"][fname]
                row[0] += calls
                row[1] += total
                row[2] += own
        return merged


def span_self_times(merged: dict) -> list[float]:
    """Self time of every span.

    Duration minus in-process callee time, minus the union of the
    intervals of direct children recorded in other processes.
    """
    cols = merged["cols"]
    starts, ends, child_s = merged["starts"], merged["ends"], merged["child_s"]
    own = [e - s - c for s, e, c in zip(starts, ends, child_s)]
    index = {sid: i for i, sid in enumerate(cols["span"])}
    remote: dict[int, list] = defaultdict(list)
    for i, (sid, parent) in enumerate(zip(cols["span"], cols["parent"])):
        if parent >= 0 and (sid >> 32) != (parent >> 32) and parent in index:
            remote[index[parent]].append((starts[i], ends[i]))
    for i, intervals in remote.items():
        covered, edge = 0.0, float("-inf")
        for lo, hi in sorted(intervals):
            lo = max(lo, edge, starts[i])
            hi = min(hi, ends[i])
            if hi > lo:
                covered += hi - lo
                edge = hi
        own[i] -= covered
    return own


def layer_stats(merged: dict, self_s: list[float]) -> dict:
    """Per-function calls / total_s / self_s plus work counts, by name."""
    cols = merged["cols"]
    names = merged["names"]
    stats: dict[str, dict] = {}
    for name in names:
        stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "keys": set()}
    name_of_span = dict(zip(cols["span"], (names[n] for n in cols["name"])))
    routes = {route: 0 for route in ROUTE_NAMES.values()}
    for i, name_id in enumerate(cols["name"]):
        name = names[name_id]
        row = stats[name]
        row["calls"] += 1
        row["total_s"] += merged["ends"][i] - merged["starts"][i]
        row["self_s"] += self_s[i]
        if cols["key"][i]:
            row["keys"].add(cols["key"][i])
        if name not in ROUTED:
            row["work"] += cols["work"][i]
        elif cols["work"][i] in ROUTE_NAMES and not name_of_span.get(
            cols["parent"][i], ""
        ).startswith("classify."):
            # A tuple's route is counted once, at its outermost
            # classification (classify_with_fast_path may call classify).
            routes[ROUTE_NAMES[cols["work"][i]]] += 1
    for fname, (calls, total, own) in merged["counts"].items():
        stats[fname] = {"calls": calls, "total_s": total, "self_s": own, "work": 0, "keys": set()}
    for row in stats.values():
        row["distinct"] = len(row.pop("keys"))
    stats["classify.route"] = routes
    return stats
