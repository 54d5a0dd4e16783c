"""One phase of a traced run, in a fresh process, with timers around dirtygen.

The timers wrap the public names the CLI and the benchmark's checks call,
from outside the package: no code under src/ changes. A span covers one
call, or one next() on a generator, so self time (a span minus the spans it
contains) can be charged to the module that did the work. Per-call spans
are aggregated by name; the coarse ones (config load, planning, scoring,
log read and manifest write) are also kept individually.

    python3 perfbench/traced.py --phase PHASE --workload W --seed S --tuples N --work DIR

Phases: validate, setup, op, check, probe. Each writes DIR/trace-PHASE.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

_import_started = time.perf_counter()
import dirtygen.cli  # noqa: E402  (timed: this is the CLI's import cost)

IMPORT_S = time.perf_counter() - _import_started

import dirtygen as dg  # noqa: E402
from dirtygen import output as dg_output  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

def _hwm_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Nested spans kept in memory: totals, self times and calls per span name.

    Self time is a span's duration minus the durations of the spans it
    contains, and minus the wrappers' own cost around each contained span
    (`overhead`, calibrated once per process), so tracing is not charged to
    the caller's module. The traced wall time still includes it; the run
    reports that as trace.overhead_ratio.
    """

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self._stack: list[list[float]] = [[0.0, 0.0]]  # [start, time covered by child spans]
        self._stats: dict[str, list] = {}  # name -> [total, self, calls]
        self.counts: dict[str, float] = {}
        self.spans: list[dict] = []
        self.writers: list = []
        self.overhead = 0.0
        self.overhead = self._calibrate()
        self.calibrate_s = time.perf_counter() - self.started

    def _calibrate(self, n: int = 20_000) -> float:
        plain = traced = float("inf")
        wrapped = self.per_next("calibrate", range)
        stats = self._stats["calibrate"]
        for _ in range(3):
            started = time.perf_counter()
            for _ in iter(range(n)):
                pass
            plain = min(plain, time.perf_counter() - started)
            stats[:] = [0.0, 0.0, 0]
            started = time.perf_counter()
            for _ in wrapped(n):
                pass
            traced = min(traced, time.perf_counter() - started - stats[0])
        del self._stats["calibrate"]
        self.counts.clear()
        return max(0.0, (traced - plain) / (n + 1))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def high_water(self, key: str) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), _hwm_mib())

    def _closed(self, name: str, start: float, frame: list, stats: list, keep: bool) -> None:
        end = time.perf_counter()
        duration = end - start
        stats[0] += duration
        stats[1] += duration - frame[1]
        stats[2] += 1
        self._stack[-1][1] += duration + self.overhead
        if keep:
            self.spans.append({"name": name, "start_s": start - self.started, "end_s": end - self.started,
                               "depth": len(self._stack) - 1})

    def span(self, name: str, fn, after=None, keep: bool = False):
        """Wrap a function so that each call is one span; `keep` also records it individually."""
        stats = self._stats.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack

        def wrapped(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._closed(name, frame[0], frame, stats, keep)
            if after is not None:
                after(args, result)
            return result
        return wrapped

    def per_next(self, name: str, fn, on_start=None, on_done=None):
        """Wrap a generator function so that each next() is one span; items
        yielded are counted as `<name>.items`."""
        stats = self._stats.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack
        items_key = f"{name}.items"

        def wrapped(*args, **kwargs):
            if on_start is not None:
                on_start(args)
            iterator = iter(fn(*args, **kwargs))
            items = 0
            try:
                while True:
                    frame = [time.perf_counter(), 0.0]
                    stack.append(frame)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        break
                    finally:
                        stack.pop()
                        self._closed(name, frame[0], frame, stats, False)
                    items += 1
                    yield item
            finally:
                self.count(items_key, items)
            if on_done is not None:
                on_done(args)
        return wrapped

    def install(self) -> None:
        """Wrap the public names; a name a later version no longer has is skipped."""
        cli = dirtygen.cli

        def patch(name: str, make) -> None:
            original = getattr(dg, name, None) or getattr(cli, name, None)
            if original is None:
                return
            wrapper = make(original)
            for module in (dg, cli):
                if hasattr(module, name):
                    setattr(module, name, wrapper)

        def on_plan(args, plan):
            self.count("errorplan.entries", len(plan.entries))

        def on_read_start(args):
            self.count("output.bytes_read", os.path.getsize(args[0]))

        def on_read_done(args):
            self.high_water("output.rss_hwm_after_read_mib")

        def on_log_read(args, result):
            self.high_water("output.rss_hwm_after_read_mib")

        def on_score(args, result):
            self.count("evalkit.units", result.counts["units"])
            self.high_water("evalkit.rss_hwm_after_score_mib")

        def counted_inject(inject):
            def inject_counted(clean_records, plan, config):
                """inject_stream, counting the log entries and rows it yields."""
                for index, item in enumerate(inject(clean_records, plan, config)):
                    if item[1]:  # inserted rows always carry entries
                        self.count("inject.log_entries", len(item[1]))
                        self.count("inject.rows_inserted" if index >= plan.base_count else "inject.rows_touched")
                    yield item
            return self.per_next("inject.inject_stream", inject_counted)

        def per_type_verify(verify):
            verifiers = {t: self.span(f"inject.verify_error.{t}", verify) for t in workloads.ALL_TYPES}

            def traced_verify(entry, *args, **kwargs):
                return verifiers[entry.error_type](entry, *args, **kwargs)
            return traced_verify

        patch("load_config", lambda f: self.span("config.load_config", f, keep=True))
        patch("plan_errors", lambda f: self.span("errorplan.plan_errors", f, on_plan, keep=True))
        patch("generate_clean_dataset", lambda f: self.per_next("datagen.generate_clean_dataset", f))
        patch("inject_stream", counted_inject)
        patch("read_dataset", lambda f: self.per_next("output.read_dataset", f, on_read_start, on_read_done))
        patch("read_error_log", lambda f: self.span("output.read_error_log", f, on_log_read, keep=True))
        patch("score", lambda f: self.span("evalkit.score", f, on_score, keep=True))
        patch("verify_error", per_type_verify)
        patch("write_manifest", lambda f: self.span("output.write_manifest", f, keep=True))
        cli.main = self.span("cli.main", cli.main, keep=True)

        for name in ("DatasetWriter", "ErrorLogWriter"):
            cls = getattr(dg_output, name, None)
            if cls is not None:
                cls.write = self.span(f"output.{name}.write", cls.write)
        if hasattr(dg_output, "DatasetWriter"):
            dataset_init = dg_output.DatasetWriter.__init__

            def init(writer, *args, **kwargs):
                dataset_init(writer, *args, **kwargs)
                self.writers.append(writer)

            dg_output.DatasetWriter.__init__ = init

    def bytes_written(self) -> int:
        return sum(path.stat().st_size for w in self.writers for path in getattr(w, "paths", ()) if path.exists())

    def report(self) -> dict:
        return {
            "total_s": {name: stats[0] for name, stats in self._stats.items() if stats[2]},
            "self_s": {name: stats[1] for name, stats in self._stats.items() if stats[2]},
            "calls": {name: stats[2] for name, stats in self._stats.items() if stats[2]},
            "counts": self.counts | {"output.bytes_written": self.bytes_written()},
            "span_overhead_s": self.overhead,
            "calibrate_s": self.calibrate_s,
            "spans": self.spans,
        }


def _quiet_cli(argv: list[str]) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = dirtygen.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dirtygen {' '.join(argv)} exited with {code}")


def probe() -> dict:
    """Short micro-benchmarks of the rng, datagen and output layers.

    They call module internals, which later versions may change: a probe
    whose target is gone reads 0 and its error goes to `probe_errors`.
    """
    out: dict = {name: 0.0 for name in run.PER_LAYER if name in PROBE_METRICS}
    out["probe_errors"] = []

    def timed(metric: str, count: int, body) -> None:
        try:
            started = time.perf_counter()
            body()
            out[metric] = count / (time.perf_counter() - started)
        except (ImportError, AttributeError, TypeError, ValueError) as exc:
            out["probe_errors"].append(f"{metric}: {exc!r}")

    def u64():
        from dirtygen.rng import Stream
        stream = Stream(0x1234_5678)
        for _ in range(200_000):
            stream.u64()

    def derive():
        from dirtygen.rng import derive_stream
        for i in range(50_000):
            derive_stream(7, "probe", i, "attr")

    def perm():
        from dirtygen.rng import IndexPermutation
        lookup = IndexPermutation(0xDEADBEEF, 1_000_000)
        for i in range(50_000):
            lookup(i * 19)

    timed("rng.u64_per_s", 200_000, u64)
    timed("rng.derive_per_s", 50_000, derive)
    timed("rng.perm_lookups_per_s", 50_000, perm)

    config = dg.parse_config(json.dumps(PROBE_CONFIG))
    cells = PROBE_CONFIG["generation"]["tuple_count"]
    try:
        from dirtygen.datagen import clean_cell_value
        determinants = [clean_cell_value(config, i, "set") for i in range(cells)]
    except (ImportError, AttributeError, TypeError) as exc:
        out["probe_errors"].append(f"datagen: {exc!r}")
    else:
        for kind in run.PROBE_KINDS:
            def column(kind=kind):
                for i in range(cells):
                    clean_cell_value(config, i, kind, {"set": determinants[i]} if kind == "dependency" else {})
            timed(f"datagen.cells_per_s.{kind}", cells, column)

    records = [record for _, record in zip(range(2000), dg.generate_clean_dataset(config))]

    def encode():
        for _ in range(3):
            for record in records:
                dg_output.encode_record(record)

    timed("output.encode_per_s", 3 * len(records), encode)
    return out


PROBE_METRICS = {"rng.u64_per_s", "rng.derive_per_s", "rng.perm_lookups_per_s", "output.encode_per_s"} | {
    f"datagen.cells_per_s.{kind}" for kind in run.PROBE_KINDS
}

# One attribute per clean source kind (named after it); each probe regenerates one column.
PROBE_CONFIG = {
    "schema": [
        {"name": "sequence", "datatype": "integer", "source": {"kind": "sequence", "start": 1, "step": 3}},
        {"name": "lexicon", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"}},
        {"name": "set", "datatype": "string", "source": {"kind": "set", "values": ["red", "green", "blue", "black"]}},
        {"name": "uniform_int", "datatype": "integer", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 1000}},
        {"name": "uniform_float", "datatype": "float", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 1}},
        {"name": "normal", "datatype": "float", "source": {"kind": "numeric", "distribution": "normal", "mean": 50, "stddev": 10}},
        {"name": "template", "datatype": "string", "source": {"kind": "template", "template": "AA-####"}},
        {"name": "unique", "datatype": "integer", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 999999}, "unique": True},
        {"name": "dependency", "datatype": "string"},
    ],
    "dependencies": [
        {"determinant": "set", "dependent": "dependency",
         "mapping": {"red": "R", "green": "G", "blue": "B", "black": "K"}},
    ],
    "generation": {"tuple_count": 5000, "seed": 11},
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", required=True, choices=("validate", "setup", "op", "check", "probe"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tuples", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    config_path = work / f"{args.workload}.json"
    result: dict = {"phase": args.phase}

    if args.phase == "probe":
        result["probes"] = probe()
        (work / "trace-probe.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    prep = run.load_prep(work) if args.phase in ("op", "check") else None  # untraced
    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    if args.phase == "validate":
        result["import_s"] = IMPORT_S
        _quiet_cli(["validate", "--config", str(config_path)])
    elif args.phase == "setup":
        prep = run.prepare(args.workload, args.seed, args.tuples, work, _quiet_cli)
        run.save_prep(prep, work)
    elif args.phase == "op":
        out_dir = work / "op-traced"
        if args.workload == "verify_dense":
            summary = checks.replay_and_verify(prep["inputs"], dg.load_config(config_path))
            (work / "op-traced.txt").write_text(json.dumps(summary) + "\n", encoding="utf-8")
        else:
            _quiet_cli(run.op_args(args.workload, prep, out_dir))
        result["op_s"] = time.perf_counter() - started
        result["children_max_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:  # check
        result["problems"] = run.check_op(args.workload, prep, work / "op-traced", work / "op-traced.txt")
        if workloads.generates(args.workload):
            result["problems"] += checks.full_check(work / "op-traced", prep["config_path"])
    result["wall_s"] = time.perf_counter() - started
    result["trace"] = tracer.report()
    (work / f"trace-{args.phase}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
