"""dirtygen benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gen_sparse --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload gen_dense --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --smoke

Run from anywhere; the checkout is the parent of this directory and its
`src` is put on the import path here, so dirtygen need not be installed.
Stdlib only. Each operation is one fresh child process, and the next starts
only after it exits (a closed loop with one client); nothing runs
concurrently. The last stdout line is the result JSON; the line before it,
starting with "perfbench ", is the detail record (host, digests, quartiles,
sample counts, failed_fraction, and in traced runs the per-phase self times
and spans). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 21  # fresh `dirtygen validate` runs per run; setup_s is their median
MIN_OPS = 3
TRACED_OPS = 3  # traced operations per traced run, each in a fresh process
MIB = 1024 * 1024

END_TO_END = {"rows_per_s": "rows/s", "peak_rss_mib": "MiB", "setup_s": "s"}

# Types every workload logs, so their per-entry verify cost is measured in
# every traced run; the detail record has all 20.
COMMON_TYPES = ("missing_value", "misspelling", "interval_violation", "noise", "redundancy_about_entity")
PROBE_KINDS = ("sequence", "lexicon", "set", "uniform_int", "uniform_float", "normal", "template", "unique", "dependency")

PER_LAYER = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "rng.u64_per_s": "draws/s",
    "rng.derive_per_s": "streams/s",
    "rng.perm_lookups_per_s": "lookups/s",
    "datagen.self_s": "s",
    "datagen.rows": "count",
    "datagen.rows_per_s": "rows/s",
    **{f"datagen.cells_per_s.{kind}": "cells/s" for kind in PROBE_KINDS},
    "errorplan.plan_s": "s",
    "errorplan.entries": "count",
    "errorplan.entries_per_s": "entries/s",
    "inject.self_s": "s",
    "inject.log_entries": "count",
    "inject.rows_touched": "count",
    "inject.rows_inserted": "count",
    "inject.verify_s": "s",
    "inject.verify_entries_per_s": "entries/s",
    **{f"inject.verify_ms_per_entry.{t}": "ms" for t in COMMON_TYPES},
    "output.write_s": "s",
    "output.records_written": "count",
    "output.bytes_written": "B",
    "output.write_mib_per_s": "MiB/s",
    "output.encode_per_s": "records/s",
    "output.log_write_s": "s",
    "output.log_lines_written": "count",
    "output.read_s": "s",
    "output.records_read": "count",
    "output.read_mib_per_s": "MiB/s",
    "output.log_read_s": "s",
    "output.rss_hwm_after_read_mib": "MiB",
    "evalkit.score_s": "s",
    "evalkit.units": "count",
    "evalkit.units_per_s": "units/s",
    "evalkit.rss_hwm_after_score_mib": "MiB",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_ratio": "ratio",
}

if not (SRC / "dirtygen" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dirtygen sources under {SRC}; run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(BENCH)]

import dirtygen as dg  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Child processes


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))


def run_child(argv: list[str], output_path: Path) -> dict:
    """Run one process to completion; wall time from start to exit, and its rusage."""
    with open(output_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "maxrss_mib": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def _tail(path: Path, lines: int = 20) -> str:
    return "\n".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "dirtygen.cli", *args]


def _cli_in_child(work: Path):
    def run_cli(args: list[str]) -> None:
        log = work / "cli.txt"
        if run_child(cli_argv(args), log)["exit"] != 0:
            raise RuntimeError(f"dirtygen {' '.join(args)} failed:\n{_tail(log)}")
    return run_cli


# ---------------------------------------------------------------------------
# Set-up, operations and their checks


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def prepare(workload: str, seed: int, tuples: int, work: Path, run_cli) -> dict:
    """Write the workload's config; for evaluate_repair and verify_dense also
    generate their inputs, check them in full, and build the repair oracle."""
    config_path = workloads.write_config(workload, seed, tuples, work)
    prep = {"config_path": config_path, "config": dg.load_config(config_path), "rows": tuples}
    if workloads.generates(workload):
        return prep
    inputs = work / "inputs"
    run_cli(["generate", "--config", str(config_path), "--out", str(inputs)])
    prep["inputs"] = inputs
    prep["input_problems"] = checks.full_check(inputs, config_path)
    prep["input_digests"] = checks.output_digests(inputs)
    prep["rows"] = _line_count(inputs / "dirty.ndjson")
    prep["entries"] = _line_count(inputs / "errors.log") - 1
    if workload == "evaluate_repair":
        prep["expected_counts"] = checks.build_repair(inputs, prep["config"], seed)
    return prep


def save_prep(prep: dict, work: Path) -> None:
    saved = {k: str(v) if isinstance(v, Path) else v for k, v in prep.items() if k != "config"}
    (work / "prep.json").write_text(json.dumps(saved), encoding="utf-8")


def load_prep(work: Path) -> dict:
    prep = json.loads((work / "prep.json").read_text(encoding="utf-8"))
    for key in ("config_path", "inputs"):
        if key in prep:
            prep[key] = Path(prep[key])
    prep["config"] = dg.load_config(prep["config_path"])
    return prep


def op_args(workload: str, prep: dict, out_dir: Path) -> list[str]:
    """CLI arguments of one gen_* or evaluate_repair operation."""
    if workloads.generates(workload):
        return ["generate", "--config", str(prep["config_path"]), "--out", str(out_dir)]
    inputs = prep["inputs"]
    return [
        "evaluate",
        "--clean", str(inputs / "clean.ndjson"),
        "--dirty", str(inputs / "dirty.ndjson"),
        "--repaired", str(inputs / "repaired.ndjson"),
        "--log", str(inputs / "errors.log"),
        "--report", str(out_dir / "report.json"),
    ]


def op_argv(workload: str, prep: dict, out_dir: Path) -> list[str]:
    if workload == "verify_dense":
        return [sys.executable, str(BENCH / "verify_op.py"),
                "--config", str(prep["config_path"]), "--dir", str(prep["inputs"])]
    return cli_argv(op_args(workload, prep, out_dir))


def check_op(workload: str, prep: dict, out_dir: Path, output_path: Path) -> list[str]:
    """Problems with one operation's outputs; gen digests are compared by the caller."""
    if workloads.generates(workload):
        missing = [name for name in checks.OUTPUT_FILES if not (out_dir / name).is_file()]
        if missing:
            return [f"missing outputs: {missing}"]
        return checks.manifest_problems(out_dir, prep["config_path"])
    problems = list(prep.get("input_problems", []))
    if workload == "evaluate_repair":
        report = out_dir / "report.json"
        if not report.is_file():
            return problems + ["no report.json"]
        counts = json.loads(report.read_text(encoding="utf-8"))["counts"]
        if counts != prep["expected_counts"]:
            problems.append(f"report counts {counts} differ from the oracle {prep['expected_counts']}")
        return problems
    lines = output_path.read_text(encoding="utf-8").splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["no verify summary"]
    if not summary["replay_ok"]:
        problems.append("replay does not rebuild dirty")
    if summary["unverified"]:
        problems.append(f"entries failing verify_error: {summary['unverified']}")
    if summary["entries"] != prep["entries"] or summary["rows"] != prep["rows"]:
        problems.append(f"verified {summary['entries']} entries over {summary['rows']} rows, "
                        f"expected {prep['entries']} over {prep['rows']}")
    return problems


def measure(workload: str, prep: dict, work: Path, seconds: float, reference: dict | None) -> list[dict]:
    """Closed loop: operations back to back until `seconds` have passed.

    For gen_* the first good output's digests become the reference when none
    is given, and that output is kept as work/reference for the full check;
    every other output must match it byte for byte and is deleted once hashed.
    """
    ops: list[dict] = []
    started = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - started < seconds:
        index = len(ops)
        out_dir = work / f"op{index}"
        output_path = work / f"op{index}.txt"
        op = run_child(op_argv(workload, prep, out_dir), output_path)
        problems = [] if op["exit"] == 0 else [f"exit {op['exit']}: {_tail(output_path, 5)}"]
        if not problems:
            problems = check_op(workload, prep, out_dir, output_path)
        keep = False
        if workloads.generates(workload) and not problems:
            op["digests"] = checks.output_digests(out_dir)
            if reference is None:
                reference, keep = op["digests"], True
            elif op["digests"] != reference:
                problems.append("output bytes differ from the run's first output")
        if keep:
            out_dir.rename(work / "reference")
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        op["problems"] = problems
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# Statistics and the host record


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spin_ms() -> float:
    """A fixed pure-Python loop: how fast this host runs the interpreter right now."""
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - started) * 1000


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    return ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else ref[5:]


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "spin_ms": spin_ms(),
    }


def setup_times(config_path: Path, work: Path) -> list[float]:
    """Wall times of fresh `dirtygen validate` runs: start, import, lexicons, parse."""
    walls = []
    for i in range(SETUP_REPEATS):
        log = work / f"validate{i}.txt"
        rec = run_child(cli_argv(["validate", "--config", str(config_path)]), log)
        if rec["exit"] != 0:
            raise RuntimeError(f"dirtygen validate failed:\n{_tail(log)}")
        walls.append(rec["wall_s"])
    return walls


def _good(ops: list[dict]) -> list[dict]:
    good = [op for op in ops if not op["problems"]]
    return good or ops  # with no good operation, report what the failed ones measured


# ---------------------------------------------------------------------------
# The two kinds of run


def untraced_run(workload: str, seed: int, tuples: int, work: Path, seconds: float, detail: dict) -> dict:
    prep = prepare(workload, seed, tuples, work, _cli_in_child(work))
    setup = setup_times(prep["config_path"], work)
    ops = measure(workload, prep, work, seconds, None)
    if workloads.generates(workload):
        reference = next((op["digests"] for op in ops if "digests" in op), None)
        detail["digests"] = reference
        if reference is not None:
            problems = checks.full_check(work / "reference", prep["config_path"])
            detail["full_check"] = problems or "passed"
            for op in ops:
                if problems and op.get("digests") == reference:
                    op["problems"] += problems
    else:
        detail["digests"] = prep["input_digests"]
        detail["full_check"] = prep["input_problems"] or "passed"
    good = _good(ops)
    samples = {
        "rows_per_s": [prep["rows"] / op["wall_s"] for op in good],
        "peak_rss_mib": [op["maxrss_mib"] for op in good],
        "setup_s": setup,
    }
    detail["rows_per_op"] = prep["rows"]
    detail["op_wall_s"] = quartiles([op["wall_s"] for op in good])
    detail["end_to_end"] = {name: quartiles(values) for name, values in samples.items()}
    return _result(ops, detail, {name: statistics.median(v) for name, v in samples.items()}, END_TO_END)


def traced_run(workload: str, seed: int, tuples: int, work: Path, seconds: float, detail: dict) -> dict:
    started = time.perf_counter()
    workloads.write_config(workload, seed, tuples, work)
    phases = {}
    traced_ops = []
    for phase in ("validate", "setup") + ("op",) * TRACED_OPS + ("check", "probe"):
        log = work / f"trace-{phase}.txt"
        rec = run_child([sys.executable, str(BENCH / "traced.py"), "--phase", phase,
                         "--workload", workload, "--seed", str(seed), "--tuples", str(tuples),
                         "--work", str(work)], log)
        if rec["exit"] != 0:
            raise RuntimeError(f"traced {phase} phase failed:\n{_tail(log)}")
        phases[phase] = json.loads((work / f"trace-{phase}.json").read_text(encoding="utf-8"))
        phases[phase]["process"] = rec
        if phase == "op":
            if workloads.generates(workload):
                rec["digests"] = checks.output_digests(work / "op-traced")
            traced_ops.append(phases[phase])
    # The traced operation with the median wall time stands for the op phase.
    phases["op"] = sorted(traced_ops, key=lambda p: p["process"]["wall_s"])[len(traced_ops) // 2]
    prep = load_prep(work)
    reference = checks.output_digests(work / "op-traced") if workloads.generates(workload) else None
    traced = [{**p["process"], "problems": list(phases["check"]["problems"])} for p in traced_ops]
    for op in traced:
        if op.get("digests", reference) != reference:
            op["problems"].append("traced output bytes differ from the last traced output")
    ops = measure(workload, prep, work, seconds - (time.perf_counter() - started), reference)
    detail["digests"] = reference or prep["input_digests"]
    detail["full_check"] = phases["check"]["problems"] or prep.get("input_problems") or "passed"
    metrics, extra = layer_metrics(phases, _good(ops))
    detail["per_layer_extra"] = extra
    detail["phases"] = {
        name: {"wall_s": p["process"]["wall_s"], "self_s_by_layer": _by_layer(p["trace"]["self_s"])}
        for name, p in phases.items() if "trace" in p
    }
    detail["contrast"] = contrast(phases["op"])
    detail["spans"] = {name: p["trace"]["spans"] for name, p in phases.items() if "trace" in p}
    return _result(traced + ops, detail, metrics, PER_LAYER)


def _by_layer(self_times: dict) -> dict:
    layers: dict[str, float] = {}
    for name, seconds in self_times.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def contrast(op_phase: dict) -> dict:
    """Shares of the traced operation's wall time, for the workload contrast."""
    self_s = op_phase["trace"]["self_s"]
    op_s = op_phase["op_s"]
    plan_inject = self_s.get("errorplan.plan_errors", 0.0) + self_s.get("inject.inject_stream", 0.0)
    reads = self_s.get("output.read_dataset", 0.0) + self_s.get("output.read_error_log", 0.0)
    return {"op_s": op_s, "errorplan_inject_share": plan_inject / op_s, "output_read_share": reads / op_s}


def layer_metrics(phases: dict, untraced_ops: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics over every traced phase: validate, setup, op and check."""
    traces = [p["trace"] for p in phases.values() if "trace" in p]

    def total(name):
        return sum(t["total_s"].get(name, 0.0) for t in traces)

    def self_time(name):
        return sum(t["self_s"].get(name, 0.0) for t in traces)

    def calls(name):
        return sum(t["calls"].get(name, 0) for t in traces)

    def count(key):
        return sum(t["counts"].get(key, 0) for t in traces)

    def high_water(key):
        op_value = phases["op"]["trace"]["counts"].get(key, 0.0)
        return op_value or max(t["counts"].get(key, 0.0) for t in traces)

    def per_s(amount, seconds):
        return amount / seconds if seconds else 0.0

    verify_names = sorted({n for t in traces for n in t["calls"] if n.startswith("inject.verify_error.")})
    verify_s = sum(total(n) for n in verify_names)
    verify_calls = sum(calls(n) for n in verify_names)
    verify_ms = {
        f"inject.verify_ms_per_entry.{t}": 1000 * per_s(total(f"inject.verify_error.{t}"), calls(f"inject.verify_error.{t}"))
        for t in workloads.ALL_TYPES
    }
    plan_s = total("errorplan.plan_errors")
    write_s = total("output.DatasetWriter.write")
    read_s = total("output.read_dataset")
    score_s = total("evalkit.score")
    walls = [op["wall_s"] for op in untraced_ops]
    m = {
        "cli.import_s": phases["validate"]["import_s"],
        "config.load_s": phases["validate"]["trace"]["total_s"].get("config.load_config", 0.0),
        "cli.self_s": self_time("cli.main"),
        **{k: v for k, v in phases["probe"]["probes"].items() if k != "probe_errors"},
        "datagen.self_s": self_time("datagen.generate_clean_dataset"),
        "datagen.rows": count("datagen.generate_clean_dataset.items"),
        "datagen.rows_per_s": per_s(count("datagen.generate_clean_dataset.items"), total("datagen.generate_clean_dataset")),
        "errorplan.plan_s": plan_s,
        "errorplan.entries": count("errorplan.entries"),
        "errorplan.entries_per_s": per_s(count("errorplan.entries"), plan_s),
        "inject.self_s": self_time("inject.inject_stream"),
        "inject.log_entries": count("inject.log_entries"),
        "inject.rows_touched": count("inject.rows_touched"),
        "inject.rows_inserted": count("inject.rows_inserted"),
        "inject.verify_s": verify_s,
        "inject.verify_entries_per_s": per_s(verify_calls, verify_s),
        **{k: verify_ms[k] for k in (f"inject.verify_ms_per_entry.{t}" for t in COMMON_TYPES)},
        "output.write_s": write_s,
        "output.records_written": calls("output.DatasetWriter.write"),
        "output.bytes_written": count("output.bytes_written"),
        "output.write_mib_per_s": per_s(count("output.bytes_written") / MIB, write_s),
        "output.log_write_s": total("output.ErrorLogWriter.write"),
        "output.log_lines_written": calls("output.ErrorLogWriter.write"),
        "output.read_s": read_s,
        "output.records_read": count("output.read_dataset.items"),
        "output.read_mib_per_s": per_s(count("output.bytes_read") / MIB, read_s),
        "output.log_read_s": total("output.read_error_log"),
        "output.rss_hwm_after_read_mib": high_water("output.rss_hwm_after_read_mib"),
        "evalkit.score_s": score_s,
        "evalkit.units": count("evalkit.units"),
        "evalkit.units_per_s": per_s(count("evalkit.units"), score_s),
        "evalkit.rss_hwm_after_score_mib": high_water("evalkit.rss_hwm_after_score_mib"),
        "proc.cpu_s": statistics.median(op["cpu_s"] for op in untraced_ops),
        "proc.cpu_util": statistics.median(op["cpu_s"] / op["wall_s"] for op in untraced_ops),
        "trace.overhead_ratio": (phases["op"]["process"]["wall_s"] - phases["op"]["trace"]["calibrate_s"])
        / statistics.median(walls),
    }
    extra = {
        **verify_ms,
        "probe_errors": phases["probe"]["probes"]["probe_errors"],
        "proc.children_max_rss_mib": phases["op"]["children_max_rss_mib"],
        "untraced_op_wall_s": quartiles(walls),
    }
    return m, extra


def _result(ops: list[dict], detail: dict, values: dict, units: dict) -> dict:
    failed = sum(1 for op in ops if op["problems"])
    detail["attempted"] = len(ops)
    detail["failed_fraction"] = failed / len(ops)
    detail["problems"] = sorted({p for op in ops for p in op["problems"]})
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, tuples: int) -> tuple[dict, dict]:
    """One benchmark run in a private work directory, removed afterwards."""
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "tuples": tuples, "host": host_record()}
    try:
        runner = traced_run if trace else untraced_run
        result = runner(workload, seed, tuples, work, seconds, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    detail["host"]["spin_ms_after"] = spin_ms()
    return result, detail


def smoke() -> int:
    """Every workload once at a tiny size, untraced and traced; every metric
    named in BENCHMARK.json must be printed with its unit, and every check pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, detail = run_once(workload, 1, 1, trace, workloads.SMOKE_SIZES[workload])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if printed != expected[trace]:
                problems.append(f"{label}: metrics {printed} differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{label}: {detail['problems']}")
            if trace and detail["per_layer_extra"]["probe_errors"]:
                problems.append(f"{label}: {detail['per_layer_extra']['probe_errors']}")
            print(f"{label}: {result['attempted']} ops, {result['failed']} failed", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at a tiny size")
    args = parser.parse_args()
    # On SIGTERM, unwind: run_child kills and reaps its child, run_once removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                              workloads.SIZES[args.workload])
    print("perfbench " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
