"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out sweep.jsonl
    python3 perfbench/sweep.py --workloads gen_dense --seeds 1-5 --out try.jsonl
    python3 perfbench/sweep.py --report sweep.jsonl [--against other.jsonl]

Workloads run interleaved (seed by seed, in an order rotated per seed), so
slow drift of the host spreads over all of them instead of landing on one.
Each run's detail and result lines are appended to --out as one JSON line.
The report gives, per workload and end-to-end metric, the median, the
quartile spread as a share of the median (which must stay below a third of
the metric's bound to call the benchmark steady), and with --against the
change of the median relative to the other file's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def sweep(workloads: list[str], seeds: list[int], seconds: int, trace: int, out: Path) -> None:
    for turn, seed in enumerate(seeds):
        shift = turn % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            detail = json.loads(lines[-2].removeprefix("perfbench "))
            result = json.loads(lines[-1])
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()} if not trace else {}
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} spin={detail['host']['spin_ms']:.0f}ms {values}", flush=True)


def _medians(path: Path) -> dict:
    samples: dict = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        workload = record["detail"]["workload"]
        for name, metric in record["result"]["metrics"].items():
            samples.setdefault((workload, name), []).append(metric["value"])
    return samples


def report(path: Path, against: Path | None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    samples = _medians(path)
    others = _medians(against) if against else {}
    unsteady = 0
    for (workload, name), values in sorted(samples.items()):
        if name not in bounds or len(values) < 2:
            continue
        bound, better = bounds[name]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < bound / 3 or name == "setup_s" else "  UNSTEADY"
        unsteady += bool(flag)
        line = f"{workload:16} {name:13} n={len(values):2} median={median:12.4f} spread={spread:6.3f} (bound {bound}){flag}"
        if (workload, name) in others:
            other = statistics.median(others[(workload, name)])
            worse = (median - other) / other if better == "lower" else (other - median) / other
            line += f" worse_than_other={worse:+.3f}" + ("  REGRESSED" if worse > bound else "")
        print(line)
    return 1 if unsteady else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="gen_sparse,gen_dense,evaluate_repair,verify_dense")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--report", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    if args.report:
        return report(args.report, args.against)
    if args.out is None:
        parser.error("--out is required unless --report is given")
    sweep(args.workloads.split(","), _seeds(args.seeds), args.seconds, args.trace, args.out)
    return report(args.out, None) if not args.trace else 0


if __name__ == "__main__":
    sys.exit(main())
