"""Command-line front end: generate, validate, evaluate.

Exit codes:
  0  success
  1  configuration error
  2  generation, evaluation or input error
  3  I/O error

Human-readable output goes to stdout, machine artifacts to files, error
messages to stderr. The commands only do the work: main alone turns an error
into its message and exit code, by the _FAILURES table.

Only the output modules load with this one; each command loads the rest of
what it runs when it runs, and calls it through the package namespace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import dirtygen as dg

from . import __version__
from .exceptions import ConfigError, DirtygenError, EvaluationError, GenerationError
from .output import read_aligned, read_error_log, write_json

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GENERATION = 2
EXIT_IO = 3

# The message prefix and exit code of each error a command lets through; an
# error takes the entry of the nearest class in its MRO, so a DirtygenError
# that is none of the first three is bad input (a malformed dataset or log).
_FAILURES = {
    ConfigError: ("config error", EXIT_CONFIG),
    GenerationError: ("generation error", EXIT_GENERATION),
    EvaluationError: ("evaluation error", EXIT_GENERATION),
    DirtygenError: ("input error", EXIT_GENERATION),
    OSError: ("i/o error", EXIT_IO),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirtygen",
        description=(
            "Generate clean and deliberately dirtied tabular datasets with a "
            "cell-level error log, and score cleaning tools against them."
        ),
    )
    parser.add_argument("--version", action="version", version=f"dirtygen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate clean, dirty, errors.log, run-manifest.json")
    gen.add_argument("--config", required=True, help="path to the JSON run configuration")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.add_argument("--out", default=None, help="override the output directory")
    gen.add_argument(
        "--emit-plan", action="store_true", help="print the error plan, one entry per line"
    )

    val = sub.add_parser("validate", help="parse the config and print target counts")
    val.add_argument("--config", required=True, help="path to the JSON run configuration")

    ev = sub.add_parser("evaluate", help="score a repaired dataset against the ground truth")
    ev.add_argument("--clean", required=True, help="clean dataset file")
    ev.add_argument("--dirty", required=True, help="dirty dataset file")
    ev.add_argument("--repaired", required=True, help="repaired dataset file (null line = deleted row)")
    ev.add_argument("--log", required=True, help="error log file")
    ev.add_argument("--report", default=None, help="write the metrics report to this JSON file")
    return parser


def cmd_generate(args) -> int:
    from .errorplan import format_plan

    config = dg.load_config(args.config, seed_override=args.seed, output_dir_override=args.out)
    plan = dg.plan_errors(config)
    if args.emit_plan:
        text = format_plan(plan)
        if text:
            print(text)
    for warning in plan.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    manifest = dg.write_run(config, plan)
    out = config.output
    for which, count in (("clean", manifest["tuple_count"]), ("dirty", manifest["dirty_count"])):
        print(f"{which + ':':<9} {', '.join(map(str, out.dataset_paths(which)))} ({count} records)")
    print(f"log:      {out.log_path}")
    print(f"manifest: {out.manifest_path}")
    counts = manifest["error_counts"]
    if counts:
        print("realized error counts:")
        for error_type, amount in counts.items():
            print(f"  {error_type:<40} {amount}")
    else:
        print("realized error counts: none (empty plan)")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .errortypes import ERROR_TYPES

    config = dg.load_config(args.config)
    print(f"config ok: {len(config.schema)} attributes, {config.tuple_count} tuples, seed {config.seed}")
    print(f"config hash: sha256:{config.config_hash}")
    if config.errors:
        print(f"{'error type':<40} {'attributes':<28} {'population':>10} {'target':>8}")
        for spec in config.errors:
            targets = ",".join(ERROR_TYPES[spec.error_type].targets(spec)) or "-"
            print(f"{spec.error_type:<40} {targets:<28} {spec.population:>10} {spec.count:>8}")
    else:
        print("no error specs declared")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # score reads the three datasets as it goes, so format and I/O errors in
    # them surface from inside it, before any report is written.
    log = read_error_log(args.log)
    metrics = dg.score(*read_aligned(args.clean, args.dirty, args.repaired), log)

    if args.report:
        write_json(Path(args.report), metrics.to_dict())

    overall = metrics.overall
    print(f"{'metric':<24} {'value':>8}")
    for name, value in overall.to_dict().items():
        print(f"{name:<24} {value:>8.4f}")
    counts = metrics.counts
    print(
        f"units={counts['units']} flagged={counts['flagged']} logged={counts['logged']} "
        f"tp={counts['true_positives']} fp={counts['false_positives']} "
        f"fn={counts['false_negatives']} correct={counts['correct_repairs']}"
    )
    if metrics.per_error_type:
        print(f"{'error type':<40} {'recall':>8} {'repair':>8}")
        for error_type, m in sorted(metrics.per_error_type.items()):
            print(f"{error_type:<40} {m.detection_recall:>8.4f} {m.repair_recall:>8.4f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"generate": cmd_generate, "validate": cmd_validate, "evaluate": cmd_evaluate}
    try:
        return command[args.command](args)
    except tuple(_FAILURES) as exc:
        prefix, code = next(_FAILURES[kind] for kind in type(exc).__mro__ if kind in _FAILURES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
