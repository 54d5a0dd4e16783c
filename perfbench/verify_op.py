"""The verify_dense operation, run as its own process.

Reads a generated output through the public readers, replays the log over
clean, and calls dirtygen.verify_error on every entry (there is no CLI
command for this yet). Prints one JSON summary line.

    python3 perfbench/verify_op.py --config CONFIG --dir OUTPUT_DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import dirtygen as dg  # noqa: E402

import checks  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    config = dg.load_config(args.config)
    print(json.dumps(checks.replay_and_verify(Path(args.dir), config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
