"""The byte contract as a gate: each config of a fixed set still writes the
bytes pinned in tests/byte_gate.jsonl.

One line per config holds the sha256 of every output file (the manifest
without its `duration_seconds` line), the `validate` stdout, and the sha256
of the `generate --emit-plan` stdout with the output directory written as
<out>. The set is sample_configs/demo.json, demo at shard_count 2 and 3 in
both output modes, the confgen configs of seeds 0-119, and MEMBERSHIP: five
configs whose injectors or verifier read domain membership (an integer
sequence under an interval, a normal attribute as the target of other
attributes' values and of an offdomain source, a float sequence whose step
is far below its magnitude, and one whose terms are whole numbers).

A change that moves any of these bytes changes the output format. It must
say so, and rewrite the file with

    PYTHONPATH=src python tests/test_byte_gate.py

so that the diff of byte_gate.jsonl names the configs it moved.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

import pytest

from confgen import random_config
from dirtygen.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "byte_gate.jsonl"
CONFGEN_SEEDS = range(120)
SHARDED = [(mode, shards) for mode in ("ndjson", "json_array") for shards in (2, 3)]


def _uniform(low, high) -> dict:
    return {"kind": "numeric", "distribution": "uniform", "min": low, "max": high}


_SCORE = {"name": "score", "datatype": "float",
          "source": {"kind": "numeric", "distribution": "normal", "mean": 50, "stddev": 10}}
_NAME = {"name": "name", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"}}


def _membership_doc(schema: list, *errors: dict) -> dict:
    return {"schema": schema, "errors": list(errors), "generation": {"tuple_count": 150, "seed": 2024}}


MEMBERSHIP = {
    # Ids 1-150 of a sequence held to [1, 200]: a borrowed 0 or 201-400 is outside it.
    "membership-sequence-interval": _membership_doc(
        [{"name": "id", "datatype": "integer", "source": {"kind": "sequence", "start": 1, "step": 1},
          "interval": [1, 200], "unique": True},
         {"name": "u", "datatype": "integer", "source": _uniform(0, 400)}],
        {"type": "inadequate_value_to_attribute_context", "rate": 0.2, "attributes": ["id"]},
    ),
    # A normal(50, 10) score borrows from a numeric and a string donor: both land outside it.
    "membership-normal-donors": _membership_doc(
        [_SCORE, {"name": "u", "datatype": "float", "source": _uniform(0, 1e6)}, _NAME],
        {"type": "inadequate_value_to_attribute_context", "rate": 0.2, "attributes": ["score"]},
    ),
    # Inserted rows draw the score from 0-1e6, mostly beyond what the normal can reach.
    "membership-normal-offdomain": _membership_doc(
        [_SCORE, _NAME],
        {"type": "irrelevant_observation", "rate": 0.1, "params": {"offdomain": {"score": _uniform(0, 1e6)}}},
    ),
    # Readings 1e6 + 0.001 k: each is a member only by its nearest index, and a
    # donor drawn over the same range almost never lands on one.
    "membership-float-sequence": _membership_doc(
        [{"name": "t", "datatype": "float", "source": {"kind": "sequence", "start": 1e6, "step": 0.001}},
         {"name": "u", "datatype": "float", "source": _uniform(1e6, 1e6 + 0.149)}],
        {"type": "erroneous_entry", "rate": 0.2, "attributes": ["t"]},
        {"type": "inadequate_value_to_attribute_context", "rate": 0.2, "attributes": ["t"]},
    ),
    # A float sequence written as start 1 and step 1 holds 1.0, 2.0, ...: a
    # bias group_value 2 is its 2.0, it keys a dependency rule, and no int
    # drawn from the donor u is one of its members.
    "membership-whole-float-sequence": dict(_membership_doc(
        [{"name": "g", "datatype": "float", "source": {"kind": "sequence", "start": 1, "step": 1}},
         {"name": "parity", "datatype": "string"},
         {"name": "u", "datatype": "integer", "source": _uniform(0, 400)}, _SCORE],
        {"type": "bias", "rate": 0.005,
         "params": {"group_attribute": "g", "group_value": 2, "target_attribute": "score"}},
        {"type": "inadequate_value_to_attribute_context", "rate": 0.2, "attributes": ["g"]},
        {"type": "inconsistency_among_attribute_values", "rate": 0.1},
    ), dependencies=[{"determinant": "g", "dependent": "parity",
                      "mapping": {str(k): ("even", "odd")[k % 2] for k in range(1, 151)}}]),
}
NAMES = (
    ["demo"]
    + [f"demo-{mode}-{shards}" for mode, shards in SHARDED]
    + [f"confgen-{seed}" for seed in CONFGEN_SEEDS]
    + list(MEMBERSHIP)
)


def _config_text(name: str) -> str:
    if name.startswith("confgen-"):
        return random_config(random.Random(int(name.split("-")[1])))
    if name in MEMBERSHIP:
        return json.dumps(MEMBERSHIP[name])
    doc = json.loads((ROOT / "sample_configs" / "demo.json").read_text(encoding="utf-8"))
    if name != "demo":
        _, mode, shards = name.split("-")
        doc["output"]["mode"] = mode
        doc["generation"]["scaling"]["shard_count"] = int(shards)
    return json.dumps(doc)


def _stdout(argv: list[str]) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert cli_main(argv) == 0, argv
    return text.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate_line(name: str, work: Path) -> dict:
    """What config `name` writes and prints, run in the empty directory `work`."""
    config, out = work / f"{name}.json", work / "out"
    config.write_text(_config_text(name), encoding="utf-8")
    validate = _stdout(["validate", "--config", str(config)])
    generate = _stdout(["generate", "--config", str(config), "--out", str(out), "--emit-plan"])
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "run-manifest.json":
            data = re.sub(rb'\n  "duration_seconds": [^\n]*', b"", data)
        files[path.name] = _sha256(data)
    return {
        "config": name,
        "files": files,
        "validate": validate,
        "generate": _sha256(generate.replace(str(out), "<out>").encode("utf-8")),
    }


@functools.cache
def _pinned() -> dict[str, dict]:
    lines = PINNED.read_text(encoding="utf-8").splitlines()
    return {line["config"]: line for line in map(json.loads, lines)}


def test_byte_gate_pins_every_config():
    assert list(_pinned()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_byte_gate(name, tmp_path):
    assert gate_line(name, tmp_path) == _pinned()[name], (
        f"{name}: output bytes moved. That is a change of the output format; "
        f"a change that declares one rewrites {PINNED.name} (see this module's docstring)."
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = []
        for name in NAMES:
            (Path(tmp) / name).mkdir()
            lines.append(json.dumps(gate_line(name, Path(tmp) / name), ensure_ascii=False))
    PINNED.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} configs to {PINNED}")
