"""The four benchmark workloads: their configs, sizes and operations.

Every config is built from the workload seed, so the program under test only
ever receives generated inputs. See README.md for why each workload exists.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("gen_sparse", "gen_dense", "evaluate_repair", "verify_dense")

# Tuples generated per operation (gen_*), or tuples behind the operation's
# inputs (evaluate_repair, verify_dense). Chosen so that one operation takes
# about 0.5 s on a 2-CPU VM. The VM's speed jumps between a fast and a slow
# state every few seconds. With short operations, many of them, and a median,
# a run reports the state most of its operations saw, rather than a blend that
# moves with the mix. Process start is still about a quarter of an operation.
# The smoke sizes only prove that every path runs and every metric is printed.
SIZES = {"gen_sparse": 5_000, "gen_dense": 2_000, "evaluate_repair": 8_000, "verify_dense": 1_200}
SMOKE_SIZES = {"gen_sparse": 1000, "gen_dense": 400, "evaluate_repair": 400, "verify_dense": 200}

# The C6 scalability schema: ten attributes over every common source kind.
_C6_SCHEMA = [
    {"name": "id", "datatype": "integer", "source": {"kind": "sequence", "start": 1, "step": 1}, "unique": True},
    {"name": "first_name", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"}},
    {"name": "last_name", "datatype": "string", "source": {"kind": "lexicon", "name": "last_names"}},
    {"name": "city", "datatype": "string", "source": {"kind": "lexicon", "name": "cities"}},
    {"name": "street", "datatype": "string", "source": {"kind": "lexicon", "name": "streets"}},
    {"name": "age", "datatype": "integer", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 120}, "interval": [0, 120]},
    {"name": "income", "datatype": "float", "source": {"kind": "numeric", "distribution": "normal", "mean": 52000, "stddev": 11000}},
    {"name": "score", "datatype": "float", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 1}},
    {"name": "code", "datatype": "string", "source": {"kind": "template", "template": "AA-####"}},
    {"name": "word", "datatype": "string", "source": {"kind": "lexicon", "name": "words"}},
]


def _c6_errors(rate: float, insert_rate: float) -> list[dict]:
    return [
        {"type": "missing_value", "rate": rate, "attributes": ["city"]},
        {"type": "misspelling", "rate": rate, "attributes": ["last_name"]},
        {"type": "interval_violation", "rate": rate, "attributes": ["age"]},
        {"type": "noise", "rate": rate, "attributes": ["income"]},
        {"type": "redundancy_about_entity", "rate": insert_rate},
    ]


# The C1 taxonomy schema: one attribute per constraint kind the 20 types need.
_C1_SCHEMA = [
    {"name": "id", "datatype": "integer", "source": {"kind": "sequence", "start": 1, "step": 1}, "unique": True},
    {"name": "first_name", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"}},
    {"name": "age", "datatype": "integer", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 120}, "interval": [0, 120]},
    {"name": "score", "datatype": "float", "source": {"kind": "numeric", "distribution": "normal", "mean": 50.0, "stddev": 10.0}},
    {
        "name": "city",
        "datatype": "string",
        "source": {"kind": "set", "values": ["Berlin", "Munich", "Hamburg", "New York"]},
        "admissible_set": ["Berlin", "Munich", "Hamburg", "New York"],
        "synonyms": {"Berlin": ["BER"], "Munich": ["Muenchen"], "Hamburg": ["HH"], "New York": ["NYC"]},
    },
    {"name": "zip", "datatype": "string"},
    {"name": "code", "datatype": "string", "source": {"kind": "template", "template": "AA-####"}, "pattern": "[A-Z]{2}-[0-9]{4}"},
]

_C1_DEPENDENCIES = [
    {
        "determinant": "city",
        "dependent": "zip",
        "mapping": {"Berlin": "10115", "Munich": "80331", "Hamburg": "20095", "New York": "10001"},
    }
]

# Target attributes for the cell- and column-addressed types; the row and
# insertion types take none.
_C1_TARGETS = {
    "missing_value": ["city"],
    "syntax_violation": ["code"],
    "interval_violation": ["age"],
    "set_violation": ["city"],
    "misspelling": ["first_name"],
    "inadequate_value_to_attribute_context": ["first_name"],
    "value_items_beyond_attribute_context": ["first_name"],
    "meaningless_value": ["first_name"],
    "erroneous_entry": ["city"],
    "uniqueness_value_violation": ["id"],
    "synonyms_existence": ["city"],
    "outlier": ["score"],
    "missing_attribute": ["zip"],
    "noise": ["score"],
}

ALL_TYPES = (
    "missing_value", "syntax_violation", "interval_violation", "set_violation", "misspelling",
    "inadequate_value_to_attribute_context", "value_items_beyond_attribute_context",
    "meaningless_value", "erroneous_entry", "uniqueness_value_violation", "synonyms_existence",
    "outlier", "missing_attribute", "bias", "noise", "semi_empty_tuple",
    "inconsistency_among_attribute_values", "irrelevant_observation", "redundancy_about_entity",
    "inconsistency_about_entity",
)


def _dense_errors() -> list[dict]:
    errors = []
    for error_type in ALL_TYPES:
        spec = {"type": error_type, "rate": 0.05}
        if error_type in _C1_TARGETS:
            spec["attributes"] = _C1_TARGETS[error_type]
        if error_type == "bias":
            spec["params"] = {"group_attribute": "city", "group_value": "Berlin", "target_attribute": "score"}
        errors.append(spec)
    return errors


def config_doc(workload: str, seed: int, tuples: int) -> dict:
    """The run config a workload's operation (or its input generation) uses."""
    if workload == "gen_sparse":
        doc = {"schema": _C6_SCHEMA, "errors": _c6_errors(0.002, 0.001)}
    elif workload == "evaluate_repair":
        doc = {"schema": _C6_SCHEMA, "errors": _c6_errors(0.02, 0.002)}
    elif workload in ("gen_dense", "verify_dense"):
        doc = {"schema": _C1_SCHEMA, "dependencies": _C1_DEPENDENCIES, "errors": _dense_errors()}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    doc["generation"] = {"tuple_count": tuples, "seed": seed}
    doc["output"] = {"mode": "ndjson"}
    return doc


def write_config(workload: str, seed: int, tuples: int, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}.json"
    path.write_text(json.dumps(config_doc(workload, seed, tuples), indent=1), encoding="utf-8")
    return path


def generates(workload: str) -> bool:
    """True when the workload's operation is `dirtygen generate`."""
    return workload.startswith("gen_")
