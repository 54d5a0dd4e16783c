"""Release gates. Every criterion below must pass at its stated tolerance;
each prints one ACCEPTANCE <id>: PASS/FAIL line (visible with pytest -s or
in the captured sections of a failing run).

1  taxonomy coverage: all 20 error types generatable and verified
2  rate exactness: realized counts equal their targets, zero tolerance
3  reproducibility: byte-identical reruns, placement stability
4  ground-truth consistency: diffs == log, log replay is byte-exact
5  clean validity: independent checker finds zero violations
6  scalability: 1M x 10 attributes, bounded memory, < 5 minutes
7  evaluation sanity: perfect/no-op/hand-built repairs score correctly
8  portability: strict JSON/NDJSON parsing and round-trip identity
"""

import functools
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen import ABSENT, apply_plan, load_config, parse_config, plan_errors, score, verify_error
from dirtygen.cli import main as cli_main
from dirtygen.datagen import generate_clean_dataset, may_be_null, value_in_domain
from dirtygen.errortypes import ALL_ERROR_TYPES
from dirtygen.inject import ErrorLogEntry
from dirtygen.output import encode_record, read_dataset
from dirtygen.rng import derive_stream
from dirtygen.taxonomy import INSERTION_TYPES

from checker import check_dataset, check_value
from confgen import random_config
from replay import realized_counts, replay
from test_byte_gate import MEMBERSHIP
from test_output import write_records

# ---------------------------------------------------------------------------
# Criterion 1: every error type is generatable and verifiable

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
        "synonyms": {
            "Berlin": ["BER"],
            "Munich": ["Muenchen"],
            "Hamburg": ["HH"],
            "New York": ["NYC"],
        },
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

_C1_PARAMS = {
    "bias": {"group_attribute": "city", "group_value": "Berlin", "target_attribute": "score"},
}

_c1_durations: list[float] = []


def _c1_config(error_type: str):
    spec = {"type": error_type, "rate": 0.1}
    if error_type in _C1_TARGETS:
        spec["attributes"] = _C1_TARGETS[error_type]
    if error_type in _C1_PARAMS:
        spec["params"] = _C1_PARAMS[error_type]
    doc = {
        "schema": _C1_SCHEMA,
        "dependencies": _C1_DEPENDENCIES,
        "errors": [spec],
        "generation": {"tuple_count": 1000, "seed": 20260810},
    }
    return parse_config(json.dumps(doc))


@pytest.mark.parametrize("error_type", ALL_ERROR_TYPES)
@pytest.mark.acceptance("C1 taxonomy coverage")
def test_c1_every_error_type_generates_and_verifies(error_type):
    started = time.monotonic()
    config = _c1_config(error_type)
    plan = plan_errors(config)
    clean, dirty, log = apply_plan(plan, config)

    target = config.errors[0].count
    realized = realized_counts(log).get(error_type, 0)
    if error_type == "bias" and plan.warnings:
        assert realized <= target
        assert realized > 0
    else:
        assert realized == target, f"{error_type}: realized {realized} != target {target}"
    assert all(entry.error_type == error_type for entry in log)

    verified = sum(
        1
        for entry in log
        if verify_error(
            entry,
            clean[entry.clean_tuple_index] if entry.clean_tuple_index is not None else None,
            dirty[entry.dirty_tuple_index],
            config,
            dirty_dataset=dirty,
            clean_dataset=clean,
        )
    )
    assert verified == len(log), f"{error_type}: verified {verified} of {len(log)} entries"
    _c1_durations.append(time.monotonic() - started)


@pytest.mark.acceptance("C1 taxonomy coverage runtime < 30 s")
def test_c1_total_runtime_under_30_seconds():
    assert len(_c1_durations) == len(ALL_ERROR_TYPES)
    assert sum(_c1_durations) < 30.0, f"taxonomy suite took {sum(_c1_durations):.1f}s"


# ---------------------------------------------------------------------------
# Criteria 2, 4, 5: randomized property suite over 100 configs


@pytest.fixture(scope="module")
def property_runs():
    runs = []
    for i in range(100):
        rng = random.Random(41_000 + i)
        config = parse_config(random_config(rng))
        plan = plan_errors(config)
        clean, dirty, log = apply_plan(plan, config)
        runs.append((config, clean, dirty, log, plan))
    return runs


@pytest.mark.acceptance("C2 rate exactness over 100 random configs")
def test_c2_rate_exactness(property_runs):
    checked = 0
    for config, clean, dirty, log, plan in property_runs:
        counts = realized_counts(log)
        targets: dict[str, int] = {}
        for spec in config.errors:
            targets[spec.error_type] = targets.get(spec.error_type, 0) + spec.count
        for error_type, target in targets.items():
            realized = counts.get(error_type, 0)
            if error_type == "bias" and plan.warnings:
                assert realized <= target  # the one documented exception
            else:
                assert realized == target, (
                    f"{error_type}: realized {realized}, target {target} "
                    f"(seed {config.seed})"
                )
            checked += 1
    assert checked >= 100


@pytest.mark.acceptance("C4 ground-truth consistency over 100 random configs")
def test_c4_ground_truth_consistency(property_runs):
    for config, clean, dirty, log, plan in property_runs:
        names = config.attribute_names
        logged = {
            (e.dirty_tuple_index, e.attribute)
            for e in log
            if e.attribute is not None and e.clean_tuple_index is not None
        }
        diffs = {
            (i, a)
            for i in range(len(clean))
            for a in names
            if clean[i].get(a, ABSENT) != dirty[i].get(a, ABSENT)
        }
        assert diffs == logged, f"seed {config.seed}: diff/log mismatch"

        rebuilt = replay(clean, log, names)
        original_bytes = "\n".join(encode_record(r) for r in dirty)
        rebuilt_bytes = "\n".join(encode_record(r) for r in rebuilt)
        assert original_bytes == rebuilt_bytes, f"seed {config.seed}: replay mismatch"


@pytest.mark.acceptance("C5 clean validity over 100 random configs")
def test_c5_clean_validity(property_runs):
    for config, clean, dirty, log, plan in property_runs:
        problems = check_dataset(clean, config)
        assert problems == [], f"seed {config.seed}: {problems[:3]}"


def test_property_verifier_soundness(property_runs):
    # Module invariant rather than a numbered gate: every logged error of a
    # randomized run verifies against its records.
    for config, clean, dirty, log, plan in property_runs:
        for entry in log:
            clean_record = (
                clean[entry.clean_tuple_index] if entry.clean_tuple_index is not None else None
            )
            assert verify_error(
                entry,
                clean_record,
                dirty[entry.dirty_tuple_index],
                config,
                dirty_dataset=dirty,
                clean_dataset=clean,
            ), f"seed {config.seed}: unverifiable entry {entry}"


def test_property_clean_values_in_domain(property_runs):
    # Every clean value is a member of its attribute's resolved domain, by
    # membership and, where the domain lists its members, by enumeration;
    # every clean null sits where may_be_null allows one.
    sources = parse_config(json.dumps(_golden_sources_doc()))
    runs = [(sources, list(generate_clean_dataset(sources)))]
    runs += [(config, clean) for config, clean, *_ in property_runs]
    for config, clean in runs:
        for attr in config.schema:
            domain = attr.domain
            members = domain.members()
            if members is not None:
                # A sequence is unbounded and lists its first tuple_count members.
                listed = domain.values is None and attr.source is not None and attr.source["kind"] == "sequence"
                assert len(members) == (config.tuple_count if listed else domain.size), attr.name
                members = set(members)
            for record in clean:
                value = record[attr.name]
                if value is None:
                    assert may_be_null(attr, config), (config.seed, attr.name)
                    continue
                assert value_in_domain(attr, value, config), (config.seed, attr.name, value)
                assert members is None or value in members, (config.seed, attr.name, value)


@functools.cache
def _membership_configs() -> tuple:
    docs = [json.dumps(_golden_sources_doc()), *map(json.dumps, MEMBERSHIP.values())]
    docs += [random_config(random.Random(seed)) for seed in range(20)]
    return tuple(map(parse_config, docs))


def _edges(number) -> list:
    """number, one ulp to each side, and the ints next to it."""
    down, up = math.nextafter(number, -math.inf), math.nextafter(number, math.inf)
    return [number, down, up, math.floor(down), math.ceil(up)]


def _candidates(attr, seed: int) -> list:
    """Values membership must judge right: members and their neighbours of
    other types, and numbers at and beyond every edge."""
    domain = attr.domain
    member = domain.draw(derive_stream(seed, "property:candidates", 0, attr.name))
    values = [member, str(member), True, False, "", math.inf, -math.inf, 1e300, -1e300, 10**400]
    if isinstance(member, (int, float)) and not isinstance(member, bool):
        values += [float(member), int(member), -member, *_edges(member)]
    if attr.interval is not None:
        values += [edge for end in attr.interval for edge in _edges(end)]
    if domain.bound is not None:  # a numeric source's reach
        values += _edges(domain.bound) + _edges(-domain.bound)
    return values


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_members_pass_the_independent_checker(data):
    # Whatever membership takes, the oracle of tests/checker.py takes too:
    # its type, pattern, interval and admissible-set checks share no code
    # with domains.resolve.
    config = data.draw(st.sampled_from(_membership_configs()))
    attr = data.draw(st.sampled_from(config.schema))
    value = data.draw(st.sampled_from(_candidates(attr, data.draw(st.integers(0, 2**32)))))
    if attr.domain.contains(value):
        assert check_value(attr, value) == [], (config.seed, attr.name, value)


# ---------------------------------------------------------------------------
# Criterion 3: reproducibility and placement stability


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.acceptance("C3 reproducibility (byte-identical reruns)")
def test_c3_reruns_are_byte_identical(tmp_path):
    errors = [
        {"type": "missing_value", "rate": 0.08, "attributes": ["city"]},
        {"type": "misspelling", "rate": 0.05, "attributes": ["first_name"]},
        {"type": "outlier", "rate": 0.03, "attributes": ["score"]},
        {"type": "semi_empty_tuple", "rate": 0.02},
        {"type": "redundancy_about_entity", "rate": 0.02},
    ]
    doc = {
        "schema": _C1_SCHEMA,
        "dependencies": _C1_DEPENDENCIES,
        "errors": errors,
        "generation": {"tuple_count": 500, "seed": 99},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["generate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert cli_main(["generate", "--config", str(config_path), "--out", str(out_b)]) == 0
    for name in ("clean.ndjson", "dirty.ndjson", "errors.log"):
        assert _digest(out_a / name) == _digest(out_b / name), name


@pytest.mark.acceptance("C3 placement stability under unrelated spec addition")
def test_c3_unrelated_spec_leaves_placements_unchanged():
    base_errors = [
        {"type": "missing_value", "rate": 0.1, "attributes": ["city"]},
        {"type": "outlier", "rate": 0.05, "attributes": ["score"]},
    ]
    extended = base_errors + [{"type": "misspelling", "rate": 0.1, "attributes": ["first_name"]}]

    def run(errors):
        doc = {
            "schema": _C1_SCHEMA,
            "dependencies": _C1_DEPENDENCIES,
            "errors": errors,
            "generation": {"tuple_count": 400, "seed": 7},
        }
        config = parse_config(json.dumps(doc))
        *_, log = apply_plan(plan_errors(config), config)
        return log

    log_a = run(base_errors)
    log_b = run(extended)
    for error_type in ("missing_value", "outlier"):
        placements_a = [
            (e.dirty_tuple_index, e.attribute) for e in log_a if e.error_type == error_type
        ]
        placements_b = [
            (e.dirty_tuple_index, e.attribute) for e in log_b if e.error_type == error_type
        ]
        assert placements_a == placements_b, error_type


def _golden_dense_doc() -> dict:
    errors = []
    for error_type in ALL_ERROR_TYPES:
        spec = {"type": error_type, "rate": 0.05}
        if error_type in _C1_TARGETS:
            spec["attributes"] = _C1_TARGETS[error_type]
        if error_type in _C1_PARAMS:
            spec["params"] = _C1_PARAMS[error_type]
        errors.append(spec)
    return {
        "schema": _C1_SCHEMA,
        "dependencies": _C1_DEPENDENCIES,
        "errors": errors,
        "generation": {"tuple_count": 600, "seed": 20260810},
    }


def _golden_params_doc() -> dict:
    # Non-default params everywhere a type takes them, two shards, array mode,
    # and a bias subgroup (age == 30) far smaller than the bias target.
    doc = _golden_dense_doc()
    params = {
        "outlier": {"k": 3},
        "noise": {"alpha": 0.2},
        "semi_empty_tuple": {"empty_fraction": 0.4},
        "redundancy_about_entity": {"near_duplicate": False},
        "irrelevant_observation": {
            "offdomain": {"city": {"kind": "set", "values": ["Atlantis", "El Dorado"]}}
        },
        "bias": {
            "group_attribute": "age",
            "group_value": 30,
            "target_attribute": "city",
            "skewed_weights": {"Berlin": 5, "Munich": 1},
        },
    }
    for spec in doc["errors"]:
        if spec["type"] in params:
            spec["params"] = params[spec["type"]]
    doc["generation"]["scaling"] = {"shard_count": 2}
    doc["output"] = {"mode": "json_array"}
    return doc


def _golden_sources_doc() -> dict:
    # Every clean-generation rule the other configs leave out: nulls in the
    # clean data (also behind a dependency), unique draws from each source
    # kind, a weighted set, resampling under a pattern or an interval, an
    # integer normal, a fractional float sequence and a two-level dependency
    # chain listed before its determinant. The error specs draw in-domain
    # values from these sources (erroneous entries, values borrowed from
    # other attributes, conflicting copies) and off-domain ones through
    # stand-in attributes (offdomain sources of every kind).
    def numeric(distribution, **bounds):
        return {"kind": "numeric", "distribution": distribution, **bounds}

    schema = [
        {"name": "uid", "datatype": "integer", "source": numeric("uniform", min=1000, max=999999), "unique": True},
        {"name": "uword", "datatype": "string", "source": {"kind": "lexicon", "name": "words"}, "unique": True},
        {"name": "utag", "datatype": "string", "source": {"kind": "template", "template": "AA-#"}, "unique": True},
        {"name": "ufloat", "datatype": "float", "source": numeric("uniform", min=-5, max=5), "unique": True},
        {"name": "unormal", "datatype": "float", "source": numeric("normal", mean=100, stddev=15),
         "interval": [70, 150], "unique": True},
        {"name": "zonecode", "datatype": "integer"},
        {"name": "bounded", "datatype": "float", "source": numeric("normal", mean=50, stddev=10), "interval": [40, 65]},
        {"name": "inormal", "datatype": "integer", "source": numeric("normal", mean=30, stddev=8)},
        {"name": "fseq", "datatype": "float", "source": {"kind": "sequence", "start": 0.5, "step": 0.25}},
        {"name": "wset", "datatype": "string",
         "source": {"kind": "set", "values": ["a", "b", "c"], "weights": [5, 1, 0.5]}},
        {"name": "pint", "datatype": "integer", "source": numeric("uniform", min=0, max=9999), "pattern": "[0-9]*7"},
        {"name": "ptag", "datatype": "string", "source": {"kind": "template", "template": "A#A#"},
         "pattern": "[A-M][0-9][A-Z][0-4]"},
        {"name": "city", "datatype": "string", "source": {"kind": "set", "values": ["Berlin", "Munich", "Hamburg"]},
         "nullable_in_clean": True, "null_rate": 0.2},
        {"name": "zone", "datatype": "string"},
        {"name": "nick", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"},
         "nullable_in_clean": True, "null_rate": 0.1},
        {"name": "ratio", "datatype": "float", "source": numeric("uniform", min=0, max=2),
         "nullable_in_clean": True, "null_rate": 0.15},
    ]
    dependencies = [
        {"determinant": "city", "dependent": "zone", "mapping": {"Berlin": "N", "Munich": "S", "Hamburg": "N"}},
        {"determinant": "zone", "dependent": "zonecode", "mapping": {"N": 1, "S": 2}},
    ]
    offdomain = {
        "uid": {"kind": "set", "values": [-1, -2, -3], "weights": [1, 2, 3]},
        "wset": numeric("normal", mean=0, stddev=1),
        "ptag": {"kind": "template", "template": "####"},
        "nick": {"kind": "sequence", "start": 1, "step": 1},
        "ratio": numeric("uniform", min=10, max=20),
        "uword": {"kind": "lexicon", "name": "cities"},
    }
    errors = [
        {"type": "missing_value", "rate": 0.03, "attributes": ["zone", "nick"]},
        {"type": "erroneous_entry", "rate": 0.03,
         "attributes": ["wset", "zone", "fseq", "pint", "ptag", "bounded", "inormal", "ratio"]},
        {"type": "inadequate_value_to_attribute_context", "rate": 0.05, "attributes": ["uword"]},
        {"type": "value_items_beyond_attribute_context", "rate": 0.05, "attributes": ["ptag"]},
        {"type": "uniqueness_value_violation", "rate": 0.02, "attributes": ["utag"]},
        {"type": "outlier", "rate": 0.03, "attributes": ["inormal", "ufloat"]},
        {"type": "noise", "rate": 0.03, "attributes": ["bounded", "unormal"]},
        {"type": "bias", "rate": 0.02,
         "params": {"group_attribute": "wset", "group_value": "a", "target_attribute": "inormal"}},
        {"type": "inconsistency_among_attribute_values", "rate": 0.03},
        {"type": "irrelevant_observation", "rate": 0.02, "params": {"offdomain": offdomain}},
        {"type": "redundancy_about_entity", "rate": 0.02},
        {"type": "inconsistency_about_entity", "rate": 0.02},
    ]
    return {
        "schema": schema,
        "dependencies": dependencies,
        "errors": errors,
        "generation": {"tuple_count": 240, "seed": 3141},
    }


def _golden_sources_1k_doc() -> dict:
    # The sources config over four 256-tuple blocks: weighted sets,
    # resampling, clean nulls, unique draws and the dependency chain all cross
    # block boundaries. The words lexicon has fewer than 1,000 members, so
    # uword draws without uniqueness here.
    doc = _golden_sources_doc()
    for attr in doc["schema"]:
        if attr["name"] == "uword":
            del attr["unique"]
    doc["generation"] = {"tuple_count": 1000, "seed": 2718}
    return doc


# sha256 of every output file except run-manifest.json (its duration varies).
_GOLDEN_DIGESTS = {
    "demo": {
        "clean.ndjson": "25bd2e64599a6da5de5525d037d425a6fc4e9ff91cae22ba3b6324de47bd1e8b",
        "dirty.ndjson": "21afb044d258ecc4da2a32ff82ca5a3985c581c50a736f23a9b25a0514439551",
        "errors.log": "6231ba872fe2e2ae1c1b5fb9650dab3a3948920c59a79fe5ddd8ca316b3b4136",
    },
    "dense": {
        "clean.ndjson": "8514a5e469aaa6f7eaf184576d1bbf48ceeaa7d029fe3f0b5504e5cfc9268a28",
        "dirty.ndjson": "7fe70375548c0e1c1237b671754b961fd2bfc8e81df827d004cdc98042b95c4c",
        "errors.log": "0932c1cc4adde22b935287ec4ef0758b5917f488705f18865b6fce380e99926b",
    },
    "params": {
        "clean.00000.json": "382e479e9a22886d880f34bdf58752c2078991bb87f2654c1b41d4e8cce2d93d",
        "clean.00001.json": "8c28798ff7102bca64290f1c8fa8826e0c229200e03e47e1f91f8ba6f11c803b",
        "dirty.00000.json": "622254f99404da4a886997d0060754a08ff1f77678359e8f061f6ed369c9addb",
        "dirty.00001.json": "4c44b282e0d6f93d5413fb45b21a59cc6e8eb5951bf8f59cdadde55cb75895f1",
        "errors.log": "0fe8e9568447d76a86c8ce45ddc09542c71dbe1406a7065983b515f8d331bf05",
    },
    "sources": {
        "clean.ndjson": "acb3b6e84f1112dd1e7be9cf351680e401ea9693acb22d16923113085354f967",
        "dirty.ndjson": "b10b8f684d73b4d326bd4d2467290d2e44ca3667877c3d1eb05046a69a17846f",
        "errors.log": "2305fc4cbe0788ffdfbe9e2face50604c8104273b00bff3bc54091345a37165d",
    },
    "sources_1k": {
        "clean.ndjson": "02328309b7f59b264d09ee5847d70fe9de0b834b5956e702fbe1b85cbb87ced9",
        "dirty.ndjson": "e347ec7bd0dbbb6539c14be984abe5c59632211a29c593a66b4f123059e362ad",
        "errors.log": "90cb8647c59d51d1f2bd3ff42987f122acb6f7e52e9845776b4829e078aa07b0",
    },
}


def _golden_config_path(name: str, tmp_path: Path) -> Path:
    if name == "demo":
        return Path(__file__).resolve().parent.parent / "sample_configs" / "demo.json"
    doc = {
        "dense": _golden_dense_doc,
        "params": _golden_params_doc,
        "sources": _golden_sources_doc,
        "sources_1k": _golden_sources_1k_doc,
    }[name]()
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    return config_path


@pytest.mark.parametrize("name", sorted(_GOLDEN_DIGESTS))
@pytest.mark.acceptance("C3 reproducibility (pinned golden digests)")
def test_c3_golden_digests(name, tmp_path):
    config_path = _golden_config_path(name, tmp_path)
    out = tmp_path / "out"
    assert cli_main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
    digests = {
        path.name: _digest(path)
        for path in sorted(out.iterdir())
        if path.name != "run-manifest.json"
    }
    assert digests == _GOLDEN_DIGESTS[name], (
        f"{name}: output bytes moved. A moved digest is a change of the output "
        f"format; a change that moves it must declare it as one and re-pin here."
    )


@pytest.mark.parametrize("name", sorted(_GOLDEN_DIGESTS))
def test_golden_clean_values_are_members(name, tmp_path):
    # value_in_domain answers "could the clean generator write this?", and the
    # generator wrote every clean value, nulls included: the sources goldens'
    # zone and zonecode are null wherever their nullable determinant city is.
    config = load_config(_golden_config_path(name, tmp_path))
    for record in generate_clean_dataset(config):
        for attr in config.schema:
            value = record[attr.name]
            assert value_in_domain(attr, value, config), (name, attr.name, value)


# ---------------------------------------------------------------------------
# Criterion 6: scalability


def _scaling_doc(n: int) -> dict:
    return {
        "schema": [
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
        ],
        "errors": [
            {"type": "missing_value", "rate": 0.002, "attributes": ["city"]},
            {"type": "misspelling", "rate": 0.002, "attributes": ["last_name"]},
            {"type": "interval_violation", "rate": 0.002, "attributes": ["age"]},
            {"type": "noise", "rate": 0.002, "attributes": ["income"]},
            {"type": "redundancy_about_entity", "rate": 0.001},
        ],
        "generation": {"tuple_count": n, "seed": 17},
        "output": {"mode": "ndjson"},
    }


def _run_cli_with_peak_rss(*argv: str) -> tuple[float, int]:
    """Run the CLI in a child process; return (seconds, peak RSS in KiB).

    Peak RSS is the kernel's VmHWM high-water mark, polled until exit.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "dirtygen.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    status_path = Path(f"/proc/{proc.pid}/status")
    peak_kib = 0
    while proc.poll() is None:
        try:
            for line in status_path.read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak_kib = max(peak_kib, int(line.split()[1]))
                    break
        except OSError:
            break
        time.sleep(0.02)
    stdout, stderr = proc.communicate()
    assert proc.returncode == 0, stderr
    return time.monotonic() - started, peak_kib


@pytest.mark.acceptance("C6 scalability (1M tuples x 10 attributes)")
def test_c6_scalability(tmp_path):
    small_cfg = tmp_path / "small.json"
    big_cfg = tmp_path / "big.json"
    small_cfg.write_text(json.dumps(_scaling_doc(10_000)), encoding="utf-8")
    big_cfg.write_text(json.dumps(_scaling_doc(1_000_000)), encoding="utf-8")

    _, small_peak = _run_cli_with_peak_rss("generate", "--config", str(small_cfg), "--out", str(tmp_path / "small_out"))
    big_seconds, big_peak = _run_cli_with_peak_rss("generate", "--config", str(big_cfg), "--out", str(tmp_path / "big_out"))

    assert big_seconds < 300.0, f"1M-tuple run took {big_seconds:.0f}s"
    assert big_peak <= 2 * small_peak, (
        f"peak RSS {big_peak} KiB exceeds twice the 10k-run peak {small_peak} KiB"
    )
    dirty_lines = sum(1 for _ in open(tmp_path / "big_out" / "dirty.ndjson", "rb"))
    assert dirty_lines == 1_001_000  # 1M base + 1000 inserted duplicates


def _write_seeded_repair(out_dir: Path, seed: int) -> Path:
    """Repair out_dir's dirty.ndjson line by line: about half of the rows
    that differ from clean are restored, one row in a hundred gets a wrong
    score, and most inserted rows are deleted."""
    rng = random.Random(seed)
    path = out_dir / "repaired.ndjson"
    with open(out_dir / "clean.ndjson", encoding="utf-8") as clean, \
            open(out_dir / "dirty.ndjson", encoding="utf-8") as dirty, \
            open(path, "w", encoding="utf-8", newline="\n") as repaired:
        for dirty_line in dirty:
            clean_line = clean.readline()
            if not clean_line:
                line = "null\n" if rng.random() < 0.7 else dirty_line
            elif clean_line != dirty_line and rng.random() < 0.5:
                line = clean_line
            elif rng.random() < 0.01:
                line = encode_record(json.loads(dirty_line) | {"score": -1.0}) + "\n"
            else:
                line = dirty_line
            repaired.write(line)
    return path


def test_evaluate_peak_memory_does_not_grow_with_rows(tmp_path):
    # evaluate holds the log index and one row of each input, so ten times
    # the rows must not raise the peak by more than a quarter (measured
    # 10k/100k: about 22 MiB both; when it loaded whole datasets, 100k
    # peaked at 425 MiB).
    peaks = {}
    for n in (10_000, 100_000):
        config = tmp_path / f"run{n}.json"
        config.write_text(json.dumps(_scaling_doc(n)), encoding="utf-8")
        out = tmp_path / f"out{n}"
        _run_cli_with_peak_rss("generate", "--config", str(config), "--out", str(out))
        repaired = _write_seeded_repair(out, seed=n)
        report = tmp_path / f"report{n}.json"
        _, peaks[n] = _run_cli_with_peak_rss(
            "evaluate", "--clean", str(out / "clean.ndjson"), "--dirty", str(out / "dirty.ndjson"),
            "--repaired", str(repaired), "--log", str(out / "errors.log"), "--report", str(report),
        )
        counts = json.loads(report.read_text(encoding="utf-8"))["counts"]
        assert counts["correct_repairs"] > 0 and counts["false_positives"] > 0
    assert peaks[100_000] <= 1.25 * peaks[10_000], (
        f"evaluate peak RSS {peaks[100_000]} KiB at 100k rows against {peaks[10_000]} KiB at 10k"
    )


# ---------------------------------------------------------------------------
# Criterion 7: evaluation sanity


@pytest.mark.acceptance("C7 evaluation sanity")
def test_c7_evaluation_sanity():
    errors = [
        {"type": "missing_value", "rate": 0.1, "attributes": ["city"]},
        {"type": "redundancy_about_entity", "rate": 0.05},
    ]
    doc = {
        "schema": _C1_SCHEMA,
        "dependencies": _C1_DEPENDENCIES,
        "errors": errors,
        "generation": {"tuple_count": 200, "seed": 5},
    }
    config = parse_config(json.dumps(doc))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    inserted = len(dirty) - len(clean)

    perfect = score(clean, dirty, [dict(r) for r in clean] + [None] * inserted, log)
    assert all(v == 1.0 for v in perfect.overall.to_dict().values())

    noop = score(clean, dirty, [dict(r) for r in dirty], log)
    assert noop.overall.detection_recall == 0.0
    assert noop.counts["flagged"] == 0

    # Hand-built 20-cell instance: 10 errors, 5 fixed correctly, 5 clean
    # cells corrupted; precision = recall = 0.5.
    mini_clean = [{"x": f"c{i}"} for i in range(20)]
    mini_dirty = [dict(r) for r in mini_clean]
    mini_log = []
    for i in range(10):
        mini_dirty[i]["x"] = f"d{i}"
        mini_log.append(
            ErrorLogEntry(i, i, "x", "erroneous_entry", f"c{i}", f"d{i}")
        )
    repaired = [dict(r) for r in mini_dirty]
    for i in range(5):
        repaired[i]["x"] = f"c{i}"
    for i in range(10, 15):
        repaired[i]["x"] = f"z{i}"
    mini = score(mini_clean, mini_dirty, repaired, mini_log)
    assert mini.overall.detection_precision == 0.5
    assert mini.overall.detection_recall == 0.5


# ---------------------------------------------------------------------------
# Criterion 8: portability


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.acceptance("C8 portability (strict JSON, round-trip identity)")
def test_c8_portability(tmp_path):
    for mode in ("ndjson", "json_array"):
        doc = {
            "schema": _C1_SCHEMA,
            "dependencies": _C1_DEPENDENCIES,
            "errors": [
                {"type": "missing_value", "rate": 0.1, "attributes": ["city"]},
                {"type": "missing_attribute", "rate": 0.05, "attributes": ["zip"]},
                {"type": "noise", "rate": 0.05, "attributes": ["score"]},
                {"type": "irrelevant_observation", "rate": 0.02},
            ],
            "generation": {"tuple_count": 300, "seed": 8},
            "output": {"mode": mode},
        }
        config_path = tmp_path / f"run-{mode}.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / mode
        assert cli_main(["generate", "--config", str(config_path), "--out", str(out)]) == 0

        extension = "ndjson" if mode == "ndjson" else "json"
        for which in ("clean", "dirty"):
            path = out / f"{which}.{extension}"
            raw = path.read_bytes()
            assert b"\r" not in raw, "line endings must be LF"
            text = raw.decode("utf-8")
            if mode == "ndjson":
                for line in text.splitlines():
                    assert line == line.rstrip(), "no trailing whitespace"
                    parsed = _strict_json(line)
                    assert isinstance(parsed, dict)
            else:
                parsed = _strict_json(text)
                assert isinstance(parsed, list) and all(isinstance(r, dict) for r in parsed)

            records = list(read_dataset(path))
            rewritten = write_records(records, _respec(out / "rt", mode), which)[0]
            assert rewritten.read_bytes() == raw, f"{which} {mode} round trip"


def _respec(directory: Path, mode: str):
    from dirtygen.output import OutputSpec

    return OutputSpec(directory=directory, mode=mode)
