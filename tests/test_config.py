import contextlib
import copy
import io
import json
import math
import re
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirtygen import (
    ConfigError,
    GeneratorConfig,
    LexiconError,
    generate_clean_dataset,
    load_lexicon,
    parse_config,
)
from dirtygen.cli import main as cli_main
from dirtygen.datagen import clean_cell_value
from dirtygen.config import DOCUMENT, MAX_SHARDS, MAX_WIDTH, AttributeSpec, Field, Tagged, compute_config_hash
from dirtygen.errortypes import ALL_ERROR_TYPES, ERROR_TYPES

from checker import check_dataset
from conftest import make_config_text


def minimal_text(**gen) -> str:
    doc = {
        "schema": [
            {
                "name": "age",
                "datatype": "integer",
                "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 120},
                "interval": [0, 120],
            }
        ],
        "errors": [{"type": "missing_value", "rate": 0.1}],
        "generation": {"tuple_count": 100, "seed": 7, **gen},
    }
    return json.dumps(doc)


def test_minimal_config_parses():
    config = parse_config(minimal_text())
    assert config.tuple_count == 100
    assert config.seed == 7
    assert config.errors[0].error_type == "missing_value"
    assert config.errors[0].target_attributes == ("age",)


def test_syntax_error_reports_position():
    with pytest.raises(ConfigError, match=r"line 1, column"):
        parse_config("{not json")


def test_unknown_error_type_rejected():
    doc = json.loads(minimal_text())
    doc["errors"] = [{"type": "value_swap", "rate": 0.1}]
    with pytest.raises(ConfigError, match="unknown error type 'value_swap'"):
        parse_config(json.dumps(doc))


def test_interval_violation_needs_interval():
    doc = json.loads(make_config_text())
    doc["errors"] = [{"type": "interval_violation", "rate": 0.1, "attributes": ["city"]}]
    with pytest.raises(ConfigError, match="not applicable to attribute 'city'"):
        parse_config(json.dumps(doc))


def test_unique_source_exhaustion_by_pigeonhole():
    doc = {
        "schema": [
            {
                "name": "grade",
                "datatype": "string",
                "source": {"kind": "set", "values": ["a", "b", "c", "d", "e"]},
                "admissible_set": ["a", "b", "c", "d", "e"],
                "unique": True,
            }
        ],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    with pytest.raises(ConfigError, match="unique source exhausted"):
        parse_config(json.dumps(doc))


def test_admissible_member_violating_interval_is_contradiction():
    doc = {
        "schema": [
            {
                "name": "age",
                "datatype": "integer",
                "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 120},
                "interval": [0, 100],
                "admissible_set": [10, 50, 200],
            }
        ],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    with pytest.raises(ConfigError, match="admissible_set member 200 violates"):
        parse_config(json.dumps(doc))


def test_admissible_member_outside_its_template_is_rejected():
    # The template's regex is the attribute's pattern, so syntax_violation
    # applies; a member it does not match would log errors none of which
    # verifies (4 of 20 tuples here, before this check).
    doc = {
        "schema": [{"name": "code", "datatype": "string", "source": {"kind": "template", "template": "AA-#"},
                    "admissible_set": ["zzz", "yyy"]}],
        "errors": [{"type": "syntax_violation", "rate": 0.2}],
        "generation": {"tuple_count": 20, "seed": 1},
    }
    with pytest.raises(ConfigError, match="admissible_set member 'zzz' does not match the template 'AA-#'"):
        parse_config(json.dumps(doc))
    doc["schema"][0]["admissible_set"] = ["ZZ-1", "YY-2"]
    assert parse_config(json.dumps(doc)).errors[0].count == 4


@pytest.mark.parametrize(
    "attr, error",
    [
        ({"datatype": "string", "source": {"kind": "template", "template": "AA-#"},
          "synonyms": {"zz": ["ZZ"]}}, "synonym key 'zz' can never be generated"),
        ({"datatype": "float", "source": {"kind": "set", "values": [0.0, 1.0]}},
         "skewed_weights key '-0.0' is outside the target domain"),
    ],
)
def test_synonym_and_skewed_weights_keys_are_domain_members(attr, error):
    # A synonym key of any domain, not only a listed one, must be a value the
    # attribute writes; a skewed_weights key -0.0 is not the member 0.0.
    doc = {
        "schema": [dict(attr, name="t"), {"name": "g", "datatype": "string", "source": {"kind": "set", "values": ["A"]}}],
        "errors": [{"type": "bias", "rate": 0.1, "params": {"group_attribute": "g", "group_value": "A",
                                                              "target_attribute": "t",
                                                              "skewed_weights": {"-0.0": 1, "1.0": 1}}}],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    if "synonyms" in attr:
        del doc["errors"]
    with pytest.raises(ConfigError, match=re.escape(error)):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "schema, dependencies, error",
    [
        ([{"name": "x", "datatype": "float", "source": {"kind": "set", "values": [-0.0, 1.0]},
           "admissible_set": [0.0, 1.0]}], [], "set source value -0.0 is outside the admissible_set"),
        ([{"name": "g", "datatype": "string", "source": {"kind": "set", "values": ["A", "B"]}},
          {"name": "x", "datatype": "float", "admissible_set": [0.0, 1.0]}],
         [{"determinant": "g", "dependent": "x", "mapping": {"A": -0.0, "B": 1.0}}],
         "mapped value -0.0 violates the dependent's constraints"),
    ],
)
def test_admissible_set_membership_compares_by_json(schema, dependencies, error):
    # -0.0 == 0.0, but they are two JSON values: a set value or a mapped
    # image -0.0 is not the admissible member 0.0.
    doc = {"schema": schema, "dependencies": dependencies, "generation": {"tuple_count": 10, "seed": 1}}
    with pytest.raises(ConfigError, match=re.escape(error)):
        parse_config(json.dumps(doc))


def test_oversubscribed_rates_rejected_at_parse_time():
    doc = {
        "schema": [
            {
                "name": "city",
                "datatype": "string",
                "source": {"kind": "set", "values": ["Berlin", "Munich", "Hamburg"]},
            }
        ],
        "errors": [
            {"type": "missing_value", "rate": 0.5},
            {"type": "erroneous_entry", "rate": 0.6},
        ],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    with pytest.raises(ConfigError, match="infeasible rate"):
        parse_config(json.dumps(doc))


def test_dependency_mapping_must_be_total():
    doc = json.loads(make_config_text())
    doc["dependencies"][0]["mapping"].pop("Hamburg")
    with pytest.raises(ConfigError, match="not total.*Hamburg"):
        parse_config(json.dumps(doc))


def test_dependency_cycles_rejected():
    doc = {
        "schema": [
            {"name": "a", "datatype": "string"},
            {"name": "b", "datatype": "string"},
        ],
        "dependencies": [
            {"determinant": "a", "dependent": "b", "mapping": {"x": "y"}},
            {"determinant": "b", "dependent": "a", "mapping": {"y": "x"}},
        ],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    with pytest.raises(ConfigError, match="cycle"):
        parse_config(json.dumps(doc))


def test_dependency_cycle_is_named_and_long_chains_resolve():
    # A chain as long as the width allows, far past the recursion limit.
    width = MAX_WIDTH
    schema = [{"name": "a0", "datatype": "string", "source": {"kind": "set", "values": ["x"]}}]
    schema += [{"name": f"a{i}", "datatype": "string"} for i in range(1, width)]
    rules = [
        {"determinant": f"a{i}", "dependent": f"a{i + 1}", "mapping": {"x": "x"}}
        for i in range(width - 1)
    ]
    doc = {"schema": schema[::-1], "dependencies": rules, "generation": {"tuple_count": 2, "seed": 1}}
    config = parse_config(json.dumps(doc))
    assert clean_cell_value(config, 0, f"a{width - 1}") == "x"
    # Close the chain into a ring: the first walk, from the last attribute,
    # runs down to a0 and meets the last attribute again.
    del schema[0]["source"]
    rules.append({"determinant": f"a{width - 1}", "dependent": "a0", "mapping": {"x": "x"}})
    with pytest.raises(ConfigError, match=f"dependency rules form a cycle involving 'a{width - 1}'"):
        parse_config(json.dumps(doc))


def test_dependent_with_own_source_rejected():
    doc = json.loads(make_config_text())
    for attr in doc["schema"]:
        if attr["name"] == "zip":
            attr["source"] = {"kind": "lexicon", "name": "words"}
    with pytest.raises(ConfigError, match="must not declare"):
        parse_config(json.dumps(doc))


def test_dependent_with_null_rate_rejected():
    # A dependent is null exactly where its determinant is; a null_rate of
    # its own would be ignored, so it is refused.
    doc = json.loads(make_config_text())
    for attr in doc["schema"]:
        if attr["name"] == "zip":
            attr.update(nullable_in_clean=True, null_rate=0.5)
    with pytest.raises(ConfigError, match="'zip'.*null_rate"):
        parse_config(json.dumps(doc))


def test_rate_outside_unit_interval_rejected():
    doc = json.loads(minimal_text())
    doc["errors"] = [{"type": "missing_value", "rate": 1.5}]
    with pytest.raises(ConfigError, match=r"rate must be in \[0, 1\]"):
        parse_config(json.dumps(doc))


def test_duplicate_type_attribute_pair_rejected():
    doc = json.loads(minimal_text())
    doc["errors"] = [
        {"type": "missing_value", "rate": 0.1, "attributes": ["age"]},
        {"type": "missing_value", "rate": 0.2, "attributes": ["age"]},
    ]
    with pytest.raises(ConfigError, match="duplicate spec"):
        parse_config(json.dumps(doc))


def test_missing_attribute_takes_exactly_one_target():
    doc = json.loads(make_config_text())
    doc["errors"] = [{"type": "missing_attribute", "rate": 0.1, "attributes": ["city", "age"]}]
    with pytest.raises(ConfigError, match="exactly one target"):
        parse_config(json.dumps(doc))


def test_parse_is_pure():
    text = make_config_text()
    a = parse_config(text)
    b = parse_config(text)
    assert a.config_hash == b.config_hash
    assert a.schema == b.schema
    assert a.errors == b.errors


def test_hash_changes_with_seed_and_schema():
    base = parse_config(make_config_text())
    reseeded = parse_config(make_config_text(seed=8))
    assert base.config_hash != reseeded.config_hash
    assert compute_config_hash(base) == base.config_hash


def test_config_hash_is_pinned(tmp_path):
    # One document over every source kind and every signature rule: a
    # lexicon by bundled name and one by relative path, a set with and one
    # without weights, default sequence terms, a dependency mapping,
    # offdomain carriers of four kinds and skewed bias weights. A change
    # to how any of them is hashed changes this digest.
    (tmp_path / "colors.txt").write_text("red\ngreen\n blue\nred\n", encoding="utf-8")
    doc = {
        "schema": [
            {"name": "id", "datatype": "integer", "source": {"kind": "sequence"}, "unique": True},
            {"name": "first", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"}},
            {"name": "color", "datatype": "string", "source": {"kind": "lexicon", "path": "colors.txt"}},
            {"name": "city", "datatype": "string",
             "source": {"kind": "set", "values": ["Berlin", "Munich", "Hamburg"], "weights": [3, 2, 1]}},
            {"name": "grade", "datatype": "string", "source": {"kind": "set", "values": ["A", "B", "C"]}},
            {"name": "zone", "datatype": "string"},
            {"name": "age", "datatype": "integer",
             "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 120}, "interval": [0, 120]},
            {"name": "score", "datatype": "float",
             "source": {"kind": "numeric", "distribution": "normal", "mean": 50.5, "stddev": 10}},
            {"name": "code", "datatype": "string", "source": {"kind": "template", "template": "AA-###"}},
        ],
        "dependencies": [
            {"determinant": "city", "dependent": "zone", "mapping": {"Berlin": "N", "Munich": "S", "Hamburg": "N"}},
        ],
        "errors": [
            {"type": "missing_value", "rate": 0.05, "attributes": ["zone", "age"]},
            {"type": "irrelevant_observation", "rate": 0.05, "params": {"offdomain": {
                "city": {"kind": "set", "values": ["Atlantis", "El Dorado"]},
                "age": {"kind": "numeric", "distribution": "uniform", "min": 500, "max": 600},
                "code": {"kind": "template", "template": "###"},
                "first": {"kind": "lexicon", "name": "cities"},
            }}},
            {"type": "bias", "rate": 0.05, "params": {
                "group_attribute": "grade", "group_value": "A", "target_attribute": "city",
                "skewed_weights": {"Berlin": 1, "Munich": 4, "Hamburg": 0},
            }},
        ],
        "generation": {"tuple_count": 50, "seed": 11},
    }
    config = parse_config(json.dumps(doc), base_dir=tmp_path)
    assert config.config_hash == "2b71ed72f2ec712a4c2b8ee612c05c13a9641015b930928447aa79b0bdb4c792"


def test_seed_override():
    config = parse_config(make_config_text(), seed_override=123)
    assert config.seed == 123


def test_column_replication_clones_constraints():
    doc = json.loads(minimal_text())
    doc["generation"]["scaling"] = {"column_replication": 2, "shard_count": 1}
    config = parse_config(json.dumps(doc))
    names = config.attribute_names
    assert names == ("age", "age_r1", "age_r2")
    for name in names:
        assert config.attribute(name).interval == (0, 120)
    # default targeting picks up the replicas
    assert config.errors[0].target_attributes == names


@pytest.mark.parametrize("key", ["column_replication", "shard_count"])
def test_huge_scaling_values_fail_fast(key):
    doc = json.loads(make_config_text())
    doc["generation"]["scaling"] = {key: 2**32}
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=f"generation scaling {key} "):
        parse_config(json.dumps(doc))
    assert time.perf_counter() - start < 0.5


def test_scaling_bounds_are_inclusive():
    doc = json.loads(minimal_text())  # one attribute
    doc["generation"]["scaling"] = {"column_replication": MAX_WIDTH - 1, "shard_count": MAX_SHARDS}
    config = parse_config(json.dumps(doc))
    assert len(config.schema) == MAX_WIDTH and config.output.shard_count == MAX_SHARDS
    for scaling in ({"column_replication": MAX_WIDTH}, {"shard_count": MAX_SHARDS + 1}):
        doc["generation"]["scaling"] = scaling
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))
    # Six attributes: the width counts every declared attribute, dependents too.
    doc = json.loads(make_config_text())
    doc["generation"]["scaling"] = {"column_replication": MAX_WIDTH // 6}
    with pytest.raises(ConfigError, match="would make 10002 attributes of 6, more than 10000"):
        parse_config(json.dumps(doc))
    doc["generation"]["scaling"] = {"column_replication": 2, "shard_count": 3}
    assert len(parse_config(json.dumps(doc)).schema) == 16


def test_parsing_compares_each_attribute_source_once(monkeypatch):
    # Every attribute asks whether another one has a different source; each
    # source's signature is computed once, not once per pair.
    doc = {
        "schema": [
            {"name": "word", "datatype": "string", "source": {"kind": "lexicon", "name": "words"}},
            {
                "name": "n",
                "datatype": "integer",
                "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 9},
            },
        ],
        "errors": [{"type": "inadequate_value_to_attribute_context", "rate": 0.01}],
        "generation": {"tuple_count": 100, "seed": 1, "scaling": {"column_replication": 100}},
    }
    calls = []
    signature = AttributeSpec.source_signature
    monkeypatch.setattr(AttributeSpec, "source_signature", lambda self: calls.append(1) or signature(self))
    config = parse_config(json.dumps(doc))
    width = len(config.schema)
    assert width == 202 and len(config.errors[0].target_attributes) == width
    assert len(calls) <= 3 * width


def test_bundled_lexicon_is_realistic():
    cities = load_lexicon("cities")
    assert len(cities) >= 50
    assert "Berlin" in cities and "New York" in cities


def test_lexicon_trim_and_dedupe(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("a\n\na\nb\n", encoding="utf-8")
    assert load_lexicon(str(path)) == ["a", "b"]


def test_missing_lexicon_file():
    with pytest.raises(LexiconError, match="missing lexicon file"):
        load_lexicon("nope.txt")


def test_empty_lexicon_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(" \n\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="empty"):
        load_lexicon(str(path))


def test_unknown_section_keys_rejected():
    doc = json.loads(minimal_text())
    doc["extra"] = {}
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(json.dumps(doc))


def test_uniqueness_rate_needs_donors():
    doc = {
        "schema": [
            {
                "name": "id",
                "datatype": "integer",
                "source": {"kind": "sequence", "start": 0, "step": 1},
                "unique": True,
            },
        ],
        "errors": [{"type": "uniqueness_value_violation", "rate": 1.0}],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    with pytest.raises(ConfigError, match="earlier donor"):
        parse_config(json.dumps(doc))


def _doc_text(mutate, literal: str) -> str:
    """The base config with mutate applied; the string "@@" it plants is
    replaced by a raw JSON literal (Infinity, NaN and 1e999 are not dumpable)."""
    doc = json.loads(make_config_text())
    mutate(doc)
    return json.dumps(doc).replace('"@@"', literal)


def _source(name):
    return lambda doc: next(a for a in doc["schema"] if a["name"] == name)["source"]


def _error(spec):
    return lambda doc: doc.__setitem__("errors", [spec])


_BIAS_ON_SCORE = {"group_attribute": "score", "target_attribute": "age"}


@pytest.mark.parametrize(
    "mutate, literal",
    [
        (lambda doc: _source("age")(doc).update(max="@@"), "Infinity"),
        (lambda doc: _source("age")(doc).update(min="@@"), "-Infinity"),
        (lambda doc: _source("score")(doc).update(mean="@@"), "1e999"),
        (_error({"type": "outlier", "rate": 0.1, "attributes": ["score"], "params": {"k": "@@"}}), "NaN"),
        (_error({"type": "noise", "rate": "@@", "attributes": ["score"]}), "1e999"),
        (_error({"type": "bias", "rate": 0.1, "params": dict(_BIAS_ON_SCORE, group_value=1, shift="@@")}), "Infinity"),
        (_error({"type": "bias", "rate": 0.1, "params": dict(_BIAS_ON_SCORE, group_value="@@")}), '"nan"'),
        (lambda doc: doc["schema"][3].update(admissible_set=["@@", 50.0]), '"inf"'),
        (lambda doc: doc["schema"][3].update(admissible_set=["@@", 50.0]), '"-Infinity"'),
    ],
)
def test_non_finite_numbers_rejected(mutate, literal):
    with pytest.raises(ConfigError, match="finite"):
        parse_config(_doc_text(mutate, literal))


_SCORE_NEAR_MAX = {"kind": "numeric", "distribution": "normal", "mean": 1.7e308, "stddev": 1e306}


@pytest.mark.parametrize(
    "mutate",
    [
        # A Box-Muller draw reaches 8.57 stddev from the mean.
        lambda doc: _source("score")(doc).update(stddev=1e308),
        # uniform draws lo + u * (hi - lo), and hi - lo is inf.
        lambda doc: _source("age")(doc).update(min=-1.7e308, max=1.7e308),
        lambda doc: doc["schema"][3].update(source={"kind": "numeric", "distribution": "uniform", "min": -1.7e308, "max": 1.7e308}),
        # outlier draws mu +- k * sigma * (1 + u).
        lambda doc: (_source("score")(doc).update(stddev=1e300),
                     _error({"type": "outlier", "rate": 0.1, "attributes": ["score"], "params": {"k": 1e10}})(doc)),
        # noise adds up to 8.57 * alpha * sigma to a clean value.
        lambda doc: (doc["schema"][3].update(source=_SCORE_NEAR_MAX),
                     _error({"type": "noise", "rate": 0.1, "attributes": ["score"], "params": {"alpha": 10}})(doc)),
        # bias adds its shift to a clean value.
        lambda doc: (doc["schema"][3].update(source=_SCORE_NEAR_MAX),
                     _error({"type": "bias", "rate": 0.1, "params": {"group_attribute": "age", "group_value": 30,
                                                                      "target_attribute": "score", "shift": 1e308}})(doc)),
        # interval_violation moves a value up to the interval's width past its bound.
        lambda doc: (doc["schema"][3].update(interval=[-1.7e308, 1.7e308]),
                     _error({"type": "interval_violation", "rate": 0.1, "attributes": ["score"]})(doc)),
        # offdomain sources are parsed as sources too.
        _error({"type": "irrelevant_observation", "rate": 0.1, "params": {"offdomain": {
            "city": {"kind": "numeric", "distribution": "normal", "mean": 0, "stddev": 1e308}}}}),
    ],
)
def test_draws_beyond_the_float_range_rejected(mutate):
    with pytest.raises(ConfigError, match="float range"):
        parse_config(_doc_text(mutate, ""))


def test_draws_just_inside_the_float_range_accepted():
    doc = json.loads(make_config_text(errors=[
        {"type": "outlier", "rate": 0.1, "attributes": ["score"], "params": {"k": 1e5}},
        {"type": "noise", "rate": 0.1, "attributes": ["score"], "params": {"alpha": 1e5}},
    ]))
    doc["schema"][3]["source"] = {"kind": "numeric", "distribution": "normal", "mean": -1e307, "stddev": 1e300}
    parse_config(json.dumps(doc))


@pytest.mark.parametrize("datatype", ["integer", "float"])
def test_uniform_range_outside_the_interval_rejected(datatype):
    doc = json.loads(make_config_text())
    doc["schema"][2].update(datatype=datatype, interval=[200, 300])  # age: uniform over [0, 120]
    with pytest.raises(ConfigError, match="interval"):
        parse_config(json.dumps(doc))


def _sequence_text(tuple_count: int, datatype: str = "integer", start=1, step=1, **constraint) -> str:
    attr = {"name": "s", "datatype": datatype, "source": {"kind": "sequence", "start": start, "step": step}}
    return json.dumps({"schema": [dict(attr, **constraint)], "generation": {"tuple_count": tuple_count}})


@pytest.mark.parametrize(
    "text, error",
    [
        pytest.param(_sequence_text(10, interval=[1, 10]), None, id="interval-inside"),
        pytest.param(_sequence_text(10, interval=[1, 9]),
                     r"value 10 of tuple 9 is outside the interval \[1, 9\]", id="interval-above"),
        pytest.param(_sequence_text(10, interval=[2, 10]),
                     r"value 1 of tuple 0 is outside the interval \[2, 10\]", id="interval-below"),
        pytest.param(_sequence_text(10, start=10, step=-1, interval=[1, 10]), None, id="interval-descending"),
        pytest.param(_sequence_text(5, admissible_set=[1, 2, 3, 4, 5]), None, id="set-inside"),
        pytest.param(_sequence_text(10, admissible_set=[5, 4, 3, 2, 1]),
                     "value 6 of tuple 5 is outside the admissible_set", id="set-left"),
        pytest.param(_sequence_text(3, admissible_set=[2, 3, 4]), "value 1 of tuple 0 is outside", id="set-start"),
        pytest.param(_sequence_text(50, step=0, admissible_set=[1]), None, id="set-constant"),
        pytest.param(_sequence_text(3, "float", 0.5, 0.25, admissible_set=[0.5, 0.75, 1.0]), None, id="set-float"),
        pytest.param(_sequence_text(4, "float", 0.5, 0.25, admissible_set=[0.5, 0.75, 1.0]),
                     "value 1.25 of tuple 3", id="set-float-left"),
        # Integer sequences are computed in integers, also beyond 2^53.
        pytest.param(_sequence_text(3, start=2**53, step=1.0, unique=True), None, id="unique-beyond-2^53"),
        pytest.param(_sequence_text(2, "float", 1e308, 1e308), "float range", id="float-overflow"),
        pytest.param(_sequence_text(2, "integer", 1e308, 1e308), "float range", id="integer-overflow"),
        pytest.param(_sequence_text(3, start=0.5, step=0.5, admissible_set=[0, 1, 2]),
                     "integer start and step", id="integer-fractional-under-set"),
        pytest.param(_sequence_text(5, pattern="[0-9]{3}"),
                     "value 1 of tuple 0 is outside the pattern", id="pattern-start"),
        pytest.param(_sequence_text(900, start=100, pattern="[0-9]{3}"), None, id="pattern-inside"),
        pytest.param(_sequence_text(901, start=100, pattern="[0-9]{3}", unique=True),
                     "value 1000 of tuple 900 is outside the pattern", id="pattern-left"),
        pytest.param(_sequence_text(3, "float", 0.5, 0.25, pattern=r"0\.[0-9]+"),
                     "value 1.0 of tuple 2 is outside the pattern", id="pattern-float-left"),
    ],
)
def test_sequence_clean_values_stay_in_interval_and_admissible_set(text, error):
    # A sequence's clean values follow the sequence even under an admissible
    # set or a pattern, so a sequence that leaves the set, the pattern or the
    # interval is rejected.
    if error is not None:
        with pytest.raises(ConfigError, match=error):
            parse_config(text)
        return
    config = parse_config(text)
    assert check_dataset(list(generate_clean_dataset(config)), config) == []


@pytest.mark.parametrize(
    "datatype, start, step, members, strangers",
    [
        ("integer", 2**53, 1.0, [2**53 + 1, 10**400], [2**53 - 1, 0.5, float(2**53 + 2)]),
        ("integer", 0, 3, [3 * 10**400, 6], [3 * 10**400 + 1, math.inf, math.nan, 6.0, True]),
        ("float", 0.5, 0.25, [0.75, 1.0], [10**400, math.inf, 0.6]),
    ],
)
def test_sequence_membership_is_exact_for_integers(datatype, start, step, members, strangers):
    # Membership covers the whole sequence, not only its first tuple_count
    # values; no value, however large, makes it raise. An integer attribute
    # takes ints only, so an integral float is no member.
    domain = parse_config(_sequence_text(3, datatype, start, step)).attribute("s").domain
    assert all(domain.contains(v) for v in members)
    assert not any(domain.contains(v) for v in strangers)


def test_float_sequence_of_whole_terms_writes_float_admissible_members():
    # A float sequence's terms are floats: start 1 and step 1 write the
    # members 1.0-6.0, as start 1.0 does. The int 1 is no member.
    members = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    for start in (1, 1.0):
        config = parse_config(_sequence_text(6, "float", start, 1, admissible_set=members))
        domain = config.attribute("s").domain
        assert [repr(record["s"]) for record in generate_clean_dataset(config)] == list(map(repr, members))
        assert all(domain.contains(domain.by_index(k)) for k in range(6))
        assert not domain.contains(1)


def test_far_float_sequence_terms_are_members():
    # Far out, the rounded index (value - start) / step of a float term can
    # be one or two off its own: here the last term's rounds to the index
    # before it. Membership tries those neighbours too, so the config parses.
    start, step, tuple_count = 913.0329539528377, 29832396.5053445, 3781536831718334
    last = start + (tuple_count - 1) * step
    assert round((last - start) / step) == tuple_count - 2
    domain = parse_config(_sequence_text(tuple_count, "float", start, step)).attribute("s").domain
    assert domain.contains(last) and domain.contains(domain.by_index(tuple_count - 1)) and domain.contains(start)
    assert not domain.contains(last + step / 2) and not domain.contains(start - step)


def _scaled(low: int, high: int):
    """Nonzero floats of either sign with magnitudes from 10**low to 10**high."""
    return st.builds(lambda m, e, sign: sign * m * 10.0**e,
                     st.floats(1, 9.99), st.integers(low, high), st.sampled_from([1, -1]))


_SEQUENCE_PATTERNS = {
    "integer": [r"-?[0-9]+", r"[0-9]{1,3}", r"-?[0-9]*[02468]", r"[1-9][0-9]*"],
    "float": [r"-?[0-9]+\.[0-9]+", r"-?[0-9]+\.[0-9]{1,3}", r"[^e]+", r"-?[0-9]+"],
}


@st.composite
def _sequence_sources(draw):
    """A sequence attribute, its tuple count and k -> its k-th clean value: integer
    or float terms (a float sequence's start and step may be written as ints,
    its terms are floats) over wide magnitudes, and an optional interval,
    pattern and admissible set near its values."""
    datatype = draw(st.sampled_from(["integer", "float"]))
    if datatype == "integer":
        start, step = draw(st.integers(-(10**18), 10**18)), draw(st.integers(-(10**9), 10**9))
    else:
        start = draw(_scaled(-9, 15) | st.integers(-(10**6), 10**6))
        step = draw(_scaled(-9, 6) | st.integers(-1000, 1000))
    typed = int if datatype == "integer" else float
    at = lambda k: typed(start) + k * typed(step)  # noqa: E731
    small = draw(st.booleans())
    tuple_count = draw(st.integers(1, 300) if small else st.integers(301, 10**9))
    attr = {"name": "s", "datatype": datatype, "source": {"kind": "sequence", "start": start, "step": step}}
    if draw(st.booleans()):
        attr["interval"] = sorted(at(draw(st.integers(0, 2 * tuple_count))) for _ in range(2))
    if small and draw(st.booleans()):
        attr["pattern"] = draw(st.sampled_from(_SEQUENCE_PATTERNS[datatype]))
    if small and draw(st.booleans()):
        # The values of a run of indices about the tuples', maybe one left out.
        first = draw(st.integers(0, 1))
        indices = range(first, draw(st.integers(max(tuple_count - 2, first), tuple_count + 1)) + 1)
        dropped = draw(st.sampled_from([None, *indices])) if len(indices) > 1 else None
        attr["admissible_set"] = list(dict.fromkeys(at(k) for k in indices if k != dropped))
    return attr, tuple_count, at


def _satisfies(attr: dict, value) -> bool:
    """The interval and the pattern, checked here without the library."""
    lo, hi = attr.get("interval", (value, value))
    return lo <= value <= hi and ("pattern" not in attr or re.fullmatch(attr["pattern"], str(value)) is not None)


@settings(max_examples=300, deadline=None)
@given(_sequence_sources(), st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
def test_property_sequence_clean_values_are_members(source, points):
    # A config that parses has every sampled clean value as a member of its
    # domain, and one whose clean values include a value the constraints
    # refuse does not parse. An interval alone is checked at both ends: the
    # values are monotonic in the tuple index.
    attr, tuple_count, at = source
    text = json.dumps({"schema": [attr], "generation": {"tuple_count": tuple_count}})
    members = attr.get("admissible_set")
    # A listed member is a value of the same JSON text.
    admits = lambda v: _satisfies(attr, v) and (members is None or json.dumps(v) in map(json.dumps, members))  # noqa: E731
    tuples = range(tuple_count) if "pattern" in attr or members else (0, tuple_count - 1)
    if not all(_satisfies(attr, m) for m in members or ()):
        expected = "admissible_set member"
    elif not all(admits(at(k)) for k in tuples):
        expected = "sequence value"
    else:
        expected = None
    if expected is not None:
        with pytest.raises(ConfigError, match=expected):
            parse_config(text)
        return
    domain = parse_config(text).attribute("s").domain
    sampled = [0, tuple_count - 1] + [int(p * tuple_count) for p in points]
    assert all(repr(domain.by_index(k)) == repr(at(k)) and domain.contains(at(k)) for k in sampled)


def test_pattern_python_warns_about_is_a_config_error():
    # A pattern whose meaning may change between Python versions would break
    # byte-identity across interpreters; no warning escapes parse_config.
    doc = json.loads(make_config_text())
    doc["schema"][1]["pattern"] = "[[a-c]]?.*"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="attribute 'first_name': pattern may change meaning"):
            parse_config(json.dumps(doc))


def test_unique_normal_without_probability_mass_rejected():
    doc = json.loads(make_config_text())
    doc["schema"][3]["interval"] = [200, 300]  # score: normal(50, 10)
    parse_config(json.dumps(doc))  # draws are resampled; only a unique attribute needs the mass
    doc["schema"][3]["unique"] = True
    with pytest.raises(ConfigError, match="probability mass"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("depth", [995, 100_000])
def test_deeply_nested_document_raises_config_error(depth):
    with pytest.raises(ConfigError, match="too deeply"):
        parse_config("[" * depth + "]" * depth)


def test_nested_offdomain_value_parses_or_raises_config_error():
    # An offdomain set value is the one place a config keeps nested JSON; near
    # the recursion limit it can pass one encoder and not the next.
    text = make_config_text(errors=[{"type": "irrelevant_observation", "rate": 0.1, "params": {
        "offdomain": {"city": {"kind": "set", "values": ["@@"]}}}}])
    for depth in range(900, 1001):
        try:
            parse_config(text.replace('"@@"', "[" * depth + "]" * depth))
        except ConfigError:
            pass


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.__setitem__("output", {"directory": 5}),
        lambda doc: doc.__setitem__("output", {"directory": None}),
        lambda doc: doc.__setitem__("output", {"directory": {}}),
        _error({"type": "missing_value", "rate": 0.1, "attributes": [["city"]]}),
        _error({"type": "missing_value", "rate": 0.1, "attributes": [{}]}),
        _error({"type": ["missing_value"], "rate": 0.1}),
        _error({"type": "bias", "rate": 0.1, "params": dict(_BIAS_ON_SCORE, group_attribute=["city"], group_value=1)}),
        _error({"type": "irrelevant_observation", "rate": 0.1, "params": {"offdomain": {"city": {"kind": "lexicon", "name": ["x"]}}}}),
        _error({"type": "bias", "rate": 0.1, "params": {"group_attribute": "city", "group_value": "\ud800", "target_attribute": "age"}}),
        lambda doc: doc.__setitem__("dependencies", 5),
        lambda doc: (doc["generation"].__setitem__("scaling", {"column_replication": 1}),
                     doc["dependencies"][0].__setitem__("dependent", ["zip"])),
        lambda doc: doc["dependencies"][0].__setitem__("determinant", ["city"]),
        lambda doc: (doc["schema"][5].__setitem__("source", {"kind": "set", "values": ["10115"]}),
                     doc["dependencies"][0].__setitem__("dependent", ["zip"])),
        lambda doc: _source("first_name")(doc).update(name="first\u0000names"),
        lambda doc: _source("first_name")(doc).update(name=None, path="words\u0000.txt"),
        # Set values lie in the admissible set, typed and constrained as in the set's absence.
        lambda doc: doc["schema"].append({"name": "grade", "datatype": "string", "pattern": "[a-c]",
                                          "source": {"kind": "set", "values": ["zzz", 5, [1]]},
                                          "admissible_set": ["a", "b"]}),
        lambda doc: doc["schema"].append({"name": "grade", "datatype": "string",
                                          "source": {"kind": "set", "values": ["a", "c"]},
                                          "admissible_set": ["a", "b"]}),
        _error({"type": "bias", "rate": 0.1, "params": {"group_attribute": "age", "group_value": 30, "target_attribute": "city",
                                                         "skewed_weights": {"Berlin": 2, "Munich": 1}, "shift": 1}}),
        # skewed_weights cannot target a dependent, whose values follow its rule.
        _error({"type": "bias", "rate": 0.1, "params": {"group_attribute": "age", "group_value": 30, "target_attribute": "zip",
                                                         "skewed_weights": {"10115": 2, "80331": 1}}}),
    ],
)
def test_malformed_values_raise_config_error(mutate):
    with pytest.raises(ConfigError):
        parse_config(_doc_text(mutate, ""))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_NAMES = st.sampled_from(["id", "first_name", "age", "score", "city", "zip", "nope"])
_PARAM_KEYS = st.sampled_from(sorted({key for etype in ERROR_TYPES.values() for key in etype.params}))
_SPEC = st.fixed_dictionaries(
    {},
    optional={
        "type": st.sampled_from(ALL_ERROR_TYPES) | _JSON,
        "rate": st.floats(0, 0.2) | _JSON,
        "attributes": st.lists(_NAMES | _JSON, max_size=3) | _JSON,
        "params": st.dictionaries(_PARAM_KEYS, _NAMES | _JSON, max_size=4) | _JSON,
    },
)
_OUTPUT = st.fixed_dictionaries(
    {}, optional={"directory": st.just("out") | _JSON, "mode": st.just("json_array") | _JSON}
)


@settings(max_examples=300, deadline=None)
@given(errors=st.lists(_SPEC | _JSON, max_size=4) | _JSON, output=_OUTPUT | _JSON)
def test_errors_and_output_sections_raise_only_config_error(errors, output):
    doc = json.loads(make_config_text())
    doc["errors"] = errors
    doc["output"] = output
    try:
        config = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(config, GeneratorConfig)


# ---------------------------------------------------------------------------
# Properties drawn from the grammar: every section of a valid document is
# mutated key by key with valid, boundary and wrongly typed values, unknown
# keys and removed keys.

_BASE = json.loads(make_config_text(
    errors=[
        {"type": "missing_value", "rate": 0.05, "attributes": ["city"]},
        {"type": "interval_violation", "rate": 0.05, "attributes": ["age", "score"]},
        {"type": "outlier", "rate": 0.05, "attributes": ["score"], "params": {"k": 3}},
        {"type": "noise", "rate": 0.05, "attributes": ["score"], "params": {"alpha": 0.1}},
        {"type": "semi_empty_tuple", "rate": 0.05, "params": {"empty_fraction": 0.5}},
        {"type": "redundancy_about_entity", "rate": 0.05, "params": {"near_duplicate": True, "perturbed_attributes": 1}},
        {"type": "irrelevant_observation", "rate": 0.05,
         "params": {"offdomain": {"city": {"kind": "set", "values": ["Atlantis"], "weights": [1]}}}},
        {"type": "bias", "rate": 0.05, "params": {"group_attribute": "city", "group_value": "Berlin",
                                                  "target_attribute": "score", "shift": 2.5}},
        {"type": "bias", "rate": 0.05, "params": {"group_attribute": "age", "group_value": 30,
                                                  "target_attribute": "city", "skewed_weights": {"Berlin": 2, "Munich": 1}}},
    ],
    tuple_count=30,
    output={"directory": "out", "mode": "json_array"},
))
_BASE["generation"]["scaling"] = {"column_replication": 0, "shard_count": 1}
_BASE["schema"][3]["interval"] = [0, 100]
_BASE["schema"] += [
    {"name": "code", "datatype": "string", "source": {"kind": "template", "template": "A#"}, "pattern": "[A-Z][0-9]"},
    {"name": "grade", "datatype": "string", "source": {"kind": "set", "values": ["A", "B"]},
     "admissible_set": ["A", "B"], "nullable_in_clean": True, "null_rate": 0.1},
    {"name": "step", "datatype": "float", "source": {"kind": "sequence", "start": 0.5, "step": 0.25}},
]


def _strings(value) -> set:
    if isinstance(value, str):
        return {value}
    if isinstance(value, list):
        return set().union(*map(_strings, value))
    if isinstance(value, dict):
        return set(value).union(*map(_strings, value.values()))
    return set()


_STRINGS = st.sampled_from(sorted(_strings(_BASE) | {"", "a\u0000b", "[[a-c]]?.*", "a(?i)b", "(", "é"})) | st.text(max_size=4)
_NUMBERS = st.sampled_from([0, 0.0, 1, -1, 0.5, 1.0, 3, 1e-300, 1e300, 1e308, -1e308, 2**53, 2**1024,
                            math.inf, -math.inf, math.nan]) | st.floats(-1e3, 1e3) | st.integers(-5, 200)
_DELETE = object()


def _integers(field: Field):
    # The edges of a declared upper bound; the other integers stay small, so
    # no drawn document asks for millions of columns, shards or tuples.
    edges = [2**64 - 1, 2**64] if field.bound is not None and not field.bound(2**64) else []
    return st.integers(-3, 60) | st.sampled_from(edges) if edges else st.integers(-3, 60)


def _section_value(section, junk):
    if isinstance(section, Tagged):
        return st.one_of([_section_value(choice, junk).map(lambda d, tag=tag: {section.tag: tag, **d})
                          for tag, choice in section.choices.items()])
    return st.fixed_dictionaries({}, optional={key: _value(field, junk) for key, field in section.items()})


def _value(field: Field, junk):
    """Valid and boundary values of the field's type, or junk."""
    kind = field.type
    if isinstance(kind, (dict, Tagged)):
        return _section_value(kind, junk) | junk
    if kind == "integer":
        return _integers(field) | junk
    if kind in ("list", "object"):
        items = _JSON if field.items is None else _value(field.items, junk)
        valid = st.lists(items, max_size=4) if kind == "list" else st.dictionaries(_STRINGS, items, max_size=3)
        return valid | junk
    return {"string": _STRINGS, "number": _NUMBERS, "boolean": st.booleans(), "any": _JSON}[kind] | junk


def _sections(value: dict, section, path=()):
    """(path, section, tag choices) of every section of a valid document;
    an error spec's params are walked by its type's section."""
    tags = {}
    while isinstance(section, Tagged):
        tags[section.tag] = section.choices
        section = section.choices[value[section.tag]]
    yield path, section, tags
    for key, field in section.items():
        if key == "params":
            field = Field(ERROR_TYPES[value["type"]].params)
        child, kind = value.get(key), field.type
        if isinstance(kind, (dict, Tagged)) and isinstance(child, dict):
            yield from _sections(child, kind, path + (key,))
        elif child is not None and field.items is not None and isinstance(field.items.type, (dict, Tagged)):
            for index, item in (enumerate(child) if kind == "list" else child.items()):
                yield from _sections(item, field.items.type, path + (key, index))


def _mutations(junk):
    """Lists of (path, (key, value)): values of the key's type or junk, and
    with junk also unknown keys; _DELETE removes the key."""

    def mutation(target):
        path, section, tags = target
        changes = [st.tuples(st.just(key), _value(field, junk)) for key, field in section.items()]
        changes += [st.tuples(st.just(tag), st.sampled_from(sorted(choices)) | junk) for tag, choices in tags.items()]
        changes.append(st.tuples(st.sampled_from(["extra", "Name", ""]), junk))
        changes.append(st.tuples(st.sampled_from(sorted(section)), st.just(_DELETE)))
        return st.tuples(st.just(path), st.one_of(changes))

    return st.lists(st.sampled_from(list(_sections(_BASE, DOCUMENT))).flatmap(mutation), min_size=1, max_size=3)


def _mutated(mutations) -> str:
    """The base document with the mutations applied; one whose path an
    earlier mutation removed is dropped."""
    doc = copy.deepcopy(_BASE)
    for path, (key, value) in mutations:
        node = doc
        for step in path:
            try:
                node = node[step]
            except (KeyError, IndexError, TypeError):
                node = None
        if isinstance(node, dict) and value is _DELETE:
            node.pop(key, None)
        elif isinstance(node, dict):
            node[key] = value
    return json.dumps(doc)


# The examples are shapes of the errors and output sections that a run of
# 300 draws, spread over every section, may miss.
@settings(max_examples=300, deadline=None)
@given(mutations=_mutations(_JSON))
@example(mutations=[((), ("errors", {"type": "noise"}))])
@example(mutations=[((), ("errors", [1]))])
@example(mutations=[(("errors", 0), ("attributes", "city")), (("errors", 1), ("extra", 1))])
@example(mutations=[(("errors", 0), ("extra", 1)), (("errors", 0), ("Name", None)), (("errors", 0), ("", []))])
@example(mutations=[((), ("output", ["out"]))])
@example(mutations=[(("output",), ("directory", 5))])
@example(mutations=[(("output",), ("mode", None))])
@example(mutations=[(("output",), ("extra", 1)), (("output",), ("Name", {}))])
def test_every_section_raises_only_config_error(mutations):
    try:
        config = parse_config(_mutated(mutations))
    except ConfigError:
        return
    assert isinstance(config, GeneratorConfig)


@settings(max_examples=100, deadline=None)
@given(mutations=_mutations(st.nothing()))
def test_a_config_that_parses_also_generates(mutations):
    # parse_config's guarantee: a config that parses runs, to a clean exit or
    # a reported generation error, never to a traceback or another error
    # (cli.main reports any package error, a writer's count check among them).
    text = _mutated(mutations)
    try:
        config = parse_config(text)
    except ConfigError:
        return
    if config.tuple_count > 50:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(["generate", "--config", str(path), "--out", str(Path(tmp) / "out")])
    reported = any(line.startswith("generation error: ") for line in err.getvalue().splitlines())
    assert code == 0 or (code == 2 and reported), err.getvalue()
