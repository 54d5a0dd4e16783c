import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen import ConfigError, GeneratorConfig, LexiconError, load_lexicon, parse_config
from dirtygen.config import compute_config_hash
from dirtygen.errortypes import ALL_ERROR_TYPES, ERROR_TYPES

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


def test_dependent_with_own_source_rejected():
    doc = json.loads(make_config_text())
    for attr in doc["schema"]:
        if attr["name"] == "zip":
            attr["source"] = {"kind": "lexicon", "name": "words"}
    with pytest.raises(ConfigError, match="must not declare"):
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


def test_lexicon_env_override(tmp_path, monkeypatch):
    (tmp_path / "cities.txt").write_text("OnlyTown\n", encoding="utf-8")
    monkeypatch.setenv("DIRTYGEN_LEXICON_DIR", str(tmp_path))
    assert load_lexicon("cities") == ["OnlyTown"]


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
