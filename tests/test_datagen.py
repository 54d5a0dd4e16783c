import json
import math

import pytest

from dirtygen import GenerationError, generate_clean_dataset, generate_record, parse_config
from dirtygen.datagen import clean_cell_value, distribution_params, value_in_domain
from dirtygen.cli import main as cli_main
from dirtygen.rng import derive_stream

from checker import check_dataset, check_record
from conftest import make_config_text


def test_uniform_integer_respects_interval(base_config):
    attr = base_config.attribute("age")
    for i in range(200):
        value = clean_cell_value(base_config, i, "age")
        assert isinstance(value, int)
        assert 0 <= value <= 120, value
    assert attr.interval == (0, 120)


def test_lexicon_values_come_from_the_list(base_config):
    attr = base_config.attribute("first_name")
    for i in range(100):
        assert clean_cell_value(base_config, i, "first_name") in attr.finite_domain


def test_dependent_attribute_follows_mapping(base_config):
    rule = base_config.dependencies[0]
    for i in range(100):
        record = generate_record(base_config, i)
        assert record["zip"] == rule.mapping[record["city"]]


def test_unique_attribute_has_no_collisions():
    text = make_config_text(tuple_count=1000)
    config = parse_config(text)
    values = [clean_cell_value(config, i, "id") for i in range(1000)]
    assert len(set(values)) == 1000


def test_unique_lexicon_attribute():
    doc = json.loads(make_config_text(tuple_count=120))
    doc["schema"].append(
        {
            "name": "uword",
            "datatype": "string",
            "source": {"kind": "lexicon", "name": "words"},
            "unique": True,
        }
    )
    config = parse_config(json.dumps(doc))
    values = [clean_cell_value(config, i, "uword") for i in range(120)]
    assert len(set(values)) == 120


def test_unique_float_attributes():
    doc = {
        "schema": [
            {
                "name": "u",
                "datatype": "float",
                "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 1},
                "unique": True,
            },
            {
                "name": "g",
                "datatype": "float",
                "source": {"kind": "numeric", "distribution": "normal", "mean": 10, "stddev": 2},
                "unique": True,
                "interval": [5, 15],
            },
        ],
        "generation": {"tuple_count": 500, "seed": 3},
    }
    config = parse_config(json.dumps(doc))
    us = [clean_cell_value(config, i, "u") for i in range(500)]
    gs = [clean_cell_value(config, i, "g") for i in range(500)]
    assert len(set(us)) == 500
    assert len(set(gs)) == 500
    assert all(0 <= v <= 1 for v in us)
    assert all(5 <= v <= 15 for v in gs)


def test_record_is_deterministic(base_config):
    text = make_config_text()
    again = parse_config(text)
    for i in (0, 5, 99):
        assert generate_record(base_config, i) == generate_record(again, i)


def test_empty_dataset():
    config = parse_config(make_config_text(tuple_count=0))
    assert list(generate_clean_dataset(config)) == []


def test_thousand_records_pass_independent_checker():
    config = parse_config(make_config_text(tuple_count=1000))
    records = list(generate_clean_dataset(config))
    assert len(records) == 1000
    assert check_dataset(records, config) == []


def test_dataset_determinism_byte_level():
    from dirtygen.output import encode_record

    config_a = parse_config(make_config_text(tuple_count=1000))
    config_b = parse_config(make_config_text(tuple_count=1000))
    a = "\n".join(encode_record(r) for r in generate_clean_dataset(config_a))
    b = "\n".join(encode_record(r) for r in generate_clean_dataset(config_b))
    assert a == b


def test_prefix_stability():
    small = parse_config(make_config_text(tuple_count=50))
    large = parse_config(make_config_text(tuple_count=200))
    first_small = list(generate_clean_dataset(small))
    first_large = [generate_record(large, i) for i in range(50)]
    assert first_small == first_large


def test_uniform_mean_within_three_standard_errors():
    doc = {
        "schema": [
            {
                "name": "x",
                "datatype": "float",
                "source": {"kind": "numeric", "distribution": "uniform", "min": 10, "max": 30},
            }
        ],
        "generation": {"tuple_count": 10000, "seed": 11},
    }
    config = parse_config(json.dumps(doc))
    values = [r["x"] for r in generate_clean_dataset(config)]
    mean = sum(values) / len(values)
    se = (30 - 10) / math.sqrt(12 * len(values))
    assert abs(mean - 20) <= 3 * se


def test_resample_exhaustion_for_disjoint_interval():
    # P(draw in [0, 10]) for normal(50, 1) is about Phi(-40), i.e. zero.
    doc = {
        "schema": [
            {
                "name": "x",
                "datatype": "float",
                "source": {"kind": "numeric", "distribution": "normal", "mean": 50, "stddev": 1},
                "interval": [0, 10],
            }
        ],
        "generation": {"tuple_count": 5, "seed": 1},
    }
    config = parse_config(json.dumps(doc))
    with pytest.raises(GenerationError, match="'x'"):
        list(generate_clean_dataset(config))


def test_template_values_match_their_regex():
    doc = {
        "schema": [
            {"name": "code", "datatype": "string", "source": {"kind": "template", "template": "AA-##x"}}
        ],
        "generation": {"tuple_count": 200, "seed": 2},
    }
    config = parse_config(json.dumps(doc))
    import re

    pat = re.compile(r"[A-Z]{2}-[0-9]{2}x")
    for record in generate_clean_dataset(config):
        assert pat.fullmatch(record["code"]), record["code"]


def test_weighted_set_source_prefers_heavy_values():
    doc = {
        "schema": [
            {
                "name": "grade",
                "datatype": "string",
                "source": {"kind": "set", "values": ["A", "B"], "weights": [9, 1]},
            }
        ],
        "generation": {"tuple_count": 2000, "seed": 5},
    }
    config = parse_config(json.dumps(doc))
    values = [r["grade"] for r in generate_clean_dataset(config)]
    share = values.count("A") / len(values)
    assert 0.85 < share < 0.95


def test_nullable_attribute_draws_nulls():
    doc = json.loads(make_config_text(tuple_count=1000))
    doc["schema"][1]["nullable_in_clean"] = True
    doc["schema"][1]["null_rate"] = 0.2
    config = parse_config(json.dumps(doc))
    records = list(generate_clean_dataset(config))
    nulls = sum(1 for r in records if r["first_name"] is None)
    assert 120 < nulls < 280
    assert check_dataset(records, config) == []


def test_sequence_values(base_config):
    for i in range(10):
        assert clean_cell_value(base_config, i, "id") == i + 1


def test_distribution_params():
    doc = json.loads(make_config_text())
    config = parse_config(json.dumps(doc))
    mu, sigma = distribution_params(config.attribute("age"))
    assert mu == 60
    assert abs(sigma - 120 / math.sqrt(12)) < 1e-12
    mu, sigma = distribution_params(config.attribute("score"))
    assert (mu, sigma) == (50.0, 10.0)


def test_value_in_domain(base_config):
    age = base_config.attribute("age")
    assert value_in_domain(age, 50, base_config)
    assert not value_in_domain(age, 121, base_config)
    assert not value_in_domain(age, "x", base_config)
    city = base_config.attribute("city")
    assert value_in_domain(city, "Berlin", base_config)
    assert not value_in_domain(city, "Paris", base_config)
    zip_attr = base_config.attribute("zip")
    assert value_in_domain(zip_attr, "10115", base_config)
    assert not value_in_domain(zip_attr, "99999", base_config)
    ident = base_config.attribute("id")
    assert value_in_domain(ident, 5, base_config)
    assert not value_in_domain(ident, 5.5, base_config)


def test_dependent_listed_before_its_determinant():
    doc = {
        "schema": [
            {"name": "zip", "datatype": "string"},
            {
                "name": "city",
                "datatype": "string",
                "source": {"kind": "set", "values": ["Berlin", "Munich"]},
            },
        ],
        "dependencies": [
            {"determinant": "city", "dependent": "zip", "mapping": {"Berlin": "10115", "Munich": "80331"}}
        ],
        "generation": {"tuple_count": 20, "seed": 9},
    }
    config = parse_config(json.dumps(doc))
    for record in generate_clean_dataset(config):
        assert list(record) == ["zip", "city"]  # schema order preserved
        assert record["zip"] == {"Berlin": "10115", "Munich": "80331"}[record["city"]]


def test_stream_independence_from_attribute_order():
    # Drawing city never consumes age's stream: identical addresses, identical values.
    config = parse_config(make_config_text())
    direct = clean_cell_value(config, 17, "age")
    record = generate_record(config, 17)
    assert record["age"] == direct
    stream = derive_stream(config.seed, "clean", 17, "age")
    from dirtygen.datagen import generate_value

    assert generate_value(config.attribute("age"), stream, config=config, tuple_index=17) == direct


def _chain_doc(length: int, dependents_first: bool) -> dict:
    # a0 -> a1 -> ... -> a(length-1), each rule swapping x and y.
    schema = [{"name": "a0", "datatype": "string", "source": {"kind": "set", "values": ["x", "y"]}}]
    schema += [{"name": f"a{i}", "datatype": "string"} for i in range(1, length)]
    if dependents_first:
        schema.reverse()
    rules = [
        {"determinant": f"a{i - 1}", "dependent": f"a{i}", "mapping": {"x": "y", "y": "x"}}
        for i in range(1, length)
    ]
    return {
        "schema": schema,
        "dependencies": rules,
        "errors": [{"type": "inconsistency_among_attribute_values", "rate": 0.1}],
        "generation": {"tuple_count": 20, "seed": 5},
    }


@pytest.mark.parametrize("dependents_first", [False, True], ids=["determinants-first", "dependents-first"])
def test_dependency_chain_longer_than_the_recursion_limit(dependents_first, tmp_path):
    # Chains are walked by loops: parsing, cell regeneration (the planner's
    # path) and record generation all handle a chain deeper than the
    # interpreter's recursion limit.
    length = 1500
    doc = _chain_doc(length, dependents_first)
    config = parse_config(json.dumps(doc))
    deepest = f"a{length - 1}"
    for i in range(config.tuple_count):
        record = generate_record(config, i)
        assert clean_cell_value(config, i, deepest) == record[deepest]
        assert record[deepest] == ("x" if record["a0"] == "y" else "y")  # an odd number of swaps
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
