import json
import math
import random

import pytest

from dirtygen import GenerationError, generate_clean_dataset, generate_record, parse_config
from dirtygen.datagen import BLOCK_TUPLES, STAGE_CLEAN, clean_cell_value, clean_columns, value_in_domain
from dirtygen.cli import main as cli_main
from dirtygen.rng import IndexPermutation, Stream, address_key, derive_stream, stage_key, tuple_key

from checker import check_dataset, check_record
from conftest import make_config_text
from test_acceptance import _C1_DEPENDENCIES, _C1_SCHEMA, _golden_sources_1k_doc


def test_uniform_integer_respects_interval():
    config = parse_config(make_config_text(tuple_count=200))
    attr = config.attribute("age")
    for i in range(200):
        value = clean_cell_value(config, i, "age")
        assert isinstance(value, int)
        assert 0 <= value <= 120, value
    assert attr.interval == (0, 120)


def test_lexicon_values_come_from_the_list(base_config):
    attr = base_config.attribute("first_name")
    for i in range(100):
        assert clean_cell_value(base_config, i, "first_name") in attr.domain.values


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


@pytest.mark.parametrize("tuple_index", [10, 11, 300, -1, -3])
def test_tuple_index_outside_the_dataset_is_rejected(tuple_index):
    # Past tuple_count a sequence leaves its interval, and past its domain a
    # unique attribute's permutation has no position i: neither is a clean cell.
    doc = json.loads(make_config_text(tuple_count=10))
    doc["schema"][0]["interval"] = [1, 10]
    doc["schema"].append(
        {"name": "uword", "datatype": "string", "source": {"kind": "lexicon", "name": "words"}, "unique": True}
    )
    config = parse_config(json.dumps(doc))
    for attribute in ("id", "uword", "age", "zip"):
        with pytest.raises(GenerationError, match="outside the dataset"):
            clean_cell_value(config, tuple_index, attribute)
    with pytest.raises(GenerationError, match="outside the dataset"):
        generate_record(config, tuple_index)
    assert [clean_cell_value(config, i, "id") for i in range(10)] == list(range(1, 11))


def test_distribution_params():
    doc = json.loads(make_config_text())
    config = parse_config(json.dumps(doc))
    age, score = config.attribute("age").domain, config.attribute("score").domain
    mu, sigma = age.mean, age.stddev
    assert mu == 60
    assert abs(sigma - 120 / math.sqrt(12)) < 1e-12
    mu, sigma = score.mean, score.stddev
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
    assert config.attribute("age").domain.draw(derive_stream(config.seed, "clean", 17, "age")) == direct


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
        "errors": [
            {"type": "inconsistency_among_attribute_values", "rate": 0.1},
            {"type": "semi_empty_tuple", "rate": 0.1},
        ],
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


def _block_docs():
    sources = _golden_sources_1k_doc()
    sources["errors"] = []
    replicated = json.loads(json.dumps(sources))
    replicated["generation"]["scaling"] = {"column_replication": 1}
    c1 = {"schema": _C1_SCHEMA, "dependencies": _C1_DEPENDENCIES, "generation": {"seed": 23}}
    return {"sources": sources, "replicated": replicated, "c1": c1}


def _first_attempt_rejected(config, attribute: str, tuple_index: int) -> bool:
    attr = config.attribute(attribute)
    stream = Stream(tuple_key(stage_key(config.seed, STAGE_CLEAN, attribute), tuple_index))
    if attr.null_rate > 0 and stream.random() < attr.null_rate:
        return False
    (value,) = attr.domain.attempts(1, [[stream.u64()] for _ in range(attr.domain.words)])
    return not attr.domain.accept(value)


def _determinant_first(config) -> list[str]:
    """The attribute names in schema order, each determinant moved before its dependents."""
    order = []
    for name in config.attribute_names:
        chain = []  # name and its determinants not yet placed, nearest first
        while name not in order and name not in chain:
            chain.append(name)
            rule = config.attribute(name).dependency
            if rule is None:
                break
            name = rule.determinant
        order += reversed(chain)
    return order


def _reference_record(config, tuple_index: int) -> dict:
    """Tuple i's clean record, one cell at a time from the documented rules."""
    values = {}
    for name in _determinant_first(config):
        attr = config.attribute(name)
        domain = attr.domain
        if attr.dependency is not None:
            determinant = values[attr.dependency.determinant]
            values[name] = None if determinant is None else attr.dependency.mapping[determinant]
            continue
        stream = Stream(tuple_key(stage_key(config.seed, STAGE_CLEAN, name), tuple_index))
        if attr.null_rate > 0 and stream.random() < attr.null_rate:
            values[name] = None
        elif domain.by_index is not None:
            values[name] = domain.by_index(tuple_index)
        elif attr.unique:
            permutation = IndexPermutation(address_key(config.seed, "unique", 0, name), domain.size)
            values[name] = domain.at(permutation(tuple_index))
        else:
            values[name] = domain.draw(stream)
    return {name: values[name] for name in config.attribute_names}


@pytest.mark.parametrize("name", ["sources", "replicated", "c1"])
@pytest.mark.parametrize("tuple_count", [0, 1, 255, 256, 257, 1000])
def test_block_columns_equal_single_cells(name, tuple_count):
    # Blocks of 256 tuples against one cell at a time, and against a
    # reference written from the documented rules, type-exact: repr tells
    # 1, 1.0 and True apart, and null from a missing key.
    doc = _block_docs()[name]
    doc["generation"]["tuple_count"] = tuple_count
    config = parse_config(json.dumps(doc))
    records = list(generate_clean_dataset(config))
    assert len(records) == tuple_count
    for i, record in enumerate(records):
        assert list(record) == list(config.attribute_names)
        for attribute, value in record.items():
            assert repr(value) == repr(clean_cell_value(config, i, attribute)), (i, attribute)
        assert repr(record) == repr(generate_record(config, i))
        assert repr(record) == repr(_reference_record(config, i))
    if name != "c1" and tuple_count >= 256:
        # The pattern on pint rejects the first attempt of most cells, which
        # then continue drawing on their stream.
        assert any(_first_attempt_rejected(config, "pint", i) for i in range(tuple_count))
    if tuple_count == 0:
        return
    # A drawn, unordered list of rows with repeats, over a subset of names
    # that holds a dependent without its determinant, against the records
    # above (which equal the reference).
    rng = random.Random(tuple_count)
    rows = rng.choices(range(tuple_count), k=rng.randrange(1, 2 * BLOCK_TUPLES))
    dependent = next(name for name in reversed(_determinant_first(config)) if config.attribute(name).dependency)
    determinant = config.attribute(dependent).dependency.determinant
    names = [name for name in config.attribute_names if name != determinant and rng.random() < 0.5]
    names = [dependent, *(name for name in names if name != dependent)]
    for name, column in zip(names, clean_columns(config, rows, names)):
        assert [repr(value) for value in column] == [repr(records[i][name]) for i in rows], name
    # A known determinant column is read, not regenerated: given the
    # determinants of other rows, the dependent maps theirs.
    others = rows[::-1]
    known = {determinant: [records[i][determinant] for i in others]}
    (column,) = clean_columns(config, rows, [dependent], known)
    assert [repr(value) for value in column] == [repr(records[i][dependent]) for i in others]
    i, j = rows[0], others[0]
    value = clean_cell_value(config, i, dependent, {determinant: records[j][determinant]})
    assert repr(value) == repr(records[j][dependent])
