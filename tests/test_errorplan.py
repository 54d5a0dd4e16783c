import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen import generate_clean_dataset, parse_config, plan_errors
from dirtygen.errorplan import PlanEntry, _Claims, format_plan
from dirtygen.errortypes import ERROR_TYPES, _find_donor
from dirtygen.taxonomy import ERROR_STAGES, INSERTION_TYPES

from confgen import random_config
from conftest import make_config_text


def parse_with_errors(errors, **overrides):
    return parse_config(make_config_text(errors=errors, **overrides))


def test_each_type_keeps_its_planning_stage_and_order():
    pinned = [
        ("missing_value", 4), ("syntax_violation", 4), ("interval_violation", 4),
        ("set_violation", 4), ("misspelling", 4), ("inadequate_value_to_attribute_context", 4),
        ("value_items_beyond_attribute_context", 4), ("meaningless_value", 4),
        ("erroneous_entry", 4), ("uniqueness_value_violation", 3), ("synonyms_existence", 3),
        ("outlier", 3), ("missing_attribute", 3), ("bias", 3), ("noise", 3),
        ("semi_empty_tuple", 2), ("inconsistency_among_attribute_values", 2),
        ("irrelevant_observation", 1), ("redundancy_about_entity", 1),
        ("inconsistency_about_entity", 1),
    ]
    assert list(ERROR_STAGES.items()) == pinned
    assert [(name, etype.stage) for name, etype in ERROR_TYPES.items()] == pinned
    assert INSERTION_TYPES == ("irrelevant_observation", "redundancy_about_entity", "inconsistency_about_entity")


# Two targets for every type that takes them (missing_attribute takes one,
# bias names its target in params); the extra attributes give each type a
# second applicable attribute.
_POPULATION_TARGETS = {
    "missing_value": ["city", "age"],
    "syntax_violation": ["code", "ref"],
    "interval_violation": ["age", "height"],
    "set_violation": ["grade", "level"],
    "misspelling": ["first_name", "city"],
    "inadequate_value_to_attribute_context": ["first_name", "city"],
    "value_items_beyond_attribute_context": ["first_name", "city"],
    "meaningless_value": ["first_name", "age"],
    "erroneous_entry": ["first_name", "city"],
    "uniqueness_value_violation": ["id", "code"],
    "synonyms_existence": ["city", "grade"],
    "outlier": ["age", "score"],
    "missing_attribute": ["city"],
    "noise": ["score", "height"],
}
_POPULATION_ATTRIBUTES = [
    {"name": "code", "datatype": "string", "source": {"kind": "template", "template": "AA-###"}, "unique": True},
    {"name": "ref", "datatype": "string", "source": {"kind": "template", "template": "#a"}},
    {"name": "grade", "datatype": "string", "source": {"kind": "set", "values": ["A", "B", "C"]},
     "admissible_set": ["A", "B", "C"], "synonyms": {"A": ["a"], "B": ["b"], "C": ["c"]}},
    {"name": "level", "datatype": "integer", "source": {"kind": "set", "values": [1, 2, 3]},
     "admissible_set": [1, 2, 3]},
    {"name": "height", "datatype": "float",
     "source": {"kind": "numeric", "distribution": "uniform", "min": 1.4, "max": 2.1}, "interval": [1.4, 2.1]},
]
# Tuples for the seven types whose rate counts tuples, target cells (two
# targets x tuples) for the rest; written out, not read from the registry.
_POPULATION_PER_TUPLES = {
    "missing_value": 2, "syntax_violation": 2, "interval_violation": 2, "set_violation": 2,
    "misspelling": 2, "inadequate_value_to_attribute_context": 2,
    "value_items_beyond_attribute_context": 2, "meaningless_value": 2, "erroneous_entry": 2,
    "uniqueness_value_violation": 2, "synonyms_existence": 2, "outlier": 2, "noise": 2,
    "missing_attribute": 1, "bias": 1, "semi_empty_tuple": 1,
    "inconsistency_among_attribute_values": 1, "irrelevant_observation": 1,
    "redundancy_about_entity": 1, "inconsistency_about_entity": 1,
}


@pytest.mark.parametrize("error_type", ERROR_TYPES)
def test_population_counts_tuples_or_target_cells(error_type):
    spec = {"type": error_type, "rate": 0.1}
    if error_type in _POPULATION_TARGETS:
        spec["attributes"] = _POPULATION_TARGETS[error_type]
    if error_type == "bias":
        spec["params"] = {"group_attribute": "city", "group_value": "Berlin", "target_attribute": "score"}
    schema = json.loads(make_config_text())["schema"] + _POPULATION_ATTRIBUTES
    config = parse_with_errors([spec], schema=schema, tuple_count=100)
    (parsed,) = config.errors
    assert parsed.population == 100 * _POPULATION_PER_TUPLES[error_type]
    assert parsed.count == parsed.population // 10
    plan = plan_errors(config)
    assert len(plan.entries) == parsed.count
    assert len(plan.insertions) == (parsed.count if error_type in INSERTION_TYPES else 0)


def test_zero_rates_empty_plan():
    config = parse_with_errors(
        [{"type": "missing_value", "rate": 0.0, "attributes": ["city"]}]
    )
    plan = plan_errors(config)
    assert plan.entries == ()
    assert plan.insertions == ()


def test_rate_one_covers_every_tuple():
    config = parse_with_errors(
        [{"type": "missing_value", "rate": 1.0, "attributes": ["city"]}], tuple_count=10
    )
    plan = plan_errors(config)
    assert len(plan.entries) == 10
    assert sorted(e.row for e in plan.entries) == list(range(10))
    assert all(e.attribute == "city" for e in plan.entries)


def test_exact_counts_per_spec():
    errors = [
        {"type": "missing_value", "rate": 0.13, "attributes": ["city", "first_name"]},
        {"type": "interval_violation", "rate": 0.07, "attributes": ["age"]},
        {"type": "semi_empty_tuple", "rate": 0.03},
    ]
    config = parse_with_errors(errors, tuple_count=97)
    plan = plan_errors(config)
    by_spec = {}
    for entry in plan.entries:
        by_spec[entry.spec_index] = by_spec.get(entry.spec_index, 0) + 1
    for index, spec in enumerate(config.errors):
        assert by_spec.get(index, 0) == spec.count, spec.error_type


def test_no_two_entries_share_a_cell():
    errors = [
        {"type": "missing_value", "rate": 0.3, "attributes": ["city"]},
        {"type": "erroneous_entry", "rate": 0.3, "attributes": ["city"]},
        {"type": "misspelling", "rate": 0.3, "attributes": ["city"]},
        {"type": "semi_empty_tuple", "rate": 0.05},
    ]
    config = parse_with_errors(errors, tuple_count=200)
    plan = plan_errors(config)
    row_scope_rows = set()
    claimed = set()
    for entry in plan.entries:
        if entry.scope == "row":
            row_scope_rows.add(entry.row)
    for entry in plan.entries:
        if entry.scope in ("cell", "column"):
            assert entry.row not in row_scope_rows
            key = (entry.row, entry.attribute)
            assert key not in claimed
            claimed.add(key)


def test_plan_is_deterministic():
    errors = [
        {"type": "missing_value", "rate": 0.2, "attributes": ["city"]},
        {"type": "noise", "rate": 0.1, "attributes": ["score"]},
    ]
    a = plan_errors(parse_with_errors(errors))
    b = plan_errors(parse_with_errors(errors))
    assert format_plan(a) == format_plan(b)


def test_adding_unrelated_spec_keeps_placements():
    base_errors = [{"type": "missing_value", "rate": 0.2, "attributes": ["city"]}]
    extended = base_errors + [{"type": "erroneous_entry", "rate": 0.2, "attributes": ["first_name"]}]
    plan_a = plan_errors(parse_with_errors(base_errors))
    plan_b = plan_errors(parse_with_errors(extended))
    targets_a = [(e.row, e.attribute) for e in plan_a.entries if e.error_type == "missing_value"]
    targets_b = [(e.row, e.attribute) for e in plan_b.entries if e.error_type == "missing_value"]
    assert targets_a == targets_b


def test_changing_seed_moves_placements():
    errors = [{"type": "missing_value", "rate": 0.2, "attributes": ["city"]}]
    plan_a = plan_errors(parse_config(make_config_text(errors=errors, seed=1)))
    plan_b = plan_errors(parse_config(make_config_text(errors=errors, seed=2)))
    assert [e.row for e in plan_a.entries] != [e.row for e in plan_b.entries]


def test_uniqueness_entries_have_earlier_donors():
    errors = [{"type": "uniqueness_value_violation", "rate": 0.3, "attributes": ["id"]}]
    config = parse_with_errors(errors, tuple_count=100)
    plan = plan_errors(config)
    assert len(plan.entries) == 30
    for entry in plan.entries:
        assert entry.donor is not None
        assert 0 <= entry.donor < entry.row


def test_donor_cells_are_protected_from_later_claims():
    errors = [
        {"type": "uniqueness_value_violation", "rate": 0.2, "attributes": ["id"]},
        {"type": "missing_value", "rate": 0.5, "attributes": ["id"]},
    ]
    config = parse_with_errors(errors, tuple_count=100)
    plan = plan_errors(config)
    protected = set()
    for entry in plan.entries:
        if entry.error_type == "uniqueness_value_violation":
            protected.add(entry.row)
            protected.add(entry.donor)
    for entry in plan.entries:
        if entry.error_type == "missing_value":
            assert entry.row not in protected


_ATTRIBUTES = (None, "a", "b", "c")  # None: the whole row


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(_ATTRIBUTES), st.none() | st.integers(0, 4)),
        max_size=12,
    )
)
def test_claims_answer_as_a_set_of_cells(drawn):
    # The reference holds what the planner once kept: whole-row claims and
    # (row, attribute) cell claims, a donor's cell claimed with its entry's.
    claims, rows, cells = _Claims(), set(), set()
    for row, attribute, donor in drawn:
        claims.claim(PlanEntry("x", "cell", 0, row, attribute, donor=donor))
        for taken in (row,) if donor is None else (row, donor):
            if attribute is None:
                rows.add(taken)
            else:
                cells.add((taken, attribute))
        for r, a in product(range(5), _ATTRIBUTES):
            row_free = r not in rows and all((r, b) not in cells for b in _ATTRIBUTES[1:])
            expected = row_free if a is None else r not in rows and (r, a) not in cells
            assert claims.free(r, a) is expected, (r, a)


def test_row_entries_are_the_base_entries_by_row_in_plan_order():
    for seed in range(40):
        plan = plan_errors(parse_config(random_config(random.Random(seed))))
        by_row = {}
        for entry in plan.entries:
            if entry.scope != "insertion":
                by_row.setdefault(entry.row, []).append(entry)
        assert plan.row_entries == by_row, seed
        assert list(plan.row_entries) == list(by_row), seed


def test_bias_shortfall_is_a_warning_not_an_error():
    errors = [
        {
            "type": "bias",
            "rate": 0.5,
            "params": {
                "group_attribute": "city",
                "group_value": "Berlin",
                "target_attribute": "score",
            },
        }
    ]
    config = parse_with_errors(errors, tuple_count=60)
    plan = plan_errors(config)
    from dirtygen.datagen import clean_cell_value

    berlin_rows = sum(1 for i in range(60) if clean_cell_value(config, i, "city") == "Berlin")
    target = config.errors[0].count
    realized = len(plan.entries)
    if berlin_rows >= target:
        assert realized == target and not plan.warnings
    else:
        assert realized == berlin_rows
        assert plan.warnings


def test_synonym_targets_only_cells_with_synonyms():
    doc = json.loads(make_config_text(tuple_count=100))
    for attr in doc["schema"]:
        if attr["name"] == "city":
            attr["synonyms"] = {"Berlin": ["BER"]}  # Munich/Hamburg rows ineligible
    doc["errors"] = [{"type": "synonyms_existence", "rate": 0.1, "attributes": ["city"]}]
    config = parse_config(json.dumps(doc))
    from dirtygen.datagen import clean_cell_value

    plan = plan_errors(config)
    assert len(plan.entries) == 10
    for entry in plan.entries:
        assert clean_cell_value(config, entry.row, "city") == "Berlin"


def test_value_dependent_shortfall_fails_at_plan_time():
    # Rates are feasible on paper, but only rows whose city is Berlin have a
    # synonym, so the planner runs out of eligible cells.
    doc = json.loads(make_config_text(tuple_count=60))
    for attr in doc["schema"]:
        if attr["name"] == "city":
            attr["synonyms"] = {"Berlin": ["BER"]}
    doc["errors"] = [{"type": "synonyms_existence", "rate": 0.9, "attributes": ["city"]}]
    config = parse_config(json.dumps(doc))
    from dirtygen import PlanError

    with pytest.raises(PlanError, match="synonyms_existence"):
        plan_errors(config)


def test_format_plan_lines():
    errors = [
        {"type": "missing_value", "rate": 0.05, "attributes": ["city"]},
        {"type": "irrelevant_observation", "rate": 0.02},
    ]
    config = parse_with_errors(errors, tuple_count=100)
    text = format_plan(plan_errors(config))
    lines = text.splitlines()
    assert len(lines) == 7
    assert any(line.startswith("insertion irrelevant_observation") for line in lines)
    assert any("attr=city" in line for line in lines)


def test_multi_target_split_is_balanced():
    errors = [{"type": "missing_value", "rate": 0.1, "attributes": ["city", "age", "score"]}]
    config = parse_with_errors(errors, tuple_count=101)
    plan = plan_errors(config)
    per_attr = {}
    for entry in plan.entries:
        per_attr[entry.attribute] = per_attr.get(entry.attribute, 0) + 1
    # round(0.1 * 303) = 30 split as 10/10/10
    assert sum(per_attr.values()) == 30
    assert max(per_attr.values()) - min(per_attr.values()) <= 1


def test_semi_empty_tuple_skips_rows_with_fewer_than_two_values():
    # Rows where the nulls leave one value or none cannot lose two more:
    # the walk passes over them and plans only rows with two values or more.
    schema = [{"name": name, "datatype": "string", "source": {"kind": "set", "values": ["x", "y"]},
               "null_rate": 0.5, "nullable_in_clean": True} for name in ("a", "b", "c")]
    doc = {"schema": schema, "errors": [{"type": "semi_empty_tuple", "rate": 0.2}],
           "generation": {"tuple_count": 40, "seed": 3}}
    config = parse_config(json.dumps(doc))
    values = [sum(v is not None for v in record.values()) for record in generate_clean_dataset(config)]
    plan = plan_errors(config)
    assert len(plan.entries) == 8
    assert all(values[entry.row] >= 2 for entry in plan.entries)
    assert any(count < 2 for count in values)


def test_uniqueness_donor_search_gives_up_when_every_earlier_row_is_claimed():
    config = parse_with_errors([], tuple_count=10)
    claims = _Claims()
    assert _find_donor(config, 5, "id", claims) in range(5)
    for row in range(5):
        claims.claim(PlanEntry("missing_value", "cell", 0, row, "id"))
    assert _find_donor(config, 5, "id", claims) is None
