"""The dataset-context checks give the verdicts of a full scan.

_duplicates_a_tuple and _conflicts_with_a_tuple compare whole records only
with candidate clean tuples, and _duplicated counts a column filtered in C.
The reference functions below are the plain full scans those checks
replace: every clean tuple diffed on every attribute, every dirty record
counted one by one, each value compared by output.same_json. Each check must
agree with its reference on generated datasets and on hand-made records
aimed at the candidate filter's edges.
"""

import json

import pytest

from dirtygen import ABSENT, apply_plan, parse_config, plan_errors
from dirtygen.datagen import value_in_domain
from dirtygen.errortypes import (
    _conflicts_with_a_tuple,
    _duplicated,
    _duplicates_a_tuple,
    edit_distance_one,
)
from dirtygen.output import same_json

from conftest import make_config_text


def _diffs(source, dirty_record, names):
    return [name for name in names if not same_json(source.get(name, ABSENT), dirty_record.get(name, ABSENT))]


def reference_duplicates(dirty_record, config, params, clean_dataset):
    allowed = params["perturbed_attributes"] if params["near_duplicate"] else 0
    for source in clean_dataset:
        diffs = _diffs(source, dirty_record, config.attribute_names)
        if len(diffs) <= allowed and all(
            isinstance(source.get(name), str)
            and isinstance(dirty_record.get(name), str)
            and edit_distance_one(source[name], dirty_record[name])
            for name in diffs
        ):
            return True
    return False


def reference_conflicts(dirty_record, config, clean_dataset):
    for source in clean_dataset:
        diffs = _diffs(source, dirty_record, config.attribute_names)
        if len(diffs) != 1:
            continue
        attr = config.attribute(diffs[0])
        if attr.unique:
            continue
        if value_in_domain(attr, dirty_record.get(diffs[0]), config):
            return True
    return False


def reference_duplicated(name, dirty, dirty_dataset):
    return sum(1 for record in dirty_dataset if same_json(record.get(name, ABSENT), dirty)) >= 2


def _param_sets(config):
    width = len(config.attribute_names)
    return [
        {"near_duplicate": True, "perturbed_attributes": k} for k in (0, 1, 2, width, width + 3)
    ] + [{"near_duplicate": False, "perturbed_attributes": 1}]


def assert_same_verdicts(config, clean, dirty_records, dirty_dataset=None):
    """Every check on every given dirty record, against its reference."""
    dirty_dataset = dirty_records if dirty_dataset is None else dirty_dataset
    for record in dirty_records:
        for params in _param_sets(config):
            assert _duplicates_a_tuple(None, record, config, params, clean) == reference_duplicates(
                record, config, params, clean
            ), (record, params)
        assert _conflicts_with_a_tuple(None, record, config, {}, clean) == reference_conflicts(
            record, config, clean
        ), record
        for attr in config.schema:
            value = record.get(attr.name, ABSENT)
            # object() as the clean value: it equals no dirty value, so the
            # check always counts.
            assert _duplicated(
                object(), value, attr, config, {}, None, record, dirty_dataset
            ) == reference_duplicated(attr.name, value, dirty_dataset), (attr.name, value)


ENTITY_ERRORS = [
    {"type": "redundancy_about_entity", "rate": 0.08, "params": {"perturbed_attributes": 2}},
    {"type": "inconsistency_about_entity", "rate": 0.08},
    {"type": "uniqueness_value_violation", "rate": 0.05, "attributes": ["id"]},
    {"type": "missing_attribute", "rate": 0.05, "attributes": ["first_name"]},
    {"type": "missing_value", "rate": 0.05, "attributes": ["city"]},
]


@pytest.mark.parametrize("seed", [3, 61])
def test_generated_datasets_give_the_full_scan_verdicts(seed):
    config = parse_config(make_config_text(errors=ENTITY_ERRORS, tuple_count=80, seed=seed))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    assert len(dirty) > len(clean)
    assert any(e.dirty_value is ABSENT for e in log)
    assert_same_verdicts(config, clean, dirty)


# A schema whose first attributes are non-unique strings, so that the
# candidate filter's attributes are the ones the hand-made records change.
HAND_SCHEMA = {
    "schema": [
        {"name": "city", "datatype": "string",
         "source": {"kind": "set", "values": ["Berlin", "Munich", "Hamburg"]}},
        {"name": "name", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"}},
        {"name": "id", "datatype": "integer", "source": {"kind": "sequence", "start": 1, "step": 1},
         "unique": True},
        {"name": "age", "datatype": "integer",
         "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 120},
         "interval": [0, 120]},
    ],
    "generation": {"tuple_count": 4, "seed": 5},
}

CLEAN = [
    {"city": "Munich", "name": "Anna", "id": 1, "age": 30},
    {"city": "Hamburg", "name": "Ben", "id": 2, "age": 41},
    {"city": "Hamburg", "name": "Carl", "id": 3, "age": 52},
    {"city": "Berlin", "name": "Dora", "id": 4, "age": 63},
]


@pytest.fixture(scope="module")
def hand_config():
    return parse_config(json.dumps(HAND_SCHEMA))


def _check(config, clean, record, **expected):
    """Both verdicts equal the references, and the expected ones where given."""
    assert_same_verdicts(config, clean, [record], dirty_dataset=clean + [record])
    near = {"near_duplicate": True, "perturbed_attributes": expected.pop("perturbed", 1)}
    if "duplicates" in expected:
        assert _duplicates_a_tuple(None, record, config, near, clean) is expected["duplicates"]
    if "conflicts" in expected:
        assert _conflicts_with_a_tuple(None, record, config, {}, clean) is expected["conflicts"]


def test_exact_copy_of_the_last_tuple(hand_config):
    _check(hand_config, CLEAN, dict(CLEAN[-1]), duplicates=True, conflicts=False)


def test_misspelled_first_attribute_matches_only_on_later_ones(hand_config):
    # The copy differs from its source exactly in the first attribute, so a
    # filter on fewer than limit + 1 attributes would never see the source.
    record = dict(CLEAN[-1], city="Berlni")
    _check(hand_config, CLEAN, record, duplicates=True, conflicts=False)


def test_one_perturbed_attribute_too_many(hand_config):
    record = dict(CLEAN[-1], city="Berlni", name="Dorra")
    _check(hand_config, CLEAN, record, duplicates=False)
    _check(hand_config, CLEAN, record, perturbed=2, duplicates=True)


def test_conflicting_first_attribute(hand_config):
    # Only the first attribute differs, with a valid value: a conflict found
    # only through the second filter attribute.
    _check(hand_config, CLEAN, dict(CLEAN[-1], city="Munich"), conflicts=True)


def test_conflict_on_a_unique_attribute_only(hand_config):
    _check(hand_config, CLEAN, dict(CLEAN[-1], id=99), duplicates=False, conflicts=False)


def test_record_lacking_a_filter_attribute(hand_config):
    for missing in ("city", "name"):
        record = {k: v for k, v in CLEAN[-1].items() if k != missing}
        _check(hand_config, CLEAN, record, duplicates=False)
    # A clean tuple that lacks the same key matches it on that key.
    clean = CLEAN + [{"name": "Eve", "id": 5, "age": 20}]
    _check(hand_config, clean, {"name": "Eve", "id": 5, "age": 20}, duplicates=True)
    _check(hand_config, clean, {"name": "Eva", "id": 5, "age": 20}, duplicates=True)


def test_no_matching_tuple(hand_config):
    record = {"city": "Berlin", "name": "Zed", "id": 9, "age": 1}
    _check(hand_config, CLEAN, record, duplicates=False, conflicts=False)


def test_equal_numbers_of_other_types_do_not_match(hand_config):
    # 1 == 1.0 == True, but the scans compare by same_json, as the verifier
    # does everywhere else: 1.0 and true are other values than 1.
    record = dict(CLEAN[0], id=1.0, age=30.0)
    _check(hand_config, CLEAN, record, duplicates=False, conflicts=False)
    _check(hand_config, CLEAN, dict(CLEAN[0], id=True), duplicates=False, conflicts=False)
