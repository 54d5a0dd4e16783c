import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen import ABSENT, apply_plan, parse_config, plan_errors, verify_error
from dirtygen.datagen import clean_cell_value, generate_clean_dataset
from dirtygen.errortypes import _interval_violation, apply_edit, edit_distance_one, misspell
from dirtygen.inject import inject_cell, realized_counts
from dirtygen.rng import derive_stream

from conftest import make_config_text
from replay import replay


class FakeStream:
    """Replays a fixed list of (method, value) draws for formula oracles."""

    def __init__(self, draws):
        self._draws = list(draws)

    def _next(self, method):
        kind, value = self._draws.pop(0)
        assert kind == method, f"expected a {kind} draw, injector asked for {method}"
        return value

    def randrange(self, n):
        return self._next("randrange")

    def random(self):
        return self._next("random")

    def normal(self, mu, sigma):
        return mu + self._next("normal") * sigma


def damerau_levenshtein(a: str, b: str) -> int:
    """Reference DP implementation, restricted-transposition variant."""
    la, lb = len(a), len(b)
    dist = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        dist[i][0] = i
    for j in range(lb + 1):
        dist[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1, dist[i][j - 1] + 1, dist[i - 1][j - 1] + cost
            )
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                dist[i][j] = min(dist[i][j], dist[i - 2][j - 2] + 1)
    return dist[la][lb]


# ---------------------------------------------------------------------------
# Edit operations


def test_transpose_oracle():
    assert apply_edit("Smith", "transpose", 3) == "Smiht"


def test_apply_edit_all_ops():
    assert apply_edit("abc", "substitute", 1, "x") == "axc"
    assert apply_edit("abc", "insert", 1, "x") == "axbc"
    assert apply_edit("abc", "delete", 1) == "ac"
    assert apply_edit("abcd", "transpose", 0) == "bacd"


def test_misspell_is_one_edit_away():
    for i in range(200):
        stream = derive_stream(9, "test-misspell", i)
        word = ["Smith", "a", "Anna-Lena", "x1", "Berlin"][i % 5]
        result = misspell(word, stream)
        assert result != word
        assert damerau_levenshtein(word, result) == 1
        assert edit_distance_one(word, result)


@given(st.text(alphabet=st.characters(codec="ascii"), min_size=1, max_size=20), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_misspell_property(word, key):
    stream = derive_stream(key, "hyp-misspell")
    result = misspell(word, stream)
    assert result != word
    assert damerau_levenshtein(word, result) == 1


@given(st.text(min_size=0, max_size=20), st.text(min_size=0, max_size=20))
@settings(max_examples=300, deadline=None)
def test_edit_distance_one_matches_dp(a, b):
    assert edit_distance_one(a, b) == (damerau_levenshtein(a, b) == 1)


def test_edit_distance_one_agrees_with_dp_oracle():
    pairs = [
        ("Smith", "Smiht", True),
        ("Smith", "Smith", False),
        ("Smith", "Smyth", True),
        ("Smith", "Smth", True),
        ("Smith", "Smiith", True),
        ("Smith", "htimS", False),
        ("ab", "ba", True),
        ("ab", "ab x", False),
    ]
    for a, b, expected in pairs:
        assert edit_distance_one(a, b) is expected
        if expected:
            assert damerau_levenshtein(a, b) == 1


# ---------------------------------------------------------------------------
# Cell rules against fixed draws


def test_interval_violation_formula_high_side(base_config):
    # side draw 1 = high, magnitude draw 0.5: 120 + 1 + floor(0.5 * 120) = 181
    attr = base_config.attribute("age")
    stream = FakeStream([("randrange", 1), ("random", 0.5)])
    assert _interval_violation(34, attr, stream) == 181


def test_interval_violation_formula_low_side(base_config):
    attr = base_config.attribute("age")
    stream = FakeStream([("randrange", 0), ("random", 0.5)])
    assert _interval_violation(34, attr, stream) == -61


def test_interval_violation_stays_outside(base_config):
    attr = base_config.attribute("age")
    for i in range(300):
        stream = derive_stream(3, "test-interval", i)
        value = _interval_violation(60, attr, stream)
        assert value < 0 or value > 120
        assert value >= -121 and value <= 241


def test_missing_value_returns_null(base_config):
    attr = base_config.attribute("city")
    stream = derive_stream(1, "t")
    assert inject_cell("missing_value", "Berlin", attr, base_config, stream, {}) is None


def test_erroneous_entry_with_two_member_set():
    doc = {
        "schema": [
            {"name": "g", "datatype": "string", "source": {"kind": "set", "values": ["A", "B"]}}
        ],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    config = parse_config(json.dumps(doc))
    attr = config.attribute("g")
    for i in range(20):
        stream = derive_stream(5, "test-erroneous", i)
        assert inject_cell("erroneous_entry", "A", attr, config, stream, {}) == "B"


def test_outlier_formula():
    # mu + k * sigma * (1 + u) with k=5, u=0, positive side: 50 + 50 = 100
    text = make_config_text(
        errors=[{"type": "outlier", "rate": 0.1, "attributes": ["score"], "params": {"k": 5}}]
    )
    config = parse_config(text)
    plan = plan_errors(config)
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan, config)
    for entry in log:
        assert abs(entry.dirty_value - 50.0) >= 50.0


def test_outlier_value_from_fixed_draws(base_config):
    from dirtygen.datagen import distribution_params

    mu, sigma = distribution_params(base_config.attribute("score"))
    sign, u = 1.0, 0.0
    assert mu + sign * 5 * sigma * (1 + u) == 100.0


def test_noise_formula_with_fixed_epsilon():
    clean, sigma, alpha = 100.0, 10.0, 0.05
    epsilon = 0.37
    assert clean + epsilon == 100.37
    # the injector draws epsilon ~ normal(0, alpha * sigma); bound check
    assert abs(epsilon) <= 8 * alpha * sigma


def test_noise_verifier_accepts_the_largest_box_muller_draw(base_config):
    from dirtygen.errortypes import _is_noise
    from dirtygen.rng import NORMAL_Z_BOUND, Stream

    class Extreme:  # the smallest first uniform, and a second one at which cos is 1
        def random_open(self):
            return 2.0**-53

        def random(self):
            return 0.0

    z = Stream.normal(Extreme(), 0.0, 1.0)
    assert 8.57 < abs(z) <= NORMAL_Z_BOUND
    attr, alpha = base_config.attribute("score"), 0.05
    sigma = attr.domain.stddev
    assert _is_noise(50.0, 50.0 + 8.5 * alpha * sigma, attr, base_config, {"alpha": alpha})


def test_syntax_violation_breaks_pattern():
    doc = {
        "schema": [
            {
                "name": "code",
                "datatype": "string",
                "source": {"kind": "template", "template": "AA-####"},
                "pattern": "[A-Z]{2}-[0-9]{4}",
            }
        ],
        "errors": [{"type": "syntax_violation", "rate": 0.2}],
        "generation": {"tuple_count": 100, "seed": 13},
    }
    config = parse_config(json.dumps(doc))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    import re

    pat = re.compile(r"[A-Z]{2}-[0-9]{4}")
    assert len(log) == 20
    for entry in log:
        assert pat.fullmatch(entry.clean_value)
        assert not pat.fullmatch(entry.dirty_value)


def test_synonym_replacement_forced_single_choice():
    doc = json.loads(make_config_text(tuple_count=60))
    for attr in doc["schema"]:
        if attr["name"] == "city":
            attr["synonyms"] = {"Berlin": ["BER"]}
    doc["errors"] = [{"type": "synonyms_existence", "rate": 0.1, "attributes": ["city"]}]
    config = parse_config(json.dumps(doc))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    for entry in log:
        assert entry.clean_value == "Berlin"
        assert entry.dirty_value == "BER"


def test_inconsistency_mapping_oracle():
    # city Berlin keeps zip from another city: (Berlin, 10115) -> (Berlin, 80331 or 20095)
    errors = [{"type": "inconsistency_among_attribute_values", "rate": 0.2}]
    config = parse_config(make_config_text(errors=errors))
    rule = config.dependencies[0]
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    cells = [e for e in log if e.attribute is not None]
    assert len(cells) == 20
    for entry in cells:
        row = dirty[entry.dirty_tuple_index]
        assert row["zip"] != rule.mapping[row["city"]]
        assert row["zip"] in rule.mapping.values()
        assert clean[entry.clean_tuple_index]["zip"] == rule.mapping[row["city"]]


def test_semi_empty_null_counts():
    errors = [{"type": "semi_empty_tuple", "rate": 0.1, "params": {"empty_fraction": 0.7}}]
    config = parse_config(make_config_text(errors=errors))  # 6 attributes
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    markers = [e for e in log if e.attribute is None]
    assert len(markers) == 10
    for marker in markers:
        row = dirty[marker.dirty_tuple_index]
        nulls = sum(1 for v in row.values() if v is None)
        # round(0.7 * 6) = 4 nulls, and at least one attribute kept
        assert nulls == 4
        assert sum(1 for v in row.values() if v is not None) >= 1


def test_semi_empty_ten_attribute_record():
    schema = [
        {"name": f"a{i}", "datatype": "string", "source": {"kind": "lexicon", "name": "words"}}
        for i in range(10)
    ]
    doc = {
        "schema": schema,
        "errors": [{"type": "semi_empty_tuple", "rate": 0.1, "params": {"empty_fraction": 0.7}}],
        "generation": {"tuple_count": 50, "seed": 4},
    }
    config = parse_config(json.dumps(doc))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    for marker in (e for e in log if e.attribute is None):
        row = dirty[marker.dirty_tuple_index]
        assert sum(1 for v in row.values() if v is None) == 7


def test_semi_empty_two_attribute_boundary():
    doc = {
        "schema": [
            {"name": "a", "datatype": "string", "source": {"kind": "lexicon", "name": "words"}},
            {"name": "b", "datatype": "string", "source": {"kind": "lexicon", "name": "cities"}},
        ],
        "errors": [{"type": "semi_empty_tuple", "rate": 0.2, "params": {"empty_fraction": 0.7}}],
        "generation": {"tuple_count": 50, "seed": 3},
    }
    config = parse_config(json.dumps(doc))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    markers = [e for e in log if e.attribute is None]
    assert len(markers) == 10
    for marker in markers:
        row = dirty[marker.dirty_tuple_index]
        assert sum(1 for v in row.values() if v is None) == 1
        assert sum(1 for v in row.values() if v is not None) == 1


def test_missing_attribute_removes_key():
    errors = [{"type": "missing_attribute", "rate": 0.1, "attributes": ["city"]}]
    config = parse_config(make_config_text(errors=errors))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    assert len(log) == 10
    for entry in log:
        assert entry.dirty_value is ABSENT
        assert "city" not in dirty[entry.dirty_tuple_index]
        assert "city" in clean[entry.clean_tuple_index]


def test_uniqueness_violation_duplicates_donor():
    errors = [{"type": "uniqueness_value_violation", "rate": 0.1, "attributes": ["id"]}]
    config = parse_config(make_config_text(errors=errors))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    assert len(log) == 10
    for entry in log:
        column = [r.get("id") for r in dirty]
        assert column.count(entry.dirty_value) == 2


def test_redundancy_exact_duplicate_mode():
    errors = [
        {
            "type": "redundancy_about_entity",
            "rate": 0.05,
            "params": {"near_duplicate": False},
        }
    ]
    config = parse_config(make_config_text(errors=errors))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    markers = [e for e in log if e.attribute is None]
    assert len(markers) == 5
    assert len(dirty) == 105
    for marker in markers:
        inserted = dirty[marker.dirty_tuple_index]
        assert inserted in clean  # an exact copy of some clean tuple


def test_redundancy_near_duplicate_perturbs_one_attribute():
    errors = [{"type": "redundancy_about_entity", "rate": 0.05}]
    config = parse_config(make_config_text(errors=errors))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    markers = [e for e in log if e.attribute is None]
    for marker in markers:
        satellites = [
            e
            for e in log
            if e.dirty_tuple_index == marker.dirty_tuple_index and e.attribute is not None
        ]
        changed = [e for e in satellites if e.clean_value != e.dirty_value]
        assert len(changed) == 1
        assert damerau_levenshtein(str(changed[0].clean_value), str(changed[0].dirty_value)) == 1


def test_irrelevant_observation_outside_every_domain():
    errors = [{"type": "irrelevant_observation", "rate": 0.05}]
    config = parse_config(make_config_text(errors=errors))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    from dirtygen.datagen import value_in_domain

    markers = [e for e in log if e.attribute is None]
    assert len(markers) == 5
    for marker in markers:
        record = dirty[marker.dirty_tuple_index]
        for attr in config.schema:
            assert not value_in_domain(attr, record[attr.name], config)


def test_bias_shift_is_exactly_one_sigma():
    errors = [
        {
            "type": "bias",
            "rate": 0.1,
            "params": {
                "group_attribute": "city",
                "group_value": "Berlin",
                "target_attribute": "score",
            },
        }
    ]
    config = parse_config(make_config_text(errors=errors, tuple_count=200))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    assert log, "expected at least one bias target"
    for entry in log:
        assert clean[entry.clean_tuple_index]["city"] == "Berlin"
        # the injector computes clean + sigma; assert the identical operation
        assert entry.dirty_value == entry.clean_value + 10.0  # sigma of normal(50, 10)


def test_value_items_beyond_appends_token():
    errors = [{"type": "value_items_beyond_attribute_context", "rate": 0.1, "attributes": ["first_name"]}]
    config = parse_config(make_config_text(errors=errors))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    for entry in log:
        assert entry.dirty_value.startswith(entry.clean_value + " ")


# ---------------------------------------------------------------------------
# apply_plan contracts


def test_empty_plan_identity(base_config):
    clean = list(generate_clean_dataset(base_config))
    plan = plan_errors(base_config)
    dirty, log = apply_plan(clean, plan, base_config)
    assert dirty == clean
    assert log == []


def test_single_entry_single_diff():
    doc = json.loads(make_config_text(tuple_count=10))
    doc["errors"] = [{"type": "missing_value", "rate": 0.1, "attributes": ["city"]}]
    config = parse_config(json.dumps(doc))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    assert len(log) == 1
    diffs = [
        (i, a)
        for i in range(10)
        for a in config.attribute_names
        if clean[i].get(a, ABSENT) != dirty[i].get(a, ABSENT)
    ]
    assert diffs == [(log[0].dirty_tuple_index, log[0].attribute)]


def test_log_replay_reproduces_dirty(config_with_errors):
    clean = list(generate_clean_dataset(config_with_errors))
    dirty, log = apply_plan(clean, plan_errors(config_with_errors), config_with_errors)
    rebuilt = replay(clean, log, config_with_errors.attribute_names)
    assert rebuilt == dirty


def test_realized_counts_match_targets(config_with_errors):
    from dirtygen.errorplan import spec_target_count

    clean = list(generate_clean_dataset(config_with_errors))
    _, log = apply_plan(clean, plan_errors(config_with_errors), config_with_errors)
    counts = realized_counts(log)
    for spec in config_with_errors.errors:
        assert counts.get(spec.error_type, 0) == spec_target_count(spec, config_with_errors)


def test_verify_error_examples(base_config):
    from dirtygen.inject import ErrorLogEntry

    clean = {"id": 1, "first_name": "Anna", "age": 34, "score": 50.0, "city": "Berlin", "zip": "10115"}
    dirty = dict(clean, age=181)
    entry = ErrorLogEntry(0, 0, "age", "interval_violation", 34, 181)
    assert verify_error(entry, clean, dirty, base_config)

    bad = ErrorLogEntry(0, 0, "city", "missing_value", "Berlin", "Berlin")
    assert not verify_error(bad, clean, dict(clean), base_config)

    mis = ErrorLogEntry(0, 0, "first_name", "misspelling", "Anna", "Anan")
    assert verify_error(mis, clean, dict(clean, first_name="Anan"), base_config)
    assert damerau_levenshtein("Anna", "Anan") == 1


def test_verifier_passes_on_every_entry_of_a_mixed_run():
    errors = [
        {"type": "missing_value", "rate": 0.05, "attributes": ["city"]},
        {"type": "misspelling", "rate": 0.05, "attributes": ["first_name"]},
        {"type": "interval_violation", "rate": 0.05, "attributes": ["age"]},
        {"type": "erroneous_entry", "rate": 0.05, "attributes": ["city"]},
        {"type": "uniqueness_value_violation", "rate": 0.05, "attributes": ["id"]},
        {"type": "synonyms_existence", "rate": 0.05, "attributes": ["city"]},
        {"type": "outlier", "rate": 0.04, "attributes": ["score"]},
        {"type": "noise", "rate": 0.04, "attributes": ["score"]},
        {"type": "missing_attribute", "rate": 0.04, "attributes": ["zip"]},
        {"type": "semi_empty_tuple", "rate": 0.03},
        {"type": "inconsistency_among_attribute_values", "rate": 0.04},
        {"type": "redundancy_about_entity", "rate": 0.03},
        {"type": "inconsistency_about_entity", "rate": 0.02},
        {"type": "irrelevant_observation", "rate": 0.02},
        {"type": "meaningless_value", "rate": 0.04, "attributes": ["first_name"]},
        {"type": "value_items_beyond_attribute_context", "rate": 0.03, "attributes": ["first_name"]},
        {"type": "inadequate_value_to_attribute_context", "rate": 0.03, "attributes": ["age"]},
    ]
    config = parse_config(make_config_text(errors=errors, tuple_count=300))
    clean = list(generate_clean_dataset(config))
    dirty, log = apply_plan(clean, plan_errors(config), config)
    assert log
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
        ), entry


def test_ground_truth_consistency_base_rows(config_with_errors):
    clean = list(generate_clean_dataset(config_with_errors))
    dirty, log = apply_plan(clean, plan_errors(config_with_errors), config_with_errors)
    logged = {
        (e.dirty_tuple_index, e.attribute)
        for e in log
        if e.attribute is not None and e.clean_tuple_index is not None
    }
    diffs = {
        (i, a)
        for i in range(len(clean))
        for a in config_with_errors.attribute_names
        if clean[i].get(a, ABSENT) != dirty[i].get(a, ABSENT)
    }
    assert diffs == logged


def test_semi_empty_with_nulls_categorical_bias_and_float_interval_verify():
    # Semi-empty tuples on a schema with clean nulls (the planner counts each
    # row's non-null cells), bias by skewed_weights on a set attribute, and
    # interval violations of a float attribute: every entry verifies against
    # the datasets.
    doc = {
        "schema": [
            {"name": "id", "datatype": "integer", "source": {"kind": "sequence", "start": 1, "step": 1}, "unique": True},
            {"name": "city", "datatype": "string", "source": {"kind": "set", "values": ["Berlin", "Munich", "Hamburg"]},
             "nullable_in_clean": True, "null_rate": 0.2},
            {"name": "grade", "datatype": "string", "source": {"kind": "set", "values": ["A", "B", "C", "D"]}},
            {"name": "temp", "datatype": "float",
             "source": {"kind": "numeric", "distribution": "uniform", "min": -5.0, "max": 35.0}, "interval": [-5.0, 35.0]},
            {"name": "name", "datatype": "string", "source": {"kind": "lexicon", "name": "first_names"},
             "nullable_in_clean": True, "null_rate": 0.5},
        ],
        "errors": [
            {"type": "semi_empty_tuple", "rate": 0.1},
            {"type": "bias", "rate": 0.2, "params": {"group_attribute": "city", "group_value": "Berlin",
                                                     "target_attribute": "grade", "skewed_weights": {"A": 8, "B": 1, "C": 1}}},
            {"type": "interval_violation", "rate": 0.1, "attributes": ["temp"]},
        ],
        "generation": {"tuple_count": 200, "seed": 3},
    }
    config = parse_config(json.dumps(doc))
    clean = list(generate_clean_dataset(config))
    plan = plan_errors(config)
    assert plan.warnings == ()
    dirty, log = apply_plan(clean, plan, config)
    assert realized_counts(log) == {"semi_empty_tuple": 20, "bias": 40, "interval_violation": 20}
    assert any(None in record.values() for record in clean)
    for entry in log:
        if entry.error_type == "bias":
            assert entry.dirty_value in ("A", "B", "C") and entry.dirty_value != entry.clean_value
        if entry.error_type == "interval_violation":
            assert isinstance(entry.dirty_value, float) and not -5.0 <= entry.dirty_value <= 35.0
        clean_record = None if entry.clean_tuple_index is None else clean[entry.clean_tuple_index]
        assert verify_error(
            entry, clean_record, dirty[entry.dirty_tuple_index], config, dirty_dataset=dirty, clean_dataset=clean
        ), entry
