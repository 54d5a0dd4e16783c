import functools
import json
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen import ABSENT, apply_plan, parse_config, plan_errors, verify_error
from dirtygen.datagen import clean_cell_value, generate_clean_dataset, value_in_domain
from dirtygen.errortypes import ERROR_TYPES, _interval_violation, apply_edit, edit_distance_one, misspell
from dirtygen.inject import write_run
from dirtygen.output import ErrorLogEntry, read_dataset, read_error_log, same_json
from dirtygen.rng import derive_stream
from dirtygen.taxonomy import INSERTION_TYPES

from confgen import random_config
from test_acceptance import _golden_dense_doc
from test_datagen import _block_docs
from test_byte_gate import MEMBERSHIP
from conftest import make_config_text
from replay import realized_counts, replay


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
    assert ERROR_TYPES["missing_value"].inject("Berlin", attr, stream, base_config, {}, None) is None


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
        assert ERROR_TYPES["erroneous_entry"].inject("A", attr, stream, config, {}, None) == "B"


def test_listed_domain_membership_is_type_strict():
    # true and 1.0 equal 1 under ==, but neither is a member of the integer
    # set [1, 2, 3]: an erroneous_entry to either is not one, and 2 is. The
    # same holds for a dependent's images, here 1 and 2.
    doc = {
        "schema": [
            {"name": "n", "datatype": "integer", "source": {"kind": "set", "values": [1, 2, 3]}},
            {"name": "g", "datatype": "string", "source": {"kind": "set", "values": ["A", "B"]}},
            {"name": "d", "datatype": "integer"},
        ],
        "dependencies": [{"determinant": "g", "dependent": "d", "mapping": {"A": 1, "B": 2}}],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    config = parse_config(json.dumps(doc))
    domain = config.attribute("n").domain
    assert [domain.contains(v) for v in (1, 2, 3, True, 1.0, 2.0, "1", None, ABSENT)] == [True] * 3 + [False] * 6
    clean = {"n": 3, "g": "A", "d": 1}
    cases = [("n", "erroneous_entry", 3), ("d", "inconsistency_among_attribute_values", 1)]
    for (name, error_type, clean_value), (dirty_value, verdict) in product(cases, ((True, False), (2.0, False), (2, True))):
        entry = ErrorLogEntry(0, 0, name, error_type, clean_value, dirty_value)
        dirty = dict(clean, **{name: dirty_value})
        verified = verify_error(entry, clean, dirty, config, dirty_dataset=[dirty], clean_dataset=[clean])
        assert verified is verdict, (name, dirty_value)


def _one_attribute_config(attr: dict, tuple_count: int = 50):
    return parse_config(json.dumps({"schema": [attr], "generation": {"tuple_count": tuple_count, "seed": 1}}))


def _verifies(config, error_type: str, name: str, clean_value, dirty_value) -> bool:
    clean, dirty = {name: clean_value}, {name: dirty_value}
    entry = ErrorLogEntry(0, 0, name, error_type, clean_value, dirty_value)
    return verify_error(entry, clean, dirty, config, dirty_dataset=[dirty], clean_dataset=[clean])


def test_sequence_membership_keeps_the_interval_and_the_datatype():
    # 150 continues the sequence but leaves the interval, and 75.0 is a float
    # on an integer attribute: neither is a value the generator could write.
    config = _one_attribute_config({"name": "s", "datatype": "integer", "interval": [1, 100],
                                    "source": {"kind": "sequence", "start": 1, "step": 1}})
    attr = config.attribute("s")
    assert [value_in_domain(attr, v, config) for v in (75, 100, 150, 75.0, True)] == [True, True, False, False, False]
    assert _verifies(config, "erroneous_entry", "s", 1, 75)
    assert not _verifies(config, "erroneous_entry", "s", 1, 150)
    assert not _verifies(config, "erroneous_entry", "s", 1, 75.0)


def test_normal_membership_is_bounded():
    # No normal(50, 10) draw reaches 1e300, and none is infinite.
    config = _one_attribute_config({"name": "n", "datatype": "float",
                                    "source": {"kind": "numeric", "distribution": "normal", "mean": 50, "stddev": 10}})
    domain = config.attribute("n").domain
    assert [domain.contains(v) for v in (50.5, 7, 1e300, -1e308, math.inf, -math.inf, math.nan)] == [True] * 2 + [False] * 5
    assert _verifies(config, "erroneous_entry", "n", 50.0, 61.5)
    assert not _verifies(config, "erroneous_entry", "n", 50.0, 1e300)


def test_integer_normal_bound_covers_rounding():
    # With stddev 0.1 the largest draw is 0.857, which rounds to 1: one more
    # than 9 stddevs, but a value the generator writes.
    config = _one_attribute_config({"name": "n", "datatype": "integer",
                                    "source": {"kind": "numeric", "distribution": "normal", "mean": 0, "stddev": 0.1}})
    domain = config.attribute("n").domain
    assert domain.attempts(1, [[0], [0]]) == [1]  # the smallest u1 and u2 = 0: z is at its largest
    assert [domain.contains(v) for v in (1, 0, -1, 2, 1.0)] == [True, True, True, False, False]


@pytest.mark.parametrize("name", sorted(MEMBERSHIP))
def test_membership_gate_configs_generate_and_verify(name):
    # Each injector rejects its candidates by the target's membership, and
    # before membership checked the interval and the normal bound, two of
    # them could not find a value at all. The verifier reads it too: a
    # float sequence's erroneous_entry value is a member only by its
    # nearest index.
    config = parse_config(json.dumps(MEMBERSHIP[name]))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    assert realized_counts(log) == {spec.error_type: spec.count for spec in config.errors}
    for entry in log:
        clean_record = None if entry.clean_tuple_index is None else clean[entry.clean_tuple_index]
        assert verify_error(
            entry, clean_record, dirty[entry.dirty_tuple_index], config, dirty_dataset=dirty, clean_dataset=clean
        ), entry


def test_float_sequence_entries_verify_far_from_zero():
    # Readings 1e6 + 0.001 k: the index of a value is about 1e-7 away from a
    # whole number, so only the nearest index finds each one's term.
    config = parse_config(json.dumps({
        "schema": [{"name": "t", "datatype": "float", "source": {"kind": "sequence", "start": 1e6, "step": 0.001}}],
        "errors": [{"type": "erroneous_entry", "rate": 0.2, "attributes": ["t"]}],
        "generation": {"tuple_count": 250, "seed": 1},
    }))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    assert len(log) == 50
    for entry in log:
        row = entry.clean_tuple_index
        assert verify_error(entry, clean[row], dirty[row], config, dirty_dataset=dirty, clean_dataset=clean), entry


def test_whole_float_sequence_writes_floats_and_groups_bias_by_them(tmp_path):
    # start 1 and step 1 on a float attribute write 1.0, 2.0, ...: the clean
    # file holds 2.0, the bias group_value 2 is that 2.0, and every bias
    # entry's tuple has it. An int donor value is no member, so the
    # injector can borrow one.
    config = parse_config(json.dumps(MEMBERSHIP["membership-whole-float-sequence"]), output_dir_override=tmp_path)
    write_run(config, plan_errors(config))
    clean = list(read_dataset(tmp_path / "clean.ndjson"))
    assert '"g":2.0,' in (tmp_path / "clean.ndjson").read_text(encoding="utf-8").splitlines()[1]
    assert all(type(record["g"]) is float for record in clean)
    log = read_error_log(tmp_path / "errors.log")
    bias = [entry for entry in log if entry.error_type == "bias"]
    assert bias and all(same_json(clean[entry.clean_tuple_index]["g"], 2.0) for entry in bias)
    borrowed = [e.dirty_value for e in log if e.error_type == "inadequate_value_to_attribute_context"]
    assert any(type(value) is int for value in borrowed)


# A float attribute of each source kind the other docs lack: a set, an
# admissible set and a dependent, all written as ints.
_FLOAT_SOURCES = {
    "schema": [
        {"name": "fs", "datatype": "float", "source": {"kind": "set", "values": [1, 2.5]}},
        {"name": "fa", "datatype": "float", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 9},
         "admissible_set": [1, 2, 3]},
        {"name": "fd", "datatype": "float"},
    ],
    "dependencies": [{"determinant": "fs", "dependent": "fd", "mapping": {"1": 3, "2.5": 4}}],
    "generation": {"tuple_count": 50, "seed": 1},
}


def _fixed_float_texts() -> list[str]:
    blocks = list(_block_docs().values())
    for doc in blocks:
        doc["generation"]["tuple_count"] = 300
    return [json.dumps(doc) for doc in (*blocks, *MEMBERSHIP.values(), _FLOAT_SOURCES)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_fixed_float_texts()) | st.integers(0, 2**32).map(lambda seed: random_config(random.Random(seed))))
def test_property_float_attributes_hold_floats(text):
    # Every non-null clean value of a float attribute is a float, whatever its
    # source: uniform, normal, set, admissible set, dependent image or sequence.
    config = parse_config(text)
    floats = [attr.name for attr in config.schema if attr.datatype == "float"]
    for record in generate_clean_dataset(config):
        assert all(type(record[name]) is float for name in floats if record[name] is not None), record


_RULE_AND_GROUP = {
    "schema": [
        {"name": "n", "datatype": "integer", "source": {"kind": "set", "values": [1, 2]}},
        {"name": "d", "datatype": "string"},
        {"name": "x", "datatype": "float", "source": {"kind": "set", "values": [1.5, 2.0]}},
        {"name": "a", "datatype": "integer", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 9}},
    ],
    "dependencies": [{"determinant": "n", "dependent": "d", "mapping": {"1": "one", "2": "two"}}],
    "errors": [{"type": "bias", "rate": 0.1, "params": {"group_attribute": "x", "group_value": 2,
                                                          "target_attribute": "a", "shift": 2}}],
    "generation": {"tuple_count": 60, "seed": 5},
}


@pytest.mark.parametrize(
    "error_type, name, clean_changes, dirty_changes, verdict",
    [
        ("inconsistency_among_attribute_values", "d", {}, {"d": "two"}, True),
        ("inconsistency_among_attribute_values", "d", {}, {"d": "two", "n": True}, False),
        ("inconsistency_among_attribute_values", "d", {}, {"d": "two", "n": 1.0}, False),
        ("inconsistency_among_attribute_values", "d", {}, {"d": "two", "n": [1]}, False),
        ("bias", "a", {}, {"a": 7}, True),
        ("bias", "a", {"x": 2}, {"a": 7}, False),
        ("bias", "a", {"x": [2.0]}, {"a": 7}, False),
    ],
)
def test_rule_and_group_verdicts_compare_by_json(error_type, name, clean_changes, dirty_changes, verdict):
    # The determinant true, 1.0 or [1] is not the 1 the rule maps, and a
    # clean 2 is not the group value 2.0: under == the first two would break
    # the rule, the 2 would be in the group, and [1] would raise.
    config = parse_config(json.dumps(_RULE_AND_GROUP))
    clean = dict({"n": 1, "d": "one", "x": 2.0, "a": 5}, **clean_changes)
    dirty = dict(clean, **dirty_changes)
    entry = ErrorLogEntry(0, 0, name, error_type, clean[name], dirty[name])
    assert verify_error(entry, clean, dirty, config, dirty_dataset=[dirty], clean_dataset=[clean]) is verdict


@pytest.mark.parametrize("error_type", ["noise", "bias", "outlier", "interval_violation"])
def test_a_null_clean_value_verifies_no_value_error(error_type):
    # A nullable target may be null in the clean file, but the planner never
    # places these types on a null cell: an entry with one is False, not an error.
    doc = {
        "schema": [
            {"name": "v", "datatype": "float", "interval": [0, 100], "nullable_in_clean": True, "null_rate": 0.2,
             "source": {"kind": "numeric", "distribution": "normal", "mean": 50, "stddev": 5}},
            {"name": "g", "datatype": "string", "source": {"kind": "set", "values": ["A", "B"]}},
        ],
        "errors": [{"type": "bias", "rate": 0.1, "params": {"group_attribute": "g", "group_value": "A",
                                                              "target_attribute": "v"}}],
        "generation": {"tuple_count": 40, "seed": 3},
    }
    config = parse_config(json.dumps(doc))
    clean, dirty = {"v": None, "g": "A"}, {"v": 150.0, "g": "A"}
    entry = ErrorLogEntry(0, 0, "v", error_type, None, 150.0)
    assert verify_error(entry, clean, dirty, config, dirty_dataset=[dirty], clean_dataset=[clean]) is False


_SET_AND_BIAS = {
    "schema": [
        {"name": "n", "datatype": "integer", "source": {"kind": "set", "values": [1, 2, 3]},
         "admissible_set": [1, 2, 3]},
        {"name": "x", "datatype": "float", "source": {"kind": "set", "values": [1.5, 2.5]},
         "admissible_set": [1.5, 2.5]},
        {"name": "a", "datatype": "integer", "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 9}},
        {"name": "g", "datatype": "string", "source": {"kind": "set", "values": ["A", "B"]}},
    ],
    "errors": [
        {"type": "set_violation", "rate": 0.3, "attributes": ["n", "x"]},
        {"type": "bias", "rate": 0.1, "params": {"group_attribute": "g", "group_value": "A",
                                                   "target_attribute": "n", "skewed_weights": {"1": 1, "3": 1}}},
        {"type": "bias", "rate": 0.1, "params": {"group_attribute": "g", "group_value": "A",
                                                   "target_attribute": "a", "shift": 2}},
    ],
    "generation": {"tuple_count": 60, "seed": 5},
}


@pytest.mark.parametrize(
    "error_type, name, dirty_value, verdict",
    [
        ("set_violation", "n", 4, True), ("set_violation", "n", 1, False),
        ("set_violation", "n", True, False), ("set_violation", "n", 1.0, True),
        ("bias", "n", 3, True), ("bias", "n", True, False), ("bias", "n", 1.0, False),
        ("bias", "a", 7, True), ("bias", "a", 7.0, False),
    ],
)
def test_set_and_bias_verdicts_are_type_strict(error_type, name, dirty_value, verdict):
    # true and 1.0 equal 1 under ==, but neither is a member of [1, 2, 3] or
    # a weighted value 1 or 3, and 7.0 is not the shifted 5 + 2. A set
    # violation is a str or a number, so true is none.
    config = parse_config(json.dumps(_SET_AND_BIAS))
    clean = {"n": 2, "x": 1.5, "a": 5, "g": "A"}
    dirty = dict(clean, **{name: dirty_value})
    entry = ErrorLogEntry(0, 0, name, error_type, clean[name], dirty_value)
    assert verify_error(entry, clean, dirty, config, dirty_dataset=[dirty], clean_dataset=[clean]) is verdict


@pytest.mark.parametrize("dirty_value, verdict", [(None, False), (ABSENT, False), ([1], False), ("zz", True), (4.5, True)])
def test_set_violation_is_a_str_or_a_number(dirty_value, verdict):
    # A null, a removed key or an array outside [1, 2, 3] is a missing value,
    # a missing attribute or another error's value, not a set violation; a
    # string on an integer attribute is one, as a failed _retype writes it.
    config = parse_config(json.dumps(_SET_AND_BIAS))
    clean = {"n": 2, "x": 1.5, "a": 5, "g": "A"}
    dirty = {k: v for k, v in dict(clean, n=dirty_value).items() if v is not ABSENT}
    entry = ErrorLogEntry(0, 0, "n", "set_violation", 2, dirty_value)
    assert verify_error(entry, clean, dirty, config, dirty_dataset=[dirty], clean_dataset=[clean]) is verdict


def test_set_violation_keeps_the_datatype_where_it_can():
    # A misspelt member is read back as the attribute's datatype when it
    # parses as one (the integer and the float branch) and stays text otherwise.
    config = parse_config(json.dumps(_SET_AND_BIAS))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    kinds = {(entry.attribute, type(entry.dirty_value)) for entry in log if entry.error_type == "set_violation"}
    assert {("n", int), ("x", float)} <= kinds <= {("n", int), ("n", str), ("x", float), ("x", str)}
    for entry in log:
        clean_record = None if entry.clean_tuple_index is None else clean[entry.clean_tuple_index]
        assert verify_error(
            entry, clean_record, dirty[entry.dirty_tuple_index], config, dirty_dataset=dirty, clean_dataset=clean
        ), entry


def test_verify_error_refuses_entries_it_cannot_check(base_config):
    clean = list(generate_clean_dataset(base_config))[:2]
    n = len(clean)
    copy = dict(clean[0])
    dirty = [*clean, copy]
    refused = [
        (ErrorLogEntry(0, 0, "id", "no_such_type", 1, 2), clean[0], clean[0]),
        # An insertion's content entry whose value the inserted record does not hold.
        (ErrorLogEntry(n, None, "first_name", "redundancy_about_entity", copy["first_name"], "elsewhere"), None, copy),
        # A base tuple's entry needs the clean record.
        (ErrorLogEntry(0, 0, "id", "erroneous_entry", clean[0]["id"], 99), None, dict(clean[0], id=99)),
    ]
    for entry, clean_record, dirty_record in refused:
        assert verify_error(
            entry, clean_record, dirty_record, base_config, dirty_dataset=dirty, clean_dataset=clean
        ) is False, entry


@pytest.mark.parametrize("dirty_id, verdict", [(1, True), (1.0, False), (True, False)])
def test_uniqueness_violation_needs_the_same_value(base_config, dirty_id, verdict):
    # Row 1 repeats row 0's id only where it holds the same JSON value.
    clean = list(generate_clean_dataset(base_config))[:3]
    dirty = [clean[0], dict(clean[1], id=dirty_id), clean[2]]
    entry = ErrorLogEntry(1, 1, "id", "uniqueness_value_violation", clean[1]["id"], dirty_id)
    assert verify_error(entry, clean[1], dirty[1], base_config, dirty_dataset=dirty, clean_dataset=clean) is verdict


@pytest.mark.parametrize("copied_id, verdict", [(1, True), (1.0, False)])
def test_exact_copy_holds_the_same_values(copied_id, verdict):
    # An exact copy (near_duplicate false) of the tuple with id 1.
    config = parse_config(make_config_text(errors=[
        {"type": "redundancy_about_entity", "rate": 0.05, "params": {"near_duplicate": False}}]))
    clean = list(generate_clean_dataset(config))
    copy = dict(clean[0], id=copied_id)
    entry = ErrorLogEntry(len(clean), None, None, "redundancy_about_entity", ABSENT, ABSENT)
    dirty = [*clean, copy]
    assert verify_error(entry, None, copy, config, dirty_dataset=dirty, clean_dataset=clean) is verdict


@pytest.mark.parametrize("dirty_value, verdict", [("5", True), (5, False)])
def test_misspelled_copy_is_a_string(base_config, dirty_value, verdict):
    # A near-duplicate's perturbed cell is one edit from its source's string,
    # and a string itself.
    clean = list(generate_clean_dataset(base_config))
    copy = dict(clean[0], first_name=dirty_value)
    entry = ErrorLogEntry(len(clean), None, "first_name", "redundancy_about_entity", "56", dirty_value)
    dirty = [*clean, copy]
    assert verify_error(entry, None, copy, base_config, dirty_dataset=dirty, clean_dataset=clean) is verdict


def test_outlier_formula():
    # mu + k * sigma * (1 + u) with k=5, u=0, positive side: 50 + 50 = 100
    text = make_config_text(
        errors=[{"type": "outlier", "rate": 0.1, "attributes": ["score"], "params": {"k": 5}}]
    )
    config = parse_config(text)
    plan = plan_errors(config)
    clean, dirty, log = apply_plan(plan, config)
    for entry in log:
        assert abs(entry.dirty_value - 50.0) >= 50.0


def test_outlier_value_from_fixed_draws(base_config):
    domain = base_config.attribute("score").domain
    mu, sigma = domain.mean, domain.stddev
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
    clean, dirty, log = apply_plan(plan_errors(config), config)
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
    clean, dirty, log = apply_plan(plan_errors(config), config)
    for entry in log:
        assert entry.clean_value == "Berlin"
        assert entry.dirty_value == "BER"


def test_inconsistency_mapping_oracle():
    # city Berlin keeps zip from another city: (Berlin, 10115) -> (Berlin, 80331 or 20095)
    errors = [{"type": "inconsistency_among_attribute_values", "rate": 0.2}]
    config = parse_config(make_config_text(errors=errors))
    rule = config.dependencies[0]
    clean, dirty, log = apply_plan(plan_errors(config), config)
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
    clean, dirty, log = apply_plan(plan_errors(config), config)
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
    clean, dirty, log = apply_plan(plan_errors(config), config)
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
    clean, dirty, log = apply_plan(plan_errors(config), config)
    markers = [e for e in log if e.attribute is None]
    assert len(markers) == 10
    for marker in markers:
        row = dirty[marker.dirty_tuple_index]
        assert sum(1 for v in row.values() if v is None) == 1
        assert sum(1 for v in row.values() if v is not None) == 1


def test_missing_attribute_removes_key():
    errors = [{"type": "missing_attribute", "rate": 0.1, "attributes": ["city"]}]
    config = parse_config(make_config_text(errors=errors))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    assert len(log) == 10
    for entry in log:
        assert entry.dirty_value is ABSENT
        assert "city" not in dirty[entry.dirty_tuple_index]
        assert "city" in clean[entry.clean_tuple_index]


def test_uniqueness_violation_duplicates_donor():
    errors = [{"type": "uniqueness_value_violation", "rate": 0.1, "attributes": ["id"]}]
    config = parse_config(make_config_text(errors=errors))
    clean, dirty, log = apply_plan(plan_errors(config), config)
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
    clean, dirty, log = apply_plan(plan_errors(config), config)
    markers = [e for e in log if e.attribute is None]
    assert len(markers) == 5
    assert len(dirty) == 105
    for marker in markers:
        inserted = dirty[marker.dirty_tuple_index]
        assert inserted in clean  # an exact copy of some clean tuple


def test_redundancy_near_duplicate_perturbs_one_attribute():
    errors = [{"type": "redundancy_about_entity", "rate": 0.05}]
    config = parse_config(make_config_text(errors=errors))
    clean, dirty, log = apply_plan(plan_errors(config), config)
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
    clean, dirty, log = apply_plan(plan_errors(config), config)
    from dirtygen.datagen import value_in_domain

    markers = [e for e in log if e.attribute is None]
    assert len(markers) == 5
    for marker in markers:
        record = dirty[marker.dirty_tuple_index]
        for attr in config.schema:
            assert not value_in_domain(attr, record[attr.name], config)


def test_meaningless_value_avoids_a_dependents_values():
    # A dependent's domain is its mapping's values: a meaningless value must
    # never be one of them, and the verifier must not take one for meaningless.
    images = ["".join(letters) for letters in product("abcdefghij", repeat=3)]
    doc = {
        "schema": [
            {"name": "k", "datatype": "integer",
             "source": {"kind": "numeric", "distribution": "uniform", "min": 0, "max": 999}},
            {"name": "tag", "datatype": "string"},
        ],
        "dependencies": [{"determinant": "k", "dependent": "tag", "mapping": dict(zip(map(str, range(1000)), images))}],
        "generation": {"tuple_count": 10, "seed": 1},
    }
    config = parse_config(json.dumps(doc))
    attr = config.attribute("tag")
    stream = derive_stream(3, "test-meaningless")
    draws = [ERROR_TYPES["meaningless_value"].inject("abc", attr, stream, config, {}, None) for _ in range(5000)]
    assert not set(draws) & set(images)
    verify = ERROR_TYPES["meaningless_value"].verify
    assert not verify("abc", "jij", attr, config, {}, None, None, None)
    assert verify("abc", "jij#", attr, config, {}, None, None, None)

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
    clean, dirty, log = apply_plan(plan_errors(config), config)
    assert log, "expected at least one bias target"
    for entry in log:
        assert clean[entry.clean_tuple_index]["city"] == "Berlin"
        # the injector computes clean + sigma; assert the identical operation
        assert entry.dirty_value == entry.clean_value + 10.0  # sigma of normal(50, 10)


def test_value_items_beyond_appends_token():
    errors = [{"type": "value_items_beyond_attribute_context", "rate": 0.1, "attributes": ["first_name"]}]
    config = parse_config(make_config_text(errors=errors))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    for entry in log:
        assert entry.dirty_value.startswith(entry.clean_value + " ")


# ---------------------------------------------------------------------------
# apply_plan contracts


def test_empty_plan_identity(base_config):
    plan = plan_errors(base_config)
    clean, dirty, log = apply_plan(plan, base_config)
    assert dirty == clean
    assert log == []


def test_apply_plan_clean_is_the_clean_dataset_and_untouched_rows_are_its_records():
    # 300 tuples: two blocks, the second one partial.
    errors = [{"type": "missing_value", "rate": 0.1, "attributes": ["city"]}]
    config = parse_config(make_config_text(errors=errors, tuple_count=300))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    assert clean == list(generate_clean_dataset(config))
    touched = {entry.dirty_tuple_index for entry in log}
    assert len(touched) == 30 and len(dirty) == len(clean)
    for row, (clean_record, dirty_record) in enumerate(zip(clean, dirty)):
        assert (dirty_record is clean_record) == (row not in touched), row


def test_single_entry_single_diff():
    doc = json.loads(make_config_text(tuple_count=10))
    doc["errors"] = [{"type": "missing_value", "rate": 0.1, "attributes": ["city"]}]
    config = parse_config(json.dumps(doc))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    assert len(log) == 1
    diffs = [
        (i, a)
        for i in range(10)
        for a in config.attribute_names
        if clean[i].get(a, ABSENT) != dirty[i].get(a, ABSENT)
    ]
    assert diffs == [(log[0].dirty_tuple_index, log[0].attribute)]


def test_log_replay_reproduces_dirty(config_with_errors):
    clean, dirty, log = apply_plan(plan_errors(config_with_errors), config_with_errors)
    rebuilt = replay(clean, log, config_with_errors.attribute_names)
    assert rebuilt == dirty


def test_realized_counts_match_targets(config_with_errors):
    *_, log = apply_plan(plan_errors(config_with_errors), config_with_errors)
    counts = realized_counts(log)
    for spec in config_with_errors.errors:
        assert counts.get(spec.error_type, 0) == spec.count


def test_manifest_counts_are_the_logged_errors(tmp_path):
    # write_run counts the plan's entries; the log oracle counts the lines
    # of the log it wrote, by the documented logging rules.
    for seed in range(120):
        out = tmp_path / str(seed)
        config = parse_config(random_config(random.Random(seed)), output_dir_override=out)
        manifest = write_run(config, plan_errors(config))
        assert manifest["error_counts"] == realized_counts(read_error_log(out / "errors.log")), seed


def test_verify_error_examples(base_config):
    from dirtygen.inject import ErrorLogEntry

    clean = {"id": 1, "first_name": "Anna", "age": 34, "score": 50.0, "city": "Berlin", "zip": "10115"}
    dirty = dict(clean, age=181)
    entry = ErrorLogEntry(0, 0, "age", "interval_violation", 34, 181)
    assert verify_error(entry, clean, dirty, base_config, dirty_dataset=[dirty], clean_dataset=[clean])

    bad = ErrorLogEntry(0, 0, "city", "missing_value", "Berlin", "Berlin")
    unchanged = dict(clean)
    assert not verify_error(bad, clean, unchanged, base_config, dirty_dataset=[unchanged], clean_dataset=[clean])

    mis = ErrorLogEntry(0, 0, "first_name", "misspelling", "Anna", "Anan")
    misspelled = dict(clean, first_name="Anan")
    assert verify_error(mis, clean, misspelled, base_config, dirty_dataset=[misspelled], clean_dataset=[clean])
    assert damerau_levenshtein("Anna", "Anan") == 1


@pytest.mark.parametrize("error_type", ["outlier", "noise"])
def test_distribution_checks_refuse_an_attribute_without_one(base_config, error_type):
    # A log may name any attribute; one without a distribution holds no
    # outlier and no noise, so the entry does not verify.
    from dirtygen.inject import ErrorLogEntry

    clean = {"id": 1, "first_name": "Anna", "age": 34, "score": 50.0, "city": "Berlin", "zip": "10115"}
    dirty = dict(clean, city=1e9)
    entry = ErrorLogEntry(0, 0, "city", error_type, "Berlin", 1e9)
    assert not verify_error(entry, clean, dirty, base_config, dirty_dataset=[dirty], clean_dataset=[clean])


@pytest.mark.parametrize("error_type", sorted(ERROR_TYPES))
def test_verify_error_refuses_an_attribute_its_type_does_not_apply_to(base_config, error_type):
    # A log may name any attribute. Each cell here takes another row's value
    # of its column (for city, a city many rows hold), and the verdict is a
    # bool, False wherever the type does not apply.
    from dirtygen.inject import ErrorLogEntry

    etype = ERROR_TYPES[error_type]
    clean = list(generate_clean_dataset(base_config))
    for attr in base_config.schema:
        clean_value = clean[0][attr.name]
        dirty_value = next(r[attr.name] for r in clean if r[attr.name] not in (clean_value, None))
        dirty_record = dict(clean[0], **{attr.name: dirty_value})
        entry = ErrorLogEntry(0, 0, attr.name, error_type, clean_value, dirty_value)
        verdict = verify_error(
            entry, clean[0], dirty_record, base_config,
            dirty_dataset=[dirty_record, *clean[1:]], clean_dataset=clean,
        )
        assert type(verdict) is bool, (attr.name, verdict)
        if etype.applicable is not None and not etype.applicable(attr, base_config):
            assert verdict is False, attr.name


@pytest.mark.parametrize("error_type", sorted(ERROR_TYPES))
@pytest.mark.parametrize("logged_clean", [1, ABSENT])
def test_verify_error_refuses_an_attribute_not_in_the_schema(base_config, error_type, logged_clean):
    # A log may name an attribute the schema does not have, on a base row or
    # an inserted one: the verdict is False, never an error.
    from dirtygen.inject import ErrorLogEntry

    clean = list(generate_clean_dataset(base_config))
    inserted = error_type in INSERTION_TYPES
    row = len(clean) if inserted else 0
    entry = ErrorLogEntry(row, None if inserted else 0, "nosuch", error_type, logged_clean, ABSENT)
    verdict = verify_error(
        entry, None if inserted else clean[0], clean[0], base_config,
        dirty_dataset=[*clean, clean[0]], clean_dataset=clean,
    )
    assert verdict is False


@pytest.mark.parametrize(
    "error_type, dirty_age, logged_clean, logged_dirty",
    [
        ("missing_value", None, True, None),
        ("missing_value", None, 1.0, None),
        ("interval_violation", 181, 1, 181.0),
    ],
)
def test_verify_error_compares_logged_values_type_strictly(
    base_config, error_type, dirty_age, logged_clean, logged_dirty
):
    # A logged value of another JSON type is not the record's value, though == says it is.
    from dirtygen.inject import ErrorLogEntry

    clean = {"id": 1, "first_name": "Anna", "age": 1, "score": 50.0, "city": "Berlin", "zip": "10115"}
    dirty = dict(clean, age=dirty_age)
    datasets = {"dirty_dataset": [dirty], "clean_dataset": [clean]}
    assert verify_error(ErrorLogEntry(0, 0, "age", error_type, 1, dirty_age), clean, dirty, base_config, **datasets)
    entry = ErrorLogEntry(0, 0, "age", error_type, logged_clean, logged_dirty)
    assert not verify_error(entry, clean, dirty, base_config, **datasets)


@functools.cache
def _dense_run():
    """A 60-tuple run of the all-types golden schema: its config, clean and dirty records and log."""
    doc = _golden_dense_doc()
    doc["generation"]["tuple_count"] = 60
    config = parse_config(json.dumps(doc))
    return (config, *apply_plan(plan_errors(config), config))


# Values a reader can decode: JSON scalars, with those that == confuses and
# the far ends of the number line (1e999 reads as infinity), lists and objects.
_DECODED_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from([True, 1, 1.0, -0.0, 1e300, -1e300, 10**400, "Berlin", "BER", "10115", "AB-1234"])
)
_DECODED = st.recursive(
    _DECODED_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_DECODED_OR_ABSENT = st.just(ABSENT) | _DECODED


@st.composite
def _decoded_side(draw, logged, record: dict, name):
    """One side of an entry: its logged value and record, either kept or
    given a decoded value in both, in the log only, or in the record only
    (where ABSENT drops the cell), plus a few other cells replaced or dropped."""
    record = dict(record)
    mode = draw(st.sampled_from(["keep", "both", "log", "record"]))
    value = draw(_DECODED if mode in ("both", "log") else _DECODED_OR_ABSENT)
    if mode in ("both", "log"):
        logged = value
    if name is not None and mode in ("both", "record"):
        record[name] = value
    others = st.dictionaries(st.sampled_from(list(record)), _DECODED_OR_ABSENT, max_size=2) if record else st.just({})
    record.update(draw(others))
    return logged, {key: value for key, value in record.items() if value is not ABSENT}


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(sorted(ERROR_TYPES)), st.data())
def test_property_verify_error_never_raises_for_decoded_values(error_type, data):
    # An entry of a generated log, its logged values and its records' cells
    # replaced by what a reader may decode: the verdict is a bool, never an error.
    config, clean, dirty, log = _dense_run()
    entry = data.draw(st.sampled_from([e for e in log if e.error_type == error_type]))
    source = {} if entry.clean_tuple_index is None else clean[entry.clean_tuple_index]
    clean_value, clean_record = data.draw(_decoded_side(entry.clean_value, source, entry.attribute))
    dirty_value, dirty_record = data.draw(_decoded_side(entry.dirty_value, dirty[entry.dirty_tuple_index], entry.attribute))
    entry = entry._replace(clean_value=clean_value, dirty_value=dirty_value)
    clean_dataset, dirty_dataset = list(clean), list(dirty)
    dirty_dataset[entry.dirty_tuple_index] = dirty_record
    if entry.clean_tuple_index is not None:
        clean_dataset[entry.clean_tuple_index] = clean_record
    verdict = verify_error(
        entry, None if entry.clean_tuple_index is None else clean_record, dirty_record, config,
        dirty_dataset=dirty_dataset, clean_dataset=clean_dataset,
    )
    assert type(verdict) is bool


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
    clean, dirty, log = apply_plan(plan_errors(config), config)
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
    clean, dirty, log = apply_plan(plan_errors(config_with_errors), config_with_errors)
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
    plan = plan_errors(config)
    assert plan.warnings == ()
    clean, dirty, log = apply_plan(plan, config)
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
