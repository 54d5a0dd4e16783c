import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen import EvaluationError, apply_plan, parse_config, plan_errors, score
from dirtygen.evalkit import MetricSet, RepairMetrics, _metric_set, _same_record
from dirtygen.inject import ErrorLogEntry
from dirtygen.output import encode_record
from dirtygen.taxonomy import ABSENT, INSERTION_TYPES

from conftest import make_config_text
from confgen import random_config


def build_run(errors=None, tuple_count=100):
    errors = errors or [
        {"type": "missing_value", "rate": 0.1, "attributes": ["city"]},
        {"type": "misspelling", "rate": 0.05, "attributes": ["first_name"]},
        {"type": "redundancy_about_entity", "rate": 0.03},
    ]
    config = parse_config(make_config_text(errors=errors, tuple_count=tuple_count))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    return config, clean, dirty, log


def test_perfect_repair_scores_all_ones():
    config, clean, dirty, log = build_run()
    repaired = [dict(r) for r in clean] + [None] * (len(dirty) - len(clean))
    metrics = score(clean, dirty, repaired, log)
    for value in metrics.overall.to_dict().values():
        assert value == 1.0
    assert metrics.counts["false_positives"] == 0
    assert metrics.counts["false_negatives"] == 0


def test_noop_repair_scores_zero_recall():
    config, clean, dirty, log = build_run()
    repaired = [dict(r) for r in dirty]
    metrics = score(clean, dirty, repaired, log)
    assert metrics.overall.detection_recall == 0.0
    assert metrics.overall.detection_precision == 0.0  # zero flagged, reported as 0
    assert metrics.counts["flagged"] == 0


def test_hand_built_twenty_cell_instance():
    # One attribute, 20 tuples, 10 logged errors. The tool fixes 5 of them
    # correctly and corrupts 5 clean cells: precision = recall = 0.5.
    clean = [{"x": f"c{i}"} for i in range(20)]
    dirty = [dict(r) for r in clean]
    log = []
    for i in range(10):
        dirty[i]["x"] = f"d{i}"
        log.append(
            ErrorLogEntry(
                dirty_tuple_index=i,
                clean_tuple_index=i,
                attribute="x",
                error_type="erroneous_entry",
                clean_value=f"c{i}",
                dirty_value=f"d{i}",
            )
        )
    repaired = [dict(r) for r in dirty]
    for i in range(5):  # correct repairs of logged errors
        repaired[i]["x"] = f"c{i}"
    for i in range(10, 15):  # corruptions of clean cells
        repaired[i]["x"] = f"z{i}"
    metrics = score(clean, dirty, repaired, log)
    assert metrics.overall.detection_precision == 0.5
    assert metrics.overall.detection_recall == 0.5
    assert metrics.overall.detection_f1 == 0.5
    assert metrics.overall.repair_precision == 0.5
    assert metrics.overall.repair_recall == 0.5
    assert metrics.counts["true_positives"] == 5
    assert metrics.counts["false_positives"] == 5
    assert metrics.counts["false_negatives"] == 5


def test_partial_repair_per_type_breakdown():
    config, clean, dirty, log = build_run()
    repaired = [dict(r) for r in dirty]
    fixed = 0
    for entry in log:
        if entry.error_type == "missing_value" and fixed < 3:
            repaired[entry.dirty_tuple_index][entry.attribute] = entry.clean_value
            fixed += 1
    metrics = score(clean, dirty, repaired, log)
    per = metrics.per_error_type
    assert per["missing_value"].detection_recall == pytest.approx(3 / 10)
    assert per["missing_value"].repair_recall == pytest.approx(3 / 10)
    assert per["misspelling"].detection_recall == 0.0


def test_deleted_base_row_counts_as_wrong_repair():
    clean = [{"x": "a"}, {"x": "b"}]
    dirty = [{"x": "a"}, {"x": "bad"}]
    log = [
        ErrorLogEntry(
            dirty_tuple_index=1,
            clean_tuple_index=1,
            attribute="x",
            error_type="erroneous_entry",
            clean_value="b",
            dirty_value="bad",
        )
    ]
    repaired = [None, {"x": "b"}]
    metrics = score(clean, dirty, repaired, log)
    # deleting row 0 flags a clean cell (false positive); row 1 repaired correctly
    assert metrics.counts["false_positives"] == 1
    assert metrics.counts["true_positives"] == 1
    assert metrics.overall.repair_precision == 0.5


def test_unrepaired_inserted_row_is_a_false_negative():
    config, clean, dirty, log = build_run()
    inserted = len(dirty) - len(clean)
    assert inserted > 0
    repaired = [dict(r) for r in clean] + [dict(dirty[len(clean) + i]) for i in range(inserted)]
    metrics = score(clean, dirty, repaired, log)
    assert metrics.counts["false_negatives"] == inserted
    assert metrics.overall.detection_recall < 1.0


def test_shape_mismatch_rejected():
    config, clean, dirty, log = build_run()
    with pytest.raises(EvaluationError, match="shape mismatch"):
        score(clean, dirty, dirty[:-1], log)


def test_attribute_order_invariance():
    config, clean, dirty, log = build_run()
    reordered_clean = [dict(reversed(list(r.items()))) for r in clean]
    reordered_dirty = [dict(reversed(list(r.items()))) for r in dirty]
    repaired = [dict(r) for r in reordered_clean] + [None] * (len(dirty) - len(clean))
    straight = score(clean, dirty, [dict(r) for r in clean] + [None] * (len(dirty) - len(clean)), log)
    shuffled = score(reordered_clean, reordered_dirty, repaired, log)
    assert straight.overall == shuffled.overall


def test_counts_reconcile_with_dataset_size():
    config, clean, dirty, log = build_run()
    repaired = [dict(r) for r in dirty]
    metrics = score(clean, dirty, repaired, log)
    counts = metrics.counts
    total = (
        counts["true_positives"]
        + counts["false_positives"]
        + counts["false_negatives"]
        + counts["true_negatives"]
    )
    assert total == counts["units"]
    assert counts["units"] == len(clean) * len(config.schema) + (len(dirty) - len(clean))


# Values that are equal under Python's == but not as JSON: scoring compares
# canonical encodings, so each is a different value.
_JSON_DISTINCT = [(1, True), (1, 1.0), (0.0, -0.0), ([1], [True])]


@pytest.mark.parametrize("clean_value, repaired_value", _JSON_DISTINCT)
def test_type_changing_repair_is_wrong(clean_value, repaired_value):
    # The dirty cell differs from both, so the repair is flagged, and it
    # does not restore the clean value.
    clean = [{"x": clean_value}]
    dirty = [{"x": "bad"}]
    log = [ErrorLogEntry(0, 0, "x", "erroneous_entry", clean_value, "bad")]
    metrics = score(clean, dirty, [{"x": repaired_value}], log)
    assert metrics.counts["true_positives"] == 1
    assert metrics.counts["correct_repairs"] == 0
    assert score(clean, dirty, [{"x": clean_value}], log).counts["correct_repairs"] == 1


@pytest.mark.parametrize("dirty_value, repaired_value", _JSON_DISTINCT)
def test_type_changing_rewrite_is_flagged(dirty_value, repaired_value):
    clean = [{"x": dirty_value}, {"x": "c"}]
    dirty = [{"x": dirty_value}, {"x": "c"}]
    metrics = score(clean, dirty, [{"x": repaired_value}, {"x": "c"}], [])
    assert metrics.counts["flagged"] == 1
    assert metrics.counts["false_positives"] == 1
    # An inserted row rewritten the same way counts as edited, not kept.
    rewritten = score([], [{"x": dirty_value}], [{"x": repaired_value}], [])
    assert rewritten.counts["flagged"] == 1


@pytest.mark.parametrize("row, attribute", [(999, "x"), (-1, "x"), (0, "zzz")])
def test_log_cell_outside_the_scored_cells_is_a_misalignment(row, attribute):
    # Such a cell could be neither found nor missed; counted as logged, it
    # would pull repair recall below what the detections show.
    clean = [{"x": 1}, {"x": 2}]
    dirty = [{"x": 1}, {"x": 5}]
    log = [ErrorLogEntry(1, 1, "x", "erroneous_entry", 2, 5)]
    assert score(clean, dirty, clean, log).counts["logged"] == 1
    log.append(ErrorLogEntry(row, row, attribute, "erroneous_entry", 2, 5))
    with pytest.raises(EvaluationError, match=rf"row {row}, attributes \['{attribute}'\]"):
        score(clean, dirty, clean, log)


def reference_score(clean, dirty, repaired, log) -> RepairMetrics:
    """The list-based scoring that the streaming score replaced, kept as
    written (Python ==, the union of clean keys) as the reference."""
    n = len(clean)
    if len(dirty) != len(repaired):
        raise EvaluationError(
            f"shape mismatch: dirty has {len(dirty)} records, repaired has {len(repaired)}"
        )
    if len(dirty) < n:
        raise EvaluationError(
            f"shape mismatch: dirty has {len(dirty)} records but clean has {n}"
        )
    if any(row is None for row in dirty):
        raise EvaluationError("the dirty dataset cannot contain deleted rows")

    seen: dict[str, None] = {}
    for record in clean:
        for key in record:
            seen.setdefault(key)
    attributes = list(seen)

    logged_cells: dict[tuple[int, str], str] = {}
    inserted_rows: dict[int, str] = {}
    for entry in log:
        if entry.error_type in INSERTION_TYPES:
            if entry.attribute is None:
                inserted_rows[entry.dirty_tuple_index] = entry.error_type
            continue
        if entry.attribute is None:
            continue
        logged_cells[(entry.dirty_tuple_index, entry.attribute)] = entry.error_type

    for index in inserted_rows:
        if not n <= index < len(dirty):
            raise EvaluationError(
                f"log names inserted row {index}, outside the dirty dataset"
            )

    stats: dict[str | None, dict[str, int]] = {}

    def bump(error_type, key, amount=1):
        for bucket in (None, error_type) if error_type else (None,):
            slot = stats.setdefault(bucket, {"tp": 0, "fp": 0, "fn": 0, "ok": 0})
            slot[key] += amount

    flagged_total = 0
    for row_index in range(n):
        dirty_row = dirty[row_index]
        repaired_row = repaired[row_index]
        deleted = repaired_row is None
        for attribute in attributes:
            dirty_value = dirty_row.get(attribute, ABSENT)
            repaired_value = ABSENT if deleted else repaired_row.get(attribute, ABSENT)
            flagged = deleted or repaired_value != dirty_value
            logged_type = logged_cells.get((row_index, attribute))
            if flagged:
                flagged_total += 1
                clean_value = clean[row_index].get(attribute, ABSENT)
                correct = (not deleted) and repaired_value == clean_value
                if logged_type is not None:
                    bump(logged_type, "tp")
                    if correct:
                        bump(logged_type, "ok")
                else:
                    bump(None, "fp")
            elif logged_type is not None:
                bump(logged_type, "fn")

    for row_index in range(n, len(dirty)):
        error_type = inserted_rows.get(row_index)
        repaired_row = repaired[row_index]
        deleted = repaired_row is None
        edited = deleted or repaired_row != dirty[row_index]
        if error_type is None:
            if edited:
                flagged_total += 1
                bump(None, "fp")
            continue
        if edited:
            flagged_total += 1
            bump(error_type, "tp")
            if deleted:
                bump(error_type, "ok")
        else:
            bump(error_type, "fn")

    logged_total = len(logged_cells) + len(inserted_rows)
    unit_total = n * len(attributes) + (len(dirty) - n)
    overall_raw = stats.get(None, {"tp": 0, "fp": 0, "fn": 0, "ok": 0})
    per_type: dict[str, MetricSet] = {}
    for error_type, raw in stats.items():
        if error_type is None:
            continue
        per_type[error_type] = _metric_set(
            raw["tp"], 0, raw["fn"], raw["ok"], raw["tp"], raw["tp"] + raw["fn"]
        )
    overall = _metric_set(
        overall_raw["tp"], overall_raw["fp"], overall_raw["fn"], overall_raw["ok"],
        flagged_total, logged_total,
    )
    counts = {
        "true_positives": overall_raw["tp"],
        "false_positives": overall_raw["fp"],
        "false_negatives": overall_raw["fn"],
        "true_negatives": unit_total - overall_raw["tp"] - overall_raw["fp"] - overall_raw["fn"],
        "correct_repairs": overall_raw["ok"],
        "flagged": flagged_total,
        "logged": logged_total,
        "units": unit_total,
    }
    return RepairMetrics(overall=overall, per_error_type=per_type, counts=counts)


# Values of one JSON type each: == and same_json agree on them, so the
# reference's Python == and score's encodings must give the same counts.
_VALUES = st.none() | st.integers(0, 2) | st.sampled_from(["x", "y"])
_ATTRIBUTES = ("a", "b", "c")


def _scored(cell: tuple, n: int) -> bool:
    return 0 <= cell[0] < n and cell[1] in _ATTRIBUTES


@st.composite
def _score_inputs(draw):
    """clean, dirty, repaired and log, shaped by hand: deleted and edited
    repaired rows, inserted rows logged or not, and the marker and content
    entries that score skips; now and then a stray cell, on a key no record
    has or a row outside the base rows. Each cell and each inserted row is
    logged at most once."""
    n, inserted = draw(st.integers(0, 4)), draw(st.integers(0, 3))

    def record():
        return {name: draw(_VALUES) for name in _ATTRIBUTES}

    def edited(row):
        out = dict(row)
        for name in draw(st.lists(st.sampled_from(_ATTRIBUTES), max_size=2)):
            if draw(st.booleans()):
                out.pop(name, None)
            else:
                out[name] = draw(_VALUES)
        return out

    clean = [record() for _ in range(n)]
    dirty = [edited(row) for row in clean] + [record() for _ in range(inserted)]
    repaired = [
        {"delete": None, "keep": row, "edit": edited(row)}[draw(st.sampled_from(["delete", "keep", "edit"]))]
        for row in dirty
    ]
    cell_types = st.sampled_from(["misspelling", "missing_value", "semi_empty_tuple"])
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.sampled_from(_ATTRIBUTES)), cell_types, max_size=8,
    )) if n else {}
    cells.update(draw(st.dictionaries(
        st.tuples(st.integers(-1, n + inserted), st.sampled_from(_ATTRIBUTES + ("zz",)))
        .filter(lambda cell: not _scored(cell, n)),
        cell_types,
        max_size=1,
    )))
    markers = draw(st.dictionaries(
        st.integers(n, n + inserted - 1) if inserted else st.nothing(),
        st.sampled_from(sorted(INSERTION_TYPES)),
    ))
    log = [ErrorLogEntry(row, row, name, t, ABSENT, ABSENT) for (row, name), t in cells.items()]
    log += [ErrorLogEntry(row, None, None, t, ABSENT, ABSENT) for row, t in markers.items()]
    log += [ErrorLogEntry(row, None, "a", t, ABSENT, dirty[row].get("a")) for row, t in markers.items()]
    if n:
        log.append(ErrorLogEntry(0, 0, None, "semi_empty_tuple", ABSENT, ABSENT))
    return clean, dirty, repaired, draw(st.permutations(log))


@settings(max_examples=300, deadline=None)
@given(_score_inputs())
def test_score_tally_matches_the_reference(inputs):
    clean, dirty, repaired, log = inputs
    cells = [(e.dirty_tuple_index, e.attribute) for e in log if e.attribute and e.error_type not in INSERTION_TYPES]
    if not all(_scored(cell, len(clean)) for cell in cells):
        # A cell that no base row and scored attribute holds is a misalignment.
        with pytest.raises(EvaluationError, match="log names a cell outside the base rows"):
            score(clean, dirty, repaired, log)
        return
    metrics = score(clean, dirty, repaired, log)
    assert metrics == reference_score(clean, dirty, repaired, log)
    counts = metrics.counts
    assert counts["flagged"] == counts["true_positives"] + counts["false_positives"]
    assert counts["logged"] == counts["true_positives"] + counts["false_negatives"]
    # Each type scored alone, the others' cells unlogged, has the same
    # per-type metrics, and the overall counts are the sums over the types.
    alone = {
        t: score(clean, dirty, repaired, [e for e in log if e.error_type == t])
        for t in {e.error_type for e in log}
    }
    for t, metrics_alone in alone.items():
        expected = {t: metrics.per_error_type[t]} if t in metrics.per_error_type else {}
        assert metrics_alone.per_error_type == expected
    for key in ("true_positives", "false_negatives", "correct_repairs"):
        assert counts[key] == sum(m.counts[key] for m in alone.values())


# Record pairs for _same_record; most are equal under ==, which leaves only
# its per-value path or its C-pass shortcut to tell them apart.
_RECORD_PAIRS = [
    ({"a": 1, "b": "x"}, {"a": 1, "b": "x"}),
    ({"a": 1, "b": "x"}, {"b": "x", "a": 1}),
    ({"a": 1, "b": True}, {"b": 1, "a": True}),
    ({"a": 1.5, "b": None}, {"a": 1.5, "b": None}),
    ({"a": 1, "b": "x"}, {"a": 1.0, "b": "x"}),
    ({"a": 0, "b": "x"}, {"a": 0, "b": "x"}),
    ({"a": 0, "b": "x"}, {"a": False, "b": "x"}),
    ({"a": 0.0, "b": "x"}, {"a": -0.0, "b": "x"}),
    ({"a": [1], "b": "x"}, {"a": [True], "b": "x"}),
    ({"a": [1], "b": "x"}, {"a": [1], "b": "x"}),
    ({"a": {"c": 1}}, {"a": {"c": 1.0}}),
    ({"a": {"c": 1}}, {"a": {"c": 1}}),
    ({"a": 1}, {"a": 2}),
    ({"a": 1}, {"b": 1}),
]


@pytest.mark.parametrize("a, b", _RECORD_PAIRS)
def test_same_record_compares_each_value_by_its_encoding(a, b):
    expected = a.keys() == b.keys() and all(encode_record({"v": v}) == encode_record({"v": b[k]}) for k, v in a.items())
    assert _same_record(a, b) is expected
    assert _same_record(b, a) is expected


def test_rewrite_under_other_keys_order_is_flagged_per_cell():
    # Equal under == and with the same types in key order, but a and b
    # swap an int and a bool between them.
    clean = [{"a": 1, "b": True}]
    metrics = score(clean, [{"a": 1, "b": True}], [{"b": 1, "a": True}], [])
    assert metrics.counts["flagged"] == 2
    assert score(clean, clean, [{"b": True, "a": 1}], []).counts["flagged"] == 0


def _other_value(value, avoid):
    """A value of value's JSON type that differs, under ==, from value and
    from avoid; None where there is none (null, absent)."""
    if isinstance(value, bool):
        return None if (not value) == avoid else (not value)
    if isinstance(value, str):
        candidate = value + "#"
        while candidate == avoid:
            candidate += "#"
        return candidate
    if not isinstance(value, (int, float)):
        return None
    step = 1 if isinstance(value, int) else 0.25
    candidate = value + step
    while candidate == avoid:
        candidate += step
    return candidate


def seeded_repair(clean, dirty, log, rng):
    """A type-preserving repair of dirty: logged cells restored, rewritten
    wrong or left alone; unlogged cells corrupted; a few base rows deleted;
    inserted rows deleted or kept, some kept ones edited. Untouched rows are
    the dirty record itself or a copy of it, alternately."""
    n = len(clean)
    repaired = [row if index % 2 else dict(row) for index, row in enumerate(dirty)]

    def edit(row, attribute, value):
        if repaired[row] is dirty[row]:
            repaired[row] = dict(dirty[row])
        if value is ABSENT:
            repaired[row].pop(attribute, None)
        else:
            repaired[row][attribute] = value

    for entry in log:
        if entry.attribute is None or entry.error_type in INSERTION_TYPES:
            continue
        row, attribute = entry.dirty_tuple_index, entry.attribute
        roll = rng.random()
        clean_value = clean[row].get(attribute, ABSENT)
        if roll < 0.4:
            edit(row, attribute, clean_value)
        elif roll < 0.6:
            wrong = _other_value(clean_value, dirty[row].get(attribute, ABSENT))
            if wrong is not None:
                edit(row, attribute, wrong)
    for _ in range(max(1, len(dirty) // 8)):
        row = rng.randrange(len(dirty))
        attribute = rng.choice(list(dirty[row]))
        value = dirty[row][attribute]
        wrong = _other_value(value, value)
        if wrong is not None:
            edit(row, attribute, wrong)
    for row in rng.sample(range(n), min(2, n)):
        repaired[row] = None
    for row in range(n, len(dirty)):
        if rng.random() < 0.6:
            repaired[row] = None
    return repaired


def _both_ways(clean, dirty, repaired, log):
    """score on lists, and on one-shot iterators of copies of every record."""
    def once(rows):
        return (row if row is None else dict(row) for row in rows)

    return score(clean, dirty, repaired, log), score(once(clean), once(dirty), once(repaired), iter(log))


@pytest.mark.parametrize("k", range(40))
def test_streaming_score_matches_the_list_reference(k):
    config = parse_config(random_config(random.Random(52_000 + k)))
    clean, dirty, log = apply_plan(plan_errors(config), config)
    repaired = seeded_repair(clean, dirty, log, random.Random(k))
    expected = reference_score(clean, dirty, repaired, log)
    for metrics in _both_ways(clean, dirty, repaired, log):
        assert metrics.counts == expected.counts
        assert metrics.overall == expected.overall
        assert metrics.per_error_type == expected.per_error_type


def _fault_run():
    clean = [{"x": f"c{i}", "y": i} for i in range(6)]
    dirty = [dict(r) for r in clean] + [{"x": "c0", "y": 0}, {"x": "c1", "y": 1}]
    dirty[1]["x"] = "d1"
    log = [
        ErrorLogEntry(1, 1, "x", "erroneous_entry", "c1", "d1"),
        ErrorLogEntry(6, None, None, "redundancy_about_entity", ABSENT, ABSENT),
    ]
    return clean, dirty, [dict(r) for r in dirty], log


def _repaired_short(clean, dirty, repaired, log):
    return clean, dirty, repaired[:-1], log


def _repaired_long(clean, dirty, repaired, log):
    return clean, dirty, repaired + [None], log


def _clean_long(clean, dirty, repaired, log):
    extra = [{"x": f"e{i}", "y": i} for i in range(4)]
    return clean + extra, dirty, repaired, log


def _dirty_null(clean, dirty, repaired, log):
    dirty = list(dirty)
    dirty[3] = None
    return clean, dirty, repaired, log


def _inserted_past_the_end(clean, dirty, repaired, log):
    return clean, dirty, repaired, log + [
        ErrorLogEntry(8, None, None, "irrelevant_observation", ABSENT, ABSENT)
    ]


def _inserted_in_the_base(clean, dirty, repaired, log):
    return clean, dirty, repaired, log + [
        ErrorLogEntry(2, None, None, "irrelevant_observation", ABSENT, ABSENT)
    ]


def _faults(*faults):
    def apply(clean, dirty, repaired, log):
        for fault in faults:
            clean, dirty, repaired, log = fault(clean, dirty, repaired, log)
        return clean, dirty, repaired, log
    return apply


@pytest.mark.parametrize(
    "fault, message",
    [
        (_repaired_short, "shape mismatch: dirty has 8 records, repaired has 7"),
        (_repaired_long, "shape mismatch: dirty has 8 records, repaired has 9"),
        (_clean_long, "shape mismatch: dirty has 8 records but clean has 10"),
        (_dirty_null, "the dirty dataset cannot contain deleted rows"),
        (_inserted_past_the_end, "log names inserted row 8, outside the dirty dataset"),
        (_inserted_in_the_base, "log names inserted row 2, outside the dirty dataset"),
        # Several faults at once: the first in this order wins.
        (_faults(_inserted_past_the_end, _dirty_null, _clean_long, _repaired_short),
         "shape mismatch: dirty has 8 records, repaired has 7"),
        (_faults(_inserted_past_the_end, _dirty_null, _clean_long),
         "shape mismatch: dirty has 8 records but clean has 10"),
        (_faults(_inserted_in_the_base, _dirty_null), "the dirty dataset cannot contain deleted rows"),
    ],
)
def test_shape_faults_keep_their_messages_and_precedence(fault, message):
    clean, dirty, repaired, log = fault(*_fault_run())
    with pytest.raises(EvaluationError) as reference:
        reference_score(clean, dirty, repaired, log)
    assert str(reference.value) == message
    for inputs in ((clean, dirty, repaired, log), tuple(map(iter, (clean, dirty, repaired, log)))):
        with pytest.raises(EvaluationError) as raised:
            score(*inputs)
        assert str(raised.value) == message


def test_clean_records_must_share_one_key_set():
    clean, dirty, repaired, log = _fault_run()
    clean[4] = {"x": "c4", "z": 4}
    expected = "clean record 4 does not have the attributes of clean record 0: missing ['y'], extra ['z']"
    with pytest.raises(EvaluationError) as raised:
        score(clean, dirty, repaired, log)
    assert str(raised.value) == expected
    # It is raised as the record is read, ahead of every shape fault.
    clean, dirty, repaired, log = _repaired_short(clean, dirty, repaired, log)
    with pytest.raises(EvaluationError) as raised:
        score(iter(clean), iter(dirty), iter(repaired), log)
    assert str(raised.value) == expected
