"""Score a cleaning tool's output against the ground truth and error log.

Accounting units are cells for base tuples and whole rows for inserted
tuples. A unit counts as flagged when the repaired value differs from the
dirty value (or its row was deleted, written as a JSON null line). A flagged
unit is a detection true positive if the log names it; a flagged unit is
correctly repaired if the repaired value equals the clean value, or, for
inserted rows, if the row was deleted. Two values are equal when their
canonical JSON encodings are equal (output.same_json), so 1, 1.0 and true
are three different values, and so are 0.0 and -0.0. False flags are by
definition not in the log, so the per-type breakdown carries no false
positives; its precision fields are meaningful only as "did this type's
detections exist at all".
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import zip_longest
from typing import Iterable

from .exceptions import EvaluationError
from .output import same_json
from .taxonomy import ABSENT, INSERTION_TYPES

_ENDED = object()  # fills the rows of a dataset that ended before the others
_NO_CELLS: dict[str, str] = {}


def _same_record(a: dict, b: dict) -> bool:
    """Whether two records have the same keys and same_json values under each."""
    if a is b:
        return True
    if a != b:
        return False
    # Every value is now == its counterpart. Equal values of one type encode
    # the same unless they are lists or dicts, or zeros (0.0 and -0.0), so a
    # row without those is settled by a few C passes instead of a call per
    # value. Most unchanged rows of a re-encoded repair are settled here.
    types = list(map(type, a.values()))
    if (
        list not in types
        and dict not in types
        and 0 not in a.values()
        and types == list(map(type, map(b.__getitem__, a)))
    ):
        return True
    return all(same_json(v, b[k]) for k, v in a.items())


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _safe_div(num: int, den: int) -> float:
    return num / den if den else 0.0


class MetricSet(
    namedtuple(
        "MetricSet",
        "detection_precision detection_recall detection_f1 repair_precision repair_recall repair_f1",
    )
):
    """Detection and repair precision, recall and F1, as a named tuple."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def _metric_set(tp: int, fp: int, fn: int, repaired_ok: int, flagged: int, logged: int) -> MetricSet:
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    repair_precision = _safe_div(repaired_ok, flagged)
    repair_recall = _safe_div(repaired_ok, logged)
    return MetricSet(
        detection_precision=precision,
        detection_recall=recall,
        detection_f1=_f1(precision, recall),
        repair_precision=repair_precision,
        repair_recall=repair_recall,
        repair_f1=_f1(repair_precision, repair_recall),
    )


class RepairMetrics(namedtuple("RepairMetrics", "overall per_error_type counts")):
    """The overall metrics, each error type's, and the unit counts, as a
    named tuple; counts defaults to a fresh {}."""

    __slots__ = ()

    def __new__(cls, overall: MetricSet, per_error_type: dict[str, MetricSet], counts: dict[str, int] | None = None):
        return super().__new__(cls, overall, per_error_type, {} if counts is None else counts)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "per_error_type": {name: metrics.to_dict() for name, metrics in self.per_error_type.items()},
            "counts": dict(self.counts),
        }


def score(
    clean: Iterable[dict],
    dirty: Iterable[dict],
    repaired: Iterable[dict | None],
    log: Iterable,
) -> RepairMetrics:
    """Cell-level detection and repair metrics for a repaired dataset.

    `repaired` is aligned with `dirty` row by row; a None row means the tool
    deleted it. The first len(clean) dirty rows are the base tuples; any
    further rows are insertions and are correctly handled only by deletion.

    The three datasets are read once, in lockstep, so they may be lists or
    one-shot iterators; only the log is held, indexed by dirty row. Each row
    is taken from `clean`, then `dirty`, then `repaired`, the order
    output.read_aligned needs for its identical-line shortcut. A repaired row with the same keys and values as its dirty row
    has no flagged cell; the cells of other rows are compared one by one. The
    attributes scored are those of the first clean record; a later clean
    record with other keys is an EvaluationError as soon as it is read.
    Shape faults are raised after the pass, in this order: dirty and
    repaired differ in length, dirty is shorter than clean, dirty has a
    deleted row, the log names an inserted row outside the dirty dataset,
    the log names a cell outside the base rows or the scored attributes;
    so every logged unit is scored, and `logged` is tp + fn.
    """
    logged_cells: dict[int, dict[str, str]] = {}
    inserted_rows: dict[int, str] = {}
    for entry in log:
        if entry.error_type in INSERTION_TYPES:
            if entry.attribute is None:
                inserted_rows[entry.dirty_tuple_index] = entry.error_type
            continue
        if entry.attribute is None:
            continue  # row markers carry no cell of their own
        logged_cells.setdefault(entry.dirty_tuple_index, {})[entry.attribute] = entry.error_type

    # (error type, outcome): "tp", "fn" and "ok" (a correct repair) for a
    # logged unit, and (None, "fp") for a flagged unit the log does not name.
    tally: Counter = Counter()
    attributes: list[str] = []
    keys = None
    n = dirty_count = repaired_count = 0
    dirty_has_deleted = False
    # clean, dirty, repaired: see the docstring.
    rows = zip_longest(clean, dirty, repaired, fillvalue=_ENDED)
    for row_index, (clean_row, dirty_row, repaired_row) in enumerate(rows):
        if clean_row is not _ENDED:
            if keys is None:
                attributes, keys = list(clean_row), clean_row.keys()
            elif clean_row.keys() != keys:
                missing = [a for a in attributes if a not in clean_row]
                extra = [a for a in clean_row if a not in keys]
                raise EvaluationError(
                    f"clean record {row_index} does not have the attributes of clean "
                    f"record 0: missing {missing}, extra {extra}"
                )
            n += 1
        if repaired_row is not _ENDED:
            repaired_count += 1
        if dirty_row is _ENDED:
            continue
        dirty_count += 1
        if dirty_row is None:
            dirty_has_deleted = True
        if dirty_row is None or repaired_row is _ENDED:
            continue  # a shape fault, raised after the pass

        deleted = repaired_row is None
        if clean_row is _ENDED:  # an inserted row
            error_type = inserted_rows.get(row_index)
            edited = deleted or not _same_record(repaired_row, dirty_row)
            if error_type is None:
                tally[None, "fp"] += edited
            else:  # deleting an inserted row is its correct repair
                tally[error_type, "tp" if edited else "fn"] += 1
                tally[error_type, "ok"] += deleted
            continue

        cells = logged_cells.get(row_index, _NO_CELLS)
        if not deleted and _same_record(repaired_row, dirty_row):
            # Nothing flagged: every logged cell of the row is missed.
            for logged_type in cells.values():
                tally[logged_type, "fn"] += 1
            continue
        for attribute in attributes:
            dirty_value = dirty_row.get(attribute, ABSENT)
            repaired_value = ABSENT if deleted else repaired_row.get(attribute, ABSENT)
            logged_type = cells.get(attribute)
            if deleted or not same_json(repaired_value, dirty_value):
                if logged_type is None:
                    tally[None, "fp"] += 1
                    continue
                tally[logged_type, "tp"] += 1
                if not deleted and same_json(repaired_value, clean_row.get(attribute, ABSENT)):
                    tally[logged_type, "ok"] += 1
            elif logged_type is not None:
                tally[logged_type, "fn"] += 1

    if dirty_count != repaired_count:
        raise EvaluationError(
            f"shape mismatch: dirty has {dirty_count} records, repaired has {repaired_count}"
        )
    if dirty_count < n:
        raise EvaluationError(
            f"shape mismatch: dirty has {dirty_count} records but clean has {n}"
        )
    if dirty_has_deleted:
        raise EvaluationError("the dirty dataset cannot contain deleted rows")
    for index in inserted_rows:
        if not n <= index < dirty_count:
            raise EvaluationError(
                f"log names inserted row {index}, outside the dirty dataset"
            )
    for index, cells in logged_cells.items():
        if not (0 <= index < n and keys >= cells.keys()):
            raise EvaluationError(
                f"log names a cell outside the base rows and the scored attributes: "
                f"row {index}, attributes {sorted(cells)}"
            )

    unit_total = n * len(attributes) + (dirty_count - n)
    per_type: dict[str, MetricSet] = {}
    for error_type in sorted({t for t, _ in tally if t is not None}):
        tp, fn = tally[error_type, "tp"], tally[error_type, "fn"]
        # False flags are untyped by construction: a type's flagged units are its tp.
        per_type[error_type] = _metric_set(tp, 0, fn, tally[error_type, "ok"], tp, tp + fn)
    tp, fn, ok = (sum(tally[t, outcome] for t in per_type) for outcome in ("tp", "fn", "ok"))
    fp = tally[None, "fp"]
    counts = {
        "true_positives": tp,
        "false_positives": fp,
        "false_negatives": fn,
        "true_negatives": unit_total - tp - fp - fn,
        "correct_repairs": ok,
        "flagged": tp + fp,
        "logged": tp + fn,
        "units": unit_total,
    }
    overall = _metric_set(tp, fp, fn, ok, tp + fp, tp + fn)
    return RepairMetrics(overall=overall, per_error_type=per_type, counts=counts)
