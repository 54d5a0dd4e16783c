"""Score a cleaning tool's output against the ground truth and error log.

Accounting units are cells for base tuples and whole rows for inserted
tuples. A unit counts as flagged when the repaired value differs from the
dirty value (or its row was deleted, written as a JSON null line). A flagged
unit is a detection true positive if the log names it; a flagged unit is
correctly repaired if the repaired value equals the clean value, or, for
inserted rows, if the row was deleted. False flags are by definition not in
the log, so the per-type breakdown carries no false positives; its precision
fields are meaningful only as "did this type's detections exist at all".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errortypes import INSERTION_TYPES
from .exceptions import EvaluationError
from .taxonomy import ABSENT


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _safe_div(num: int, den: int) -> float:
    return num / den if den else 0.0


@dataclass
class MetricSet:
    detection_precision: float
    detection_recall: float
    detection_f1: float
    repair_precision: float
    repair_recall: float
    repair_f1: float

    def to_dict(self) -> dict:
        return {
            "detection_precision": self.detection_precision,
            "detection_recall": self.detection_recall,
            "detection_f1": self.detection_f1,
            "repair_precision": self.repair_precision,
            "repair_recall": self.repair_recall,
            "repair_f1": self.repair_f1,
        }


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


@dataclass
class RepairMetrics:
    overall: MetricSet
    per_error_type: dict[str, MetricSet]
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "per_error_type": {k: v.to_dict() for k, v in sorted(self.per_error_type.items())},
            "counts": dict(self.counts),
        }


def score(
    clean: Sequence[dict],
    dirty: Sequence[dict],
    repaired: Sequence[dict | None],
    log: Iterable,
) -> RepairMetrics:
    """Cell-level detection and repair metrics for a repaired dataset.

    `repaired` is aligned with `dirty` row by row; a None row means the tool
    deleted it. The first len(clean) dirty rows are the base tuples; any
    further rows are insertions and are correctly handled only by deletion.
    """
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
            continue  # row markers carry no cell of their own
        logged_cells[(entry.dirty_tuple_index, entry.attribute)] = entry.error_type

    for index in inserted_rows:
        if not n <= index < len(dirty):
            raise EvaluationError(
                f"log names inserted row {index}, outside the dirty dataset"
            )

    stats: dict[str | None, dict[str, int]] = {}

    def bump(error_type: str | None, key: str, amount: int = 1) -> None:
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
        type_logged = raw["tp"] + raw["fn"]
        type_flagged = raw["tp"]  # false flags are untyped by construction
        per_type[error_type] = _metric_set(
            raw["tp"], 0, raw["fn"], raw["ok"], type_flagged, type_logged
        )

    overall = _metric_set(
        overall_raw["tp"],
        overall_raw["fp"],
        overall_raw["fn"],
        overall_raw["ok"],
        flagged_total,
        logged_total,
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
