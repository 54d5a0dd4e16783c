"""Error-type taxonomy: names and planning stages, the ABSENT sentinel and
count rounding.

Each of the 20 error types belongs to one planning stage, declared here and
nowhere else; everything else about a type is its record in errortypes.
Stages are processed in a fixed priority order so that coarse-scope errors
claim their targets before fine-scope ones (insertions, then whole rows,
then column-addressed cells, then plain cell edits). The readers and the
scorer need only this table, not the generator.
"""

from __future__ import annotations

import math

# Planning stages, in claim-priority order.
STAGE_INSERTION = 1
STAGE_ROW = 2
STAGE_COLUMN = 3
STAGE_CELL = 4

# Every error type's planning stage, in the order of errortypes.ERROR_TYPES.
ERROR_STAGES = {
    "missing_value": STAGE_CELL,
    "syntax_violation": STAGE_CELL,
    "interval_violation": STAGE_CELL,
    "set_violation": STAGE_CELL,
    "misspelling": STAGE_CELL,
    "inadequate_value_to_attribute_context": STAGE_CELL,
    "value_items_beyond_attribute_context": STAGE_CELL,
    "meaningless_value": STAGE_CELL,
    "erroneous_entry": STAGE_CELL,
    "uniqueness_value_violation": STAGE_COLUMN,
    "synonyms_existence": STAGE_COLUMN,
    "outlier": STAGE_COLUMN,
    "missing_attribute": STAGE_COLUMN,
    "bias": STAGE_COLUMN,
    "noise": STAGE_COLUMN,
    "semi_empty_tuple": STAGE_ROW,
    "inconsistency_among_attribute_values": STAGE_ROW,
    "irrelevant_observation": STAGE_INSERTION,
    "redundancy_about_entity": STAGE_INSERTION,
    "inconsistency_about_entity": STAGE_INSERTION,
}
INSERTION_TYPES = tuple(name for name, stage in ERROR_STAGES.items() if stage == STAGE_INSERTION)


class _Absent:
    """Sentinel for "no value at all", distinct from an explicit null."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"

    def __bool__(self) -> bool:
        return False


ABSENT = _Absent()


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def split_count(total: int, n_parts: int) -> list[int]:
    """Split a target count as evenly as possible; earlier parts get the rest."""
    base, extra = divmod(total, n_parts)
    return [base + (1 if i < extra else 0) for i in range(n_parts)]
