"""Error-type taxonomy: planning stages, the ABSENT sentinel and count rounding.

Each of the 20 error types (declared once, in errortypes) belongs to one
planning stage. Stages are processed in a fixed priority order so that
coarse-scope errors claim their targets before fine-scope ones (insertions,
then whole rows, then column-addressed cells, then plain cell edits).
"""

from __future__ import annotations

import math

# Planning stages, in claim-priority order.
STAGE_INSERTION = 1
STAGE_ROW = 2
STAGE_COLUMN = 3
STAGE_CELL = 4


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
