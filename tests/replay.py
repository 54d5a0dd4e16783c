"""Log-replay oracle: rebuild the dirty dataset from clean data plus the log,
and count its errors.

Independent of the injection path; only interprets the documented log
semantics. Cell entries overwrite values (ABSENT dirty value deletes the
key), insertion entries assemble whole records at indices past the base
count.
"""

from __future__ import annotations

from collections import Counter

from dirtygen import ABSENT
from dirtygen.taxonomy import ERROR_STAGES, STAGE_INSERTION, STAGE_ROW


def realized_counts(log_entries) -> Counter:
    """Errors per type by the logging rules: an insertion or whole-row type
    writes one marker line per error, any other type one cell line."""
    return Counter(
        entry.error_type
        for entry in log_entries
        if (entry.attribute is None) == (ERROR_STAGES[entry.error_type] in (STAGE_INSERTION, STAGE_ROW))
    )


def replay(clean_records: list[dict], log_entries, attribute_names) -> list[dict]:
    dirty = [dict(record) for record in clean_records]
    inserted: dict[int, dict] = {}
    for entry in log_entries:
        if entry.clean_tuple_index is None:
            if entry.attribute is not None:
                inserted.setdefault(entry.dirty_tuple_index, {})[entry.attribute] = (
                    entry.dirty_value
                )
            else:
                inserted.setdefault(entry.dirty_tuple_index, {})
            continue
        if entry.attribute is None:
            continue  # row marker, no cell of its own
        row = dirty[entry.dirty_tuple_index]
        if entry.dirty_value is ABSENT:
            del row[entry.attribute]
        else:
            row[entry.attribute] = entry.dirty_value
    for index in sorted(inserted):
        content = inserted[index]
        dirty.append({name: content[name] for name in attribute_names if name in content})
    return dirty
