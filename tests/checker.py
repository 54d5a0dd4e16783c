"""Independent clean-dataset validator.

Re-implements every constraint check directly from the attribute fields,
deliberately not sharing code with the generation path, so it can serve as
an oracle for the generator.
"""

from __future__ import annotations

import re

_MISSING = object()


def _type_ok(value, datatype: str) -> bool:
    if isinstance(value, bool):
        return False
    if datatype == "string":
        return isinstance(value, str)
    if datatype == "integer":
        return isinstance(value, int)
    return isinstance(value, (int, float))


def check_value(attr, value) -> list[str]:
    """All constraint violations of one non-null value of attr."""
    if not _type_ok(value, attr.datatype):
        return [f"{attr.name}: {value!r} is not a {attr.datatype}"]
    problems = []
    if attr.pattern is not None and re.fullmatch(attr.pattern, str(value)) is None:
        problems.append(f"{attr.name}: {value!r} fails pattern {attr.pattern!r}")
    if attr.interval is not None:
        lo, hi = attr.interval
        if not lo <= value <= hi:
            problems.append(f"{attr.name}: {value!r} outside [{lo}, {hi}]")
    if attr.admissible_set is not None and value not in attr.admissible_set:
        problems.append(f"{attr.name}: {value!r} not in admissible set")
    return problems


def check_record(record: dict, config) -> list[str]:
    """All constraint violations in one record; empty list means clean."""
    problems = []
    for attr in config.schema:
        if attr.name not in record:
            problems.append(f"{attr.name}: key absent")
            continue
        value = record[attr.name]
        if value is None:
            if not attr.nullable_in_clean:
                problems.append(f"{attr.name}: null but not nullable")
            continue
        problems += check_value(attr, value)
    for rule in config.dependencies:
        det = record.get(rule.determinant, _MISSING)
        dep = record.get(rule.dependent, _MISSING)
        if det is _MISSING or dep is _MISSING:
            continue
        if det is None:
            if dep is not None:
                problems.append(f"{rule.dependent}: expected null for null determinant")
            continue
        expected = rule.mapping.get(det, _MISSING)
        if expected is _MISSING:
            problems.append(f"{rule.determinant}: {det!r} has no mapping entry")
        elif dep != expected:
            problems.append(
                f"{rule.dependent}: {dep!r} contradicts {rule.determinant}={det!r}"
            )
    return problems


def check_dataset(records: list[dict], config) -> list[str]:
    """Per-record violations plus uniqueness across the whole dataset."""
    problems = []
    for index, record in enumerate(records):
        for problem in check_record(record, config):
            problems.append(f"record {index}: {problem}")
    for attr in config.schema:
        if not attr.unique:
            continue
        seen: dict = {}
        for index, record in enumerate(records):
            value = record.get(attr.name)
            if value is None:
                continue
            if value in seen:
                problems.append(
                    f"record {index}: {attr.name}: duplicate value {value!r} "
                    f"(first at record {seen[value]})"
                )
            else:
                seen[value] = index
    return problems
