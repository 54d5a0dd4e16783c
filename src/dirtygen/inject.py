"""Error injection: apply a plan to the clean stream and log every change.

Each injector rewrites its target so that the dirty value verifiably violates
the defining property of its error type while the clean value satisfies it;
injectors redraw until the dirty value differs from the clean one. Whole-row
and inserted-row errors log one marker entry (attribute '-') plus one entry
per touched cell, so the log alone reconstructs the dirty dataset from the
clean one byte for byte. verify_error is the matching predicate used by the
test suite to confirm every logged error is real.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from .config import GeneratorConfig
from .datagen import generate_record
from .errorplan import ErrorPlan, PlanEntry
from .errortypes import ERROR_TYPES
from .exceptions import GenerationError
from .output import ErrorLogEntry, same_json
from .rng import derive_stream
from .taxonomy import ABSENT, STAGE_INSERTION


def _apply_base_entry(
    entry: PlanEntry,
    dirty: dict,
    clean: dict,
    row: int,
    config: GeneratorConfig,
) -> list[ErrorLogEntry]:
    etype = ERROR_TYPES[entry.error_type]
    attribute = entry.attribute
    stream = derive_stream(config.seed, f"inject:{etype.name}", row, attribute or "")
    params = config.errors[entry.spec_index].params
    logs = []
    if etype.marker:
        logs.append(ErrorLogEntry(row, row, None, etype.name, ABSENT, ABSENT))
        changes = etype.inject(dirty, config, stream, params, entry)
    else:
        clean_value = clean[attribute]
        new_value = etype.inject(clean_value, config.attribute(attribute), stream, config, params, entry)
        if new_value == clean_value:
            raise GenerationError(
                f"injector for {etype.name} on '{attribute}' reproduced the "
                f"clean value {clean_value!r}; refusing to log a non-error"
            )
        changes = [(attribute, clean_value, new_value)]
    for name, clean_value, new_value in changes:
        if new_value is ABSENT:
            del dirty[name]
        else:
            dirty[name] = new_value
        logs.append(ErrorLogEntry(row, row, name, etype.name, clean_value, new_value))
    return logs


def _build_insertion(
    config: GeneratorConfig, entry: PlanEntry, dirty_index: int
) -> tuple[dict, list[ErrorLogEntry]]:
    etype = ERROR_TYPES[entry.error_type]
    stream = derive_stream(config.seed, f"inject:{etype.name}", dirty_index)
    source = None if entry.row is None else generate_record(config, entry.row)
    params = config.errors[entry.spec_index].params
    record = etype.inject(source, config, stream, params, entry, dirty_index)
    logs = [ErrorLogEntry(dirty_index, None, None, etype.name, ABSENT, ABSENT)]
    for name in config.attribute_names:
        clean_value = ABSENT if source is None else source[name]
        logs.append(ErrorLogEntry(dirty_index, None, name, etype.name, clean_value, record[name]))
    return record, logs


def inject_row(
    clean: dict, entries: list[PlanEntry], row: int, config: GeneratorConfig
) -> tuple[dict, list[ErrorLogEntry]]:
    """The dirty record of one planned base row and its log entries; a row
    type's entry applies first, then the cells' in schema order."""
    dirty = dict(clean)
    logs: list[ErrorLogEntry] = []
    positions = config.attr_positions
    for entry in sorted(entries, key=lambda e: -1 if e.attribute is None else positions[e.attribute]):
        logs.extend(_apply_base_entry(entry, dirty, clean, row, config))
    return dirty, logs


def inject_insertions(plan: ErrorPlan, config: GeneratorConfig) -> Iterator[tuple[dict, list[ErrorLogEntry]]]:
    """The inserted records with their log entries, in plan order; they take
    dirty indices base_count, base_count + 1, ..."""
    for offset, entry in enumerate(plan.insertions):
        yield _build_insertion(config, entry, plan.base_count + offset)


def inject_stream(
    clean_records: Iterable[dict], plan: ErrorPlan, config: GeneratorConfig
) -> Iterator[tuple[dict, list[ErrorLogEntry]]]:
    """Stream dirty records with their log entries; insertions come last.

    Base tuples keep their clean index as both file position and dirty
    index; an untouched one passes through as the clean record itself. No
    buffering beyond the current record is needed.
    """
    count = 0
    for row, clean in enumerate(clean_records):
        count += 1
        entries = plan.row_entries.get(row)
        yield inject_row(clean, entries, row, config) if entries else (clean, [])
    if count != plan.base_count:
        raise GenerationError(
            f"clean stream yielded {count} records, plan expects {plan.base_count}"
        )
    yield from inject_insertions(plan, config)


def apply_plan(
    clean_records: Iterable[dict], plan: ErrorPlan, config: GeneratorConfig
) -> tuple[list[dict], list[ErrorLogEntry]]:
    """Materialized convenience wrapper around inject_stream."""
    records: list[dict] = []
    log: list[ErrorLogEntry] = []
    for record, entries in inject_stream(clean_records, plan, config):
        records.append(record)
        log.extend(entries)
    return records, log


def realized_counts(entries: Iterable[ErrorLogEntry]) -> Counter:
    """Errors realized per type: markers for row/insertion scopes, cells otherwise."""
    return Counter(
        e.error_type for e in entries if (e.attribute is None) == ERROR_TYPES[e.error_type].marker
    )


# ---------------------------------------------------------------------------
# Verification


def verify_error(
    entry: ErrorLogEntry,
    clean_record: dict | None,
    dirty_record: dict,
    config: GeneratorConfig,
    *,
    dirty_dataset: list[dict],
    clean_dataset: list[dict],
) -> bool:
    """True iff the dirty side violates the defining property of the entry's
    error type while the clean side satisfies it.

    Column- and entity-scoped checks read dirty_dataset (all dirty records)
    and clean_dataset (all clean records), both lists. Each such check is one
    pass over a dataset in C; an entity check diffs whole records only for
    the clean tuples that match the dirty record on one of its first few
    attributes. An entry on an attribute the schema does not have, or its
    type does not apply to, is False; a type whose spec is missing from the
    config is checked with its default params. The logged values must equal
    the records' under output.same_json, so a logged 1.0 or true does not
    match a recorded 1.
    """
    etype = ERROR_TYPES.get(entry.error_type)
    if etype is None:
        return False
    if entry.attribute is not None and entry.attribute not in config.attr_positions:
        return False
    spec = config.spec_by_target.get((etype.name, entry.attribute))
    params = etype.defaults if spec is None else spec.params

    if etype.stage == STAGE_INSERTION:
        if entry.clean_tuple_index is not None:
            return False
        if entry.attribute is None:
            return etype.verify_marker(None, dirty_record, config, params, clean_dataset)
        # Content provenance entry: the record must carry the logged value.
        if not same_json(dirty_record.get(entry.attribute, ABSENT), entry.dirty_value):
            return False
        if etype.draws_source and same_json(entry.clean_value, entry.dirty_value):
            return True  # unperturbed copy of the source value
        return etype.verify(
            entry.clean_value, entry.dirty_value, config.attribute(entry.attribute),
            config, params, None, dirty_record, dirty_dataset,
        )

    if clean_record is None or entry.clean_tuple_index is None:
        return False
    if entry.attribute is None:
        return etype.marker and etype.verify_marker(
            clean_record, dirty_record, config, params, clean_dataset
        )
    attr = config.attribute(entry.attribute)
    if etype.applicable is not None and not etype.applicable(attr, config):
        return False  # parse_config rejects such a spec, so no generated entry has one
    clean_value = clean_record.get(entry.attribute, ABSENT)
    dirty_value = dirty_record.get(entry.attribute, ABSENT)
    if not (same_json(clean_value, entry.clean_value) and same_json(dirty_value, entry.dirty_value)):
        return False
    return etype.verify(
        clean_value, dirty_value, attr, config, params, clean_record, dirty_record, dirty_dataset
    )
