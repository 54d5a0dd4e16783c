"""Error injection: apply a plan to the clean blocks, log every change, and
write a run's files.

Each injector rewrites its target so that the dirty value verifiably violates
the defining property of its error type while the clean value satisfies it;
injectors redraw until the dirty value differs from the clean one. Whole-row
and inserted-row errors log one marker entry (attribute '-') plus one entry
per touched cell, so the log alone reconstructs the dirty dataset from the
clean one byte for byte. verify_error is the matching predicate used by the
test suite to confirm every logged error is real.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import suppress
from itertools import takewhile
from typing import Iterator

from . import __version__
from .config import GeneratorConfig
from .datagen import BLOCK_TUPLES, clean_column_blocks, clean_columns, value_in_domain
from .errorplan import ErrorPlan, PlanEntry
from .errortypes import ERROR_TYPES
from .exceptions import GenerationError
from .output import DatasetWriter, ErrorLogEntry, ErrorLogWriter, encode_record, encode_rows, same_json
from .output import publish, staging_path, write_json
from .rng import derive_stream
from .taxonomy import ABSENT, STAGE_INSERTION


def _apply_base_entry(
    entry: PlanEntry, dirty: dict, clean: dict, row: int, config: GeneratorConfig
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
    dirty indices tuple_count, tuple_count + 1, ... The source tuples of each
    BLOCK_TUPLES insertions are regenerated as one sparse block."""
    names = config.attribute_names
    for lo in range(0, len(plan.insertions), BLOCK_TUPLES):
        chunk = plan.insertions[lo : lo + BLOCK_TUPLES]
        sources = zip(*clean_columns(config, [entry.row for entry in chunk if entry.row is not None]))
        for dirty_index, entry in enumerate(chunk, config.tuple_count + lo):
            etype = ERROR_TYPES[entry.error_type]
            stream = derive_stream(config.seed, f"inject:{etype.name}", dirty_index)
            source = None if entry.row is None else dict(zip(names, next(sources)))
            params = config.errors[entry.spec_index].params
            record = etype.inject(source, config, stream, params, entry, dirty_index)
            logs = [ErrorLogEntry(dirty_index, None, None, etype.name, ABSENT, ABSENT)]
            for name in names:
                clean_value = ABSENT if source is None else source[name]
                logs.append(ErrorLogEntry(dirty_index, None, name, etype.name, clean_value, record[name]))
            yield record, logs


def dirty_blocks(
    config: GeneratorConfig, plan: ErrorPlan
) -> Iterator[tuple[int, list[list], dict[int, dict], list[ErrorLogEntry]]]:
    """For each clean_column_blocks block: its first tuple index, its clean
    columns, the dirty record of each planned row in it (by tuple index) and
    their log entries. An untouched row's dirty record is its clean one."""
    names, row_entries = config.attribute_names, plan.row_entries
    for lo, columns in clean_column_blocks(config):
        dirty, logs = {}, []
        for row in filter(row_entries.__contains__, range(lo, lo + len(columns[0]))):
            clean = dict(zip(names, [column[row - lo] for column in columns]))
            dirty[row], entries = inject_row(clean, row_entries[row], row, config)
            logs += entries
        yield lo, columns, dirty, logs


def apply_plan(plan: ErrorPlan, config: GeneratorConfig) -> tuple[list[dict], list[dict], list[ErrorLogEntry]]:
    """The clean records, the dirty records and the log of a plan, in memory;
    an untouched dirty record is its clean record, and insertions come last."""
    clean, dirty, log = [], [], []
    for lo, columns, touched, entries in dirty_blocks(config, plan):
        records = [dict(zip(config.attribute_names, row)) for row in zip(*columns)]
        clean += records
        dirty += [touched.get(row, record) for row, record in enumerate(records, lo)]
        log += entries
    for record, entries in inject_insertions(plan, config):
        dirty.append(record)
        log += entries
    return clean, dirty, log


def write_run(config: GeneratorConfig, plan: ErrorPlan) -> dict:
    """Write a run's clean and dirty datasets, error log and manifest into
    config.output, block by block, and return the manifest. Each file is
    written under its output.staging_path, and all are published once all
    have closed: a failed run leaves none behind, leaves an earlier run's
    files as they were, and removes the directories it made if empty."""
    started = time.monotonic()
    out, names, inserted = config.output, config.attribute_names, len(plan.insertions)
    made = list(takewhile(lambda directory: not directory.exists(), [out.directory, *out.directory.parents]))
    clean_writer = DatasetWriter(out, "clean", config.tuple_count)
    dirty_writer = DatasetWriter(out, "dirty", config.tuple_count + inserted)
    paths = [*clean_writer.paths, *dirty_writer.paths, out.log_path, out.manifest_path]
    try:
        with open(staging_path(out.log_path), "w", encoding="utf-8", newline="\n") as log_file:
            log = ErrorLogWriter(log_file, seed=config.seed, config_hash=config.config_hash).write
            for lo, columns, dirty, entries in dirty_blocks(config, plan):
                lines = encode_rows(names, columns)
                clean_writer.write_lines(lines)
                # Written, so lines can become the dirty block: each planned row encoded again.
                for row, record in dirty.items():
                    lines[row - lo] = encode_record(record)
                dirty_writer.write_lines(lines)
                for entry in entries:
                    log(entry)
            for record, entries in inject_insertions(plan, config):
                dirty_writer.write(record)
                for entry in entries:
                    log(entry)
        clean_writer.close()
        dirty_writer.close()
        # Each entry wrote exactly one counted log line: its marker, or its one cell.
        counts = Counter(entry.error_type for entry in plan.entries)
        manifest = {
            "tool": "dirtygen", "version": __version__, "config_hash": config.config_hash, "seed": config.seed,
            "tuple_count": config.tuple_count, "inserted_count": inserted,
            "dirty_count": config.tuple_count + inserted, "error_counts": dict(sorted(counts.items())),
            "duration_seconds": round(time.monotonic() - started, 3),
        }
        write_json(staging_path(out.manifest_path), manifest)
        publish(paths)
    except BaseException:
        clean_writer.discard()
        dirty_writer.discard()
        for path in paths:
            staging_path(path).unlink(missing_ok=True)
        for directory in made:  # deepest first
            with suppress(OSError):
                directory.rmdir()
        raise
    return manifest


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
    match a recorded 1. A base cell entry's clean value is checked here, once
    for every type: it is a member of the attribute's domain, and not null
    where the planner skips null cells. Any decoded value gives a bool.
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
    if not value_in_domain(attr, clean_value, config) or clean_value is None and etype.needs_value:
        return False  # the clean side, checked once: no generated clean cell fails this
    return etype.verify(
        clean_value, dirty_value, attr, config, params, clean_record, dirty_record, dirty_dataset
    )
