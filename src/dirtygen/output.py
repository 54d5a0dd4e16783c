"""Bit-exact serialization of datasets and error logs, and their readers.

Dataset files are UTF-8 with LF line endings. In ndjson mode every record is
one compact JSON object per line (keys in schema order, no spaces, floats in
shortest round-trip form, absent keys omitted, nulls explicit). In json_array
mode each file holds one JSON array with the same objects, one per line.

The error log is a tab-separated text file. One header line starting with
'#' records the format version, seed, config hash, and column names. Every
following line has six fields: dirty_index, clean_index, attribute,
error_type, clean_value, dirty_value. Index and attribute fields use '-'
when not applicable; values are JSON-encoded, with '-' meaning "no value at
all" (distinct from JSON null).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from math import isfinite
from pathlib import Path
from typing import Iterator

from .exceptions import DatasetFormatError
from .taxonomy import ABSENT, ERROR_STAGES, split_count

LOG_FORMAT_VERSION = "dirtygen-log-v1"
_LOG_COLUMNS = "dirty_index,clean_index,attribute,error_type,clean_value,dirty_value"


@dataclass(frozen=True)
class OutputSpec:
    directory: Path = Path("out")
    mode: str = "ndjson"  # "ndjson" | "json_array"
    shard_count: int = 1

    def __post_init__(self):
        if self.mode not in ("ndjson", "json_array"):
            raise ValueError(f"unknown output mode: {self.mode!r}")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")

    @property
    def extension(self) -> str:
        return "ndjson" if self.mode == "ndjson" else "json"

    def dataset_paths(self, which: str) -> list[Path]:
        if self.shard_count == 1:
            return [self.directory / f"{which}.{self.extension}"]
        return [
            self.directory / f"{which}.{shard:05d}.{self.extension}"
            for shard in range(self.shard_count)
        ]

    @property
    def log_path(self) -> Path:
        return self.directory / "errors.log"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "run-manifest.json"


# What json.dumps(value, ensure_ascii=False, separators=(",", ":"),
# allow_nan=False) runs, without rebuilding the JSONEncoder and checking the
# keyword arguments on every call. encode still builds a fresh C encoder per
# call, through iterencode(_one_shot=True).
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False).encode
# The same encoding for comparisons: a literal out of the float range, such as
# 1e999, reads as inf, which _encode refuses and this writes as Infinity.
_encode_any = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def canonical_json(value) -> str:
    """A value's canonical JSON encoding, the one same_json compares, so a
    set of them answers membership by same_json. A value nested too deeply
    to encode is a DatasetFormatError."""
    try:
        return _encode_any(value)
    except RecursionError:
        raise DatasetFormatError("a value nests arrays or objects too deeply to compare") from None


def same_json(a, b) -> bool:
    """Whether two values have the same canonical JSON encoding: the one
    equality of logged and dataset values, so 1, 1.0 and true are three
    different values, and so are 0.0 and -0.0. A value nested too deeply to
    compare is a DatasetFormatError."""
    # Equal scalars skip encoding: timed faster than `a is b or (a == b and _encode(a) == _encode(b))`.
    if a is b:
        return True
    try:
        if a != b:
            return False
        kind = type(a)
        if kind is type(b):
            if kind is float:
                return repr(a) == repr(b)  # the encoder writes a float's repr
            if kind is not dict and kind is not list:
                return True
        return canonical_json(a) == canonical_json(b)
    except RecursionError:  # the readers decode values a few frames less deep
        raise DatasetFormatError("a value nests arrays or objects too deeply to compare") from None


def encode_record(record: dict) -> str:
    """Compact one-line JSON for a record, keys in insertion order."""
    return _encode(record)


# What the encoder writes for a str, an int that is not a bool, and a finite
# float: a value of one of these types needs no encoder built for it.
_PLAIN = {str: encode_basestring, int: int.__repr__, float: float.__repr__}


def _encode_value(value) -> str:
    """_encode(value), by its type's _PLAIN rule where one applies."""
    rule = _PLAIN.get(type(value))
    if rule is not None and (rule is not float.__repr__ or isfinite(value)):
        return rule(value)
    return "null" if value is None else _encode(value)


def _encode_column(column: list) -> list[str]:
    """The _encode_value of each value: a column of one _PLAIN type, nulls
    aside, takes that type's rule, mapped in C where it holds no null; a
    mixed column goes value by value."""
    kinds = set(map(type, column)) - {type(None)}
    rule = _PLAIN.get(kinds.pop()) if len(kinds) == 1 else None
    # filter(None, ...) drops the nulls, and zeros, which are finite anyway
    if rule is None or rule is float.__repr__ and not all(map(isfinite, filter(None, column))):
        return list(map(_encode_value, column))
    return list(map(rule, column)) if None not in column else ["null" if v is None else rule(v) for v in column]


def encode_rows(names, columns: list[list]) -> list[str]:
    """Line i is encode_record(dict(zip(names, row i of the columns))),
    formatted from the encoded columns through one template of the keys."""
    template = "{" + ",".join(encode_basestring(name) + ":%s" for name in names) + "}"
    assert template.count("%") == len(columns), "names are identifiers, so hold no %"
    return [template % row for row in zip(*map(_encode_column, columns))]


def staging_path(path: Path) -> Path:
    """Where a run writes the output file `path` until all of them are done."""
    return path.with_name(f".{path.name}.partial")


def publish(paths: list[Path]) -> list[Path]:
    """Move each staged file into place under its own name."""
    for path in paths:
        os.replace(staging_path(path), path)
    return paths


class DatasetWriter:
    """Streaming writer that partitions records into contiguous-range shards,
    each written under the staging_path of its name in paths until publish."""

    def __init__(self, spec: OutputSpec, which: str, total_count: int):
        self.spec = spec
        self.paths = spec.dataset_paths(which)
        self._shard_sizes = split_count(total_count, spec.shard_count)
        self._shard = 0
        self._written_in_shard = 0
        self._total = 0
        self._expected = total_count
        self._file = None
        spec.directory.mkdir(parents=True, exist_ok=True)

    def _open_next(self):
        self._file = open(staging_path(self.paths[self._shard]), "w", encoding="utf-8", newline="\n")
        if self.spec.mode == "json_array":
            self._file.write("[")
        self._written_in_shard = 0

    def _close_current(self):
        if self._file is None:
            return
        if self.spec.mode == "json_array":
            self._file.write("]\n" if self._written_in_shard == 0 else "\n]\n")
        self._file.close()
        self._file = None

    def write(self, record: dict | None) -> None:
        """Write one record; None writes a JSON null line (a deleted row)."""
        self.write_lines(["null" if record is None else encode_record(record)])

    def write_lines(self, lines: list[str]) -> None:
        """Write a block of encoded records, in order across the shards."""
        if self._total + len(lines) > self._expected:
            raise DatasetFormatError(f"writer received more than the declared {self._expected} records")
        while lines:
            if self._file is None:
                self._open_next()
            room = self._shard_sizes[self._shard] - self._written_in_shard
            if room <= 0:
                self._close_current()
                self._shard += 1
                continue
            part, lines = lines[:room], lines[room:]
            if self.spec.mode == "ndjson":
                self._file.write("\n".join(part) + "\n")
            else:
                self._file.write(("\n" if self._written_in_shard == 0 else ",\n") + ",\n".join(part))
            self._written_in_shard += len(part)
            self._total += len(part)

    def close(self) -> list[Path]:
        while self._shard < len(self.paths):
            if self._file is None:  # a shard that received no records is written empty
                self._open_next()
            self._close_current()
            self._shard += 1
        if self._total != self._expected:
            raise DatasetFormatError(
                f"writer closed after {self._total} records, expected {self._expected}"
            )
        return self.paths

    def discard(self) -> None:
        """Close the open shard, unfinished; the caller removes the staged files."""
        if self._file is not None:
            self._file.close()
            self._file = None


def _infer_mode(path: Path) -> str:
    return "json_array" if path.suffix == ".json" else "ndjson"


def _reject_constant(name: str):
    # NaN, Infinity and -Infinity are not standard JSON.
    raise ValueError(name)


# One strict decoder for every reader, built once rather than per line.
_decoder = json.JSONDecoder(parse_constant=_reject_constant)
_decode = _decoder.decode
# The decoder's C scanner: scan_once(text, 0) decodes the value that starts
# text and returns it with the index where it ends, with none of the
# whitespace and trailing-text handling that decode adds.
_scan_once = _decoder.scan_once


def _strict_loads(text: str):
    if text.startswith("\ufeff"):
        # What json.loads says; the bare decoder would say "Expecting value".
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _decode(text)


def read_dataset(path: str | Path, *, allow_deleted: bool = False) -> Iterator[dict | None]:
    """Stream records back from a dataset file, a JSON array if its suffix is
    .json and ndjson otherwise; inverse of DatasetWriter."""
    path = Path(path)
    if _infer_mode(path) == "ndjson":
        for lineno, line in _numbered_lines(path):
            yield _decode_line(line, path, lineno, allow_deleted)
    else:
        try:
            data = _strict_loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise DatasetFormatError(f"{path}: not a valid JSON document: {exc}") from exc
        if not isinstance(data, list):
            raise DatasetFormatError(f"{path}: expected a top-level JSON array")
        for index, obj in enumerate(data):
            yield _check_row(obj, path, index + 1, allow_deleted)


def read_aligned(
    clean: str | Path, dirty: str | Path, *repaired: str | Path
) -> tuple[Iterator[dict | None], ...]:
    """The clean, the dirty and each repaired dataset as one row stream per
    file, to be read in lockstep: row i of each file before row i of the
    next (as evalkit.score reads them). Only repaired files may hold deleted
    rows (null lines).

    When all files are ndjson, a line byte-identical to the previous file's
    line at the same index yields that file's record itself and is not
    decoded: identical text decodes to identical values. So the dirty rows
    an error left alone are the clean records, and a repair's untouched
    rows, or a later repair's rows a stage left alone, are the records of
    the file before. Read out of step, every line is decoded.
    """
    paths = [Path(p) for p in (clean, dirty, *repaired)]
    if any(_infer_mode(path) != "ndjson" for path in paths):
        return tuple(read_dataset(path, allow_deleted=i >= 2) for i, path in enumerate(paths))
    # last[i + 1] is the row file i read last: its line number, text and
    # record; last[0] matches no line, so the clean file decodes every line.
    last = [[0, "", None] for _ in range(len(paths) + 1)]

    def rows(i: int) -> Iterator[dict | None]:
        path, previous, mine = paths[i], last[i], last[i + 1]
        for lineno, line in _numbered_lines(path):
            if lineno == previous[0] and line == previous[1]:
                record = previous[2]
            else:
                record = _decode_line(line, path, lineno, i >= 2)
            mine[:] = lineno, line, record
            yield record

    return tuple(rows(i) for i in range(len(paths)))


def _numbered_lines(path: Path) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 file, without their LF."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not valid UTF-8: {exc}") from exc


def _decode_line(line: str, path: Path, lineno: int, allow_deleted: bool):
    """One ndjson line as a record, or None for a deleted row if allowed."""
    # Fast path: a line that is exactly one JSON object. Anything else (spaces,
    # a BOM, extra text, a non-object, a rejected constant) goes through the
    # full decode, which returns the same object or raises the same error.
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line) and type(obj) is dict:
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        obj = _strict_loads(line)
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
    return _check_row(obj, path, lineno, allow_deleted)


def _check_row(obj, path: Path, position: int, allow_deleted: bool):
    if obj is None and allow_deleted:
        return None
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{path}: entry {position}: expected a JSON object")
    return obj


def _encode_log_value(value) -> str:
    return "-" if value is ABSENT else _encode_value(value)


def _decode_log_value(text: str):
    if text == "-":
        return ABSENT
    return _strict_loads(text)


@dataclass(slots=True)
class ErrorLogEntry:
    """Provenance of one injected error.

    clean_tuple_index is None exactly for inserted tuples, which have no
    clean counterpart. Values use ABSENT for "no value at all" (shown as '-'
    in the log file), which is distinct from an explicit null.
    """

    dirty_tuple_index: int
    clean_tuple_index: int | None
    attribute: str | None
    error_type: str
    clean_value: object
    dirty_value: object


class ErrorLogWriter:
    """Incremental error-log writer; the header goes out on construction."""

    def __init__(self, fh, *, seed: int, config_hash: str):
        self._fh = fh
        fh.write(
            f"# {LOG_FORMAT_VERSION}\tseed={seed}\tconfig=sha256:{config_hash}"
            f"\tcolumns={_LOG_COLUMNS}\n"
        )

    def write(self, entry: ErrorLogEntry) -> None:
        fields = (
            str(entry.dirty_tuple_index),
            "-" if entry.clean_tuple_index is None else str(entry.clean_tuple_index),
            "-" if entry.attribute is None else entry.attribute,
            entry.error_type,
            _encode_log_value(entry.clean_value),
            _encode_log_value(entry.dirty_value),
        )
        self._fh.write("\t".join(fields) + "\n")


def read_error_log(path: str | Path) -> list[ErrorLogEntry]:
    """Parse an error log back into ErrorLogEntry objects."""
    path = Path(path)
    entries = []
    lines = _numbered_lines(path)
    if not next(lines, (1, ""))[1].startswith("#"):
        raise DatasetFormatError(f"{path}: missing '#' header line")
    for lineno, line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected 6 tab-separated fields, got {len(fields)}"
            )
        dirty_idx, clean_idx, attribute, error_type, clean_val, dirty_val = fields
        if error_type not in ERROR_STAGES:
            raise DatasetFormatError(
                f"{path}: line {lineno}: unknown error type {error_type!r}"
            )
        try:
            entries.append(
                ErrorLogEntry(
                    dirty_tuple_index=int(dirty_idx),
                    clean_tuple_index=None if clean_idx == "-" else int(clean_idx),
                    attribute=None if attribute == "-" else attribute,
                    error_type=error_type,
                    clean_value=_decode_log_value(clean_val),
                    dirty_value=_decode_log_value(dirty_val),
                )
            )
        except (ValueError, RecursionError) as exc:
            raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
    return entries


def write_json(path: Path, doc: dict) -> None:
    """A run manifest or a metrics report: indented JSON, keys sorted."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
