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
from collections import namedtuple
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring
from math import isfinite
from operator import ne
from pathlib import Path
from typing import Iterable, Iterator

from .exceptions import DatasetFormatError
from .taxonomy import ABSENT, ERROR_STAGES, split_count

LOG_FORMAT_VERSION = "dirtygen-log-v1"
_LOG_COLUMNS = "dirty_index,clean_index,attribute,error_type,clean_value,dirty_value"


class OutputSpec(namedtuple("OutputSpec", "directory mode shard_count")):
    """Where a run writes its files and how: mode is "ndjson" or
    "json_array". A named tuple, so immutable and hashable."""

    __slots__ = ()

    def __new__(cls, directory: Path = Path("out"), mode: str = "ndjson", shard_count: int = 1):
        if mode not in ("ndjson", "json_array"):
            raise ValueError(f"unknown output mode: {mode!r}")
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        return super().__new__(cls, directory, mode, shard_count)

    @classmethod
    def _make(cls, iterable):  # what _replace builds with: checked as well
        return cls(*iterable)

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


def _loads(text: str):
    """_strict_loads(text), by the C scanner alone when text is exactly one
    JSON value. Anything else (spaces, a BOM, extra text, a rejected
    constant) goes through the full decode, which returns the same value or
    raises the same error."""
    try:
        value, end = _scan_once(text, 0)
        if end == len(text):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return _strict_loads(text)


# Lines an ndjson reader takes from its file at a time, and so the most it
# holds of each file.
_BLOCK_LINES = 256
# The block state of no file: no block starts at line -1.
_NO_BLOCK = (-1, (), ())


def read_dataset(path: str | Path, *, allow_deleted: bool = False) -> Iterator[dict | None]:
    """Stream records back from a dataset file, a JSON array if its suffix is
    .json and ndjson otherwise; inverse of DatasetWriter."""
    path = Path(path)
    if _infer_mode(path) == "ndjson":
        yield from chain.from_iterable(_ndjson_blocks(path, allow_deleted, _NO_BLOCK, []))
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
    the file before. Read out of step, a file decodes every line of a
    block that the file before has not reached or has left.
    """
    paths = [Path(p) for p in (clean, dirty, *repaired)]
    if any(_infer_mode(path) != "ndjson" for path in paths):
        return tuple(read_dataset(path, allow_deleted=i >= 2) for i, path in enumerate(paths))
    # blocks[i + 1] is the block file i read last; blocks[0] is no block, so
    # the clean file decodes every line.
    blocks = [_NO_BLOCK, *(list(_NO_BLOCK) for _ in paths)]
    return tuple(
        chain.from_iterable(_ndjson_blocks(path, i >= 2, blocks[i], blocks[i + 1])) for i, path in enumerate(paths)
    )


def _ndjson_blocks(path: Path, allow_deleted: bool, before, mine: list) -> Iterator[Iterable]:
    """The rows of an ndjson file, a block of lines at a time.

    mine is set to each block as it is read: the number of lines before it,
    its lines and its records so far. before is the previous file's, and a
    line equal to that file's line at the same number is that file's record.
    A block's rows are a list, decoded when it is read, if every line it
    must decode is a row. Otherwise, or while the previous file's block at
    these numbers is still being read, they are read row by row.
    """
    start = 0
    for lines in _line_blocks(path):
        records = None
        if before[0] != start or len(before[2]) == len(before[1]):
            known_lines, known = before[1:] if before[0] == start else ((), ())
            records = _block_records(lines, known_lines, known, allow_deleted)
        if records is None:
            mine[:] = start, lines, []
            yield _row_by_row(path, allow_deleted, before, start, lines, mine[2])
        else:
            mine[:] = start, lines, records
            yield records
        start += len(lines)


def _row_by_row(path: Path, allow_deleted: bool, before, start: int, lines: list[str], records: list):
    """The rows of a block of _ndjson_blocks, each appended to records as it
    is read: a bad line raises when its row is reached, and a line whose
    counterpart in the previous file is not read yet is decoded."""
    for index, line in enumerate(lines):
        if before[0] == start and index < len(before[2]) and before[1][index] == line:
            record = before[2][index]
        else:
            record = _decode_line(line, path, start + index + 1, allow_deleted)
        records.append(record)
        yield record


def _line_blocks(path: Path) -> Iterator[list[str]]:
    """The lines of a UTF-8 file, without their LF, _BLOCK_LINES at a time.
    Lines end at LF, CRLF or a lone CR, as in universal-newline reading.
    Bytes that are not UTF-8 fail the decoding of the text chunk that holds
    them: the block in reading ends at the last line decoded before that
    chunk, as in line-by-line reading, and the error is raised when the
    next block is asked for."""
    with open(path, encoding="utf-8", newline="") as fh:
        while True:
            block: list[str] = []
            try:
                block.extend(islice(fh, _BLOCK_LINES))  # keeps what it read if a line raises
            except UnicodeDecodeError as exc:
                if block:
                    yield list(map(str.rstrip, block, repeat("\n")))
                raise DatasetFormatError(f"{path}: not valid UTF-8: {exc}") from exc
            if not block:
                return
            yield list(map(str.rstrip, block, repeat("\n")))


# The kinds of row a line may decode to, by allow_deleted.
_ROW_TYPES = ({dict}, {dict, type(None)})


def _block_records(lines: list[str], known_lines, known, allow_deleted: bool) -> list | None:
    """The rows of a block of lines, given the lines and rows of the
    previous file at the same numbers: a line equal to its known line is
    that row, and the others are decoded in one pass of the C scanner. None
    if any of those is not exactly one JSON row."""
    differ = list(map(ne, lines, known_lines))
    differ += [True] * (len(lines) - len(differ))
    fresh = list(compress(lines, differ))
    values = ()
    if fresh:
        try:
            # A line the scanner cannot start raises StopIteration, which ends
            # the map early: at the first line, the unpacking fails; later, the
            # ends are too few.
            values, ends = zip(*map(_scan_once, fresh, repeat(0)))
        except (ValueError, RecursionError):
            return None
        if ends != tuple(map(len, fresh)) or not _ROW_TYPES[allow_deleted] >= set(map(type, values)):
            return None
    records = list(known[: len(lines)])
    records += [None] * (len(lines) - len(records))
    for index, record in zip(compress(range(len(lines)), differ), values):
        records[index] = record
    return records


def _decode_line(line: str, path: Path, lineno: int, allow_deleted: bool):
    """One ndjson line as a record, or None for a deleted row if allowed."""
    try:
        obj = _loads(line)
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
    return ABSENT if text == "-" else _loads(text)


class ErrorLogEntry(
    namedtuple(
        "ErrorLogEntry",
        "dirty_tuple_index clean_tuple_index attribute error_type clean_value dirty_value",
    )
):
    """Provenance of one injected error, as a named tuple.

    clean_tuple_index is None exactly for inserted tuples, which have no
    clean counterpart. Values use ABSENT for "no value at all" (shown as '-'
    in the log file), which is distinct from an explicit null.
    """

    __slots__ = ()


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
    lines = chain.from_iterable(_line_blocks(path))
    if not next(lines, "").startswith("#"):
        raise DatasetFormatError(f"{path}: missing '#' header line")
    for lineno, line in enumerate(lines, start=2):
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
                    int(dirty_idx),
                    None if clean_idx == "-" else int(clean_idx),
                    None if attribute == "-" else attribute,
                    error_type,
                    _decode_log_value(clean_val),
                    _decode_log_value(dirty_val),
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
