import json
import re
import tempfile
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen import (
    ABSENT,
    DatasetFormatError,
    DirtygenError,
    load_config,
    read_dataset,
    read_error_log,
    score,
)
from dirtygen import output as output_module
from dirtygen.output import (
    DatasetWriter,
    ErrorLogEntry,
    ErrorLogWriter,
    OutputSpec,
    _check_row,
    _strict_loads,
    encode_record,
    encode_rows,
    publish,
    read_aligned,
)


def spec_for(tmp_path, **kwargs):
    return OutputSpec(directory=tmp_path, **kwargs)


def write_records(records, spec, which):
    """The records through one DatasetWriter; returns its published paths."""
    records = list(records)
    writer = DatasetWriter(spec, which, len(records))
    for record in records:
        writer.write(record)
    return publish(writer.close())


def write_log(entries, spec, *, seed, config_hash):
    """The entries through one ErrorLogWriter, at the spec's log path."""
    spec.directory.mkdir(parents=True, exist_ok=True)
    with open(spec.log_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = ErrorLogWriter(fh, seed=seed, config_hash=config_hash)
        for entry in entries:
            writer.write(entry)
    return spec.log_path


def test_record_line_format():
    assert encode_record({"name": "Anna", "age": 34}) == '{"name":"Anna","age":34}'


def test_absent_key_omitted_null_explicit():
    assert encode_record({"name": "Anna"}) == '{"name":"Anna"}'
    assert encode_record({"name": "Anna", "age": None}) == '{"name":"Anna","age":null}'


def test_float_shortest_roundtrip():
    assert encode_record({"x": 0.1}) == '{"x":0.1}'
    value = 52234.52385247259
    assert json.loads(encode_record({"x": value}))["x"] == value


_FLAT_VALUES = (
    st.text()
    | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "中", "😀"])
    | st.integers()
    | st.integers(min_value=2**64 - 5, max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, -5e-324, 1.7976931348623157e308])
    | st.none()
    | st.booleans()
)


@given(st.dictionaries(st.text(max_size=8), _FLAT_VALUES, max_size=12))
@settings(max_examples=300, deadline=None)
def test_encode_record_is_compact_json_dumps(record):
    expected = json.dumps(record, ensure_ascii=False, separators=(",", ":"), allow_nan=False)
    assert encode_record(record) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_encode_record_rejects_non_finite_floats(value):
    with pytest.raises(ValueError):
        encode_record({"x": value})


def test_ndjson_bytes(tmp_path):
    records = [{"a": 1}, {"a": None}, {"b": "x"}]
    paths = write_records(records, spec_for(tmp_path), "clean")
    data = paths[0].read_bytes()
    assert data == b'{"a":1}\n{"a":null}\n{"b":"x"}\n'


def test_json_array_bytes(tmp_path):
    records = [{"a": 1}, {"a": 2}]
    paths = write_records(records, spec_for(tmp_path, mode="json_array"), "clean")
    assert paths[0].read_bytes() == b'[\n{"a":1},\n{"a":2}\n]\n'


def test_json_array_empty(tmp_path):
    paths = write_records([], spec_for(tmp_path, mode="json_array"), "clean")
    assert paths[0].read_bytes() == b"[]\n"


def test_round_trip_ndjson(tmp_path):
    records = [{"a": i, "b": f"v{i}", "c": i / 3} for i in range(1000)]
    paths = write_records(records, spec_for(tmp_path), "clean")
    assert list(read_dataset(paths[0])) == records


def test_round_trip_json_array(tmp_path):
    records = [{"a": i, "b": None if i % 3 else "x"} for i in range(50)]
    paths = write_records(records, spec_for(tmp_path, mode="json_array"), "dirty")
    assert list(read_dataset(paths[0])) == records


def test_write_read_write_identical_bytes(tmp_path):
    records = [{"a": i, "x": i * 0.1} for i in range(200)]
    first = write_records(records, spec_for(tmp_path / "one"), "clean")[0]
    back = list(read_dataset(first))
    second = write_records(back, spec_for(tmp_path / "two"), "clean")[0]
    assert first.read_bytes() == second.read_bytes()


def test_sharding_partitions_contiguously(tmp_path):
    records = [{"i": i} for i in range(10)]
    out = spec_for(tmp_path, shard_count=3)
    paths = write_records(records, out, "clean")
    assert [p.name for p in paths] == ["clean.00000.ndjson", "clean.00001.ndjson", "clean.00002.ndjson"]
    sizes = [len(list(read_dataset(p))) for p in paths]
    assert sizes == [4, 3, 3]
    merged = [r for p in paths for r in read_dataset(p)]
    assert merged == records


def test_sharding_with_fewer_records_than_shards(tmp_path):
    records = [{"i": 0}]
    paths = write_records(records, spec_for(tmp_path, shard_count=3), "clean")
    sizes = [len(list(read_dataset(p))) for p in paths]
    assert sizes == [1, 0, 0]


def test_ndjson_reader_rejects_array_file(tmp_path):
    path = tmp_path / "data.ndjson"
    path.write_text('[\n{"a":1}\n]\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 1"):
        list(read_dataset(path))


def test_array_reader_rejects_ndjson_file(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"a":1}\n{"a":2}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        list(read_dataset(path))


def test_reader_rejects_nan(tmp_path):
    path = tmp_path / "data.ndjson"
    path.write_text('{"a":NaN}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        list(read_dataset(path))


_BOM_MESSAGE = r"Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1 \(char 0\)"
_NOT_JSON = [
    ("NaN", "NaN"),
    ("Infinity", "Infinity"),
    ("-Infinity", "-Infinity"),
    ("\ufeff1", _BOM_MESSAGE),
]


@pytest.mark.parametrize("literal, message", _NOT_JSON)
def test_ndjson_reader_rejects_non_standard_json(tmp_path, literal, message):
    path = tmp_path / "data.ndjson"
    if literal.startswith("\ufeff"):
        path.write_text('\ufeff{"a":1}\n', encoding="utf-8")
        line = 1
    else:
        path.write_text(f'{{"a":1}}\n{{"a":{literal}}}\n', encoding="utf-8")
        line = 2
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: line {line}: not valid JSON: {message}$"):
        list(read_dataset(path))


@pytest.mark.parametrize("literal, message", _NOT_JSON)
def test_array_reader_rejects_non_standard_json(tmp_path, literal, message):
    path = tmp_path / "data.json"
    if literal.startswith("\ufeff"):
        path.write_text('\ufeff[\n{"a":1}\n]\n', encoding="utf-8")
    else:
        path.write_text(f'[\n{{"a":1}},\n{{"a":{literal}}}\n]\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: not a valid JSON document: {message}$"):
        list(read_dataset(path))


@pytest.mark.parametrize("literal, message", _NOT_JSON)
@pytest.mark.parametrize("column", [4, 5])
def test_log_reader_rejects_non_standard_json_values(tmp_path, literal, message, column):
    fields = ["5", "5", "city", "missing_value", '"Berlin"', "null"]
    fields[column] = literal
    path = tmp_path / "errors.log"
    path.write_text("# header\n" + "\t".join(fields) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: line 2: {message}$"):
        read_error_log(path)


def test_deleted_rows_require_opt_in(tmp_path):
    path = tmp_path / "data.ndjson"
    path.write_text('{"a":1}\nnull\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        list(read_dataset(path))
    assert list(read_dataset(path, allow_deleted=True)) == [{"a": 1}, None]


def entry(**kwargs):
    defaults = dict(
        dirty_tuple_index=5,
        clean_tuple_index=5,
        attribute="city",
        error_type="missing_value",
        clean_value="Berlin",
        dirty_value=None,
    )
    defaults.update(kwargs)
    return ErrorLogEntry(**defaults)


def test_log_line_format(tmp_path):
    out = spec_for(tmp_path)
    path = write_log([entry()], out, seed=7, config_hash="abc")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# dirtygen-log-v1\tseed=7\tconfig=sha256:abc")
    assert lines[1] == '5\t5\tcity\tmissing_value\t"Berlin"\tnull'


def test_log_line_for_inserted_tuple(tmp_path):
    out = spec_for(tmp_path)
    marker = entry(
        dirty_tuple_index=1000,
        clean_tuple_index=None,
        attribute=None,
        error_type="irrelevant_observation",
        clean_value=ABSENT,
        dirty_value=ABSENT,
    )
    path = write_log([marker], out, seed=7, config_hash="abc")
    assert path.read_text(encoding="utf-8").splitlines()[1] == (
        "1000\t-\t-\tirrelevant_observation\t-\t-"
    )


def test_empty_log_is_header_only(tmp_path):
    path = write_log([], spec_for(tmp_path), seed=7, config_hash="abc")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("#")
    assert read_error_log(path) == []


def test_log_round_trip(tmp_path):
    entries = [
        entry(),
        entry(
            dirty_tuple_index=8,
            attribute="age",
            error_type="interval_violation",
            clean_value=34,
            dirty_value=181,
        ),
        entry(
            dirty_tuple_index=100,
            clean_tuple_index=None,
            attribute=None,
            error_type="redundancy_about_entity",
            clean_value=ABSENT,
            dirty_value=ABSENT,
        ),
    ]
    path = write_log(entries, spec_for(tmp_path), seed=1, config_hash="x")
    assert read_error_log(path) == entries


def test_log_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "errors.log"
    path.write_text("# header\n1\t2\tcity\tmissing_value\tnull\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 2.*5"):
        read_error_log(path)


def test_log_requires_header(tmp_path):
    path = tmp_path / "errors.log"
    path.write_text("1\t1\tcity\tmissing_value\tnull\tnull\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="header"):
        read_error_log(path)


def test_log_rejects_an_unknown_error_type(tmp_path):
    path = tmp_path / "errors.log"
    path.write_text("# header\n1\t1\tcity\ttypo\tnull\tnull\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 2: unknown error type 'typo'"):
        read_error_log(path)


def test_log_reader_skips_blank_lines(tmp_path):
    path = write_log([entry()], spec_for(tmp_path), seed=1, config_hash="x")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0], "", lines[1], ""]) + "\n", encoding="utf-8")
    assert read_error_log(path) == [entry()]


def test_log_value_with_tab_is_escaped(tmp_path):
    tricky = entry(clean_value="a\tb", dirty_value=None)
    path = write_log([tricky], spec_for(tmp_path), seed=1, config_hash="x")
    assert read_error_log(path) == [tricky]


_cell_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=30),
)


@given(
    records=st.lists(
        st.dictionaries(st.text(min_size=1, max_size=8), _cell_values, max_size=5), max_size=20
    )
)
@settings(max_examples=60, deadline=None)
def test_dataset_round_trip_property(tmp_path_factory, records):
    directory = tmp_path_factory.mktemp("rt")
    for mode in ("ndjson", "json_array"):
        out = OutputSpec(directory=directory / mode, mode=mode)
        path = write_records(records, out, "clean")[0]
        assert list(read_dataset(path)) == records


@given(_cell_values)
@settings(max_examples=100, deadline=None)
def test_log_value_encoding_round_trip(value):
    from dirtygen.output import _decode_log_value, _encode_log_value

    encoded = _encode_log_value(value)
    assert "\t" not in encoded and "\n" not in encoded
    assert _decode_log_value(encoded) == value


# The values the column encoder must write as encode_record does: text with
# non-ASCII characters, quotes, backslashes and control characters, ints
# beyond 64 bits, bools, the float edge cases, nulls and nested values.
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1e16, 5e-324, -1.7976931348623157e308, 0.1])
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS,
    st.text(max_size=8),
    st.text(alphabet='"\\\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600 /', max_size=8),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# One strategy per column: of one type, or mixed (any JSON value).
_COLUMN_KINDS = [
    st.text(),
    st.text(alphabet='"\\\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600 /'),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    _EDGE_FLOATS,
    _JSON_VALUES,
]


@st.composite
def _named_columns(draw):
    rows = draw(st.integers(0, 6))
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(_COLUMN_KINDS))
        values = st.none() | kind if draw(st.booleans()) else kind  # nulls aside
        columns.append(draw(st.lists(values, min_size=rows, max_size=rows)))
    return names, columns


@given(_named_columns())
@settings(max_examples=400, deadline=None)
def test_encode_rows_equals_encode_record_by_row(named_columns):
    names, columns = named_columns
    assert encode_rows(names, columns) == [encode_record(dict(zip(names, row))) for row in zip(*columns)]
    # The log writes single values by the same rule.
    for column in columns:
        assert [output_module._encode_log_value(v) for v in column] == list(map(output_module._encode, column))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("column", [[1.5, "bad"], [None, "bad"], ["bad"], [2, "bad"], ["x", "bad"], [["bad"]]])
def test_encode_rows_refuses_what_encode_record_refuses(bad, column):
    column = [bad if v == "bad" else [bad] if v == ["bad"] else v for v in column]
    with pytest.raises(ValueError) as expected:
        [encode_record({"a": v}) for v in column]
    with pytest.raises(ValueError) as got:
        encode_rows(["a"], [column])
    assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError) as logged:
        [output_module._encode_log_value(v) for v in column]
    assert str(logged.value) == str(expected.value)


@given(
    count=st.integers(0, 10),
    shards=st.integers(1, 4),
    mode=st.sampled_from(["ndjson", "json_array"]),
    cuts=st.lists(st.integers(0, 10), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_write_lines_in_any_blocks_writes_what_write_does(tmp_path_factory, count, shards, mode, cuts):
    # Blocks split anywhere, empty ones too, across shard boundaries and
    # with fewer records than shards, write the bytes of per-record writes.
    records = [None if i % 4 == 3 else {"i": i, "s": "\u00e9\"" * (i % 3)} for i in range(count)]
    directory = tmp_path_factory.mktemp("blocks")
    expected = write_records(records, OutputSpec(directory / "records", mode, shards), "d")
    writer = DatasetWriter(OutputSpec(directory / "blocks", mode, shards), "d", count)
    lines = ["null" if r is None else encode_record(r) for r in records]
    bounds = [0, *sorted(min(c, count) for c in cuts), count]
    for lo, hi in zip(bounds, bounds[1:]):
        writer.write_lines(lines[lo:hi])
    paths = publish(writer.close())
    assert [p.name for p in paths] == [p.name for p in expected]
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in expected]


def test_write_lines_refuses_a_block_past_the_declared_count(tmp_path):
    writer = DatasetWriter(spec_for(tmp_path), "clean", 2)
    writer.write_lines(['{"a":1}'])
    with pytest.raises(DatasetFormatError, match="more than the declared 2"):
        writer.write_lines(['{"a":2}', '{"a":3}'])
    writer.write_lines(['{"a":2}'])  # the refused block wrote nothing
    assert publish(writer.close())[0].read_text(encoding="utf-8") == '{"a":1}\n{"a":2}\n'


def test_writer_count_mismatch_detected(tmp_path):
    writer = DatasetWriter(spec_for(tmp_path), "clean", 2)
    writer.write({"a": 1})
    with pytest.raises(DatasetFormatError, match="expected 2"):
        writer.close()


# Lines the reader's one-object fast path must hand to the full decode; each
# must read exactly as _strict_loads and the row check make of it.
_ODD_LINES = [
    ' {"a":1}',
    '{"a":1} ',
    '{"a":1}\r',
    '\ufeff{"a":1}',
    '{"a":NaN}',
    '{"a":[1,Infinity]}',
    '{"a":-Infinity}',
    "1,2",
    "{} {}",
    '[{"a":1}]',
    "null",
    "",
    '{"a":' + "9" * 4301 + "}",
    '{"a":' + "9" * 4300 + "}",
]


@pytest.mark.parametrize("allow_deleted", [False, True])
@pytest.mark.parametrize("line", _ODD_LINES)
def test_ndjson_fast_path_reads_as_the_full_decode(tmp_path, line, allow_deleted):
    path = tmp_path / "data.ndjson"
    path.write_bytes(('{"b":2}\n' + line + "\n").encode("utf-8"))
    try:
        expected = [{"b": 2}, _check_row(_strict_loads(line), path, 2, allow_deleted)]
    except ValueError as exc:
        expected = f"{path}: line 2: not valid JSON: {exc}"
    except DatasetFormatError as exc:
        expected = str(exc)
    try:
        got = list(read_dataset(path, allow_deleted=allow_deleted))
    except DatasetFormatError as exc:
        got = str(exc)
    assert repr(got) == repr(expected)


def test_repaired_lines_identical_to_dirty_are_the_dirty_records(tmp_path):
    clean = tmp_path / "clean.ndjson"
    dirty = tmp_path / "dirty.ndjson"
    repaired = tmp_path / "repaired.ndjson"
    clean.write_text('{"a":0}\n{"a":0}\n{"a":0}\n', encoding="utf-8")
    dirty.write_text('{"a":1}\n{"a":2}\n{"a":3}\n', encoding="utf-8")
    repaired.write_text('{"a":1}\n{"a":2.0}\nnull\n', encoding="utf-8")
    _, dirty_rows, repaired_rows = read_aligned(clean, dirty, repaired)
    pairs = list(zip(dirty_rows, repaired_rows))
    assert pairs == [({"a": 1}, {"a": 1}), ({"a": 2}, {"a": 2.0}), ({"a": 3}, None)]
    assert pairs[0][1] is pairs[0][0]
    assert type(pairs[1][1]["a"]) is float
    # Read out of step, every line is decoded on its own.
    _, dirty_rows, repaired_rows = read_aligned(clean, dirty, repaired)
    assert list(repaired_rows) == [{"a": 1}, {"a": 2.0}, None]
    assert list(dirty_rows) == [{"a": 1}, {"a": 2}, {"a": 3}]
    # A malformed repaired line is reported against the repaired file.
    repaired.write_text('{"a":1}\n{"a":\n', encoding="utf-8")
    _, dirty_rows, repaired_rows = read_aligned(clean, dirty, repaired)
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(repaired))}: line 2: "):
        list(zip(dirty_rows, repaired_rows))


def _count_decodes(monkeypatch) -> list:
    """The (file name, line number) of each line the readers decode from now on."""
    decoded = []
    block = [None, 0]  # the block read last: its file's name and the lines before it
    line_blocks, block_records, decode_line = (
        output_module._line_blocks, output_module._block_records, output_module._decode_line
    )

    def blocks(path):
        start = 0
        for lines in line_blocks(path):
            block[:] = Path(path).name, start
            yield lines
            start += len(lines)

    def records(lines, known_lines, known, allow_deleted):
        # called on the block read last, before any other block is read
        rows = block_records(lines, known_lines, known, allow_deleted)
        if rows is not None:
            name, start = block
            decoded.extend(
                (name, start + index + 1)
                for index, line in enumerate(lines)
                if index >= len(known_lines) or line != known_lines[index]
            )
        return rows

    def line(text, path, lineno, allow_deleted):
        row = decode_line(text, path, lineno, allow_deleted)
        decoded.append((Path(path).name, lineno))
        return row

    monkeypatch.setattr(output_module, "_line_blocks", blocks)
    monkeypatch.setattr(output_module, "_block_records", records)
    monkeypatch.setattr(output_module, "_decode_line", line)
    return decoded


def test_score_reads_dirty_before_repaired(tmp_path, monkeypatch):
    # The identical-line shortcut holds only when each dirty row is read
    # before the repaired row at its index, as score reads them.
    clean = tmp_path / "clean.ndjson"
    dirty = tmp_path / "dirty.ndjson"
    repaired = tmp_path / "repaired.ndjson"
    # No clean line is byte-identical to its dirty line: each is decoded.
    clean.write_text('{"a": 1}\n{"a": 1}\n{"a": 3}\n', encoding="utf-8")
    dirty.write_text('{"a":1}\n{"a":2}\n{"a":3}\n', encoding="utf-8")
    repaired.write_text('{"a":1}\n{"a":1}\n{"a":3}\n', encoding="utf-8")
    decoded = _count_decodes(monkeypatch)
    log = [ErrorLogEntry(1, 1, "a", "erroneous_entry", 1, 2)]
    metrics = score(*read_aligned(clean, dirty, repaired), log)
    # A block of dirty lines is decoded before the repaired lines at its numbers.
    assert [d for d in decoded if d[0] != "clean.ndjson"] == [
        ("dirty.ndjson", 1), ("dirty.ndjson", 2), ("dirty.ndjson", 3), ("repaired.ndjson", 2)
    ]
    assert metrics.counts["correct_repairs"] == 1
    assert metrics.counts["flagged"] == 1


def test_dirty_lines_identical_to_clean_are_the_clean_records(tmp_path, monkeypatch):
    paths = [tmp_path / name for name in ("clean.ndjson", "dirty.ndjson", "repaired.ndjson", "second.ndjson")]
    contents = [
        '{"a":1}\n{"a":2}\n{"a":3}\n',
        '{"a":1}\n{"a":5}\n{"a":3}\n',
        '{"a":1}\n{"a":2}\nnull\n',
        '{"a":1}\n{"a":2}\nnull\n',
    ]
    for path, text in zip(paths, contents):
        path.write_text(text, encoding="utf-8")
    decoded = _count_decodes(monkeypatch)
    rows = list(zip(*read_aligned(*paths)))
    # Only the clean file and the lines that differ from the file before are decoded.
    assert decoded == [
        ("clean.ndjson", 1), ("clean.ndjson", 2), ("clean.ndjson", 3), ("dirty.ndjson", 2),
        ("repaired.ndjson", 2), ("repaired.ndjson", 3),
    ]
    assert rows == [({"a": 1},) * 4, ({"a": 2}, {"a": 5}, {"a": 2}, {"a": 2}), ({"a": 3}, {"a": 3}, None, None)]
    assert all(record is rows[0][0] for record in rows[0])
    assert rows[1][3] is rows[1][2] and rows[2][1] is rows[2][0]


# The lines of an aligned file: a record, the same record with spaces (equal
# values, other bytes), a deleted row, or a malformed line.
_RECORD = st.fixed_dictionaries({"a": st.integers(0, 2)}, optional={"b": st.sampled_from([0, 0.0, -0.0, True])})
_LINE = (
    _RECORD.map(encode_record)
    | _RECORD.map(json.dumps)
    | st.sampled_from(["null", '{"a":', "[1]", ""])
)


@st.composite
def _aligned_files(draw, line=_LINE, max_size=6):
    """Three files as lists of lines: each line is drawn afresh or copied
    from the previous file's line at its index, and lengths may differ."""
    files = [draw(st.lists(line, max_size=max_size))]
    for _ in range(2):
        previous = files[-1]
        lines = [
            draw(st.sampled_from([text, draw(line)])) for text in previous
        ] + draw(st.lists(line, max_size=2))
        files.append(lines[: draw(st.integers(0, len(lines)))])
    return files


def _score_or_error(clean, dirty, repaired, log):
    try:
        return score(clean, dirty, repaired, log).to_dict()
    except DirtygenError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(files=_aligned_files(), logged=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(["a", "b"])), max_size=3))
def test_aligned_reader_scores_as_independent_readers(files, logged):
    log = [ErrorLogEntry(row, row, attribute, "missing_value", 0, None) for row, attribute in logged]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{name}.ndjson" for name in ("clean", "dirty", "repaired")]
        for path, lines in zip(paths, files):
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        # Independent streams read in score's order, as evaluate read them
        # before the aligned reader: the same result, or the same first error.
        expected = _score_or_error(
            read_dataset(paths[0]), read_dataset(paths[1]), read_dataset(paths[2], allow_deleted=True), log
        )
        assert _score_or_error(*read_aligned(*paths), log) == expected


def _line_reader(paths: list[Path]) -> list:
    """The aligned streams as a reader that takes one line at a time reads
    them: a line equal to the line of the same number that the previous file
    read last is that file's record; any other is decoded by the full
    decoder. Lines end as universal newlines end them."""
    last = [[0, "", None] for _ in range(len(paths) + 1)]

    def rows(i: int):
        path, allow_deleted = paths[i], i >= 2
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                for lineno, line in enumerate(fh, start=1):
                    line = line.rstrip("\n")
                    if last[i][:2] == [lineno, line]:
                        record = last[i][2]
                    else:
                        try:
                            obj = _strict_loads(line)
                        except (ValueError, RecursionError) as exc:
                            raise DatasetFormatError(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
                        record = _check_row(obj, path, lineno, allow_deleted)
                    last[i + 1][:] = lineno, line, record
                    yield record
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"{path}: not valid UTF-8: {exc}") from exc

    return [rows(i) for i in range(len(paths))]


def _lockstep(streams) -> list:
    """Reading streams as score does, row i of each in turn until all end:
    each row as (stream, repr, whether it is the object the stream before
    gave at its index), then the error that stopped the reading, if any."""
    events, live, ended = [], list(streams), object()
    try:
        while any(stream is not None for stream in live):
            row = []
            for k, stream in enumerate(live):
                record = ended if stream is None else next(stream, ended)
                if record is ended:
                    live[k] = None
                else:
                    events.append((k, repr(record), k > 0 and record is row[k - 1]))
                row.append(record)
    except DirtygenError as exc:
        events.append((type(exc), str(exc)))
    return events


def _write_lines(paths: list[Path], files: list[list[str]]) -> None:
    # surrogateescape writes "\udcff" as the byte 0xff, which is not UTF-8
    for path, lines in zip(paths, files):
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))


# Lines for the block reader's other paths: a CRLF ending, a lone CR that
# splits an LF-terminated line in two, a byte that is not UTF-8, and a long
# record, so that the text decoder's 8 KiB chunks end inside a file.
_EDGE_LINE = _LINE | st.sampled_from(['{"a":1}\r', '{"a":1}\r{"a":2}', "\udcff", '{"a":1,"p":"' + "x" * 3000 + '"}'])


@settings(max_examples=400, deadline=None)
@given(files=_aligned_files(_EDGE_LINE, max_size=10), block=st.integers(1, 4))
def test_block_reader_reads_as_the_line_reader(files, block):
    # Small blocks put files of several blocks and a partial one, and bad
    # lines on either side of a block edge, within a few lines. The rows,
    # which of them are the previous file's records, and the first error
    # (class, message, line number) are those of the line-at-a-time reader.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(output_module, "_BLOCK_LINES", block):
        paths = [Path(tmp) / f"{name}.ndjson" for name in ("clean", "dirty", "repaired")]
        _write_lines(paths, files)
        assert _lockstep(read_aligned(*paths)) == _lockstep(_line_reader(paths))


@pytest.mark.parametrize(
    "edge", ["none", "dirty_last", "dirty_first", "repaired_null", "clean_short", "not_utf8", "not_utf8_after_cr"]
)
def test_block_edges_at_the_block_size(tmp_path, edge):
    # Files of two blocks and part of a third, at the reader's own block size.
    # Lines of about 100 bytes put a byte that is not UTF-8 at line 150 in a
    # later 8 KiB chunk than the first line of its block.
    n = output_module._BLOCK_LINES
    clean = [encode_record({"a": i, "p": "x" * 90}) for i in range(2 * n + n // 2)]
    dirty = clean + [encode_record({"a": -1})] * 3
    dirty[n - 2], dirty[n + 1] = encode_record({"a": -2}), json.dumps({"a": n + 1})
    repaired = list(dirty)
    repaired[n - 1], repaired[2 * n] = "null", encode_record({"a": 0.5})
    if edge == "dirty_last":
        dirty[n - 1] = '{"a":'  # the last line of the first block
    elif edge == "dirty_first":
        dirty[n] = "null"  # the first line of the second block
    elif edge == "repaired_null":
        repaired = repaired[: 2 * n + 1] + ["null", "[1]"]
    elif edge == "clean_short":
        clean = clean[: n + 3]
    elif edge.startswith("not_utf8"):
        dirty[150] = "\udcff"
        if edge == "not_utf8_after_cr":
            dirty[40] = '{"a":1}\r{"a":2}'  # two lines, as universal newlines read it
    paths = [tmp_path / f"{name}.ndjson" for name in ("clean", "dirty", "repaired")]
    _write_lines(paths, [clean, dirty, repaired])
    events = _lockstep(read_aligned(*paths))
    assert events == _lockstep(_line_reader(paths))
    assert sum(shortcut for *_, shortcut in events[:-1]) > 40  # the rows an edit left alone


# Pieces of the readers' formats, of JSON and of bad UTF-8, so that drawn
# files get past their first byte; deep arrays pass the decoder's depth.
_PIECES = st.sampled_from([
    b"{", b"}", b"[", b"]", b'"a"', b":", b",", b"1", b"-0.5e3", b"1e999", b"null", b"true",
    b'"\\ud800"', b"\n", b"\r\n", b"\t", b"-", b"# dirtygen-log-v1\n", b"0\t0\tcity\tmissing_value\t",
    b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"NaN", b'{"schema":',
])
_BYTES = st.lists(
    _PIECES | st.binary(max_size=8) | st.integers(1000, 5000).map(lambda n: b"[" * n + b"]" * n),
    max_size=12,
).map(b"".join)
_READERS = {
    "ndjson": lambda a, b: list(read_dataset(a, allow_deleted=True)),
    "json_array": lambda a, b: list(read_dataset(a.with_suffix(".json"))),
    # a repaired file after a dirty one that is also the clean file
    "dirty_and_repaired": lambda a, b: list(zip_longest(*read_aligned(a, a, b))),
    # two repair stages after a clean and a dirty file
    "aligned": lambda a, b: list(zip_longest(*read_aligned(a, b, a, b))),
    "error_log": lambda a, b: read_error_log(a),
    "config": lambda a, b: load_config(a),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@settings(max_examples=150, deadline=None)
@given(first=_BYTES, second=_BYTES)
def test_readers_raise_only_dirtygen_errors_for_any_bytes(reader, first, second):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.ndjson", Path(tmp) / "b.ndjson"
        a.write_bytes(first)
        a.with_suffix(".json").write_bytes(first)  # what the array reader reads
        b.write_bytes(second)
        try:
            _READERS[reader](a, b)
        except DirtygenError:
            pass
