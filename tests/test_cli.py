import gc
import hashlib
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dirtygen import GenerationError
from dirtygen.cli import main
from dirtygen.output import OutputSpec, read_dataset

from conftest import make_config_text
from test_output import write_records


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "dirtygen.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_config(tmp_path, text=None, **overrides) -> Path:
    path = tmp_path / "run.json"
    path.write_text(text or make_config_text(**overrides), encoding="utf-8")
    return path


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


ERRORS = [
    {"type": "missing_value", "rate": 0.1, "attributes": ["city"]},
    {"type": "misspelling", "rate": 0.05, "attributes": ["first_name"]},
    {"type": "redundancy_about_entity", "rate": 0.02},
]


def test_generate_writes_four_files(tmp_path):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=200)
    out = tmp_path / "out"
    code = main(["generate", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert (out / "clean.ndjson").is_file()
    assert (out / "dirty.ndjson").is_file()
    assert (out / "errors.log").is_file()
    assert (out / "run-manifest.json").is_file()
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["tuple_count"] == 200
    assert manifest["error_counts"]["missing_value"] == 20


def test_generate_prints_realized_counts(tmp_path, capsys):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=100)
    code = main(["generate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0
    output = capsys.readouterr().out
    assert "missing_value" in output
    assert "realized error counts" in output


def test_generate_unknown_error_type_exit_1(tmp_path, capsys):
    doc = json.loads(make_config_text())
    doc["errors"] = [{"type": "gremlins", "rate": 0.1}]
    config = write_config(tmp_path, text=json.dumps(doc))
    code = main(["generate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "gremlins" in capsys.readouterr().err


def test_generate_missing_config_exit_1(tmp_path, capsys):
    code = main(["generate", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, errors",
    [
        ({"kind": "numeric", "distribution": "uniform", "min": 0, "max": "@@"}, []),
        (None, [{"type": "outlier", "rate": 0.1, "attributes": ["score"], "params": {"k": "@@"}}]),
    ],
)
def test_generate_non_finite_config_exit_1_writes_nothing(tmp_path, capsys, source, errors):
    doc = json.loads(make_config_text(errors=errors))
    if source is not None:
        doc["schema"][2]["source"] = source
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc).replace('"@@"', "Infinity" if source else "NaN"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_generate_overflowing_config_exit_1_writes_nothing(tmp_path, capsys):
    doc = json.loads(make_config_text())
    doc["schema"][3]["source"] = {"kind": "numeric", "distribution": "normal", "mean": 0, "stddev": 1e308}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
    assert "float range" in capsys.readouterr().err
    assert not out.exists()


def test_generate_dirty_lines_of_touched_rows_are_their_own(tmp_path):
    # Untouched rows reuse the clean row's encoding; a touched row never may.
    from dirtygen import apply_plan, load_config, plan_errors
    from dirtygen.output import encode_record

    path = write_config(tmp_path, errors=ERRORS, tuple_count=300)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    config = load_config(path)
    plan = plan_errors(config)
    clean, dirty, log = apply_plan(plan, config)
    clean_lines = (out / "clean.ndjson").read_text(encoding="utf-8").splitlines()
    dirty_lines = (out / "dirty.ndjson").read_text(encoding="utf-8").splitlines()
    touched = {entry.dirty_tuple_index for entry in log}
    assert touched and len(dirty_lines) == len(dirty)
    for index, line in enumerate(dirty_lines):
        assert line == encode_record(dirty[index]), index
        if index in touched and index < len(clean_lines):
            assert line != clean_lines[index], index
        elif index not in touched:
            assert line == clean_lines[index], index


def test_generate_is_byte_reproducible(tmp_path):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=300)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["generate", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("clean.ndjson", "dirty.ndjson", "errors.log"):
        assert digest(out_a / name) == digest(out_b / name), name


def test_seed_override_changes_output(tmp_path):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=100)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["generate", "--config", str(config), "--out", str(out_b), "--seed", "99"]) == 0
    assert digest(out_a / "clean.ndjson") != digest(out_b / "clean.ndjson")
    manifest = json.loads((out_b / "run-manifest.json").read_text())
    assert manifest["seed"] == 99


def test_emit_plan_prints_entries(tmp_path, capsys):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=50)
    code = main(
        ["generate", "--config", str(config), "--out", str(tmp_path / "o"), "--emit-plan"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cell missing_value" in out


def test_validate_prints_count_table(tmp_path, capsys):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=500)
    assert main(["validate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "missing_value" in out
    assert "50" in out  # round(0.1 * 500)


def test_validate_oversubscribed_exit_1(tmp_path, capsys):
    doc = json.loads(make_config_text(tuple_count=10))
    doc["errors"] = [
        {"type": "missing_value", "rate": 0.5, "attributes": ["city"]},
        {"type": "erroneous_entry", "rate": 0.6, "attributes": ["city"]},
    ]
    config = write_config(tmp_path, text=json.dumps(doc))
    assert main(["validate", "--config", str(config)]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_validate_deeply_nested_config_exit_1(tmp_path):
    path = write_config(tmp_path, text="[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli("validate", "--config", str(path))
    assert code == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_validate_missing_file_exit_1(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "none.json")]) == 1


def test_validate_non_utf8_config_exit_1(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"schema": "\xff"}')
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read config file {path}: ")


def test_evaluate_perfect_repair(tmp_path, capsys):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=100)
    out = tmp_path / "o"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    clean_lines = (out / "clean.ndjson").read_text().splitlines()
    dirty_lines = (out / "dirty.ndjson").read_text().splitlines()
    inserted = len(dirty_lines) - len(clean_lines)
    repaired = tmp_path / "repaired.ndjson"
    repaired.write_text("\n".join(clean_lines + ["null"] * inserted) + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--clean", str(out / "clean.ndjson"),
            "--dirty", str(out / "dirty.ndjson"),
            "--repaired", str(repaired),
            "--log", str(out / "errors.log"),
            "--report", str(report),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["overall"]["detection_f1"] == 1.0
    assert data["overall"]["repair_f1"] == 1.0


def _dirtygen_modules(code: str) -> list[str]:
    """The dirtygen modules loaded by a fresh interpreter that runs code."""
    code += "\nprint(json.dumps(sorted(m for m in sys.modules if m == 'dirtygen' or m.startswith('dirtygen.'))))"
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_evaluate_imports_only_the_scoring_modules(tmp_path, capsys):
    # A process that only scores compiles none of the generator, and one that
    # validates or generates loads no scoring code and no statistics (which
    # only a unique normal attribute needs); the public names load on first use.
    config = write_config(tmp_path, errors=ERRORS, tuple_count=20)
    out = tmp_path / "o"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    argv = ["evaluate", "--log", str(out / "errors.log"), "--report", str(tmp_path / "report.json")]
    argv += [f"--{which}={out / 'dirty.ndjson' if which == 'repaired' else out / f'{which}.ndjson'}"
             for which in ("clean", "dirty", "repaired")]
    assert _dirtygen_modules("import dirtygen") == ["dirtygen"]
    # Nor does it load dataclasses, which imports inspect: a few ms of every evaluate.
    code = f"from dirtygen.cli import main\nassert main({argv!r}) == 0\nassert not {{'dataclasses', 'inspect'}} & set(sys.modules)"
    assert _dirtygen_modules(code) == [
        "dirtygen", "dirtygen.cli", "dirtygen.evalkit", "dirtygen.exceptions", "dirtygen.output",
        "dirtygen.taxonomy",
    ]
    assert json.loads((tmp_path / "report.json").read_text())["counts"]["false_negatives"] > 0
    for argv in (["validate", "--config", str(config)], ["generate", "--config", str(config), "--out", str(out)]):
        code = f"from dirtygen.cli import main\nassert main({argv!r}) == 0\nassert 'statistics' not in sys.modules"
        loaded = _dirtygen_modules(code)
        assert "dirtygen.errortypes" in loaded and "dirtygen.evalkit" not in loaded, argv


def test_evaluate_noop_repair_zero_recall(tmp_path):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=100)
    out = tmp_path / "o"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--clean", str(out / "clean.ndjson"),
            "--dirty", str(out / "dirty.ndjson"),
            "--repaired", str(out / "dirty.ndjson"),
            "--log", str(out / "errors.log"),
            "--report", str(report),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["overall"]["detection_recall"] == 0.0


def test_evaluate_shape_mismatch_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=50)
    out = tmp_path / "o"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    short = tmp_path / "short.ndjson"
    lines = (out / "dirty.ndjson").read_text().splitlines()[:-1]
    short.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(
        [
            "evaluate",
            "--clean", str(out / "clean.ndjson"),
            "--dirty", str(out / "dirty.ndjson"),
            "--repaired", str(short),
            "--log", str(out / "errors.log"),
            "--report", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2
    assert not (tmp_path / "report.json").exists()


def test_evaluate_log_of_a_larger_run_exit_2(tmp_path, capsys):
    # Scored against a 20-tuple run, a 100-tuple run's log names cells of
    # rows the datasets do not have.
    errors = ERRORS[:2]  # no inserted rows
    runs = {}
    for count in (100, 20):
        runs[count] = tmp_path / f"o{count}"
        config = write_config(tmp_path, errors=errors, tuple_count=count)
        assert main(["generate", "--config", str(config), "--out", str(runs[count])]) == 0
    small = runs[20]
    capsys.readouterr()
    code = main(
        [
            "evaluate",
            "--clean", str(small / "clean.ndjson"),
            "--dirty", str(small / "dirty.ndjson"),
            "--repaired", str(small / "dirty.ndjson"),
            "--log", str(runs[100] / "errors.log"),
            "--report", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("evaluation error: log names a cell outside the base rows")
    assert not (tmp_path / "report.json").exists()


def test_manifest_reproducible_except_duration(tmp_path):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=100)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["generate", "--config", str(config), "--out", str(out_b)]) == 0
    manifest_a = json.loads((out_a / "run-manifest.json").read_text())
    manifest_b = json.loads((out_b / "run-manifest.json").read_text())
    manifest_a.pop("duration_seconds")
    manifest_b.pop("duration_seconds")
    assert manifest_a == manifest_b


def _fail_from_row(monkeypatch, limit: int) -> None:
    """Make injection raise on the first planned row at or past limit."""
    import dirtygen.inject

    inject_row = dirtygen.inject.inject_row

    def failing(clean, entries, row, config):
        if row >= limit:
            raise GenerationError(f"injector failed at row {row}")
        return inject_row(clean, entries, row, config)

    monkeypatch.setattr(dirtygen.inject, "inject_row", failing)


@pytest.mark.parametrize("shard_count", [1, 3])
def test_failed_generate_leaves_no_outputs(tmp_path, monkeypatch, capsys, shard_count):
    # The failure comes after whole blocks and shards were written: none of
    # them, no log, no manifest and no temporary file remains, and every file
    # was closed (an unclosed one warns in development mode).
    doc = json.loads(make_config_text(errors=ERRORS, tuple_count=600))
    doc["generation"]["scaling"] = {"shard_count": shard_count}
    config = write_config(tmp_path, text=json.dumps(doc))
    out = tmp_path / "out"
    _fail_from_row(monkeypatch, 400)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        gc.collect()
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith("generation error: injector failed at row 4")
    assert not out.exists()


def test_failed_generate_removes_the_directories_it_made(tmp_path, monkeypatch):
    # Every missing parent of the output directory goes too, deepest first;
    # a directory that was there before the run stays.
    config = write_config(tmp_path, errors=ERRORS, tuple_count=600)
    _fail_from_row(monkeypatch, 400)
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "a" / "b" / "out")]) == 2
    assert not (tmp_path / "a").exists()
    (tmp_path / "kept").mkdir()
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "kept" / "b" / "out")]) == 2
    assert sorted(tmp_path.joinpath("kept").iterdir()) == []


def test_failed_rerun_keeps_the_earlier_run(tmp_path, monkeypatch):
    config = write_config(tmp_path, errors=ERRORS, tuple_count=600)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    earlier = {path.name: path.read_bytes() for path in out.iterdir()}
    _fail_from_row(monkeypatch, 400)
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier


def test_console_entry_point_runs(tmp_path):
    config = write_config(tmp_path, errors=[], tuple_count=10)
    code, out, err = run_cli("validate", "--config", str(config))
    assert code == 0, err
    assert "config ok" in out


def test_version_flag():
    code, out, err = run_cli("--version")
    assert code == 0
    assert "dirtygen" in out


def test_sharded_generation(tmp_path):
    doc = json.loads(make_config_text(errors=ERRORS, tuple_count=100))
    doc["generation"]["scaling"] = {"column_replication": 0, "shard_count": 3}
    config = write_config(tmp_path, text=json.dumps(doc))
    out = tmp_path / "o"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    clean_shards = sorted(out.glob("clean.*.ndjson"))
    dirty_shards = sorted(out.glob("dirty.*.ndjson"))
    assert len(clean_shards) == 3 and len(dirty_shards) == 3
    total = sum(len(p.read_text().splitlines()) for p in clean_shards)
    assert total == 100
    # The shards, in order, are the one-shard run's files byte for byte; the
    # logs differ only in their header, which holds the config hash.
    doc["generation"]["scaling"]["shard_count"] = 1
    single = tmp_path / "single"
    single.mkdir()
    assert main(["generate", "--config", str(write_config(single, text=json.dumps(doc))), "--out", str(single)]) == 0
    for which, shards in (("clean", clean_shards), ("dirty", dirty_shards)):
        assert b"".join(p.read_bytes() for p in shards) == (single / f"{which}.ndjson").read_bytes(), which
    logs = [(d / "errors.log").read_text(encoding="utf-8").split("\n", 1) for d in (out, single)]
    assert logs[0][0] != logs[1][0] and logs[0][1] == logs[1][1]


def _offdomain_config(directory: Path) -> Path:
    """A config whose schema and offdomain source both name words.txt, a path
    relative to the config file's directory."""
    directory.mkdir()
    (directory / "words.txt").write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
    words = {"kind": "lexicon", "path": "words.txt"}
    doc = {
        "schema": [
            {"name": "w", "datatype": "string", "source": words},
            {"name": "city", "datatype": "string", "source": {"kind": "set", "values": ["Berlin", "Munich"]}},
        ],
        "errors": [{"type": "irrelevant_observation", "rate": 0.2, "params": {"offdomain": {"city": words}}}],
        "generation": {"tuple_count": 20, "seed": 4},
    }
    path = directory / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_offdomain_lexicon_path_resolves_against_the_config_directory(tmp_path, monkeypatch, capsys):
    config = _offdomain_config(tmp_path / "offd")
    monkeypatch.chdir(config.parent)
    assert main(["validate", "--config", "c.json"]) == 0
    from_inside = capsys.readouterr().out
    # From the parent directory, where no words.txt exists, and from one
    # whose words.txt differs: the config's directory wins either way.
    for cwd_words in (None, "delta\nepsilon\n"):
        monkeypatch.chdir(tmp_path)
        if cwd_words is not None:
            (tmp_path / "words.txt").write_text(cwd_words, encoding="utf-8")
        assert main(["validate", "--config", "offd/c.json"]) == 0
        assert capsys.readouterr().out == from_inside  # same config hash
    out = tmp_path / "o"
    assert main(["generate", "--config", "offd/c.json", "--out", str(out)]) == 0
    log = (out / "errors.log").read_text(encoding="utf-8").splitlines()
    config_hash = re.search(r"config hash: (sha256:\w+)", from_inside).group(1)
    assert log[0].split("\t")[2] == f"config={config_hash}"
    drawn = {line.split("\t")[5] for line in log[1:] if line.split("\t")[2] == "city"}
    assert drawn and drawn <= {'"alpha"', '"beta"', '"gamma"'}


def _generate_and_repair(tmp_path, mode):
    """Generate the ERRORS config in `mode` and write a partial repair in the
    same format: the first half of the rows set to clean, the inserted rows
    alternately deleted and kept."""
    config = write_config(tmp_path, errors=ERRORS, tuple_count=120, output={"mode": mode})
    out = tmp_path / mode
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    extension = "ndjson" if mode == "ndjson" else "json"
    clean = list(read_dataset(out / f"clean.{extension}"))
    dirty = list(read_dataset(out / f"dirty.{extension}"))
    repaired = [
        clean[i] if i < len(clean) // 2 else row if i < len(clean) or i % 2 else None
        for i, row in enumerate(dirty)
    ]
    write_records(repaired, OutputSpec(directory=tmp_path / f"{mode}-repair", mode=mode), "repaired")
    return [
        "evaluate",
        "--clean", str(out / f"clean.{extension}"),
        "--dirty", str(out / f"dirty.{extension}"),
        "--repaired", str(tmp_path / f"{mode}-repair" / f"repaired.{extension}"),
        "--log", str(out / "errors.log"),
    ]


def test_evaluate_json_array_reports_as_ndjson(tmp_path, capsys):
    reports = []
    for mode in ("ndjson", "json_array"):
        report = tmp_path / f"{mode}.report.json"
        argv = _generate_and_repair(tmp_path, mode)
        capsys.readouterr()
        assert main(argv + ["--report", str(report)]) == 0
        reports.append((report.read_bytes(), capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert json.loads(reports[0][0])["counts"]["correct_repairs"] > 0


_INPUT_FLAGS = ["--clean", "--dirty", "--repaired", "--log"]


@pytest.mark.parametrize("flag", _INPUT_FLAGS)
def test_evaluate_malformed_line_exit_2_without_report(tmp_path, capsys, flag):
    argv = _generate_and_repair(tmp_path, "ndjson")
    position = argv.index(flag) + 1
    path = Path(argv[position])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    middle = len(lines) // 2
    lines[middle] = '{"id":\n'
    broken = tmp_path / f"broken{path.suffix}"
    broken.write_text("".join(lines), encoding="utf-8")
    argv[position] = str(broken)
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(argv + ["--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {broken}: line {middle + 1}: ")
    assert not report.exists()


@pytest.mark.parametrize("flag", _INPUT_FLAGS)
def test_evaluate_missing_input_exit_3_without_report(tmp_path, capsys, flag):
    argv = _generate_and_repair(tmp_path, "ndjson")
    missing = tmp_path / "missing.ndjson"
    argv[argv.index(flag) + 1] = str(missing)
    report = tmp_path / "report.json"
    assert main(argv + ["--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(missing) in err
    assert not report.exists()


_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("fault", ["non_utf8", "deep"])
@pytest.mark.parametrize("flag", _INPUT_FLAGS)
def test_evaluate_undecodable_input_exit_2_without_report(tmp_path, capsys, flag, fault):
    # Bytes that are not UTF-8, and arrays nested past the decoder's depth,
    # are input errors like any malformed line.
    argv = _generate_and_repair(tmp_path, "ndjson")
    position = argv.index(flag) + 1
    path = Path(argv[position])
    lines = path.read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    if fault == "non_utf8":
        lines[middle] = b"\xff\n"
    elif flag == "--log":
        lines[middle] = b"0\t0\tcity\tmissing_value\t" + _DEEP + b"\tnull\n"
    else:
        lines[middle] = _DEEP + b"\n"
    broken = tmp_path / f"broken{path.suffix}"
    broken.write_bytes(b"".join(lines))
    argv[position] = str(broken)
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(argv + ["--report", str(report)]) == 2
    where = "not valid UTF-8" if fault == "non_utf8" else f"line {middle + 1}"
    assert capsys.readouterr().err.startswith(f"input error: {broken}: {where}: ")
    assert not report.exists()


def test_evaluate_reads_a_float_literal_out_of_range(tmp_path, capsys):
    # 1e999 reads as inf, which the writer's encoder refuses; comparing the
    # lists that hold it must not.
    paths = {}
    for name, line in [("clean", '{"a":[1]}'), ("dirty", '{"a":[1e999]}'), ("repaired", '{"a": [1e999]}')]:
        paths[name] = tmp_path / f"{name}.ndjson"
        paths[name].write_text(line + "\n", encoding="utf-8")
    log = tmp_path / "errors.log"
    log.write_text("# dirtygen-log-v1\n", encoding="utf-8")
    argv = ["evaluate", "--log", str(log)] + [f"--{name}={path}" for name, path in paths.items()]
    assert main(argv) == 0
    assert "flagged=0" in capsys.readouterr().out


def test_evaluate_never_tracebacks_on_deep_nesting(tmp_path, capsys):
    # The readers refuse a value nested past the decoder's limit (exit 2). A
    # value just under it, the same in dirty and repaired but not the same
    # text, is compared a few frames deeper and must not overflow there: it
    # scores (exit 0) or is an input error. The limit moves between Python
    # versions, so the depths are swept up to it: coarsely to the first
    # refusal, then one by one below it.
    log = tmp_path / "errors.log"
    log.write_text("# dirtygen-log-v1\n", encoding="utf-8")

    def evaluate(depth: int) -> int:
        value = "[" * depth + "1" + "]" * depth
        paths = {}
        for name, line in [("clean", f'{{"a":{value}}}'), ("dirty", f'{{"a":{value}}}'), ("repaired", f'{{"a": {value}}}')]:
            paths[name] = tmp_path / f"{name}.ndjson"
            paths[name].write_text(line + "\n", encoding="utf-8")
        code = main(["evaluate", "--log", str(log)] + [f"--{name}={path}" for name, path in paths.items()])
        err = capsys.readouterr().err
        assert code in (0, 2), (depth, code, err)
        assert code == 0 or err.startswith("input error: "), (depth, err)
        return code

    depth = 0
    while evaluate(depth) == 0:
        depth += 50
        assert depth < 50_000, "no depth was refused"
    for below in range(max(depth - 100, 0), depth):
        evaluate(below)
