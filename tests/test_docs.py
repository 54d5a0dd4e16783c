"""The examples in README.md and docs/config-reference.md run as documented."""

import json
import re
from pathlib import Path

import pytest

import dirtygen
from dirtygen import parse_config
from dirtygen.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def _blocks(path: Path, language: str) -> dict[str, list[str]]:
    """The fenced code blocks of one language, by the heading they sit under."""
    by_heading: dict[str, list[str]] = {}
    heading = ""
    for part in re.split(r"^(#+ .*|```\w*\n[\s\S]*?^```)$", path.read_text(encoding="utf-8"), flags=re.M):
        if part.startswith("#"):
            heading = part.lstrip("#").strip()
        elif part.startswith(f"```{language}\n"):
            by_heading.setdefault(heading, []).append(part[len(language) + 4 : -3])
    return by_heading


def test_readme_minimal_config_parses_and_generates(tmp_path):
    (text,) = _blocks(ROOT / "README.md", "json")["Quick start"]
    config = parse_config(text)
    assert config.tuple_count == 1000
    path = tmp_path / "minimal.json"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "clean.ndjson",
        "dirty.ndjson",
        "errors.log",
        "run-manifest.json",
    ]


def test_readme_library_use_runs(monkeypatch):
    (code,) = _blocks(ROOT / "README.md", "python")["Library use"]
    *setup, last = code.strip().splitlines()
    monkeypatch.chdir(ROOT)  # the snippet names sample_configs/demo.json
    namespace: dict = {}
    exec("\n".join(setup), namespace)
    namespace["repaired_records"] = namespace["dirty"]  # left to the reader: a tool's output
    exec(last, namespace)
    assert isinstance(namespace["metrics"], dirtygen.RepairMetrics)


def _minimal_doc() -> dict:
    return {
        "schema": [
            {"name": "city", "datatype": "string", "source": {"kind": "set", "values": ["Berlin"]}},
            {"name": "zip", "datatype": "string", "source": {"kind": "set", "values": ["10115"]}},
        ],
        "generation": {"tuple_count": 10},
    }


@pytest.mark.parametrize("heading", ["Attributes", "Dependencies", "Error specs"])
def test_config_reference_examples_parse(heading):
    # Each example, placed in a minimal document that declares what it names.
    (text,) = _blocks(ROOT / "docs" / "config-reference.md", "json")[heading]
    example = json.loads(text)
    doc = _minimal_doc()
    if heading == "Attributes":
        doc["schema"].append(example)
    elif heading == "Dependencies":
        doc["dependencies"] = [example]
        del doc["schema"][1]["source"]  # a dependent declares no source
    else:
        doc["errors"] = [example]
    config = parse_config(json.dumps(doc))
    if heading == "Attributes":
        assert config.attribute(example["name"]).interval == tuple(example["interval"])
    elif heading == "Dependencies":
        assert config.attribute("zip").dependency.mapping == example["mapping"]
    else:
        assert config.errors[0].target_attributes == tuple(example["attributes"])
