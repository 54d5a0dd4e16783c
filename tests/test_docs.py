"""The examples in README.md and docs/config-reference.md run as documented."""

import importlib
import json
import re
from pathlib import Path

import pytest

import dirtygen
from dirtygen import parse_config
from dirtygen.cli import main as cli_main
from dirtygen.config import ATTRIBUTE, GENERATION, OUTPUT, SCALING, SOURCE, SOURCE_DATATYPES, Tagged
from dirtygen.errortypes import ERROR_TYPES

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


def _section(heading: str) -> str:
    text = (ROOT / "docs" / "config-reference.md").read_text(encoding="utf-8")
    return re.search(rf"^#+ {re.escape(heading)}\n(.*?)(?=^#+ |\Z)", text, flags=re.M | re.S).group(1)


def _field_column(heading: str, column: int = 1) -> dict[str, set[str]]:
    """Each table row under the heading: its first cell, unquoted -> the
    quoted names in the given cell."""
    rows = [line.strip().strip("|").split("|") for line in _section(heading).splitlines() if line.startswith("|")]
    return {row[0].strip().strip("`"): set(re.findall(r"`([^`]+)`", row[column])) for row in rows[2:]}


def _keys(section) -> set[str]:
    """A section's keys; a tagged one's also name its tag and the tag's values."""
    if isinstance(section, Tagged):
        return {section.tag, *section.choices}.union(*map(_keys, section.choices.values()))
    return set(section)


def test_config_reference_lists_the_grammar_keys():
    assert set(_field_column("Attributes")) == set(ATTRIBUTE)
    assert _field_column("Value sources") == {kind: _keys(choice) for kind, choice in SOURCE.choices.items()}
    assert _field_column("Value sources", 2) == {kind: set(types) for kind, types in SOURCE_DATATYPES.items()}
    assert _field_column("Type-specific params") == {
        name: set(etype.params) for name, etype in ERROR_TYPES.items() if etype.params
    }
    bullets = re.findall(r"^\* `(\w+)", _section("Generation and output"), flags=re.M)
    assert sorted(bullets) == sorted(({*GENERATION} - {"scaling"}) | {*SCALING, *OUTPUT})


def test_public_api_names_resolve():
    # README's library use imports from the package: every name it exports
    # must exist, and a star import must not fail on a removed one.
    namespace: dict = {}
    exec("from dirtygen import *", namespace)
    for name in dirtygen.__all__:
        assert namespace[name] is getattr(dirtygen, name)
        # The names load on first use, each from the module that defines it.
        module = importlib.import_module(f"dirtygen.{dirtygen._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name)
        assert getattr(namespace[name], "__module__", module.__name__) == module.__name__
    assert set(dirtygen.__all__) <= set(dir(dirtygen))
    with pytest.raises(AttributeError, match="^module 'dirtygen' has no attribute 'nosuch'$"):
        dirtygen.nosuch
