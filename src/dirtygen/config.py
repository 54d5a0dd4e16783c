"""Run-configuration parsing and validation.

A run is described by one JSON document with sections `schema`,
`dependencies`, `errors`, `generation`, and `output`. Its grammar is declared
once: every key of every section and of each value-source kind is one Field
entry below, with its JSON type, its default and its bound, and each error
type's params are such entries written in the type's own record
(ErrorType.params, errortypes.py). One walker enforces the grammar and
raises every shape, type and bound ConfigError; the hand-written checks
that follow only relate several keys (constraint interactions, domains,
dependencies, uniqueness, sequences, feasibility, and the attribute names an
error spec refers to).

parse_config turns the document into a fully validated GeneratorConfig:
every lexicon is loaded, every constraint cross-checked, every error spec
resolved to concrete target attributes with type-specific parameters, and
rate feasibility proven with exact integer target counts. A config that
parses is guaranteed to run without applicability errors. The config is the
one model of a run and nothing changes it afterwards: each attribute's domain
(domains.resolve) and column rule (datagen.column_rule, which clean_columns
applies to any block of tuples) are resolved here, once, and the config is
built before the errors section, whose hooks read that same object.

docs/config-reference.md explains the grammar; its tables are checked
against this one.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

from .datagen import column_rule
from .domains import MAX_MEMBERS, Domain, finite, resolve
from .exceptions import ConfigError, LexiconError
from .output import OutputSpec
from .rng import NORMAL_Z_BOUND
from .taxonomy import STAGE_CELL, STAGE_COLUMN, STAGE_ROW, round_half_away, split_count
from .templates import template_regex

BUNDLED_LEXICONS = ("first_names", "last_names", "cities", "streets", "words")

# ---------------------------------------------------------------------------
# Domain model


@dataclass
class DependencyRule:
    determinant: str
    dependent: str
    mapping: dict

    def signature(self) -> dict:
        return {
            "determinant": self.determinant,
            "dependent": self.dependent,
            "mapping": {json.dumps(k, ensure_ascii=False): v for k, v in self.mapping.items()},
        }


@dataclass
class AttributeSpec:
    name: str
    datatype: str  # "string" | "integer" | "float"
    source: dict | None = None  # the walked SOURCE entry, defaults filled in
    pattern: str | None = None
    interval: tuple[float, float] | None = None
    admissible_set: tuple | None = None
    unique: bool = False
    synonyms: dict | None = None
    nullable_in_clean: bool = False
    null_rate: float = 0.0
    # Resolved during parsing:
    dependency: DependencyRule | None = field(default=None, repr=False, compare=False)
    domain: Domain | None = field(default=None, repr=False, compare=False)
    # TupleBlock -> clean values; for a dependent, determinant column -> its column
    column: Callable | None = field(default=None, repr=False, compare=False)
    compiled_pattern: re.Pattern | None = field(default=None, repr=False, compare=False)
    # source_signature() as canonical JSON: one string to compare sources by
    source_json: str | None = field(default=None, repr=False, compare=False)

    def effective_pattern(self) -> re.Pattern | None:
        """The explicit pattern, or the regex implied by a template source."""
        if self.compiled_pattern is not None:
            return self.compiled_pattern
        if self.source is not None and self.source["kind"] == "template":
            return template_regex(self.source["template"])
        return None

    def satisfies(self, value) -> bool:
        """Pattern and interval check; admissible-set membership is separate."""
        if self.compiled_pattern is not None and not self.compiled_pattern.fullmatch(str(value)):
            return False
        if self.interval is not None:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return False
            if not self.interval[0] <= value <= self.interval[1]:
                return False
        return True

    def typed(self, value, what: str):
        """A JSON scalar as a value of the attribute's datatype; a mismatch is a ConfigError."""
        if value is None:
            _fail(f"{what} must not be null")
        if self.datatype == "string":
            if not isinstance(value, str):
                _fail(f"{what} must be a string")
            return value
        if self.datatype == "integer":
            if isinstance(value, bool) or not isinstance(value, int):
                if isinstance(value, str):
                    try:
                        return int(value)
                    except ValueError:
                        _fail(f"{what} is not an integer: {value!r}")
                if isinstance(value, float) and value.is_integer():
                    return int(value)
                _fail(f"{what} must be an integer")
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            _fail(f"{what} must be a number")
        try:
            number = float(value)
        except (ValueError, OverflowError):
            _fail(f"{what} is not a number: {value!r}")
        if not math.isfinite(number):
            _fail(f"{what} must be a finite number, got {value!r}")
        return number

    def source_signature(self) -> dict:
        if self.dependency is not None:
            return {"kind": "derived", "determinant": self.dependency.determinant}
        return source_signature(self.source)

    def signature(self) -> dict:
        """The declared fields (those compared), with the source's signature."""
        declared = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return declared | {"source": self.source_signature(), "synonyms": self.synonyms or None}


@dataclass
class ErrorSpec:
    error_type: str
    rate: float
    target_attributes: tuple[str, ...]  # resolved, possibly empty for row/insertion types
    population: int  # the rate's denominator: tuples, or tuples x target attributes
    count: int  # the exact number of errors to realize: round_half_away(rate x population)
    params: dict = field(default_factory=dict)

    def signature(self) -> dict:
        """The hashed form; the type's record says how its params enter it."""
        from .errortypes import ERROR_TYPES  # the registry imports this module

        return {
            "type": self.error_type,
            "rate": self.rate,
            "attributes": list(self.target_attributes),
            "params": ERROR_TYPES[self.error_type].signature(self.params),
        }


@dataclass
class GeneratorConfig:
    schema: tuple[AttributeSpec, ...]
    dependencies: tuple[DependencyRule, ...]
    errors: tuple[ErrorSpec, ...]
    tuple_count: int
    seed: int
    column_replication: int
    output: OutputSpec
    config_hash: str = ""
    attr_positions: dict = field(default_factory=dict, repr=False, compare=False)
    # (error type, target attribute or None) -> its spec; parse_config proves the keys unique.
    spec_by_target: dict = field(default_factory=dict, repr=False, compare=False)
    attribute_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # Where relative lexicon paths resolve first, schema and error params alike.
    base_dir: Path | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.attribute_names = tuple(a.name for a in self.schema)

    def attribute(self, name: str) -> AttributeSpec:
        return self.schema[self.attr_positions[name]]


# ---------------------------------------------------------------------------
# Lexicons


def load_lexicon(name_or_path: str, *, base_dir: Path | None = None) -> list[str]:
    """Load a lexicon: trimmed, order-preserving, duplicate-free, non-empty lines.

    Bundled names resolve to packaged word lists; anything else is treated as
    a file path (relative paths resolve against base_dir, then the working
    directory).
    """
    if name_or_path in BUNDLED_LEXICONS:
        text = resources.files("dirtygen").joinpath("lexicons", f"{name_or_path}.txt").read_text(encoding="utf-8")
    else:
        path = Path(name_or_path)
        if not path.is_absolute() and base_dir is not None and (base_dir / path).is_file():
            path = base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a null character in the path
            raise LexiconError(f"missing lexicon file: {name_or_path!r}") from exc
    seen = set()
    values = []
    for line in text.splitlines():
        line = line.strip()
        if line and line not in seen:
            seen.add(line)
            values.append(line)
    if not values:
        raise LexiconError(f"lexicon is empty: {name_or_path}")
    return values


# ---------------------------------------------------------------------------
# The grammar: every key of a config document, declared once

REQUIRED = object()  # the default of a key that must be given


class Field(NamedTuple):
    """One key of the grammar.

    type: a JSON type ("string", "integer", "number", "boolean", "list",
    "object" or "any"), a section (key -> Field) or a Tagged union of
    sections. default: REQUIRED; None for an optional key, where absent and
    null both leave the key out; or the value an absent key takes, where null
    is a type fault. bound: a predicate on the typed value; fails: what the
    message says, after the key's name, when the bound does not hold. items:
    the Field of a list's items or of an object's values.
    """

    type: object
    default: object = None
    bound: Callable | None = None
    fails: str = ""
    items: Field | None = None


class Tagged(NamedTuple):
    """A section whose keys depend on the value of its tag key."""

    tag: str
    noun: str  # what messages call the tag
    choices: dict  # tag value -> section, or a Tagged union nested in it


def _one_of(*values: str) -> tuple:
    return values.__contains__, f"must be one of {', '.join(values)}"


NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
POSITIVE = (lambda v: v > 0, "must be > 0")
_NON_EMPTY = (bool, "must not be empty")

SOURCE = Tagged("kind", "source kind", {
    "lexicon": {"name": Field("string"), "path": Field("string")},
    "numeric": Tagged("distribution", "distribution", {
        "uniform": {"min": Field("number", REQUIRED), "max": Field("number", REQUIRED)},
        "normal": {"mean": Field("number", REQUIRED), "stddev": Field("number", REQUIRED, *POSITIVE)},
    }),
    "template": {"template": Field("string", REQUIRED, *_NON_EMPTY)},
    "sequence": {"start": Field("number", 0), "step": Field("number", 1)},
    "set": {
        "values": Field("list", REQUIRED, *_NON_EMPTY),
        "weights": Field("list", None, lambda ws: sum(ws) > 0, "must have a positive sum",
                         Field("number", REQUIRED, *NON_NEGATIVE)),
    },
})
# The datatypes each source kind's values can take, unless an admissible_set
# is declared: it becomes the domain in the source's place.
_NUMERIC = ("integer", "float")
SOURCE_DATATYPES = {"lexicon": ("string",), "numeric": _NUMERIC, "template": ("string",), "sequence": _NUMERIC,
                    "set": ("string", *_NUMERIC)}

ATTRIBUTE = {
    "name": Field("string", REQUIRED, re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch,
                  "must be an identifier ([A-Za-z_][A-Za-z0-9_]*)"),
    "datatype": Field("string", REQUIRED, *_one_of("string", "integer", "float")),
    "source": Field(SOURCE),
    "pattern": Field("string"),
    "interval": Field("list", None, lambda v: len(v) == 2 and v[0] <= v[1],
                      "must be a [min, max] pair with min <= max", Field("number")),
    "admissible_set": Field("list", None, *_NON_EMPTY),
    "unique": Field("boolean", False),
    "synonyms": Field("object", None, items=Field(
        "list", REQUIRED, lambda v: v and len(set(v)) == len(v),
        "must be a non-empty list without duplicates", Field("string"))),
    "nullable_in_clean": Field("boolean", False),
    "null_rate": Field("number", 0.0, lambda r: 0 <= r < 1, "must be in [0, 1)"),
}

RULE = {
    "determinant": Field("string", REQUIRED),
    "dependent": Field("string", REQUIRED),
    "mapping": Field("object", REQUIRED, *_NON_EMPTY),
}

ERROR_SPEC = {
    "type": Field("string", REQUIRED),
    "rate": Field("number", REQUIRED, lambda r: 0 <= r <= 1, "must be in [0, 1]"),
    "attributes": Field("list", None, *_NON_EMPTY, Field("string")),
    "params": Field("object", {}),  # walked by the error type's own params section
}

MAX_SHARDS = 10_000
MAX_WIDTH = 10_000  # attributes after column replication
SCALING = {
    "column_replication": Field("integer", 0, *NON_NEGATIVE),  # bounded by MAX_WIDTH
    "shard_count": Field("integer", 1, lambda n: 1 <= n <= MAX_SHARDS, f"must be in [1, {MAX_SHARDS}]"),
}
GENERATION = {
    "tuple_count": Field("integer", REQUIRED, *NON_NEGATIVE),
    "seed": Field("integer", 0, lambda s: 0 <= s < 1 << 64, "must be an unsigned 64-bit integer"),
    "scaling": Field(SCALING, {}),
}
OUTPUT = {
    "directory": Field("string", "out"),
    "mode": Field("string", "ndjson", *_one_of("ndjson", "json_array")),
}
DOCUMENT = {
    "schema": Field("list", REQUIRED, bool, "must be a non-empty list of attributes", Field(ATTRIBUTE)),
    "dependencies": Field("list", None, items=Field(RULE)),
    "errors": Field("list", None, items=Field(ERROR_SPEC)),
    "generation": Field(GENERATION, REQUIRED),
    "output": Field(OUTPUT, {}),
}


# ---------------------------------------------------------------------------
# The walker


_JSON_TYPES = {
    "string": (str, "a string"),
    "integer": (int, "an integer"),
    "number": ((int, float), "a number"),
    "boolean": (bool, "a boolean"),
    "list": (list, "a list"),
    "object": (dict, "a JSON object"),
}


def _fail(message: str) -> None:
    raise ConfigError(message)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _walk(value, field: Field, what: str):
    """The value checked against its field: type, finiteness, items, bound.
    Sections come back as new dicts with their defaults filled in."""
    kind = field.type
    if isinstance(kind, (dict, Tagged)):
        if not isinstance(value, dict):
            _fail(f"{what} must be a JSON object")
        value = _walk_section(value, kind, what)
    elif kind != "any":
        types, noun = _JSON_TYPES[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind != "boolean"):
            _fail(f"{what} must be {noun}")
        if kind == "number" and not _is_finite(value):
            _fail(f"{what} must be a finite number")
        if field.items is not None and kind == "list":
            value = [_walk(item, field.items, f"{what}[{i}]") for i, item in enumerate(value)]
        elif field.items is not None:
            value = {key: _walk(item, field.items, f"{what} {key!r}") for key, item in value.items()}
    if field.bound is not None and not field.bound(value):
        _fail(f"{what} {field.fails}")
    return value


def _walk_section(raw: dict, section: dict | Tagged, what: str) -> dict:
    """Each key of the section walked, in declaration order; any other key is
    a fault. A Tagged section first picks its keys by the tag's value."""
    parsed = {}
    while isinstance(section, Tagged):
        tag = raw.get(section.tag)
        if not isinstance(tag, str) or tag not in section.choices:
            _fail(f"{what}: unknown {section.noun} {tag!r} (expected one of {', '.join(section.choices)})")
        parsed[section.tag] = tag
        section = section.choices[tag]
    unknown = set(raw) - set(section) - set(parsed)
    if unknown:
        _fail(f"{what or 'config'}: unknown key(s) {sorted(unknown)}")
    for key, field in section.items():
        value = raw.get(key, field.default)
        if value is None and field.default is None:
            continue
        parsed[key] = _walk(None if value is REQUIRED else value, field, f"{what} {key}".lstrip())
    return parsed


# ---------------------------------------------------------------------------
# Walked entries -> sources and attributes


def build_source(raw: dict, where: str, base_dir: Path | None = None) -> dict:
    """A walked SOURCE entry, which is the source itself, after the checks
    between its keys. A lexicon becomes its reference and its loaded values."""
    kind = raw["kind"]
    if kind == "lexicon":
        ref = raw.get("name") or raw.get("path")
        if not ref:
            _fail(f"{where}: lexicon requires 'name' or 'path'")
        return {"kind": kind, "name": ref, "values": tuple(load_lexicon(ref, base_dir=base_dir))}
    if kind == "set":
        if "weights" in raw and len(raw["weights"]) != len(raw["values"]):
            _fail(f"{where}: weights must match values in length")
    elif kind == "numeric" and raw["distribution"] == "uniform":
        low, high = raw["min"], raw["max"]
        if not low < high:
            _fail(f"{where}: uniform requires min < max")
        if not math.isfinite(float(high) - float(low)):
            _fail(f"{where}: max - min exceeds the float range")
    elif kind == "numeric":
        if not math.isfinite(abs(float(raw["mean"])) + NORMAL_Z_BOUND * float(raw["stddev"])):
            _fail(f"{where}: mean + {NORMAL_Z_BOUND} stddev exceeds the float range")
    return raw


def source_signature(source: dict) -> dict:
    """The hashed form of a source: a lexicon by its reference and content
    digest, a set with its weights ([] when none), any other as walked."""
    if source["kind"] == "lexicon":
        digest = hashlib.sha256("\n".join(source["values"]).encode("utf-8")).hexdigest()
        return {"kind": "lexicon", "name": source["name"], "sha256": digest}
    if source["kind"] == "set":
        return {"weights": [], **source}
    return source


def _compile_pattern(pattern: str, where: str) -> re.Pattern:
    # Python warns about a pattern whose meaning may change in a later
    # version; such a pattern could break byte-identity across interpreters.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return re.compile(pattern)
        except re.error as exc:
            _fail(f"{where}: invalid pattern: {exc}")
        except Warning as exc:
            _fail(f"{where}: pattern may change meaning in another Python version: {exc}")


def _attribute(raw: dict, base_dir: Path | None) -> AttributeSpec:
    """The attribute of a walked ATTRIBUTE entry, with the checks between its keys."""
    where = f"attribute '{raw['name']}'"
    if "source" in raw:
        raw["source"] = build_source(raw["source"], f"{where} source", base_dir)
    if "interval" in raw:
        raw["interval"] = tuple(raw["interval"])
    if "synonyms" in raw:
        raw["synonyms"] = {key: tuple(alts) for key, alts in raw["synonyms"].items()}
    attr = AttributeSpec(**raw)
    if attr.pattern is not None:
        attr.compiled_pattern = _compile_pattern(attr.pattern, where)
    if attr.interval is not None and attr.datatype == "string":
        _fail(f"{where}: interval requires a numeric datatype")
    if attr.admissible_set is not None:
        members = tuple(attr.typed(v, f"{where} admissible_set member") for v in attr.admissible_set)
        if len(set(members)) != len(members):
            _fail(f"{where}: admissible_set contains duplicates")
        attr.admissible_set = members
    if attr.synonyms is not None:
        if attr.datatype != "string":
            _fail(f"{where}: synonyms require datatype string")
        looping = [key for key, alts in attr.synonyms.items() if key in alts]
        if looping:
            _fail(f"{where}: {looping[0]!r} lists itself as a synonym")
    if attr.null_rate > 0 and not attr.nullable_in_clean:
        _fail(f"{where}: null_rate > 0 requires nullable_in_clean")
    return attr


# ---------------------------------------------------------------------------
# Constraint cross-validation


def _resolve_domain(attr: AttributeSpec, tuple_count: int) -> None:
    """Validate constraint interactions and resolve the attribute's Domain,
    listing the members of a finite one."""
    src, members = attr.source, attr.admissible_set
    if members is not None:
        pattern = attr.effective_pattern()  # a template's regex where no pattern is declared
        for member in members:
            if not attr.satisfies(member):
                _fail(
                    f"attribute '{attr.name}': admissible_set member {member!r} "
                    f"violates the declared pattern or interval"
                )
            if pattern is not None and pattern.fullmatch(str(member)) is None:  # only a template's can miss
                _fail(f"attribute '{attr.name}': admissible_set member {member!r} does not match the template "
                      f"{src['template']!r}")
    if src["kind"] == "set":
        typed = tuple(attr.typed(v, f"attribute '{attr.name}' set value") for v in src["values"])
        admits = finite(members or typed).contains  # without an admissible_set, every value is admitted
        for member in typed:
            if not attr.satisfies(member):
                _fail(
                    f"attribute '{attr.name}': set source value {member!r} "
                    f"violates the declared pattern or interval"
                )
            if not admits(member):
                _fail(f"attribute '{attr.name}': set source value {member!r} is outside the admissible_set")
        members = members or typed
    elif members is None:  # a declared admissible_set is the domain, whatever the source
        datatypes = SOURCE_DATATYPES[src["kind"]]
        if attr.datatype not in datatypes:
            noun = "datatype string" if datatypes == ("string",) else "a numeric datatype"
            _fail(f"attribute '{attr.name}': {src['kind']} sources require {noun}")
        if src["kind"] == "lexicon":
            members = tuple(v for v in src["values"] if attr.satisfies(v))
            if not members:
                _fail(
                    f"attribute '{attr.name}': no lexicon value satisfies the "
                    f"declared constraints"
                )
    if src["kind"] == "sequence" and attr.datatype == "integer":
        if src["start"] != int(src["start"]) or src["step"] != int(src["step"]):
            _fail(f"attribute '{attr.name}': integer sequences need integer start and step")
    # Fails where a uniform range and the interval leave nothing to draw, and
    # where a unique normal's interval holds no probability mass.
    attr.domain = resolve(attr, tuple_count, members)


def _validate_unique(attr: AttributeSpec, tuple_count: int) -> None:
    if not attr.unique:
        return
    if attr.dependency is not None:
        _fail(f"attribute '{attr.name}': dependent attributes cannot be unique")
    if attr.null_rate > 0:
        _fail(f"attribute '{attr.name}': unique attributes cannot draw nulls")
    src = attr.source
    kind = src["kind"]
    if kind == "numeric" and src["distribution"] == "normal" and attr.datatype == "integer":
        _fail(
            f"attribute '{attr.name}': unique integer attributes need a uniform, "
            f"sequence, template, or finite-set source"
        )
    if kind == "sequence" and src["step"] == 0:
        _fail(f"attribute '{attr.name}': a unique sequence needs step != 0")
    if kind == "template" and attr.compiled_pattern is not None:
        _fail(
            f"attribute '{attr.name}': unique template attributes must encode their "
            f"format in the template itself, not in a separate pattern"
        )
    if kind == "numeric" and attr.compiled_pattern is not None:
        _fail(f"attribute '{attr.name}': unique numeric attributes cannot take a pattern")
    size = attr.domain.size
    if size is not None and size < tuple_count:
        _fail(
            f"attribute '{attr.name}': unique source exhausted: the value domain has "
            f"{size} member(s) but {tuple_count} tuples were requested"
        )


def _validate_sequence(attr: AttributeSpec, tuple_count: int) -> None:
    """A sequence's first tuple_count values, its clean values, must stay in
    the float range and be members of its domain, which keeps the interval,
    the pattern and the admissible set."""
    if attr.source is None or attr.source["kind"] != "sequence" or tuple_count == 0:
        return
    at, contains = attr.domain.by_index, attr.domain.contains
    if not _is_finite(at(tuple_count - 1)):  # the values are linear in the tuple index
        _fail(f"attribute '{attr.name}': the sequence leaves the float range within {tuple_count} tuples")
    if attr.compiled_pattern is None and attr.admissible_set is None:
        tuples = (0, tuple_count - 1)  # linear values stay in an interval that holds both ends
    else:
        # Stops at the first miss: distinct values (step != 0) leave an
        # admissible set within len(admissible_set) + 1 tuples.
        tuples = range(tuple_count)
    miss = next((k for k in tuples if not contains(at(k))), None)
    if miss is not None:
        declared = [f"interval {list(attr.interval)}"] if attr.interval is not None else []
        declared += [f"pattern {attr.pattern!r}"] if attr.pattern is not None else []
        declared += ["admissible_set"] if attr.admissible_set is not None else []
        _fail(
            f"attribute '{attr.name}': sequence value {at(miss)!r} of tuple {miss} is outside the "
            + (" and the ".join(declared) or "sequence")
        )


# ---------------------------------------------------------------------------
# Dependencies


def _resolve_dependencies(attrs: list[AttributeSpec], raw_rules: list) -> list[DependencyRule]:
    """Attach and check the rules; returns them."""
    by_name = {a.name: a for a in attrs}
    rules: list[DependencyRule] = []
    dependents_seen = set()
    for raw in raw_rules:
        det, dep = raw["determinant"], raw["dependent"]
        if det not in by_name:
            _fail(f"dependency rule: unknown determinant attribute {det!r}")
        if dep not in by_name:
            _fail(f"dependency rule: unknown dependent attribute {dep!r}")
        if det == dep:
            _fail(f"dependency rule: determinant and dependent are both {det!r}")
        if dep in dependents_seen:
            _fail(f"attribute {dep!r} is the dependent of more than one rule")
        dependents_seen.add(dep)
        det_attr, dep_attr = by_name[det], by_name[dep]
        mapping = {}
        for key, value in raw["mapping"].items():
            typed_key = det_attr.typed(key, f"mapping key {key!r}")
            typed_value = dep_attr.typed(value, f"mapping value for {key!r}")
            if typed_key in mapping:
                _fail(f"dependency rule {det!r} -> {dep!r}: duplicate key {key!r}")
            mapping[typed_key] = typed_value
        rule = DependencyRule(determinant=det, dependent=dep, mapping=mapping)
        if by_name[dep].source is not None:
            _fail(
                f"attribute {dep!r} is dependent on {det!r} and must not declare "
                f"its own value source"
            )
        if by_name[dep].null_rate > 0:  # it is null exactly where its determinant is
            _fail(f"attribute {dep!r} is dependent on {det!r} and must not declare a null_rate")
        by_name[dep].dependency = rule
        by_name[dep].domain = finite(tuple(sorted(set(mapping.values()), key=repr)))
        rules.append(rule)

    _check_acyclic(attrs, by_name)

    # Totality and image validity; every rule is attached, so a chained
    # determinant's domain is its own rule's images.
    for rule in rules:
        det_attr, dep_attr = by_name[rule.determinant], by_name[rule.dependent]
        # Above MAX_MEMBERS values, checking totality would be disproportionate.
        domain = det_attr.domain.members()
        if domain is None:
            _fail(
                f"dependency rule {rule.determinant!r} -> {rule.dependent!r}: the "
                f"determinant needs a finite value domain of at most {MAX_MEMBERS} "
                f"values (lexicon, set, integer range, short sequence, or template)"
            )
        missing = [v for v in domain if v not in rule.mapping]
        if missing:
            _fail(
                f"dependency rule {rule.determinant!r} -> {rule.dependent!r}: mapping "
                f"is not total; first unmapped determinant value: {missing[0]!r}"
            )
        # The dependent's domain lists the images: only an admissible_set can refuse one.
        admits = finite(dep_attr.admissible_set or dep_attr.domain.values).contains
        for image in rule.mapping.values():
            if not dep_attr.satisfies(image) or not admits(image):
                _fail(
                    f"dependency rule {rule.determinant!r} -> {rule.dependent!r}: "
                    f"mapped value {image!r} violates the dependent's constraints"
                )
    return rules


# ---------------------------------------------------------------------------
# Error specs


def _parse_errors(errors_raw, config: GeneratorConfig) -> tuple[tuple[ErrorSpec, ...], dict]:
    """Parse every error spec against the config's resolved schema and rules,
    prove each (type, attribute) pair unique and every rate feasible. Returns
    the specs and their (type, attribute) index."""
    from .errortypes import ERROR_TYPES  # the registry imports this module

    typed = []
    for index, raw in enumerate(errors_raw):
        error_type = raw["type"]
        etype = ERROR_TYPES.get(error_type)
        if etype is None:
            _fail(f"errors[{index}]: unknown error type {error_type!r}")
        typed.append((etype, _parse_error_spec(raw, f"errors[{index}] ({error_type})", etype, config)))

    spec_by_target = {}
    for index, (etype, spec) in enumerate(typed):
        for key in etype.targets(spec) or (None,):
            pair = (spec.error_type, key)
            if pair in spec_by_target:
                _fail(
                    f"errors[{index}]: duplicate spec for error type "
                    f"'{spec.error_type}' on attribute {key!r}"
                )
            spec_by_target[pair] = spec

    _check_feasibility(config, typed)
    return tuple(spec for _, spec in typed), spec_by_target


def _parse_error_spec(raw: dict, where: str, etype, config: GeneratorConfig) -> ErrorSpec:
    params = _walk_section(raw["params"], etype.params, f"{where} params")
    targets_raw = raw.get("attributes")
    if etype.applicable is not None:
        if targets_raw is not None:
            for name in targets_raw:
                if name not in config.attr_positions:
                    _fail(f"{where}: unknown attribute {name!r}")
                if not etype.applicable(config.attribute(name), config):
                    _fail(f"{where}: type not applicable to attribute {name!r}")
            targets = tuple(targets_raw)
        else:
            targets = tuple(a.name for a in config.schema if etype.applicable(a, config))
            if not targets:
                _fail(f"{where}: no attribute in the schema is applicable")
        if etype.single_target and len(targets) != 1:
            _fail(
                f"{where}: takes exactly one target attribute; declare one spec "
                f"per attribute"
            )
    else:
        if targets_raw is not None:
            _fail(f"{where}: this error type does not take target attributes")
        targets = ()

    if etype.parse is not None:
        etype.parse(params, where, config)
    population = config.tuple_count * (1 if etype.per_tuple else len(targets))
    count = round_half_away(raw["rate"] * population)
    spec = ErrorSpec(etype.name, raw["rate"], targets, population, count, params)
    if etype.bound is not None:
        for name in etype.targets(spec):
            if not math.isfinite(etype.bound(config.attribute(name), params)):
                _fail(f"{where}: values injected into {name!r} would exceed the float range")
    return spec


# ---------------------------------------------------------------------------
# Feasibility


def _check_feasibility(config: GeneratorConfig, typed: list) -> None:
    n = config.tuple_count
    row_claims = 0
    for i, (etype, spec) in enumerate(typed):
        if etype.stage == STAGE_ROW:
            row_claims += spec.count
            if row_claims > n:
                _fail(
                    f"errors[{i}] ({spec.error_type}): infeasible rate; row-scope "
                    f"errors claim {row_claims} of {n} tuples"
                )
    available = n - row_claims
    per_attr = dict.fromkeys(config.attribute_names, 0)
    for i, (etype, spec) in enumerate(typed):
        if etype.stage not in (STAGE_COLUMN, STAGE_CELL):
            continue
        if etype.shortfall is not None:
            continue  # may realize below target by design; never oversubscribes
        targets, count = spec.target_attributes, spec.count
        if etype.claims_donor and count > max(n - 1, 0):
            _fail(
                f"errors[{i}] ({spec.error_type}): infeasible rate; needs {count} "
                f"targets but only {max(n - 1, 0)} tuples have an earlier donor"
            )
        charges = split_count(count, len(targets)) if targets else []
        for attr_name, charge in zip(targets, charges):
            if etype.claims_donor:
                charge *= 2  # the donor cell is claimed too
            per_attr[attr_name] += charge
            if per_attr[attr_name] > available:
                _fail(
                    f"errors[{i}] ({spec.error_type}): infeasible rate; "
                    f"{per_attr[attr_name]} cell claims on attribute "
                    f"'{attr_name}' exceed the {available} available tuples"
                )


# ---------------------------------------------------------------------------
# Top-level parsing


def parse_config(
    text: str,
    *,
    base_dir: Path | None = None,
    seed_override: int | None = None,
    output_dir_override: str | Path | None = None,
) -> GeneratorConfig:
    """Parse and fully validate a configuration document: the walker checks
    it against the grammar, then the checks between keys run."""
    too_deep = "config nests arrays or objects too deeply"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError(too_deep) from None
    try:
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        _fail("config contains a lone surrogate escape, which is not valid Unicode")
    except RecursionError:  # json.loads reads deeper documents than json.dumps writes
        raise ConfigError(too_deep) from None
    if not isinstance(doc, dict):
        _fail("config document must be a JSON object")
    doc = _walk_section(doc, DOCUMENT, "")

    generation, output_raw = doc["generation"], doc["output"]
    tuple_count, scaling = generation["tuple_count"], generation["scaling"]
    seed = generation["seed"] if seed_override is None else _walk(seed_override, GENERATION["seed"], "seed")
    replication = scaling["column_replication"]
    width = (1 + replication) * len(doc["schema"])
    if width > MAX_WIDTH:
        _fail(
            f"generation scaling column_replication {replication} would make {width} "
            f"attributes of {len(doc['schema'])}, more than {MAX_WIDTH}"
        )

    attrs = [_attribute(raw, base_dir) for raw in doc["schema"]]
    names = [a.name for a in attrs]
    if len(set(names)) != len(names):
        dupe = next(n for n in names if names.count(n) > 1)
        _fail(f"duplicate attribute name: {dupe!r}")

    raw_rules = doc.get("dependencies", [])
    dependents = {rule["dependent"] for rule in raw_rules}  # the rules are checked below

    # Column replication: clone attributes (not dependency rules) with
    # suffixed names before any further validation.
    if replication > 0:
        clones = []
        for attr in attrs:
            if attr.name in dependents:
                continue
            for j in range(1, replication + 1):
                clone_name = f"{attr.name}_r{j}"
                if clone_name in names:
                    _fail(
                        f"column replication would create {clone_name!r}, which "
                        f"is already declared"
                    )
                clones.append(replace(attr, name=clone_name))
        attrs.extend(clones)
        names = [a.name for a in attrs]

    for attr in attrs:
        if attr.source is None and attr.name not in dependents:
            _fail(f"attribute '{attr.name}' declares no value source and no dependency rule")
        if attr.source is not None:
            _resolve_domain(attr, tuple_count)

    dependencies = _resolve_dependencies(attrs, raw_rules)

    for attr in attrs:
        _validate_sequence(attr, tuple_count)
        _validate_unique(attr, tuple_count)
        if attr.synonyms is not None:
            orphan = [k for k in attr.synonyms if not attr.domain.contains(k)]
            if orphan:
                _fail(
                    f"attribute '{attr.name}': synonym key {orphan[0]!r} can "
                    f"never be generated"
                )
        attr.column = column_rule(attr, seed)
        attr.source_json = json.dumps(attr.source_signature(), sort_keys=True)

    directory = output_raw["directory"] if output_dir_override is None else output_dir_override
    output = OutputSpec(Path(directory), output_raw["mode"], scaling["shard_count"])

    config = GeneratorConfig(
        schema=tuple(attrs),
        dependencies=tuple(dependencies),
        errors=(),
        tuple_count=tuple_count,
        seed=seed,
        column_replication=replication,
        output=output,
        attr_positions={a.name: i for i, a in enumerate(attrs)},
        base_dir=base_dir,
    )
    config.errors, config.spec_by_target = _parse_errors(doc.get("errors", []), config)
    try:
        config.config_hash = compute_config_hash(config)
    except RecursionError:  # an offdomain set value nested just below the first check's limit
        raise ConfigError(too_deep) from None
    return config


def _check_acyclic(attrs: list[AttributeSpec], by_name: dict) -> None:
    """Walk up each attribute's determinant chain, in schema order, to the
    first attribute already reached; one this walk reached closes a cycle."""
    reached: set[str] = set()
    for attr in attrs:
        chain = set()  # attr and its determinants not reached before
        while attr is not None and attr.name not in reached:
            reached.add(attr.name)
            chain.add(attr.name)
            attr = None if attr.dependency is None else by_name[attr.dependency.determinant]
        if attr is not None and attr.name in chain:
            _fail(f"dependency rules form a cycle involving {attr.name!r}")


def load_config(
    path: str | Path,
    *,
    seed_override: int | None = None,
    output_dir_override: str | Path | None = None,
) -> GeneratorConfig:
    """Read and parse a configuration file; relative lexicon paths resolve
    against the config file's directory."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(
        text,
        base_dir=path.parent,
        seed_override=seed_override,
        output_dir_override=output_dir_override,
    )


def compute_config_hash(config: GeneratorConfig) -> str:
    """Stable SHA-256 over the canonical resolved configuration.

    Lexicon references are replaced by content digests, so the hash changes
    when a lexicon file changes. The output directory is excluded: moving a
    run must not change its identity.
    """
    canonical = {
        "schema": [a.signature() for a in config.schema],
        "dependencies": [r.signature() for r in config.dependencies],
        "errors": [s.signature() for s in config.errors],
        "generation": {
            "tuple_count": config.tuple_count,
            "seed": config.seed,
            "column_replication": config.column_replication,
            "shard_count": config.output.shard_count,
        },
        "output": {"mode": config.output.mode},
    }
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
