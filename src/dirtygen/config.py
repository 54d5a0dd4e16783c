"""Run-configuration parsing and validation.

A run is described by one JSON document with sections `schema`,
`dependencies`, `errors`, `generation`, and `output`. parse_config turns the
document into a fully validated GeneratorConfig: every lexicon is loaded,
every constraint cross-checked, every error spec resolved to concrete target
attributes with type-specific parameters, and rate feasibility proven with
exact integer target counts. A config that parses is guaranteed to run
without applicability errors. The config is the one model of a run and
nothing changes it afterwards: each attribute's domain (domains.resolve) and
clean-cell rule (datagen.cell_rule) are resolved here, once, and the config
is built before the errors section, whose hooks read that same object.

The full grammar is documented in docs/config-reference.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable

from .datagen import cell_rule
from .domains import MAX_MEMBERS, Domain, finite, resolve
from .exceptions import ConfigError, LexiconError
from .output import OutputSpec
from .rng import NORMAL_Z_BOUND
from .taxonomy import STAGE_CELL, STAGE_COLUMN, STAGE_ROW, split_count
from .templates import template_regex

BUNDLED_LEXICONS = ("first_names", "last_names", "cities", "streets", "words")
LEXICON_DIR_ENV = "DIRTYGEN_LEXICON_DIR"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# Value sources


@dataclass(frozen=True)
class LexiconSource:
    name: str  # bundled name or the path as given
    values: tuple[str, ...] = field(repr=False)

    kind = "lexicon"

    def signature(self) -> dict:
        digest = hashlib.sha256("\n".join(self.values).encode("utf-8")).hexdigest()
        return {"kind": "lexicon", "name": self.name, "sha256": digest}


@dataclass(frozen=True)
class NumericSource:
    distribution: str  # "uniform" | "normal"
    low: float = 0.0
    high: float = 0.0
    mean: float = 0.0
    stddev: float = 0.0

    kind = "numeric"

    def signature(self) -> dict:
        if self.distribution == "uniform":
            return {"kind": "numeric", "distribution": "uniform", "min": self.low, "max": self.high}
        return {
            "kind": "numeric",
            "distribution": "normal",
            "mean": self.mean,
            "stddev": self.stddev,
        }


@dataclass(frozen=True)
class TemplateSource:
    template: str

    kind = "template"

    def signature(self) -> dict:
        return {"kind": "template", "template": self.template}


@dataclass(frozen=True)
class SequenceSource:
    start: float
    step: float

    kind = "sequence"

    def signature(self) -> dict:
        return {"kind": "sequence", "start": self.start, "step": self.step}


@dataclass(frozen=True)
class ConstantSetSource:
    values: tuple
    weights: tuple[float, ...] | None = None

    kind = "set"

    def signature(self) -> dict:
        return {"kind": "set", "values": list(self.values), "weights": list(self.weights or ())}


ValueSource = LexiconSource | NumericSource | TemplateSource | SequenceSource | ConstantSetSource


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
    source: ValueSource | None = None
    pattern: str | None = None
    interval: tuple[float, float] | None = None
    admissible_set: tuple | None = None
    unique: bool = False
    synonyms: dict | None = None
    nullable_in_clean: bool = False
    null_rate: float = 0.0
    # Resolved during parsing:
    dependency: DependencyRule | None = field(default=None, repr=False, compare=False)
    finite_domain: tuple | None = field(default=None, repr=False, compare=False)
    domain: Domain | None = field(default=None, repr=False, compare=False)
    # tuple index -> clean value; for a dependent, determinant value -> clean value
    cell: Callable | None = field(default=None, repr=False, compare=False)
    compiled_pattern: re.Pattern | None = field(default=None, repr=False, compare=False)

    def effective_pattern(self) -> re.Pattern | None:
        """The explicit pattern, or the regex implied by a template source."""
        if self.compiled_pattern is not None:
            return self.compiled_pattern
        if isinstance(self.source, TemplateSource):
            return template_regex(self.source.template)
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

    def source_signature(self) -> dict:
        if self.dependency is not None:
            return {"kind": "derived", "determinant": self.dependency.determinant}
        return self.source.signature()

    def signature(self) -> dict:
        return {
            "name": self.name,
            "datatype": self.datatype,
            "source": self.source_signature(),
            "pattern": self.pattern,
            "interval": list(self.interval) if self.interval else None,
            "admissible_set": list(self.admissible_set) if self.admissible_set else None,
            "unique": self.unique,
            "synonyms": {k: list(v) for k, v in self.synonyms.items()} if self.synonyms else None,
            "nullable_in_clean": self.nullable_in_clean,
            "null_rate": self.null_rate,
        }


@dataclass(frozen=True)
class ScalingSpec:
    column_replication: int = 0


@dataclass
class ErrorSpec:
    error_type: str
    rate: float
    target_attributes: tuple[str, ...]  # resolved, possibly empty for row/insertion types
    params: dict = field(default_factory=dict)

    def signature(self) -> dict:
        return {
            "type": self.error_type,
            "rate": self.rate,
            "attributes": list(self.target_attributes),
            "params": self.params,
        }


@dataclass
class GeneratorConfig:
    schema: tuple[AttributeSpec, ...]
    dependencies: tuple[DependencyRule, ...]
    errors: tuple[ErrorSpec, ...]
    tuple_count: int
    seed: int
    scaling: ScalingSpec
    output: OutputSpec
    config_hash: str = ""
    attr_positions: dict = field(default_factory=dict, repr=False, compare=False)
    eval_order: tuple[str, ...] = ()
    # (error type, target attribute or None) -> its spec; parse_config proves the keys unique.
    spec_by_target: dict = field(default_factory=dict, repr=False, compare=False)
    attribute_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

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
    directory). The DIRTYGEN_LEXICON_DIR environment variable points at a
    directory whose <name>.txt files override the bundled lists.
    """
    text = None
    override_dir = os.environ.get(LEXICON_DIR_ENV)
    if override_dir and name_or_path in BUNDLED_LEXICONS:
        candidate = Path(override_dir) / f"{name_or_path}.txt"
        if candidate.is_file():
            text = candidate.read_text(encoding="utf-8")
    if text is None and name_or_path in BUNDLED_LEXICONS:
        text = (
            resources.files("dirtygen")
            .joinpath("lexicons", f"{name_or_path}.txt")
            .read_text(encoding="utf-8")
        )
    if text is None:
        path = Path(name_or_path)
        if not path.is_absolute() and base_dir is not None and (base_dir / path).is_file():
            path = base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LexiconError(f"missing lexicon file: {name_or_path}") from exc
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
# Parsing helpers


def _fail(message: str) -> None:
    raise ConfigError(message)


def _expect_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        _fail(f"{what} must be a JSON object")
    return value


def _expect_keys(mapping: dict, allowed: set[str], what: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        _fail(f"{what}: unknown key(s) {sorted(unknown)}")


def _expect_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{what} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        _fail(f"{what} must be a finite number")
    return value


def _expect_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{what} must be an integer")
    return value


def _coerce(value, datatype: str, what: str):
    """Coerce a JSON scalar to the attribute datatype; reject mismatches."""
    if value is None:
        _fail(f"{what} must not be null")
    if datatype == "string":
        if not isinstance(value, str):
            _fail(f"{what} must be a string")
        return value
    if datatype == "integer":
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


def _parse_source(raw, attr_name: str, base_dir: Path | None) -> ValueSource:
    raw = _expect_mapping(raw, f"attribute '{attr_name}' source")
    kind = raw.get("kind")
    where = f"attribute '{attr_name}' source"
    if kind == "lexicon":
        _expect_keys(raw, {"kind", "name", "path"}, where)
        ref = raw.get("name") or raw.get("path")
        if not ref or not isinstance(ref, str):
            _fail(f"{where}: lexicon requires 'name' or 'path'")
        return LexiconSource(name=ref, values=tuple(load_lexicon(ref, base_dir=base_dir)))
    if kind == "numeric":
        dist = raw.get("distribution")
        if dist == "uniform":
            _expect_keys(raw, {"kind", "distribution", "min", "max"}, where)
            low = _expect_number(raw.get("min"), f"{where} min")
            high = _expect_number(raw.get("max"), f"{where} max")
            if not low < high:
                _fail(f"{where}: uniform requires min < max")
            if not math.isfinite(float(high) - float(low)):
                _fail(f"{where}: max - min exceeds the float range")
            return NumericSource("uniform", low=low, high=high)
        if dist == "normal":
            _expect_keys(raw, {"kind", "distribution", "mean", "stddev"}, where)
            mean = _expect_number(raw.get("mean"), f"{where} mean")
            stddev = _expect_number(raw.get("stddev"), f"{where} stddev")
            if not stddev > 0:
                _fail(f"{where}: normal requires stddev > 0")
            if not math.isfinite(abs(float(mean)) + NORMAL_Z_BOUND * float(stddev)):
                _fail(f"{where}: mean + {NORMAL_Z_BOUND} stddev exceeds the float range")
            return NumericSource("normal", mean=mean, stddev=stddev)
        _fail(f"{where}: unknown distribution {dist!r} (expected 'uniform' or 'normal')")
    if kind == "template":
        _expect_keys(raw, {"kind", "template"}, where)
        template = raw.get("template")
        if not isinstance(template, str) or not template:
            _fail(f"{where}: template must be a non-empty string")
        return TemplateSource(template=template)
    if kind == "sequence":
        _expect_keys(raw, {"kind", "start", "step"}, where)
        start = _expect_number(raw.get("start", 0), f"{where} start")
        step = _expect_number(raw.get("step", 1), f"{where} step")
        return SequenceSource(start=start, step=step)
    if kind == "set":
        _expect_keys(raw, {"kind", "values", "weights"}, where)
        values = raw.get("values")
        if not isinstance(values, list) or not values:
            _fail(f"{where}: set requires a non-empty 'values' list")
        weights = raw.get("weights")
        if weights is not None:
            if not isinstance(weights, list) or len(weights) != len(values):
                _fail(f"{where}: weights must match values in length")
            weights = tuple(_expect_number(w, f"{where} weight") for w in weights)
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                _fail(f"{where}: weights must be non-negative with a positive sum")
        return ConstantSetSource(values=tuple(values), weights=weights)
    _fail(f"{where}: unknown source kind {kind!r}")


def _parse_attribute(raw, base_dir: Path | None) -> AttributeSpec:
    raw = _expect_mapping(raw, "schema entry")
    name = raw.get("name")
    if not isinstance(name, str) or not _IDENTIFIER.fullmatch(name):
        _fail(f"attribute name must be an identifier, got {name!r}")
    where = f"attribute '{name}'"
    _expect_keys(
        raw,
        {
            "name",
            "datatype",
            "source",
            "pattern",
            "interval",
            "admissible_set",
            "unique",
            "synonyms",
            "nullable_in_clean",
            "null_rate",
        },
        where,
    )
    datatype = raw.get("datatype")
    if datatype not in ("string", "integer", "float"):
        _fail(f"{where}: datatype must be one of string, integer, float")

    source = None
    if "source" in raw:
        source = _parse_source(raw["source"], name, base_dir)

    pattern = raw.get("pattern")
    compiled = None
    if pattern is not None:
        if not isinstance(pattern, str):
            _fail(f"{where}: pattern must be a string")
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            _fail(f"{where}: invalid pattern: {exc}")

    interval = raw.get("interval")
    if interval is not None:
        if not isinstance(interval, list) or len(interval) != 2:
            _fail(f"{where}: interval must be a [min, max] pair")
        lo = _expect_number(interval[0], f"{where} interval min")
        hi = _expect_number(interval[1], f"{where} interval max")
        if datatype == "string":
            _fail(f"{where}: interval requires a numeric datatype")
        if lo > hi:
            _fail(f"{where}: interval min must be <= max")
        interval = (lo, hi)

    admissible = raw.get("admissible_set")
    if admissible is not None:
        if not isinstance(admissible, list) or not admissible:
            _fail(f"{where}: admissible_set must be a non-empty list")
        admissible = tuple(
            _coerce(v, datatype, f"{where} admissible_set member") for v in admissible
        )
        if len(set(admissible)) != len(admissible):
            _fail(f"{where}: admissible_set contains duplicates")

    synonyms = raw.get("synonyms")
    if synonyms is not None:
        if datatype != "string":
            _fail(f"{where}: synonyms require datatype string")
        synonyms = _expect_mapping(synonyms, f"{where} synonyms")
        parsed = {}
        for key, alts in synonyms.items():
            if not isinstance(alts, list) or not alts:
                _fail(f"{where}: synonyms for {key!r} must be a non-empty list")
            if any(not isinstance(a, str) for a in alts):
                _fail(f"{where}: synonyms must be strings")
            if len(set(alts)) != len(alts):
                _fail(f"{where}: synonym list for {key!r} contains duplicates")
            if key in alts:
                _fail(f"{where}: {key!r} lists itself as a synonym")
            parsed[key] = tuple(alts)
        synonyms = parsed

    unique = raw.get("unique", False)
    if not isinstance(unique, bool):
        _fail(f"{where}: unique must be a boolean")
    nullable = raw.get("nullable_in_clean", False)
    if not isinstance(nullable, bool):
        _fail(f"{where}: nullable_in_clean must be a boolean")
    null_rate = raw.get("null_rate", 0.0)
    null_rate = _expect_number(null_rate, f"{where} null_rate")
    if not 0 <= null_rate < 1:
        _fail(f"{where}: null_rate must be in [0, 1)")
    if null_rate > 0 and not nullable:
        _fail(f"{where}: null_rate > 0 requires nullable_in_clean")

    return AttributeSpec(
        name=name,
        datatype=datatype,
        source=source,
        pattern=pattern,
        interval=interval,
        admissible_set=admissible,
        unique=unique,
        synonyms=synonyms,
        nullable_in_clean=nullable,
        null_rate=null_rate,
        compiled_pattern=compiled,
    )


# ---------------------------------------------------------------------------
# Constraint cross-validation


def _resolve_domain(attr: AttributeSpec, tuple_count: int) -> None:
    """Validate constraint interactions, fix the finite generation domain and
    resolve the attribute's Domain."""
    if attr.admissible_set is not None:
        for member in attr.admissible_set:
            if not attr.satisfies(member):
                _fail(
                    f"attribute '{attr.name}': admissible_set member {member!r} "
                    f"violates the declared pattern or interval"
                )
        attr.finite_domain = attr.admissible_set
    elif isinstance(attr.source, ConstantSetSource):
        typed = tuple(
            _coerce(v, attr.datatype, f"attribute '{attr.name}' set value")
            for v in attr.source.values
        )
        for member in typed:
            if not attr.satisfies(member):
                _fail(
                    f"attribute '{attr.name}': set source value {member!r} "
                    f"violates the declared pattern or interval"
                )
        attr.finite_domain = typed
    elif isinstance(attr.source, LexiconSource):
        if attr.datatype != "string":
            _fail(f"attribute '{attr.name}': lexicon sources require datatype string")
        kept = tuple(v for v in attr.source.values if attr.satisfies(v))
        if not kept:
            _fail(
                f"attribute '{attr.name}': no lexicon value satisfies the "
                f"declared constraints"
            )
        attr.finite_domain = kept
    elif isinstance(attr.source, TemplateSource) and attr.datatype != "string":
        _fail(f"attribute '{attr.name}': template sources require datatype string")
    elif isinstance(attr.source, NumericSource) and attr.datatype == "string":
        _fail(f"attribute '{attr.name}': numeric sources require a numeric datatype")
    elif isinstance(attr.source, SequenceSource) and attr.datatype == "string":
        _fail(f"attribute '{attr.name}': sequence sources require a numeric datatype")
    elif isinstance(attr.source, SequenceSource) and attr.datatype == "integer":
        if attr.source.start != int(attr.source.start) or attr.source.step != int(attr.source.step):
            _fail(f"attribute '{attr.name}': integer sequences need integer start and step")
    # Fails where a uniform range and the interval leave nothing to draw, and
    # where a unique normal's interval holds no probability mass.
    attr.domain = resolve(attr, tuple_count)


def _validate_unique(attr: AttributeSpec, tuple_count: int) -> None:
    if not attr.unique:
        return
    if attr.dependency is not None:
        _fail(f"attribute '{attr.name}': dependent attributes cannot be unique")
    if attr.null_rate > 0:
        _fail(f"attribute '{attr.name}': unique attributes cannot draw nulls")
    src = attr.source
    if isinstance(src, NumericSource) and src.distribution == "normal" and attr.datatype == "integer":
        _fail(
            f"attribute '{attr.name}': unique integer attributes need a uniform, "
            f"sequence, template, or finite-set source"
        )
    if isinstance(src, SequenceSource) and src.step == 0:
        _fail(f"attribute '{attr.name}': a unique sequence needs step != 0")
    if isinstance(src, TemplateSource) and attr.compiled_pattern is not None:
        _fail(
            f"attribute '{attr.name}': unique template attributes must encode their "
            f"format in the template itself, not in a separate pattern"
        )
    if isinstance(src, NumericSource) and attr.compiled_pattern is not None:
        _fail(f"attribute '{attr.name}': unique numeric attributes cannot take a pattern")
    size = attr.domain.size
    if size is not None and size < tuple_count:
        _fail(
            f"attribute '{attr.name}': unique source exhausted: the value domain has "
            f"{size} member(s) but {tuple_count} tuples were requested"
        )


def _validate_sequence_interval(attr: AttributeSpec, tuple_count: int) -> None:
    """A sequence's first tuple_count values, its clean values, must lie in
    the interval and in the admissible set."""
    if not isinstance(attr.source, SequenceSource) or tuple_count == 0:
        return
    at = attr.domain.by_index
    if attr.interval is not None:
        lo, hi = attr.interval
        if not (lo <= at(0) <= hi and lo <= at(tuple_count - 1) <= hi):
            _fail(
                f"attribute '{attr.name}': the sequence leaves the interval "
                f"[{lo}, {hi}] within {tuple_count} tuples"
            )
    members = attr.admissible_set
    if members is not None:
        # Stops at the first miss: distinct values (step != 0) reach one
        # within len(members) + 1 tuples.
        miss = next((k for k in range(tuple_count) if at(k) not in members), None)
        if miss is not None:
            _fail(
                f"attribute '{attr.name}': sequence value {at(miss)!r} of tuple "
                f"{miss} is outside the admissible_set"
            )


# ---------------------------------------------------------------------------
# Dependencies


def _resolve_dependencies(attrs: list[AttributeSpec], raw_rules: list) -> list[DependencyRule]:
    by_name = {a.name: a for a in attrs}
    rules: list[DependencyRule] = []
    dependents_seen = set()
    for raw in raw_rules:
        raw = _expect_mapping(raw, "dependency rule")
        _expect_keys(raw, {"determinant", "dependent", "mapping"}, "dependency rule")
        det, dep = raw.get("determinant"), raw.get("dependent")
        if not isinstance(det, str) or det not in by_name:
            _fail(f"dependency rule: unknown determinant attribute {det!r}")
        if not isinstance(dep, str) or dep not in by_name:
            _fail(f"dependency rule: unknown dependent attribute {dep!r}")
        if det == dep:
            _fail(f"dependency rule: determinant and dependent are both {det!r}")
        if dep in dependents_seen:
            _fail(f"attribute {dep!r} is the dependent of more than one rule")
        dependents_seen.add(dep)
        mapping_raw = _expect_mapping(raw.get("mapping"), "dependency mapping")
        if not mapping_raw:
            _fail(f"dependency rule {det!r} -> {dep!r}: mapping is empty")
        det_attr, dep_attr = by_name[det], by_name[dep]
        mapping = {}
        for key, value in mapping_raw.items():
            typed_key = _coerce(key, det_attr.datatype, f"mapping key {key!r}")
            typed_value = _coerce(value, dep_attr.datatype, f"mapping value for {key!r}")
            if typed_key in mapping:
                _fail(f"dependency rule {det!r} -> {dep!r}: duplicate key {key!r}")
            mapping[typed_key] = typed_value
        rule = DependencyRule(determinant=det, dependent=dep, mapping=mapping)
        if by_name[dep].source is not None:
            _fail(
                f"attribute {dep!r} is dependent on {det!r} and must not declare "
                f"its own value source"
            )
        by_name[dep].dependency = rule
        by_name[dep].domain = finite(tuple(sorted(set(mapping.values()), key=repr)))
        rules.append(rule)

    # Cycle check: walk determinant chains, each up to the first attribute
    # an earlier walk has already followed to its end.
    acyclic: set[str] = set()
    for attr in attrs:
        seen = set()
        cursor = attr
        while cursor.dependency is not None and cursor.name not in acyclic:
            if cursor.name in seen:
                _fail(f"dependency rules form a cycle involving {cursor.name!r}")
            seen.add(cursor.name)
            cursor = by_name[cursor.dependency.determinant]
        acyclic |= seen

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
        for image in rule.mapping.values():
            if not dep_attr.satisfies(image) or (
                dep_attr.admissible_set is not None and image not in dep_attr.admissible_set
            ):
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

    if errors_raw is None:
        errors_raw = []
    if not isinstance(errors_raw, list):
        _fail("errors must be a list")
    typed = []
    for index, raw in enumerate(errors_raw):
        raw = _expect_mapping(raw, f"errors[{index}]")
        _expect_keys(raw, {"type", "rate", "attributes", "params"}, f"errors[{index}]")
        error_type = raw.get("type")
        etype = ERROR_TYPES.get(error_type) if isinstance(error_type, str) else None
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
    rate = _expect_number(raw.get("rate"), f"{where} rate")
    if not 0 <= rate <= 1:
        _fail(f"{where}: rate must be in [0, 1]")
    params = raw.get("params", {})
    params = _expect_mapping(params, f"{where} params")
    _expect_keys(params, set(etype.params), f"{where} params")

    targets_raw = raw.get("attributes")
    if etype.applicable is not None:
        if targets_raw is not None:
            if not isinstance(targets_raw, list) or not targets_raw:
                _fail(f"{where}: attributes must be a non-empty list")
            for name in targets_raw:
                if not isinstance(name, str) or name not in config.attr_positions:
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

    resolved = dict(params)
    for key, default in etype.defaults.items():
        resolved.setdefault(key, default)
    if etype.parse is not None:
        etype.parse(resolved, where, config)
    spec = ErrorSpec(error_type=etype.name, rate=rate, target_attributes=targets, params=resolved)
    if etype.bound is not None:
        for name in etype.targets(spec):
            if not math.isfinite(etype.bound(config.attribute(name), resolved)):
                _fail(f"{where}: values injected into {name!r} would exceed the float range")
    return spec


# ---------------------------------------------------------------------------
# Feasibility


def _check_feasibility(config: GeneratorConfig, typed: list) -> None:
    n = config.tuple_count
    row_claims = 0
    for i, (etype, spec) in enumerate(typed):
        if etype.stage == STAGE_ROW:
            row_claims += etype.target_count(spec.rate, 0, n)
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
        targets = spec.target_attributes
        count = etype.target_count(spec.rate, len(targets), n)
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
    """Parse and fully validate a configuration document."""
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
    doc = _expect_mapping(doc, "config document")
    _expect_keys(doc, {"schema", "dependencies", "errors", "generation", "output"}, "config")

    generation = _expect_mapping(doc.get("generation"), "generation section")
    _expect_keys(generation, {"tuple_count", "seed", "scaling"}, "generation")
    tuple_count = _expect_int(generation.get("tuple_count"), "tuple_count")
    if tuple_count < 0:
        _fail("tuple_count must be >= 0")
    seed = generation.get("seed", 0)
    seed = _expect_int(seed, "seed")
    if not 0 <= seed < 1 << 64:
        _fail("seed must be an unsigned 64-bit integer")
    if seed_override is not None:
        if not 0 <= seed_override < 1 << 64:
            _fail("seed must be an unsigned 64-bit integer")
        seed = seed_override

    scaling_raw = generation.get("scaling", {})
    scaling_raw = _expect_mapping(scaling_raw, "scaling")
    _expect_keys(scaling_raw, {"column_replication", "shard_count"}, "scaling")
    replication = _expect_int(scaling_raw.get("column_replication", 0), "column_replication")
    if replication < 0:
        _fail("column_replication must be >= 0")
    shard_count = _expect_int(scaling_raw.get("shard_count", 1), "shard_count")
    if shard_count < 1:
        _fail("shard_count must be >= 1")
    scaling = ScalingSpec(column_replication=replication)

    schema_raw = doc.get("schema")
    if not isinstance(schema_raw, list) or not schema_raw:
        _fail("schema must be a non-empty list of attributes")
    attrs = [_parse_attribute(raw, base_dir) for raw in schema_raw]
    names = [a.name for a in attrs]
    if len(set(names)) != len(names):
        dupe = next(n for n in names if names.count(n) > 1)
        _fail(f"duplicate attribute name: {dupe!r}")

    raw_rules = doc.get("dependencies")
    if raw_rules is None:
        raw_rules = []
    if not isinstance(raw_rules, list):
        _fail("dependencies must be a list")
    # The names rules declare as dependents; the rules are checked below.
    dependents = {
        r.get("dependent")
        for r in raw_rules
        if isinstance(r, dict) and isinstance(r.get("dependent"), str)
    }

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
        _validate_sequence_interval(attr, tuple_count)
        _validate_unique(attr, tuple_count)
        # Only finite domains (dependents' included) list their members.
        if attr.synonyms is not None and attr.domain.values is not None:
            orphan = [k for k in attr.synonyms if k not in attr.domain.values]
            if orphan:
                _fail(
                    f"attribute '{attr.name}': synonym key {orphan[0]!r} can "
                    f"never be generated"
                )
        attr.cell = cell_rule(attr, seed)

    output_raw = doc.get("output", {})
    output_raw = _expect_mapping(output_raw, "output section")
    _expect_keys(output_raw, {"directory", "mode"}, "output")
    directory = output_raw.get("directory", "out")
    if not isinstance(directory, str):
        _fail("output directory must be a string")
    if output_dir_override is not None:
        directory = output_dir_override
    mode = output_raw.get("mode", "ndjson")
    try:
        output = OutputSpec(directory=Path(directory), mode=mode, shard_count=shard_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    config = GeneratorConfig(
        schema=tuple(attrs),
        dependencies=tuple(dependencies),
        errors=(),
        tuple_count=tuple_count,
        seed=seed,
        scaling=scaling,
        output=output,
        attr_positions={a.name: i for i, a in enumerate(attrs)},
        eval_order=_evaluation_order(attrs),
    )
    config.errors, config.spec_by_target = _parse_errors(doc.get("errors", []), config)
    try:
        config.config_hash = compute_config_hash(config)
    except RecursionError:  # an offdomain set value nested just below the first check's limit
        raise ConfigError(too_deep) from None
    return config


def _evaluation_order(attrs: list[AttributeSpec]) -> tuple[str, ...]:
    """Schema order with every determinant placed before its dependents."""
    order: list[str] = []
    placed: set[str] = set()
    by_name = {a.name: a for a in attrs}
    for attr in attrs:
        chain = []  # attr and its determinants not yet placed, nearest first
        while attr is not None and attr.name not in placed:
            placed.add(attr.name)  # rules form no cycle, so the walk ends
            chain.append(attr.name)
            attr = None if attr.dependency is None else by_name[attr.dependency.determinant]
        order.extend(reversed(chain))
    return tuple(order)


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
    except OSError as exc:
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
        "errors": [_error_signature(s) for s in config.errors],
        "generation": {
            "tuple_count": config.tuple_count,
            "seed": config.seed,
            "column_replication": config.scaling.column_replication,
            "shard_count": config.output.shard_count,
        },
        "output": {"mode": config.output.mode},
    }
    encoded = json.dumps(canonical, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _error_signature(spec: ErrorSpec) -> dict:
    sig = spec.signature()
    params = {}
    for key, value in sig["params"].items():
        if key == "offdomain" and isinstance(value, dict):
            params[key] = {name: carrier.source.signature() for name, carrier in value.items()}
        elif key == "skewed_weights" and isinstance(value, dict):
            params[key] = {json.dumps(k, ensure_ascii=False): w for k, w in value.items()}
        else:
            params[key] = value
    sig["params"] = params
    return sig
