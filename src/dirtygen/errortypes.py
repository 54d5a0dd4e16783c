"""The twenty error types, each declared once.

One ErrorType record per type holds everything the pipeline needs to know
about it but its planning stage (taxonomy.ERROR_STAGES): its rate
population, which attributes it can target, its params (their config
grammar entries, written in the record) and the checks that relate them to
the schema, how the planner picks its targets, how the injector dirties
them, and how verify_error proves that the dirty side violates the type's
defining property while the clean side satisfies it. What the stage says
the record does not repeat: a row or insertion type's rate counts tuples
because of its stage. config, errorplan, inject and cli look types up in
ERROR_TYPES rather than testing names, so a new type is one record and one
stage, and a fix to one is one record.

The stage is the planning stage, which fixes claim order and population; it
can differ from the paper's conceptual scope (irrelevant_observation is "one
row" in the paper but is planned as an insertion).

Verdicts and parse checks compare values by output.same_json. The injectors'
loops that draw until a value differs from the clean one, and inject's
refusal of an unchanged value, keep ==: both sides have the attribute's
exact type there, and == is the stricter test (0.0 and -0.0 are one value).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import eq
from typing import Callable, Iterator

from .config import NON_NEGATIVE, POSITIVE, REQUIRED, SOURCE, AttributeSpec, Field, build_source, source_signature
from .datagen import clean_cell_value, generate_record, value_in_domain
from .domains import resolve, weighted_choice
from .exceptions import ConfigError, GenerationError
from .output import same_json
from .rng import NORMAL_Z_BOUND, Stream, derive_stream
from .taxonomy import ABSENT, ERROR_STAGES, STAGE_CELL, STAGE_COLUMN, STAGE_INSERTION, STAGE_ROW, round_half_away
from .templates import CLASSES

_RETRY_LIMIT = 1000
_DONOR_ATTEMPTS = 128
_LOWER, _UPPER, _DIGITS = CLASSES["a"], CLASSES["A"], CLASSES["#"]
_MEANINGLESS_ALPHABET = _LOWER + _DIGITS + "#?%"

EDIT_OPERATIONS = ("substitute", "insert", "delete", "transpose")

_SCOPES = {
    STAGE_INSERTION: "insertion",
    STAGE_ROW: "row",
    STAGE_COLUMN: "column",
    STAGE_CELL: "cell",
}


@dataclass(frozen=True, eq=False)  # one record per type: identity is equality
class ErrorType:
    """What one error type means, for every step of the pipeline. Its
    stage, scope and marker derive from its name's ERROR_STAGES entry, and
    per_tuple from the marker and counts_tuples; params holds its config
    grammar.

    The callables take arguments that depend on the stage:

    - inject, cell and column stages: `(clean_value, attr, stream, config,
      params, entry)`, returning the dirty value (ABSENT removes the key);
      row stage: `(record, config, stream, params, entry)`, returning the
      `(attribute, clean_value, dirty_value)` cells it changes; insertion
      stage: `(source, config, stream, params, entry, dirty_index)`,
      returning the inserted record (source is None when no row is copied).
    - verify, one logged cell: `(clean_value, dirty_value, attr, config,
      params, clean_record, dirty_record, dirty_dataset)`.
    - verify_marker, the marker entry of a row or insertion type:
      `(clean_record, dirty_record, config, params, clean_dataset)`.
    - eligible, the planner's test of one candidate: `(config, spec, row,
      attribute, claims)`, returning extra PlanEntry fields, or None to skip.
    - applicable `(attr, config)`, parse `(params, where, config)` and bound
      `(attr, params)`: parse_config calls them with the run's own config.
    """

    name: str  # a key of taxonomy.ERROR_STAGES
    inject: Callable
    verify: Callable
    verify_marker: Callable | None = None
    counts_tuples: bool = False  # a column type whose rate counts tuples; see per_tuple
    applicable: Callable | None = None  # (attr, config) -> bool; None: takes no target attributes
    single_target: bool = False
    params: dict = field(default_factory=dict)  # key -> its Field of the config grammar
    parse: Callable | None = None  # (params, where, config): checks against the config, completes params
    signature: Callable = lambda params: params  # parsed params -> their hashed form, as JSON
    targets: Callable = lambda spec: spec.target_attributes
    needs_value: bool = True  # the planner skips cells whose clean value is null
    eligible: Callable | None = None
    draws_source: bool = True  # insertions: the inserted row copies a drawn source tuple
    claims_donor: bool = False  # each target also claims an earlier tuple's cell
    # (spec, index, placed, count) -> the warning for a shortfall; None: a shortfall fails the plan
    shortfall: Callable | None = None
    # (attr, params) -> the largest magnitude an injected value can take;
    # parse_config rejects a spec whose bound on one of its targets is not finite
    bound: Callable | None = None

    @property
    def stage(self) -> int:
        """The planning stage: fixes claim order, plan scope and the primary log line."""
        return ERROR_STAGES[self.name]

    @property
    def scope(self) -> str:
        return _SCOPES[self.stage]

    @property
    def marker(self) -> bool:
        """Row and insertion types log a marker entry (attribute None) first;
        the marker, not the cell entries, is what their counts count."""
        return self.stage in (STAGE_ROW, STAGE_INSERTION)

    @property
    def per_tuple(self) -> bool:
        """The rate counts tuples, not target cells (ErrorSpec.population): by
        its stage for a row or insertion type, else by counts_tuples."""
        return self.marker or self.counts_tuples

    @cached_property
    def defaults(self) -> dict:
        """The params of a spec that gives none."""
        return {key: f.default for key, f in self.params.items() if f.default not in (None, REQUIRED)}


# ---------------------------------------------------------------------------
# Character-level edits


def _alphabet_for(ch: str) -> str:
    if ch in _DIGITS:
        return _DIGITS
    if ch in _UPPER:
        return _UPPER
    return _LOWER


def apply_edit(text: str, op: str, pos: int, char: str | None = None) -> str:
    """One documented edit operation at a fixed position."""
    if op == "substitute":
        return text[:pos] + char + text[pos + 1 :]
    if op == "insert":
        return text[:pos] + char + text[pos:]
    if op == "delete":
        return text[:pos] + text[pos + 1 :]
    if op == "transpose":
        return text[:pos] + text[pos + 1] + text[pos] + text[pos + 2 :]
    raise ValueError(f"unknown edit operation: {op}")


def misspell(text: str, stream: Stream) -> str:
    """Exactly one stream-drawn edit; the result always differs from the input."""
    for _ in range(64):
        op = EDIT_OPERATIONS[stream.randrange(4)]
        if op == "substitute" and text:
            pos = stream.randrange(len(text))
            alphabet = _alphabet_for(text[pos])
            char = alphabet[stream.randrange(len(alphabet))]
            if char == text[pos]:
                continue
            return apply_edit(text, "substitute", pos, char)
        if op == "insert":
            pos = stream.randrange(len(text) + 1)
            anchor = text[min(pos, len(text) - 1)] if text else "a"
            alphabet = _alphabet_for(anchor)
            char = alphabet[stream.randrange(len(alphabet))]
            return apply_edit(text, "insert", pos, char)
        if op == "delete" and text:
            return apply_edit(text, "delete", stream.randrange(len(text)))
        if op == "transpose" and len(text) >= 2:
            pos = stream.randrange(len(text) - 1)
            if text[pos] == text[pos + 1]:
                continue
            return apply_edit(text, "transpose", pos)
    raise GenerationError(f"could not produce a one-edit misspelling of {text!r}")


def edit_distance_one(a: str, b: str) -> bool:
    """True iff b is reachable from a by exactly one of the four edit ops."""
    if a == b:
        return False
    la, lb = len(a), len(b)
    if la == lb:
        diffs = [i for i in range(la) if a[i] != b[i]]
        if len(diffs) == 1:
            return True
        if len(diffs) == 2:
            i, j = diffs
            return j == i + 1 and a[i] == b[j] and a[j] == b[i]
        return False
    if abs(la - lb) != 1:
        return False
    shorter, longer = (a, b) if la < lb else (b, a)
    for i in range(len(longer)):
        if longer[:i] + longer[i + 1 :] == shorter:
            return True
    return False


# ---------------------------------------------------------------------------
# Shared helpers

_PATTERN_MUTATIONS = (
    "drop_separator",
    "case_flip",
    "digit_to_letter",
    "letter_to_digit",
    "append_junk",
)


def _break_pattern(text: str, pattern, stream: Stream) -> str:
    """Mutate until the pattern no longer matches.

    Mutation catalog: remove a separator character, flip a letter's case,
    swap a digit for a letter or a letter for a digit, append a junk
    character. Stream-drawn until the check fails.
    """
    for _ in range(100):
        op = _PATTERN_MUTATIONS[stream.randrange(len(_PATTERN_MUTATIONS))]
        candidate = None
        if op == "drop_separator":
            separators = [i for i, ch in enumerate(text) if not ch.isalnum()]
            if separators:
                candidate = apply_edit(text, "delete", separators[stream.randrange(len(separators))])
        elif op == "case_flip":
            letters = [i for i, ch in enumerate(text) if ch.isalpha()]
            if letters:
                pos = letters[stream.randrange(len(letters))]
                candidate = apply_edit(text, "substitute", pos, text[pos].swapcase())
        elif op == "digit_to_letter":
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            if digits:
                pos = digits[stream.randrange(len(digits))]
                candidate = apply_edit(text, "substitute", pos, _LOWER[stream.randrange(26)])
        elif op == "letter_to_digit":
            letters = [i for i, ch in enumerate(text) if ch.isalpha()]
            if letters:
                pos = letters[stream.randrange(len(letters))]
                candidate = apply_edit(text, "substitute", pos, _DIGITS[stream.randrange(10)])
        else:
            candidate = text + "~"
        if candidate is not None and not pattern.fullmatch(candidate):
            return candidate
    raise GenerationError(
        f"could not break the pattern {pattern.pattern!r} starting from {text!r}; "
        f"the pattern may accept every mutation"
    )


def _in_some_domain(text: str, config) -> bool:
    """Does some attribute's effective pattern or domain take the text?"""
    for attr in config.schema:
        pattern = attr.effective_pattern()
        if pattern is not None and pattern.fullmatch(text) or attr.domain.contains(text):
            return True
    return False


def _meaningless(config, stream: Stream, avoid) -> str:
    for _ in range(_RETRY_LIMIT):
        length = 3 + stream.randrange(8)
        text = "".join(
            _MEANINGLESS_ALPHABET[stream.randrange(len(_MEANINGLESS_ALPHABET))]
            for _ in range(length)
        )
        if text != avoid and not _in_some_domain(text, config):
            return text
    raise GenerationError("could not produce a meaningless value outside every domain")


def _other_attributes(attr: AttributeSpec, attrs, *, distinct_source: bool) -> list:
    """The other attributes of the schema; with distinct_source, only those
    whose values come from a different source (compared as JSON, so 1, 1.0
    and true are three sources)."""
    return [
        other for other in attrs
        if other.name != attr.name and not (distinct_source and other.source_json == attr.source_json)
    ]


def _retype(text: str, datatype: str):
    if datatype == "integer":
        try:
            return int(text)
        except ValueError:
            return text
    if datatype == "float":
        try:
            return float(text)
        except ValueError:
            return text
    return text


def _is_number(value) -> bool:
    """A number a float holds (no bool, infinity, nan or int beyond the float range), so arithmetic cannot overflow."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _always(attr, config) -> bool:
    return True


# ---------------------------------------------------------------------------
# Cell-level types: a value that violates one attribute's own constraint


def _syntax_violation(clean, attr, stream, *_):
    return _break_pattern(str(clean), attr.effective_pattern(), stream)


def _violates_pattern(clean, dirty, attr, *_) -> bool:
    return attr.effective_pattern().fullmatch(str(dirty)) is None


def _interval_violation(clean, attr: AttributeSpec, stream: Stream, *_):
    lo, hi = attr.interval
    width = hi - lo
    go_high = stream.randrange(2) == 1
    u = stream.random()
    if attr.datatype == "integer":
        delta = 1 + math.floor(u * max(width, 1))
        return int(hi + delta) if go_high else int(lo - delta)
    delta = (1.0 - u) * width
    if go_high:
        value = hi + delta
        return value if value > hi else math.nextafter(hi, math.inf)
    value = lo - delta
    return value if value < lo else math.nextafter(lo, -math.inf)


def _interval_bound(attr, params) -> float:
    lo, hi = attr.interval
    return max(abs(float(lo)), abs(float(hi))) + max(float(hi) - float(lo), 1.0) + 1.0


def _outside_interval(clean, dirty, attr, *_) -> bool:
    lo, hi = attr.interval
    return _is_number(dirty) and not lo <= dirty <= hi


def _set_violation(clean, attr, stream, *_):
    members = attr.admissible_set
    member = members[stream.randrange(len(members))]
    text = str(member)
    for _ in range(_RETRY_LIMIT):
        text = misspell(text, stream)
        candidate = _retype(text, attr.datatype)
        if candidate not in members and candidate != clean:
            return candidate
    raise GenerationError(f"could not mutate {member!r} out of the admissible set")


def _outside_set(clean, dirty, attr, *_) -> bool:
    # A str or a number, the kinds _set_violation writes through _retype: a
    # null, a removed key, an array or a bool is another error's value.
    # Not attr.domain: a dependent's domain is its rule's images, which may be fewer.
    return (isinstance(dirty, str) or _is_number(dirty)) and not any(
        same_json(dirty, member) for member in attr.admissible_set
    )


def _misspelled(clean, dirty, *_) -> bool:
    return isinstance(clean, str) and isinstance(dirty, str) and edit_distance_one(clean, dirty)


def _inadequate_value(clean, attr, stream, config, *_):
    others = _other_attributes(attr, config.schema, distinct_source=True)
    start = stream.randrange(len(others))
    # A donor whose whole domain lies inside the target's cannot work
    # (ints fit any unbounded numeric target, say); fall through to the
    # next candidate instead of retrying one donor forever.
    for offset in range(len(others)):
        other = others[(start + offset) % len(others)]
        for _ in range(100):
            value = other.domain.draw(stream)
            if value != clean and not value_in_domain(attr, value, config):
                return value
    raise GenerationError(f"no other attribute's values land outside the domain of '{attr.name}'")


def _from_other_domain(clean, dirty, attr, config, *_) -> bool:
    if same_json(dirty, clean) or value_in_domain(attr, dirty, config):
        return False
    return any(
        value_in_domain(other, dirty, config)
        for other in _other_attributes(attr, config.schema, distinct_source=True)
    )


def _items_beyond(clean, attr, stream, config, *_):
    others = _other_attributes(attr, config.schema, distinct_source=False)
    other = others[stream.randrange(len(others))]
    return f"{clean} {other.domain.draw(stream)}"


def _has_extra_items(clean, dirty, *_) -> bool:
    return isinstance(dirty, str) and dirty.startswith(clean + " ") and len(dirty) > len(clean) + 1


def _is_meaningless(clean, dirty, attr, config, *_) -> bool:
    if not isinstance(dirty, str) or not 3 <= len(dirty) <= 10:
        return False
    if any(ch not in _MEANINGLESS_ALPHABET for ch in dirty):
        return False
    return not _in_some_domain(dirty, config)


def _erroneous_entry(clean, attr, stream, config, *_):
    for _ in range(_RETRY_LIMIT):
        value = attr.domain.draw(stream)
        if value != clean:
            return value
    raise GenerationError(f"the source of '{attr.name}' produced no value different from {clean!r}")


def _plausible_but_wrong(clean, dirty, attr, config, *_) -> bool:
    return not same_json(dirty, clean) and value_in_domain(attr, dirty, config)


def _has_alternative(attr, config) -> bool:
    size = attr.domain.size
    return size is None or size >= 2


# ---------------------------------------------------------------------------
# Column-addressed types: a value that breaks a property of its column


def _find_donor(config, row: int, attribute: str, claims) -> int | None:
    # The target is unique, and a unique attribute draws no null: every donor has a value.
    stream = derive_stream(config.seed, "plan:uniqueness_value_violation:donor", row, attribute)
    for _ in range(min(_DONOR_ATTEMPTS, max(row * 4, 8))):
        donor = stream.randrange(row)
        if claims.free(donor, attribute):
            return donor
    return None


def _with_donor(config, spec, row, attribute, claims) -> dict | None:
    if row == 0:
        return None
    donor = _find_donor(config, row, attribute, claims)
    return None if donor is None else {"donor": donor}


def _copy_donor(clean, attr, stream, config, params, entry):
    return clean_cell_value(config, entry.donor, attr.name)


def _duplicated(clean, dirty, attr, config, params, clean_record, dirty_record, dirty_dataset):
    if same_json(dirty, clean):
        return False
    equal = compress(dirty_dataset, _matches(dirty_dataset, attr.name, dirty))
    return sum(same_json(record.get(attr.name, ABSENT), dirty) for record in equal) >= 2


def _synonym(clean, attr, stream, *_):
    alternatives = attr.synonyms[clean]
    return alternatives[stream.randrange(len(alternatives))]


def _has_synonym(config, spec, row, attribute, claims) -> dict | None:
    value = clean_cell_value(config, row, attribute)
    return {} if isinstance(value, str) and config.attribute(attribute).synonyms.get(value) else None


def _is_synonym(clean, dirty, attr, *_) -> bool:
    return isinstance(dirty, str) and dirty in attr.synonyms.get(clean, ())


def _distribution_sourced(attr, config) -> bool:
    return attr.domain.mean is not None


def _outlier_bound(attr, params) -> float:
    return abs(attr.domain.mean) + 2 * params["k"] * attr.domain.stddev


def _noise_bound(attr, params) -> float:
    return attr.domain.bound + NORMAL_Z_BOUND * params["alpha"] * attr.domain.stddev


def _bias_bound(attr, params) -> float:
    shift = params.get("shift")  # None: categorical bias, which only picks set members
    return 0.0 if shift is None else attr.domain.bound + abs(shift)


def _outlier(clean, attr, stream, config, params, entry):
    mu, sigma = attr.domain.mean, attr.domain.stddev
    sign = 1.0 if stream.randrange(2) == 1 else -1.0
    return mu + sign * params["k"] * sigma * (1.0 + stream.random())


def _is_outlier(clean, dirty, attr, config, params, *_) -> bool:
    mu, sigma = attr.domain.mean, attr.domain.stddev
    return _is_number(dirty) and not same_json(dirty, clean) and abs(dirty - mu) >= params["k"] * sigma


def _noise(clean, attr, stream, config, params, entry):
    sigma = params["alpha"] * attr.domain.stddev
    epsilon = stream.normal(0.0, sigma)
    while epsilon == 0.0:
        epsilon = stream.normal(0.0, sigma)
    return clean + epsilon


def _is_noise(clean, dirty, attr, config, params, *_) -> bool:
    bound = NORMAL_Z_BOUND * params["alpha"] * attr.domain.stddev
    return _is_number(dirty) and 0 < abs(dirty - clean) <= bound


def _bias(clean, attr, stream, config, params, entry):
    weights = params.get("skewed_weights")
    if weights is None:
        return clean + params["shift"]
    values, choose = list(weights), weighted_choice(tuple(weights.values()))
    for _ in range(_RETRY_LIMIT):
        value = values[choose(stream.random())]
        if value != clean:
            return value
    raise GenerationError("bias redraw never left the clean value")


def _in_group(config, spec, row, attribute, claims) -> dict | None:
    group = clean_cell_value(config, row, spec.params["group_attribute"])
    return {} if same_json(group, spec.params["group_value"]) else None


def _is_biased(clean, dirty, attr, config, params, clean_record, *_) -> bool:
    if "group_value" not in params:
        return False  # no bias spec targets this attribute
    if not same_json(clean_record.get(params["group_attribute"], ABSENT), params["group_value"]):
        return False
    weights = params.get("skewed_weights")
    if weights is None:
        return same_json(dirty, clean + params["shift"])
    return not same_json(dirty, clean) and any(same_json(dirty, value) for value in weights)


def _bias_shortfall(spec, index: int, placed: int, count: int) -> str:
    return (
        f"bias spec {index}: only {placed} of {count} targets have "
        f"{spec.params['group_attribute']} = {spec.params['group_value']!r}; "
        f"realized count is below target"
    )


def _parse_bias(params: dict, where: str, config) -> None:
    group_attr, target_attr = params["group_attribute"], params["target_attribute"]
    for role, name in (("group", group_attr), ("target", target_attr)):
        if name not in config.attr_positions:
            raise ConfigError(f"{where}: unknown {role} attribute {name!r}")
    if group_attr == target_attr:
        raise ConfigError(f"{where}: group and target attribute must differ")
    params["group_value"] = config.attribute(group_attr).typed(params["group_value"], f"{where} group_value")
    target = config.attribute(target_attr)
    weights = params.get("skewed_weights")
    if weights is None:
        if target.domain.mean is None:
            raise ConfigError(
                f"{where}: numeric bias needs a distribution-sourced target; "
                f"categorical targets need skewed_weights"
            )
        params.setdefault("shift", target.domain.stddev)
        return
    if "shift" in params:
        raise ConfigError(f"{where}: shift and skewed_weights exclude each other")
    if target.domain.values is None or target.dependency is not None:
        raise ConfigError(f"{where}: skewed_weights requires a finite-domain target")
    typed = {}
    for key, weight in weights.items():
        value = target.typed(key, f"{where} skewed_weights key")
        if not target.domain.contains(value):
            raise ConfigError(f"{where}: skewed_weights key {key!r} is outside the target domain")
        typed[value] = weight
    if len([w for w in typed.values() if w > 0]) < 2:
        raise ConfigError(f"{where}: skewed_weights needs at least two positive-weight values")
    params["skewed_weights"] = typed


# ---------------------------------------------------------------------------
# Row types: a whole base tuple is affected


def _semi_empty_count(fraction: float, width: int, non_null: int) -> int:
    """Cells to null: round(fraction x width), at least 2, leaving one value."""
    return min(max(round_half_away(fraction * width), 2), width - 1, non_null - 1)


def _non_null_cells(config, row: int) -> int:
    return sum(1 for value in generate_record(config, row).values() if value is not None)


def _can_empty(config, spec, row, attribute, claims) -> dict | None:
    # Whether some attribute may_be_null, without walking each chain: every
    # chain's root is in the schema, and dependents declare no null_rate.
    nullable = any(attr.null_rate > 0 for attr in config.schema)
    if nullable and _non_null_cells(config, row) < 2:
        return None
    return {}


def _semi_empty(record, config, stream, params, entry) -> list:
    names = config.attribute_names
    candidates = [name for name in names if record.get(name) is not None]
    n_null = _semi_empty_count(params["empty_fraction"], len(names), len(candidates))
    if n_null < 1:
        raise GenerationError(f"semi-empty tuple at row {entry.row} has nothing left to null")
    chosen = sorted(stream.sample_indices(len(candidates), n_null))
    return [(candidates[index], record[candidates[index]], None) for index in chosen]


def _nulled(clean, dirty, *_) -> bool:
    return dirty is None


def _is_semi_empty(clean_record, dirty_record, config, params, clean_dataset) -> bool:
    clean_non_null = [n for n in config.attribute_names if clean_record.get(n) is not None]
    expected = _semi_empty_count(params["empty_fraction"], len(config.schema), len(clean_non_null))
    nulled = [n for n in clean_non_null if dirty_record.get(n, ABSENT) is None]
    kept = [n for n in clean_non_null if dirty_record.get(n, ABSENT) is not None]
    return len(nulled) == expected and len(kept) >= 1


def _parse_semi_empty(params: dict, where: str, config) -> None:
    if len(config.schema) < 2:
        raise ConfigError(f"{where}: needs at least two attributes in the schema")


def _breakable_rules(config) -> list[int]:
    """Indices of the rules whose dependent takes at least two values."""
    sizes = [config.attribute(rule.dependent).domain.size for rule in config.dependencies]
    return [i for i, size in enumerate(sizes) if size >= 2]


def _choose_rule(config, spec, row, attribute, claims) -> dict | None:
    violable = _breakable_rules(config)
    stream = derive_stream(config.seed, "plan:inconsistency_among_attribute_values", row)
    rule_index = violable[stream.randrange(len(violable))]
    # The mapping is total and never null, so the dependent is null exactly
    # where its determinant is.
    if clean_cell_value(config, row, config.dependencies[rule_index].determinant) is None:
        return None
    return {"rule_index": rule_index}


def _break_rule(record, config, stream, params, entry) -> list:
    rule = config.dependencies[entry.rule_index]
    current = record[rule.dependent]
    alternatives = [v for v in config.attribute(rule.dependent).domain.values if v != current]
    return [(rule.dependent, current, alternatives[stream.randrange(len(alternatives))])]


def _image(rule, value, config):
    """The rule's image of a determinant value, ABSENT where the determinant never takes it. A value
    its domain holds has the determinant's exact type, so the mapping's keys compare as same_json does."""
    if not config.attribute(rule.determinant).domain.contains(value):
        return ABSENT
    return rule.mapping.get(value, ABSENT)  # a sequence's terms past tuple_count are unmapped


def _rule_violated(rule, clean_record, dirty_record, config) -> bool:
    expected = _image(rule, dirty_record.get(rule.determinant, ABSENT), config)
    dep = dirty_record.get(rule.dependent, ABSENT)
    clean_det = clean_record.get(rule.determinant)
    clean_ok = clean_det is None or same_json(_image(rule, clean_det, config), clean_record.get(rule.dependent))
    return expected is not ABSENT and dep is not ABSENT and not same_json(dep, expected) and clean_ok


def _breaks_a_rule(clean_record, dirty_record, config, params, clean_dataset) -> bool:
    return any(_rule_violated(rule, clean_record, dirty_record, config) for rule in config.dependencies)


def _breaks_rule_cell(clean, dirty, attr, config, params, clean_record, dirty_record, _) -> bool:
    """The dependent's dirty value is another of its rule's images, and the rule is broken."""
    return (
        attr.dependency is not None
        and attr.domain.contains(dirty_record.get(attr.name, ABSENT))
        and _rule_violated(attr.dependency, clean_record, dirty_record, config)
    )


def _parse_inconsistency_among(params: dict, where: str, config) -> None:
    if not _breakable_rules(config):
        raise ConfigError(
            f"{where}: no dependency rule with at least two distinct dependent values "
            f"is declared"
        )


# ---------------------------------------------------------------------------
# Insertion types: an extra tuple is appended to the dirty dataset


def _draw_offdomain(attr, carrier, config, stream):
    for _ in range(_RETRY_LIMIT):
        value = carrier.domain.draw(stream)
        if not value_in_domain(attr, value, config):
            return value
    raise GenerationError(f"offdomain source for '{attr.name}' keeps producing in-domain values")


def _irrelevant_row(source, config, stream, params, entry, dirty_index) -> dict:
    offdomain = params.get("offdomain") or {}
    record = {}
    for attr in config.schema:
        cell_stream = derive_stream(
            config.seed, "inject:irrelevant_observation", dirty_index, attr.name
        )
        off = offdomain.get(attr.name)
        if off is not None:
            record[attr.name] = _draw_offdomain(attr, off, config, cell_stream)
        else:
            record[attr.name] = _meaningless(config, cell_stream, None)
    return record


def _out_of_domain(clean, dirty, attr, config, *_) -> bool:
    return not value_in_domain(attr, dirty, config)


def _all_out_of_domain(clean_record, dirty_record, config, params, clean_dataset) -> bool:
    return all(
        not value_in_domain(attr, dirty_record.get(attr.name, ABSENT), config)
        for attr in config.schema
    )


def _parse_offdomain(params: dict, where: str, config) -> None:
    offdomain = params.get("offdomain")
    if offdomain is None:
        return
    parsed = {}
    for name, source_raw in offdomain.items():
        if name not in config.attr_positions:
            raise ConfigError(f"{where}: offdomain names unknown attribute {name!r}")
        # A stand-in attribute that draws from the bare source.
        source = build_source(source_raw, f"{where} offdomain {name!r}", config.base_dir)
        carrier = AttributeSpec(name, "string", source)
        carrier.domain = resolve(carrier, config.tuple_count)
        parsed[name] = carrier
    params["offdomain"] = parsed


def _near_duplicate(source, config, stream, params, entry, dirty_index) -> dict:
    record = dict(source)
    if params["near_duplicate"] and params["perturbed_attributes"] > 0:
        perturbable = [
            a.name
            for a in config.schema
            if not a.unique and a.datatype == "string" and source[a.name] is not None
        ]
        m = min(params["perturbed_attributes"], len(perturbable))
        for index in stream.sample_indices(len(perturbable), m):
            name = perturbable[index]
            cell_stream = derive_stream(
                config.seed, "inject:redundancy_about_entity", dirty_index, name
            )
            record[name] = misspell(str(source[name]), cell_stream)
    return record


def _matches(dataset: list[dict], name: str, value) -> Iterator[bool]:
    """Whether each record's `name` value == `value`, ABSENT for a missing
    key, compared in C: every same_json match, and maybe more."""
    return map(eq, map(dict.get, dataset, repeat(name), repeat(ABSENT)), repeat(value))


def _differing(dirty_record: dict, config, clean_dataset: list[dict], limit: int):
    """Each clean tuple that differs from dirty_record in at most `limit`
    attributes, in dataset order, with the attributes where it differs.

    Such a tuple agrees with dirty_record on at least one of any limit + 1
    attributes, so only the tuples that match it on one of the first limit + 1
    get the full comparison.
    """
    names = config.attribute_names
    candidates = range(len(clean_dataset))
    if limit < len(names):
        candidates = sorted(set().union(*(
            compress(candidates, _matches(clean_dataset, name, dirty_record.get(name, ABSENT)))
            for name in names[: limit + 1]
        )))
    for row in candidates:
        source = clean_dataset[row]
        diffs = [
            name for name in names if not same_json(source.get(name, ABSENT), dirty_record.get(name, ABSENT))
        ]
        if len(diffs) <= limit:
            yield source, diffs


def _duplicates_a_tuple(clean_record, dirty_record, config, params, clean_dataset) -> bool:
    allowed = params["perturbed_attributes"] if params["near_duplicate"] else 0
    for source, diffs in _differing(dirty_record, config, clean_dataset, allowed):
        if all(
            isinstance(source.get(name), str)
            and isinstance(dirty_record.get(name), str)
            and edit_distance_one(source[name], dirty_record[name])
            for name in diffs
        ):
            return True
    return False


def _parse_redundancy(params: dict, where: str, config) -> None:
    if params["near_duplicate"] and params["perturbed_attributes"] > 0 and not any(
        not a.unique and a.datatype == "string" for a in config.schema
    ):
        raise ConfigError(f"{where}: near-duplicate mode needs a non-unique string attribute to misspell")


def _conflicting_copy(source, config, stream, params, entry, dirty_index) -> dict:
    candidates = [a for a in config.schema if not a.unique and source[a.name] is not None]
    for _ in range(_RETRY_LIMIT):
        candidate = candidates[stream.randrange(len(candidates))]
        value = candidate.domain.draw(stream)
        if value != source[candidate.name]:
            record = dict(source)
            record[candidate.name] = value
            return record
    raise GenerationError(f"no conflicting value found for the inserted copy of tuple {entry.row}")


def _in_domain(clean, dirty, attr, config, *_) -> bool:
    return value_in_domain(attr, dirty, config)


def _conflicts_with_a_tuple(clean_record, dirty_record, config, params, clean_dataset) -> bool:
    """One non-key attribute differs from some clean tuple, with a valid value."""
    for _, diffs in _differing(dirty_record, config, clean_dataset, 1):
        if len(diffs) != 1:
            continue
        attr = config.attribute(diffs[0])
        if attr.unique:
            continue
        if value_in_domain(attr, dirty_record.get(diffs[0]), config):
            return True
    return False


def _parse_inconsistency_about(params: dict, where: str, config) -> None:
    if not any(not a.unique and _has_alternative(a, config) for a in config.schema):
        raise ConfigError(f"{where}: no non-unique attribute offers an alternative valid value")


# ---------------------------------------------------------------------------
# The registry, in declaration order


def _hashed(key: str, form: Callable) -> Callable:
    """The signature of a type whose parsed params[key], where given, is hashed in its form."""
    return lambda params: params if key not in params else params | {key: form(params[key])}


_RECORDS = (
    ErrorType(
        "missing_value", lambda *_: None, _nulled, applicable=_always,
    ),
    ErrorType(
        "syntax_violation",
        _syntax_violation,
        _violates_pattern,
        applicable=lambda attr, config: attr.effective_pattern() is not None,
    ),
    ErrorType(
        "interval_violation", _interval_violation, _outside_interval,
        applicable=lambda attr, config: attr.interval is not None,
        bound=_interval_bound,
    ),
    ErrorType(
        "set_violation", _set_violation,
        _outside_set,
        applicable=lambda attr, config: attr.admissible_set is not None,
    ),
    ErrorType(
        "misspelling",
        lambda clean, attr, stream, *_: misspell(clean, stream),
        _misspelled,
        applicable=lambda attr, config: attr.datatype == "string",
    ),
    ErrorType(
        "inadequate_value_to_attribute_context", _inadequate_value, _from_other_domain,
        applicable=lambda attr, config: bool(_other_attributes(attr, config.schema, distinct_source=True)),
    ),
    ErrorType(
        "value_items_beyond_attribute_context", _items_beyond, _has_extra_items,
        applicable=lambda attr, config: attr.datatype == "string" and len(config.schema) >= 2,
    ),
    ErrorType(
        "meaningless_value",
        lambda clean, attr, stream, config, *_: _meaningless(config, stream, clean),
        _is_meaningless,
        applicable=_always,
    ),
    ErrorType(
        "erroneous_entry", _erroneous_entry, _plausible_but_wrong,
        applicable=_has_alternative,
    ),
    ErrorType(
        "uniqueness_value_violation",
        _copy_donor,
        _duplicated,
        applicable=lambda attr, config: attr.unique and config.tuple_count >= 2,
        eligible=_with_donor,
        claims_donor=True,
    ),
    ErrorType(
        "synonyms_existence", _synonym, _is_synonym,
        applicable=lambda attr, config: bool(attr.synonyms),
        eligible=_has_synonym,
    ),
    ErrorType(
        "outlier", _outlier, _is_outlier,
        applicable=_distribution_sourced,
        params={"k": Field("number", 5.0, *POSITIVE)},
        bound=_outlier_bound,
    ),
    ErrorType(
        "missing_attribute", lambda *_: ABSENT, lambda clean, dirty, *_: dirty is ABSENT,
        counts_tuples=True,
        applicable=_always,
        single_target=True,
        needs_value=False,
    ),
    ErrorType(
        "bias", _bias, _is_biased,
        counts_tuples=True,
        params={
            "group_attribute": Field("string", REQUIRED),
            "group_value": Field("any", REQUIRED),  # typed as the group attribute's datatype
            "target_attribute": Field("string", REQUIRED),
            "shift": Field("number", None, bool, "must not be zero"),  # default: the target's stddev
            "skewed_weights": Field("object", None, items=Field("number", REQUIRED, *NON_NEGATIVE)),
        },
        parse=_parse_bias,
        signature=_hashed("skewed_weights", lambda w: {json.dumps(k, ensure_ascii=False): v for k, v in w.items()}),
        targets=lambda spec: (spec.params["target_attribute"],),
        eligible=_in_group,
        shortfall=_bias_shortfall,
        bound=_bias_bound,
    ),
    ErrorType(
        "noise", _noise, _is_noise,
        applicable=_distribution_sourced,
        params={"alpha": Field("number", 0.05, *POSITIVE)},
        bound=_noise_bound,
    ),
    ErrorType(
        "semi_empty_tuple", _semi_empty, _nulled, _is_semi_empty,
        params={"empty_fraction": Field("number", 0.7, lambda f: 0 < f < 1, "must be in (0, 1)")},
        parse=_parse_semi_empty,
        eligible=_can_empty,
    ),
    ErrorType(
        "inconsistency_among_attribute_values",
        _break_rule, _breaks_rule_cell, _breaks_a_rule,
        parse=_parse_inconsistency_among,
        eligible=_choose_rule,
    ),
    ErrorType(
        "irrelevant_observation",
        _irrelevant_row, _out_of_domain, _all_out_of_domain,
        params={"offdomain": Field("object", None, items=Field(SOURCE))},
        parse=_parse_offdomain,
        signature=_hashed("offdomain", lambda carriers: {n: source_signature(c.source) for n, c in carriers.items()}),
        draws_source=False,
    ),
    ErrorType(
        "redundancy_about_entity",
        _near_duplicate, _misspelled, _duplicates_a_tuple,
        params={
            "near_duplicate": Field("boolean", True),
            "perturbed_attributes": Field("integer", 1, *NON_NEGATIVE),
        },
        parse=_parse_redundancy,
    ),
    ErrorType(
        "inconsistency_about_entity",
        _conflicting_copy, _in_domain, _conflicts_with_a_tuple,
        parse=_parse_inconsistency_about,
    ),
)

ERROR_TYPES: dict[str, ErrorType] = {record.name: record for record in _RECORDS}
ALL_ERROR_TYPES = tuple(ERROR_TYPES)
