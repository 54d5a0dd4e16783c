"""Clean dataset generation: constraint-satisfying records, one seed, no state.

Every cell is a pure function of (seed, tuple index, attribute): most
attributes draw from their domain, sequences are index-keyed, and unique
attributes read position i of a seeded permutation of their value domain.
Dependent attributes are never sampled; they are looked up through their
rule from the determinant's generated value. parse_config resolves each
attribute's domain (domains.py) and clean-cell rule (cell_rule) once and
stores both on the AttributeSpec; nothing here keeps state. Any single cell
can still be regenerated without touching its neighbours, which the error
planner and the injectors rely on, and stream keys are derived as rng
documents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from .exceptions import GenerationError
from .rng import IndexPermutation, Stream, address_key, stage_key, tuple_key

if TYPE_CHECKING:  # config calls cell_rule while it parses
    from .config import AttributeSpec, GeneratorConfig

STAGE_CLEAN = "clean"


def distribution_params(attr: AttributeSpec) -> tuple[float, float]:
    """Mean and standard deviation of the declared source distribution."""
    if attr.domain.mean is None:
        raise GenerationError(f"attribute '{attr.name}' has no numeric distribution")
    return attr.domain.mean, attr.domain.stddev


# ---------------------------------------------------------------------------
# Clean-cell rules


def _index_rule(attr: AttributeSpec, seed: int) -> Callable | None:
    """tuple index -> clean value for sequences, and for unique attributes,
    which read a seeded permutation of their domain; None for the rest."""
    domain = attr.domain
    if domain.by_index is not None:
        return domain.by_index
    if not attr.unique:
        return None
    at = domain.at
    perm = IndexPermutation(address_key(seed, "unique", 0, attr.name), domain.size)
    return lambda i: at(perm(i))


def _value_rule(attr: AttributeSpec, index_rule: Callable | None) -> Callable:
    """(stream, tuple index) -> the clean value drawn from that stream."""
    draw, null_rate = attr.domain.draw, attr.null_rate

    def value(stream: Stream, tuple_index: int):
        if null_rate > 0 and stream.random() < null_rate:
            return None
        return draw(stream) if index_rule is None else index_rule(tuple_index)

    return value


def cell_rule(attr: AttributeSpec, seed: int) -> Callable:
    """tuple index -> clean value, or for a dependent, determinant value ->
    clean value; parse_config stores it as attr.cell once the attribute's
    domain and rule are resolved and validated."""
    if attr.dependency is not None:
        # parse_config proves the mapping total over the determinant's clean
        # values; a null determinant gives a null dependent.
        return {None: None, **attr.dependency.mapping}.__getitem__
    index_rule = _index_rule(attr, seed)
    base = stage_key(seed, STAGE_CLEAN, attr.name)
    if attr.null_rate > 0:
        value = _value_rule(attr, index_rule)
        return lambda i: value(Stream(tuple_key(base, i)), i)
    if index_rule is not None:
        return index_rule  # the cell's stream would go unread
    draw = attr.domain.draw
    return lambda i: draw(Stream(tuple_key(base, i)))


def _record_function(config: GeneratorConfig) -> Callable:
    """tuple index -> the clean record: walks eval_order, keys in schema order."""
    steps = tuple(
        (attr.name, attr.cell, None if attr.dependency is None else attr.dependency.determinant)
        for attr in map(config.attribute, config.eval_order)
    )
    names = config.attribute_names
    in_schema_order = config.eval_order == names

    def record(tuple_index: int) -> dict:
        values = {}
        for name, cell, determinant in steps:
            values[name] = cell(tuple_index if determinant is None else values[determinant])
        return values if in_schema_order else {name: values[name] for name in names}

    return record


# ---------------------------------------------------------------------------
# Public entry points


def generate_value(
    attr: AttributeSpec,
    stream: Stream,
    *,
    config: GeneratorConfig,
    tuple_index: int = 0,
):
    """Draw one clean value for the attribute from the given stream.

    Unique and sequence sources are index-keyed, so the tuple index matters
    for them; everything else depends only on the stream.
    """
    # A unique attribute draws no nulls, so its cell rule is its index rule.
    index_rule = attr.cell if attr.unique else attr.domain.by_index
    return _value_rule(attr, index_rule)(stream, tuple_index)


def may_be_null(attr: AttributeSpec, config: GeneratorConfig) -> bool:
    """Can the clean value of this attribute be null (directly or through its determinants)?"""
    while attr.dependency is not None:
        attr = config.attribute(attr.dependency.determinant)
    return attr.null_rate > 0


def clean_cell_value(config: GeneratorConfig, tuple_index: int, attribute: str, _memo=None):
    """Regenerate the clean value of one cell in O(1) per determinant above it;
    _memo holds the tuple's values already known, and gains those computed."""
    if _memo is None:
        _memo = {}
    dependents = []  # the walk up the determinant chain, nearest first
    while attribute not in _memo:
        attr = config.attribute(attribute)
        if attr.dependency is None:
            _memo[attribute] = attr.cell(tuple_index)
            break
        dependents.append(attr)
        attribute = attr.dependency.determinant
    value = _memo[attribute]
    for attr in reversed(dependents):
        value = _memo[attr.name] = attr.cell(value)
    return value


def generate_record(config: GeneratorConfig, tuple_index: int) -> dict:
    """One clean record, keys in schema order."""
    return _record_function(config)(tuple_index)


def generate_clean_dataset(config: GeneratorConfig) -> Iterator[dict]:
    """All tuple_count records in index order; memory does not grow with N."""
    record = _record_function(config)
    for i in range(config.tuple_count):
        yield record(i)


# ---------------------------------------------------------------------------
# Domain membership (used by injectors and the error verifier)


def value_in_domain(attr: AttributeSpec, value, config: GeneratorConfig) -> bool:
    """Could the clean generator have produced this value for this attribute?"""
    if value is None:
        return attr.nullable_in_clean
    return attr.domain.contains(value)
