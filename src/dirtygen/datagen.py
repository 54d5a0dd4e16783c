"""Clean dataset generation: constraint-satisfying records, one seed, no state.

Every cell is a pure function of (seed, tuple index, attribute): most
attributes draw from their domain, sequences are index-keyed, and unique
attributes read position i of a seeded permutation of their value domain.
Dependent attributes are never sampled; they are looked up through their
rule from the determinant's generated value. Domains are resolved once, at
parse time, by the one resolver in domains.py; this module adds the null
rate, the tuple keys and the permutations, compiled on first use into one
kernel per attribute kept in config.caches. Any single cell can still be
regenerated in O(1) without touching its neighbours, which the error planner
and the injectors rely on, and stream keys are derived as rng documents.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .config import AttributeSpec, GeneratorConfig
from .exceptions import GenerationError
from .rng import IndexPermutation, Stream, address_key, stage_key, tuple_key

STAGE_CLEAN = "clean"


def distribution_params(attr: AttributeSpec) -> tuple[float, float]:
    """Mean and standard deviation of the declared source distribution."""
    if attr.domain.mean is None:
        raise GenerationError(f"attribute '{attr.name}' has no numeric distribution")
    return attr.domain.mean, attr.domain.stddev


# ---------------------------------------------------------------------------
# Per-attribute kernels


class _Kernel(NamedTuple):
    """One attribute's rules, resolved once per run."""

    value: Callable  # (stream, tuple index) -> the clean value drawn from that stream
    cell: Callable  # tuple index (a dependent: its determinant's value) -> the clean value
    determinant: str | None


def _index_rule(attr: AttributeSpec, config: GeneratorConfig) -> Callable | None:
    """tuple index -> clean value for sequences, and for unique attributes,
    which read a seeded permutation of their domain; None for the rest."""
    domain = attr.domain
    if domain.by_index is not None:
        return domain.by_index
    if not attr.unique:
        return None
    at = domain.at
    perm = IndexPermutation(address_key(config.seed, "unique", 0, attr.name), domain.size)
    return lambda i: at(perm(i))


def _compile(attr: AttributeSpec, config: GeneratorConfig) -> _Kernel:
    draw, index_rule, null_rate = attr.domain.draw, _index_rule(attr, config), attr.null_rate

    def value(stream: Stream, tuple_index: int):
        if null_rate > 0 and stream.random() < null_rate:
            return None
        return draw(stream) if index_rule is None else index_rule(tuple_index)

    if attr.dependency is not None:
        # parse_config proves the mapping total over the determinant's clean
        # values; a null determinant gives a null dependent.
        mapped = {None: None, **attr.dependency.mapping}.__getitem__
        return _Kernel(value, mapped, attr.dependency.determinant)
    base = stage_key(config.seed, STAGE_CLEAN, attr.name)
    if null_rate > 0:
        cell = lambda i: value(Stream(tuple_key(base, i)), i)  # noqa: E731
    elif index_rule is not None:
        cell = index_rule  # the cell's stream would go unread
    else:
        cell = lambda i: draw(Stream(tuple_key(base, i)))  # noqa: E731
    return _Kernel(value, cell, None)


def _compiled(config: GeneratorConfig) -> tuple[dict, Callable]:
    """Every attribute's kernel by name, and the record function, which walks
    eval_order and keys the record in schema order; built on first use."""
    compiled = config.caches.get("clean_generation")
    if compiled is not None:
        return compiled
    kernels = {a.name: _compile(a, config) for a in config.schema}
    steps = tuple((name, kernels[name].cell, kernels[name].determinant) for name in config.eval_order)
    names = config.attribute_names
    in_schema_order = config.eval_order == names

    def record(tuple_index: int) -> dict:
        values = {}
        for name, cell, determinant in steps:
            values[name] = cell(tuple_index if determinant is None else values[determinant])
        return values if in_schema_order else {name: values[name] for name in names}

    compiled = config.caches["clean_generation"] = (kernels, record)
    return compiled


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
    return _compiled(config)[0][attr.name].value(stream, tuple_index)


def may_be_null(attr: AttributeSpec, config: GeneratorConfig) -> bool:
    """Can the clean value of this attribute be null (directly or through its determinants)?"""
    while attr.dependency is not None:
        attr = config.attribute(attr.dependency.determinant)
    return attr.null_rate > 0


def clean_cell_value(config: GeneratorConfig, tuple_index: int, attribute: str, _memo=None):
    """Regenerate the clean value of one cell in O(1)."""
    if _memo is None:
        _memo = {}
    elif attribute in _memo:
        return _memo[attribute]
    kernel = (config.caches.get("clean_generation") or _compiled(config))[0][attribute]
    if kernel.determinant is None:
        value = kernel.cell(tuple_index)
    else:
        value = kernel.cell(clean_cell_value(config, tuple_index, kernel.determinant, _memo))
    _memo[attribute] = value
    return value


def generate_record(config: GeneratorConfig, tuple_index: int) -> dict:
    """One clean record, keys in schema order."""
    return _compiled(config)[1](tuple_index)


def generate_clean_dataset(config: GeneratorConfig) -> Iterator[dict]:
    """All tuple_count records in index order; memory does not grow with N."""
    record = _compiled(config)[1]
    for i in range(config.tuple_count):
        yield record(i)


# ---------------------------------------------------------------------------
# Domain membership (used by injectors and the error verifier)


def value_in_domain(attr: AttributeSpec, value, config: GeneratorConfig) -> bool:
    """Could the clean generator have produced this value for this attribute?"""
    if value is None:
        return attr.nullable_in_clean
    return attr.domain.contains(value)
