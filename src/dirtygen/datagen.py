"""Clean dataset generation: constraint-satisfying records, one seed, no state.

Every cell is a pure function of (seed, tuple index, attribute): lexicon and
set sources draw an index, numeric sources draw from their distribution and
resample into the interval, sequences are index-keyed, and unique attributes
read position i of a seeded permutation of their value domain. Dependent
attributes are never sampled; they are looked up through their rule from the
determinant's generated value. Each attribute's rule is resolved once per
run, on first use, into a kernel kept in config.caches; clean generation and
the injectors' in-domain draws share it. Any single cell can still be
regenerated in O(1) without touching its neighbours, which the error planner
and the injectors rely on, and stream keys are derived as rng documents.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, Iterator, NamedTuple

from .config import (
    AttributeSpec,
    GeneratorConfig,
    NumericSource,
    SequenceSource,
    TemplateSource,
    _effective_float_range,
    _effective_int_range,
    enumerate_clean_domain,
    unique_domain_size,
)
from .exceptions import GenerationError
from .rng import IndexPermutation, Stream, address_key, stage_key, tuple_key
from .taxonomy import round_half_away
from .templates import template_decode, template_drawer, template_regex

_RESAMPLE_LIMIT = 1000

STAGE_CLEAN = "clean"


def distribution_params(attr: AttributeSpec) -> tuple[float, float]:
    """Mean and standard deviation of the declared source distribution."""
    src = attr.source
    if not isinstance(src, NumericSource):
        raise GenerationError(f"attribute '{attr.name}' has no numeric distribution")
    if src.distribution == "uniform":
        return (src.low + src.high) / 2.0, (src.high - src.low) / math.sqrt(12.0)
    return src.mean, src.stddev


def weighted_index(stream: Stream, weights: tuple[float, ...]) -> int:
    """Index i drawn with probability weights[i] / sum(weights)."""
    pick = stream.random() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            return i
    return len(weights) - 1


# ---------------------------------------------------------------------------
# Per-attribute kernels


class _Kernel(NamedTuple):
    """One attribute's rules, resolved once per run."""

    attr: AttributeSpec
    draw: Callable  # stream -> one value from the attribute's own domain, never null
    value: Callable  # (stream, tuple index) -> the clean value drawn from that stream
    cell: Callable  # tuple index (a dependent: its determinant's value) -> the clean value
    determinant: str | None


def _drawer(attr: AttributeSpec, config: GeneratorConfig) -> Callable:
    """The attribute's draw rule, one per source kind."""
    if attr.dependency is not None:
        images = tuple(enumerate_clean_domain(attr, config.tuple_count))
        return lambda stream: images[stream.randrange(len(images))]
    src, domain = attr.source, attr.finite_domain
    if domain is not None:
        if src.kind == "set" and src.weights is not None and attr.admissible_set is None:
            return lambda stream: domain[weighted_index(stream, src.weights)]
        return lambda stream: domain[stream.randrange(len(domain))]
    if src.kind == "sequence":
        at, span = _sequence(attr), max(config.tuple_count, 2)
        return lambda stream: at(stream.randrange(span))
    if src.kind == "template":
        return _resampling(attr, template_drawer(src.template), attr.compiled_pattern is not None)
    if src.kind != "numeric":
        raise GenerationError(f"attribute '{attr.name}' has no value source")
    if src.distribution == "normal":
        mean, stddev = src.mean, src.stddev
        typed = round_half_away if attr.datatype == "integer" else float
        draw = lambda stream: typed(stream.normal(mean, stddev))  # noqa: E731
        return _resampling(attr, draw, attr.compiled_pattern is not None or attr.interval is not None)
    # A uniform range is already cut to the interval; only a pattern can reject.
    if attr.datatype == "integer":
        lo, hi = _effective_int_range(attr)
        draw = lambda stream: lo + stream.randrange(hi - lo + 1)  # noqa: E731
    else:
        lo, hi = _effective_float_range(attr)
        draw = lambda stream: lo + stream.random() * (hi - lo)  # noqa: E731
    return _resampling(attr, draw, attr.compiled_pattern is not None)


def _resampling(attr: AttributeSpec, draw: Callable, can_reject: bool) -> Callable:
    """draw, redrawn until the value satisfies pattern and interval where they can reject it."""
    if not can_reject:
        return draw
    satisfies = attr.satisfies

    def resample(stream):
        for _ in range(_RESAMPLE_LIMIT):
            value = draw(stream)
            if satisfies(value):
                return value
        raise GenerationError(
            f"attribute '{attr.name}': no constraint-satisfying value found in "
            f"{_RESAMPLE_LIMIT} draws; the distribution and the constraints are "
            f"nearly disjoint"
        )

    return resample


def _sequence(attr: AttributeSpec) -> Callable:
    """k -> the k-th member of the attribute's sequence."""
    start, step = attr.source.start, attr.source.step
    if attr.datatype == "integer":
        return lambda k: int(start + k * step)
    return lambda k: start + k * step


def _index_rule(attr: AttributeSpec, config: GeneratorConfig) -> Callable | None:
    """tuple index -> clean value for sequences, and for unique attributes,
    which read a seeded permutation of their domain; None for the rest."""
    src = attr.source
    if src is not None and src.kind == "sequence":
        return _sequence(attr)
    if not attr.unique:
        return None
    size = unique_domain_size(attr)
    perm = IndexPermutation(address_key(config.seed, "unique", 0, attr.name), size)
    domain = attr.finite_domain
    if domain is not None:
        return lambda i: domain[perm(i)]
    if src.kind == "template":
        return lambda i: template_decode(src.template, perm(i))
    if attr.datatype == "integer":
        lo = _effective_int_range(attr)[0]
        return lambda i: lo + perm(i)
    # A unique float reads point (perm(i) + 0.5) / size of a grid over [0, 1).
    if src.distribution == "uniform":
        lo, hi = _effective_float_range(attr)
        return lambda i: lo + (perm(i) + 0.5) / size * (hi - lo)
    dist = NormalDist(src.mean, src.stddev)
    p_lo, p_hi = 0.0, 1.0
    if attr.interval is not None:
        p_lo, p_hi = dist.cdf(attr.interval[0]), dist.cdf(attr.interval[1])
    mass = p_hi - p_lo
    if mass <= 0:
        raise GenerationError(
            f"attribute '{attr.name}': the interval captures no probability "
            f"mass of the declared normal distribution"
        )
    return lambda i: dist.inv_cdf(p_lo + (perm(i) + 0.5) / size * mass)


def _compile(attr: AttributeSpec, config: GeneratorConfig) -> _Kernel:
    draw, index_rule, null_rate = _drawer(attr, config), _index_rule(attr, config), attr.null_rate

    def value(stream: Stream, tuple_index: int):
        if null_rate > 0 and stream.random() < null_rate:
            return None
        return draw(stream) if index_rule is None else index_rule(tuple_index)

    if attr.dependency is not None:
        # parse_config proves the mapping total over the determinant's clean
        # values; a null determinant gives a null dependent.
        mapped = {None: None, **attr.dependency.mapping}.__getitem__
        return _Kernel(attr, draw, value, mapped, attr.dependency.determinant)
    base = stage_key(config.seed, STAGE_CLEAN, attr.name)
    if null_rate > 0:
        cell = lambda i: value(Stream(tuple_key(base, i)), i)  # noqa: E731
    elif index_rule is not None:
        cell = index_rule  # the cell's stream would go unread
    else:
        cell = lambda i: draw(Stream(tuple_key(base, i)))  # noqa: E731
    return _Kernel(attr, draw, value, cell, None)


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


def _kernel(attr: AttributeSpec, config: GeneratorConfig) -> _Kernel:
    kernel = _compiled(config)[0].get(attr.name)
    if kernel is None or kernel.attr is not attr:  # a stand-in, such as an offdomain carrier
        kernel = _compile(attr, config)
    return kernel


# ---------------------------------------------------------------------------
# Public entry points


def draw_from_source(attr: AttributeSpec, config: GeneratorConfig, stream: Stream):
    """One plausible value from the attribute's own domain (never null).

    Shared by clean generation and by injectors that need in-domain values
    (plausible-but-wrong entries, values borrowed from other attributes).
    """
    return _kernel(attr, config).draw(stream)


def generate_value(
    attr: AttributeSpec,
    stream: Stream,
    *,
    config: GeneratorConfig | None = None,
    tuple_index: int = 0,
):
    """Draw one clean value for the attribute from the given stream.

    Unique and sequence sources are index-keyed, so the tuple index matters
    for them; everything else depends only on the stream.
    """
    if config is None:
        raise GenerationError(f"attribute '{attr.name}' needs the run config to draw values")
    return _kernel(attr, config).value(stream, tuple_index)


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
    if attr.dependency is not None:
        return value in set(attr.dependency.mapping.values())
    if attr.finite_domain is not None:
        return value in attr.finite_domain
    src = attr.source
    if isinstance(src, NumericSource):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if attr.datatype == "integer" and not isinstance(value, int):
            return False
        if src.distribution == "uniform" and not (src.low <= value <= src.high):
            return False
        return attr.satisfies(value)
    if isinstance(src, SequenceSource):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if src.step == 0:
            return value == src.start
        k = (value - src.start) / src.step
        return k >= 0 and abs(k - round(k)) < 1e-9
    if isinstance(src, TemplateSource):
        if not isinstance(value, str):
            return False
        if not template_regex(src.template).fullmatch(value):
            return False
        return attr.satisfies(value)
    return False
