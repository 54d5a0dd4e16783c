"""Clean dataset generation: constraint-satisfying records, one seed, no state.

Every cell is a pure function of (seed, tuple index, attribute): lexicon and
set sources draw an index, numeric sources draw from their distribution and
resample into the interval, sequences are index-keyed, and unique attributes
read position i of a seeded permutation of their value domain. Dependent
attributes are never sampled; they are looked up through their rule from the
determinant's generated value. Because cells are independently addressable,
any single cell can be regenerated in O(1) without touching its neighbours,
which the error planner and the injectors rely on.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Iterator

from .config import (
    AttributeSpec,
    ConstantSetSource,
    GeneratorConfig,
    LexiconSource,
    NumericSource,
    SequenceSource,
    TemplateSource,
    _effective_float_range,
    _effective_int_range,
)
from .exceptions import GenerationError
from .rng import IndexPermutation, Stream, address_key
from .taxonomy import round_half_away
from .templates import template_decode, template_draw, template_regex, template_size

_RESAMPLE_LIMIT = 1000
_FLOAT_GRID = 1 << 53

STAGE_CLEAN = "clean"


def distribution_params(attr: AttributeSpec) -> tuple[float, float]:
    """Mean and standard deviation of the declared source distribution."""
    src = attr.source
    if not isinstance(src, NumericSource):
        raise GenerationError(f"attribute '{attr.name}' has no numeric distribution")
    if src.distribution == "uniform":
        return (src.low + src.high) / 2.0, (src.high - src.low) / math.sqrt(12.0)
    return src.mean, src.stddev


def _unique_permutation(config: GeneratorConfig, attr: AttributeSpec, size: int) -> IndexPermutation:
    cache = config.caches.setdefault("unique_perms", {})
    perm = cache.get(attr.name)
    if perm is None:
        perm = IndexPermutation(address_key(config.seed, "unique", 0, attr.name), size)
        cache[attr.name] = perm
    return perm


def _unique_value(attr: AttributeSpec, config: GeneratorConfig, tuple_index: int):
    src = attr.source
    if isinstance(src, SequenceSource):
        value = src.start + tuple_index * src.step
        return int(value) if attr.datatype == "integer" else value
    if attr.finite_domain is not None:
        perm = _unique_permutation(config, attr, len(attr.finite_domain))
        return attr.finite_domain[perm(tuple_index)]
    if isinstance(src, TemplateSource):
        perm = _unique_permutation(config, attr, template_size(src.template))
        return template_decode(src.template, perm(tuple_index))
    if isinstance(src, NumericSource):
        if attr.datatype == "integer":
            lo, hi = _effective_int_range(attr)
            perm = _unique_permutation(config, attr, hi - lo + 1)
            return lo + perm(tuple_index)
        perm = _unique_permutation(config, attr, _FLOAT_GRID)
        u = (perm(tuple_index) + 0.5) / _FLOAT_GRID
        if src.distribution == "uniform":
            lo, hi = _effective_float_range(attr)
            return lo + u * (hi - lo)
        dist = NormalDist(src.mean, src.stddev)
        if attr.interval is not None:
            p_lo = dist.cdf(attr.interval[0])
            p_hi = dist.cdf(attr.interval[1])
            if p_hi - p_lo <= 0:
                raise GenerationError(
                    f"attribute '{attr.name}': the interval captures no probability "
                    f"mass of the declared normal distribution"
                )
            u = p_lo + u * (p_hi - p_lo)
        return dist.inv_cdf(u)
    raise GenerationError(f"attribute '{attr.name}': no unique drawing rule for its source")


def weighted_index(stream: Stream, weights: tuple[float, ...]) -> int:
    """Index i drawn with probability weights[i] / sum(weights)."""
    pick = stream.random() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            return i
    return len(weights) - 1


def draw_from_source(attr: AttributeSpec, config: GeneratorConfig, stream: Stream):
    """One plausible value from the attribute's own domain (never null).

    Shared by clean generation and by injectors that need in-domain values
    (plausible-but-wrong entries, values borrowed from other attributes).
    """
    if attr.dependency is not None:
        images = _dependency_images(attr, config)
        return images[stream.randrange(len(images))]
    src = attr.source
    if attr.finite_domain is not None:
        if isinstance(src, ConstantSetSource) and src.weights is not None and attr.admissible_set is None:
            return attr.finite_domain[weighted_index(stream, src.weights)]
        return attr.finite_domain[stream.randrange(len(attr.finite_domain))]
    if isinstance(src, NumericSource):
        if src.distribution == "uniform":
            if attr.compiled_pattern is None:
                return _one_uniform(attr, stream)
            return _resample(attr, stream, lambda s: _one_uniform(attr, s))
        return _resample(attr, stream, lambda s: _one_normal(attr, s))
    if isinstance(src, SequenceSource):
        span = max(config.tuple_count, 2)
        k = stream.randrange(span)
        value = src.start + k * src.step
        return int(value) if attr.datatype == "integer" else value
    if isinstance(src, TemplateSource):
        if attr.compiled_pattern is None:
            return template_draw(src.template, stream)
        return _resample(attr, stream, lambda s: template_draw(src.template, s))
    raise GenerationError(f"attribute '{attr.name}' has no value source")


def _one_uniform(attr: AttributeSpec, stream: Stream):
    if attr.datatype == "integer":
        lo, hi = _effective_int_range(attr)
        return stream.randint(lo, hi)
    lo, hi = _effective_float_range(attr)
    return stream.uniform(lo, hi)


def _one_normal(attr: AttributeSpec, stream: Stream):
    src = attr.source
    value = stream.normal(src.mean, src.stddev)
    return round_half_away(value) if attr.datatype == "integer" else value


def _resample(attr: AttributeSpec, stream: Stream, draw):
    """Redraw until the value satisfies pattern and interval constraints."""
    for _ in range(_RESAMPLE_LIMIT):
        value = draw(stream)
        if attr.satisfies(value):
            return value
    raise GenerationError(
        f"attribute '{attr.name}': no constraint-satisfying value found in "
        f"{_RESAMPLE_LIMIT} draws; the distribution and the constraints are "
        f"nearly disjoint"
    )


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
    if attr.null_rate > 0 and stream.random() < attr.null_rate:
        return None
    if attr.unique:
        if config is None:
            raise GenerationError("unique attributes need the run config for their permutation")
        return _unique_value(attr, config, tuple_index)
    if isinstance(attr.source, SequenceSource):
        value = attr.source.start + tuple_index * attr.source.step
        return int(value) if attr.datatype == "integer" else value
    if config is None:
        raise GenerationError(f"attribute '{attr.name}' needs the run config to draw values")
    return draw_from_source(attr, config, stream)


def may_be_null(attr: AttributeSpec, config: GeneratorConfig) -> bool:
    """Can the clean value of this attribute be null (directly or through its determinants)?"""
    while attr.dependency is not None:
        attr = config.attribute(attr.dependency.determinant)
    return attr.null_rate > 0


def _dependency_images(attr: AttributeSpec, config: GeneratorConfig) -> list:
    cache = config.caches.setdefault("dependency_images", {})
    images = cache.get(attr.name)
    if images is None:
        images = sorted(set(attr.dependency.mapping.values()), key=repr)
        cache[attr.name] = images
    return images


def clean_cell_value(config: GeneratorConfig, tuple_index: int, attribute: str, _memo=None):
    """Regenerate the clean value of one cell in O(1)."""
    if _memo is None:
        _memo = {}
    if attribute in _memo:
        return _memo[attribute]
    attr = config.attribute(attribute)
    if attr.dependency is not None:
        det_value = clean_cell_value(config, tuple_index, attr.dependency.determinant, _memo)
        if det_value is None:
            value = None
        else:
            try:
                value = attr.dependency.mapping[det_value]
            except KeyError:
                raise GenerationError(
                    f"dependency mapping for '{attribute}' has no entry for "
                    f"determinant value {det_value!r}"
                ) from None
    else:
        stream = Stream(address_key(config.seed, STAGE_CLEAN, tuple_index, attribute))
        value = generate_value(attr, stream, config=config, tuple_index=tuple_index)
    _memo[attribute] = value
    return value


def generate_record(config: GeneratorConfig, tuple_index: int) -> dict:
    """One clean record, keys in schema order."""
    memo: dict = {}
    for name in config.eval_order:
        clean_cell_value(config, tuple_index, name, memo)
    return {name: memo[name] for name in config.attribute_names}


def generate_clean_dataset(config: GeneratorConfig) -> Iterator[dict]:
    """All tuple_count records in index order; memory does not grow with N."""
    for i in range(config.tuple_count):
        yield generate_record(config, i)


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
