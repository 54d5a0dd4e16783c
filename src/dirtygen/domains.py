"""Attribute domains: the values one attribute can take, resolved once.

parse_config resolves every attribute into one Domain record and stores it
on the AttributeSpec. Every later domain question reads that record: clean
draws, the k-th member of a sequence or of a unique attribute's permutation,
membership for the injectors and the verifier, enumeration for dependency
checks, and the parameters of a numeric source's distribution. resolve is
the one place that tells source kinds apart to answer such a question.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, NamedTuple

from .exceptions import ConfigError, GenerationError
from .rng import NORMAL_Z_BOUND
from .taxonomy import round_half_away
from .templates import template_decode, template_drawer, template_regex, template_size

MAX_MEMBERS = 10_000  # members() lists domains up to this size

_FLOAT_GRID_BITS = 53  # unique float values are drawn from a 2^53 grid
_RESAMPLE_LIMIT = 1000


class Domain(NamedTuple):
    """Every answer about one attribute's clean values."""

    size: int | None  # distinct members; None: unbounded
    draw: Callable  # stream -> one member, never null
    contains: Callable  # non-null value -> could the clean generator emit it?
    at: Callable | None = None  # k -> the k-th member; None where nothing indexes it
    span: int | None = None  # members members() lists: size, or a sequence's first tuple_count
    values: tuple | None = None  # a finite domain's members, in order
    by_index: Callable | None = None  # sequence sources: tuple index -> the clean value
    # Distribution sources only: the distribution's mean and standard
    # deviation, and the largest magnitude a draw can take.
    mean: float | None = None
    stddev: float | None = None
    bound: float | None = None

    def members(self) -> list | None:
        """Every member in order, or None when there are more than MAX_MEMBERS."""
        if self.span is None or self.span > MAX_MEMBERS:
            return None
        return [self.at(k) for k in range(self.span)]


def weighted_index(stream, weights: tuple[float, ...]) -> int:
    """Index i drawn with probability weights[i] / sum(weights)."""
    pick = stream.random() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            return i
    return len(weights) - 1


def finite(values: tuple, weights: tuple[float, ...] | None = None) -> Domain:
    """The domain listed by values; draws pick by weight when weights are given."""
    n = len(values)
    if weights is None:
        draw = lambda stream: values[stream.randrange(n)]  # noqa: E731
    else:
        draw = lambda stream: values[weighted_index(stream, weights)]  # noqa: E731
    return Domain(n, draw, values.__contains__, values.__getitem__, n, values)


def resolve(attr, tuple_count: int) -> Domain:
    """The domain of an attribute with a value source.

    attr.finite_domain, when set, lists the members. An attribute standing in
    for a bare source (an offdomain carrier) takes a set's or a lexicon's
    values as they are.
    """
    src = attr.source
    values = attr.finite_domain
    if values is None and src.kind in ("set", "lexicon"):
        values = tuple(src.values)
    if values is not None:
        weights = src.weights if src.kind == "set" and attr.admissible_set is None else None
        domain = finite(values, weights)
        if src.kind == "sequence":  # clean values follow the sequence even then
            domain = domain._replace(by_index=_sequence_at(attr))
        return domain
    if src.kind == "sequence":
        return _sequence_domain(attr, tuple_count)
    if src.kind == "template":
        return _template_domain(attr)
    if src.distribution == "normal":
        return _normal_domain(attr)
    return _uniform_domain(attr)


def _resampling(attr, draw: Callable, can_reject: bool) -> Callable:
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


def _sequence_terms(attr) -> tuple:
    """start and step; an integer sequence's as ints, so its values are exact."""
    start, step = attr.source.start, attr.source.step
    if attr.datatype == "integer":
        return int(start), int(step)
    return start, step


def _sequence_at(attr) -> Callable:
    start, step = _sequence_terms(attr)
    return lambda k: start + k * step


def _sequence_domain(attr, tuple_count: int) -> Domain:
    at, (start, step) = _sequence_at(attr), _sequence_terms(attr)
    span = max(tuple_count, 2)
    exact = isinstance(start, int) and isinstance(step, int)

    def contains(value) -> bool:  # any member, also beyond tuple_count
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if step == 0:
            return value == start
        if exact and (isinstance(value, int) or value.is_integer()):
            k, rest = divmod(int(value) - start, step)
            return k >= 0 and rest == 0
        try:
            k = (value - start) / step
            return k >= 0 and abs(k - round(k)) < 1e-9
        except OverflowError:  # an integer beyond the float range, or an infinite value
            return False

    draw = lambda stream: at(stream.randrange(span))  # noqa: E731
    return Domain(None if step != 0 else 1, draw, contains, at, tuple_count, by_index=at)


def _template_domain(attr) -> Domain:
    template = attr.source.template
    size, regex, satisfies = template_size(template), template_regex(template), attr.satisfies

    def contains(value) -> bool:
        return isinstance(value, str) and regex.fullmatch(value) is not None and satisfies(value)

    draw = _resampling(attr, template_drawer(template), attr.compiled_pattern is not None)
    return Domain(size, draw, contains, lambda k: template_decode(template, k), size)


def _numeric_contains(attr, low=None, high=None) -> Callable:
    integer, satisfies = attr.datatype == "integer", attr.satisfies

    def contains(value) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if integer and not isinstance(value, int):
            return False
        if low is not None and not low <= value <= high:
            return False
        return satisfies(value)

    return contains


def _uniform_domain(attr) -> Domain:
    src = attr.source
    # The range is cut to the interval, so only a pattern can reject a draw.
    if attr.datatype == "integer":
        lo, hi = math.ceil(src.low), math.floor(src.high)
        if attr.interval is not None:
            lo = max(lo, math.ceil(attr.interval[0]))
            hi = min(hi, math.floor(attr.interval[1]))
        if lo > hi:
            raise ConfigError(
                f"attribute '{attr.name}': no integer satisfies both the uniform "
                f"range and the interval constraint"
            )
        size = hi - lo + 1
        draw = lambda stream: lo + stream.randrange(size)  # noqa: E731
        at = lambda k: lo + k  # noqa: E731
    else:
        lo, hi = src.low, src.high
        if attr.interval is not None:
            lo = max(lo, attr.interval[0])
            hi = min(hi, attr.interval[1])
        if not lo < hi:
            raise ConfigError(
                f"attribute '{attr.name}': the uniform range and the interval "
                f"constraint do not overlap"
            )
        size = 1 << _FLOAT_GRID_BITS
        draw = lambda stream: lo + stream.random() * (hi - lo)  # noqa: E731
        # The k-th member is point (k + 0.5) / size of a grid over [lo, hi).
        at = lambda k: lo + (k + 0.5) / size * (hi - lo)  # noqa: E731
    return Domain(
        size,
        _resampling(attr, draw, attr.compiled_pattern is not None),
        _numeric_contains(attr, src.low, src.high),
        at,
        size,
        mean=(src.low + src.high) / 2.0,
        stddev=(src.high - src.low) / math.sqrt(12.0),
        bound=max(abs(float(src.low)), abs(float(src.high))),
    )


def _normal_domain(attr) -> Domain:
    mean, stddev = attr.source.mean, attr.source.stddev
    typed = round_half_away if attr.datatype == "integer" else float
    draw = lambda stream: typed(stream.normal(mean, stddev))  # noqa: E731
    can_reject = attr.compiled_pattern is not None or attr.interval is not None
    size = at = None
    if attr.datatype != "integer":
        size = 1 << _FLOAT_GRID_BITS
        if attr.unique:
            at = _normal_grid(attr, size)
    return Domain(
        size,
        _resampling(attr, draw, can_reject),
        _numeric_contains(attr),
        at,
        size,
        mean=mean,
        stddev=stddev,
        bound=abs(float(mean)) + NORMAL_Z_BOUND * float(stddev),
    )


def _normal_grid(attr, size: int) -> Callable:
    """k -> the quantile at point (k + 0.5) / size of the interval's probability mass."""
    dist = NormalDist(attr.source.mean, attr.source.stddev)
    p_lo, p_hi = 0.0, 1.0
    if attr.interval is not None:
        p_lo, p_hi = dist.cdf(attr.interval[0]), dist.cdf(attr.interval[1])
    mass = p_hi - p_lo
    if mass <= 0:
        raise ConfigError(
            f"attribute '{attr.name}': the interval captures no probability "
            f"mass of the declared normal distribution"
        )
    return lambda k: dist.inv_cdf(p_lo + (k + 0.5) / size * mass)
