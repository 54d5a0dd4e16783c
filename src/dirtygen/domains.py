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
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, NamedTuple

from .exceptions import ConfigError, GenerationError
from .output import canonical_json, same_json
from .rng import NORMAL_Z_BOUND, TWO53_INV, gaussian
from .taxonomy import ABSENT, round_half_away
from .templates import template_attempts, template_decode, template_regex, template_size

MAX_MEMBERS = 10_000  # members() lists domains up to this size

_FLOAT_GRID_BITS = 53  # unique float values are drawn from a 2^53 grid
_RESAMPLE_LIMIT = 1000
# The exact types of each datatype's values: a bool, though an int, is none of them.
_DATATYPES = {"string": (str,), "integer": (int,), "float": (int, float)}
_TERMS = {"integer": int, "float": float}  # a sequence's terms in each numeric datatype


class Domain(NamedTuple):
    """Every answer about one attribute's clean values."""

    size: int | None  # distinct members; None: unbounded
    # A draw attempt reads `words` u64 words from a stream, and
    # attempts(n, words) turns n attempts' words into their values: words
    # holds one list per word, the j-th list word j of every attempt. It is
    # the source kind's one rule: draw() applies it to one stream, and the
    # clean generator to the streams of a block of tuples.
    words: int
    attempts: Callable
    contains: Callable  # non-null value -> could the clean generator emit it? See resolve.
    at: Callable | None = None  # k -> the k-th member; None where nothing indexes it
    span: int | None = None  # members members() lists: size, or a sequence's first tuple_count
    values: tuple | None = None  # a finite domain's members, in order
    by_index: Callable | None = None  # sequence sources: tuple index -> the clean value
    # value -> does it satisfy pattern and interval? None where no attempt
    # can fail them; a failed attempt is drawn again.
    accept: Callable | None = None
    name: str = ""  # the attribute, for the error when no attempt is accepted
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

    def draw(self, stream, rejected: int = 0):
        """One member, never null: the first attempt from stream that accept
        takes; rejected counts attempts already made on the stream's words."""
        words, attempts, accept = self.words, self.attempts, self.accept
        for _ in range(_RESAMPLE_LIMIT - rejected):
            (value,) = attempts(1, [[stream.u64()] for _ in range(words)])
            if accept is None or accept(value):
                return value
        raise GenerationError(
            f"attribute '{self.name}': no constraint-satisfying value found in "
            f"{_RESAMPLE_LIMIT} draws; the distribution and the constraints are "
            f"nearly disjoint"
        )


def weighted_choice(weights: tuple[float, ...]) -> Callable[[float], int]:
    """u in [0, 1) -> index i; a uniform u gives i with probability weights[i] / sum(weights)."""
    # The pick is u * sum(weights), never u times the last running sum: from
    # Python 3.12 on, sum() of floats is compensated, so the two can differ,
    # and with them the index a pick lands on. The running sums add the
    # weights left to right from 0.0, so they are floats even for int weights.
    total, last = sum(weights), len(weights) - 1
    sums = list(accumulate(weights, initial=0.0))[1:]
    return lambda u: min(bisect_right(sums, u * total), last)


def finite(values: tuple, weights: tuple[float, ...] | None = None) -> Domain:
    """The domain listed by values; draws pick by weight when weights are given.
    A member is a value of the same canonical JSON as one listed, so 1.0 and
    true are not members of [1, 2, 3]."""
    n = len(values)
    if weights is None:
        attempts = lambda _, words: [values[(w * n) >> 64] for w in words[0]]  # noqa: E731
    else:
        choose = weighted_choice(weights)
        attempts = lambda _, words: [values[choose((w >> 11) * TWO53_INV)] for w in words[0]]  # noqa: E731
    keys = frozenset(map(canonical_json, values))
    contains = lambda value: value is not ABSENT and canonical_json(value) in keys  # noqa: E731
    return Domain(n, 1, attempts, contains, values.__getitem__, n, values)


def resolve(attr, tuple_count: int, values: tuple | None = None) -> Domain:
    """The domain of an attribute with a value source.

    values, when given, lists the members. An attribute standing in for a
    bare source (an offdomain carrier) takes a set's or a lexicon's values as
    they are; it only draws.

    A listed domain keys its typed, constraint-satisfying members. Any other
    domain's member has the attribute's datatype, passes attr.satisfies and
    passes its source kind's own test: the progression, the template's regex,
    the uniform range or the normal bound.
    """
    src = attr.source
    kind = src["kind"]
    if values is None and kind in ("set", "lexicon"):
        values = tuple(src["values"])
    if values is not None:
        # A set's weights; an admissible_set replaces the values they weigh.
        domain = finite(values, src.get("weights") if attr.admissible_set is None else None)
        if kind == "sequence":  # clean values follow the sequence even then
            domain = domain._replace(by_index=_sequence_at(attr))
        return domain
    if kind == "sequence":
        domain = _sequence_domain(attr, tuple_count)
    elif kind == "template":
        domain = _template_domain(attr)
    elif src["distribution"] == "normal":
        domain = _normal_domain(attr)
    else:
        domain = _uniform_domain(attr)
    types, own, satisfies = _DATATYPES[attr.datatype], domain.contains, attr.satisfies
    return domain._replace(contains=lambda value: type(value) in types and own(value) and satisfies(value))


def _sequence_terms(attr) -> tuple:
    """start and step in the attribute's datatype, so integer terms are exact and float terms
    floats (start 1 writes 1.0); an offdomain carrier, of datatype "string", keeps them as written."""
    start, step = attr.source["start"], attr.source["step"]
    typed = _TERMS.get(attr.datatype)
    return (start, step) if typed is None else (typed(start), typed(step))


def _sequence_at(attr) -> Callable:
    start, step = _sequence_terms(attr)
    return lambda k: start + k * step


def _sequence_domain(attr, tuple_count: int) -> Domain:
    at, (start, step) = _sequence_at(attr), _sequence_terms(attr)
    span, slack = max(tuple_count, 2), 0 if attr.datatype == "integer" else 2

    def contains(value) -> bool:  # same_json as at(k) for an index k >= 0, also beyond tuple_count
        if step == 0:
            return same_json(value, start)
        try:  # an integer sequence's index is exact, a float one's rounded and up to two off
            k = round((value - start) / step) if slack else (value - start) // step
            return any(same_json(at(j), value) for j in range(max(k - slack, 0), k + slack + 1))
        except (OverflowError, ValueError):  # beyond the float range, infinite or nan
            return False

    attempts = lambda _, words: [at((w * span) >> 64) for w in words[0]]  # noqa: E731
    return Domain(None if step != 0 else 1, 1, attempts, contains, at, tuple_count, by_index=at)


def _template_domain(attr) -> Domain:
    template = attr.source["template"]
    size, regex = template_size(template), template_regex(template)
    return Domain(
        size,
        *template_attempts(template),
        lambda value: regex.fullmatch(value) is not None,
        lambda k: template_decode(template, k),
        size,
        accept=attr.satisfies if attr.compiled_pattern is not None else None,
        name=attr.name,
    )


def _uniform_domain(attr) -> Domain:
    low, high = attr.source["min"], attr.source["max"]
    # The range is cut to the interval, so only a pattern can reject a draw.
    if attr.datatype == "integer":
        lo, hi = math.ceil(low), math.floor(high)
        if attr.interval is not None:
            lo = max(lo, math.ceil(attr.interval[0]))
            hi = min(hi, math.floor(attr.interval[1]))
        if lo > hi:
            raise ConfigError(
                f"attribute '{attr.name}': no integer satisfies both the uniform "
                f"range and the interval constraint"
            )
        size = hi - lo + 1
        attempts = lambda _, words: [lo + ((w * size) >> 64) for w in words[0]]  # noqa: E731
        at = lambda k: lo + k  # noqa: E731
    else:
        lo, hi = low, high
        if attr.interval is not None:
            lo = max(lo, attr.interval[0])
            hi = min(hi, attr.interval[1])
        if not lo < hi:
            raise ConfigError(
                f"attribute '{attr.name}': the uniform range and the interval "
                f"constraint do not overlap"
            )
        size = 1 << _FLOAT_GRID_BITS
        width = hi - lo
        attempts = lambda _, words: [lo + (w >> 11) * TWO53_INV * width for w in words[0]]  # noqa: E731
        # The k-th member is point (k + 0.5) / size of a grid over [lo, hi).
        at = lambda k: lo + (k + 0.5) / size * (hi - lo)  # noqa: E731
    return Domain(
        size,
        1,
        attempts,
        lambda value: low <= value <= high,
        at,
        size,
        accept=attr.satisfies if attr.compiled_pattern is not None else None,
        name=attr.name,
        mean=(low + high) / 2.0,
        stddev=(high - low) / math.sqrt(12.0),
        bound=max(abs(float(low)), abs(float(high))),
    )


def _normal_domain(attr) -> Domain:
    mean, stddev = attr.source["mean"], attr.source["stddev"]
    typed = round_half_away if attr.datatype == "integer" else float

    def attempts(_, words) -> list:  # u1 in (0, 1] and u2 in [0, 1), as Stream.normal draws them
        return [
            typed(mean + stddev * gaussian(((w1 >> 11) + 1) * TWO53_INV, (w2 >> 11) * TWO53_INV))
            for w1, w2 in zip(*words)
        ]

    # Rounding to an integer can add half a unit to NORMAL_Z_BOUND stddevs.
    bound = abs(float(mean)) + NORMAL_Z_BOUND * float(stddev) + (0.5 if attr.datatype == "integer" else 0.0)
    size = at = None
    if attr.datatype != "integer":
        size = 1 << _FLOAT_GRID_BITS
        if attr.unique:
            at = _normal_grid(attr, size)
    return Domain(
        size,
        2,
        attempts,
        lambda value: abs(value) <= bound,
        at,
        size,
        accept=attr.satisfies if attr.compiled_pattern is not None or attr.interval is not None else None,
        name=attr.name,
        mean=mean,
        stddev=stddev,
        bound=bound,
    )


def _normal_grid(attr, size: int) -> Callable:
    """k -> the quantile at point (k + 0.5) / size of the interval's probability mass."""
    from statistics import NormalDist  # it loads fractions and decimal: only unique normals pay

    dist = NormalDist(attr.source["mean"], attr.source["stddev"])
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
