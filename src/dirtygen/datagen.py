"""Clean dataset generation: constraint-satisfying records, one seed, no state.

Every cell is a pure function of (seed, tuple index, attribute): most
attributes draw from their domain, sequences are index-keyed, and unique
attributes read position i of a seeded permutation of their value domain.
Dependent attributes are never sampled; they are looked up through their
rule from the determinant's generated value. parse_config resolves each
attribute's domain (domains.py) and its one clean-value rule (column_rule)
once and stores both on the AttributeSpec; nothing here keeps state. The
rule turns a block of tuples into a column of clean values. A single cell or
record is the block of one tuple, which reads its own Stream, so any cell can
still be regenerated without touching its neighbours, which the error
planner and the injectors rely on; stream keys are derived as rng documents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from .exceptions import GenerationError
from .rng import TWO53_INV, IndexPermutation, TupleBlock, address_key, stage_key, stream_after

if TYPE_CHECKING:  # config calls column_rule while it parses
    from .config import AttributeSpec, GeneratorConfig

STAGE_CLEAN = "clean"


# ---------------------------------------------------------------------------
# The clean-value rule
#
# A cell's stream is Stream(tuple_key(base, i)) with base the attribute's
# clean stage key. A null-rate attribute decides null on the stream's first
# word; the value then reads the domain's draw words after it, unless a
# sequence or a unique attribute takes it from the tuple index.

# Tuples per column block of generate_clean_dataset. On the ten C6
# attributes, 256 runs as fast as 1,024 and holds a quarter of the memory
# (a traced peak of 150 KiB against 585 KiB); 64 is about 13% slower.
BLOCK_TUPLES = 256


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


def column_rule(attr: AttributeSpec, seed: int) -> Callable:
    """TupleBlock -> the clean values of its tuples, or for a dependent, the
    determinant's column -> its own; parse_config stores it as attr.column
    once the attribute's domain and rule are resolved and validated."""
    if attr.dependency is not None:
        # parse_config proves the mapping total over the determinant's clean
        # values; a null determinant gives a null dependent.
        value = {None: None, **attr.dependency.mapping}.__getitem__
        return lambda determinants: list(map(value, determinants))
    domain, null_rate = attr.domain, attr.null_rate
    index_rule = _index_rule(attr, seed)
    base = stage_key(seed, STAGE_CLEAN, attr.name)
    nulls = 1 if null_rate > 0 else 0
    read = nulls + (domain.words if index_rule is None else 0)  # words of each stream

    def column(block: TupleBlock) -> list:
        words = block.words(base, read)
        if index_rule is not None:
            values = list(map(index_rule, range(block.lo, block.hi)))
        else:
            values = domain.attempts(block.hi - block.lo, words[nulls:])
        if nulls:
            values = [None if (w >> 11) * TWO53_INV < null_rate else v for w, v in zip(words[0], values)]
        if index_rule is None and domain.accept is not None:
            for j, value in enumerate(values):
                if value is not None and not domain.accept(value):
                    values[j] = domain.draw(stream_after(base, block.lo + j, read), rejected=1)
        return values

    return column


# ---------------------------------------------------------------------------
# Public entry points


def may_be_null(attr: AttributeSpec, config: GeneratorConfig) -> bool:
    """Can the clean value of this attribute be null (directly or through its determinants)?"""
    while attr.dependency is not None:
        attr = config.attribute(attr.dependency.determinant)
    return attr.null_rate > 0


def _one_tuple(config: GeneratorConfig, tuple_index: int) -> TupleBlock:
    """The block of one tuple of the dataset."""
    if not 0 <= tuple_index < config.tuple_count:
        raise GenerationError(f"tuple index {tuple_index} is outside the dataset's {config.tuple_count} tuples")
    return TupleBlock(tuple_index, tuple_index + 1)


def clean_cell_value(config: GeneratorConfig, tuple_index: int, attribute: str, _memo=None):
    """Regenerate the clean value of one cell in O(1) per determinant above it;
    _memo holds the tuple's values already known, and gains those computed."""
    if _memo is None:
        _memo = {}
    dependents = []  # the walk up the determinant chain, nearest first
    while attribute not in _memo:
        attr = config.attribute(attribute)
        if attr.dependency is None:
            (_memo[attribute],) = attr.column(_one_tuple(config, tuple_index))
            break
        dependents.append(attr)
        attribute = attr.dependency.determinant
    value = _memo[attribute]
    for attr in reversed(dependents):
        (value,) = attr.column([value])
        _memo[attr.name] = value
    return value


def _columns(config: GeneratorConfig, block: TupleBlock) -> list[list]:
    """The clean columns of a block in schema order, one per attribute; a
    dependent maps its determinant's column."""
    columns = {}
    for attr in map(config.attribute, config.eval_order):
        rule = attr.dependency
        columns[attr.name] = attr.column(block if rule is None else columns[rule.determinant])
    return [columns[name] for name in config.attribute_names]


def generate_record(config: GeneratorConfig, tuple_index: int) -> dict:
    """One clean record, keys in schema order."""
    columns = _columns(config, _one_tuple(config, tuple_index))
    return dict(zip(config.attribute_names, [column[0] for column in columns]))


def clean_column_blocks(config: GeneratorConfig) -> Iterator[tuple[int, list[list]]]:
    """The first tuple index and the clean columns of each block of tuples,
    in index order, for all tuple_count tuples; memory does not grow with N."""
    for lo in range(0, config.tuple_count, BLOCK_TUPLES):
        yield lo, _columns(config, TupleBlock(lo, min(lo + BLOCK_TUPLES, config.tuple_count)))


def generate_clean_dataset(config: GeneratorConfig) -> Iterator[dict]:
    """All tuple_count records in index order, zipped from clean_column_blocks."""
    names = config.attribute_names
    for _, columns in clean_column_blocks(config):
        yield from [dict(zip(names, row)) for row in zip(*columns)]


# ---------------------------------------------------------------------------
# Domain membership (used by injectors and the error verifier)


def value_in_domain(attr: AttributeSpec, value, config: GeneratorConfig) -> bool:
    """Could the clean generator have produced this value for this attribute?
    A null is a member where the attribute is declared nullable, and where it
    may be null through its determinants (a dependent is null where they are)."""
    if value is None:
        return attr.nullable_in_clean or may_be_null(attr, config)
    return attr.domain.contains(value)
