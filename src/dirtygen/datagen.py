"""Clean dataset generation: constraint-satisfying records, one seed, no state.

Every cell is a pure function of (seed, tuple index, attribute): most
attributes draw from their domain, sequences are index-keyed, and unique
attributes read position i of a seeded permutation of their value domain.
Dependent attributes are never sampled; they are looked up through their
rule from the determinant's generated value. parse_config resolves each
attribute's domain (domains.py) and its one clean-value rule (column_rule)
once and stores both on the AttributeSpec; nothing here keeps state. The
rule turns a block of tuples into a column of clean values, and
clean_columns is the one place that applies the rules: to the 256-tuple
blocks of the dataset, to a sparse list of tuples, or to the block of one
tuple that is a single cell or record. So any cell can be regenerated
without touching its neighbours, which the error planner and the injectors
rely on; stream keys are derived as rng documents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence

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
        words, rows = block.words(base, read), block.rows
        if index_rule is not None:
            values = list(map(index_rule, rows))
        else:
            values = domain.attempts(len(rows), words[nulls:])
        if nulls:
            values = [None if (w >> 11) * TWO53_INV < null_rate else v for w, v in zip(words[0], values)]
        if index_rule is None and domain.accept is not None:
            for j, value in enumerate(values):
                if value is not None and not domain.accept(value):
                    values[j] = domain.draw(stream_after(base, rows[j], read), rejected=1)
        return values

    return column


# ---------------------------------------------------------------------------
# Public entry points


def may_be_null(attr: AttributeSpec, config: GeneratorConfig) -> bool:
    """Can the clean value of this attribute be null (directly or through its determinants)?"""
    while attr.dependency is not None:
        attr = config.attribute(attr.dependency.determinant)
    return attr.null_rate > 0


def clean_columns(
    config: GeneratorConfig, rows: range | list[int], names: Sequence[str] | None = None, known: dict | None = None
) -> list[list]:
    """The clean column of each named attribute (all, in schema order, by
    default) over the tuple indices rows, in their order and with repeats.
    known maps attributes to their columns over rows already computed; a
    dependent's determinant chain is walked up to the first column known or
    computed, and the rules apply determinant-first from there."""
    if rows and not (0 <= min(rows) and max(rows) < config.tuple_count):
        outside = min(rows) if min(rows) < 0 else max(rows)
        raise GenerationError(f"tuple index {outside} is outside the dataset's {config.tuple_count} tuples")
    block, columns = TupleBlock(rows), {**known} if known else {}
    names = config.attribute_names if names is None else names
    for name in names:
        chain = []  # the attributes up to the first column known, nearest first
        while name not in columns:
            chain.append(config.attribute(name))
            if chain[-1].dependency is None:
                break
            name = chain[-1].dependency.determinant
        for attr in reversed(chain):
            rule = attr.dependency
            columns[attr.name] = attr.column(block if rule is None else columns[rule.determinant])
    return list(map(columns.__getitem__, names))


def clean_cell_value(config: GeneratorConfig, tuple_index: int, attribute: str, known: dict | None = None):
    """The clean value of one cell; known maps attributes to the tuple's values already known."""
    return clean_columns(config, [tuple_index], (attribute,), known and {k: [v] for k, v in known.items()})[0][0]


def generate_record(config: GeneratorConfig, tuple_index: int) -> dict:
    """One clean record, keys in schema order."""
    return dict(zip(config.attribute_names, [column[0] for column in clean_columns(config, [tuple_index])]))


def clean_column_blocks(config: GeneratorConfig) -> Iterator[tuple[int, list[list]]]:
    """The first tuple index and the clean columns of each block of tuples,
    in index order, for all tuple_count tuples; memory does not grow with N."""
    for lo in range(0, config.tuple_count, BLOCK_TUPLES):
        yield lo, clean_columns(config, range(lo, min(lo + BLOCK_TUPLES, config.tuple_count)))


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
