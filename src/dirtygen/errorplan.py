"""Deterministic assignment of error targets before any injection happens.

Planning walks a seeded permutation of each spec's candidate space and takes
the first eligible, unclaimed targets until the exact count is met, so the
realized number of errors equals round(rate x population) and never depends
on luck. Specs are processed coarse-scope first (insertions, rows, columns,
cells); a cell already claimed by an earlier entry is skipped and the walk
continues. Because every spec draws from its own permutation, adding or
removing a spec of one type never moves the placements of another type
unless their claims actually collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ErrorSpec, GeneratorConfig
from .datagen import clean_cell_value, may_be_null
from .errortypes import ERROR_TYPES, ErrorType
from .exceptions import PlanError
from .rng import IndexPermutation, address_key, derive_stream
from .taxonomy import STAGE_INSERTION, split_count


@dataclass(slots=True)
class PlanEntry:
    error_type: str
    scope: str  # "cell" | "row" | "column" | "insertion"
    spec_index: int
    row: int | None  # target tuple, or source tuple for insertions (None: no source)
    attribute: str | None
    donor: int | None = None  # uniqueness violations: earlier tuple to copy from
    rule_index: int | None = None  # inconsistency among attributes: which rule

    def describe(self) -> str:
        parts = [self.scope, self.error_type]
        if self.scope == "insertion":
            if self.row is not None:
                parts.append(f"source={self.row}")
        else:
            parts.append(f"row={self.row}")
        if self.attribute is not None:
            parts.append(f"attr={self.attribute}")
        if self.donor is not None:
            parts.append(f"donor={self.donor}")
        if self.rule_index is not None:
            parts.append(f"rule={self.rule_index}")
        return " ".join(parts)


@dataclass
class ErrorPlan:
    entries: tuple[PlanEntry, ...]
    row_entries: dict = field(repr=False)  # base row -> [PlanEntry], in walk order
    insertions: tuple[PlanEntry, ...]  # dirty index N + position
    warnings: tuple[str, ...] = ()


class _Claims:
    """What the walk has taken: each base row's entries, which become the
    plan's row_entries, and the attributes that uniqueness donors hold in
    each row. An attribute of None stands for the whole row."""

    def __init__(self):
        self.row_entries: dict[int, list[PlanEntry]] = {}
        self._donated: dict[int, list[str]] = {}

    def free(self, row: int, attribute: str | None) -> bool:
        taken = [entry.attribute for entry in self.row_entries.get(row, ())] + self._donated.get(row, [])
        return not taken if attribute is None else None not in taken and attribute not in taken

    def claim(self, entry: PlanEntry) -> None:
        self.row_entries.setdefault(entry.row, []).append(entry)
        if entry.donor is not None:
            self._donated.setdefault(entry.donor, []).append(entry.attribute)


def plan_errors(config: GeneratorConfig) -> ErrorPlan:
    """Turn the error specs into a collision-free, exact-count target plan."""
    n = config.tuple_count
    claims = _Claims()
    entries: list[PlanEntry] = []
    insertions: list[PlanEntry] = []
    warnings: list[str] = []

    # Coarse stages claim first; the sort is stable, so specs of one stage
    # keep their declaration order.
    staged = sorted(
        enumerate(config.errors), key=lambda item: ERROR_TYPES[item[1].error_type].stage
    )
    for index, spec in staged:
        etype = ERROR_TYPES[spec.error_type]
        if etype.stage == STAGE_INSERTION:
            stream = derive_stream(config.seed, f"plan:{etype.name}")
            for _ in range(spec.count):
                # n >= 1 whenever count >= 1
                source = stream.randrange(n) if etype.draws_source else None
                entry = PlanEntry(etype.name, etype.scope, index, source, None)
                entries.append(entry)
                insertions.append(entry)
            continue
        targets = etype.targets(spec) or (None,)
        for attribute, share in zip(targets, split_count(spec.count, len(targets))):
            _place(config, index, spec, etype, attribute, share, claims, entries, warnings)

    return ErrorPlan(
        entries=tuple(entries),
        row_entries=claims.row_entries,
        insertions=tuple(insertions),
        warnings=tuple(warnings),
    )


def _place(
    config: GeneratorConfig,
    index: int,
    spec: ErrorSpec,
    etype: ErrorType,
    attribute: str | None,
    count: int,
    claims: _Claims,
    entries: list[PlanEntry],
    warnings: list[str],
) -> None:
    """Claim count targets of one spec on one attribute (None: whole rows),
    walking a seeded permutation of the tuples past ineligible ones."""
    if count == 0:
        return
    n = config.tuple_count
    perm = IndexPermutation(address_key(config.seed, f"plan:{etype.name}", 0, attribute or ""), n)
    skip_null = (
        attribute is not None
        and etype.needs_value
        and may_be_null(config.attribute(attribute), config)
    )
    placed = 0
    for j in range(n):
        if placed >= count:
            break
        row = perm(j)
        if not claims.free(row, attribute):
            continue
        if skip_null and clean_cell_value(config, row, attribute) is None:
            continue
        extras = {}
        if etype.eligible is not None:
            extras = etype.eligible(config, spec, row, attribute, claims)
            if extras is None:
                continue
        entry = PlanEntry(etype.name, etype.scope, index, row, attribute, **extras)
        claims.claim(entry)
        entries.append(entry)
        placed += 1
    if placed < count:
        if etype.shortfall is not None:
            warnings.append(etype.shortfall(spec, index, placed, count))
            return
        what = spec.error_type if attribute is None else f"{spec.error_type} on '{attribute}'"
        raise PlanError(
            f"error plan infeasible: spec {index} ({what}, rate {spec.rate}) "
            f"placed only {placed} of {count} targets"
        )


def format_plan(plan: ErrorPlan) -> str:
    """One line per entry, for --emit-plan debugging."""
    return "\n".join(entry.describe() for entry in plan.entries)
