"""Output checks and the seeded repair oracle.

Every dirtygen call goes through the package namespace (`dg.read_dataset`,
not a name imported from it), so the traced run's wrappers see the check's
reads, verifications and scoring as well as the operation's.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import dirtygen as dg

OUTPUT_FILES = ("clean.ndjson", "dirty.ndjson", "errors.log")
INSERTION_TYPES = frozenset(("irrelevant_observation", "redundancy_about_entity", "inconsistency_about_entity"))
# Types whose rate applies to tuples; the others apply to target cells.
TUPLE_POPULATION_TYPES = INSERTION_TYPES | {
    "semi_empty_tuple", "inconsistency_among_attribute_values", "missing_attribute", "bias",
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    return {name: sha256_file(out_dir / name) for name in OUTPUT_FILES}


def target_counts(config_path: Path) -> dict[str, int]:
    """Expected realized count per error type, by the documented rule
    round_half_away(rate x population), summed per type. Types with a zero
    target are left out, as the manifest leaves them out."""
    doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
    tuples = doc["generation"]["tuple_count"]
    counts: dict[str, int] = {}
    for spec in doc.get("errors", []):
        error_type = spec["type"]
        population = tuples if error_type in TUPLE_POPULATION_TYPES else tuples * len(spec["attributes"])
        counts[error_type] = counts.get(error_type, 0) + math.floor(spec["rate"] * population + 0.5)
    return {error_type: count for error_type, count in counts.items() if count}


def manifest_problems(out_dir: Path, config_path: Path) -> list[str]:
    """Cheap per-operation check: the manifest exists and realizes every target."""
    path = out_dir / "run-manifest.json"
    if not path.is_file():
        return ["no run-manifest.json"]
    realized = json.loads(path.read_text(encoding="utf-8")).get("error_counts")
    expected = target_counts(config_path)
    if realized != expected:
        return [f"realized counts {realized} differ from spec targets {expected}"]
    return []


def encode_records(records) -> bytes:
    """The documented ndjson encoding, written independently of dirtygen's encoder."""
    return "".join(
        json.dumps(r, ensure_ascii=False, separators=(",", ":"), allow_nan=False) + "\n"
        for r in records
    ).encode("utf-8")


def replay(clean: list[dict], log, attribute_names) -> list[dict]:
    """Rebuild the dirty dataset from clean records and the documented log semantics."""
    dirty = [dict(record) for record in clean]
    inserted: dict[int, dict] = {}
    for entry in log:
        if entry.clean_tuple_index is None:
            row = inserted.setdefault(entry.dirty_tuple_index, {})
            if entry.attribute is not None:
                row[entry.attribute] = entry.dirty_value
            continue
        if entry.attribute is None:
            continue  # row marker, no cell of its own
        row = dirty[entry.dirty_tuple_index]
        if entry.dirty_value is dg.ABSENT:
            del row[entry.attribute]
        else:
            row[entry.attribute] = entry.dirty_value
    for index in sorted(inserted):
        content = inserted[index]
        dirty.append({name: content[name] for name in attribute_names if name in content})
    return dirty


def load_output(out_dir: Path):
    clean = list(dg.read_dataset(out_dir / "clean.ndjson"))
    dirty = list(dg.read_dataset(out_dir / "dirty.ndjson"))
    log = dg.read_error_log(out_dir / "errors.log")
    return clean, dirty, log


def replay_and_verify(out_dir: Path, config, loaded=None) -> dict:
    """Replay the log over clean, match dirty byte for byte, verify every entry.

    This is the verify_dense operation and the core of the full output check.
    """
    clean, dirty, log = loaded or load_output(out_dir)
    rebuilt = replay(clean, log, config.attribute_names)
    replay_ok = encode_records(rebuilt) == (out_dir / "dirty.ndjson").read_bytes()
    failed: dict[str, int] = {}
    for entry in log:
        clean_record = None if entry.clean_tuple_index is None else clean[entry.clean_tuple_index]
        ok = dg.verify_error(
            entry, clean_record, dirty[entry.dirty_tuple_index], config,
            dirty_dataset=dirty, clean_dataset=clean,
        )
        if not ok:
            failed[entry.error_type] = failed.get(entry.error_type, 0) + 1
    return {"rows": len(dirty), "entries": len(log), "replay_ok": replay_ok, "unverified": failed}


def full_check(out_dir: Path, config_path: Path) -> list[str]:
    """Every check one distinct output gets once; returns the problems found.

    Beyond replay and verification, the perfect repair (clean values back,
    inserted rows deleted) must score 1.0 on all six metrics: that holds only
    if the logged cells are exactly the cells where dirty differs from clean.
    """
    problems = manifest_problems(out_dir, config_path)
    config = dg.load_config(config_path)
    clean, dirty, log = loaded = load_output(out_dir)
    result = replay_and_verify(out_dir, config, loaded)
    if not result["replay_ok"]:
        problems.append("replaying the log over clean does not rebuild dirty byte for byte")
    if result["unverified"]:
        problems.append(f"entries failing verify_error: {result['unverified']}")
    perfect = [dict(r) for r in clean] + [None] * (len(dirty) - len(clean))
    overall = dg.score(clean, dirty, perfect, log).overall.to_dict()
    if any(value != 1.0 for value in overall.values()):
        problems.append(f"the perfect repair scores {overall}")
    return problems


def _wrong_value(value, avoid):
    """A value of the same JSON type as `value` that differs from it and from `avoid`."""
    if isinstance(value, bool):
        return None if (not value) == avoid else (not value)
    if isinstance(value, int):
        step = 1
    elif isinstance(value, float):
        step = 0.25
    elif isinstance(value, str):
        candidate = value + "#"
        while candidate == avoid:
            candidate += "#"
        return candidate
    else:
        return None  # null and absent cells have no same-typed wrong value
    candidate = value + step
    while candidate == avoid:
        candidate += step
    return candidate


def build_repair(inputs: Path, config, seed: int) -> dict[str, int]:
    """Write inputs/repaired.ndjson from the seed; return the counts it must score.

    Logged cells are split into correct fixes, wrong fixes and untouched
    errors; unlogged cells are corrupted as false flags; most inserted rows
    are deleted. Wrong fixes and false flags keep the replaced value's JSON
    type and differ from it under Python ==, so the expected counts do not
    depend on scoring's open type-strictness question (1 == True == 1.0).
    """
    clean, dirty, log = load_output(inputs)
    rng = random.Random(f"perfbench-repair-{seed}")
    n = len(clean)
    attributes = list(config.attribute_names)
    logged = sorted({
        (e.dirty_tuple_index, e.attribute)
        for e in log
        if e.error_type not in INSERTION_TYPES and e.attribute is not None
    })
    inserted = sorted({e.dirty_tuple_index for e in log if e.error_type in INSERTION_TYPES})
    repaired: list[dict | None] = [dict(r) for r in dirty]
    tally = dict.fromkeys(("correct", "wrong", "untouched", "false_flag", "deleted", "kept"), 0)

    rng.shuffle(logged)
    for position, (row, attribute) in enumerate(logged):
        clean_value = clean[row].get(attribute, dg.ABSENT)
        dirty_value = dirty[row].get(attribute, dg.ABSENT)
        kind = ("correct", "correct", "wrong", "untouched", "untouched")[position % 5]
        if kind == "correct":
            if clean_value is dg.ABSENT:
                del repaired[row][attribute]
            else:
                repaired[row][attribute] = clean_value
        elif kind == "wrong":
            wrong = _wrong_value(clean_value, dirty_value)
            if wrong is None:
                kind = "untouched"
            else:
                repaired[row][attribute] = wrong
        tally[kind] += 1

    logged_set = set(logged)
    corrupted: set[tuple[int, str]] = set()
    while len(corrupted) < max(1, len(logged) // 4):
        cell = (rng.randrange(n), rng.choice(attributes))
        value = dirty[cell[0]].get(cell[1], dg.ABSENT)
        if cell in logged_set or cell in corrupted or value is None or value is dg.ABSENT:
            continue
        wrong = _wrong_value(value, value)
        if wrong is None:
            continue
        repaired[cell[0]][cell[1]] = wrong
        corrupted.add(cell)
    tally["false_flag"] = len(corrupted)

    for row in inserted:
        if rng.random() < 0.7:
            repaired[row] = None
            tally["deleted"] += 1
        else:
            tally["kept"] += 1

    with open(inputs / "repaired.ndjson", "wb") as fh:
        fh.write(b"".join(
            b"null\n" if r is None else encode_records([r]) for r in repaired
        ))

    tp = tally["correct"] + tally["wrong"] + tally["deleted"]
    fp = tally["false_flag"]
    fn = tally["untouched"] + tally["kept"]
    units = n * len(attributes) + (len(dirty) - n)
    return {
        "true_positives": tp,
        "false_positives": fp,
        "false_negatives": fn,
        "true_negatives": units - tp - fp - fn,
        "correct_repairs": tally["correct"] + tally["deleted"],
        "flagged": tp + fp,
        "logged": len(logged) + len(inserted),
        "units": units,
    }
