"""Schema-driven generator of clean and deliberately dirtied tabular datasets.

From one declarative schema and one seed, produce a constraint-satisfying
clean dataset, inject twenty configurable error types at exact rates, and
emit the dirty dataset, the clean ground truth, and a cell-level error log.
A scoring kit grades cleaning tools against the log. Everything is byte-for-
byte reproducible from the configuration and seed.

The public names load on first use (PEP 562), each with its defining module
only, so a process that only scores never imports the generator.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "ABSENT": "taxonomy",
    "ALL_ERROR_TYPES": "errortypes",
    "AttributeSpec": "config",
    "ConfigError": "exceptions",
    "DatasetFormatError": "exceptions",
    "DependencyRule": "config",
    "DirtygenError": "exceptions",
    "ErrorLogEntry": "output",
    "ErrorPlan": "errorplan",
    "ErrorSpec": "config",
    "EvaluationError": "exceptions",
    "GenerationError": "exceptions",
    "GeneratorConfig": "config",
    "LexiconError": "exceptions",
    "OutputSpec": "output",
    "PlanEntry": "errorplan",
    "PlanError": "exceptions",
    "RepairMetrics": "evalkit",
    "apply_plan": "inject",
    "derive_stream": "rng",
    "generate_clean_dataset": "datagen",
    "generate_record": "datagen",
    "load_config": "config",
    "load_lexicon": "config",
    "parse_config": "config",
    "plan_errors": "errorplan",
    "read_dataset": "output",
    "read_error_log": "output",
    "score": "evalkit",
    "verify_error": "inject",
    "write_run": "inject",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
