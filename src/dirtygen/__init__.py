"""Schema-driven generator of clean and deliberately dirtied tabular datasets.

From one declarative schema and one seed, produce a constraint-satisfying
clean dataset, inject twenty configurable error types at exact rates, and
emit the dirty dataset, the clean ground truth, and a cell-level error log.
A scoring kit grades cleaning tools against the log. Everything is byte-for-
byte reproducible from the configuration and seed.
"""

__version__ = "0.1.0"

from .config import (
    AttributeSpec,
    DependencyRule,
    ErrorSpec,
    GeneratorConfig,
    load_config,
    load_lexicon,
    parse_config,
)
from .datagen import generate_clean_dataset, generate_record
from .errorplan import ErrorPlan, PlanEntry, plan_errors
from .errortypes import ALL_ERROR_TYPES
from .evalkit import RepairMetrics, score
from .exceptions import (
    ConfigError,
    DatasetFormatError,
    DirtygenError,
    EvaluationError,
    GenerationError,
    LexiconError,
    PlanError,
)
from .inject import ErrorLogEntry, apply_plan, inject_stream, verify_error
from .output import OutputSpec, read_dataset, read_error_log
from .rng import derive_stream
from .taxonomy import ABSENT

__all__ = [
    "ABSENT",
    "ALL_ERROR_TYPES",
    "AttributeSpec",
    "ConfigError",
    "DatasetFormatError",
    "DependencyRule",
    "DirtygenError",
    "ErrorLogEntry",
    "ErrorPlan",
    "ErrorSpec",
    "EvaluationError",
    "GenerationError",
    "GeneratorConfig",
    "LexiconError",
    "OutputSpec",
    "PlanEntry",
    "PlanError",
    "RepairMetrics",
    "apply_plan",
    "derive_stream",
    "generate_clean_dataset",
    "generate_record",
    "inject_stream",
    "load_config",
    "load_lexicon",
    "parse_config",
    "plan_errors",
    "read_dataset",
    "read_error_log",
    "score",
    "verify_error",
]
