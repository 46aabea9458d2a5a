"""Engine for query-driven interactive step machines.

Machines are finite rule systems (issue / final / update rules over query
templates) executed against pluggable environments in simultaneity phases.
The package parses a textual description language, runs steps, enumerates
the attainable interaction histories of a state, checks structural
conformance properties, and decides behavioral equivalence of two machines.
"""

from .analysis import (
    EnumerationConfig,
    EnumerationResult,
    check_postulates,
    enumerate_attainable,
    equivalent,
    weak_equivalent,
)
from .dsl import parse_spec, print_spec, validate_spec
from .errors import EngineError
from .execution import ScriptedEnvironment, Stall, STALL, run, step
from .history import History, Label, Elem, Query, format_history, mk_history, parse_history
from .isomorphism import Isomorphism, apply_isomorphism, check_isomorphism
from .model import (
    AlgorithmSpec,
    Verdict,
    causes,
    is_attainable,
    is_coherent,
    is_complete,
    issued,
    next_state,
    pending,
    update_set,
    verdict,
)
from .structure import Structure, Vocabulary, apply_updates, detect_clash, eval_term, validate_structure

__all__ = [
    "AlgorithmSpec",
    "Elem",
    "EngineError",
    "EnumerationConfig",
    "EnumerationResult",
    "History",
    "Isomorphism",
    "Label",
    "Query",
    "STALL",
    "ScriptedEnvironment",
    "Stall",
    "Structure",
    "Verdict",
    "Vocabulary",
    "apply_isomorphism",
    "apply_updates",
    "causes",
    "check_isomorphism",
    "check_postulates",
    "detect_clash",
    "enumerate_attainable",
    "equivalent",
    "eval_term",
    "format_history",
    "is_attainable",
    "is_coherent",
    "is_complete",
    "issued",
    "mk_history",
    "next_state",
    "parse_history",
    "parse_spec",
    "pending",
    "print_spec",
    "run",
    "step",
    "update_set",
    "validate_spec",
    "validate_structure",
    "verdict",
    "weak_equivalent",
]
