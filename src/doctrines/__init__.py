"""Quantifier completions of predicate doctrines over finite categories.

The package mechanizes the free addition of existential and universal
quantifiers to a poset-valued doctrine, the lattice and adjoint structure
those completions carry, the dialectica order they compose into, and the
choice principles they validate, with exhaustive brute-force verification
at desk scale.
"""

from .completion import (
    EX,
    UN,
    Completion,
    QuantElem,
    WitnessArrow,
    dual_completion,
    duality_transport,
    exists_proj,
    forall_proj,
)
from .core import BACKEND
from .dialectica import (
    DialObj,
    dial_from_nested,
    dial_leq,
    dial_order_agrees,
    dial_to_nested,
    forall_pr_exp,
    nested_completion,
)
from .doctrine import (
    CAP_EX_PR,
    CAP_INJ_LEFT,
    CAP_INJ_RIGHT,
    CAP_LAT,
    CAP_UN_PR,
    Doctrine,
    OpDoctrine,
    PowersetDoctrine,
    TabularDoctrine,
    load_doctrine,
    op_doctrine,
    powerset_doctrine,
    verify_doctrine,
)
from .errors import (
    CapabilityError,
    DoctrineError,
    LoadError,
    NoMediatingArrow,
    NonUniqueMediatingArrow,
    SearchBudgetExceeded,
)
from .fincat import Arrow, SkelFinSet, TableCat, compose, load_category
from .laws import LawContext, run_suite
from .poset import (
    LatticeReport,
    MonotoneMap,
    Poset,
    Preorder,
    lattice_check,
    left_adjoint_of,
    poset_reflect,
    right_adjoint_of,
    to_dot,
)
from .principles import (
    ChoiceCertificate,
    CounterexampleCertificate,
    SkolemReport,
    extract_choice,
    extract_counterexample,
    skolem_check,
)
from .report import LawReport, LawResult

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "BACKEND",
    "CAP_EX_PR",
    "CAP_INJ_LEFT",
    "CAP_INJ_RIGHT",
    "CAP_LAT",
    "CAP_UN_PR",
    "CapabilityError",
    "ChoiceCertificate",
    "Completion",
    "CounterexampleCertificate",
    "DialObj",
    "Doctrine",
    "DoctrineError",
    "EX",
    "LatticeReport",
    "LawContext",
    "LawReport",
    "LawResult",
    "LoadError",
    "MonotoneMap",
    "NoMediatingArrow",
    "NonUniqueMediatingArrow",
    "OpDoctrine",
    "Poset",
    "PowersetDoctrine",
    "Preorder",
    "QuantElem",
    "SearchBudgetExceeded",
    "SkelFinSet",
    "SkolemReport",
    "TableCat",
    "TabularDoctrine",
    "UN",
    "WitnessArrow",
    "compose",
    "dial_from_nested",
    "dial_leq",
    "dial_order_agrees",
    "dial_to_nested",
    "dual_completion",
    "duality_transport",
    "exists_proj",
    "extract_choice",
    "extract_counterexample",
    "forall_pr_exp",
    "forall_proj",
    "lattice_check",
    "left_adjoint_of",
    "load_category",
    "load_doctrine",
    "nested_completion",
    "op_doctrine",
    "poset_reflect",
    "powerset_doctrine",
    "right_adjoint_of",
    "run_suite",
    "skolem_check",
    "to_dot",
    "verify_doctrine",
]
