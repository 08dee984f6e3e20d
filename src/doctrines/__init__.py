"""Quantifier completions of predicate doctrines over finite categories.

The package mechanizes the free addition of existential and universal
quantifiers to a poset-valued doctrine, the lattice and adjoint structure
those completions carry, the dialectica order they compose into, and the
choice principles they validate, with exhaustive brute-force verification
at desk scale.

The top level exports what the README's library sketch and the benchmark
use; everything else is imported from its module.
"""

from .completion import EX, UN, Completion
from .core import BACKEND
from .dialectica import DialObj, dial_leq, nested_completion
from .doctrine import PowersetDoctrine, powerset_doctrine
from .errors import DoctrineError
from .laws import LawContext, run_suite
from .poset import lattice_check, poset_reflect
from .principles import extract_choice, skolem_check

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Completion",
    "DialObj",
    "DoctrineError",
    "EX",
    "UN",
    "LawContext",
    "PowersetDoctrine",
    "dial_leq",
    "extract_choice",
    "lattice_check",
    "nested_completion",
    "poset_reflect",
    "powerset_doctrine",
    "run_suite",
    "skolem_check",
]
