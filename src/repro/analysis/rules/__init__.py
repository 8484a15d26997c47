"""The built-in rjilint rules.

Importing this package populates the registry in
:mod:`repro.analysis.registry`; each rule module self-registers via the
``@register`` decorator.
"""

from .constants import FrozenConstantRule
from .errorcontract import ErrorContractRule
from .exceptions import ExceptionHygieneRule
from .exports import DunderAllRule
from .iocounters import IOCounterDisciplineRule
from .kbound import KBoundValidationRule
from .layering import LayeringRule
from .lockdiscipline import LockDisciplineRule
from .lockorder import LockOrderRule
from .randomness import UnseededRandomnessRule

__all__ = [
    "DunderAllRule",
    "ErrorContractRule",
    "ExceptionHygieneRule",
    "FrozenConstantRule",
    "IOCounterDisciplineRule",
    "KBoundValidationRule",
    "LayeringRule",
    "LockDisciplineRule",
    "LockOrderRule",
    "UnseededRandomnessRule",
]
