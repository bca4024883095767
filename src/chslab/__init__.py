"""Numerical laboratory for phase-keyed pseudorandom states built from one
shared Haar-random state, the matching impossibility attack, the SWAP-test
commitment scheme, and the pretty good measurement bound, all checked exactly
at desk scale."""

from importlib import import_module

from .budgets import BudgetExceeded, Budgets, DEFAULT_BUDGETS
from .haar import HaarSampler, exact_moment, sample_haar, symmetric_projector
from .reporting import ExperimentReport
from .states import DensityOperator, OrderedTuple, PureState, TypeVector, type_state

# The operator algebra and the type-state identities: no chain, attack,
# commitment or PGM report runs them, so their modules load on the first use
# of one of these names (PEP 562).
_LAZY = {
    "fidelity": "qla",
    "gram_trace_distance": "qla",
    "inv_sqrt_on_support": "qla",
    "partial_trace": "qla",
    "tensor": "qla",
    "trace_distance": "qla",
    "apply_phase": "typestates",
    "is_l_fold_prefix_cf": "typestates",
    "key_average": "typestates",
    "sample_type": "typestates",
    "sample_type_conditioned": "typestates",
    "split_average": "typestates",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Budgets",
    "DEFAULT_BUDGETS",
    "DensityOperator",
    "ExperimentReport",
    "HaarSampler",
    "OrderedTuple",
    "PureState",
    "TypeVector",
    "apply_phase",
    "exact_moment",
    "fidelity",
    "gram_trace_distance",
    "inv_sqrt_on_support",
    "is_l_fold_prefix_cf",
    "key_average",
    "partial_trace",
    "sample_haar",
    "sample_type",
    "sample_type_conditioned",
    "split_average",
    "symmetric_projector",
    "tensor",
    "trace_distance",
    "type_state",
]
