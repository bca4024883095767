"""The eight hybrids as PureState ensembles: the reference route for the sector blocks.

``hybrid_state`` enumerates every (type, key) or (type, split) choice of a
hybrid with its exact probability and builds each member as a (tensor
product of) type state(s), with the same ``typestates`` builders as
``key_average`` and ``split_average``. Its cost grows with ``2^n``, and no
report calls it: the tests compare it, through ``gram_trace_distance``, with
the class route of ``hybrids`` and ``prsg``, and the hybrid-equivalence
acceptance criterion takes its two zero-distance steps from it. ``generate``
applies the keyed phase pattern to one state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budgets import DEFAULT_BUDGETS, Budgets
from .hybrids import _empty_hybrid, _hybrid_size
from .prsg import PrsParams
from .states import DensityOperator, PureState, TypeVector, enumerate_types, type_state
from .typestates import apply_phase, is_l_fold_prefix_cf, keyed_members, split_members


@dataclass(frozen=True)
class HybridSpec:
    """One hybrid distribution: ``index``, from 1 to 8, and the ``PrsParams`` ``params``."""

    index: int
    params: PrsParams

    def __post_init__(self):
        if not 1 <= self.index <= 8:
            raise ValueError(f"hybrid index {self.index} out of range 1..8")


def generate(k: int, lam: int, theta: PureState) -> PureState:
    """Apply the keyed phase pattern to the lam-bit prefix of a one-register state."""
    if theta.n_registers != 1:
        raise ValueError("the generator acts on a single-register state")
    return apply_phase(k, lam, theta, [0])


def _product_members(n: int, first_types, second_types, weight: float):
    members = []
    for a in first_types:
        state_a = type_state(TypeVector(a, n, n))
        for b in second_types:
            state = state_a.tensor(type_state(TypeVector(b, n, n))) if b else state_a
            members.append((weight, state))
    return members


def hybrid_state(spec: HybridSpec, budgets: Budgets = DEFAULT_BUDGETS) -> DensityOperator:
    """Ensemble realizing one of the eight hybrid distributions exactly.

    Enumerates every (type, key) or (type, split) choice with probability
    ``1 / _hybrid_size``, which the ensemble checks by summing to one; the
    reference the sector route is checked against.
    """
    p = spec.params
    N = 1 << p.n
    size = p.ell + p.t
    types = []
    if spec.index in (1, 4):
        types = [T.elements for T in enumerate_types(N, size, budgets)]
    elif spec.index in (2, 3):
        cf = enumerate_types(N, size, budgets, prefix_bits=p.lam)
        types = [T.elements for T in cf if is_l_fold_prefix_cf(T, p.ell, budgets)]
    elif spec.index == 5:
        types = list(itertools.combinations(range(N), size))
    count = _hybrid_size(spec.index, p, len(types))
    if count == 0:
        raise _empty_hybrid(spec.index, p)
    if spec.index in (1, 2):
        members = keyed_members(p.n, p.lam, (tuple(range(p.ell)),), types, 1.0 / count)
    elif spec.index in (3, 4, 5):
        members = split_members(p.n, types, p.ell, 1.0 / count)
    elif spec.index == 6:
        members = []
        for first in itertools.combinations(range(N), p.ell):
            seconds = itertools.combinations([x for x in range(N) if x not in first], p.t)
            members += _product_members(p.n, [first], seconds, 1.0 / count)
    elif spec.index == 7:
        firsts = itertools.combinations(range(N), p.ell)
        seconds = list(itertools.combinations(range(N), p.t))
        members = _product_members(p.n, firsts, seconds, 1.0 / count)
    else:
        firsts = (T.elements for T in enumerate_types(N, p.ell, budgets))
        seconds = [T.elements for T in enumerate_types(N, p.t, budgets)] if p.t else [()]
        members = _product_members(p.n, firsts, seconds, 1.0 / count)
    return DensityOperator((p.n,) * size, ensemble=tuple(members))
