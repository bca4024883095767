"""Prefix collision-freeness, type sampling, the phase action, and the
phase-twirl identities on the type states of ``states``.

Uniform mixtures of type states reproduce averages over Haar-random product
states, which is what makes the phase-twirl identities in this module
checkable by finite enumeration: ``key_average`` twirls a type state's first
``ell`` registers over every key, ``split_average`` mixes its ``ell``-position
splits, and ``permutation_average_verdict`` checks the permutation identity
behind them. Of the reports only ``typestats`` runs this module: ``import
chslab`` leaves it unloaded, and it loads on the first use of one of its names.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from functools import reduce
from operator import xor
from typing import Callable, Iterable

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets, format_count
from .states import (
    DensityOperator,
    OrderedTuple,
    PureState,
    TypeVector,
    _amplitude,
    _width_of,
    distinct_orderings,
    enumerate_types,
    phase_sign,
    type_state,
)


# ---------------------------------------------------------------------------
# Prefix collision-freeness
# ---------------------------------------------------------------------------


def is_l_fold_prefix_cf(T: TypeVector, ell: int, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Whether all size-``ell`` position subsets have distinct prefix XORs.

    The multiset is expanded into its ``t`` copies; the predicate holds iff
    the map {ell-subset of positions} -> prefix of the XOR of the selected
    strings is injective. Repeated elements therefore fail for ``t > ell``
    (two positions holding the same string XOR to the same prefix), which
    makes the 1-fold predicate imply ordinary collision-freeness.
    """
    t = T.total
    if ell > t:
        raise ValueError(f"ell={ell} exceeds type size t={t}")
    n_subsets = math.comb(t, ell)
    budgets.check_subset_pairs(n_subsets * n_subsets, f"is_l_fold_prefix_cf(t={t}, ell={ell})")
    prefixes = T.prefixes()
    seen: set[int] = set()
    for positions in itertools.combinations(range(t), ell):
        folded = 0
        for i in positions:
            folded ^= prefixes[i]
        if folded in seen:
            return False
        seen.add(folded)
    return True


def exact_cf_probability(
    lam: int, m_suffix: int, ell: int, t: int, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """Exact probability that a uniform type is ell-fold prefix collision-free."""
    total = 0
    good = 0
    for T in enumerate_types(1 << (lam + m_suffix), t, budgets, prefix_bits=lam):
        total += 1
        good += is_l_fold_prefix_cf(T, ell, budgets)
    return good / total


def estimate_cf_probability(
    lam: int,
    m_suffix: int,
    ell: int,
    t: int,
    trials: int,
    rng: np.random.Generator,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> float:
    """Monte-Carlo estimate of the prefix collision-free probability."""
    if trials < 1:
        raise ValueError("trials must be positive")
    hits = 0
    N = 1 << (lam + m_suffix)
    for _ in range(trials):
        T = sample_type(N, t, rng, prefix_bits=lam)
        hits += is_l_fold_prefix_cf(T, ell, budgets)
    return hits / trials


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_type(
    N: int, t: int, rng: np.random.Generator, prefix_bits: int | None = None
) -> TypeVector:
    """Uniform multiset of size ``t`` over ``N`` strings.

    Uses the stars-and-bars bijection: a uniform ``t``-combination of
    ``[N + t - 1]`` maps to a multiset by subtracting the index rank. numpy
    draws the combination in int64, so ``N + t - 1`` must stay below 2**63.
    """
    width = _width_of(N)
    if N + t - 1 >= 1 << 63:
        raise ValueError(
            f"cannot sample t={t} of N={format_count(N)} strings: "
            "N + t - 1 must be below 2**63"
        )
    positions = np.sort(rng.choice(N + t - 1, size=t, replace=False))
    elements = tuple(int(p) - i for i, p in enumerate(positions))
    return TypeVector(elements, width, width if prefix_bits is None else prefix_bits)


def sample_type_conditioned(
    N: int,
    t: int,
    predicate: Callable[[TypeVector], bool],
    rng: np.random.Generator,
    max_rejects: int = 100_000,
    prefix_bits: int | None = None,
) -> TypeVector:
    """Rejection-sample a uniform type satisfying ``predicate``."""
    for _ in range(max_rejects):
        T = sample_type(N, t, rng, prefix_bits=prefix_bits)
        if predicate(T):
            return T
    raise RuntimeError(
        f"no type satisfying the predicate in {max_rejects} draws; "
        "the conditioned set is too thin for these parameters"
    )


# ---------------------------------------------------------------------------
# Phase action and the two averaging identities
# ---------------------------------------------------------------------------


def apply_phase(k: int, lam: int, state: PureState, targets: Iterable[int]) -> PureState:
    """Diagonal phase (-1)**<k, prefix> on the lam-bit prefix of each target register."""
    if not 0 <= k < (1 << lam):
        raise ValueError(f"key {k} does not fit in {lam} bits")
    targets = sorted(set(int(i) for i in targets))
    shape = state.register_shape
    for i in targets:
        if i < 0 or i >= len(shape):
            raise ValueError(f"target register {i} out of range")
        if shape[i] < lam:
            raise ValueError(f"target register {i} has {shape[i]} bits, needs at least {lam}")
    amps: dict[tuple[int, ...], complex] = {}
    for label, amp in state.amplitudes.items():
        sign = 1
        for i in targets:
            sign *= phase_sign(k, label[i] >> (shape[i] - lam))
        amps[label] = sign * amp
    return PureState._unchecked(shape, amps)


class PermutationVerdict(enum.Enum):
    IDENTITY_KEPT = "identity-kept"
    ZEROED = "zeroed"


def permutation_average_verdict(
    v: OrderedTuple, sigma: tuple[int, ...], ell: int, lam: int
) -> PermutationVerdict:
    """Average the phased outer product |v><sigma(v)| over all 2^lam keys.

    The key phases hit the first ``ell`` registers of both sides, so each key
    contributes the sign of the XOR of the two prefix folds; the exact average
    is either 1 (operator kept) or 0 (operator cancelled). The verdict is
    cross-checked against the combinatorial criterion that sigma maps the
    first ``ell`` positions onto themselves; a prefix collision-free type is
    required for that criterion to be equivalent.
    """
    T = v.type_of()
    if not is_l_fold_prefix_cf(TypeVector(T.elements, T.width, lam), ell):
        raise ValueError("tuple type is not ell-fold prefix collision-free")
    if sorted(sigma) != list(range(len(v.entries))):
        raise ValueError(f"sigma {sigma} is not a permutation of the tuple positions")
    shift = v.width - lam
    u = v.permuted(sigma)
    acc = 0
    for k in range(1 << lam):
        sign = 1
        for i in range(ell):
            sign *= phase_sign(k, v.entries[i] >> shift)
            sign *= phase_sign(k, u.entries[i] >> shift)
        acc += sign
    coefficient = acc / (1 << lam)
    verdict = (
        PermutationVerdict.IDENTITY_KEPT if coefficient == 1.0 else PermutationVerdict.ZEROED
    )
    if coefficient not in (0.0, 1.0):
        raise RuntimeError(f"key average produced coefficient {coefficient}, expected 0 or 1")
    maps_first_block = set(sigma[:ell]) == set(range(ell))
    if maps_first_block != (verdict is PermutationVerdict.IDENTITY_KEPT):
        raise RuntimeError(
            "averaged-matrix verdict disagrees with the set criterion "
            f"(sigma={sigma}, ell={ell})"
        )
    return verdict


def keyed_members(
    width: int,
    lam: int,
    groups: tuple[tuple[int, ...], ...],
    types: Iterable[tuple[int, ...]],
    type_weight: float,
) -> list[tuple[float, PureState]]:
    """Mixture over (type, key per group) of the group-phased type state.

    ``types`` are sorted element tuples of ``width``-bit strings, each weighted
    ``type_weight``. Every key phases the lam-bit prefixes of its group's
    registers, so an ordering picks up the sign of <key, XOR of its group
    prefixes>. Keys that produce the same state up to global phase are merged
    exactly (the sign patterns are integers, so no tolerance is involved).
    """
    shift = width - lam
    parity = np.array([z.bit_count() & 1 for z in range(1 << lam)], dtype=np.int64)
    key_vectors = np.array(
        list(itertools.product(range(1 << lam), repeat=len(groups))), dtype=np.int64
    )
    n_keys = len(key_vectors)
    members = []
    for elements in types:
        orderings = distinct_orderings(elements)
        coeff = _amplitude(elements)
        shape = (width,) * len(elements)
        signs = np.ones((n_keys, len(orderings)), dtype=np.int64)
        for g, positions in enumerate(groups):
            folds = np.array(
                [reduce(xor, (v[i] >> shift for i in positions), 0) for v in orderings],
                dtype=np.int64,
            )
            signs *= 1 - 2 * parity[key_vectors[:, g : g + 1] & folds[None, :]]
        canonical = signs * signs[:, :1]
        merged = Counter(tuple(row) for row in canonical.tolist())
        for pattern, count in sorted(merged.items()):
            amps = {v: coeff * s for v, s in zip(orderings, pattern)}
            members.append(
                (type_weight * count / n_keys, PureState._unchecked(shape, amps))
            )
    return members


def split_members(
    width: int, types: Iterable[tuple[int, ...]], ell: int, type_weight: float
) -> list[tuple[float, PureState]]:
    """Mixture over (type, ell-subset of positions) of |X><X| (x) |T\\X><T\\X|."""
    members = []
    for elements in types:
        t_total = len(elements)
        splits = Counter()
        for positions in itertools.combinations(range(t_total), ell):
            keep = set(positions)
            first = tuple(elements[i] for i in positions)
            rest = tuple(x for i, x in enumerate(elements) if i not in keep)
            splits[(first, rest)] += 1
        n_splits = math.comb(t_total, ell)
        for (first, rest), count in sorted(splits.items()):
            state = type_state(TypeVector(first, width, width))
            if rest:
                state = state.tensor(type_state(TypeVector(rest, width, width)))
            members.append((type_weight * count / n_splits, state))
    return members


def key_average(T: TypeVector, ell: int, lam: int, check: bool = True) -> DensityOperator:
    """Uniform mixture of the type state phase-twirled on its first ell registers."""
    keyed = TypeVector(T.elements, T.width, lam)
    if not 0 <= ell <= T.total:
        raise ValueError(f"ell={ell} out of range for type size {T.total}")
    if check and not is_l_fold_prefix_cf(keyed, ell):
        raise ValueError("type is not ell-fold prefix collision-free")
    return DensityOperator.from_ensemble(
        keyed_members(T.width, lam, (tuple(range(ell)),), [T.elements], 1.0)
    )


def split_average(T: TypeVector, ell: int) -> DensityOperator:
    """Uniform mixture of |X><X| (x) |T\\X><T\\X| over ell-position subsets of T."""
    if not 1 <= ell <= T.total:
        raise ValueError(f"ell={ell} out of range for type size {T.total}")
    return DensityOperator.from_ensemble(split_members(T.width, [T.elements], ell, 1.0))
