"""The value types every report builds: basis labels, pure states, density
operators, types and their type states.

A composite system is a tuple of registers; register ``i`` holds a classical
string of ``register_shape[i]`` bits. A basis label is a tuple of ints, one per
register, with the leftmost bit of each register the most significant one (so
the ``lam``-bit prefix of an ``n``-bit register value ``x`` is ``x >> (n - lam)``).

Pure states are sparse amplitude maps over basis labels; density operators are
either dense Hermitian matrices or probability-weighted ensembles of pure
states. One builder, ``_mixture_matrix``, writes a weighted ensemble as a
matrix, for ``DensityOperator.to_dense`` and for each support component of
``qla.gram_trace_distance``. A dense operator keeps the dtype of its entries:
real amplitudes (every type state's) give a float64 matrix, complex ones a
complex matrix.

A type is a multiset of ``t`` strings over the alphabet ``{0,1}^width``; its
type state is the unit-norm symmetric superposition over all orderings of the
multiset, with coefficient ``sqrt(prod_i T_i! / t!)`` on each ordering.
``phase_sign`` is the sign ``(-1)**<k, prefix>`` a key puts on a prefix.

``import chslab`` loads this module; the operator algebra on these values
(``qla``) and the collision-free predicates, samplers, phase action and
averages (``typestates``) load on first use. All values are immutable after
construction and safe to share across threads; every function here is a pure
function of its inputs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .tolerances import ATOL_STRUCTURAL

# ---------------------------------------------------------------------------
# Basis labels, pure states and density operators
# ---------------------------------------------------------------------------

BasisLabel = tuple[int, ...]


def _check_label(label: BasisLabel, register_shape: tuple[int, ...]) -> None:
    if len(label) != len(register_shape):
        raise ValueError(
            f"basis label {label} has {len(label)} registers, expected {len(register_shape)}"
        )
    for value, width in zip(label, register_shape):
        if not 0 <= value < (1 << width):
            raise ValueError(f"register value {value} does not fit in {width} bits")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm sparse amplitude map over basis labels of a fixed register shape."""

    register_shape: tuple[int, ...]
    amplitudes: dict[BasisLabel, complex]

    def __post_init__(self):
        object.__setattr__(self, "register_shape", tuple(int(w) for w in self.register_shape))
        if not self.amplitudes:
            raise ValueError("pure state needs at least one nonzero amplitude")
        norm_sq = 0.0
        shape = self.register_shape
        for label, amp in self.amplitudes.items():
            _check_label(label, shape)
            norm_sq += (amp * amp.conjugate()).real
        if not abs(norm_sq - 1.0) <= ATOL_STRUCTURAL:  # NaN fails too
            raise ValueError(f"amplitudes have squared norm {norm_sq}, not 1")

    @classmethod
    def _unchecked(cls, register_shape: tuple[int, ...], amplitudes: dict) -> "PureState":
        """Skip invariant validation; caller guarantees unit norm and label fit.

        Used only by enumeration-scale builders that construct hundreds of
        thousands of states whose normalization holds by construction.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "register_shape", register_shape)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @property
    def dim(self) -> int:
        return 1 << sum(self.register_shape)

    @property
    def n_registers(self) -> int:
        return len(self.register_shape)

    @classmethod
    def from_dense(cls, vector: np.ndarray, register_shape: Sequence[int]) -> "PureState":
        shape = tuple(int(w) for w in register_shape)
        vector = np.asarray(vector, dtype=complex).ravel()
        dim = 1 << sum(shape)
        if vector.size != dim:
            raise ValueError(f"vector has dimension {vector.size}, shape implies {dim}")
        if not np.isfinite(vector).all():
            raise ValueError("vector has a non-finite entry")
        amps: dict[BasisLabel, complex] = {}
        for flat in np.flatnonzero(np.abs(vector) > 0):
            amps[unflatten_label(int(flat), shape)] = complex(vector[flat])
        return cls(shape, amps)

    def dense(self, budgets: Budgets = DEFAULT_BUDGETS) -> np.ndarray:
        budgets.check_dense_dim(self.dim, "PureState.dense")
        vec = np.zeros(self.dim, dtype=complex)
        shape = self.register_shape
        for label, amp in self.amplitudes.items():
            vec[flatten_label(label, shape)] = amp
        return vec

    def inner(self, other: "PureState") -> complex:
        """<self|other> over the shared register shape."""
        if self.register_shape != other.register_shape:
            raise ValueError("register shapes differ")
        mine, theirs = self.amplitudes, other.amplitudes
        small, big = sorted((mine, theirs), key=len)
        acc = sum(mine[label].conjugate() * theirs[label] for label in small if label in big)
        return complex(acc)

    def tensor(self, other: "PureState") -> "PureState":
        amps = {
            a_label + b_label: a_amp * b_amp
            for a_label, a_amp in self.amplitudes.items()
            for b_label, b_amp in other.amplitudes.items()
        }
        return PureState(self.register_shape + other.register_shape, amps)


def flatten_label(label: BasisLabel, register_shape: tuple[int, ...]) -> int:
    flat = 0
    for value, width in zip(label, register_shape):
        flat = (flat << width) | value
    return flat


def unflatten_label(flat: int, register_shape: tuple[int, ...]) -> BasisLabel:
    parts = []
    for width in reversed(register_shape):
        parts.append(flat & ((1 << width) - 1))
        flat >>= width
    return tuple(reversed(parts))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, trace-one operator: dense matrix or ensemble of pure states.

    The two storage forms are interchangeable through ``to_dense`` whenever the
    dimension fits the dense budget; ensembles scale to dimensions a dense
    matrix never could.
    """

    register_shape: tuple[int, ...]
    dense: np.ndarray | None = None
    ensemble: tuple[tuple[float, PureState], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "register_shape", tuple(int(w) for w in self.register_shape))
        if (self.dense is None) == (self.ensemble is None):
            raise ValueError("exactly one of dense/ensemble must be given")
        if self.dense is not None:
            mat = np.asarray(self.dense)
            mat = mat.astype(np.result_type(mat, float), copy=False)  # real stays real
            dim = 1 << sum(self.register_shape)
            if mat.shape != (dim, dim):
                raise ValueError(f"dense matrix shape {mat.shape} does not match dimension {dim}")
            if not np.abs(mat - mat.conj().T).max() <= ATOL_STRUCTURAL:  # NaN fails too
                raise ValueError("dense matrix is not Hermitian within tolerance")
            tr = np.trace(mat)
            if not (abs(tr.real - 1.0) <= ATOL_STRUCTURAL and abs(tr.imag) <= ATOL_STRUCTURAL):
                raise ValueError(f"dense matrix has trace {tr}, expected 1")
            # Full eigenvalue validation is cubic; keep it for small matrices and
            # rely on clamping in the consumers above that size.
            if dim <= 256 and np.linalg.eigvalsh(mat).min() < -ATOL_STRUCTURAL:
                raise ValueError("dense matrix has an eigenvalue below -1e-9")
            object.__setattr__(self, "dense", mat)
        else:
            members = tuple((float(p), state) for p, state in self.ensemble)
            total = 0.0
            for p, state in members:
                if not p >= -ATOL_STRUCTURAL:  # NaN fails too
                    raise ValueError(f"ensemble probability {p} is negative or NaN")
                if state.register_shape != self.register_shape:
                    raise ValueError("ensemble member register shape mismatch")
                total += p
            if not abs(total - 1.0) <= ATOL_STRUCTURAL:
                raise ValueError(f"ensemble probabilities sum to {total}, expected 1")
            object.__setattr__(self, "ensemble", members)

    @property
    def dim(self) -> int:
        return 1 << sum(self.register_shape)

    @property
    def is_ensemble(self) -> bool:
        return self.ensemble is not None

    @classmethod
    def from_dense(cls, matrix, register_shape) -> "DensityOperator":
        return cls(tuple(register_shape), dense=matrix)

    @classmethod
    def from_ensemble(cls, members: Iterable[tuple[float, PureState]]) -> "DensityOperator":
        members = tuple(members)
        if not members:
            raise ValueError("ensemble must have at least one member")
        return cls(members[0][1].register_shape, ensemble=members)

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityOperator":
        return cls(state.register_shape, ensemble=((1.0, state),))

    def to_dense(self, budgets: Budgets = DEFAULT_BUDGETS) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        budgets.check_dense_dim(self.dim, "DensityOperator.to_dense")
        shape = self.register_shape
        return _mixture_matrix(self.ensemble, lambda label: flatten_label(label, shape), self.dim)

    def as_dense_operator(self, budgets: Budgets = DEFAULT_BUDGETS) -> "DensityOperator":
        if self.dense is not None:
            return self
        return DensityOperator.from_dense(self.to_dense(budgets), self.register_shape)


def _mixture_matrix(members, column, size: int) -> np.ndarray:
    """``sum_i p_i |a_i><a_i|`` for weighted states ``(p_i, a_i)``, in ``size`` columns.

    ``column`` numbers the basis labels; they are orthonormal, so the mixture is
    the sum of the weighted outer products on them. Weights may be negative (a
    signed mixture). The matrix is real when every amplitude is, else complex;
    real amplitudes (every type state's) are staged in a real array, a quarter
    of the work and half the staging memory.
    """
    real = not any(amp.imag for _, state in members for amp in state.amplitudes.values())
    vectors = np.zeros((len(members), size), dtype=float if real else complex)
    probs = np.empty(len(members))
    for row, (p, state) in enumerate(members):
        probs[row] = p
        for label, amp in state.amplitudes.items():
            vectors[row, column(label)] = amp.real if real else amp
    return (vectors.T * probs) @ (vectors if real else vectors.conj())


# ---------------------------------------------------------------------------
# Types and type states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeVector:
    """Multiset of ``total`` strings over ``{0,1}^width`` with a designated prefix.

    ``elements`` is the sorted expansion of the multiset (one entry per copy),
    and ``prefix_bits`` marks how many leading bits the phase operations and
    collision predicates look at.
    """

    elements: tuple[int, ...]
    width: int
    prefix_bits: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(int(x) for x in self.elements)))
        if not self.elements:
            raise ValueError("type must contain at least one element")
        if not 0 <= self.prefix_bits <= self.width:
            raise ValueError(f"prefix_bits {self.prefix_bits} not in [0, {self.width}]")
        for x in self.elements:
            if not 0 <= x < (1 << self.width):
                raise ValueError(f"element {x} does not fit in {self.width} bits")

    @property
    def total(self) -> int:
        return len(self.elements)

    def multiplicities(self) -> Counter:
        return Counter(self.elements)

    def prefixes(self) -> tuple[int, ...]:
        shift = self.width - self.prefix_bits
        return tuple(x >> shift for x in self.elements)


@dataclass(frozen=True)
class OrderedTuple:
    """An ordered tuple of strings; ``type_of`` forgets the order."""

    entries: tuple[int, ...]
    width: int
    prefix_bits: int

    def type_of(self) -> TypeVector:
        return TypeVector(self.entries, self.width, self.prefix_bits)

    def permuted(self, sigma: tuple[int, ...]) -> "OrderedTuple":
        # Left action on tuples: entry i of the image is entry sigma[i].
        return OrderedTuple(
            tuple(self.entries[sigma[i]] for i in range(len(self.entries))),
            self.width,
            self.prefix_bits,
        )


def enumerate_types(
    N: int, t: int, budgets: Budgets = DEFAULT_BUDGETS, prefix_bits: int | None = None
) -> Iterator[TypeVector]:
    """All multisets of size ``t`` over an alphabet of ``N = 2^width`` strings."""
    width = _width_of(N)
    count = math.comb(N + t - 1, t)
    budgets.check_type_count(count, f"enumerate_types(N={N}, t={t})")
    pb = width if prefix_bits is None else prefix_bits
    for combo in itertools.combinations_with_replacement(range(N), t):
        yield TypeVector(combo, width, pb)


def _width_of(N: int) -> int:
    width = N.bit_length() - 1
    if N <= 0 or (1 << width) != N:
        raise ValueError(f"alphabet size {N} must be a power of two")
    return width


def distinct_orderings(elements: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct permutations of a multiset, in sorted order.

    Built position by position from the values still left, so the work grows
    with the distinct orderings, never with all ``len(elements)!`` permutations.
    """
    values = sorted(set(elements))
    orderings = [()]
    for _ in elements:
        orderings = [o + (v,) for o in orderings for v in values if o.count(v) < elements.count(v)]
    return orderings


def type_state(T: TypeVector) -> PureState:
    """Symmetric superposition over the orderings of the multiset.

    Amplitude ``sqrt(prod_i T_i! / t!)`` on every distinct ordering; a
    collision-free type therefore carries ``1/sqrt(t!)`` on each of its ``t!``
    orderings, and a fully repeated type is a single basis state.
    """
    coeff = complex(_amplitude(T.elements))
    amps = {ordering: coeff for ordering in distinct_orderings(T.elements)}
    return PureState((T.width,) * T.total, amps)


def _amplitude(elements: tuple[int, ...]) -> float:
    """A type state's amplitude on each ordering, ``sqrt(prod_i T_i! / t!)``."""
    return math.sqrt(
        reduce(lambda acc, mult: acc * math.factorial(mult), Counter(elements).values(), 1)
        / math.factorial(len(elements))
    )



def phase_sign(k: int, prefix: int) -> int:
    """(-1)**<k, prefix> as bit vectors."""
    return -1 if (k & prefix).bit_count() & 1 else 1
