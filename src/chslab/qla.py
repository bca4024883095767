"""Complex linear algebra over multi-register bit-string systems.

A composite system is a tuple of registers; register ``i`` holds a classical
string of ``register_shape[i]`` bits. A basis label is a tuple of ints, one per
register, with the leftmost bit of each register the most significant one (so
the ``lam``-bit prefix of an ``n``-bit register value ``x`` is ``x >> (n - lam)``).

Pure states are sparse amplitude maps over basis labels; density operators are
either dense Hermitian matrices or probability-weighted ensembles of pure
states. All values are immutable after construction and safe to share across
threads; every function here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .tolerances import ATOL_STRUCTURAL, REL_RANK_CUTOFF

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
        if abs(norm_sq - 1.0) > ATOL_STRUCTURAL:
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
        small, big = self.amplitudes, other.amplitudes
        if len(big) < len(small):
            acc = sum(amp.conjugate() * small[label] for label, amp in big.items() if label in small)
            return complex(acc)
        acc = sum(amp.conjugate() * big[label] for label, amp in small.items() if label in big)
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
            mat = np.asarray(self.dense, dtype=complex)
            dim = 1 << sum(self.register_shape)
            if mat.shape != (dim, dim):
                raise ValueError(f"dense matrix shape {mat.shape} does not match dimension {dim}")
            if not np.allclose(mat, mat.conj().T, atol=ATOL_STRUCTURAL):
                raise ValueError("dense matrix is not Hermitian within tolerance")
            tr = np.trace(mat)
            if abs(tr.real - 1.0) > ATOL_STRUCTURAL or abs(tr.imag) > ATOL_STRUCTURAL:
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
                if p < -ATOL_STRUCTURAL:
                    raise ValueError(f"ensemble probability {p} is negative")
                if state.register_shape != self.register_shape:
                    raise ValueError("ensemble member register shape mismatch")
                total += p
            if abs(total - 1.0) > ATOL_STRUCTURAL:
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
        return cls(tuple(register_shape), dense=np.asarray(matrix, dtype=complex))

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
        vectors = np.zeros((len(self.ensemble), self.dim), dtype=complex)
        probs = np.empty(len(self.ensemble))
        for row, (p, state) in enumerate(self.ensemble):
            probs[row] = p
            for label, amp in state.amplitudes.items():
                vectors[row, flatten_label(label, shape)] = amp
        return (vectors.T * probs) @ vectors.conj()

    def as_dense_operator(self, budgets: Budgets = DEFAULT_BUDGETS) -> "DensityOperator":
        if self.dense is not None:
            return self
        return DensityOperator.from_dense(self.to_dense(budgets), self.register_shape)


def tensor(a, b):
    """Tensor product; both operands must be the same kind.

    ``PureState (x) PureState`` gives a pure state, ``dense (x) dense`` a dense
    operator, ``ensemble (x) ensemble`` the product ensemble. Mixed dense and
    ensemble operands are rejected; convert one side first.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return a.tensor(b)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        shape = a.register_shape + b.register_shape
        if a.is_ensemble != b.is_ensemble:
            raise ValueError("cannot tensor dense with ensemble; convert one side first")
        if a.is_ensemble:
            members = tuple(
                (pa * pb, sa.tensor(sb)) for pa, sa in a.ensemble for pb, sb in b.ensemble
            )
            return DensityOperator(shape, ensemble=members)
        return DensityOperator(shape, dense=np.kron(a.dense, b.dense))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _validated_keep(register_shape: tuple[int, ...], keep: Iterable[int]) -> list[int]:
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep set must not be empty")
    if any(i < 0 or i >= len(register_shape) for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(register_shape)} registers")
    return keep


def partial_trace_pure(
    state: PureState, keep: Iterable[int], budgets: Budgets = DEFAULT_BUDGETS
) -> np.ndarray:
    """Reduced dense matrix of |state><state| on the kept registers.

    Works directly on the sparse amplitudes, so the traced-out registers never
    have to fit a dense budget: amplitudes sharing the same dropped-register
    labels combine coherently, distinct dropped labels add incoherently.
    """
    keep = _validated_keep(state.register_shape, keep)
    kept_shape = tuple(state.register_shape[i] for i in keep)
    dim = 1 << sum(kept_shape)
    budgets.check_dense_dim(dim, "partial_trace_pure")
    drop = [i for i in range(len(state.register_shape)) if i not in set(keep)]
    buckets: dict[BasisLabel, list[tuple[int, complex]]] = {}
    for label, amp in state.amplitudes.items():
        kept_flat = flatten_label(tuple(label[i] for i in keep), kept_shape)
        buckets.setdefault(tuple(label[i] for i in drop), []).append((kept_flat, amp))
    out = np.zeros((dim, dim), dtype=complex)
    for entries in buckets.values():
        for ia, aa in entries:
            for ib, ab in entries:
                out[ia, ib] += aa * ab.conjugate()
    return out


def partial_trace(
    rho: DensityOperator, keep: Iterable[int], budgets: Budgets = DEFAULT_BUDGETS
) -> DensityOperator:
    """Trace out every register not in ``keep``; result is dense on the kept ones.

    Ensembles are traced member by member, so only the kept dimension needs to
    fit the dense budget.
    """
    keep = _validated_keep(rho.register_shape, keep)
    kept_shape = tuple(rho.register_shape[i] for i in keep)
    if rho.is_ensemble:
        out = None
        for p, state in rho.ensemble:
            reduced = partial_trace_pure(state, keep, budgets)
            out = p * reduced if out is None else out + p * reduced
        return DensityOperator.from_dense(out, kept_shape)
    n_reg = len(rho.register_shape)
    dims = [1 << w for w in rho.register_shape]
    tensor_form = rho.to_dense(budgets).reshape(dims + dims)
    drop = [i for i in range(n_reg) if i not in set(keep)]
    # Trace the dropped registers from the highest index down so the remaining
    # axis numbering stays valid.
    n_live = n_reg
    for i in sorted(drop, reverse=True):
        tensor_form = np.trace(tensor_form, axis1=i, axis2=i + n_live)
        n_live -= 1
    dim = 1 << sum(kept_shape)
    return DensityOperator.from_dense(tensor_form.reshape(dim, dim), kept_shape)


def _difference_eigenvalues(rho: DensityOperator, sigma: DensityOperator, budgets: Budgets):
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return np.linalg.eigvalsh(rho.to_dense(budgets) - sigma.to_dense(budgets))


def trace_distance(
    rho: DensityOperator, sigma: DensityOperator, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """Half the trace norm of the difference: (1/2) sum |eigenvalues(rho - sigma)|."""
    return 0.5 * float(np.abs(_difference_eigenvalues(rho, sigma, budgets)).sum())


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(
    rho: DensityOperator, sigma: DensityOperator, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    When one argument is pure this reduces to <psi|sigma|psi>, which is used
    as a shortcut.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    for a, b in ((rho, sigma), (sigma, rho)):
        if a.is_ensemble and len(a.ensemble) == 1:
            psi = a.ensemble[0][1].dense(budgets)
            return float(np.real(psi.conjugate() @ b.to_dense(budgets) @ psi))
    root = _psd_sqrt(rho.to_dense(budgets))
    inner = root @ sigma.to_dense(budgets) @ root
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sqrt(vals).sum() ** 2)


def _support_eigh(mat: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix with eigenvalue strictly above rel_tol * max.

    One ``eigh``; the kept eigenvalues and their eigenvector columns span the
    numerical support. A zero (or negative) matrix keeps nothing.
    """
    vals, vecs = np.linalg.eigh(mat)
    mask = vals > rel_tol * vals.max()
    return vals[mask], vecs[:, mask]


def inv_sqrt_on_support(rho, rel_tol: float = REL_RANK_CUTOFF) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix.

    Eigenvalues above ``rel_tol`` times the largest map to ``lambda**-0.5``;
    the rest map to zero, so the result acts only on the support.
    """
    mat = rho.to_dense() if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    vals, vecs = _support_eigh(mat, rel_tol)
    if not len(vals):
        raise ValueError("operator is zero (or negative); no support to invert on")
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T


def support_projector(mat: np.ndarray, rel_tol: float = REL_RANK_CUTOFF) -> tuple[np.ndarray, int]:
    """Projector onto the span of eigenvectors with eigenvalue > rel_tol * max, and its rank."""
    _, kept = _support_eigh(mat, rel_tol)
    return kept @ kept.conj().T, kept.shape[1]


# ---------------------------------------------------------------------------
# Ensemble trace distance on the joint support (Gram technique)
# ---------------------------------------------------------------------------


def _support_components(members: list[tuple[float, PureState]]) -> list[list[int]]:
    """Group members into connected components of shared basis labels.

    Members in different components live in orthogonal subspaces, so the
    difference operator is block diagonal over components.
    """
    parent = list(range(len(members)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[BasisLabel, int] = {}
    for idx, (_, state) in enumerate(members):
        for label in state.amplitudes:
            prev = owner.get(label)
            if prev is None:
                owner[label] = idx
            else:
                ra, rb = find(idx), find(prev)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for idx in range(len(members)):
        groups.setdefault(find(idx), []).append(idx)
    return [groups[root] for root in sorted(groups)]


def _component_matrix(members, idx_list, labels, rel_tol) -> np.ndarray:
    """Signed mixture on one support component, in a small orthonormal basis.

    When the union of supports is small the computational sub-basis is already
    orthonormal; when a few members span a large support, orthonormalize
    through the Gram matrix of pairwise inner products (rank-truncated, so
    near-duplicate members cannot inflate the dimension).
    """
    s, m = len(labels), len(idx_list)
    if s <= max(m, 64):
        v = np.zeros((m, s), dtype=complex)
        w = np.empty(m)
        for row, i in enumerate(idx_list):
            weight, state = members[i]
            w[row] = weight
            for label, amp in state.amplitudes.items():
                v[row, labels[label]] = amp
        return (v.T * w) @ v.conj()
    states = [members[i][1] for i in idx_list]
    w = np.array([members[i][0] for i in idx_list])
    gram = np.empty((m, m), dtype=complex)
    for a in range(m):
        gram[a, a] = 1.0
        for b in range(a + 1, m):
            gram[a, b] = states[a].inner(states[b])
            gram[b, a] = gram[a, b].conjugate()
    vals, vecs = np.linalg.eigh(gram)
    mask = vals > rel_tol * vals.max()
    coords = (vecs[:, mask] / np.sqrt(vals[mask])).conj().T @ gram  # rank x m
    return (coords * w) @ coords.conj().T


def gram_trace_distance(
    e1: DensityOperator, e2: DensityOperator, rel_tol: float = REL_RANK_CUTOFF
) -> float:
    """Trace distance between two ensembles without densifying the full space.

    The joint support of all members splits into connected components of
    shared basis labels; on each component the signed mixture
    ``sum p_i |a_i><a_i| - sum q_j |b_j><b_j|`` is expressed in an orthonormal
    basis of the member span and its trace norm is accumulated. Equals the
    dense-path trace distance whenever both can run.
    """
    if not (e1.is_ensemble and e2.is_ensemble):
        raise ValueError("gram_trace_distance needs ensemble-form density operators")
    if e1.register_shape != e2.register_shape:
        raise ValueError(
            f"register shapes differ: {e1.register_shape} vs {e2.register_shape}"
        )
    members = [(p, s) for p, s in e1.ensemble]
    members += [(-p, s) for p, s in e2.ensemble]
    total = 0.0
    # Batch the small-matrix eigenproblems by dimension; tens of thousands of
    # tiny components arise in the hybrid experiments.
    by_dim: dict[int, list[np.ndarray]] = {}
    for idx_list in _support_components(members):
        labels: dict[BasisLabel, int] = {}
        for i in idx_list:
            for label in members[i][1].amplitudes:
                if label not in labels:
                    labels[label] = len(labels)
        block = _component_matrix(members, idx_list, labels, rel_tol)
        by_dim.setdefault(block.shape[0], []).append(block)
    for mats in by_dim.values():
        stack = np.stack(mats)
        total += float(np.abs(np.linalg.eigvalsh(stack)).sum())
    return 0.5 * total


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityOperator:
    """Wishart-style random density operator, used by property checks."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    width = int(math.log2(dim))
    if 1 << width != dim:
        raise ValueError("dimension must be a power of two")
    return DensityOperator.from_dense(mat, (width,))
