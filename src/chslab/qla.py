"""Linear algebra over multi-register bit-string systems.

A composite system is a tuple of registers; register ``i`` holds a classical
string of ``register_shape[i]`` bits. A basis label is a tuple of ints, one per
register, with the leftmost bit of each register the most significant one (so
the ``lam``-bit prefix of an ``n``-bit register value ``x`` is ``x >> (n - lam)``).

Pure states are sparse amplitude maps over basis labels; density operators are
either dense Hermitian matrices or probability-weighted ensembles of pure
states. One builder, ``_mixture_matrix``, writes a weighted ensemble as a
matrix, for ``DensityOperator.to_dense`` and for each support component of
``gram_trace_distance``. A dense operator keeps the dtype of its entries: real
amplitudes (every type state's) give a float64 matrix, complex ones a complex
matrix. All values are immutable after construction and safe to share across
threads; every function here is a pure function of its inputs.
"""

from __future__ import annotations

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


def fidelity(
    rho: DensityOperator, sigma: DensityOperator, budgets: Budgets = DEFAULT_BUDGETS
) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    When one argument is pure this reduces to <psi|sigma|psi>, which is used
    as a shortcut. Otherwise both square roots follow the package's support
    rule: eigenvalues at or below ``REL_RANK_CUTOFF`` times the largest count
    as zero, so eigenvalue noise off the support adds nothing.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    for a, b in ((rho, sigma), (sigma, rho)):
        if a.is_ensemble and len(a.ensemble) == 1:
            psi = a.ensemble[0][1].dense(budgets)
            return float(np.real(psi.conjugate() @ b.to_dense(budgets) @ psi))
    vals, vecs, kept = _support_eigh(rho.to_dense(budgets), REL_RANK_CUTOFF)
    root = _on_support(vecs, np.sqrt(np.where(kept, vals, 0.0)))
    vals, _, kept = _support_eigh(root @ sigma.to_dense(budgets) @ root, REL_RANK_CUTOFF)
    return float(np.sqrt(vals[kept]).sum() ** 2)


def _support_eigh(mat: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, or of a stack of blocks, and which span the support.

    One ``eigh`` over ``(..., dim, dim)``. Returns the eigenvalues, the
    eigenvector columns and a mask of the eigenpairs kept: those strictly above
    ``rel_tol`` times the largest eigenvalue over all blocks, the rule for the
    whole block-diagonal operator. A zero (or negative) matrix keeps nothing.
    """
    vals, vecs = np.linalg.eigh(mat)
    return vals, vecs, vals > rel_tol * vals.max()


def _on_support(vecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``V diag(weights) V^dagger`` for every block of a ``_support_eigh`` result."""
    return (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _inv_sqrt_weights(vals: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``lambda**-0.5`` on the kept eigenvalues, zero on the rest."""
    return np.where(kept, 1.0 / np.sqrt(np.where(kept, vals, 1.0)), 0.0)


def inv_sqrt_on_support(rho, rel_tol: float = REL_RANK_CUTOFF) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix.

    Eigenvalues above ``rel_tol`` times the largest map to ``lambda**-0.5``;
    the rest map to zero, so the result acts only on the support.
    """
    mat = rho.to_dense() if isinstance(rho, DensityOperator) else np.asarray(rho)
    vals, vecs, kept = _support_eigh(mat, rel_tol)
    if not kept.any():
        raise ValueError("operator is zero (or negative); no support to invert on")
    return _on_support(vecs, _inv_sqrt_weights(vals, kept))


def support_projector(mat: np.ndarray, rel_tol: float = REL_RANK_CUTOFF) -> tuple[np.ndarray, int]:
    """Projector onto the span of eigenvectors with eigenvalue > rel_tol * max, and its rank."""
    _, vecs, kept = _support_eigh(mat, rel_tol)
    return _on_support(vecs, kept.astype(float)), int(kept.sum())


# ---------------------------------------------------------------------------
# Ensemble trace distance, one support component at a time
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


def gram_trace_distance(e1: DensityOperator, e2: DensityOperator) -> float:
    """Trace distance between two ensembles without densifying the full space.

    The joint support of all members splits into connected components of
    shared basis labels; on each component the signed mixture
    ``sum p_i |a_i><a_i| - sum q_j |b_j><b_j|`` is written densely over the
    component's own basis labels and its trace norm is accumulated. Equals the
    dense-path trace distance whenever both can run; a component wider than
    the default dense budget raises ``BudgetExceeded``.
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
        DEFAULT_BUDGETS.check_dense_dim(len(labels), "gram_trace_distance component")
        block = _mixture_matrix([members[i] for i in idx_list], labels.__getitem__, len(labels))
        by_dim.setdefault(block.shape[0], []).append(block)
    for mats in by_dim.values():
        stack = np.stack(mats)
        total += float(np.abs(np.linalg.eigvalsh(stack)).sum())
    return 0.5 * total
