"""Operator algebra on the values of ``states``: tensor products, partial
traces, trace distances, fidelity and support projectors.

Dense routes write an operator as a matrix within the dense budget;
``gram_trace_distance`` takes the trace distance between two ensembles one
support component at a time, each written over its own basis labels with
``states._mixture_matrix``, so the full space is never densified. No report
runs this module: ``import chslab`` leaves it unloaded, and it loads on the
first use of one of its names. Every function here is a pure function of its
inputs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .states import BasisLabel, DensityOperator, PureState, _mixture_matrix, flatten_label
from .tolerances import REL_RANK_CUTOFF


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
