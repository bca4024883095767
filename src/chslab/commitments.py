"""Bit commitment from the shared state, verified by SWAP tests.

Committing to 0 entangles a phased copy of the shared state with a key
register; committing to 1 sends half of a maximally entangled pair. The
receiver verifies a reveal by running one SWAP test per copy against freshly
prepared reference states, which accepts a pure query |chi> against reference
|psi> with probability (1 + |<psi|chi>|^2) / 2. All acceptance probabilities
here are computed analytically through the product POVM

    M_b = tensor_i (I + |psi_b><psi_b|) / 2,

never by sampling measurement outcomes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .haar import rng_for, sample_haar
from .reporting import ExperimentReport
from .states import PureState, phase_sign
from .tolerances import ATOL_CHAIN, ATOL_STRUCTURAL


def _check_sizes(lam: int, n: int, p: int) -> None:
    """Key bits, qubits per register and copies: lam >= 1, n >= lam + 1 and p >= 1."""
    if lam < 1:
        raise ValueError("need at least one key bit")
    if n < lam + 1:
        raise ValueError(f"need n >= lam + 1, got n={n}, lam={lam}")
    if p < 1:
        raise ValueError("need at least one copy")


@dataclass(frozen=True)
class CommitmentParams:
    """Key bits, qubits per register (n >= lam + 1), copies, and the shared state."""

    lam: int
    n: int
    p: int
    theta: PureState

    def __post_init__(self):
        _check_sizes(self.lam, self.n, self.p)
        if self.theta.register_shape != (self.n,):
            raise ValueError(
                f"shared state has shape {self.theta.register_shape}, expected ({self.n},)"
            )


def commit_copy(b: int, params: CommitmentParams) -> PureState:
    """One copy of the commitment state on registers (C, R), each n qubits.

    Bit 0: (1/sqrt(2^lam)) sum_k (phased theta)_C |k || 0^(n-lam)>_R.
    Bit 1: the maximally entangled state (1/sqrt(2^n)) sum_j |j>_C |j>_R.
    """
    n, lam = params.n, params.lam
    if b == 1:
        coeff = 2 ** (-n / 2)
        return PureState((n, n), {(j, j): coeff for j in range(1 << n)})
    if b != 0:
        raise ValueError(f"bit must be 0 or 1, got {b}")
    shift = n - lam
    coeff = 2 ** (-lam / 2)
    amps: dict[tuple[int, int], complex] = {}
    for (x,), amp in params.theta.amplitudes.items():
        for k in range(1 << lam):
            amps[(x, k << shift)] = coeff * amp * phase_sign(k, x >> shift)
    return PureState((n, n), amps)


def honest_commit(b: int, params: CommitmentParams, budgets: Budgets = DEFAULT_BUDGETS) -> PureState:
    """p-fold tensor of the per-copy commitment state, registers (C1,R1,...,Cp,Rp)."""
    copy = commit_copy(b, params)
    budgets.check_dense_dim(len(copy.amplitudes) ** params.p, "honest_commit amplitudes")
    state = copy
    for _ in range(params.p - 1):
        state = state.tensor(copy)
    return state


def per_copy_fidelity(params: CommitmentParams, budgets: Budgets = DEFAULT_BUDGETS) -> float:
    """Fidelity of the two bits' one-copy states reduced to the C register, in closed form.

    Tracing R out of a bit-0 copy averages the key phases ``(-1)^(k . prefix)``
    into a mask on equal lam-bit prefixes, so it leaves ``sum_B |theta_B><theta_B|``
    with ``theta_B`` the shared state cut to prefix B: rank one on each of the
    ``2^lam`` prefix blocks. Bit 1 leaves ``I / 2^n``. So the fidelity is
    ``(Tr sqrt(rho_0 / 2^n))^2 = (sum_B ||theta_B||)^2 / 2^n``, at most
    ``2^-(n-lam)`` by Cauchy-Schwarz, with no partial trace and no eigensolve.
    """
    blocks = params.theta.dense(budgets).reshape(1 << params.lam, -1)
    return float(np.linalg.norm(blocks, axis=1).sum() ** 2 / blocks.size)


def accept_probability(
    b: int,
    committed: PureState,
    params: CommitmentParams,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> float:
    """Probability that all p SWAP tests accept a reveal of bit b.

    Computes <chi|M_b|chi> for the committed state |chi> with the product form
    of M_b applied copy by copy, so no operator on the full 2np-qubit space is
    ever materialized.
    """
    n, p = params.n, params.p
    if committed.register_shape != (n, n) * p:
        raise ValueError(
            f"committed state has shape {committed.register_shape}, expected {(n, n) * p}"
        )
    psi = commit_copy(b, params).dense(budgets)
    per_copy = 0.5 * (np.eye(psi.size) + np.outer(psi, psi.conjugate()))
    vec = committed.dense(budgets)
    block = vec.reshape((psi.size,) * p)
    for i in range(p):
        block = np.moveaxis(np.tensordot(per_copy, block, axes=([1], [i])), 0, i)
    return float(np.real(vec.conjugate() @ block.reshape(-1)))


# ---------------------------------------------------------------------------
# Malicious committers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaliciousCommitter:
    """Committer that prepares one pure commit-phase state and opens adaptively.

    The commit-phase state on (C1, R1, ..., Cp, Rp) is a sum of product terms
    ``sum_r coeff_r * tensor_i |copies[r][i]>_{C_i R_i}``, shared between both
    openings by construction (sum-binding quantifies over exactly such
    committers). Opening bit b applies ``open_r(b)`` on every R register,
    identity when omitted. A register the opening never touches would only mix
    the commit state, and p_0 + p_1 is linear in that state, so pure states
    reach every value a mixed one does. The product form keeps the acceptance
    probabilities computable per copy even at p and n where the joint state
    vector would not fit any budget.
    """

    name: str
    terms: tuple[tuple[complex, tuple[PureState, ...]], ...]
    open_r: Callable[[int], np.ndarray] | None = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("committer needs at least one term")
        if len({len(copies) for _, copies in self.terms}) != 1:
            raise ValueError("all terms must share the copy count")
        norm = 0.0
        for ca, copies_a in self.terms:
            for cb, copies_b in self.terms:
                overlap = 1.0
                for sa, sb in zip(copies_a, copies_b):
                    overlap *= sa.inner(sb)
                norm += (ca.conjugate() * cb * overlap).real
        if abs(norm - 1.0) > ATOL_STRUCTURAL:
            raise ValueError(f"commit-phase state has squared norm {norm}, not 1")

    @property
    def p(self) -> int:
        return len(self.terms[0][1])

    def opened_copy_states(self, b: int, budgets: Budgets) -> list[list[np.ndarray]]:
        """Per-term, per-copy dense (C, R) vectors after the opening unitary."""
        u = None if self.open_r is None else np.asarray(self.open_r(b))
        out = []
        for _, copies in self.terms:
            vecs = []
            for state in copies:
                n_c, n_r = state.register_shape
                vec = state.dense(budgets).reshape(1 << n_c, 1 << n_r)
                if u is not None:
                    vec = vec @ u.T
                vecs.append(vec.reshape(-1))
            out.append(vecs)
        return out

    def initial_state(self, budgets: Budgets = DEFAULT_BUDGETS) -> PureState:
        """Materialized commit-phase state on (C1,R1,...,Cp,Rp); small p only."""
        shape = self.terms[0][1][0].register_shape * self.p
        budgets.check_dense_dim(1 << sum(shape), "MaliciousCommitter.initial_state")
        amps: dict[tuple[int, ...], complex] = {}
        for coeff, copies in self.terms:
            for combo in itertools.product(*(s.amplitudes.items() for s in copies)):
                label = tuple(v for copy_label, _ in combo for v in copy_label)
                amp = coeff
                for _, a in combo:
                    amp *= a
                amps[label] = amps.get(label, 0.0) + amp
        return PureState(shape, {k: v for k, v in amps.items() if v != 0})


def binding_experiment(
    adv: MaliciousCommitter, params: CommitmentParams, budgets: Budgets = DEFAULT_BUDGETS
) -> ExperimentReport:
    """Acceptance probabilities of both openings against the sum-binding bound.

    p_b = <Phi| U_b^dagger M_b U_b |Phi> is evaluated exactly through the term
    structure: per copy, <f|M_b|g> = (<f|g> + <f|psi_b><psi_b|g>)/2 needs only
    inner products with the reference state. The report also carries the
    per-copy reduced-state fidelity and its 2^-(n-lam) cap, and the bound
    p_0 + p_1 <= 1 + ((1 + 2^(-(n-lam)/2))/2)^p.
    """
    if adv.p != params.p:
        raise ValueError(f"adversary prepared {adv.p} copies, params expect {params.p}")
    n, lam, p = params.n, params.lam, params.p
    coeffs = [c for c, _ in adv.terms]
    probs = {}
    for b in (0, 1):
        psi_b = commit_copy(b, params).dense(budgets)
        term_copies = adv.opened_copy_states(b, budgets)
        total = 0.0
        for ca, copies_a in zip(coeffs, term_copies):
            for cb, copies_b in zip(coeffs, term_copies):
                acc = ca.conjugate() * cb
                for fa, fb in zip(copies_a, copies_b):
                    acc *= 0.5 * (np.vdot(fa, fb) + np.vdot(fa, psi_b) * np.vdot(psi_b, fb))
                total += acc.real
        probs[b] = total

    copy_fidelity = per_copy_fidelity(params, budgets)
    fidelity_cap = 2.0 ** -(n - lam)
    sum_bound = 1.0 + ((1.0 + 2.0 ** (-(n - lam) / 2.0)) / 2.0) ** p

    quantities = {
        "p0": probs[0],
        "p1": probs[1],
        "p0_plus_p1": probs[0] + probs[1],
        "per_copy_fidelity": copy_fidelity,
    }
    bounds = {"sum_binding_bound": sum_bound, "per_copy_fidelity_bound": fidelity_cap}
    flags = {
        "p0_plus_p1_le_bound": probs[0] + probs[1] <= sum_bound + ATOL_CHAIN,
        "per_copy_fidelity_le_bound": copy_fidelity <= fidelity_cap + ATOL_CHAIN,
    }
    return ExperimentReport(
        experiment="commit-binding",
        params={"lam": lam, "n": n, "p": p, "adversary": adv.name},
        quantities=quantities,
        bounds=bounds,
        flags=flags,
        notes=[
            "the binomial sum in the closed-form bound runs over subset sizes 0..p; "
            "the source display's upper limit t is treated as a typo for p"
        ],
    )


# The catalog's names, in the order ``builtin_adversaries`` builds them.
ADVERSARIES = ("honest-0", "honest-1", "half-angle", "random-rotation")


def builtin_adversaries(
    params: CommitmentParams, rng: np.random.Generator
) -> dict[str, MaliciousCommitter]:
    """Catalog probing the binding bound's slack.

    Honest committers for both bits, an equal superposition of the two honest
    commit states, and an honest-0 committer whose reveal of 1 twists every R
    register by one shared Haar-random unitary.
    """
    p = params.p
    psi0, psi1 = commit_copy(0, params), commit_copy(1, params)
    overlap = psi0.inner(psi1)
    half_coeff = 1.0 / math.sqrt(2.0 + 2.0 * (overlap**p).real)

    dim_r = 1 << params.n
    g = rng.standard_normal((dim_r, dim_r)) + 1j * rng.standard_normal((dim_r, dim_r))
    q, r = np.linalg.qr(g)
    twist = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar unitary via phase-fixed QR

    honest_0, honest_1 = ((1.0, (psi0,) * p),), ((1.0, (psi1,) * p),)
    half_angle = ((half_coeff, (psi0,) * p), (half_coeff, (psi1,) * p))
    rotated = (honest_0, lambda b: twist if b == 1 else np.eye(dim_r))  # twists R to open 1
    catalog = ((honest_0,), (honest_1,), (half_angle,), rotated)
    return {name: MaliciousCommitter(name, *adv) for name, adv in zip(ADVERSARIES, catalog)}


def binding_report(params: dict, seed: int, budgets: Budgets) -> ExperimentReport:
    """The ``commit-binding`` experiment: one catalog adversary against a seeded theta.

    ``params`` holds ``lam``, ``n``, ``p`` and the adversary's name, checked with
    the dense (C, R) copy before the seed's stream samples the shared state,
    then the catalog's random rotation, drawn whichever adversary runs.
    """
    _check_sizes(params["lam"], params["n"], params["p"])
    name = params["adversary"]
    if name not in ADVERSARIES:
        raise ValueError(f"unknown adversary {name!r}; choose from {sorted(ADVERSARIES)}")
    budgets.check_dense_dim(1 << (2 * params["n"]), "commitment copy on (C, R)")
    rng = rng_for(seed)
    theta = sample_haar(params["n"], rng, budgets)
    cparams = CommitmentParams(lam=params["lam"], n=params["n"], p=params["p"], theta=theta)
    return binding_experiment(builtin_adversaries(cparams, rng)[name], cparams, budgets)


# ---------------------------------------------------------------------------
# Hiding
# ---------------------------------------------------------------------------


def hiding_distance(
    lam: int, n: int, p: int, t: int, budgets: Budgets = DEFAULT_BUDGETS
) -> ExperimentReport:
    """Receiver's distinguishing advantage between the two committed bits.

    Exact distance between (t shared copies, C registers of p commitments to 0)
    and the same with commitments to 1, averaged over the shared state. So it
    takes only the sizes, checked as ``CommitmentParams`` checks them, and no
    shared state. Both sides are known in closed form, with ``s = t + p``
    registers of ``N = 2^n`` letters and ``M_s = Pi_sym / C(N+s-1, s)`` the
    exact s-copy moment: in the type basis it weighs the unit vector spread
    evenly over the ``d_T`` orderings of each full type T (a multiset of s
    letters) by ``1 / C(N+s-1, s)``.

    The bit-0 side needs no commit state. Copy i's R register holds
    ``|k_i || 0>``, orthogonal across keys, so tracing R mixes the key-phased
    copies: ``Tr_R`` of one commitment is ``E_k Z_k |theta><theta| Z_k`` with
    ``Z_k`` the diagonal ``(-1)^(k . prefix(x))``. Averaged over theta, entry
    (a, b) of the joint state is ``M_s[a, b]`` times, per committed register
    i, ``E_k (-1)^(k . (prefix(a_i) xor prefix(b_i)))``, which is
    ``[prefix(a_i) == prefix(b_i)]``. So side 0 is ``M_s`` masked to equal
    lam-bit prefixes on every committed register: it splits by full type T
    and committed-prefix block b into orthogonal rank-one pieces, the sum of
    T's orderings in b, with weight ``w = k_Tb / (C(N+s-1, s) d_T)`` when
    ``k_Tb`` of them fall in b.

    The bit-1 side has maximally mixed C registers for every shared state:
    ``M_t (x) (I/N)^(x)p``, which is ``c = 1 / (C(N+t-1, t) N^p)`` times the
    projector ``Pi_sym^t (x) I`` of rank ``rank = C(N+t-1, t) N^p``. Permuting
    the t shared registers keeps an ordering of T in its block, so that
    projector holds every piece, and the difference of the sides is a sum of
    orthogonal terms, ``w - c`` on each piece and ``-c`` on the rest of it:

        td = (sum |w - c| + c (rank - #pieces)) / 2.

    The bit-0 side is cross-checked against the multi-key distance with one
    generated copy per key: the distance between the sector forms of the
    chain's ends, xi_0 and xi_p, on one space of relation classes. A class's
    sectors split alike, and xi_0 folds the prefixes of the committed copies
    (first, which changes no count: M_s is symmetric), so the pieces are the
    key classes of the xi_0 that the cross-check builds, ``k_Tb`` orderings
    each. The sum is over exact ints, one correctly rounded division per
    sector dimension ``d_T``; the rows holding all ``C(N+s-1, s)`` sectors is
    the one density check.
    """
    from .prsg import PrsParams, _sector_chain, relation_classes
    from .sectors import sector_trace_distance

    _check_sizes(lam, n, p)
    if t < 0:
        raise ValueError(f"need t >= 0 common copies, got t={t}")
    multikey_params = PrsParams(lam=lam, n=n, ell=1, t=t, p=p)
    N, size = 1 << n, t + p
    space = relation_classes(n, lam, size, budgets)
    C = math.comb(N + size - 1, size)
    if sum(sum(group.counts) for group in space.groups) != C:
        raise RuntimeError("hiding_distance: the relation classes miss or repeat a sector")
    rank = math.comb(N + t - 1, t) * N**p
    spread = 0.0
    # the pieces: xi_0's classes, orderings that share the prefixes of copies 0..p-1
    xi0 = _sector_chain(0, multikey_params, space)
    rows, k = xi0.classes()
    dims = np.bincount(space.entry_rows)[rows]  # the orderings of each piece's sector
    for dim in np.unique(dims).tolist():
        scale = C * dim  # a piece of k_Tb = k orderings weighs k / scale
        # sum |k rank - scale| = rank sum(sign k) - scale sum(sign), over the pieces
        on = dims == dim
        sign = np.where(k[on] > min(scale // rank, dim), 1, -1)
        total = rank * space.total(sign * k[on], rows[on]) - scale * space.total(sign, rows[on])
        spread += total / scale
    td = (spread + (rank - space.total(rows=rows))) / (2 * rank)
    td_multikey = sector_trace_distance(xi0, _sector_chain(p, multikey_params, space))
    quantities = {
        "td_hiding": td,
        "td_multikey_route": td_multikey,
        "route_difference": abs(td - td_multikey),
    }
    flags = {"hiding_matches_multikey": abs(td - td_multikey) <= ATOL_CHAIN}
    return ExperimentReport(
        experiment="commit-hiding",
        params={"lam": lam, "n": n, "p": p, "t": t},
        quantities=quantities,
        bounds={"rate_total": p * (p + t) ** 2 / 2**lam},
        flags=flags,
        notes=[
            "polynomial-copy hiding is represented by sweeping t and p at fixed "
            "small values; this report is one point of that sweep"
        ],
    )
