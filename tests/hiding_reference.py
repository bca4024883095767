"""The hiding distance from the commit states themselves: the reference route.

``hiding_distance`` has the signature of ``commitments.hiding_distance`` and
builds the same report, but its bit-0 side pushes every (t+p)-copy type state
through the commit isometry and traces out the R registers, one type at a
time, and its trace distance is one dense ``eigvalsh``.
"""

import itertools
import math

import numpy as np

from chslab.budgets import DEFAULT_BUDGETS, Budgets
from chslab.haar import exact_moment
from chslab.prsg import PrsParams, multi_key_report
from chslab.qla import DensityOperator, PureState, partial_trace_pure, trace_distance
from chslab.reporting import ExperimentReport
from chslab.tolerances import ATOL_CHAIN
from chslab.typestates import TypeVector, enumerate_types, phase_sign, type_state


def _commit_isometry_state(
    elements: tuple[int, ...], n: int, lam: int, t: int, p: int
) -> PureState:
    """Type state on t + p registers with the last p pushed through the commit map.

    The commit map is the isometry |x>_n -> (1/sqrt(2^lam)) sum_k
    (phased |x>)_C |k||0>_R, so averaging this state over all types reproduces
    the joint state of t shared copies and p bit-0 commitments averaged over
    the shared state.
    """
    base = type_state(TypeVector(elements, n, n))
    shift = n - lam
    coeff = 2.0 ** (-lam * p / 2.0)
    amps: dict[tuple[int, ...], complex] = {}
    key_range = range(1 << lam)
    for label, amp in base.amplitudes.items():
        common, committed = label[:t], label[t:]
        for keys in itertools.product(key_range, repeat=p):
            sign = 1
            pairs = []
            for x, k in zip(committed, keys):
                sign *= phase_sign(k, x >> shift)
                pairs.extend((x, k << shift))
            amps[common + tuple(pairs)] = amp * coeff * sign
    return PureState._unchecked((n,) * t + (n, n) * p, amps)


def hiding_distance(
    lam: int, n: int, p: int, t: int, budgets: Budgets = DEFAULT_BUDGETS
) -> ExperimentReport:
    if t < 0:
        raise ValueError(f"need t >= 0 common copies, got t={t}")
    N = 1 << n
    size = t + p
    kept_dim = 1 << (n * size)
    budgets.check_dense_dim(kept_dim, "hiding_distance")
    count = math.comb(N + size - 1, size)
    keep = list(range(t)) + [t + 2 * i for i in range(p)]
    side0 = np.zeros((kept_dim, kept_dim), dtype=complex)
    for T in enumerate_types(N, size, budgets):
        big = _commit_isometry_state(T.elements, n, lam, t, p)
        side0 += partial_trace_pure(big, keep, budgets)
    side0 /= count
    mixed = np.eye(1 << n) / (1 << n)
    side1 = exact_moment(N, t, budgets).to_dense(budgets) if t else np.eye(1)
    for _ in range(p):
        side1 = np.kron(side1, mixed)
    shape = (n,) * size
    td = trace_distance(
        DensityOperator.from_dense(side0, shape),
        DensityOperator.from_dense(side1, shape),
        budgets,
    )
    multikey = multi_key_report(PrsParams(lam=lam, n=n, ell=1, t=t, p=p), budgets)
    td_multikey = multikey.quantities["td_real_ideal"]
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
    )
