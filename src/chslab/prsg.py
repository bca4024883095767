"""Phase-keyed state generator: its parameters and its exact multi-key chain.

The generator applies a key-indexed Z-phase pattern to the first ``lam`` bits
of the shared state. The real experiment hands out ``ell`` generated copies
next to ``t`` untouched copies of the shared state; the ideal experiment hands
out ``ell`` copies of an independent state instead. Both sides reduce to exact
finite mixtures of (phased) type states, so every distance between them is
computed exactly, with no sampling.

With ``p`` keys the chain runs xi_0 -> ... -> xi_p: xi_j holds independent
ell-copy moments in its first j key groups and keyed copies in the rest, so
xi_0 is the p-key real state and xi_p the ideal one. Each xi_j is one call of
``sectors.product_mixture`` on relation classes of sectors
(``sectors.relation_classes``), so the cost does not grow with ``n``: which
register ranges hold one type state, which are keyed (their prefixes
folded) or independent (their multisets sorted), and the exact member count.
``multi_key_report`` (``multikey-td``) hands its chain, then link j's
single-key pair (``M_ell^(x)j`` tensored with the one-key chain ends) on the
chain's own space, to one ``sectors.trace_distances`` call as a generator of
pairs, so it builds one space and each state when it is needed and holds at
most two.

With one key, xi_0 and xi_1 are hybrids 1 and 8, the real and ideal states of
one key. The layers built on them are loaded on their own: the single-key
hybrid chain and ``prsg-td`` in ``hybrids``, the rank-projector attack in
``rank_attack``, the commitment's hiding cross-check in ``commitments``, and
the PureState-ensemble form of the hybrids, the tests' reference route, in
``ensembles``. None of them is loaded by a ``multikey-td`` run. Every report
gets its space through this module's ``relation_classes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .budgets import DEFAULT_BUDGETS, Budgets
from .reporting import ExperimentReport
from .sectors import (
    SectorMixture,
    SectorSpace,
    product_mixture,
    relation_classes,
    trace_distances,
)
from .tolerances import ATOL_CHAIN


@dataclass(frozen=True)
class PrsParams:
    """Key bits, state qubits, adversary copies, common copies, and key count."""

    lam: int
    n: int
    ell: int
    t: int
    p: int = 1

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError("need at least one key bit")
        if self.n < self.lam:
            raise ValueError(f"state qubits n={self.n} must be at least lam={self.lam}")
        if self.ell < 1 or self.t < 0 or self.p < 1:
            raise ValueError("need ell >= 1, t >= 0, p >= 1")


def __getattr__(name: str):
    # perfbench's traced replays call prsg.hybrid_state(prsg.HybridSpec(...)); these two
    # names resolve from ``ensembles`` on first use until ROADMAP item 5 retires the replays.
    if name in ("hybrid_state", "HybridSpec"):
        from . import ensembles

        return getattr(ensembles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# The multi-key chain
# ---------------------------------------------------------------------------


def _sector_chain(j: int, p: PrsParams, space: SectorSpace) -> SectorMixture:
    """Multi-key chain state xi_j in sector form; with one key, xi_0, xi_1 are hybrids 1, 8.

    The key count is read off the space: ell-register key groups, then t
    common copies. The first j groups hold independent ell-copy moments
    (sorted keys), the others are keyed (folded keys), and the remaining
    registers, the keyed groups and the common copies, hold one type state.
    """
    N, ell, size = space.N, p.ell, space.size
    groups = tuple((g * ell, (g + 1) * ell) for g in range((size - p.t) // ell))
    rest = size - j * ell
    normaliser = math.comb(N + ell - 1, ell) ** j * math.comb(N + rest - 1, rest)
    factors = groups[:j] + ((j * ell, size),)
    return product_mixture(space, normaliser, factors, folds=groups[j:], sorts=groups[:j])


def _chain_pairs(first: SectorMixture, middle, last: SectorMixture):
    """The chain's ends ``(first, last)``, then, if ``middle`` has a state, its links.

    The links join ``first``, the states of ``middle`` (built as they are
    read) and ``last``; no state is held past its last pair.
    """
    yield first, last
    linked = False
    for state in middle:
        yield first, state
        first, linked = state, True
    if linked:
        yield first, last


def multi_key_report(params: PrsParams, budgets: Budgets = DEFAULT_BUDGETS) -> ExperimentReport:
    """Chain between the p-key real state and fully independent ideal state.

    Builds every intermediate state exactly and checks that each link is no
    larger than the single-key distance with the remaining shared copies
    counted into the common-copy budget, which is the monotonicity step of the
    chain argument. Here the real state is called rho and the ideal state
    sigma, one fixed convention for the whole artifact.

    Link j's single-key distance is taken on the chain's own space, between
    ``M_ell^(x)j`` tensored with each of the one-key chain ends on the
    (p - j) ell + t registers left: tensoring both sides with one density
    operator keeps their trace distance. Those pairs are solved with the
    chain, in one call; link p - 1's pair is the chain's last link itself, so
    its value is reported for both, and with one key that link is the
    chain's ends.
    """
    lam, n, ell, t, p = params.lam, params.n, params.ell, params.t, params.p
    space = relation_classes(n, lam, p * ell + t, budgets)

    def pairs():
        chain = (_sector_chain(j, params, space) for j in range(1, p))
        yield from _chain_pairs(
            _sector_chain(0, params, space), chain, _sector_chain(p, params, space)
        )
        for j in range(p - 1):
            one_key = replace(params, t=(p - j - 1) * ell + t)
            yield _sector_chain(j, one_key, space), _sector_chain(j + 1, one_key, space)

    td_total, *distances = trace_distances(pairs())
    links = distances[:p] or [td_total]  # one key: the chain's one link is its ends
    singles = distances[p:] + links[-1:]  # link p - 1's pair is the chain's last link
    quantities: dict[str, float] = {}
    flags: dict[str, bool] = {}
    step_sum = 0.0
    all_links_ok = True
    for j, (td_j, single) in enumerate(zip(links, singles)):
        quantities[f"td_xi{j}_xi{j + 1}"] = td_j
        quantities[f"single_key_td_j{j}"] = single
        all_links_ok &= td_j <= single + ATOL_CHAIN
        step_sum += td_j
    quantities["td_real_ideal"] = td_total
    quantities["sum_links"] = step_sum
    flags["links_le_single_key"] = bool(all_links_ok)
    flags["td_le_sum_of_links"] = td_total <= step_sum + ATOL_CHAIN
    return ExperimentReport(
        experiment="multikey-td",
        params={"lam": lam, "n": n, "ell": ell, "t": t, "p": p},
        quantities=quantities,
        bounds={"rate_total": p * (p * ell + t) ** (2 * ell) / 2**lam},
        flags=flags,
        notes=[
            "convention: rho is the real (keyed) state and sigma the ideal one",
            "register order: p generated groups first, then common copies",
        ],
    )
