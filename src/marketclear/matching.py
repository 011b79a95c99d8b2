"""Two-sided matching with fixed pairwise payoffs (no transfers).

Individual markets match unit workers to unit firms, where a matched pair
``(i, j)`` yields fixed payoffs ``alpha[i, j]`` to the worker and
``gamma[i, j]`` to the firm, with outside options worth 0. The module
provides stability checking, worker-proposing deferred acceptance, brute
enumeration of stable matchings, a reservation-payoff operator whose fixed
points are exactly the stable matchings (with both one-sided-optimal
solves), a damped variant, and worker-side lattice operations.

Aggregate markets carry divisible type masses instead of individuals; a
proposal/disposal mass-matching iteration computes an equilibrium matching
together with its payoff multipliers, and a checker verifies feasibility,
no blocking, and complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Array,
    EquilibriumMap,
    PriceVector,
    _finite_matrix,
    _finite_vector,
    _labels,
    _require_count,
    gauss_seidel_sweep,
    jacobi_sweep,
)
from .errors import InstanceTooLarge, InternalError, MaxRoundsExceeded

__all__ = [
    "IndividualMarket",
    "IndividualOutcome",
    "is_stable",
    "deferred_acceptance",
    "enumerate_stable",
    "adachi_map",
    "build_matching_map",
    "adachi_solve",
    "damped_step",
    "lattice_meet_I",
    "lattice_join_I",
    "AggregateNTMarket",
    "AggregateNTOutcome",
    "is_equilibrium_matching",
    "proposal_phase",
    "disposal_phase",
    "dalm",
]

_ENUM_LIMIT = 7


# ---------------------------------------------------------------------------
# Individual markets


@dataclass(frozen=True)
class IndividualMarket:
    """Unit workers and firms with strict preferences.

    Strictness is enforced exactly: every row of ``alpha`` and every column
    of ``gamma`` must consist of distinct nonzero values (so no agent is
    ever indifferent between two partners or between a partner and staying
    out).
    """

    i_labels: tuple[str, ...]
    j_labels: tuple[str, ...]
    alpha: Array
    gamma: Array

    def __post_init__(self):
        i_labels = _labels("i_labels", self.i_labels)
        j_labels = _labels("j_labels", self.j_labels)
        if not i_labels or not j_labels:
            raise ValueError("both sides need at least one agent")
        shape = (len(i_labels), len(j_labels))
        alpha = _finite_matrix("alpha", self.alpha, shape)
        gamma = _finite_matrix("gamma", self.gamma, shape)
        for row in alpha:
            if np.unique(row).size != row.size or np.any(row == 0.0):
                raise ValueError("alpha rows must hold distinct nonzero values")
        for col in gamma.T:
            if np.unique(col).size != col.size or np.any(col == 0.0):
                raise ValueError("gamma columns must hold distinct nonzero values")
        object.__setattr__(self, "i_labels", i_labels)
        object.__setattr__(self, "j_labels", j_labels)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.i_labels + self.j_labels


def _validate_unit_matching(mu, shape) -> Array:
    out = np.array(mu)
    if out.shape != shape:
        raise ValueError(f"matching must have shape {shape}")
    if not np.isin(out, (0, 1)).all():
        raise ValueError("matching entries must be 0 or 1")
    out = out.astype(int)
    if np.any(out.sum(axis=1) > 1) or np.any(out.sum(axis=0) > 1):
        raise ValueError("each agent can hold at most one match")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IndividualOutcome:
    """A one-to-one matching with the payoffs it generates."""

    i_labels: tuple[str, ...]
    j_labels: tuple[str, ...]
    mu: Array
    u: Array
    v: Array

    def __post_init__(self):
        i_labels = _labels("i_labels", self.i_labels)
        j_labels = _labels("j_labels", self.j_labels)
        mu = _validate_unit_matching(self.mu, (len(i_labels), len(j_labels)))
        object.__setattr__(self, "i_labels", i_labels)
        object.__setattr__(self, "j_labels", j_labels)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "u", _finite_vector("u", self.u, len(i_labels)))
        object.__setattr__(self, "v", _finite_vector("v", self.v, len(j_labels)))

    def worker_partner(self) -> Array:
        """Index of each worker's firm, -1 when unmatched."""
        out = np.full(len(self.i_labels), -1)
        rows, cols = np.nonzero(self.mu)
        out[rows] = cols
        return out


def _matched_payoffs(market: IndividualMarket, mu: Array) -> tuple[Array, Array]:
    u = np.where(mu.any(axis=1), (market.alpha * mu).sum(axis=1), 0.0)
    v = np.where(mu.any(axis=0), (market.gamma * mu).sum(axis=0), 0.0)
    return u, v


def _make_outcome(market: IndividualMarket, mu: Array) -> IndividualOutcome:
    u, v = _matched_payoffs(market, mu)
    return IndividualOutcome(market.i_labels, market.j_labels, mu, u, v)


def _stability_violations(
    market: IndividualMarket, mu
) -> tuple[list[str], Array, Array]:
    """The stability rules the 0/1 matching ``mu`` breaks, by name
    (``individual_rationality``, ``blocking``), and the payoffs ``(u, v)``
    it gives. A pair blocks when both strictly prefer each other to their
    current assignments (strictness makes ties impossible)."""
    mu = _validate_unit_matching(mu, market.alpha.shape)
    matched = mu == 1
    broken = []
    if np.any(matched & ((market.alpha <= 0.0) | (market.gamma <= 0.0))):
        broken.append("individual_rationality")
    u, v = _matched_payoffs(market, mu)
    if np.any((market.alpha > u[:, None]) & (market.gamma > v[None, :]) & ~matched):
        broken.append("blocking")
    return broken, u, v


def is_stable(market: IndividualMarket, matching) -> bool:
    """Exact stability check: individual rationality plus no blocking pair.

    ``matching`` may be an :class:`IndividualOutcome` or a 0/1 matrix.
    """
    mu = matching.mu if isinstance(matching, IndividualOutcome) else matching
    return not _stability_violations(market, mu)[0]


def deferred_acceptance(market: IndividualMarket) -> IndividualOutcome:
    """Worker-proposing deferred acceptance.

    Free workers propose to their best remaining firm with positive payoff;
    each firm tentatively holds the best positive-payoff proposer seen so
    far and rejects the rest. Returns the worker-optimal stable matching.
    """
    alpha, gamma = market.alpha, market.gamma
    count_i, count_j = alpha.shape
    available = alpha > 0.0
    matched_to = np.full(count_i, -1)
    holder = np.full(count_j, -1)
    while True:
        proposals: dict[int, list[int]] = {}
        for i in range(count_i):
            if matched_to[i] >= 0 or not available[i].any():
                continue
            j = int(np.argmax(np.where(available[i], alpha[i], -np.inf)))
            proposals.setdefault(j, []).append(i)
        if not proposals:
            break
        for j, cands in proposals.items():
            pool = list(cands)
            if holder[j] >= 0:
                pool.append(int(holder[j]))
            best = -1
            for i in pool:
                if gamma[i, j] > 0.0 and (best < 0 or gamma[i, j] > gamma[best, j]):
                    best = i
            for i in pool:
                if i != best:
                    available[i, j] = False
                    if matched_to[i] == j:
                        matched_to[i] = -1
            if best >= 0:
                holder[j] = best
                matched_to[best] = j
    mu = np.zeros((count_i, count_j), dtype=int)
    for i in range(count_i):
        if matched_to[i] >= 0:
            mu[i, matched_to[i]] = 1
    return _make_outcome(market, mu)


def enumerate_stable(market: IndividualMarket) -> tuple[IndividualOutcome, ...]:
    """All stable matchings by pruned exhaustive search.

    Only pairs acceptable to both sides can appear in a stable matching, so
    the search branches over those. Guarded: more than 7 agents on a side
    raises :class:`InstanceTooLarge`.
    """
    count_i, count_j = market.alpha.shape
    if count_i > _ENUM_LIMIT or count_j > _ENUM_LIMIT:
        raise InstanceTooLarge(
            f"enumeration is limited to {_ENUM_LIMIT} agents per side"
        )
    viable = (market.alpha > 0.0) & (market.gamma > 0.0)
    assignment = np.full(count_i, -1)
    used = np.zeros(count_j, dtype=bool)
    found: list[IndividualOutcome] = []

    def recurse(i: int) -> None:
        if i == count_i:
            mu = np.zeros((count_i, count_j), dtype=int)
            for w, f in enumerate(assignment):
                if f >= 0:
                    mu[w, f] = 1
            if is_stable(market, mu):
                found.append(_make_outcome(market, mu))
            return
        recurse(i + 1)
        for j in range(count_j):
            if viable[i, j] and not used[j]:
                assignment[i] = j
                used[j] = True
                recurse(i + 1)
                used[j] = False
                assignment[i] = -1

    recurse(0)
    return tuple(found)


# ---------------------------------------------------------------------------
# Reservation-payoff iteration


def _worker_block(alpha: Array, gamma: Array, p_firms: Array) -> Array:
    masked = np.where(gamma >= p_firms[None, :], -alpha, np.inf)
    return np.minimum(masked.min(axis=1), 0.0)


def _firm_block(alpha: Array, gamma: Array, p_workers: Array) -> Array:
    masked = np.where(p_workers[:, None] >= -alpha, gamma, -np.inf)
    return np.maximum(masked.max(axis=0), 0.0)


def adachi_map(market: IndividualMarket):
    """The simultaneous reservation-payoff operator as a vector map.

    States are ``(p_i, p_j) = (-u, v)``. Each worker coordinate moves to
    the negated best payoff among firms that would currently accept the
    worker (or 0); each firm coordinate moves to the best payoff among
    workers that would currently accept the firm (or 0). The operator is
    isotone, and its fixed points correspond exactly to stable matchings.
    It is one Jacobi sweep of :func:`build_matching_map`.
    """
    q = build_matching_map(market)
    return lambda p: jacobi_sweep(q, p)


def build_matching_map(market: IndividualMarket) -> EquilibriumMap:
    """Counting map of the reservation-payoff operator.

    Every fixed point of the operator is a zero of this map, but not every
    zero is a fixed point: a payoff below its outside option can still count
    zero. Only the operator's fixed points are stable matchings, so a solve
    that stops on a zero residual can stop short of one; :func:`adachi_solve`
    stops on a repeated state instead.

    Each worker coordinate counts the mutually-agreeable firms at the
    current state (plus the outside option once ``p_i >= 0``) minus one;
    firm coordinates mirror it with the opposite sign. The registered
    coordinate updates are the exact operator components, so sweeps move
    along the finite payoff grid rather than bisecting the step function.
    Workers and firms are the two blocks; one update formula serves a block
    and a single coordinate, on a slice of rows (workers) or columns (firms).
    """
    alpha, gamma = market.alpha, market.gamma
    count_i = len(market.i_labels)
    count = len(market.labels)

    def eval_values(values: Array) -> Array:
        p_workers = values[:count_i]
        p_firms = values[count_i:]
        both = (p_workers[:, None] >= -alpha) & (gamma >= p_firms[None, :])
        qi = both.sum(axis=1) - 1.0 + (p_workers >= 0.0)
        qj = 1.0 - both.sum(axis=0) - (0.0 >= p_firms)
        return np.concatenate([qi, qj])

    def update(lo: int, hi: int, values: Array) -> Array:
        if lo < count_i:
            return _worker_block(alpha[lo:hi], gamma[lo:hi], values[count_i:])
        cols = slice(lo - count_i, hi - count_i)
        return _firm_block(alpha[:, cols], gamma[:, cols], values[:count_i])

    return EquilibriumMap(
        labels=market.labels,
        eval_values=eval_values,
        update_value=update,
        z_function=True,
        diagonal_isotone=True,
        m_function=False,
        m0_function=True,
        blocks=((0, count_i), (count_i, count)),
    )


def adachi_solve(
    market: IndividualMarket, start: str = "worker_optimal"
) -> IndividualOutcome:
    """Iterate the reservation-payoff operator to a one-sided-best matching.

    Runs Gauss-Seidel sweeps of :func:`build_matching_map` (workers from
    the current firm payoffs, then firms from the updated worker payoffs)
    from the extremal start until the state repeats exactly; all values
    live on the finite grid ``{-alpha} ∪ {gamma} ∪ {0}``, so exact
    comparison terminates. From ``"worker_optimal"`` the least fixed point
    is reached (workers best off); ``"firm_optimal"`` reaches the greatest.
    """
    alpha, gamma = market.alpha, market.gamma
    count_i, count_j = alpha.shape
    if start == "worker_optimal":
        p_workers = np.minimum((-alpha).min(axis=1), 0.0)
        p_firms = np.minimum(gamma.min(axis=0), 0.0)
    elif start == "firm_optimal":
        p_workers = np.maximum((-alpha).max(axis=1), 0.0)
        p_firms = np.maximum(gamma.max(axis=0), 0.0)
    else:
        raise ValueError("start must be 'worker_optimal' or 'firm_optimal'")
    q = build_matching_map(market)
    p = PriceVector(market.labels, np.concatenate([p_workers, p_firms]))
    bound = count_i * count_j + count_i + count_j + 1
    for _ in range(bound):
        p_next = gauss_seidel_sweep(q, p)
        if np.array_equal(p_next.values, p.values):
            return _outcome_from_fixed_point(
                market, p.values[:count_i], p.values[count_i:]
            )
        p = p_next
    raise InternalError("reservation-payoff iteration exceeded its sweep bound")


def _outcome_from_fixed_point(
    market: IndividualMarket, p_workers: Array, p_firms: Array
) -> IndividualOutcome:
    alpha, gamma = market.alpha, market.gamma
    count_i, count_j = alpha.shape
    mu = np.zeros((count_i, count_j), dtype=int)
    taken = np.full(count_j, -1)
    for i in range(count_i):
        if p_workers[i] > 0.0:
            raise InternalError("worker state above the outside option")
        if p_workers[i] == 0.0:
            continue
        hits = np.flatnonzero(alpha[i] == -p_workers[i])
        if hits.size != 1:
            raise InternalError("matched worker has no unique partner")
        j = int(hits[0])
        if p_firms[j] != gamma[i, j]:
            raise InternalError("matched pair's payoffs disagree")
        if taken[j] >= 0:
            raise InternalError("two workers matched to one firm")
        taken[j] = i
        mu[i, j] = 1
    for j in range(count_j):
        if p_firms[j] < 0.0:
            raise InternalError("firm state below the outside option")
        if (p_firms[j] > 0.0) != (taken[j] >= 0):
            raise InternalError("firm state inconsistent with the matching")
    return IndividualOutcome(
        market.i_labels, market.j_labels, mu, -p_workers + 0.0, p_firms
    )


def damped_step(market: IndividualMarket, p: PriceVector) -> PriceVector:
    """One cautious sweep: workers descend at most one rung, then firms react.

    Each worker coordinate moves to its operator value but is capped at the
    next grid rung strictly above the current value (no cap when none
    exists); the firm block then updates plainly from the capped worker
    payoffs. Fixed points coincide with the plain operator's.
    """
    if p.labels != market.labels:
        raise ValueError("state labels do not match the market")
    alpha, gamma = market.alpha, market.gamma
    count_i = len(market.i_labels)
    p_workers = p.values[:count_i]
    p_firms = p.values[count_i:]
    target = _worker_block(alpha, gamma, p_firms)
    rungs = np.concatenate([-alpha, np.zeros((count_i, 1))], axis=1)
    above = np.where(rungs > p_workers[:, None], rungs, np.inf)
    capped = np.minimum(target, above.min(axis=1))
    new_firms = _firm_block(alpha, gamma, capped)
    return PriceVector(p.labels, np.concatenate([capped, new_firms]))


# ---------------------------------------------------------------------------
# Worker-side lattice operations


def _check_outcome(market: IndividualMarket, outcome: IndividualOutcome) -> None:
    if (
        outcome.i_labels != market.i_labels
        or outcome.j_labels != market.j_labels
    ):
        raise ValueError("outcome labels do not match the market")


def _assemble_by_rows(
    market: IndividualMarket,
    first: IndividualOutcome,
    second: IndividualOutcome,
    pick_first: Array,
) -> IndividualOutcome:
    mu = np.where(pick_first[:, None], first.mu, second.mu)
    if np.any(mu.sum(axis=0) > 1):
        raise InternalError("row-wise selection produced a conflicted matching")
    return _make_outcome(market, mu)


def lattice_meet_I(
    market: IndividualMarket,
    first: IndividualOutcome,
    second: IndividualOutcome,
) -> IndividualOutcome:
    """Worker-pessimal combination: each worker keeps their worse match.

    For stable inputs the selected rows always form a matching and the
    result is stable again, with worker payoffs the componentwise minimum
    and firm payoffs the componentwise maximum.
    """
    _check_outcome(market, first)
    _check_outcome(market, second)
    return _assemble_by_rows(market, first, second, first.u <= second.u)


def lattice_join_I(
    market: IndividualMarket,
    first: IndividualOutcome,
    second: IndividualOutcome,
) -> IndividualOutcome:
    """Worker-optimal combination: each worker keeps their better match."""
    _check_outcome(market, first)
    _check_outcome(market, second)
    return _assemble_by_rows(market, first, second, first.u >= second.u)


# ---------------------------------------------------------------------------
# Aggregate markets


@dataclass(frozen=True)
class AggregateNTMarket:
    """Divisible type masses with fixed per-cell payoffs and no transfers."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    n: Array
    m: Array
    alpha: Array
    gamma: Array

    def __post_init__(self):
        x_labels = _labels("x_labels", self.x_labels)
        y_labels = _labels("y_labels", self.y_labels)
        if not x_labels or not y_labels:
            raise ValueError("both sides need at least one type")
        shape = (len(x_labels), len(y_labels))
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        n = _finite_vector("n", self.n, shape[0], positive=True)
        m = _finite_vector("m", self.m, shape[1], positive=True)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alpha", _finite_matrix("alpha", self.alpha, shape))
        object.__setattr__(self, "gamma", _finite_matrix("gamma", self.gamma, shape))


@dataclass(frozen=True)
class AggregateNTOutcome:
    """Mass matching with outside masses and payoff multipliers.

    ``rounds`` is the number of proposal/disposal rounds :func:`dalm` ran
    to reach it, and ``None`` for an outcome built any other way.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    mu: Array
    mu_x0: Array
    mu_0y: Array
    u: Array
    v: Array
    rounds: int | None = None

    def __post_init__(self):
        x_labels = _labels("x_labels", self.x_labels)
        y_labels = _labels("y_labels", self.y_labels)
        nx, ny = len(x_labels), len(y_labels)
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        object.__setattr__(self, "mu", _finite_matrix("mu", self.mu, (nx, ny)))
        for name, count in (("mu_x0", nx), ("mu_0y", ny), ("u", nx), ("v", ny)):
            object.__setattr__(
                self, name, _finite_vector(name, getattr(self, name), count)
            )


def is_equilibrium_matching(
    market: AggregateNTMarket,
    outcome: AggregateNTOutcome,
    tol: float = 1e-9,
) -> tuple[bool, tuple[str, ...]]:
    """Verify an aggregate outcome; returns ``(ok, violation_names)``.

    Checks mass nonnegativity, both feasibility identities, payoff
    nonnegativity, absence of blocking cells
    (``max(u_x - alpha, v_y - gamma) >= 0`` everywhere), and complementary
    slackness for matched cells and both outside stocks. All comparisons
    are relative to ``tol`` scaled by the relevant magnitudes; ``tol`` must
    be finite and ``>= 0``.
    """
    if not 0 <= tol < np.inf:
        raise ValueError("tol must be finite and >= 0")
    if (
        outcome.x_labels != market.x_labels
        or outcome.y_labels != market.y_labels
    ):
        raise ValueError("outcome labels do not match the market")
    n, m = market.n, market.m
    alpha, gamma = market.alpha, market.gamma
    mu, mu_x0, mu_0y = outcome.mu, outcome.mu_x0, outcome.mu_0y
    u, v = outcome.u, outcome.v

    mass_tol = tol * (1.0 + max(float(n.max()), float(m.max())))
    pay_scale = max(
        float(np.abs(alpha).max()),
        float(np.abs(gamma).max()),
        float(np.abs(u).max()),
        float(np.abs(v).max()),
        1.0,
    )
    pay_tol = tol * pay_scale

    violations: list[str] = []
    if (
        float(mu.min(initial=0.0)) < -mass_tol
        or float(mu_x0.min(initial=0.0)) < -mass_tol
        or float(mu_0y.min(initial=0.0)) < -mass_tol
    ):
        violations.append("negative_mass")
    if np.any(np.abs(mu.sum(axis=1) + mu_x0 - n) > tol * (1.0 + np.abs(n))):
        violations.append("row_feasibility")
    if np.any(np.abs(mu.sum(axis=0) + mu_0y - m) > tol * (1.0 + np.abs(m))):
        violations.append("column_feasibility")
    if float(u.min()) < -pay_tol or float(v.min()) < -pay_tol:
        violations.append("negative_payoff")
    slack = np.maximum(u[:, None] - alpha, v[None, :] - gamma)
    if bool(np.any(slack < -pay_tol)):
        violations.append("blocking")
    if bool(np.any((mu > mass_tol) & (slack > pay_tol))):
        violations.append("complementarity_match")
    if bool(np.any((mu_x0 > mass_tol) & (u > pay_tol))):
        violations.append("complementarity_x_outside")
    if bool(np.any((mu_0y > mass_tol) & (v > pay_tol))):
        violations.append("complementarity_y_outside")
    return (not violations, tuple(violations))


def _greedy_fill(order: Array, pay: Array, caps: Array, budget: Array) -> Array:
    """Greedy fill of every row at once, in each row's ``order``.

    Row ``r`` walks its cells by ``order[r]`` and takes ``min(cap,
    remaining budget)`` from each cell with ``pay >= 0`` until the budget is
    spent. ``before`` is the budget left before each rank as the sequential
    left fold ``((b - c0) - c1) - ...`` (``np.subtract.accumulate``, not a
    cumsum), so every take is bitwise the one-cell-at-a-time loop's. Caps
    at or below zero, or on negative pays, take nothing and leave the budget
    as it was (``b - 0.0 == b``). Once a cap reaches the budget left, the
    fold is at or below zero for every later rank, so those take nothing.
    """
    rows, cells = caps.shape
    r = np.arange(rows)[:, None]
    fold = np.empty((rows, cells + 1))
    fold[:, 0] = budget
    fold[:, 1:] = np.where((caps > 0.0) & (pay >= 0.0), caps, 0.0)[r, order]
    before = np.subtract.accumulate(fold, axis=1)[:, :-1]
    take = np.minimum(fold[:, 1:], before)
    out = np.zeros((rows, cells))
    out[r, order] = np.where(take > 0.0, take, 0.0)
    return out


def proposal_phase(
    market: AggregateNTMarket, available: Array, *, rows=None
) -> Array:
    """Greedy row proposals under per-cell availability caps.

    Each x-type walks its cells in decreasing ``alpha`` (ties by column
    order), skipping negative-``alpha`` cells, and proposes
    ``min(cap, remaining budget)`` until its mass is exhausted. With
    ``rows`` (row indices) only those x-types propose, and the result is
    their ``(len(rows), Y)`` block.
    """
    available = np.asarray(available, dtype=float)
    if available.shape != market.alpha.shape:
        raise ValueError("availability matrix has the wrong shape")
    if rows is None:
        rows = np.arange(available.shape[0])
    rows = np.asarray(rows, dtype=int)
    pay = market.alpha[rows]
    order = np.argsort(-pay, axis=1, kind="stable")
    return _greedy_fill(order, pay, available[rows], market.n[rows])


def disposal_phase(
    market: AggregateNTMarket, proposals: Array, *, cols=None
) -> Array:
    """Greedy column retention of proposed mass.

    Each y-type walks its cells in decreasing ``gamma`` (ties by row
    order), skipping negative-``gamma`` cells, and keeps
    ``min(proposal, remaining capacity)`` until ``m_y`` is filled. With
    ``cols`` (column indices) only those y-types retain, and the result is
    their ``(X, len(cols))`` block.
    """
    proposals = np.asarray(proposals, dtype=float)
    if proposals.shape != market.gamma.shape:
        raise ValueError("proposal matrix has the wrong shape")
    if cols is None:
        cols = np.arange(proposals.shape[1])
    cols = np.asarray(cols, dtype=int)
    pay = market.gamma[:, cols].T
    order = np.argsort(-pay, axis=1, kind="stable")
    kept = _greedy_fill(order, pay, proposals[:, cols].T, market.m[cols])
    return np.ascontiguousarray(kept.T)


def _recover_multipliers(
    market: AggregateNTMarket, mu: Array, mu_x0: Array, mu_0y: Array
) -> tuple[Array, Array]:
    tol = 1e-9 * (1.0 + max(float(market.n.max()), float(market.m.max())))
    u = np.zeros(len(market.x_labels))
    for x in range(u.size):
        if mu_x0[x] > tol:
            continue
        filled = market.alpha[x][mu[x] > tol]
        if filled.size:
            u[x] = float(filled.min())
    v = np.zeros(len(market.y_labels))
    for y in range(v.size):
        if mu_0y[y] > tol:
            continue
        filled = market.gamma[:, y][mu[:, y] > tol]
        if filled.size:
            v[y] = float(filled.min())
    return u, v


def dalm(
    market: AggregateNTMarket,
    *,
    max_rounds: int = 10_000,
    return_trace: bool = False,
):
    """Proposal/disposal iteration on shrinking availability.

    Availability starts at the cell caps ``min(n_x, m_y)``; each round
    proposes greedily, keeps greedily, and subtracts the rejected mass
    from availability (which therefore never increases). Stops when the
    largest rejection is negligible relative to the initial availability;
    the kept masses then form an equilibrium matching, whose payoff
    multipliers are read off the marginal filled cells.

    The first round is one full pass. After it, only the rows that had a
    rejection propose again, and only the columns whose proposals changed
    retain again: every other row and column would redo the same
    arithmetic on the same numbers, so the result is bitwise that of full
    rounds.

    The outcome's ``rounds`` counts the rounds run. With
    ``return_trace=True`` also returns the availability matrices by round
    (the start, then one per round); without it no per-round copy is
    kept. Raises :class:`MaxRoundsExceeded` if the budget runs out; its
    ``trace`` is that full list with ``return_trace=True``, and
    ``[last availability]`` without.
    """
    _require_count("max_rounds", max_rounds)
    available = np.minimum.outer(market.n, market.m)
    threshold = 1e-12 * (1.0 + float(available.max()))
    trace = [available.copy()] if return_trace else None
    rows = cols = None
    for rounds in range(1, max_rounds + 1):
        offers = proposal_phase(market, available, rows=rows)
        if rows is None:
            proposed = offers
        else:
            cols = np.flatnonzero((offers != proposed[rows]).any(axis=0))
            proposed[rows] = offers
        retained = disposal_phase(market, proposed, cols=cols)
        if cols is None:
            kept = retained
        else:
            kept[:, cols] = retained
        rejected = proposed - kept
        rows = np.flatnonzero(rejected.any(axis=1))
        available[rows] -= rejected[rows]
        if return_trace:
            trace.append(available.copy())
        if float(rejected.max(initial=0.0)) <= threshold:
            mu = kept
            mu_x0 = market.n - mu.sum(axis=1)
            mu_0y = market.m - mu.sum(axis=0)
            u, v = _recover_multipliers(market, mu, mu_x0, mu_0y)
            outcome = AggregateNTOutcome(
                market.x_labels, market.y_labels, mu, mu_x0, mu_0y, u, v,
                rounds=rounds,
            )
            return (outcome, trace) if return_trace else outcome
    raise MaxRoundsExceeded(
        f"no settlement after {max_rounds} proposal/disposal rounds",
        trace=trace if return_trace else [available],
    )
