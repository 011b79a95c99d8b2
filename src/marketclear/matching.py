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

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    Array,
    EquilibriumMap,
    PriceVector,
    _Frozen,
    _finite_matrix,
    _finite_vector,
    _labels,
    _require_count,
    _require_nonneg,
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
class IndividualMarket(_Frozen):
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
        # The entries are finite, so a repeat is a zero step between sorted
        # neighbours. (np.unique imports numpy.ma on first use, an import
        # every CLI process on an individual market would pay.)
        if np.any(alpha == 0.0) or np.any(np.diff(np.sort(alpha)) == 0.0):
            raise ValueError("alpha rows must hold distinct nonzero values")
        if np.any(gamma == 0.0) or np.any(np.diff(np.sort(gamma.T)) == 0.0):
            raise ValueError("gamma columns must hold distinct nonzero values")
        self._set(dict(i_labels=i_labels, j_labels=j_labels, alpha=alpha, gamma=gamma))

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
    return out


@dataclass(frozen=True)
class IndividualOutcome(_Frozen):
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
        u = _finite_vector("u", self.u, len(i_labels))
        v = _finite_vector("v", self.v, len(j_labels))
        self._set(dict(i_labels=i_labels, j_labels=j_labels, mu=mu, u=u, v=v))

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
    """Worker-proposing deferred acceptance, one proposal at a time.

    A free worker proposes to their best firm not yet tried among those
    acceptable to both sides; the firm keeps the proposer with the larger
    ``gamma`` and frees the other. Preferences are strict, so the
    worker-optimal stable matching is unique and the order in which free
    workers propose cannot change it.
    """
    alpha, gamma = market.alpha, market.gamma
    count_i, count_j = alpha.shape
    acceptable = (alpha > 0.0) & (gamma > 0.0)
    ranked = np.argsort(-alpha, axis=1)
    prefs = [iter(row[acceptable[i, row]].tolist()) for i, row in enumerate(ranked)]
    holder = np.full(count_j, -1)
    free = list(range(count_i))
    while free:
        i = free.pop()
        for j in prefs[i]:
            k = holder[j]
            if k < 0 or gamma[i, j] > gamma[k, j]:
                holder[j] = i
                if k >= 0:
                    free.append(k)
                break
    mu = np.zeros((count_i, count_j), dtype=int)
    firms = np.flatnonzero(holder >= 0)
    mu[holder[firms], firms] = 1
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
            workers = np.flatnonzero(assignment >= 0)
            mu[workers, assignment[workers]] = 1
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
class AggregateNTMarket(_Frozen):
    """Divisible type masses with fixed per-cell payoffs and no transfers.
    Every type's greedy walk (:func:`_walk_cells`) is built with the market
    from its read-only ``alpha`` and ``gamma``, so it never goes stale."""

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
        n = _finite_vector("n", self.n, shape[0], positive=True)
        m = _finite_vector("m", self.m, shape[1], positive=True)
        alpha = _finite_matrix("alpha", self.alpha, shape)
        gamma = _finite_matrix("gamma", self.gamma, shape)
        walks = _Walks(
            _walk_cells(alpha, 1, shape[1]), _walk_cells(gamma.T, shape[1], 1)
        )
        self._set(dict(x_labels=x_labels, y_labels=y_labels, n=n, m=m, alpha=alpha,
                       gamma=gamma, _walks=walks))


class _Walks(NamedTuple):
    """Each x-type's walk (decreasing ``alpha``, ties by column) and each
    y-type's (decreasing ``gamma``, ties by row), as ``(cells, gate)`` from
    :func:`_walk_cells`."""

    rows: tuple[Array, Array]
    cols: tuple[Array, Array]


def _walk_cells(pay: Array, step: int, stride: int) -> tuple[Array, Array]:
    """The walks over ``pay``, one type's payoffs per row, step by step.

    Column ``k`` of ``cells`` lists the flat cells ``order * step + k *
    stride`` of the ``X × Y`` matrix that type ``k`` visits, in decreasing
    pay (ties by index, as a stable sort of ``-pay``); ``gate`` says whether
    the pay at each of them is ``>= 0``. Both are ``(steps, types)``, so
    that each step of a fill is one contiguous row.
    """
    order = np.argsort(-pay, axis=1, kind="stable")
    gate = (np.take_along_axis(pay, order, axis=1) >= 0.0).T.copy()
    cells = (order * step + np.arange(len(pay))[:, None] * stride).T.copy()
    for a in (cells, gate):
        a.setflags(write=False)
    return cells, gate


@dataclass(frozen=True)
class AggregateNTOutcome(_Frozen):
    """Mass matching with outside masses and payoff multipliers.

    ``rounds`` is the number of proposal/disposal rounds :func:`dalm` ran
    to reach it, a non-negative integer (not a bool), and ``None`` for an
    outcome built any other way.
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
        if self.rounds is not None:
            _require_count("rounds", self.rounds, 0)
        mu = _finite_matrix("mu", self.mu, (nx, ny))
        vectors = {
            name: _finite_vector(name, getattr(self, name), count)
            for name, count in (("mu_x0", nx), ("mu_0y", ny), ("u", nx), ("v", ny))
        }
        self._set(dict(x_labels=x_labels, y_labels=y_labels, mu=mu, **vectors))


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
    _require_nonneg("tol", tol)
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


def _greedy_fill(caps: Array, gate: Array, budget: Array) -> Array:
    """Greedy fill of every walk at once: column ``k`` of ``caps`` and
    ``gate`` holds walk ``k``'s caps and pay gates in walk order.

    Walk ``k`` takes ``min(cap, remaining budget)`` from each step whose
    ``gate`` (pay ``>= 0``) is set until ``budget[k]`` is spent. The budget
    left before each step is the sequential left fold ``((b - c0) - c1) -
    ...`` (``np.subtract.accumulate``, not a cumsum), so every take is
    bitwise the one-cell-at-a-time loop's. Caps at or below zero (or NaN),
    or gated off, take nothing and leave the budget as it was (``b - 0.0
    == b``). Once a cap reaches the budget left, the fold is at or below
    zero for every later step, so those take nothing. The clip never sees
    a ``-0.0`` (the fold subtracts only ``+0.0`` and positive caps from a
    positive budget), so it returns ``+0.0`` as the loop does.
    """
    fold = np.zeros((caps.shape[0] + 1, caps.shape[1]))
    fold[0] = budget
    np.copyto(fold[1:], caps, where=(caps > 0.0) & gate)
    take = np.minimum(fold[1:], np.subtract.accumulate(fold, axis=0)[:-1])
    return np.maximum(take, 0.0, out=take)


def _gather_fill(
    matrix: Array, walks: tuple[Array, Array], budget: Array, name: str, index,
) -> tuple[Array, Array]:
    """The flat cells of ``walks`` on ``matrix`` and their greedy fill on
    its caps, both ``(steps, walks)``: of every walk, or of those ``index``
    picks, in ``index`` order.

    ``index`` is checked by its dtype, not by a scan; an out-of-range one
    is found by the gather of its walks.
    """
    cells, gate = walks
    if index is not None:
        index = np.asarray(index)
        if index.dtype.kind not in "iu":
            if index.size or index.dtype.kind == "b":
                raise ValueError(f"{name} must be integer indices")
            index = index.astype(np.intp)
        if index.ndim != 1:
            raise ValueError(f"{name} must be a 1-D list of indices")
        try:
            cells = cells.take(index, axis=1)
        except IndexError:
            raise ValueError(
                f"{name} index out of range for {len(budget)} types"
            ) from None
        gate, budget = gate.take(index, axis=1), budget[index]
    return cells, _greedy_fill(matrix.take(cells), gate, budget)


def _fill_walks(
    matrix: Array, walks: tuple[Array, Array], budget: Array,
    name: str, index, axis: int, into: Array | None,
) -> Array:
    """The greedy fill of ``walks`` on ``matrix``'s caps (of every walk, or
    of those ``index`` picks) by :func:`_gather_fill`. The walks run along
    ``matrix``'s rows (``axis=0``) or columns (``axis=1``), and the result
    holds the fill of the picked rows or columns, in ``index`` order.

    The fill is scattered into an array shaped like ``matrix`` (it needs no
    zeros first: each walk covers its whole row or column), and the block
    is gathered from it. With ``into``, :func:`dalm`'s flat ``X·Y`` array of
    the last fill, the fill is written into it in place instead, and the
    result is the flat cells whose value changed.
    """
    cells, fill = _gather_fill(matrix, walks, budget, name, index)
    if into is not None:
        changed = fill != into.take(cells)
        into.put(cells, fill)
        return cells[changed]
    out = np.empty(matrix.shape)
    out.put(cells, fill)
    return out if index is None else out.take(index, axis=axis)


def proposal_phase(
    market: AggregateNTMarket, available: Array, *, rows=None, _into=None
) -> Array:
    """Greedy row proposals under per-cell availability caps.

    Each x-type walks its cells in decreasing ``alpha`` (ties by column
    order), skipping negative-``alpha`` cells, and proposes
    ``min(cap, remaining budget)`` until its mass is exhausted. With
    ``rows`` (integer row indices; negative ones count from the end, and
    repeats repeat the row) only those x-types propose, and the result is
    their ``(len(rows), Y)`` block. The walk orders are the market's, built
    with it. ``_into`` is :func:`dalm`'s own: its flat proposal array, which
    the fill is written into in place, and the result is then the flat
    cells whose proposal changed.
    """
    available = np.asarray(available, dtype=float)
    if available.shape != market.alpha.shape:
        raise ValueError("availability matrix has the wrong shape")
    return _fill_walks(
        available, market._walks.rows, market.n, "rows", rows, 0, _into
    )


def disposal_phase(
    market: AggregateNTMarket, proposals: Array, *, cols=None, _into=None
) -> Array:
    """Greedy column retention of proposed mass.

    Each y-type walks its cells in decreasing ``gamma`` (ties by row
    order), skipping negative-``gamma`` cells, and keeps
    ``min(proposal, remaining capacity)`` until ``m_y`` is filled. With
    ``cols`` (integer column indices, as ``rows`` in
    :func:`proposal_phase`) only those y-types retain, and the result is
    their ``(X, len(cols))`` block. The walk orders are the market's, built
    with it. ``_into`` is :func:`dalm`'s own: its flat kept array, which the
    fill is written into in place, and the result is then the flat cells
    whose kept mass changed.
    """
    proposals = np.asarray(proposals, dtype=float)
    if proposals.shape != market.gamma.shape:
        raise ValueError("proposal matrix has the wrong shape")
    return _fill_walks(
        proposals, market._walks.cols, market.m, "cols", cols, 1, _into
    )


def _rows_with_mass(rejected: Array, ones: Array) -> Array:
    """The rows of ``rejected`` that hold a nonzero entry, found by one
    product with ``ones`` (its width): no entry is negative, so a row sums
    to zero exactly when every entry in it is zero."""
    return (rejected @ ones).nonzero()[0]


def _lowest_filled(pay: Array, mass: Array, outside: Array, tol: float) -> Array:
    """Each row's lowest ``pay`` over its cells with ``mass`` above ``tol``;
    0 for a row with ``outside`` mass above ``tol`` or no such cell."""
    filled = mass > tol
    lowest = np.where(filled, pay, np.inf).min(axis=1)
    return np.where((outside > tol) | ~filled.any(axis=1), 0.0, lowest)


def _recover_multipliers(
    market: AggregateNTMarket, mu: Array, mu_x0: Array, mu_0y: Array
) -> tuple[Array, Array]:
    tol = 1e-9 * (1.0 + max(float(market.n.max()), float(market.m.max())))
    u = _lowest_filled(market.alpha, mu, mu_x0, tol)
    v = _lowest_filled(market.gamma.T, mu.T, mu_0y, tol)
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
    rounds. After a round in which no proposal changed, the following
    rounds are idle for as long as every rejected cell's availability
    stays at or above its proposal: each only subtracts the same rejection
    again, so it runs on the rejected cells alone and calls neither phase.
    The phases walk each type's cells in an order built with the market
    and kept with it (a few ``X × Y`` index arrays of flat cells).

    The state is kept in that walk order: flat ``X·Y`` views of the
    availability, proposal and kept matrices. Each round that runs the
    phases calls :func:`proposal_phase` and :func:`disposal_phase` once
    each; after the first, through their ``_into`` keyword (this
    function's own), which writes the fill into the flat proposal (kept)
    array in place and returns the cells that changed. The changed
    columns are read off those cells, and the rejecting rows off one row
    sum of the rejection, which is never negative.

    The outcome's ``rounds`` counts the rounds run, idle ones included. With
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
    ny = available.shape[1]
    ones = np.ones(ny)
    rows = cols = None
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        if rows is None:
            proposed = proposal_phase(market, available)
            kept = disposal_phase(market, proposed)
            # Flat views of the state: the later phases fill them in place,
            # and the idle rounds index them by cell.
            flat_available, flat_proposed, flat_kept = (
                a.reshape(-1) for a in (available, proposed, kept)
            )
        else:
            changed = proposal_phase(
                market, available, rows=rows, _into=flat_proposed
            )
            # The changed columns, sorted and unique (np.unique would
            # import numpy.ma on first use).
            cols = np.bincount(changed % ny, minlength=ny).nonzero()[0]
            disposal_phase(market, proposed, cols=cols, _into=flat_kept)
        rejected = proposed - kept
        rows = _rows_with_mass(rejected, ones)
        # A row without rejection subtracts +0.0, which changes no bit.
        available -= rejected
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
        if cols is not None and not cols.size:
            # No proposal changed, and none will while every rejected cell's
            # availability stays at or above its proposal: until then a
            # round only subtracts the same rejection from the same cells.
            # On Python floats, which subtract bitwise as numpy does.
            cells = np.flatnonzero(rejected)
            left, step, floor = (
                a.take(cells).tolist()
                for a in (flat_available, rejected, flat_proposed)
            )
            while rounds < max_rounds and all(map(operator.ge, left, floor)):
                left = list(map(operator.sub, left, step))
                rounds += 1
                if return_trace:
                    flat_available[cells] = left
                    trace.append(available.copy())
            flat_available[cells] = left
    raise MaxRoundsExceeded(
        f"no settlement after {max_rounds} proposal/disposal rounds",
        trace=trace if return_trace else [available],
    )
