"""Bipartite aggregate markets with transfer frictions.

A market pairs a finite set of x-types with a finite set of y-types. Each
cell's bargaining possibilities are summarized by a signed
distance-to-frontier ``D(U, V)``: negative strictly inside the feasible
utility region, zero on its boundary, nondecreasing in both arguments, and
translation-covariant (``D(U + t, V + t) = D(U, V) + t``). Three families
are built in — perfect transfers, piecewise-linear tax wedges, and fixed
splits — plus intersection/union combinators. On top of the frontiers this
module builds logit-smoothed market-clearing maps as
:class:`~marketclear.core.EquilibriumMap` objects (with closed-form
coordinate updates where available and bracketed bisection otherwise),
start-point constructors, equilibrium/wage recovery, and a finite-difference
probe for asymmetry of the price Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Array, EquilibriumMap, PriceVector, gauss_seidel_sweep
from .errors import ResponsivenessViolation, UnsupportedFrontier, InternalError

__all__ = [
    "TaxSchedule",
    "net_wage",
    "invert_net_wage",
    "TUFrontier",
    "TaxesFrontier",
    "TaxBracketFrontier",
    "NTUFrontier",
    "CombinedFrontier",
    "combine_distances",
    "FrontierGrid",
    "AggregateMarket",
    "AggregateEquilibrium",
    "NonintegrabilityReport",
    "build_transfer_map",
    "sinkhorn_update",
    "build_ot_map",
    "build_full_assignment_map",
    "full_assignment_prices",
    "singles_supersolution",
    "singles_subsolution",
    "full_assignment_supersolution",
    "recover_equilibrium",
    "recover_wages",
    "build_housing_map",
    "build_housing_full_assignment_map",
    "check_nonintegrability",
]

_ALL = slice(None)
_BALANCE_RTOL = 1e-9
_LOG_GUARD = 300.0
_MAX_DOUBLINGS = 60


# ---------------------------------------------------------------------------
# Tax schedules


@dataclass(frozen=True)
class TaxSchedule:
    """Piecewise-linear retention schedule given by bracket lines.

    Bracket ``k`` contributes the line ``(1 - rates[k]) * (w - thresholds[k])``
    and the net (take-home) wage is the lower envelope of the lines, a
    concave, strictly increasing, piecewise-linear function of the gross
    wage ``w``. Thresholds must start at 0 and increase strictly; rates
    must lie in ``[0, 1)``.
    """

    rates: tuple[float, ...]
    thresholds: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        thresholds = tuple(float(w) for w in self.thresholds)
        if len(rates) != len(thresholds) or not rates:
            raise ValueError("rates and thresholds must have equal, positive length")
        if not all(np.isfinite(rates)) or not all(np.isfinite(thresholds)):
            raise ValueError("schedule entries must be finite")
        if thresholds[0] != 0.0:
            raise ValueError("the first threshold must be 0")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(not 0.0 <= r < 1.0 for r in rates):
            raise ValueError("rates must lie in [0, 1)")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "thresholds", thresholds)

    @classmethod
    def no_tax(cls) -> "TaxSchedule":
        return cls((0.0,), (0.0,))

    def net_wage(self, w):
        """Net wage for gross ``w`` (scalar or array)."""
        w = np.asarray(w, dtype=float)
        out = None
        for rate, thr in zip(self.rates, self.thresholds):
            line = (1.0 - rate) * (w - thr)
            out = line if out is None else np.minimum(out, line)
        return out if out.ndim else float(out)

    def invert_net_wage(self, nu):
        """Gross wage whose net wage is ``nu`` (scalar or array)."""
        nu = np.asarray(nu, dtype=float)
        out = None
        for rate, thr in zip(self.rates, self.thresholds):
            line = nu / (1.0 - rate) + thr
            out = line if out is None else np.maximum(out, line)
        return out if out.ndim else float(out)


def net_wage(schedule: TaxSchedule, w):
    """Module-level alias for :meth:`TaxSchedule.net_wage`."""
    return schedule.net_wage(w)


def invert_net_wage(schedule: TaxSchedule, nu):
    """Module-level alias for :meth:`TaxSchedule.invert_net_wage`."""
    return schedule.invert_net_wage(nu)


# ---------------------------------------------------------------------------
# Single-cell frontiers


class _FrontierBase:
    def feasible(self, U, V, tol: float = 0.0):
        """Whether ``(U, V)`` lies in the closed feasible region."""
        d = np.asarray(self.distance(U, V))
        out = d <= tol
        return out if out.ndim else bool(out)


@dataclass(frozen=True)
class TUFrontier(_FrontierBase):
    """Perfect transfers: feasible iff ``U + V <= phi``."""

    phi: float

    def distance(self, U, V):
        return (U + V - self.phi) / 2.0


@dataclass(frozen=True)
class TaxBracketFrontier(_FrontierBase):
    """A single tax-bracket line treated as a frontier of its own."""

    alpha: float
    gamma: float
    rate: float
    threshold: float

    def distance(self, U, V):
        return (
            U - self.alpha + (1.0 - self.rate) * (V - self.gamma + self.threshold)
        ) / (2.0 - self.rate)


@dataclass(frozen=True)
class TaxesFrontier(_FrontierBase):
    """Transfers taxed through a piecewise-linear retention schedule.

    Feasible iff the worker's pre-transfer utility plus the net wage covers
    ``U`` while the firm pays the gross wage out of ``gamma``:
    ``U <= alpha + N(w)`` and ``V <= gamma - w`` for some gross wage ``w``.
    """

    alpha: float
    gamma: float
    schedule: TaxSchedule

    def brackets(self) -> tuple[TaxBracketFrontier, ...]:
        return tuple(
            TaxBracketFrontier(self.alpha, self.gamma, rate, thr)
            for rate, thr in zip(self.schedule.rates, self.schedule.thresholds)
        )

    def bracket_distances(self, U, V) -> Array:
        """Per-bracket distances stacked along a leading axis."""
        return np.stack(
            [np.asarray(b.distance(U, V), dtype=float) for b in self.brackets()]
        )

    def distance(self, U, V):
        out = None
        for rate, thr in zip(self.schedule.rates, self.schedule.thresholds):
            d = (
                U - self.alpha + (1.0 - rate) * (V - self.gamma + thr)
            ) / (2.0 - rate)
            out = d if out is None else np.maximum(out, d)
        return out


@dataclass(frozen=True)
class NTUFrontier(_FrontierBase):
    """Fixed split, no transfers: feasible iff ``U <= alpha`` and ``V <= gamma``."""

    alpha: float
    gamma: float

    def distance(self, U, V):
        return np.maximum(U - self.alpha, V - self.gamma)


@dataclass(frozen=True)
class CombinedFrontier(_FrontierBase):
    """Pointwise max (intersection) or min (union) of member distances."""

    parts: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in ("intersection", "union"):
            raise ValueError("mode must be 'intersection' or 'union'")
        if not self.parts:
            raise ValueError("at least one frontier is required")
        object.__setattr__(self, "parts", tuple(self.parts))

    def distance(self, U, V):
        pick = np.maximum if self.mode == "intersection" else np.minimum
        out = None
        for part in self.parts:
            d = part.distance(U, V)
            out = d if out is None else pick(out, d)
        return out


def combine_distances(frontiers, mode: str = "intersection") -> CombinedFrontier:
    """Frontier whose feasible set is the intersection or union of the members'."""
    return CombinedFrontier(tuple(frontiers), mode)


# ---------------------------------------------------------------------------
# Grids of frontiers


def _matrix(name: str, value) -> Array:
    out = np.array(value, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FrontierGrid:
    """One frontier per (x, y) cell, sharing a common family.

    ``kind`` is one of ``"tu"`` (needs ``phi``), ``"taxes"`` (needs
    ``alpha``, ``gamma``, ``schedule``) or ``"ntu"`` (needs ``alpha``,
    ``gamma``). ``distance(U, V)`` broadcasts against the parameter
    matrices, so it serves full grids, single rows, single columns, and
    single cells through one code path.
    """

    kind: str
    phi: Array | None = None
    alpha: Array | None = None
    gamma: Array | None = None
    schedule: TaxSchedule | None = None

    def __post_init__(self):
        if self.kind not in ("tu", "taxes", "ntu"):
            raise ValueError("kind must be 'tu', 'taxes' or 'ntu'")
        if self.kind == "tu":
            if self.phi is None or self.alpha is not None or self.gamma is not None:
                raise ValueError("'tu' grids take phi only")
            if self.schedule is not None:
                raise ValueError("'tu' grids take no schedule")
            object.__setattr__(self, "phi", _matrix("phi", self.phi))
        else:
            if self.alpha is None or self.gamma is None or self.phi is not None:
                raise ValueError(f"'{self.kind}' grids take alpha and gamma")
            alpha = _matrix("alpha", self.alpha)
            gamma = _matrix("gamma", self.gamma)
            if alpha.shape != gamma.shape:
                raise ValueError("alpha and gamma must have equal shapes")
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "gamma", gamma)
            if self.kind == "taxes":
                if not isinstance(self.schedule, TaxSchedule):
                    raise ValueError("'taxes' grids require a TaxSchedule")
            elif self.schedule is not None:
                raise ValueError("'ntu' grids take no schedule")

    @classmethod
    def tu(cls, phi) -> "FrontierGrid":
        return cls(kind="tu", phi=phi)

    @classmethod
    def taxes(cls, alpha, gamma, schedule: TaxSchedule) -> "FrontierGrid":
        return cls(kind="taxes", alpha=alpha, gamma=gamma, schedule=schedule)

    @classmethod
    def ntu(cls, alpha, gamma) -> "FrontierGrid":
        return cls(kind="ntu", alpha=alpha, gamma=gamma)

    @property
    def shape(self) -> tuple[int, int]:
        base = self.phi if self.kind == "tu" else self.alpha
        return base.shape

    def distance(self, U, V, rows=_ALL, cols=_ALL):
        """Distances for the selected cells; ``U``/``V`` must broadcast."""
        if self.kind == "tu":
            return (U + V - self.phi[rows, cols]) / 2.0
        if self.kind == "ntu":
            return np.maximum(
                U - self.alpha[rows, cols], V - self.gamma[rows, cols]
            )
        a = self.alpha[rows, cols]
        g = self.gamma[rows, cols]
        out = None
        for rate, thr in zip(self.schedule.rates, self.schedule.thresholds):
            d = (U - a + (1.0 - rate) * (V - g + thr)) / (2.0 - rate)
            out = d if out is None else np.maximum(out, d)
        return out

    def distance_matrix(self, U, V) -> Array:
        """Full (x, y) distance matrix for broadcastable ``U``, ``V``."""
        return np.asarray(self.distance(U, V), dtype=float)

    def cell(self, i: int, j: int):
        """The frontier object of cell ``(i, j)``."""
        if self.kind == "tu":
            return TUFrontier(float(self.phi[i, j]))
        if self.kind == "ntu":
            return NTUFrontier(float(self.alpha[i, j]), float(self.gamma[i, j]))
        return TaxesFrontier(
            float(self.alpha[i, j]), float(self.gamma[i, j]), self.schedule
        )


# ---------------------------------------------------------------------------
# Markets


def _vector(name: str, value, count: int) -> Array:
    out = np.array(value, dtype=float).reshape(-1)
    if out.size != count:
        raise ValueError(f"{name} must have length {count}")
    if not np.all(np.isfinite(out)) or not np.all(out > 0):
        raise ValueError(f"{name} must be finite and strictly positive")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AggregateMarket:
    """Type masses plus a frontier grid and a smoothing scale.

    ``singles`` selects the map family: with singles, every type keeps an
    outside option and the two sides need not balance; without singles the
    total masses must agree and everyone matches.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    n: Array
    m: Array
    frontiers: FrontierGrid
    sigma: float
    singles: bool = True

    def __post_init__(self):
        x_labels = tuple(str(z) for z in self.x_labels)
        y_labels = tuple(str(z) for z in self.y_labels)
        if not x_labels:
            raise ValueError("at least one x-type is required")
        every = x_labels + y_labels
        if len(set(every)) != len(every):
            raise ValueError("labels must be unique across both sides")
        n = _vector("n", self.n, len(x_labels))
        m = _vector("m", self.m, len(y_labels))
        if self.frontiers.shape != (len(x_labels), len(y_labels)):
            raise ValueError("frontier grid shape must match the label counts")
        sigma = float(self.sigma)
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError("sigma must be a positive finite number")
        if not self.singles:
            if not y_labels:
                raise ValueError("a market without singles needs y-types")
            total_n, total_m = float(n.sum()), float(m.sum())
            scale = max(1.0, abs(total_n), abs(total_m))
            if abs(total_n - total_m) > _BALANCE_RTOL * scale:
                raise ValueError("total masses must balance without singles")
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", sigma)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.x_labels + self.y_labels


def _require_kind(market: AggregateMarket, *kinds: str) -> None:
    if market.frontiers.kind not in kinds:
        raise ValueError(
            f"this operation needs a frontier kind in {kinds}, "
            f"got '{market.frontiers.kind}'"
        )


def _colsums(K: Array) -> Array:
    # Reduce along contiguous rows of the transpose so that a later
    # single-column np.sum reproduces each entry bit-for-bit.
    return np.ascontiguousarray(K.T).sum(axis=1)


def _lse(values: Array) -> float:
    if values.size == 0:
        return -np.inf
    return float(np.logaddexp.reduce(values))


# ---------------------------------------------------------------------------
# The singles map


def _tu_singles_x_block(phi, py, n, sigma) -> Array:
    if phi.shape[1] == 0:
        log_s = np.full(phi.shape[0], -np.inf)
    else:
        log_s = np.logaddexp.reduce((phi - py[None, :]) / (2.0 * sigma), axis=1)
    big = log_s > _LOG_GUARD
    s = np.exp(np.where(big, 0.0, log_s))
    a = 2.0 * n / (s + np.hypot(s, 2.0 * np.sqrt(n)))
    return np.where(big, 2.0 * sigma * (np.log(n) - log_s), 2.0 * sigma * np.log(a))


def _tu_singles_y_block(phi, px, m, sigma) -> Array:
    if phi.shape[1] == 0:
        return np.empty(0)
    log_s = np.logaddexp.reduce((px[:, None] + phi) / (2.0 * sigma), axis=0)
    big = log_s > _LOG_GUARD
    s = np.exp(np.where(big, 0.0, log_s))
    b = 2.0 * m / (s + np.hypot(s, 2.0 * np.sqrt(m)))
    return np.where(big, 2.0 * sigma * (log_s - np.log(m)), -2.0 * sigma * np.log(b))


def build_transfer_map(market: AggregateMarket) -> EquilibriumMap:
    """Market map with outside options: one coordinate per type.

    The x-coordinate excess counts matched mass plus unmatched mass minus
    the type's total, the y-coordinate excess is its negative mirror, and
    match masses follow the logit kernel ``exp(-D(-p_x, p_y) / sigma)``.
    For perfect transfers the coordinate update has a closed form (a
    stabilized quadratic in half-log space); other kinds use bisection.
    """
    if not market.singles:
        raise ValueError(
            "market has no singles; use build_full_assignment_map instead"
        )
    grid = market.frontiers
    sigma = market.sigma
    n, m = market.n, market.m
    nx, ny = len(market.x_labels), len(market.y_labels)

    def eval_values(values: Array) -> Array:
        px = values[:nx]
        py = values[nx:]
        D = grid.distance_matrix(-px[:, None], py[None, :])
        K = np.exp(-D / sigma)
        qx = K.sum(axis=1) + np.exp(px / sigma) - n
        qy = -_colsums(K) - np.exp(-py / sigma) + m
        return np.concatenate([qx, qy])

    def residual_value(i: int, pi: float, values: Array) -> float:
        if i < nx:
            py = values[nx:]
            D = grid.distance(-pi, py, rows=i)
            K = np.exp(-D / sigma)
            return float(np.sum(K) + np.exp(pi / sigma) - n[i])
        j = i - nx
        px = values[:nx]
        D = grid.distance(-px, pi, cols=j)
        K = np.exp(-D / sigma)
        return float(-np.sum(K) - np.exp(-pi / sigma) + m[j])

    update = None
    if grid.kind == "tu":
        phi = grid.phi

        def update(i: int, values: Array) -> float:
            if i < nx:
                log_s = _lse((phi[i] - values[nx:]) / (2.0 * sigma))
                target = float(n[i])
                if log_s > _LOG_GUARD:
                    return 2.0 * sigma * (np.log(target) - log_s)
                s = np.exp(log_s)
                a = 2.0 * target / (s + np.hypot(s, 2.0 * np.sqrt(target)))
                return float(2.0 * sigma * np.log(a))
            j = i - nx
            log_s = _lse((values[:nx] + phi[:, j]) / (2.0 * sigma))
            target = float(m[j])
            if log_s > _LOG_GUARD:
                return 2.0 * sigma * (log_s - np.log(target))
            s = np.exp(log_s)
            b = 2.0 * target / (s + np.hypot(s, 2.0 * np.sqrt(target)))
            return float(-2.0 * sigma * np.log(b))

        def update_block(b: int, values: Array) -> Array:
            if b == 0:
                return _tu_singles_x_block(phi, values[nx:], n, sigma)
            return _tu_singles_y_block(phi, values[:nx], m, sigma)

    return EquilibriumMap(
        labels=market.labels,
        eval_values=eval_values,
        update_value=update,
        residual_value=residual_value,
        z_function=True,
        diagonal_isotone=True,
        m_function=True,
        m0_function=True,
        blocks=None if update is None else ((0, nx), (nx, nx + ny)),
        update_block=None if update is None else update_block,
    )


# ---------------------------------------------------------------------------
# Scaling iterations for perfect transfers


def sinkhorn_update(market: AggregateMarket, p: PriceVector) -> PriceVector:
    """One block update: all x-prices from ``p_y``, then all y-prices.

    Requires perfect transfers. This is one Gauss-Seidel sweep of
    :func:`build_transfer_map` (with singles, each block solves its
    stabilized quadratic exactly) or of :func:`build_ot_map` (without
    singles, the classic log-domain marginal-matching steps), both of which
    the engine runs one block at a time.
    """
    _require_kind(market, "tu")
    q = build_transfer_map(market) if market.singles else build_ot_map(market)
    return gauss_seidel_sweep(q, p)


def build_ot_map(market: AggregateMarket) -> EquilibriumMap:
    """Balanced perfect-transfer map over all coordinates, kernel scale ``sigma``.

    Match masses are ``exp((phi + p_x - p_y) / sigma)``; the x excess is the
    row sum minus ``n_x`` and the y excess is ``m_y`` minus the column sum.
    The aggregate excess is identically zero, so the map is only weakly
    responsive: solutions are determined up to a common shift, and only
    supersolution starts make all coordinates reachable in practice.
    """
    _require_kind(market, "tu")
    if market.singles:
        raise ValueError("the balanced map is for markets without singles")
    phi = market.frontiers.phi
    sigma, n, m = market.sigma, market.n, market.m
    nx = len(market.x_labels)

    def eval_values(values: Array) -> Array:
        px = values[:nx]
        py = values[nx:]
        K = np.exp((phi + px[:, None] - py[None, :]) / sigma)
        return np.concatenate([K.sum(axis=1) - n, m - _colsums(K)])

    def residual_value(i: int, pi: float, values: Array) -> float:
        if i < nx:
            K = np.exp((phi[i] + pi - values[nx:]) / sigma)
            return float(np.sum(K) - n[i])
        j = i - nx
        K = np.exp((phi[:, j] + values[:nx] - pi) / sigma)
        return float(m[j] - np.sum(K))

    def update(i: int, values: Array) -> float:
        if i < nx:
            log_s = _lse((phi[i] - values[nx:]) / sigma)
            return float(sigma * (np.log(n[i]) - log_s))
        j = i - nx
        log_s = _lse((phi[:, j] + values[:nx]) / sigma)
        return float(sigma * (log_s - np.log(m[j])))

    def update_block(b: int, values: Array) -> Array:
        if b == 0:
            log_s = np.logaddexp.reduce((phi - values[nx:]) / sigma, axis=1)
            return sigma * (np.log(n) - log_s)
        log_s = np.logaddexp.reduce((values[:nx, None] + phi) / sigma, axis=0)
        return sigma * (log_s - np.log(m))

    return EquilibriumMap(
        labels=market.labels,
        eval_values=eval_values,
        update_value=update,
        residual_value=residual_value,
        z_function=True,
        diagonal_isotone=True,
        m_function=False,
        m0_function=True,
        blocks=((0, nx), (nx, len(market.labels))),
        update_block=update_block,
    )


# ---------------------------------------------------------------------------
# The full-assignment map


def _full_assignment_layout(market: AggregateMarket, y0: str | None):
    if market.singles:
        raise ValueError("full-assignment maps need a market without singles")
    y0 = market.y_labels[0] if y0 is None else str(y0)
    if y0 not in market.y_labels:
        raise ValueError(f"unknown y-type {y0!r}")
    j0 = market.y_labels.index(y0)
    keep = [j for j in range(len(market.y_labels)) if j != j0]
    labels = market.x_labels + tuple(market.y_labels[j] for j in keep)
    return y0, j0, np.array(keep, dtype=int), labels


def build_full_assignment_map(
    market: AggregateMarket, y0: str | None = None, pi: float = 0.0
) -> EquilibriumMap:
    """Everyone-matches map with one y-price pinned at ``pi``.

    Coordinates are all x-types plus all y-types except ``y0`` (default:
    the first). Match masses follow ``exp(-D(-p_x, p_y) / sigma)`` with no
    outside-option terms; pinning ``p_{y0}`` removes the translation
    freedom of the balanced system and makes the reduced map strongly
    responsive. For perfect transfers closed-form log-domain coordinate
    updates are registered.
    """
    y0, j0, keep, labels = _full_assignment_layout(market, y0)
    grid = market.frontiers
    sigma, n, m = market.sigma, market.n, market.m
    nx, ny = len(market.x_labels), len(market.y_labels)
    pi = float(pi)

    def full_py(values: Array) -> Array:
        py = np.empty(ny)
        py[j0] = pi
        py[keep] = values[nx:]
        return py

    def eval_values(values: Array) -> Array:
        px = values[:nx]
        py = full_py(values)
        D = grid.distance_matrix(-px[:, None], py[None, :])
        K = np.exp(-D / sigma)
        qx = K.sum(axis=1) - n
        qy = m - _colsums(K)
        return np.concatenate([qx, qy[keep]])

    def residual_value(i: int, pival: float, values: Array) -> float:
        if i < nx:
            py = full_py(values)
            D = grid.distance(-pival, py, rows=i)
            return float(np.sum(np.exp(-D / sigma)) - n[i])
        j = int(keep[i - nx])
        px = values[:nx]
        D = grid.distance(-px, pival, cols=j)
        return float(m[j] - np.sum(np.exp(-D / sigma)))

    update = None
    if grid.kind == "tu":
        phi = grid.phi

        def update(i: int, values: Array) -> float:
            if i < nx:
                log_s = _lse((phi[i] - full_py(values)) / (2.0 * sigma))
                return float(2.0 * sigma * (np.log(n[i]) - log_s))
            j = int(keep[i - nx])
            log_s = _lse((values[:nx] + phi[:, j]) / (2.0 * sigma))
            return float(2.0 * sigma * (log_s - np.log(m[j])))

        phi_keep, m_keep = phi[:, keep], m[keep]

        def update_block(b: int, values: Array) -> Array:
            if b == 0:
                z = (phi - full_py(values)) / (2.0 * sigma)
                return 2.0 * sigma * (np.log(n) - np.logaddexp.reduce(z, axis=1))
            z = (values[:nx, None] + phi_keep) / (2.0 * sigma)
            return 2.0 * sigma * (np.logaddexp.reduce(z, axis=0) - np.log(m_keep))

    return EquilibriumMap(
        labels=labels,
        eval_values=eval_values,
        update_value=update,
        residual_value=residual_value,
        z_function=True,
        diagonal_isotone=True,
        m_function=True,
        m0_function=True,
        blocks=None if update is None else ((0, nx), (nx, len(labels))),
        update_block=None if update is None else update_block,
    )


def full_assignment_prices(
    market: AggregateMarket,
    p: PriceVector,
    y0: str | None = None,
    pi: float = 0.0,
) -> PriceVector:
    """Expand a reduced price vector to all coordinates (inserting ``p_{y0} = pi``).

    A vector that already covers every coordinate is returned unchanged.
    """
    if p.labels == market.labels:
        return p
    y0, j0, keep, labels = _full_assignment_layout(market, y0)
    if p.labels != labels:
        raise ValueError("price labels match neither the full nor the reduced layout")
    nx, ny = len(market.x_labels), len(market.y_labels)
    py = np.empty(ny)
    py[j0] = float(pi)
    py[keep] = p.values[nx:]
    return PriceVector(market.labels, np.concatenate([p.values[:nx], py]))


# ---------------------------------------------------------------------------
# Start-point constructors


def singles_supersolution(market: AggregateMarket) -> PriceVector:
    """A price vector with every excess nonnegative (singles markets).

    X-prices are set high enough that the outside-option mass alone covers
    each ``n_x``; y-prices are then raised by doubling until each column's
    inflow fits under ``m_y`` (the y-excesses are separable given the
    x-prices).
    """
    if not market.singles:
        raise ValueError("use full_assignment_supersolution for markets without singles")
    Q = build_transfer_map(market)
    nx = len(market.x_labels)
    values = np.zeros(len(market.labels))
    values[:nx] = market.sigma * (np.log(market.n) + 1.0)
    for j in range(len(market.y_labels)):
        values[nx + j] = _double_until(
            lambda t, i=nx + j: Q.residual_at(i, t, values) >= 0.0,
            start=0.0,
            upward=True,
        )
    return PriceVector(market.labels, values)


def singles_subsolution(market: AggregateMarket) -> PriceVector:
    """A price vector with every excess nonpositive (singles markets)."""
    if not market.singles:
        raise ValueError("this constructor needs a singles market")
    Q = build_transfer_map(market)
    nx = len(market.x_labels)
    values = np.zeros(len(market.labels))
    values[nx:] = -market.sigma * (np.log(market.m) + 1.0)
    for i in range(nx):
        values[i] = _double_until(
            lambda t, i=i: Q.residual_at(i, t, values) <= 0.0,
            start=0.0,
            upward=False,
        )
    return PriceVector(market.labels, values)


def full_assignment_supersolution(
    market: AggregateMarket, y0: str | None = None, pi: float = 0.0
) -> PriceVector:
    """A supersolution of the full-assignment map pinned at ``p_{y0} = pi``.

    Step 1 pushes each ``p_x`` up until the x-row's inflow into column
    ``y0`` alone covers ``n_x`` (possible whenever the cell's frontier is
    unbounded in the x direction). Step 2 raises each remaining y-price
    until its column inflow is at most ``m_y``; this never disturbs step 1
    because the ``y0`` column is untouched.
    """
    y0c, j0, keep, labels = _full_assignment_layout(market, y0)
    grid = market.frontiers
    sigma = market.sigma
    nx = len(market.x_labels)
    pi = float(pi)

    px = np.empty(nx)
    for i in range(nx):
        target = -sigma * float(np.log(market.n[i]))
        U = _double_until(
            lambda u, i=i: float(grid.distance(u, pi, rows=i, cols=j0)) <= target,
            start=0.0,
            upward=False,
        )
        px[i] = -U

    Q = build_full_assignment_map(market, y0=y0c, pi=pi)
    values = np.concatenate([px, np.zeros(len(keep))])
    for r in range(len(keep)):
        values[nx + r] = _double_until(
            lambda t, i=nx + r: Q.residual_at(i, t, values) >= 0.0,
            start=0.0,
            upward=True,
        )
    return PriceVector(labels, values)


def _double_until(pred, start: float, upward: bool) -> float:
    if pred(start):
        return start
    step = 1.0
    probe = start
    for _ in range(_MAX_DOUBLINGS):
        probe = probe + step if upward else probe - step
        if pred(probe):
            return probe
        step *= 2.0
    raise ResponsivenessViolation(
        "could not construct a starting point by doubling"
    )


# ---------------------------------------------------------------------------
# Recovery


@dataclass(frozen=True)
class AggregateEquilibrium:
    """Match masses and payoffs implied by a clearing price vector."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    mu: Array
    mu_x0: Array
    mu_0y: Array
    u: Array
    v: Array
    U: Array
    V: Array


def recover_equilibrium(
    market: AggregateMarket,
    p: PriceVector,
    *,
    model: str | None = None,
    y0: str | None = None,
    pi: float = 0.0,
    tol: float = 1e-9,
) -> AggregateEquilibrium:
    """Match masses and payoffs from (approximately) clearing prices.

    ``model`` defaults to the distance-kernel family (``"transfer"``);
    pass ``"ot"`` for maps built by :func:`build_ot_map`. For markets
    without singles a reduced price vector is first expanded with
    ``p_{y0} = pi``. Raises ``ValueError`` when the implied marginals miss
    the masses by more than ``tol`` (relative). In the full-assignment
    family the excess of the pinned column ``y0`` is minus the sum of the
    other excesses (up to the mass imbalance), so its tolerance also allows
    for that sum.
    """
    if model is None:
        model = "transfer"
    if model not in ("transfer", "ot"):
        raise ValueError("model must be 'transfer' or 'ot'")
    grid = market.frontiers
    sigma, n, m = market.sigma, market.n, market.m
    nx = len(market.x_labels)

    if not market.singles:
        p = full_assignment_prices(market, p, y0=y0, pi=pi)
    elif p.labels != market.labels:
        raise ValueError("price labels do not match the market")
    px = p.values[:nx]
    py = p.values[nx:]

    if model == "ot":
        _require_kind(market, "tu")
        if market.singles:
            raise ValueError("the 'ot' model applies to markets without singles")
        mu = np.exp((grid.phi + px[:, None] - py[None, :]) / sigma)
        D = (-px[:, None] + py[None, :] - grid.phi) / 2.0
    else:
        D = grid.distance_matrix(-px[:, None], py[None, :])
        mu = np.exp(-D / sigma)

    if model == "ot":
        mu_x0 = np.zeros(nx)
        mu_0y = np.zeros(len(market.y_labels))
        u = -px
        v = py.copy()
    elif market.singles:
        mu_x0 = np.exp(px / sigma)
        mu_0y = np.exp(-py / sigma)
        u = -px + sigma * np.log(n)
        v = py + sigma * np.log(m)
    else:
        mu_x0 = np.zeros(nx)
        mu_0y = np.zeros(len(market.y_labels))
        u = -px + sigma * np.log(n)
        v = py + sigma * np.log(m)

    rx = mu.sum(axis=1) + mu_x0 - n
    ry = mu.sum(axis=0) + mu_0y - m
    slack_y = tol * (1.0 + np.abs(m))
    if model == "transfer" and not market.singles:
        j0 = _full_assignment_layout(market, y0)[1]
        slack_y[j0] += (
            np.abs(rx).sum()
            + np.abs(np.delete(ry, j0)).sum()
            + abs(float(n.sum() - m.sum()))
        )
    if np.any(np.abs(rx) > tol * (1.0 + np.abs(n))) or np.any(np.abs(ry) > slack_y):
        raise ValueError("prices do not clear the market within tolerance")

    U_pay = -px[:, None] - D
    V_pay = py[None, :] - D
    on_frontier = grid.distance_matrix(U_pay, V_pay)
    if np.any(np.abs(on_frontier) > tol * (1.0 + np.abs(D))):
        raise ValueError("recovered payoffs do not sit on the frontiers")

    return AggregateEquilibrium(
        x_labels=market.x_labels,
        y_labels=market.y_labels,
        mu=mu,
        mu_x0=mu_x0,
        mu_0y=mu_0y,
        u=u,
        v=v,
        U=U_pay,
        V=V_pay,
    )


def recover_wages(
    market: AggregateMarket,
    p: PriceVector,
    *,
    model: str | None = None,
    y0: str | None = None,
    pi: float = 0.0,
    tol: float = 1e-8,
) -> Array:
    """Gross wages per cell implied by clearing prices.

    The firm side pays the wage out of its cell surplus, ``w = gamma - V``
    (with ``gamma = phi`` under perfect transfers, where the worker's base
    ``alpha`` is 0). The worker-side identity ``U - alpha = N(w)`` is
    verified as a cross-check. Fixed-split frontiers admit no wage
    decomposition and raise :class:`UnsupportedFrontier`.
    """
    grid = market.frontiers
    if grid.kind == "ntu":
        raise UnsupportedFrontier("fixed-split frontiers have no wage decomposition")
    eq = recover_equilibrium(market, p, model=model, y0=y0, pi=pi)
    if grid.kind == "tu":
        alpha = np.zeros(grid.shape)
        gamma = grid.phi
    else:
        alpha, gamma = grid.alpha, grid.gamma
    w = gamma - eq.V
    lhs = eq.U - alpha
    rhs = w if grid.kind == "tu" else grid.schedule.net_wage(w)
    scale = 1.0 + np.abs(lhs)
    if np.any(np.abs(lhs - rhs) > tol * scale):
        raise InternalError("wage decomposition is inconsistent")
    return w


# ---------------------------------------------------------------------------
# Rent-controlled housing (fixed splits, unit scale)


def _housing_params(market: AggregateMarket):
    _require_kind(market, "ntu")
    if market.sigma != 1.0:
        raise ValueError("the housing map requires sigma = 1")
    return market.frontiers.alpha, market.frontiers.gamma


def build_housing_map(market: AggregateMarket) -> EquilibriumMap:
    """Singles market map for fixed splits written in min form.

    Cell masses are ``min(exp(p_x + alpha), exp(gamma - p_y))`` — whichever
    side's cap binds. This equals the distance-kernel map of
    :func:`build_transfer_map` on the same market bit for bit, but is
    built without evaluating any distance.
    """
    if not market.singles:
        raise ValueError("the housing map needs a singles market")
    alpha, gamma = _housing_params(market)
    n, m = market.n, market.m
    nx = len(market.x_labels)

    def eval_values(values: Array) -> Array:
        px = values[:nx]
        py = values[nx:]
        K = np.minimum(
            np.exp(px[:, None] + alpha), np.exp(gamma - py[None, :])
        )
        qx = K.sum(axis=1) + np.exp(px) - n
        qy = -_colsums(K) - np.exp(-py) + m
        return np.concatenate([qx, qy])

    def residual_value(i: int, pi: float, values: Array) -> float:
        if i < nx:
            py = values[nx:]
            K = np.minimum(np.exp(pi + alpha[i]), np.exp(gamma[i] - py))
            return float(np.sum(K) + np.exp(pi) - n[i])
        j = i - nx
        px = values[:nx]
        K = np.minimum(np.exp(px + alpha[:, j]), np.exp(gamma[:, j] - pi))
        return float(-np.sum(K) - np.exp(-pi) + m[j])

    return EquilibriumMap(
        labels=market.labels,
        eval_values=eval_values,
        residual_value=residual_value,
        z_function=True,
        diagonal_isotone=True,
        m_function=True,
        m0_function=True,
    )


def build_housing_full_assignment_map(
    market: AggregateMarket, y0: str | None = None, pi: float = 0.0
) -> EquilibriumMap:
    """Everyone-housed variant of the min-form map (experimental).

    Because each cell mass saturates at ``exp(gamma - p_y)``, coordinates
    can lose responsiveness on price plateaus; updates may then raise
    :class:`ResponsivenessViolation`. Declared only weakly responsive.
    """
    y0, j0, keep, labels = _full_assignment_layout(market, y0)
    alpha, gamma = _housing_params(market)
    n, m = market.n, market.m
    nx, ny = len(market.x_labels), len(market.y_labels)
    pi = float(pi)

    def full_py(values: Array) -> Array:
        py = np.empty(ny)
        py[j0] = pi
        py[keep] = values[nx:]
        return py

    def eval_values(values: Array) -> Array:
        px = values[:nx]
        py = full_py(values)
        K = np.minimum(
            np.exp(px[:, None] + alpha), np.exp(gamma - py[None, :])
        )
        return np.concatenate([K.sum(axis=1) - n, (m - _colsums(K))[keep]])

    def residual_value(i: int, pival: float, values: Array) -> float:
        if i < nx:
            py = full_py(values)
            K = np.minimum(np.exp(pival + alpha[i]), np.exp(gamma[i] - py))
            return float(np.sum(K) - n[i])
        j = int(keep[i - nx])
        px = values[:nx]
        K = np.minimum(np.exp(px + alpha[:, j]), np.exp(gamma[:, j] - pival))
        return float(m[j] - np.sum(K))

    return EquilibriumMap(
        labels=labels,
        eval_values=eval_values,
        residual_value=residual_value,
        z_function=True,
        diagonal_isotone=True,
        m_function=False,
        m0_function=True,
    )


# ---------------------------------------------------------------------------
# Jacobian asymmetry probe


@dataclass(frozen=True)
class NonintegrabilityReport:
    """Finite-difference price Jacobian and its cross-block asymmetry."""

    jacobian: Array
    asymmetry: Array
    max_asymmetry: float


def check_nonintegrability(
    market: AggregateMarket, p: PriceVector, *, fd_step: float = 1e-4
) -> NonintegrabilityReport:
    """Probe whether the market map is locally a gradient field at ``p``.

    Computes the central-difference Jacobian of the singles map and the
    cross-block asymmetry matrix with entries
    ``d Q_x / d p_y - d Q_y / d p_x`` (each coordinate's excess depends
    only on its own price and the other side's, so all asymmetry lives in
    this block). A large entry certifies that no potential function
    generates the map.
    """
    Q = build_transfer_map(market)
    if p.labels != Q.labels:
        raise ValueError("price vector labels do not match the market")
    base = p.values
    count = base.size
    nx = len(market.x_labels)
    J = np.empty((count, count))
    for b in range(count):
        hi = base.copy()
        hi[b] += fd_step
        lo = base.copy()
        lo[b] -= fd_step
        J[:, b] = (
            np.asarray(Q.eval_values(hi), dtype=float)
            - np.asarray(Q.eval_values(lo), dtype=float)
        ) / (2.0 * fd_step)
    cross = J[:nx, nx:] - J[nx:, :nx].T
    worst = float(np.max(np.abs(cross))) if cross.size else 0.0
    return NonintegrabilityReport(J, cross, worst)
