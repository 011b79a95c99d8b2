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

from .core import (
    Array,
    EquilibriumMap,
    PriceVector,
    _Frozen,
    _double_until,
    _finite_matrix,
    _finite_vector,
    _labels,
    _require_nonneg,
    gauss_seidel_sweep,
)
from .errors import UnsupportedFrontier

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


# ---------------------------------------------------------------------------
# Tax schedules


@dataclass(frozen=True)
class TaxSchedule(_Frozen):
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
        rates = _finite_vector("rates", self.rates)
        thresholds = _finite_vector("thresholds", self.thresholds, rates.size)
        if not rates.size:
            raise ValueError("a schedule needs at least one bracket")
        if thresholds[0] != 0.0:
            raise ValueError("the first threshold must be 0")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(not 0.0 <= r < 1.0 for r in rates):
            raise ValueError("rates must lie in [0, 1)")
        self._set(dict(rates=tuple(rates.tolist()),
                       thresholds=tuple(thresholds.tolist())))

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

# One distance formula per family. Scalar frontiers and FrontierGrid both call
# these, so a grid cell and its frontier object agree bit for bit.


def _tu_distance(U, V, phi):
    return (U + V - phi) / 2.0


def _bracket_distance(U, V, alpha, gamma, rate, threshold):
    return _bracket_line(U - alpha, V - gamma, rate, threshold)


def _bracket_line(du, dv, rate, threshold):
    # A bracket's distance from du = U - alpha and dv = V - gamma, which
    # every bracket of a schedule shares.
    return (du + (1.0 - rate) * (dv + threshold)) / (2.0 - rate)


def _taxes_distance(U, V, alpha, gamma, schedule):
    du, dv = U - alpha, V - gamma
    out = None
    for rate, thr in zip(schedule.rates, schedule.thresholds):
        d = _bracket_line(du, dv, rate, thr)
        out = d if out is None else np.maximum(out, d)
    return out


def _ntu_distance(U, V, alpha, gamma):
    return np.maximum(U - alpha, V - gamma)


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
        return _tu_distance(U, V, self.phi)


@dataclass(frozen=True)
class TaxBracketFrontier(_FrontierBase):
    """A single tax-bracket line treated as a frontier of its own."""

    alpha: float
    gamma: float
    rate: float
    threshold: float

    def distance(self, U, V):
        return _bracket_distance(
            U, V, self.alpha, self.gamma, self.rate, self.threshold
        )


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
        return _taxes_distance(U, V, self.alpha, self.gamma, self.schedule)


@dataclass(frozen=True)
class NTUFrontier(_FrontierBase):
    """Fixed split, no transfers: feasible iff ``U <= alpha`` and ``V <= gamma``."""

    alpha: float
    gamma: float

    def distance(self, U, V):
        return _ntu_distance(U, V, self.alpha, self.gamma)


@dataclass(frozen=True)
class CombinedFrontier(_FrontierBase, _Frozen):
    """Pointwise max (intersection) or min (union) of member distances."""

    parts: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in ("intersection", "union"):
            raise ValueError("mode must be 'intersection' or 'union'")
        if not self.parts:
            raise ValueError("at least one frontier is required")
        self._set(dict(parts=tuple(self.parts)))

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


@dataclass(frozen=True)
class FrontierGrid(_Frozen):
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
            self._set(dict(phi=_finite_matrix("phi", self.phi)))
        else:
            if self.alpha is None or self.gamma is None or self.phi is not None:
                raise ValueError(f"'{self.kind}' grids take alpha and gamma")
            alpha = _finite_matrix("alpha", self.alpha)
            gamma = _finite_matrix("gamma", self.gamma, alpha.shape)
            self._set(dict(alpha=alpha, gamma=gamma))
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
        return self._distance(U, V, lambda a: a[rows, cols])

    def _distance(self, U, V, pick):
        # The cells pick(matrix) selects from each parameter matrix.
        if self.kind == "tu":
            return _tu_distance(U, V, pick(self.phi))
        a, g = pick(self.alpha), pick(self.gamma)
        if self.kind == "ntu":
            return _ntu_distance(U, V, a, g)
        return _taxes_distance(U, V, a, g, self.schedule)

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


@dataclass(frozen=True)
class AggregateMarket(_Frozen):
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
        x_labels = _labels("x_labels", self.x_labels)
        y_labels = _labels("y_labels", self.y_labels)
        if not x_labels:
            raise ValueError("at least one x-type is required")
        _labels("x_labels and y_labels together", x_labels + y_labels)
        n = _finite_vector("n", self.n, len(x_labels), positive=True)
        m = _finite_vector("m", self.m, len(y_labels), positive=True)
        if self.frontiers.shape != (len(x_labels), len(y_labels)):
            raise ValueError("frontier grid shape must match the label counts")
        sigma = float(_finite_vector("sigma", self.sigma, 1, positive=True)[0])
        if not self.singles:
            if not y_labels:
                raise ValueError("a market without singles needs y-types")
            total_n, total_m = float(n.sum()), float(m.sum())
            scale = max(1.0, abs(total_n), abs(total_m))
            if abs(total_n - total_m) > _BALANCE_RTOL * scale:
                raise ValueError("total masses must balance without singles")
        self._set(dict(x_labels=x_labels, y_labels=y_labels, n=n, m=m, sigma=sigma))

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


def _log_mass(z: Array, axis: int) -> Array:
    """``log(sum(exp(z)))`` along ``axis``; ``-inf`` along an empty axis."""
    if z.shape[axis] == 0:
        return np.full(z.shape[1 - axis], -np.inf)
    return np.logaddexp.reduce(z, axis=axis)


def _target_terms(target: Array) -> tuple[Array, Array, Array]:
    """The terms of target masses ``t`` that :func:`_share_price` reads:
    ``log t``, ``2 t`` and ``2 sqrt(t)``."""
    return np.log(target), 2.0 * target, 2.0 * np.sqrt(target)


def _share_price(
    log_s: Array, target: tuple, scale: float, singles: bool, side: int
) -> Array:
    """Closed-form prices that clear rows (``side = 1``) or columns (``-1``).

    At price ``t`` a row (column) has matched mass ``a * exp(log_s)`` with
    ``a = exp(side * t / scale)``, plus single mass ``a**2`` with singles
    (whose ``scale`` is ``2 sigma``); ``t`` brings the total to the target
    mass, given by its :func:`_target_terms`. The quadratic is solved in its
    stable form, and in logs alone once ``log_s`` exceeds ``_LOG_GUARD``.
    ``log_s`` is overwritten.
    """
    log_t, two_t, root_t = target
    if not singles:
        if side > 0:
            np.subtract(log_t, log_s, out=log_s)
        else:
            np.subtract(log_s, log_t, out=log_s)
        log_s *= scale
        return log_s
    big = log_s > _LOG_GUARD
    if np.count_nonzero(big):
        log_ratio = log_t - log_s if side > 0 else log_s - log_t
        s = np.exp(np.where(big, 0.0, log_s))
        a = two_t / (s + np.hypot(s, root_t))
        return np.where(big, scale * log_ratio, side * scale * np.log(a))
    # No entry is big, so np.where would return the quadratic's operand bit
    # for bit: the same operations, in place.
    s = np.exp(log_s, out=log_s)
    a = np.hypot(s, root_t)
    a += s
    np.divide(two_t, a, out=a)
    np.log(a, out=a)
    a *= side * scale
    return a


# ---------------------------------------------------------------------------
# Bipartite maps


class _Layout:
    """Coordinates of a bipartite map: every x-price, then the free y-prices.

    Every y-price is free unless column ``j0`` is pinned at the numeraire
    value ``pi``, which takes it out of the coordinates. Outside options come
    with the market's ``singles``, and so does strict responsiveness of the
    aggregate excess (``m_function``): without singles the aggregate is
    constant (balanced) or the inflow into the pinned column plus a constant,
    which no free y-price moves.
    """

    def __init__(
        self, market: AggregateMarket, j0: int | None = None, pi: float = 0.0
    ):
        self.singles = market.singles
        self.nx, self.ny = len(market.x_labels), len(market.y_labels)
        self.j0, self.pi = j0, float(pi)
        self.keep = _ALL if j0 is None else np.delete(np.arange(self.ny), j0)
        y_free = tuple(z for j, z in enumerate(market.y_labels) if j != j0)
        self.labels = market.x_labels + y_free

    @classmethod
    def pinned(cls, market: AggregateMarket, y0: str | None, pi: float):
        """The full-assignment layout; ``y0`` defaults to the first y-type,
        and the pinned price ``pi`` must be finite."""
        if market.singles:
            raise ValueError("full-assignment maps need a market without singles")
        y0 = market.y_labels[0] if y0 is None else str(y0)
        if y0 not in market.y_labels:
            raise ValueError(f"unknown y-type {y0!r}")
        return cls(market, market.y_labels.index(y0), _finite_vector("pi", pi, 1)[0])

    def column(self, r: Array) -> Array:
        """The y columns of free y-prices ``r``."""
        return r if self.j0 is None else r + (r >= self.j0)

    def py(self, values: Array) -> Array:
        """Every y-price of a coordinate vector, the pinned one included."""
        if self.j0 is None:
            return values[self.nx:]
        py = np.empty(self.ny)
        py[self.j0] = self.pi
        py[self.keep] = values[self.nx:]
        return py


def _whole(matrix: Array) -> Array:
    # The kernel's pick of every cell.
    return matrix


def _bipartite_map(
    market: AggregateMarket,
    layout: _Layout,
    log_kernel,
    scale: float | None = None,
) -> EquilibriumMap:
    """The excess-supply map of ``market`` over ``layout``.

    Cell masses are ``exp(log_kernel(p_x, p_y, pick))``, where
    ``pick(matrix)`` selects the cells' entries of a parameter matrix. The x
    excess is the row mass (plus the single mass ``exp(p_x / sigma)``) minus
    ``n_x``; the y excess is ``m_y`` minus the column mass (plus the single
    mass ``exp(-p_y / sigma)``). The x and the y coordinates form two
    blocks, and ``residual_block`` evaluates a batch of one-coordinate
    residuals. A ``scale`` ``s`` states that the kernel is
    ``exp((phi + p_x - p_y) / s)`` and registers closed-form updates, one
    formula on a slice of rows or columns for a block and for a coordinate.
    """
    sigma, n, m = market.sigma, market.n, market.m
    singles, nx, ny, keep = layout.singles, layout.nx, layout.ny, layout.keep
    m_y = m[keep]

    # The x excess of kernel row masses and the y excess of column masses
    # (fresh arrays, added to in place), with target masses ``target`` and
    # prices ``t``; ``out`` as in numpy. t / -sigma is -t / sigma, bit for
    # bit.
    def x_excess(mass: Array, target: Array, t: Array, out=None) -> Array:
        if singles:
            mass += np.exp(t / sigma)
        return np.subtract(mass, target, out=out)

    def y_excess(mass: Array, target: Array, t: Array, out=None) -> Array:
        if singles:
            mass += np.exp(t / -sigma)
        return np.subtract(target, mass, out=out)

    # The kernel at the cells pick(matrix) selects, exponentiated in place:
    # log_kernel returns a fresh array.
    def kernel(px, py, pick) -> Array:
        K = log_kernel(px, py, pick)
        return np.exp(K, out=K)

    def eval_values(values: Array) -> Array:
        K = kernel(values[:nx, None], layout.py(values)[None, :], _whole)
        out = np.empty(values.size)
        x_excess(K.sum(axis=1), n, values[:nx], out[:nx])
        # values[nx:] are the free y-prices; a map with singles pins none.
        y_excess(_colsums(K)[keep], m_y, values[nx:], out[nx:])
        return out

    # One kernel row per x probe and one column per y probe; each is summed
    # along a contiguous axis, so every entry equals the row or column sum
    # of eval_values bit for bit. Flat indices of row 0's cells and of
    # column 0's cells:
    row_cells, col_cells = np.arange(ny), np.arange(nx) * ny

    def mixed_excess(rows: Array, cols: Array, tx: Array, ty: Array, values: Array):
        # One flat kernel pass over the cells of every probe: those of the
        # x probes laid out (kx, ny), then those of the y probes (ky, nx).
        # Each probe's cells are contiguous and sum as in the one-sided case.
        split = len(rows) * ny

        def stacked(x_part, y_part, dtype=float) -> Array:
            out = np.empty(split + len(cols) * nx, dtype)
            out[:split].reshape(len(rows), ny)[...] = x_part
            out[split:].reshape(len(cols), nx)[...] = y_part
            return out

        cells = stacked(
            rows[:, None] * ny + row_cells, col_cells + cols[:, None], np.intp
        )
        K = kernel(
            stacked(tx[:, None], values[:nx]),
            stacked(layout.py(values), ty[:, None]),
            lambda a: a.ravel()[cells],
        )
        return (
            x_excess(K[:split].reshape(len(rows), ny).sum(axis=1), n[rows], tx),
            y_excess(K[split:].reshape(len(cols), nx).sum(axis=1), m[cols], ty),
        )

    def residual_block(idx: Array, t: Array, values: Array) -> Array:
        on_x = idx < nx
        if on_x.all():
            K = kernel(t[:, None], layout.py(values), lambda a: a[idx])
            return x_excess(K.sum(axis=1), n[idx], t)
        if not on_x.any():
            cols = layout.column(idx - nx)
            K = kernel(values[:nx, None], t, lambda a: a[:, cols])
            return y_excess(_colsums(K), m[cols], t)
        out = np.empty(len(idx))
        out[on_x], out[~on_x] = mixed_excess(
            idx[on_x], layout.column(idx[~on_x] - nx), t[on_x], t[~on_x], values
        )
        return out

    update = None
    if scale is not None:
        phi = market.frontiers.phi
        # C-ordered copies, so that both blocks reduce along axis 0 (a fold
        # in the same order as along axis 1, and faster): phi[:, keep] alone
        # is F-ordered.
        phi_x = np.ascontiguousarray(phi.T)
        phi_y = np.ascontiguousarray(phi[:, keep])
        x_terms, y_terms = _target_terms(n), _target_terms(m_y)

        def update(lo: int, hi: int, values: Array) -> Array:
            if lo < nx:
                rows = slice(lo, hi)
                z = np.subtract(phi_x[:, rows], layout.py(values)[:, None])
                z /= scale
                terms = [a[rows] for a in x_terms]
                return _share_price(_log_mass(z, 0), terms, scale, singles, 1)
            cols = slice(lo - nx, hi - nx)
            z = np.add(values[:nx, None], phi_y[:, cols])
            z /= scale
            terms = [a[cols] for a in y_terms]
            return _share_price(_log_mass(z, 0), terms, scale, singles, -1)

    return EquilibriumMap(
        labels=layout.labels,
        eval_values=eval_values,
        update_value=update,
        residual_block=residual_block,
        probe_cells=max(nx, ny),
        z_function=True,
        diagonal_isotone=True,
        m_function=singles,
        m0_function=True,
        blocks=((0, nx), (nx, len(layout.labels))),
    )


def _distance_map(market: AggregateMarket, layout: _Layout) -> EquilibriumMap:
    """The frontier kernel ``exp(-D(-p_x, p_y) / sigma)`` over ``layout``.

    Under perfect transfers ``-D / sigma = (phi + p_x - p_y) / (2 sigma)``,
    so those maps get closed-form updates at scale ``2 sigma``.
    """
    grid, sigma = market.frontiers, market.sigma

    def log_kernel(px, py, pick):
        # Division by -sigma is negation then division, bit for bit.
        return grid._distance(-px, py, pick) / -sigma

    scale = 2.0 * sigma if grid.kind == "tu" else None
    return _bipartite_map(market, layout, log_kernel, scale)


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
    return _distance_map(market, _Layout(market))


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
    phi, sigma = market.frontiers.phi, market.sigma

    def log_kernel(px, py, pick):
        return (pick(phi) + px - py) / sigma

    return _bipartite_map(market, _Layout(market), log_kernel, sigma)


def build_full_assignment_map(
    market: AggregateMarket, y0: str | None = None, pi: float = 0.0
) -> EquilibriumMap:
    """Everyone-matches map with one y-price pinned at ``pi``.

    Coordinates are all x-types plus all y-types except ``y0`` (default:
    the first). Match masses follow ``exp(-D(-p_x, p_y) / sigma)`` with no
    outside-option terms; pinning ``p_{y0}`` removes the translation
    freedom of the balanced system. The aggregate excess is the inflow into
    column ``y0`` plus a constant, which no free y-price moves, so the map
    is declared weakly responsive (``m0_function``) only. For perfect
    transfers closed-form log-domain coordinate updates are registered.
    """
    return _distance_map(market, _Layout.pinned(market, y0, pi))


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
    layout = _Layout.pinned(market, y0, pi)
    if p.labels != layout.labels:
        raise ValueError("price labels match neither the full nor the reduced layout")
    values = np.concatenate([p.values[:layout.nx], layout.py(p.values)])
    return PriceVector(market.labels, values)


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
    px = market.sigma * (np.log(market.n) + 1.0)
    py = _double_until(
        lambda t: Q.eval_values(np.concatenate([px, t]))[px.size:] >= 0.0,
        np.zeros(len(market.y_labels)),
        upward=True,
    )
    return PriceVector(market.labels, np.concatenate([px, py]))


def singles_subsolution(market: AggregateMarket) -> PriceVector:
    """A price vector with every excess nonpositive (singles markets)."""
    if not market.singles:
        raise ValueError("this constructor needs a singles market")
    Q = build_transfer_map(market)
    nx = len(market.x_labels)
    py = -market.sigma * (np.log(market.m) + 1.0)
    px = _double_until(
        lambda t: Q.eval_values(np.concatenate([t, py]))[:nx] <= 0.0,
        np.zeros(nx),
        upward=False,
    )
    return PriceVector(market.labels, np.concatenate([px, py]))


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
    layout = _Layout.pinned(market, y0, pi)
    grid, nx = market.frontiers, layout.nx
    target = -market.sigma * np.log(market.n)
    px = -_double_until(
        lambda u: grid.distance(u, layout.pi, _ALL, layout.j0) <= target,
        np.zeros(nx),
        upward=False,
    )
    Q = _distance_map(market, layout)
    py = _double_until(
        lambda t: Q.eval_values(np.concatenate([px, t]))[nx:] >= 0.0,
        np.zeros(layout.ny - 1),
        upward=True,
    )
    return PriceVector(layout.labels, np.concatenate([px, py]))


# ---------------------------------------------------------------------------
# Recovery


@dataclass(frozen=True)
class AggregateEquilibrium(_Frozen):
    """Match masses and payoffs implied by a clearing price vector; its
    arrays are stored as given and made read-only."""

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
    the masses by more than ``tol`` (relative; it must be finite and
    ``>= 0``). In the full-assignment family the excess of the pinned
    column ``y0`` is minus the sum of the other excesses (up to the mass
    imbalance), so its tolerance also allows for that sum.
    """
    if model is None:
        model = "transfer"
    if model not in ("transfer", "ot"):
        raise ValueError("model must be 'transfer' or 'ot'")
    _require_nonneg("tol", tol)
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
        D = (-px[:, None] + py[None, :] - grid.phi) / 2.0
        u = -px
        v = py.copy()
    else:
        D = grid.distance_matrix(-px[:, None], py[None, :])
        u = -px + sigma * np.log(n)
        v = py + sigma * np.log(m)
    # A log kernel that overflows to -inf gives the mass 0 it stands for; one
    # that overflows to +inf gives an infinite mass, which the clearing check
    # below refuses.
    with np.errstate(over="ignore"):
        if model == "ot":
            mu = np.exp((grid.phi + px[:, None] - py[None, :]) / sigma)
        else:
            mu = np.exp(-D / sigma)
        if market.singles:
            mu_x0 = np.exp(px / sigma)
            mu_0y = np.exp(-py / sigma)
        else:
            mu_x0 = np.zeros(nx)
            mu_0y = np.zeros(len(market.y_labels))

    rx = mu.sum(axis=1) + mu_x0 - n
    ry = mu.sum(axis=0) + mu_0y - m
    slack_y = tol * (1.0 + np.abs(m))
    if model == "transfer" and not market.singles:
        j0 = _Layout.pinned(market, y0, pi).j0
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
    verified as a cross-check, within ``tol`` (relative, finite and
    ``>= 0``); prices whose payoffs miss it, as when a huge ``sigma``
    rounds them away, raise ``ValueError``. Fixed-split frontiers admit no
    wage decomposition and raise :class:`UnsupportedFrontier`.
    """
    _require_nonneg("tol", tol)
    if market.frontiers.kind == "ntu":
        raise UnsupportedFrontier("fixed-split frontiers have no wage decomposition")
    eq = recover_equilibrium(market, p, model=model, y0=y0, pi=pi)
    return _cell_wages(market, eq, tol)


def _cell_wages(
    market: AggregateMarket, eq: AggregateEquilibrium, tol: float = 1e-8
) -> Array:
    """The wages of :func:`recover_wages` from an equilibrium already
    recovered; the market's frontiers are perfect transfers or taxes."""
    grid = market.frontiers
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
        raise ValueError("wage decomposition is inconsistent within tolerance")
    return w


# ---------------------------------------------------------------------------
# Rent-controlled housing (fixed splits, unit scale)


def _require_housing(market: AggregateMarket) -> None:
    _require_kind(market, "ntu")
    if market.sigma != 1.0:
        raise ValueError("the housing map requires sigma = 1")


def build_housing_map(market: AggregateMarket) -> EquilibriumMap:
    """Singles map of a housing market, after checking that it is one.

    Cell masses ``min(exp(p_x + alpha), exp(gamma - p_y))`` — whichever
    side's cap binds — are the fixed-split kernel at ``sigma = 1``, so this
    is :func:`build_transfer_map` on a market checked to have fixed splits,
    unit scale and singles.
    """
    if not market.singles:
        raise ValueError("the housing map needs a singles market")
    _require_housing(market)
    return build_transfer_map(market)


def build_housing_full_assignment_map(
    market: AggregateMarket, y0: str | None = None, pi: float = 0.0
) -> EquilibriumMap:
    """Everyone-housed variant: :func:`build_full_assignment_map` on a
    market checked to have fixed splits and unit scale (experimental).

    Because each cell mass saturates at ``exp(gamma - p_y)``, coordinates
    can lose responsiveness on price plateaus; updates may then raise
    :class:`ResponsivenessViolation`. Like every pinned map it is declared
    weakly responsive (``m0_function``) only.
    """
    _require_housing(market)
    return build_full_assignment_map(market, y0, pi)


# ---------------------------------------------------------------------------
# Jacobian asymmetry probe


@dataclass(frozen=True)
class NonintegrabilityReport(_Frozen):
    """Finite-difference price Jacobian and its cross-block asymmetry; its
    arrays are stored as given and made read-only."""

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
    generates the map. ``fd_step`` must be finite and ``> 0``.
    """
    _require_nonneg("fd_step", fd_step, positive=True)
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
