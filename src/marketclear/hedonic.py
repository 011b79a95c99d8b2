"""Product-market clearing with logit-smoothed entry on both sides.

Producers of each x-type pick one product variety ``z`` (or stay out) with
choice weights ``exp(p_z - c_xz)`` against an outside weight of 1; consumers
of each y-type pick a variety (or stay out) with weights ``exp(a_yz - p_z)``.
The market map is supply minus demand per variety — an excess-supply system
in which every coordinate rises in its own price and falls in the others.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)

__all__ = [
    "HedonicMarket",
    "supply",
    "demand",
    "build_hedonic_map",
    "uniform_subsolution",
    "uniform_supersolution",
]

# Cells of the largest array one batched residual evaluation builds.
_BATCH_CELLS = 1 << 18

@dataclass(frozen=True)
class HedonicMarket(_Frozen):
    """Producer masses/costs and consumer masses/tastes over varieties.

    ``c[x, z]`` is x's cost of supplying variety ``z``; ``a[y, z]`` is y's
    taste for consuming it. Prices live on the variety labels only.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    z_labels: tuple[str, ...]
    n: Array
    m: Array
    c: Array
    a: Array

    def __post_init__(self):
        x_labels = _labels("x_labels", self.x_labels)
        y_labels = _labels("y_labels", self.y_labels)
        z_labels = _labels("z_labels", self.z_labels)
        if not (x_labels and y_labels and z_labels):
            raise ValueError("every side needs at least one type")
        n = _finite_vector("n", self.n, len(x_labels), positive=True)
        m = _finite_vector("m", self.m, len(y_labels), positive=True)
        c = _finite_matrix("c", self.c, (len(x_labels), len(z_labels)))
        a = _finite_matrix("a", self.a, (len(y_labels), len(z_labels)))
        self._set(dict(x_labels=x_labels, y_labels=y_labels, z_labels=z_labels,
                       n=n, m=m, c=c, a=a))


# numpy reduces a last axis shorter than _SHORT_ROW by one fold in order;
# longer ones go through eight partial sums. Its reduction pays per row, so
# from _MANY_ROWS rows on a short axis one call per column is cheaper.
_SHORT_ROW = 8
_MANY_ROWS = 48


def _row_fold(ufunc, rows: Array) -> Array:
    """``ufunc.reduce(rows, axis=-1)``, bit for bit, for ``np.add`` or
    ``np.maximum``: many rows shorter than ``_SHORT_ROW`` are folded one
    column at a time, numpy's own order there."""
    width = rows.shape[-1]
    if width >= _SHORT_ROW or rows.size < _MANY_ROWS * width:
        return ufunc.reduce(rows, axis=-1)
    out = rows[..., 0]
    for j in range(1, width):
        out = ufunc(out, rows[..., j])
    return out


def _logit(util: Array) -> tuple[Array, Array]:
    """Row-wise logit weights and denominators with outside weight 1.

    Each row of ``util`` (last axis) is shifted by ``max(0, row max)`` so
    the largest exponent is at most 0 (the outside option's exponent is
    exactly ``-shift``); a row's shares are its weights over its denominator.
    """
    shift = np.maximum(_row_fold(np.maximum, util), 0.0)
    weights = np.exp(util - shift[..., None])
    return weights, np.exp(-shift) + _row_fold(np.add, weights)


def _choice_mass(util: Array, masses: Array) -> Array:
    """Per-column chosen mass of the ``(rows, columns)`` logit ``util``."""
    weights, denom = _logit(util)
    shares = weights / denom[..., None]
    return (masses[:, None] * shares).sum(axis=-2)


def _supply_values(market: HedonicMarket, values: Array) -> Array:
    return _choice_mass(values[None, :] - market.c, market.n)


def _demand_values(market: HedonicMarket, values: Array) -> Array:
    return _choice_mass(market.a - values[None, :], market.m)


def supply(market: HedonicMarket, p: PriceVector) -> Array:
    """Mass of each variety produced at prices ``p``."""
    if p.labels != market.z_labels:
        raise ValueError("price labels must be the variety labels")
    return _supply_values(market, p.values)


def demand(market: HedonicMarket, p: PriceVector) -> Array:
    """Mass of each variety consumed at prices ``p``."""
    if p.labels != market.z_labels:
        raise ValueError("price labels must be the variety labels")
    return _demand_values(market, p.values)


def build_hedonic_map(market: HedonicMarket) -> EquilibriumMap:
    """Excess-supply map over variety prices, ``Q_z = S_z - D_z``.

    Both sides keep outside options, so each coordinate responds strictly
    to its own price and the map clears from any one-signed start.
    """

    def eval_values(values: Array) -> Array:
        return _supply_values(market, values) - _demand_values(market, values)

    X, Z = len(market.x_labels), len(market.z_labels)
    # Supply and demand utilities as one (X+Y, Z) array P * S + B, with
    # S = 1, B = -c on the x rows and S = -1, B = a on the y rows: exact
    # rewrites of P - c and a - P.
    S = np.concatenate([np.ones(X), -np.ones(len(market.y_labels))])[:, None]
    B = np.concatenate([-market.c, market.a])
    masses = np.concatenate([market.n, market.m])
    S_col, B_rows = S[:, 0], np.ascontiguousarray(B.T)

    def fold(w: Array) -> Array:
        # The sum over types of eval_values, (X, Z).sum(axis=-2): numpy
        # folds the rows in order for Z > 1 and sums them pairwise for
        # Z = 1. accumulate folds in order at any k, where a (k, X) sum
        # would go pairwise; below _SHORT_ROW types both orders are one
        # fold.
        if Z == 1 or w.shape[-1] < _SHORT_ROW:
            return _row_fold(np.add, w)
        return np.add.accumulate(w, axis=-1)[:, -1]

    def own_excess(idx: Array, t: Array, values: Array) -> Array:
        # Row r is the utility array at the price vector with variety idx[r]
        # at t[r]: the one at values with that variety's column redone.
        # Row maxima, exp and row sums run over every variety, since each
        # denominator needs the whole row; only variety idx[r] is divided,
        # weighted and folded over the types.
        r = np.arange(len(idx))
        util = np.repeat((values * S + B)[None], len(idx), axis=0)
        util[r, :, idx] = t[:, None] * S_col + B_rows[idx]
        weights, denom = _logit(util)
        mass = masses * (weights[r, :, idx] / denom)
        return fold(mass[:, :X]) - fold(mass[:, X:])

    # Rows per batch, so that no (rows, X+Y, Z) array outgrows _BATCH_CELLS.
    step = max(1, _BATCH_CELLS // B.size)

    def residual_block(idx: Array, t: Array, values: Array) -> Array:
        if len(idx) <= step:
            return own_excess(idx, t, values)
        return np.concatenate([
            own_excess(idx[s:s + step], t[s:s + step], values)
            for s in range(0, len(idx), step)
        ])

    return EquilibriumMap(
        labels=market.z_labels,
        eval_values=eval_values,
        residual_block=residual_block,
        probe_cells=B.size,
        z_function=True,
        diagonal_isotone=True,
        m_function=True,
        m0_function=True,
    )


def _uniform_start(market: HedonicMarket, sign: float) -> PriceVector:
    """The first constant vector at ``sign * 2**k`` whose excesses are all
    nonnegative (``sign > 0``) or all nonpositive (``sign < 0``)."""
    Q = build_hedonic_map(market)
    count = len(market.z_labels)
    level = _double_until(
        lambda t: np.all(sign * Q.eval_values(np.full(count, t)) >= 0.0),
        sign,
        upward=sign > 0,
    )
    return PriceVector(market.z_labels, np.full(count, level))


def uniform_subsolution(market: HedonicMarket) -> PriceVector:
    """A constant price vector with every excess nonpositive.

    Starts at -1 and doubles the level until all varieties are in excess
    demand (low prices choke off supply but not demand).
    """
    return _uniform_start(market, -1.0)


def uniform_supersolution(market: HedonicMarket) -> PriceVector:
    """A constant price vector with every excess nonnegative (starts at +1)."""
    return _uniform_start(market, 1.0)
