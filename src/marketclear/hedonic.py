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
    _double_until,
    _finite_matrix,
    _positive_vector,
)

__all__ = [
    "HedonicMarket",
    "supply",
    "demand",
    "build_hedonic_map",
    "uniform_subsolution",
    "uniform_supersolution",
]

@dataclass(frozen=True)
class HedonicMarket:
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
        x_labels = tuple(str(s) for s in self.x_labels)
        y_labels = tuple(str(s) for s in self.y_labels)
        z_labels = tuple(str(s) for s in self.z_labels)
        for name, labels in (("x", x_labels), ("y", y_labels), ("z", z_labels)):
            if not labels:
                raise ValueError(f"at least one {name}-type is required")
            if len(set(labels)) != len(labels):
                raise ValueError(f"{name} labels must be unique")
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        object.__setattr__(self, "z_labels", z_labels)
        object.__setattr__(self, "n", _positive_vector("n", self.n, len(x_labels)))
        object.__setattr__(self, "m", _positive_vector("m", self.m, len(y_labels)))
        shape_c = (len(x_labels), len(z_labels))
        shape_a = (len(y_labels), len(z_labels))
        object.__setattr__(self, "c", _finite_matrix("c", self.c, shape_c))
        object.__setattr__(self, "a", _finite_matrix("a", self.a, shape_a))


def _choice_mass(util: Array, masses: Array) -> Array:
    """Per-column chosen mass for row-wise logit with outside weight 1.

    Each row is shifted by ``max(0, row max)`` so the largest exponent is
    at most 0 (the outside option's exponent is exactly ``-shift``).
    """
    shift = np.maximum(util.max(axis=1), 0.0)
    weights = np.exp(util - shift[:, None])
    denom = np.exp(-shift) + weights.sum(axis=1)
    shares = weights / denom[:, None]
    return (masses[:, None] * shares).sum(axis=0)


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

    return EquilibriumMap(
        labels=market.z_labels,
        eval_values=eval_values,
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
