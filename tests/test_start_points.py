"""Start constructors against the scalar doubling loop, bit for bit.

The oracle below searches one coordinate at a time, through
``residual_at`` or one scalar distance, as each constructor did before they
shared one vectorized search.
"""

from __future__ import annotations

import numpy as np
import pytest

from marketclear import (
    ResponsivenessViolation,
    build_full_assignment_map,
    build_hedonic_map,
    build_transfer_map,
    full_assignment_supersolution,
    singles_subsolution,
    singles_supersolution,
    uniform_subsolution,
    uniform_supersolution,
)
from conftest import (
    random_hedonic_market,
    random_ntu_market,
    random_taxes_market,
    random_tu_market,
)


def double_until(pred, start: float, upward: bool) -> float:
    if pred(start):
        return start
    step = 1.0
    probe = start
    for _ in range(60):
        probe = probe + step if upward else probe - step
        if pred(probe):
            return probe
        step *= 2.0
    raise ResponsivenessViolation("could not construct a starting point by doubling")


def oracle_singles_super(market) -> np.ndarray:
    q = build_transfer_map(market)
    nx = len(market.x_labels)
    values = np.zeros(len(market.labels))
    values[:nx] = market.sigma * (np.log(market.n) + 1.0)
    for i in range(nx, len(values)):
        values[i] = double_until(
            lambda t: q.residual_at(i, t, values) >= 0.0, 0.0, upward=True
        )
    return values


def oracle_singles_sub(market) -> np.ndarray:
    q = build_transfer_map(market)
    nx = len(market.x_labels)
    values = np.zeros(len(market.labels))
    values[nx:] = -market.sigma * (np.log(market.m) + 1.0)
    for i in range(nx):
        values[i] = double_until(
            lambda t: q.residual_at(i, t, values) <= 0.0, 0.0, upward=False
        )
    return values


def oracle_full_super(market, y0=None, pi=0.0) -> np.ndarray:
    grid, sigma = market.frontiers, market.sigma
    nx = len(market.x_labels)
    j0 = market.y_labels.index(market.y_labels[0] if y0 is None else y0)
    q = build_full_assignment_map(market, y0=y0, pi=pi)
    values = np.zeros(len(q.labels))
    for i in range(nx):
        target = -sigma * float(np.log(market.n[i]))
        values[i] = -double_until(
            lambda u: float(grid.distance(u, pi, i, j0)) <= target,
            0.0,
            upward=False,
        )
    for i in range(nx, len(values)):
        values[i] = double_until(
            lambda t: q.residual_at(i, t, values) >= 0.0, 0.0, upward=True
        )
    return values


def oracle_uniform(market, sign: float) -> np.ndarray:
    q = build_hedonic_map(market)
    level = sign
    for _ in range(60):
        values = np.full(len(market.z_labels), level)
        excess = q.eval_values(values)
        if np.all(excess >= 0.0 if sign > 0 else excess <= 0.0):
            return values
        level *= 2.0
    raise ResponsivenessViolation("no uniform level")


def assert_same(oracle, constructor):
    """Both raise, or both return the same bytes (signed zeros included)."""
    try:
        expected = oracle()
    except ResponsivenessViolation:
        with pytest.raises(ResponsivenessViolation):
            constructor()
        return
    assert constructor().values.tobytes() == expected.tobytes()


MARKETS = {
    "tu": lambda rng, nx, ny, singles: random_tu_market(
        rng, nx, ny, float(rng.choice([0.05, 0.3, 1.0, 3.0])), singles=singles
    ),
    "taxes": random_taxes_market,
    "ntu": random_ntu_market,
}


@pytest.mark.parametrize("kind", sorted(MARKETS))
@pytest.mark.parametrize("seed", range(12))
def test_transfer_starts_equal_scalar_loop(kind, seed):
    rng = np.random.default_rng([seed, 5])
    nx, ny = (int(k) for k in rng.integers(1, 6, 2))
    market = MARKETS[kind](rng, nx, ny, True)
    assert_same(
        lambda: oracle_singles_super(market), lambda: singles_supersolution(market)
    )
    assert_same(
        lambda: oracle_singles_sub(market), lambda: singles_subsolution(market)
    )
    market = MARKETS[kind](rng, nx, ny, False)
    assert_same(
        lambda: oracle_full_super(market), lambda: full_assignment_supersolution(market)
    )
    y0 = market.y_labels[int(rng.integers(ny))]
    pi = float(rng.uniform(-3.0, 3.0))
    assert_same(
        lambda: oracle_full_super(market, y0, pi),
        lambda: full_assignment_supersolution(market, y0=y0, pi=pi),
    )


@pytest.mark.parametrize("seed", range(12))
def test_uniform_starts_equal_scalar_loop(seed):
    rng = np.random.default_rng([seed, 6])
    nx, ny, nz = (int(k) for k in rng.integers(1, 6, 3))
    market = random_hedonic_market(rng, nx, ny, nz)
    assert_same(
        lambda: oracle_uniform(market, 1.0), lambda: uniform_supersolution(market)
    )
    assert_same(
        lambda: oracle_uniform(market, -1.0), lambda: uniform_subsolution(market)
    )
