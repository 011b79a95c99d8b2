"""Shared builders for randomized market instances."""

from __future__ import annotations

import numpy as np

from marketclear import (
    AggregateMarket,
    AggregateNTMarket,
    FrontierGrid,
    HedonicMarket,
    IndividualMarket,
    TaxSchedule,
)


def labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(count))


def cyclic_market(count: int) -> IndividualMarket:
    """Rotation-symmetric preferences: every shift matching is stable."""
    alpha = [
        [float(count - ((j - i) % count)) for j in range(count)]
        for i in range(count)
    ]
    gamma = [
        [float(count - ((i - j - 1) % count)) for j in range(count)]
        for i in range(count)
    ]
    return IndividualMarket(
        labels("w", count), labels("f", count), alpha, gamma
    )


def random_tu_market(
    rng: np.random.Generator,
    nx: int = 3,
    ny: int = 4,
    sigma: float = 1.0,
    singles: bool = True,
) -> AggregateMarket:
    n = rng.uniform(0.5, 2.0, nx)
    m = rng.uniform(0.5, 2.0, ny)
    if not singles:
        m = m * (n.sum() / m.sum())
    return AggregateMarket(
        x_labels=labels("x", nx),
        y_labels=labels("y", ny),
        n=n,
        m=m,
        frontiers=FrontierGrid.tu(rng.uniform(-1.0, 1.0, (nx, ny))),
        sigma=sigma,
        singles=singles,
    )


def random_schedule(rng: np.random.Generator, brackets: int = 3) -> TaxSchedule:
    rates = np.sort(rng.uniform(0.0, 0.8, brackets))
    thresholds = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, brackets - 1))])
    return TaxSchedule(rates, thresholds)


def random_taxes_market(
    rng: np.random.Generator, nx: int = 3, ny: int = 3, singles: bool = True
) -> AggregateMarket:
    n = rng.uniform(0.5, 2.0, nx)
    m = rng.uniform(0.5, 2.0, ny)
    if not singles:
        m = m * (n.sum() / m.sum())
    return AggregateMarket(
        x_labels=labels("x", nx),
        y_labels=labels("y", ny),
        n=n,
        m=m,
        frontiers=FrontierGrid.taxes(
            rng.uniform(-0.5, 0.5, (nx, ny)),
            rng.uniform(-0.5, 0.5, (nx, ny)),
            random_schedule(rng),
        ),
        sigma=float(rng.uniform(0.5, 1.5)),
        singles=singles,
    )


def random_ntu_market(
    rng: np.random.Generator, nx: int = 3, ny: int = 3, singles: bool = True
) -> AggregateMarket:
    n = rng.uniform(0.5, 2.0, nx)
    m = rng.uniform(0.5, 2.0, ny)
    if not singles:
        m = m * (n.sum() / m.sum())
    return AggregateMarket(
        x_labels=labels("x", nx),
        y_labels=labels("y", ny),
        n=n,
        m=m,
        frontiers=FrontierGrid.ntu(
            rng.uniform(-0.5, 0.5, (nx, ny)),
            rng.uniform(-0.5, 0.5, (nx, ny)),
        ),
        sigma=1.0,
        singles=singles,
    )


def random_hedonic_market(
    rng: np.random.Generator, nx: int = 3, ny: int = 3, nz: int = 4
) -> HedonicMarket:
    return HedonicMarket(
        x_labels=labels("x", nx),
        y_labels=labels("y", ny),
        z_labels=labels("z", nz),
        n=rng.uniform(0.5, 2.0, nx),
        m=rng.uniform(0.5, 2.0, ny),
        c=rng.uniform(-1.0, 1.0, (nx, nz)),
        a=rng.uniform(-1.0, 1.0, (ny, nz)),
    )


def random_individual_market(
    rng: np.random.Generator, ni: int = 4, nj: int = 4
) -> IndividualMarket:
    """Continuous draws: ties and zeros have probability zero."""
    while True:
        alpha = rng.uniform(-1.0, 2.0, (ni, nj))
        gamma = rng.uniform(-1.0, 2.0, (ni, nj))
        rows_ok = all(
            np.unique(row).size == nj and np.all(row != 0.0) for row in alpha
        )
        cols_ok = all(
            np.unique(col).size == ni and np.all(col != 0.0) for col in gamma.T
        )
        if rows_ok and cols_ok:
            return IndividualMarket(
                i_labels=labels("w", ni),
                j_labels=labels("f", nj),
                alpha=alpha,
                gamma=gamma,
            )


def random_aggregate_nt_market(
    rng: np.random.Generator, nx: int = 3, ny: int = 3
) -> AggregateNTMarket:
    return AggregateNTMarket(
        x_labels=labels("x", nx),
        y_labels=labels("y", ny),
        n=rng.uniform(0.5, 3.0, nx),
        m=rng.uniform(0.5, 3.0, ny),
        alpha=rng.uniform(-1.0, 2.0, (nx, ny)),
        gamma=rng.uniform(-1.0, 2.0, (nx, ny)),
    )
