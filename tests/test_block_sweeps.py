"""Block sweeps against the per-coordinate loop they replace, bit for bit.

The reference is always the same map with ``blocks=None``, which makes the
engine call ``update_value`` on one coordinate at a time.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear import (
    AggregateMarket,
    EquilibriumMap,
    FrontierGrid,
    NonFiniteResidual,
    PriceVector,
    SolverOptions,
    build_full_assignment_map,
    build_matching_map,
    build_ot_map,
    build_transfer_map,
    gauss_seidel_sweep,
    jacobi_sweep,
    solve,
)
import marketclear.core as core
from marketclear.transfers import _LOG_GUARD
from conftest import labels, random_individual_market, random_tu_market

SWEEPS = (jacobi_sweep, gauss_seidel_sweep)


def loop_map(q: EquilibriumMap) -> EquilibriumMap:
    return dataclasses.replace(q, blocks=None)


def tu_map(kind: str, seed: int, nx: int, ny: int, sigma: float, y0=0, pi=0.0):
    """A map with blocks: one of the three TU builders, or the matching map
    (``kind="match"``, which ignores ``sigma``, ``y0`` and ``pi``)."""
    rng = np.random.default_rng(seed)
    if kind == "match":
        return build_matching_map(random_individual_market(rng, nx, max(ny, 1)))
    if kind == "singles":
        return build_transfer_map(random_tu_market(rng, nx, ny, sigma))
    market = random_tu_market(rng, nx, max(ny, 1), sigma, singles=False)
    if kind == "ot":
        return build_ot_map(market)
    y0 = market.y_labels[y0 % len(market.y_labels)]
    return build_full_assignment_map(market, y0=y0, pi=pi)


def random_prices(q: EquilibriumMap, seed: int, scale: float) -> PriceVector:
    rng = np.random.default_rng([seed, 1])
    return PriceVector(q.labels, rng.uniform(-scale, scale, len(q.labels)))


def assert_sweeps_match(q: EquilibriumMap, p: PriceVector, opts: SolverOptions):
    slow = loop_map(q)
    for sweep in SWEEPS:
        assert np.array_equal(sweep(q, p, opts).values, sweep(slow, p, opts).values)


@given(
    kind=st.sampled_from(["singles", "full", "ot", "match"]),
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 6),
    ny=st.integers(0, 6),
    sigma=st.sampled_from([0.01, 0.05, 0.3, 1.0, 3.0]),
    damping=st.sampled_from([1.0, 0.5, 0.9]),
    scale=st.sampled_from([1.0, 5.0]),
    y0=st.integers(0, 5),
    pi=st.floats(-2.0, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_block_sweeps_equal_coordinate_loop(
    kind, seed, nx, ny, sigma, damping, scale, y0, pi
):
    q = tu_map(kind, seed, nx, ny, sigma, y0, pi)
    assert q.blocks is not None and q.update_value is not None
    assert_sweeps_match(q, random_prices(q, seed, scale), SolverOptions(damping=damping))


@pytest.mark.parametrize("kind", ["singles", "full", "ot", "match"])
@pytest.mark.parametrize("seed, nx, ny", [(0, 1, 1), (1, 3, 4), (2, 9, 17), (3, 26, 11)])
def test_block_update_equals_one_wide_calls(kind, seed, nx, ny):
    # Sums of 9 and more terms too, where a pairwise fold would differ.
    q = tu_map(kind, seed, nx, ny, 0.3, y0=seed)
    values = random_prices(q, seed, 3.0).values
    for lo, hi in q.blocks:
        whole = np.asarray(q.update_value(lo, hi, values), dtype=float)
        ones = [np.asarray(q.update_value(i, i + 1, values)) for i in range(lo, hi)]
        assert whole.tobytes() == np.concatenate([np.zeros(0), *ones]).tobytes()


def test_log_guard_branch_on_both_sides():
    sigma = 0.01
    market = random_tu_market(np.random.default_rng(3), 4, 5, sigma)
    q = build_transfer_map(market)
    px = np.array([6.0, 0.0, -3.0, 5.5])
    py = np.array([-5.5, 0.0, 1.0, 2.0, 3.0])
    p = PriceVector(q.labels, np.concatenate([px, py]))
    phi = market.frontiers.phi
    for side in (
        np.logaddexp.reduce((phi - py) / (2.0 * sigma), axis=1),
        np.logaddexp.reduce((px[:, None] + phi) / (2.0 * sigma), axis=0),
    ):
        assert np.any(side > _LOG_GUARD) and np.any(side <= _LOG_GUARD)
    for damping in (1.0, 0.5):
        assert_sweeps_match(q, p, SolverOptions(damping=damping))


def test_empty_y_side():
    market = AggregateMarket(
        labels("x", 3), (), [0.5, 1.0, 2.0], [], FrontierGrid.tu(np.zeros((3, 0))),
        0.7,
    )
    q = build_transfer_map(market)
    assert q.blocks == ((0, 3), (3, 3))
    assert_sweeps_match(q, random_prices(q, 0, 2.0), SolverOptions())


def test_full_assignment_non_default_numeraire():
    q = tu_map("full", 11, 4, 5, 0.5, y0=3, pi=1.25)
    assert q.labels == ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y5")
    for damping in (1.0, 0.7):
        assert_sweeps_match(q, random_prices(q, 11, 3.0), SolverOptions(damping=damping))


class CountingBlocks:
    """``update_value`` wrapper that counts its calls on whole blocks."""

    def __init__(self, q: EquilibriumMap):
        self.inner = q.update_value
        self.blocks = set(q.blocks)
        self.calls = 0

    def __call__(self, lo, hi, values):
        self.calls += (lo, hi) in self.blocks
        return self.inner(lo, hi, values)


def test_interleaved_order_falls_back_to_the_loop():
    q = tu_map("singles", 5, 3, 3, 1.0)
    spy = CountingBlocks(q)
    q = dataclasses.replace(q, update_value=spy)
    p = random_prices(q, 5, 2.0)
    order = ("x1", "y1", "x2", "y2", "x3", "y3")
    opts = SolverOptions(sweep_order=order)
    swept = gauss_seidel_sweep(q, p, opts)
    assert spy.calls == 0
    assert np.array_equal(swept.values, gauss_seidel_sweep(loop_map(q), p, opts).values)


def test_whole_block_stretch_uses_the_hook_in_a_mixed_order():
    q = tu_map("singles", 5, 3, 3, 1.0)
    spy = CountingBlocks(q)
    q = dataclasses.replace(q, update_value=spy)
    p = random_prices(q, 5, 2.0)
    # y2 breaks the y block; the x block is still visited whole
    order = ("y2", "x3", "x1", "x2", "y1", "y3")
    for damping in (1.0, 0.6):
        opts = SolverOptions(sweep_order=order, damping=damping)
        swept = gauss_seidel_sweep(q, p, opts)
        assert spy.calls == 1
        spy.calls = 0
        expected = gauss_seidel_sweep(loop_map(q), p, opts).values
        assert np.array_equal(swept.values, expected)


def test_block_runs_in_any_order_use_the_hook():
    q = tu_map("full", 6, 3, 4, 1.0)
    spy = CountingBlocks(q)
    q = dataclasses.replace(q, update_value=spy)
    p = random_prices(q, 6, 2.0)
    # y block first, each block's coordinates permuted within its run
    order = ("y4", "y2", "y3", "x2", "x3", "x1")
    opts = SolverOptions(sweep_order=order, damping=0.8)
    swept = gauss_seidel_sweep(q, p, opts)
    assert spy.calls == 2
    assert np.array_equal(swept.values, gauss_seidel_sweep(loop_map(q), p, opts).values)


def inject(q: EquilibriumMap, bad: dict[int, float]) -> EquilibriumMap:
    """``q`` with the updates of the coordinates in ``bad`` replaced."""

    def update_value(lo, hi, values):
        out = np.array(q.update_value(lo, hi, values), dtype=float)
        for i, v in bad.items():
            if lo <= i < hi:
                out[i - lo] = v
        return out

    return dataclasses.replace(q, update_value=update_value)


@pytest.mark.parametrize(
    "bad, start, damping",
    [
        ({4: np.nan}, None, 1.0),
        ({4: np.nan}, None, 0.5),
        ({1: np.inf, 5: np.nan}, None, 1.0),
        # Coordinate 1's update is finite but its damped step overflows and
        # coordinate 2's update is NaN: Gauss-Seidel stops at 1, Jacobi
        # checks every update before any damped step and stops at 2.
        ({1: -1.5e308, 2: np.nan}, 1.5e308, 0.5),
        ({1: -1.5e308, 2: np.nan}, 1.5e308, 1.0),
        ({6: -1.5e308}, 1.5e308, 0.5),
    ],
)
@pytest.mark.parametrize("sweep", SWEEPS)
def test_nonfinite_update_names_the_loop_coordinate(sweep, bad, start, damping):
    q = inject(tu_map("singles", 8, 3, 4, 1.0), bad)
    values = random_prices(q, 8, 1.0).values.copy()
    if start is not None:
        values[list(bad)] = start
    p = PriceVector(q.labels, values)
    opts = SolverOptions(damping=damping)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResidual) as loop_err:
            sweep(loop_map(q), p, opts)
        with pytest.raises(NonFiniteResidual) as block_err:
            sweep(q, p, opts)
    assert str(block_err.value) == str(loop_err.value)


@pytest.mark.parametrize(
    "blocks",
    [((0, 2),), ((0, 2), (3, 4)), ((1, 4),), ((0, 3), (3, 2), (2, 4)), ((0, 5),)],
)
def test_blocks_must_split_the_coordinates(blocks):
    with pytest.raises(ValueError):
        EquilibriumMap(
            labels=labels("z", 4),
            eval_values=lambda v: v,
            update_value=lambda lo, hi, v: np.zeros(hi - lo),
            blocks=blocks,
        )


@pytest.mark.parametrize("update", [True, False])
def test_explicit_order_is_split_once_per_solve(monkeypatch, update):
    q = tu_map("singles", 12, 3, 4, 1.0)
    if not update:
        q = dataclasses.replace(q, update_value=None)
    calls = []
    split = core._visit_runs
    monkeypatch.setattr(core, "_visit_runs", lambda *a: calls.append(a) or split(*a))
    p0 = random_prices(q, 12, 2.0)
    order = tuple(reversed(q.labels))
    opts = SolverOptions(mode="gauss_seidel", sweep_order=order, residual_tol=1e-9)
    _, trace = solve(q, p0, opts)
    assert len(trace) > 3 and len(calls) == 1
    with pytest.raises(ValueError):
        gauss_seidel_sweep(q, p0, SolverOptions(sweep_order=order[1:]))
    # The map keeps the last order only: switching orders splits again, and
    # each sweep equals one on a fresh copy of the map.
    perm = np.random.default_rng(1).permutation(len(q.labels))
    shuffled = tuple(q.labels[i] for i in perm)
    for o in (shuffled, order, shuffled):
        want = gauss_seidel_sweep(dataclasses.replace(q), p0, SolverOptions(sweep_order=o))
        before = len(calls)
        got = gauss_seidel_sweep(q, p0, SolverOptions(sweep_order=o))
        assert got.values.tobytes() == want.values.tobytes()
        assert len(calls) == before + 1
