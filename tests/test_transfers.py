"""Transfer-market tests: frontiers, maps, starts, recovery, diagnostics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from marketclear import (
    AggregateMarket,
    CombinedFrontier,
    FrontierGrid,
    MaxSweepsExceeded,
    NTUFrontier,
    PriceVector,
    ResponsivenessViolation,
    SolverOptions,
    TaxSchedule,
    TaxesFrontier,
    TUFrontier,
    UnsupportedFrontier,
    build_full_assignment_map,
    build_housing_full_assignment_map,
    build_housing_map,
    build_ot_map,
    build_transfer_map,
    check_inverse_isotone,
    check_nonintegrability,
    combine_distances,
    coordinate_update,
    full_assignment_prices,
    full_assignment_supersolution,
    gauss_seidel_sweep,
    invert_net_wage,
    is_subsolution,
    is_supersolution,
    net_wage,
    recover_equilibrium,
    recover_wages,
    singles_subsolution,
    singles_supersolution,
    sinkhorn_update,
    solve,
)
from conftest import (
    random_ntu_market,
    random_schedule,
    random_taxes_market,
    random_tu_market,
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0)


class TestTaxSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaxSchedule([0.1], [1.0])  # first threshold must be 0
        with pytest.raises(ValueError):
            TaxSchedule([0.1, 0.2], [0.0, 0.0])  # strictly increasing
        with pytest.raises(ValueError):
            TaxSchedule([1.0], [0.0])  # rate < 1

    def test_net_wage_piecewise_oracle(self):
        rng = np.random.default_rng(42)
        sched = random_schedule(rng)
        w = rng.uniform(-5.0, 5.0, 200)
        rates = np.array(sched.rates)
        cuts = np.array(sched.thresholds)
        direct = np.min(
            (1.0 - rates[None, :]) * (w[:, None] - cuts[None, :]), axis=1
        )
        assert np.array_equal(net_wage(sched, w), direct)

    def test_no_tax_is_identity(self):
        sched = TaxSchedule.no_tax()
        w = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(net_wage(sched, w), w)

    @given(finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_invert_round_trip(self, w):
        sched = TaxSchedule([0.0, 0.2, 0.5], [0.0, 1.0, 2.5])
        assert invert_net_wage(sched, net_wage(sched, w)) == pytest.approx(
            w, rel=1e-12, abs=1e-12
        )

    def test_net_wage_strictly_increasing(self):
        rng = np.random.default_rng(42)
        sched = random_schedule(rng)
        w = np.sort(rng.uniform(-5.0, 5.0, 100))
        out = net_wage(sched, w)
        assert np.all(np.diff(out) > 0)


class TestFrontierDistances:
    def test_tu_formula(self):
        front = TUFrontier(phi=1.0)
        assert front.distance(2.0, 3.0) == (2.0 + 3.0 - 1.0) / 2.0

    def test_ntu_formula(self):
        front = NTUFrontier(alpha=0.5, gamma=-0.25)
        assert front.distance(2.0, 3.0) == max(2.0 - 0.5, 3.0 + 0.25)

    def test_taxes_is_max_over_brackets(self):
        rng = np.random.default_rng(42)
        sched = random_schedule(rng)
        front = TaxesFrontier(alpha=0.2, gamma=-0.1, schedule=sched)
        U = rng.uniform(-3.0, 3.0, 50)
        V = rng.uniform(-3.0, 3.0, 50)
        stacked = front.bracket_distances(U, V)
        assert stacked.shape == (len(sched.rates), 50)
        assert np.array_equal(front.distance(U, V), np.max(stacked, axis=0))

    def test_taxes_with_no_tax_matches_tu(self):
        front = TaxesFrontier(
            alpha=0.3, gamma=0.4, schedule=TaxSchedule.no_tax()
        )
        tu = TUFrontier(phi=0.3 + 0.4)
        U = np.linspace(-2.0, 2.0, 9)
        V = np.linspace(-1.0, 3.0, 9)
        assert_allclose(front.distance(U, V), tu.distance(U, V), atol=1e-15)

    @given(finite_floats, finite_floats, finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_translation_covariance(self, U, V, t):
        fronts = [
            TUFrontier(phi=0.7),
            NTUFrontier(alpha=0.2, gamma=-0.3),
            TaxesFrontier(
                alpha=0.1, gamma=0.2,
                schedule=TaxSchedule([0.0, 0.3], [0.0, 1.0]),
            ),
        ]
        for front in fronts:
            base = front.distance(U, V)
            shifted = front.distance(U + t, V + t)
            assert shifted == pytest.approx(base + t, rel=1e-12, abs=1e-9)

    def test_sign_matches_membership_exactly(self):
        rng = np.random.default_rng(42)
        U = rng.uniform(-2.0, 2.0, 2000)
        V = rng.uniform(-2.0, 2.0, 2000)
        phi = rng.uniform(-2.0, 2.0, 2000)
        alpha = rng.uniform(-1.0, 1.0, 2000)
        gamma = rng.uniform(-1.0, 1.0, 2000)

        tu = TUFrontier(phi=phi)
        assert np.array_equal(tu.distance(U, V) <= 0.0, U + V <= phi)

        ntu = NTUFrontier(alpha=alpha, gamma=gamma)
        assert np.array_equal(
            ntu.distance(U, V) <= 0.0, (U <= alpha) & (V <= gamma)
        )

        sched = TaxSchedule([0.0, 0.25, 0.6], [0.0, 0.8, 1.7])
        taxes = TaxesFrontier(alpha=alpha, gamma=gamma, schedule=sched)
        member = (U - alpha) <= net_wage(sched, gamma - V)
        assert np.array_equal(taxes.distance(U, V) <= 0.0, member)

    def test_feasible_uses_distance_sign(self):
        front = TUFrontier(phi=1.0)
        assert front.feasible(0.5, 0.5)
        assert not front.feasible(0.6, 0.5)
        assert front.feasible(0.6, 0.5, tol=0.2)


class TestCombinators:
    def test_intersection_is_max_union_is_min(self):
        a = TUFrontier(phi=0.0)
        b = NTUFrontier(alpha=0.3, gamma=0.1)
        U = np.linspace(-1.0, 1.0, 11)
        V = np.linspace(-1.0, 1.0, 11)
        da, db = a.distance(U, V), b.distance(U, V)
        inter = combine_distances([a, b], mode="intersection")
        union = combine_distances([a, b], mode="union")
        assert np.array_equal(inter.distance(U, V), np.maximum(da, db))
        assert np.array_equal(union.distance(U, V), np.minimum(da, db))

    def test_taxes_equals_intersection_of_brackets(self):
        sched = TaxSchedule([0.0, 0.2, 0.45], [0.0, 0.9, 2.0])
        front = TaxesFrontier(alpha=0.15, gamma=-0.2, schedule=sched)
        combined = combine_distances(front.brackets(), mode="intersection")
        rng = np.random.default_rng(42)
        U = rng.uniform(-3.0, 3.0, 500)
        V = rng.uniform(-3.0, 3.0, 500)
        assert_allclose(
            combined.distance(U, V), front.distance(U, V), rtol=1e-12
        )

    def test_translation_covariance_survives_combination(self):
        parts = [TUFrontier(phi=0.4), NTUFrontier(alpha=0.1, gamma=0.2)]
        front = CombinedFrontier(tuple(parts), mode="union")
        assert front.distance(1.0 + 0.7, -0.5 + 0.7) == pytest.approx(
            front.distance(1.0, -0.5) + 0.7, rel=1e-12
        )

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            combine_distances([TUFrontier(phi=0.0)], mode="average")
        with pytest.raises(ValueError):
            combine_distances([], mode="union")


class TestFrontierGrid:
    def test_cell_matches_matrix(self):
        rng = np.random.default_rng(42)
        grid = FrontierGrid.taxes(
            rng.uniform(-1, 1, (3, 4)),
            rng.uniform(-1, 1, (3, 4)),
            random_schedule(rng),
        )
        U = rng.uniform(-2, 2, (3, 4))
        V = rng.uniform(-2, 2, (3, 4))
        full = grid.distance_matrix(U, V)
        for i in range(3):
            for j in range(4):
                assert full[i, j] == grid.cell(i, j).distance(U[i, j], V[i, j])

    def test_row_and_column_slices_share_values(self):
        rng = np.random.default_rng(42)
        grid = FrontierGrid.tu(rng.uniform(-1, 1, (3, 4)))
        U = rng.uniform(-2, 2, (3, 4))
        V = rng.uniform(-2, 2, (3, 4))
        full = grid.distance_matrix(U, V)
        assert np.array_equal(grid.distance(U[1], V[1], rows=1), full[1])
        assert np.array_equal(
            grid.distance(U[:, 2], V[:, 2], cols=2), full[:, 2]
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FrontierGrid.ntu(np.zeros((2, 2)), np.zeros((3, 2)))


class TestAggregateMarketValidation:
    def test_positive_masses_required(self):
        with pytest.raises(ValueError):
            AggregateMarket(
                ("x1",), ("y1",), [0.0], [1.0],
                FrontierGrid.tu([[0.0]]), 1.0, singles=True,
            )

    def test_balance_required_without_singles(self):
        with pytest.raises(ValueError):
            AggregateMarket(
                ("x1",), ("y1",), [1.0], [2.0],
                FrontierGrid.tu([[0.0]]), 1.0, singles=False,
            )

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            AggregateMarket(
                ("x1",), ("y1",), [1.0], [1.0],
                FrontierGrid.tu([[0.0]]), 0.0, singles=True,
            )

    def test_frontier_shape_must_match(self):
        with pytest.raises(ValueError):
            AggregateMarket(
                ("x1", "x2"), ("y1",), [1.0, 1.0], [1.0],
                FrontierGrid.tu([[0.0]]), 1.0, singles=True,
            )


class TestTransferMap:
    def test_eval_and_residual_agree_bitwise(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            market = {
                0: random_tu_market,
                1: random_taxes_market,
                2: random_ntu_market,
            }[trial % 3](rng)
            q = build_transfer_map(market)
            values = rng.uniform(-3.0, 3.0, len(q.labels))
            p = PriceVector(q.labels, values)
            z = q.evaluate(p)
            for i in range(len(q.labels)):
                assert q.residual_at(i, values[i], values) == z.values[i]

    def test_desk_case_closed_form_and_oracle(self):
        market = AggregateMarket(
            ("x1",), ("y1",), [1.0], [1.0],
            FrontierGrid.tu([[0.0]]), 1.0, singles=True,
        )
        q = build_transfer_map(market)

        def excess_x(px, py):
            return np.exp((px - py) / 2.0) + np.exp(px) - 1.0

        def outer(py):
            px = brentq(lambda t: excess_x(t, py), -60.0, 60.0, xtol=1e-14)
            return -np.exp((px - py) / 2.0) - np.exp(-py) + 1.0

        py_star = brentq(outer, -60.0, 60.0, xtol=1e-14)
        px_star = brentq(
            lambda t: excess_x(t, py_star), -60.0, 60.0, xtol=1e-14
        )
        p, _ = solve(
            q, singles_supersolution(market),
            SolverOptions(residual_tol=1e-13),
        )
        assert_allclose(p.values, [px_star, py_star], atol=1e-8)
        assert_allclose(p.values, [-np.log(2.0), np.log(2.0)], atol=1e-8)
        eq = recover_equilibrium(market, p)
        assert eq.mu[0, 0] + eq.mu_x0[0] == pytest.approx(1.0, abs=1e-9)

    def test_closed_update_matches_bisection(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=2, ny=3)
        fast = build_transfer_map(market)
        slow = dataclasses.replace(fast, update_value=None)
        for _ in range(25):
            p = PriceVector(fast.labels, rng.uniform(-3.0, 3.0, len(fast.labels)))
            for lbl in fast.labels:
                assert coordinate_update(slow, lbl, p) == pytest.approx(
                    coordinate_update(fast, lbl, p), abs=1e-8
                )

    def test_start_constructors_bracket_the_solution(self):
        rng = np.random.default_rng(42)
        for maker in (random_tu_market, random_taxes_market, random_ntu_market):
            market = maker(rng)
            q = build_transfer_map(market)
            assert is_supersolution(q, singles_supersolution(market))
            assert is_subsolution(q, singles_subsolution(market))

    def test_unique_solution_from_both_sides(self):
        rng = np.random.default_rng(42)
        market = random_taxes_market(rng)
        q = build_transfer_map(market)
        opts = SolverOptions(residual_tol=1e-11)
        from_above, _ = solve(q, singles_supersolution(market), opts)
        from_below, _ = solve(q, singles_subsolution(market), opts)
        assert_allclose(from_above.values, from_below.values, atol=1e-7)

    def test_monotone_traces_from_one_signed_starts(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng)
        q = build_transfer_map(market)
        _, trace_down = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-10)
        )
        path = np.array([r.prices.values for r in trace_down.records])
        assert np.all(np.diff(path, axis=0) <= 1e-12)

    def test_inverse_isotone_in_samples(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=2, ny=2)
        q = build_transfer_map(market)
        report = check_inverse_isotone(q, 400, rng_seed=42)
        assert report.comparable > 0
        assert report.violations == ()

    def test_requires_singles(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, singles=False)
        with pytest.raises(ValueError):
            build_transfer_map(market)


class TestSinkhorn:
    def test_singles_update_equals_sequential_sweep(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng)
        q = build_transfer_map(market)
        p = PriceVector(q.labels, rng.uniform(-2.0, 2.0, len(q.labels)))
        swept = gauss_seidel_sweep(q, p, SolverOptions())
        stepped = sinkhorn_update(market, p)
        assert np.array_equal(stepped.values, swept.values)

    def test_balanced_update_equals_sequential_sweep(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=4, ny=3, singles=False)
        q = build_ot_map(market)
        p = PriceVector(q.labels, rng.uniform(-2.0, 2.0, len(q.labels)))
        swept = gauss_seidel_sweep(q, p, SolverOptions())
        stepped = sinkhorn_update(market, p)
        assert np.array_equal(stepped.values, swept.values)

    def test_fixed_point_is_solution(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng)
        q = build_transfer_map(market)
        p, _ = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-13)
        )
        again = sinkhorn_update(market, p)
        assert_allclose(again.values, p.values, atol=1e-10)

    def test_balanced_update_matches_row_marginals(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=3, ny=3, singles=False)
        p = PriceVector(market.labels, rng.uniform(-1.0, 1.0, 6))
        stepped = sinkhorn_update(market, p)
        nx = len(market.x_labels)
        px = stepped.values[:nx]
        py = p.values[nx:]
        phi = market.frontiers.phi
        kernel = np.exp(
            (phi + px[:, None] - py[None, :]) / market.sigma
        )
        assert_allclose(kernel.sum(axis=1), market.n, rtol=1e-12)

    def test_tu_only(self):
        rng = np.random.default_rng(42)
        market = random_taxes_market(rng)
        p = PriceVector(market.labels, np.zeros(len(market.labels)))
        with pytest.raises(ValueError):
            sinkhorn_update(market, p)


class TestBalancedTransportMap:
    def test_aggregate_excess_is_identically_zero(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=3, ny=4, singles=False)
        q = build_ot_map(market)
        for _ in range(10):
            p = PriceVector(q.labels, rng.uniform(-2.0, 2.0, len(q.labels)))
            total = float(q.evaluate(p).values.sum())
            assert total == pytest.approx(0.0, abs=1e-12)

    def test_gauss_seidel_converges_jacobi_cycles(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=3, ny=3, singles=False)
        q = build_ot_map(market)
        zeros = PriceVector(q.labels, np.zeros(len(q.labels)))
        p, _ = solve(
            q, zeros, SolverOptions(residual_tol=1e-11, mode="gauss_seidel")
        )
        assert float(np.max(np.abs(q.evaluate(p).values))) <= 1e-11
        with pytest.raises(MaxSweepsExceeded):
            solve(q, zeros, SolverOptions(max_sweeps=60))

    def test_matches_full_assignment_map_at_doubled_temperature(self):
        rng = np.random.default_rng(42)
        market_1 = random_tu_market(rng, nx=3, ny=3, singles=False)
        market_2 = dataclasses.replace(market_1, sigma=2.0 * market_1.sigma)
        full = build_full_assignment_map(market_1, y0="y1", pi=0.25)
        transport = build_ot_map(market_2)
        reduced = PriceVector(
            full.labels, rng.uniform(-1.0, 1.0, len(full.labels))
        )
        expanded = full_assignment_prices(market_1, reduced, y0="y1", pi=0.25)
        z_full = full.evaluate(reduced)
        z_ot = transport.evaluate(
            PriceVector(transport.labels, expanded.values)
        )
        for lbl in full.labels:
            assert z_ot[lbl] == pytest.approx(z_full[lbl], rel=1e-12, abs=1e-12)

    def test_recover_marginals(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=3, ny=3, singles=False)
        q = build_ot_map(market)
        zeros = PriceVector(q.labels, np.zeros(len(q.labels)))
        p, _ = solve(
            q, zeros, SolverOptions(residual_tol=1e-12, mode="gauss_seidel")
        )
        eq = recover_equilibrium(market, p, model="ot")
        assert_allclose(eq.mu.sum(axis=1), market.n, rtol=1e-9)
        assert_allclose(eq.mu.sum(axis=0), market.m, rtol=1e-9)
        assert np.all(eq.mu_x0 == 0.0) and np.all(eq.mu_0y == 0.0)


class TestFullAssignment:
    def test_supersolution_construction(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=3, ny=3, singles=False)
        q = build_full_assignment_map(market)
        start = full_assignment_supersolution(market)
        assert is_supersolution(q, start)

    def test_solve_and_recover(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=3, ny=3, singles=False)
        q = build_full_assignment_map(market)
        p, _ = solve(
            q,
            full_assignment_supersolution(market),
            SolverOptions(residual_tol=1e-11),
        )
        eq = recover_equilibrium(market, p, model="transfer")
        assert_allclose(eq.mu.sum(axis=1), market.n, rtol=1e-8)
        assert np.all(eq.mu_x0 == 0.0)

    def test_prices_round_trip_pins_numeraire(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=2, ny=3, singles=False)
        q = build_full_assignment_map(market, y0="y2", pi=0.75)
        reduced = PriceVector(q.labels, rng.uniform(-1.0, 1.0, len(q.labels)))
        expanded = full_assignment_prices(market, reduced, y0="y2", pi=0.75)
        assert expanded.labels == market.labels
        assert expanded["y2"] == 0.75
        for lbl in q.labels:
            assert expanded[lbl] == reduced[lbl]

    def test_numeraire_comparative_statics(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=2, ny=2, singles=False)
        solved = []
        for pi in (0.0, 1.0):
            q = build_full_assignment_map(market, pi=pi)
            p, _ = solve(
                q,
                full_assignment_supersolution(market, pi=pi),
                SolverOptions(residual_tol=1e-12),
            )
            solved.append(p.values)
        assert np.all(solved[1] >= solved[0] - 1e-9)

    def test_requires_balanced_not_singles(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, singles=True)
        with pytest.raises(ValueError):
            build_full_assignment_map(market)


class TestRecovery:
    def test_singles_identities(self):
        rng = np.random.default_rng(42)
        market = random_taxes_market(rng)
        q = build_transfer_map(market)
        p, _ = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-12)
        )
        eq = recover_equilibrium(market, p)
        nx = len(market.x_labels)
        px, py = p.values[:nx], p.values[nx:]
        sig = market.sigma
        assert_allclose(eq.mu_x0, np.exp(px / sig), rtol=1e-12)
        assert_allclose(eq.mu_0y, np.exp(-py / sig), rtol=1e-12)
        assert_allclose(eq.u, -px + sig * np.log(market.n), rtol=1e-12)
        assert_allclose(eq.v, py + sig * np.log(market.m), rtol=1e-12)
        assert_allclose(
            eq.mu.sum(axis=1) + eq.mu_x0, market.n, rtol=1e-9
        )
        assert_allclose(
            eq.mu.sum(axis=0) + eq.mu_0y, market.m, rtol=1e-9
        )
        dist = market.frontiers.distance_matrix(eq.U, eq.V)
        assert float(np.max(np.abs(dist))) <= 1e-9

    def test_payoff_matrices_translation_consistent(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng)
        q = build_transfer_map(market)
        p, _ = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-12)
        )
        eq = recover_equilibrium(market, p)
        nx = len(market.x_labels)
        dist = market.frontiers.distance_matrix(
            np.broadcast_to(-p.values[:nx, None], eq.mu.shape),
            np.broadcast_to(p.values[nx:][None, :], eq.mu.shape),
        )
        assert_allclose(eq.U, -p.values[:nx, None] - dist, rtol=1e-12)
        assert_allclose(eq.V, p.values[nx:][None, :] - dist, rtol=1e-12)

    def test_validation_rejects_unsolved_points(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng)
        bad = PriceVector(market.labels, np.full(len(market.labels), 2.0))
        with pytest.raises(ValueError):
            recover_equilibrium(market, bad)

    @pytest.mark.parametrize("model", ["transfer", "ot"])
    def test_infinite_mass_fails_the_clearing_check(self, model):
        # Row 0's kernel overflows to +inf, with no numpy warning.
        market = random_tu_market(
            np.random.default_rng(42), sigma=1e-3, singles=False
        )
        values = np.zeros(len(market.labels))
        values[0] = 10.0
        with pytest.raises(ValueError, match="do not clear"):
            recover_equilibrium(market, PriceVector(market.labels, values), model=model)

    def test_full_assignment_small_numeraire_mass(self):
        # The pinned column's excess is minus the sum of the 59 others, about
        # 1.8e-9 here, above 1e-9 * (1 + m_y0) for this draw's m_y0 = 0.719.
        market = random_tu_market(
            np.random.default_rng(2), nx=30, ny=30, singles=False
        )
        assert market.m[0] < 0.85
        q = build_full_assignment_map(market)
        p, _ = solve(
            q,
            full_assignment_supersolution(market),
            SolverOptions(residual_tol=1e-10, mode="gauss_seidel"),
        )
        eq = recover_equilibrium(market, p)
        assert_allclose(eq.mu.sum(axis=0), market.m, rtol=0, atol=1e-8)
        recover_wages(market, p)
        for k in (0, len(market.x_labels)):
            values = p.values.copy()
            values[k] += 1e-6
            with pytest.raises(ValueError):
                recover_equilibrium(market, PriceVector(p.labels, values))


class TestWages:
    def test_tu_wages_square_with_both_sides(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng)
        q = build_transfer_map(market)
        p, _ = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-12)
        )
        wages = recover_wages(market, p)
        eq = recover_equilibrium(market, p)
        assert_allclose(wages, market.frontiers.phi - eq.V, rtol=1e-12)
        assert_allclose(wages, eq.U, atol=1e-9)

    def test_taxes_wages_satisfy_worker_identity(self):
        rng = np.random.default_rng(42)
        market = random_taxes_market(rng)
        q = build_transfer_map(market)
        p, _ = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-12)
        )
        wages = recover_wages(market, p)
        eq = recover_equilibrium(market, p)
        sched = market.frontiers.schedule
        lhs = eq.U - market.frontiers.alpha
        rhs = net_wage(sched, wages)
        assert_allclose(lhs, rhs, atol=1e-8)

    def test_ntu_unsupported(self):
        rng = np.random.default_rng(42)
        market = random_ntu_market(rng)
        q = build_transfer_map(market)
        p, _ = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-11)
        )
        with pytest.raises(UnsupportedFrontier):
            recover_wages(market, p)


def housing_min_form(market, values, j0=None, pi=0.0):
    """Housing excesses from occupancy ``min(e^{p_x + alpha}, e^{gamma - p_y})``;
    ``j0`` is the y column pinned at ``pi`` (full assignment), if any."""
    nx = len(market.x_labels)
    px, py = values[:nx], values[nx:]
    if j0 is not None:
        py = np.insert(py, j0, pi)
    alpha, gamma = market.frontiers.alpha, market.frontiers.gamma
    K = np.minimum(np.exp(px[:, None] + alpha), np.exp(gamma - py[None, :]))
    rows, cols = K.sum(axis=1), np.ascontiguousarray(K.T).sum(axis=1)
    if market.singles:
        rows, cols = rows + np.exp(px), cols + np.exp(-py)
    qy = market.m - cols
    if j0 is not None:
        qy = np.delete(qy, j0)
    return np.concatenate([rows - market.n, qy])


class TestHousing:
    def test_maps_equal_min_form_oracle_bitwise(self):
        rng = np.random.default_rng(42)
        for singles in [True, False] * 20:
            nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            market = random_ntu_market(rng, nx, ny, singles=singles)
            if singles:
                q, j0, pi = build_housing_map(market), None, 0.0
            else:
                j0, pi = int(rng.integers(ny)), float(rng.uniform(-1.0, 1.0))
                q = build_housing_full_assignment_map(market, market.y_labels[j0], pi)
            values = rng.uniform(-3.0, 3.0, len(q.labels))
            assert np.array_equal(
                q.eval_values(values), housing_min_form(market, values, j0, pi)
            )
            for i, t in enumerate(rng.uniform(-3.0, 3.0, values.size)):
                probe = values.copy()
                probe[i] = t
                oracle = housing_min_form(market, probe, j0, pi)[i]
                assert q.residual_at(i, t, values) == oracle

    def test_solve_and_occupancy_identity(self):
        rng = np.random.default_rng(42)
        market = random_ntu_market(rng, nx=4, ny=4)
        q = build_housing_map(market)
        p, _ = solve(
            q, singles_supersolution(market), SolverOptions(residual_tol=1e-10)
        )
        eq = recover_equilibrium(market, p)
        nx = len(market.x_labels)
        px, py = p.values[:nx], p.values[nx:]
        direct = np.minimum(
            np.exp(px[:, None] + market.frontiers.alpha),
            np.exp(market.frontiers.gamma - py[None, :]),
        )
        assert_allclose(eq.mu, direct, rtol=1e-9)

    def test_unit_temperature_required(self):
        rng = np.random.default_rng(42)
        market = dataclasses.replace(random_ntu_market(rng), sigma=2.0)
        with pytest.raises(ValueError):
            build_housing_map(market)

    def test_ntu_frontier_required(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError):
            build_housing_map(random_tu_market(rng))

    def test_full_assignment_variant_keeps_isotone_aggregate(self):
        rng = np.random.default_rng(42)
        market = random_ntu_market(rng, nx=3, ny=3, singles=False)
        q = build_housing_full_assignment_map(market)
        assert q.m0_function and not q.m_function
        for _ in range(40):
            lo = rng.uniform(-2.0, 2.0, len(q.labels))
            hi = lo + rng.uniform(0.0, 1.0, len(q.labels))
            z_lo = q.evaluate(PriceVector(q.labels, lo)).values.sum()
            z_hi = q.evaluate(PriceVector(q.labels, hi)).values.sum()
            assert z_lo <= z_hi + 1e-12

    def test_full_assignment_solve_is_best_effort(self):
        rng = np.random.default_rng(42)
        market = random_ntu_market(rng, nx=2, ny=2, singles=False)
        q = build_housing_full_assignment_map(market)
        p0 = PriceVector(q.labels, np.zeros(len(q.labels)))
        try:
            p, _ = solve(q, p0, SolverOptions(residual_tol=1e-9))
        except (ResponsivenessViolation, MaxSweepsExceeded):
            return
        assert float(np.max(np.abs(q.evaluate(p).values))) <= 1e-9


FLAG_CASES = [
    ("transfer", "tu"),
    ("transfer", "taxes"),
    ("transfer", "ntu"),
    ("ot", "tu"),
    ("full", "tu"),
    ("full", "taxes"),
    ("full", "ntu"),
    ("housing", "ntu"),
    ("housing_full", "ntu"),
]


def flag_case_map(builder, kind, rng):
    singles = builder in ("transfer", "housing")
    make = {
        "tu": random_tu_market,
        "taxes": random_taxes_market,
        "ntu": random_ntu_market,
    }[kind]
    ny = int(rng.integers(1, 5))
    market = make(rng, int(rng.integers(1, 5)), ny, singles=singles)
    if builder in ("transfer", "housing", "ot"):
        return {
            "transfer": build_transfer_map,
            "housing": build_housing_map,
            "ot": build_ot_map,
        }[builder](market)
    build = (
        build_full_assignment_map if builder == "full"
        else build_housing_full_assignment_map
    )
    y0 = market.y_labels[int(rng.integers(ny))]
    return build(market, y0, float(rng.uniform(-1.0, 1.0)))


class TestStructureFlags:
    @pytest.mark.parametrize("builder, kind", FLAG_CASES)
    def test_declared_flags_hold_under_bumps(self, builder, kind):
        # Only singles give the aggregate a strict rise in every coordinate;
        # a pinned map's aggregate is the pinned column's inflow plus a
        # constant, and a balanced map's is constant.
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = flag_case_map(builder, kind, rng)
            assert q.z_function and q.diagonal_isotone and q.m0_function
            assert q.m_function == (builder in ("transfer", "housing"))
            base = rng.uniform(-1.0, 1.0, len(q.labels))
            before = q.eval_values(base)
            tol = 1e-12 * (1.0 + np.abs(before).sum())
            for k in range(base.size):
                bumped = base.copy()
                bumped[k] += 0.25
                change = q.eval_values(bumped) - before
                assert change[k] >= -tol
                assert np.all(np.delete(change, k) <= tol)
                rise = change.sum()
                assert rise >= -tol
                if q.m_function:
                    assert rise > tol


class TestNonintegrability:
    def test_tu_cross_partials_symmetric(self):
        rng = np.random.default_rng(42)
        market = random_tu_market(rng, nx=2, ny=3)
        p = PriceVector(market.labels, rng.uniform(-1.0, 1.0, 5))
        report = check_nonintegrability(market, p)
        assert report.asymmetry.shape == (2, 3)
        assert report.max_asymmetry <= 1e-5

    def test_taxes_break_symmetry_at_constructed_point(self):
        market = AggregateMarket(
            ("x1",), ("y1",), [1.0], [1.0],
            FrontierGrid.taxes(
                [[0.0]], [[0.0]], TaxSchedule([0.0, 0.5], [0.0, 0.5])
            ),
            1.0,
            singles=True,
        )
        p = PriceVector(("x1", "y1"), np.array([-2.0, 0.5]))
        report = check_nonintegrability(market, p)
        assert report.max_asymmetry > 1e-3
        assert report.max_asymmetry == pytest.approx(
            np.exp(-5.0 / 3.0) / 3.0, rel=1e-3
        )
