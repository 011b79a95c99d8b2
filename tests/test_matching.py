"""Matching tests: stability, one-sided optima, lattice ops, mass variants."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import marketclear.matching as matching

from marketclear import (
    AggregateNTMarket,
    AggregateNTOutcome,
    IndividualMarket,
    IndividualOutcome,
    InstanceTooLarge,
    MaxRoundsExceeded,
    PriceVector,
    SolverOptions,
    adachi_map,
    adachi_solve,
    build_matching_map,
    check_m0_strong_set_order,
    dalm,
    damped_step,
    deferred_acceptance,
    disposal_phase,
    enumerate_stable,
    gauss_seidel_sweep,
    is_equilibrium_matching,
    is_stable,
    jacobi_sweep,
    lattice_join_I,
    lattice_meet_I,
    proposal_phase,
    solve,
)
from conftest import (
    cyclic_market,
    random_aggregate_nt_market,
    random_individual_market,
)


def opposed_market() -> IndividualMarket:
    """Two stable matchings: workers prefer the diagonal, firms the other."""
    return IndividualMarket(
        ("w1", "w2"),
        ("f1", "f2"),
        alpha=[[2.0, 1.0], [1.0, 2.0]],
        gamma=[[1.0, 2.0], [2.0, 1.0]],
    )


def worker_state(market: IndividualMarket) -> PriceVector:
    """Extremal start: every worker at their best, every firm at their worst."""
    return PriceVector(
        market.labels,
        np.concatenate(
            [
                np.minimum((-market.alpha).min(axis=1), 0.0),
                np.minimum(market.gamma.min(axis=0), 0.0),
            ]
        ),
    )


def brute_force_stable(market: IndividualMarket) -> list[np.ndarray]:
    """All stable 0/1 matchings by unpruned exhaustion (small markets only)."""
    count_i, count_j = market.alpha.shape
    out = []
    for firms in itertools.product(range(-1, count_j), repeat=count_i):
        chosen = [f for f in firms if f >= 0]
        if len(chosen) != len(set(chosen)):
            continue
        mu = np.zeros((count_i, count_j), dtype=int)
        for w, f in enumerate(firms):
            if f >= 0:
                mu[w, f] = 1
        if is_stable(market, mu):
            out.append(mu)
    return out


class TestIndividualValidation:
    def test_repeated_row_value_rejected(self):
        with pytest.raises(ValueError):
            IndividualMarket(("w1",), ("f1", "f2"),
                             alpha=[[1.0, 1.0]], gamma=[[1.0, 2.0]])

    def test_zero_payoff_rejected(self):
        with pytest.raises(ValueError):
            IndividualMarket(("w1",), ("f1",), alpha=[[0.0]], gamma=[[1.0]])
        with pytest.raises(ValueError):
            IndividualMarket(("w1",), ("f1",), alpha=[[1.0]], gamma=[[0.0]])

    def test_repeated_column_value_rejected(self):
        with pytest.raises(ValueError):
            IndividualMarket(("w1", "w2"), ("f1",),
                             alpha=[[1.0], [2.0]], gamma=[[3.0], [3.0]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            IndividualMarket(("w1", "w1"), ("f1", "f2"),
                             alpha=[[1.0, 2.0], [2.0, 1.0]],
                             gamma=[[1.0, 2.0], [2.0, 1.0]])

    def test_outcome_entries_must_be_unit(self):
        with pytest.raises(ValueError):
            IndividualOutcome(("w1",), ("f1",), [[2]], [1.0], [1.0])
        with pytest.raises(ValueError):
            IndividualOutcome(("w1", "w2"), ("f1",), [[1], [1]],
                              [1.0, 1.0], [1.0])

    def test_worker_partner(self):
        out = IndividualOutcome(("w1", "w2"), ("f1", "f2"),
                                [[0, 1], [0, 0]], [1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(out.worker_partner(), [1, -1])


class TestStability:
    def test_opposed_market_hand_cases(self):
        market = opposed_market()
        assert is_stable(market, np.eye(2, dtype=int))
        assert is_stable(market, np.eye(2, dtype=int)[::-1])
        assert not is_stable(market, np.zeros((2, 2), dtype=int))
        assert not is_stable(market, [[1, 0], [0, 0]])

    def test_individual_rationality(self):
        market = IndividualMarket(("w1",), ("f1",),
                                  alpha=[[-1.0]], gamma=[[1.0]])
        assert not is_stable(market, [[1]])
        assert is_stable(market, [[0]])

    def test_accepts_outcome_objects(self):
        market = opposed_market()
        assert is_stable(market, deferred_acceptance(market))


class TestDeferredAcceptance:
    def test_opposed_market_is_worker_optimal(self):
        market = opposed_market()
        out = deferred_acceptance(market)
        assert np.array_equal(out.mu, np.eye(2, dtype=int))
        assert np.array_equal(out.u, [2.0, 2.0])
        assert np.array_equal(out.v, [1.0, 1.0])

    def test_nobody_acceptable_leaves_everyone_single(self):
        market = IndividualMarket(("w1", "w2"), ("f1", "f2"),
                                  alpha=[[-1.0, -2.0], [-3.0, -4.0]],
                                  gamma=[[1.0, 2.0], [2.0, 1.0]])
        out = deferred_acceptance(market)
        assert not out.mu.any()
        assert np.array_equal(out.u, [0.0, 0.0])
        assert np.array_equal(out.v, [0.0, 0.0])

    def test_stable_and_u_maximal_against_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            market = random_individual_market(rng)
            out = deferred_acceptance(market)
            assert is_stable(market, out)
            pool = enumerate_stable(market)
            assert any(np.array_equal(out.mu, s.mu) for s in pool)
            for s in pool:
                assert np.all(out.u >= s.u)


class TestEnumeration:
    def test_single_pair_counts(self):
        both_like = IndividualMarket(("w1",), ("f1",),
                                     alpha=[[1.0]], gamma=[[1.0]])
        pool = enumerate_stable(both_like)
        assert len(pool) == 1 and pool[0].mu[0, 0] == 1

        worker_declines = IndividualMarket(("w1",), ("f1",),
                                           alpha=[[-1.0]], gamma=[[1.0]])
        pool = enumerate_stable(worker_declines)
        assert len(pool) == 1 and not pool[0].mu.any()

    def test_opposed_market_has_exactly_two(self):
        pool = enumerate_stable(opposed_market())
        assert len(pool) == 2
        mus = {tuple(s.mu.ravel()) for s in pool}
        assert tuple(np.eye(2, dtype=int).ravel()) in mus
        assert tuple(np.eye(2, dtype=int)[::-1].ravel()) in mus

    def test_matches_unpruned_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            market = random_individual_market(rng, ni=3, nj=3)
            pool = enumerate_stable(market)
            brute = brute_force_stable(market)
            assert len(pool) == len(brute)
            for mu in brute:
                assert any(np.array_equal(mu, s.mu) for s in pool)

    def test_size_guard(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng, ni=8, nj=8)
        with pytest.raises(InstanceTooLarge):
            enumerate_stable(market)


class TestAdachi:
    def test_worker_start_reproduces_deferred_acceptance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            market = random_individual_market(rng, ni=5, nj=5)
            via_da = deferred_acceptance(market)
            via_op = adachi_solve(market)
            assert np.array_equal(via_op.mu, via_da.mu)
            assert np.array_equal(via_op.u, via_da.u)
            assert np.array_equal(via_op.v, via_da.v)

    def test_firm_start_opposes_worker_start(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            market = random_individual_market(rng)
            lo = adachi_solve(market, start="firm_optimal")
            hi = adachi_solve(market, start="worker_optimal")
            assert is_stable(market, lo)
            assert np.all(lo.u <= hi.u)
            assert np.all(lo.v >= hi.v)

    def test_unknown_start_rejected(self):
        with pytest.raises(ValueError):
            adachi_solve(opposed_market(), start="sideways")

    def test_operator_is_isotone(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng)
        op = adachi_map(market)
        count = len(market.labels)
        for _ in range(50):
            lo = rng.uniform(-2.0, 2.0, count)
            hi = lo + rng.uniform(0.0, 1.0, count)
            t_lo = op(PriceVector(market.labels, lo))
            t_hi = op(PriceVector(market.labels, hi))
            assert np.all(t_lo.values <= t_hi.values)

    def test_solved_state_is_a_fixed_point(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng)
        out = adachi_solve(market)
        op = adachi_map(market)
        state = PriceVector(market.labels, np.concatenate([-out.u, out.v]))
        assert np.array_equal(op(state).values, state.values)

    def test_label_mismatch_rejected(self):
        market = opposed_market()
        op = adachi_map(market)
        with pytest.raises(ValueError):
            op(PriceVector(("a", "b", "c", "d"), np.zeros(4)))


class TestMatchingMap:
    def test_updates_are_the_operator_components(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng)
        q = build_matching_map(market)
        op = adachi_map(market)
        for _ in range(25):
            values = rng.uniform(-2.0, 2.0, len(q.labels))
            p = PriceVector(q.labels, values)
            expected = op(p).values
            got = np.array(
                [q.update_value(i, i + 1, values)[0] for i in range(len(q.labels))]
            )
            assert np.array_equal(got, expected)

    def test_counting_signs_at_extreme_states(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng)
        q = build_matching_map(market)
        count_i = len(market.i_labels)
        extreme = np.concatenate(
            [np.full(count_i, -10.0), np.full(len(market.j_labels), 10.0)]
        )
        z = q.eval_values(extreme)
        assert np.array_equal(z[:count_i], np.full(count_i, -1.0))
        assert np.array_equal(z[count_i:], np.full(len(market.j_labels), 1.0))

    def test_flags(self):
        q = build_matching_map(opposed_market())
        assert q.z_function and q.diagonal_isotone
        assert q.m0_function and not q.m_function

    def test_sequential_sweeps_reach_the_worker_optimum(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            market = random_individual_market(rng, ni=5, nj=5)
            q = build_matching_map(market)
            p, _ = solve(
                q,
                worker_state(market),
                SolverOptions(
                    residual_tol=0.5, mode="gauss_seidel", max_sweeps=200
                ),
            )
            out = adachi_solve(market)
            assert np.array_equal(
                p.values, np.concatenate([-out.u, out.v])
            )

    def test_a_zero_need_not_be_a_fixed_point(self):
        # The firm's payoff -1 lies below its outside option 0, yet both
        # counts are zero there: solve stops at once, while one sweep of the
        # operator moves the firm to the stable state (both single).
        market = IndividualMarket(("w",), ("f",), [[-1.0]], [[-1.0]])
        q = build_matching_map(market)
        p = PriceVector(q.labels, [0.0, -1.0])
        assert q.eval_values(p.values).tolist() == [0.0, 0.0]
        solved, trace = solve(q, p)
        assert solved.values.tolist() == [0.0, -1.0]
        assert len(trace.records) == 1
        for sweep in (jacobi_sweep, gauss_seidel_sweep):
            assert sweep(q, p).values.tolist() == [0.0, 0.0]
        out = adachi_solve(market)
        assert out.mu.tolist() == [[0]]
        assert np.concatenate([-out.u, out.v]).tolist() == [0.0, 0.0]

    def test_inverse_set_order_in_samples(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng, ni=2, nj=2)
        q = build_matching_map(market)
        report = check_m0_strong_set_order(q, 600, rng_seed=42)
        assert report.comparable > 0
        assert report.violations == ()


class TestDampedStep:
    def test_caps_at_the_next_rung(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng)
        op = adachi_map(market)
        count_i = len(market.i_labels)
        for _ in range(20):
            values = rng.uniform(-2.0, 2.0, len(market.labels))
            p = PriceVector(market.labels, values)
            stepped = damped_step(market, p)
            plain = op(p)
            for i in range(count_i):
                rungs = [0.0] + [-a for a in market.alpha[i]]
                above = [r for r in rungs if r > values[i]]
                cap = min(above) if above else np.inf
                assert stepped.values[i] == min(plain.values[i], cap)

    def test_fixed_points_coincide(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng)
        out = adachi_solve(market)
        state = PriceVector(market.labels, np.concatenate([-out.u, out.v]))
        assert np.array_equal(damped_step(market, state).values, state.values)

    def test_iteration_reaches_the_worker_optimum(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            market = random_individual_market(rng, ni=4, nj=4)
            p = worker_state(market)
            for _ in range(200):
                stepped = damped_step(market, p)
                if np.array_equal(stepped.values, p.values):
                    break
                p = stepped
            out = adachi_solve(market)
            assert np.array_equal(p.values, np.concatenate([-out.u, out.v]))

    def test_single_worker_settles_in_few_steps(self):
        rng = np.random.default_rng(42)
        market = random_individual_market(rng, ni=1, nj=4)
        p = worker_state(market)
        settled = False
        for _ in range(6):
            stepped = damped_step(market, p)
            if np.array_equal(stepped.values, p.values):
                settled = True
                break
            p = stepped
        assert settled


class TestLattice:
    def stable_pairs(self, rng, tries: int = 40):
        markets = [cyclic_market(k) for k in (3, 4, 5)]
        markets += [random_individual_market(rng) for _ in range(tries)]
        for market in markets:
            pool = enumerate_stable(market)
            if len(pool) >= 2:
                for a, b in itertools.combinations(pool, 2):
                    yield market, a, b

    def test_meet_and_join_are_stable_extremes(self):
        rng = np.random.default_rng(42)
        seen = 0
        for market, a, b in self.stable_pairs(rng):
            meet = lattice_meet_I(market, a, b)
            join = lattice_join_I(market, a, b)
            assert is_stable(market, meet)
            assert is_stable(market, join)
            assert np.array_equal(meet.u, np.minimum(a.u, b.u))
            assert np.array_equal(meet.v, np.maximum(a.v, b.v))
            assert np.array_equal(join.u, np.maximum(a.u, b.u))
            assert np.array_equal(join.v, np.minimum(a.v, b.v))
            seen += 1
        assert seen >= 5

    def test_opposition_of_interests(self):
        rng = np.random.default_rng(42)
        seen = 0
        for market, a, b in self.stable_pairs(rng):
            if np.all(a.u <= b.u):
                assert np.all(a.v >= b.v)
                seen += 1
            elif np.all(b.u <= a.u):
                assert np.all(b.v >= a.v)
                seen += 1
        assert seen >= 3

    def test_label_mismatch_rejected(self):
        market = opposed_market()
        pool = enumerate_stable(market)
        other = IndividualOutcome(("a", "b"), ("c", "d"),
                                  np.eye(2, dtype=int), [2.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            lattice_meet_I(market, pool[0], other)


class TestAggregateValidation:
    def test_positive_masses(self):
        with pytest.raises(ValueError):
            AggregateNTMarket(("x1",), ("y1",), [0.0], [1.0],
                              [[1.0]], [[1.0]])

    def test_matrix_shapes(self):
        with pytest.raises(ValueError):
            AggregateNTMarket(("x1",), ("y1",), [1.0], [1.0],
                              [[1.0, 2.0]], [[1.0]])

    def test_outcome_finite(self):
        with pytest.raises(ValueError):
            AggregateNTOutcome(("x1",), ("y1",), [[np.nan]], [0.0], [0.0],
                               [1.0], [1.0])


class TestEquilibriumChecker:
    def one_cell(self, n=1.0, m=1.0) -> AggregateNTMarket:
        return AggregateNTMarket(("x1",), ("y1",), [n], [m],
                                 [[1.0]], [[1.0]])

    def outcome(self, mu, mu_x0, mu_0y, u, v) -> AggregateNTOutcome:
        return AggregateNTOutcome(("x1",), ("y1",), [[mu]], [mu_x0], [mu_0y],
                                  [u], [v])

    def test_clean_equilibrium_passes(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(), self.outcome(1.0, 0.0, 0.0, 1.0, 1.0)
        )
        assert ok and names == ()

    def test_negative_mass(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(), self.outcome(-0.5, 1.5, 1.5, 0.0, 0.0)
        )
        assert not ok and "negative_mass" in names

    def test_row_feasibility(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(), self.outcome(1.0, 0.5, 0.0, 0.0, 1.0)
        )
        assert not ok and names == ("row_feasibility",)

    def test_column_feasibility(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(), self.outcome(1.0, 0.0, 0.5, 1.0, 0.0)
        )
        assert not ok and names == ("column_feasibility",)

    def test_negative_payoff(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(), self.outcome(1.0, 0.0, 0.0, -0.1, 1.0)
        )
        assert not ok and names == ("negative_payoff",)

    def test_blocking(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(), self.outcome(1.0, 0.0, 0.0, 0.5, 0.25)
        )
        assert not ok and names == ("blocking",)

    def test_complementarity_match(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(), self.outcome(1.0, 0.0, 0.0, 2.0, 1.0)
        )
        assert not ok and names == ("complementarity_match",)

    def test_complementarity_x_outside(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(n=2.0), self.outcome(1.0, 1.0, 0.0, 0.5, 1.0)
        )
        assert not ok and names == ("complementarity_x_outside",)

    def test_complementarity_y_outside(self):
        ok, names = is_equilibrium_matching(
            self.one_cell(m=2.0), self.outcome(1.0, 0.0, 1.0, 1.0, 0.5)
        )
        assert not ok and names == ("complementarity_y_outside",)

    def test_label_mismatch_rejected(self):
        other = AggregateNTOutcome(("z",), ("y1",), [[1.0]], [0.0], [0.0],
                                   [1.0], [1.0])
        with pytest.raises(ValueError):
            is_equilibrium_matching(self.one_cell(), other)


def lp_best_row_value(payoff, caps, budget) -> float:
    res = linprog(
        c=-payoff,
        A_ub=np.ones((1, payoff.size)),
        b_ub=[budget],
        bounds=list(zip(np.zeros(payoff.size), caps)),
        method="highs",
    )
    assert res.success
    return -float(res.fun)


class TestGreedyPhases:
    def test_proposals_are_row_optimal(self):
        rng = np.random.default_rng(42)
        market = random_aggregate_nt_market(rng, nx=4, ny=4)
        caps = rng.uniform(0.0, 2.0, (4, 4))
        out = proposal_phase(market, caps)
        assert np.all(out >= 0.0) and np.all(out <= caps + 1e-12)
        assert np.all(out[market.alpha < 0.0] == 0.0)
        assert np.all(out.sum(axis=1) <= market.n + 1e-12)
        for x in range(4):
            best = lp_best_row_value(
                np.maximum(market.alpha[x], 0.0), caps[x], market.n[x]
            )
            got = float((market.alpha[x] * out[x]).sum())
            assert got == pytest.approx(best, abs=1e-9)

    def test_retention_is_column_optimal(self):
        rng = np.random.default_rng(42)
        market = random_aggregate_nt_market(rng, nx=4, ny=4)
        proposals = rng.uniform(0.0, 1.5, (4, 4))
        out = disposal_phase(market, proposals)
        assert np.all(out >= 0.0) and np.all(out <= proposals + 1e-12)
        assert np.all(out[market.gamma < 0.0] == 0.0)
        assert np.all(out.sum(axis=0) <= market.m + 1e-12)
        for y in range(4):
            best = lp_best_row_value(
                np.maximum(market.gamma[:, y], 0.0),
                proposals[:, y],
                market.m[y],
            )
            got = float((market.gamma[:, y] * out[:, y]).sum())
            assert got == pytest.approx(best, abs=1e-9)

    def test_shape_guards(self):
        rng = np.random.default_rng(42)
        market = random_aggregate_nt_market(rng)
        with pytest.raises(ValueError):
            proposal_phase(market, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            disposal_phase(market, np.zeros((2, 2)))


class TestDalm:
    def test_two_type_desk_case(self):
        market = AggregateNTMarket(("x1",), ("y1",), [2.0], [1.0],
                                   [[1.0]], [[1.0]])
        out = dalm(market)
        assert np.array_equal(out.mu, [[1.0]])
        assert np.array_equal(out.mu_x0, [1.0])
        assert np.array_equal(out.mu_0y, [0.0])
        assert np.array_equal(out.u, [0.0])
        assert np.array_equal(out.v, [1.0])
        ok, names = is_equilibrium_matching(market, out)
        assert ok and names == ()

    def test_random_markets_settle_into_equilibria(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            market = random_aggregate_nt_market(rng, nx=4, ny=4)
            out = dalm(market)
            ok, names = is_equilibrium_matching(market, out)
            assert ok, names

    def test_availability_never_increases(self):
        rng = np.random.default_rng(42)
        market = random_aggregate_nt_market(rng, nx=4, ny=4)
        out, trace = dalm(market, return_trace=True)
        assert np.array_equal(trace[0], np.minimum.outer(market.n, market.m))
        for earlier, later in zip(trace, trace[1:]):
            assert np.all(later <= earlier + 1e-15)
        assert len(trace) >= 2
        assert isinstance(out, AggregateNTOutcome)

    def test_unit_masses_reproduce_deferred_acceptance(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            individual = random_individual_market(rng, ni=5, nj=5)
            aggregate = AggregateNTMarket(
                individual.i_labels,
                individual.j_labels,
                np.ones(5),
                np.ones(5),
                individual.alpha,
                individual.gamma,
            )
            da = deferred_acceptance(individual)
            out = dalm(aggregate)
            assert np.array_equal(out.mu, da.mu.astype(float))
            assert np.array_equal(out.u, da.u)
            assert np.array_equal(out.v, da.v)

    def test_round_budget_raises_with_trace(self):
        market = AggregateNTMarket(
            ("x1", "x2"), ("y1", "y2"),
            [1.0, 1.0], [1.0, 1.0],
            alpha=[[2.0, 1.0], [2.0, 1.0]],
            gamma=[[2.0, 1.0], [1.0, 2.0]],
        )
        with pytest.raises(MaxRoundsExceeded) as info:
            dalm(market, max_rounds=1, return_trace=True)
        trace = info.value.trace
        assert len(trace) == 2
        assert np.array_equal(trace[0], np.ones((2, 2)))
        assert trace[1][1, 0] == 0.0

    def test_round_budget_keeps_only_last_availability_by_default(self):
        market = random_aggregate_nt_market(np.random.default_rng(0), 20, 20)
        for rounds in (1, 50):
            with pytest.raises(MaxRoundsExceeded) as info:
                dalm(market, max_rounds=rounds)
            with pytest.raises(MaxRoundsExceeded) as full:
                dalm(market, max_rounds=rounds, return_trace=True)
            assert len(info.value.trace) == 1
            assert info.value.trace[0].tobytes() == full.value.trace[-1].tobytes()

    def test_round_budget_validation(self):
        rng = np.random.default_rng(42)
        market = random_aggregate_nt_market(rng)
        with pytest.raises(ValueError):
            dalm(market, max_rounds=0)
        # Floats and bools once passed the check and then raised a bare
        # TypeError from range().
        for bad in (2.5, 10.0, True):
            with pytest.raises(ValueError, match="max_rounds"):
                dalm(market, max_rounds=bad)
        assert dalm(market, max_rounds=np.int64(10_000)).rounds >= 1


# ---------------------------------------------------------------------------
# Oracle: the one-cell-at-a-time loops that the vectorized greedy fill and
# the incremental dalm rounds replaced, kept as the bitwise reference.


def loop_proposal_phase(market: AggregateNTMarket, available) -> np.ndarray:
    out = np.zeros_like(available)
    for x in range(available.shape[0]):
        remaining = float(market.n[x])
        for j in np.argsort(-market.alpha[x], kind="stable"):
            if market.alpha[x, j] < 0.0 or remaining <= 0.0:
                break
            take = min(float(available[x, j]), remaining)
            if take > 0.0:
                out[x, j] = take
                remaining -= take
    return out


def loop_disposal_phase(market: AggregateNTMarket, proposals) -> np.ndarray:
    out = np.zeros_like(proposals)
    for y in range(proposals.shape[1]):
        remaining = float(market.m[y])
        for i in np.argsort(-market.gamma[:, y], kind="stable"):
            if market.gamma[i, y] < 0.0 or remaining <= 0.0:
                break
            take = min(float(proposals[i, y]), remaining)
            if take > 0.0:
                out[i, y] = take
                remaining -= take
    return out


def loop_dalm(market: AggregateNTMarket):
    """Full rounds; returns ``(mu, mu_x0, mu_0y, trace)``."""
    available = np.minimum.outer(market.n, market.m)
    threshold = 1e-12 * (1.0 + float(available.max()))
    trace = [available.copy()]
    for _ in range(10_000):
        proposed = loop_proposal_phase(market, available)
        kept = loop_disposal_phase(market, proposed)
        rejected = proposed - kept
        available = available - rejected
        trace.append(available.copy())
        if float(rejected.max(initial=0.0)) <= threshold:
            return kept, market.n - kept.sum(axis=1), market.m - kept.sum(axis=0), trace
    raise AssertionError("the reference loop did not settle")


def oracle_market(seed: int, nx: int, ny: int, coarse: bool, unit: bool):
    """Random market; ``coarse`` draws payoffs and masses on a 0.5 grid.

    The grid gives ties in ``alpha`` and ``gamma``, zero and negative pays,
    and caps that sum exactly to the remaining budget.
    """
    rng = np.random.default_rng(seed)
    if coarse:
        n = rng.integers(1, 5, nx) * 0.5
        m = rng.integers(1, 5, ny) * 0.5
        alpha = rng.integers(-2, 4, (nx, ny)) * 0.5
        gamma = rng.integers(-2, 4, (nx, ny)) * 0.5
    else:
        n = rng.uniform(0.5, 3.0, nx)
        m = rng.uniform(0.5, 3.0, ny)
        alpha = rng.uniform(-1.0, 2.0, (nx, ny))
        gamma = rng.uniform(-1.0, 2.0, (nx, ny))
    if unit:
        n, m = np.ones(nx), np.ones(ny)
    return AggregateNTMarket(
        tuple(f"x{k}" for k in range(nx)), tuple(f"y{k}" for k in range(ny)),
        n, m, alpha, gamma,
    )


def oracle_caps(seed: int, shape, coarse: bool) -> np.ndarray:
    """Caps with zeros, negatives, and (when coarse) exact budget sums."""
    rng = np.random.default_rng([seed, 1])
    caps = (
        rng.integers(-1, 5, shape) * 0.5 if coarse
        else rng.uniform(-0.5, 3.0, shape)
    )
    caps[rng.random(shape) < 0.2] = 0.0
    return caps


market_args = dict(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 7),
    ny=st.integers(1, 7),
    coarse=st.booleans(),
    unit=st.booleans(),
)


@given(**market_args, rows_frac=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_phases_equal_the_loops(seed, nx, ny, coarse, unit, rows_frac):
    market = oracle_market(seed, nx, ny, coarse, unit)
    caps = oracle_caps(seed, (nx, ny), coarse)
    for phase, loop, size, key in (
        (proposal_phase, loop_proposal_phase, nx, "rows"),
        (disposal_phase, loop_disposal_phase, ny, "cols"),
    ):
        want = loop(market, caps)
        got = phase(market, caps)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        pick = np.random.default_rng([seed, 2]).permutation(size)
        pick = pick[: int(rows_frac * size)]
        block = phase(market, caps, **{key: pick})
        assert block.flags.c_contiguous
        expect = want[pick] if key == "rows" else want[:, pick]
        assert block.shape == expect.shape
        assert block.tobytes() == expect.tobytes()


def test_phases_on_empty_subsets():
    market = oracle_market(4, 3, 5, True, False)
    caps = oracle_caps(4, (3, 5), True)
    assert proposal_phase(market, caps, rows=[]).shape == (0, 5)
    assert disposal_phase(market, caps, cols=[]).shape == (3, 0)


def test_greedy_fill_edge_cases_equal_the_loop():
    # Ties keep column order; a cap equal to the remaining budget stops the
    # row; a negative pay, a zero cap and a negative cap take nothing.
    market = AggregateNTMarket(
        ("x1", "x2", "x3"), ("y1", "y2", "y3", "y4"),
        [2.0, 1.5, 0.5], [1.0, 1.0, 1.0, 1.0],
        alpha=[[1.0, 1.0, 1.0, 0.5], [2.0, -1.0, 1.0, 0.0],
               [-0.5, -1.0, -2.0, -0.0]],
        gamma=[[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 2.0],
               [1.0, 1.0, -1.0, 0.5]],
    )
    caps = np.array([[1.0, 0.0, 1.0, 1.0], [-0.5, 1.0, 1.5, 0.5],
                     [1.0, 1.0, 1.0, 1.0]])
    got = proposal_phase(market, caps)
    assert got.tobytes() == loop_proposal_phase(market, caps).tobytes()
    assert got.tolist() == [[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.5, 0.0],
                            [0.0, 0.0, 0.0, 0.5]]
    kept = disposal_phase(market, caps)
    assert kept.tobytes() == loop_disposal_phase(market, caps).tobytes()
    # An infinite cap takes the whole budget left; a NaN cap takes nothing.
    caps = np.array([[np.inf, 1.0, np.nan, 1.0], [np.nan, np.inf, 0.5, np.inf],
                     [1.0, np.nan, np.inf, np.inf]])
    for phase, loop in ((proposal_phase, loop_proposal_phase),
                        (disposal_phase, loop_disposal_phase)):
        assert phase(market, caps).tobytes() == loop(market, caps).tobytes()


@given(**market_args)
@settings(max_examples=200, deadline=None)
def test_dalm_equals_full_rounds(seed, nx, ny, coarse, unit):
    market = oracle_market(seed, nx, ny, coarse, unit)
    mu, mu_x0, mu_0y, want = loop_dalm(market)
    out, trace = dalm(market, return_trace=True)
    assert len(trace) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(trace, want))
    assert out.mu.flags.c_contiguous
    assert out.mu.tobytes() == mu.tobytes()
    assert out.mu_x0.tobytes() == mu_x0.tobytes()
    assert out.mu_0y.tobytes() == mu_0y.tobytes()
    u, v = matching._recover_multipliers(market, mu, mu_x0, mu_0y)
    assert out.u.tobytes() == u.tobytes()
    assert out.v.tobytes() == v.tobytes()
    plain = dalm(market)
    for name in ("mu", "mu_x0", "mu_0y", "u", "v"):
        assert getattr(plain, name).tobytes() == getattr(out, name).tobytes()
    assert plain.rounds == out.rounds == len(want) - 1


def test_dalm_calls_each_phase_once_per_round(monkeypatch):
    # A profiler counts dalm's rounds by wrapping the module-level phases,
    # so dalm must look them up and call each once per round.
    calls = {"proposal_phase": 0, "disposal_phase": 0}
    for name in calls:
        phase = getattr(matching, name)

        def counted(*args, _phase=phase, _name=name, **kwargs):
            calls[_name] += 1
            return _phase(*args, **kwargs)

        monkeypatch.setattr(matching, name, counted)
    market = random_aggregate_nt_market(np.random.default_rng(0), nx=20, ny=20)
    out = dalm(market)
    assert out.rounds > 100
    assert calls == {"proposal_phase": out.rounds, "disposal_phase": out.rounds}
    out, trace = dalm(market, return_trace=True)
    assert len(trace) == out.rounds + 1
    assert calls == {"proposal_phase": 2 * out.rounds, "disposal_phase": 2 * out.rounds}


def test_dalm_memory_stays_bounded_without_trace():
    # 181 rounds; one availability snapshot per round would hold
    # 182 · X · Y · 8 bytes.
    nx = ny = 20
    market = random_aggregate_nt_market(np.random.default_rng(0), nx=nx, ny=ny)
    tracemalloc.start()
    try:
        dalm(market)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * nx * ny * 8
