"""Engine tests: vectors, root finding, sweeps, traces, property checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

import marketclear.core as core
from marketclear import (
    BracketOptions,
    EquilibriumMap,
    InternalError,
    IsotonicityReport,
    IrreducibilityViolation,
    MaxSweepsExceeded,
    NonFiniteResidual,
    PriceVector,
    ResponsivenessViolation,
    SetOrderReport,
    SolverOptions,
    check_inverse_isotone,
    check_m0_strong_set_order,
    constant_aggregate_map,
    coordinate_update,
    gauss_seidel_sweep,
    is_subsolution,
    is_supersolution,
    jacobi_sweep,
    join,
    linear_map,
    meet,
    perron_vector,
    smallest_root,
    solve,
)


def affine_map(A, b):
    """Hand-built map Q(p) = A p - b with closed-form coordinate updates."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lbls = tuple(f"z{k + 1}" for k in range(A.shape[0]))

    def update(lo, hi, values):
        return [
            (b[i] - A[i] @ values + A[i, i] * values[i]) / A[i, i]
            for i in range(lo, hi)
        ]

    return EquilibriumMap(
        labels=lbls,
        eval_values=lambda v: A @ v - b,
        update_value=update,
        z_function=bool(np.all(A - np.diag(np.diag(A)) <= 0)),
        diagonal_isotone=bool(np.all(np.diag(A) > 0)),
        m_function=True,
        m0_function=True,
    )


class TestPriceVector:
    def test_round_trip_and_lookup(self):
        p = PriceVector.from_dict({"a": 1.0, "b": -2.0})
        assert p.labels == ("a", "b")
        assert p["b"] == -2.0
        assert p.as_dict() == {"a": 1.0, "b": -2.0}
        assert len(p) == 2

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            PriceVector(("a", "a"), np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PriceVector(("a",), np.array([np.inf]))

    def test_values_read_only(self):
        p = PriceVector(("a",), np.array([1.0]))
        with pytest.raises(ValueError):
            p.values[0] = 2.0

    def test_with_value(self):
        p = PriceVector(("a", "b"), np.array([1.0, 2.0]))
        q = p.with_value("b", 5.0)
        assert q["b"] == 5.0 and p["b"] == 2.0

    def test_meet_join(self):
        p = PriceVector(("a", "b"), np.array([1.0, 5.0]))
        q = PriceVector(("a", "b"), np.array([2.0, 3.0]))
        assert_allclose(meet(p, q).values, [1.0, 3.0])
        assert_allclose(join(p, q).values, [2.0, 5.0])

    def test_meet_label_mismatch(self):
        p = PriceVector(("a",), np.array([1.0]))
        q = PriceVector(("b",), np.array([1.0]))
        with pytest.raises(ValueError):
            meet(p, q)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=6
        ),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_lattice_laws(self, xs, ys):
        size = min(len(xs), len(ys))
        lbls = tuple(f"z{k}" for k in range(size))
        p = PriceVector(lbls, np.array(xs[:size]))
        q = PriceVector(lbls, np.array(ys[:size]))
        lo, hi = meet(p, q), join(p, q)
        assert np.all(lo.values <= hi.values)
        assert_allclose(meet(q, p).values, lo.values)
        assert_allclose(join(meet(p, q), p).values, p.values)
        assert lo.leq(p) and lo.leq(q)


class TestSmallestRoot:
    def test_affine(self):
        assert smallest_root(lambda x: x - 2.0) == pytest.approx(2.0, abs=1e-9)

    def test_exponential(self):
        root = smallest_root(lambda x: math.exp(x) - 1.0)
        assert root == pytest.approx(0.0, abs=1e-9)

    def test_plateau_returns_smallest_zero(self):
        root = smallest_root(lambda x: max(x, 0.0))
        assert root == pytest.approx(0.0, abs=1e-9)

    def test_shifted_plateau(self):
        root = smallest_root(lambda x: max(x - 3.0, 0.0), hint=10.0)
        assert root == pytest.approx(3.0, abs=1e-9)

    def test_never_negative_never_positive(self):
        with pytest.raises(ResponsivenessViolation):
            smallest_root(lambda x: 1.0)
        with pytest.raises(ResponsivenessViolation):
            smallest_root(lambda x: -1.0)

    def test_nan_raises(self):
        with pytest.raises(NonFiniteResidual):
            smallest_root(lambda x: float("nan"))

    @pytest.mark.parametrize("hint", [math.nan, math.inf, -math.inf])
    def test_nonfinite_hint_refused(self, hint):
        with pytest.raises(ValueError, match="hint must be finite"):
            smallest_root(lambda x: x - 2.0, hint=hint)

    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bracketing_oracle(self, slope, intercept, hint):
        def f(x):
            return slope * x + intercept

        expected = brentq(f, -1e8, 1e8, xtol=1e-12)
        got = smallest_root(f, hint=hint)
        assert got == pytest.approx(expected, abs=1e-6, rel=1e-9)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            BracketOptions(initial_halfwidth=0.0)
        with pytest.raises(ValueError):
            BracketOptions(max_expansions=0)

    @pytest.mark.parametrize("field, value", [
        ("initial_halfwidth", math.inf),
        ("initial_halfwidth", math.nan),
        ("growth_factor", math.inf),
        ("growth_factor", math.nan),
        ("max_expansions", 2.5),
        ("max_expansions", 3.0),
        ("max_expansions", True),
    ])
    def test_options_refuse_what_would_fail_later(self, field, value):
        # Each was accepted once, then probed at +-inf or raised a bare
        # TypeError from range() inside smallest_root.
        with pytest.raises(ValueError, match=field):
            BracketOptions(**{field: value})


class TestLinearMap:
    def test_flags(self):
        q = linear_map([[1.0, -2.0], [-2.0, 1.0]])
        assert q.z_function and q.diagonal_isotone
        assert not q.m_function
        q2 = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        assert q2.m_function

    def test_evaluate_and_residual_agree(self):
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        p = PriceVector(q.labels, np.array([0.3, -0.7]))
        z = q.evaluate(p)
        for i, lbl in enumerate(q.labels):
            assert q.residual(lbl, p.values[i], p) == z.values[i]

    def test_divergent_iterates_double_exactly(self):
        q = linear_map([[1.0, -2.0], [-2.0, 1.0]])
        p0 = PriceVector(q.labels, np.array([1.0, 1.0]))
        with pytest.raises(MaxSweepsExceeded) as info:
            solve(q, p0, SolverOptions(max_sweeps=8))
        trace = info.value.trace
        for t, record in enumerate(trace.records):
            assert record.prices.values[0] == 2.0 ** t
            assert record.prices.values[1] == 2.0 ** t

    def test_default_budget_overflows_to_nonfinite(self):
        q = linear_map([[1.0, -2.0], [-2.0, 1.0]])
        p0 = PriceVector(q.labels, np.array([1.0, 1.0]))
        with pytest.raises(NonFiniteResidual):
            solve(q, p0, SolverOptions())

    def test_mmatrix_converges_to_zero(self):
        q = linear_map([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        p0 = PriceVector(q.labels, np.array([1.0, 2.0, 3.0]))
        p, trace = solve(q, p0, SolverOptions(residual_tol=1e-12))
        assert_allclose(p.values, 0.0, atol=1e-11)
        assert trace.records[-1].residual_sup <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linear_map([[1.0, 2.0, 3.0]])


class TestSolveEngine:
    def test_affine_vs_dense_solver(self):
        rng = np.random.default_rng(42)
        A = np.array(
            [[3.0, -0.5, -0.4], [-0.6, 2.5, -0.3], [-0.2, -0.7, 2.8]]
        )
        b = rng.uniform(-1.0, 1.0, 3)
        q = affine_map(A, b)
        p0 = PriceVector(q.labels, np.zeros(3))
        expected = np.linalg.solve(A, b)
        for mode in ("jacobi", "gauss_seidel"):
            p, _ = solve(q, p0, SolverOptions(residual_tol=1e-12, mode=mode))
            assert_allclose(p.values, expected, atol=1e-11)

    def test_bisection_route_matches_closed_form(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        b = np.array([0.3, -0.4])
        fast = affine_map(A, b)
        slow = dataclasses.replace(fast, update_value=None)
        p = PriceVector(fast.labels, np.array([0.8, -0.2]))
        for lbl in fast.labels:
            assert coordinate_update(slow, lbl, p) == pytest.approx(
                coordinate_update(fast, lbl, p), abs=1e-9
            )

    def test_damping_one_returns_update_exactly(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        q = affine_map(A, np.array([1.0, 1.0]))
        p = PriceVector(q.labels, np.array([0.1, 0.7]))
        swept = jacobi_sweep(q, p, SolverOptions())
        for i, lbl in enumerate(q.labels):
            assert swept.values[i] == coordinate_update(q, lbl, p)

    def test_damping_half_blends(self):
        A = np.array([[2.0, 0.0], [0.0, 2.0]])
        q = affine_map(A, np.array([2.0, 4.0]))
        p = PriceVector(q.labels, np.array([0.0, 0.0]))
        swept = jacobi_sweep(q, p, SolverOptions(damping=0.5))
        assert_allclose(swept.values, [0.5, 1.0])

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(damping=0.0)
        with pytest.raises(ValueError):
            SolverOptions(damping=1.5)
        with pytest.raises(ValueError):
            SolverOptions(mode="newton")

    @pytest.mark.parametrize("field, value", [
        ("step_tol", math.nan),
        ("step_tol", -1e-9),
        ("step_tol", math.inf),
        ("residual_tol", math.inf),
        ("residual_tol", math.nan),
        ("bisection_tol", math.inf),
        ("max_sweeps", 2.5),
        ("max_sweeps", 10.0),
        ("max_sweeps", False),
        ("max_sweeps", 0),
    ])
    def test_solver_options_validation(self, field, value):
        # A NaN step_tol once switched the step criterion off silently, and a
        # float max_sweeps raised a bare TypeError from range() inside solve.
        # An infinite tolerance stopped a solve at once and reported it ok.
        bracket = field in {f.name for f in dataclasses.fields(BracketOptions)}
        with pytest.raises(ValueError, match=field):
            (BracketOptions if bracket else SolverOptions)(**{field: value})

    def test_integral_counts_of_any_integer_type(self):
        opts = SolverOptions(
            max_sweeps=np.int64(3), root_finder=BracketOptions(max_expansions=np.int32(5))
        )
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        p0 = PriceVector(q.labels, np.array([1.0, 1.0]))
        with pytest.raises(MaxSweepsExceeded):
            solve(q, p0, dataclasses.replace(opts, residual_tol=1e-30))
        assert smallest_root(lambda x: x - 0.5, opts.root_finder) == pytest.approx(0.5)

    def test_gauss_seidel_uses_fresh_values(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        q = affine_map(A, np.array([0.0, 0.0]))
        p = PriceVector(q.labels, np.array([1.0, 1.0]))
        gs = gauss_seidel_sweep(q, p, SolverOptions())
        assert_allclose(gs.values, [0.5, 0.25])
        ja = jacobi_sweep(q, p, SolverOptions())
        assert_allclose(ja.values, [0.5, 0.5])

    def test_sweep_order_permutation_checked(self):
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        p = PriceVector(q.labels, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            gauss_seidel_sweep(
                q, p, SolverOptions(sweep_order=("z1", "z1"))
            )
        reordered = gauss_seidel_sweep(
            q, p, SolverOptions(sweep_order=("z2", "z1"))
        )
        assert_allclose(reordered.values, [0.25, 0.5])

    def test_step_tol_termination(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        q = affine_map(A, np.array([1.0, 1.0]))
        p0 = PriceVector(q.labels, np.zeros(2))
        p, trace = solve(
            q, p0, SolverOptions(residual_tol=1e-30, step_tol=1e-10)
        )
        assert trace.records[-1].residual_sup <= 1e-8

    def test_solved_point_is_fixed(self):
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        p = PriceVector(q.labels, np.zeros(2))
        swept = jacobi_sweep(q, p, SolverOptions())
        assert np.array_equal(swept.values, p.values)


class TestSubSuperSolutions:
    def test_signs(self):
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        up = PriceVector(q.labels, np.array([1.0, 1.0]))
        down = PriceVector(q.labels, np.array([-1.0, -1.0]))
        assert is_supersolution(q, up) and not is_subsolution(q, up)
        assert is_subsolution(q, down) and not is_supersolution(q, down)

    def test_tolerance(self):
        q = linear_map([[1.0, 0.0], [0.0, 1.0]])
        p = PriceVector(q.labels, np.array([-1e-12, 1e-15]))
        assert is_supersolution(q, p, tol=1e-9)

    def test_non_finite_raises(self):
        q = EquilibriumMap(
            labels=("a",),
            eval_values=lambda v: np.array([np.nan]),
            z_function=True,
            diagonal_isotone=True,
            m_function=False,
            m0_function=False,
        )
        with pytest.raises(NonFiniteResidual):
            is_subsolution(q, PriceVector(("a",), np.array([0.0])))


class TestTrace:
    def test_records_initial_point_and_converged_tail(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        q = affine_map(A, np.array([0.0, 0.0]))
        p0 = PriceVector(q.labels, np.array([1.0, 1.0]))
        _, trace = solve(q, p0, SolverOptions(residual_tol=0.3))
        assert trace.records[0].sweep == 0
        assert np.array_equal(trace.records[0].prices.values, p0.values)
        assert [r.sweep for r in trace.records] == [0, 1, 2]

    def test_csv_golden(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        q = affine_map(A, np.array([0.0, 0.0]))
        p0 = PriceVector(q.labels, np.array([1.0, 1.0]))
        _, trace = solve(q, p0, SolverOptions(residual_tol=0.3))
        expected = (
            "sweep,z1,z2,residual_sup,is_sub,is_super\n"
            "0,1,1,1,false,true\n"
            "1,0.5,0.5,0.5,false,true\n"
            "2,0.25,0.25,0.25,false,true\n"
        )
        assert trace.to_csv() == expected

    def test_csv_full_precision(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = affine_map(A, np.array([0.1, 0.2]))
        p0 = PriceVector(q.labels, np.array([0.1, 0.2]))
        _, trace = solve(q, p0, SolverOptions(residual_tol=1e-6))
        assert "0.10000000000000001" in trace.to_csv()

    def test_write_csv_lf_only(self, tmp_path):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = affine_map(A, np.array([0.0, 0.0]))
        p0 = PriceVector(q.labels, np.zeros(2))
        _, trace = solve(q, p0, SolverOptions(residual_tol=1.0))
        target = tmp_path / "trace.csv"
        trace.write_csv(target)
        data = target.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at_sweep", [0, 2])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nonfinite_excess_names_the_first_bad_coordinate(self, bad, at_sweep, k):
        # The record's evaluation of sweep ``at_sweep`` turns coordinates k
        # and 2 non-finite; closed-form sweeps never evaluate the map, so
        # the n-th evaluation is the n-th record.
        A = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
        base = affine_map(A, np.ones(3))
        calls = []

        def eval_values(v):
            out = base.eval_values(v)
            if len(calls) == at_sweep:
                out[[k, 2]] = bad
            calls.append(v)
            return out

        q = dataclasses.replace(base, eval_values=eval_values)
        p0 = PriceVector(q.labels, np.ones(3))
        with pytest.raises(NonFiniteResidual, match=f"coordinate 'z{k + 1}'"):
            solve(q, p0, SolverOptions(residual_tol=1e-300, max_sweeps=5))
        assert len(calls) == at_sweep + 1

    @given(
        excess=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=6,
        ),
        moves=st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1.0, -1.0])
                | st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 1.0, -1.0])
                | st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=6, max_size=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_record_equals_the_elementwise_formulas(self, excess, moves):
        e = np.array(excess)
        n = e.size
        labels = tuple(f"z{k + 1}" for k in range(n))
        q = EquilibriumMap(labels=labels, eval_values=lambda v: e.copy())
        prev = PriceVector(labels, [a for a, _ in moves[:n]])
        p = PriceVector(labels, [b for _, b in moves[:n]])
        for before in (None, prev):
            rec = core._record(q, 1, p, before, q._excess(p.values))
            want_sup = float(np.max(np.abs(e)))
            assert np.float64(rec.residual_sup).tobytes() == np.float64(want_sup).tobytes()
            assert rec.is_sub is bool(np.all(e <= 0.0))
            assert rec.is_super is bool(np.all(e >= 0.0))
            if before is None:
                assert rec.nondecreasing is rec.nonincreasing is True
            else:
                assert rec.nondecreasing is bool(np.all(p.values >= prev.values))
                assert rec.nonincreasing is bool(np.all(p.values <= prev.values))


class TestConstantAggregateMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            constant_aggregate_map([2.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            constant_aggregate_map([2.0, 1.0], [[0.5, 1.0], [2.0, 0.0]])

    def test_solutions_form_a_ray(self):
        delta = np.array([2.0, 1.0])
        A = np.array([[0.0, 1.0], [2.0, 0.0]])
        q = constant_aggregate_map(delta, A)
        assert q.m0_function and not q.m_function
        p0 = PriceVector(q.labels, np.array([3.0, 1.0]))
        p, _ = solve(
            q, p0, SolverOptions(residual_tol=1e-12, mode="gauss_seidel")
        )
        assert p.values[1] == pytest.approx(2.0 * p.values[0], rel=1e-9)
        with pytest.raises(MaxSweepsExceeded):
            solve(q, p0, SolverOptions(max_sweeps=50))

    def test_images_sum_to_zero_so_random_pairs_never_compare(self):
        # Ordered images with equal coordinate sums must coincide, so iid
        # sampling cannot produce a comparable pair on this family.
        q = constant_aggregate_map(
            [2.0, 1.0], [[0.0, 1.0], [2.0, 0.0]]
        )
        report = check_m0_strong_set_order(q, 300, rng_seed=42)
        assert report.comparable == 0
        assert report.violations == ()

    def test_invariant_along_the_scaling_ray(self):
        q = constant_aggregate_map(
            [2.0, 1.0], [[0.0, 1.0], [2.0, 0.0]]
        )
        p = PriceVector(q.labels, np.array([0.7, -0.4]))
        shifted = PriceVector(q.labels, p.values + 3.0 * np.array([1.0, 2.0]))
        assert_allclose(q.evaluate(shifted).values, q.evaluate(p).values,
                        atol=1e-12)


class TestPerron:
    def test_two_by_two_by_hand(self):
        v = perron_vector(np.array([2.0, 1.0]), np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert_allclose(v, [0.5, 1.0], atol=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(42)
        delta = rng.uniform(1.0, 3.0, 5)
        A = rng.uniform(0.1, 1.0, (5, 5))
        np.fill_diagonal(A, 0.0)
        A *= delta / A.sum(axis=0)
        v = perron_vector(delta, A)
        B = A / delta[:, None]
        w, vecs = np.linalg.eig(B)
        lead = vecs[:, np.argmin(np.abs(w - 1.0))].real
        lead = lead / lead.max()
        assert_allclose(v, lead, atol=1e-10)

    def test_reducible_rejected(self):
        delta = np.array([1.0, 1.0, 1.0, 1.0])
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1.0
        with pytest.raises(IrreducibilityViolation):
            perron_vector(delta, A)


class TestPropertyChecks:
    def test_mmatrix_is_inverse_isotone(self):
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        report = check_inverse_isotone(q, 400, rng_seed=42)
        assert report.comparable > 0
        assert report.violations == ()

    def test_divergent_matrix_violates(self):
        q = linear_map([[1.0, -2.0], [-2.0, 1.0]])
        report = check_inverse_isotone(q, 400, rng_seed=42)
        assert len(report.violations) > 0

    def test_same_seed_reproducible(self):
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        first = check_inverse_isotone(q, 50, rng_seed=7)
        second = check_inverse_isotone(q, 50, rng_seed=7)
        assert first.comparable == second.comparable

    def test_set_order_separates_m_from_non_m(self):
        good = check_m0_strong_set_order(
            linear_map([[2.0, -1.0], [-1.0, 2.0]]), 400, rng_seed=42
        )
        assert good.comparable > 0 and good.violations == ()
        bad = check_m0_strong_set_order(
            linear_map([[1.0, -2.0], [-2.0, 1.0]]), 400, rng_seed=42
        )
        assert len(bad.violations) > 0

    def test_both_reports_share_one_field_list(self):
        q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
        report = check_m0_strong_set_order(q, 20, rng_seed=1)
        assert type(report) is SetOrderReport
        assert isinstance(report, IsotonicityReport)
        assert dataclasses.fields(report) == dataclasses.fields(IsotonicityReport)
        # Equal fields under the two names are still two different reports.
        same = IsotonicityReport(report.samples, report.comparable, report.violations)
        assert report != same


class TestMapValidation:
    def test_wrong_shape_is_internal_error(self):
        q = EquilibriumMap(
            labels=("a", "b"),
            eval_values=lambda v: np.array([1.0]),
            z_function=True,
            diagonal_isotone=True,
            m_function=False,
            m0_function=False,
        )
        with pytest.raises(InternalError):
            q.evaluate(PriceVector(("a", "b"), np.zeros(2)))

    def test_label_mismatch(self):
        q = linear_map([[1.0]])
        with pytest.raises(ValueError):
            q.evaluate(PriceVector(("other",), np.zeros(1)))

    def test_empty_labels_refused(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            EquilibriumMap(labels=(), eval_values=lambda v: v)
