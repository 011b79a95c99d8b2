"""Lockstep bisection against the scalar per-coordinate loop, bit for bit.

The oracle is the bracket-and-bisect routine as three scalar functions (one
expansion search and two bisection loops), driven one coordinate at a time
through ``residual_at``. The engine runs the same steps as generator
machines and sends each round of probes through one ``residual_block`` call,
so prices, probe counts and error messages must all be the same.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear import (
    BracketOptions,
    EquilibriumMap,
    NonFiniteResidual,
    PriceVector,
    ResponsivenessViolation,
    SolverOptions,
    build_full_assignment_map,
    build_hedonic_map,
    build_transfer_map,
    coordinate_update,
    gauss_seidel_sweep,
    jacobi_sweep,
    linear_map,
    smallest_root,
)
from conftest import (
    labels,
    random_hedonic_market,
    random_ntu_market,
    random_taxes_market,
    random_tu_market,
)

# ---------------------------------------------------------------------------
# The scalar oracle


def _value(f, x):
    v = float(f(x))
    if math.isnan(v):
        raise NonFiniteResidual(f"f({x!r}) is NaN")
    return v


def _bisect(f, lo, hi, tol, strict):
    # strict: f(lo) < 0 <= f(hi), returns hi; else f(lo) <= 0 < f(hi), lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        v = _value(f, mid)
        if v < 0 or (not strict and v == 0):
            lo = mid
        else:
            hi = mid
    return hi if strict else lo


def scalar_root(f, opts: BracketOptions, hint: float) -> float:
    hint = float(hint)
    fh = _value(f, hint)
    if fh < 0:
        lo, hi, h = hint, None, opts.initial_halfwidth
        for _ in range(opts.max_expansions):
            cand = hint + h
            if _value(f, cand) >= 0:
                hi = cand
                break
            lo = cand
            h *= opts.growth_factor
        if hi is None:
            raise ResponsivenessViolation("no point with f >= 0 found above the hint")
        return _bisect(f, lo, hi, opts.bisection_tol, True)
    hi, lo, h = hint, None, opts.initial_halfwidth
    pos_hi = hint if fh > 0 else None
    le_lo = hint if fh == 0 else None
    for _ in range(opts.max_expansions):
        cand = hint - h
        fc = _value(f, cand)
        if fc < 0:
            lo = cand
            break
        hi = cand
        if fc > 0:
            pos_hi = cand
        elif le_lo is None:
            le_lo = cand
        h *= opts.growth_factor
    if lo is not None:
        return _bisect(f, lo, hi, opts.bisection_tol, True)
    if le_lo is None:
        raise ResponsivenessViolation("no point with f <= 0 found below the hint")
    if pos_hi is None:
        h = opts.initial_halfwidth
        for _ in range(opts.max_expansions):
            cand = hint + h
            fc = _value(f, cand)
            if fc > 0:
                pos_hi = cand
                break
            le_lo = cand
            h *= opts.growth_factor
        if pos_hi is None:
            raise ResponsivenessViolation("f has no sign change on the searched range")
    return _bisect(f, le_lo, pos_hi, opts.bisection_tol, False)


def _damp(old, new, damping):
    if damping == 1.0:
        return new
    with np.errstate(over="ignore", invalid="ignore"):
        return old + damping * (new - old)


def scalar_sweep(q: EquilibriumMap, p: PriceVector, opts: SolverOptions, frozen: bool):
    """One sweep, one coordinate and one ``residual_at`` probe at a time."""
    if frozen or not opts.sweep_order:
        order = range(len(q.labels))
    else:
        order = [q.index(z) for z in opts.sweep_order]
    values = p.values.copy()
    read = p.values if frozen else values
    for i in order:
        z = q.labels[i]
        try:
            new = scalar_root(
                lambda t: q.residual_at(i, t, read), opts.root_finder, read[i]
            )
        except ResponsivenessViolation as exc:
            raise ResponsivenessViolation(f"coordinate {z!r}: {exc}") from None
        if not math.isfinite(new):
            raise NonFiniteResidual(f"coordinate {z!r}: update is non-finite")
        if not frozen:
            new = _damp(values[i], new, opts.damping)
            if not math.isfinite(new):
                raise NonFiniteResidual(f"coordinate {z!r}: damped update non-finite")
        values[i] = new
    if frozen:
        values = _damp(p.values, values, opts.damping)
        for i in range(len(values)):
            if not math.isfinite(values[i]):
                z = q.labels[i]
                raise NonFiniteResidual(f"coordinate {z!r}: damped update non-finite")
    return values


def outcome(fn):
    """The bytes of a result (signed zeros included), or the error raised."""
    try:
        out = fn()
    except (ResponsivenessViolation, NonFiniteResidual) as exc:
        return type(exc).__name__, str(exc)
    return "ok", np.asarray(getattr(out, "values", out), dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Probe counting


class Probes:
    """Counts probes through ``residual_at`` and through a map's hook."""

    def __init__(self):
        self.count = 0
        self.hook_calls = 0
        self.per = collections.Counter()  # residual_at probes per coordinate

    def watch(self, q: EquilibriumMap) -> EquilibriumMap:
        if q.residual_block is None:
            return q
        inner = q.residual_block

        def hook(idx, probes, values):
            self.count += len(idx)
            self.hook_calls += 1
            return inner(idx, probes, values)

        return dataclasses.replace(q, residual_block=hook)

    @contextlib.contextmanager
    def residual_at(self):
        inner = EquilibriumMap.residual_at

        def counted(q, i, t, values):
            self.count += 1
            self.per[i] += 1
            return inner(q, i, t, values)

        EquilibriumMap.residual_at = counted
        try:
            yield
        finally:
            EquilibriumMap.residual_at = inner


# ---------------------------------------------------------------------------
# Random bisection maps


def bisection_map(kind: str, seed: int, nx: int, ny: int, y0: int, pi: float):
    rng = np.random.default_rng(seed)
    family, _, layout = kind.partition("-")
    if family == "hedonic":
        return build_hedonic_map(random_hedonic_market(rng, nx, max(ny, 1), nx + ny))
    if family == "linear":
        # No closed form and no hook. A zero diagonal entry never changes
        # sign (ResponsivenessViolation); some coordinates turn NaN above a
        # cut (NonFiniteResidual).
        n = nx + ny
        A = -rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(A, rng.choice([0.0, 2.0, float(n)], n))
        cut = np.where(rng.random(n) < 0.3, rng.uniform(-5.0, 5.0, n), np.inf)

        def eval_values(values):
            return np.where(values > cut, np.nan, A @ values)

        return dataclasses.replace(
            linear_map(A), eval_values=eval_values, update_value=None
        )
    make = {
        "taxes": random_taxes_market,
        "ntu": random_ntu_market,
        "tu": lambda rng, nx, ny, singles: random_tu_market(rng, nx, ny, 1.0, singles),
    }[family]
    if layout == "singles":
        q = build_transfer_map(make(rng, nx, ny, singles=True))
    else:
        market = make(rng, nx, max(ny, 1), singles=False)
        y_label = market.y_labels[y0 % len(market.y_labels)]
        q = build_full_assignment_map(market, y0=y_label, pi=pi)
    return dataclasses.replace(q, update_value=None, update_block=None)


def visit_order(q: EquilibriumMap, seed: int, keep_blocks: bool) -> tuple[str, ...]:
    """A random permutation; with ``keep_blocks`` one that visits each block
    whole (in random block order, shuffled inside), so blocks run in lockstep."""
    rng = np.random.default_rng([seed, 2])
    if not keep_blocks or q.blocks is None:
        return tuple(q.labels[i] for i in rng.permutation(len(q.labels)))
    order = []
    for b in rng.permutation(len(q.blocks)):
        lo, hi = q.blocks[b]
        order += [q.labels[i] for i in lo + rng.permutation(hi - lo)]
    return tuple(order)


KINDS = [
    "taxes-singles", "taxes-pinned", "ntu-singles", "ntu-pinned",
    "tu-singles", "tu-pinned", "hedonic", "linear",
]


@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 4),
    ny=st.integers(0, 4),
    y0=st.integers(0, 3),
    pi=st.floats(-1.0, 1.0),
    scale=st.sampled_from([0.5, 3.0, 30.0]),
    damping=st.sampled_from([1.0, 0.5, 0.9]),
    order=st.sampled_from([None, "any", "blocks"]),
    halfwidth=st.sampled_from([1.0, 0.01, 8.0]),
    growth=st.sampled_from([2.0, 1.5, 7.0]),
    expansions=st.sampled_from([60, 1, 3, 8]),
    tol=st.sampled_from([1e-12, 1e-6]),
)
@settings(max_examples=120, deadline=None)
def test_lockstep_sweeps_equal_scalar_loop(
    kind, seed, nx, ny, y0, pi, scale, damping, order, halfwidth, growth,
    expansions, tol,
):
    q = bisection_map(kind, seed, nx, ny, y0, pi)
    rng = np.random.default_rng([seed, 1])
    p = PriceVector(q.labels, rng.uniform(-scale, scale, len(q.labels)))
    sweep_order = None if order is None else visit_order(q, seed, order == "blocks")
    opts = SolverOptions(
        damping=damping,
        sweep_order=sweep_order,
        root_finder=BracketOptions(halfwidth, growth, expansions, tol),
    )
    for sweep, frozen in ((jacobi_sweep, True), (gauss_seidel_sweep, False)):
        scalar, lockstep = Probes(), Probes()
        with scalar.residual_at():
            expected = outcome(lambda: scalar_sweep(q, p, opts, frozen))
        watched = lockstep.watch(q)
        with lockstep.residual_at():
            got = outcome(lambda: sweep(watched, p, opts))
        assert got == expected
        if expected[0] == "ok":
            assert lockstep.count == scalar.count


@pytest.mark.parametrize("kind", ["taxes-singles", "taxes-pinned", "hedonic"])
def test_each_hook_call_is_one_round(kind):
    # Jacobi runs every coordinate in one lockstep run and Gauss-Seidel one
    # run per block, so a sweep takes as many hook calls as its runs' longest
    # scalar root searches. A coordinate outside a block is its own run and
    # probes through residual_at.
    q = bisection_map(kind, 4, 3, 4, 1, 0.2)
    p = PriceVector(q.labels, np.random.default_rng(4).uniform(-2, 2, len(q.labels)))
    opts = SolverOptions()
    for sweep, frozen in ((jacobi_sweep, True), (gauss_seidel_sweep, False)):
        scalar = Probes()
        with scalar.residual_at():
            scalar_sweep(q, p, opts, frozen)
        if frozen:
            runs = [range(len(q.labels))]
        else:
            runs = [range(*b) for b in q.blocks or ()]
        lockstep = Probes()
        watched = lockstep.watch(q)
        with lockstep.residual_at():
            sweep(watched, p, opts)
        assert lockstep.count == scalar.count
        outside = set(range(len(q.labels))).difference(*runs)
        assert sum(lockstep.per.values()) == sum(scalar.per[i] for i in outside)
        assert lockstep.hook_calls == sum(max(scalar.per[i] for i in r) for r in runs)


@pytest.mark.parametrize(
    "kind", ["taxes-singles", "taxes-pinned", "ntu-singles", "ntu-pinned", "tu-pinned", "hedonic"]
)
@pytest.mark.parametrize("nx, ny", [(3, 2), (17, 9), (11, 26)])
def test_hooks_equal_residual_at(kind, nx, ny):
    # Sums of 9 and more terms, where numpy's pairwise order differs from a
    # plain fold, so each batch must reduce along the same axis as the map.
    rng = np.random.default_rng([nx, ny])
    q = bisection_map(kind, nx * ny, nx, ny, 4, 0.3)
    values = rng.uniform(-3.0, 3.0, len(q.labels))
    idx = rng.integers(0, len(q.labels), 40)
    probes = rng.uniform(-8.0, 8.0, 40)
    want = [q.residual_at(int(i), t, values) for i, t in zip(idx, probes)]
    assert q.residual_block(idx, probes, values).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# Error order


def scripted_map(residuals) -> EquilibriumMap:
    """A map whose coordinate ``i`` has residual ``residuals[i](t)``."""

    def eval_values(values):
        return np.array([f(t) for f, t in zip(residuals, values)])

    return EquilibriumMap(labels=labels("z", len(residuals)), eval_values=eval_values)


def test_first_coordinate_in_visit_order_is_named():
    # z1 never changes sign and fails after every expansion; z4 is NaN at its
    # first probe, so it fails in the first lockstep round.
    q = scripted_map([
        lambda t: 1.0,
        lambda t: t - 0.25,
        lambda t: t + 1.0,
        lambda t: float("nan"),
    ])
    p = PriceVector(q.labels, np.zeros(4))
    opts = SolverOptions()
    for sweep, frozen in ((jacobi_sweep, True), (gauss_seidel_sweep, False)):
        expected = outcome(lambda: scalar_sweep(q, p, opts, frozen))
        assert expected[0] == "ResponsivenessViolation" and "'z1'" in expected[1]
        assert outcome(lambda: sweep(q, p, opts)) == expected
    opts = SolverOptions(sweep_order=("z4", "z3", "z2", "z1"))
    expected = outcome(lambda: scalar_sweep(q, p, opts, False))
    assert expected == ("NonFiniteResidual", "f(0.0) is NaN")
    assert outcome(lambda: gauss_seidel_sweep(q, p, opts)) == expected


def test_coordinate_update_runs_one_machine():
    q = bisection_map("taxes-pinned", 21, 3, 4, 2, 0.5)
    p = PriceVector(q.labels, np.random.default_rng(21).uniform(-1, 1, len(q.labels)))
    opts = SolverOptions()
    for i, z in enumerate(q.labels):
        want = scalar_root(lambda t: q.residual_at(i, t, p.values), opts.root_finder, p.values[i])
        assert coordinate_update(q, z, p, opts) == want


# ---------------------------------------------------------------------------
# The public scalar routine


def piecewise(kind: int, a: float, b: float):
    """Nondecreasing test functions, with plateaus and NaN regions."""
    return [
        lambda x: a * (x - b),
        lambda x: max(a * (x - b), 0.0),
        lambda x: min(max(x - b, -a), a),
        lambda x: max(x - b, 0.0) - (x < b - a) * 1.0,
        lambda x: a if x > b else 0.0,
        lambda x: float("nan") if x > b + a else x - b,
        lambda x: -a,
        lambda x: 0.0,
    ][kind]


@given(
    kind=st.integers(0, 7),
    a=st.floats(0.001, 50.0),
    b=st.floats(-100.0, 100.0),
    hint=st.floats(-100.0, 100.0),
    halfwidth=st.sampled_from([1.0, 0.01, 8.0]),
    growth=st.sampled_from([2.0, 1.5, 7.0]),
    expansions=st.sampled_from([60, 1, 3, 8]),
)
@settings(max_examples=300, deadline=None)
def test_smallest_root_takes_the_scalar_probes(
    kind, a, b, hint, halfwidth, growth, expansions
):
    f = piecewise(kind, a, b)
    opts = BracketOptions(halfwidth, growth, expansions)
    seen = {"oracle": [], "engine": []}

    def probe(name):
        def g(x):
            seen[name].append(x)
            return f(x)
        return g

    expected = outcome(lambda: scalar_root(probe("oracle"), opts, hint))
    assert outcome(lambda: smallest_root(probe("engine"), opts, hint)) == expected
    assert seen["engine"] == seen["oracle"]



def test_hedonic_hook_in_batches(monkeypatch):
    import marketclear.hedonic as hedonic

    monkeypatch.setattr(hedonic, "_BATCH_CELLS", 20)
    q = build_hedonic_map(random_hedonic_market(np.random.default_rng(5), 2, 3, 6))
    values = np.random.default_rng(6).uniform(-2.0, 2.0, 6)
    idx, probes = np.array([5, 0, 3, 3, 1, 2, 4]), np.linspace(-3.0, 3.0, 7)
    want = [q.residual_at(int(i), t, values) for i, t in zip(idx, probes)]
    assert q.residual_block(idx, probes, values).tobytes() == np.asarray(want).tobytes()
