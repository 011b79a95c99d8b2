"""Lockstep bisection against the scalar per-coordinate loop, bit for bit.

The oracle is the bracket-and-bisect routine as three scalar functions (one
expansion search and two bisection loops), driven one coordinate at a time
through ``residual_at``. The engine runs the same steps as one generator
machine per coordinate and sends each round of probes through one
``residual_block`` call. On small runs a round also fetches ahead (the
hint and both first expansion probes, then the whole bisection path to a
secant estimate of each root) and feeds the values to the machine as it
asks for them, so the engine's probes of a coordinate contain the oracle's,
in order, among others; prices and error messages must be the same,
whatever is fetched ahead.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import marketclear.core as core
from marketclear import (
    BracketOptions,
    EquilibriumMap,
    MaxSweepsExceeded,
    NonFiniteResidual,
    PriceVector,
    ResponsivenessViolation,
    SolverOptions,
    build_full_assignment_map,
    build_hedonic_map,
    build_housing_full_assignment_map,
    build_housing_map,
    build_ot_map,
    build_matching_map,
    build_transfer_map,
    constant_aggregate_map,
    coordinate_update,
    gauss_seidel_sweep,
    jacobi_sweep,
    linear_map,
    singles_supersolution,
    smallest_root,
    solve,
    uniform_subsolution,
    uniform_supersolution,
)
from conftest import (
    labels,
    random_hedonic_market,
    random_individual_market,
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


# Set while the oracle bisects, so probe counters can tell the phases apart;
# "span" is the bracket the pending bisection probe halves.
PHASE = {"bisect": False, "span": None}


def _bisect(f, lo, hi, tol, strict):
    PHASE["bisect"] = True
    try:
        return _bisect_loop(f, lo, hi, tol, strict)
    finally:
        PHASE["bisect"] = False


def _bisect_loop(f, lo, hi, tol, strict):
    # strict: f(lo) < 0 <= f(hi), returns hi; else f(lo) <= 0 < f(hi), lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        PHASE["span"] = lo, hi
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
    """Records probes through ``residual_at`` and through a map's hook."""

    def __init__(self):
        self.hook_calls = 0
        self.seq = collections.defaultdict(list)  # probes per coordinate, in order
        self.per = collections.Counter()  # residual_at probes per coordinate
        self.bisect = collections.Counter()  # those made while the oracle bisects
        self.value = collections.defaultdict(dict)  # residual_at values by probe
        self.span = collections.defaultdict(list)  # the bracket of each bisection probe

    def watch(self, q: EquilibriumMap) -> EquilibriumMap:
        if q.residual_block is None:
            return q
        inner = q.residual_block

        def hook(idx, probes, values):
            self.hook_calls += 1
            for i, t in zip(np.asarray(idx).tolist(), np.asarray(probes).tolist()):
                self.seq[i].append(t)
            return inner(idx, probes, values)

        return dataclasses.replace(q, residual_block=hook)

    @contextlib.contextmanager
    def residual_at(self):
        inner = EquilibriumMap.residual_at

        def counted(q, i, t, values):
            self.seq[i].append(float(t))
            self.per[i] += 1
            self.bisect[i] += PHASE["bisect"]
            if PHASE["bisect"]:
                self.span[i].append(PHASE["span"])
            v = self.value[i][float(t)] = inner(q, i, t, values)
            return v

        EquilibriumMap.residual_at = counted
        try:
            yield
        finally:
            EquilibriumMap.residual_at = inner


def substituted(q: EquilibriumMap, i: int, t: float, values) -> float:
    """Residual of coordinate ``i`` at ``t``: ``eval_values`` on a copy of
    ``values`` with ``t`` substituted."""
    probe = np.array(values, dtype=float)
    probe[i] = t
    return float(q.eval_values(probe)[i])


def contains_in_order(longer: list, shorter: list) -> bool:
    """True iff ``shorter`` is a subsequence of ``longer``."""
    rest = iter(longer)
    return all(any(t == u for u in rest) for t in shorter)


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
    return dataclasses.replace(q, update_value=None)


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
        if expected[0] != "ok":
            continue
        for i, probes in scalar.seq.items():
            assert contains_in_order(lockstep.seq[i], probes)
        if q.residual_block is None:
            assert lockstep.seq == scalar.seq


def subtree_rounds(scalar: Probes, i: int, d: int) -> int:
    """Rounds coordinate ``i`` took when each round fetched the next ``d``
    bisection levels below its bracket (all ``2**d - 1`` midpoints), from
    its scalar probes: the first round fetched the hint, both first
    expansion probes and ``d`` levels below either bracket they close, any
    further expansion took a round of its own, then each round took the
    next ``d`` levels."""
    bisect = scalar.bisect[i]
    expansions = scalar.per[i] - bisect - 1
    if expansions == 1:
        return max(1, -(-bisect // d))
    return expansions + -(-bisect // d)


def secant(lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Regula falsi on ``[lo, hi]``, clamped to it; its midpoint where the
    secant is undefined."""
    den = f_hi - f_lo
    r = lo - f_lo * ((hi - lo) / den) if den > 0 else math.nan
    return 0.5 * (lo + hi) if math.isnan(r) else min(max(r, lo), hi)


def path_rounds(scalar: Probes, i: int, opts: BracketOptions) -> int:
    """Rounds coordinate ``i`` takes in a run that fetches ahead, replayed
    from its scalar probes and values. The first round fetches the hint and
    ``hint -/+ h``; any further expansion probe takes a round of its own.
    Then each round fetches the bisection path from the current bracket to
    its secant root, and the machine reads as much of it, in order, as its
    own probes follow."""
    seq, f, spans = scalar.seq[i], scalar.value[i], scalar.span[i]
    search = len(seq) - scalar.bisect[i]
    hint, h = seq[0], opts.initial_halfwidth
    read = 0
    for t in (hint, hint - h, hint + h):
        read += read < search and seq[read] == t
    rounds = 1 + search - read
    read = search
    while read < len(seq):
        lo, hi = spans[read - search]
        r = secant(lo, f[lo], hi, f[hi])
        while hi - lo > opts.bisection_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            read += read < len(seq) and seq[read] == mid
            lo, hi = (mid, hi) if mid < r else (lo, mid)
        rounds += 1
    return rounds


@pytest.mark.parametrize("kind", ["taxes-singles", "taxes-pinned", "hedonic"])
def test_each_hook_call_is_one_round(kind, monkeypatch):
    # Jacobi runs every coordinate in one lockstep run and Gauss-Seidel one
    # run per block. A run takes as many hook calls as its slowest
    # coordinate: path_rounds when it fetches ahead, no more than rounds of
    # the old 2- or 4-level subtrees took and fewer than the scalar loop's,
    # and exactly its probes with a budget of 1, which fetches nothing
    # ahead. A coordinate outside a block is a one-coordinate run of its
    # own, so the engine never probes through residual_at.
    q = bisection_map(kind, 4, 3, 4, 1, 0.2)
    p = PriceVector(q.labels, np.random.default_rng(4).uniform(-2, 2, len(q.labels)))
    opts = SolverOptions()
    for budget, frozen in itertools.product((core._ROUND_BUDGET, 1), (True, False)):
        monkeypatch.setattr(core, "_ROUND_BUDGET", budget)
        sweep = jacobi_sweep if frozen else gauss_seidel_sweep
        scalar = Probes()
        with scalar.residual_at():
            scalar_sweep(q, p, opts, frozen)
        if frozen:
            runs = [range(len(q.labels))]
        else:
            runs = [range(*b) for b in q.blocks or ()]
            outside = set(range(len(q.labels))).difference(*runs)
            runs += [range(i, i + 1) for i in sorted(outside)]
        lockstep = Probes()
        watched = lockstep.watch(q)
        with lockstep.residual_at():
            sweep(watched, p, opts)
        for i, probes in scalar.seq.items():
            assert contains_in_order(lockstep.seq[i], probes)
        assert sum(lockstep.per.values()) == 0
        rounds = subtree = scalar_rounds = 0
        for r in runs:
            assert core._prefetches(q, len(r)) == (budget > 1)
            scalar_rounds += max(scalar.per[i] for i in r)
            if budget == 1:
                rounds += max(scalar.per[i] for i in r)
                continue
            rounds += max(path_rounds(scalar, i, opts.root_finder) for i in r)
            # The old depth: 2 for a 7-variety hedonic run (49 cells a
            # probe), else 4.
            d = 2 if kind == "hedonic" and len(r) > 1 else 4
            subtree += max(subtree_rounds(scalar, i, d) for i in r)
        assert lockstep.hook_calls == rounds
        if budget == 1:
            assert lockstep.seq == scalar.seq
        elif runs:
            assert rounds <= subtree
            assert lockstep.hook_calls < scalar_rounds


@pytest.mark.parametrize(
    "kind", ["taxes-singles", "taxes-pinned", "ntu-singles", "ntu-pinned", "tu-pinned", "hedonic"]
)
@pytest.mark.parametrize("nx, ny", [(3, 2), (17, 9), (11, 26)])
def test_hooks_equal_residual_at(kind, nx, ny):
    # Sums of 9 and more terms, where numpy's pairwise order differs from a
    # plain fold, so each batch must reduce along the same axis as the map.
    # residual_at is the hook's one-entry call, so the oracle substitutes
    # each probe into eval_values.
    rng = np.random.default_rng([nx, ny])
    q = bisection_map(kind, nx * ny, nx, ny, 4, 0.3)
    values = rng.uniform(-3.0, 3.0, len(q.labels))
    idx = rng.integers(0, len(q.labels), 40)
    probes = rng.uniform(-8.0, 8.0, 40)
    want = [substituted(q, int(i), t, values) for i, t in zip(idx, probes)]
    assert q.residual_block(idx, probes, values).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# The hooks against the substitution oracle, bit for bit

# Side lengths around numpy's pairwise-sum thresholds: fewer than 8 terms
# are folded in order, 8 to 128 go through eight partial sums, and longer
# sums split in halves.
SIDES = st.sampled_from([1, 2, 8, 9, 130])
BATCHES = st.sampled_from([1, 2, 5, 17])
BIPARTITE = [
    "tu-singles", "tu-pinned", "taxes-singles", "taxes-pinned",
    "ntu-singles", "ntu-pinned", "ot", "housing-singles", "housing-pinned",
]


def bipartite_map(kind: str, rng, nx: int, ny: int, y0: int, pi: float):
    """A bipartite map with its residual_block hook, of any layout."""
    family, _, layout = kind.partition("-")
    if family == "ot":
        return build_ot_map(random_tu_market(rng, nx, ny, 1.0, singles=False))
    singles = layout == "singles"
    market = {
        "tu": lambda: random_tu_market(rng, nx, ny, 0.7, singles),
        "taxes": lambda: random_taxes_market(rng, nx, ny, singles),
        "ntu": lambda: random_ntu_market(rng, nx, ny, singles),
        "housing": lambda: random_ntu_market(rng, nx, ny, singles),
    }[family]()
    housing = family == "housing"
    if singles:
        return (build_housing_map if housing else build_transfer_map)(market)
    build = build_housing_full_assignment_map if housing else build_full_assignment_map
    return build(market, y0=market.y_labels[y0 % ny], pi=pi)


def with_signed_zeros(rng, values):
    """``values`` with about a quarter of the entries set to 0.0 or -0.0."""
    values = np.array(values, dtype=float)
    zero = rng.random(values.size) < 0.25
    values[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return values


def oracle(q: EquilibriumMap, idx, probes, values) -> bytes:
    return np.array(
        [substituted(q, int(i), t, values) for i, t in zip(idx, probes)]
    ).tobytes()


@given(
    kind=st.sampled_from(BIPARTITE),
    nx=SIDES,
    ny=SIDES,
    sides=st.sampled_from(["x", "y", "both"]),
    k=BATCHES,
    y0=st.integers(0, 200),
    pi=st.sampled_from([0.0, -0.0, 0.4]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_bipartite_hook_equals_substitution(kind, nx, ny, sides, k, y0, pi, seed):
    # x probes alone and y probes alone take the broadcast kernel, a batch
    # of both the one flat pass; every entry must be eval_values with its
    # probe substituted, signed zeros included.
    rng = np.random.default_rng(seed)
    q = bipartite_map(kind, rng, nx, ny, y0, pi)
    xs, ys = np.arange(nx), np.arange(nx, len(q.labels))
    pool = {"x": xs, "y": ys if ys.size else xs, "both": np.arange(len(q.labels))}[sides]
    idx = rng.choice(pool, k)
    if sides == "both" and ys.size and k > 1:
        idx[:2] = rng.choice(xs), rng.choice(ys)  # a mixed batch
        rng.shuffle(idx)
    values = with_signed_zeros(rng, rng.uniform(-3.0, 3.0, len(q.labels)))
    probes = with_signed_zeros(rng, rng.uniform(-6.0, 6.0, k))
    got = q.residual_block(idx, probes, values)
    assert got.tobytes() == oracle(q, idx, probes, values)


@given(nx=SIDES, ny=SIDES, nz=SIDES, k=BATCHES, seed=st.integers(0, 2**32 - 1))
# Z = 1, where eval_values sums the types pairwise rather than folding
# them; X = 1; a batch of one, where a (1, X) sum would go pairwise.
@example(nx=9, ny=130, nz=1, k=17, seed=0)
@example(nx=1, ny=9, nz=9, k=1, seed=1)
@example(nx=130, ny=8, nz=2, k=1, seed=2)
@settings(max_examples=80, deadline=None)
def test_hedonic_hook_equals_substitution(nx, ny, nz, k, seed):
    rng = np.random.default_rng(seed)
    q = build_hedonic_map(random_hedonic_market(rng, nx, ny, nz))
    assert q.probe_cells == (nx + ny) * nz
    idx = rng.integers(0, nz, k)
    values = with_signed_zeros(rng, rng.uniform(-2.0, 2.0, nz))
    probes = with_signed_zeros(rng, rng.uniform(-4.0, 4.0, k))
    got = q.residual_block(idx, probes, values)
    assert got.tobytes() == oracle(q, idx, probes, values)


def excess_map(kind: str, rng, nx: int, ny: int, y0: int, pi: float):
    """A map of any builder: with the residual_block hook (the bipartite
    layouts and hedonic) or without it."""
    if kind in BIPARTITE:
        return bipartite_map(kind, rng, nx, ny, y0, pi)
    if kind == "hedonic":
        return build_hedonic_map(random_hedonic_market(rng, nx, ny, max(nx, ny)))
    if kind == "matching":
        return build_matching_map(random_individual_market(rng, min(nx, 9), min(ny, 9)))
    n = nx + ny
    A = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(A, 0.0)
    if kind == "linear":
        return linear_map(np.diag(A.sum(axis=0) + 0.5) - A)
    return constant_aggregate_map(A.sum(axis=0), A)


@given(
    kind=st.sampled_from([*BIPARTITE, "hedonic", "linear", "constant-aggregate", "matching"]),
    nx=SIDES,
    ny=SIDES,
    y0=st.integers(0, 200),
    pi=st.sampled_from([0.0, -0.0, 0.4]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_excess_at_the_hint_is_the_residual_there(kind, nx, ny, y0, pi, seed):
    # A Jacobi solve hands each bisection the trace record's excess as the
    # value at its hint, in place of a probe there: entry i of Q(p) must be
    # the residual of coordinate i at p_i, bit for bit, on every builder.
    rng = np.random.default_rng(seed)
    q = excess_map(kind, rng, nx, ny, y0, pi)
    values = with_signed_zeros(rng, rng.uniform(-3.0, 3.0, len(q.labels)))
    excess = q._excess(values)
    for i, hint in enumerate(values):
        got = q.residuals_at(np.array([i], dtype=np.intp), np.array([hint]), values)
        assert got.tobytes() == excess[i:i + 1].tobytes(), i


def test_hedonic_batches_stay_within_the_cell_bound(monkeypatch):
    # A batch row is one (X+Y, Z) array of utilities; with more consumer
    # types than producers, counting X*Z or Y*Z cells alone would overrun.
    import marketclear.hedonic as hedonic

    market = random_hedonic_market(np.random.default_rng(3), 2, 12, 10)
    rng = np.random.default_rng(4)
    idx, probes = rng.integers(0, 10, 100), rng.uniform(-3.0, 3.0, 100)
    values = rng.uniform(-2.0, 2.0, 10)
    whole = build_hedonic_map(market).residual_block(idx, probes, values)
    sizes = []

    class Counted:
        # numpy, with the size of every exp result recorded: the largest
        # arrays of a slice (utilities, weights) all have that shape.
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            out = np.exp(x)
            sizes.append(out.size)
            return out

    monkeypatch.setattr(hedonic, "_BATCH_CELLS", 4096)
    monkeypatch.setattr(hedonic, "np", Counted())
    sliced = build_hedonic_map(market).residual_block(idx, probes, values)
    assert max(sizes) == (4096 // 140) * 140
    assert sliced.tobytes() == whole.tobytes()


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


def hooked_map(residuals) -> EquilibriumMap:
    """:func:`scripted_map` with a ``residual_block`` hook, so its lockstep
    runs fetch ahead."""

    def residual_block(idx, probes, values):
        pairs = zip(np.asarray(idx).tolist(), np.asarray(probes).tolist())
        return np.array([residuals[i](t) for i, t in pairs])

    return dataclasses.replace(scripted_map(residuals), residual_block=residual_block)


# Plain roots, a root at the hint, and a plateau whose boundary root is
# bisected on f <= 0.
SPECULATED = [
    lambda t: t - 0.3137,
    lambda t: 2.0 * (t + 1.7),
    lambda t: t,
    lambda t: max(t - 0.4, 0.0),
]


def scalar_probes(q: EquilibriumMap, p: PriceVector, opts: SolverOptions):
    scalar = Probes()
    with scalar.residual_at():
        expected = outcome(lambda: scalar_sweep(q, p, opts, True))
    return expected, scalar.seq


def test_nan_off_the_scalar_path_is_never_read():
    plain = hooked_map(SPECULATED)
    p = PriceVector(plain.labels, np.zeros(len(SPECULATED)))
    opts = SolverOptions()
    expected, path = scalar_probes(plain, p, opts)
    assert expected[0] == "ok"
    served = []

    def poisoned(i):
        def f(t):
            if t in path[i]:
                return SPECULATED[i](t)
            served.append(t)
            return float("nan")
        return f

    q = hooked_map([poisoned(i) for i in range(len(SPECULATED))])
    assert core._prefetches(q, len(SPECULATED))
    assert outcome(lambda: jacobi_sweep(q, p, opts)) == expected
    assert served


@pytest.mark.parametrize("at", [1, 2, 3, 4, 5, 6, 9, 20])
def test_nan_on_the_scalar_path_names_its_probe(at):
    # Probe ``at`` of z1's scalar sequence (0 is the hint, 1 the first
    # expansion, the rest bisection midpoints) turns NaN: the prefetch
    # fetches it in some round and must raise it as the scalar loop does.
    p = PriceVector(labels("z", len(SPECULATED)), np.zeros(len(SPECULATED)))
    opts = SolverOptions()
    _, path = scalar_probes(hooked_map(SPECULATED), p, opts)
    bad = path[0][at]

    def first(t):
        return float("nan") if t == bad else SPECULATED[0](t)

    q = hooked_map([first, *SPECULATED[1:]])
    expected = outcome(lambda: scalar_sweep(q, p, opts, True))
    assert expected == ("NonFiniteResidual", f"f({bad!r}) is NaN")
    assert outcome(lambda: jacobi_sweep(q, p, opts)) == expected


def test_speculation_depth_rule():
    # Whether a run fetches ahead: only while three probes per coordinate, a
    # first round, cost at most 2688 cells.
    rng = np.random.default_rng(8)
    prefetches = core._prefetches
    # Wide kernels, where a wider round costs more than it saves.
    taxes40 = build_transfer_map(random_taxes_market(rng, 40, 40))
    hedonic10 = build_hedonic_map(random_hedonic_market(rng, 10, 10, 10))
    hedonic20 = build_hedonic_map(random_hedonic_market(rng, 20, 20, 20))
    assert (taxes40.probe_cells, hedonic10.probe_cells) == (40, 200)
    assert not prefetches(taxes40, len(taxes40.labels))  # 80 coordinates, Jacobi
    assert not prefetches(taxes40, 40)  # one side's block, Gauss-Seidel
    assert not prefetches(hedonic10, len(hedonic10.labels))
    assert not prefetches(hedonic20, len(hedonic20.labels))
    # The sizes of the benchmark's bisection instances, hedonic 4x4x4 and
    # taxes 4x4 with singles, and taxes 5x5.
    hedonic4 = build_hedonic_map(random_hedonic_market(rng, 4, 4, 4))
    taxes4 = build_transfer_map(random_taxes_market(rng, 4, 4))
    taxes5 = build_transfer_map(random_taxes_market(rng, 5, 5))
    assert (hedonic4.probe_cells, taxes4.probe_cells) == (32, 4)
    assert prefetches(hedonic4, len(hedonic4.labels))
    assert prefetches(taxes4, len(taxes4.labels))
    assert prefetches(taxes5, len(taxes5.labels))
    # Without the hook a batch is a loop of evaluations: never fetch ahead.
    assert not prefetches(dataclasses.replace(taxes4, residual_block=None), 8)
    # 3 * 44 probes of 20 cells fit, 3 * 45 do not.
    assert [prefetches(taxes4, n) for n in (1, 10, 44, 45)] == [True] * 3 + [False]
    # A map that states no cells prices a probe at 96: up to 9 coordinates.
    unpriced = dataclasses.replace(taxes4, probe_cells=None)
    assert [prefetches(unpriced, n) for n in (1, 2, 4, 5, 9, 10)] == [True] * 5 + [False]


@pytest.mark.parametrize("cells", [0, -3, 2.5, True])
def test_probe_cells_must_be_a_positive_integer(cells):
    with pytest.raises(ValueError, match="probe_cells"):
        EquilibriumMap(labels=("z1",), eval_values=lambda v: v, probe_cells=cells)


def test_small_jacobi_solves_take_few_hook_calls(monkeypatch):
    # Whole Jacobi solves of the benchmark's bisection sizes, taxes 4x4 with
    # singles and hedonic 4x4x4: together at most 2.8 hook calls per sweep
    # (2.42 here), where first rounds that fetched the hint and both
    # expansion probes took 3.62 and runs that fetched 4 or 3 bisection
    # levels a round 10 and 14. Alone, hedonic 4x4x4 takes at most 2.5 per
    # solve (2.16 to 2.31 over seeds 0 to 7), taxes 4x4 2.6 to 2.9. Each
    # trace is the bytes of the solve with a budget of 1, which fetches
    # nothing ahead.
    calls = sweeps = 0
    for seed, family in itertools.product(range(4), ("taxes", "hedonic")):
        rng = np.random.default_rng(seed)
        if family == "taxes":
            market = random_taxes_market(rng, 4, 4)
            q, p0 = build_transfer_map(market), singles_supersolution(market)
        else:
            market = random_hedonic_market(rng, 4, 4, 4)
            q, p0 = build_hedonic_map(market), uniform_supersolution(market)
        runs = {}
        for budget in (1, core._ROUND_BUDGET):
            monkeypatch.setattr(core, "_ROUND_BUDGET", budget)
            probes = Probes()
            _, trace = solve(probes.watch(q), p0, SolverOptions(residual_tol=1e-10))
            runs[budget] = trace.to_csv(), probes.hook_calls, len(trace) - 1
        (plain, plain_calls, n), (csv, hook_calls, _) = runs.values()
        assert csv == plain
        assert plain_calls > 20 * n  # one call per scalar probe
        assert hook_calls <= (2.5 if family == "hedonic" else 4.5) * n
        calls += hook_calls
        sweeps += n
    assert calls <= 2.8 * sweeps


def test_interleaved_solves_keep_their_own_hints(monkeypatch):
    # Two Jacobi solves of one map, from either side, one sweep of each in
    # turn: each must give the trace it gives alone, so no solve's hints
    # reach the other through module or map state.
    market = random_hedonic_market(np.random.default_rng(3), 3, 3, 3)
    q = build_hedonic_map(market)
    starts = {"sup": uniform_supersolution(market), "sub": uniform_subsolution(market)}
    opts = SolverOptions(residual_tol=1e-10)
    alone = {name: solve(q, p, opts)[1].to_csv() for name, p in starts.items()}
    sweep, turns = core.jacobi_sweep, []
    state = {"turn": "sup", "done": set()}
    baton = threading.Condition()

    def take_turns(q, p, opts, **hints):
        me = threading.current_thread().name
        other = "sub" if me == "sup" else "sup"
        with baton:
            assert baton.wait_for(
                lambda: state["turn"] == me or other in state["done"], timeout=60
            )
        out = sweep(q, p, opts, **hints)
        turns.append(me)
        with baton:
            state["turn"] = other
            baton.notify_all()
        return out

    together = {}

    def run(name):
        try:
            together[name] = solve(q, starts[name], opts)[1].to_csv()
        finally:
            with baton:
                state["done"].add(name)
                baton.notify_all()

    monkeypatch.setattr(core, "jacobi_sweep", take_turns)
    threads = [threading.Thread(target=run, args=(name,), name=name) for name in starts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert turns[:6] == ["sup", "sub"] * 3
    assert together == alone


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
        lambda x: float("nan") if b + a / 2 < x < b + a else x - b,
    ][kind]


@given(
    kind=st.integers(0, 8),
    a=st.floats(0.001, 50.0),
    b=st.floats(-100.0, 100.0),
    hint=st.floats(-100.0, 100.0),
    halfwidth=st.sampled_from([1.0, 0.01, 8.0]),
    growth=st.sampled_from([2.0, 1.5, 7.0]),
    expansions=st.sampled_from([60, 1, 3, 8]),
    lean=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
# A NaN band (0.3167, 0.3197) that the scalar path steps over: so does the
# path to the secant root, which is exact on a line, while the path to 0.318
# of the first bracket [0, 1] probes it. And a band (0.3187, 0.3237) the
# scalar path hits.
@example(kind=8, a=0.006, b=0.3137, hint=0.0, halfwidth=1.0, growth=2.0,
         expansions=60, lean=None)
@example(kind=8, a=0.006, b=0.3137, hint=0.0, halfwidth=1.0, growth=2.0,
         expansions=60, lean=0.318)
@example(kind=8, a=0.01, b=0.3137, hint=0.0, halfwidth=1.0, growth=2.0,
         expansions=60, lean=None)
@settings(max_examples=300, deadline=None)
def test_smallest_root_takes_the_scalar_probes(
    kind, a, b, hint, halfwidth, growth, expansions, lean
):
    # One lockstep coordinate that fetches ahead lands on the same root or
    # error from a superset of the scalar probes, whether each path runs to
    # the secant root or to the point ``lean`` of the way up its bracket.
    f = piecewise(kind, a, b)
    opts = BracketOptions(halfwidth, growth, expansions)
    seen = {"oracle": [], "engine": [], "lockstep": []}

    def probe(name):
        def g(x):
            seen[name].append(x)
            return f(x)
        return g

    def lockstep():
        q = hooked_map([probe("lockstep")])
        assert core._prefetches(q, 1)
        if lean is None:
            estimate = core._estimate
        else:
            def estimate(lo, f_lo, hi, f_hi):
                return lo + lean * (hi - lo)
        with mock.patch.object(core, "_estimate", estimate):
            roots, errors = core._lockstep_roots(
                q, [0], np.array([float(hint)]), SolverOptions(root_finder=opts)
            )
        if errors:
            raise errors[0]
        return roots[0]

    expected = outcome(lambda: scalar_root(probe("oracle"), opts, hint))
    assert outcome(lambda: smallest_root(probe("engine"), opts, hint)) == expected
    assert seen["engine"] == seen["oracle"]
    if expected[0] == "ResponsivenessViolation":
        expected = (expected[0], f"coordinate 'z1': {expected[1]}")
    assert outcome(lockstep) == expected
    assert contains_in_order(seen["lockstep"], seen["oracle"])


# Wrong estimates for core._estimate to return, from the right one r.
WRONG_ESTIMATE = {
    "at-lo": lambda r, lo, hi: lo,
    "at-hi": lambda r, lo, hi: hi,
    "outside": lambda r, lo, hi: lo - (hi - lo) if r > 0.5 * (lo + hi) else hi + 1.0,
    "nan": lambda r, lo, hi: math.nan,
}
# Wrong paths for core._path to return, from the right one.
WRONG_PATH = {
    "root-only": lambda points, lo, hi: points[:1],
    "shifted": lambda points, lo, hi: [t + 0.25 * (hi - lo) for t in points],
    "nothing": lambda points, lo, hi: [],
}


def toward(q, values, h):
    """+1 where a machine hinted at ``values`` expands up by ``h`` (its
    value there is negative), -1 where it expands down."""
    return np.where(q._excess(values) < 0, 1.0, -1.0) * h


PREDICT = core._predict

# Wrong first-round guesses for core._predict to return, from the right
# (roots, cuts) and the map, iterate and steps it was given; h is the first
# expansion step. A first round fetches the expansion probe and, when the
# guess lies between it and the hint, the path there, cut at the cut.
WRONG_GUESS = {
    # At the expansion probe, the far edge of the half-bracket.
    "far-edge": lambda q, v, s, right, h: (v + toward(q, v, h), right[1]),
    # In the half-bracket the sign did not pick, and past the far edge.
    "other-side": lambda q, v, s, right, h: (v - toward(q, v, h / 2), right[1]),
    "beyond": lambda q, v, s, right, h: (v + toward(q, v, 2 * h), right[1]),
    # Steps of NaN, steps of 0 (roots 0 * (0 / 0)) and steps whose ratio
    # is infinite.
    "nan-steps": lambda q, v, s, right, h: PREDICT(q, v, tuple(x * math.nan for x in s), None),
    "zero-steps": lambda q, v, s, right, h: PREDICT(q, v, tuple(x * 0.0 for x in s), None),
    "inf-steps": lambda q, v, s, right, h: PREDICT(
        q, v, (np.ones_like(v), *(np.zeros_like(v) for _ in s[1:])), None),
    # Inside the half-bracket while the root lies past the expansion, which
    # then does not flip the sign (h is 1e-3).
    "no-flip": lambda q, v, s, right, h: (v + toward(q, v, h / 2), right[1]),
    # The first path cut after one level.
    "one-level": lambda q, v, s, right, h: (right[0], np.full_like(v, h / 2)),
}


def solve_outcome(q, p, opts):
    """The trace bytes of a solve, also of one that ran out of sweeps, or the
    error it raised."""
    try:
        return "ok", solve(q, p, opts)[1].to_csv()
    except MaxSweepsExceeded as exc:
        return "MaxSweepsExceeded", exc.trace.to_csv()
    except (ResponsivenessViolation, NonFiniteResidual) as exc:
        return type(exc).__name__, str(exc)


def guessed_solves(kind, wrong, monkeypatch):
    # Whole Jacobi solves, whose sweeps get the record's excess and a guess
    # from core._predict: with the wrong guess, with the plain one-probe
    # rounds of a budget of 1, and with sweeps called without hints.
    h = 1e-3 if wrong == "no-flip" else 1.0
    opts = SolverOptions(max_sweeps=12, root_finder=BracketOptions(initial_halfwidth=h))
    asked = []

    def predict(q, values, steps, guess):
        asked.append(len(steps))
        return WRONG_GUESS[wrong](q, values, steps, PREDICT(q, values, steps, guess), h)

    monkeypatch.setattr(core, "_predict", predict)
    sweep, sweeps = core.jacobi_sweep, 0
    for seed in range(3):
        q = bisection_map(kind, seed, 3, 2, 1, 0.2)
        p = PriceVector(q.labels, np.random.default_rng([seed, 1]).uniform(-3, 3, len(q.labels)))
        got = solve_outcome(q, p, opts)
        with monkeypatch.context() as m:
            m.setattr(core, "_ROUND_BUDGET", 1)
            assert solve_outcome(q, p, opts) == got
            m.setattr(core, "jacobi_sweep", lambda q, p, opts, _hints: sweep(q, p, opts))
            assert solve_outcome(q, p, opts) == got
        if got[0] in ("ok", "MaxSweepsExceeded"):
            sweeps = max(sweeps, got[1].count("\n") - 2)
    # A guess needs two steps: solves that ran three sweeps or more asked.
    assert bool(asked) == (sweeps > 2)


@pytest.mark.parametrize("wrong", sorted([*WRONG_ESTIMATE, *WRONG_PATH, *WRONG_GUESS]))
@pytest.mark.parametrize("kind", KINDS)
def test_roots_hold_whatever_is_fetched_ahead(kind, wrong, monkeypatch):
    # The prefetch only picks which probes a round evaluates: each machine
    # is sent the values it asks for, and its pending probe always goes. So
    # a wrong estimate (at either end of the bracket, outside it, NaN), a
    # wrong path (cut short, shifted, empty) or a wrong first-round guess
    # (at or past the edges of the half-bracket, from NaN, zero or infinite
    # steps, before an expansion that does not flip the sign, or cut after
    # one level) can change the hook calls, never a price, a trace or an
    # error.
    if wrong in WRONG_GUESS:
        return guessed_solves(kind, wrong, monkeypatch)
    asked = []
    if wrong in WRONG_ESTIMATE:
        right = core._estimate

        def estimate(lo, f_lo, hi, f_hi):
            asked.append(lo)
            return WRONG_ESTIMATE[wrong](right(lo, f_lo, hi, f_hi), lo, hi)

        monkeypatch.setattr(core, "_estimate", estimate)
    else:
        right = core._path

        def path(lo, hi, r, tol):
            asked.append(lo)
            return WRONG_PATH[wrong](right(lo, hi, r, tol), lo, hi)

        monkeypatch.setattr(core, "_path", path)
    opts = SolverOptions()
    for seed in range(3):
        q = bisection_map(kind, seed, 3, 2, 1, 0.2)
        p = PriceVector(q.labels, np.random.default_rng([seed, 1]).uniform(-3, 3, len(q.labels)))
        for sweep, frozen in ((jacobi_sweep, True), (gauss_seidel_sweep, False)):
            expected = outcome(lambda: scalar_sweep(q, p, opts, frozen))
            assert outcome(lambda: sweep(q, p, opts)) == expected
    assert bool(asked) == (q.residual_block is not None)


def test_hedonic_hook_in_batches(monkeypatch):
    import marketclear.hedonic as hedonic

    monkeypatch.setattr(hedonic, "_BATCH_CELLS", 20)
    q = build_hedonic_map(random_hedonic_market(np.random.default_rng(5), 2, 3, 6))
    values = np.random.default_rng(6).uniform(-2.0, 2.0, 6)
    idx, probes = np.array([5, 0, 3, 3, 1, 2, 4]), np.linspace(-3.0, 3.0, 7)
    want = [substituted(q, int(i), t, values) for i, t in zip(idx, probes)]
    assert q.residual_block(idx, probes, values).tobytes() == np.asarray(want).tobytes()
