"""The bits of closed-form sweeps and of their trace records.

Solves on markets wide enough that numpy sums a kernel row through its
pairwise lanes are pinned by the sha256 of their trace CSV. The closed-form
price and the trace record are checked against straightforward forms of
the same formulas, carried here, byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketclear import (
    NonFiniteResidual,
    PriceVector,
    SolverOptions,
    TraceRecord,
    build_full_assignment_map,
    build_transfer_map,
    full_assignment_supersolution,
    linear_map,
    singles_subsolution,
    singles_supersolution,
    solve,
)
import marketclear.core as core
from marketclear.transfers import _LOG_GUARD, _share_price, _target_terms
from conftest import random_taxes_market, random_tu_market

TOL = 1e-10


def tu_singles(start, mode):
    market = random_tu_market(np.random.default_rng(0), 40, 40)
    return build_transfer_map(market), start(market), mode


def tu_full():
    market = random_tu_market(np.random.default_rng(2), 30, 30, singles=False)
    q = build_full_assignment_map(market)
    return q, full_assignment_supersolution(market), "gauss_seidel"


def taxes():
    market = random_taxes_market(np.random.default_rng(0), 8, 8)
    return build_transfer_map(market), singles_supersolution(market), "jacobi"


# sha256 of trace.to_csv(), solved from each start at residual_tol 1e-10.
PINNED_TRACES = {
    "tu40-jacobi-super": (
        lambda: tu_singles(singles_supersolution, "jacobi"),
        "6acd644ce48fcde6df88c396882a28c655b3ab234648865edf455b286bbd11e6",
    ),
    "tu40-jacobi-sub": (
        lambda: tu_singles(singles_subsolution, "jacobi"),
        "3f65539a4017d17c8158f9872cfbe8067dae78c32e865e9c6a00ebf4abd9c0a0",
    ),
    "tu40-gs-super": (
        lambda: tu_singles(singles_supersolution, "gauss_seidel"),
        "6ed15c4e622f73927fb4281cc99c5ecef61089fec9d5074e649a37c41293e422",
    ),
    "tu40-gs-sub": (
        lambda: tu_singles(singles_subsolution, "gauss_seidel"),
        "5fac335ba1db0b140234c6036349f0ec37cd586ded41e8f51bf631480193626b",
    ),
    "tu30-full-gs-super": (
        tu_full,
        "542e92c59d0b423c85a9c1ccef4c0d7883e5a8e9b268cee8d4264b149a1e8685",
    ),
    "taxes8-jacobi-super": (
        taxes,
        "9cf42085db95d003e5156c8a164270eabba56de50dcb0dce4ce9d38f3ecc73b0",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_trace_matches_recorded_hash(name):
    build, digest = PINNED_TRACES[name]
    q, p0, mode = build()
    _, trace = solve(q, p0, SolverOptions(residual_tol=TOL, mode=mode))
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# The closed-form price


def plain_share_price(log_s, target, scale, singles, side):
    # Every term computed from the target, and both branches evaluated.
    log_ratio = np.log(target) - log_s if side > 0 else log_s - np.log(target)
    if not singles:
        return scale * log_ratio
    big = log_s > _LOG_GUARD
    s = np.exp(np.where(big, 0.0, log_s))
    a = 2.0 * target / (s + np.hypot(s, 2.0 * np.sqrt(target)))
    return np.where(big, scale * log_ratio, side * scale * np.log(a))


GUARD_NEIGHBOURS = [
    math.nextafter(_LOG_GUARD, -math.inf), _LOG_GUARD,
    math.nextafter(_LOG_GUARD, math.inf),
]
LOG_MASSES = st.one_of(
    st.sampled_from([-math.inf, math.inf, 0.0, -0.0, *GUARD_NEIGHBOURS]),
    st.floats(-800.0, 800.0),
    st.floats(_LOG_GUARD - 1.0, _LOG_GUARD + 1.0),
)
TARGETS = st.one_of(
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.7e308]),
    st.floats(1e-300, 1e300),
    st.floats(0.5, 2.0),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.tuples(LOG_MASSES, TARGETS), min_size=1, max_size=9),
    scale=st.sampled_from([1e-3, 0.5, 1.0, 2.0, 7.3, 1e3]),
    singles=st.booleans(),
    side=st.sampled_from([1, -1]),
)
def test_share_price_matches_the_plain_formula(data, scale, singles, side):
    log_s = np.array([d[0] for d in data])
    target = np.array([d[1] for d in data])
    with np.errstate(all="ignore"):
        expected = plain_share_price(log_s, target, scale, singles, side)
        got = _share_price(log_s.copy(), _target_terms(target), scale, singles, side)
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# The trace record


def plain_record(Q, sweep, p, prev, excess):
    # The step vector, and the sup-norm from abs().
    with np.errstate(over="ignore"):
        step = None if prev is None else p.values - prev.values
    lo, hi = float(excess.min()), float(excess.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise core._nonfinite_excess(Q, excess)
    return TraceRecord(
        sweep=sweep,
        prices=p,
        residual_sup=float(np.abs(excess).max()),
        nondecreasing=step is None or bool(step.min() >= 0.0),
        nonincreasing=step is None or bool(step.max() <= 0.0),
        is_sub=hi <= 0.0,
        is_super=lo >= 0.0,
    )


PRICES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324]),
    st.floats(-1e308, 1e308),
)
EXCESSES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


def record_fields(make, *args):
    try:
        rec = make(*args)
    except NonFiniteResidual as exc:
        return str(exc)
    return (
        struct.pack("<d", rec.residual_sup), rec.nondecreasing, rec.nonincreasing,
        rec.is_sub, rec.is_super, type(rec.nondecreasing), type(rec.is_sub),
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(PRICES, PRICES, EXCESSES), min_size=1, max_size=8),
    first=st.booleans(),
)
def test_record_matches_the_plain_formula(rows, first):
    q = linear_map(np.eye(len(rows)))
    p = PriceVector(q.labels, [r[0] for r in rows])
    prev = None if first else PriceVector(q.labels, [r[1] for r in rows])
    excess = np.array([r[2] for r in rows])
    assert record_fields(core._record, q, 3, p, prev, excess) == record_fields(
        plain_record, q, 3, p, prev, excess
    )
