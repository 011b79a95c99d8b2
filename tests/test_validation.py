"""Every class and builder that takes labels, masses or matrices refuses the
same bad inputs: duplicate labels, a wrong length or shape, a non-finite
entry and, where masses apply, a non-positive one. A copy or a pickle of a
value is built by its constructor, so it is refused for the same inputs.
The sampling checks refuse a sample count or a seed that is not a
non-negative integer and a box that is not finite and positive, the
Jacobian probe a step that is not finite and positive, the full-assignment
routines a pinned price that is not finite, and every routine that takes a
tolerance one that is not finite and non-negative. The routines that need
a market with singles, or one without, refuse the other kind; and those
that take a state, a state with other labels."""

from __future__ import annotations

import copy
import copyreg
import dataclasses
import io
import math
import pickle

import numpy as np
import pytest

import marketclear
from marketclear import (
    AggregateMarket,
    AggregateNTMarket,
    AggregateNTOutcome,
    BracketOptions,
    EquilibriumMap,
    ExcessVector,
    FrontierGrid,
    HedonicMarket,
    IndividualMarket,
    IndividualOutcome,
    LoadedMarket,
    NTUFrontier,
    PriceVector,
    SolverOptions,
    TaxBracketFrontier,
    TaxesFrontier,
    TaxSchedule,
    TraceRecord,
    TUFrontier,
    build_full_assignment_map,
    build_housing_map,
    build_ot_map,
    build_transfer_map,
    check_inverse_isotone,
    check_m0_strong_set_order,
    check_nonintegrability,
    combine_distances,
    constant_aggregate_map,
    damped_step,
    full_assignment_prices,
    full_assignment_supersolution,
    is_equilibrium_matching,
    is_subsolution,
    is_supersolution,
    linear_map,
    recover_equilibrium,
    recover_wages,
    singles_subsolution,
    singles_supersolution,
    solve,
)

INF, NAN = math.inf, math.nan


def identity(values):
    # A module-level evaluator, so that a map built on it pickles.
    return values


MARKET = dict(
    x_labels=("x1", "x2"), y_labels=("y1",), n=[1.0, 2.0], m=[1.0],
    frontiers=FrontierGrid.tu([[0.5], [0.0]]), sigma=1.0,
)
SINGLES = AggregateMarket(**MARKET)
CLEARED, _ = solve(build_transfer_map(SINGLES), singles_supersolution(SINGLES))

# Builder name -> (builder, keyword arguments it accepts). A capitalised
# name is the class the builder returns.
VALID = {
    "PriceVector": (PriceVector, dict(labels=("a", "b"), values=[1.0, 2.0])),
    "ExcessVector": (ExcessVector, dict(labels=("a", "b"), values=[1.0, INF])),
    "EquilibriumMap": (
        EquilibriumMap,
        dict(labels=("a", "b"), eval_values=identity, blocks=((0, 1), (1, 2))),
    ),
    "linear_map": (
        linear_map, dict(A=[[2.0, -1.0], [-1.0, 2.0]], labels=("a", "b"))
    ),
    "constant_aggregate_map": (
        constant_aggregate_map,
        dict(delta=[1.0, 1.0], A=[[0.0, 1.0], [1.0, 0.0]], labels=("a", "b")),
    ),
    "TaxSchedule": (TaxSchedule, dict(rates=(0.0, 0.3), thresholds=(0.0, 1.0))),
    "FrontierGrid": (
        FrontierGrid,
        dict(kind="taxes", alpha=[[0.5]], gamma=[[0.2]],
             schedule=TaxSchedule((0.0,), (0.0,))),
    ),
    "AggregateMarket": (AggregateMarket, MARKET),
    "AggregateEquilibrium": (recover_equilibrium, dict(market=SINGLES, p=CLEARED)),
    "NonintegrabilityReport": (
        check_nonintegrability, dict(market=SINGLES, p=CLEARED)
    ),
    "HedonicMarket": (
        HedonicMarket,
        dict(
            x_labels=("x1", "x2"), y_labels=("y1",), z_labels=("z1", "z2"),
            n=[1.0, 2.0], m=[1.0], c=[[0.0, 0.1], [0.2, 0.3]], a=[[0.4, 0.5]],
        ),
    ),
    "IndividualMarket": (
        IndividualMarket,
        dict(
            i_labels=("w1", "w2"), j_labels=("f1",),
            alpha=[[1.0], [2.0]], gamma=[[1.0], [2.0]],
        ),
    ),
    "IndividualOutcome": (
        IndividualOutcome,
        dict(
            i_labels=("w1", "w2"), j_labels=("f1",),
            mu=[[0], [1]], u=[0.0, 2.0], v=[2.0],
        ),
    ),
    "AggregateNTMarket": (
        AggregateNTMarket,
        dict(
            x_labels=("x1", "x2"), y_labels=("y1",), n=[1.0, 2.0], m=[1.0],
            alpha=[[1.0], [2.0]], gamma=[[1.0], [2.0]],
        ),
    ),
    "AggregateNTOutcome": (
        AggregateNTOutcome,
        dict(
            x_labels=("x1", "x2"), y_labels=("y1",), mu=[[0.0], [1.0]],
            mu_x0=[1.0, 1.0], mu_0y=[0.0], u=[0.0, 2.0], v=[2.0],
        ),
    ),
}

# (builder, rule, replaced arguments, text the error names).
INVALID = [
    ("PriceVector", "duplicate", dict(labels=("a", "a")), "must be unique"),
    ("PriceVector", "length", dict(values=[1.0]), "labels"),
    ("PriceVector", "nonfinite", dict(values=[1.0, NAN]), "values"),
    ("ExcessVector", "duplicate", dict(labels=("a", "a")), "must be unique"),
    ("ExcessVector", "length", dict(values=[1.0, 2.0, 3.0]), "labels"),
    ("EquilibriumMap", "duplicate", dict(labels=("a", "a")), "must be unique"),
    ("linear_map", "duplicate", dict(labels=("a", "a")), "must be unique"),
    ("linear_map", "length", dict(labels=("a",)), "labels"),
    ("linear_map", "shape", dict(A=[[1.0, 0.0]]), "square"),
    ("linear_map", "nonfinite", dict(A=[[2.0, INF], [-1.0, 2.0]]), "A"),
    ("constant_aggregate_map", "duplicate", dict(labels=("a", "a")),
     "must be unique"),
    ("constant_aggregate_map", "length", dict(delta=[1.0]), "A"),
    ("constant_aggregate_map", "nonfinite", dict(delta=[1.0, NAN]), "delta"),
    ("constant_aggregate_map", "nonpositive", dict(delta=[0.0, 1.0]), "delta"),
    ("TaxSchedule", "length", dict(thresholds=(0.0,)), "thresholds"),
    ("TaxSchedule", "nonfinite", dict(rates=(0.0, INF)), "rates"),
    ("TaxSchedule", "empty", dict(rates=(), thresholds=()), "at least one bracket"),
    ("FrontierGrid", "kind", dict(kind="linear"), "kind must be"),
    ("FrontierGrid", "tu_without_phi", dict(kind="tu"), "'tu' grids take phi only"),
    ("FrontierGrid", "tu_schedule", dict(kind="tu", phi=[[0.5]], alpha=None, gamma=None),
     "'tu' grids take no schedule"),
    ("FrontierGrid", "taxes_phi", dict(phi=[[0.5]]), "'taxes' grids take alpha and gamma"),
    ("FrontierGrid", "taxes_without_schedule", dict(schedule=None),
     "'taxes' grids require a TaxSchedule"),
    ("FrontierGrid", "ntu_schedule", dict(kind="ntu"), "'ntu' grids take no schedule"),
    ("AggregateMarket", "duplicate", dict(x_labels=("x1", "x1")),
     "must be unique"),
    ("AggregateMarket", "duplicate_across", dict(y_labels=("x1",)),
     "must be unique"),
    ("AggregateMarket", "length", dict(n=[1.0]), "n"),
    ("AggregateMarket", "nonfinite", dict(m=[INF]), "m"),
    ("AggregateMarket", "nonpositive", dict(n=[1.0, 0.0]), "n"),
    ("AggregateMarket", "nonpositive_sigma", dict(sigma=-1.0), "sigma"),
    ("AggregateMarket", "nonfinite_sigma", dict(sigma=None), "sigma"),
    ("AggregateMarket", "empty", dict(x_labels=(), n=[]), "at least one x-type"),
    ("HedonicMarket", "duplicate", dict(z_labels=("z1", "z1")),
     "must be unique"),
    ("HedonicMarket", "length", dict(m=[1.0, 1.0]), "m"),
    ("HedonicMarket", "shape", dict(a=[[0.4]]), "a"),
    ("HedonicMarket", "nonfinite", dict(c=[[0.0, NAN], [0.2, 0.3]]), "c"),
    ("HedonicMarket", "nonpositive", dict(n=[-1.0, 2.0]), "n"),
    ("IndividualMarket", "duplicate", dict(i_labels=("w1", "w1")),
     "must be unique"),
    ("IndividualMarket", "shape", dict(alpha=[[1.0, 2.0]]), "alpha"),
    ("IndividualMarket", "nonfinite", dict(gamma=[[1.0], [INF]]), "gamma"),
    ("IndividualMarket", "alpha_row_repeat",
     dict(j_labels=("f1", "f2"), alpha=[[1.0, 1.0], [2.0, 3.0]],
          gamma=[[1.0, 2.0], [3.0, 4.0]]),
     "alpha rows must hold distinct nonzero values"),
    ("IndividualMarket", "gamma_column_repeat", dict(gamma=[[2.0], [2.0]]),
     "gamma columns must hold distinct nonzero values"),
    ("IndividualMarket", "alpha_zero", dict(alpha=[[1.0], [0.0]]),
     "alpha rows must hold distinct nonzero values"),
    ("IndividualMarket", "gamma_zero", dict(gamma=[[0.0], [2.0]]),
     "gamma columns must hold distinct nonzero values"),
    ("IndividualOutcome", "duplicate", dict(i_labels=("w1", "w1")),
     "must be unique"),
    ("IndividualOutcome", "length", dict(u=[0.0]), "u"),
    ("IndividualOutcome", "nonfinite", dict(v=[NAN]), "v"),
    ("AggregateNTMarket", "duplicate", dict(x_labels=("x1", "x1")),
     "must be unique"),
    ("AggregateNTMarket", "length", dict(m=[1.0, 1.0]), "m"),
    ("AggregateNTMarket", "nonfinite", dict(alpha=[[1.0], [NAN]]), "alpha"),
    ("AggregateNTMarket", "nonpositive", dict(n=[1.0, -2.0]), "n"),
    ("AggregateNTOutcome", "duplicate", dict(x_labels=("x1", "x1")),
     "must be unique"),
    ("AggregateNTOutcome", "length", dict(mu_0y=[0.0, 0.0]), "mu_0y"),
    ("AggregateNTOutcome", "shape", dict(mu=[[0.0, 1.0]]), "mu"),
    ("AggregateNTOutcome", "nonfinite", dict(u=[0.0, INF]), "u"),
    ("AggregateNTOutcome", "negative_rounds", dict(rounds=-3), "rounds"),
    ("AggregateNTOutcome", "fractional_rounds", dict(rounds=2.5), "rounds"),
    ("AggregateNTOutcome", "bool_rounds", dict(rounds=True), "rounds"),
    ("AggregateNTOutcome", "text_rounds", dict(rounds="x"), "rounds"),
]


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_build(name):
    build, kwargs = VALID[name]
    build(**kwargs)


@pytest.mark.parametrize(
    "name, replaced, names",
    [pytest.param(name, replaced, names, id=f"{name}-{rule}")
     for name, rule, replaced, names in INVALID],
)
def test_bad_arguments_raise_value_error(name, replaced, names):
    build, kwargs = VALID[name]
    with pytest.raises(ValueError, match=names):
        build(**{**kwargs, **replaced})


BALANCED = AggregateMarket(
    x_labels=("x1", "x2"), y_labels=("y1", "y2"), n=[1.0, 2.0], m=[2.0, 1.0],
    frontiers=FrontierGrid.tu([[0.5, 0.0], [0.0, 0.5]]), sigma=1.0, singles=False,
)
ZEROS = PriceVector(SINGLES.labels, np.zeros(len(SINGLES.labels)))
FOREIGN = PriceVector(("a", "b", "c"), np.zeros(3))
LINEAR = linear_map([[2.0, -1.0], [-1.0, 2.0]])
LINEAR_ZEROS = PriceVector(LINEAR.labels, np.zeros(2))

# (routine, call on the wrong kind of market or state, text the error names).
REFUSED = [
    ("build_full_assignment_map", lambda: build_full_assignment_map(BALANCED, y0="y9"),
     "unknown y-type 'y9'"),
    ("build_ot_map", lambda: build_ot_map(SINGLES), "markets without singles"),
    ("recover_equilibrium-model",
     lambda: recover_equilibrium(SINGLES, ZEROS, model="tu"), "model must be"),
    ("recover_equilibrium-labels",
     lambda: recover_equilibrium(SINGLES, FOREIGN), "price labels do not match"),
    ("recover_equilibrium-ot",
     lambda: recover_equilibrium(SINGLES, ZEROS, model="ot"), "markets without singles"),
    ("singles_supersolution", lambda: singles_supersolution(BALANCED),
     "use full_assignment_supersolution"),
    ("singles_subsolution", lambda: singles_subsolution(BALANCED), "needs a singles market"),
    ("build_housing_map", lambda: build_housing_map(BALANCED), "needs a singles market"),
    ("damped_step",
     lambda: damped_step(IndividualMarket(**VALID["IndividualMarket"][1]), FOREIGN),
     "state labels do not match"),
    ("is_subsolution", lambda: is_subsolution(LINEAR, LINEAR_ZEROS, tol=-1.0),
     "tol must be finite and >= 0"),
    ("is_supersolution", lambda: is_supersolution(LINEAR, LINEAR_ZEROS, tol=-1.0),
     "tol must be finite and >= 0"),
]


@pytest.mark.parametrize(
    "call, names", [pytest.param(call, names, id=name) for name, call, names in REFUSED]
)
def test_wrong_kind_of_input_raises_value_error(call, names):
    with pytest.raises(ValueError, match=names):
        call()


def test_outcomes_copy_and_freeze_their_arrays():
    mu = np.array([[0.0], [1.0]])
    kwargs = {**VALID["AggregateNTOutcome"][1], "mu": mu}
    outcome = AggregateNTOutcome(**kwargs)
    mu[0, 0] = 5.0
    assert outcome.mu[0, 0] == 0.0
    for name in ("mu", "mu_x0", "mu_0y", "u", "v"):
        assert not getattr(outcome, name).flags.writeable


def arrays(obj, path="") -> dict:
    """Every ndarray attribute of ``obj`` and of the value classes it holds,
    by attribute path."""
    out = {}
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            out[path + name] = value
        elif dataclasses.is_dataclass(value):
            out.update(arrays(value, f"{path}{name}."))
    return out


# The value classes whose arrays are frozen at construction (a map's
# block index included); a TaxSchedule holds tuples.
FROZEN = sorted(
    name for name in VALID if name[0].isupper() and name != "TaxSchedule"
)
COPIES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", FROZEN)
def test_arrays_stay_read_only_through_copies(name, how):
    # A pickle or a deep copy restores arrays writeable; each value class
    # must hand them back read-only, holding the same values.
    build, kwargs = VALID[name]
    original = build(**kwargs)
    before = arrays(original)
    assert before and not any(a.flags.writeable for a in before.values())
    after = arrays(COPIES[how](original))
    assert sorted(after) == sorted(before)
    for key, value in after.items():
        assert not value.flags.writeable, key
        assert value.tobytes() == before[key].tobytes(), key


# Every value class VALID builds, the ones without arrays included.
CLASSES = sorted(name for name in VALID if name[0].isupper())


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", CLASSES)
def test_copies_are_built_by_the_constructor(name, how, monkeypatch):
    build, kwargs = VALID[name]
    original = build(**kwargs)
    cls = type(original)
    post_init, built = cls.__post_init__, []

    def counted(self):
        built.append(type(self))
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    twin = COPIES[how](original)
    assert type(twin) is cls and built == [cls]


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize(
    "name, replaced, names",
    [pytest.param(name, replaced, names, id=f"{name}-{rule}")
     for name, rule, replaced, names in INVALID if name[0].isupper()],
)
def test_copies_refuse_what_the_constructor_refuses(name, replaced, names, how):
    # Fields forced past the checks, as a crafted pickle would carry them:
    # a copy or an unpickled value meets the constructor's checks again.
    build, kwargs = VALID[name]
    broken = build(**kwargs)
    for field, value in replaced.items():
        object.__setattr__(broken, field, value)
    payload = pickle.dumps(broken)
    rebuild = {
        "pickle": lambda: pickle.loads(payload),
        "copy": lambda: copy.copy(broken),
        "deepcopy": lambda: copy.deepcopy(broken),
    }[how]
    with pytest.raises(ValueError, match=names):
        rebuild()


def state_dict_pickle(value) -> bytes:
    """``value`` pickled as older versions wrote it: ``copyreg.__newobj__``
    of its class, then its attributes as a state dict."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer)
    pickler.dispatch_table = {type(value): lambda obj: (
        copyreg.__newobj__, (type(obj),), dict(vars(obj))
    )}
    pickler.dump(value)
    return buffer.getvalue()


@pytest.mark.parametrize("name", ["PriceVector", "AggregateMarket"])
def test_state_dict_pickles_are_refused(name):
    # Loading such a pickle would skip every constructor check.
    build, kwargs = VALID[name]
    payload = state_dict_pickle(build(**kwargs))
    with pytest.raises(ValueError, match="pickled as a state dict"):
        pickle.loads(payload)


# One instance of each public dataclass that VALID does not build.
OTHERS = {
    "SolverOptions": SolverOptions,
    "BracketOptions": BracketOptions,
    "TraceRecord": lambda: TraceRecord(0, ZEROS, 0.0, True, True, True, True),
    "SolveTrace": lambda: solve(LINEAR, LINEAR_ZEROS)[1],
    "IsotonicityReport": lambda: check_inverse_isotone(LINEAR, 4, 0),
    "SetOrderReport": lambda: check_m0_strong_set_order(LINEAR, 4, 0),
    "TUFrontier": lambda: TUFrontier(0.5),
    "TaxesFrontier": lambda: TaxesFrontier(0.5, 0.2, TaxSchedule.no_tax()),
    "TaxBracketFrontier": lambda: TaxBracketFrontier(0.5, 0.2, 0.1, 0.0),
    "NTUFrontier": lambda: NTUFrontier(0.5, 0.2),
    "CombinedFrontier": lambda: combine_distances([TUFrontier(0.5)]),
    "LoadedMarket": lambda: LoadedMarket("linear", LINEAR),
}


def test_every_public_class_holding_arrays_is_frozen():
    # A new value class with an ndarray attribute must join FROZEN, so
    # that the copy round trips above check it.
    public = sorted(
        name for name in marketclear.__all__
        if dataclasses.is_dataclass(getattr(marketclear, name))
    )
    built = {name: VALID[name][0](**VALID[name][1]) for name in public if name in VALID}
    built.update((name, make()) for name, make in OTHERS.items())
    assert sorted(built) == public
    for name, obj in built.items():
        assert type(obj).__name__ == name
        if any(isinstance(value, np.ndarray) for value in vars(obj).values()):
            assert name in FROZEN, name


@pytest.mark.parametrize("count", [-3, -1, 2.5, True, None])
@pytest.mark.parametrize("check", [check_inverse_isotone, check_m0_strong_set_order])
def test_sample_counts_must_be_non_negative_integers(check, count):
    q = linear_map([[2.0, -1.0], [-1.0, 2.0]])
    with pytest.raises(ValueError, match="sample_count must be a non-negative integer"):
        check(q, count, 0)
    assert check(q, 0, 0).samples == 0


@pytest.mark.parametrize("seed", [-1, 1.5, True, None])
@pytest.mark.parametrize("check", [check_inverse_isotone, check_m0_strong_set_order])
def test_sample_seeds_must_be_non_negative_integers(check, seed):
    with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
        check(LINEAR, 2, seed)
    assert check(LINEAR, 2, np.int64(0)).samples == 2


@pytest.mark.parametrize("box", [0.0, -1.0, NAN, INF])
@pytest.mark.parametrize("check", [check_inverse_isotone, check_m0_strong_set_order])
def test_sample_box_must_be_finite_and_positive(check, box):
    with pytest.raises(ValueError, match="box must be finite and > 0"):
        check(LINEAR, 2, 0, box=box)


# Routine name -> call with a tolerance.
TOLERANCES = {
    "is_subsolution": lambda tol: is_subsolution(LINEAR, LINEAR_ZEROS, tol=tol),
    "is_supersolution": lambda tol: is_supersolution(LINEAR, LINEAR_ZEROS, tol=tol),
    "check_m0_strong_set_order":
        lambda tol: check_m0_strong_set_order(LINEAR, 2, 0, tol=tol),
    "recover_equilibrium": lambda tol: recover_equilibrium(SINGLES, CLEARED, tol=tol),
    "recover_wages": lambda tol: recover_wages(SINGLES, CLEARED, tol=tol),
}


@pytest.mark.parametrize("tol", [NAN, INF, -1.0])
@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_tolerances_must_be_finite_and_non_negative(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        TOLERANCES[name](tol)
    TOLERANCES[name](1e-6)


@pytest.mark.parametrize("fd_step", [0.0, -1e-4, NAN, INF, -INF])
def test_fd_step_must_be_finite_and_positive(fd_step):
    market = AggregateMarket(**VALID["AggregateMarket"][1])
    p = PriceVector(market.labels, np.zeros(len(market.labels)))
    with pytest.raises(ValueError, match="fd_step must be finite and > 0"):
        check_nonintegrability(market, p, fd_step=fd_step)


@pytest.mark.parametrize("pi", [NAN, INF, -INF])
def test_pinned_price_must_be_finite(pi):
    market = AggregateMarket(
        x_labels=("x1", "x2"), y_labels=("y1", "y2"), n=[1.0, 2.0],
        m=[2.0, 1.0], frontiers=FrontierGrid.tu([[0.5, 0.0], [0.0, 0.5]]),
        sigma=1.0, singles=False,
    )
    p = PriceVector(market.labels, np.zeros(len(market.labels)))
    reduced = PriceVector(("x1", "x2", "y2"), np.zeros(3))
    for call in (
        lambda: build_full_assignment_map(market, pi=pi),
        lambda: full_assignment_supersolution(market, pi=pi),
        lambda: full_assignment_prices(market, reduced, pi=pi),
        lambda: recover_equilibrium(market, p, pi=pi),
    ):
        with pytest.raises(ValueError, match="pi must be finite"):
            call()


@pytest.mark.parametrize("tol", [NAN, INF, -1e-9])
def test_equilibrium_check_tolerance_must_be_finite_and_non_negative(tol):
    market = AggregateNTMarket(**VALID["AggregateNTMarket"][1])
    outcome = AggregateNTOutcome(**VALID["AggregateNTOutcome"][1])
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        is_equilibrium_matching(market, outcome, tol=tol)
    is_equilibrium_matching(market, outcome, tol=0.0)
