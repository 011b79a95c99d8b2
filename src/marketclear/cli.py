"""Command-line front end.

Subcommands
-----------
``solve``
    Load a market file, run the matching solver for its model, print a JSON
    run report to stdout, and (with ``--out DIR``) export the solution,
    iteration trace, and model-specific CSV tables.
``check``
    Validate an outcome file against a market file; prints the violation
    report and exits 0 exactly when no violations are found (4 otherwise).
``enumerate``
    List every stable matching of an individual matching market (guarded
    against large instances).
``compare``
    Run both sweep modes (or both matching algorithms) on one market and
    report sweep counts and agreement.

Each route reads a fixed set of the tuning flags; any other one given exits 1
with a message naming it.

Exit codes: 0 success; 1 input or validation problem; 2 non-convergence
(sweep budget exhausted or non-finite values); 3 responsiveness failure;
4 ``check`` found violations. Reports go to stdout as JSON; diagnostics go
to stderr. CSV artifacts are byte-deterministic for identical inputs and
seeds (wall time appears only in the stdout report).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    PriceVector,
    SolverOptions,
    _require_nonneg,
    check_inverse_isotone,
    check_m0_strong_set_order,
    solve,
)
from .errors import (
    InstanceTooLarge,
    IrreducibilityViolation,
    MaxRoundsExceeded,
    MaxSweepsExceeded,
    NonFiniteResidual,
    ResponsivenessViolation,
    UnsupportedFrontier,
)
from .hedonic import (
    build_hedonic_map,
    demand,
    supply,
    uniform_subsolution,
    uniform_supersolution,
)
from .io import (
    LoadedMarket,
    MarketFileError,
    load_json,
    load_market,
    write_csv,
    write_json,
)
from .matching import (
    AggregateNTOutcome,
    _stability_violations,
    adachi_solve,
    dalm,
    deferred_acceptance,
    enumerate_stable,
    is_equilibrium_matching,
)
from .transfers import (
    _cell_wages,
    build_full_assignment_map,
    build_ot_map,
    build_transfer_map,
    full_assignment_supersolution,
    recover_equilibrium,
    singles_subsolution,
    singles_supersolution,
)

__all__ = ["main"]

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A ``--seed`` value; a refused one is a usage error naming the flag."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="marketclear",
        description="Equilibrium solvers for matching markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Tuning flags default to None so that a given one can be told from an
    # absent one; an absent one takes the SolverOptions default.
    ps = sub.add_parser("solve", help="solve a market file")
    ps.add_argument("market", help="path to a market JSON file")
    ps.add_argument("--mode", choices=["jacobi", "gauss-seidel"], default=None)
    ps.add_argument("--start", default=None,
                    help="starting point (model-dependent; e.g. supersolution,"
                         " subsolution, zeros, file, firm_optimal)")
    ps.add_argument("--tol", type=float, default=None,
                    help="sup-norm residual tolerance (default 1e-10)")
    ps.add_argument("--step-tol", dest="step_tol", type=float, default=None)
    ps.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)
    ps.add_argument("--damping", type=float, default=None)
    ps.add_argument("--seed", type=_seed, default=None,
                    help="seed for generator fields in the market file")
    ps.add_argument("--samples", type=int, default=None,
                    help="run structure checks with this many sampled pairs")
    ps.add_argument("--y0", default=None,
                    help="pinned y label for full-assignment markets")
    ps.add_argument("--pi", type=float, default=None,
                    help="pinned price for full-assignment markets")
    ps.add_argument("--out", default=None, help="directory for artifacts")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", help="validate an outcome against a market")
    pc.add_argument("market")
    pc.add_argument("outcome", help="path to an outcome JSON file")
    pc.add_argument("--tol", type=float, default=None)
    pc.add_argument("--seed", type=_seed, default=None)
    pc.set_defaults(func=cmd_check)

    pe = sub.add_parser("enumerate", help="list all stable matchings")
    pe.add_argument("market")
    pe.add_argument("--seed", type=_seed, default=None)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_enumerate)

    pm = sub.add_parser("compare", help="run both solver routes and compare")
    pm.add_argument("market")
    pm.add_argument("--tol", type=float, default=None)
    pm.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)
    pm.add_argument("--damping", type=float, default=None)
    pm.add_argument("--seed", type=_seed, default=None)
    pm.set_defaults(func=cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# Routes


# The tuning flags each route of each command reads. Every route also reads
# --seed and --out, and a solve route --start; any other flag given is
# refused. "pinned" is the engine route of a market that pins a price.
_TUNING = ("mode", "tol", "step_tol", "max_sweeps", "damping", "samples", "y0", "pi")
_ENGINE = ("mode", "tol", "step_tol", "max_sweeps", "damping", "samples")
_READS = {
    "solve": {
        "engine": _ENGINE,
        "pinned": _TUNING,
        "nt": (),
        "nt_aggregate": ("max_sweeps",),
    },
    "check": {"engine": ("tol",), "nt": (), "nt_aggregate": ("tol",)},
    "compare": {"engine": ("tol", "max_sweeps", "damping"), "nt": ()},
}


def _refuse_unread(args, model: str, route: str) -> None:
    """Refuse the first tuning flag given that ``route`` does not read."""
    reads = _READS[args.command][route]
    for flag in _TUNING:
        if flag not in reads and getattr(args, flag, None) is not None:
            name = flag.replace("_", "-")
            raise ValueError(f"--{name} is not available for {model} markets")


def _engine_route(loaded: LoadedMarket, y0=None, pi=None):
    """The engine map of ``loaded``, its ``--start`` menu (each name mapped to
    a constructor of the start point, the default first) and the ``y0`` and
    ``pi`` keywords it pins (empty when it pins nothing).

    ``y0``/``pi`` override the file's; only a transfer or housing market
    without singles pins a price. A housing market takes the transfer route:
    its frontiers were checked at load. A linear-family file loads as its map.
    """
    model, market = loaded.model, loaded.payload
    pin = {}

    def zeros():
        return PriceVector(q.labels, np.zeros(len(q.labels)))

    if model in ("linear", "constant_aggregate"):
        q, p0 = market, loaded.extras.get("p0")

        def file():
            if p0 is None:
                raise ValueError("the market file provides no p0")
            return PriceVector(q.labels, p0)

        starts = ({"zeros": zeros, "file": file} if p0 is None
                  else {"file": file, "zeros": zeros})
    elif model == "hedonic":
        q = build_hedonic_map(market)
        starts = {"supersolution": lambda: uniform_supersolution(market),
                  "subsolution": lambda: uniform_subsolution(market), "zeros": zeros}
    elif model == "ot":
        q, starts = build_ot_map(market), {"zeros": zeros}
    elif market.singles:
        q = build_transfer_map(market)
        starts = {"supersolution": lambda: singles_supersolution(market),
                  "subsolution": lambda: singles_subsolution(market), "zeros": zeros}
    else:
        pin = {
            "y0": loaded.extras.get("y0", market.y_labels[0]) if y0 is None else y0,
            "pi": loaded.extras["pi"] if pi is None else pi,
        }
        q = build_full_assignment_map(market, **pin)
        # Housing without singles (experimental) has no constructed start.
        starts = {"zeros": zeros} if model != "transfer" else {
            "supersolution": lambda: full_assignment_supersolution(market, **pin),
            "zeros": zeros,
        }
    return q, starts, pin


def _pick_start(model: str, starts: dict, name: str | None):
    """The constructor ``--start name`` picks (the default for ``None``)."""
    if name is None:
        name = next(iter(starts))
    if name not in starts:
        raise ValueError(f"--start {name!r} is not available for {model} markets")
    return starts[name]


def _options(args, mode: str) -> SolverOptions:
    """The solver options of ``solve`` and ``compare``; a flag not given keeps
    the ``SolverOptions`` default."""
    fields = {"residual_tol": "tol", "step_tol": "step_tol",
              "max_sweeps": "max_sweeps", "damping": "damping"}
    given = {k: getattr(args, flag, None) for k, flag in fields.items()}
    return SolverOptions(mode=mode, **{k: v for k, v in given.items() if v is not None})


def _structure_flags(q) -> dict:
    flags = ("z_function", "diagonal_isotone", "m_function", "m0_function")
    return {flag: getattr(q, flag) for flag in flags}


def _structure_checks(q, samples: int, seed: int | None) -> dict:
    """The sampled checks the declared flags call for, by report name."""
    checks = {"inverse_isotone": check_inverse_isotone}
    if q.m0_function and not q.m_function:
        checks["m0_strong_set_order"] = check_m0_strong_set_order
    out = {}
    for name, check in checks.items():
        report = check(q, samples, 0 if seed is None else seed)
        out[name] = {
            "samples": report.samples,
            "comparable": report.comparable,
            "violations": len(report.violations),
        }
    return out


def _write_artifacts(out: str | None, artifacts) -> list[str]:
    """Make directory ``out`` and run each ``(file name, writer)`` pair of
    ``artifacts`` into it in order; the paths written. Without ``out``
    nothing is made and ``artifacts`` is never started. The pairs are all
    drawn (a route's recovery included) before the directory is made, so a
    route that fails leaves no partial output."""
    if not out:
        return []
    artifacts = list(artifacts)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for name, writer in artifacts:
        writer(outdir / name)
        files.append(str(outdir / name))
    return files


def _xy_table(market, table):
    """A writer of one row per x-type, one column per y-type."""
    return lambda path: write_csv(
        path,
        ["x", *market.y_labels],
        ([label, *row] for label, row in zip(market.x_labels, table)),
    )


def _payoffs(sides):
    """A writer of ``side,label,value`` rows from ``(side, labels, payoffs)``."""
    return lambda path: write_csv(
        path,
        ["side", "label", "value"],
        [
            [side, label, float(val)]
            for side, labels, payoffs in sides
            for label, val in zip(labels, payoffs)
        ],
    )


# ---------------------------------------------------------------------------
# solve
#
# A route returns its report fields and a generator of (file name, writer)
# pairs, which runs (recovery included) only when --out is given, and to
# its end before the first file is written.


def _solve_engine(loaded: LoadedMarket, args):
    model, market = loaded.model, loaded.payload
    q, starts, pin = _engine_route(loaded, args.y0, args.pi)
    start = _pick_start(model, starts, args.start)
    _refuse_unread(args, model, "pinned" if pin else "engine")
    p0 = start()
    mode = args.mode.replace("-", "_") if args.mode else (
        "gauss_seidel" if model == "ot" else "jacobi"
    )
    opts = _options(args, mode)
    fields = {}
    # Before the solve, so that a bad sample count is refused at once.
    if args.samples is not None:
        fields["structure_checks"] = _structure_checks(q, args.samples, args.seed)
    p, trace = solve(q, p0, opts)
    sweeps, residual = len(trace.records) - 1, trace.records[-1].residual_sup
    fields.update(
        mode=mode, sweeps=sweeps, residual_sup=residual,
        structure=_structure_flags(q),
    )

    def artifacts():
        yield "trace.csv", trace.write_csv
        solution = {
            "model": model,
            "labels": list(p.labels),
            "prices": [float(v) for v in p.values],
            "residual_sup": residual,
            "sweeps": sweeps,
        }
        # The pin a flag set travels with the prices, for ``check``.
        if pin and (args.y0 is not None or args.pi is not None):
            solution.update(pin)
        if model in ("transfer", "ot", "housing"):
            recover = "ot" if model == "ot" else "transfer"
            eq = recover_equilibrium(market, p, model=recover, **pin)
            solution.update(
                u=[float(v) for v in eq.u],
                v=[float(v) for v in eq.v],
                mu_x0=[float(v) for v in eq.mu_x0],
                mu_0y=[float(v) for v in eq.mu_0y],
            )
            yield "mu.csv", _xy_table(market, eq.mu)
            yield "payoffs.csv", _payoffs(
                [("x", market.x_labels, eq.u), ("y", market.y_labels, eq.v)]
            )
            if market.frontiers.kind in ("tu", "taxes"):
                yield "wages.csv", _xy_table(market, _cell_wages(market, eq))
        elif model == "hedonic":
            rows = zip(market.z_labels, p.values, supply(market, p),
                       demand(market, p))
            yield "prices.csv", lambda path: write_csv(
                path, ["z", "price", "supply", "demand"],
                ([z, float(pv), float(sv), float(dv)] for z, pv, sv, dv in rows),
            )
        yield "solution.json", lambda path: write_json(path, solution)

    return fields, artifacts()


def _solve_nt(loaded: LoadedMarket, args):
    market = loaded.payload
    run = _pick_start("nt", {
        "worker_optimal": lambda: (
            "deferred_acceptance", deferred_acceptance(market)
        ),
        "firm_optimal": lambda: (
            "adachi_firm_optimal", adachi_solve(market, start="firm_optimal")
        ),
    }, args.start)
    _refuse_unread(args, "nt", "nt")
    mode, outcome = run()

    def artifacts():
        pairs = zip(*np.nonzero(outcome.mu))
        yield "matching.csv", lambda path: write_csv(
            path, ["i", "j", "mu"],
            ([market.i_labels[i], market.j_labels[j], 1.0] for i, j in pairs),
        )
        yield "payoffs.csv", _payoffs(
            [("worker", market.i_labels, outcome.u),
             ("firm", market.j_labels, outcome.v)]
        )
        yield "solution.json", lambda path: write_json(path, {
            "model": "nt",
            "i_labels": list(market.i_labels),
            "j_labels": list(market.j_labels),
            "mu": [[int(v) for v in row] for row in outcome.mu],
            "u": [float(v) for v in outcome.u],
            "v": [float(v) for v in outcome.v],
        })

    return {"mode": mode, "sweeps": None, "residual_sup": None}, artifacts()


def _solve_nt_aggregate(loaded: LoadedMarket, args):
    market = loaded.payload
    rounds = SolverOptions.max_sweeps if args.max_sweeps is None else args.max_sweeps
    run = _pick_start("nt_aggregate", {
        "dalm": lambda: dalm(market, max_rounds=rounds)
    }, args.start)
    _refuse_unread(args, "nt_aggregate", "nt_aggregate")
    outcome = run()
    ok, names = is_equilibrium_matching(market, outcome)

    def artifacts():
        yield "mu.csv", _xy_table(market, outcome.mu)
        yield "payoffs.csv", _payoffs(
            [("x", market.x_labels, outcome.u), ("y", market.y_labels, outcome.v)]
        )
        yield "solution.json", lambda path: write_json(path, {
            "model": "nt_aggregate",
            "x_labels": list(market.x_labels),
            "y_labels": list(market.y_labels),
            "mu": [[float(v) for v in row] for row in outcome.mu],
            "mu_x0": [float(v) for v in outcome.mu_x0],
            "mu_0y": [float(v) for v in outcome.mu_0y],
            "u": [float(v) for v in outcome.u],
            "v": [float(v) for v in outcome.v],
            "rounds": outcome.rounds,
        })

    return {
        "mode": "dalm",
        "sweeps": outcome.rounds,
        "residual_sup": None,
        "check": {"ok": ok, "violations": list(names)},
    }, artifacts()


def cmd_solve(args) -> int:
    began = time.perf_counter()
    loaded = load_market(args.market, seed=args.seed)
    route = {"nt": _solve_nt, "nt_aggregate": _solve_nt_aggregate}
    fields, artifacts = route.get(loaded.model, _solve_engine)(loaded, args)
    report = {
        "status": "ok",
        "model": loaded.model,
        **fields,
        "files_written": _write_artifacts(args.out, artifacts),
        "wall_time_s": time.perf_counter() - began,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# check


def _check_engine(loaded: LoadedMarket, raw: dict, tol: float | None,
                  report: dict) -> list[str]:
    # A solution written under a --y0/--pi flag carries its pin.
    q = _engine_route(loaded, raw.get("y0"), raw.get("pi"))[0]
    labels = raw.get("labels")
    prices = raw.get("prices")
    if labels is None or prices is None:
        raise MarketFileError("outcome file needs 'labels' and 'prices'")
    p = PriceVector(labels, prices)
    if p.labels != q.labels:
        raise MarketFileError("outcome labels do not match the market")
    residual = float(np.max(np.abs(q.evaluate(p).values)))
    report["residual_sup"] = residual
    limit = 1e-8 if tol is None else tol
    if not residual <= limit:
        return ["residual_sup"]
    return []


def _check_individual(market, raw: dict) -> list[str]:
    if "mu" not in raw:
        raise MarketFileError("outcome file needs 'mu'")
    violations, u, v = _stability_violations(market, raw["mu"])
    stated_u = raw.get("u")
    stated_v = raw.get("v")
    if (
        stated_u is not None
        and not np.array_equal(np.array(stated_u, dtype=float), u)
    ) or (
        stated_v is not None
        and not np.array_equal(np.array(stated_v, dtype=float), v)
    ):
        violations.append("payoff_consistency")
    return violations


def _check_aggregate_nt(market, raw: dict, tol: float | None) -> list[str]:
    for key in ("mu", "mu_x0", "mu_0y", "u", "v"):
        if key not in raw:
            raise MarketFileError(f"outcome file needs {key!r}")
    outcome = AggregateNTOutcome(
        market.x_labels, market.y_labels,
        raw["mu"], raw["mu_x0"], raw["mu_0y"], raw["u"], raw["v"],
    )
    _, names = is_equilibrium_matching(
        market, outcome, tol=1e-9 if tol is None else tol
    )
    return list(names)


def cmd_check(args) -> int:
    loaded = load_market(args.market, seed=args.seed)
    model = loaded.model
    _refuse_unread(args, model, model if model in ("nt", "nt_aggregate") else "engine")
    if args.tol is not None:
        _require_nonneg("--tol", args.tol)
    raw = load_json(args.outcome)
    report: dict = {"model": model}
    # Each checker reads the outcome file; what it refuses is the file's fault.
    try:
        if not isinstance(raw, dict):
            raise MarketFileError("top level must be an object")
        if model == "nt":
            violations = _check_individual(loaded.payload, raw)
        elif model == "nt_aggregate":
            violations = _check_aggregate_nt(loaded.payload, raw, args.tol)
        else:
            violations = _check_engine(loaded, raw, args.tol, report)
    except (TypeError, ValueError) as exc:
        raise MarketFileError(f"{args.outcome}: {exc}") from exc
    report["violations"] = violations
    report["status"] = "ok" if not violations else "violations"
    print(json.dumps(report, sort_keys=True))
    return 0 if not violations else 4


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    loaded = load_market(args.market, seed=args.seed)
    if loaded.model != "nt":
        raise MarketFileError(
            "enumerate needs an individual matching market file"
        )
    market = loaded.payload
    outcomes = enumerate_stable(market)
    items = [
        {
            "matching": [
                [market.i_labels[i], market.j_labels[j]]
                for i, j in zip(*np.nonzero(outcome.mu))
            ],
            "u": [float(v) for v in outcome.u],
            "v": [float(v) for v in outcome.v],
        }
        for outcome in outcomes
    ]
    files = _write_artifacts(args.out, [(
        "stable_set.json",
        lambda path: write_json(path, {"count": len(items), "outcomes": items}),
    )])
    report = {
        "status": "ok",
        "model": "nt",
        "count": len(items),
        "outcomes": items,
        "files_written": files,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    loaded = load_market(args.market, seed=args.seed)
    if loaded.model == "nt_aggregate":
        raise MarketFileError(
            "compare supports solver-engine and individual matching markets"
        )
    report: dict = {"model": loaded.model}
    code = 0
    _refuse_unread(args, loaded.model, "nt" if loaded.model == "nt" else "engine")
    if loaded.model == "nt":
        market = loaded.payload
        da = deferred_acceptance(market)
        adachi = adachi_solve(market, start="worker_optimal")
        gap = max(
            float(np.max(np.abs(da.u - adachi.u))),
            float(np.max(np.abs(da.v - adachi.v))),
        )
        report["agreement_sup"] = gap
        report["identical"] = bool(
            np.array_equal(da.mu, adachi.mu) and gap == 0.0
        )
    else:
        q, starts, _ = _engine_route(loaded)
        p0 = _pick_start(loaded.model, starts, None)()
        runs: dict[str, dict] = {}
        solved: dict[str, PriceVector] = {}
        for mode in ("jacobi", "gauss_seidel"):
            try:
                p, trace = solve(q, p0, _options(args, mode))
            except MaxSweepsExceeded:
                runs[mode] = {"status": "max_sweeps_exceeded"}
            except NonFiniteResidual:
                runs[mode] = {"status": "nonfinite_residual"}
            else:
                runs[mode] = {
                    "status": "ok",
                    "sweeps": len(trace.records) - 1,
                    "residual_sup": trace.records[-1].residual_sup,
                }
                solved[mode] = p
        report["modes"] = runs
        if len(solved) == 2:
            gap = np.abs(
                solved["jacobi"].values - solved["gauss_seidel"].values
            )
            report["agreement_sup"] = float(gap.max())
        else:
            code = 2
    report["status"] = "ok" if code == 0 else "diverged"
    print(json.dumps(report, sort_keys=True))
    return code


# ---------------------------------------------------------------------------
# entry point


def _fail(code: int, exc: BaseException) -> int:
    report = {"status": "error", "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(report, sort_keys=True))
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # A MarketFileError is a ValueError; no solver error is one.
    except (ValueError, OSError, InstanceTooLarge, IrreducibilityViolation,
            UnsupportedFrontier) as exc:
        return _fail(1, exc)
    except (MaxSweepsExceeded, MaxRoundsExceeded, NonFiniteResidual) as exc:
        return _fail(2, exc)
    except ResponsivenessViolation as exc:
        return _fail(3, exc)
