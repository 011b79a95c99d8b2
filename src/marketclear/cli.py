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
    check_inverse_isotone,
    check_m0_strong_set_order,
    constant_aggregate_map,
    linear_map,
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
    build_full_assignment_map,
    build_housing_full_assignment_map,
    build_housing_map,
    build_ot_map,
    build_transfer_map,
    full_assignment_supersolution,
    recover_equilibrium,
    recover_wages,
    singles_subsolution,
    singles_supersolution,
)

__all__ = ["main"]

_ENGINE_MODELS = (
    "linear", "constant_aggregate", "transfer", "ot", "housing", "hedonic",
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="marketclear",
        description="Equilibrium solvers for matching markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a market file")
    ps.add_argument("market", help="path to a market JSON file")
    ps.add_argument("--mode", choices=["jacobi", "gauss-seidel"], default=None)
    ps.add_argument("--start", default=None,
                    help="starting point (model-dependent; e.g. supersolution,"
                         " subsolution, zeros, file, firm_optimal)")
    ps.add_argument("--tol", type=float, default=1e-10,
                    help="sup-norm residual tolerance (default 1e-10)")
    ps.add_argument("--step-tol", dest="step_tol", type=float, default=0.0)
    ps.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=10_000)
    ps.add_argument("--damping", type=float, default=1.0)
    ps.add_argument("--seed", type=int, default=None,
                    help="seed for generator fields in the market file")
    ps.add_argument("--samples", type=int, default=0,
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
    pc.add_argument("--seed", type=int, default=None)
    pc.set_defaults(func=cmd_check)

    pe = sub.add_parser("enumerate", help="list all stable matchings")
    pe.add_argument("market")
    pe.add_argument("--seed", type=int, default=None)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_enumerate)

    pm = sub.add_parser("compare", help="run both solver routes and compare")
    pm.add_argument("market")
    pm.add_argument("--tol", type=float, default=1e-10)
    pm.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=10_000)
    pm.add_argument("--damping", type=float, default=1.0)
    pm.add_argument("--seed", type=int, default=None)
    pm.set_defaults(func=cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# Shared wiring


def _build_map(loaded: LoadedMarket, y0_override=None, pi_override=None):
    """Construct the model's map and a context dict for artifacts."""
    model = loaded.model
    if model in ("linear", "constant_aggregate"):
        payload = loaded.payload
        if model == "linear":
            q = linear_map(payload["A"], labels=payload["labels"])
        else:
            q = constant_aggregate_map(
                payload["delta"], payload["A"], labels=payload["labels"]
            )
        return q, {}
    market = loaded.payload
    if model == "hedonic":
        return build_hedonic_map(market), {"market": market}
    if model == "ot":
        return build_ot_map(market), {
            "market": market, "recover_model": "ot",
            "kind": "tu", "y0": None, "pi": 0.0,
        }
    y0 = y0_override if y0_override is not None else loaded.extras.get("y0")
    pi = pi_override if pi_override is not None else loaded.extras.get("pi", 0.0)
    if model == "transfer":
        q = (
            build_transfer_map(market)
            if market.singles
            else build_full_assignment_map(market, y0=y0, pi=pi)
        )
    elif model == "housing":
        q = (
            build_housing_map(market)
            if market.singles
            else build_housing_full_assignment_map(market, y0=y0, pi=pi)
        )
    else:
        raise MarketFileError(f"no solver route for model {model!r}")
    return q, {
        "market": market, "recover_model": "transfer",
        "kind": market.frontiers.kind, "y0": y0, "pi": pi,
    }


def _zeros(q) -> PriceVector:
    return PriceVector(q.labels, np.zeros(len(q.labels)))


def _default_start(loaded: LoadedMarket, q, ctx, start: str | None) -> PriceVector:
    """Resolve ``--start`` (or the model default) to a price vector."""
    model = loaded.model

    def reject():
        raise ValueError(
            f"--start {start!r} is not available for {model} markets"
        )

    if model in ("linear", "constant_aggregate"):
        if start not in (None, "zeros", "file"):
            reject()
        p0 = None if start == "zeros" else loaded.extras.get("p0")
        if start == "file" and p0 is None:
            raise ValueError("the market file provides no p0")
        return PriceVector(q.labels, p0) if p0 is not None else _zeros(q)
    market = ctx["market"]
    if model == "ot":
        if start not in (None, "zeros"):
            reject()
        return _zeros(q)
    if model == "hedonic":
        if start in (None, "supersolution"):
            return uniform_supersolution(market)
        if start == "subsolution":
            return uniform_subsolution(market)
        if start == "zeros":
            return _zeros(q)
        reject()
    if model in ("transfer", "housing") and market.singles:
        if start in (None, "supersolution"):
            return singles_supersolution(market)
        if start == "subsolution":
            return singles_subsolution(market)
        if start == "zeros":
            return _zeros(q)
        reject()
    if model == "transfer":
        if start in (None, "supersolution"):
            return full_assignment_supersolution(
                market, y0=ctx["y0"], pi=ctx["pi"]
            )
        if start == "zeros":
            return _zeros(q)
        reject()
    # housing, full assignment: experimental, no constructed start.
    if start in (None, "zeros"):
        return _zeros(q)
    reject()
    raise AssertionError("unreachable")


def _structure_flags(q) -> dict:
    return {
        "z_function": q.z_function,
        "diagonal_isotone": q.diagonal_isotone,
        "m_function": q.m_function,
        "m0_function": q.m0_function,
    }


def _structure_checks(q, samples: int, seed: int | None) -> dict:
    rng_seed = 0 if seed is None else seed
    report = check_inverse_isotone(q, samples, rng_seed)
    out = {
        "inverse_isotone": {
            "samples": report.samples,
            "comparable": report.comparable,
            "violations": len(report.violations),
        }
    }
    if q.m0_function and not q.m_function:
        so = check_m0_strong_set_order(q, samples, rng_seed)
        out["m0_strong_set_order"] = {
            "samples": so.samples,
            "comparable": so.comparable,
            "violations": len(so.violations),
        }
    return out


def _outdir(args) -> Path | None:
    if not getattr(args, "out", None):
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(files: list[str], path: Path, writer) -> None:
    writer(path)
    files.append(str(path))


def _write_xy_table(files: list[str], path: Path, market, table) -> None:
    """One row per x-type, one column per y-type."""
    _write(
        files, path,
        lambda path: write_csv(
            path,
            ["x", *market.y_labels],
            ([label, *row] for label, row in zip(market.x_labels, table)),
        ),
    )


def _write_payoffs(files: list[str], path: Path, sides) -> None:
    """``side,label,value`` rows from ``(side, labels, payoffs)`` triples."""
    _write(
        files, path,
        lambda path: write_csv(
            path,
            ["side", "label", "value"],
            [
                [side, label, float(val)]
                for side, labels, payoffs in sides
                for label, val in zip(labels, payoffs)
            ],
        ),
    )


# ---------------------------------------------------------------------------
# solve


def _solve_engine(loaded: LoadedMarket, args, report: dict, files: list[str]) -> None:
    q, ctx = _build_map(loaded, args.y0, args.pi)
    p0 = _default_start(loaded, q, ctx, args.start)
    mode = args.mode.replace("-", "_") if args.mode else (
        "gauss_seidel" if loaded.model == "ot" else "jacobi"
    )
    opts = SolverOptions(
        residual_tol=args.tol,
        step_tol=args.step_tol,
        max_sweeps=args.max_sweeps,
        mode=mode,
        damping=args.damping,
    )
    # Before the solve, so that a bad sample count is refused at once.
    if args.samples:
        report["structure_checks"] = _structure_checks(q, args.samples, args.seed)
    p, trace = solve(q, p0, opts)
    last = trace.records[-1]
    report.update(
        mode=mode,
        sweeps=len(trace.records) - 1,
        residual_sup=last.residual_sup,
        structure=_structure_flags(q),
    )
    outdir = _outdir(args)
    if outdir is None:
        return
    _write(files, outdir / "trace.csv", trace.write_csv)
    solution = {
        "model": loaded.model,
        "labels": list(p.labels),
        "prices": [float(v) for v in p.values],
        "residual_sup": last.residual_sup,
        "sweeps": len(trace.records) - 1,
    }
    if loaded.model in ("transfer", "ot", "housing"):
        market = ctx["market"]
        eq = recover_equilibrium(
            market, p,
            model=ctx["recover_model"], y0=ctx["y0"], pi=ctx["pi"],
        )
        solution.update(
            u=[float(v) for v in eq.u],
            v=[float(v) for v in eq.v],
            mu_x0=[float(v) for v in eq.mu_x0],
            mu_0y=[float(v) for v in eq.mu_0y],
        )
        _write_xy_table(files, outdir / "mu.csv", market, eq.mu)
        _write_payoffs(
            files, outdir / "payoffs.csv",
            [("x", market.x_labels, eq.u), ("y", market.y_labels, eq.v)],
        )
        if ctx["kind"] in ("tu", "taxes"):
            wages = recover_wages(
                market, p,
                model=ctx["recover_model"], y0=ctx["y0"], pi=ctx["pi"],
            )
            _write_xy_table(files, outdir / "wages.csv", market, wages)
    elif loaded.model == "hedonic":
        market = ctx["market"]
        s_vals = supply(market, p)
        d_vals = demand(market, p)
        _write(
            files, outdir / "prices.csv",
            lambda path: write_csv(
                path,
                ["z", "price", "supply", "demand"],
                (
                    [z, float(pv), float(sv), float(dv)]
                    for z, pv, sv, dv in zip(
                        market.z_labels, p.values, s_vals, d_vals
                    )
                ),
            ),
        )
    _write(files, outdir / "solution.json",
           lambda path: write_json(path, solution))


def _solve_nt(loaded: LoadedMarket, args, report: dict, files: list[str]) -> None:
    market = loaded.payload
    start = args.start or "worker_optimal"
    if start == "worker_optimal":
        outcome = deferred_acceptance(market)
        mode = "deferred_acceptance"
    elif start == "firm_optimal":
        outcome = adachi_solve(market, start="firm_optimal")
        mode = "adachi_firm_optimal"
    else:
        raise ValueError(
            f"--start {start!r} is not available for nt markets"
        )
    report.update(mode=mode, sweeps=None, residual_sup=None)
    outdir = _outdir(args)
    if outdir is None:
        return
    pairs = [
        [market.i_labels[i], market.j_labels[j], 1]
        for i, j in zip(*np.nonzero(outcome.mu))
    ]
    _write(
        files, outdir / "matching.csv",
        lambda path: write_csv(
            path, ["i", "j", "mu"],
            ([i, j, float(m)] for i, j, m in pairs),
        ),
    )
    _write_payoffs(
        files, outdir / "payoffs.csv",
        [("worker", market.i_labels, outcome.u),
         ("firm", market.j_labels, outcome.v)],
    )
    _write(
        files, outdir / "solution.json",
        lambda path: write_json(path, {
            "model": "nt",
            "i_labels": list(market.i_labels),
            "j_labels": list(market.j_labels),
            "mu": [[int(v) for v in row] for row in outcome.mu],
            "u": [float(v) for v in outcome.u],
            "v": [float(v) for v in outcome.v],
        }),
    )


def _solve_nt_aggregate(
    loaded: LoadedMarket, args, report: dict, files: list[str]
) -> None:
    market = loaded.payload
    outcome = dalm(market, max_rounds=args.max_sweeps)
    ok, names = is_equilibrium_matching(market, outcome)
    report.update(
        mode="dalm",
        sweeps=outcome.rounds,
        residual_sup=None,
        check={"ok": ok, "violations": list(names)},
    )
    outdir = _outdir(args)
    if outdir is None:
        return
    _write_xy_table(files, outdir / "mu.csv", market, outcome.mu)
    _write_payoffs(
        files, outdir / "payoffs.csv",
        [("x", market.x_labels, outcome.u), ("y", market.y_labels, outcome.v)],
    )
    _write(
        files, outdir / "solution.json",
        lambda path: write_json(path, {
            "model": "nt_aggregate",
            "x_labels": list(market.x_labels),
            "y_labels": list(market.y_labels),
            "mu": [[float(v) for v in row] for row in outcome.mu],
            "mu_x0": [float(v) for v in outcome.mu_x0],
            "mu_0y": [float(v) for v in outcome.mu_0y],
            "u": [float(v) for v in outcome.u],
            "v": [float(v) for v in outcome.v],
            "rounds": outcome.rounds,
        }),
    )


def cmd_solve(args) -> int:
    began = time.perf_counter()
    loaded = load_market(args.market, seed=args.seed)
    report: dict = {"status": "ok", "model": loaded.model}
    files: list[str] = []
    if loaded.model in _ENGINE_MODELS:
        _solve_engine(loaded, args, report, files)
    elif loaded.model == "nt":
        _solve_nt(loaded, args, report, files)
    elif loaded.model == "nt_aggregate":
        _solve_nt_aggregate(loaded, args, report, files)
    else:
        raise MarketFileError(f"no solver route for model {loaded.model!r}")
    report["files_written"] = files
    report["wall_time_s"] = time.perf_counter() - began
    print(json.dumps(report, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# check


def _check_engine(q, raw: dict, tol: float | None, report: dict) -> list[str]:
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
    q = _build_map(loaded)[0] if loaded.model in _ENGINE_MODELS else None
    raw = load_json(args.outcome)
    report: dict = {"model": loaded.model}
    # Each checker reads the outcome file; what it refuses is the file's fault.
    try:
        if not isinstance(raw, dict):
            raise MarketFileError("top level must be an object")
        if q is not None:
            violations = _check_engine(q, raw, args.tol, report)
        elif loaded.model == "nt":
            violations = _check_individual(loaded.payload, raw)
        elif loaded.model == "nt_aggregate":
            violations = _check_aggregate_nt(loaded.payload, raw, args.tol)
        else:
            raise MarketFileError(f"no checker for model {loaded.model!r}")
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
    files: list[str] = []
    outdir = _outdir(args)
    if outdir is not None:
        _write(
            files, outdir / "stable_set.json",
            lambda path: write_json(path, {"count": len(items), "outcomes": items}),
        )
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
    report: dict = {"model": loaded.model}
    code = 0
    if loaded.model in _ENGINE_MODELS:
        q, ctx = _build_map(loaded)
        p0 = _default_start(loaded, q, ctx, None)
        runs: dict[str, dict] = {}
        solved: dict[str, PriceVector] = {}
        for mode in ("jacobi", "gauss_seidel"):
            opts = SolverOptions(
                residual_tol=args.tol,
                max_sweeps=args.max_sweeps,
                mode=mode,
                damping=args.damping,
            )
            try:
                p, trace = solve(q, p0, opts)
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
    elif loaded.model == "nt":
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
        raise MarketFileError(
            "compare supports solver-engine and individual matching markets"
        )
    report["status"] = "ok" if code == 0 else "diverged"
    print(json.dumps(report, sort_keys=True))
    return code


# ---------------------------------------------------------------------------
# entry point


def _fail(code: int, exc: BaseException) -> int:
    print(
        json.dumps(
            {
                "status": "error",
                "error": type(exc).__name__,
                "message": str(exc),
            },
            sort_keys=True,
        )
    )
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarketFileError as exc:
        return _fail(1, exc)
    except (InstanceTooLarge, IrreducibilityViolation, UnsupportedFrontier) as exc:
        return _fail(1, exc)
    except (MaxSweepsExceeded, MaxRoundsExceeded, NonFiniteResidual) as exc:
        return _fail(2, exc)
    except ResponsivenessViolation as exc:
        return _fail(3, exc)
    except (ValueError, OSError) as exc:
        return _fail(1, exc)
