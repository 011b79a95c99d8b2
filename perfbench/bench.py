"""Timed and traced runs of one workload.

A timed run (``trace=0``) repeats the workload's job list ("a pass") as
often as passes of the workload's nominal length ``pass_s`` fit in
``seconds``, and at least twice; the job count, and with it the tail
percentile, is then the same in every run. Every job is gated outside the
timed region. A traced run (``trace=1``) alternates untraced and traced
passes of the same inputs in the same budget, at least one of each; its
per-layer numbers come from the first traced pass, and its counts repeat
exactly for a seed.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import BLAS_VARS
from perfbench import tracer as tracing
from perfbench import workloads

MIN_PASSES = 2
SETUP_PROBES = 5


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Failures:
    """Gate outcomes per job run, keyed by (pass, job name)."""

    def __init__(self):
        self.attempted = 0
        self.reasons: dict[tuple[int, str], list[str]] = {}

    def add(self, pass_no: int | None, bad: dict) -> None:
        """Add reasons keyed by job name, or by (pass, name) when
        ``pass_no`` is None."""
        for key, reasons in bad.items():
            if reasons:
                key = key if pass_no is None else (pass_no, key)
                self.reasons.setdefault(key, []).extend(reasons)

    @property
    def failed(self) -> int:
        return len(self.reasons)


def run_pass(jobs, failures: Failures, pass_no: int, digest=None,
             tracer=None, job_ids=None) -> tuple[list[float], dict]:
    """Time each job; ``digest(name, out)`` then runs untimed.

    Returns job times and the digests (raw outputs without ``digest``). A
    job that raises is timed and counted as failed.
    """
    times, outs, errors = [], {}, {}
    for name, fn in jobs:
        failures.attempted += 1
        began = time.perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.span("job", job=len(job_ids)):
                    job_ids.append(name)
                    out = fn()
        except Exception as exc:  # a failing job is counted, not fatal
            times.append(time.perf_counter() - began)
            errors[name] = [f"{type(exc).__name__}: {exc}"]
            continue
        times.append(time.perf_counter() - began)
        outs[name] = out if digest is None else digest(name, out)
        del out
    failures.add(pass_no, errors)
    return times, outs


def setup_times(workload: str, seed: int, scale: str, root: Path, workdir: Path) -> list[float]:
    """Set-up cost in fresh interpreters, once unmeasured to warm caches.

    In-process workloads: ``import marketclear`` plus market construction and
    map builds, timed inside the child. ``cli_batch``: the wall time of a
    child interpreter that imports marketclear.
    """
    if workload == "cli_batch":
        argv = [sys.executable, "-c", "import marketclear"]
    else:
        argv = [sys.executable, str(root / "perfbench" / "setup_probe.py"),
                workload, str(seed), scale]
    out = []
    for k in range(SETUP_PROBES + 1):
        child = workloads.run_child(argv, root, workdir / f"setup{k}")
        if child["code"] != 0:
            raise RuntimeError(f"set-up probe failed: {child['stdout']!r}")
        if k:
            out.append(child["wall_s"] if workload == "cli_batch"
                       else float(child["stdout"].split()[-1]))
    return out


def _fresh(workdir: Path) -> Path:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def timed_run(workload: str, seed: int, seconds: float, root: Path,
              scale: str = "full") -> dict:
    workdir = _fresh(root / ".perfbench_out" / f"{workload}-seed{seed}-timed")
    setups = setup_times(workload, seed, scale, root, workdir)
    wl = workloads.make(workload, seed, scale, root=root, workdir=workdir)
    if workload != "cli_batch":
        # Let lazy set-up (first numpy calls, caches) finish before timing.
        wl.jobs()[0][1]()
    failures = Failures()
    job_times, pass_walls, all_digests = [], [], []
    for _ in range(max(MIN_PASSES, int(seconds // wl.pass_s))):
        gc.collect()
        times, digests = run_pass(wl.jobs(), failures, len(pass_walls), wl.digest)
        failures.add(len(pass_walls), wl.check_pass(digests))
        all_digests += [((len(pass_walls), name), d) for name, d in digests.items()]
        job_times += times
        pass_walls.append(sum(times))
    if workload == "cli_batch":
        peak = max(d["rss_mb"] for _, d in all_digests)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures.add(None, wl.check_final(all_digests))
    tail_s, tail_pct = tail(job_times)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    info = {
        "passes": len(pass_walls),
        "jobs": len(job_times),
        "job_tail_percentile": tail_pct,
        "setup_samples": setups,
        "pass_walls": pass_walls,
    }
    return _result(workload, seed, 0, failures, metrics, info, workdir)


def traced_run(workload: str, seed: int, root: Path, scale: str = "full",
               seconds: float = 0.0) -> dict:
    workdir = _fresh(root / ".perfbench_out" / f"{workload}-seed{seed}-traced")
    failures = Failures()
    # Layers a workload never enters read 0.
    metrics = {"solve.sweeps": 0, "solve.trace_bytes_computed": 0,
               **_cli_metrics({})}
    wl = workloads.make(workload, seed, scale, root=root, workdir=workdir)
    if workload == "cli_batch":
        # Child processes give the cli.* numbers; the in-process cli.main
        # passes below give the traced layers inside a CLI call.
        _, digests = run_pass(wl.jobs(), failures, 0, wl.digest)
        failures.add(0, wl.check_pass(digests))
        metrics.update(_cli_metrics(digests))
        plain_jobs = lambda: wl.inproc_jobs("inproc_plain")
        traced_jobs = lambda tr: wl.inproc_jobs("inproc_traced")
    else:
        plain_jobs = wl.jobs
        plain_jobs()[0][1]()  # warm-up, as in the timed run
        # Same seed, so the same markets, with spanned maps and functions.
        traced_jobs = lambda tr: workloads.make(workload, seed, scale, tracer=tr).jobs()

    # Untraced and traced passes alternate; the overhead compares their
    # medians, and the per-layer numbers come from the first traced pass.
    plain_walls, traced_walls = [], []
    tr = None
    for _ in range(max(1, int(seconds // (2 * wl.pass_s)))):
        gc.collect()
        times, _ = run_pass(plain_jobs(), Failures(), 1)
        plain_walls.append(sum(times))
        pass_tracer, ids = tracing.Tracer(), []
        with pass_tracer.patched():
            jobs = traced_jobs(pass_tracer)
            gc.collect()
            times, pass_outs = run_pass(jobs, failures if tr is None else Failures(),
                                        2, tracer=pass_tracer, job_ids=ids)
        traced_walls.append(sum(times))
        if tr is None:
            tr, job_ids, outs = pass_tracer, ids, pass_outs
    if workload == "cli_batch":
        failures.add(2, wl.check_inproc(outs))
    else:
        digests = {name: wl.digest(name, out) for name, out in outs.items()}
        failures.add(2, wl.check_pass(digests))
        failures.add(None, wl.check_final([((2, n), d) for n, d in digests.items()]))
        solves = [d for d in digests.values() if "sweeps" in d]
        metrics["solve.sweeps"] = sum(d["sweeps"] for d in solves)
        metrics["solve.trace_bytes_computed"] = sum(
            (d["sweeps"] + 1) * d["p"].size * 8 for d in solves
        )

    job_meta = {}
    if workload == "dalm":
        job_meta = {k: wl.shape(name) for k, name in enumerate(job_ids)}
    metrics.update(tracing.layer_metrics(tr, job_meta))
    metrics["trace.wall_s"] = traced_walls[0]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    tr.write(workdir / "spans.csv")
    info = {
        "layer_self_s": tracing.layer_self_times(tr),
        "pass_walls_untraced": plain_walls,
        "pass_walls_traced": traced_walls,
        "spans": len(tr.start),
        "spans_file": str((workdir / "spans.csv").relative_to(root)),
    }
    return _result(workload, seed, 1, failures, metrics, info, workdir)


def _cli_metrics(digests: dict) -> dict:
    timed = [d for d in digests.values() if "wall_time_s" in d["report"]]
    process = sum(d["solve_wall_s"] for d in timed)
    report = sum(d["report"]["wall_time_s"] for d in timed)
    checks = digests.get("samples", {}).get("report", {}).get(
        "structure_checks", {}).get("inverse_isotone", {})
    samples = checks.get("samples", 0)
    return {
        "cli.process_s": process,
        "cli.report_wall_s": report,
        "cli.startup_s": process - report,
        "checks.samples": samples,
        "checks.comparable_frac": checks.get("comparable", 0) / samples if samples else 0.0,
        "io.bytes_written": sum(d["bytes"] for d in digests.values()),
    }


def _result(workload, seed, trace, failures: Failures, metrics, info, workdir) -> dict:
    if trace:
        metrics["ops.attempted"] = failures.attempted
        metrics["ops.failed"] = failures.failed
        metrics["failed_frac"] = failures.failed / failures.attempted
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine_facts(),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": {f"{p}:{n}": r for (p, n), r in failures.reasons.items()},
        "metrics": metrics,
        "info": info,
    }
    (workdir / "result.json").write_text(json.dumps(result, indent=2, default=float))
    return result
