"""In-memory spans around calls into marketclear, and the per-layer numbers
derived from them.

Nothing here changes marketclear itself: the traced run swaps wrapped
callables into a few module attributes (restored on exit) and into copies of
each ``EquilibriumMap`` made with ``dataclasses.replace``. A span records its
name, start, end, parent span and job id; spans are kept in flat arrays so
that wrapping a hot call (one coordinate update, one kernel evaluation) costs
about a microsecond.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from array import array
from pathlib import Path

import numpy as np

import marketclear
import marketclear.cli as mc_cli
import marketclear.core as mc_core
import marketclear.matching as mc_matching
from marketclear import AggregateMarket, HedonicMarket

# Library functions a job calls, by the span name (layer) they are timed as.
API_SPANS = {
    "build_transfer_map": "build",
    "build_full_assignment_map": "build",
    "build_hedonic_map": "build",
    "build_ot_map": "build",
    "build_housing_map": "build",
    "build_housing_full_assignment_map": "build",
    "linear_map": "build",
    "constant_aggregate_map": "build",
    "singles_supersolution": "start",
    "singles_subsolution": "start",
    "full_assignment_supersolution": "start",
    "uniform_supersolution": "start",
    "uniform_subsolution": "start",
    "solve": "solve",
    "recover_equilibrium": "recover",
    "recover_wages": "recover",
    "dalm": "dalm",
    "is_equilibrium_matching": "eqcheck",
    "deferred_acceptance": "matching",
    "adachi_solve": "matching",
    "check_inverse_isotone": "checks",
    "check_m0_strong_set_order": "checks",
    "supply": "kernel.side",
    "demand": "kernel.side",
    "load_market": "io.load",
    "load_json": "io.load",
    "write_csv": "io.write",
    "write_json": "io.write",
}

# Module attributes looked up at call time, inside marketclear or by the
# in-process CLI pass.
MODULE_SPANS = (
    (mc_core, "jacobi_sweep", "sweep"),
    (mc_core, "gauss_seidel_sweep", "sweep"),
    (mc_core, "smallest_root", "rootfind"),
    (mc_matching, "proposal_phase", "proposal"),
    (mc_matching, "disposal_phase", "disposal"),
    (mc_cli, "main", "cli.main"),
)

# Span name -> module layer, for the self-time table.
LAYERS = {
    "solve": "core.driver",
    "sweep": "core.sweep",
    "update": "core.update",
    "rootfind": "core.rootfind",
    "checks": "core.checks",
    "kernel.full": "kernel",
    "kernel.row": "kernel",
    "kernel.side": "kernel",
    "build": "build",
    "start": "start",
    "recover": "recover",
    "dalm": "matching",
    "proposal": "matching",
    "disposal": "matching",
    "eqcheck": "matching",
    "matching": "matching",
    "io.load": "io",
    "io.write": "io",
    "cli.main": "cli",
}


class Tracer:
    """Spans in flat arrays: name id, start, end, parent index, job id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.cells = 0
        self.job_id = -1
        self._stack = [-1]

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, job: int | None = None):
        if job is not None:
            self.job_id = job
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, cells=None):
        """``fn`` inside a span; ``cells(*args)`` adds to the cell count."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cells is not None:
                self.cells += cells(*args)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def instrument_map(self, q, market):
        """Copy of ``q`` whose evaluator, update and residual are spanned."""
        full, row = _cell_counts(q, market)
        return dataclasses.replace(
            q,
            eval_values=self.wrap("kernel.full", q.eval_values, lambda v: full),
            update_value=(
                None if q.update_value is None
                else self.wrap("update", q.update_value)
            ),
            residual_value=(
                None if q.residual_value is None
                else self.wrap("kernel.row", q.residual_value,
                               lambda i, pi, v: row(i))
            ),
        )

    def api(self, fn_name: str, fn=None):
        """A marketclear function wrapped in its layer's span.

        Map builders also return instrumented maps, so every map a traced
        job uses reports its kernel calls.
        """
        fn = getattr(marketclear, fn_name) if fn is None else fn
        span = API_SPANS[fn_name]
        if span != "build":
            return self.wrap(span, fn)
        wrapped = self.wrap(span, fn)

        @functools.wraps(fn)
        def build(market, *args, **kwargs):
            return self.instrument_map(wrapped(market, *args, **kwargs), market)

        return build

    @contextlib.contextmanager
    def patched(self):
        """Wrap the module-level callables marketclear looks up at call time,
        plus everything ``marketclear.cli`` imports, and restore them after."""
        saved = []

        def swap(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            for module, attr, span in MODULE_SPANS:
                swap(module, attr, self.wrap(span, getattr(module, attr)))
            swap(mc_core.SolveTrace, "write_csv",
                 self.wrap("io.write", mc_core.SolveTrace.write_csv))
            for fn_name in API_SPANS:
                if hasattr(mc_cli, fn_name):
                    swap(mc_cli, fn_name,
                         self.api(fn_name, getattr(mc_cli, fn_name)))
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------

    def table(self):
        """Per-span arrays: names, duration, self time, parent name."""
        names = np.array(self.names + ["<root>"], dtype=object)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        pname = np.where(has_parent, nid[np.maximum(parent, 0)], len(self.names))
        return names[nid], dur, dur - child, names[pname]

    def write(self, path: Path) -> None:
        """Write every span as CSV: name,start,end,parent,job."""
        with open(path, "w") as out:
            out.write("name,start,end,parent,job\n")
            for k in range(len(self.start)):
                out.write(
                    f"{self.names[self.name_id[k]]},{self.start[k]!r},"
                    f"{self.end[k]!r},{self.parent[k]},{self.job[k]}\n"
                )


def _cell_counts(q, market):
    """Grid cells one full evaluation and one coordinate residual touch."""
    if isinstance(market, HedonicMarket):
        x, y, z = (len(market.x_labels), len(market.y_labels),
                   len(market.z_labels))
        return (x + y) * z, lambda i: x + y
    if isinstance(market, AggregateMarket):
        nx, ny = len(market.x_labels), len(market.y_labels)
        return nx * ny, lambda i: ny if i < nx else nx
    n = len(q.labels)
    return n * n, lambda i: n


def layer_metrics(tracer: Tracer, job_meta: dict[int, tuple[int, int]]) -> dict:
    """Per-layer numbers from one traced pass.

    ``job_meta`` maps a dalm job id to its market shape, for the computed
    size of the availability snapshots dalm keeps.
    """
    name, dur, own, pname = tracer.table()

    def count(n, parent=None):
        sel = name == n if parent is None else (name == n) & (pname == parent)
        return int(sel.sum())

    def total(n, parent=None, values=dur):
        sel = name == n if parent is None else (name == n) & (pname == parent)
        return float(values[sel].sum())

    def self_s(n):
        return total(n, values=own)

    job_ids = np.frombuffer(tracer.job, dtype=np.int32)
    dalm_bytes = 0
    for job, (x, y) in job_meta.items():
        rounds = int(((name == "proposal") & (job_ids == job)).sum())
        dalm_bytes += (rounds + 1) * x * y * 8

    bisected = count("rootfind")
    probes = count("kernel.row", "rootfind") + count("kernel.full", "rootfind")
    rounds = count("proposal")
    sweeps = count("sweep")
    return {
        "solve.calls": count("solve"),
        "solve.record_evals": count("kernel.full", "solve"),
        "solve.record_s": total("kernel.full", "solve"),
        "solve.driver_self_s": self_s("solve"),
        "sweep.calls": sweeps,
        "sweep.self_s": self_s("sweep"),
        "sweep.mean_s": total("sweep") / sweeps if sweeps else 0.0,
        "update.calls": count("update"),
        "update.s": total("update"),
        "rootfind.calls": bisected,
        "rootfind.probes": probes,
        "rootfind.s": total("rootfind"),
        "rootfind.self_s": self_s("rootfind"),
        "rootfind.probes_per_update": probes / bisected if bisected else 0.0,
        "kernel.full_evals": count("kernel.full"),
        "kernel.full_s": total("kernel.full"),
        "kernel.row_evals": count("kernel.row"),
        "kernel.row_s": total("kernel.row"),
        "kernel.cells": tracer.cells,
        "kernel.bytes_computed": tracer.cells * 8,
        "build.s": self_s("build"),
        "start.calls": count("start"),
        "start.s": self_s("start"),
        "recover.s": self_s("recover"),
        "dalm.rounds": rounds,
        "dalm.round_mean_s": total("dalm") / rounds if rounds else 0.0,
        "dalm.trace_bytes_computed": dalm_bytes,
        "proposal.s": self_s("proposal"),
        "disposal.s": self_s("disposal"),
        "eqcheck.s": self_s("eqcheck"),
        "io.load_s": self_s("io.load"),
        "io.write_s": self_s("io.write"),
        "trace.unattributed_s": self_s("job"),
    }


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time by module layer, plus time inside jobs no layer covers."""
    name, _, own, _ = tracer.table()
    out: dict[str, float] = {}
    for span, layer in LAYERS.items():
        out[layer] = out.get(layer, 0.0) + float(own[name == span].sum())
    out["unattributed"] = float(own[name == "job"].sum())
    return out
