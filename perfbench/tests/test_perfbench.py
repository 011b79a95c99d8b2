"""The benchmark's own tests, at tiny instance sizes.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from marketclear import PriceVector  # noqa: E402
from perfbench import DEFAULT_SEED, HELDOUT_SEED, bench, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_metric_names_use_allowed_characters_once():
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in SPEC[section]]
    names += WORKLOADS
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
               for section in ("end_to_end", "per_layer") for m in SPEC[section])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_timed_run(workload):
    result = bench.timed_run(workload, DEFAULT_SEED, 0.01, ROOT, "tiny")
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= bench.MIN_PASSES
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELDOUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run(workload, seed):
    result = bench.traced_run(workload, seed, ROOT, "tiny")
    assert result["failed"] == 0, result["failures"]
    assert declared("per_layer") <= set(result["metrics"])


def _counts(result) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v for k, v in result["metrics"].items() if units.get(k) in ("count", "B")}


@pytest.mark.parametrize("workload", ["tu_sweep", "bisect", "dalm"])
def test_counts_repeat_for_a_seed(workload):
    first = _counts(bench.traced_run(workload, 3, ROOT, "tiny"))
    second = _counts(bench.traced_run(workload, 3, ROOT, "tiny"))
    assert first == second
    layer = {"tu_sweep": "kernel.cells", "bisect": "rootfind.probes",
             "dalm": "dalm.rounds"}[workload]
    assert first[layer] > 0


def _perturbed(job):
    """The job's solution with one price moved by 1e-3."""
    def run():
        p, trace = job()
        values = p.values.copy()
        values[0] += 1e-3
        return PriceVector(p.labels, values), trace
    return run


@pytest.mark.parametrize("workload", ["tu_sweep", "bisect"])
def test_perturbed_price_fails_the_gates(workload):
    wl = workloads.make(workload, 5, "tiny")
    clean, broken = bench.Failures(), bench.Failures()
    for failures, wrap in ((clean, lambda job: job), (broken, _perturbed)):
        jobs = [(name, wrap(job)) for name, job in wl.jobs()]
        _, digests = bench.run_pass(jobs, failures, 0, wl.digest)
        failures.add(0, wl.check_pass(digests))
        failures.add(None, wl.check_final(
            [((0, name), d) for name, d in digests.items()]))
    assert clean.failed == 0
    assert broken.failed == len(wl.jobs())


def test_dalm_seed_relabels_without_changing_work():
    a = workloads.dalm_market(0, 12, seed=1)
    b = workloads.dalm_market(0, 12, seed=2)
    assert not np.array_equal(a.alpha, b.alpha)
    assert sorted(a.alpha.ravel()) == sorted(b.alpha.ravel())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tu_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
