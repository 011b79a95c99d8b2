"""End-to-end command-line tests via subprocess."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from marketclear import EquilibriumMap, cli, linear_map, transfers

REPO = Path(__file__).resolve().parent.parent
MARKETS = REPO / "markets"

SOLVABLE = [
    "linear_mmatrix.json",
    "transfer_tu.json",
    "transfer_taxes.json",
    "transfer_full.json",
    "ot_small.json",
    "housing.json",
    "hedonic.json",
    "nt_small.json",
    "nt_8x8.json",
    "nt_aggregate.json",
]

# sha256 of each file ``solve --out`` writes with default options. The TU, OT
# and full-assignment hashes were recorded when every sweep still updated one
# coordinate at a time; the housing and taxes ones when the housing map was
# written in min form and each bipartite map had a builder of its own; the
# hedonic and both nt ones when each start constructor ran its own doubling
# loop and each solve route wrote its own CSV tables; the linear M-matrix and
# nt 8x8 ones when every bisection probe was its own scalar call. Faster sweeps
# and shared builders must reproduce the iterates, and so these bytes, exactly.
PINNED_ARTIFACTS = {
    "hedonic.json": {
        "prices.csv":
            "6803a584efcc3a6dc32c1986d833a2d18c7be2a34a91de087dc9f767f2cbd2ab",
        "solution.json":
            "67e53fc1ba876b004ea267e5d20bdece2fa42b75af4c8dd44fa3cdda350f7262",
        "trace.csv":
            "df93317ee667bbc00ce09e452385465a0f8ddda46618e885cc97ec47c9df9a1a",
    },
    "housing.json": {
        "mu.csv":
            "1458641fc7a747ae67276cc9d9539db8c6736fb5c2e390b7beffd514145c68ae",
        "payoffs.csv":
            "f8ac43f8dcbd2137e929790a624b4876a50ee26e445ec85ac74b76f278ae93ea",
        "solution.json":
            "a5a03851f5dbea54d406f8d52c03a2d0c146aabb63ae540dbd4568afbb3459d4",
        "trace.csv":
            "2fb514a052f4903c5d6b2031b6203dd3ef3708f38329457118a162390e262a74",
    },
    "linear_mmatrix.json": {
        "solution.json":
            "99a8015536e731ad31660019d08ad4327192380edc65ddac4b8082783c390588",
        "trace.csv":
            "8fe8cadeb0e3e3ce34059543a64050ff716a84e8390ad3b058d5ce7782f6a202",
    },
    "nt_8x8.json": {
        "matching.csv":
            "8606e89257eaaf9cea64a034ef430b7e69abf17d80ac751e903c80f54e722177",
        "payoffs.csv":
            "314ab8acc566a08012b87618c259cdfda5198fcd3e2df0951baf33254c3076f0",
        "solution.json":
            "55034c9d09a7f242672c67efecd2824bcf4d7c9349e13c76e087d86aa118d913",
    },
    "nt_aggregate.json": {
        "mu.csv":
            "35b347aef9381a42701664a153288df227da30a8104447be01aabff9f7e5217c",
        "payoffs.csv":
            "f082fed0b244406aa73192b45cc24f83785e070d2354fa74970dc6f8b8966a7f",
        "solution.json":
            "7af2253b2bec628efefa0c5a55cf5ea4ffd477dc5bcb14ef4db2a64067d07b38",
    },
    "nt_small.json": {
        "matching.csv":
            "f81f867172294c66e26e581058b9b0a061c0bd0f8e861125ea6ee23c6642c034",
        "payoffs.csv":
            "9704c4c5f52769687300d594c0f302461cda69167c35f0e5d2edb6696d13ef76",
        "solution.json":
            "36c271010d039ad7a3ae9ed9b18db14aac468f98c9235a1b0e355fd54041c527",
    },
    "ot_small.json": {
        "mu.csv":
            "30f8d6529537de41a8cca2446c24c5a69d5b9029fac26d4b0c6516cd2d6ea4b5",
        "payoffs.csv":
            "4ea463b466b3c1e48707541ffb62044070ed8a9ebc67f43794841097366f7f87",
        "solution.json":
            "f1d8d02c6f7e405ca59406d6df5c372d46885eee434a5b69b4bd4ac4b6449068",
        "trace.csv":
            "fe7585038a3dafe76fbf74fe14e3b83692cec794e469f42ef93688aa095b939b",
        "wages.csv":
            "e4489708531bdb04dbfd0a180a6396d0316131f57ecff188b2b73304b19c49ea",
    },
    "transfer_full.json": {
        "mu.csv":
            "5f86a55f52b6ab09bf607f1f2ad95a553308e41c601802e2c7886ecb244b3818",
        "payoffs.csv":
            "cb815549669d9fcfc56011d6944c535150db66b353b2c87165790146abd840d2",
        "solution.json":
            "38d08b5ad1d2e8427e1723ad509bb75d82f6d5038c47f0188ce19b70dad199f8",
        "trace.csv":
            "bb3fa804d96e8542477ea0f6b2341c7311f906fe32e325ce29444584b39e818e",
        "wages.csv":
            "87b9e0d7925695b44c4ae67a6221dbe337944b4678edae01c759be0cf0bc1f01",
    },
    "transfer_taxes.json": {
        "mu.csv":
            "8fa4613b7f3070305b517205a9ceef7028edbb3f77a16b87a251c6adf1ab0b24",
        "payoffs.csv":
            "ba301da7bacc01f1bf45f0e1fb1ada3d5bbf949a4130c0875ca5829301a0e276",
        "solution.json":
            "254de564dd90f3a971d1c90031a85250bf49e531b3fb661ae06e3cdd96662954",
        "trace.csv":
            "6e36ac44777175fbb3748b88aeec6d8aa1503567343f00dcee285a2383d4bbbe",
        "wages.csv":
            "38c4bf8d9f180917472d33ab6b1c47234bd8e8413d9b19452544f5cb98db29fa",
    },
    "transfer_tu.json": {
        "mu.csv":
            "01aec01f3de82ff50ff154797724bd2078cbfc91c28ca6427f4d8f7b2377d559",
        "payoffs.csv":
            "9efa6cb7ea917205e645af1d8d24dc776b18d20810161b4e054078ecca39f767",
        "solution.json":
            "242b67a02f2d460945ee55e5aa64ad04331e2dc7b2d30170003f15e8e4612248",
        "trace.csv":
            "338ad09c83055844cc962f78a1e74fccf7264e56f62e8ac69cb55d5ab383c0ee",
        "wages.csv":
            "a58d692a67b66ed94000d11a2081a48b7c9d180bb53cdda2d0539f2708b85f2f",
    },
}


# sha256 of each file ``solve --mode gauss-seidel --out`` writes, for every
# market the sweep engine solves (``linear_divergent`` aside, which writes
# nothing). They were recorded while a closed-form map still had one hook per
# coordinate and one per block, and while a lone bisected coordinate (every
# hedonic coordinate here) still ran the scalar root finder. ``ot_small``
# solves by Gauss-Seidel by default, so its pin is the one above.
GAUSS_SEIDEL_ARTIFACTS = {
    "hedonic.json": {
        "prices.csv":
            "03883fe59ceb1743c1e8fb7f2a146b7ac8f2015a6bcfe8eeeefe40ee3bb008df",
        "solution.json":
            "ac43f4add852b4e7d766e24abad43a7dd89c53b293488bf94b46516c30ed57c4",
        "trace.csv":
            "0aa6a685ff3cca6a561ec8c5299fa9292a2a403938d967d8be043b8d97223fd6",
    },
    "housing.json": {
        "mu.csv":
            "2bc381ceee1ffbbd037cb0573ab29c4979f787f2d75c8cc43169a75748bcbafc",
        "payoffs.csv":
            "0c1880f03ba4d9b859feaafe8237e074ad8d4427987c74086774e716b47e846c",
        "solution.json":
            "2e8a01f699a67bffa25c3439398730460270cff5f4ddab670beeda6ae7e7fcfe",
        "trace.csv":
            "b91ea3135b32c07e2cdd018cb1bb08c16305e7a6c2c153620fdc39bd8f98bb55",
    },
    "linear_mmatrix.json": {
        "solution.json":
            "3c5848cc5eb342753092b01a98ca8deaa79a3203b540584d39342b54fd4f5d5d",
        "trace.csv":
            "b93cb6c5e84790781427bbee1edc8392cbc9c0fcb2c0ad11a5c5032730c2dabc",
    },
    "ot_small.json": PINNED_ARTIFACTS["ot_small.json"],
    "transfer_full.json": {
        "mu.csv":
            "c842f1860c5805bffe0f7878f70ac817624decac496a55fef61e894b88cdc901",
        "payoffs.csv":
            "35d32588316dd2d71bfe5a98e9037e15b305514b51d26edf061013db9897f856",
        "solution.json":
            "be3828ccd24663015a1d8c84414f2c16308eb29281f1e6d7d008f18ba83ff621",
        "trace.csv":
            "15f87f9e4df69c3780d906182c077637e5500af4bd43355c5ddf5a60583a2896",
        "wages.csv":
            "a5cf7900f1c2cfbde9fb173a24c4113388bb7428c4035d3d887d3d621445cca0",
    },
    "transfer_taxes.json": {
        "mu.csv":
            "301f73c1e6888442f8d07026e738dcd392a67f10a410cb87ce4746b7da453bbf",
        "payoffs.csv":
            "5452ed62192e03fc60225e99770672298092400f08745076155de00930bb6629",
        "solution.json":
            "993715f814f7a4e7680ec4ab831adb9a279b4e4f7aa25ac2df2f86554a4d0eff",
        "trace.csv":
            "f9d9900e99d0ff536f8d94153deb35a7722b99a8a2458ceee418934a3e0d161b",
        "wages.csv":
            "b31374210597a0a72955fabadff721adb5d2d6ebaf0dd730c0dcb1c8a1d709c0",
    },
    "transfer_tu.json": {
        "mu.csv":
            "39b4e324a60d560fbed8b2d3e462d92370c64eb2d6e73bf9aa03f028e810188a",
        "payoffs.csv":
            "ed301ae338f5817cff6e205d85e02847566129653def29321fe70f398a7ef58f",
        "solution.json":
            "2f53e5b96b4e8497026e978bbf151a3d78a99dfcb678fa038c1a94ed1027f136",
        "trace.csv":
            "1468d4c657fb2ee7ab04637ee1e52389751343a4eab0b6fa6d70b9e16b5543a9",
        "wages.csv":
            "317c9c89716bb599b3b9b055a3fa49f1a3189779436e7837176fe42d541b787b",
    },
}


# Every ``--start`` value tried on every shipped market: the default (None),
# each start some model offers, and one that no model offers.
STARTS = (
    None, "supersolution", "subsolution", "zeros", "file", "firm_optimal",
    "bogus",
)
ROUTE_LINES = [
    ["solve", f"markets/{name}", *([] if start is None else ["--start", start])]
    for name in sorted(f.name for f in MARKETS.glob("*.json"))
    for start in STARTS
] + [
    ["compare", f"markets/{name}"]
    for name in sorted(f.name for f in MARKETS.glob("*.json"))
]

# Exit code and JSON report (less ``wall_time_s``) of each line above, keyed
# by the command line; recorded while the CLI still chose each model's map,
# starts and recovery in separate ladders. The ``solve nt_aggregate.json
# --start`` lines were re-recorded when the dalm route began to refuse every
# start but ``dalm``, which it had ignored until then.
ROUTE_REPORTS = json.loads((Path(__file__).parent / "cli_reports.json").read_text())


# Comparable pairs of each sampled check ``solve --samples 50`` reports for
# every market the sweep engine solves (all 50 samples, no violations),
# recorded while each check's report was assembled by hand.
# ``m0_strong_set_order`` runs exactly when a map declares ``m0_function``
# but not ``m_function``. ``linear_divergent`` runs its checks too, but its
# solve fails and reports only the error.
SAMPLED_CHECKS = {
    "hedonic.json": {"inverse_isotone": 0},
    "housing.json": {"inverse_isotone": 0},
    "linear_mmatrix.json": {"inverse_isotone": 2, "m0_strong_set_order": 2},
    "ot_small.json": {"inverse_isotone": 0, "m0_strong_set_order": 0},
    "transfer_full.json": {"inverse_isotone": 1, "m0_strong_set_order": 1},
    "transfer_taxes.json": {"inverse_isotone": 0},
    "transfer_tu.json": {"inverse_isotone": 0},
}


def run_cli(*argv: str):
    proc = subprocess.run(
        [sys.executable, "-m", "marketclear", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    return proc


def run_json(*argv: str):
    proc = run_cli(*argv)
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout)


class TestSolve:
    @pytest.mark.parametrize("name", SOLVABLE)
    def test_samples_solve_cleanly(self, name):
        code, report = run_json("solve", str(MARKETS / name))
        assert code == 0, report
        assert report["status"] == "ok"
        assert report["files_written"] == []
        assert report["wall_time_s"] >= 0.0

    def test_hedonic_reaches_default_tolerance(self):
        code, report = run_json("solve", str(MARKETS / "hedonic.json"))
        assert code == 0
        assert report["model"] == "hedonic"
        assert report["residual_sup"] <= 1e-10
        assert report["mode"] == "jacobi"
        assert report["structure"]["m_function"] is True

    def test_transport_defaults_to_sequential_sweeps(self):
        code, report = run_json("solve", str(MARKETS / "ot_small.json"))
        assert code == 0
        assert report["mode"] == "gauss_seidel"
        assert report["residual_sup"] <= 1e-10

    def test_divergent_market_exits_2(self):
        proc = run_cli("solve", str(MARKETS / "linear_divergent.json"))
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["status"] == "error"
        assert report["error"] == "NonFiniteResidual"
        assert proc.stderr.startswith("error:")

    def test_sweep_budget_exits_2(self):
        proc = run_cli(
            "solve", str(MARKETS / "linear_divergent.json"),
            "--max-sweeps", "20",
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "MaxSweepsExceeded"

    def test_round_budget_exits_2(self, tmp_path, capsys):
        # A 12 x 12 divisible-mass market whose dalm iteration settles only
        # after 57616 rounds, most of them idle.
        rng = np.random.default_rng(2194)
        n, m = rng.uniform(0.5, 3.0, 12), rng.uniform(0.5, 3.0, 12)
        alpha, gamma = rng.uniform(-1.0, 2.0, (2, 12, 12))
        market = tmp_path / "creep.json"
        market.write_text(json.dumps({
            "model": "nt",
            "n": {f"x{k}": float(v) for k, v in enumerate(n)},
            "m": {f"y{k}": float(v) for k, v in enumerate(m)},
            "alpha": alpha.tolist(), "gamma": gamma.tolist(),
        }))
        out = tmp_path / "out"
        assert cli.main(["solve", str(market), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "MaxRoundsExceeded"
        assert not out.exists()
        argv = ["solve", str(market), "--max-sweeps", "60000"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["sweeps"] == 57616

    def test_unresponsive_market_exits_3(self, tmp_path, capsys):
        market = tmp_path / "unresponsive.json"
        market.write_text(json.dumps(
            {"model": "linear", "A": [[0.0, -1.0], [-1.0, 2.0]], "p0": [1.0, 1.0]}
        ))
        assert cli.main(["solve", str(market)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "ResponsivenessViolation"

    def test_structure_checks_report(self):
        code, report = run_json(
            "solve", str(MARKETS / "linear_mmatrix.json"), "--samples", "50"
        )
        assert code == 0
        checks = report["structure_checks"]
        assert checks["inverse_isotone"]["samples"] == 50
        assert checks["inverse_isotone"]["violations"] == 0

    @pytest.mark.parametrize("name", sorted(SAMPLED_CHECKS))
    def test_sampled_checks_follow_the_declared_flags(self, name, capsys):
        assert cli.main(["solve", str(MARKETS / name), "--samples", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structure_checks"] == {
            check: {"samples": 50, "comparable": comparable, "violations": 0}
            for check, comparable in SAMPLED_CHECKS[name].items()
        }
        flags = report["structure"]
        assert ("m0_strong_set_order" in report["structure_checks"]) == (
            flags["m0_function"] and not flags["m_function"]
        )

    def test_artifacts_round_trip(self, tmp_path):
        out = tmp_path / "run"
        code, report = run_json(
            "solve", str(MARKETS / "transfer_tu.json"), "--out", str(out)
        )
        assert code == 0
        names = sorted(Path(f).name for f in report["files_written"])
        assert names == sorted(
            ["trace.csv", "mu.csv", "payoffs.csv", "wages.csv", "solution.json"]
        )
        assert sorted(p.name for p in out.iterdir()) == names
        solution = json.loads((out / "solution.json").read_text())
        assert solution["model"] == "transfer"
        assert solution["residual_sup"] <= 1e-10
        assert len(solution["labels"]) == len(solution["prices"])
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "sweep," + ",".join(solution["labels"]) + \
            ",residual_sup,is_sub,is_super"

    def test_artifacts_are_byte_deterministic(self, tmp_path):
        outs = []
        for stamp in ("a", "b"):
            out = tmp_path / stamp
            code, _ = run_json(
                "solve", str(MARKETS / "transfer_taxes.json"),
                "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        for name in ("trace.csv", "mu.csv", "payoffs.csv", "wages.csv",
                     "solution.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_generator_file_needs_seed(self, tmp_path):
        doc = {
            "model": "transfer",
            "singles": True,
            "sigma": 1.0,
            "n": {"count": 2, "prefix": "x", "uniform": [0.5, 1.5]},
            "m": {"count": 3, "prefix": "y", "uniform": [0.5, 1.5]},
            "frontier": {"kind": "tu", "phi": {"uniform": [-0.5, 0.5]}},
        }
        market = tmp_path / "gen.json"
        market.write_text(json.dumps(doc))
        proc = run_cli("solve", str(market))
        assert proc.returncode == 1
        assert "seed" in json.loads(proc.stdout)["message"]

        code, first = run_json("solve", str(market), "--seed", "7")
        assert code == 0
        code, second = run_json("solve", str(market), "--seed", "7")
        assert code == 0
        assert first["residual_sup"] == second["residual_sup"]

    def test_malformed_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("solve", str(bad))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "MarketFileError"

    def test_unknown_model_exits_1(self, tmp_path):
        weird = tmp_path / "weird.json"
        weird.write_text(json.dumps({"model": "mystery"}))
        proc = run_cli("solve", str(weird))
        assert proc.returncode == 1

    def test_missing_file_exits_1(self, tmp_path):
        proc = run_cli("solve", str(tmp_path / "nothing.json"))
        assert proc.returncode == 1

    def test_usage_error_exits_1(self):
        proc = run_cli("solve")
        assert proc.returncode == 1
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_invalid_start_exits_1(self):
        proc = run_cli(
            "solve", str(MARKETS / "hedonic.json"), "--start", "sideways"
        )
        assert proc.returncode == 1


class TestPinnedArtifacts:
    @pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
    def test_default_artifacts_match_recorded_hashes(self, name, tmp_path, capsys):
        assert cli.main(["solve", str(MARKETS / name), "--out", str(tmp_path)]) == 0
        written = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()
        }
        assert written == PINNED_ARTIFACTS[name]

    @pytest.mark.parametrize("name", sorted(GAUSS_SEIDEL_ARTIFACTS))
    def test_gauss_seidel_artifacts_match_recorded_hashes(self, name, tmp_path, capsys):
        argv = ["solve", str(MARKETS / name), "--mode", "gauss-seidel"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        written = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()
        }
        assert written == GAUSS_SEIDEL_ARTIFACTS[name]

    def test_divergent_market_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        name = str(MARKETS / "linear_divergent.json")
        assert cli.main(["solve", name, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "NonFiniteResidual"
        assert not out.exists()

    def test_failed_recovery_writes_nothing(self, tmp_path, capsys):
        # A loose tolerance stops the solve at prices that the recovery
        # refuses; the trace is not written before that refusal.
        out = tmp_path / "out"
        name = str(MARKETS / "transfer_tu.json")
        assert cli.main(["solve", name, "--tol", "1e-2", "--out", str(out)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "ValueError"
        assert "do not clear the market within tolerance" in report["message"]
        assert not out.exists()


class TestRouteTable:
    @pytest.mark.parametrize(
        "argv", ROUTE_LINES,
        ids=lambda argv: "-".join(a.removeprefix("markets/") for a in argv),
    )
    def test_report_matches_recorded(self, argv, monkeypatch, capsys):
        monkeypatch.chdir(REPO)
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time_s", None)
        assert {"exit": code, "report": report} == ROUTE_REPORTS[" ".join(argv)]


class TestCheck:
    def solve_out(self, name: str, tmp_path) -> Path:
        out = tmp_path / "run"
        code, _ = run_json("solve", str(MARKETS / name), "--out", str(out))
        assert code == 0
        return out / "solution.json"

    def test_engine_round_trip(self, tmp_path):
        solution = self.solve_out("transfer_tu.json", tmp_path)
        code, report = run_json(
            "check", str(MARKETS / "transfer_tu.json"), str(solution)
        )
        assert code == 0
        assert report["violations"] == []
        assert report["residual_sup"] <= 1e-8

    def test_engine_perturbed_prices_fail(self, tmp_path):
        solution = self.solve_out("transfer_tu.json", tmp_path)
        data = json.loads(solution.read_text())
        data["prices"][0] += 0.5
        tweaked = tmp_path / "tweaked.json"
        tweaked.write_text(json.dumps(data))
        code, report = run_json(
            "check", str(MARKETS / "transfer_tu.json"), str(tweaked)
        )
        assert code == 4
        assert report["violations"] == ["residual_sup"]
        assert report["status"] == "violations"

    def test_individual_round_trip(self, tmp_path):
        solution = self.solve_out("nt_small.json", tmp_path)
        code, report = run_json(
            "check", str(MARKETS / "nt_small.json"), str(solution)
        )
        assert code == 0
        assert report["violations"] == []

    def test_individual_perturbed_payoff_fails(self, tmp_path):
        solution = self.solve_out("nt_small.json", tmp_path)
        data = json.loads(solution.read_text())
        data["u"][0] += 0.25
        tweaked = tmp_path / "tweaked.json"
        tweaked.write_text(json.dumps(data))
        code, report = run_json(
            "check", str(MARKETS / "nt_small.json"), str(tweaked)
        )
        assert code == 4
        assert report["violations"] == ["payoff_consistency"]

    def test_individual_unstable_matching_fails(self, tmp_path):
        outcome = tmp_path / "claimed.json"
        outcome.write_text(json.dumps({"mu": [[0, 0], [0, 0]]}))
        code, report = run_json(
            "check", str(MARKETS / "nt_small.json"), str(outcome)
        )
        assert code == 4
        assert report["violations"] == ["blocking"]

    def test_aggregate_solve_keeps_no_trace(self, tmp_path, monkeypatch, capsys):
        # The round count comes with the outcome, so the CLI never asks dalm
        # for its per-round availability snapshots.
        calls = []
        real = cli.dalm

        def spy(market, **kwargs):
            calls.append(kwargs)
            return real(market, **kwargs)

        monkeypatch.setattr(cli, "dalm", spy)
        name = str(MARKETS / "nt_aggregate.json")
        assert cli.main(["solve", name, "--out", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1 and not calls[0].get("return_trace")
        market = cli.load_market(name).payload
        _, trace = real(market, max_rounds=calls[0]["max_rounds"], return_trace=True)
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert report["sweeps"] == solution["rounds"] == len(trace) - 1

    def test_aggregate_round_trip(self, tmp_path):
        solution = self.solve_out("nt_aggregate.json", tmp_path)
        code, report = run_json(
            "check", str(MARKETS / "nt_aggregate.json"), str(solution)
        )
        assert code == 0
        assert report["violations"] == []

    def test_aggregate_perturbed_mass_fails(self, tmp_path):
        solution = self.solve_out("nt_aggregate.json", tmp_path)
        data = json.loads(solution.read_text())
        data["mu_x0"][0] += 0.3
        tweaked = tmp_path / "tweaked.json"
        tweaked.write_text(json.dumps(data))
        code, report = run_json(
            "check", str(MARKETS / "nt_aggregate.json"), str(tweaked)
        )
        assert code == 4
        assert "row_feasibility" in report["violations"]

    @pytest.mark.parametrize("flag, value, key", [
        ("--pi", "3", 3.0), ("--y0", "y2", "y2"),
    ])
    def test_pinned_round_trip(self, flag, value, key, tmp_path, capsys):
        # A pin set by a flag travels in solution.json, and check builds the
        # map with it, not with the market file's.
        market = str(MARKETS / "transfer_full.json")
        argv = ["solve", market, flag, value, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert solution[flag.removeprefix("--")] == key
        capsys.readouterr()
        assert cli.main(["check", market, str(tmp_path / "solution.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == [] and report["residual_sup"] <= 1e-8

    def test_transfer_solve_recovers_once(self, tmp_path, monkeypatch, capsys):
        # The wages come from the equilibrium the CLI recovered already.
        calls = []
        real = transfers.recover_equilibrium

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (cli, transfers):
            monkeypatch.setattr(module, "recover_equilibrium", counted)
        argv = ["solve", str(MARKETS / "transfer_taxes.json"), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(calls) == 1
        assert (tmp_path / "wages.csv").exists()

    def test_outcome_missing_fields_exits_1(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        proc = run_cli(
            "check", str(MARKETS / "transfer_tu.json"), str(empty)
        )
        assert proc.returncode == 1


def _edited(name: str, edit) -> dict:
    doc = json.loads((MARKETS / name).read_text())
    edit(doc)
    return doc


# Market files that once crashed with a TypeError traceback, or whose value
# errors surfaced later as a bare ValueError without the file's path, with
# the field each report must name.
LINEAR_FAMILY = {"model": "constant_aggregate", "A": [[0.0, 1.0], [1.0, 0.0]]}
GENERATED = {"count": 2, "uniform": [0.5, 2.0]}

MALFORMED = {
    "sigma_null": (
        _edited("transfer_tu.json", lambda d: d.update(sigma=None)), "sigma"
    ),
    "sigma_object": (
        _edited("transfer_tu.json", lambda d: d.update(sigma={})), "float"
    ),
    "const_null": (
        _edited("transfer_tu.json", lambda d: d.update(n={"count": 2, "const": None})),
        "n must be finite",
    ),
    "uniform_null": (
        _edited(
            "transfer_tu.json",
            lambda d: d.update(seed=1, n={"count": 2, "uniform": [None, 1]}),
        ),
        "uniform",
    ),
    "pi_null": (
        _edited("transfer_full.json", lambda d: d.update(pi=None)), "pi must be finite"
    ),
    "housing_sigma": (
        _edited("housing.json", lambda d: d.update(sigma=2.0)), "sigma = 1"
    ),
    "scalar_rates": (
        _edited(
            "transfer_taxes.json",
            lambda d: d["frontier"]["schedule"].update(rates=0.3),
        ),
        "thresholds",
    ),
    "const_list_mass": (
        _edited("transfer_tu.json", lambda d: d.update(n={"count": 2, "const": [1.0, 3.0]})),
        "n: 'const' must be one JSON number",
    ),
    "const_list_matrix": (
        _edited("transfer_tu.json", lambda d: d["frontier"].update(phi={"const": [0.5]})),
        "frontier.phi: 'const' must be one JSON number",
    ),
    "generator_empty": (
        _edited("transfer_tu.json", lambda d: d.update(n={"count": 2})),
        "n: generator needs 'uniform' or 'const'",
    ),
    "frontier_kind": (
        _edited("transfer_tu.json", lambda d: d["frontier"].update(kind="linear")),
        "frontier 'kind' must be",
    ),
    "pinned_y0": (
        _edited("transfer_full.json", lambda d: d.update(y0="y9")),
        "'y0' must be a y-side label",
    ),
    "count_true": (
        _edited("transfer_tu.json", lambda d: d.update(n={"count": True, "const": 1})),
        "'count' must be a positive integer",
    ),
    # A seed that is not a non-negative integer, once truncated by int().
    **{
        f"seed_{case}": (
            _edited("transfer_tu.json", lambda d, s=seed: d.update(seed=s, n=GENERATED)),
            "'seed' must be a non-negative integer",
        )
        for case, seed in [("float", 2.7), ("true", True), ("negative", -1), ("text", "3")]
    },
    # A string or a boolean where a number belongs, which numpy would read
    # as one: the report names the field.
    **{
        f"not_a_number_{case}": (_edited(name, edit), f"{field} must hold JSON numbers")
        for case, name, field, edit in [
            ("sigma_text", "transfer_tu.json", "sigma", lambda d: d.update(sigma="2")),
            ("sigma_true", "transfer_tu.json", "sigma", lambda d: d.update(sigma=True)),
            ("mass_true", "transfer_tu.json", "n", lambda d: d["n"].update(x1=True)),
            ("phi_text", "transfer_tu.json", "frontier.phi",
             lambda d: d["frontier"]["phi"].__setitem__(0, ["0.5", "-0.2", "0.1"])),
            ("phi_bool", "transfer_tu.json", "frontier.phi",
             lambda d: d["frontier"]["phi"].__setitem__(0, [True, False, 0.1])),
            ("uniform_text", "transfer_tu.json", "n: 'uniform'",
             lambda d: d.update(seed=1, n={"count": 2, "uniform": ["0.5", 2.0]})),
            ("const_true", "transfer_tu.json", "n: 'const'",
             lambda d: d.update(n={"count": 2, "const": True})),
            ("pi_text", "transfer_full.json", "pi", lambda d: d.update(pi="0.5")),
            ("rates_text", "transfer_taxes.json", "rates",
             lambda d: d["frontier"]["schedule"]["rates"].__setitem__(0, "0.1")),
            ("hedonic_c_true", "hedonic.json", "c", lambda d: d["c"][0].__setitem__(0, True)),
            ("nt_alpha_text", "nt_small.json", "alpha",
             lambda d: d["alpha"][0].__setitem__(0, "2")),
            ("A_text", "linear_mmatrix.json", "A", lambda d: d["A"][0].__setitem__(0, "2")),
            ("p0_true", "linear_mmatrix.json", "p0", lambda d: d.update(p0=[1.0, True, 3.0])),
        ]
    },
    "not_a_number_delta_text": (
        {**LINEAR_FAMILY, "delta": ["1.0", 1.0]}, "delta must hold JSON numbers"
    ),
    "linear_nonfinite_A": (
        _edited("linear_mmatrix.json", lambda d: d["A"][1].__setitem__(0, math.inf)),
        "A must be finite",
    ),
    "nonpositive_delta": ({**LINEAR_FAMILY, "delta": [1.0, 0.0]}, "delta"),
    "column_sums": ({**LINEAR_FAMILY, "delta": [2.0, 1.0]}, "column sums"),
}

# Outcome files ``check`` refuses, against the market file they are read with,
# with the text each report must name.
MALFORMED_OUTCOMES = {
    "engine_prices_length": (
        "linear_mmatrix.json", {"labels": ["z1", "z2", "z3"], "prices": [1.0, 2.0]},
        "expected 2 labels, got 3",
    ),
    "engine_not_an_object": (
        "linear_mmatrix.json", [1.0, 2.0, 3.0], "top level must be an object"
    ),
    "engine_labels": (
        "linear_mmatrix.json", {"labels": ["a", "b", "c"], "prices": [1.0, 2.0, 3.0]},
        "outcome labels do not match the market",
    ),
    "individual_mu_shape": ("nt_small.json", {"mu": [[1, 0]]}, "matching must have shape"),
    "individual_no_mu": ("nt_small.json", {"u": [0.0]}, "outcome file needs 'mu'"),
    "aggregate_u_length": (
        "nt_aggregate.json",
        {"mu": [[0.0, 0.0], [0.0, 0.0]], "mu_x0": [2.0, 1.0],
         "mu_0y": [1.0, 3.0], "u": [0.0], "v": [0.0, 0.0]},
        "u must have length 2",
    ),
    "aggregate_no_v": (
        "nt_aggregate.json",
        {"mu": [[0.0, 0.0], [0.0, 0.0]], "mu_x0": [2.0, 1.0],
         "mu_0y": [1.0, 3.0], "u": [0.0, 0.0]},
        "outcome file needs 'v'",
    ),
}


class TestMalformedFiles:
    def file_error(self, capsys, code, path) -> str:
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "MarketFileError"
        assert report["message"].startswith(f"{path}: ")
        return report["message"]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_market_file_exits_1_naming_the_file(self, case, tmp_path, capsys):
        doc, names = MALFORMED[case]
        market = tmp_path / f"{case}.json"
        market.write_text(json.dumps(doc))
        code = cli.main(["solve", str(market)])
        assert names in self.file_error(capsys, code, market)

    @pytest.mark.parametrize("samples", ["-3", "-1"])
    def test_negative_samples_exit_1(self, samples, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["solve", str(MARKETS / "linear_mmatrix.json"), "--out", str(out)]
        assert cli.main([*argv, "--samples", samples]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "ValueError"
        assert "sample_count must be a non-negative integer" in report["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_OUTCOMES))
    def test_outcome_file_exits_1_naming_the_file(self, case, tmp_path, capsys):
        name, doc, names = MALFORMED_OUTCOMES[case]
        outcome = tmp_path / f"{case}.json"
        outcome.write_text(json.dumps(doc))
        code = cli.main(["check", str(MARKETS / name), str(outcome)])
        assert names in self.file_error(capsys, code, outcome)


class TestLoader:
    @pytest.mark.parametrize("name", ["linear_mmatrix.json", "linear_divergent.json"])
    def test_linear_file_loads_as_its_map(self, name):
        raw = json.loads((MARKETS / name).read_text())
        q = cli.load_market(MARKETS / name).payload
        assert isinstance(q, EquilibriumMap)
        built = linear_map(raw["A"], raw.get("labels"))
        assert q.labels == built.labels
        flags = ("z_function", "diagonal_isotone", "m_function", "m0_function")
        assert [getattr(q, f) for f in flags] == [getattr(built, f) for f in flags]
        values = np.linspace(-2.0, 3.0, len(q.labels))
        assert q.eval_values(values).tobytes() == built.eval_values(values).tobytes()


class TestFlagValues:
    """A refused flag value is the flag's fault, not the market file's."""

    @pytest.mark.parametrize("argv, flag", [
        (["--mode", "gauss-seidel"], "--mode"),
        (["--y0", "q"], "--y0"),
        (["--pi", "1.5"], "--pi"),
        (["--samples", "10"], "--samples"),
        (["--samples", "0"], "--samples"),
    ])
    def test_aggregate_route_refuses_unused_flags(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        name = str(MARKETS / "nt_aggregate.json")
        assert cli.main(["solve", name, *argv, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "ValueError",
            "message": f"{flag} is not available for nt_aggregate markets",
            "status": "error",
        }
        assert not out.exists()

    def test_aggregate_route_takes_its_one_start(self, capsys):
        name = str(MARKETS / "nt_aggregate.json")
        assert cli.main(["solve", name, "--start", "dalm"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "dalm"
        argv = ["solve", name, "--start", "bogus", "--mode", "gauss-seidel", "--y0", "q"]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["message"] == (
            "--start 'bogus' is not available for nt_aggregate markets"
        )

    def test_start_file_needs_a_p0(self, tmp_path, capsys):
        market = tmp_path / "no_p0.json"
        market.write_text(json.dumps({**LINEAR_FAMILY, "delta": [1.0, 1.0]}))
        assert cli.main(["solve", str(market), "--start", "file"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["message"] == "the market file provides no p0"

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    @pytest.mark.parametrize("argv", [
        ["solve", "linear_mmatrix.json"],
        ["check", "linear_mmatrix.json", "solution.json"],
        ["enumerate", "nt_small.json"],
        ["compare", "linear_mmatrix.json"],
    ], ids=lambda argv: argv[0])
    def test_bad_seed_is_a_usage_error(self, argv, seed, capsys):
        command, name, *rest = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(MARKETS / name), *rest, "--seed", seed])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --seed: {seed!r} is not a non-negative integer" in err

    @pytest.mark.parametrize("pi", ["nan", "inf", "-inf"])
    def test_non_finite_pinned_price_exits_1(self, pi, capsys):
        argv = ["solve", str(MARKETS / "transfer_full.json"), f"--pi={pi}"]
        assert cli.main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["error"], report["message"]) == (
            "ValueError", "pi must be finite"
        )

    @pytest.mark.parametrize("flag, field, relation", [
        ("--tol", "residual_tol", ">"), ("--step-tol", "step_tol", ">="),
    ])
    def test_solve_refuses_an_infinite_tolerance(self, flag, field, relation, capsys):
        # Once, --tol inf stopped at sweep 0 and reported "ok".
        argv = ["solve", str(MARKETS / "transfer_tu.json"), flag, "inf"]
        assert cli.main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "error": "ValueError",
            "message": f"{field} must be finite and {relation} 0",
            "status": "error",
        }

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("name", ["transfer_tu.json", "nt_aggregate.json"])
    def test_check_refuses_a_bad_tolerance(self, name, tol, tmp_path, capsys):
        market = str(MARKETS / name)
        assert cli.main(["solve", market, "--out", str(tmp_path)]) == 0
        solution = tmp_path / "solution.json"
        if name == "nt_aggregate.json":
            # A broken outcome, so that no tolerance can let it pass quietly.
            data = json.loads(solution.read_text())
            data["mu"][0][0] += 0.5
            solution.write_text(json.dumps(data))
            assert cli.main(["check", market, str(solution)]) == 4
        capsys.readouterr()
        assert cli.main(["check", market, str(solution), "--tol", tol]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["error"], report["message"]) == (
            "ValueError", "--tol must be finite and >= 0"
        )


def _edited_market(tmp_path, name: str, edit) -> str:
    """A copy of a shipped market file after ``edit(data)``."""
    data = json.loads((MARKETS / name).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestExtremeValues:
    """Values at the ends of the float range give a typed exit and no numpy
    warning, in-process (a RuntimeWarning is raised here as an error)."""

    def solve(self, market: str, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["solve", market, "--out", str(tmp_path / "out")])
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("sigma", [1e30, 1e308])
    def test_lost_wage_precision_exits_1(self, sigma, tmp_path, capsys):
        # Payoffs that a huge sigma rounds away miss the wage cross-check.
        market = _edited_market(
            tmp_path, "ot_small.json", lambda d: d.update(sigma=sigma)
        )
        code, report = self.solve(market, tmp_path, capsys)
        assert code == 1
        assert (report["status"], report["error"]) == ("error", "ValueError")
        assert report["message"].startswith("wage decomposition is inconsistent")
        # The recovery fails before any artifact is written.
        assert not (tmp_path / "out").exists()

    def test_underflowing_cell_recovers_quietly(self, tmp_path, capsys):
        # The cell's log kernel overflows to -inf: its mass is 0.
        def edit(data):
            data["frontier"]["phi"][0][0] = -1e308

        market = _edited_market(tmp_path, "ot_small.json", edit)
        code, report = self.solve(market, tmp_path, capsys)
        assert (code, report["status"]) == (0, "ok")
        mu = (tmp_path / "out" / "mu.csv").read_text().splitlines()
        assert mu[1].split(",")[1] == "0"

    def test_subnormal_mass_exits_2_quietly(self, tmp_path, capsys):
        # The closed form's log meets 0; the update is refused as non-finite.
        def edit(data):
            data["m"]["y1"] = 5e-324

        market = _edited_market(tmp_path, "transfer_tu.json", edit)
        code, report = self.solve(market, tmp_path, capsys)
        assert (code, report["error"]) == (2, "NonFiniteResidual")
        assert not (tmp_path / "out").exists()


# A value for each tuning flag of ``solve``. A route that reads the flag
# exits as it does without it: each value is the default but for --mode and
# --samples, and --y0 names the y-type transfer_full.json pins by default.
FLAG_VALUES = {
    "--mode": "gauss-seidel", "--tol": "1e-10", "--step-tol": "0",
    "--max-sweeps": "10000", "--damping": "1", "--samples": "5",
    "--y0": "y1", "--pi": "0",
}
ENGINE_FLAGS = {"--mode", "--tol", "--step-tol", "--max-sweeps", "--damping",
                "--samples"}
# The model of each shipped market and the tuning flags its solve route reads.
READ_FLAGS = {
    "hedonic.json": ("hedonic", ENGINE_FLAGS),
    "housing.json": ("housing", ENGINE_FLAGS),
    "linear_divergent.json": ("linear", ENGINE_FLAGS),
    "linear_mmatrix.json": ("linear", ENGINE_FLAGS),
    "nt_8x8.json": ("nt", set()),
    "nt_aggregate.json": ("nt_aggregate", {"--max-sweeps"}),
    "nt_small.json": ("nt", set()),
    "ot_small.json": ("ot", ENGINE_FLAGS),
    "transfer_full.json": ("transfer", ENGINE_FLAGS | {"--y0", "--pi"}),
    "transfer_taxes.json": ("transfer", ENGINE_FLAGS),
    "transfer_tu.json": ("transfer", ENGINE_FLAGS),
}


@functools.cache
def _default_exit(name: str) -> int:
    return cli.main(["solve", str(MARKETS / name)])


class TestFlagRule:
    """A flag a route does not read exits 1 naming it, before any work."""

    def test_every_shipped_market_is_listed(self):
        assert sorted(READ_FLAGS) == sorted(f.name for f in MARKETS.glob("*.json"))

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("name", sorted(READ_FLAGS))
    def test_solve_reads_or_refuses_each_flag(self, name, flag, tmp_path, capsys):
        model, reads = READ_FLAGS[name]
        expected = _default_exit(name)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["solve", str(MARKETS / name), flag, FLAG_VALUES[flag]]
        code = cli.main([*argv, "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        if flag in reads:
            assert code == expected, report
            return
        assert code == 1
        assert report == {
            "error": "ValueError",
            "message": f"{flag} is not available for {model} markets",
            "status": "error",
        }
        assert not out.exists()

    def test_individual_route_names_the_first_unread_flag(self, capsys):
        argv = ["solve", str(MARKETS / "nt_small.json"),
                "--mode", "gauss-seidel", "--samples", "10", "--y0", "q"]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["message"] == (
            "--mode is not available for nt markets"
        )

    def test_engine_counts_a_given_zero_sample_count(self, capsys):
        argv = ["solve", str(MARKETS / "linear_mmatrix.json"), "--samples", "0"]
        assert cli.main(argv) == 0
        checks = json.loads(capsys.readouterr().out)["structure_checks"]
        assert {check["samples"] for check in checks.values()} == {0}

    def test_check_refuses_a_tolerance_it_does_not_read(self, tmp_path, capsys):
        market = str(MARKETS / "nt_small.json")
        assert cli.main(["solve", market, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["check", market, str(tmp_path / "solution.json"), "--tol", "5"]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["message"] == (
            "--tol is not available for nt markets"
        )

    def test_compare_refuses_flags_it_does_not_read(self, capsys):
        argv = ["compare", str(MARKETS / "nt_small.json"),
                "--tol", "7", "--max-sweeps", "1", "--damping", "0.2"]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["message"] == (
            "--tol is not available for nt markets"
        )


def _readme_command_lines() -> list[list[str]]:
    """The ``marketclear ...`` lines of the README's command-line section."""
    section = (REPO / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("marketclear ")
    ]


class TestReadme:
    def test_command_lines_run_in_order(self, tmp_path, monkeypatch, capsys):
        shutil.copytree(MARKETS, tmp_path / "markets")
        monkeypatch.chdir(tmp_path)
        lines = _readme_command_lines()
        assert len(lines) >= 5
        for argv in lines:
            assert cli.main(argv) == 0, (argv, capsys.readouterr())


class TestTracedNames:
    def test_solve_calls_the_module_level_names(self, tmp_path, monkeypatch, capsys):
        # A tracer times the CLI's layers by swapping these module globals,
        # so a solve must look each of them up at call time.
        calls = {}
        for name in ("build_transfer_map", "singles_supersolution",
                     "recover_equilibrium"):
            real = getattr(cli, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        monkeypatch.chdir(REPO)
        argv = ["solve", "markets/transfer_tu.json", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert set(calls) == {
            "build_transfer_map", "singles_supersolution", "recover_equilibrium"
        }

class TestEnumerate:
    def test_two_stable_matchings(self):
        code, report = run_json("enumerate", str(MARKETS / "nt_small.json"))
        assert code == 0
        assert report["count"] == 2
        assert len(report["outcomes"]) == 2
        for item in report["outcomes"]:
            assert len(item["matching"]) == 2

    def test_writes_stable_set(self, tmp_path):
        out = tmp_path / "enum"
        code, report = run_json(
            "enumerate", str(MARKETS / "nt_small.json"), "--out", str(out)
        )
        assert code == 0
        assert [Path(f).name for f in report["files_written"]] == [
            "stable_set.json"
        ]
        stored = json.loads((out / "stable_set.json").read_text())
        assert stored["count"] == 2

    def test_large_instance_guard(self):
        proc = run_cli("enumerate", str(MARKETS / "nt_8x8.json"))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "InstanceTooLarge"

    def test_wrong_model_exits_1(self):
        proc = run_cli("enumerate", str(MARKETS / "transfer_tu.json"))
        assert proc.returncode == 1


class TestCompare:
    def test_transfer_modes_agree(self):
        code, report = run_json("compare", str(MARKETS / "transfer_tu.json"))
        assert code == 0
        assert report["status"] == "ok"
        assert report["modes"]["jacobi"]["status"] == "ok"
        assert report["modes"]["gauss_seidel"]["status"] == "ok"
        assert report["agreement_sup"] <= 1e-7

    def test_matching_algorithms_identical(self):
        code, report = run_json("compare", str(MARKETS / "nt_small.json"))
        assert code == 0
        assert report["identical"] is True
        assert report["agreement_sup"] == 0.0

    def test_divergent_market_exits_2(self):
        proc = run_cli("compare", str(MARKETS / "linear_divergent.json"))
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["status"] == "diverged"
        for mode in ("jacobi", "gauss_seidel"):
            assert report["modes"][mode]["status"] in (
                "max_sweeps_exceeded", "nonfinite_residual"
            )


class TestInstallation:
    def test_console_script_available(self):
        path = shutil.which("marketclear")
        assert path is not None
        proc = subprocess.run(
            [path, "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout
