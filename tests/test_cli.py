"""End-to-end command-line tests via subprocess."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from marketclear import cli

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
# loop and each solve route wrote its own CSV tables. Faster sweeps and shared
# builders must reproduce the iterates, and so these bytes, exactly.
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

    def test_structure_checks_report(self):
        code, report = run_json(
            "solve", str(MARKETS / "linear_mmatrix.json"), "--samples", "50"
        )
        assert code == 0
        checks = report["structure_checks"]
        assert checks["inverse_isotone"]["samples"] == 50
        assert checks["inverse_isotone"]["violations"] == 0

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

    def test_outcome_missing_fields_exits_1(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        proc = run_cli(
            "check", str(MARKETS / "transfer_tu.json"), str(empty)
        )
        assert proc.returncode == 1


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
