"""Command-line contract: exit codes, CSV scans, demos, JSON manifests."""

import argparse
import ctypes
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import instances
import measerr
from measerr import cli, kernels
from measerr.cli import _MAX_GRID_POINTS, _parse_grid, main
from measerr.serialize import format_float, json_text, load_model, matrix_to_json, model_to_json, povm_to_json
from measerr.indirect import chain_check, cnot_model
from measerr.measurement import unsharp_qubit
from measerr.states import MAX_OBSERVABLE_ENTRY
from measerr.suites import run_verify


def unsharp_file() -> dict:
    """The POVM file of the unsharp Z measurement at sharpness 0.6."""
    return povm_to_json("unsharp", (1.0, -1.0), unsharp_qubit((0, 0, 1), 0.6))


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["verify", "--dims", "2,3", "--n", "15", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "main-relation" in out
        assert '"checks_failed": 0' in out

    def test_bad_dimension_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--dims", "99"])
        assert excinfo.value.code == 2

    def test_repeated_dimension_is_usage_error(self, capsys):
        """A repeated dimension would draw the same instances twice and
        count their checks twice."""
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--dims", "2,3,2", "--n", "5"])
        assert excinfo.value.code == 2
        assert "repeated dimension in '2,3,2'" in capsys.readouterr().err

    def test_sign_flip_self_test_fails_with_suite_name(self, capsys):
        code = main(["verify", "--dims", "2", "--n", "10", "--seed", "3", "--self-test-sign-flip"])
        captured = capsys.readouterr()
        assert code == 1
        assert "proof-tie-identity" in captured.err

    def test_sign_flip_corrupts_only_the_relation_suites(self, tmp_path, capsys):
        out = tmp_path / "flip.json"
        code = main([
            "verify", "--dims", "2", "--n", "10", "--seed", "3",
            "--self-test-sign-flip", "--json", str(out),
        ])
        assert code == 1
        suites = json.loads(out.read_text())["suites"]
        assert [(name, (s["checks"], s["failures"])) for name, s in suites.items()] == [
            ("affineness", (10, 0)),
            ("adjoint-characterization", (20, 0)),
            ("contractivity", (20, 0)),
            ("transport-adjointness", (40, 0)),
            ("error-decomposition", (30, 0)),
            ("main-relation", (20, 2)),
            ("proof-tie-identity", (20, 10)),
            ("errorless-equivalence", (60, 0)),
            ("trivial-reduction", (40, 0)),
        ]

    def test_counts_pinned_at_every_dimension(self, tmp_path, capsys):
        out = tmp_path / "pinned.json"
        code = main(["verify", "--dims", "2,3,4,5,6,7,8", "--n", "5", "--seed", "3", "--json", str(out)])
        assert code == 0
        suites = json.loads(out.read_text())["suites"]
        assert [(name, (s["checks"], s["failures"])) for name, s in suites.items()] == [
            ("affineness", (35, 0)),
            ("adjoint-characterization", (70, 0)),
            ("contractivity", (70, 0)),
            ("transport-adjointness", (140, 0)),
            ("error-decomposition", (105, 0)),
            ("main-relation", (70, 0)),
            ("proof-tie-identity", (70, 0)),
            ("errorless-equivalence", (210, 0)),
            ("trivial-reduction", (140, 0)),
        ]

    def test_zero_instances_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--dims", "2", "--n", "0"])
        assert excinfo.value.code == 2

    def test_json_manifest_written(self, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        assert main(["verify", "--dims", "2", "--n", "5", "--seed", "1", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        manifest = payload["manifest"]
        assert manifest["subcommand"] == "verify"
        assert manifest["checks_failed"] == 0
        assert manifest["rng_algorithm"].startswith("numpy")
        assert set(payload["suites"]) >= {"main-relation", "contractivity"}


class TestScan:
    def test_unsharp_family_matches_closed_form(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main([
            "scan", "--family", "unsharp", "--grid", "0:1:0.1", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "dim,kind,param,epsA,epsB,R,I,bound,slack,naiveBound,naiveViolated"
        assert len(lines) == 12
        for line in lines[1:]:
            cells = line.split(",")
            eta = float(cells[2])
            assert float(cells[3]) == pytest.approx(np.sqrt(1 - eta * eta), abs=1e-9)

    def test_noisy_projective_limits(self, tmp_path):
        out = tmp_path / "noisy.csv"
        assert main([
            "scan", "--family", "noisy-projective", "--grid", "0,1", "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        # lam = 0 is a trivial measurement: error = standard deviation = 1
        # at the maximally mixed state; lam = 1 is projective: error(Z) = 0
        assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-10)
        assert float(rows[1][3]) == pytest.approx(0.0, abs=1e-10)

    def test_custom_family_reads_povm_json(self, tmp_path):
        path = tmp_path / "povm.json"
        path.write_text(json_text(unsharp_file()))
        out = tmp_path / "custom.csv"
        assert main(["scan", "--family", "custom", "--povm", str(path), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 2
        cells = rows[1].split(",")
        assert cells[2] == ""
        assert float(cells[3]) == pytest.approx(0.8, abs=1e-9)

    def test_povm_whose_sum_overflows_is_usage_error(self, tmp_path, capsys):
        # finite PSD entries whose sum overflows miss I by inf, with no
        # overflow warning (warnings are errors here)
        effects = np.array([np.eye(2), np.eye(2)]) * 1e308
        path = tmp_path / "povm.json"
        path.write_text(json_text(povm_to_json("custom", (1.0, -1.0), effects)))
        assert main(["scan", "--family", "custom", "--povm", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr() == ("", "error: effects sum to identity only within inf\n")

    def test_povm_with_wrong_declared_dim_is_usage_error(self, tmp_path, capsys):
        data = unsharp_file()
        data["dim"] = 5
        path = tmp_path / "povm.json"
        path.write_text(json_text(data))
        assert main(["scan", "--family", "custom", "--povm", str(path), "--out", str(tmp_path / "c.csv")]) == 2
        assert "dim is 5" in capsys.readouterr().err

    def test_custom_state_and_observables(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json_text(matrix_to_json(np.eye(2) / 2)))
        obs = tmp_path / "obs.json"
        obs.write_text(json_text(matrix_to_json(np.array([[1, 0], [0, -1.0]]))))
        out = tmp_path / "s.csv"
        code = main([
            "scan", "--family", "unsharp", "--grid", "0.5",
            "--state", str(state), "--obs-a", str(obs), "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "argv,rows",
        [(["--family", "unsharp", "--grid", "0:1:0.05"], 21), (["--family", "noisy-projective"], 11)],
    )
    def test_manifest_counts_the_rows_scanned(self, argv, rows, tmp_path):
        report = tmp_path / "scan.json"
        assert main(["scan", *argv, "--out", str(tmp_path / "scan.csv"), "--json", str(report)]) == 0
        manifest = json.loads(report.read_text())["manifest"]
        assert (manifest["instances"], manifest["checks_passed"]) == (rows, rows)

    def test_custom_manifest_counts_one_instance(self, tmp_path):
        path = tmp_path / "povm.json"
        path.write_text(json_text(unsharp_file()))
        report = tmp_path / "custom.json"
        argv = ["scan", "--family", "custom", "--povm", str(path), "--out", str(tmp_path / "c.csv")]
        assert main([*argv, "--json", str(report)]) == 0
        assert json.loads(report.read_text())["manifest"]["instances"] == 1

    def test_non_finite_relation_fails(self, monkeypatch, tmp_path):
        """Finite entries whose products overflow give a NaN relation row,
        and the row fails as a NaN residual fails a suite check.  The loader
        rejects such entries, so the matrix is handed in past it."""
        monkeypatch.setattr("measerr.cli.load_observable", lambda path: np.diag([1e200, -1e200]).astype(complex))
        povm = tmp_path / "povm.json"
        povm.write_text(json_text(unsharp_file()))
        out, report = tmp_path / "c.csv", tmp_path / "scan.json"
        argv = ["scan", "--family", "custom", "--povm", str(povm), "--obs-a", "A", "--obs-b", "B"]
        with np.errstate(all="ignore"):
            assert main([*argv, "--out", str(out), "--json", str(report)]) == 1
        assert out.read_text().splitlines()[1].split(",")[8] == "nan"
        manifest = json.loads(report.read_text())["manifest"]
        assert (manifest["checks_passed"], manifest["checks_failed"]) == (0, 1)

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["scan", "--family", "nope", "--out", "/tmp/x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown family 'nope'; choose from ")

    def test_unwritable_output_is_usage_error(self, capsys):
        code = main(["scan", "--family", "unsharp", "--grid", "0.5", "--out", "/nonexistent/dir/x.csv"])
        assert code == 2

    def test_custom_without_povm_is_usage_error(self, capsys):
        assert main(["scan", "--family", "custom", "--out", "/tmp/x.csv"]) == 2
        assert capsys.readouterr().err == "error: family 'custom' needs --povm FILE\n"

    @pytest.mark.parametrize("argv,message", [
        (["--family", "noisy-projective", "--povm", "does-not-exist.json", "--grid", "1"],
         "family 'noisy-projective' takes no --povm"),
        (["--family", "custom", "--povm", "POVM", "--grid", "0:1:0.5"], "family 'custom' takes no --grid"),
    ])
    def test_flag_of_another_family_is_usage_error(self, argv, message, tmp_path, capsys):
        path = tmp_path / "povm.json"
        path.write_text(json_text(unsharp_file()))
        out = tmp_path / "scan.csv"
        argv = [str(path) if arg == "POVM" else arg for arg in argv]
        assert main(["scan", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--family", "custom", "--povm", "POVM3", "--state", "STATE2"],
        ["--family", "unsharp", "--obs-a", "OBS3"],
        ["--family", "noisy-projective", "--obs-a", "OBS3"],
        ["--family", "unsharp", "--obs-b", "OBS3"],
    ])
    def test_dimension_mismatch_is_usage_error(self, argv, tmp_path, capsys):
        """A 3-dimensional POVM, or observable, against the 2-dimensional state."""
        files = {
            "POVM3": povm_to_json("custom", (1.0, 2.0), instances.povm(np.random.default_rng(0), 3)),
            "STATE2": matrix_to_json(np.eye(2) / 2),
            "OBS3": matrix_to_json(np.diag([1.0, 0.0, -1.0])),
        }
        for name, data in files.items():
            (tmp_path / name).write_text(json_text(data))
        out = tmp_path / "scan.csv"
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        assert main(["scan", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: dimension mismatch: 3 vs 2\n"
        assert not out.exists()

    def test_empty_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "empty.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--family", "unsharp", "--grid", "1:0:0.1", "--out", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_runaway_grid_rejected_by_point_count(self):
        # 1e9 + 1 points: the count check must fire before any point is built
        with pytest.raises(argparse.ArgumentTypeError, match=f"more than {_MAX_GRID_POINTS}"):
            _parse_grid("0:1:1e-9")
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--family", "unsharp", "--grid", "0:1:1e-9"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "text,points",
        [("0:1:0.35", 3), ("0:0.9:0.6", 2), ("0:1:0.1", 11), ("0:1:0.05", 21), ("0:0.3:0.1", 4), ("0:1:1", 2)],
    )
    def test_range_stops_at_its_stop(self, text, points):
        # the point count is floored, not rounded: 0:1:0.35 used to run on to 1.05
        start, stop, step = (float(p) for p in text.split(":"))
        grid = _parse_grid(text)
        assert grid == tuple(start + k * step for k in range(points))
        assert grid[-1] <= stop + 1e-9 * step

    def test_unsharp_scan_stays_inside_the_sharpness_range(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--family", "unsharp", "--grid", "0:1:0.35", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [float(row.split(",")[2]) for row in rows] == [0.0, 0.35, 0.7]

    def test_tolerance_does_not_loosen_povm_validation(self, tmp_path):
        # effects sum to I + 2e-3 X: rejected at the default tolerances, and
        # still rejected when the property-check slack is loosened
        z = np.array([[1, 0], [0, -1.0]])
        x = np.array([[0, 1], [1, 0.0]])
        effects = [(np.eye(2) + s * 0.6 * z) / 2 + 1e-3 * x for s in (1, -1)]
        path = tmp_path / "povm.json"
        path.write_text(json_text({
            "kind": "custom", "labels": ["+", "-"], "values": [1.0, -1.0], "dim": 2,
            "effects": [matrix_to_json(e) for e in effects],
        }))
        argv = ["scan", "--family", "custom", "--povm", str(path), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert main(argv + ["--tolerance", "1e-2"]) == 2


class TestDemo:
    def test_naive_violation(self, capsys):
        assert main(["demo", "naive-violation"]) == 0
        out = capsys.readouterr().out
        assert "commutator bound undercut: True" in out
        assert "manifest:" in out

    def test_kr_reduction(self, capsys):
        assert main(["demo", "kr-reduction"]) == 0
        assert "saturated" in capsys.readouterr().out

    def test_kr_reduction_rejects_a_tolerance(self, capsys):
        """Its checks keep fixed slacks, so a --tolerance it would not read is
        a usage error, as any flag a command does not read."""
        assert main(["demo", "kr-reduction", "--tolerance", "1e-300"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: demo kr-reduction takes no --tolerance: its checks keep fixed slacks\n")

    def test_ozawa_chain(self, capsys):
        assert main(["demo", "ozawa-chain"]) == 0
        assert "chain holds: True" in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        main(["demo", "naive-violation"])
        first = capsys.readouterr().out.split("manifest:")[0]
        main(["demo", "naive-violation"])
        second = capsys.readouterr().out.split("manifest:")[0]
        assert first == second

    @pytest.mark.parametrize("slack,product,holds", [
        (-2e-9, 3.0, True),
        (-5e-9, 3.0, False),
        (math.inf, 1.0, False),
        (math.nan, 1.0, False),
    ])
    def test_naive_violation_judges_the_relation_as_scan_does(self, slack, product, holds, monkeypatch, capsys):
        """main-relation's rule: -slack finite and at most 1e-9 (1 + |epsA epsB|)."""
        report = SimpleNamespace(eps_a=product, eps_b=1.0, bound=0.0, naive_bound=0.8, naive_violated=True, slack=slack)
        monkeypatch.setattr("measerr.cli.relation", lambda *args: report)
        assert main(["demo", "naive-violation"]) == (0 if holds else 1)
        assert f"(relation itself holds: {holds})" in capsys.readouterr().out

    def test_unknown_demo_is_usage_error(self, capsys):
        assert main(["demo", "not-a-demo"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown demo 'not-a-demo'; choose from ")


class TestChain:
    def test_random_sweep_and_named_scenario(self, capsys):
        assert main(["chain", "--dims", "2", "--n", "5", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "ozawa-chain" in out
        assert "chain holds: True" in out

    def test_custom_model_json(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json_text(model_to_json(*cnot_model())))
        assert main(["chain", "--model", str(path), "--seed", "4"]) == 0
        assert "chain holds: True" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [4, 20240811])
    @pytest.mark.parametrize("system", ["cnot", "random-5"])
    def test_custom_model_draws_state_then_a_then_b(self, system, seed, tmp_path, capsys):
        """``chain --model`` checks a Ginibre state, then A, then B, each
        drawn from ``default_rng(seed)`` as one complex Gaussian matrix, its
        real part, then its imaginary part: the printed chain values are
        those of ``chain_check`` on the draws taken call by call."""
        model = cnot_model() if system == "cnot" else instances.indirect_model(np.random.default_rng(5), 5)
        path = tmp_path / "model.json"
        path.write_text(json_text(model_to_json(*model)))
        assert main(["chain", "--model", str(path), "--seed", str(seed)]) == 0
        rng = np.random.default_rng(seed)
        dim = model[1].shape[-1] // model[0].shape[-1]
        rho, a, b = instances.state(rng, dim), instances.observable(rng, dim), instances.observable(rng, dim)
        values = [format_float(v, 12) for v in chain_check(*load_model(path), rho, a, b)[1].values]
        assert f"custom model chain values: {values}\n" in capsys.readouterr().out

    def test_custom_model_manifest_records_the_model_run(self, tmp_path, capsys):
        model = instances.indirect_model(np.random.default_rng(5), 5)
        path = tmp_path / "model.json"
        path.write_text(json_text(model_to_json(*model)))
        out = tmp_path / "chain.json"
        assert main(["chain", "--model", str(path), "--seed", "4", "--json", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert (manifest["dims"], manifest["instances"]) == ([5], 1)

    @pytest.mark.parametrize("flag,value", [("--dims", "5"), ("--n", "3"), ("--ancilla", "4")])
    def test_random_sweep_flag_with_a_model_is_usage_error(self, flag, value, tmp_path, capsys):
        """``--model`` checks one model on one drawn state, so a flag of the
        random sweep, which it would not read, is a usage error: no report."""
        path = tmp_path / "model.json"
        path.write_text(json_text(model_to_json(*cnot_model())))
        out = tmp_path / "chain.json"
        assert main(["chain", "--model", str(path), flag, value, "--json", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: chain --model takes no {flag}: it checks the one model on one drawn state\n")
        assert not out.exists()

    def test_zero_models_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chain", "--dims", "2", "--n", "0"])
        assert excinfo.value.code == 2

    def test_repeated_dimension_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chain", "--dims", "3,3", "--n", "5"])
        assert excinfo.value.code == 2
        assert "repeated dimension in '3,3'" in capsys.readouterr().err

    def test_missing_model_file_is_usage_error(self, capsys):
        assert main(["chain", "--model", "/nonexistent/model.json"]) == 2

    def test_wrong_declared_ancilla_dim_is_usage_error(self, tmp_path, capsys):
        data = model_to_json(*cnot_model())
        data["ancilla_dim"] = 3
        path = tmp_path / "model.json"
        path.write_text(json_text(data))
        assert main(["chain", "--model", str(path)]) == 2
        assert "ancilla_dim is 3" in capsys.readouterr().err

    def test_non_finite_interaction_is_usage_error(self, tmp_path, capsys):
        data = model_to_json(*cnot_model())
        data["interaction"][1][2][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert main(["chain", "--model", str(path)]) == 2
        assert capsys.readouterr().err.strip() == "error: interaction entries must be finite"

    def test_model_inducing_incomplete_effects_is_usage_error(self, tmp_path, capsys):
        """A near-unitary interaction within ``check_unitaries``' tolerance
        whose induced effects miss I is rejected where the file is loaded."""
        path = tmp_path / "model.json"
        path.write_text(json_text(model_to_json(*instances.near_unitary_model())))
        assert main(["chain", "--model", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: effects sum to identity only within 1.960e-09\n")


class TestTolerancePolicy:
    """--tolerance sets only the slack of the property checks: inputs are
    validated at the default tolerances whatever it says, and what the
    program builds from them is not validated again."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dims", "2,3,4,5", "--n", "30", "--seed", "7"],
            ["scan", "--family", "noisy-projective", "--grid", "0:1:0.1"],
            ["scan", "--family", "noisy-projective", "--grid", "0:1:0.1", "--obs-a", "{x}"],
        ],
        ids=["verify", "scan", "scan-obs-x"],
    )
    def test_tight_slack_is_not_a_usage_error(self, argv, tmp_path, capsys):
        # the slack of a property check is no bound on how exactly a POVM the
        # program builds (here from roundoff-level projectors) sums to I
        (tmp_path / "x.json").write_text(json_text(matrix_to_json([[0, 1], [1, 0]])))
        argv = [str(tmp_path / "x.json") if arg == "{x}" else arg for arg in argv]
        tight = "1e-15" if argv[0] == "verify" else "1e-17"
        report = tmp_path / "report.json"
        code = main(argv + ["--tolerance", tight, "--json", str(report)])
        assert code in (0, 1), capsys.readouterr().err
        if argv[0] == "verify":
            checks = json.loads(report.read_text())["manifest"]
            assert main(argv + ["--json", str(report)]) == 0
            default = json.loads(report.read_text())["manifest"]
            assert checks["checks_passed"] + checks["checks_failed"] == default["checks_passed"] > 0


def _finite_rows(path) -> list:
    """The numeric cells (epsA to naiveBound) of each row of a scan CSV, all finite."""
    rows = [[float(x) for x in line.split(",")[3:10]] for line in path.read_text().strip().splitlines()[1:]]
    assert rows and np.isfinite(rows).all()
    return rows


class TestCoreAcceptsWhatTheBoundaryAdmits:
    """Every input the validators admit runs: Born weights are clipped, not
    judged again, and the kernels' guards judge a negative square against
    the squared magnitude it comes from."""

    @pytest.mark.parametrize(
        "e0,e1,state,obs_a",
        [
            (np.diag([1 + 5e-11, -5e-11]), np.diag([-5e-11, 1 + 5e-11]), np.diag([0.0, 1.0]), None),
            (np.diag([1 + 5e-10, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), None),
            (np.diag([1 + 9e-11, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.diag([10.0, -10.0])),
            (np.diag([1.0, 0.0]) + 0.99e-9 * np.ones((2, 2)), np.diag([0.0, 1.0]), np.ones((2, 2)) / 2, None),
        ],
        ids=["eigenvalue-inside-psd", "sum-inside-identity", "radicand-of-10z", "off-diagonal-sum"],
    )
    def test_povm_inside_the_tolerances(self, e0, e1, state, obs_a, tmp_path, capsys):
        """An effect eigenvalue of -5e-11; effects that miss I by 5e-10;
        effects that miss I by 9e-11 measuring 10 Z, whose radicand is
        -9e-9 = -9e-11 ||A||^2; and effects whose sum I + 0.99e-9 J (J all
        ones) misses I by 1.98e-9 in operator norm, inside d * identity.
        Each passes ``check_effects``, so it runs."""
        files = {"povm": povm_to_json("custom", (1.0, -1.0), np.array([e0, e1], dtype=complex)),
                 "state": matrix_to_json(state), "obs-a": None if obs_a is None else matrix_to_json(obs_a)}
        argv = ["scan", "--family", "custom"]
        for flag, data in files.items():
            if data is not None:
                (tmp_path / f"{flag}.json").write_text(json_text(data))
                argv += [f"--{flag}", str(tmp_path / f"{flag}.json")]
        assert main([*argv, "--out", str(tmp_path / "c.csv")]) == 0, capsys.readouterr().err
        assert len(_finite_rows(tmp_path / "c.csv")) == 1

    def test_noisy_projective_scan_of_a_large_observable(self, tmp_path, capsys):
        """The projective row (lam = 1) of an observable of norm 1e3, whose
        radicand is a roundoff -1e-10 or so: below -psd, far above -1e-9 ||A||^2."""
        rng = np.random.default_rng(4)
        rho, a, b = instances.state(rng, 3), instances.observable(rng, 3), instances.observable(rng, 3)
        argv = ["scan", "--family", "noisy-projective"]
        for flag, matrix in (("state", rho), ("obs-a", a * (1e3 / np.linalg.norm(a, 2))), ("obs-b", b)):
            (tmp_path / f"{flag}.json").write_text(json_text(matrix_to_json(matrix)))
            argv += [f"--{flag}", str(tmp_path / f"{flag}.json")]
        assert main([*argv, "--out", str(tmp_path / "n.csv")]) == 0, capsys.readouterr().err
        rows = _finite_rows(tmp_path / "n.csv")
        assert len(rows) == 11 and rows[-1][0] <= 1e-7 * 1e3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_unitary_model_chain(self, seed, tmp_path, capsys):
        """A model whose U misses unitarity by 2e-10 induces effects that
        miss I by 4e-10, inside both ``check_unitaries`` and ``check_effects``."""
        path = tmp_path / "model.json"
        path.write_text(json_text(model_to_json(*instances.near_unitary_model(1e-10))))
        assert main(["chain", "--model", str(path), "--seed", str(seed)]) == 0, capsys.readouterr().err
        assert "chain holds: True" in capsys.readouterr().out

    def test_planted_contractivity_bug_is_still_caught(self, monkeypatch, capsys):
        """Pushforwards inflated by 1e-6 break contractivity by about 2e-6
        ||A||^2, beyond roundoff at any scale: an internal error, exit 3."""
        pushforward = kernels._pushforward
        monkeypatch.setattr(kernels, "_pushforward", lambda ctx, a_rho: pushforward(ctx, a_rho) * (1.0 + 1e-6))
        assert main(["demo", "naive-violation"]) == 3
        assert capsys.readouterr().err.startswith("internal error: contractivity violated: radicand -2.000e-06")


class TestUsageAndInternalErrors:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [["demo", "naive-violation"], ["verify", "--dims", "2", "--n", "1"]])
    def test_bad_tolerance_is_usage_error(self, argv, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--tolerance", value])
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["scan", "--family", "unsharp"], ["demo", "naive-violation"]])
    def test_seed_outside_verify_and_chain_is_usage_error(self, argv, capsys):
        """``scan`` and ``demo`` draw nothing, so they take no ``--seed``."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --seed 1" in captured.err

    @pytest.mark.parametrize("value", ["0", "9"])
    def test_ancilla_out_of_range_is_usage_error(self, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["chain", "--dims", "2", "--n", "1", "--ancilla", value])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--dims", "2", "--n", "0"], "measerr verify: error: argument --n: must be at least 1, got 0"),
            (["chain", "--dims", "2", "--n", "0"], "measerr chain: error: argument --n: must be at least 1, got 0"),
            (["chain", "--dims", "2", "--ancilla", "9"], "measerr chain: error: argument --ancilla: must lie in 1..8, got 9"),
        ],
    )
    def test_range_error_names_its_bounds(self, argv, message, capsys):
        """A range with no upper bound names its lower bound alone."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message

    @pytest.mark.parametrize("error", [RuntimeError, ArithmeticError, AssertionError, KeyError])
    def test_internal_numerical_error_exits_3(self, error, monkeypatch, capsys):
        """A ``KeyError`` raised inside a sweep is a bug, not a usage error."""

        def broken(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr("measerr.cli.run_verify", broken)
        assert main(["verify", "--dims", "2", "--n", "1"]) == 3
        # str() of a KeyError quotes its key: 'injected'
        assert capsys.readouterr().err.strip() == f"internal error: {error('injected')}"


# An edit value that removes its key from the file.
_DROP = object()


# A 400-digit integer, beyond a double, and the usage error it makes in a matrix.
_HUGE, _HUGE_ENTRY = 10**400, "matrix entries must be numbers a double can hold"


def _huge_matrix() -> list:
    return [[[_HUGE, 0], [0, 0]], [[0, 0], [1, 0]]]


def _z_effects(one, im=0) -> list:
    """The projective Z effects as JSON, with ``[one, im]`` as the top-left entry."""
    return [[[[one, im], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]


def _z_matrix(im=0) -> list:
    """The Pauli Z matrix as JSON, with ``[-1, im]`` as the bottom-right entry."""
    return [[[1, 0], [0, 0]], [[0, 0], [-1, im]]]


_PAIRS = "matrix JSON must be nested arrays of [re, im] pairs"


class TestMalformedFiles:
    """A loader rejects a malformed file as a usage error (exit 2) with one
    ``error:`` line; a wrongly typed field never ends in a traceback, and is
    never silently converted."""

    @pytest.mark.parametrize(
        "kind,edit,message",
        [
            ("model", {"system_dim": [2]}, "system_dim must be an integer, got [2]"),
            ("model", {"system_dim": 2.7}, "system_dim must be an integer, got 2.7"),
            ("model", None, "model JSON must be an object, got list"),
            ("povm", {"labels": 5}, "labels must be a JSON list, got int"),
            ("povm", {"labels": "ab"}, "labels must be a JSON list, got str"),
            ("povm", None, "POVM JSON must be an object, got list"),
            ("povm", {"effects": 5}, "effects must be a JSON list, got int"),
            ("povm", {"values": [None, -1.0]}, "values must be numbers"),
            ("povm", {"values": [_HUGE, -1.0]}, "outcome values must be finite"),
            ("povm", {"values": [math.inf, -1.0]}, "outcome values must be finite"),
            ("model", {"meter": _huge_matrix()}, _HUGE_ENTRY),
            ("state", {"re": 1.0}, "matrix JSON must be nested arrays of [re, im] pairs"),
            ("povm", {"effects": _z_effects("1")}, "matrix entries must be numbers"),
            ("povm", {"effects": _z_effects("1e0")}, "matrix entries must be numbers"),
            ("povm", {"effects": _z_effects(True)}, "matrix entries must be numbers"),
            ("povm", {"effects": _z_effects(1, math.inf)}, "effect entries must be finite"),
            ("model", {"meter": _z_matrix(math.inf)}, "matrix entries must be finite"),
            ("state", [[[0.5, 0], [0, 0]], [[0, 0], [0.5, math.inf]]], "matrix entries must be finite"),
            ("obs-a", _z_matrix(math.inf), "matrix entries must be finite"),
            ("povm", {"effects": [_z_effects(1)[0], matrix_to_json(np.eye(3) / 3)]}, _PAIRS),
            ("povm", {"effects": []}, _PAIRS),
            ("povm", {"effects": [_z_effects(1)] * 2}, _PAIRS),
            ("povm", {"effects": _z_matrix()}, _PAIRS),
            ("obs-a", [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [-1, 0, 0]]], _PAIRS),
            ("obs-a", [[1, 0], [0, 0], [0, 0], [-1, 0]], _PAIRS),
            ("state", [_z_matrix()], _PAIRS),
            ("povm", {"values": _DROP}, "POVM JSON has no 'values'"),
            ("povm", {"labels": _DROP}, "POVM JSON has no 'labels'"),
            ("povm", {"effects": _DROP}, "POVM JSON has no 'effects'"),
            ("model", {"system_dim": _DROP}, "model JSON has no 'system_dim'"),
            ("model", {"ancilla_state": _DROP}, "model JSON has no 'ancilla_state'"),
            ("model", {"interaction": _DROP}, "model JSON has no 'interaction'"),
            ("model", {"meter": _DROP}, "model JSON has no 'meter'"),
        ],
        ids=[
            "system_dim-list", "system_dim-float", "model-list",
            "labels-int", "labels-str", "povm-list", "effects-int", "values-null", "values-huge", "values-inf",
            "meter-huge",
            "state-object",
            "entry-str", "entry-str-exp", "entry-bool",
            "effect-inf-imag", "meter-inf-imag", "state-inf-imag", "obs-a-inf-imag",
            "effects-of-two-dims", "effects-empty", "effects-stack-of-stacks", "effects-one-matrix",
            "entry-triple", "flat-pairs", "state-stack",
            "no-values", "no-labels", "no-effects",
            "no-system_dim", "no-ancilla_state", "no-interaction", "no-meter",
        ],
    )
    def test_malformed_file_is_usage_error(self, kind, edit, message, tmp_path, capsys):
        """``edit`` is merged into a valid POVM or model file (a key set to
        ``_DROP`` removed), replaces a state or observable file whole, or, if
        None, wraps the valid file in a list."""
        path, povm, out = tmp_path / "input.json", tmp_path / "povm.json", str(tmp_path / "o.csv")
        povm.write_text(json.dumps(unsharp_file()))
        data, argv = {
            "model": (model_to_json(*cnot_model()), ["chain", "--model", str(path)]),
            "povm": (
                unsharp_file(),
                ["scan", "--family", "custom", "--povm", str(path), "--out", out],
            ),
            "state": ({}, ["scan", "--family", "unsharp", "--grid", "0.5", "--state", str(path), "--out", out]),
            "obs-a": ({}, ["scan", "--family", "custom", "--povm", str(povm), "--obs-a", str(path), "--out", out]),
        }[kind]
        if edit is None:
            content = [data]
        elif isinstance(edit, dict):
            content = {k: v for k, v in {**data, **edit}.items() if v is not _DROP}
        else:
            content = edit
        path.write_text(json.dumps(content))
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "prefix,message",
        [
            (b"\xef\xbb\xbf", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["bom", "invalid-utf8"],
    )
    def test_file_that_is_not_strict_utf8_is_usage_error(self, prefix, message, tmp_path, capsys):
        """A file is read as strict UTF-8: a byte order mark or a byte that
        UTF-8 does not allow is an error, not skipped."""
        path = tmp_path / "povm.json"
        path.write_bytes(prefix + json.dumps(unsharp_file()).encode())
        assert main(["scan", "--family", "custom", "--povm", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize("flag", ["--state", "--obs-a"])
    def test_matrix_entry_beyond_a_double_is_usage_error(self, flag, tmp_path, capsys):
        """A matrix file holding an integer too large for a double is bad
        input, exit 2, not an ``OverflowError`` (an internal error, exit 3)."""
        path, povm = tmp_path / "matrix.json", tmp_path / "povm.json"
        path.write_text(json.dumps(_huge_matrix()))
        povm.write_text(json.dumps(unsharp_file()))
        out = str(tmp_path / "o.csv")
        assert main(["scan", "--family", "custom", "--povm", str(povm), flag, str(path), "--out", out]) == 2
        assert capsys.readouterr().err.strip() == f"error: {_HUGE_ENTRY}"

    @pytest.mark.parametrize("flag", ["--obs-a", "--obs-b", "--model"])
    def test_entry_whose_square_overflows_is_usage_error(self, flag, tmp_path, capsys):
        """An observable or meter entry of 1e200 is finite, but its square is
        not: exit 2 at the loader, not a nan scan row (exit 1) or an infinite
        chain that holds (exit 0)."""
        path, povm, out = tmp_path / "input.json", tmp_path / "povm.json", str(tmp_path / "o.csv")
        if flag == "--model":
            xi, u, _ = cnot_model()
            path.write_text(json_text(model_to_json(xi, u, np.diag([1e200, -1.0]))))
            argv = ["chain", "--model", str(path)]
        else:
            path.write_text(json_text(matrix_to_json(np.diag([1e200, 1.0]))))
            povm.write_text(json_text(unsharp_file()))
            argv = ["scan", "--family", "custom", "--povm", str(povm), flag, str(path), "--out", out]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: observable entries must be at most {MAX_OBSERVABLE_ENTRY:.3e} in magnitude\n"

    def test_largest_admitted_entry_runs(self, tmp_path, capsys):
        """Observables and a meter whose largest entry is ``MAX_OBSERVABLE_ENTRY``
        run with every value finite, warnings being errors."""
        rng = np.random.default_rng(5)
        argv = ["scan", "--family", "custom", "--povm", str(tmp_path / "povm.json")]
        (tmp_path / "povm.json").write_text(json_text(unsharp_file()))
        for flag in ("obs-a", "obs-b"):
            x = instances.observable(rng, 2)
            (tmp_path / f"{flag}.json").write_text(json_text(matrix_to_json(x * (MAX_OBSERVABLE_ENTRY / np.abs(x).max()))))
            argv += [f"--{flag}", str(tmp_path / f"{flag}.json")]
        assert main([*argv, "--out", str(tmp_path / "c.csv")]) == 0, capsys.readouterr().err
        assert len(_finite_rows(tmp_path / "c.csv")) == 1
        xi, u, meter = cnot_model()
        (tmp_path / "model.json").write_text(json_text(model_to_json(xi, u, meter * MAX_OBSERVABLE_ENTRY)))
        assert main(["chain", "--model", str(tmp_path / "model.json")]) == 0, capsys.readouterr().err
        assert "chain holds: True" in capsys.readouterr().out


def _without_wall_time(text: str) -> str:
    """Stdout of a command with the manifest's ``wall_time_s`` value dropped."""
    return re.sub(r'"wall_time_s": \S+', '"wall_time_s"', text)


class TestAllocatorSetting:
    """``main`` has glibc keep freed heap for reuse, once per process, and
    does nothing where ``mallopt`` cannot be reached; library calls leave
    the allocator alone."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        """Each test starts, and leaves, as a process whose ``main`` has not run."""
        cli._keep_freed_heap.cache_clear()
        yield
        cli._keep_freed_heap.cache_clear()

    def test_mallopt_is_called_once_by_main_alone(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=lambda *args: calls.append((name, *args))))
        run_verify((2,), 1, 0, 1e-9)
        assert calls == []
        assert main(["demo", "naive-violation"]) == 0 and main(["demo", "naive-violation"]) == 0
        assert calls == [(None, -2, cli._KEPT_HEAP_BYTES)]  # -2 is glibc's M_TOP_PAD

    @pytest.mark.parametrize("library", [OSError, TypeError, object], ids=["oserror", "typeerror", "no-mallopt"])
    def test_without_mallopt_main_runs_as_before(self, library, monkeypatch, capsys):
        """``ctypes.CDLL(None)`` raises ``OSError`` or ``TypeError`` (Windows),
        or holds no ``mallopt`` (macOS)."""
        assert main(["demo", "naive-violation"]) == 0
        expected = _without_wall_time(capsys.readouterr().out)

        def library_of(name):
            if library is object:
                return object()
            raise library("no C library")

        monkeypatch.setattr(ctypes, "CDLL", library_of)
        cli._keep_freed_heap.cache_clear()
        assert main(["demo", "naive-violation"]) == 0
        assert _without_wall_time(capsys.readouterr().out) == expected


class TestParserReuse:
    """``main`` builds its parser once per process; later calls reuse it and
    see nothing of the calls before them."""

    def test_default_observable_does_not_leak(self, tmp_path):
        povm = tmp_path / "povm.json"
        povm.write_text(json_text(unsharp_file()))
        x = tmp_path / "x.json"
        x.write_text(json_text(matrix_to_json([[0, 1], [1, 0]])))
        argv = ["scan", "--family", "custom", "--povm", str(povm)]
        assert main(argv + ["--obs-a", str(x), "--out", str(tmp_path / "x.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path / "reused.csv")]) == 0
        src = str(Path(measerr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = tmp_path / "fresh.csv"
        subprocess.run([sys.executable, "-m", "measerr", *argv, "--out", str(fresh)], env=env, check=True)
        assert (tmp_path / "reused.csv").read_bytes() == fresh.read_bytes()
        assert (tmp_path / "x.csv").read_bytes() != fresh.read_bytes()

    def test_sign_flip_does_not_leak(self, capsys):
        argv = ["verify", "--dims", "2", "--n", "5", "--seed", "3"]
        assert main(argv + ["--self-test-sign-flip"]) == 1
        assert main(argv) == 0

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--dims", "2", "--n", "0"])
        assert excinfo.value.code == 2
        assert main(["verify", "--dims", "2", "--n", "1"]) == 0

    def test_no_parser_built_after_the_first_call(self, monkeypatch, tmp_path, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        per_call = []
        for argv in (
            ["demo", "naive-violation"],
            ["scan", "--family", "unsharp", "--grid", "0.5", "--out", str(tmp_path / "s.csv")],
            ["verify", "--dims", "2", "--n", "1"],
            ["chain", "--dims", "2", "--n", "1"],
            ["demo", "kr-reduction"],
        ):
            before = len(built)
            assert main(argv) == 0
            per_call.append(len(built) - before)
        assert per_call[1:] == [0, 0, 0, 0]

    def test_command_is_looked_up_at_dispatch(self, monkeypatch, capsys):
        assert main(["demo", "naive-violation"]) == 0
        monkeypatch.setattr("measerr.cli.cmd_demo", lambda args: 7)
        assert main(["demo", "naive-violation"]) == 7


def _outcome(argv, capsys) -> tuple:
    """Exit code, stdout less ``wall_time_s``, and stderr of ``main(argv)``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _without_wall_time(captured.out), captured.err


class TestParseOnce:
    """``main`` parses an argv that starts with a subcommand by that
    subcommand's parser alone, once, and every argv as
    ``build_parser().parse_args`` does."""

    VALID = {
        "verify": ["verify", "--dims", "2", "--n", "3", "--seed", "1"],
        "scan": ["scan", "--family", "unsharp", "--grid", "0.5"],
        "demo": ["demo", "naive-violation"],
        "chain": ["chain", "--dims", "2", "--n", "1"],
    }
    RUNS = [*VALID.values(), ["scan", "--fam", "unsharp"]]
    TABLE = [
        *RUNS,
        ["-h"],
        ["--help"],
        ["scan", "-h"],
        [],
        ["bogus"],
        ["sc"],
        ["scan", "--family", "unsharp", "extra"],
        ["verify", "--dims", "2", "--n", "3", "--seed", "1", "--unknown"],
        ["verify", "--dims", "2", "--n", "2", "--seed", "3", "--", "extra"],
    ]

    @pytest.mark.parametrize("command", VALID)
    def test_one_parse_on_the_subcommand_parser(self, command, monkeypatch, capsys):
        main(self.VALID[command])  # builds the parsers, if no test has yet
        parsed = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(self, *args, **kwargs):
            parsed.append(self)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        assert main(self.VALID[command]) == 0
        assert parsed == [cli._parsers()[1][command]]
        assert parsed[0].prog == f"measerr {command}"

    @pytest.mark.parametrize("argv", TABLE, ids=[" ".join(argv) or "no-arguments" for argv in TABLE])
    def test_same_outcome_as_the_top_level_parse(self, argv, monkeypatch, capsys):
        received = []
        for name in ("verify", "scan", "demo", "chain"):
            command = getattr(cli, f"cmd_{name}")
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args, command=command: received.append(args) or command(args))
        outcome = _outcome(argv, capsys)
        once = received[:]
        assert len(once) == int(argv in self.RUNS)
        monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        assert _outcome(argv, capsys) == outcome
        assert received[len(once):] == once
