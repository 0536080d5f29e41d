import json
import os
import subprocess
import sys as _pysys
from pathlib import Path

import numpy as np
import pytest

import ddaenorm
from ddaenorm import load_system, save_system
from ddaenorm.cli import main
from conftest import make_sys_a, make_sys_b


@pytest.fixture()
def sys_a_file(tmp_path):
    path = tmp_path / "sys_a.json"
    save_system(make_sys_a(), path, name="sys-a")
    return str(path)


@pytest.fixture()
def sys_b_file(tmp_path):
    path = tmp_path / "sys_b.json"
    save_system(make_sys_b(), path, name="sys-b")
    return str(path)


class TestCheck:
    def test_sys_a_passes(self, sys_a_file, capsys):
        assert main(["check", sys_a_file]) == 0
        out = capsys.readouterr().out
        assert "0.75" in out
        assert "rank(E) = 1" in out

    def test_ill_posed_fails(self, tmp_path, capsys):
        doc = {"n": 1, "delays": [], "E": [[0.0]], "A": [[[0.0]]],
               "B": [[1.0]], "C": [[1.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2

    def test_ode_vacuous_note(self, tmp_path, capsys):
        doc = {"n": 1, "delays": [], "E": [[1.0]], "A": [[[-1.0]]],
               "B": [[1.0]], "C": [[1.0]]}
        path = tmp_path / "ode.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_schema_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"n": 1}))
        assert main(["check", str(path)]) == 1

    def test_ragged_rows_exit_1(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"n": 2, "delays": [], "E": [[1.0, 0.0], [0.0]],
                                    "A": [[[-1.0, 0.0], [0.0, -1.0]]],
                                    "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]}))
        assert main(["check", str(path)]) == 1
        assert "E has rows of unequal length" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-5"])
    def test_invalid_axis_scan_exit_1(self, sys_a_file, capsys, value):
        assert main(["check", sys_a_file, f"--axis-scan={value}"]) == 1
        assert "omega_max must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ("--axis-scan=nan", "omega_max must be finite and nonnegative, got nan"),
        ("--axis-scan=-5", "omega_max must be finite and nonnegative, got -5.0"),
        ("--grid-per-dim=0", "grid_per_dim must be >= 1"),
    ])
    def test_invalid_option_on_ill_posed_exit_1(self, tmp_path, capsys, option, message):
        doc = {"n": 1, "delays": [], "E": [[0.0]], "A": [[[0.0]]],
               "B": [[1.0]], "C": [[1.0]]}
        path = tmp_path / "ill.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), option]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "ill-posed" not in captured.out

    def test_json_report(self, sys_a_file, capsys):
        assert main(["check", sys_a_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank_E"] == 1
        assert doc["difference_stability_margin"] == pytest.approx(0.75)


class TestSweep:
    def test_t_sweep_csv(self, sys_a_file, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["sweep", sys_a_file, "--which", "T",
                     "--grid", "linear:0:5:2001", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,sigma_1"
        rows = [line.split(",") for line in lines[1:]]
        best = max(rows, key=lambda r: float(r[1]))
        assert float(best[1]) == pytest.approx(2.6422, abs=1e-3)
        assert float(best[0]) == pytest.approx(1.66, abs=0.02)

    def test_ta_sweep_max(self, sys_a_file, tmp_path):
        out = tmp_path / "ta.csv"
        code = main(["sweep", sys_a_file, "--which", "Ta",
                     "--grid", f"linear:0:{2 * np.pi}:2001", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        best = max(float(r[1]) for r in rows)
        assert best == pytest.approx(2.0320, abs=1e-3)

    def test_invalid_grid_is_usage_error(self, sys_a_file, tmp_path):
        code = main(["sweep", sys_a_file, "--grid", "linear:5:1:100",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("grid, message", [
        ("linear:0:inf:5", "omega_max must be finite, got inf"),
        ("log:nan:10:5", "omega_min must be finite, got nan"),
        ("linear:0:5", "grid must look like"),
    ])
    def test_grid_error_names_its_cause(self, sys_a_file, tmp_path, capsys, grid, message):
        out = tmp_path / "x.csv"
        assert main(["sweep", sys_a_file, "--grid", grid, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_all_singular_curve_is_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "singular.json"
        save_system(ddaenorm.DdaeSystem(E=[[0.0]], A=([[0.0]],), B=[[1.0]], C=[[1.0]], tau=[]),
                    path)
        out = tmp_path / "x.csv"
        assert main(["sweep", str(path), "--grid", "linear:0:1:5", "--out", str(out)]) == 2
        assert "all 5 points are gaps" in capsys.readouterr().err
        assert not out.exists()

    def test_json_output(self, sys_a_file, tmp_path):
        out_csv = tmp_path / "c.csv"
        out_json = tmp_path / "c.json"
        main(["sweep", sys_a_file, "--grid", "linear:0:1:11",
              "--out", str(out_csv), "--json", str(out_json)])
        doc = json.loads(out_json.read_text())
        assert doc["columns"] == ["omega", "sigma_1"]
        assert len(doc["rows"]) == 11


class TestNorm:
    @pytest.mark.parametrize("command", ["norm", "check"])
    def test_nan_literal_exit_1(self, tmp_path, capsys, command):
        # json reads the NaN literal; the system refuses it by matrix name
        path = tmp_path / "nan.json"
        path.write_text('{"n": 1, "delays": [], "E": [[1.0]], "A": [[[NaN]]], '
                        '"B": [[1.0]], "C": [[1.0]]}')
        assert main([command, str(path)]) == 1
        assert "A[0] must hold finite entries" in capsys.readouterr().err

    def test_strong_is_four(self, sys_a_file, capsys):
        assert main(["norm", sys_a_file, "--kind", "strong", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(4.0, abs=1e-6)
        assert doc["branch"] == "asymptotic-Ta"

    def test_hinf(self, sys_a_file, capsys):
        assert main(["norm", sys_a_file, "--kind", "hinf", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(2.6422, abs=1e-3)
        assert doc["attained_at"] == pytest.approx(1.6598, abs=1e-2)

    def test_strong_ta_kind(self, sys_a_file, capsys):
        assert main(["norm", sys_a_file, "--kind", "strong-ta", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(4.0, abs=1e-6)

    def test_sys_b_branch_plain(self, sys_b_file, capsys):
        assert main(["norm", sys_b_file, "--kind", "strong", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch"] == "plain-T"

    def test_out_file(self, sys_a_file, tmp_path):
        out = tmp_path / "norm.json"
        main(["norm", sys_a_file, "--kind", "strong-ta", "--out", str(out)])
        assert json.loads(out.read_text())["value"] == pytest.approx(4.0, abs=1e-6)

    def test_negative_tolerance_is_usage_error(self, sys_a_file, capsys):
        assert main(["norm", sys_a_file, "--kind", "hinf", "--tol", "-0.001"]) == 1
        assert "bisect_tol" in capsys.readouterr().err

    def test_unbounded_is_numerical_failure(self, tmp_path):
        doc = {"n": 1, "delays": [1.0], "E": [[0.0]], "A": [[[1.0]], [[-1.0]]],
               "B": [[1.0]], "C": [[1.0]]}
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert main(["norm", str(path), "--kind", "hinf"]) == 2


class TestPerturb:
    def test_study_covers_known_perturbation(self, sys_a_file, tmp_path):
        out = tmp_path / "study.csv"
        code = main(["perturb", sys_a_file, "--epsilon", "0.02",
                     "--count", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau_1,tau_2,hinf,peak_omega,status"
        rows = {(round(float(r[0]), 6), round(float(r[1]), 6)): float(r[2])
                for r in (line.split(",") for line in lines[1:])}
        assert rows[(0.99, 2.0)] == pytest.approx(3.9993, abs=1e-3)

    def test_zero_epsilon_usage_error(self, sys_a_file, tmp_path):
        code = main(["perturb", sys_a_file, "--epsilon", "0",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_infinite_epsilon_usage_error(self, sys_a_file, tmp_path, capsys):
        code = main(["perturb", sys_a_file, "--epsilon", "inf", "--scheme", "random-uniform",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "epsilon must be finite and positive" in capsys.readouterr().err


class TestBuild:
    def test_example_feedback_loop_round_trips_through_check(self, tmp_path):
        doc = {
            "plant": {"A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]],
                      "C": [[1.0]], "D1": [[0.0]], "F": [[1.0]]},
            "controller": {"K": [[0.5]], "tau": 1.0},
            "steps": [{"op": "close_feedback"}],
        }
        src = tmp_path / "loop.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "system.json"
        assert main(["build", str(src), "--out", str(out)]) == 0
        assert main(["check", str(out)]) == 0
        sys = load_system(out)
        assert sys.n == 3

    def test_empty_steps_pass_through(self, tmp_path):
        doc = {
            "plant": {"A": [[-2.0]], "B1": [[1.0]], "B2": [[1.0]],
                      "C": [[1.0]], "D1": [[0.0]], "F": [[1.0]]},
            "steps": [],
        }
        src = tmp_path / "plant.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "system.json"
        assert main(["build", str(src), "--out", str(out)]) == 0
        sys = load_system(out)
        assert sys.n == 1 and sys.m == 0

    def test_bad_interconnect_schema(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"steps": [{"op": "bogus"}]}))
        assert main(["build", str(src), "--out", str(tmp_path / "o.json")]) == 1


class TestEntryPoint:
    def test_module_invocation(self, sys_a_file):
        # the child imports the same ddaenorm as this process, installed or not
        src = str(Path(ddaenorm.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [_pysys.executable, "-m", "ddaenorm", "check", sys_a_file],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "gamma_a" in proc.stdout

    def test_missing_file_exit_code(self):
        assert main(["check", "/nonexistent/system.json"]) == 1
