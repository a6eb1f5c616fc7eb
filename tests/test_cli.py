"""End-to-end command-line runs through the in-process entry point."""

import json

import numpy as np
import pytest

import krauscape.cli as cli
from krauscape.analysis import OptimizerConfig, _chord, levelset_connect, rerun_start
from krauscape.cli import csv_lines, kraus_to_dict, main, point_to_dict
from krauscape.landscape import (
    CriticalManifoldId,
    LandscapeParams,
    ManifoldTag,
    critical_point,
    objective_uv,
)
from krauscape.qcore import KrausSet

IDENT = np.eye(2, dtype=complex)
DEPHASE = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ident_file(tmp_path):
    return write_json(tmp_path / "ident.json", kraus_to_dict(KrausSet((IDENT,))))


@pytest.fixture
def dephase_file(tmp_path):
    return write_json(tmp_path / "deph.json", kraus_to_dict(KrausSet(DEPHASE)))


@pytest.fixture
def bad_file(tmp_path):
    doubled = kraus_to_dict(KrausSet((IDENT,)))
    doubled["operators"][0][0][0][0] = 2.0
    return write_json(tmp_path / "bad.json", doubled)


class TestEvaluate:
    def test_identity_channel(self, ident_file, capsys):
        code = main(["evaluate", "--in", ident_file, "--w", "0,0,0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # The identity map keeps rho fixed, so J is the excited-state
        # population (1 + gamma) / 2.
        assert report["j_trace"] == pytest.approx(0.75, abs=1e-14)
        assert report["residual_trace_uv"] < 1e-12
        assert report["residual_uv_diag"] < 1e-12
        assert report["case"] == 2

    def test_dephasing_equatorial(self, dephase_file, capsys):
        code = main(["evaluate", "--in", dephase_file, "--w", "0.8,0,0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["j_trace"] == pytest.approx(0.5, abs=1e-14)
        assert report["j_uv"] == pytest.approx(0.5, abs=1e-12)

    def test_csv_format(self, ident_file, capsys):
        code = main(
            ["evaluate", "--in", ident_file, "--w", "0,0,0.5", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["j_trace"]) == pytest.approx(0.75)

    def test_infeasible_file(self, bad_file, capsys):
        code = main(["evaluate", "--in", bad_file, "--w", "0,0,0.5"])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["evaluate", "--in", str(path), "--w", "0,0,0.5"]) == 2

    def test_missing_w_is_usage_error(self, ident_file):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--in", ident_file])
        assert err.value.code == 2


class TestOptimize:
    def test_deterministic_artifacts(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "optimize",
                    "--w",
                    "0,0,0.5",
                    "--seed",
                    "7",
                    "--direction",
                    "max",
                    "--starts",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        traj_a = (tmp_path / "a.json.traj.csv").read_bytes()
        traj_b = (tmp_path / "b.json.traj.csv").read_bytes()
        assert traj_a == traj_b
        report = json.loads(outs[0].read_text())
        assert report["reached_global"] == 5
        assert report["best_value"] > 1.0 - 1e-6
        assert traj_a.splitlines()[0] == b"iter,value,grad_norm"

    def test_trajectory_matches_rerun(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["optimize", "--w", "0,0,0.999", "--seed", "5", "--direction", "min",
                "--starts", "3", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["converged"] == 3
        traj = rerun_start(
            LandscapeParams(w=(0.0, 0.0, 0.999)), 5, report["best_index"],
            OptimizerConfig(direction="minimize"),
        )
        rows = [(i, v, g) for i, (_, v, g) in enumerate(traj.iterates)]
        expected = csv_lines(("iter", "value", "grad_norm"), rows).encode()
        assert (tmp_path / "r.json.traj.csv").read_bytes() == expected

    def test_start_file_pinned_at_max(self, tmp_path, capsys):
        params = LandscapeParams(w=(0.0, 0.0, 0.5))
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), params, seed=1)
        start = write_json(tmp_path / "start.json", point_to_dict(p))
        code = main(
            [
                "optimize",
                "--w",
                "0,0,0.5",
                "--direction",
                "min",
                "--starts",
                "1",
                "--start-file",
                start,
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best_value"] == pytest.approx(1.0, abs=1e-12)
        assert report["reached_global"] == 0

    def test_seed_required_without_start(self, capsys):
        code = main(["optimize", "--w", "0,0,0.5", "--direction", "max"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_csv_rows(self, capsys):
        code = main(
            [
                "optimize",
                "--w",
                "0,0,0.5",
                "--seed",
                "3",
                "--direction",
                "min",
                "--starts",
                "4",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,final_value"
        assert len(lines) == 5
        assert all(float(line.split(",")[1]) < 1e-6 for line in lines[1:])

    def test_removed_flags_are_usage_errors(self, capsys):
        for extra in (["--workers", "2"], ["--retraction", "polar"]):
            with pytest.raises(SystemExit) as err:
                main(["optimize", "--w", "0,0,0.5", "--seed", "1", "--direction",
                      "max", "--starts", "2", *extra])
            assert err.value.code == 2
            assert extra[0] in capsys.readouterr().err

    def test_repeated_calls_share_no_settings(self, tmp_path):
        # One parser serves every call in the process; a --tol given to one
        # call must not reach the next.
        base = ["optimize", "--w", "0,0,0.5", "--seed", "4", "--direction", "max",
                "--starts", "3"]
        tol = ["--tol", "max_iters=2", "--tol", "grad_tol=1e-3"]
        first = {}
        for i, extra in enumerate([[], tol, [], tol, [], []]):
            out = tmp_path / f"run{i}.json"
            assert main(base + extra + ["--out", str(out)]) == 0
            blobs = (out.read_bytes(), (tmp_path / f"run{i}.json.traj.csv").read_bytes())
            assert first.setdefault(bool(extra), blobs) == blobs
        assert first[True] != first[False]
        assert cli._parser() is cli._parser()

    def test_bad_direction(self, capsys):
        code = main(
            ["optimize", "--w", "0,0,0.5", "--seed", "1", "--direction", "sideways"]
        )
        assert code == 2

    def test_max_iters_must_be_whole(self, capsys):
        for value in ("inf", "2.9"):
            code = main(["optimize", "--w", "0,0,0.5", "--seed", "1", "--direction",
                         "max", "--tol", f"max_iters={value}"])
            assert code == 2
            assert "max_iters must be a whole number" in capsys.readouterr().err

    def test_grad_tol_must_be_finite(self, capsys):
        # An infinite tolerance would report every run as converged at its start.
        code = main(["optimize", "--w", "0,0,0.5", "--seed", "0", "--direction", "max",
                     "--starts", "4", "--tol", "grad_tol=inf"])
        assert code == 2
        assert "grad_tol must be positive and finite" in capsys.readouterr().err

    def test_removed_tolerances_are_unknown(self, capsys):
        for name in ("initial_step", "armijo_shrink", "armijo_slope"):
            code = main(["optimize", "--w", "0,0,0.5", "--seed", "1", "--direction",
                         "max", "--tol", f"{name}=0.5"])
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown tolerance '{name}'" in err
            assert "['grad_tol', 'max_iters']" in err

    def test_iterations_summary(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["optimize", "--w", "0,0,0.999", "--seed", "5", "--direction", "max",
                "--starts", "3", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        cfg = OptimizerConfig(direction="maximize")
        params = LandscapeParams(w=(0.0, 0.0, 0.999))
        counts = [len(rerun_start(params, 5, i, cfg).iterates) - 1 for i in range(3)]
        assert report["iterations"] == {"p50": float(np.median(counts)),
                                        "max": max(counts)}
        best_rows = (tmp_path / "r.json.traj.csv").read_text().splitlines()[1:]
        assert len(best_rows) - 1 == counts[report["best_index"]]


class TestMorse:
    def test_saddle_minus_match(self, capsys):
        code = main(
            ["morse", "--w", "0,0,0.5", "--seed", "3", "--manifold", "saddle-minus"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["predicted"] == [8, 6, 14]
        assert report["computed"] == [8, 6, 14]

    def test_mixed_chart(self, capsys):
        code = main(
            [
                "morse",
                "--w",
                "0,0,0",
                "--seed",
                "4",
                "--manifold",
                "mixed",
                "--z",
                "2,-1",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["computed"] == [6, 6, 16]

    def test_forced_mismatch_exits_3(self, capsys):
        code = main(
            [
                "morse",
                "--w",
                "0,0,0.5",
                "--seed",
                "3",
                "--manifold",
                "saddle-plus",
                "--tol",
                "zero_tol=1.0",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["computed"] == [0, 0, 28]
        assert "morse" in captured.err

    def test_illegal_manifold_for_pure_state(self, capsys):
        code = main(
            ["morse", "--w", "0,0,1", "--seed", "1", "--manifold", "saddle-minus"]
        )
        assert code == 2

    def test_unknown_manifold(self, capsys):
        code = main(["morse", "--w", "0,0,0.5", "--seed", "1", "--manifold", "ridge"])
        assert code == 2

    def test_near_mixed_saddle_matches(self, capsys):
        code = main(
            ["morse", "--w", "0,0,1e-5", "--seed", "0", "--manifold", "saddle-minus"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["computed"] == [8, 6, 14]

    def test_unknown_tolerance(self, capsys):
        for tol in ("bogus=1", "hessian_step=1e-4"):
            code = main(
                [
                    "morse",
                    "--w",
                    "0,0,0.5",
                    "--seed",
                    "1",
                    "--manifold",
                    "saddle-minus",
                    "--tol",
                    tol,
                ]
            )
            assert code == 2


class TestLevelset:
    def test_interior_csv(self, capsys):
        code = main(["levelset", "--w", "0,0,0.5", "--seed", "5", "--mu", "0.4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,value,deviation,step"
        status = lines[-1].split(",")
        assert status[0] == "status" and status[1] == "connected"
        assert float(status[2]) < 1e-6
        assert float(status[3]) < 0.05
        for line in lines[1:-1]:
            _, value, dev, step = line.split(",")
            assert abs(float(value) - 0.4) < 1e-6
            assert float(step) < 0.05

    def test_top_level_json(self, capsys):
        code = main(
            [
                "levelset",
                "--w",
                "0,0,0.5",
                "--seed",
                "2",
                "--mu",
                "1.0",
                "--format",
                "json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "connected"
        assert report["max_value_deviation"] < 1e-6

    @pytest.mark.parametrize("w, mu", [
        ("0,0,0.5", "0.4"), ("0.3,-0.4,0.2", "0.3"), ("0.3,-0.4,0.2", "0.7"),
        ("0,0,0.5", "1.0"), ("0.6,0,0.8", "0.0"),
    ])
    def test_cells_are_the_waypoints(self, tmp_path, w, mu):
        # Every value cell is objective_uv of its waypoint and every step
        # cell the chord to the previous one, to the last bit.
        out, report = tmp_path / "path.csv", tmp_path / "path.json"
        argv = ["levelset", "--w", w, "--seed", "3", "--mu", mu]
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv + ["--format", "json", "--out", str(report)]) == 0
        params = cli._parse_w(w)
        level = float(mu)
        path = levelset_connect(*cli._levelset_endpoints(params, level, 3), params, level)
        lines = out.read_text().splitlines()
        assert len(lines) == len(path.waypoints) + 2
        prev = None
        for i, (line, p) in enumerate(zip(lines[1:-1], path.waypoints)):
            index, value, dev, step = line.split(",")
            assert int(index) == i
            assert float(value) == objective_uv(p, params)
            assert float(dev) == abs(objective_uv(p, params) - level)
            assert float(step) == (0.0 if prev is None else _chord(p.matrix, prev))
            prev = p.matrix
        assert lines[-1].split(",") == [
            "status", "connected", cli._g17(path.max_value_deviation),
            cli._g17(path.max_step_length)]
        assert json.loads(report.read_text()) == {
            "mu": level,
            "status": "connected",
            "waypoints": len(path.waypoints),
            "max_value_deviation": path.max_value_deviation,
            "max_step_length": path.max_step_length,
            "detail": "",
        }

    def test_saddle_guard(self, capsys):
        code = main(["levelset", "--w", "0,0,0.5", "--seed", "5", "--mu", "0.2504"])
        assert code == 2
        assert "saddle" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("p1.csv", "p2.csv"):
            out = tmp_path / name
            code = main(
                [
                    "levelset",
                    "--w",
                    "0,0,0.5",
                    "--seed",
                    "5",
                    "--mu",
                    "0.6",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDilate:
    def test_identity(self, ident_file, capsys):
        code = main(["dilate", "--in", ident_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partial_trace_residual"] < 1e-12
        assert report["unitarity_residual"] < 1e-10
        assert report["dim"] == 2

    def test_dephasing_csv(self, dephase_file, capsys):
        code = main(["dilate", "--in", dephase_file, "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 16

    def test_infeasible(self, bad_file):
        assert main(["dilate", "--in", bad_file]) == 2


class TestScan:
    def test_grid_rows(self, capsys):
        code = main(
            [
                "scan",
                "--w",
                "0,0,0.5",
                "--seed",
                "1",
                "--grid",
                "2",
                "--range",
                "0.5",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s1,s2,J"
        assert len(lines) == 5
        for line in lines[1:]:
            j = float(line.split(",")[2])
            assert -1e-12 <= j <= 1.0 + 1e-12

    def test_manifold_center_value(self, capsys):
        code = main(
            [
                "scan",
                "--w",
                "0,0,0.5",
                "--seed",
                "1",
                "--grid",
                "3",
                "--manifold",
                "global-max",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        center = [
            line
            for line in lines[1:]
            if float(line.split(",")[0]) == 0.0 and float(line.split(",")[1]) == 0.0
        ]
        assert len(center) == 1
        assert float(center[0].split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            code = main(
                [
                    "scan",
                    "--w",
                    "0,0,0.5",
                    "--seed",
                    "9",
                    "--grid",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_manifold(self):
        code = main(
            ["scan", "--w", "0,0,0.5", "--seed", "1", "--manifold", "plateau"]
        )
        assert code == 2
