"""End-to-end command-line runs through the in-process entry point."""

import json
import os

import numpy as np
import pytest

import krauscape.analysis as analysis
import krauscape.cli as cli
import krauscape.stiefel as stiefel
from krauscape.analysis import (
    FlowStallError,
    OptimizerConfig,
    _chord,
    _haar_starts,
    level_transfer,
    levelset_connect,
    rerun_start,
)
from krauscape.cli import csv_lines, kraus_to_dict, main, point_to_dict
from krauscape.landscape import (
    CriticalManifoldId,
    LandscapeParams,
    ManifoldTag,
    _critical_frames,
    _objective_mat,
    critical_point,
    objective_uv,
    riemannian_gradient,
)
from krauscape.qcore import KrausSet, bloch_to_density, dilate, verify_dilation
from krauscape.stiefel import KrausPoint

IDENT = np.eye(2, dtype=complex)
# The identity operator's two rows as the Kraus JSON writes them.
IDENT_OP = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
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


def assert_unread_options_rejected(argv, options, capsys):
    """Each option the subcommand does not read is a usage error (exit 2)."""
    for option in options:
        with pytest.raises(SystemExit) as err:
            main(argv + option)
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


class TestEvaluate:
    def test_seed_and_tol_are_usage_errors(self, ident_file, capsys):
        assert_unread_options_rejected(
            ["evaluate", "--in", ident_file, "--w", "0,0,0.5"],
            [["--seed", "5"], ["--tol", "zero_tol=1"]], capsys)

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

    @pytest.mark.parametrize("w", ["0,0,0.5", "0.3,-0.4,0.2"])
    def test_target_forms_agree(self, tmp_path, w, capsys):
        # The frame form reduces Tr[Phi(rho) Theta] by rotating the channel's
        # output into Theta's eigenbasis, for any Hermitian target.
        a, b = np.sqrt(0.7), np.sqrt(0.3)
        damping = KrausSet((np.array([[1.0, 0.0], [0.0, a]]),
                            np.array([[0.0, b], [0.0, 0.0]])))
        kraus = write_json(tmp_path / "damping.json", kraus_to_dict(damping))
        g = np.random.default_rng(8).standard_normal((2, 2, 2))
        g = g[0] + 1j * g[1]
        targets = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                   np.diag([0.0, 1.0]), g + g.conj().T)
        for theta in targets:
            entries = [[[z.real, z.imag] for z in row] for row in np.asarray(theta, complex)]
            path = write_json(tmp_path / "theta.json", {"entries": entries})
            assert main(["evaluate", "--in", kraus, "--w", w, "--theta", path]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["residual_trace_uv"] <= 1e-12
            assert report["residual_uv_diag"] <= 1e-12

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

    @pytest.mark.parametrize("doc, message", [
        ({"m": 1, "operators": [IDENT_OP]},
         "Kraus JSON must declare system dimension n = 2"),
        ({"n": 2, "m": 0, "operators": []},
         "Kraus JSON must supply a non-empty 'operators' list"),
        ({"n": 2, "m": 2, "operators": [IDENT_OP]},
         "Kraus JSON field 'm' must match the operator count"),
        ({"n": 2, "m": 1, "operators": [IDENT_OP + IDENT_OP[:1]]},
         "operator 0 must have 2 rows"),
        ({"n": 2, "m": 1, "operators": [[IDENT_OP[0], [[0.0, 0.0], [1.0, 0.0, 0.0]]]]},
         "operator 0: complex entries must be [re, im] pairs"),
    ], ids=["no-n", "no-operators", "wrong-m", "three-rows", "not-a-pair"])
    def test_malformed_kraus_json_exits_2(self, tmp_path, doc, message, capsys):
        path = write_json(tmp_path / "kraus.json", doc)
        assert main(["evaluate", "--in", path, "--w", "0,0,0.5"]) == 2
        assert capsys.readouterr().err == f"krauscape evaluate: {message}\n"

    def test_theta_without_entries_exits_2(self, tmp_path, ident_file, capsys):
        theta = write_json(tmp_path / "theta.json", {"entries": [[[1.0, 0.0], [0.0, 0.0]]]})
        assert main(["evaluate", "--in", ident_file, "--w", "0,0,0.5", "--theta", theta]) == 2
        assert capsys.readouterr().err == (
            "krauscape evaluate: target-operator JSON must supply 2x2 'entries'\n")

    def test_json_array_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "array.json", [kraus_to_dict(KrausSet((IDENT,)))])
        assert main(["evaluate", "--in", path, "--w", "0,0,0.5"]) == 2
        assert capsys.readouterr().err == f"krauscape evaluate: {path}: expected a JSON object\n"


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

    def test_collapsing_trial_stalls_the_run(self, tmp_path, capsys):
        # From the dual of an exact saddle frame at |w| = 1 - 1e-12 the
        # first CG step collapses a column of its trial: the trial is
        # rejected, and the campaign reports a stalled run.
        params = LandscapeParams(w=(0.0, 0.0, 0.999999999999))
        p = critical_point(CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params, seed=0)
        start = write_json(tmp_path / "start.json", point_to_dict(p))
        code = main(["optimize", "--w", "0,0,0.999999999999", "--start-file", start,
                     "--direction", "max", "--tol", "grad_tol=1e-300"])
        assert code == 4
        captured = capsys.readouterr()
        assert "1 of 1 runs did not converge (1 stalled)" in captured.err
        assert json.loads(captured.out)["stalled"] == 1

    def test_traj_out_is_the_default_trajectory(self, tmp_path, capsys):
        argv = ["optimize", "--w", "0,0,0.5", "--seed", "7", "--direction", "max",
                "--starts", "5"]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        default = (tmp_path / "a.json.traj.csv").read_bytes()
        assert main(argv + ["--out", str(tmp_path / "b.json"),
                            "--traj-out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "b.csv").read_bytes() == default
        assert not (tmp_path / "b.json.traj.csv").exists()
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
        capsys.readouterr()
        assert main(argv + ["--traj-out", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").read_bytes() == default
        assert json.loads(capsys.readouterr().out)["starts"] == 5

    @pytest.mark.parametrize("field, change, message", [
        ("u2", None, "point JSON is missing field 'u2'"),
        ("u1", 3, "point field u1: expected a list of 4 [re, im] pairs"),
    ], ids=["missing-block", "short-block"])
    def test_malformed_start_file_exits_2(self, tmp_path, field, change, message, capsys):
        doc = point_to_dict(stiefel.random_kraus_point(3))
        if change is None:
            del doc[field]
        else:
            doc[field] = doc[field][:change]
        start = write_json(tmp_path / "start.json", doc)
        code = main(["optimize", "--w", "0,0,0.5", "--start-file", start,
                     "--direction", "max"])
        assert code == 2
        assert capsys.readouterr().err == f"krauscape optimize: {message}\n"

    @pytest.mark.parametrize("option, message", [
        (["--w", "0,0.5"], "--w expects three comma-separated numbers a,b,g"),
        (["--w", "0,0,0.5", "--tol", "grad_tol"], "--tol expects NAME=VALUE, got 'grad_tol'"),
    ], ids=["two-stokes-numbers", "tol-without-value"])
    def test_malformed_option_exits_2(self, option, message, capsys):
        code = main(["optimize", "--seed", "1", "--direction", "max"] + option)
        assert code == 2
        assert capsys.readouterr().err == f"krauscape optimize: {message}\n"

    def test_tilted_pure_minimize_converges(self, capsys):
        # Draw 185 of the benchmark's campaign-nearpure seed 8: in the
        # rounded N of w = (0.6, 0, 0.8) the run stalled one step short
        # of grad_tol; in N's eigenbasis it converges.
        code = main(["optimize", "--w", "0.6,0,0.8", "--seed", "441686585",
                     "--direction", "min", "--starts", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] == 2
        assert all(0.0 <= v <= 1e-6 for v in report["final_values"])

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
        # call must not reach the next.  Under the tolerances none of the
        # three runs converges (exit 4); without them all do (exit 0).
        base = ["optimize", "--w", "0,0,0.5", "--seed", "4", "--direction", "max",
                "--starts", "3"]
        tol = ["--tol", "max_iters=2", "--tol", "grad_tol=1e-3"]
        first = {}
        for i, extra in enumerate([[], tol, [], tol, [], []]):
            out = tmp_path / f"run{i}.json"
            code = main(base + extra + ["--out", str(out)])
            blobs = (code, out.read_bytes(),
                     (tmp_path / f"run{i}.json.traj.csv").read_bytes())
            assert first.setdefault(bool(extra), blobs) == blobs
        assert (first[False][0], first[True][0]) == (0, 4)
        assert first[True][1:] != first[False][1:]
        assert cli._parser() is cli._parser()

    def test_unconverged_campaign_exits_4(self, capsys):
        argv = ["optimize", "--w", "0,0,0.5", "--seed", "1", "--starts", "5",
                "--direction", "max"]
        assert main(argv + ["--tol", "max_iters=1"]) == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert (report["converged"], report["stalled"]) == (0, 0)
        assert "5 of 5 runs did not converge (0 stalled)" in captured.err
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["converged"], report["stalled"]) == (5, 0)

    def test_stalled_runs_are_reported(self, monkeypatch, capsys):
        # A gradient of the wrong sign makes every trial lose measurably, so
        # every run stalls.
        first_order = analysis._first_order

        def wrong_sign(xr, g, rn):
            grad, f = first_order(xr, g, rn)
            return -grad, f

        monkeypatch.setattr(analysis, "_first_order", wrong_sign)
        argv = ["optimize", "--w", "0,0,0.5", "--seed", "2", "--starts", "4",
                "--direction", "min"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert (report["converged"], report["stalled"]) == (0, 4)
        assert "4 of 4 runs did not converge (4 stalled)" in captured.err

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

    def test_iterations_median_of_an_even_count(self, capsys):
        # Seed 0's four runs take 7, 5, 5 and 6 iterations: the median of an
        # even count is halfway between the middle pair, as np.median has it.
        argv = ["optimize", "--w", "0,0,0.999", "--seed", "0", "--direction", "max",
                "--starts", "4"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        cfg = OptimizerConfig(direction="maximize")
        params = LandscapeParams(w=(0.0, 0.0, 0.999))
        counts = [len(rerun_start(params, 0, i, cfg).iterates) - 1 for i in range(4)]
        assert report["iterations"]["p50"] == float(np.median(counts))
        assert report["iterations"]["p50"] % 1.0 == 0.5

    def test_huge_start_count_exits_2(self, capsys):
        # 10**15 starts need a 227 PiB draw, past any address space, so the
        # allocation fails without touching memory.
        code = main(["optimize", "--w", "0,0,0.5", "--seed", "1", "--direction", "min",
                     "--starts", str(10**15)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("krauscape optimize: ") and "Unable to allocate" in err


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

    @pytest.mark.parametrize("z", ["1e160,0", "1e200,0", "3e160,-2e170"])
    def test_mixed_chart_at_huge_z(self, z, capsys):
        # |z|^2 overflows a float here; the chart's scale must not.
        code = main(["morse", "--w", "0,0,0", "--seed", "1", "--manifold", "mixed", f"--z={z}"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["computed"] == [6, 6, 16]
        assert report["grad_norm"] <= 1e-15

    def test_chart_modulus_past_the_float_range_exits_2(self, capsys):
        code = main(["morse", "--w", "0,0,0", "--seed", "1", "--manifold", "mixed",
                     "--z=1.5e308,1.5e308"])
        assert code == 2
        assert "modulus must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("w", ["1e200,0,0", "0,0,1e155"])
    def test_huge_stokes_component_exits_2(self, w, capsys):
        code = main(["morse", "--w", w, "--seed", "1", "--manifold", "global-min"])
        assert code == 2
        assert "exceeds 1" in capsys.readouterr().err

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

    def test_checks_one_frame_and_builds_no_tangent(self, monkeypatch, capsys):
        # The critical frame is checked once; the Hessian and the gradient
        # norm read the raw frame, with no StiefelPoint or TangentVector.
        checked = []
        check = stiefel._check_frames

        def counting(frames, *rest):
            checked.append(len(frames))
            return check(frames, *rest)

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built by morse")

        monkeypatch.setattr(stiefel, "_check_frames", counting)
        monkeypatch.setattr(stiefel.StiefelPoint, "__post_init__", refuse)
        monkeypatch.setattr(stiefel.TangentVector, "__post_init__", refuse)
        code = main(
            ["morse", "--w", "0.3,-0.4,0.2", "--seed", "3", "--manifold", "saddle-plus"]
        )
        assert code == 0
        assert checked == [1]
        assert json.loads(capsys.readouterr().out)["computed"] == [6, 8, 14]

    @pytest.mark.parametrize("w, manifold, seed", [
        ("0,0,0.5", "saddle-minus", 3), ("0.3,-0.4,0.2", "saddle-plus", 1),
        ("0,0,0", "mixed", 4), ("0,0,1e-5", "saddle-plus", 2),
    ])
    def test_grad_norm_is_the_riemannian_gradient_norm(self, w, manifold, seed, capsys):
        # The reported norm comes from the Hessian's own gradient pass.
        argv = ["morse", "--w", w, "--seed", str(seed), "--manifold", manifold]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        params = cli._parse_w(w)
        point = critical_point(cli._parse_manifold(manifold, None), params, seed=seed)
        assert report["grad_norm"] == riemannian_gradient(point, params).norm()

    def test_csv_rows(self, capsys):
        argv = ["morse", "--w", "0,0,0.5", "--seed", "3", "--manifold", "saddle-minus"]
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert lines[0] == "key,value"
        assert lines[1:] == [
            "manifold,saddle-minus",
            "predicted_positive,8", "predicted_negative,6", "predicted_zero,14",
            "computed_positive,8", "computed_negative,6", "computed_zero,14",
            "match,true", "grad_norm,%.17g" % report["grad_norm"],
        ]

    def test_invalid_zero_tol_exits_2(self, capsys):
        for value in ("nan", "-1"):
            code = main(
                [
                    "morse",
                    "--w",
                    "0,0,0.5",
                    "--seed",
                    "3",
                    "--manifold",
                    "saddle-minus",
                    "--tol",
                    f"zero_tol={value}",
                ]
            )
            assert code == 2
            assert "zero_tol must be finite and non-negative" in capsys.readouterr().err

    def test_illegal_manifold_for_pure_state(self, capsys):
        code = main(
            ["morse", "--w", "0,0,1", "--seed", "1", "--manifold", "saddle-minus"]
        )
        assert code == 2

    def test_unknown_manifold(self, capsys):
        code = main(["morse", "--w", "0,0,0.5", "--seed", "1", "--manifold", "ridge"])
        assert code == 2

    @pytest.mark.parametrize("manifold, z, message", [
        ("mixed", "0.1", "--z expects two comma-separated numbers re,im"),
        ("saddle-minus", "0.1,0.2", "--z applies only to the mixed saddle"),
    ], ids=["one-number", "not-the-mixed-saddle"])
    def test_bad_chart_exits_2(self, manifold, z, message, capsys):
        code = main(["morse", "--w", "0,0,0", "--seed", "1", "--manifold", manifold,
                     f"--z={z}"])
        assert code == 2
        assert capsys.readouterr().err == f"krauscape morse: {message}\n"

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
    def test_tol_is_usage_error(self, capsys):
        assert_unread_options_rejected(
            ["levelset", "--w", "0,0,0.5", "--seed", "5", "--mu", "1.0"],
            [["--tol", "bogus=3"]], capsys)

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
            "status", "connected", "%.17g" % path.max_value_deviation,
            "%.17g" % path.max_step_length]
        assert json.loads(report.read_text()) == {
            "mu": level,
            "status": "connected",
            "waypoints": len(path.waypoints),
            "max_value_deviation": path.max_value_deviation,
            "max_step_length": path.max_step_length,
            "detail": "",
        }

    @staticmethod
    def _rebuilt_csv(path, params, level):
        """The CSV of a public witness, from its waypoints alone."""
        frames = np.stack([p.matrix for p in path.waypoints])
        values = _objective_mat(frames, params).tolist()
        steps = [0.0] + [_chord(b, a) for a, b in zip(frames[:-1], frames[1:])]
        rows = [(i, v, abs(v - level), st) for i, (v, st) in enumerate(zip(values, steps))]
        rows.append(("status", path.status, path.max_value_deviation,
                     path.max_step_length))
        return csv_lines(("index", "value", "deviation", "step"), rows).encode()

    @pytest.mark.parametrize("w, mu, seed", [
        ("0,0,0.5", "0.4", 5), ("0,0,0.5", "0.25", 1), ("0,0,0.5", "1.0", 2),
        ("0.3,-0.4,0.2", "0.7", 3), ("0,0,0", "0.5", 4), ("0.6,0,0.8", "0.0", 3),
    ])
    def test_csv_is_the_public_witness(self, tmp_path, w, mu, seed):
        # The CLI writes the values and chords its array-level witness took;
        # the bytes are those rebuilt from levelset_connect's waypoints.
        out = tmp_path / "path.csv"
        assert main(["levelset", "--w", w, "--seed", str(seed), "--mu", mu,
                     "--out", str(out)]) == 0
        params, level = cli._parse_w(w), float(mu)
        path = levelset_connect(*cli._levelset_endpoints(params, level, seed), params, level)
        assert out.read_bytes() == self._rebuilt_csv(path, params, level)

    def test_failed_csv_is_the_public_witness(self, tmp_path, monkeypatch, capsys):
        # A path whose global phase turns 1000 radians over s would need
        # about 3e4 nodes at chords of 0.05: the node budget fails the
        # witness, which keeps the two endpoints as its waypoints.
        monkeypatch.setattr(analysis, "_gram_witness", lambda wa, wb: (
            lambda s: np.exp(1000j * s)[:, None, None] * wa))
        out = tmp_path / "path.csv"
        assert main(["levelset", "--w", "0,0,0.5", "--seed", "5", "--mu", "0.4",
                     "--out", str(out)]) == 4
        assert "node budget exhausted" in capsys.readouterr().err
        params = cli._parse_w("0,0,0.5")
        path = levelset_connect(*cli._levelset_endpoints(params, 0.4, 5), params, 0.4)
        assert path.status == "failed" and len(path.waypoints) == 2
        assert out.read_bytes() == self._rebuilt_csv(path, params, 0.4)

    def test_first_pass_counts_against_the_node_budget(self, monkeypatch):
        # At a chord limit of 2e-4 the first pass alone would take about
        # 17700 nodes, past the 4096 budget: the witness fails before
        # building them.  At 1e-3 it connects within the budget, in 3534
        # waypoints.
        params = cli._parse_w("0,0,0.5")
        a, b = cli._levelset_endpoints(params, 0.4, 5)
        monkeypatch.setattr(analysis, "_CHORD_LIMIT", 2e-4)
        path = levelset_connect(a, b, params, 0.4)
        assert path.status == "failed" and len(path.waypoints) == 2
        assert path.detail == "node budget exhausted before reaching the step limit"
        monkeypatch.setattr(analysis, "_CHORD_LIMIT", 1e-3)
        path = levelset_connect(a, b, params, 0.4)
        assert path.status == "connected"
        assert len(path.waypoints) <= 4096
        assert path.max_step_length <= 1e-3

    @pytest.mark.parametrize("w", ["0,0,0.5", "0.3,-0.4,0.2", "0.6,0,0.8"])
    def test_endpoints_are_frames_0_and_1_of_the_stream(self, w):
        # Inside (0, 1) the endpoints are the level transfers of the first
        # two Haar frames of default_rng(seed); at an extreme level they are
        # the first two frames drawn on that extreme's sub-manifold.
        params = cli._parse_w(w)
        for seed in (0, 5):
            frames = _haar_starts(seed, 2)
            got = cli._levelset_endpoints(params, 0.4, seed)
            for p, frame in zip(got, frames):
                expected = level_transfer(KrausPoint.from_matrix(frame), params, 0.4)
                assert np.array_equal(p.matrix, expected.matrix)
            for mu, tag in ((0.0, ManifoldTag.GLOBAL_MIN), (1.0, ManifoldTag.GLOBAL_MAX)):
                frames = _critical_frames(CriticalManifoldId(tag), params,
                                          np.random.default_rng(seed), 2)
                got = cli._levelset_endpoints(params, mu, seed)
                assert len(got) == 2
                for p, frame in zip(got, frames):
                    assert np.array_equal(p.matrix, frame)

    def test_flow_stall_exits_4(self, monkeypatch, capsys):
        def stall(p, params, mu):
            raise FlowStallError(0.25)

        monkeypatch.setattr(cli, "level_transfer", stall)
        assert main(["levelset", "--w", "0,0,0.5", "--seed", "5", "--mu", "0.4"]) == 4
        assert "krauscape levelset: gradient flow stalled" in capsys.readouterr().err

    def test_saddle_guard(self, capsys):
        # A level 4e-4 from the lambda_- saddle value 0.25 connects; no
        # guard refuses it.
        code = main(["levelset", "--w", "0,0,0.5", "--seed", "5", "--mu", "0.2504"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("status,connected,")

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
    def test_seed_and_tol_are_usage_errors(self, ident_file, capsys):
        assert_unread_options_rejected(
            ["dilate", "--in", ident_file], [["--seed", "5"], ["--tol", "zero_tol=1"]],
            capsys)

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

    @pytest.mark.parametrize("command", ["dilate", "evaluate"])
    def test_outputs_follow_the_channel_tolerance(self, tmp_path, command, capsys):
        # I (1 + 1e-11) passes the 1e-10 completeness check with its output
        # trace off by 2e-11, which the channel's tolerance allows; at
        # I (1 + 1e-9) the set itself is refused.
        argv = [command] + (["--w", "0,0,0.5"] if command == "evaluate" else [])
        near = write_json(tmp_path / "near.json",
                          kraus_to_dict(KrausSet((IDENT * (1.0 + 1e-11),))))
        assert main(argv + ["--in", near]) == 0
        capsys.readouterr()
        far = kraus_to_dict(KrausSet((IDENT,)))
        for row in far["operators"][0]:
            for entry in row:
                entry[0] *= 1.0 + 1e-9
        assert main(argv + ["--in", write_json(tmp_path / "far.json", far)]) == 2
        err = capsys.readouterr().err
        assert "completeness residual 2.000000e-09 exceeds tolerance 1.0e-10" in err

    def test_residual_is_the_largest_probe_residual(self, tmp_path, capsys):
        # One stacked pass over the probes reports verify_dilation's maximum.
        for m in (1, 2, 3, 4):
            frame = stiefel.random_point(2 * m, 2, seed=40 + m).frame
            k = KrausSet(tuple(frame[[a, m + a]] for a in range(m)))
            path = write_json(tmp_path / f"k{m}.json", kraus_to_dict(k))
            assert main(["dilate", "--in", path]) == 0
            report = json.loads(capsys.readouterr().out)
            k = cli.kraus_from_dict(cli._load_json(path))
            u = dilate(k)
            expected = max(verify_dilation(u, k, bloch_to_density(w))
                           for w in cli._DILATE_PROBES)
            assert report["partial_trace_residual"] == expected
            assert np.array_equal(np.array(report["entries"]), cli.unitary_to_dict(u)["entries"])


class TestScan:
    def test_tol_is_usage_error(self, capsys):
        assert_unread_options_rejected(
            ["scan", "--w", "0,0,0.5", "--seed", "1"], [["--tol", "zero_tol=1"]], capsys)

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

    def test_mixed_chart_at_huge_z(self, capsys):
        code = main(["scan", "--w", "0,0,0", "--seed", "1", "--grid", "3",
                     "--manifold", "mixed", "--z=1e200,0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[5].startswith("0,0,")
        assert float(lines[5].split(",")[2]) == pytest.approx(0.5, abs=1e-12)

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

    def test_grid_and_range_are_checked(self, capsys):
        argv = ["scan", "--w", "0,0,0.5", "--seed", "1"]
        assert main(argv + ["--grid", "1"]) == 2
        assert "grid counts must be at least 2" in capsys.readouterr().err
        for half in ("0", "-1", "nan", "inf"):
            assert main(argv + ["--range", half]) == 2
            assert "grid ranges must be finite and positive" in capsys.readouterr().err

    def test_range_is_bounded(self, capsys):
        # From about 1.3e154 the Gram data's squares of the range overflow.
        argv = ["scan", "--w", "0,0,0.5", "--seed", "1", "--out", os.devnull]
        assert main(argv + ["--range", "1e155"]) == 2
        assert "grid ranges must be at most 1e150" in capsys.readouterr().err
        assert main(argv + ["--range", "1e150"]) == 0

    def test_unknown_manifold(self):
        code = main(
            ["scan", "--w", "0,0,0.5", "--seed", "1", "--manifold", "plateau"]
        )
        assert code == 2

    @pytest.mark.parametrize("w, manifold", [
        ("0,0,0", None), ("0,0,1e-13", None), ("0,0,0.5", None), ("0,0,0.54", None),
        ("0.3,-0.4,0.2", None), ("0,0,0.999999", None), ("0,0,1", None),
        ("0.6,0,0.8", None), ("0,0,0", "mixed"), ("0,0,0.5", "saddle-minus"),
        ("0.3,-0.4,0.2", "saddle-plus"), ("0,0,1", "global-max"),
        ("0,0,0.5", "global-min"),
    ])
    def test_values_are_the_retracted_frames(self, monkeypatch, w, manifold):
        # The Gram-data values equal J of the QR-retracted frames
        # X + s1 D1 + s2 D2 that the slice describes, within 2e-15.
        calls, scan_values = [], cli._scan_values

        def recorded(*args):
            calls.append((args, scan_values(*args)))
            return calls[-1][1]

        monkeypatch.setattr(cli, "_scan_values", recorded)
        extra = ["--manifold", manifold] if manifold else []
        for seed in (0, 1):
            for grid in ("2", "41"):
                for half in ("0.01", "1", "1e4"):
                    assert main(["scan", "--w", w, "--seed", str(seed), "--grid", grid,
                                 "--range", half, "--out", os.devnull] + extra) == 0
        assert len(calls) == 12
        for (w0, d1, d2, s1, s2, params), values in calls:
            frames = (w0 + s1[:, None, None, None] * d1
                      + s2[None, :, None, None] * d2)
            expected = _objective_mat(stiefel._qf(frames), params).ravel()
            assert values.shape == expected.shape
            assert np.abs(values - expected).max() <= 2e-15

    def test_degenerate_slice_is_a_rank_collapse(self):
        # A zero frame at the grid's center (r11 = 0), and a frame with two
        # equal columns (r22 = 0), leave Y^H Y singular.
        params = cli._parse_w("0,0,0.5")
        zero = np.zeros((8, 2), dtype=complex)
        d = zero.copy()
        d[0, 0] = d[1, 1] = 1.0
        twin = zero.copy()
        twin[0] = 1.0
        s = np.linspace(-1.0, 1.0, 3)
        for w0, d1 in ((zero, d), (twin, zero)):
            with pytest.raises(RuntimeError, match="rank collapse during QR retraction"):
                cli._scan_values(w0, d1, d1, s, s, params)

    def test_huge_grid_exits_2(self, capsys):
        # A 5000000-point axis is a 40 MB array; its 2.5e13-point grid
        # (about 200 TB) is past any address space and fails to allocate.
        code = main(["scan", "--w", "0,0,0.5", "--seed", "1", "--grid", "5000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("krauscape scan: ") and "Unable to allocate" in err

    @pytest.mark.parametrize("grid", [41, 2])
    def test_csv_is_the_row_rule(self, grid, capsys):
        # The CSV formats each coordinate once; the text must equal
        # csv_lines of the (s1, s2, J) rows that the JSON output lists.
        argv = ["scan", "--w", "0.3,-0.4,0.2", "--seed", "4", "--grid", str(grid)]
        assert main(argv + ["--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == grid * grid
        assert text == csv_lines(("s1", "s2", "J"), rows)


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ["optimize", "--w", "0,0,0.5", "--direction", "max", "--starts", "2"],
        ["morse", "--w", "0,0,0.5", "--manifold", "saddle-minus"],
        ["levelset", "--w", "0,0,0.5", "--mu", "0.4"],
        ["levelset", "--w", "0,0,0.5", "--mu", "1"],
        ["scan", "--w", "0,0,0.5", "--grid", "2"],
    ])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        assert main(argv + ["--seed", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_large_seed_runs(self, capsys):
        code = main(["optimize", "--w", "0,0,0.5", "--direction", "max", "--starts", "2",
                     "--seed", str(10**26)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 10**26 and report["reached_global"] == 2


def _per_cell_csv(header, rows):
    """CSV text by the per-cell rule: str as is, integers in decimal, else %.17g."""
    out = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append("%.17g" % float(cell))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


class TestOnePassDispatch:
    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["-h"],
        ["morse", "-h"],
        ["morse", "--w", "0,0,0.5", "--seed", "3", "--manifold", "saddle-minus",
         "--bogus", "1"],
        ["morse", "--w", "0,0,0.5", "--manifold", "saddle-minus"],
        ["scan", "--w", "0,0,0.5", "--seed", "1", "extra"],
    ])
    def test_usage_matches_a_fresh_parser(self, argv, capsys):
        # No argv, an unknown command, help, an unrecognized option and a
        # missing required option: exit code and messages of build_parser().
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        got = capsys.readouterr()
        assert err.value.code == fresh.value.code
        assert (got.out, got.err) == (expected.out, expected.err)

    @pytest.mark.parametrize("argv", [
        ["morse", "--w", "0,0,0", "--seed", "3", "--manifold", "mixed", "--z=1,-2"],
        ["optimize", "--w=0,0,0.5", "--seed", "1", "--dir", "max", "--tol",
         "max_iters=3", "--tol", "grad_tol=1e-6", "--starts", "2"],
        ["levelset", "--w", "0,0,0.5", "--seed", "2", "--mu", "0.4", "--format", "json"],
        ["scan", "--seed", "1", "--w", "0,0,0.5", "--grid", "3", "--range", "0.5"],
        ["evaluate", "--in", "k.json", "--w", "0,0,0.5", "--format", "csv"],
        ["dilate", "--in", "k.json", "--out", "u.json"],
    ])
    def test_namespace_matches_a_fresh_parser(self, argv):
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))


class TestCsvLines:
    def test_rows_follow_the_per_cell_rule(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)
        rows = [
            (0, values[0], np.float64(values[1]), "a"),
            (np.int64(-7), np.int32(3), True, "status"),
            ("status", "connected", np.float64(1e-17), 0.1),
            (np.uint8(255), 2**70, np.float64(-0.0), float("nan")),
            [1, float("inf"), np.float32(0.1), np.float64(values[2])],
            (np.int64(2), values[3], values[4], np.float64(values[5])),
        ]
        header = ("c1", "c2", "c3", "c4")
        assert csv_lines(header, rows) == _per_cell_csv(header, rows)
        assert csv_lines(header, []) == "c1,c2,c3,c4\n"
