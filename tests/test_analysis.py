"""Optimizer, multi-start, classification, level transfer, connectivity."""

import dataclasses
import math

import numpy as np
import pytest

import krauscape.analysis as analysis
from krauscape.analysis import (
    FlowStallError,
    LevelSetPath,
    MultiStartReport,
    OptimizerConfig,
    Trajectory,
    classify_critical,
    level_transfer,
    levelset_connect,
    multi_start,
    optimize,
    rerun_start,
)
from krauscape.analysis import _chord
from krauscape.landscape import (
    CriticalManifoldId,
    LandscapeParams,
    ManifoldTag,
    _objective_mat,
    _rgrad_mat,
    critical_point,
    duality_map,
    objective_uv,
)
from krauscape.stiefel import (
    KrausPoint,
    _project_mat,
    _qf,
    constraint_residuals,
    random_kraus_point,
)

PARAMS05 = LandscapeParams(w=(0.0, 0.0, 0.5))
NEARPURE_W = ((0.0, 0.0, 0.999), (0.0, 0.0, 1.0 - 1e-6), (0.6, 0.0, 0.8))


def feasibility(p):
    return max(abs(r) for r in constraint_residuals(p.u1, p.u2, p.v1, p.v2))


def _brockett(params):
    """The Hermitian 2x2 weight N of J(X) = Re tr(X^H P X N), P the u-row projector."""
    g, z0 = params.gamma, params.z0
    return 0.5 * np.array([[1.0 + g, z0], [np.conj(z0), 1.0 - g]])


def _oracle_value(x, weights):
    u = x[:, :4]
    return (u.conj() * (u @ weights)).real.sum(axis=(1, 2))


def _oracle_rgrad(x, weights):
    e = np.zeros_like(x)
    e[:, :4] = 2.0 * (x[:, :4] @ weights)
    return _project_mat(x, e)


def _oracle_transfer(frames, weights, targets, h_max=1e-4):
    """Fixed-step reference for level_transfer on an (N, 8, 2) stack.

    Row i follows d/dt x = grad J_i / |grad J_i|^2 for the objective with
    weight ``weights[i]`` from ``frames[i]`` to ``targets[i]``, in equal
    steps of at most ``h_max`` J units: classical RK4 in the ambient 8x2
    space, one ``_qf`` per step, then the Newton corrector of
    level_transfer.  Batching the rows of several states keeps its ~10^4
    steps affordable.
    """
    w = np.array(frames, dtype=complex)
    start = _oracle_value(w, weights)
    n = int(np.ceil(np.abs(targets - start).max() / h_max))
    h = ((targets - start) / n)[:, None, None]

    def field(x):
        g = _oracle_rgrad(x, weights)
        return g / (g.real**2 + g.imag**2).sum(axis=(1, 2))[:, None, None]

    for i in range(1, n + 1):
        k1 = field(w)
        k2 = field(w + 0.5 * h * k1)
        k3 = field(w + 0.5 * h * k2)
        k4 = field(w + h * k3)
        w = _qf(w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        expected = start + i * h[:, 0, 0]
        for _ in range(8):
            err = expected - _oracle_value(w, weights)
            if (np.abs(err) <= 1e-12).all():
                break
            g = _oracle_rgrad(w, weights)
            step = np.where(np.abs(err) > 1e-12, err, 0.0) / (
                g.real**2 + g.imag**2).sum(axis=(1, 2))
            w = _qf(w + step[:, None, None] * g)
    return w


def _fixed_stage_steps(w, params, target, h):
    """level_transfer's stage step at a fixed step near h, one _qf per step."""
    j0 = float(_objective_mat(w, params))
    n = round(abs(target - j0) / h)
    for _ in range(n):
        k1 = analysis._flow_field(w, params)
        w = _qf(analysis._flow_step(w, k1, (target - j0) / n, params))
    return w


def _nudged(frame, eps):
    """The frame eps away from ``frame`` along a seed-5 tangent."""
    rng = np.random.default_rng(5)
    d = _project_mat(frame, rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
    return _qf(frame + eps * d / np.linalg.norm(d))


def _off_saddle(tag, eps):
    """A point eps off a seed-5 saddle of PARAMS05, along a seeded tangent."""
    s = critical_point(CriticalManifoldId(tag), PARAMS05, seed=5).matrix
    return KrausPoint.from_matrix(_nudged(s, eps))


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.direction == "maximize"
        assert cfg.max_iters == 5000
        assert cfg.grad_tol == 1e-8
        # The trust-region constants are not settings.
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "direction", "max_iters", "grad_tol"]

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            OptimizerConfig(direction="up")
        for tol in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError):
                OptimizerConfig(grad_tol=tol)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        for iters in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="max_iters must be a whole number"):
                OptimizerConfig(max_iters=iters)

    def test_integral_float_max_iters_stored_as_int(self):
        cfg = OptimizerConfig(max_iters=40.0)
        assert cfg.max_iters == 40 and type(cfg.max_iters) is int


class TestOptimize:
    def test_critical_start_converges_immediately(self):
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), PARAMS05, seed=1)
        traj = optimize(p, PARAMS05, OptimizerConfig(direction="maximize"))
        assert traj.terminated == "converged"
        assert len(traj.iterates) == 1
        assert traj.final_value == pytest.approx(1.0, abs=1e-12)

    def test_maximize_reaches_top(self):
        for seed in range(5):
            traj = optimize(random_kraus_point(seed=seed), PARAMS05)
            assert traj.terminated == "converged"
            assert traj.final_value > 1.0 - 1e-6
            assert feasibility(traj.final_point) < 1e-10

    def test_minimize_reaches_bottom(self):
        cfg = OptimizerConfig(direction="minimize")
        for seed in range(5):
            traj = optimize(random_kraus_point(seed=seed), PARAMS05, cfg)
            assert traj.terminated == "converged"
            assert traj.final_value < 1e-6

    def test_monotone_values(self):
        traj = optimize(random_kraus_point(seed=6), PARAMS05)
        vals = [v for _, v, _ in traj.iterates]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        traj_dn = optimize(
            random_kraus_point(seed=6), PARAMS05, OptimizerConfig(direction="minimize")
        )
        vals_dn = [v for _, v, _ in traj_dn.iterates]
        assert all(b <= a for a, b in zip(vals_dn, vals_dn[1:]))

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(iterates=(), terminated="done")

    def test_precision_floor_is_converged(self):
        # Near J = 1 at |w| = 0.9 this run ends with a gradient norm above
        # grad_tol (1.6e-8) that no step can raise J by measurably: the
        # Cauchy step predicts a gain below 4 ulps of J.
        params = LandscapeParams(w=(0.0, 0.0, 0.9))
        cfg = OptimizerConfig(direction="maximize")
        traj = optimize(random_kraus_point(seed=35), params, cfg)
        assert traj.final_grad_norm >= cfg.grad_tol
        assert traj.terminated == "converged"
        assert not traj.stalled
        assert traj.final_value > 1.0 - 1e-12
        assert len(traj.iterates) - 1 <= 50

    def test_failure_above_floor_stalls(self, monkeypatch):
        # A gradient of the wrong sign makes every trial lose measurably:
        # that is a stall, not the precision floor.
        rgrad = analysis._rgrad_mat
        monkeypatch.setattr(analysis, "_rgrad_mat", lambda w, p: -rgrad(w, p))
        traj = optimize(random_kraus_point(seed=3), PARAMS05)
        assert traj.stalled
        assert traj.terminated == "max_iters"
        assert len(traj.iterates) == 1


class TestTrustRegionStep:
    def _near_max(self, eps):
        params = LandscapeParams(w=(0.3, -0.4, 0.2))
        top = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), params, seed=4)
        x = _nudged(top.matrix, eps)
        d = _rgrad_mat(x, params)[None]
        return params, x[None], d, analysis._grad_sym_mat(x[None], params)

    def test_interior_step_solves_the_newton_system(self):
        params, x, d, sym = self._near_max(1e-3)
        eta, gain, boundary, curv = analysis._tcg(x, d, sym, np.array([2.0]), 1.0, params)
        assert not boundary[0] and curv[0] < 0.0
        hvp = _project_mat(x, analysis._hess_ambient_mat(eta, sym, params))
        r0 = np.linalg.norm(d)
        assert np.linalg.norm(d + hvp) <= r0 * min(r0, analysis._TR_CG_KAPPA)
        # Near the top J is the quadratic model to third order.
        actual = float(_objective_mat(_qf(x + eta), params)[0] - _objective_mat(x, params)[0])
        assert actual == pytest.approx(gain[0], rel=1e-2)

    def test_boundary_step_has_the_radius(self):
        params, x, d, sym = self._near_max(1e-1)
        radius = np.array([1e-4])
        eta, gain, boundary, _ = analysis._tcg(x, d, sym, radius, 1.0, params)
        assert boundary[0]
        assert np.linalg.norm(eta) == pytest.approx(1e-4, rel=1e-12)
        assert gain[0] > 0.0


def descend_alone(w0, params, cfg):
    """Each row of ``w0`` run as a batch of one."""
    runs = [analysis._descend(w0[i:i + 1], params, cfg, keep_frames=True)
            for i in range(len(w0))]
    return [(r[0][0], r[1][0], r[2][0], r[3][0]) for r in runs]


class TestEngine:
    @pytest.mark.parametrize("w, direction", [
        ((0.0, 0.0, 0.5), "maximize"),
        ((0.0, 0.0, 0.999), "minimize"),
        ((0.3, -0.4, 0.2), "minimize"),
    ])
    def test_rows_equal_batch_of_one(self, w, direction):
        params = LandscapeParams(w=w)
        cfg = OptimizerConfig(direction=direction)
        w0 = analysis._haar_starts(5, 8)
        rows, converged, stalled, frames = analysis._descend(
            w0, params, cfg, keep_frames=True)
        assert len({len(r) for r in rows}) > 1  # runs end at different iterations
        for i, (r1, c1, s1, f1) in enumerate(descend_alone(w0, params, cfg)):
            assert np.array_equal(rows[i], r1)
            assert np.array_equal(frames[i], f1)
            assert converged[i] == c1 and stalled[i] == s1

    def test_mixed_endings_in_one_batch(self):
        # At |w| = 0.9 with max_iters 6: start 0 reaches grad_tol after 5
        # iterations, start 35 ends at the precision floor after 5, and
        # start 5 is still running after 6.
        params = LandscapeParams(w=(0.0, 0.0, 0.9))
        cfg = OptimizerConfig(max_iters=6)
        w0 = np.stack([random_kraus_point(seed=s).matrix for s in (0, 35, 5)])
        rows, converged, stalled, _ = analysis._descend(w0, params, cfg)
        assert [len(r) - 1 for r in rows] == [5, 5, 6]
        assert rows[0][-1, 1] < cfg.grad_tol
        assert rows[1][-1, 1] >= cfg.grad_tol
        assert converged.tolist() == [True, True, False]
        assert not stalled.any()
        for i, (r1, c1, s1, _) in enumerate(descend_alone(w0, params, cfg)):
            assert np.array_equal(rows[i], r1)
            assert converged[i] == c1 and stalled[i] == s1

    def test_stalled_batch(self, monkeypatch):
        rgrad = analysis._rgrad_mat
        monkeypatch.setattr(analysis, "_rgrad_mat", lambda w, p: -rgrad(w, p))
        w0 = analysis._haar_starts(2, 4)
        rows, converged, stalled, _ = analysis._descend(w0, PARAMS05, OptimizerConfig())
        assert stalled.all() and not converged.any()
        assert [len(r) for r in rows] == [1, 1, 1, 1]

    @pytest.mark.parametrize("norm", [1.0 - 1e-6, 0.0, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_short_runs_everywhere(self, norm, direction):
        # Near a pure state the slow direction has curvature (1 - |w|) / 2;
        # the trust-region step takes it in one Newton step, so no run has
        # a long tail there or at any other norm.
        params = LandscapeParams(w=(0.0, 0.0, norm))
        cfg = OptimizerConfig(direction=direction)
        rows, converged, stalled, _ = analysis._descend(
            analysis._haar_starts(7, 60), params, cfg)
        assert converged.all() and not stalled.any()
        target, sgn = (1.0, 1.0) if direction == "maximize" else (0.0, -1.0)
        for r in rows:
            assert len(r) - 1 <= 25
            assert abs(r[-1, 0] - target) <= 1e-6
            assert (sgn * np.diff(r[:, 0]) >= 0).all()

    def test_haar_starts_equal_haar_frames(self):
        stack = analysis._haar_starts(17, 40)
        for i in range(40):
            frame = analysis._haar_frame(8, 2, analysis._child_rng(17, i))
            assert np.array_equal(stack[i], frame)


class TestMultiStart:
    def test_deterministic(self):
        r1 = multi_start(PARAMS05, n_starts=10, seed=42)
        r2 = multi_start(PARAMS05, n_starts=10, seed=42)
        assert r1.final_values == r2.final_values
        assert r1.best_index == r2.best_index
        assert r1.reached_global == 10
        assert r1.worst_gap < 1e-6

    def test_rerun_matches_report(self):
        cfg = OptimizerConfig()
        report = multi_start(PARAMS05, n_starts=8, seed=11, cfg=cfg)
        traj = rerun_start(PARAMS05, 11, report.best_index, cfg)
        assert traj.final_value == report.final_values[report.best_index]
        assert report.best_rows == tuple((v, g) for _, v, g in traj.iterates)

    def test_iterations_count_accepted_steps(self):
        cfg = OptimizerConfig(direction="minimize")
        report = multi_start(PARAMS05, n_starts=5, seed=11, cfg=cfg)
        assert report.iterations == tuple(
            len(rerun_start(PARAMS05, 11, i, cfg).iterates) - 1 for i in range(5))
        assert report.iterations[report.best_index] == len(report.best_rows) - 1

    def test_explicit_start_trapped_at_minimum(self):
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), PARAMS05, seed=2)
        report = multi_start(PARAMS05, n_starts=1, seed=0, start=p)
        assert report.reached_global == 0
        assert report.final_values[0] == pytest.approx(0.0, abs=1e-12)
        assert report.worst_gap == pytest.approx(1.0, abs=1e-12)

    def test_explicit_start_needs_single_run(self):
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), PARAMS05, seed=2)
        with pytest.raises(ValueError):
            multi_start(PARAMS05, n_starts=2, seed=0, start=p)

    def test_minimize_direction(self):
        cfg = OptimizerConfig(direction="minimize")
        report = multi_start(PARAMS05, n_starts=6, seed=3, cfg=cfg)
        assert report.reached_global == 6
        assert all(v < 1e-6 for v in report.final_values)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            MultiStartReport(
                starts=2,
                seed=0,
                direction="maximize",
                reached_global=3,
                final_values=(1.0, 1.0),
                worst_gap=0.0,
                classified_saddle_hits=0,
                best_index=0,
            )

    def test_converged_count_validation(self):
        fields = dict(
            starts=2,
            seed=0,
            direction="maximize",
            reached_global=2,
            final_values=(1.0, 1.0),
            worst_gap=0.0,
            classified_saddle_hits=0,
            best_index=0,
        )
        assert MultiStartReport(**fields, converged=2).converged == 2
        for bad in (-1, 3):
            with pytest.raises(ValueError):
                MultiStartReport(**fields, converged=bad)

    @pytest.mark.parametrize("w", NEARPURE_W)
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_nearpure_campaign_converges(self, w, direction):
        params = LandscapeParams(w=w)
        cfg = OptimizerConfig(direction=direction)
        starts = 4
        report = multi_start(params, n_starts=starts, seed=0, cfg=cfg)
        assert report.reached_global == starts
        assert report.converged == starts
        sgn = 1.0 if direction == "maximize" else -1.0
        for i in range(starts):
            traj = rerun_start(params, 0, i, cfg)
            assert traj.terminated == "converged"
            assert len(traj.iterates) - 1 <= 1000
            vals = [v for _, v, _ in traj.iterates]
            assert all(sgn * (b - a) >= 0 for a, b in zip(vals, vals[1:]))


class TestClassify:
    def test_constructed_points(self):
        expected = {
            ManifoldTag.GLOBAL_MIN: PARAMS05,
            ManifoldTag.GLOBAL_MAX: PARAMS05,
            ManifoldTag.SADDLE_MINUS: PARAMS05,
            ManifoldTag.SADDLE_PLUS: PARAMS05,
            ManifoldTag.MIXED_SADDLE: LandscapeParams(w=(0.0, 0.0, 0.0)),
        }
        for tag, params in expected.items():
            p = critical_point(CriticalManifoldId(tag), params, seed=4)
            got = classify_critical(p, params)
            assert isinstance(got, CriticalManifoldId)
            assert got.tag == tag

    def test_generic_point_non_critical(self):
        assert classify_critical(random_kraus_point(seed=8), PARAMS05) == "non-critical"

    def test_near_degenerate_is_ambiguous(self):
        # As |w| -> 0 the two saddle values collapse onto 1/2 and the
        # classifier must refuse to pick one.
        params = LandscapeParams(w=(0.0, 0.0, 1e-7))
        p = critical_point(
            CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params, seed=3
        )
        assert classify_critical(p, params) == "ambiguous"


class TestLevelTransfer:
    def test_already_on_level_returns_same_object(self):
        p = random_kraus_point(seed=21)
        mu = objective_uv(p, PARAMS05)
        assert level_transfer(p, PARAMS05, mu) is p

    def test_reaches_target(self):
        for seed in range(5):
            p = random_kraus_point(seed=seed)
            q = level_transfer(p, PARAMS05, 0.6)
            assert abs(objective_uv(q, PARAMS05) - 0.6) < 1e-10
            assert feasibility(q) < 1e-10

    def test_round_trip(self):
        p = random_kraus_point(seed=21)
        j0 = objective_uv(p, PARAMS05)
        q = level_transfer(p, PARAMS05, 0.6)
        back = level_transfer(q, PARAMS05, j0)
        assert abs(objective_uv(back, PARAMS05) - j0) < 1e-10
        assert _chord(back.matrix, p.matrix) < 1e-4

    def test_stalls_at_critical_start(self):
        s = critical_point(
            CriticalManifoldId(ManifoldTag.SADDLE_MINUS), PARAMS05, seed=5
        )
        with pytest.raises(FlowStallError) as err:
            level_transfer(s, PARAMS05, 0.6)
        assert err.value.value_reached == pytest.approx(0.25, abs=1e-10)

    def test_rejects_extremal_targets(self):
        p = random_kraus_point(seed=22)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                level_transfer(p, PARAMS05, bad)

    def test_matches_fine_step_oracle(self):
        # Targets 0.03 and 0.97 lie beyond the saddle values 0.05 and 0.95
        # of |w| = 0.9, so those flows pass close to a saddle.
        states = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.3, -0.4, 0.2),
                  (0.0, 0.0, 0.9), (0.0, 0.0, 1.0 - 1e-6), (0.6, 0.0, 0.8)]
        targets = (0.03, 0.26, 0.4, 0.6, 0.74, 0.97)
        cases = [(LandscapeParams(w=w), random_kraus_point(seed=60 + k), mu)
                 for k, w in enumerate(states) for mu in targets]
        frames = np.stack([p.matrix for _, p, _ in cases])
        weights = np.stack([_brockett(params) for params, _, _ in cases])
        for params, p, _ in cases[::len(targets)]:
            w = p.matrix[None]
            np.testing.assert_allclose(
                _oracle_value(w, _brockett(params)[None]), _objective_mat(w, params),
                atol=1e-15)
            np.testing.assert_allclose(
                _oracle_rgrad(w, _brockett(params)[None]), _rgrad_mat(w, params),
                atol=1e-15)
        ref = _oracle_transfer(frames, weights, np.array([mu for _, _, mu in cases]))
        for (params, p, mu), expected in zip(cases, ref):
            q = level_transfer(p, params, mu)
            assert _chord(q.matrix, expected) < 1e-8, (params.w, mu)

    def test_stage_step_is_fourth_order(self):
        # A tenfold smaller step must cut the endpoint error by 10^3 or
        # more; QR-retracted stages are first order and cut it by ~10.
        p = random_kraus_point(seed=23)
        j0 = objective_uv(p, PARAMS05)
        target = j0 + 0.3 if j0 < 0.5 else j0 - 0.3
        ref = _oracle_transfer(
            p.matrix[None], _brockett(PARAMS05)[None], np.array([target]))[0]
        coarse, fine = (_chord(_fixed_stage_steps(p.matrix, PARAMS05, target, h), ref)
                        for h in (1e-2, 1e-3))
        assert coarse >= 1e3 * fine

    @pytest.mark.parametrize("tag", [ManifoldTag.SADDLE_MINUS, ManifoldTag.SADDLE_PLUS])
    def test_leaves_a_saddle_neighbourhood(self, tag, monkeypatch):
        # The field grad/|grad|^2 is ~1e5 at 1e-5 off a saddle, so the
        # step control must reject its way down from the start step and
        # still end in a bounded number of steps.
        calls = []
        rgrad = analysis._rgrad_mat
        monkeypatch.setattr(
            analysis, "_rgrad_mat", lambda w, p: calls.append(1) or rgrad(w, p))
        for eps in (1e-3, 1e-5):
            p = _off_saddle(tag, eps)
            for mu in (0.1, 0.6, 0.9):
                calls.clear()
                q = level_transfer(p, PARAMS05, mu)
                assert abs(objective_uv(q, PARAMS05) - mu) < 1e-10
                assert len(calls) <= 5000, (eps, mu, len(calls))

    @pytest.mark.parametrize("tag", [ManifoldTag.SADDLE_MINUS, ManifoldTag.SADDLE_PLUS])
    def test_stalls_next_to_a_saddle(self, tag):
        p = _off_saddle(tag, 1e-7)
        saddle = (PARAMS05.lambda_minus if tag == ManifoldTag.SADDLE_MINUS
                  else PARAMS05.lambda_plus)
        for mu in (0.1, 0.6, 0.9):
            with pytest.raises(FlowStallError) as err:
                level_transfer(p, PARAMS05, mu)
            assert err.value.value_reached == pytest.approx(saddle, abs=1e-6)


class TestLevelsetConnect:
    def test_coincident_endpoints(self):
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        path = levelset_connect(a, a, PARAMS05, 0.4)
        assert path.status == "connected"
        assert len(path.waypoints) == 1
        assert path.max_step_length == 0.0

    def test_interior_level(self):
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        b = level_transfer(random_kraus_point(seed=32), PARAMS05, 0.4)
        path = levelset_connect(a, b, PARAMS05, 0.4)
        assert path.status == "connected"
        assert path.max_value_deviation < 1e-6
        assert path.max_step_length < 0.05
        assert np.array_equal(path.waypoints[0].matrix, a.matrix)
        assert np.array_equal(path.waypoints[-1].matrix, b.matrix)
        for w in path.waypoints:
            assert feasibility(w) < 1e-10

    def test_top_level(self):
        a = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), PARAMS05, seed=1)
        b = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), PARAMS05, seed=2)
        path = levelset_connect(a, b, PARAMS05, 1.0)
        assert path.status == "connected"
        assert path.max_value_deviation < 1e-6

    def test_bottom_level(self):
        a = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), PARAMS05, seed=1)
        b = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), PARAMS05, seed=2)
        path = levelset_connect(a, b, PARAMS05, 0.0)
        assert path.status == "connected"

    def test_pure_state_interior(self):
        params = LandscapeParams(w=(0.0, 0.0, 1.0))
        a = level_transfer(random_kraus_point(seed=41), params, 0.5)
        b = level_transfer(random_kraus_point(seed=42), params, 0.5)
        path = levelset_connect(a, b, params, 0.5)
        assert path.status == "connected"
        assert path.max_step_length < 0.05

    @pytest.mark.parametrize("w", [
        (0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, 0.0, 0.0), (0.3, -0.4, 0.2),
        (0.0, 0.0, 0.9995), (0.0, 0.0, 1.0 - 1e-6)])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_extreme_levels(self, w, mu):
        # The pure states (first two) leave the interpolants slightly off the
        # extreme set; the last two put the lambda_- saddle within the 1e-3
        # guard of mu = 0, which must not refuse an extreme level.
        params = LandscapeParams(w=w)
        tag = ManifoldTag.GLOBAL_MAX if mu == 1.0 else ManifoldTag.GLOBAL_MIN
        for seed in (0, 2, 4):
            a = critical_point(CriticalManifoldId(tag), params, seed=seed)
            b = critical_point(CriticalManifoldId(tag), params, seed=seed + 1)
            path = levelset_connect(a, b, params, mu)
            assert path.status == "connected", (seed, path.detail)
            for p in path.waypoints:
                assert feasibility(p) < 1e-10
                assert abs(objective_uv(p, params) - mu) <= 1e-10

    @pytest.mark.parametrize("mu", [5e-10, 1.0 - 5e-10])
    def test_level_inside_the_extreme_band(self, mu):
        # Within 1e-9 of an extreme the path is traced on the extreme set,
        # here next to the lambda_+ / lambda_- saddle at |w| = 0.9995.
        params = LandscapeParams(w=(0.0, 0.0, 0.9995))
        extreme = float(round(mu))
        tag = ManifoldTag.GLOBAL_MAX if extreme == 1.0 else ManifoldTag.GLOBAL_MIN
        for seed in (0, 2):
            a = critical_point(CriticalManifoldId(tag), params, seed=seed)
            b = critical_point(CriticalManifoldId(tag), params, seed=seed + 1)
            path = levelset_connect(a, b, params, mu)
            assert path.status == "connected", (seed, path.detail)
            assert path.max_value_deviation <= 5e-10 + 1e-10
            for p in path.waypoints:
                assert feasibility(p) < 1e-10
                assert abs(objective_uv(p, params) - extreme) <= 1e-10

    @pytest.mark.parametrize("w", [(0.0, 0.0, 1e-5), (0.0, 0.0, 1.0 - 1e-6)])
    @pytest.mark.parametrize("mu", [0.3, 0.7])
    def test_interior_levels_near_the_limits(self, w, mu):
        params = LandscapeParams(w=w)
        for seed in (51, 53):
            a = level_transfer(random_kraus_point(seed=seed), params, mu)
            b = level_transfer(random_kraus_point(seed=seed + 1), params, mu)
            path = levelset_connect(a, b, params, mu)
            assert path.status == "connected", (seed, path.detail)

    def test_saddle_guard(self):
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.2504)
        b = level_transfer(random_kraus_point(seed=32), PARAMS05, 0.2504)
        with pytest.raises(ValueError, match="saddle"):
            levelset_connect(a, b, PARAMS05, 0.2504)

    def test_off_level_endpoint_rejected(self):
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        b = level_transfer(random_kraus_point(seed=32), PARAMS05, 0.4)
        with pytest.raises(ValueError, match="off the level"):
            levelset_connect(a, b, PARAMS05, 0.55)

    def test_duality_carries_paths(self):
        # Mapping a level-0.4 witness through the value-flip symmetry must
        # give a valid level-0.6 witness with identical step lengths.
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        b = level_transfer(random_kraus_point(seed=32), PARAMS05, 0.4)
        path = levelset_connect(a, b, PARAMS05, 0.4)
        assert path.status == "connected"
        mapped = [duality_map(w) for w in path.waypoints]
        for q in mapped:
            assert abs(objective_uv(q, PARAMS05) - 0.6) < 1e-6
        for i in range(len(mapped) - 1):
            orig = _chord(path.waypoints[i].matrix, path.waypoints[i + 1].matrix)
            new = _chord(mapped[i].matrix, mapped[i + 1].matrix)
            assert abs(orig - new) < 1e-12

    def test_path_validation(self):
        with pytest.raises(ValueError):
            LevelSetPath(
                mu=0.4,
                waypoints=(),
                max_value_deviation=1e-3,
                max_step_length=0.01,
                status="connected",
            )
        with pytest.raises(ValueError):
            LevelSetPath(
                mu=0.4,
                waypoints=(),
                max_value_deviation=0.0,
                max_step_length=0.2,
                status="connected",
            )


def _level_pair(params, mu, seed):
    a = level_transfer(random_kraus_point(seed=seed), params, mu)
    b = level_transfer(random_kraus_point(seed=seed + 1), params, mu)
    return a.matrix, b.matrix


def correct_alone(w, mu, params, keys):
    """Each row of ``w`` corrected as a stack of one."""
    runs = [analysis._correct_to_level(w[i:i + 1], mu, params, keys[i:i + 1])
            for i in range(len(w))]
    return np.concatenate([f for f, _ in runs]), np.concatenate([ok for _, ok in runs])


def _stall_near(poison, radius):
    """An `_rgrad_mat` below the stall norm within ``radius`` of a ``poison`` frame."""
    rgrad = analysis._rgrad_mat

    def stalling(w, params):
        g = rgrad(w, params)
        dist = np.linalg.norm(w[:, None] - poison[None], axis=(2, 3))
        g[(dist <= radius).any(axis=1)] *= 1e-9
        return g
    return stalling


def _kicked(w, key, attempt):
    """The corrector's retry start: w kicked along the noise of (key, attempt)."""
    ss = np.random.SeedSequence(entropy=0x5EED, spawn_key=(key, attempt))
    rng = np.random.default_rng(ss)
    noise = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    kick = _project_mat(w[None], noise[None])
    return _qf(w[None] + kick / np.linalg.norm(kick) * 1e-2)[0]


class TestBatchedTracer:
    @pytest.mark.parametrize("w, mu", [((0.0, 0.0, 0.5), 0.4), ((0.0, 0.0, 0.0), 0.3)])
    def test_rows_equal_batch_of_one(self, w, mu):
        params = LandscapeParams(w=w)
        wa, wb = _level_pair(params, mu, 71)
        tau = np.linspace(0.05, 0.95, 10)
        stack = np.concatenate([
            analysis._frame_interp(wa, wb, tau),
            analysis._haar_starts(7, 4),
        ])
        keys = np.arange(100, 100 + len(stack))
        frames, ok = analysis._correct_to_level(stack, mu, params, keys)
        assert ok.all()
        assert np.abs(_objective_mat(frames, params) - mu).max() <= 1e-10
        alone, ok1 = correct_alone(stack, mu, params, keys)
        assert np.array_equal(frames, alone)
        assert np.array_equal(ok, ok1)

    def test_slerp_matches_the_column_loop(self):
        # The one-frame, column-by-column interpolant the stack version
        # replaced; its sums and acos/sin differ from the stack's in order.
        def slerp_columns(a, b, tau):
            cols = []
            for j in range(a.shape[1]):
                x, y = a[:, j], b[:, j]
                theta = math.acos(max(-1.0, min(1.0, float(np.vdot(x, y).real))))
                if theta < 1e-9:
                    cols.append((1.0 - tau) * x + tau * y)
                else:
                    s = math.sin(theta)
                    cols.append((math.sin((1.0 - tau) * theta) / s) * x
                                + (math.sin(tau * theta) / s) * y)
            return np.column_stack(cols)

        ab = analysis._haar_starts(4, 12)
        a, b = ab[:6], ab[6:]
        b[2][:, 0] = a[2][:, 0]  # coinciding columns take the linear branch
        tau = np.linspace(0.0, 1.0, 6)
        stack = analysis._slerp(a, b, tau)
        for i in range(6):
            np.testing.assert_allclose(
                stack[i], slerp_columns(a[i], b[i], tau[i]), rtol=0, atol=1e-14)

    def test_interp_jitters_collapsed_rows_alone(self):
        # Swapped columns meet halfway, so row 1 loses rank at tau = 0.5.
        ab = analysis._haar_starts(3, 6)
        a, b = ab[:3], ab[3:]
        b[1] = a[1][:, ::-1]
        tau = np.full(3, 0.5)
        stack = analysis._frame_interp(a, b, tau)
        for i in range(3):
            assert np.array_equal(
                stack[i], analysis._frame_interp(a[i:i + 1], b[i:i + 1], tau[:1])[0])
        raw = analysis._slerp(a[1], b[1], tau[:1])[0]
        with pytest.raises(RuntimeError):
            analysis._polar(raw)
        jitter = analysis._haar_frame(8, 2, np.random.default_rng(1234567))
        assert np.array_equal(stack[1], analysis._polar(raw + 1e-6 * jitter))
        assert np.array_equal(stack[0], analysis._polar(analysis._slerp(a[0], b[0], tau[:1]))[0])

    def test_kicked_rows_recover_with_their_own_key(self, monkeypatch):
        # Row 1 stalls at its start and row 4 also at its first retry
        # start, so they end where the corrector goes from the starts
        # kicked by (key, 0) and by (key, 0) then (key, 1).
        wa, wb = _level_pair(PARAMS05, 0.4, 31)
        stack = analysis._frame_interp(wa, wb, np.linspace(0.1, 0.9, 6))
        keys = np.arange(20, 26)
        plain, _ = analysis._correct_to_level(stack, 0.4, PARAMS05, keys)
        once = _kicked(stack[4], 24, 0)
        retries = np.stack([_kicked(stack[1], 21, 0), _kicked(once, 24, 1)])
        expected, _ = analysis._correct_to_level(retries, 0.4, PARAMS05, keys[[1, 4]])
        poison = np.stack([stack[1], stack[4], once])
        monkeypatch.setattr(analysis, "_rgrad_mat", _stall_near(poison, 0.0))
        frames, ok = analysis._correct_to_level(stack, 0.4, PARAMS05, keys)
        assert ok.all()
        assert np.abs(_objective_mat(frames, PARAMS05) - 0.4).max() <= 1e-10
        assert np.array_equal(frames[[0, 2, 3, 5]], plain[[0, 2, 3, 5]])
        assert np.array_equal(frames[[1, 4]], expected)
        alone, ok1 = correct_alone(stack, 0.4, PARAMS05, keys)
        assert np.array_equal(frames, alone) and ok1.all()

    def test_rows_that_always_stall_fail_alone(self, monkeypatch):
        # Nine attempts move a start by at most 8 kicks of 1e-2, so rows
        # 2 and 5 stall on every attempt; the other starts lie far away.
        stack = analysis._haar_starts(11, 7)
        dist = np.linalg.norm(stack[:, None] - stack[None], axis=(2, 3))
        assert dist[~np.eye(7, dtype=bool)].min() > 0.5
        monkeypatch.setattr(analysis, "_rgrad_mat", _stall_near(stack[[2, 5]], 0.1))
        keys = np.arange(7)
        frames, ok = analysis._correct_to_level(stack, 0.4, PARAMS05, keys)
        assert ok.tolist() == [True, True, False, True, True, False, True]
        alone, ok1 = correct_alone(stack, 0.4, PARAMS05, keys)
        assert np.array_equal(ok, ok1)
        assert np.array_equal(frames[ok], alone[ok1])

    def test_failed_seed_names_the_first_node(self, monkeypatch):
        # Seeds near node 30 stall on every attempt.  The reported node is
        # the first failure of a tracer that corrects one node at a time.
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        b = level_transfer(random_kraus_point(seed=32), PARAMS05, 0.4)
        nodes = np.arange(1, 63)
        seeds = analysis._frame_interp(a.matrix, b.matrix, nodes / 63)
        monkeypatch.setattr(analysis, "_rgrad_mat", _stall_near(seeds[[29]], 0.1))
        first = next(
            int(i) for i, frame in zip(nodes, seeds)
            if not analysis._correct_to_level(frame[None], 0.4, PARAMS05, [i])[1][0])
        assert 1 < first <= 30
        path = levelset_connect(a, b, PARAMS05, 0.4)
        assert path.status == "failed"
        assert path.detail == f"corrector stalled while seeding node {first}"
        assert len(path.waypoints) == 2

    def test_failed_midpoint_names_its_segment(self, monkeypatch):
        # Midpoint keys run 64, 65, ... in segment order: failing the third
        # and sixth midpoints of the first round names the third long segment.
        a = level_transfer(random_kraus_point(seed=1008), PARAMS05, 0.5)
        b = level_transfer(random_kraus_point(seed=1009), PARAMS05, 0.5)
        correct = analysis._correct_to_level
        seeded = []

        def failing(w, mu, params, keys):
            frames, ok = correct(w, mu, params, keys)
            if keys[0] == 1:
                seeded.append(frames)
            return frames, ok & ~np.isin(keys, (66, 69))

        monkeypatch.setattr(analysis, "_correct_to_level", failing)
        path = levelset_connect(a, b, PARAMS05, 0.5)
        frames = np.concatenate([a.matrix[None], seeded[0], b.matrix[None]])
        gaps = [_chord(frames[i], frames[i + 1]) for i in range(len(frames) - 1)]
        long = [i for i, g in enumerate(gaps) if g > 0.0475]
        assert len(long) >= 6
        assert path.status == "failed"
        assert path.detail == f"corrector stalled while bisecting segment {long[2]}"
