"""Optimizer, multi-start, classification, level transfer, connectivity."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import krauscape.analysis as analysis
import krauscape.stiefel as stiefel
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
    _critical_manifolds,
    _first_order,
    _first_order_mat,
    _gram,
    _hess_vec,
    _normals,
    _objective_mat,
    _weight_factor,
    critical_point,
    duality_map,
    objective_uv,
    saddle_values,
)
from krauscape.stiefel import (
    KrausPoint,
    _haar_frames,
    _project_mat,
    _qf,
    constraint_residuals,
    random_kraus_point,
)

PARAMS05 = LandscapeParams(w=(0.0, 0.0, 0.5))
NEARPURE_W = ((0.0, 0.0, 0.999), (0.0, 0.0, 1.0 - 1e-6), (0.6, 0.0, 0.8))


def _bits(x):
    """The float64 bytes of ``x``: equal only when every bit, signs of zero
    included, is equal."""
    return np.asarray(x, dtype=np.float64).tobytes()


def feasibility(p):
    return max(abs(r) for r in constraint_residuals(p.u1, p.u2, p.v1, p.v2))


def _weight(params):
    """The Hermitian 2x2 weight N of J = tr(M N) / 2, M = U^H U."""
    g, z0 = params.gamma, params.z0
    return np.array([[1.0 + g, z0], [np.conj(z0), 1.0 - g]])


def _oracle_transfer(frames, weights, targets, h_max=2.5e-3):
    """RK4 reference for level_transfer on an (N, 8, 2) stack.

    Row i integrates the Riccati equation dM/dt = N M + M N - 2 M N M of
    M = U^H U, N = ``weights[i]``, from ``frames[i]`` to ``targets[i]``
    by classical RK4 in equal steps of at most ``h_max`` in the logit
    L = log(J / (1 - J)), on dM/dL = (dM/dt) J (1 - J) / (dJ/dt) with
    dJ/dt = tr((dM/dt) N) / 2, so steps shrink with J's distance from 0
    and 1.  The end M is lifted with the start's polar isometries, taken
    from SVDs, and roots from eigendecompositions:
    [Q_u M^(1/2); Q_v (I - M)^(1/2)].
    """
    w = np.array(frames, dtype=complex)
    m = w[:, :4].conj().swapaxes(-1, -2) @ w[:, :4]

    def value(m):
        return 0.5 * np.einsum("nij,nji->n", m, weights).real

    start = value(m)
    logit = np.log(targets / (1.0 - targets)) - np.log(start / (1.0 - start))
    n = int(np.ceil(np.abs(logit).max() / h_max))
    h = (logit / n)[:, None, None]

    def field(m):
        nm = weights @ m
        dm = nm + nm.conj().swapaxes(-1, -2) - 2.0 * m @ nm
        j = value(m)
        return dm * (j * (1.0 - j) / value(dm))[:, None, None]

    for _ in range(n):
        k1 = field(m)
        k2 = field(m + 0.5 * h * k1)
        k3 = field(m + 0.5 * h * k2)
        k4 = field(m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = np.empty_like(w)
    for rows, gram in ((slice(0, 4), m), (slice(4, 8), np.eye(2) - m)):
        u, _, vh = np.linalg.svd(w[:, rows], full_matrices=False)
        vals, vecs = np.linalg.eigh(gram)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        out[:, rows] = u @ vh @ root
    return out


def _nudged(frame, eps):
    """The frame eps away from ``frame`` along a seed-5 tangent."""
    rng = np.random.default_rng(5)
    d = _project_mat(frame, rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
    return _qf(frame + eps * d / np.linalg.norm(d))


def _wrong_sign(first_order):
    """``first_order`` with the gradient negated and the Hessian factor kept."""
    def patched(xr, g, rn):
        grad, f = first_order(xr, g, rn)
        return -grad, f
    return patched


def _off_saddle(tag, eps):
    """A point eps off a seed-5 saddle of PARAMS05, along a seeded tangent."""
    s = critical_point(CriticalManifoldId(tag), PARAMS05, seed=5).matrix
    return KrausPoint.from_matrix(_nudged(s, eps))


def _rank_one_u_rows(column):
    """A seed-9 point whose u-rows are zero outside ``column``."""
    rng = np.random.default_rng(9)
    x1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x1 /= np.linalg.norm(x1)
    v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v2 -= np.vdot(x1[4:], v2) / np.vdot(x1[4:], x1[4:]) * x1[4:]
    frame = np.zeros((8, 2), dtype=complex)
    frame[:, column], frame[4:, 1 - column] = x1, v2 / np.linalg.norm(v2)
    return KrausPoint.from_matrix(frame)


def descend_runs(w0, params, cfg, keep_frames=False):
    """:func:`analysis._descend` with its run-sorted stacks split run by run."""
    rows, bounds, converged, stalled, frames = analysis._descend(w0, params, cfg, keep_frames)

    def split(stack):
        return [stack[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    return split(rows), converged, stalled, None if frames is None else split(frames)


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
        # Near J = 1 at |w| = 0.9 the u-row value resolves J only to an ulp
        # of 1.  The maximize run is the minimize run of the dual frame,
        # which resolves 1 - J to relative precision, so it passes grad_tol
        # (1 - J ~ 1e-46) instead of stopping at a floor above it.
        params = LandscapeParams(w=(0.0, 0.0, 0.9))
        cfg = OptimizerConfig(direction="maximize")
        traj = optimize(random_kraus_point(seed=55), params, cfg)
        assert traj.final_grad_norm < cfg.grad_tol
        assert traj.terminated == "converged"
        assert not traj.stalled
        assert traj.final_value == 1.0
        assert objective_uv(duality_map(traj.final_point), params) < 1e-40
        assert len(traj.iterates) - 1 <= 50

    def test_precision_floor_from_a_constructed_start(self):
        # A global-max frame nudged until its gradient norm is just above
        # grad_tol: J sits within an ulp of 1, and 1 - J of the dual frame
        # still resolves a Newton step to grad_tol.
        params = LandscapeParams(w=(0.0, 0.0, 0.9))
        cfg = OptimizerConfig(direction="maximize")
        top = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), params, seed=7)
        start = KrausPoint.from_matrix(_nudged(top.matrix, 1.1e-8))
        gnorm = np.linalg.norm(_first_order_mat(start.matrix, params)[1])
        assert cfg.grad_tol < gnorm < 2.0 * cfg.grad_tol
        traj = optimize(start, params, cfg)
        assert traj.terminated == "converged"
        assert not traj.stalled
        assert traj.final_grad_norm < cfg.grad_tol
        assert traj.final_value == 1.0
        assert len(traj.iterates) - 1 == 1

    def test_iterates_checked_as_one_stack(self, monkeypatch):
        # The iterates after the start pass one check of the KrausPoint
        # rule, as one stack, and keep the engine's frames.
        start = random_kraus_point(seed=6)
        checked = []
        check = stiefel._check_frames

        def counting(frames, *rest):
            checked.append(len(frames))
            return check(frames, *rest)

        monkeypatch.setattr(stiefel, "_check_frames", counting)
        traj = optimize(start, PARAMS05)
        assert checked == [len(traj.iterates) - 1] and checked[0] > 1
        assert traj.iterates[0][0] is start
        _, _, _, frames = descend_runs(start.matrix[None], PARAMS05, OptimizerConfig(),
                                       keep_frames=True)
        assert np.array_equal(np.stack([p.matrix for p, _, _ in traj.iterates]), frames[0])

    @pytest.mark.parametrize("bad_first", ["infeasible", "non-finite"])
    def test_bad_iterate_raises_the_first_bad_frame_error(self, monkeypatch, bad_first):
        # Engine frames spoilt after the fact: optimize raises the error
        # that checking the iterates one by one raises first.
        descend = analysis._descend

        def spoilt(*args, **kwargs):
            rows, bounds, converged, stalled, frames = descend(*args, **kwargs)
            rows_at = (2, 4) if bad_first == "infeasible" else (4, 2)
            frames[rows_at[0], 0, 1] += 1e-6
            frames[rows_at[1], 5, 1] = np.inf
            spoilt.frames = frames
            return rows, bounds, converged, stalled, frames

        monkeypatch.setattr(analysis, "_descend", spoilt)
        with pytest.raises(ValueError) as stack:
            optimize(random_kraus_point(seed=6), PARAMS05)
        with pytest.raises(ValueError) as single:
            for f in spoilt.frames[1:]:
                KrausPoint.from_matrix(f)
        assert str(stack.value) == str(single.value)
        assert ("non-finite" in str(stack.value)) == (bad_first == "non-finite")

    def test_failure_above_floor_stalls(self, monkeypatch):
        # A gradient of the wrong sign makes every trial lose measurably,
        # so the radius collapses: that is a stall.
        monkeypatch.setattr(analysis, "_first_order", _wrong_sign(analysis._first_order))
        traj = optimize(random_kraus_point(seed=3), PARAMS05)
        assert traj.stalled
        assert traj.terminated == "max_iters"
        assert len(traj.iterates) == 1


def _tcg_reference(d, f, nb, radius):
    """Steihaug-Toint truncated CG of a batch of one, from eta = 0.

    Every step, the first included, runs the general recurrences on arrays
    that start at zero, with the arithmetic of :func:`analysis._tcg`; this
    is the reference for its bits.
    """
    dd = analysis._row_dot(d, d)
    dn = np.sqrt(dd)
    stop = (dn * np.minimum(dn, analysis._TR_CG_KAPPA)) ** 2
    r2 = radius * radius
    e, r, p = np.zeros_like(d), d, d
    m = ee = ep = np.zeros(1)
    pp = rr = dd
    for j in range(analysis._TR_CG_MAX):
        hp = _hess_vec(p, f, nb)
        kappa = analysis._row_dot(p, hp)
        alpha = rr / np.where(kappa < 0.0, -kappa, 1.0)
        ap = alpha * pp
        ee_new = ee + alpha * (2.0 * ep + ap)
        out = (kappa >= 0.0) | (ee_new >= r2)
        step = alpha
        if out[0]:
            step = (np.sqrt(ep * ep + pp * (r2 - ee)) - ep) / pp
        m = m + step * (rr + 0.5 * step * kappa)
        e, r = e + step[:, None] * p, r + step[:, None] * hp
        rr_new = analysis._row_dot(r, r)
        if out[0] or rr_new[0] <= stop[0] or j == analysis._TR_CG_MAX - 1:
            return e, m, out
        beta = rr_new / rr
        ee, ep, pp = ee_new, beta * (ep + ap), rr_new + beta * beta * pp
        p = r + beta[:, None] * p
        rr = rr_new


class TestTrustRegionStep:
    def _near_max(self, eps):
        params = LandscapeParams(w=(0.3, -0.4, 0.2))
        top = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), params, seed=4)
        x = _nudged(top.matrix, eps)[None]
        xr = x.view(np.float64)
        rn = _weight_factor(params)
        grad, f = _first_order(xr, _gram(xr, rn), rn)
        return params, x, grad.reshape(1, 32), f, _normals(xr)

    def test_interior_step_solves_the_newton_system(self):
        params, x, d, f, nb = self._near_max(1e-3)
        dd = analysis._row_dot(d, d)
        eta, gain, boundary = analysis._tcg(d, dd, np.sqrt(dd), f, nb, np.array([2.0]))
        curv = analysis._row_dot(d, _hess_vec(d, f, nb))
        assert not boundary[0] and curv[0] < 0.0
        hvp = _hess_vec(eta, f, nb)
        r0 = np.linalg.norm(d)
        assert np.linalg.norm(d + hvp) <= r0 * min(r0, analysis._TR_CG_KAPPA)
        # Near the top J is the quadratic model to third order.
        step = eta.view(complex).reshape(x.shape)
        actual = float(_objective_mat(_qf(x + step), params)[0] - _objective_mat(x, params)[0])
        assert actual == pytest.approx(gain[0], rel=1e-2)

    def test_boundary_step_has_the_radius(self):
        params, x, d, f, nb = self._near_max(1e-1)
        radius = np.array([1e-4])
        dd = analysis._row_dot(d, d)
        eta, gain, boundary = analysis._tcg(d, dd, np.sqrt(dd), f, nb, radius)
        assert boundary[0]
        assert np.linalg.norm(eta) == pytest.approx(1e-4, rel=1e-12)
        assert gain[0] > 0.0

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_rows_equal_the_zero_start_reference(self, signed_zeros):
        # Every frame of a minimize campaign at five radii, as one batch
        # whose rows stop at different CG steps, inside and on the
        # boundary, against the reference byte for byte.  With -0.0 in
        # every fourth entry of d, a step that ends at CG step 1 keeps
        # zeros whose sign only 0 + x fixes.
        params = LandscapeParams(w=(0.3, -0.4, 0.2))
        _, _, _, frames = descend_runs(
            analysis._haar_starts(3, 4), params, OptimizerConfig(direction="minimize"),
            keep_frames=True)
        radii = (2.0, 0.5, 0.25, 0.1, 0.04)
        x = np.concatenate(frames * len(radii))
        radius = np.repeat(radii, len(x) // len(radii))
        xr = x.view(np.float64)
        rn = _weight_factor(params)
        d, f = _first_order(xr, -_gram(xr, rn), -rn)
        d, nb = d.reshape(len(x), 32), _normals(xr)
        if signed_zeros:
            d[:, ::4] = -0.0
        dd = analysis._row_dot(d, d)
        eta, gain, boundary = analysis._tcg(d, dd, np.sqrt(dd), f, nb, radius)
        for i in range(len(x)):
            ref = _tcg_reference(d[i:i + 1], f[i:i + 1], nb[i:i + 1], radius[i:i + 1])
            assert eta[i:i + 1].tobytes() == ref[0].tobytes()
            assert gain[i:i + 1].tobytes() == ref[1].tobytes()
            assert boundary[i] == ref[2][0]

    @staticmethod
    def _tcg_rows(monkeypatch, d, f, nb, radius):
        """One _tcg call and the row count of each of its CG steps."""
        rows = []
        hess_vec = analysis._hess_vec

        def counted(p, fa, nba):
            rows.append(len(p))
            return hess_vec(p, fa, nba)

        monkeypatch.setattr(analysis, "_hess_vec", counted)
        dd = analysis._row_dot(d, d)
        out = analysis._tcg(d, dd, np.sqrt(dd), f, nb, radius)
        monkeypatch.undo()
        return out, rows

    @pytest.mark.parametrize("picks, batch_rows", [
        # Start 0 at its Haar frame stops on the boundary at step 1, and
        # start 1 at its converged frame inside after 4 steps.
        ([(0, 0, 1.0, 1, True), (1, -1, 2.0, 4, False)], [2, 1, 1, 1]),
        # Three rows stop at step 2, two inside and one on the boundary.
        ([(0, 1, 2.0, 2, False), (2, 1, 2.0, 2, False), (3, 1, 2.0, 2, True)], [3, 3]),
        # Three rows stop at the closed-form step 1: along non-positive
        # curvature, on leaving the region, and inside on the residual.
        ([(0, 0, 1.0, 1, True), (0, 1, 0.25, 1, True), (3, 2, 1.0, 1, False)], [3]),
    ], ids=["staggered", "together", "first-step"])
    def test_rows_equal_batch_of_one(self, monkeypatch, picks, batch_rows):
        # Frames (run, iterate) of a minimize campaign with the data that
        # _descend passes: the negated gradient and Hessian factor, the
        # first order of -G and -R(N).
        params = LandscapeParams(w=(0.3, -0.4, 0.2))
        _, _, _, frames = descend_runs(
            analysis._haar_starts(3, 4), params, OptimizerConfig(direction="minimize"),
            keep_frames=True)
        x = np.stack([frames[run][it] for run, it, *_ in picks])
        radius = np.array([pick[2] for pick in picks])
        xr = x.view(np.float64)
        rn = _weight_factor(params)
        d, f = _first_order(xr, -_gram(xr, rn), -rn)
        d, nb = d.reshape(len(x), 32), _normals(xr)
        (eta, gain, boundary), rows = self._tcg_rows(monkeypatch, d, f, nb, radius)
        assert rows == batch_rows
        # Every gain is positive, which lets the trial test read rho > 0.1
        # as actual > 0.1 gain alone.
        assert (gain > 0.0).all()
        for i, (_, _, _, steps, on_boundary) in enumerate(picks):
            one, rows = self._tcg_rows(
                monkeypatch, d[i:i + 1], f[i:i + 1], nb[i:i + 1], radius[i:i + 1])
            assert len(rows) == steps and boundary[i] == on_boundary
            assert np.array_equal(eta[i:i + 1], one[0])
            assert np.array_equal(gain[i:i + 1], one[1])
            assert np.array_equal(boundary[i:i + 1], one[2])

    def test_stopped_row_with_a_subnormal_residual(self, monkeypatch):
        # Row 0 sits at a global maximum with a descent direction of norm
        # 1e-160, so <r, r> = <d, d> is subnormal; along its positive
        # curvature it stops on the boundary at step 1, 1e160 away in
        # units of d, with a residual of order 1.  Row 1 runs on inside.
        # The stopped row's beta is never divided out (the filter turns
        # an overflow warning into an error), and each row is bitwise its
        # batch of one.
        params = LandscapeParams(w=(0.3, -0.4, 0.2))
        top = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), params, seed=4)
        _, _, _, frames = descend_runs(
            analysis._haar_starts(3, 4), params, OptimizerConfig(direction="minimize"),
            keep_frames=True)
        x = np.stack([top.matrix, frames[1][-1]])
        xr = x.view(np.float64)
        rn = _weight_factor(params)
        d, f = _first_order(xr, -_gram(xr, rn), -rn)
        d, nb = d.reshape(2, 32), _normals(xr)
        tangent = _project_mat(top.matrix, np.ones((8, 2)) + 1j * np.arange(16.0).reshape(8, 2))
        d[0] = 1e-160 * (tangent / np.linalg.norm(tangent)).view(np.float64).reshape(32)
        dd = analysis._row_dot(d, d)
        assert 0.0 < dd[0] < np.finfo(float).tiny
        radius = np.array([1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (eta, gain, boundary), rows = self._tcg_rows(monkeypatch, d, f, nb, radius)
            assert rows == [2, 1, 1, 1] and boundary.tolist() == [True, False]
            for i in range(2):
                one = self._tcg_rows(
                    monkeypatch, d[i:i + 1], f[i:i + 1], nb[i:i + 1], radius[i:i + 1])[0]
                assert eta[i:i + 1].tobytes() == one[0].tobytes()
                assert gain[i:i + 1].tobytes() == one[1].tobytes()
                assert boundary[i] == one[2][0]


def descend_alone(w0, params, cfg):
    """Each row of ``w0`` run as a batch of one."""
    runs = [descend_runs(w0[i:i + 1], params, cfg, keep_frames=True)
            for i in range(len(w0))]
    return [(r[0][0], r[1][0], r[2][0], r[3][0]) for r in runs]


class TestEngine:
    @pytest.mark.parametrize("w, direction, starts", [
        ((0.0, 0.0, 0.5), "maximize", 8),
        ((0.0, 0.0, 0.999), "minimize", 8),
        ((0.3, -0.4, 0.2), "minimize", 8),
        ((0.0, 0.0, 0.5), "maximize", 200),
    ], ids=["w0-maximize", "w1-minimize", "w2-minimize", "w0-maximize-200"])
    def test_rows_equal_batch_of_one(self, w, direction, starts):
        params = LandscapeParams(w=w)
        cfg = OptimizerConfig(direction=direction)
        w0 = analysis._haar_starts(5, starts)
        rows, converged, stalled, frames = descend_runs(
            w0, params, cfg, keep_frames=True)
        assert len({len(r) for r in rows}) > 1  # runs end at different iterations
        for i, (r1, c1, s1, f1) in enumerate(descend_alone(w0, params, cfg)):
            assert np.array_equal(rows[i], r1)
            assert np.array_equal(frames[i], f1)
            assert converged[i] == c1 and stalled[i] == s1

    def test_one_run_sorted_stack(self):
        # The records of all runs come as one stack sorted by run, in
        # iteration order within a run, with the runs' bounds.
        params = LandscapeParams(w=(0.3, -0.4, 0.2))
        cfg = OptimizerConfig(direction="minimize")
        w0 = analysis._haar_starts(5, 8)
        rows, bounds, converged, stalled, frames = analysis._descend(
            w0, params, cfg, keep_frames=True)
        alone = descend_alone(w0, params, cfg)
        assert bounds.tolist() == np.cumsum([0] + [len(r) for r, _, _, _ in alone]).tolist()
        assert np.array_equal(rows, np.concatenate([r for r, _, _, _ in alone]))
        assert np.array_equal(frames, np.concatenate([f for _, _, _, f in alone]))
        assert analysis._descend(w0, params, cfg)[4] is None

    def test_mixed_endings_in_one_batch(self):
        # At |w| = 0.9 with max_iters 6: start 0 reaches grad_tol after 5
        # iterations, start 55 reaches it in the last of the 6, and start 5
        # is still running after 6.
        params = LandscapeParams(w=(0.0, 0.0, 0.9))
        cfg = OptimizerConfig(max_iters=6)
        w0 = np.stack([random_kraus_point(seed=s).matrix for s in (0, 55, 5)])
        rows, converged, stalled, _ = descend_runs(w0, params, cfg)
        assert [len(r) - 1 for r in rows] == [5, 6, 6]
        assert rows[0][-1, 1] < cfg.grad_tol
        assert rows[1][-1, 1] < cfg.grad_tol
        assert rows[2][-1, 1] >= cfg.grad_tol
        assert converged.tolist() == [True, True, False]
        assert not stalled.any()
        for i, (r1, c1, s1, _) in enumerate(descend_alone(w0, params, cfg)):
            assert np.array_equal(rows[i], r1)
            assert converged[i] == c1 and stalled[i] == s1

    def test_retries_beside_first_trial_accepts(self, monkeypatch):
        # The first trial's arrays are the iteration's result, and a row
        # retried at a quarter radius is written into them.  In iterations
        # where every run takes part and runs on, each row's next radius
        # must follow the radius rule of the trial it accepted, the first
        # or a retry; at least one iteration mixes the two.
        iterations = []
        tcg, normals = analysis._tcg, analysis._normals

        def counted_tcg(d, dd, dn, f, nb, radius):
            out = tcg(d, dd, dn, f, nb, radius)
            iterations[-1].append((d.copy(), radius.copy(), out[1], out[2]))
            return out

        def counted_normals(xr):
            iterations.append([])
            return normals(xr)

        monkeypatch.setattr(analysis, "_tcg", counted_tcg)
        monkeypatch.setattr(analysis, "_normals", counted_normals)
        params = LandscapeParams(w=NEARPURE_W[1])
        cfg = OptimizerConfig()
        # The Haar frames of numpy's child streams (0, i): a batch in which
        # some iterations mix first-trial accepts with retries.
        w0 = np.stack([
            _haar_frames(np.random.default_rng(np.random.SeedSequence(0, spawn_key=(i,))), 1)[0]
            for i in range(8)])
        n = len(w0)
        rows, converged, stalled, frames = descend_runs(w0, params, cfg, keep_frames=True)
        assert converged.all() and not stalled.any()
        mixed = 0
        for j, (calls, after) in enumerate(zip(iterations, iterations[1:])):
            if len(calls[0][0]) != n or len(after[0][0]) != n:
                continue
            mixed += len(calls) > 1 and 0 < len(calls[1][0]) < n
            d0, r0 = calls[0][:2]
            for i in range(n):
                tries = [(r[k], g[k], b[k]) for d, r, g, b in calls
                         for k in range(len(d)) if np.array_equal(d[k], d0[i])]
                radius, gain, boundary = tries[-1]
                assert radius == 0.25 ** (len(tries) - 1) * r0[i]
                actual = rows[i][j + 1, 0] - rows[i][j, 0]
                if actual < 0.25 * gain:
                    radius = 0.25 * radius
                elif actual > 0.75 * gain and boundary:
                    radius = min(2.0 * radius, analysis._TR_RADIUS_MAX)
                assert after[0][1][i] == radius
        assert mixed
        monkeypatch.undo()
        for i, (r1, c1, s1, f1) in enumerate(descend_alone(w0, params, cfg)):
            assert np.array_equal(rows[i], r1)
            assert np.array_equal(frames[i], f1)
            assert converged[i] == c1 and stalled[i] == s1

    @pytest.mark.parametrize("max_iters", [1, 2])
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_critical_and_haar_starts_at_the_loop_edge(self, max_iters, direction):
        # The starts are iteration 0's accepted frames, and a run records
        # at most max_iters + 1 iterates.  Exact critical starts are below
        # grad_tol in both directions and keep their one record beside
        # Haar starts that run to the bound.
        cfg = OptimizerConfig(direction=direction, max_iters=max_iters)
        critical = [critical_point(CriticalManifoldId(tag), PARAMS05, seed=s).matrix
                    for s, tag in enumerate(ManifoldTag) if tag is not ManifoldTag.MIXED_SADDLE]
        haar = analysis._haar_starts(11, 4)
        w0 = np.stack([critical[0], *haar[:2], *critical[1:], *haar[2:]])
        is_critical = np.array([True, False, False, True, True, True, False, False])
        rows, converged, stalled, frames = descend_runs(w0, PARAMS05, cfg, keep_frames=True)
        assert [len(r) for r in rows] == [1 if c else max_iters + 1 for c in is_critical]
        assert converged[is_critical].all() and not stalled.any()
        for i, (r1, c1, s1, f1) in enumerate(descend_alone(w0, PARAMS05, cfg)):
            assert _bits(rows[i]) == _bits(r1)
            assert _bits(frames[i].view(np.float64)) == _bits(f1.view(np.float64))
            assert converged[i] == c1 and stalled[i] == s1

    def test_stalled_batch(self, monkeypatch):
        monkeypatch.setattr(analysis, "_first_order", _wrong_sign(analysis._first_order))
        w0 = analysis._haar_starts(2, 4)
        rows, converged, stalled, _ = descend_runs(w0, PARAMS05, OptimizerConfig())
        assert stalled.all() and not converged.any()
        assert [len(r) for r in rows] == [1, 1, 1, 1]

    @pytest.mark.parametrize("tag", [ManifoldTag.SADDLE_MINUS, ManifoldTag.SADDLE_PLUS])
    def test_collapsing_trial_is_rejected(self, tag):
        # At |w| = 1 - 1e-12 the dual of an exact saddle frame has a
        # gradient of rounding noise, so the first CG step runs along a
        # normal direction and its trial collapses a column.  The trial
        # is rejected like any other, and the run stalls.
        params = LandscapeParams(w=(0.0, 0.0, 1.0 - 1e-12))
        w0 = critical_point(CriticalManifoldId(tag), params, seed=0).matrix[None]
        rows, converged, stalled, _ = descend_runs(w0, params, OptimizerConfig(grad_tol=1e-300))
        assert stalled.tolist() == [True] and converged.tolist() == [False]
        assert len(rows[0]) == 1

    def test_collapsing_trial_beside_haar_starts(self, monkeypatch):
        # The collapse makes the whole stack's retraction raise, and its
        # rows are then retracted one by one: every Haar row must still be
        # bitwise its run as a batch of one.  The Haar runs go on to
        # gradient norms near the float floor, where no CG recurrence of a
        # stopped row may overflow.
        params = LandscapeParams(w=(0.0, 0.0, 1.0 - 1e-12))
        cfg = OptimizerConfig(max_iters=20, grad_tol=1e-300)
        saddle = critical_point(CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params, seed=0)
        w0 = np.concatenate([saddle.matrix[None], analysis._haar_starts(3, 39)])
        collapsed, qf = [], analysis._qf

        def recorded_qf(w):
            try:
                return qf(w)
            except RuntimeError:
                collapsed.append(w.shape)
                raise

        monkeypatch.setattr(analysis, "_qf", recorded_qf)
        rows, converged, stalled, frames = descend_runs(w0, params, cfg, keep_frames=True)
        assert (40, 8, 2) in collapsed
        monkeypatch.undo()
        assert stalled[0] and not converged[0]
        for i, (r1, c1, s1, f1) in enumerate(descend_alone(w0, params, cfg)):
            if i == 0:
                continue
            assert _bits(rows[i]) == _bits(r1)
            assert _bits(frames[i].view(np.float64)) == _bits(f1.view(np.float64))
            assert converged[i] == c1 and stalled[i] == s1

    def test_runs_to_the_float_floor_raise_no_warning(self):
        # With grad_tol 1e-300 the runs go on to gradients near the float
        # floor, where a row that stops in CG can hold a subnormal <r, r>
        # while another runs on; dividing by it would overflow, which the
        # filter makes an error.  Every row is bitwise its batch of one.
        cfg = OptimizerConfig(direction="minimize", grad_tol=1e-300, max_iters=30)
        w0 = analysis._haar_starts(500, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, converged, stalled, frames = descend_runs(w0, PARAMS05, cfg, keep_frames=True)
            alone = descend_alone(w0, PARAMS05, cfg)
        for i, (r1, c1, s1, f1) in enumerate(alone):
            assert _bits(rows[i]) == _bits(r1)
            assert _bits(frames[i].view(np.float64)) == _bits(f1.view(np.float64))
            assert converged[i] == c1 and stalled[i] == s1

    @pytest.mark.parametrize("w", [
        (0.0, 0.0, 1.0 - 1e-6), (0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 0.999),
        (0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.48, 0.64, 0.6),
    ], ids=lambda w: str(w[2]) if w[:2] == (0.0, 0.0) else ",".join(map(str, w)))
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_short_runs_everywhere(self, w, direction):
        # Near a pure state the slow direction has curvature (1 - |w|) / 2;
        # the trust-region step takes it in one Newton step, so no run has
        # a long tail there or at any other norm.  Off the z axis the runs
        # go in N's eigenbasis, so their values stay in [0, 1] there too.
        params = LandscapeParams(w=w)
        cfg = OptimizerConfig(direction=direction)
        rows, converged, stalled, _ = descend_runs(
            analysis._haar_starts(7, 60), params, cfg)
        assert converged.all() and not stalled.any()
        target, sgn = (1.0, 1.0) if direction == "maximize" else (0.0, -1.0)
        for r in rows:
            assert len(r) - 1 <= 25
            assert abs(r[-1, 0] - target) <= 1e-6
            assert (sgn * np.diff(r[:, 0]) >= 0).all()
            assert ((0.0 <= r[:, 0]) & (r[:, 0] <= 1.0)).all()


class TestChildStreams:
    """The Haar starts of a campaign: the leading frames of one seeded stream."""

    @pytest.mark.parametrize("seed", [3, 2**64 + 9, 2**100 + 3])
    def test_prefix_of_a_longer_campaign(self, seed):
        stack = analysis._haar_starts(seed, 60)
        for m in (1, 2, 7, 59):
            assert np.array_equal(analysis._haar_starts(seed, m).view(float),
                                  stack[:m].view(float))

    def test_numpy_integer_seed(self):
        for seed in (0, 17, 2**32 + 5):
            expected = analysis._haar_starts(seed, 5).view(float)
            for typed in (np.int64(seed), np.uint64(seed)):
                assert np.array_equal(analysis._haar_starts(typed, 5).view(float), expected)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            analysis._haar_starts(-1, 2)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            multi_start(PARAMS05, 2, -1)

    @pytest.mark.parametrize("draw", [
        lambda: random_kraus_point(-1),
        lambda: stiefel.random_point(8, 2, -1),
        lambda: critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), PARAMS05, -1),
    ], ids=["random_kraus_point", "random_point", "critical_point"])
    def test_every_seeded_draw_has_the_one_seed_message(self, draw):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            draw()

    def test_large_seed_runs(self):
        report = multi_start(PARAMS05, 2, 10**26)
        assert report.seed == 10**26
        assert report.reached_global == 2
        assert report.final_values[1] == rerun_start(
            PARAMS05, 10**26, 1, OptimizerConfig()).final_value

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_rerun_is_the_campaign_run(self, direction):
        # rerun_start(seed, i) redraws i + 1 frames; its run must be run i
        # of the 40-start campaign bitwise, and the campaign's run i must
        # be the rerun's.  The report's aggregates, read from the engine's
        # run-sorted stack, must be those of the 40 reruns.
        cfg = OptimizerConfig(direction=direction)
        rows, converged, stalled, frames = descend_runs(
            analysis._haar_starts(13, 40), PARAMS05, cfg, keep_frames=True)
        report = multi_start(PARAMS05, 40, 13, cfg)
        trajs = [rerun_start(PARAMS05, 13, i, cfg) for i in range(40)]
        for i, traj in enumerate(trajs):
            assert np.array_equal(np.array([(v, g) for _, v, g in traj.iterates]), rows[i])
            assert np.array_equal(np.stack([p.matrix for p, _, _ in traj.iterates]), frames[i])
            assert (traj.terminated == "converged") == converged[i]
            assert traj.stalled == stalled[i]
            assert _bits(report.final_values[i]) == _bits(traj.final_value)
            assert report.iterations[i] == len(traj.iterates) - 1
        values = [t.final_value for t in trajs]
        target = 1.0 if direction == "maximize" else 0.0
        gaps = [abs(target - v) for v in values]
        best = values.index(max(values) if direction == "maximize" else min(values))
        assert report.best_index == best
        assert _bits(report.best_rows) == _bits([(v, g) for _, v, g in trajs[best].iterates])
        assert _bits(report.worst_gap) == _bits(max(gaps))
        assert report.reached_global == sum(g <= 1e-6 for g in gaps)
        assert report.classified_saddle_hits == sum(
            _is_saddle_label(_classify_scalar(t.final_value, t.final_grad_norm, PARAMS05))
            for t in trajs)

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError, match="start index must be non-negative"):
            rerun_start(PARAMS05, 0, -1, OptimizerConfig())


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
        fields = dict(
            starts=2,
            seed=0,
            direction="maximize",
            reached_global=3,
            final_values=(1.0, 1.0),
            worst_gap=0.0,
            classified_saddle_hits=0,
            best_index=0,
        )
        with pytest.raises(ValueError, match=r"reached_global must lie in \[0, starts\]"):
            MultiStartReport(**fields)
        with pytest.raises(ValueError, match="worst_gap must be non-negative"):
            MultiStartReport(**{**fields, "reached_global": 2, "worst_gap": -1.0})

    def test_needs_a_start(self):
        with pytest.raises(ValueError, match="n_starts must be at least 1"):
            multi_start(PARAMS05, n_starts=0, seed=0)

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

    def test_stalled_count_validation(self):
        fields = dict(
            starts=3,
            seed=0,
            direction="maximize",
            reached_global=0,
            final_values=(0.5, 0.5, 0.5),
            worst_gap=0.5,
            classified_saddle_hits=0,
            best_index=0,
            converged=1,
        )
        assert MultiStartReport(**fields, stalled=2).stalled == 2
        for bad in (-1, 3):
            with pytest.raises(ValueError):
                MultiStartReport(**fields, stalled=bad)

    def test_stalled_runs_are_counted(self, monkeypatch):
        # The engine's stalled flags reach the report: every run of a
        # wrong-sign gradient stalls, and none converges.
        cfg = OptimizerConfig()
        assert multi_start(PARAMS05, n_starts=4, seed=2, cfg=cfg).stalled == 0
        monkeypatch.setattr(analysis, "_first_order", _wrong_sign(analysis._first_order))
        report = multi_start(PARAMS05, n_starts=4, seed=2, cfg=cfg)
        assert (report.converged, report.stalled) == (0, 4)
        assert rerun_start(PARAMS05, 2, 0, cfg).stalled

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
        # As |w| -> 0 the two saddle values collapse onto 1/2, and as
        # |w| -> 1 the saddle value lambda_- nears the minimum 0: the
        # classifier must refuse to pick one.
        for norm in (1e-7, 1.0 - 1e-6, 1.0 - 3e-6, 1.0 - 1e-9):
            params = LandscapeParams(w=(0.0, 0.0, norm))
            p = critical_point(
                CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params, seed=3
            )
            assert classify_critical(p, params) == "ambiguous", norm


_SADDLE_TAGS = (ManifoldTag.SADDLE_MINUS, ManifoldTag.SADDLE_PLUS, ManifoldTag.MIXED_SADDLE)


def _classify_scalar(value, gnorm, params):
    """The rule of classify_critical written out for one (J, gradient norm)."""
    if gnorm >= 1e-6:
        return "non-critical"
    candidates = [(0.0, ManifoldTag.GLOBAL_MIN), (1.0, ManifoldTag.GLOBAL_MAX)]
    if params.case == 1:
        candidates.append((0.5, ManifoldTag.MIXED_SADDLE))
    elif params.case == 2:
        candidates.append((params.lambda_minus, ManifoldTag.SADDLE_MINUS))
        candidates.append((params.lambda_plus, ManifoldTag.SADDLE_PLUS))
    best_diff, best_val, best_tag = sorted((abs(value - v), v, t) for v, t in candidates)[0]
    if best_diff > 1e-6:
        return "non-critical"
    if sum(abs(v - best_val) <= 2e-6 for v, _ in candidates) > 1:
        return "ambiguous"
    return CriticalManifoldId(best_tag)


def _is_saddle_label(label):
    return isinstance(label, CriticalManifoldId) and label.tag in _SADDLE_TAGS


class TestClassifyRows:
    @pytest.mark.parametrize("norm", [0.0, 1e-6, 0.5, 1.0])
    def test_matches_the_scalar_rule_run_by_run(self, norm):
        params = LandscapeParams(w=(0.0, 0.0, norm))
        values = [0.25, 0.5, 0.75]
        for c in (0.0, 1.0) + saddle_values(params):
            for o in (0.0, 5e-7, 1e-6, 1.5e-6, 2e-6, 2.5e-6, 1e-3):
                for v in (c - o, c + o):
                    # Each value and its neighbours one ulp away on either side.
                    values += [np.nextafter(v, -1.0), v, np.nextafter(v, 2.0)]
        gnorms = [0.0, 1e-9, np.nextafter(1e-6, 0.0), 1e-6, np.nextafter(1e-6, 1.0), 1e-3]
        v, g = (a.ravel() for a in np.meshgrid(values, gnorms))
        labels = ["non-critical", "ambiguous"] + [
            CriticalManifoldId(t) for t, _, _, _ in _critical_manifolds(params)]
        got = [labels[i] for i in analysis._classify(v, g, params)]
        expected = [_classify_scalar(a, b, params) for a, b in zip(v.tolist(), g.tolist())]
        assert got == expected
        # Saddle hits exist only where the saddle values are told apart.
        assert any(map(_is_saddle_label, expected)) == (norm in (0.0, 0.5))

    @pytest.mark.parametrize("w, tag", [
        ((0.0, 0.0, 0.5), ManifoldTag.SADDLE_MINUS),
        ((0.0, 0.0, 0.5), ManifoldTag.SADDLE_PLUS),
        ((0.0, 0.0, 0.0), ManifoldTag.MIXED_SADDLE),
        ((0.0, 0.0, 1e-6), ManifoldTag.SADDLE_PLUS),
        ((0.0, 0.0, 0.5), ManifoldTag.GLOBAL_MAX),
    ])
    def test_saddle_hits_equal_the_scalar_count(self, w, tag):
        # A run started on a critical manifold stays there; campaigns of
        # Haar starts end at the extremes.
        params = LandscapeParams(w=w)
        p = critical_point(CriticalManifoldId(tag), params, seed=6)
        for cfg in (OptimizerConfig(), OptimizerConfig(direction="minimize")):
            report = multi_start(params, 1, 0, cfg, start=p)
            expected = int(_is_saddle_label(classify_critical(p, params)))
            assert report.classified_saddle_hits == expected
            rows, _, _, _ = descend_runs(analysis._haar_starts(9, 12), params, cfg)
            loop = sum(_is_saddle_label(_classify_scalar(*r[-1].tolist(), params))
                       for r in rows)
            assert multi_start(params, 12, 9, cfg).classified_saddle_hits == loop


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

    def test_post_lift_level_check(self, monkeypatch):
        # The lift keeps the level to rounding, so only a broken lift fails
        # the check: one that returns the start frame stalls at its J.
        p = random_kraus_point(seed=3)
        monkeypatch.setattr(analysis, "_lift", lambda iso, turn, grams: p.matrix)
        with pytest.raises(FlowStallError) as err:
            level_transfer(p, PARAMS05, 0.6)
        assert err.value.value_reached == float(_objective_mat(p.matrix, PARAMS05))

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
        weights = np.stack([_weight(params) for params, _, _ in cases])
        for params, p, _ in cases[::len(targets)]:
            u = p.matrix[:4]
            value = 0.5 * np.trace(u.conj().T @ u @ _weight(params)).real
            assert abs(value - _objective_mat(p.matrix, params)) <= 1e-15
        ref = _oracle_transfer(frames, weights, np.array([mu for _, _, mu in cases]))
        for (params, p, mu), expected in zip(cases, ref):
            q = level_transfer(p, params, mu)
            assert _chord(q.matrix, expected) < 1e-8, (params.w, mu)

    def test_near_mixed_matches_fine_step_oracle(self):
        # As |w| -> 0 the weight N tends to I and both saddle values to 1/2.
        states = [(0.0, 0.0, 1e-5), (6e-10, 0.0, 8e-10)]
        targets = (0.03, 0.4, 0.97)
        cases = [(LandscapeParams(w=w), random_kraus_point(seed=70 + k), mu)
                 for k, w in enumerate(states) for mu in targets]
        frames = np.stack([p.matrix for _, p, _ in cases])
        weights = np.stack([_weight(params) for params, _, _ in cases])
        ref = _oracle_transfer(frames, weights, np.array([mu for _, _, mu in cases]))
        for (params, p, mu), expected in zip(cases, ref):
            q = level_transfer(p, params, mu)
            assert _chord(q.matrix, expected) < 1e-8, (params.w, mu)

    def test_stall_reports_the_last_frame_on_the_manifold(self):
        s = critical_point(CriticalManifoldId(ManifoldTag.SADDLE_MINUS), PARAMS05, seed=5)
        with pytest.raises(FlowStallError) as err:
            level_transfer(s, PARAMS05, 0.6)
        assert err.value.value_reached == objective_uv(s, PARAMS05)
        # u-rows of rank one keep M = U^H U of rank one along the flow, so
        # J cannot pass the saddle value lambda_+ = 0.75, the flow's limit;
        # below it the flow reaches the level.
        p = _rank_one_u_rows(0)
        with pytest.raises(FlowStallError) as err:
            level_transfer(p, PARAMS05, 0.9)
        assert err.value.value_reached == pytest.approx(PARAMS05.lambda_plus, abs=1e-6)
        for mu in (0.05, 0.7, 0.7499):
            q = level_transfer(p, PARAMS05, mu)
            assert abs(objective_uv(q, PARAMS05) - mu) <= 1e-12

    @pytest.mark.parametrize("norm", [0.5, 0.999, 1.0 - 1e-6])
    def test_rank_one_start_on_the_lower_axis(self, norm):
        # u-rows [0, u] keep M on N's lower eigenvector, so J rises at most
        # to lambda_-, which the flow nears only at t ~ 1 / (1 - |w|).  At
        # |w| = 1 - 1e-6 the start's gradient norm is 5e-7, which the
        # stall test, scaled by 2 (1 - |w|) there, lets through.
        params = LandscapeParams(w=(0.0, 0.0, norm))
        p = _rank_one_u_rows(1)
        mu = 0.5 * (objective_uv(p, params) + params.lambda_minus)
        q = level_transfer(p, params, mu)
        assert abs(objective_uv(q, params) - mu) <= 1e-12
        with pytest.raises(FlowStallError) as err:
            level_transfer(p, params, 0.9)
        assert err.value.value_reached == pytest.approx(params.lambda_minus, abs=1e-12)

    @pytest.mark.parametrize("w", [
        (0.0, 0.0, 0.5), (0.0, 0.0, 0.9), (0.0, 0.0, 0.999), (0.0, 0.0, 1.0 - 1e-6),
        (0.0, 0.0, 1.0 - 1e-9), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)])
    def test_critical_starts_stall_near_the_pure_states(self, w):
        # The scaled stall test still refuses every critical start, at
        # least 1e-12 even on a pure state, far above their gradients.
        params = LandscapeParams(w=w)
        for tag, _, _, _ in _critical_manifolds(params):
            for seed in range(10):
                p = critical_point(CriticalManifoldId(tag), params, seed=seed)
                for mu in (0.3, 0.6):
                    with pytest.raises(FlowStallError):
                        level_transfer(p, params, mu)

    @pytest.mark.parametrize("tag", [ManifoldTag.SADDLE_MINUS, ManifoldTag.SADDLE_PLUS])
    def test_leaves_a_saddle_neighbourhood(self, tag):
        # At 1e-5 off a saddle the flow lingers for t ~ 25 before J moves.
        for eps in (1e-3, 1e-5):
            p = _off_saddle(tag, eps)
            for mu in (0.1, 0.6, 0.9):
                q = level_transfer(p, PARAMS05, mu)
                assert abs(objective_uv(q, PARAMS05) - mu) < 1e-10

    @pytest.mark.parametrize("tag", [ManifoldTag.SADDLE_MINUS, ManifoldTag.SADDLE_PLUS])
    def test_stalls_next_to_a_saddle(self, tag):
        p = _off_saddle(tag, 1e-7)
        saddle = (PARAMS05.lambda_minus if tag == ManifoldTag.SADDLE_MINUS
                  else PARAMS05.lambda_plus)
        for mu in (0.1, 0.6, 0.9):
            with pytest.raises(FlowStallError) as err:
                level_transfer(p, PARAMS05, mu)
            assert err.value.value_reached == pytest.approx(saddle, abs=1e-6)


# Norms of w across the Bloch ball, with the two limits and their neighbours.
_BALL_NORMS = [0.0, 1e-13, 1e-9, 1.0 - 2e-12, 1.0]


def _ball_cases(norm):
    """(params, start) pairs at |w| = norm along the z axis and a generic axis."""
    for axis in ((0.0, 0.0, 1.0), (0.48, -0.6, 0.64)):
        params = LandscapeParams(w=tuple(norm * c for c in axis))
        for seed in (81, 82):
            yield params, random_kraus_point(seed=seed)


def _polar(block):
    u, _, vh = np.linalg.svd(block, full_matrices=False)
    return u @ vh


class TestLevelTransferAcrossTheBall:
    @pytest.mark.parametrize("norm", _BALL_NORMS)
    def test_reaches_the_level(self, norm):
        for params, p in _ball_cases(norm):
            for mu in (0.03, 0.4, 0.97):
                q = level_transfer(p, params, mu)
                assert abs(objective_uv(q, params) - mu) <= 1e-12, (params.w, mu)

    @pytest.mark.parametrize("norm", _BALL_NORMS)
    def test_round_trip_returns_to_the_start(self, norm):
        # The way back runs the same Riccati path and lifts with the same
        # isometries, so it ends at p itself.
        for params, p in _ball_cases(norm):
            j0 = objective_uv(p, params)
            for mu in (0.03, 0.4, 0.97):
                back = level_transfer(level_transfer(p, params, mu), params, j0)
                assert _chord(back.matrix, p.matrix) <= 1e-12, (params.w, mu)

    @pytest.mark.parametrize("norm", _BALL_NORMS)
    def test_endpoint_keeps_the_polar_isometries(self, norm):
        for params, p in _ball_cases(norm):
            for mu in (0.03, 0.4, 0.97):
                q = level_transfer(p, params, mu)
                for rows in (slice(0, 4), slice(4, 8)):
                    gap = np.abs(_polar(q.matrix[rows]) - _polar(p.matrix[rows])).max()
                    assert gap <= 1e-12, (params.w, mu)


class TestLevelsetConnect:
    def test_coincident_endpoints(self):
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        path = levelset_connect(a, a, PARAMS05, 0.4)
        assert path.status == "connected"
        assert len(path.waypoints) == 1
        assert path.max_step_length == 0.0

    def test_level_and_coincident_endpoints_are_checked(self):
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        with pytest.raises(ValueError, match=r"level must lie in \[0, 1\]"):
            levelset_connect(a, a, PARAMS05, 1.5)
        dev = abs(objective_uv(a, PARAMS05) - 0.5)
        with pytest.raises(ValueError) as err:
            levelset_connect(a, a, PARAMS05, 0.5)
        assert str(err.value) == f"endpoint a is off the level by {dev:.3e}"

    def test_off_level_nodes_fail(self, monkeypatch):
        # Nodes on the straight chord between two frames leave the level:
        # the refined path fails its level check and keeps its endpoints.
        monkeypatch.setattr(analysis, "_gram_witness", lambda wa, wb: (
            lambda s: (1.0 - s)[:, None, None] * wa + s[:, None, None] * wb))
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        b = level_transfer(random_kraus_point(seed=32), PARAMS05, 0.4)
        path = levelset_connect(a, b, PARAMS05, 0.4)
        assert path.status == "failed"
        assert path.detail == "refinement finished above the step or level tolerance"
        assert path.waypoints == (a, b)
        assert path.max_value_deviation > 1e-6 and path.max_step_length <= 0.05

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
        # No guard refuses a level at or next to a saddle value: the
        # lambda_- saddle 0.25 of |w| = 0.5, the mixed saddle 1/2 of w = 0
        # and the two saddles within 1e-5 of 1/2 at |w| = 1e-5.
        for w, mu in (((0.0, 0.0, 0.5), 0.2504), ((0.0, 0.0, 0.5), 0.25),
                      ((0.0, 0.0, 0.0), 0.5), ((0.0, 0.0, 1e-5), 0.5)):
            params = LandscapeParams(w=w)
            a = level_transfer(random_kraus_point(seed=31), params, mu)
            b = level_transfer(random_kraus_point(seed=32), params, mu)
            path = levelset_connect(a, b, params, mu)
            assert path.status == "connected", (w, mu, path.detail)
            for p in path.waypoints:
                assert abs(objective_uv(p, params) - mu) <= 1e-10

    @pytest.mark.parametrize("w, tag", [
        ((0.0, 0.0, 0.5), ManifoldTag.SADDLE_MINUS),
        ((0.0, 0.0, 0.5), ManifoldTag.SADDLE_PLUS),
        ((0.3, -0.4, 0.2), ManifoldTag.SADDLE_MINUS),
        ((0.3, -0.4, 0.2), ManifoldTag.SADDLE_PLUS),
        ((0.0, 0.0, 0.0), ManifoldTag.MIXED_SADDLE),
    ])
    def test_critical_manifolds_connect(self, w, tag):
        # Both endpoints have a singular Gram matrix M, where M^(1/2) is
        # least regular along the path.
        params = LandscapeParams(w=w)
        for seed in (0, 2, 4):
            a = critical_point(CriticalManifoldId(tag), params, seed=seed)
            b = critical_point(CriticalManifoldId(tag), params, seed=seed + 1)
            mu = objective_uv(a, params)
            path = levelset_connect(a, b, params, mu)
            assert path.status == "connected", (seed, path.detail)
            for p in path.waypoints:
                assert abs(objective_uv(p, params) - mu) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-11, 1e-9, 0.5, 2.5, math.pi - 1e-9, math.pi])
    def test_right_unitary_turns(self, eps):
        # b = a R with R commuting with N stays on the level, and the
        # witness turns the right factor by R: eigenphases nearly equal, or
        # both next to the branch cut at pi.  Eigenvectors from eig that are
        # not orthonormalised leave nodes 1.8e-7 off the manifold at
        # R = diag(exp(-i (pi - 1e-9)), exp(i (pi - 1e-9))).
        a = level_transfer(random_kraus_point(seed=31), PARAMS05, 0.4)
        for r in (np.diag([1.0, np.exp(1j * eps)]), np.exp(1j * eps) * np.eye(2),
                  np.diag([np.exp(-1j * eps), np.exp(1j * eps)])):
            b = KrausPoint.from_matrix(a.matrix @ r)
            path = levelset_connect(a, b, PARAMS05, 0.4)
            assert path.status == "connected", (r, path.detail)
            frames = np.stack([p.matrix for p in path.waypoints])
            gram = frames.conj().swapaxes(-1, -2) @ frames
            assert np.abs(gram - np.eye(2)).max() <= 1e-14, r

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
        good = dict(mu=0.4, waypoints=(random_kraus_point(seed=31),),
                    max_value_deviation=0.0, max_step_length=0.01, status="connected")
        assert LevelSetPath(**good).status == "connected"
        for bad in (
            dict(max_value_deviation=math.nan), dict(max_step_length=math.nan),
            dict(max_value_deviation=-1e-9), dict(max_step_length=-0.01),
            dict(waypoints=()), dict(mu=math.nan), dict(mu=2.0),
            dict(status="failed", max_step_length=-1.0), dict(status="failed", mu=-0.1),
            dict(status="open"),
        ):
            with pytest.raises(ValueError):
                LevelSetPath(**{**good, **bad})
