"""Acceptance gate: one test per contract criterion, at stated tolerance.

Each test prints a `criterion NN (label): PASS/FAIL (elapsed)` line; the
stated runtime budgets are reported, not asserted, so a slow machine
cannot flip a correctness gate.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from krauscape.analysis import (
    OptimizerConfig,
    level_transfer,
    levelset_connect,
    multi_start,
)
from krauscape.landscape import (
    CriticalManifoldId,
    IllegalManifoldError,
    LandscapeParams,
    ManifoldTag,
    critical_point,
    duality_map,
    euclidean_gradient,
    hessian_form,
    morse_signature,
    objective_diag,
    objective_uv,
    riemannian_gradient,
    to_diag,
)
from krauscape.qcore import (
    THETA0,
    BlochVector,
    KrausSet,
    bloch_to_density,
    dilate,
    objective_trace,
    verify_dilation,
)
from krauscape.stiefel import (
    _haar_frames,
    _project_mat,
    _qf,
    point_to_kraus,
    random_kraus_point,
    real_inner,
)

CRIT1_W = (
    BlochVector(0.0, 0.0, 0.0),
    BlochVector(0.0, 0.0, 0.5),
    BlochVector(0.3, -0.4, 0.2),
    BlochVector(0.0, 0.0, 1.0),
    BlochVector(0.6, 0.0, 0.8),
)
PURE_W = (BlochVector(0.0, 0.0, 1.0), BlochVector(0.6, 0.0, 0.8))
HALF_W = (BlochVector(0.0, 0.0, 0.5), BlochVector(0.3, -0.4, 0.0))


@contextmanager
def criterion(number, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"criterion {number:02d} ({label}): PASS "
          f"({time.perf_counter() - t0:.2f}s)")


def seeded_w(rng, allow_boundary=True):
    vec = rng.standard_normal(3)
    vec /= np.linalg.norm(vec)
    r = rng.uniform(0.0, 1.0 if allow_boundary else 0.999)
    return BlochVector(*(r * vec))


def random_kraus_set(m, rng):
    frame = _haar_frames(rng, 1, rows=2 * m)[0]
    ops = tuple(
        np.array(
            [[frame[a, 0], frame[a, 1]], [frame[m + a, 0], frame[m + a, 1]]]
        )
        for a in range(m)
    )
    return KrausSet(ops)


def test_criterion_01_critical_values():
    with criterion(1, "extremal values"):
        for w in CRIT1_W:
            params = LandscapeParams(w=w)
            for tag, target in (
                (ManifoldTag.GLOBAL_MIN, 0.0),
                (ManifoldTag.GLOBAL_MAX, 1.0),
            ):
                for seed in range(3):
                    p = critical_point(CriticalManifoldId(tag), params, seed=seed)
                    assert abs(objective_uv(p, params) - target) < 1e-10


def test_criterion_02_saddle_values():
    with criterion(2, "saddle values"):
        for w in HALF_W:
            params = LandscapeParams(w=w)
            assert abs(params.norm_w - 0.5) < 1e-15
            for tag, target in (
                (ManifoldTag.SADDLE_MINUS, 0.25),
                (ManifoldTag.SADDLE_PLUS, 0.75),
            ):
                for seed in range(3):
                    p = critical_point(CriticalManifoldId(tag), params, seed=seed)
                    assert abs(objective_uv(p, params) - target) < 1e-10
        params0 = LandscapeParams(w=BlochVector(0.0, 0.0, 0.0))
        rng = np.random.default_rng(202)
        charts = [None] + [
            complex(*rng.standard_normal(2)) for _ in range(9)
        ]
        for z in charts:
            mid = CriticalManifoldId(ManifoldTag.MIXED_SADDLE, z=z)
            for seed in range(2):
                p = critical_point(mid, params0, seed=seed)
                assert abs(objective_uv(p, params0) - 0.5) < 1e-10


def test_criterion_03_morse_signatures():
    with criterion(3, "Morse signatures"):
        saddle_w = (BlochVector(0.0, 0.0, 0.5), BlochVector(0.3, -0.4, 0.2))
        cases = [
            (ManifoldTag.SADDLE_MINUS, w, (8, 6, 14)) for w in saddle_w
        ] + [
            (ManifoldTag.SADDLE_PLUS, w, (6, 8, 14)) for w in saddle_w
        ] + [
            (ManifoldTag.MIXED_SADDLE, BlochVector(0.0, 0.0, 0.0), (6, 6, 16))
        ]
        for tag, w, expected in cases:
            params = LandscapeParams(w=w)
            for seed in range(5):
                p = critical_point(CriticalManifoldId(tag), params, seed=seed)
                sig = morse_signature(hessian_form(p, params), zero_tol=1e-5)
                assert (sig.nu_plus, sig.nu_minus, sig.nu_zero) == expected


def test_criterion_04_no_false_traps():
    with criterion(4, "no false traps"):
        for w in CRIT1_W:
            params = LandscapeParams(w=w)
            for direction in ("maximize", "minimize"):
                cfg = OptimizerConfig(direction=direction)
                report = multi_start(params, n_starts=200, seed=404, cfg=cfg)
                assert report.reached_global == 200, (
                    f"direction={direction} w={tuple(w)} "
                    f"worst_gap={report.worst_gap:.3e}"
                )
                assert report.worst_gap < 1e-6


def test_criterion_05_pure_state_no_saddles():
    with criterion(5, "pure-state landscape"):
        finals = []
        for w in PURE_W:
            params = LandscapeParams(w=w)
            for direction in ("maximize", "minimize"):
                cfg = OptimizerConfig(direction=direction)
                report = multi_start(params, n_starts=25, seed=505, cfg=cfg)
                finals.extend(report.final_values)
        assert len(finals) == 100
        for value in finals:
            assert min(abs(value), abs(value - 1.0)) < 1e-6
        params = LandscapeParams(w=PURE_W[0])
        for tag in (
            ManifoldTag.SADDLE_MINUS,
            ManifoldTag.SADDLE_PLUS,
            ManifoldTag.MIXED_SADDLE,
        ):
            with pytest.raises(IllegalManifoldError):
                critical_point(CriticalManifoldId(tag), params, seed=1)


def test_criterion_06_cross_form_consistency():
    with criterion(6, "cross-form consistency"):
        points = [random_kraus_point(seed=s) for s in range(200)]
        kraus_sets = [point_to_kraus(p) for p in points]
        rng = np.random.default_rng(606)
        ws = [
            BlochVector(0.0, 0.0, 0.0),
            BlochVector(0.0, 0.0, 0.5),
            BlochVector(0.0, 0.0, -0.7),
            BlochVector(0.0, 0.0, 1.0),
        ] + [seeded_w(rng) for _ in range(16)]
        assert len(ws) == 20
        for w in ws:
            params = LandscapeParams(w=w)
            rho = bloch_to_density(w)
            for p, k in zip(points, kraus_sets):
                j_uv = objective_uv(p, params)
                assert abs(j_uv - objective_trace(k, rho, THETA0)) < 1e-12
                assert abs(j_uv - objective_diag(to_diag(p, params), params)) < 1e-12


def test_criterion_07_gradient_correctness():
    with criterion(7, "gradient correctness"):
        rng_w = np.random.default_rng(707)
        rng_dir = np.random.default_rng(708)
        h = 1e-6
        for seed in range(50):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            w0 = p.matrix

            def j_at(mat):
                total = 0.5 * (
                    (1 + params.gamma) * np.vdot(mat[0:4, 0], mat[0:4, 0]).real
                    + (1 - params.gamma) * np.vdot(mat[0:4, 1], mat[0:4, 1]).real
                )
                cross = np.sum(mat[0:4, 0] * np.conj(mat[0:4, 1]))
                return total + (params.z0 * cross).real

            g1, g2, g3, g4 = euclidean_gradient(p, params)
            analytic = np.zeros((8, 2), dtype=complex)
            analytic[0:4, 0], analytic[0:4, 1] = g1, g2
            analytic[4:8, 0], analytic[4:8, 1] = g3, g4
            num = np.zeros((8, 2), dtype=complex)
            for r in range(8):
                for c in range(2):
                    for part, mult in ((1.0, 1.0), (1j, 1j)):
                        bump = np.zeros((8, 2), dtype=complex)
                        bump[r, c] = part * h
                        deriv = (j_at(w0 + bump) - j_at(w0 - bump)) / (2 * h)
                        num[r, c] += 0.5 * deriv * mult
            rel = np.linalg.norm(num - analytic) / np.linalg.norm(analytic)
            assert rel < 1e-6

            grad = riemannian_gradient(p, params).delta
            for _ in range(2):
                raw = rng_dir.standard_normal((8, 2)) + 1j * rng_dir.standard_normal(
                    (8, 2)
                )
                xi = _project_mat(w0, raw)
                xi /= np.linalg.norm(xi)
                fd = (j_at(_qf(w0 + h * xi)) - j_at(_qf(w0 - h * xi))) / (2 * h)
                inner = real_inner(grad.reshape(-1), xi.reshape(-1))
                assert abs(fd - inner) / max(abs(inner), 1e-3) < 1e-6


def test_criterion_08_duality():
    with criterion(8, "duality"):
        rng_w = np.random.default_rng(808)
        for seed in range(200):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            total = objective_uv(p, params) + objective_uv(duality_map(p), params)
            assert abs(total - 1.0) < 1e-12
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        a = level_transfer(random_kraus_point(seed=811), params, 0.4)
        b = level_transfer(random_kraus_point(seed=812), params, 0.4)
        path = levelset_connect(a, b, params, 0.4)
        assert path.status == "connected"
        mapped = [duality_map(q) for q in path.waypoints]
        for q in mapped:
            assert abs(objective_uv(q, params) - 0.6) < 1e-6
        for i in range(len(mapped) - 1):
            step = np.linalg.norm(mapped[i + 1].matrix - mapped[i].matrix)
            assert step < 0.05


def test_criterion_09_dilation():
    with criterion(9, "dilation"):
        rng = np.random.default_rng(909)
        probes = [
            BlochVector(0.0, 0.0, 1.0),
            BlochVector(1.0, 0.0, 0.0),
            BlochVector(0.3, -0.2, 0.4),
        ]
        for index in range(100):
            m = 1 + index % 4
            k = random_kraus_set(m, rng)
            u = dilate(k)
            residual = max(
                verify_dilation(u, k, bloch_to_density(w)) for w in probes
            )
            assert residual < 1e-12
            gram = u.entries.conj().T @ u.entries
            assert np.max(np.abs(gram - np.eye(u.dim))) < 1e-10


def test_criterion_10_levelset_connectivity():
    with criterion(10, "level-set connectivity"):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        for mu in (0.1, 0.4, 0.5, 0.6, 0.9):
            for pair in range(10):
                sa, sb = 1000 + 2 * pair, 1001 + 2 * pair
                a = level_transfer(random_kraus_point(seed=sa), params, mu)
                b = level_transfer(random_kraus_point(seed=sb), params, mu)
                path = levelset_connect(a, b, params, mu)
                assert path.status == "connected", (mu, pair, path.detail)
                assert path.max_value_deviation < 1e-6
                assert path.max_step_length < 0.05
        top = CriticalManifoldId(ManifoldTag.GLOBAL_MAX)
        for pair in range(10):
            a = critical_point(top, params, seed=2000 + 2 * pair)
            b = critical_point(top, params, seed=2001 + 2 * pair)
            path = levelset_connect(a, b, params, 1.0)
            assert path.status == "connected", (1.0, pair, path.detail)
            assert path.max_value_deviation < 1e-6
            assert path.max_step_length < 0.05


def test_criterion_11_level_transfer_exactness():
    with criterion(11, "level-transfer exactness"):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        for seed in range(20):
            p = random_kraus_point(seed=3000 + seed)
            j0 = objective_uv(p, params)
            assert 0.05 < j0 < 0.95
            target = j0 + 0.1 if j0 < 0.5 else j0 - 0.1
            q = level_transfer(p, params, target)
            back = level_transfer(q, params, j0)
            assert abs(objective_uv(back, params) - j0) < 1e-8
