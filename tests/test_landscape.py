"""Objective forms, coordinate change, critical structure, Morse data."""

import numpy as np
import pytest

import krauscape.landscape as landscape
from krauscape.landscape import (
    _critical_manifolds,
    _first_order,
    _first_order_mat,
    _gram,
    _gram_value,
    _hess_vec,
    _normals,
    _objective_mat,
    _quotient_value,
    _weight_factor,
    CriticalManifoldId,
    CriticalPointCertificate,
    DiagCoords,
    IllegalManifoldError,
    LandscapeParams,
    ManifoldTag,
    MorseSignature,
    coord_change,
    critical_point,
    duality_map,
    euclidean_gradient,
    hessian_form,
    lagrange_certificate,
    morse_signature,
    objective_diag,
    objective_uv,
    predicted_morse,
    predicted_value,
    riemannian_gradient,
    saddle_values,
    to_diag,
)
from krauscape.qcore import THETA0, BlochVector, bloch_to_density, objective_trace
from krauscape.stiefel import (
    StiefelPoint,
    TangentVector,
    _project_mat,
    _qf,
    constraint_residuals,
    orthonormal_tangent_basis,
    point_to_kraus,
    random_kraus_point,
)

E1 = np.array([1, 0, 0, 0], dtype=complex)
E2 = np.array([0, 1, 0, 0], dtype=complex)
ZERO4 = np.zeros(4, dtype=complex)


def seeded_w(rng, allow_boundary=True):
    vec = rng.standard_normal(3)
    vec /= np.linalg.norm(vec)
    r = rng.uniform(0.0, 1.0 if allow_boundary else 0.999)
    return BlochVector(*(r * vec))


SADDLE_TAGS = (ManifoldTag.SADDLE_MINUS, ManifoldTag.SADDLE_PLUS)
ALL_W = (
    BlochVector(0.0, 0.0, 0.0),
    BlochVector(0.0, 0.0, 0.5),
    BlochVector(0.3, -0.4, 0.2),
    BlochVector(0.0, 0.0, 1.0),
    BlochVector(0.6, 0.0, 0.8),
)


def _ball_states():
    """States over the whole ball and on both sides of the z0 = 0 branch."""
    axes = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (1, 1, 1), (-0.3, 0.8, -0.5)]
    norms = (0.0, 1e-15, 1e-13, 1e-9, 0.5, 1 - 1e-9, 1.0)
    states = [tuple(r * np.asarray(a) / np.linalg.norm(a)) for a in axes for r in norms]
    # |z0| just under and just over the 1e-14 branch threshold.
    states += [(x, 0.0, g) for x in (0.99e-14, 1.01e-14)
               for g in (0.5, -0.5, 1e-13, -1e-13)]
    return states


BALL_STATES = _ball_states()


def assert_eigenbasis(params):
    """B of coord_change is unitary and B^H N B = diag(1 + |w|, 1 - |w|)."""
    b = coord_change(params)
    z0, g = params.z0, params.gamma
    n = np.array([[1 + g, z0], [np.conj(z0), 1 - g]])
    r = params.norm_w
    assert np.max(np.abs(b.conj().T @ b - np.eye(2))) <= 1e-14
    assert np.max(np.abs(b.conj().T @ n @ b - np.diag([1 + r, 1 - r]))) <= 1e-12


def legal_manifolds(params):
    ids = [
        CriticalManifoldId(ManifoldTag.GLOBAL_MIN),
        CriticalManifoldId(ManifoldTag.GLOBAL_MAX),
    ]
    if params.case == 1:
        ids += [
            CriticalManifoldId(ManifoldTag.MIXED_SADDLE),
            CriticalManifoldId(ManifoldTag.MIXED_SADDLE, z=0.7 - 1.2j),
        ]
    elif params.case == 2:
        ids += [
            CriticalManifoldId(ManifoldTag.SADDLE_MINUS),
            CriticalManifoldId(ManifoldTag.SADDLE_PLUS),
        ]
    return ids


class TestParams:
    def test_cached_fields(self):
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        assert params.norm_w == pytest.approx(np.sqrt(0.29))
        assert params.z0 == pytest.approx(0.3 + 0.4j)
        assert params.lambda_plus + params.lambda_minus == pytest.approx(1.0)

    def test_z0_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = LandscapeParams(w=seeded_w(rng))
            lhs = abs(params.z0) ** 2
            rhs = params.norm_w**2 - params.gamma**2
            assert abs(lhs - rhs) < 1e-12

    def test_cases(self):
        assert LandscapeParams(w=BlochVector(0, 0, 0)).case == 1
        assert LandscapeParams(w=BlochVector(0, 0, 0.5)).case == 2
        assert LandscapeParams(w=BlochVector(0, 0, 1)).case == 3

    def test_tuple_accepted(self):
        params = LandscapeParams(w=(0.0, 0.0, 0.5))
        assert params.w == BlochVector(0.0, 0.0, 0.5)


class TestObjectiveUV:
    def test_first_block_only(self):
        p_kwargs = dict(u1=E1, v2=E1, u2=ZERO4, v1=ZERO4)
        for gamma in (-0.5, 0.0, 0.7):
            params = LandscapeParams(w=BlochVector(0.0, 0.0, gamma))
            from krauscape.stiefel import KrausPoint

            val = objective_uv(KrausPoint(**p_kwargs), params)
            assert val == pytest.approx((1 + gamma) / 2, abs=1e-15)

    def test_second_block_only(self):
        from krauscape.stiefel import KrausPoint

        p = KrausPoint(u1=ZERO4, u2=E1, v1=E1, v2=ZERO4)
        for gamma in (-0.5, 0.0, 0.7):
            params = LandscapeParams(w=BlochVector(0.0, 0.0, gamma))
            assert objective_uv(p, params) == pytest.approx((1 - gamma) / 2, abs=1e-15)

    def test_colinear_max_point(self):
        # Feasible completion with v2 = -v1 sits on the top level: the
        # cross term contributes fully and the hand evaluation gives 1.
        from krauscape.stiefel import KrausPoint

        s = 1.0 / np.sqrt(2.0)
        p = KrausPoint(u1=s * E1, u2=s * E1, v1=s * E2, v2=-s * E2)
        params = LandscapeParams(w=BlochVector(1.0, 0.0, 0.0))
        val = objective_uv(p, params)
        assert val == pytest.approx(1.0, abs=1e-15)
        trace_val = objective_trace(
            point_to_kraus(p), bloch_to_density(params.w), THETA0
        )
        assert val == pytest.approx(trace_val, abs=1e-14)

    def test_range(self):
        rng_w = np.random.default_rng(1)
        for seed in range(50):
            p = random_kraus_point(seed=seed)
            params = LandscapeParams(w=seeded_w(rng_w))
            assert -1e-12 <= objective_uv(p, params) <= 1.0 + 1e-12

    def test_stack_rows_equal_single_frames(self):
        # Large stacks run numpy's vectorised loops and single frames its
        # scalar ones; a frame's value must not depend on which (z0 != 0).
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4096, 8, 2)) + 1j * rng.standard_normal((4096, 8, 2))
        stack = _objective_mat(w, params)
        alone = np.array([_objective_mat(frame, params) for frame in w])
        assert np.array_equal(stack, alone)


class TestCoordChange:
    def test_z0_zero_nonneg_is_identity(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p = random_kraus_point(seed=3)
        d = to_diag(p, params)
        assert np.array_equal(d.ut1, p.u1) and np.array_equal(d.vt2, p.v2)
        assert np.array_equal(d.ut2, p.u2) and np.array_equal(d.vt1, p.v1)

    def test_z0_zero_neg_swaps(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, -0.5))
        p = random_kraus_point(seed=4)
        d = to_diag(p, params)
        assert np.array_equal(d.ut1, p.u2) and np.array_equal(d.ut2, p.u1)
        assert np.array_equal(d.vt1, p.v2) and np.array_equal(d.vt2, p.v1)

    def test_equatorial_coefficients(self):
        params = LandscapeParams(w=BlochVector(0.6, 0.0, 0.0))
        b = coord_change(params)
        expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2)
        assert np.max(np.abs(b - expected)) <= 1e-15
        assert not b.flags.writeable

    def test_unit_coefficients(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            params = LandscapeParams(w=seeded_w(rng))
            assert_eigenbasis(params)

    @pytest.mark.parametrize("w", BALL_STATES)
    def test_eigenbasis_over_the_ball(self, w):
        assert_eigenbasis(LandscapeParams(w=BlochVector(*w)))

    def test_diag_equals_uv(self):
        rng_w = np.random.default_rng(5)
        for seed in range(40):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            d = to_diag(p, params)
            assert abs(objective_diag(d, params) - objective_uv(p, params)) < 1e-12

    def test_constraints_preserved(self):
        rng_w = np.random.default_rng(6)
        for seed in range(40):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            d = to_diag(p, params)
            phi1, phi2, phi3 = constraint_residuals(d.ut1, d.ut2, d.vt1, d.vt2)
            assert max(abs(phi1), abs(phi2), abs(phi3)) < 1e-12

    def test_round_trip(self):
        rng_w = np.random.default_rng(7)
        for seed in range(40):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            d = to_diag(p, params)
            blocks = np.stack([np.r_[d.ut1, d.vt1], np.r_[d.ut2, d.vt2]], axis=1)
            back = blocks @ coord_change(params).conj().T
            assert np.max(np.abs(back - p.matrix)) < 1e-12

    def test_cross_form_trace(self):
        rng_w = np.random.default_rng(8)
        for seed in range(40):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            trace_val = objective_trace(
                point_to_kraus(p), bloch_to_density(params.w), THETA0
            )
            assert abs(objective_uv(p, params) - trace_val) < 1e-12


class TestObjectiveDiag:
    def test_upper_block(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        d = DiagCoords(ut1=E1, ut2=ZERO4, vt1=ZERO4, vt2=E1)
        assert objective_diag(d, params) == pytest.approx(params.lambda_plus)

    def test_zero_blocks(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        d = DiagCoords(ut1=ZERO4, ut2=ZERO4, vt1=E1, vt2=E2)
        assert objective_diag(d, params) == pytest.approx(0.0, abs=1e-15)

    def test_both_unit(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        d = DiagCoords(ut1=E1, ut2=E2, vt1=ZERO4, vt2=ZERO4)
        assert objective_diag(d, params) == pytest.approx(1.0)

    def test_validation(self):
        d = DiagCoords(ut1=[1, 0, 0, 0], ut2=E2, vt1=ZERO4, vt2=ZERO4)
        assert d.ut1.dtype == complex and not d.ut1.flags.writeable
        with pytest.raises(ValueError, match="infeasible diagonal coordinates"):
            DiagCoords(ut1=E1, ut2=E1, vt1=ZERO4, vt2=ZERO4)
        with pytest.raises(ValueError, match="vt2 must be a length-4"):
            DiagCoords(ut1=E1, ut2=E2, vt1=ZERO4, vt2=np.zeros(3))
        with pytest.raises(ValueError, match="ut2 contains non-finite"):
            DiagCoords(ut1=E1, ut2=np.array([np.nan, 0, 0, 0]), vt1=ZERO4, vt2=ZERO4)


class TestGradients:
    def test_zero_u1_zero_z0(self):
        from krauscape.stiefel import KrausPoint

        params = LandscapeParams(w=BlochVector(0.0, 0.0, 1.0))
        p = KrausPoint(u1=ZERO4, u2=E1, v1=E1, v2=ZERO4)
        g1, g2, g3, g4 = euclidean_gradient(p, params)
        assert np.max(np.abs(g1)) == 0.0
        assert np.max(np.abs(g3)) == 0.0 and np.max(np.abs(g4)) == 0.0

    def test_mixed_state_blocks(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.0))
        p = random_kraus_point(seed=9)
        g1, g2, _, _ = euclidean_gradient(p, params)
        assert np.max(np.abs(g1 - 0.5 * p.u1)) < 1e-15
        assert np.max(np.abs(g2 - 0.5 * p.u2)) < 1e-15

    def test_finite_difference_match(self):
        rng_w = np.random.default_rng(10)
        h = 1e-6
        for seed in range(10):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            g1, g2, _, _ = euclidean_gradient(p, params)
            w0 = p.matrix

            def j_at(mat):
                total = 0.5 * (
                    (1 + params.gamma) * np.vdot(mat[0:4, 0], mat[0:4, 0]).real
                    + (1 - params.gamma) * np.vdot(mat[0:4, 1], mat[0:4, 1]).real
                )
                cross = np.sum(mat[0:4, 0] * np.conj(mat[0:4, 1]))
                return total + (params.z0 * cross).real

            # Conjugate Wirtinger block: dJ/du* = (dJ/dx + i dJ/dy) / 2.
            num = np.zeros((8, 2), dtype=complex)
            for r in range(8):
                for c in range(2):
                    for part, mult in ((1.0, 1.0), (1j, 1j)):
                        bump = np.zeros((8, 2), dtype=complex)
                        bump[r, c] = part * h
                        deriv = (j_at(w0 + bump) - j_at(w0 - bump)) / (2 * h)
                        num[r, c] += 0.5 * deriv * mult
            analytic = np.zeros((8, 2), dtype=complex)
            analytic[0:4, 0] = g1
            analytic[0:4, 1] = g2
            rel = np.linalg.norm(num - analytic) / max(np.linalg.norm(analytic), 1e-30)
            assert rel < 1e-6

    def test_riemannian_vanishes_on_criticals(self):
        for w in ALL_W:
            params = LandscapeParams(w=w)
            for mid in legal_manifolds(params):
                p = critical_point(mid, params, seed=11)
                assert riemannian_gradient(p, params).norm() < 1e-10

    def test_riemannian_nonzero_generic(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p = random_kraus_point(seed=12)
        assert riemannian_gradient(p, params).norm() > 1e-3


class TestCriticalStructure:
    def test_values(self):
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), params, seed=7)
        assert objective_uv(p, params) == pytest.approx(1.0, abs=1e-12)

        params2 = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p2 = critical_point(
            CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params2, seed=7
        )
        assert objective_uv(p2, params2) == pytest.approx(0.25, abs=1e-12)

        params3 = LandscapeParams(w=BlochVector(0.0, 0.0, 0.0))
        p3 = critical_point(
            CriticalManifoldId(ManifoldTag.MIXED_SADDLE, z=1 + 1j), params3, seed=7
        )
        assert objective_uv(p3, params3) == pytest.approx(0.5, abs=1e-12)

    def test_predicted_values(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        assert predicted_value(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), params) == 0.0
        assert predicted_value(
            CriticalManifoldId(ManifoldTag.SADDLE_PLUS), params
        ) == pytest.approx(0.75)
        params0 = LandscapeParams(w=BlochVector(0.0, 0.0, 0.0))
        assert predicted_value(
            CriticalManifoldId(ManifoldTag.MIXED_SADDLE), params0
        ) == pytest.approx(0.5)

    def test_saddle_values_by_case(self):
        assert saddle_values(LandscapeParams(w=(0, 0, 0))) == (0.5,)
        assert saddle_values(LandscapeParams(w=(0, 0, 0.5))) == (0.25, 0.75)
        assert saddle_values(LandscapeParams(w=(0, 0, 1))) == ()

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.3, -0.4, 0.2)])
    @pytest.mark.parametrize(
        "norm", [0.0, 0.99e-14, 1.01e-14, 1e-9, 0.5, 1 - 1.01e-12, 1 - 0.99e-12, 1.0])
    def test_table_across_the_case_boundaries(self, axis, norm):
        # On both sides of the mixed and pure thresholds, a critical point
        # exists exactly where its value is predicted and takes that value,
        # and the saddle values are the predicted values of the saddles.
        w = norm * np.asarray(axis) / np.linalg.norm(axis)
        params = LandscapeParams(w=BlochVector(*w))
        saddles = []
        for tag in ManifoldTag:
            mid = CriticalManifoldId(tag)
            try:
                value = predicted_value(mid, params)
            except IllegalManifoldError:
                with pytest.raises(IllegalManifoldError):
                    critical_point(mid, params, seed=0)
                continue
            for seed in range(3):
                p = critical_point(mid, params, seed=seed)
                assert abs(objective_uv(p, params) - value) <= 1e-12
            if tag not in (ManifoldTag.GLOBAL_MIN, ManifoldTag.GLOBAL_MAX):
                assert 0.0 < value < 1.0
                saddles.append(value)
        assert saddle_values(params) == tuple(saddles)
        assert len(saddles) == {1: 1, 2: 2, 3: 0}[params.case]

    def test_pure_state_has_no_saddles(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 1.0))
        for tag in SADDLE_TAGS + (ManifoldTag.MIXED_SADDLE,):
            with pytest.raises(IllegalManifoldError):
                critical_point(CriticalManifoldId(tag), params, seed=1)

    def test_mixed_saddle_needs_center(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        with pytest.raises(IllegalManifoldError):
            critical_point(CriticalManifoldId(ManifoldTag.MIXED_SADDLE), params, seed=1)

    def test_z_only_for_mixed(self):
        with pytest.raises(ValueError):
            CriticalManifoldId(ManifoldTag.GLOBAL_MIN, z=1.0 + 0j)

    @pytest.mark.parametrize(
        "w, tags",
        [
            # The generic coordinate change and its two z0 = 0 branches.
            ((0.3, -0.4, 0.2), ("global-min", "global-max", "saddle-minus", "saddle-plus")),
            ((0.0, 0.0, 0.5), ("global-min", "global-max", "saddle-minus", "saddle-plus")),
            ((0.0, 0.0, -0.5), ("global-min", "global-max", "saddle-minus", "saddle-plus")),
            # The pure-state extremes.
            ((0.6, 0.0, 0.8), ("global-min", "global-max")),
            ((0.0, 0.0, 0.0), ("global-min", "global-max", "mixed-saddle")),
        ],
    )
    def test_frame_equals_the_diagonal_coordinate_path(self, w, tags):
        # In N's eigenbasis every block off the row's mask vanishes, and on
        # the mixed saddle's chart z the blocks satisfy ut2 = z ut1 and
        # vt1 = -conj(z) vt2.
        params = LandscapeParams(w=BlochVector(*w))
        masks = {tag: mask for tag, _, _, mask in _critical_manifolds(params)}
        mids = [CriticalManifoldId(ManifoldTag(tag)) for tag in tags]
        if params.case == 1:
            mids.append(CriticalManifoldId(ManifoldTag.MIXED_SADDLE, z=0.3 - 0.7j))
        for mid in mids:
            for seed in range(4):
                d = to_diag(critical_point(mid, params, seed=seed), params)
                if mid.z is not None:
                    assert np.abs(d.ut2 - mid.z * d.ut1).max() <= 1e-15
                    assert np.abs(d.vt1 + np.conj(mid.z) * d.vt2).max() <= 1e-15
                    continue
                blocks = ((d.ut1, d.ut2), (d.vt1, d.vt2))
                for row in range(2):
                    for col in range(2):
                        if not masks[mid.tag][row][col]:
                            assert np.abs(blocks[row][col]).max() <= 1e-15

    def test_seed_moves_within_manifold(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        mid = CriticalManifoldId(ManifoldTag.GLOBAL_MAX)
        p1 = critical_point(mid, params, seed=1)
        p2 = critical_point(mid, params, seed=2)
        assert np.max(np.abs(p1.matrix - p2.matrix)) > 1e-3
        for p in (p1, p2):
            assert objective_uv(p, params) == pytest.approx(1.0, abs=1e-12)


def fd_hessian(p, params, h=1e-4):
    """Central-difference Hessian of J(QR(p + s.t)) over the tangent basis.

    The independent reference for the closed form; the diagonal uses the
    same four-point formula with stride 2h.
    """
    t = orthonormal_tangent_basis(p.to_stiefel()).as_array()
    e = h * np.eye(len(t))

    def j(coeffs):
        return _objective_mat(_qf(p.matrix + np.tensordot(coeffs, t, axes=1)), params)

    pairs_p = e[:, None, :] + e[None, :, :]
    pairs_m = e[:, None, :] - e[None, :, :]
    return (j(pairs_p) - j(pairs_m) - j(-pairs_m) + j(-pairs_p)) / (4.0 * h * h)


class TestMorse:
    def test_predicted(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        assert predicted_morse(
            CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params
        ) == MorseSignature(8, 6, 14)
        assert predicted_morse(
            CriticalManifoldId(ManifoldTag.SADDLE_PLUS), params
        ) == MorseSignature(6, 8, 14)
        params0 = LandscapeParams(w=BlochVector(0.0, 0.0, 0.0))
        assert predicted_morse(
            CriticalManifoldId(ManifoldTag.MIXED_SADDLE), params0
        ) == MorseSignature(6, 6, 16)

    def test_predicted_rejects_extrema(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        with pytest.raises(IllegalManifoldError):
            predicted_morse(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), params)

    def test_saddle_minus_signature(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p = critical_point(CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params, seed=3)
        sig = morse_signature(hessian_form(p, params))
        assert sig == MorseSignature(8, 6, 14)

    def test_mixed_saddle_signature(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.0))
        p = critical_point(
            CriticalManifoldId(ManifoldTag.MIXED_SADDLE, z=2 - 1j), params, seed=3
        )
        sig = morse_signature(hessian_form(p, params))
        assert sig == MorseSignature(6, 6, 16)

    def test_global_min_has_sixteen_ascent_directions(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), params, seed=3)
        h = hessian_form(p, params)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() > -1e-6
        cut = 1e-5 * max(1.0, float(np.max(np.abs(eigs))))
        assert int(np.sum(eigs > cut)) == 16

    @pytest.mark.parametrize(
        "w, tag, z",
        [
            ((0.0, 0.0, 0.5), ManifoldTag.GLOBAL_MIN, None),
            ((0.0, 0.0, 0.5), ManifoldTag.GLOBAL_MAX, None),
            ((0.6, 0.0, 0.8), ManifoldTag.GLOBAL_MIN, None),
            ((0.6, 0.0, 0.8), ManifoldTag.GLOBAL_MAX, None),
            ((0.3, -0.4, 0.2), ManifoldTag.SADDLE_MINUS, None),
            ((0.3, -0.4, 0.2), ManifoldTag.SADDLE_PLUS, None),
            ((0.0, 0.0, 0.0), ManifoldTag.MIXED_SADDLE, None),
            ((0.0, 0.0, 0.0), ManifoldTag.MIXED_SADDLE, 2 - 1j),
        ],
    )
    def test_matches_finite_difference_oracle(self, w, tag, z):
        params = LandscapeParams(w=BlochVector(*w))
        for seed in range(5):
            p = critical_point(CriticalManifoldId(tag, z=z), params, seed=seed)
            h = hessian_form(p, params)
            assert np.array_equal(h, h.T)
            assert np.max(np.abs(h - fd_hessian(p, params))) <= 1e-6

    @pytest.mark.parametrize("norm", [1e-5, 1e-8])
    @pytest.mark.parametrize(
        "tag, expected",
        [
            (ManifoldTag.SADDLE_MINUS, MorseSignature(8, 6, 14)),
            (ManifoldTag.SADDLE_PLUS, MorseSignature(6, 8, 14)),
        ],
    )
    def test_near_mixed_saddle_signatures(self, norm, tag, expected):
        # The non-null eigenvalues shrink like |w|; the default null cut
        # must sit below them and above the rounding-level null ones.
        params = LandscapeParams(w=BlochVector(0.0, 0.0, norm))
        for seed in range(20):
            p = critical_point(CriticalManifoldId(tag), params, seed=seed)
            assert morse_signature(hessian_form(p, params)) == expected

    def test_hessian_form_keeps_its_arithmetic(self):
        # The Morse Hessian is the optimizer's Hessian-vector kernel applied
        # to the tangent stack: bitwise the products H_ij = <t_i, Hess J[t_j]>,
        # and within rounding of the complex formula the kernel replaced.
        cases = (
            ((0.0, 0.0, 0.5), ManifoldTag.SADDLE_MINUS),
            ((0.3, -0.4, 0.2), ManifoldTag.SADDLE_PLUS),
            ((0.0, 0.0, 0.0), ManifoldTag.MIXED_SADDLE),
            ((0.6, 0.0, 0.8), ManifoldTag.GLOBAL_MAX),
        )
        for w, tag in cases:
            params = LandscapeParams(w=BlochVector(*w))
            for seed in range(3):
                p = critical_point(CriticalManifoldId(tag), params, seed=seed)
                x = p.to_stiefel().frame
                t = orthonormal_tangent_basis(p.to_stiefel()).as_array()
                tr = t.view(np.float64).reshape(28, 32)
                out = tr @ _hvp(x, t, params).view(np.float64).reshape(28, 32).T
                h = hessian_form(p, params)
                assert np.array_equal(h, 0.5 * (out + out.T))
                # The Euclidean gradient P X N, on X and on every delta.
                n = np.array([[1 + params.gamma, params.z0],
                              [np.conj(params.z0), 1 - params.gamma]])
                p_x_n, p_t_n = x @ n, t @ n
                p_x_n[4:], p_t_n[:, 4:] = 0.0, 0.0
                s = x.conj().T @ p_x_n
                hess_t = p_t_n - t @ (0.5 * (s + s.conj().T))
                ref = np.einsum("inj,mnj->im", t.conj(), hess_t).real
                assert np.abs(h - 0.5 * (ref + ref.T)).max() <= 1e-14

    def test_default_basis_is_the_public_basis(self, monkeypatch):
        # The stack hessian_form reads is the public basis's, bitwise.
        read = []
        stack = landscape._tangent_stack

        def recording(w):
            read.append(stack(w))
            return read[-1]

        monkeypatch.setattr(landscape, "_tangent_stack", recording)
        for w, tag in (
            ((0.3, -0.4, 0.2), ManifoldTag.SADDLE_MINUS),
            ((0.0, 0.0, 0.0), ManifoldTag.MIXED_SADDLE),
            ((0.6, 0.0, 0.8), ManifoldTag.GLOBAL_MIN),
        ):
            params = LandscapeParams(w=BlochVector(*w))
            for seed in range(3):
                p = critical_point(CriticalManifoldId(tag), params, seed=seed)
                hessian_form(p, params)
                public = orthonormal_tangent_basis(p.to_stiefel()).as_array()
                assert np.array_equal(read.pop(), public)

    def test_morse_path_builds_no_checked_frame_or_tangent(self, monkeypatch):
        # The critical frame is checked once, as a KrausPoint; the Hessian
        # reads the checked tangent stack and builds no frame or vector type.
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built on the Morse path")

        monkeypatch.setattr(StiefelPoint, "__post_init__", refuse)
        monkeypatch.setattr(TangentVector, "__post_init__", refuse)
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        mid = CriticalManifoldId(ManifoldTag.SADDLE_PLUS)
        p = critical_point(mid, params, seed=3)
        assert morse_signature(hessian_form(p, params)) == predicted_morse(mid, params)

    def test_zero_tol_must_be_finite_and_non_negative(self):
        h = np.diag(np.arange(28.0))
        for bad in (np.nan, np.inf, -1.0, -1e-300):
            with pytest.raises(ValueError, match="zero_tol"):
                morse_signature(h, zero_tol=bad)
        assert morse_signature(h, zero_tol=0.0) == MorseSignature(27, 0, 1)

    def test_signature_sums_to_dimension(self):
        with pytest.raises(ValueError):
            MorseSignature(8, 6, 13)
        with pytest.raises(ValueError, match="signature counts must be non-negative"):
            MorseSignature(-1, 15, 14)

    def test_warns_off_critical(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p = random_kraus_point(seed=13)
        with pytest.warns(UserWarning):
            hessian_form(p, params)


class TestCertificates:
    def test_global_min_multipliers_vanish(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MIN), params, seed=5)
        cert = lagrange_certificate(p, params)
        assert isinstance(cert, CriticalPointCertificate) and cert.point is p
        assert cert.stationarity_residual < 1e-10
        assert abs(cert.eta1) < 1e-10 and abs(cert.eta2) < 1e-10
        assert abs(cert.eta3) < 1e-10

    def test_saddle_certifies(self):
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        p = critical_point(CriticalManifoldId(ManifoldTag.SADDLE_MINUS), params, seed=5)
        cert = lagrange_certificate(p, params)
        assert cert.stationarity_residual < 1e-8
        assert cert.constraint_residual < 1e-10

    def test_generic_point_fails(self):
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        cert = lagrange_certificate(random_kraus_point(seed=14), params)
        assert cert.stationarity_residual > 1e-3


    def test_multipliers_are_the_least_squares_fit(self):
        # The lstsq fit over the 16 real rows of the stationarity equations
        # and the four real unknowns (eta1, eta2, Re eta3, Im eta3).
        rng = np.random.default_rng(15)
        for seed in range(20):
            params = LandscapeParams(w=BlochVector(*(0.5 * rng.uniform(-1.0, 1.0, 3))))
            p = random_kraus_point(seed=100 + seed)
            # The Wirtinger gradient P X N / 2 on the u-rows.
            n = np.array([[1 + params.gamma, params.z0],
                          [np.conj(params.z0), 1 - params.gamma]])
            g = 0.5 * (p.matrix[0:4] @ n)
            zero = np.zeros(4, dtype=complex)
            cols = np.column_stack([
                np.concatenate([p.u1, zero, p.v1, zero]),
                np.concatenate([zero, p.u2, zero, p.v2]),
                np.concatenate([p.u2, p.u1, p.v2, p.v1]),
                np.concatenate([-1j * p.u2, 1j * p.u1, -1j * p.v2, 1j * p.v1])])
            b = np.concatenate([g[0:4, 0], g[0:4, 1], zero, zero])
            a_real = np.vstack([cols.real, cols.imag])
            b_real = np.concatenate([b.real, b.imag])
            theta = np.linalg.lstsq(a_real, -b_real, rcond=None)[0]
            cert = lagrange_certificate(p, params)
            got = [cert.eta1, cert.eta2, cert.eta3.real, cert.eta3.imag]
            np.testing.assert_allclose(got, theta, rtol=0, atol=1e-14)
            residual = np.linalg.norm(a_real @ theta + b_real)
            assert abs(cert.stationarity_residual - residual) <= 1e-14

class TestDuality:
    def test_max_to_min(self):
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        p = critical_point(CriticalManifoldId(ManifoldTag.GLOBAL_MAX), params, seed=6)
        q = duality_map(p)
        assert objective_uv(q, params) == pytest.approx(0.0, abs=1e-12)

    def test_involution(self):
        p = random_kraus_point(seed=15)
        back = duality_map(duality_map(p))
        assert np.array_equal(back.matrix, p.matrix)

    def test_saddle_plus_to_minus_value(self):
        params = LandscapeParams(w=BlochVector(0.0, 0.0, 0.5))
        p = critical_point(CriticalManifoldId(ManifoldTag.SADDLE_PLUS), params, seed=6)
        q = duality_map(p)
        assert objective_uv(q, params) == pytest.approx(0.25, abs=1e-12)

    def test_sum_rule(self):
        rng_w = np.random.default_rng(16)
        for seed in range(50):
            params = LandscapeParams(w=seeded_w(rng_w))
            p = random_kraus_point(seed=seed)
            total = objective_uv(p, params) + objective_uv(duality_map(p), params)
            assert abs(total - 1.0) < 1e-12


def _hvp(x, xi, params):
    """Hess J[xi] at each frame of a stack, by the kernel the optimizer calls.

    ``x`` and ``xi`` are complex (..., 8, 2) frames and tangents; ``xi``
    may also be a stack of tangents at one frame.
    """
    xr = x.view(np.float64)
    rn = _weight_factor(params)
    f = _first_order(xr, _gram(xr, rn), rn)[1]
    flat = xi.view(np.float64).reshape(xi.shape[:-2] + (32,))
    return _hess_vec(flat, f, _normals(xr)).view(complex).reshape(xi.shape)


def _tangent_stack():
    """Six Haar frames and a seeded tangent at each."""
    x = np.stack([random_kraus_point(seed=s).matrix for s in range(6)])
    rng = np.random.default_rng(1)
    return x, _project_mat(x, rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))


class TestHessianVector:
    @pytest.mark.parametrize("w", [(0.3, -0.4, 0.2), (0.0, 0.0, 0.999999), (0.0, 0.0, 0.0)])
    def test_matches_gradient_differences(self, w):
        # Hess J[xi] = Proj_X(D rgrad[xi]) for any smooth extension of the
        # Riemannian gradient; _first_order_mat's is one off the manifold.
        params = LandscapeParams(w=BlochVector(*w))
        x, xi = _tangent_stack()
        h = 1e-5
        diff = (_first_order_mat(x + h * xi, params)[1]
                - _first_order_mat(x - h * xi, params)[1]) / (2 * h)
        assert np.abs(_hvp(x, xi, params) - _project_mat(x, diff)).max() <= 1e-8

    def test_self_adjoint_on_tangents(self):
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        x, xi = _tangent_stack()
        eta = _project_mat(x, np.roll(xi, 1, axis=0))
        a = (xi.conj() * _hvp(x, eta, params)).real.sum(axis=(1, 2))
        b = (_hvp(x, xi, params).conj() * eta).real.sum(axis=(1, 2))
        assert np.abs(a - b).max() <= 1e-13

    def test_rows_equal_single_frames(self):
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        x, xi = _tangent_stack()
        batched = _hvp(x, xi, params)
        for i in range(len(x)):
            assert np.array_equal(_hvp(x[i], xi[i], params), batched[i])

    @pytest.mark.parametrize("size", [1, 2, 40, 200])
    def test_negated_factor_negates_bitwise(self, size):
        # Minimize runs apply -Hess J through the factor -F: a +-1 scaling
        # commutes exactly with every product and sum of the kernel.
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        rn = _weight_factor(params)
        x, xi = _frames_and_tangents(size, seed=size)
        xr = x.view(np.float64)
        f = _first_order(xr, _gram(xr, rn), rn)[1]
        flat = xi.view(np.float64).reshape(size, 32)
        nb = _normals(xr)
        assert np.array_equal(_hess_vec(flat, -f, nb), -_hess_vec(flat, f, nb))


def _weight(params):
    """The 2x2 state matrix N of J = Re tr(X^H P X N) / 2."""
    g, z0 = params.gamma, params.z0
    return np.array([[1.0 + g, z0], [np.conj(z0), 1.0 - g]])


def _u_rows(x):
    """P X: the frames with their v-rows set to zero."""
    px = np.array(x)
    px[..., 4:, :] = 0.0
    return px


def _sym(a):
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def _hess_reference(x, xi, params):
    """Proj_X(P xi N - xi sym(X^H P X N)) in complex arithmetic."""
    n = _weight(params)
    xh = np.swapaxes(x.conj(), -1, -2)
    amb = _u_rows(xi) @ n - xi @ _sym(xh @ _u_rows(x) @ n)
    return amb - x @ _sym(xh @ amb)


def _frames_and_tangents(count, seed):
    """``count`` Haar frames and a Ginibre tangent at each."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, count, 8, 2))
    x = _qf(g[0] + 1j * g[1])
    return x, _project_mat(x, g[2] + 1j * g[3])


class TestFloatViewKernels:
    """The Gram, first-order and Hessian-vector kernels on the frames' float view."""

    def test_objective_scale(self):
        # J = Re tr(X^H P X N) / 2, so the Euclidean gradient is P X N.
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        x = random_kraus_point(seed=1).matrix
        n = _weight(params)
        xpxn = x.conj().T @ _u_rows(x) @ n
        value = 0.5 * np.trace(xpxn).real
        assert value == pytest.approx(0.2052, abs=1e-4)
        xr = x.view(np.float64)
        rn = _weight_factor(params)
        g = _gram(xr, rn)
        assert abs(_gram_value(g) - value) <= 1e-15
        assert abs(_objective_mat(x, params) - value) <= 1e-15
        grad = _u_rows(x) @ n - x @ _sym(xpxn)
        assert np.abs(_first_order(xr, g, rn)[0].view(complex) - grad).max() <= 1e-15
        assert np.abs(_first_order_mat(x, params)[1] - grad).max() <= 1e-15

    @pytest.mark.parametrize("size", [2, 3, 40, 200])
    def test_stacks_equal_single_frames(self, size):
        # Each frame alone is a fresh batch of one, as in a one-start run.
        params = LandscapeParams(w=BlochVector(0.3, -0.4, 0.2))
        rn = _weight_factor(params)
        x, xi = _frames_and_tangents(size, seed=size)

        def kernels(x, xi):
            xr = x.view(np.float64)
            g = _gram(xr, rn)
            grad, f = _first_order(xr, g, rn)
            flat = xi.view(np.float64).reshape(len(xi), 32)
            return _gram_value(g), grad, f, _hess_vec(flat, f, _normals(xr))

        stacked = kernels(x, xi)
        for i in range(size):
            alone = kernels(x[i:i + 1].copy(), xi[i:i + 1].copy())
            for a, b in zip(alone, stacked):
                assert np.array_equal(a[0], b[i])

    @pytest.mark.parametrize("norm", [0.0, 1e-13, 0.5, 1.0 - 1e-9, 1.0])
    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (-0.3, 0.8, -0.5)])
    def test_hessian_vector_matches_the_complex_formula(self, norm, axis):
        a = np.asarray(axis) / np.linalg.norm(axis)
        params = LandscapeParams(w=BlochVector(*(norm * a)))
        x, xi = _frames_and_tangents(20, seed=7)
        got = _hvp(x, xi, params)
        err = np.abs(got - _hess_reference(x, xi, params)).max(axis=(1, 2))
        assert (err <= 1e-14 * np.linalg.norm(xi, axis=(1, 2))).all()

    @pytest.mark.parametrize("norm", [0.0, 1e-13, 0.5, 1.0 - 1e-9, 1.0])
    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (-0.3, 0.8, -0.5)])
    def test_quotient_value_is_the_gram_value(self, norm, axis):
        # J from the u-row Gram data M = U^H U alone matches the value kernel.
        a = np.asarray(axis) / np.linalg.norm(axis)
        params = LandscapeParams(w=BlochVector(*(norm * a)))
        x, _ = _frames_and_tangents(50, seed=8)
        m = np.swapaxes(x[:, :4].conj(), -1, -2) @ x[:, :4]
        entries = (m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1].real, m[:, 0, 1].imag)
        expected = _gram_value(_gram(x.view(np.float64), _weight_factor(params)))
        assert np.abs(_quotient_value(entries, params) - expected).max() <= 2e-15
