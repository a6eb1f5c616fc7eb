"""Stiefel geometry: constraints, projections, retractions, sampling."""

import numpy as np
import pytest

from krauscape.qcore import IDENTITY2, CompletenessError, KrausSet
from krauscape.stiefel import (
    KrausPoint,
    StiefelPoint,
    TangentBasis,
    TangentVector,
    _kraus_points,
    constraint_residuals,
    kraus_to_point,
    orthonormal_tangent_basis,
    point_to_kraus,
    project_tangent,
    random_kraus_point,
    random_point,
    real_inner,
    retract,
)

E1 = np.array([1, 0, 0, 0], dtype=complex)
E2 = np.array([0, 1, 0, 0], dtype=complex)
ZERO4 = np.zeros(4, dtype=complex)

DEPHASING = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
)


def random_ambient(rng, n=8, k=2):
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


class TestKrausCorrespondence:
    def test_identity_layout(self):
        p = kraus_to_point(KrausSet((IDENTITY2,)))
        assert np.array_equal(p.u1, E1) and np.array_equal(p.v2, E1)
        assert np.array_equal(p.u2, ZERO4) and np.array_equal(p.v1, ZERO4)

    def test_dephasing_layout(self):
        p = kraus_to_point(KrausSet(DEPHASING))
        assert np.array_equal(p.u1, E1) and np.array_equal(p.v2, E2)
        assert np.array_equal(p.u2, ZERO4) and np.array_equal(p.v1, ZERO4)

    def test_round_trip(self):
        for seed in range(20):
            p = random_kraus_point(seed=seed)
            back = kraus_to_point(point_to_kraus(p))
            assert np.max(np.abs(back.matrix - p.matrix)) < 1e-14

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="infeasible channel coordinates"):
            KrausPoint(u1=E1, u2=E1, v1=ZERO4, v2=ZERO4)

    def test_loose_tolerance_set_rejected(self):
        # A set admitted under a caller-relaxed tolerance still fails the
        # manifold's own 1e-10 feasibility bar.
        k = KrausSet((IDENTITY2 * (1.0 + 2e-8),), tol=1e-6)
        with pytest.raises(CompletenessError):
            kraus_to_point(k)

    def test_feasibility_equivalence(self):
        # Stiefel-feasible quadruples correspond to completeness-feasible
        # Kraus sets and vice versa.
        for seed in range(100):
            p = random_kraus_point(seed=seed)
            k = point_to_kraus(p)
            assert k.m == 4
            phi1, phi2, phi3 = constraint_residuals(p.u1, p.u2, p.v1, p.v2)
            assert max(abs(phi1), abs(phi2), abs(phi3)) < 1e-10


class TestConstraintResiduals:
    def test_feasible_pair(self):
        phi1, phi2, phi3 = constraint_residuals(E1, ZERO4, ZERO4, E1)
        assert phi1 == 0.0 and phi2 == 0.0 and phi3 == 0.0

    def test_all_zero(self):
        phi1, phi2, phi3 = constraint_residuals(ZERO4, ZERO4, ZERO4, ZERO4)
        assert phi1 == -1.0 and phi2 == -1.0 and phi3 == 0.0

    def test_colinear(self):
        s = 1.0 / np.sqrt(2.0)
        phi1, phi2, phi3 = constraint_residuals(s * E1, s * E1, s * E2, s * E2)
        assert abs(phi1) < 1e-15 and abs(phi2) < 1e-15
        assert abs(phi3 - 1.0) < 1e-15


class TestProjection:
    def test_own_frame_projects_to_zero(self):
        x = random_point(8, 2, seed=1)
        t = project_tangent(x, x.frame)
        assert np.max(np.abs(t.delta)) < 1e-12

    def test_complement_unchanged(self):
        x = random_point(8, 2, seed=2)
        rng = np.random.default_rng(3)
        amb = random_ambient(rng)
        # Remove every complex component along the frame's span.
        amb -= x.frame @ (x.frame.conj().T @ amb)
        t = project_tangent(x, amb)
        assert np.max(np.abs(t.delta - amb)) < 1e-12

    def test_tangency_residual(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            x = random_point(8, 2, seed=seed)
            t = project_tangent(x, random_ambient(rng))
            r = x.frame.conj().T @ t.delta + t.delta.conj().T @ x.frame
            assert np.max(np.abs(r)) < 1e-12

    def test_idempotent(self):
        x = random_point(8, 2, seed=5)
        rng = np.random.default_rng(6)
        once = project_tangent(x, random_ambient(rng))
        twice = project_tangent(x, once.delta)
        assert np.max(np.abs(twice.delta - once.delta)) < 1e-12

    def test_self_adjoint(self):
        x = random_point(8, 2, seed=7)
        rng = np.random.default_rng(8)
        a, b = random_ambient(rng), random_ambient(rng)
        pa = project_tangent(x, a).delta
        pb = project_tangent(x, b).delta
        lhs = real_inner(pa.reshape(-1), b.reshape(-1))
        rhs = real_inner(a.reshape(-1), pb.reshape(-1))
        assert abs(lhs - rhs) < 1e-12


class TestRetraction:
    def test_zero_tangent_exact(self):
        x = random_point(8, 2, seed=9)
        t = TangentVector(base=x, delta=np.zeros((8, 2), dtype=complex))
        for kind in ("qr", "polar"):
            y = retract(x, t, kind=kind)
            assert np.array_equal(y.frame, x.frame)

    def test_first_order(self):
        x = random_point(8, 2, seed=10)
        rng = np.random.default_rng(11)
        t = project_tangent(x, random_ambient(rng))
        for kind in ("qr", "polar"):
            eps = 1e-6
            plus = retract(x, TangentVector(x, eps * t.delta), kind=kind).frame
            minus = retract(x, TangentVector(x, -eps * t.delta), kind=kind).frame
            slope = (plus - minus) / (2 * eps)
            rel = np.linalg.norm(slope - t.delta) / np.linalg.norm(t.delta)
            assert rel < 1e-6

    def test_orthonormality(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            x = random_point(8, 2, seed=seed)
            t = project_tangent(x, random_ambient(rng))
            for kind in ("qr", "polar"):
                y = retract(x, t, kind=kind)
                gram = y.frame.conj().T @ y.frame
                assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_kinds_agree_to_second_order(self):
        x = random_point(8, 2, seed=13)
        rng = np.random.default_rng(14)
        t = project_tangent(x, random_ambient(rng))
        gaps = []
        for scale in (1e-2, 5e-3, 2.5e-3):
            tv = TangentVector(x, scale * t.delta)
            diff = retract(x, tv, "qr").frame - retract(x, tv, "polar").frame
            gaps.append(np.linalg.norm(diff))
        # Halving the step should cut the gap by about four.
        assert gaps[1] < 0.35 * gaps[0]
        assert gaps[2] < 0.35 * gaps[1]

    def test_mismatched_base_rejected(self):
        x = random_point(8, 2, seed=15)
        y = random_point(8, 2, seed=16)
        rng = np.random.default_rng(17)
        t = project_tangent(x, random_ambient(rng))
        with pytest.raises(ValueError):
            retract(y, t)


class TestSampling:
    def test_deterministic(self):
        a = random_point(8, 2, seed=42)
        b = random_point(8, 2, seed=42)
        assert np.array_equal(a.frame, b.frame)

    def test_invariants(self):
        for seed in range(50):
            x = random_point(8, 2, seed=seed)
            gram = x.frame.conj().T @ x.frame
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_haar_marginal(self):
        # The squared mass of a Haar column's first half follows Beta(4,4):
        # mean 1/2, sd 1/6, so the 1000-sample mean has sd ~ 0.00527.
        total = 0.0
        for seed in range(1000):
            p = random_kraus_point(seed=seed)
            total += float(np.vdot(p.u1, p.u1).real)
        assert abs(total / 1000 - 0.5) < 0.0158

    def test_kraus_point_is_the_stiefel_haar_frame(self):
        # The construction through a validated StiefelPoint, written out.
        for seed in range(20):
            old = KrausPoint.from_matrix(random_point(8, 2, seed).frame)
            new = random_kraus_point(seed)
            for name in ("u1", "u2", "v1", "v2"):
                assert np.array_equal(getattr(new, name), getattr(old, name))


class TestTangentBasis:
    def test_count(self):
        basis = orthonormal_tangent_basis(random_point(8, 2, seed=21))
        assert len(basis.vectors) == 28

    def test_gram_identity(self):
        basis = orthonormal_tangent_basis(random_point(8, 2, seed=22))
        arr = basis.as_array().reshape(28, -1)
        gram = np.array(
            [[real_inner(a, b) for b in arr] for a in arr]
        )
        assert np.max(np.abs(gram - np.eye(28))) < 1e-10

    def test_projection_fixes_basis(self):
        x = random_point(8, 2, seed=23)
        basis = orthonormal_tangent_basis(x)
        for vec in basis.vectors:
            back = project_tangent(x, vec.delta)
            assert np.max(np.abs(back.delta - vec.delta)) < 1e-12

    def test_small_manifold_count(self):
        basis = orthonormal_tangent_basis(random_point(4, 2, seed=24))
        assert len(basis.vectors) == 2 * 4 * 2 - 4


class TestTypeInvariants:
    def test_stiefel_point_rejects_skew_frame(self):
        frame = np.ones((8, 2), dtype=complex)
        with pytest.raises(ValueError):
            StiefelPoint(8, 2, frame)

    def test_tangent_vector_rejects_normal_component(self):
        x = random_point(8, 2, seed=25)
        with pytest.raises(ValueError):
            TangentVector(base=x, delta=x.frame)

    def test_tangent_basis_rejects_vectors_of_another_frame(self):
        x = random_point(8, 2, seed=26)
        other = orthonormal_tangent_basis(random_point(8, 2, seed=27))
        with pytest.raises(ValueError, match="not tangent"):
            TangentBasis(base=x, vectors=other.vectors)

    def test_tangent_basis_rejects_wrong_count(self):
        x = random_point(8, 2, seed=26)
        basis = orthonormal_tangent_basis(x)
        with pytest.raises(ValueError):
            TangentBasis(base=x, vectors=basis.vectors[:27])


class TestKrausPointStack:
    def test_points_equal_validated_points(self):
        frames = np.stack([random_point(8, 2, seed=s).frame for s in range(6)])
        points = _kraus_points(frames)
        assert len(points) == 6
        for p, f in zip(points, frames):
            q = KrausPoint.from_matrix(f)
            for name in ("u1", "u2", "v1", "v2"):
                block = getattr(p, name)
                assert np.array_equal(block, getattr(q, name))
                assert not block.flags.writeable
            assert np.array_equal(p.matrix, f)

    def test_infeasible_row_rejected_with_the_point_error(self):
        frames = np.stack([random_point(8, 2, seed=s).frame for s in range(4)])
        frames[2, 0, 1] += 1e-6
        with pytest.raises(ValueError) as single:
            KrausPoint.from_matrix(frames[2])
        with pytest.raises(ValueError) as stack:
            _kraus_points(frames)
        prefix = "infeasible channel coordinates: constraint residual "
        assert str(single.value).startswith(prefix)
        assert str(stack.value) == str(single.value)

    def test_point_keeps_one_read_only_frame(self):
        f = random_point(8, 2, seed=7).frame
        for p in (KrausPoint.from_matrix(f), _kraus_points(f[None])[0]):
            assert p.matrix is p.matrix
            assert np.array_equal(p.matrix, f)
            assert not p.matrix.flags.writeable
            for name in ("u1", "u2", "v1", "v2"):
                assert np.shares_memory(getattr(p, name), p.matrix)

    def test_non_finite_row_rejected_with_the_point_error(self):
        frames = np.stack([random_point(8, 2, seed=s).frame for s in range(4)])
        frames[1, 5, 1] = np.nan
        frames[3, 0, 0] = np.inf
        with pytest.raises(ValueError) as single:
            KrausPoint.from_matrix(frames[1])
        with pytest.raises(ValueError) as stack:
            _kraus_points(frames)
        assert str(stack.value) == str(single.value) == "v2 contains non-finite entries"
