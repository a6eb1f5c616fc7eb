"""Stiefel geometry: constraints, projections, retractions, sampling."""

import numpy as np
import pytest

from krauscape.qcore import IDENTITY2, CompletenessError, KrausSet
from krauscape.stiefel import (
    KrausPoint,
    StiefelPoint,
    TangentBasis,
    TangentVector,
    _frame_residuals,
    _gram_r,
    _kraus_points,
    _project_mat,
    _qf,
    constraint_residuals,
    kraus_to_point,
    orthonormal_tangent_basis,
    point_to_kraus,
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
        t = _project_mat(x.frame, x.frame)
        assert np.max(np.abs(t)) < 1e-12

    def test_complement_unchanged(self):
        x = random_point(8, 2, seed=2)
        rng = np.random.default_rng(3)
        amb = random_ambient(rng)
        # Remove every complex component along the frame's span.
        amb -= x.frame @ (x.frame.conj().T @ amb)
        t = _project_mat(x.frame, amb)
        assert np.max(np.abs(t - amb)) < 1e-12

    def test_tangency_residual(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            x = random_point(8, 2, seed=seed)
            t = _project_mat(x.frame, random_ambient(rng))
            r = x.frame.conj().T @ t + t.conj().T @ x.frame
            assert np.max(np.abs(r)) < 1e-12

    def test_idempotent(self):
        x = random_point(8, 2, seed=5)
        rng = np.random.default_rng(6)
        once = _project_mat(x.frame, random_ambient(rng))
        twice = _project_mat(x.frame, once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_self_adjoint(self):
        x = random_point(8, 2, seed=7)
        rng = np.random.default_rng(8)
        a, b = random_ambient(rng), random_ambient(rng)
        pa = _project_mat(x.frame, a)
        pb = _project_mat(x.frame, b)
        lhs = real_inner(pa.reshape(-1), b.reshape(-1))
        rhs = real_inner(a.reshape(-1), pb.reshape(-1))
        assert abs(lhs - rhs) < 1e-12


class TestRetraction:
    def test_zero_tangent_exact(self):
        x = random_point(8, 2, seed=9)
        t = TangentVector(base=x, delta=np.zeros((8, 2), dtype=complex))
        y = retract(x, t)
        assert np.array_equal(y.frame, x.frame)

    def test_first_order(self):
        x = random_point(8, 2, seed=10)
        rng = np.random.default_rng(11)
        t = TangentVector(x, _project_mat(x.frame, random_ambient(rng)))
        eps = 1e-6
        plus = retract(x, TangentVector(x, eps * t.delta)).frame
        minus = retract(x, TangentVector(x, -eps * t.delta)).frame
        slope = (plus - minus) / (2 * eps)
        rel = np.linalg.norm(slope - t.delta) / np.linalg.norm(t.delta)
        assert rel < 1e-6

    def test_orthonormality(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            x = random_point(8, 2, seed=seed)
            t = TangentVector(x, _project_mat(x.frame, random_ambient(rng)))
            y = retract(x, t)
            gram = y.frame.conj().T @ y.frame
            assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_mismatched_base_rejected(self):
        x = random_point(8, 2, seed=15)
        y = random_point(8, 2, seed=16)
        rng = np.random.default_rng(17)
        t = TangentVector(x, _project_mat(x.frame, random_ambient(rng)))
        with pytest.raises(ValueError):
            retract(y, t)


def _qf_lapack(w):
    """The Householder QR of LAPACK with the R diagonal rotated positive."""
    q, r = np.linalg.qr(w)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    if (mags < 1e-12).any():
        raise RuntimeError("rank collapse during QR retraction")
    return q * (d / mags)[..., None, :]


def _ginibre_stack(rng, *shape):
    return rng.standard_normal(shape + (8, 2)) + 1j * rng.standard_normal(shape + (8, 2))


def _tangent_steps(rng, n, radius):
    """Haar frames plus tangent steps of Frobenius norm uniform in (0, radius]."""
    x = _qf_lapack(_ginibre_stack(rng, n))
    eta = _project_mat(x, _ginibre_stack(rng, n))
    scale = radius * (1.0 - rng.uniform(size=n)) / np.linalg.norm(eta, axis=(1, 2))
    return x + scale[:, None, None] * eta


class TestClosedFormQR:
    def test_matches_lapack_on_ginibre_stacks(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 40, 200):
            w = _ginibre_stack(rng, n)
            assert np.abs(_qf(w) - _qf_lapack(w)).max() <= 1e-15

    def test_matches_lapack_on_tangent_steps(self):
        rng = np.random.default_rng(32)
        for radius in (1e-6, 0.25, 1.0, 2.0):
            w = _tangent_steps(rng, 100, radius)
            assert np.abs(_qf(w) - _qf_lapack(w)).max() <= 1e-15

    def test_matches_lapack_on_the_scan_shape(self):
        # The 41x41 grid of the scan subcommand: a frame plus s1 d1 + s2 d2.
        rng = np.random.default_rng(33)
        x = _qf_lapack(_ginibre_stack(rng))
        d1, d2 = _project_mat(x, _ginibre_stack(rng, 2))
        s = np.linspace(-1.0, 1.0, 41)
        w = x + s[:, None, None, None] * d1 + s[None, :, None, None] * d2
        assert w.shape == (41, 41, 8, 2)
        assert np.abs(_qf(w) - _qf_lapack(w)).max() <= 1e-15

    def test_matches_lapack_on_single_frames(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            w = random_ambient(rng)
            q = _qf(w)
            assert q.shape == (8, 2)
            assert np.abs(q - _qf_lapack(w)).max() <= 1e-15

    def test_frame_is_the_same_alone_and_in_a_stack(self):
        rng = np.random.default_rng(35)
        stack = np.concatenate([_ginibre_stack(rng, 600), _tangent_steps(rng, 600, 2.0)])
        batched = _qf(stack)
        for w, q in zip(stack, batched):
            assert np.array_equal(_qf(w), q)
            assert np.array_equal(_qf(w[None])[0], q)

    def test_r_diagonal_is_positive(self):
        # Q^H W is the R factor: upper triangular with a positive real diagonal.
        rng = np.random.default_rng(36)
        w = _ginibre_stack(rng, 20)
        r = np.swapaxes(_qf(w).conj(), -1, -2) @ w
        assert np.abs(r[:, 1, 0]).max() <= 1e-14
        assert (r[:, 0, 0].real > 0).all() and (r[:, 1, 1].real > 0).all()
        assert np.abs(r[:, [0, 1], [0, 1]].imag).max() <= 1e-14

    def test_orthonormal_on_nearly_parallel_columns(self):
        # One Gram-Schmidt pass leaves |q1^H q2| near eps / angle here; the
        # second pass restores orthogonality to rounding.
        rng = np.random.default_rng(38)
        w = _ginibre_stack(rng, 30)
        for angle in (1e-6, 1e-8, 1e-10):
            near = w.copy()
            near[:, :, 1] = near[:, :, 0] * (0.7 + 0.2j) + angle * w[:, :, 1]
            q = _qf(near)
            gram = np.swapaxes(q.conj(), -1, -2) @ q
            assert np.abs(gram - np.eye(2)).max() <= 1e-14

    def test_rank_collapse_raises(self):
        rng = np.random.default_rng(37)
        stack = _ginibre_stack(rng, 3)
        zero = stack.copy()
        zero[1, :, 0] = 0.0
        parallel = stack.copy()
        parallel[2, :, 1] = (0.3 - 2j) * parallel[2, :, 0]
        for w in (zero, parallel, zero[1], parallel[2]):
            with pytest.raises(RuntimeError, match="rank collapse during QR retraction"):
                _qf(w)
        first_zero = stack[0].copy()
        first_zero[:, 1] = 0.0
        with pytest.raises(RuntimeError, match="rank collapse"):
            _qf(first_zero)

    def test_rejects_other_column_counts(self):
        with pytest.raises(ValueError, match="two columns"):
            _qf(np.ones((8, 3), dtype=complex))


def _gram_entries(w):
    """(g11, g22, Re g12, Im g12) of W^H W for a stack of frames."""
    g = np.swapaxes(w.conj(), -1, -2) @ w
    return np.array([g[:, 0, 0].real, g[:, 1, 1].real, g[:, 0, 1].real, g[:, 0, 1].imag])


class TestGramR:
    def test_is_the_r_of_the_closed_form_qr(self):
        # Q^H W of _qf is R; the Cholesky factor of W^H W gives it to rounding.
        rng = np.random.default_rng(39)
        w = np.concatenate([_ginibre_stack(rng, 40), _tangent_steps(rng, 40, 2.0)])
        r = np.swapaxes(_qf(w).conj(), -1, -2) @ w
        r11, r12r, r12i, r22 = _gram_r(_gram_entries(w))
        scale = np.abs(r).max(axis=(1, 2))
        assert (np.abs(r11 - r[:, 0, 0].real) <= 1e-14 * scale).all()
        assert (np.abs(r12r + 1j * r12i - r[:, 0, 1]) <= 1e-14 * scale).all()
        assert (np.abs(r22 - r[:, 1, 1].real) <= 1e-14 * scale).all()

    def test_rank_collapse_raises(self):
        # The zero column and the parallel pair that _qf refuses.
        rng = np.random.default_rng(37)
        stack = _ginibre_stack(rng, 3)
        zero = stack.copy()
        zero[1, :, 0] = 0.0
        parallel = stack.copy()
        parallel[2, :, 1] = (0.3 - 2j) * parallel[2, :, 0]
        for w in (zero, parallel):
            with pytest.raises(RuntimeError, match="rank collapse during QR retraction"):
                _gram_r(_gram_entries(w))


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
            back = _project_mat(x.frame, vec.delta)
            assert np.max(np.abs(back - vec.delta)) < 1e-12

    def test_small_manifold_count(self):
        basis = orthonormal_tangent_basis(random_point(4, 2, seed=24))
        assert len(basis.vectors) == 2 * 4 * 2 - 4


class TestTypeInvariants:
    def test_stiefel_point_rejects_skew_frame(self):
        frame = np.ones((8, 2), dtype=complex)
        with pytest.raises(ValueError):
            StiefelPoint(8, 2, frame)

    def test_frames_have_two_columns(self):
        # The error comes from the call made, before any QR or Haar draw.
        for k in (1, 3):
            frame = np.eye(8, k, dtype=complex)
            with pytest.raises(ValueError, match="k = 2 columns, got k = "):
                StiefelPoint(8, k, frame)
            with pytest.raises(ValueError, match="k = 2 columns, got k = "):
                random_point(8, k, seed=1)

    def test_stiefel_point_checks_shape_then_entries(self):
        # The messages of the one complex-array check of qcore, which
        # StiefelPoint shares.
        with pytest.raises(ValueError) as err:
            StiefelPoint(8, 2, np.eye(7, 2, dtype=complex))
        assert str(err.value) == "frame must have shape (8, 2), got (7, 2)"
        frame = random_point(8, 2, seed=25).frame.copy()
        frame[3, 1] = np.nan
        with pytest.raises(ValueError) as err:
            StiefelPoint(8, 2, frame)
        assert str(err.value) == "frame contains non-finite entries"

    def test_stiefel_point_frame_is_a_read_only_c_ordered_copy(self):
        frame = np.asfortranarray(random_point(8, 2, seed=25).frame)
        x = StiefelPoint(8, 2, frame)
        assert x.frame.flags.c_contiguous and not x.frame.flags.writeable
        assert np.array_equal(x.frame, frame) and not np.shares_memory(x.frame, frame)

    def test_tangent_vector_rejects_wrong_shape(self):
        x = random_point(8, 2, seed=25)
        with pytest.raises(ValueError, match="tangent delta shape does not match the base frame"):
            TangentVector(base=x, delta=np.zeros((7, 2), dtype=complex))

    def test_tangent_basis_rejects_non_orthonormal_vectors(self):
        # Every delta is tangent, but one has norm 2.
        x = random_point(8, 2, seed=26)
        vectors = list(orthonormal_tangent_basis(x).vectors)
        vectors[3] = TangentVector(base=x, delta=2.0 * vectors[3].delta)
        with pytest.raises(ValueError, match="tangent basis is not orthonormal within 1e-10"):
            TangentBasis(base=x, vectors=vectors)

    def test_tangent_vector_rejects_normal_component(self):
        x = random_point(8, 2, seed=25)
        with pytest.raises(ValueError):
            TangentVector(base=x, delta=x.frame)

    def test_tangent_vector_rejects_non_finite_delta(self):
        x = random_point(8, 2, seed=25)
        for value in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError, match="non-finite"):
                TangentVector(base=x, delta=np.full((8, 2), value, dtype=complex))

    def test_tangent_basis_rejects_a_non_finite_vector(self):
        x = random_point(8, 2, seed=26)
        vectors = list(orthonormal_tangent_basis(x).vectors)
        # A vector that skipped its own check, so only the basis rule sees it.
        bad = object.__new__(TangentVector)
        object.__setattr__(bad, "base", x)
        object.__setattr__(bad, "delta", np.full((8, 2), np.nan, dtype=complex))
        vectors[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            TangentBasis(base=x, vectors=vectors)

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
            # The Stiefel view shares the checked frame; nothing is copied.
            x = p.to_stiefel()
            assert (x.n, x.k) == (8, 2)
            assert np.array_equal(x.frame, p.matrix)
            assert not x.frame.flags.writeable
            assert np.shares_memory(x.frame, p.matrix)

    def test_non_finite_row_rejected_with_the_point_error(self):
        frames = np.stack([random_point(8, 2, seed=s).frame for s in range(4)])
        frames[1, 5, 1] = np.nan
        frames[3, 0, 0] = np.inf
        with pytest.raises(ValueError) as single:
            KrausPoint.from_matrix(frames[1])
        with pytest.raises(ValueError) as stack:
            _kraus_points(frames)
        assert str(stack.value) == str(single.value) == "v2 contains non-finite entries"

    @pytest.mark.parametrize("bad_first", ["infeasible", "non-finite"])
    def test_mixed_rows_rejected_with_the_first_bad_point_error(self, bad_first):
        # An infeasible and a non-finite frame in one stack: the error is
        # the first bad frame's, as checking frame by frame reports it.
        frames = np.stack([random_point(8, 2, seed=s).frame for s in range(5)])
        rows = (1, 3) if bad_first == "infeasible" else (3, 1)
        frames[rows[0], 0, 1] += 1e-6
        frames[rows[1], 6, 0] = np.nan
        with pytest.raises(ValueError) as single:
            for f in frames:
                KrausPoint.from_matrix(f)
        with pytest.raises(ValueError) as stack:
            _kraus_points(frames)
        assert str(stack.value) == str(single.value)
        assert ("non-finite" in str(stack.value)) == (bad_first == "non-finite")

    def test_from_matrix_errors_are_the_block_errors(self):
        # Each bad input fails from_matrix with the block constructor's error.
        good = random_point(8, 2, seed=8).frame
        bad = [good[:7], good[:3], np.concatenate([good, good[:1]])]
        for row, col in ((0, 0), (3, 1), (4, 0), (7, 1)):
            for value in (np.nan, np.inf, complex(0.0, -np.inf)):
                frame = good.copy()
                frame[row, col] = value
                bad.append(frame)
        for eps in (1e-6, 1e-9):
            frame = good.copy()
            frame[2, 1] += eps
            bad.append(frame)
        for w in bad:
            with pytest.raises(ValueError) as blocks:
                KrausPoint(u1=w[:4, 0], u2=w[:4, 1], v1=w[4:, 0], v2=w[4:, 1])
            with pytest.raises(ValueError) as matrix:
                KrausPoint.from_matrix(w)
            assert str(matrix.value) == str(blocks.value)

    def test_from_matrix_copies_its_input(self):
        f = random_point(8, 2, seed=9).frame.copy()
        p = KrausPoint.from_matrix(f)
        assert not np.shares_memory(p.matrix, f)
        # A column-major input gives the same row-major frame.
        q = KrausPoint.from_matrix(np.asfortranarray(f))
        assert q.matrix.flags.c_contiguous
        assert np.array_equal(q.matrix, f)

    def test_residual_is_the_same_alone_and_in_a_stack(self):
        rng = np.random.default_rng(11)
        frames = np.stack([random_point(8, 2, seed=s).frame for s in range(64)])
        frames += 1e-9 * random_ambient(rng, 64 * 8).reshape(64, 8, 2)
        stacked = _frame_residuals(frames)
        for f, worst in zip(frames, stacked):
            gram = f.conj().T @ f
            assert worst == pytest.approx(np.abs(gram - np.eye(2)).max(), rel=1e-6)
            assert _frame_residuals(f[None])[0] == worst
