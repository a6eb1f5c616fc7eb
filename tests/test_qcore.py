"""State/channel arithmetic: Bloch maps, Kraus application, dilation."""

import numpy as np
import pytest

from krauscape.qcore import (
    IDENTITY2,
    PAULI_X,
    THETA0,
    BlochVector,
    CompletenessError,
    DensityMatrix,
    DilatedUnitary,
    KrausSet,
    TargetOperator,
    _dilation_residual,
    apply_kraus,
    bloch_to_density,
    dilate,
    objective_trace,
    reduce_target,
    verify_dilation,
)
from krauscape.stiefel import random_point


def random_kraus(m: int, seed: int) -> KrausSet:
    # Orthonormal columns of a (2m x 2) frame are exactly the completeness
    # constraint in the system-major stacking.
    frame = random_point(2 * m, 2, seed).frame
    ops = tuple(
        np.array(
            [[frame[0 * m + a, 0], frame[0 * m + a, 1]],
             [frame[1 * m + a, 0], frame[1 * m + a, 1]]],
            dtype=complex,
        )
        for a in range(m)
    )
    return KrausSet(ops)


def random_density(rng) -> DensityMatrix:
    vec = rng.standard_normal(3)
    vec *= rng.uniform(0.0, 1.0) / np.linalg.norm(vec)
    return bloch_to_density(BlochVector(*vec))


DEPHASING = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
)
DAMPING = (
    np.array([[1.0, 0.0], [0.0, np.sqrt(0.7)]], dtype=complex),
    np.array([[0.0, np.sqrt(0.3)], [0.0, 0.0]], dtype=complex),
)


class TestBlochMaps:
    def test_mixed_state(self):
        rho = bloch_to_density(BlochVector(0.0, 0.0, 0.0))
        assert np.allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-15)

    def test_north_pole(self):
        rho = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_x_pure(self):
        rho = bloch_to_density(BlochVector(1.0, 0.0, 0.0))
        assert np.allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("w", [(1e200, 0.0, 0.0), (0.0, 0.0, 1e155), (0.0, -1e300, 0.0)])
    def test_rejects_a_component_whose_square_overflows(self, w):
        with pytest.raises(ValueError, match="exceeds 1"):
            BlochVector(*w)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestScalarConventions:
    def test_bloch_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BlochVector(np.inf, 0.0, 0.0)
        with pytest.raises(ValueError):
            BlochVector(0.0, np.nan, 0.0)


class TestApplyKraus:
    def test_identity_channel(self):
        k = KrausSet((IDENTITY2,))
        rho = bloch_to_density(BlochVector(0.2, -0.3, 0.4))
        out = apply_kraus(k, rho)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-15

    def test_dephasing_kills_offdiagonals(self):
        k = KrausSet(DEPHASING)
        rho = DensityMatrix(
            np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]], dtype=complex)
        )
        out = apply_kraus(k, rho)
        assert np.max(np.abs(out.entries - np.diag([0.6, 0.4]))) < 1e-15

    def test_amplitude_damping(self):
        k = KrausSet(DAMPING)
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        out = apply_kraus(k, rho)
        assert np.max(np.abs(out.entries - np.diag([0.3, 0.7]))) < 1e-15

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        for i in range(25):
            k = random_kraus(1 + i % 4, seed=100 + i)
            out = apply_kraus(k, random_density(rng))
            assert abs(np.trace(out.entries) - 1.0) < 1e-12

    def test_output_trace_follows_the_channel_tolerance(self):
        # I (1 + 1e-11) is inside the 1e-10 completeness tolerance, so its
        # output, trace 1 + 2e-11, is a state of the channel; a channel
        # built with a 1e-12 tolerance refuses the same operator instead.
        k = KrausSet((IDENTITY2 * (1.0 + 1e-11),))
        rho = bloch_to_density(BlochVector(0.2, -0.3, 0.4))
        out = apply_kraus(k, rho)
        assert abs(np.trace(out.entries) - (1.0 + 2e-11)) < 1e-15
        assert not out.entries.flags.writeable
        with pytest.raises(CompletenessError):
            KrausSet((IDENTITY2 * (1.0 + 1e-11),), tol=1e-12)

    def test_infeasible_set_rejected(self):
        with pytest.raises(CompletenessError) as err:
            KrausSet((IDENTITY2, IDENTITY2))
        assert err.value.residual == pytest.approx(1.0)


class TestCompletenessResidual:
    def test_identity(self):
        assert KrausSet((IDENTITY2,), tol=0.0).m == 1

    def test_double_identity(self):
        with pytest.raises(CompletenessError) as err:
            KrausSet((IDENTITY2, IDENTITY2))
        assert err.value.residual == 1.0

    def test_damping_pair(self):
        assert KrausSet(DAMPING, tol=1e-15).m == 2

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            KrausSet((3.0 * IDENTITY2,), tol=tol)


class TestReduceTarget:
    def test_target_must_be_hermitian(self):
        with pytest.raises(ValueError, match="target operator is not Hermitian within 1e-12"):
            TargetOperator(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_theta0(self):
        scale, offset, basis = reduce_target(THETA0)
        assert scale == pytest.approx(1.0) and offset == pytest.approx(0.0)
        assert np.allclose(basis, IDENTITY2, atol=1e-15)

    def test_diagonal(self):
        scale, offset, basis = reduce_target(
            TargetOperator(np.diag([2.0, -1.0]).astype(complex))
        )
        assert scale == pytest.approx(3.0) and offset == pytest.approx(-1.0)
        assert np.allclose(basis, IDENTITY2, atol=1e-15)

    def test_pauli_x(self):
        scale, offset, basis = reduce_target(TargetOperator(PAULI_X))
        assert scale == pytest.approx(2.0) and offset == pytest.approx(-1.0)
        rebuilt = basis @ np.diag([1.0, -1.0]) @ basis.conj().T
        assert np.max(np.abs(rebuilt - PAULI_X)) < 1e-12

    def test_reduction_identity(self):
        rng = np.random.default_rng(11)
        for i in range(20):
            k = random_kraus(1 + i % 4, seed=200 + i)
            rho = random_density(rng)
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            theta = TargetOperator((h + h.conj().T) / 2)
            scale, offset, basis = reduce_target(theta)
            lhs = objective_trace(k, rho, theta)
            rotated_k = KrausSet(
                tuple(basis.conj().T @ op @ basis for op in k.operators), tol=k.tol)
            rotated_rho = DensityMatrix(basis.conj().T @ rho.entries @ basis)
            rhs = scale * objective_trace(rotated_k, rotated_rho, THETA0) + offset
            assert abs(lhs - rhs) < 1e-12

    def test_degenerate_is_flat(self):
        scale, offset, _ = reduce_target(
            TargetOperator(np.diag([0.4, 0.4]).astype(complex))
        )
        assert scale == pytest.approx(0.0) and offset == pytest.approx(0.4)


class TestObjectiveTrace:
    def test_identity_north_pole(self):
        k = KrausSet((IDENTITY2,))
        rho = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
        assert objective_trace(k, rho, THETA0) == pytest.approx(1.0, abs=1e-15)

    def test_dephasing_equator(self):
        k = KrausSet(DEPHASING)
        rho = bloch_to_density(BlochVector(0.8, 0.0, 0.0))
        assert objective_trace(k, rho, THETA0) == pytest.approx(0.5, abs=1e-15)

    def test_identity_target_is_trace(self):
        k = KrausSet((IDENTITY2,))
        rho = bloch_to_density(BlochVector(0.1, 0.2, -0.3))
        theta = TargetOperator(IDENTITY2)
        assert objective_trace(k, rho, theta) == pytest.approx(1.0, abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(13)
        for i in range(50):
            k = random_kraus(1 + i % 4, seed=300 + i)
            val = objective_trace(k, random_density(rng), THETA0)
            assert -1e-12 <= val <= 1.0 + 1e-12


class TestDilation:
    def test_identity_channel(self):
        u = dilate(KrausSet((IDENTITY2,)))
        assert u.ancilla_dim == 1 and u.dim == 2
        assert np.max(np.abs(u.entries - IDENTITY2)) == 0.0

    def test_dephasing_column_action(self):
        u = dilate(KrausSet(DEPHASING))
        assert u.dim == 4
        # |s> x |0> inputs sit at system-major indices 0 and m.
        assert np.allclose(u.entries[:, 0], [1, 0, 0, 0], atol=1e-15)
        assert np.allclose(u.entries[:, 2], [0, 0, 0, 1], atol=1e-15)

    def test_kraus_columns_embedded(self):
        k = random_kraus(3, seed=17)
        u = dilate(k)
        m = k.m
        for s_in, col in ((0, 0), (1, m)):
            stacked = np.array(
                [k.operators[a][s_out, s_in] for s_out in range(2) for a in range(m)]
            )
            order = [s_out * m + a for s_out in range(2) for a in range(m)]
            assert np.max(np.abs(u.entries[order, col] - stacked)) < 1e-15

    def test_random_sets_unitary(self):
        for i in range(10):
            k = random_kraus(4, seed=400 + i)
            u = dilate(k)
            gram = u.entries.conj().T @ u.entries
            assert np.max(np.abs(gram - np.eye(u.dim))) < 1e-10

    def test_verify_identity(self):
        k = KrausSet((IDENTITY2,))
        rho = bloch_to_density(BlochVector(0.3, 0.0, 0.2))
        assert verify_dilation(dilate(k), k, rho) == 0.0

    def test_verify_dephasing(self):
        k = KrausSet(DEPHASING)
        rho = DensityMatrix(np.full((2, 2), 0.5).astype(complex))
        assert verify_dilation(dilate(k), k, rho) < 1e-12

    def test_verify_random(self):
        rng = np.random.default_rng(19)
        for i in range(25):
            k = random_kraus(1 + i % 4, seed=500 + i)
            rho = random_density(rng)
            assert verify_dilation(dilate(k), k, rho) < 1e-12

    def test_dimension_mismatch(self):
        u = dilate(KrausSet(DEPHASING))
        k1 = KrausSet((IDENTITY2,))
        rho = bloch_to_density(BlochVector(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            verify_dilation(u, k1, rho)

    def test_unitary_invariant_enforced(self):
        with pytest.raises(ValueError):
            DilatedUnitary(np.diag([1.0, 2.0]).astype(complex), ancilla_dim=1)


def _edge_channels() -> list:
    """Channels whose prescribed columns sit on or next to standard basis vectors.

    A unitary channel (nothing to complete), the identity with a zero
    second operator and the dephasing channel (columns equal to basis
    vectors), and the identity mixed with a bit flip of weight 1e-9
    (columns within 1e-8 of basis vectors: the candidates a Gram-Schmidt
    completion over the standard basis skips at a 1e-8 cut).
    """
    turn = random_point(2, 2, seed=23).frame
    eps = 1e-9
    return [
        KrausSet((turn,)),
        KrausSet((IDENTITY2, np.zeros((2, 2), dtype=complex))),
        KrausSet(DEPHASING),
        KrausSet((np.sqrt(1.0 - eps**2) * IDENTITY2, eps * PAULI_X)),
        KrausSet(DAMPING),
    ]


def _probe_states(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    poles = [bloch_to_density(BlochVector(*v)).entries
             for v in ((0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0))]
    return np.stack(poles + [random_density(rng).entries for _ in range(3)])


class TestDilationCompletion:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stacked_residual_is_the_largest_probe_residual(self, m):
        # The stacked pass runs verify_dilation's arithmetic on every state
        # at once, so it equals the largest per-state value bitwise.
        for i in range(12):
            k = random_kraus(m, seed=600 + 10 * m + i)
            u = dilate(k)
            states = _probe_states(i)
            expected = max(verify_dilation(u, k, DensityMatrix(r)) for r in states)
            assert _dilation_residual(u, k, states) == expected

    def test_stacked_residual_on_edge_channels(self):
        states = _probe_states(5)
        for k in _edge_channels():
            u = dilate(k)
            expected = max(verify_dilation(u, k, DensityMatrix(r)) for r in states)
            assert _dilation_residual(u, k, states) == expected

    def test_stacked_residual_keeps_the_output_state_check(self):
        # Inside the 1e-10 completeness tolerance, the output trace is off
        # by 2e-11.  The output state check holds the trace to the channel's
        # own tolerance, so verify_dilation and the stacked pass both accept
        # the set and agree.
        k = KrausSet((IDENTITY2 * (1.0 + 1e-11),))
        u = dilate(k)
        states = _probe_states(0)
        expected = max(verify_dilation(u, k, DensityMatrix(r)) for r in states)
        assert _dilation_residual(u, k, states) == expected
        # An input of trace 1 + 1e-9, built around DensityMatrix's own
        # check, maps outside that tolerance: both paths refuse it with the
        # same message.
        off = states[:1] * (1.0 + 1e-9)
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "entries", off[0])
        with pytest.raises(ValueError, match="is not 1 within 2.01e-10") as one:
            verify_dilation(u, k, rho)
        with pytest.raises(ValueError) as stacked:
            _dilation_residual(u, k, off)
        assert str(stacked.value) == str(one.value)

    def test_stacked_residual_rejects_another_ancilla_dimension(self):
        u = dilate(KrausSet(DEPHASING))
        with pytest.raises(ValueError) as err:
            _dilation_residual(u, KrausSet((IDENTITY2,)), _probe_states(0))
        assert str(err.value) == "dilation has ancilla dimension 2, channel has 1 operators"

    def test_qr_completion_is_unitary_and_keeps_the_prescribed_columns(self):
        channels = _edge_channels() + [random_kraus(m, seed=700 + m) for m in (1, 2, 3, 4)]
        for k in channels:
            u = dilate(k).entries
            m = k.m
            assert np.abs(u.conj().T @ u - np.eye(2 * m)).max() <= 1e-12
            for s_in, col in ((0, 0), (1, m)):
                prescribed = [k.operators[a][s_out, s_in]
                              for s_out in range(2) for a in range(m)]
                assert np.array_equal(u[:, col], prescribed)


class TestKrausSetInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KrausSet(())

    def test_rejects_five_operators(self):
        ops = tuple(IDENTITY2 / np.sqrt(5) for _ in range(5))
        with pytest.raises(ValueError):
            KrausSet(ops)

    def test_rejects_a_three_by_three_operator(self):
        with pytest.raises(ValueError) as err:
            KrausSet((np.eye(3, dtype=complex),))
        assert str(err.value) == "Kraus operator must have shape (2, 2), got (3, 3)"

    def test_caller_tolerance(self):
        ops = (IDENTITY2 * (1.0 + 2e-8),)
        with pytest.raises(CompletenessError):
            KrausSet(ops)
        relaxed = KrausSet(ops, tol=1e-6)
        assert relaxed.m == 1
