"""Two-level quantum states and channels.

Density matrices in the Stokes (Bloch) representation, Kraus maps with
their trace-preservation constraint, reduction of a Hermitian target
observable to the rank-one projector, the trace-form yield functional,
and the unitary dilation of a channel onto a system-plus-ancilla space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CompletenessError",
    "BlochVector",
    "DensityMatrix",
    "TargetOperator",
    "KrausSet",
    "DilatedUnitary",
    "THETA0",
    "IDENTITY2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "bloch_to_density",
    "apply_kraus",
    "reduce_target",
    "objective_trace",
    "dilate",
    "verify_dilation",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


class CompletenessError(ValueError):
    """Raised when Kraus operators fail the trace-preservation constraint."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"completeness residual {residual:.6e} exceeds tolerance {tol:.1e}"
        )
        self.residual = residual
        self.tol = tol


def _as_complex(a, shape, what: str) -> np.ndarray:
    """A read-only C-ordered complex copy of ``a``, checked for shape and finiteness."""
    m = np.array(a, dtype=complex, order="C")
    if m.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{what} contains non-finite entries")
    m.setflags(write=False)
    return m


def _eig2_hermitian(m: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Closed-form eigensystem of a 2x2 Hermitian matrix.

    Returns (lambda1, lambda2, basis) with lambda1 >= lambda2 and the
    columns of ``basis`` holding the corresponding orthonormal
    eigenvectors.
    """
    a = m[0, 0].real
    c = m[1, 1].real
    b = m[0, 1]
    h = 0.5 * (a - c)
    r = math.hypot(h, abs(b))
    lam1 = 0.5 * (a + c) + r
    lam2 = 0.5 * (a + c) - r
    # Pick the eigenvector formula that stays away from cancellation.
    if h >= 0.0:
        v1 = np.array([h + r, np.conj(b)], dtype=complex)
    else:
        v1 = np.array([b, r - h], dtype=complex)
    n1 = np.linalg.norm(v1)
    if n1 < 1e-300:
        # Degenerate target: any basis diagonalizes it.
        return lam1, lam2, IDENTITY2.copy()
    v1 = v1 / n1
    v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])], dtype=complex)
    basis = np.column_stack([v1, v2])
    return lam1, lam2, basis


@dataclass(frozen=True)
class BlochVector:
    """Stokes vector (alpha, beta, gamma) of a qubit state, norm <= 1."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ValueError(f"Stokes component {name} must be finite")
            # Checked before the norm is taken, whose squares overflow
            # for components above ~1e154.
            if abs(val) > 1.0 + 1e-12:
                raise ValueError(f"Stokes component {name} = {val!r} exceeds 1")
            object.__setattr__(self, name, val)
        if self.norm() > 1.0 + 1e-12:
            raise ValueError(f"Stokes vector norm {self.norm()!r} exceeds 1")

    def norm(self) -> float:
        return math.sqrt(self.alpha**2 + self.beta**2 + self.gamma**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated 2x2 density matrix: Hermitian, unit trace, positive."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.entries, (2, 2), "density matrix")
        _check_states(m[None])
        object.__setattr__(self, "entries", m)


def _check_states(m: np.ndarray, trace_tol: float = 1e-12) -> None:
    """Check every matrix of a finite (P, 2, 2) stack as a density matrix.

    The one rule of ``DensityMatrix``: Hermitian, unit trace and smallest
    eigenvalue (closed form, as in :func:`_eig2_hermitian`) not below
    zero, each within 1e-12; a channel's outputs have their trace checked
    within ``trace_tol`` (:func:`_output_trace_tol`).  The error names the
    first failing matrix's first failing condition.
    """
    herm = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-12
    tr = m[:, 0, 0] + m[:, 1, 1]
    unit = np.abs(tr - 1.0) > trace_tol
    a, c = m[:, 0, 0].real, m[:, 1, 1].real
    lam2 = 0.5 * (a + c) - np.hypot(0.5 * (a - c), np.abs(m[:, 0, 1]))
    neg = lam2 < -1e-12
    bad = herm | unit | neg
    if bad.any():
        i = np.argmax(bad)
        if herm[i]:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if unit[i]:
            raise ValueError(f"density matrix trace {tr[i]} is not 1 within {trace_tol:g}")
        raise ValueError(f"density matrix has negative eigenvalue {lam2[i]:.3e}")


@dataclass(frozen=True, eq=False)
class TargetOperator:
    """Hermitian 2x2 observable with cached closed-form eigensystem.

    ``lambda1 >= lambda2`` and the columns of ``eigenbasis`` are the
    matching orthonormal eigenvectors, the lambda1 vector first.
    """

    entries: np.ndarray
    lambda1: float = field(init=False)
    lambda2: float = field(init=False)
    eigenbasis: np.ndarray = field(init=False)

    def __post_init__(self):
        m = _as_complex(self.entries, (2, 2), "target operator")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("target operator is not Hermitian within 1e-12")
        lam1, lam2, basis = _eig2_hermitian(m)
        basis.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "lambda1", lam1)
        object.__setattr__(self, "lambda2", lam2)
        object.__setattr__(self, "eigenbasis", basis)


THETA0 = TargetOperator(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def _ops_completeness_residual(ops) -> float:
    acc = np.zeros((2, 2), dtype=complex)
    for op in ops:
        acc += op.conj().T @ op
    return float(np.abs(acc - IDENTITY2).max())


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Between one and four 2x2 Kraus operators summing to the identity.

    The trace-preservation residual ``max_ij |sum_l K_l^+ K_l - I|_ij``
    must stay below ``tol`` (default 1e-10).  A non-finite or negative
    ``tol`` raises ``ValueError``.
    """

    operators: tuple
    tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 <= self.tol < math.inf):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol!r}")
        ops = tuple(_as_complex(op, (2, 2), "Kraus operator") for op in self.operators)
        if not 1 <= len(ops) <= 4:
            raise ValueError(f"expected 1..4 Kraus operators, got {len(ops)}")
        object.__setattr__(self, "operators", ops)
        res = _ops_completeness_residual(ops)
        if res > self.tol:
            raise CompletenessError(res, self.tol)

    @property
    def m(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class DilatedUnitary:
    """Unitary on system x ancilla implementing a Kraus map by restriction."""

    entries: np.ndarray
    ancilla_dim: int

    def __post_init__(self):
        dim = 2 * self.ancilla_dim
        m = _as_complex(self.entries, (dim, dim), "dilated unitary")
        res = np.abs(m.conj().T @ m - np.eye(dim)).max()
        if res > 1e-10:
            raise ValueError(f"dilation unitarity residual {res:.3e} exceeds 1e-10")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return 2 * self.ancilla_dim


def bloch_to_density(w: BlochVector) -> DensityMatrix:
    """Map a Stokes vector to its density matrix (1 + <w, sigma>) / 2."""
    m = 0.5 * (
        IDENTITY2 + w.alpha * PAULI_X + w.beta * PAULI_Y + w.gamma * PAULI_Z
    )
    return DensityMatrix(m)


def _output_trace_tol(k: KrausSet) -> float:
    """How far from 1 the trace of a channel output may lie: 1e-12 + 2 k.tol.

    tr(sum_l K_l rho K_l^+) - 1 = tr(rho E) with E = sum_l K_l^+ K_l - I,
    and a Hermitian 2x2 E whose entries are at most k.tol in modulus has
    eigenvalues of modulus at most 2 k.tol, so every state the channel
    accepts maps within this bound of unit trace.
    """
    return 1e-12 + 2.0 * k.tol


def apply_kraus(k: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Propagate a state through the channel rho -> sum_l K_l rho K_l^+.

    A ``KrausSet`` is frozen, its operators are read-only and its
    completeness was checked when it was built, so none is re-checked here.
    The output is checked by the rule of ``DensityMatrix``, with its trace
    held to the channel's own tolerance (:func:`_output_trace_tol`).
    """
    out = np.zeros((2, 2), dtype=complex)
    r = rho.entries
    for op in k.operators:
        out += op @ r @ op.conj().T
    _check_states(out[None], _output_trace_tol(k))
    out.setflags(write=False)
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "entries", out)
    return state


def reduce_target(theta: TargetOperator) -> tuple[float, float, np.ndarray]:
    """Split a Hermitian target into projector form.

    Returns ``(scale, offset, basis)`` with ``scale = lambda1 - lambda2``,
    ``offset = lambda2``, and ``basis`` the eigenbasis unitary, so that
    in the rotated frame the observable becomes
    ``scale * diag(1, 0) + offset * I``.  A degenerate target gives
    ``scale = 0``: the induced landscape is flat and callers simply see a
    constant objective, never an error.
    """
    return (
        theta.lambda1 - theta.lambda2,
        theta.lambda2,
        np.array(theta.eigenbasis),
    )


def objective_trace(k: KrausSet, rho0: DensityMatrix, theta: TargetOperator) -> float:
    """Yield Tr[Phi(rho0) Theta] of the channel output against the target.

    For ``theta = THETA0`` this is the (1,1) entry of the output state and
    lies in [0, 1].
    """
    out = apply_kraus(k, rho0)
    val = np.trace(out.entries @ theta.entries)
    return float(val.real)


def _dilation_columns(k: KrausSet) -> np.ndarray:
    """The two prescribed unitary columns, one per system basis state, as (2M, 2).

    Basis ordering is system-major: index s*M + a holds system state s and
    ancilla state a.  Column s stacks entry (s', s) of operator a at index
    s'*M + a, so the image of |s> x |0> carries K_a |s> in ancilla sector a.
    """
    # Axes of the operator stack: operator a, output s', input s.
    return np.stack(k.operators).swapaxes(0, 1).reshape(2 * k.m, 2)


def dilate(k: KrausSet) -> DilatedUnitary:
    """Build a unitary on a 2M-dimensional space that restricts to the channel.

    The ancilla starts in its first basis state; the two columns acting on
    |psi> x |0> (columns 0 and M) are fixed by the Kraus operators, entry
    for entry.  The remaining 2M - 2 columns, in index order, are the last
    2M - 2 columns of one complete QR factorisation of the two prescribed
    columns: an orthonormal basis of their orthogonal complement.
    """
    m = k.m
    cols = _dilation_columns(k)
    u = np.empty((2 * m, 2 * m), dtype=complex)
    u[:, [0, m]] = cols
    free = [j for j in range(1, 2 * m) if j != m]
    u[:, free] = np.linalg.qr(cols, mode="complete")[0][:, 2:]
    return DilatedUnitary(u, ancilla_dim=m)


def _dilation_residual(u: DilatedUnitary, k: KrausSet, rhos: np.ndarray) -> float:
    """The largest :func:`verify_dilation` residual over a (P, 2, 2) stack of states.

    ``rhos`` holds the entries of valid density matrices.  All P states
    go through the same evolution, partial trace and comparison as
    :func:`verify_dilation`, as stacks, so the result equals the maximum
    of its P values; the channel's outputs are checked once, as one
    stack, by the rule of :func:`apply_kraus`.
    """
    m = k.m
    if u.ancilla_dim != m:
        raise ValueError(
            f"dilation has ancilla dimension {u.ancilla_dim}, channel has {m} operators"
        )
    # rho x |0><0| for every state: the Kronecker product's entries.
    big = np.zeros((len(rhos), 2 * m, 2 * m), dtype=complex)
    big[:, ::m, ::m] = rhos
    ue = u.entries
    evolved = ue @ big @ ue.conj().T
    # Block traces over the ancilla.  Summed along a contiguous last axis,
    # each diagonal takes the same summation order as a 2D ``trace()``.
    diag = evolved.reshape(-1, 2, m, 2, m).diagonal(axis1=2, axis2=4)
    reduced = np.ascontiguousarray(diag).sum(axis=-1)
    # apply_kraus on every state: the operators' terms, summed in their order.
    ops = np.stack(k.operators)[:, None]
    direct = (ops @ rhos @ ops.conj().swapaxes(-1, -2)).sum(axis=0)
    _check_states(direct, _output_trace_tol(k))
    return float(np.abs(reduced - direct).max())


def verify_dilation(u: DilatedUnitary, k: KrausSet, rho: DensityMatrix) -> float:
    """Max-abs residual between the dilated evolution and the Kraus map.

    Evolves rho x |0><0| by the unitary, traces out the ancilla, and
    compares against :func:`apply_kraus`.
    """
    m = k.m
    if u.ancilla_dim != m:
        raise ValueError(
            f"dilation has ancilla dimension {u.ancilla_dim}, channel has {m} operators"
        )
    p0 = np.zeros((m, m), dtype=complex)
    p0[0, 0] = 1.0
    big = np.kron(rho.entries, p0)
    evolved = u.entries @ big @ u.entries.conj().T
    reduced = np.zeros((2, 2), dtype=complex)
    for s in (0, 1):
        for t in (0, 1):
            reduced[s, t] = evolved[s * m : (s + 1) * m, t * m : (t + 1) * m].trace()
    direct = apply_kraus(k, rho)
    return float(np.abs(reduced - direct.entries).max())
