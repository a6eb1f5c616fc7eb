"""Objective landscape of the two-level Kraus-map control problem.

The yield functional in channel coordinates, the norm-dependent unitary
change of coordinates that diagonalizes it, exact constructors for every
critical sub-manifold together with their predicted values and Morse
signatures, Wirtinger gradients, the closed-form Riemannian Hessian on
the constraint manifold, stationarity certificates, and the
value-reversing duality of the landscape.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .qcore import BlochVector
from .stiefel import (
    KrausPoint,
    TangentBasis,
    TangentVector,
    orthonormal_tangent_basis,
    _haar_frame,
    _project_mat,
    _validate_blocks,
    _worst_residual,
)

__all__ = [
    "IllegalManifoldError",
    "LandscapeParams",
    "CoordChange",
    "DiagCoords",
    "ManifoldTag",
    "CriticalManifoldId",
    "MorseSignature",
    "CriticalPointCertificate",
    "coord_change",
    "objective_uv",
    "objective_diag",
    "to_diag",
    "from_diag",
    "euclidean_gradient",
    "riemannian_gradient",
    "critical_point",
    "predicted_value",
    "predicted_morse",
    "hessian_form",
    "morse_signature",
    "lagrange_certificate",
    "duality_map",
    "saddle_values",
]

# Below this norm the state sits at the center of the ball and the
# landscape has the single mixed saddle level; above 1 - 1e-12 the state
# is treated as pure and the saddle levels disappear.
_MIXED_NORM_TOL = 1e-14
_PURE_NORM_TOL = 1e-12
# Transverse offset magnitude below which the coordinate change loses its
# generic branch and falls back to a permutation.
_Z0_TOL = 1e-14


class IllegalManifoldError(ValueError):
    """Requested critical manifold does not exist for the given state."""


@dataclass(frozen=True)
class LandscapeParams:
    """Initial-state data driving the landscape.

    Derived fields, cached at construction: ``z0 = alpha - i beta`` (the
    transverse offset), ``lambda_plus/lambda_minus = (1 +/- |w|) / 2``
    (the output-purity weights), the Stokes norm, and the longitudinal
    component ``gamma``.
    """

    w: BlochVector
    z0: complex = field(init=False)
    norm_w: float = field(init=False)
    gamma: float = field(init=False)
    lambda_plus: float = field(init=False)
    lambda_minus: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.w, BlochVector):
            object.__setattr__(self, "w", BlochVector(*self.w))
        norm = self.w.norm()
        object.__setattr__(self, "z0", complex(self.w.alpha, -self.w.beta))
        object.__setattr__(self, "norm_w", norm)
        object.__setattr__(self, "gamma", self.w.gamma)
        object.__setattr__(self, "lambda_plus", 0.5 * (1.0 + norm))
        object.__setattr__(self, "lambda_minus", 0.5 * (1.0 - norm))

    @property
    def case(self) -> int:
        """1 for the fully mixed state, 3 for a pure state, else 2."""
        n = self.norm_w
        if n < _MIXED_NORM_TOL:
            return 1
        if n > 1.0 - _PURE_NORM_TOL:
            return 3
        return 2


class _Branch(str, enum.Enum):
    GENERIC = "generic"
    Z0_ZERO_GAMMA_NONNEG = "z0_zero_gamma_nonneg"
    Z0_ZERO_GAMMA_NEG = "z0_zero_gamma_neg"


@dataclass(frozen=True)
class CoordChange:
    """Unitary mixing that diagonalizes the objective.

    On the generic branch the forward map is
    ``ut1 = mu u1 + phase nu u2`` and ``ut2 = -nu u1 + phase mu u2`` (the
    same mixing acts on v1, v2) with ``mu^2 + nu^2 = 1`` and
    ``phase = conj(z0)/|z0|``.  When the transverse offset vanishes the
    map degenerates to the identity (gamma >= 0) or to the swap
    ``ut1 = u2, ut2 = u1, vt1 = v2, vt2 = v1`` (gamma < 0).
    """

    mu: float
    nu: float
    phase: complex
    branch: _Branch

    def __post_init__(self):
        if abs(abs(self.phase) - 1.0) > 1e-12:
            raise ValueError("coordinate-change phase must be unimodular")
        if self.branch == _Branch.GENERIC:
            if abs(self.mu**2 + self.nu**2 - 1.0) > 1e-12:
                raise ValueError("generic branch requires mu^2 + nu^2 = 1")


def coord_change(params: LandscapeParams) -> CoordChange:
    """Coordinate change for the given state, stable near the poles."""
    z0 = params.z0
    if abs(z0) < _Z0_TOL:
        if params.gamma >= 0.0:
            return CoordChange(1.0, 0.0, 1.0 + 0.0j, _Branch.Z0_ZERO_GAMMA_NONNEG)
        return CoordChange(0.0, 1.0, 1.0 + 0.0j, _Branch.Z0_ZERO_GAMMA_NEG)
    wn = params.norm_w
    gamma = params.gamma
    # |z0|^2 = (wn - gamma)(wn + gamma); compute the smaller factor by
    # division to avoid cancellation when gamma dominates.
    if gamma >= 0.0:
        s_plus = wn + gamma
        s_minus = (abs(z0) ** 2) / s_plus
    else:
        s_minus = wn - gamma
        s_plus = (abs(z0) ** 2) / s_minus
    mu = math.sqrt(s_plus / (2.0 * wn))
    nu = math.sqrt(s_minus / (2.0 * wn))
    phase = np.conj(z0) / abs(z0)
    return CoordChange(mu, nu, complex(phase), _Branch.GENERIC)


@dataclass(frozen=True, eq=False)
class DiagCoords:
    """Channel coordinates after the diagonalizing mixing, same constraints."""

    ut1: np.ndarray
    ut2: np.ndarray
    vt1: np.ndarray
    vt2: np.ndarray

    def __post_init__(self):
        _validate_blocks(self, ("ut1", "ut2", "vt1", "vt2"), "diagonal")


class ManifoldTag(str, enum.Enum):
    GLOBAL_MIN = "global-min"
    GLOBAL_MAX = "global-max"
    SADDLE_MINUS = "saddle-minus"
    SADDLE_PLUS = "saddle-plus"
    MIXED_SADDLE = "mixed-saddle"


@dataclass(frozen=True)
class CriticalManifoldId:
    """Which critical sub-manifold, plus the free chart parameter.

    ``z`` is meaningful only for the mixed saddle of the fully mixed
    state; ``z=None`` there selects the boundary chart ``ut1 = vt2 = 0``.
    """

    tag: ManifoldTag
    z: complex | None = None

    def __post_init__(self):
        if self.z is not None:
            if self.tag != ManifoldTag.MIXED_SADDLE:
                raise ValueError("chart parameter z applies to the mixed saddle only")
            z = complex(self.z)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("chart parameter z must be finite")
            object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class MorseSignature:
    """Inertia of the constrained Hessian: positive, negative, null counts."""

    nu_plus: int
    nu_minus: int
    nu_zero: int

    def __post_init__(self):
        counts = (self.nu_plus, self.nu_minus, self.nu_zero)
        if any(c < 0 for c in counts):
            raise ValueError("signature counts must be non-negative")
        if sum(counts) != 28:
            raise ValueError("signature counts must sum to the tangent dimension 28")


@dataclass(frozen=True)
class CriticalPointCertificate:
    """Least-squares multipliers for the first-order stationarity system."""

    point: "KrausPoint"
    eta1: float
    eta2: float
    eta3: complex
    stationarity_residual: float
    constraint_residual: float


def _objective_mat(w: np.ndarray, params: LandscapeParams) -> np.ndarray:
    """Yield on raw 8x2 frames; broadcasts over leading axes.

    Only real elementwise products and sums over the last axis are used,
    so a frame's value is bitwise the same alone and in any stack (numpy's
    complex product loops differ between small and large arrays).
    """
    u1 = w[..., 0:4, 0]
    u2 = w[..., 0:4, 1]
    r1, i1, r2, i2 = u1.real, u1.imag, u2.real, u2.imag
    n1 = (r1**2 + i1**2).sum(axis=-1)
    n2 = (r2**2 + i2**2).sum(axis=-1)
    # Re(z0 <u2, u1>) = Re sum(u1 * conj(s)) with s = conj(z0) * u2.
    a, b = params.z0.real, params.z0.imag
    cross = (r1 * (a * r2 + b * i2) + i1 * (a * i2 - b * r2)).sum(axis=-1)
    gamma = params.gamma
    val = 0.5 * ((1.0 + gamma) * n1 + (1.0 - gamma) * n2) + cross
    return val


def _grad_mat(w: np.ndarray, params: LandscapeParams) -> np.ndarray:
    """Wirtinger gradient (derivative in the conjugated entries) on 8x2 frames.

    Linear in ``w``; broadcasts over leading axes.
    """
    u1 = w[..., 0:4, 0]
    u2 = w[..., 0:4, 1]
    gamma = params.gamma
    z0 = params.z0
    g = np.zeros(w.shape, dtype=complex)
    g[..., 0:4, 0] = 0.5 * ((1.0 + gamma) * u1 + np.conj(z0) * u2)
    g[..., 0:4, 1] = 0.5 * (z0 * u1 + (1.0 - gamma) * u2)
    return g


def _rgrad_mat(w: np.ndarray, params: LandscapeParams) -> np.ndarray:
    """Gradient for the real trace metric, projected onto the tangent space."""
    return _project_mat(w, 2.0 * _grad_mat(w, params))


def _grad_sym_mat(w: np.ndarray, params: LandscapeParams) -> np.ndarray:
    """sym(X^H grad J) of the Euclidean gradient grad J = 2 P X N; broadcasts."""
    s = np.swapaxes(w.conj(), -1, -2) @ (2.0 * _grad_mat(w, params))
    return 0.5 * (s + np.swapaxes(s.conj(), -1, -2))


def _hess_ambient_mat(
    xi: np.ndarray, sym: np.ndarray, params: LandscapeParams
) -> np.ndarray:
    """Ambient Hessian term 2 P xi N - xi sym(X^H grad J); broadcasts.

    ``sym`` is :func:`_grad_sym_mat` at the base frame X.  Projected onto
    the tangent space at X, the result is the Riemannian Hessian
    Hess J[xi] of a tangent ``xi`` (see :func:`hessian_form`).
    """
    return 2.0 * _grad_mat(xi, params) - xi @ sym


def objective_uv(p: KrausPoint, params: LandscapeParams) -> float:
    """Yield in channel coordinates.

    Equals ((1+gamma)|u1|^2 + (1-gamma)|u2|^2)/2 + Re(z0 <u2, u1>) and
    agrees with the trace form on the channel output state.
    """
    return float(_objective_mat(p.matrix, params))


def objective_diag(d: DiagCoords, params: LandscapeParams) -> float:
    """Yield in diagonal coordinates: lambda_plus|ut1|^2 + lambda_minus|ut2|^2."""
    n1 = float(np.vdot(d.ut1, d.ut1).real)
    n2 = float(np.vdot(d.ut2, d.ut2).real)
    return params.lambda_plus * n1 + params.lambda_minus * n2


def _forward_blocks(cc: CoordChange, b1, b2):
    """Apply the diagonalizing mixing to a (first, second) block pair."""
    if cc.branch == _Branch.GENERIC:
        t1 = cc.mu * b1 + cc.phase * cc.nu * b2
        t2 = -cc.nu * b1 + cc.phase * cc.mu * b2
        return t1, t2
    if cc.branch == _Branch.Z0_ZERO_GAMMA_NONNEG:
        return b1.copy(), b2.copy()
    return b2.copy(), b1.copy()


def _backward_blocks(cc: CoordChange, t1, t2):
    """Invert the diagonalizing mixing on a (first, second) block pair."""
    if cc.branch == _Branch.GENERIC:
        b1 = cc.mu * t1 - cc.nu * t2
        b2 = np.conj(cc.phase) * (cc.nu * t1 + cc.mu * t2)
        return b1, b2
    if cc.branch == _Branch.Z0_ZERO_GAMMA_NONNEG:
        return t1.copy(), t2.copy()
    return t2.copy(), t1.copy()


def to_diag(p: KrausPoint, params: LandscapeParams) -> DiagCoords:
    """Rotate channel coordinates into the frame that diagonalizes the yield."""
    cc = coord_change(params)
    ut1, ut2 = _forward_blocks(cc, p.u1, p.u2)
    vt1, vt2 = _forward_blocks(cc, p.v1, p.v2)
    return DiagCoords(ut1=ut1, ut2=ut2, vt1=vt1, vt2=vt2)


def from_diag(d: DiagCoords, params: LandscapeParams) -> KrausPoint:
    """Inverse of :func:`to_diag`."""
    cc = coord_change(params)
    u1, u2 = _backward_blocks(cc, d.ut1, d.ut2)
    v1, v2 = _backward_blocks(cc, d.vt1, d.vt2)
    return KrausPoint(u1=u1, u2=u2, v1=v1, v2=v2)


def euclidean_gradient(p: KrausPoint, params: LandscapeParams):
    """Wirtinger gradient blocks (dJ/du1*, dJ/du2*, 0, 0)."""
    g = _grad_mat(p.matrix, params)
    zero = np.zeros(4, dtype=complex)
    return g[0:4, 0], g[0:4, 1], zero, zero.copy()


def riemannian_gradient(p: KrausPoint, params: LandscapeParams) -> TangentVector:
    """Manifold gradient for the real trace inner product.

    The real-metric ambient gradient is twice the Wirtinger gradient;
    projecting it onto the tangent space gives the direction realizing
    dJ(t) = <grad, t> for every tangent t.
    """
    base = p.to_stiefel()
    return TangentVector(base=base, delta=_rgrad_mat(base.frame, params))


def saddle_values(params: LandscapeParams) -> tuple[float, ...]:
    """Critical values strictly between the extremes, possibly empty."""
    case = params.case
    if case == 1:
        return (0.5,)
    if case == 2:
        return (params.lambda_minus, params.lambda_plus)
    return ()


def _ensure_legal(mid: CriticalManifoldId, params: LandscapeParams) -> None:
    tag = mid.tag
    case = params.case
    if tag in (ManifoldTag.GLOBAL_MIN, ManifoldTag.GLOBAL_MAX):
        return
    if tag == ManifoldTag.MIXED_SADDLE:
        if case != 1:
            raise IllegalManifoldError(
                "the mixed saddle exists only for the fully mixed state"
            )
        return
    # Remaining tags are the paired saddles.
    if case != 2:
        raise IllegalManifoldError(
            f"{tag.value} requires 0 < |w| < 1 (state has |w| = {params.norm_w:.6g})"
        )


def predicted_value(mid: CriticalManifoldId, params: LandscapeParams) -> float:
    """Exact objective value on the requested critical sub-manifold."""
    _ensure_legal(mid, params)
    tag = mid.tag
    if tag == ManifoldTag.GLOBAL_MIN:
        return 0.0
    if tag == ManifoldTag.GLOBAL_MAX:
        return 1.0
    if tag == ManifoldTag.SADDLE_MINUS:
        return params.lambda_minus
    if tag == ManifoldTag.SADDLE_PLUS:
        return params.lambda_plus
    return 0.5


def predicted_morse(mid: CriticalManifoldId, params: LandscapeParams) -> MorseSignature:
    """Exact Hessian inertia on the requested saddle manifold."""
    _ensure_legal(mid, params)
    tag = mid.tag
    if tag == ManifoldTag.SADDLE_MINUS:
        return MorseSignature(8, 6, 14)
    if tag == ManifoldTag.SADDLE_PLUS:
        return MorseSignature(6, 8, 14)
    if tag == ManifoldTag.MIXED_SADDLE:
        return MorseSignature(6, 6, 16)
    raise IllegalManifoldError(
        "extremal manifolds have semi-definite Hessians; no saddle signature"
    )


def _haar_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def _critical_diag_blocks(
    mid: CriticalManifoldId, params: LandscapeParams, rng: np.random.Generator
):
    """Diagonal-coordinate blocks of a random point on the sub-manifold."""
    zero = np.zeros(4, dtype=complex)
    tag = mid.tag
    case = params.case
    if tag == ManifoldTag.GLOBAL_MIN:
        if case == 3:
            vt1 = _haar_unit(rng)
            ut2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vt2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vt2 = vt2 - vt1 * np.vdot(vt1, vt2)
            scale = math.sqrt(np.vdot(ut2, ut2).real + np.vdot(vt2, vt2).real)
            return zero, ut2 / scale, vt1, vt2 / scale
        frame = _haar_frame(4, 2, rng)
        return zero, zero.copy(), frame[:, 0], frame[:, 1]
    if tag == ManifoldTag.GLOBAL_MAX:
        if case == 3:
            ut1 = _haar_unit(rng)
            ut2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ut2 = ut2 - ut1 * np.vdot(ut1, ut2)
            vt2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            scale = math.sqrt(np.vdot(ut2, ut2).real + np.vdot(vt2, vt2).real)
            return ut1, ut2 / scale, zero, vt2 / scale
        frame = _haar_frame(4, 2, rng)
        return frame[:, 0], frame[:, 1], zero, zero.copy()
    if tag == ManifoldTag.SADDLE_MINUS:
        return zero, _haar_unit(rng), _haar_unit(rng), zero.copy()
    if tag == ManifoldTag.SADDLE_PLUS:
        return _haar_unit(rng), zero, zero.copy(), _haar_unit(rng)
    # Mixed saddle of the fully mixed state.
    if mid.z is None:
        return zero, _haar_unit(rng), _haar_unit(rng), zero.copy()
    z = complex(mid.z)
    a = _haar_unit(rng)
    b = _haar_unit(rng)
    s = 1.0 / math.sqrt(1.0 + abs(z) ** 2)
    return s * a, z * s * a, -np.conj(z) * s * b, s * b


def critical_point(
    mid: CriticalManifoldId, params: LandscapeParams, seed: int
) -> KrausPoint:
    """Exact random point on a critical sub-manifold.

    The seed picks the free directions within the sub-manifold; the
    construction itself is exact, so the Riemannian gradient vanishes to
    rounding error.
    """
    _ensure_legal(mid, params)
    rng = np.random.default_rng(seed)
    ut1, ut2, vt1, vt2 = _critical_diag_blocks(mid, params, rng)
    return from_diag(DiagCoords(ut1=ut1, ut2=ut2, vt1=vt1, vt2=vt2), params)


def morse_signature(h: np.ndarray, zero_tol: float = 1e-12) -> MorseSignature:
    """Inertia of a symmetric matrix with a relative null threshold.

    Eigenvalues within ``zero_tol * max(1, spectral radius)`` of zero
    count as null.  The default 1e-12 sits between the null eigenvalues
    of :func:`hessian_form` (rounding level, ~1e-15) and its smallest
    non-null ones, which shrink like |w| towards the fully mixed state.
    """
    h = np.asarray(h, dtype=float)
    sym = 0.5 * (h + h.T)
    eigs = np.linalg.eigvalsh(sym)
    radius = float(np.abs(eigs).max()) if eigs.size else 0.0
    cut = zero_tol * max(1.0, radius)
    n_pos = int(np.sum(eigs > cut))
    n_neg = int(np.sum(eigs < -cut))
    return MorseSignature(n_pos, n_neg, eigs.size - n_pos - n_neg)


def hessian_form(
    p: KrausPoint,
    params: LandscapeParams,
    basis: TangentBasis | None = None,
) -> np.ndarray:
    """Closed-form Riemannian Hessian of the yield in an orthonormal tangent basis.

    The yield is the Brockett-type cost J(X) = Re tr(X^H P X N), with P
    the projector onto the u-rows of the 8x2 frame X and N the 2x2 state
    matrix, so the Riemannian Hessian for the real trace metric on the
    Stiefel manifold is Hess J[xi] = Proj_X(2 P xi N - xi sym(X^H grad J))
    with grad J = 2 P X N the Euclidean gradient (Absil, Mahony and
    Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008).  The
    ambient term is :func:`_hess_ambient_mat`, the one the optimizer's
    Hessian-vector products use.  The returned symmetric matrix is
    H_ij = Re<t_i, Hess J[t_j]>; the projection drops out because every
    t_i is tangent.  At a critical point it equals the second
    derivative of J(retract(p, s.t)) for any retraction, so its inertia is
    the Morse signature; a warning is issued when the gradient norm
    exceeds 1e-6.
    """
    base = p.to_stiefel()
    w = base.frame
    grad_norm = float(np.linalg.norm(_rgrad_mat(w, params)))
    if grad_norm > 1e-6:
        warnings.warn(
            f"Hessian requested at a point with gradient norm {grad_norm:.3e}; "
            "the inertia is only meaningful at critical points",
            stacklevel=2,
        )
    if basis is None:
        basis = orthonormal_tangent_basis(base)
    elif not np.array_equal(basis.base.frame, w):
        raise ValueError("tangent basis is not based at the given point")
    t = basis.as_array()
    hess_t = _hess_ambient_mat(t, _grad_sym_mat(w, params), params)
    out = np.einsum("inj,mnj->im", t.conj(), hess_t).real
    return 0.5 * (out + out.T)


def lagrange_certificate(
    p: KrausPoint, params: LandscapeParams
) -> CriticalPointCertificate:
    """Fit stationarity multipliers and report the leftover residuals.

    First-order stationarity on the constraint manifold reads, blockwise
    in the conjugated-variable derivatives,

        g_u1 + eta1 u1 + conj(eta3) u2 = 0
        g_u2 + eta3 u1 + eta2 u2 = 0
               eta1 v1 + conj(eta3) v2 = 0
               eta3 v1 + eta2 v2 = 0

    with eta1, eta2 real and eta3 complex.  The multipliers are fit by
    linear least squares; ``stationarity_residual`` is the equation norm
    after the fit and is small exactly at critical points.
    """
    g = _grad_mat(p.matrix, params)
    b = np.concatenate([g[0:4, 0], g[0:4, 1], np.zeros(4), np.zeros(4)])
    zero = np.zeros(4, dtype=complex)
    col1 = np.concatenate([p.u1, zero, p.v1, zero])
    col2 = np.concatenate([zero, p.u2, zero, p.v2])
    col3 = np.concatenate([p.u2, p.u1, p.v2, p.v1])
    col4 = np.concatenate([-1j * p.u2, 1j * p.u1, -1j * p.v2, 1j * p.v1])
    cols = np.column_stack([col1, col2, col3, col4])
    a_real = np.vstack([cols.real, cols.imag])
    b_real = np.concatenate([b.real, b.imag])
    theta, _, _, _ = np.linalg.lstsq(a_real, -b_real, rcond=None)
    residual = float(np.linalg.norm(a_real @ theta + b_real))
    return CriticalPointCertificate(
        point=p,
        eta1=float(theta[0]),
        eta2=float(theta[1]),
        eta3=complex(theta[2], theta[3]),
        stationarity_residual=residual,
        constraint_residual=_worst_residual(p.u1, p.u2, p.v1, p.v2),
    )


def duality_map(p: KrausPoint) -> KrausPoint:
    """Swap the two operator rows: (u1,u2,v1,v2) -> (v1,v2,u1,u2).

    An involution of the constraint manifold; the objective values of a
    point and its image always sum to one.
    """
    return KrausPoint(u1=p.v1, u2=p.v2, v1=p.u1, v2=p.u2)
