"""Objective landscape of the two-level Kraus-map control problem.

The yield J = tr(M N) / 2 in channel coordinates (M = U^H U, the Gram
matrix of the frame's u-rows; N the 2x2 state matrix) and in the
diagonal coordinates of N's eigenbasis (:func:`coord_change`); one
table of each state's critical sub-manifolds with their values, Morse
signatures and block masks (:func:`_critical_manifolds`), which the
predictions, the critical-frame draw and the classifier read; Wirtinger
gradients, the closed-form Riemannian Hessian on the constraint
manifold, stationarity certificates, and the value-reversing duality.

One first-order kernel (:func:`_first_order`, from the Gram product of
:func:`_gram`) and one Hessian-vector kernel (:func:`_hess_vec`) serve
the optimizer, the Morse Hessian, the Riemannian gradient, the
classifier and the level transfer; outside the optimizer a frame's
first-order pass is one call of :func:`_first_order_mat`.  They work on the float view of frames, in which
right-multiplication by a complex 2x2 matrix is a real 4x4 product
(:func:`_right_factor`).
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .qcore import BlochVector, _eigenbasis
from .stiefel import (
    _HERMITIAN_BASIS,
    KrausPoint,
    TangentVector,
    _frame_residuals,
    _haar_frames,
    _seeded_rng,
    _tangent_stack,
    _validate_blocks,
)

__all__ = [
    "IllegalManifoldError",
    "LandscapeParams",
    "DiagCoords",
    "ManifoldTag",
    "CriticalManifoldId",
    "MorseSignature",
    "CriticalPointCertificate",
    "coord_change",
    "objective_uv",
    "objective_diag",
    "to_diag",
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


def coord_change(params: LandscapeParams) -> np.ndarray:
    """N's eigenbasis: a read-only 2x2 unitary B, N B = B diag(1+|w|, 1-|w|).

    N = [[1+gamma, z0], [conj(z0), 1-gamma]] = I + w.sigma is the state
    matrix of the yield J(X) = Re tr(X^H P X N) / 2, so a frame X has the
    diagonal coordinates X B (:func:`to_diag`).  B is the closed form of
    ``qcore._eigenbasis``, which a target observable's eigenbasis shares;
    when the transverse offset z0 vanishes it is the identity
    (gamma >= 0) or the swap (gamma < 0).
    """
    return _eigenbasis(params.z0, params.gamma, params.norm_w)


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
            # A modulus past the float range makes abs(z) raise OverflowError.
            if not math.isfinite(math.hypot(z.real, z.imag)):
                raise ValueError("chart parameter z and its modulus must be finite")
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


def _right_factor(c: np.ndarray) -> np.ndarray:
    """R(C): right-multiplication by complex 2x2 matrices C on float views.

    The float view of an 8x2 frame X is the 8x4 real array X_r with rows
    [Re x0, Im x0, Re x1, Im x1]; then (X C)_r = X_r R(C).  Each entry
    c = a + ib of C becomes the real 2x2 block [[a, b], [-b, a]], so
    R(A B) = R(A) R(B) and R(C^H) = R(C)^T.  Broadcasts over leading axes.
    """
    c = np.asarray(c, dtype=complex)
    re, im = c.real, c.imag
    # Axes: row of C, its (re, im) part, column of C, its (re, im) part.
    r = np.empty(c.shape[:-2] + (2, 2, 2, 2))
    r[..., :, 0, :, 0] = re
    r[..., :, 0, :, 1] = im
    r[..., :, 1, :, 0] = -im
    r[..., :, 1, :, 1] = re
    return r.reshape(c.shape[:-2] + (4, 4))


def _weight_factor(params: LandscapeParams) -> np.ndarray:
    """R(N) of the state matrix N = [[1 + gamma, z0], [conj(z0), 1 - gamma]]."""
    g, z0 = params.gamma, params.z0
    return _right_factor(np.array([[1.0 + g, z0], [np.conj(z0), 1.0 - g]]))


def _sym_factor() -> np.ndarray:
    """The 16x16 L with (T_flat L) = R(S) for T = G + G^T, S = sym(X^H P X N).

    For G = X_r^T Y_r, R(X^H Y) = G - E G E with E = R(i I), so
    R(S) = (T - E T E) / 2.  Each entry of E T E is plus or minus one
    entry of T, so every column of L holds two entries +-1/2: the product
    is one rounded sum of two exact halves, the same in any BLAS kernel.
    """
    e = _right_factor(1j * np.eye(2))
    basis = np.eye(16).reshape(16, 4, 4)
    return (0.5 * (basis - e @ basis @ e)).reshape(16, 16)


_NORMAL_FACTORS = _right_factor(_HERMITIAN_BASIS)
_SYM_FACTOR = _sym_factor()
# Selects R(N) for the u-rows of the factor [R(N) - R(S); -R(S)].
_U_ROWS = np.array([1.0, 0.0]).reshape(2, 1, 1)
for _table in (_NORMAL_FACTORS, _SYM_FACTOR, _U_ROWS):
    _table.setflags(write=False)


def _gram(xr: np.ndarray, rn: np.ndarray) -> np.ndarray:
    """G = X_r^T P X_r R(N) of float views X_r of frames; broadcasts.

    ``rn`` is R(N) (:func:`_weight_factor`) and P keeps the u-rows, so
    G = (U_r^T U_r) R(N) with U_r the first four rows.  The yield is
    J = Re tr(X^H P X N) / 2 = tr(G) / 2, and G holds sym(X^H P X N) of
    :func:`_first_order`.  Every product is one 4x4 BLAS product per
    frame, so a frame's G is bitwise the same alone and in any stack.
    """
    u = xr[..., :4, :]
    # A copy of U_r: numpy runs a product of an array with its own
    # transpose as a rank-k update plus a triangle copy per frame, several
    # times slower here than the general product.
    return (u.swapaxes(-1, -2) @ u.copy()) @ rn


def _gram_value(g: np.ndarray) -> np.ndarray:
    """The yield J = tr(G) / 2 of each Gram product of :func:`_gram`."""
    return 0.5 * g.trace(axis1=-2, axis2=-1)


def _quotient_value(m, params: LandscapeParams):
    """The yield J = Re tr(M N) / 2 of Gram matrices M = U^H U, given entrywise.

    ``m`` holds (m11, m22, Re m12, Im m12) along its first axis; J is
    linear in M, ((1 + gamma) m11 + (1 - gamma) m22) / 2 + Re(m12 conj(z0)),
    so a frame's value needs only its 2x2 Gram data.  Works entrywise on
    arrays of any shape.
    """
    g, z0 = params.gamma, params.z0
    return 0.5 * ((1.0 + g) * m[0] + (1.0 - g) * m[1]) + (z0.real * m[2] + z0.imag * m[3])


def _objective_mat(w: np.ndarray, params: LandscapeParams) -> np.ndarray:
    """Yield on complex (..., 8, 2) frames: :func:`_gram_value` of :func:`_gram`.

    The one value kernel: a frame has one value, bitwise the same alone
    and in any stack.  The optimizer reads J the same way of X B in N's
    eigenbasis (:func:`analysis._descend`), which is this value where B
    is the identity (the z axis with gamma >= 0) and differs from it in
    the last bits elsewhere.
    """
    xr = np.ascontiguousarray(w, dtype=complex).view(np.float64)
    return _gram_value(_gram(xr, _weight_factor(params)))


def _first_order(xr: np.ndarray, g: np.ndarray, rn: np.ndarray):
    """Riemannian gradient and Hessian factor of frames from their Gram product.

    For J(X) = Re tr(X^H P X N) / 2 the Euclidean gradient for the real
    trace metric is P X N, and the Riemannian gradient is its tangent
    part P X N - X S with S = sym(X^H P X N).  On float views that is
    one product of the u- and v-rows by F = [R(N) - R(S); -R(S)], which
    is also the factor of the Hessian-vector product
    (:func:`_hess_vec`).  ``g`` is :func:`_gram` of ``xr``.  Returns the
    gradient as float rows (..., 8, 4) and F as (..., 2, 4, 4).
    """
    sh = xr.shape[:-2]
    t = g + g.swapaxes(-1, -2)
    rs = (t.reshape(sh + (16,)) @ _SYM_FACTOR).reshape(sh + (1, 4, 4))
    f = rn * _U_ROWS - rs
    grad = xr.reshape(sh + (2, 4, 4)) @ f
    return grad.reshape(xr.shape), f


def _normals(xr: np.ndarray) -> np.ndarray:
    """The normal directions X H_k of frames, as flat (..., 4, 32) float rows.

    The four are orthonormal for the real trace metric wherever X^H X = I,
    and span the normal space {X H : H Hermitian}.  Each entry sums one
    float of X times +-1 or +-1/sqrt 2 and exact zeros, so every BLAS
    kernel gives the same bits.
    """
    sh = xr.shape[:-2]
    return (xr.reshape(sh + (1, 8, 4)) @ _NORMAL_FACTORS).reshape(sh + (4, 32))


def _hess_vec(xi: np.ndarray, f: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Riemannian Hessian-vector products Hess J[xi] on flat (..., 32) float rows.

    Hess J[xi] = Proj_X(P xi N - xi S), S = sym(X^H P X N) (Absil,
    Mahony and Sepulchre, *Optimization Algorithms on Matrix Manifolds*,
    2008).  The ambient term is one product of xi's u- and v-rows by the
    factor F of :func:`_first_order`; the projection subtracts its
    components along the normal directions ``nb`` of :func:`_normals`.
    Each product runs per frame, so a row is bitwise the same alone and
    in any stack.
    """
    sh = xi.shape[:-1]
    a = (xi.reshape(sh + (2, 4, 4)) @ f).reshape(sh + (32,))
    c = nb @ a[..., None]
    return a - (c.swapaxes(-1, -2) @ nb)[..., 0, :]


def _first_order_mat(w: np.ndarray, params: LandscapeParams):
    """J, the Riemannian gradient and the Hessian factor of complex (..., 8, 2) frames.

    All three come from one :func:`_gram` product: J bitwise as
    :func:`_objective_mat` reads it, then :func:`_first_order`'s gradient,
    as complex frames, and its factor F.
    """
    xr = np.ascontiguousarray(w, dtype=complex).view(np.float64)
    rn = _weight_factor(params)
    g = _gram(xr, rn)
    grad, f = _first_order(xr, g, rn)
    return _gram_value(g), grad.view(complex), f


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


def to_diag(p: KrausPoint, params: LandscapeParams) -> DiagCoords:
    """The blocks of X B: ``p``'s frame X in N's eigenbasis B (:func:`coord_change`)."""
    x = p.matrix @ coord_change(params)
    return DiagCoords(ut1=x[:4, 0], ut2=x[:4, 1], vt1=x[4:, 0], vt2=x[4:, 1])


def euclidean_gradient(p: KrausPoint, params: LandscapeParams):
    """Wirtinger gradient blocks (dJ/du1*, dJ/du2*, 0, 0).

    The u-rows of P X N / 2, taken on the float view as U_r R(N) / 2.
    """
    g = (0.5 * (p.matrix[:4].view(np.float64) @ _weight_factor(params))).view(complex)
    zero = np.zeros(4, dtype=complex)
    return g[:, 0], g[:, 1], zero, zero.copy()


def riemannian_gradient(p: KrausPoint, params: LandscapeParams) -> TangentVector:
    """Manifold gradient for the real trace inner product.

    The real-metric ambient gradient is twice the Wirtinger gradient;
    projecting it onto the tangent space gives the direction realizing
    dJ(t) = <grad, t> for every tangent t.
    """
    base = p.to_stiefel()
    return TangentVector(base=base, delta=_first_order_mat(base.frame, params)[1])


def _critical_manifolds(params: LandscapeParams) -> tuple:
    """The state's critical sub-manifolds as (tag, value, signature, mask) rows.

    The extremes come first, J = 0 and 1 with no saddle signature (None);
    then the saddles: the mixed saddle at 1/2 for the fully mixed state,
    the paired saddles at lambda_-/+ for a partially mixed one, and none
    for a pure state.  In N's eigenbasis a sub-manifold is the set of
    frames X B whose blocks, (u-rows, v-rows) by (column 0, column 1),
    vanish where the 2x2 ``mask`` is 0: its u-row Gram matrix is 0 or I
    at the extremes, and P_- or P_+ at the saddles.  A pure state has
    lambda_- = 0, so one more block is free at its extremes: ut2 at the
    minimum and vt2 at the maximum.  The mixed saddle's mask is that of
    its boundary chart z = None.
    """
    case = params.case
    free = int(case == 3)
    low, high = ((0, free), (1, 1)), ((1, 1), (0, free))
    minus, plus = ((0, 1), (1, 0)), ((1, 0), (0, 1))
    rows = ((ManifoldTag.GLOBAL_MIN, 0.0, None, low),
            (ManifoldTag.GLOBAL_MAX, 1.0, None, high))
    if case == 1:
        return rows + ((ManifoldTag.MIXED_SADDLE, 0.5, MorseSignature(6, 6, 16), minus),)
    if case == 2:
        return rows + (
            (ManifoldTag.SADDLE_MINUS, params.lambda_minus, MorseSignature(8, 6, 14), minus),
            (ManifoldTag.SADDLE_PLUS, params.lambda_plus, MorseSignature(6, 8, 14), plus),
        )
    return rows


def _manifold_row(mid: CriticalManifoldId, params: LandscapeParams) -> tuple:
    """The table row of ``mid``; :class:`IllegalManifoldError` if the state has none."""
    for row in _critical_manifolds(params):
        if row[0] == mid.tag:
            return row
    if mid.tag == ManifoldTag.MIXED_SADDLE:
        raise IllegalManifoldError(
            "the mixed saddle exists only for the fully mixed state"
        )
    raise IllegalManifoldError(
        f"{mid.tag.value} requires 0 < |w| < 1 (state has |w| = {params.norm_w:.6g})"
    )


def saddle_values(params: LandscapeParams) -> tuple[float, ...]:
    """Critical values strictly between the extremes, possibly empty."""
    return tuple(row[1] for row in _critical_manifolds(params)[2:])


def predicted_value(mid: CriticalManifoldId, params: LandscapeParams) -> float:
    """Exact objective value on the requested critical sub-manifold."""
    return _manifold_row(mid, params)[1]


def predicted_morse(mid: CriticalManifoldId, params: LandscapeParams) -> MorseSignature:
    """Exact Hessian inertia on the requested saddle manifold."""
    signature = _manifold_row(mid, params)[2]
    if signature is None:
        raise IllegalManifoldError(
            "extremal manifolds have semi-definite Hessians; no saddle signature"
        )
    return signature


@functools.cache
def _frame_mask(blocks: tuple) -> np.ndarray:
    """The read-only (8, 2) frame mask of a 2x2 block mask, built once per mask."""
    mask = np.repeat(blocks, 4, axis=0)
    mask.flags.writeable = False
    return mask


def _critical_frames(mid: CriticalManifoldId, params: LandscapeParams,
                     rng: np.random.Generator, n: int) -> np.ndarray:
    """The next ``n`` random frames of ``rng`` on a critical sub-manifold, (n, 8, 2).

    The Haar draw of :func:`stiefel._haar_frames` is zeroed off the
    row's block mask (:func:`_critical_manifolds`, as :func:`_frame_mask`)
    before its one batched QR, through which an off-mask block stays
    exactly zero.  The frames in N's eigenbasis turn back by B^H
    (:func:`coord_change`), or, on the mixed saddle's chart z, by
    s [[-conj(z), 1], [1, z]] with s = 1 / sqrt(1 + |z|^2), which maps
    the boundary chart's blocks (0, a, b, 0) to (s a, z s a, -conj(z) s b,
    s b); B is I there.  A tag the state has no row for raises
    :class:`IllegalManifoldError`.
    """
    q = _haar_frames(rng, n, mask=_frame_mask(_manifold_row(mid, params)[3]))
    if mid.z is None:
        return q @ coord_change(params).conj().T
    s = 1.0 / math.hypot(1.0, abs(mid.z))
    return q @ (s * np.array([[-mid.z.conjugate(), 1.0], [1.0, mid.z]]))


def critical_point(
    mid: CriticalManifoldId, params: LandscapeParams, seed: int
) -> KrausPoint:
    """Exact random point on a critical sub-manifold.

    The first frame of :func:`_critical_frames` for the stream
    ``default_rng(seed)``: the seed picks the free directions within the
    sub-manifold, and the construction is exact, so the Riemannian
    gradient vanishes to rounding error.  The frame is checked once, as
    :meth:`KrausPoint.from_matrix` checks every frame.  A tag the state
    has no row for in its table of critical manifolds raises
    :class:`IllegalManifoldError`.
    """
    return KrausPoint.from_matrix(
        _critical_frames(mid, params, _seeded_rng(seed), 1)[0])


def morse_signature(h: np.ndarray, zero_tol: float = 1e-12) -> MorseSignature:
    """Inertia of a symmetric matrix with a relative null threshold.

    Eigenvalues within ``zero_tol * max(1, spectral radius)`` of zero
    count as null.  The default 1e-12 sits between the null eigenvalues
    of :func:`hessian_form` (rounding level, ~1e-15) and its smallest
    non-null ones, which shrink like |w| towards the fully mixed state.
    A non-finite or negative ``zero_tol`` raises ``ValueError``.
    """
    if not (0.0 <= zero_tol < math.inf):
        raise ValueError(f"zero_tol must be finite and non-negative, got {zero_tol!r}")
    h = np.asarray(h, dtype=float)
    sym = 0.5 * (h + h.T)
    eigs = np.linalg.eigvalsh(sym)
    radius = float(np.abs(eigs).max()) if eigs.size else 0.0
    cut = zero_tol * max(1.0, radius)
    n_pos = int(np.sum(eigs > cut))
    n_neg = int(np.sum(eigs < -cut))
    return MorseSignature(n_pos, n_neg, eigs.size - n_pos - n_neg)


def hessian_form(p: KrausPoint, params: LandscapeParams) -> np.ndarray:
    """Closed-form Riemannian Hessian of the yield in the public tangent basis.

    The yield is the Brockett-type cost J(X) = Re tr(X^H P X N) / 2, with
    P the projector onto the u-rows of the 8x2 frame X and N the 2x2
    state matrix, so the Riemannian Hessian for the real trace metric on
    the Stiefel manifold is Hess J[xi] = Proj_X(P xi N - xi sym(X^H P X N)),
    P X N being the Euclidean gradient.  It is applied by
    :func:`_hess_vec`, the kernel of the optimizer's Hessian-vector
    products, to every tangent t_i of the stack that
    :func:`orthonormal_tangent_basis` holds at the point's frame, built
    with no basis object.  The returned symmetric matrix is
    H_ij = Re<t_i, Hess J[t_j]>.  At a critical point it equals the second
    derivative of J(retract(p, s.t)) for any retraction, so its inertia is
    the Morse signature; a warning is issued when the gradient norm
    exceeds 1e-6.
    """
    return _hessian(p, params)[0]


def _hessian(p: KrausPoint, params: LandscapeParams) -> tuple[np.ndarray, float]:
    """:func:`hessian_form` and the Riemannian gradient norm, from one pass.

    The norm is that of the gradient frame the Hessian factor comes with,
    bitwise ``riemannian_gradient(p, params).norm()``.
    """
    w = p.matrix
    _, grad, f = _first_order_mat(w, params)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm > 1e-6:
        warnings.warn(
            f"Hessian requested at a point with gradient norm {grad_norm:.3e}; "
            "the inertia is only meaningful at critical points",
            stacklevel=3,
        )
    t = _tangent_stack(w)
    tr = t.view(np.float64).reshape(len(t), 32)
    out = tr @ _hess_vec(tr, f, _normals(w.view(np.float64))).T
    return 0.5 * (out + out.T), grad_norm


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

    with eta1, eta2 real and eta3 complex, that is G + X L = 0 for the
    frame X, the gradient G = P X N / 2 and the Hermitian L = [[eta1, eta3],
    [conj(eta3), eta2]].  Since X^H X = I, the least-squares multipliers
    are L = -sym(X^H G) = -S / 2 in closed form, S = sym(X^H P X N), read
    from the v-row block -R(S) of :func:`_first_order`'s factor; G + X L
    is half the Riemannian gradient, so ``stationarity_residual`` is
    half its norm and is small exactly at critical points.
    ``constraint_residual`` is the largest entry of |X^H X - I|.
    """
    w = p.matrix
    _, grad, f = _first_order_mat(w, params)
    lam = 0.5 * f[1]  # R(L) = -R(S) / 2
    return CriticalPointCertificate(
        point=p,
        eta1=float(lam[0, 0]),
        eta2=float(lam[2, 2]),
        eta3=complex(lam[0, 2], lam[0, 3]),
        stationarity_residual=0.5 * float(np.linalg.norm(grad)),
        constraint_residual=float(_frame_residuals(w[None])[0]),
    )


# The row order of the dual frame, u-rows (0-3) and v-rows (4-7) swapped;
# the optimizer runs a maximize batch as the minimize batch of its duals.
_DUAL_ROWS = np.r_[4:8, 0:4]
_DUAL_ROWS.setflags(write=False)


def duality_map(p: KrausPoint) -> KrausPoint:
    """Swap the two operator rows: (u1,u2,v1,v2) -> (v1,v2,u1,u2).

    An involution of the constraint manifold; the objective values of a
    point and its image always sum to one.
    """
    return KrausPoint.from_matrix(p.matrix[_DUAL_ROWS])
