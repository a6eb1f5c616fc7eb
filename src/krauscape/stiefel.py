"""Complex Stiefel manifold geometry for Kraus-map parameter spaces.

A two-level channel with up to four Kraus operators is a pair of
orthonormal vectors in C^8: the first-column entries of all operators
stacked over the second-column entries.  This module supplies the frame
type, the channel <-> frame correspondence, the QR retraction, Haar
sampling, and orthonormal tangent bases; tangent-space projection
(:func:`_project_mat`) is internal.
Every frame has two columns (k = 2); :class:`StiefelPoint` and
:func:`random_point` reject any other k.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .qcore import CompletenessError, KrausSet, _as_complex, _dilation_columns

__all__ = [
    "StiefelPoint",
    "KrausPoint",
    "TangentVector",
    "TangentBasis",
    "kraus_to_point",
    "point_to_kraus",
    "constraint_residuals",
    "retract",
    "random_point",
    "random_kraus_point",
    "orthonormal_tangent_basis",
    "real_inner",
]


# The names of the four C^4 blocks of a KrausPoint, in frame order.
_KRAUS_BLOCKS = ("u1", "u2", "v1", "v2")


def _as_c4(a, what: str) -> np.ndarray:
    v = np.asarray(a, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"{what} must be a length-4 complex vector")
    return v


def _frame_residuals(frames: np.ndarray) -> np.ndarray:
    """Largest entry of |X^H X - I| of every frame of an (M, n, 2) stack.

    Only real elementwise products and sums over the last axis are used,
    so a frame's residual is bitwise the same alone and in any stack.
    """
    # Axes: frame, row, (re, im) of column 0 then of column 1.
    parts = frames.view(np.float64)
    r1, i1, r2, i2 = parts[..., 0], parts[..., 1], parts[..., 2], parts[..., 3]
    n1 = (r1 * r1 + i1 * i1).sum(axis=-1)
    n2 = (r2 * r2 + i2 * i2).sum(axis=-1)
    cross = np.hypot((r1 * r2 + i1 * i2).sum(axis=-1), (r1 * i2 - i1 * r2).sum(axis=-1))
    return np.maximum(np.maximum(np.abs(n1 - 1.0), np.abs(n2 - 1.0)), cross)


def _check_frames(frames: np.ndarray, names: tuple, what: str) -> None:
    """Check every frame of a C-contiguous (M, 8, 2) stack as channel coordinates.

    The one feasibility rule of the frame types: finite entries, and the
    entries of X^H X - I (the constraint residuals) within 1e-10.  The
    error names the first failing frame's first non-finite block, in
    (u1, u2, v1, v2) order as called by ``names``, or its worst residual;
    ``what`` names the coordinates.
    """
    finite = np.isfinite(frames.view(np.float64))
    first = len(frames)
    if not finite.all():
        # Axes: frame, row half, row, column, real/imaginary part.
        block_ok = finite.reshape(-1, 2, 4, 2, 2).all(axis=(2, 4)).reshape(-1, 4)
        first, block = np.argwhere(~block_ok)[0]
    # Only the frames before the first non-finite one can fail first.
    worst = _frame_residuals(frames[:first])
    bad = ~(worst <= 1e-10)
    if bad.any():
        raise ValueError(
            f"infeasible {what} coordinates: constraint residual {worst[bad][0]:.3e}"
        )
    if first < len(frames):
        raise ValueError(f"{names[block]} contains non-finite entries")


def _validate_blocks(obj, names: tuple, what: str) -> np.ndarray:
    """Check the four C^4 blocks of a frozen dataclass as one 8x2 frame.

    The blocks, in (u1, u2, v1, v2) order, are copied into a frame that
    must pass :func:`_check_frames`.  The frame is made read-only, each
    block attribute becomes a view of it, and it is returned.
    """
    blocks = [_as_c4(getattr(obj, name), name) for name in names]
    frame = np.empty((8, 2), dtype=complex)
    frame[:4, 0], frame[:4, 1], frame[4:, 0], frame[4:, 1] = blocks
    _check_frames(frame[None], names, what)
    frame.setflags(write=False)
    views = (frame[:4, 0], frame[:4, 1], frame[4:, 0], frame[4:, 1])
    for name, block in zip(names, views):
        object.__setattr__(obj, name, block)
    return frame


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass whose fields are already checked.

    The fields are filled in without running ``__post_init__``; callers
    pass values that passed the class's own rule.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _require_two_columns(k: int) -> None:
    if k != 2:
        raise ValueError(f"Stiefel frames have k = 2 columns, got k = {k}")


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re sum conj(a) b on stacked complex arrays."""
    return float(np.vdot(a, b).real)


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """Orthonormal k-frame in C^n, stored as the columns of ``frame``.

    Frames have two columns, k = 2: a channel of a two-level system has
    a two-column frame, and the QR retraction is the closed-form one of
    :func:`_qf`.
    """

    n: int
    k: int
    frame: np.ndarray

    def __post_init__(self):
        _require_two_columns(self.k)
        f = _as_complex(self.frame, (self.n, self.k), "frame")
        if not _frame_residuals(f[None])[0] <= 1e-10:
            raise ValueError("frame columns are not orthonormal within 1e-10")
        object.__setattr__(self, "frame", f)


@dataclass(frozen=True, eq=False)
class KrausPoint:
    """Feasible channel coordinates: four C^4 blocks of operator entries.

    ``u1``/``v1`` hold the (1,1)/(2,1) entries of operators 1..4 and
    ``u2``/``v2`` the (1,2)/(2,2) entries.  Feasibility means
    |u1|^2+|v1|^2 = 1, |u2|^2+|v2|^2 = 1 and <u1,u2>+<v1,v2> = 0, each
    within 1e-10.
    """

    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        frame = _validate_blocks(self, _KRAUS_BLOCKS, "channel")
        object.__setattr__(self, "_frame", frame)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only 8x2 frame: column 0 is u1 over v1, column 1 is u2 over v2.

        The blocks are views of it.
        """
        return self._frame

    @classmethod
    def from_matrix(cls, w: np.ndarray) -> "KrausPoint":
        """The point of an 8x2 frame, checked once as a stack of one frame.

        A matrix of another shape goes to the block constructor, whose
        error names the first block of the wrong length.
        """
        w = np.asarray(w, dtype=complex)
        if w.shape == (8, 2):
            return _kraus_points(w[None])[0]
        return cls(u1=w[:4, 0], u2=w[:4, 1], v1=w[4:, 0], v2=w[4:, 1])

    def to_stiefel(self) -> StiefelPoint:
        """The frame as a :class:`StiefelPoint` sharing the read-only matrix.

        The frame passed :func:`_check_frames` when the point was built:
        finite entries and |X^H X - I| within 1e-10, the rule of
        ``StiefelPoint``, so it is not checked again.
        """
        return _unchecked(StiefelPoint, n=8, k=2, frame=self.matrix)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Ambient matrix delta attached to a base frame, tangency validated."""

    base: StiefelPoint
    delta: np.ndarray

    def __post_init__(self):
        d = np.array(self.delta, dtype=complex)
        if d.shape != (self.base.n, self.base.k):
            raise ValueError("tangent delta shape does not match the base frame")
        if not np.isfinite(d).all():
            raise ValueError("tangent delta contains non-finite entries")
        _check_tangent(self.base.frame, d[None], "delta")
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.delta))


@dataclass(frozen=True, eq=False)
class TangentBasis:
    """Orthonormal basis of the tangent space at a frame, real dimension 2nk-k^2.

    The vectors are checked together by :func:`_check_tangent_stack`:
    every delta tangent at ``base`` and the Gram matrix the identity,
    each within 1e-10.
    """

    base: StiefelPoint
    vectors: tuple

    def __post_init__(self):
        n, k = self.base.n, self.base.k
        expected = 2 * n * k - k * k
        vecs = tuple(self.vectors)
        if len(vecs) != expected:
            raise ValueError(f"expected {expected} basis vectors, got {len(vecs)}")
        stack = np.stack([v.delta for v in vecs])
        stack.setflags(write=False)
        _check_tangent_stack(self.base.frame, stack)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "_stack", stack)

    def as_array(self) -> np.ndarray:
        """Read-only stack of basis deltas, shape (dim, n, k)."""
        return self._stack


def _check_tangent_stack(frame: np.ndarray, stack: np.ndarray) -> None:
    """Check a C-contiguous (dim, n, k) stack as an orthonormal tangent basis.

    The one rule of :class:`TangentBasis`: every delta D tangent at the
    frame X, the entries of X^H D + D^H X within 1e-10, and the real Gram
    matrix of the deltas the identity within 1e-10.  The deltas must be
    finite, and a residual that is not within the bound (NaN included)
    fails.
    """
    m, n, k = stack.shape
    # Axes: delta, then its real and imaginary parts, entry by entry.
    parts = stack.view(np.float64).reshape(m, -1)
    if not np.isfinite(parts).all():
        raise ValueError("basis vector contains non-finite entries")
    _check_tangent(frame, stack, "basis vector")
    # Re<D_i, D_j> is the real dot product of the real and imaginary parts.
    if not (np.abs(parts @ parts.T - np.eye(m)).max() <= 1e-10):
        raise ValueError("tangent basis is not orthonormal within 1e-10")


def _check_tangent(frame: np.ndarray, stack: np.ndarray, what: str) -> None:
    """Check that every delta D of a (dim, n, k) stack is tangent at the frame X.

    The one tangency rule: the entries of X^H D + D^H X within 1e-10, a
    NaN failing.  ``what`` names a delta in the error.
    """
    m, n, k = stack.shape
    # Axes: frame column, delta, delta column; all X^H D in one product.
    s = (frame.conj().T @ stack.transpose(1, 0, 2).reshape(n, m * k)).reshape(k, m, k)
    if not (np.abs(s + s.transpose(2, 1, 0).conj()).max() <= 1e-10):
        raise ValueError(f"{what} is not tangent at the base point within 1e-10")


def constraint_residuals(u1, u2, v1, v2) -> tuple[float, float, complex]:
    """Feasibility defects of raw coordinate blocks, not necessarily small.

    Returns (phi1, phi2, phi3): the two norm defects and the complex
    cross-orthogonality <u1,u2> + <v1,v2> (conjugation on the first slot).
    """
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    phi1 = float(np.vdot(u1, u1).real + np.vdot(v1, v1).real - 1.0)
    phi2 = float(np.vdot(u2, u2).real + np.vdot(v2, v2).real - 1.0)
    phi3 = complex(np.vdot(u1, u2) + np.vdot(v1, v2))
    return phi1, phi2, phi3


def kraus_to_point(k: KrausSet) -> KrausPoint:
    """Stack operator entries into frame coordinates, padding to four operators.

    Row i of the frame is the first row of operator i, and row 4 + i its
    second row: the layout of ``qcore._dilation_columns``, padded with
    zero operators.  A frame that fails the rule of ``KrausPoint`` raises
    ``CompletenessError`` with its largest entry of |X^H X - I|.
    """
    frame = np.zeros((2, 4, 2), dtype=complex)
    frame[:, : k.m] = _dilation_columns(k).reshape(2, k.m, 2)
    frame = frame.reshape(8, 2)
    try:
        return KrausPoint.from_matrix(frame)
    except ValueError:
        raise CompletenessError(float(_frame_residuals(frame[None])[0]), k.tol) from None


def _kraus_points(frames: np.ndarray) -> tuple:
    """Read-only :class:`KrausPoint` objects of an (M, 8, 2) stack of frames.

    The stack is checked once by the rule of ``KrausPoint``
    (:func:`_check_frames`), with its error text.  The points are then
    built without validating each one again: each frame is a row of one
    read-only copy of the stack, and its blocks are views of that row.
    """
    frames = np.array(frames, dtype=complex, order="C")
    _check_frames(frames, _KRAUS_BLOCKS, "channel")
    frames.setflags(write=False)
    return _points_of(frames)


def _points_of(frames: np.ndarray) -> tuple:
    """:class:`KrausPoint` objects of a read-only (M, 8, 2) stack that passed
    :func:`_check_frames`, built without checking them again."""
    # Axes: frame, row half, row, column; the blocks of every frame at once.
    halves = frames.reshape(-1, 2, 4, 2)
    blocks = (halves[:, 0, :, 0], halves[:, 0, :, 1], halves[:, 1, :, 0],
              halves[:, 1, :, 1])
    return tuple(
        _unchecked(KrausPoint, _frame=frame, u1=u1, u2=u2, v1=v1, v2=v2)
        for frame, u1, u2, v1, v2 in zip(frames, *blocks)
    )


def point_to_kraus(p: KrausPoint) -> KrausSet:
    """Reassemble the four 2x2 operators from frame coordinates."""
    # Axes: operator row, operator, column; operator first for the set.
    return KrausSet(tuple(p.matrix.reshape(2, 4, 2).swapaxes(0, 1)))


def _qf(w: np.ndarray) -> np.ndarray:
    """Q factor of the thin QR of n x 2 frames, R with a positive diagonal.

    Classical Gram-Schmidt run twice ("twice is enough"; Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005): q1 = x1 / |x1|, then x2
    loses its q1 component in two passes and is normalized.  |x1| and the
    norm of the remainder are the R diagonal, positive by construction,
    so the result is the unique Q of the thin QR with that convention.
    Broadcasts over leading axes, one stacked product per inner product,
    so a frame's Q is bitwise the same alone and in any stack.  Raises
    ``RuntimeError`` where a diagonal entry of R is below 1e-12, and
    ``ValueError`` on frames that do not have two columns.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape[-1:] != (2,):
        raise ValueError(f"QR retraction needs frames of two columns, got shape {w.shape}")
    x1, y = w[..., 0:1], w[..., 1:2]
    h1 = x1.conj().swapaxes(-1, -2)
    r11 = np.sqrt((h1 @ x1).real)
    if np.count_nonzero(r11 < 1e-12):
        raise RuntimeError("rank collapse during QR retraction")
    s = 1.0 / r11
    q = np.empty(w.shape, dtype=complex)
    q1, qh = np.multiply(x1, s, out=q[..., 0:1]), h1 * s
    y = y - q1 * (qh @ y)
    y = y - q1 * (qh @ y)
    r22 = np.sqrt((y.conj().swapaxes(-1, -2) @ y).real)
    if np.count_nonzero(r22 < 1e-12):
        raise RuntimeError("rank collapse during QR retraction")
    np.multiply(y, 1.0 / r22, out=q[..., 1:2])
    return q


def _gram_r(g):
    """The R factor of :func:`_qf` from the Gram data of the frames it retracts.

    ``g`` holds (g11, g22, Re g12, Im g12) of G = W^H W along its first
    axis.  W = Q R with R = [[r11, r12], [0, r22]] and a positive
    diagonal, so G = R^H R is its Cholesky factorisation:
    r11 = sqrt(g11), r12 = g12 / r11 and r22 = sqrt(g22 - |r12|^2).
    Returns (r11, Re r12, Im r12, r22), entrywise.  Raises the
    ``RuntimeError`` of :func:`_qf` where r11 or r22 is below 1e-12,
    tested on their squares so that no root of a negative is taken.
    """
    g11, g22, g12r, g12i = g
    if np.count_nonzero(g11 < 1e-24):
        raise RuntimeError("rank collapse during QR retraction")
    r11 = np.sqrt(g11)
    r12r, r12i = g12r / r11, g12i / r11
    d22 = g22 - (r12r * r12r + r12i * r12i)
    if np.count_nonzero(d22 < 1e-24):
        raise RuntimeError("rank collapse during QR retraction")
    return r11, r12r, r12i, np.sqrt(d22)


def _project_mat(frame: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Tangent part z - X sym(X^H z); broadcasts over leading axes."""
    s = np.swapaxes(frame.conj(), -1, -2) @ z
    return z - frame @ (0.5 * (s + np.swapaxes(s.conj(), -1, -2)))


def retract(x: StiefelPoint, t: TangentVector) -> StiefelPoint:
    """Map a tangent step back onto the manifold by the QR retraction.

    A zero step returns the base point unchanged.
    """
    if t.base is not x and not np.array_equal(t.base.frame, x.frame):
        raise ValueError("tangent vector is not based at the given point")
    if not t.delta.any():
        return x
    return StiefelPoint(x.n, x.k, _qf(x.frame + t.delta))


def _seeded_rng(seed: int) -> np.random.Generator:
    """``default_rng(seed)``; ``seed`` must be a non-negative integer.

    The one check of a seed, so every seeded draw rejects a bad seed with
    the same message.  Numpy integers are accepted.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _haar_frames(rng: np.random.Generator, n: int, rows: int = 8,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """The next ``n`` Haar frames of ``rng``, (n, rows, 2): Q factors of Ginibre draws.

    The one seeded frame draw: one ``rng.standard_normal((n, 2, rows, 2))``
    array, the real parts then the imaginary parts, finished by one
    batched :func:`_qf`.  NumPy fills the draw in order, so frame i is
    the same for any n >= i + 1.  A ``(rows, 2)`` 0/1 ``mask`` multiplies
    the draw first; an entry it zeroes stays exactly zero through the QR.
    """
    g = rng.standard_normal((n, 2, rows, 2))
    if mask is not None:
        g = g * mask
    return _qf(g[:, 0] + 1j * g[:, 1])


def random_point(n: int, k: int, seed: int) -> StiefelPoint:
    """Haar-distributed n x k frame from an explicit seed; ``k`` must be 2."""
    _require_two_columns(k)
    return StiefelPoint(n, k, _haar_frames(_seeded_rng(seed), 1, rows=n)[0])


def random_kraus_point(seed: int) -> KrausPoint:
    """Haar-distributed feasible channel coordinates."""
    return KrausPoint.from_matrix(_haar_frames(_seeded_rng(seed), 1)[0])


# An orthonormal basis H_k of the Hermitian 2x2 matrices for the trace
# inner product: the two diagonal units, then sigma_x and sigma_y over sqrt 2.
_HERMITIAN_BASIS = np.array([
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0 / np.sqrt(2.0)], [1.0 / np.sqrt(2.0), 0.0]],
    [[0.0, -1j / np.sqrt(2.0)], [1j / np.sqrt(2.0), 0.0]],
])
# The anti-Hermitian basis i H_k, i H_3 before i H_2: the two diagonal
# phases, then the real and the imaginary off-diagonal pair.  The + 0j
# turns the one -0j of i (-i / sqrt 2) positive.
_ROTATIONS = 1j * _HERMITIAN_BASIS[[0, 1, 3, 2]] + 0j


def _tangent_stack(w: np.ndarray) -> np.ndarray:
    """Read-only orthonormal tangent stack at an n x 2 frame, checked once.

    Combines the 4 rotations W*A for the orthonormal anti-Hermitian basis
    A of ``_ROTATIONS`` with the 4(n-2) complement directions W_perp*E and
    i*W_perp*E, where W_perp spans the orthogonal complement of the frame.
    The deltas are built as one (4n - 4, n, 2) stack and checked together
    by :func:`_check_tangent_stack`.
    """
    n = w.shape[0]
    # Complement block: real and imaginary unit injections, column by column.
    perp = np.linalg.qr(w, mode="complete")[0][:, 2:].T
    iperp = 1j * perp
    comp = np.zeros((n - 2, 2, 2, n, 2), dtype=complex)
    for j in range(2):
        comp[:, j, 0, :, j] = perp
        comp[:, j, 1, :, j] = iperp
    stack = np.concatenate([w @ _ROTATIONS, comp.reshape(-1, n, 2)])
    stack.setflags(write=False)
    _check_tangent_stack(w, stack)
    return stack


def orthonormal_tangent_basis(x: StiefelPoint) -> TangentBasis:
    """Deterministic orthonormal tangent basis at a frame.

    The deltas are the stack of :func:`_tangent_stack`, checked there
    once by the rule of :class:`TangentBasis`; each vector's delta is a
    read-only row of it.
    """
    stack = _tangent_stack(x.frame)
    vectors = tuple(_unchecked(TangentVector, base=x, delta=d) for d in stack)
    return _unchecked(TangentBasis, base=x, vectors=vectors, _stack=stack)
