"""Complex Stiefel manifold geometry for Kraus-map parameter spaces.

A two-level channel with up to four Kraus operators is a pair of
orthonormal vectors in C^8: the first-column entries of all operators
stacked over the second-column entries.  This module supplies the frame
type, the channel <-> frame correspondence, tangent-space projection,
QR and polar retractions, Haar sampling, and orthonormal tangent bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import CompletenessError, KrausSet

__all__ = [
    "StiefelPoint",
    "KrausPoint",
    "TangentVector",
    "TangentBasis",
    "kraus_to_point",
    "point_to_kraus",
    "constraint_residuals",
    "project_tangent",
    "retract",
    "random_point",
    "random_kraus_point",
    "orthonormal_tangent_basis",
    "real_inner",
]


def _as_c4(a, what: str) -> np.ndarray:
    v = np.asarray(a, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"{what} must be a length-4 complex vector")
    return v


def _worst_residual(u1, u2, v1, v2) -> float:
    phi1, phi2, phi3 = constraint_residuals(u1, u2, v1, v2)
    return max(abs(phi1), abs(phi2), abs(phi3))


def _check_frames(frames: np.ndarray, names: tuple, what: str) -> None:
    """Check every frame of a C-contiguous (M, 8, 2) stack as channel coordinates.

    The one feasibility rule of the frame types: finite entries, and the
    entries of X^H X - I (the constraint residuals) within 1e-10.  The
    error names the first failing frame's first non-finite block, in
    (u1, u2, v1, v2) order as called by ``names``, or its worst residual;
    ``what`` names the coordinates.
    """
    finite = np.isfinite(frames.view(np.float64))
    if not finite.all():
        # Axes: frame, row half, row, column, real/imaginary part.
        block_ok = finite.reshape(-1, 2, 4, 2, 2).all(axis=(2, 4)).reshape(-1, 4)
        name = names[np.argwhere(~block_ok)[0][1]]
        raise ValueError(f"{name} contains non-finite entries")
    gram = np.swapaxes(frames.conj(), -1, -2) @ frames
    worst = np.abs(gram - np.eye(2)).max(axis=(-2, -1))
    bad = worst > 1e-10
    if bad.any():
        raise ValueError(
            f"infeasible {what} coordinates: constraint residual {worst[bad][0]:.3e}"
        )


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


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product Re sum conj(a) b on stacked complex arrays."""
    return float(np.vdot(a, b).real)


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """Orthonormal k-frame in C^n, stored as the columns of ``frame``."""

    n: int
    k: int
    frame: np.ndarray

    def __post_init__(self):
        f = np.array(self.frame, dtype=complex)
        if f.shape != (self.n, self.k):
            raise ValueError(f"frame must have shape {(self.n, self.k)}, got {f.shape}")
        if not np.all(np.isfinite(f.real)) or not np.all(np.isfinite(f.imag)):
            raise ValueError("frame contains non-finite entries")
        gram = f.conj().T @ f
        if np.abs(gram - np.eye(self.k)).max() > 1e-10:
            raise ValueError("frame columns are not orthonormal within 1e-10")
        f.setflags(write=False)
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
        frame = _validate_blocks(self, ("u1", "u2", "v1", "v2"), "channel")
        object.__setattr__(self, "_frame", frame)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only 8x2 frame: column 0 is u1 over v1, column 1 is u2 over v2.

        The blocks are views of it.
        """
        return self._frame

    @classmethod
    def from_matrix(cls, w: np.ndarray) -> "KrausPoint":
        w = np.asarray(w, dtype=complex)
        return cls(u1=w[:4, 0], u2=w[:4, 1], v1=w[4:, 0], v2=w[4:, 1])

    def to_stiefel(self) -> StiefelPoint:
        return StiefelPoint(8, 2, self.matrix)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Ambient matrix delta attached to a base frame, tangency validated."""

    base: StiefelPoint
    delta: np.ndarray

    def __post_init__(self):
        d = np.array(self.delta, dtype=complex)
        if d.shape != (self.base.n, self.base.k):
            raise ValueError("tangent delta shape does not match the base frame")
        x = self.base.frame
        sym = x.conj().T @ d
        sym = sym + sym.conj().T
        if np.abs(sym).max() > 1e-10:
            raise ValueError("delta is not tangent at the base point within 1e-10")
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.delta))


@dataclass(frozen=True, eq=False)
class TangentBasis:
    """Orthonormal basis of the tangent space at a frame, real dimension 2nk-k^2.

    The vectors are checked together: every delta tangent at ``base``
    and the Gram matrix the identity, each within 1e-10.
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
        sym = np.swapaxes(self.base.frame.conj(), -1, -2) @ stack
        if np.abs(sym + np.swapaxes(sym.conj(), -1, -2)).max() > 1e-10:
            raise ValueError("basis vector is not tangent at the base point within 1e-10")
        flat = stack.reshape(len(vecs), -1)
        gram = (flat.conj() @ flat.T).real
        if np.abs(gram - np.eye(len(vecs))).max() > 1e-10:
            raise ValueError("tangent basis is not orthonormal within 1e-10")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "_stack", stack)

    def as_array(self) -> np.ndarray:
        """Read-only stack of basis deltas, shape (dim, n, k)."""
        return self._stack


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
    """Stack operator entries into frame coordinates, padding to four operators."""
    res = np.zeros((4, 4), dtype=complex)  # rows: u1, u2, v1, v2
    for idx, op in enumerate(k.operators):
        res[0, idx] = op[0, 0]
        res[1, idx] = op[0, 1]
        res[2, idx] = op[1, 0]
        res[3, idx] = op[1, 1]
    try:
        return KrausPoint(u1=res[0], u2=res[1], v1=res[2], v2=res[3])
    except ValueError:
        raise CompletenessError(_worst_residual(*res), k.tol) from None


def _kraus_points(frames: np.ndarray) -> tuple:
    """Read-only :class:`KrausPoint` objects of an (M, 8, 2) stack of frames.

    The stack is checked once by the rule of ``KrausPoint``
    (:func:`_check_frames`), with its error text.  The points are then
    built without validating each one again: each frame is a row of one
    read-only copy of the stack, and its blocks are views of that row.
    """
    frames = np.array(frames, dtype=complex)
    _check_frames(frames, ("u1", "u2", "v1", "v2"), "channel")
    frames.setflags(write=False)
    # Axes: frame, row half, row, column; the blocks of every frame at once.
    halves = frames.reshape(-1, 2, 4, 2)
    blocks = (halves[:, 0, :, 0], halves[:, 0, :, 1], halves[:, 1, :, 0],
              halves[:, 1, :, 1])
    points = []
    for frame, u1, u2, v1, v2 in zip(frames, *blocks):
        p = object.__new__(KrausPoint)
        # The fields of the frozen point are filled in without validation.
        p.__dict__.update(_frame=frame, u1=u1, u2=u2, v1=v1, v2=v2)
        points.append(p)
    return tuple(points)


def point_to_kraus(p: KrausPoint) -> KrausSet:
    """Reassemble the four 2x2 operators from frame coordinates."""
    ops = []
    for idx in range(4):
        ops.append(
            np.array(
                [[p.u1[idx], p.u2[idx]], [p.v1[idx], p.v2[idx]]], dtype=complex
            )
        )
    return KrausSet(tuple(ops))


def _qf(w: np.ndarray) -> np.ndarray:
    """Q factor of the thin QR with the R diagonal rotated positive."""
    q, r = np.linalg.qr(w)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    if (mags < 1e-12).any():
        raise RuntimeError("rank collapse during QR retraction")
    return q * (d / mags)[..., None, :]


def _polar(w: np.ndarray) -> np.ndarray:
    """Polar orthonormal factor via SVD."""
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    if np.any(s < 1e-12):
        raise RuntimeError("rank collapse during polar retraction")
    return u @ vh


def project_tangent(x: StiefelPoint, ambient: np.ndarray) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space."""
    z = np.asarray(ambient, dtype=complex)
    if z.shape != (x.n, x.k):
        raise ValueError(f"ambient matrix must have shape {(x.n, x.k)}")
    return TangentVector(base=x, delta=_project_mat(x.frame, z))


def _project_mat(frame: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Tangent part z - X sym(X^H z); broadcasts over leading axes."""
    s = np.swapaxes(frame.conj(), -1, -2) @ z
    return z - frame @ (0.5 * (s + np.swapaxes(s.conj(), -1, -2)))


def retract(x: StiefelPoint, t: TangentVector, kind: str = "qr") -> StiefelPoint:
    """Map a tangent step back onto the manifold.

    ``kind`` selects the QR retraction (default) or the polar retraction.
    A zero step returns the base point unchanged.
    """
    if t.base is not x and not np.array_equal(t.base.frame, x.frame):
        raise ValueError("tangent vector is not based at the given point")
    if not t.delta.any():
        return x
    w = x.frame + t.delta
    if kind == "qr":
        new = _qf(w)
    elif kind == "polar":
        new = _polar(w)
    else:
        raise ValueError(f"unknown retraction kind {kind!r}")
    return StiefelPoint(x.n, x.k, new)


def _ginibre(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian n x k matrix, the raw draw of a Haar frame."""
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


def _haar_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return _qf(_ginibre(n, k, rng))


def random_point(n: int, k: int, seed: int) -> StiefelPoint:
    """Haar-distributed frame from an explicit seed."""
    rng = np.random.default_rng(seed)
    return StiefelPoint(n, k, _haar_frame(n, k, rng))


def random_kraus_point(seed: int) -> KrausPoint:
    """Haar-distributed feasible channel coordinates."""
    return KrausPoint.from_matrix(_haar_frame(8, 2, np.random.default_rng(seed)))


def orthonormal_tangent_basis(x: StiefelPoint) -> TangentBasis:
    """Deterministic orthonormal tangent basis at a frame.

    Combines the k^2 rotations W*A for an orthonormal anti-Hermitian basis
    A with the 2(n-k)k complement directions W_perp*E and i*W_perp*E, where
    W_perp spans the orthogonal complement of the frame.  The deltas are
    built as one (dim, n, k) stack; :class:`TangentBasis` checks their
    tangency and orthonormality together, not vector by vector.
    """
    n, k = x.n, x.k
    w = x.frame
    # Anti-Hermitian block: diagonal phases then paired off-diagonals.
    gens = np.zeros((k * k, k, k), dtype=complex)
    diag = np.arange(k)
    gens[diag, diag, diag] = 1j
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    m = k
    for j in range(k):
        for l in range(j + 1, k):
            gens[m, j, l] = inv_sqrt2
            gens[m, l, j] = -inv_sqrt2
            gens[m + 1, j, l] = 1j * inv_sqrt2
            gens[m + 1, l, j] = 1j * inv_sqrt2
            m += 2
    # Complement block: real and imaginary unit injections, column by column.
    perp = np.linalg.qr(w, mode="complete")[0][:, k:]
    comp = np.zeros((n - k, k, 2, n, k), dtype=complex)
    for j in range(k):
        comp[:, j, 0, :, j] = perp.T
        comp[:, j, 1, :, j] = 1j * perp.T
    stack = np.concatenate([w @ gens, comp.reshape(-1, n, k)])
    stack.setflags(write=False)
    vectors = []
    for d in stack:
        # Tangency is checked for the whole stack by TangentBasis.
        v = object.__new__(TangentVector)
        object.__setattr__(v, "base", x)
        object.__setattr__(v, "delta", d)
        vectors.append(v)
    return TangentBasis(base=x, vectors=vectors)
