"""Optimization and level-set exploration of the control landscape.

A monotone Riemannian trust-region optimizer whose steps solve the
quadratic model of the closed-form Hessian by truncated conjugate
gradients (Absil, Baker & Gallivan, Found. Comput. Math. 7, 2007),
seeded multi-start campaigns, classification of converged points
against the known critical sub-manifolds, transfer of points between
level sets along the canonical gradient flow in closed form, and an
exact connectivity witness: a closed-form path inside a single level set.

One engine runs the optimizer: every campaign is one call on an
(N, 8, 2) stack of raw frames that keeps only the objective and gradient
norm of each iterate, in one stack sorted by run.  Its kernels work on the frames'
float view, (N, 8, 4) real rows [Re x0, Im x0, Re x1, Im x1], on which
right-multiplication by a complex 2x2 matrix is a real 4x4 product.
Trial points are retracted by the closed-form two-column QR of
``stiefel._qf``, and each gets one Gram product G, whose trace is its
objective.  The arrays of an iteration's first trial are the
iteration's result: only rows retried at a quarter radius are written
into them.  An iteration starts with one first-order pass over the
frames accepted last, the starts being iteration 0's: an accepted G
gives its gradient and its Hessian factor, with which every CG step
applies the Hessian as one stacked real product and a projection on
four normal directions, on flat (N, 32) float rows.  Rows leave a
stack by one rule, integer ``take()``.  The engine only minimizes: a
maximize run is the minimize run of its dual frame, u- and v-rows
swapped, read back as 1 - J.  The saddle hits of a campaign are counted in
one vectorised pass.  :func:`optimize` is that engine on a single
frame; validated :class:`KrausPoint` objects are built only where a
caller receives them.

The level transfer and the level-set witness work on the Gram quotient.
J depends on a frame [U; V] only through the 2x2 Gram matrix M = U^H U,
J = tr(M N) / 2, and V^H V = I - M.  Both lift Gram matrices to frames
the same way, [Q_u M^(1/2); Q_v (I - M)^(1/2)] with 4x2 isometries Q_u
and Q_v taken from the polar decompositions of the blocks.  The
transfer follows the canonical-metric gradient flow, which moves M by a
matrix Riccati equation with a closed-form solution: it solves J(t) = mu
for t in Python scalars and lifts the endpoint with the start's own
isometries.  The witness between two points of one level follows the
segment between their Gram matrices, on which J is linear, with
isometries on geodesics between the endpoints'; its nodes are one
broadcast over a stack, validated once as a stack of waypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .landscape import (
    CriticalManifoldId,
    LandscapeParams,
    _DUAL_ROWS,
    _critical_manifolds,
    _first_order,
    _first_order_mat,
    _gram,
    _gram_value,
    _hess_vec,
    _normals,
    _objective_mat,
    coord_change,
)
from .stiefel import (
    _KRAUS_BLOCKS,
    KrausPoint,
    _check_frames,
    _haar_frames,
    _kraus_points,
    _points_of,
    _qf,
    _seeded_rng,
)

__all__ = [
    "FlowStallError",
    "OptimizerConfig",
    "Trajectory",
    "MultiStartReport",
    "LevelSetPath",
    "optimize",
    "multi_start",
    "rerun_start",
    "classify_critical",
    "level_transfer",
    "levelset_connect",
]

# Trust-region control of the optimizer: radii in the Frobenius norm of
# a tangent step, the acceptance threshold on rho = actual / model gain,
# the CG residual factor and step cap (the real tangent dimension, 28).
_TR_RADIUS_START = 1.0
_TR_RADIUS_MAX = 2.0
_TR_RHO_ACCEPT = 0.1
_TR_CG_KAPPA = 0.1
_TR_CG_MAX = 28
_TR_MAX_SHRINKS = 60
_CHORD_LIMIT = 0.05
_NODE_BUDGET = 4096
_STALL_GRAD = 1e-6


class FlowStallError(RuntimeError):
    """Gradient flow ran into a vanishing gradient or its limit before the target level."""

    def __init__(self, value_reached: float):
        super().__init__(
            f"gradient flow stalled near a critical level at J = {value_reached:.9f}"
        )
        self.value_reached = value_reached


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the trust-region iteration.

    The run direction and its two stopping counts are the only settings.
    ``max_iters`` must be a whole number (an integral float is stored as
    int) and ``grad_tol`` positive and finite.
    The radii, the acceptance threshold and the CG stopping rule of the
    step are module constants (``_TR_*``); every trial point is retracted
    to the manifold by QR.
    """

    direction: str = "maximize"
    max_iters: int = 5000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.direction not in ("maximize", "minimize"):
            raise ValueError("direction must be 'maximize' or 'minimize'")
        if not float(self.max_iters).is_integer():
            raise ValueError(f"max_iters must be a whole number, got {self.max_iters}")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")


@dataclass(frozen=True)
class Trajectory:
    """One optimizer run: per-iterate records and the termination reason.

    ``iterates`` holds (point, objective, gradient norm) triples: the
    start, then one per accepted trust-region step, so the objective
    sequence is monotone in the run direction.  A maximize run is the
    minimize run of the dual frames (u- and v-rows swapped), so its
    objectives are 1 - J of the dual iterates and lie in [0, 1].
    ``terminated`` is "converged" when the gradient norm dropped below
    ``grad_tol``, else "max_iters".  ``stalled`` is set when an
    iteration's radius collapsed, quartered _TR_MAX_SHRINKS times with no
    trial accepted; such a run counts as max_iters.  Only
    :func:`optimize` and :func:`rerun_start` build a Trajectory; a
    campaign keeps raw frames and (objective, gradient norm) rows
    instead.
    """

    iterates: tuple
    terminated: str
    stalled: bool = False

    def __post_init__(self):
        if self.terminated not in ("converged", "max_iters"):
            raise ValueError("terminated must be 'converged' or 'max_iters'")
        object.__setattr__(self, "iterates", tuple(self.iterates))

    @property
    def final_point(self) -> KrausPoint:
        return self.iterates[-1][0]

    @property
    def final_value(self) -> float:
        return self.iterates[-1][1]

    @property
    def final_grad_norm(self) -> float:
        return self.iterates[-1][2]


@dataclass(frozen=True)
class MultiStartReport:
    """Aggregate of a seeded multi-start campaign.

    The campaign's runs come from one batched engine call and are listed
    in start order: ``final_values[i]`` is run i's final objective
    (1 - J of the dual run for maximize, :class:`Trajectory`).
    ``converged`` counts the runs that ended with terminated ==
    "converged" and ``stalled`` the runs whose trust region collapsed
    (:class:`Trajectory`), which count as not converged; ``best_rows``
    holds the (objective, gradient norm) pair of every iterate of the
    best run, and ``iterations[i]`` is the number of accepted steps of
    run i.
    """

    starts: int
    seed: int
    direction: str
    reached_global: int
    final_values: tuple
    worst_gap: float
    classified_saddle_hits: int
    best_index: int
    converged: int = 0
    best_rows: tuple = ()
    iterations: tuple = ()
    stalled: int = 0

    def __post_init__(self):
        if not 0 <= self.reached_global <= self.starts:
            raise ValueError("reached_global must lie in [0, starts]")
        if not 0 <= self.converged <= self.starts:
            raise ValueError("converged must lie in [0, starts]")
        if not 0 <= self.stalled <= self.starts - self.converged:
            raise ValueError("stalled must lie in [0, starts - converged]")
        if self.worst_gap < 0:
            raise ValueError("worst_gap must be non-negative")
        object.__setattr__(self, "final_values", tuple(self.final_values))
        object.__setattr__(self, "best_rows", tuple(self.best_rows))
        object.__setattr__(self, "iterations", tuple(self.iterations))


@dataclass(frozen=True)
class LevelSetPath:
    """Witness path inside one level set.

    ``status`` is "connected" when the path has at least one waypoint,
    every waypoint is feasible and matches the level within 1e-6, and
    consecutive chordal steps stay within 0.05; otherwise "failed" with
    the reason in ``detail``.  The level ``mu`` lies in [0, 1], and the
    deviation and step are non-negative; a NaN fails every bound of a
    connected path.
    """

    mu: float
    waypoints: tuple
    max_value_deviation: float
    max_step_length: float
    status: str
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("connected", "failed"):
            raise ValueError("status must be 'connected' or 'failed'")
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError("level must lie in [0, 1]")
        if self.max_value_deviation < 0.0 or self.max_step_length < 0.0:
            raise ValueError("deviation and step length must be non-negative")
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if self.status == "connected":
            if not self.waypoints:
                raise ValueError("connected path has no waypoints")
            if not (self.max_value_deviation <= 1e-6):
                raise ValueError("connected path exceeds the level tolerance")
            if not (self.max_step_length <= _CHORD_LIMIT):
                raise ValueError("connected path exceeds the chordal step limit")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise real inner products of two C-contiguous (N, 32) stacks.

    Each row is summed over its own 32 contiguous reals, so a row's value
    does not depend on the other rows of the stack.
    """
    return np.add.reduce(a * b, axis=1)


def _rows(keep: np.ndarray, *arrays) -> list:
    """The rows of each array where the boolean ``keep`` is set.

    Integer rows and take(): several times faster than a boolean mask on
    stacks of a few dozen rows.
    """
    index = keep.nonzero()[0]
    return [a.take(index, 0) for a in arrays]


def _tcg(d, dd, dn, f, nb, radius):
    """Steihaug-Toint truncated CG on the quadratic model of every row.

    Row i maximizes m(eta) = <d, eta> + <eta, A eta> / 2 over tangent
    steps with |eta| <= radius[i], where A is applied in closed form by
    :func:`landscape._hess_vec` with the row's factor ``f`` and normal
    directions ``nb``.  :func:`_descend` passes the data of -J, d = -grad J
    and the negated Hessian factor, so the model's gain is the predicted
    decrease of J.  Steps and directions are flat (N, 32) float views of
    8x2 tangents; ``dd`` holds <d, d> of every row (:func:`_row_dot`) and
    ``dn`` its square root, |d|, which the caller has for its ``grad_tol``
    test.  CG stops at the boundary (on a step that leaves the
    region or along a direction of non-negative curvature), when the
    residual falls to |d| * min(|d|, _TR_CG_KAPPA), or after _TR_CG_MAX
    steps.  The model gain and the inner products <eta, eta>, <eta, p>,
    <p, p> of the iterate and the search direction p follow the CG
    recurrences (Conn, Gould & Toint, *Trust-Region Methods*, 2000),
    from eta = 0, so step 1 is the Cauchy step.  Each step forms the next
    direction before the rows that stopped leave the stack
    (:func:`_rows`); a stopped row's beta is 0, and its <r, r>, which can
    be subnormal, is never divided.  Rows share no arithmetic.  When all
    rows stop at the same CG step, its running arrays are the result: no
    result arrays are allocated and nothing is scattered.

    Returns ``(eta, gain, boundary)``: the steps, their model gains
    m(eta), and whether each stopped on the boundary.
    """
    n = len(d)
    stop = (dn * np.minimum(dn, _TR_CG_KAPPA)) ** 2
    r2 = radius * radius
    # CG starts at e = 0 with p = r = d.  The scalars become arrays at
    # step 1, where 0.0 + x turns the negative zeros of step p positive.
    e = m = ee = ep = 0.0
    act, p, pp, rr, r = None, d, dd, dd, d
    for j in range(1, _TR_CG_MAX + 1):
        hp = _hess_vec(p, f, nb)
        kappa = _row_dot(p, hp)
        alpha = rr / np.where(kappa < 0.0, -kappa, 1.0)
        ap = alpha * pp
        ee_new = ee + alpha * (2.0 * ep + ap)
        out = (kappa >= 0.0) | (ee_new >= r2)
        step = alpha
        if np.count_nonzero(out):
            # The positive root tau of |e + tau p| = radius.
            tau = (np.sqrt(ep * ep + pp * (r2 - ee)) - ep) / pp
            step = np.where(out, tau, alpha)
        m = m + step * (rr + 0.5 * step * kappa)
        sc = step[:, None]
        e, r = e + sc * p, r + sc * hp
        ee = ee_new
        rr_new = _row_dot(r, r)
        fin = out | (rr_new <= stop)
        stopped = np.count_nonzero(fin)
        if stopped == len(fin) or j == _TR_CG_MAX:
            if act is None:
                return e, m, out
            eta[act], gain[act], boundary[act] = e, m, out
            return eta, gain, boundary
        # A running row has rr > 0.
        if stopped:
            beta = np.divide(rr_new, rr, out=np.zeros(len(rr)), where=~fin)
        else:
            beta = rr_new / rr
        ep, pp, rr = beta * (ep + ap), rr_new + beta * beta * pp, rr_new
        p = r + beta[:, None] * p
        if stopped:
            if act is None:
                eta, gain, boundary = np.empty_like(d), np.empty(n), np.empty(n, dtype=bool)
                act = np.arange(n)
            # Every row is written; a row still running is written again
            # at the step where it stops.
            eta[act], gain[act], boundary[act] = e, m, out
            act, r2, m, ee, ep, pp, rr, stop, f, nb, e, r, p = _rows(
                ~fin, act, r2, m, ee, ep, pp, rr, stop, f, nb, e, r, p)


def _trial_frames(w: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The QR retractions of the trial points w + eta of :func:`_descend`.

    A step can collapse a frame's rank: from a start whose gradient is
    rounding noise, CG may step along a normal direction such as -x1.
    Only when :func:`stiefel._qf` raises for the stack are the rows
    retracted one by one, bitwise as in the stack, and a collapsed row
    gets its base frame back.  That zero step decreases J by exactly 0,
    which the acceptance test rejects (every tCG gain is positive), so
    the row is retried at a quarter of its radius.
    """
    y = w + eta.view(complex).reshape(w.shape)
    try:
        return _qf(y)
    except RuntimeError:
        q = w.copy()
        for i, frame in enumerate(y):
            try:
                q[i] = _qf(frame)
            except RuntimeError:
                pass
        return q


def _descend(w0: np.ndarray, params: LandscapeParams, cfg: OptimizerConfig,
             keep_frames: bool = False):
    """Run the optimizer of :func:`optimize` on every frame of an (N, 8, 2) stack.

    The engine only minimizes.  A maximize batch runs as the minimize
    run of its dual frames, u- and v-rows swapped (``_DUAL_ROWS``), since
    J(dual X) = 1 - J(X): its values are read back as 1 - J, which stays
    monotone, and its frames are swapped back.  Near J = 1 the value
    tr(G) / 2 resolves J only to an ulp of 1; near J = 0 it resolves J,
    its gradient and its Hessian factor to relative precision, so a run
    next to either extreme reaches ``grad_tol``.

    Every batch runs in N's eigenbasis B (:func:`landscape.coord_change`):
    the starts are rotated once to X B, whose J is that of X for
    N = diag(1 + |w|, 1 - |w|), with R(N) built from |w| itself, and kept
    frames are rotated back by B^H.  With N diagonal, J = tr(G) / 2 sums
    non-negative terms, so no value falls below 0, also off the z axis,
    where the rounded N of the state can have a negative eigenvalue
    (-2.8e-17 at w = (0.6, 0, 0.8)).  On the z axis with gamma >= 0, B is
    the identity.

    Rows share no arithmetic, so each row's run is bitwise the run of a
    batch of one.  Rows advance in lockstep: every row still running
    accepts one step per iteration.  The starts are iteration 0's
    accepted frames, and each of the ``max_iters + 1`` passes first takes
    the first order of the accepted frames and records it; the last pass
    stops there.  The arrays of an iteration's first trust-region trial,
    with the radius rule applied to every row, are the iteration's
    result.  A rejected row is retried at a quarter of its radius, and
    only accepted retries are written into those arrays; a row with no
    accepted trial after _TR_MAX_SHRINKS radii stalls.  A trial whose
    retraction collapses a column is rejected (:func:`_trial_frames`).
    The running set is compacted only when a run ends, by :func:`_rows`.

    The kernels run on the frames' float views (:func:`landscape._gram`).
    Each trial point gets one Gram product G, which gives its value
    J = tr(G) / 2 and, once the trial is accepted, the negated gradient
    and Hessian factor that :func:`_tcg` takes: :func:`landscape._first_order`
    of -G and -R(N); each iterate's four normal directions are built once
    for all the CG steps of its trials.

    Returns ``(rows, bounds, converged, stalled, frames)``: ``rows`` is
    one run-sorted (iterates, 2) float stack of (objective, gradient
    norm), in which run i's records are ``rows[bounds[i]:bounds[i + 1]]``
    in iteration order; ``bounds`` is an (N + 1,) int array, the flags
    are boolean arrays, and ``frames`` is the (iterates, 8, 2) stack of
    frames in the order of ``rows`` when ``keep_frames`` is set, else
    None.
    """
    dual = cfg.direction == "maximize"
    n = len(w0)
    ids = np.arange(n)
    basis = coord_change(params)
    # R(N) of N = diag(1 + r, 1 - r) scales both parts of column 0 by
    # 1 + r and of column 1 by 1 - r.
    r = params.norm_w
    rn = np.diag([1.0 + r, 1.0 + r, 1.0 - r, 1.0 - r])
    nrn = -rn
    w = (w0.take(_DUAL_ROWS, 1) if dual else w0) @ basis
    g = _gram(w.view(np.float64), rn)
    value = _gram_value(g)
    radius = np.full(n, _TR_RADIUS_START)
    history = []
    stalled = np.zeros(n, dtype=bool)
    for it in range(cfg.max_iters + 1):
        # d is the descent direction -grad J as flat float rows; f is the
        # negated Hessian factor of each frame.  Both are linear in
        # (G, R(N)), so they are the first order of -G and -R(N).
        d, f = _first_order(w.view(np.float64), -g, nrn)
        d = d.reshape(len(ids), 32)
        dd = _row_dot(d, d)
        gnorm = np.sqrt(dd)
        history.append((ids, value, gnorm, w if keep_frames else None))
        if it == cfg.max_iters:
            break
        done = gnorm < cfg.grad_tol
        if np.count_nonzero(done):
            ids, value, dd, gnorm, radius, w, d, f = _rows(
                ~done, ids, value, dd, gnorm, radius, w, d, f)
            if not len(ids):
                break
        tw, td, tdd, tdn, tf, tv, tr = w, d, dd, gnorm, f, value, radius
        tn = _normals(w.view(np.float64))
        for shrink in range(_TR_MAX_SHRINKS):
            eta, gain, boundary = _tcg(td, tdd, tdn, tf, tn, tr)
            cand = _trial_frames(tw, eta)
            g_cand = _gram(cand.view(np.float64), rn)
            v_cand = _gram_value(g_cand)
            # rho = actual / gain is compared through products: every tCG
            # gain is positive, so rho > 0.1 needs no test of actual >= 0.
            actual = tv - v_cand
            accept = actual > _TR_RHO_ACCEPT * gain
            # An accepted row sets its radius for the next iteration: a
            # quarter, double or the same; tr never exceeds the cap.
            grow = (actual > 0.75 * gain) & boundary
            factor = np.where(actual < 0.25 * gain, 0.25, np.where(grow, 2.0, 1.0))
            r_cand = np.minimum(factor * tr, _TR_RADIUS_MAX)
            hits = np.count_nonzero(accept)
            if shrink == 0:
                w_new, v_new, g_new, r_new, ok = cand, v_cand, g_cand, r_cand, accept
                rejected = hits < len(accept)
                if not rejected:
                    break
                trial = np.arange(len(ids))
            elif hits:
                hit, c, v, gc, rc = _rows(accept, trial, cand, v_cand, g_cand, r_cand)
                w_new[hit], v_new[hit], g_new[hit], r_new[hit], ok[hit] = c, v, gc, rc, True
                if hits == len(accept):
                    break
            # A rejected trial is retried at a quarter of its radius.
            trial, tw, td, tdd, tdn, tf, tn, tv, tr = _rows(
                ~accept, trial, tw, td, tdd, tdn, tf, tn, tv, tr)
            tr = 0.25 * tr
        if rejected and np.count_nonzero(ok) < len(ok):
            stalled[ids[~ok]] = True
            ids, w_new, v_new, g_new, r_new = _rows(ok, ids, w_new, v_new, g_new, r_new)
            if not len(ids):
                break
        w, value, g, radius = w_new, v_new, g_new, r_new

    # Sort the per-iteration records run by run, in iteration order: run
    # i's records are the slice bounds[i]:bounds[i + 1] of the stack.
    run_of = np.concatenate([h[0] for h in history])
    order = np.argsort(run_of, kind="stable")
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(run_of, minlength=n), out=bounds[1:])
    values = np.concatenate([h[1] for h in history])
    rows = np.column_stack([
        1.0 - values if dual else values,
        np.concatenate([h[2] for h in history]),
    ]).take(order, 0)
    # A run converged when its last record is below grad_tol: every other
    # run ended by stalling or at max_iters above it.
    converged = rows[:, 1].take(bounds[1:] - 1) < cfg.grad_tol
    frames = None
    if keep_frames:
        frames = np.concatenate([h[3] for h in history]).take(order, 0)
        frames = frames @ basis.conj().T
        if dual:
            frames = frames.take(_DUAL_ROWS, 1)
    return rows, bounds, converged, stalled, frames


def optimize(
    start: KrausPoint, params: LandscapeParams, cfg: OptimizerConfig = OptimizerConfig()
) -> Trajectory:
    """Riemannian trust-region iteration with truncated-CG steps.

    Each iteration models J around the current frame by its gradient and
    closed-form Hessian, Hess J[xi] = Proj_X(P xi N - xi sym(X^H P X N)),
    and solves the model inside a trust region of radius 1 at the start
    (at most 2) by Steihaug-Toint truncated conjugate gradients.  A trial
    costs one QR retraction and one Gram product.  It is accepted when J
    moves in the run direction by more than 0.1 of the model's gain
    (rho > 0.1), so the value sequence is monotone; a rejected trial is
    retried within the iteration at a quarter of the radius, so every
    recorded iterate is an accepted step.  After an accepted step the
    radius shrinks fourfold when rho < 0.25 and doubles when rho > 0.75
    on the region's boundary.  Terminates at ``grad_tol``, at
    ``max_iters``, or when the radius collapses (``stalled``).  A
    maximize run minimizes J of the dual frame and reports 1 - J, which
    resolves J near 1 to relative precision; see :class:`Trajectory`.

    This is the campaign engine of :func:`multi_start` on a batch of one
    frame, so a run here is bitwise the same run inside any campaign.
    The iterates after the start are checked as one stack by the rule of
    :class:`KrausPoint` (:func:`stiefel._kraus_points`).
    """
    rows, _, converged, stalled, frames = _descend(
        start.matrix[None], params, cfg, keep_frames=True)
    points = (start,) + _kraus_points(frames[1:])
    iterates = [(p, v, g) for p, (v, g) in zip(points, rows.tolist())]
    return Trajectory(
        iterates=iterates,
        terminated="converged" if converged[0] else "max_iters",
        stalled=bool(stalled[0]),
    )


def _haar_starts(seed: int, n: int) -> np.ndarray:
    """Haar frames of starts 0..n-1, the first n frames of one seeded stream.

    They are :func:`stiefel._haar_frames` of ``default_rng(seed)``, so
    start i is the i-th Haar frame of the stream and the same for any
    n >= i + 1.  ``seed`` must be a non-negative integer; numpy integers
    are accepted (:func:`stiefel._seeded_rng`).
    """
    return _haar_frames(_seeded_rng(seed), n)


def rerun_start(
    params: LandscapeParams, seed: int, index: int, cfg: OptimizerConfig
) -> Trajectory:
    """Re-run one multi-start member deterministically.

    Redraws the campaign's first ``index + 1`` Haar frames
    (:func:`_haar_starts`) and runs frame ``index``, so the run is bitwise
    run ``index`` of any campaign of the same seed with more starts.
    """
    if index < 0:
        raise ValueError(f"start index must be non-negative, got {index}")
    start = KrausPoint.from_matrix(_haar_starts(seed, index + 1)[index])
    return optimize(start, params, cfg)


def multi_start(
    params: LandscapeParams,
    n_starts: int,
    seed: int,
    cfg: OptimizerConfig = OptimizerConfig(),
    start: KrausPoint | None = None,
) -> MultiStartReport:
    """Seeded Haar multi-start campaign with deterministic aggregation.

    Start i is the i-th Haar frame of the one stream
    ``default_rng(seed)``, all starts drawn in one pass
    (:func:`_haar_starts`), so a start's frame does not depend on
    ``n_starts``.  ``seed`` must be a non-negative integer.  All starts
    run as one (N, 8, 2) batch of the optimizer engine, whose rows do not
    depend on each other, so each run is bitwise the run of that start
    alone (:func:`rerun_start`); a maximize campaign runs as the minimize
    campaign of the dual starts, with values 1 - J.  Saddle hits are
    classified from each run's final objective and gradient norm, all
    runs in one pass.  The report is read off the engine's run-sorted
    record stack: the final rows by one fancy index, the iteration
    counts from the runs' bounds and the best run's rows as one slice;
    no per-run list is built.  An explicit ``start`` replaces the Haar
    draw and requires ``n_starts == 1``; it documents the behavior of
    runs launched exactly on a critical manifold.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if start is not None and n_starts != 1:
        raise ValueError("an explicit start point requires n_starts == 1")
    target = 1.0 if cfg.direction == "maximize" else 0.0
    w0 = start.matrix[None] if start is not None else _haar_starts(seed, n_starts)
    rows, bounds, converged, stalled, _ = _descend(w0, params, cfg)

    finals = rows.take(bounds[1:] - 1, 0)
    values = tuple(finals[:, 0].tolist())
    gaps = [abs(target - v) for v in values]
    reached = sum(1 for g in gaps if g <= 1e-6)
    hits = int((_classify(finals[:, 0], finals[:, 1], params) >= _FIRST_SADDLE).sum())
    best = max(values) if cfg.direction == "maximize" else min(values)
    best_index = values.index(best)
    return MultiStartReport(
        starts=n_starts,
        seed=seed,
        direction=cfg.direction,
        reached_global=reached,
        final_values=values,
        worst_gap=max(gaps),
        classified_saddle_hits=hits,
        best_index=best_index,
        converged=int(converged.sum()),
        best_rows=map(tuple, rows[bounds[best_index]:bounds[best_index + 1]].tolist()),
        iterations=(np.diff(bounds) - 1).tolist(),
        stalled=int(stalled.sum()),
    )


def classify_critical(p: KrausPoint, params: LandscapeParams):
    """Match a near-critical point to a critical sub-manifold by value.

    Returns the matching :class:`CriticalManifoldId`, or "non-critical"
    when the gradient norm exceeds 1e-6 or no predicted value lies within
    1e-6 of J(p), or "ambiguous" when two predicted values sit within
    2e-6 of each other around the match.  That happens at both ends of
    the ball: as |w| -> 0, where the saddle values (1 -/+ |w|) / 2 close
    on 1/2 (|w| <= 2e-6), and as |w| -> 1, where lambda_- = (1 - |w|) / 2
    nears 0 and lambda_+ nears 1 (1 - |w| <= 4e-6, short of the pure
    states, which have no saddle values).
    """
    value, grad, _ = _first_order_mat(p.matrix, params)
    label = _classify(np.reshape(value, 1), np.reshape(np.linalg.norm(grad), 1), params)[0]
    labels = ("non-critical", "ambiguous") + tuple(
        CriticalManifoldId(tag) for tag, _, _, _ in _critical_manifolds(params))
    return labels[label]


# The label indexes of _classify: "non-critical", "ambiguous", then 2 + i
# for row i of landscape._critical_manifolds, whose saddles follow the
# two extremes.
_NON_CRITICAL, _AMBIGUOUS, _FIRST_SADDLE = 0, 1, 4


def _classify(values: np.ndarray, gnorms: np.ndarray, params: LandscapeParams):
    """The label index of :func:`classify_critical` of each (J, gradient norm) row.

    A row is non-critical when its gradient norm is at least 1e-6 or its
    nearest candidate value is farther than 1e-6; of two equally near
    candidates the smaller value is the match.  The match is ambiguous
    when another candidate lies within 2e-6 of it, near the fully mixed
    state and near the pure states alike (see :func:`classify_critical`).
    """
    cand = np.array([value for _, value, _, _ in _critical_manifolds(params)])
    order = np.argsort(cand, kind="stable")
    diff = np.abs(values[:, None] - cand[order])
    best = order[diff.argmin(axis=1)]
    alone = (np.abs(cand[:, None] - cand) <= 2e-6).sum(axis=1) == 1
    label = np.where(alone[best], 2 + best, _AMBIGUOUS)
    far = (gnorms >= 1e-6) | (diff.min(axis=1) > 1e-6)
    return np.where(far, _NON_CRITICAL, label)


def _block_polar(frames: np.ndarray):
    """Polar decompositions of the u- and v-blocks of a stack of frames.

    A 4x2 block with the SVD W diag(sig) Z^H is Q (Z^H diag(sig^2) Z)^(1/2),
    Q = W Z^H.  Returns ``(q, sig, zh)``, leading axes (u or v rows, frame).
    """
    w, sig, zh = np.linalg.svd(
        np.stack([frames[:, :4], frames[:, 4:]]), full_matrices=False)
    return w @ zh, sig, zh


def _lift(iso: np.ndarray, turn: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """The frames [Q_u M_u^(1/2); Q_v M_v^(1/2)], Q = ``iso @ turn``, M = ``grams``.

    The leading axis of each argument picks the u- or v-rows; the caller
    makes M_u + M_v = I, so every frame is orthonormal to rounding.
    """
    x = iso @ (turn @ _psd_sqrt(grams))
    return np.concatenate([x[0], x[1]], axis=-2)


def _riccati(g, rho: float, beta: float, r: float, tau: float):
    """M and I - M at time ``tau`` >= 0 of the rising Riccati flow.

    In N's eigenbasis, N = diag(1 + r, 1 - r), the flow
    dM/dt = N M + M N - 2 M N M solves M(t)^-1 = I + E (M(0)^-1 - I) E
    with E = exp(-N t) (Helmke & Moore, *Optimization and Dynamical
    Systems*, 1994).  With M(0) = Z diag(m1, m2) Z^H, m1 >= m2, c = 1 - m,
    the data rho = m2 / c2, beta = c1 / m1 and G = Z diag(rho beta, 1) Z^H
    (the Hermitian triple ``g``) stay finite where M(0) is singular, and
    with X = E G E and s = beta det(E)^2,

        M = (rho I + adj X) / d,   I - M = (X + s I) / d,   d = rho + tr X + s.

    The diagonal sums add non-negative terms, so I - M keeps its small
    eigenvalues to relative precision.  Every term is scaled by
    exp(2 (1 - r) t), which stays finite for 2 (1 - r) t < 700.
    Returns M and I - M as Hermitian triples (m11, m12, m22).
    """
    g11, g12, g22 = g
    # q^2 >= 1e-300 keeps d >= q^2 tr G >= q^2 positive.  A smaller q^2
    # is below rounding next to rho u + g22, and where those are zero
    # (M(0) singular, its kernel on N's first axis) it cancels from M.
    q = max(math.exp(-2.0 * r * tau), 1e-150)
    u = math.exp(2.0 * (1.0 - r) * tau)
    x11, x12, x22 = q * q * g11, q * g12, g22
    s = beta * q * q / u
    a = rho * u
    d = a + x11 + x22 + s
    return (((a + x22) / d, -x12 / d, (a + x11) / d),
            ((x11 + s) / d, x12 / d, (x22 + s) / d))


def level_transfer(
    p: KrausPoint, params: LandscapeParams, target_mu: float
) -> KrausPoint:
    """Carry a point to another level along the canonical gradient flow, in closed form.

    J depends on a frame [U; V] only through M = U^H U, J = tr(M N) / 2,
    and the gradient flow of J for the canonical metric of the Stiefel
    manifold (Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20,
    1998) moves M by a matrix Riccati equation with a closed-form
    solution (:func:`_riccati`).  J(t) is monotone: t is doubled until
    J(t) brackets ``target_mu``, then refined by Newton steps on
    dJ/dt = tr(M N (I - M) N), bisecting where a step leaves the bracket.
    Downwards, I - M rises: the dual point (u- and v-rows swapped) goes
    up to the level 1 - ``target_mu``.

    The endpoint is M(t) lifted with p's own polar isometries Q_u and Q_v
    (:func:`_block_polar`, :func:`_lift`): [Q_u M^(1/2); Q_v (I - M)^(1/2)],
    where p = [Q_u M(0)^(1/2); Q_v (I - M(0))^(1/2)].  So q's blocks keep
    p's isometries wherever M and I - M are invertible, and q is not the
    endpoint of the embedded-metric flow on frames.  The level is checked
    to 1e-9 on the lifted frame and the point validated.

    Raises :class:`FlowStallError` with J(p) when the gradient norm at p
    is below 1e-6 max(min(1, 2 (1 - |w|)), 1e-6), and with the flow's
    limit J(+-inf) when
    ``target_mu`` lies beyond it: a singular M(0) keeps its rank, so
    from rank-one u-rows J rises at most to the saddle value lambda_+.
    """
    if not 0.0 < target_mu < 1.0:
        raise ValueError("target level must lie strictly inside (0, 1)")
    w = p.matrix
    value, grad, _ = _first_order_mat(w, params)
    value = float(value)
    if abs(target_mu - value) <= 1e-14:
        return p
    # The gradient shrinks like 1 - |w| near the pure states, so the stall
    # test scales with it there; nothing changes for |w| <= 1/2.
    scale = max(min(1.0, 2.0 * (1.0 - params.norm_w)), 1e-6)
    if np.linalg.norm(grad) < _STALL_GRAD * scale:
        raise FlowStallError(value)
    iso, sig, zh = _block_polar(w[None])
    basis = coord_change(params)  # N = basis diag(1 + r, 1 - r) basis^H
    (m1, m2), (c2, c1) = (sig[:, 0] ** 2).tolist()
    beta, rho = c1 / m1, m2 / c2
    y = zh[0, 0] @ basis
    gm = (y.conj().T * (rho * beta, 1.0)) @ y
    g = (gm[0, 0].real, complex(gm[0, 1]), gm[1, 1].real)
    r, lp, lm = params.norm_w, params.lambda_plus, params.lambda_minus
    up, target = target_mu > value, target_mu
    if not up:
        g, rho, beta, target = (g[2], -g[1], g[0]), beta, rho, 1.0 - target_mu
    m = _riccati(g, rho, beta, r, 0.0)[0]
    lo, f_lo, hi = 0.0, lp * m[0] + lm * m[2], 1.0
    while True:
        mc = _riccati(g, rho, beta, r, hi)
        f = lp * mc[0][0] + lm * mc[0][2]
        if f >= target:
            break
        # Stop where J no longer moves in float, the flow's limit, or
        # where doubling t would take 2 (1 - r) t past 700.
        if not f > f_lo or 4.0 * (1.0 - r) * hi > 700.0:
            raise FlowStallError(max(f, f_lo) if up else 1.0 - max(f, f_lo))
        lo, f_lo, hi = hi, f, 2.0 * hi
    t = hi
    for _ in range(100):
        if f < target:
            lo = t
        elif f > target:
            hi = t
        else:
            break
        (m11, m12, m22), (c11, c12, c22) = mc
        slope = 4.0 * (lp * lp * m11 * c11 + lm * lm * m22 * c22
                       + 2.0 * lp * lm * (m12 * c12.conjugate()).real)
        step = t + (target - f) / slope if slope > 0.0 else lo
        if step != t and not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step in (t, lo, hi):  # a Newton fixed point, or a bracket one ulp wide
            break
        t = step
        mc = _riccati(g, rho, beta, r, t)
        f = lp * mc[0][0] + lm * mc[0][2]
    grams = np.array([[[h[0], h[1]], [h[1].conjugate(), h[2]]]
                      for h in (mc if up else mc[::-1])])
    w = _lift(iso[:, 0], np.eye(2), basis @ grams @ basis.conj().T)
    value = float(_objective_mat(w, params))
    if abs(value - target_mu) > 1e-9:
        raise FlowStallError(value)
    return KrausPoint.from_matrix(w)


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every frame of a stack.

    Each norm is taken from the two BLAS dot products (real parts, then
    imaginary parts) that ``np.linalg.norm`` uses for one frame, so it
    equals ``np.linalg.norm(x[i])`` bitwise and does not depend on the
    other rows.
    """
    flat = x.reshape(len(x), int(np.prod(x.shape[1:])))
    re, im = flat.real, flat.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square roots of a stack of 2x2 positive semidefinite matrices.

    By Cayley-Hamilton, M^(1/2) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)).
    A determinant or trace pushed below zero by rounding counts as zero,
    and M = 0 has the root 0.
    """
    root_det = np.sqrt(np.maximum(
        (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real, 0.0))
    scale = np.sqrt(np.maximum(
        (m[..., 0, 0] + m[..., 1, 1]).real + 2.0 * root_det, 0.0))
    root = m + root_det[..., None, None] * np.eye(2)
    return root / np.where(scale > 0.0, scale, 1.0)[..., None, None]


def _gram_witness(wa: np.ndarray, wb: np.ndarray):
    """The same-level path between two 8x2 frames, in closed form.

    J depends on a frame [U; V] only through M = U^H U, and V^H V = I - M,
    so every frame over M(s) = (1 - s) M_a + s M_b has the value
    (1 - s) J(a) + s J(b).  Node s is the frame
    [Q_u(s) M(s)^(1/2); Q_v(s) (I - M(s))^(1/2)].  Each endpoint block is
    Q S, with the isometry Q and S = (block^H block)^(1/2) taken from the
    block's own SVD, and Q(s) runs from Q_a to Q_b: the Grassmann geodesic
    A cos(s Theta) + G sin(s Theta) from A = Q_a Y to B = Q_b Z, where
    Y cos(Theta) Z^H is an SVD of Q_a^H Q_b (Edelman, Arias & Smith,
    SIAM J. Matrix Anal. Appl. 20, 1998), times Y^H (Y Z^H)^s, the
    principal U(2) geodesic from Y^H to Z^H.  The eigenbasis of Y Z^H is
    orthonormalised by QR, which keeps every node a frame to rounding
    however close its two eigenphases sit.

    Returns the function that maps an (n,) array of nodes s in [0, 1] to
    their (n, 8, 2) stack of frames.
    """
    q, sig, zh = _block_polar(np.stack([wa, wb]))  # axes: u or v rows, endpoint a or b
    gram_a, gram_b = (zh[0].conj().swapaxes(-1, -2) * sig[0, :, None, :] ** 2) @ zh[0]
    y, cos, zh = np.linalg.svd(q[:, 0].conj().swapaxes(-1, -2) @ q[:, 1])
    start = q[:, 0] @ y
    end = q[:, 1] @ zh.conj().swapaxes(-1, -2)
    r = end - start @ (start.conj().swapaxes(-1, -2) @ end)
    sin = np.sqrt((r.real**2 + r.imag**2).sum(axis=-2))
    theta = np.arctan2(sin, cos)
    g = r / np.where(sin > 0.0, sin, 1.0)[..., None, :]
    turn = y @ zh
    e = np.linalg.qr(np.linalg.eig(turn)[1])[0]
    phase = np.angle((e.conj() * (turn @ e)).sum(axis=-2))
    left, right = (y.conj().swapaxes(-1, -2) @ e)[:, None], e.conj().swapaxes(-1, -2)[:, None]
    start, g = start[:, None], g[:, None]

    def nodes(s: np.ndarray) -> np.ndarray:
        t = s[:, None, None]
        gram = (1.0 - t) * gram_a + t * gram_b
        angle = s[:, None] * theta[:, None]
        iso = start * np.cos(angle)[..., None, :] + g * np.sin(angle)[..., None, :]
        spin = (left * np.exp(1j * s[:, None] * phase[:, None])[..., None, :]) @ right
        return _lift(iso, spin, np.stack([gram, np.eye(2) - gram]))

    return nodes


def _chord(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


class _Witness(NamedTuple):
    """A level-set witness on raw frames: what :func:`levelset_connect` reports.

    ``frames`` are the waypoints as one (M, 8, 2) stack, read-only and
    checked once by the ``KrausPoint`` rule when the path is connected,
    ``values`` their J and ``steps`` the chord into each waypoint (0 into
    the first).  A failed witness keeps only the two endpoints.
    """

    frames: np.ndarray
    values: np.ndarray
    steps: np.ndarray
    status: str
    deviation: float
    step: float
    detail: str = ""


def _stack_witness(frames: np.ndarray, params: LandscapeParams, mu: float,
                   status: str, detail: str = "", deviation: float | None = None,
                   step: float | None = None) -> _Witness:
    """The witness of an (M, 8, 2) stack, its values and chords taken once.

    ``deviation`` and ``step`` default to the stack's own largest |J - mu|
    and chord.
    """
    values = _objective_mat(frames, params)
    steps = np.zeros(len(frames))
    steps[1:] = _norms(frames[1:] - frames[:-1])
    if deviation is None:
        deviation = float(np.abs(values - mu).max())
    if step is None:
        step = float(steps.max())
    return _Witness(frames, values, steps, status, deviation, step, detail)


def _exhausted(ends: np.ndarray, params: LandscapeParams, mu: float) -> _Witness:
    """The failed witness of a path that needs more than ``_NODE_BUDGET`` nodes."""
    return _stack_witness(ends, params, mu, "failed",
                          "node budget exhausted before reaching the step limit",
                          math.inf, math.inf)


def _witness(wa: np.ndarray, wb: np.ndarray, params: LandscapeParams,
             mu: float) -> _Witness:
    """:func:`levelset_connect` on the endpoints' 8x2 frames."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("level must lie in [0, 1]")
    ends = np.stack([wa, wb])
    for name, value in zip("ab", _objective_mat(ends, params).tolist()):
        dev = abs(value - mu)
        if dev > 1e-8:
            raise ValueError(f"endpoint {name} is off the level by {dev:.3e}")
    if _chord(wa, wb) < 1e-12:
        return _stack_witness(wa[None], params, mu, "connected")
    nodes = _gram_witness(wa, wb)
    length = _norms(np.diff(nodes(np.linspace(0.0, 1.0, 9)), axis=0)).sum()
    s = np.linspace(0.0, 1.0, math.ceil(length / (0.85 * _CHORD_LIMIT)) + 1)
    if len(s) > _NODE_BUDGET:
        return _exhausted(ends, params, mu)
    frames = nodes(s)
    frames[0], frames[-1] = wa, wb
    while True:
        seg = np.flatnonzero(_norms(frames[1:] - frames[:-1]) > 0.95 * _CHORD_LIMIT)
        if not len(seg):
            break
        if len(frames) + len(seg) > _NODE_BUDGET:
            return _exhausted(ends, params, mu)
        mids = 0.5 * (s[seg] + s[seg + 1])
        s = np.insert(s, seg + 1, mids)
        frames = np.insert(frames, seg + 1, nodes(mids), axis=0)
    found = _stack_witness(frames, params, mu, "connected")
    if not (found.step <= _CHORD_LIMIT and found.deviation <= 1e-6):
        return _stack_witness(
            ends, params, mu, "failed",
            "refinement finished above the step or level tolerance",
            found.deviation, found.step)
    _check_frames(frames, _KRAUS_BLOCKS, "channel")
    frames.setflags(write=False)
    return found


def levelset_connect(
    a: KrausPoint, b: KrausPoint, params: LandscapeParams, mu: float
) -> LevelSetPath:
    """An exact same-level path between two points, a connectivity witness.

    The path is the closed-form lift of the segment from M_a to M_b of
    Gram matrices (:func:`_gram_witness`).  J is linear in M, so every
    node lies between J(a) and J(b) to rounding, and no corrector runs.
    This holds at every level in [0, 1], the saddle values and the
    extremes included.  The waypoints are a and b themselves with nodes
    between them: as many evenly spaced values of s as the length of a
    9-node pass asks for at chords of 0.0425, which leaves the speed of
    the path in s room to vary, then bisection in s of every chord above
    0.0475, since M(s)^(1/2) is only Hoelder-1/2 in s where M(s) is
    singular.  At most 4096 nodes: a path whose first pass or whose
    next bisection round would exceed them fails with "node budget
    exhausted before reaching the step limit".  The finished path is checked
    on its own terms: J, feasibility and the chords at every waypoint.
    A failed path keeps a and b as its waypoints; coincident endpoints
    give the one waypoint a.
    """
    found = _witness(a.matrix, b.matrix, params, mu)
    if found.status == "failed":
        waypoints = (a, b)
    elif len(found.frames) == 1:
        waypoints = (a,)
    else:
        waypoints = _points_of(found.frames)
    return LevelSetPath(
        mu=mu,
        waypoints=waypoints,
        max_value_deviation=found.deviation,
        max_step_length=found.step,
        status=found.status,
        detail=found.detail,
    )
