"""Optimization and level-set exploration of the control landscape.

A monotone Riemannian trust-region optimizer whose steps solve the
quadratic model of the closed-form Hessian by truncated conjugate
gradients (Absil, Baker & Gallivan, Found. Comput. Math. 7, 2007),
seeded multi-start campaigns, classification of converged points
against the known critical sub-manifolds, transfer of points between
level sets along the normalized gradient flow, and a numerical
connectivity witness that traces a path inside a single level set.

One engine runs the optimizer: every campaign is one call on an
(N, 8, 2) stack of raw frames, retracted by QR, that keeps, per run,
only the objective and gradient norm of each iterate.  :func:`optimize`
is that engine on a single frame; validated :class:`KrausPoint` objects
are built only where a caller receives them.  The level-set tracer works
the same way: each round of path nodes is one stack through a masked
Newton corrector, and the finished path is validated once, as a stack of
waypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .landscape import (
    CriticalManifoldId,
    LandscapeParams,
    ManifoldTag,
    _from_diag_mat,
    _grad_sym_mat,
    _hess_ambient_mat,
    _objective_mat,
    _rgrad_mat,
    saddle_values,
    to_diag,
)
from .stiefel import (
    KrausPoint,
    _ginibre,
    _haar_frame,
    _kraus_points,
    _polar,
    _project_mat,
    _qf,
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
_FLOOR_ULPS = 4
_TINY = 5e-324  # smallest subnormal: a positive divisor stays unchanged
_CHORD_LIMIT = 0.05
_SADDLE_GUARD = 1e-3
_STALL_GRAD = 1e-6
# Step-doubling control of level_transfer, in J units.
_FLOW_TOL = 1e-10
_FLOW_STEP_START = 1e-2
_FLOW_STEP_MAX = 0.1
_FLOW_STEP_FLOOR = 1e-8
_FLOW_STEP_GROW = 5.0
_FLOW_STEP_SHRINK = 0.1


class FlowStallError(RuntimeError):
    """Gradient flow ran into a vanishing gradient before the target level."""

    def __init__(self, value_reached: float):
        super().__init__(
            f"gradient flow stalled near a critical level at J = {value_reached:.9f}"
        )
        self.value_reached = value_reached


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the trust-region iteration.

    The run direction and its two stopping counts are the only settings.
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class Trajectory:
    """One optimizer run: per-iterate records and the termination reason.

    ``iterates`` holds (point, objective, gradient norm) triples: the
    start, then one per accepted trust-region step, so the objective
    sequence is monotone in the run direction.  ``terminated``
    is "converged" or "max_iters".  Only :func:`optimize` and
    :func:`rerun_start` build a Trajectory; a campaign keeps raw frames
    and (objective, gradient norm) rows instead.

    A run converges when the gradient norm drops below ``grad_tol``, or
    when it reaches the precision floor of J.  Near J = 1 a gradient norm
    of 1e-8 leaves every value difference a step could make below one
    ulp, so no trial is accepted although the run sits at the optimum.
    An iteration therefore gives up once a rejected trial's model gain
    is below the float resolution of J (4 ulps of max(1, |J|)), since
    smaller radii predict smaller gains.  The run then ends at the floor
    when the Cauchy step, the model's best step along the gradient,
    gains less than that resolution within the iteration's starting
    radius capped at the initial radius 1: a larger radius remembered
    from long steps along a flat direction could promise a gain that
    only the quadratic model, not J on the manifold, supports.  The run
    ends as "converged" with ``stalled`` False.  A run whose radius
    collapses while that Cauchy gain is above the floor sets ``stalled``
    and counts as max_iters.
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
    in start order: ``final_values[i]`` is run i's final objective.
    ``converged`` counts the runs that ended with terminated ==
    "converged"; ``best_rows`` holds the (objective, gradient norm) pair
    of every iterate of the best run, and ``iterations[i]`` is the number
    of accepted steps of run i.
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

    def __post_init__(self):
        if not 0 <= self.reached_global <= self.starts:
            raise ValueError("reached_global must lie in [0, starts]")
        if not 0 <= self.converged <= self.starts:
            raise ValueError("converged must lie in [0, starts]")
        if self.worst_gap < 0:
            raise ValueError("worst_gap must be non-negative")
        object.__setattr__(self, "final_values", tuple(self.final_values))
        object.__setattr__(self, "best_rows", tuple(self.best_rows))
        object.__setattr__(self, "iterations", tuple(self.iterations))


@dataclass(frozen=True)
class LevelSetPath:
    """Witness path inside one level set.

    ``status`` is "connected" when every waypoint is feasible, matches
    the level within 1e-6, and consecutive chordal steps stay below 0.05;
    otherwise "failed" with the reason in ``detail``.
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
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if self.status == "connected":
            if self.max_value_deviation > 1e-6:
                raise ValueError("connected path exceeds the level tolerance")
            if self.max_step_length > _CHORD_LIMIT:
                raise ValueError("connected path exceeds the chordal step limit")


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Re<a_i, b_i> of two C-contiguous (N, 8, 2) stacks.

    Each row is summed over its own 32 contiguous reals, so a row's value
    does not depend on the other rows of the stack.
    """
    prod = a.view(np.float64) * b.view(np.float64)
    return prod.reshape(len(prod), -1).sum(axis=1)


def _tcg(w, d, sym, radius, sgn, params):
    """Steihaug-Toint truncated CG on the quadratic model of every row.

    Row i maximizes m(eta) = <d, eta> + <eta, A eta> / 2 over tangent
    steps with |eta| <= radius[i], where d is the ascent direction
    sgn * grad J and A = sgn * Hess J, applied in closed form.  CG stops
    at the boundary (on a step that leaves the region or along a
    direction of non-negative curvature), when the residual falls to
    |d| * min(|d|, _TR_CG_KAPPA), or after _TR_CG_MAX steps.  The model
    gain and the inner products <eta, eta>, <eta, p>, <p, p> of the
    iterate and the search direction p follow the CG recurrences (Conn,
    Gould & Toint, *Trust-Region Methods*, 2000).  Rows leave the stack
    as they stop and share no arithmetic.

    Returns ``(eta, gain, boundary, curv)``: the steps, their model gains
    m(eta), whether each stopped on the boundary, and the curvature
    <d, A d> met by the first CG step.
    """
    n = len(w)
    eta = np.empty_like(d)
    gain = np.empty(n)
    boundary = np.empty(n, dtype=bool)
    rr = _re_inner(d, d)
    r0 = np.sqrt(rr)
    stop = (r0 * np.minimum(r0, _TR_CG_KAPPA)) ** 2
    act = np.arange(n)
    wa, sa, r2, e, r, p = w, sym, radius * radius, np.zeros_like(d), d, d
    m, ee, ep, pp = np.zeros(n), np.zeros(n), np.zeros(n), rr
    for j in range(_TR_CG_MAX):
        hp = _project_mat(wa, _hess_ambient_mat(p, sa, params))
        kappa = sgn * _re_inner(p, hp)
        if j == 0:
            curv = kappa
        alpha = rr / np.where(kappa < 0.0, -kappa, 1.0)
        ee_new = ee + alpha * (2.0 * ep + alpha * pp)
        out = (kappa >= 0.0) | (ee_new >= r2)
        step = alpha
        if out.any():
            # The positive root tau of |e + tau p| = radius.
            tau = (np.sqrt(ep * ep + pp * (r2 - ee)) - ep) / pp
            step = np.where(out, tau, alpha)
        m = m + step * (rr + 0.5 * step * kappa)
        e = e + step[:, None, None] * p
        r = r + (sgn * step)[:, None, None] * hp
        rr_new = _re_inner(r, r)
        fin = out | (rr_new <= stop)
        if j == _TR_CG_MAX - 1:
            fin[:] = True
        if fin.any():
            done = act[fin]
            eta[done], gain[done], boundary[done] = e[fin], m[fin], out[fin]
            live = ~fin
            if not live.any():
                break
            act, wa, sa, r2, e, r, p, m, ee_new, ep, pp, rr, rr_new, alpha, stop = (
                act[live], wa[live], sa[live], r2[live], e[live], r[live], p[live],
                m[live], ee_new[live], ep[live], pp[live], rr[live], rr_new[live],
                alpha[live], stop[live])
        beta = rr_new / rr
        ee, ep, pp = ee_new, beta * (ep + alpha * pp), rr_new + beta * beta * pp
        p = r + beta[:, None, None] * p
        rr = rr_new
    return eta, gain, boundary, curv


def _descend(w0: np.ndarray, params: LandscapeParams, cfg: OptimizerConfig,
             keep_frames: bool = False):
    """Run the optimizer of :func:`optimize` on every frame of an (N, 8, 2) stack.

    Rows share no arithmetic, so each row's run is bitwise the run of a
    batch of one.  Rows advance in lockstep: every row still running
    accepts one step per iteration.  The trust-region trials of an
    iteration retract only the rows still without an accepted step, and
    the running set is compacted only when a run ends.

    Returns ``(rows, converged, stalled, frames)``: ``rows[i]`` is run i's
    (iterates, 2) float array of (objective, gradient norm), the flags
    are boolean arrays, and ``frames[i]`` is run i's (iterates, 8, 2)
    stack of frames when ``keep_frames`` is set, else ``frames`` is None.
    """
    sgn = 1.0 if cfg.direction == "maximize" else -1.0
    n = len(w0)
    ids = np.arange(n)
    w = np.ascontiguousarray(w0, dtype=complex)
    value = _objective_mat(w, params)
    # d is the ascent direction sgn * grad J.
    d = sgn * _rgrad_mat(w, params)
    gnorm = np.sqrt(_re_inner(d, d))
    radius = np.full(n, _TR_RADIUS_START)
    history = [(ids, value, gnorm, w if keep_frames else None)]
    converged = np.zeros(n, dtype=bool)
    stalled = np.zeros(n, dtype=bool)
    for _ in range(cfg.max_iters):
        done = gnorm < cfg.grad_tol
        if done.any():
            converged[ids[done]] = True
            live = ~done
            ids, w, value, d, gnorm, radius = (
                ids[live], w[live], value[live], d[live], gnorm[live], radius[live])
            if not len(ids):
                break
        sym = _grad_sym_mat(w, params)
        # Gains below 4 ulps of J are beyond the resolution of J.
        floor = _FLOOR_ULPS * np.spacing(np.maximum(1.0, np.abs(value)))
        # Each accepted row sets its radius for the next iteration.
        start_radius, radius = radius, np.empty_like(radius)
        w_new, v_new = np.empty_like(w), np.empty_like(value)
        ok = np.zeros(len(ids), dtype=bool)
        # The rows still without an accepted step, compacted when one leaves.
        trial = np.arange(len(ids))
        tw, td, ts, tv, tr, tf = w, d, sym, value, start_radius, floor
        for shrink in range(_TR_MAX_SHRINKS):
            eta, gain, boundary, curv = _tcg(tw, td, ts, tr, sgn, params)
            if shrink == 0:
                curv0 = curv
            cand = _qf(tw + eta)
            v_cand = _objective_mat(cand, params)
            # rho = actual / gain is compared through products: gain > 0.
            actual = sgn * (v_cand - tv)
            accept = (actual >= 0.0) & (actual > _TR_RHO_ACCEPT * gain)
            if accept.any():
                hit = trial[accept]
                w_new[hit], v_new[hit], ok[hit] = cand[accept], v_cand[accept], True
                ra, got, gn = tr[accept], actual[accept], gain[accept]
                grow = (got > 0.75 * gn) & boundary[accept]
                radius[hit] = np.where(
                    got < 0.25 * gn, 0.25 * ra,
                    np.where(grow, np.minimum(2.0 * ra, _TR_RADIUS_MAX), ra))
            # A rejected trial is retried at a quarter of its radius unless
            # its model gain is already below the resolution of J.
            more = ~accept & (gain >= tf)
            if not more.any():
                break
            if not more.all():
                trial, tw, td, ts, tv, tr, tf = (
                    trial[more], tw[more], td[more], ts[more], tv[more], tr[more],
                    tf[more])
            tr = 0.25 * tr
        failed = ~ok
        if failed.any():
            # The Cauchy step's model gain at the starting radius, capped
            # at _TR_RADIUS_START, decides between the floor and a stall.
            dd = gnorm * gnorm
            t = np.minimum(start_radius, _TR_RADIUS_START) / gnorm
            concave = curv0 < 0.0
            t = np.where(concave, np.minimum(t, dd / np.where(concave, -curv0, 1.0)), t)
            at_floor = t * dd + 0.5 * t * t * curv0 < floor
            converged[ids[failed & at_floor]] = True
            stalled[ids[failed & ~at_floor]] = True
            ids, w_new, v_new, radius = ids[ok], w_new[ok], v_new[ok], radius[ok]
            if not len(ids):
                break
        w, value = w_new, v_new
        d = sgn * _rgrad_mat(w, params)
        gnorm = np.sqrt(_re_inner(d, d))
        history.append((ids, value, gnorm, w if keep_frames else None))
    else:
        converged[ids[gnorm < cfg.grad_tol]] = True

    # Regroup the per-iteration records run by run, in iteration order.
    run_of = np.concatenate([h[0] for h in history])
    order = np.argsort(run_of, kind="stable")
    cuts = np.cumsum(np.bincount(run_of, minlength=n))[:-1]
    rows = np.column_stack([
        np.concatenate([h[1] for h in history]),
        np.concatenate([h[2] for h in history]),
    ])
    frames = None
    if keep_frames:
        frames = np.split(np.concatenate([h[3] for h in history])[order], cuts)
    return np.split(rows[order], cuts), converged, stalled, frames


def optimize(
    start: KrausPoint, params: LandscapeParams, cfg: OptimizerConfig = OptimizerConfig()
) -> Trajectory:
    """Riemannian trust-region iteration with truncated-CG steps.

    Each iteration models J around the current frame by its gradient and
    closed-form Hessian, Hess J[xi] = Proj_X(2 P xi N - xi sym(X^H grad J)),
    and solves the model inside a trust region of radius 1 at the start
    (at most 2) by Steihaug-Toint truncated conjugate gradients.  A trial
    costs one QR retraction and one objective.  It is accepted when J
    moves in the run direction by more than 0.1 of the model's gain
    (rho > 0.1), so the value sequence is monotone; a rejected trial is
    retried within the iteration at a quarter of the radius, so every
    recorded iterate is an accepted step.  After an accepted step the
    radius shrinks fourfold when rho < 0.25 and doubles when rho > 0.75
    on the region's boundary.  Terminates at ``grad_tol``, at
    ``max_iters``, at the precision floor of J, or when the radius
    collapses above it (``stalled``); see :class:`Trajectory`.

    This is the campaign engine of :func:`multi_start` on a batch of one
    frame, so a run here is bitwise the same run inside any campaign.
    """
    rows, converged, stalled, frames = _descend(
        start.matrix[None], params, cfg, keep_frames=True)
    points = [start] + [KrausPoint.from_matrix(f) for f in frames[0][1:]]
    iterates = [(p, v, g) for p, (v, g) in zip(points, rows[0].tolist())]
    return Trajectory(
        iterates=iterates,
        terminated="converged" if converged[0] else "max_iters",
        stalled=bool(stalled[0]),
    )


def _child_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.default_rng(ss)


def _haar_starts(seed: int, n: int) -> np.ndarray:
    """Haar frames of starts 0..n-1, each drawn from its own child generator.

    The Gaussian draws are stacked and finished with one batched QR;
    frame i equals ``_haar_frame(8, 2, _child_rng(seed, i))`` bitwise.
    """
    return _qf(np.stack([_ginibre(8, 2, _child_rng(seed, i)) for i in range(n)]))


def rerun_start(
    params: LandscapeParams, seed: int, index: int, cfg: OptimizerConfig
) -> Trajectory:
    """Re-run one multi-start member deterministically."""
    start = KrausPoint.from_matrix(_haar_frame(8, 2, _child_rng(seed, index)))
    return optimize(start, params, cfg)


def multi_start(
    params: LandscapeParams,
    n_starts: int,
    seed: int,
    cfg: OptimizerConfig = OptimizerConfig(),
    start: KrausPoint | None = None,
) -> MultiStartReport:
    """Seeded Haar multi-start campaign with deterministic aggregation.

    Start i uses the child generator spawned from (seed, i).  All starts
    run as one (N, 8, 2) batch of the optimizer engine, whose rows do not
    depend on each other, so each run is bitwise the run of that start
    alone (:func:`rerun_start`).  Saddle hits are classified from each
    run's final objective and gradient norm.  An explicit ``start``
    replaces the Haar draw and requires ``n_starts == 1``; it documents
    the behavior of runs launched exactly on a critical manifold.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if start is not None and n_starts != 1:
        raise ValueError("an explicit start point requires n_starts == 1")
    target = 1.0 if cfg.direction == "maximize" else 0.0
    w0 = start.matrix[None] if start is not None else _haar_starts(seed, n_starts)
    rows, converged, _, _ = _descend(w0, params, cfg)

    saddle_tags = (
        ManifoldTag.SADDLE_MINUS,
        ManifoldTag.SADDLE_PLUS,
        ManifoldTag.MIXED_SADDLE,
    )
    finals = [r[-1].tolist() for r in rows]
    values = tuple(v for v, _ in finals)
    gaps = [abs(target - v) for v in values]
    reached = sum(1 for g in gaps if g <= 1e-6)
    hits = 0
    for value, gnorm in finals:
        label = _classify(value, gnorm, params)
        if isinstance(label, CriticalManifoldId) and label.tag in saddle_tags:
            hits += 1
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
        best_rows=map(tuple, rows[best_index].tolist()),
        iterations=[len(r) - 1 for r in rows],
    )


def classify_critical(p: KrausPoint, params: LandscapeParams):
    """Match a near-critical point to a critical sub-manifold by value.

    Returns the matching :class:`CriticalManifoldId`, or "non-critical"
    when the gradient norm exceeds 1e-6 or no predicted value lies within
    1e-6 of J(p), or "ambiguous" when two predicted values sit within
    2e-6 of each other around the match (possible only as |w| -> 0).
    """
    w = p.matrix
    gnorm = float(np.linalg.norm(_rgrad_mat(w, params)))
    return _classify(float(_objective_mat(w, params)), gnorm, params)


def _classify(value: float, gnorm: float, params: LandscapeParams):
    """The label of :func:`classify_critical` from J and the gradient norm."""
    if gnorm >= 1e-6:
        return "non-critical"
    candidates: list[tuple[float, ManifoldTag]] = [
        (0.0, ManifoldTag.GLOBAL_MIN),
        (1.0, ManifoldTag.GLOBAL_MAX),
    ]
    case = params.case
    if case == 1:
        candidates.append((0.5, ManifoldTag.MIXED_SADDLE))
    elif case == 2:
        candidates.append((params.lambda_minus, ManifoldTag.SADDLE_MINUS))
        candidates.append((params.lambda_plus, ManifoldTag.SADDLE_PLUS))
    diffs = sorted((abs(value - v), v, tag) for v, tag in candidates)
    best_diff, best_val, best_tag = diffs[0]
    if best_diff > 1e-6:
        return "non-critical"
    near = [tag for v, tag in candidates if abs(v - best_val) <= 2e-6]
    if len(near) > 1:
        return "ambiguous"
    return CriticalManifoldId(best_tag)


def _flow_field(frame: np.ndarray, params: LandscapeParams) -> np.ndarray | None:
    """grad J / |grad J|^2 at an 8x2 frame, or None where the gradient vanishes.

    The projected gradient is defined for any frame, on the manifold or
    off it, and is tangent at frames on it.
    """
    grad = _rgrad_mat(frame, params)
    gnorm2 = float(np.vdot(grad, grad).real)
    if gnorm2 < _STALL_GRAD**2:
        return None
    return grad / gnorm2


def _flow_step(
    w: np.ndarray, k1: np.ndarray, h: float, params: LandscapeParams
) -> np.ndarray | None:
    """One classical RK4 step of the normalized gradient flow in the ambient space.

    ``k1`` is the field at ``w``.  No stage is retracted, so the step has
    the fourth order of the ambient method; the caller maps the result
    back onto the manifold.  Returns None when a stage stalls.
    """
    k2 = _flow_field(w + 0.5 * h * k1, params)
    k3 = None if k2 is None else _flow_field(w + 0.5 * h * k2, params)
    k4 = None if k3 is None else _flow_field(w + h * k3, params)
    return None if k4 is None else w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def level_transfer(
    p: KrausPoint, params: LandscapeParams, target_mu: float
) -> KrausPoint:
    """Carry a point to another level along the normalized gradient flow.

    Integrates d/dt x = grad J / |grad J|^2, along which J advances one
    unit per unit t, by the projection method (Hairer, Lubich & Wanner,
    Geometric Numerical Integration, sec. IV.4): classical fourth-order
    Runge-Kutta stages in the ambient 8x2 space, one QR retraction per
    accepted step, and a Newton corrector that pins J to the expected
    level after each step.  Step doubling chooses the step: one step of h
    and two of h/2 give a local error |full - half| / 15, held below
    1e-10, and the half-step result is kept.  Raises
    :class:`FlowStallError` when the gradient vanishes en route, with the
    value J at the last frame reached on the manifold.
    """
    if not 0.0 < target_mu < 1.0:
        raise ValueError("target level must lie strictly inside (0, 1)")
    w = p.matrix
    value = float(_objective_mat(w, params))
    if abs(target_mu - value) <= 1e-14:
        return p
    expected = value
    h_next = _FLOW_STEP_START
    while abs(target_mu - expected) > 1e-14:
        k1 = _flow_field(w, params)
        if k1 is None:
            raise FlowStallError(value)
        while True:
            h = math.copysign(
                min(h_next, abs(target_mu - expected)), target_mu - expected)
            full = _flow_step(w, k1, h, params)
            mid = _flow_step(w, k1, 0.5 * h, params)
            k1_mid = None if mid is None else _flow_field(mid, params)
            half = None if k1_mid is None else _flow_step(mid, k1_mid, 0.5 * h, params)
            if full is None or half is None:
                raise FlowStallError(value)
            local_err = float(np.linalg.norm(full - half)) / 15.0
            if not math.isfinite(local_err):
                raise FlowStallError(value)
            factor = 0.9 * (_FLOW_TOL / max(local_err, _TINY)) ** 0.2
            # A step at the floor is taken whatever its error; the corrector
            # and the level check below still guard it.
            if local_err <= _FLOW_TOL or abs(h) <= _FLOW_STEP_FLOOR:
                break
            h_next = max(abs(h) * max(factor, _FLOW_STEP_SHRINK), _FLOW_STEP_FLOOR)
        h_next = min(max(abs(h) * min(factor, _FLOW_STEP_GROW), _FLOW_STEP_FLOOR),
                     _FLOW_STEP_MAX)
        w = _qf(half)
        expected += h
        # Newton corrector along the gradient pins the level exactly.
        for _ in range(8):
            value = float(_objective_mat(w, params))
            err = expected - value
            if abs(err) <= 1e-12:
                break
            grad = _rgrad_mat(w, params)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < _STALL_GRAD:
                raise FlowStallError(value)
            w = _qf(w + (err / gnorm**2) * grad)
        value = float(_objective_mat(w, params))
        if abs(value - expected) > 1e-9:
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


def _slerp(a: np.ndarray, b: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Column-wise great-circle interpolation of frames, one ``tau`` per row.

    ``a`` and ``b`` are (M, n, k) stacks, or (n, k) frames shared by all M
    rows of ``tau``.  Columns less than 1e-9 rad apart are interpolated
    linearly.  The columns of the result are not orthogonal to each
    other; :func:`_frame_interp` maps it back onto the manifold.
    """
    # Re<a_j, b_j> per column, each summed over its own 2n contiguous reals.
    at = np.ascontiguousarray(np.swapaxes(a, -1, -2)).view(np.float64)
    bt = np.ascontiguousarray(np.swapaxes(b, -1, -2)).view(np.float64)
    theta = np.arccos(np.clip((at * bt).sum(axis=-1), -1.0, 1.0))[..., None, :]
    t = tau[:, None, None]
    lin = theta < 1e-9
    s = np.where(lin, 1.0, np.sin(theta))
    ca = np.where(lin, 1.0 - t, np.sin((1.0 - t) * theta) / s)
    cb = np.where(lin, t, np.sin(t * theta) / s)
    return ca * a + cb * b


def _frame_interp(a: np.ndarray, b: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """On-manifold interpolants between frames: polar factors of :func:`_slerp`.

    A row whose interpolant loses rank gets the fixed jitter of
    ``default_rng(1234567)`` before its polar factor is taken.
    """
    raw = _slerp(a, b, tau)
    try:
        return _polar(raw)
    except RuntimeError:
        collapsed = np.linalg.svd(raw, full_matrices=False)[1].min(axis=-1) < 1e-12
        jitter = _haar_frame(raw.shape[-2], raw.shape[-1], np.random.default_rng(1234567))
        raw[collapsed] += 1e-6 * jitter
        return _polar(raw)


def _correct_to_level(
    w: np.ndarray, mu: float, params: LandscapeParams, keys: np.ndarray
):
    """Newton-correct every frame of an (M, 8, 2) stack onto the level ``mu``.

    Each row runs as on its own: per attempt at most 60 Newton steps
    along the gradient, success at |J - mu| <= 1e-10, a stall where
    |grad J| < 1e-6.  A row that fails an attempt is kicked by 1e-2 along
    projected noise seeded by (``keys[i]``, attempt) and retried, up to 9
    attempts.  Rows leave the stack as they succeed or stall and share no
    arithmetic, so each row is bitwise its batch-of-one run.

    Returns ``(frames, ok)``; ``frames[i]`` is meaningful where ``ok[i]``.
    """
    keys = np.asarray(keys)
    out = np.empty_like(w)
    ok = np.zeros(len(w), dtype=bool)
    todo, starts = np.arange(len(w)), w
    for attempt in range(9):
        idx, frame = todo, starts
        for _ in range(60):
            value = _objective_mat(frame, params)
            hit = np.abs(value - mu) <= 1e-10
            if hit.any():
                out[idx[hit]], ok[idx[hit]] = frame[hit], True
                idx, frame, value = idx[~hit], frame[~hit], value[~hit]
                if not len(idx):
                    break
            grad = _rgrad_mat(frame, params)
            gnorm = _norms(grad)
            stalled = gnorm < _STALL_GRAD
            if stalled.any():
                go = ~stalled
                idx, frame, value, grad, gnorm = (
                    idx[go], frame[go], value[go], grad[go], gnorm[go])
                if not len(idx):
                    break
            frame = _qf(frame + ((mu - value) / gnorm**2)[:, None, None] * grad)
        failed = ~ok[todo]
        if attempt == 8 or not failed.any():
            break
        # Deterministic tangent kick of each failed start, then retry.
        todo, base = todo[failed], starts[failed]
        noise = []
        for key in keys[todo]:
            ss = np.random.SeedSequence(entropy=0x5EED, spawn_key=(int(key), attempt))
            rng = np.random.default_rng(ss)
            noise.append(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        kick = _project_mat(base, np.stack(noise))
        kick = kick / np.maximum(_norms(kick), 1e-300)[:, None, None] * 1e-2
        starts = _qf(base + kick)
    return out, ok


def _chord(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def _failed_path(
    a: KrausPoint, b: KrausPoint, mu: float, detail: str,
    deviation: float = math.inf, step: float = math.inf,
) -> LevelSetPath:
    """Failure report that keeps only the two endpoints as waypoints."""
    return LevelSetPath(
        mu=mu,
        waypoints=(a, b),
        max_value_deviation=deviation,
        max_step_length=step,
        status="failed",
        detail=detail,
    )


def _finished_path(
    a: KrausPoint, b: KrausPoint, mu: float, frames: np.ndarray,
    params: LandscapeParams, detail: str,
) -> LevelSetPath:
    """The witness of a refined (M, 8, 2) path, or a failure with ``detail``.

    The waypoints are validated once, as one stack.
    """
    step = float(_norms(frames[1:] - frames[:-1]).max())
    deviation = float(np.abs(_objective_mat(frames, params) - mu).max())
    if step > _CHORD_LIMIT or deviation > 1e-6:
        return _failed_path(a, b, mu, detail, deviation, step)
    return LevelSetPath(
        mu=mu,
        waypoints=_kraus_points(frames),
        max_value_deviation=deviation,
        max_step_length=step,
        status="connected",
    )


def levelset_connect(
    a: KrausPoint, b: KrausPoint, params: LandscapeParams, mu: float
) -> LevelSetPath:
    """Trace a same-level path between two points as a connectivity witness.

    For interior levels: geodesic-style seeding at 64 nodes, Newton
    correction back to the level, and adaptive bisection of every chordal
    step above 0.0475 until all fall under 0.05.  The 62 interior seeds
    run as one (M, 8, 2) stack through the masked corrector, and so do
    the midpoints of each bisection round.  Seed i corrects with node key
    i; midpoints take the keys 64, 65, ... in segment order, round after
    round, so each node is bitwise what a one-node-at-a-time tracer gives
    and a failure names the first failing seed or segment.  At most 16
    rounds and 4096 nodes.  Levels 0 and 1 are traced inside the
    extremal manifolds directly.  Levels within 1e-3 of a saddle value
    are refused.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError("level must lie in [0, 1]")
    if _chord(a.matrix, b.matrix) < 1e-12:
        dev = abs(float(_objective_mat(a.matrix, params)) - mu)
        if dev > 1e-8:
            raise ValueError(f"endpoint a is off the level by {dev:.3e}")
        return LevelSetPath(
            mu=mu,
            waypoints=(a,),
            max_value_deviation=dev,
            max_step_length=0.0,
            status="connected",
        )
    if mu >= 1.0 - 1e-9 or mu <= 1e-9:
        return _connect_extreme(a, b, params, mu)
    for sv in saddle_values(params):
        if abs(mu - sv) <= _SADDLE_GUARD:
            raise ValueError(
                f"level {mu:g} sits within {_SADDLE_GUARD:g} of the saddle value "
                f"{sv:g}; the tracer is undefined across saddle levels"
            )
    wa, wb = a.matrix, b.matrix
    for name, frame in (("a", wa), ("b", wb)):
        dev = abs(float(_objective_mat(frame, params)) - mu)
        if dev > 1e-8:
            raise ValueError(f"endpoint {name} is off the level by {dev:.3e}")

    n_seed = 64
    keys = np.arange(1, n_seed - 1)
    nodes, ok = _correct_to_level(
        _frame_interp(wa, wb, keys / (n_seed - 1)), mu, params, keys)
    if not ok.all():
        return _failed_path(
            a, b, mu, f"corrector stalled while seeding node {keys[~ok][0]}")
    frames = np.concatenate([wa[None], nodes, wb[None]])

    key = n_seed
    for _round in range(16):
        seg = np.flatnonzero(_norms(frames[1:] - frames[:-1]) > _CHORD_LIMIT * 0.95)
        if not len(seg):
            break
        mids = _frame_interp(frames[seg], frames[seg + 1], np.full(len(seg), 0.5))
        nodes, ok = _correct_to_level(mids, mu, params, key + np.arange(len(seg)))
        key += len(seg)
        if not ok.all():
            return _failed_path(
                a, b, mu, f"corrector stalled while bisecting segment {seg[~ok][0]}")
        frames = np.insert(frames, seg + 1, nodes, axis=0)
        if len(frames) > 4096:
            return _failed_path(
                a, b, mu, "node budget exhausted before reaching the step limit"
            )
    return _finished_path(
        a, b, mu, frames, params,
        "refinement finished above the step or level tolerance")


def _connect_extreme(
    a: KrausPoint, b: KrausPoint, params: LandscapeParams, mu: float
) -> LevelSetPath:
    """Path inside an extremal level set, built in diagonal coordinates.

    The extremal sets are themselves manifolds (vanishing tilde blocks),
    so interior waypoints are constructed exactly on them and hit the
    level with no correction.  All new nodes of a round are built as one
    stack of diagonal coordinates, pure states included, and mapped back
    with one coordinate change of the stack.  The path starts at 64
    nodes and is reseeded at double density, keeping the old nodes, until
    every chordal step is at most 0.0475 or it has more than 4096 nodes.
    """
    at_max = mu >= 0.5
    for name, point in (("a", a), ("b", b)):
        dev = abs(float(_objective_mat(point.matrix, params)) - mu)
        if dev > 1e-8:
            raise ValueError(f"endpoint {name} is off the level by {dev:.3e}")
    da, db = to_diag(a, params), to_diag(b, params)
    # The tilde rows that stay live on the level: ut at the top, vt at the bottom.
    live = slice(0, 4) if at_max else slice(4, 8)
    if params.case != 3:
        end_a, end_b = _polar(np.stack([
            np.column_stack([d.ut1, d.ut2] if at_max else [d.vt1, d.vt2])
            for d in (da, db)
        ]))

        def diag_nodes(tau: np.ndarray) -> np.ndarray:
            t = np.zeros((len(tau), 8, 2), dtype=complex)
            t[:, live] = _frame_interp(end_a, end_b, tau)
            return t
    else:
        # Pure state: only the first tilde block vanishes on the extreme set.
        lead_a, lead_b = (da.ut1, db.ut1) if at_max else (da.vt1, db.vt1)
        pair_a = np.concatenate([da.ut2, da.vt2])
        pair_b = np.concatenate([db.ut2, db.vt2])

        def diag_nodes(tau: np.ndarray) -> np.ndarray:
            lead = _slerp((lead_a / np.linalg.norm(lead_a))[:, None],
                          (lead_b / np.linalg.norm(lead_b))[:, None], tau)[..., 0]
            lead = lead / _norms(lead)[:, None]
            pair = _slerp((pair_a / np.linalg.norm(pair_a))[:, None],
                          (pair_b / np.linalg.norm(pair_b))[:, None], tau)[..., 0]
            # The second column must stay orthogonal to the lead in its half.
            half = pair[:, live]
            overlap = (lead.conj()[:, None, :] @ half[:, :, None])[:, :, 0]
            pair[:, live] = half - lead * overlap
            scale = _norms(pair)
            if (scale < 1e-12).any():
                raise RuntimeError("degenerate interpolation between antipodal frames")
            t = np.zeros((len(tau), 8, 2), dtype=complex)
            t[:, live, 0] = lead
            t[:, :, 1] = pair / scale[:, None]
            return t

    n_seed = 64
    inner = np.arange(1, n_seed - 1) / (n_seed - 1)
    frames = np.concatenate([
        a.matrix[None], _from_diag_mat(diag_nodes(inner), params), b.matrix[None]])
    for _round in range(16):
        steps = _norms(frames[1:] - frames[:-1])
        if not (steps > _CHORD_LIMIT * 0.95).any() or len(frames) > 4096:
            break
        # Reseed the whole path at double density.  Node 2j sits at
        # 2j/(2m) == j/m exactly, so it is old node j and is kept.
        n = 2 * (len(frames) - 1) + 1
        refined = np.empty((n, 8, 2), dtype=complex)
        refined[0::2] = frames
        refined[1::2] = _from_diag_mat(diag_nodes(np.arange(1, n, 2) / (n - 1)), params)
        frames = refined
    return _finished_path(
        a, b, mu, frames, params, "extreme-level interpolation exceeded tolerances")
