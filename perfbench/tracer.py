"""Span tracer that wraps krauscape's cross-module calls from outside.

Each entry of ``TARGETS`` names a function as bound in the calling
module's namespace and the layer span it is recorded as.  Patching the
binding in the caller is what makes a call visible: a module looks its
globals up at call time, so the wrapper sees every call made through
that name and no other.  No file of krauscape changes.  A binding that a
later refactor removes is reported as absent and skipped.

Spans (name, start, end, parent, frames) go into flat arrays in memory
and are written once, when the run ends.  Self time is a span's duration
minus the time covered by its direct children.  Optimizer iterations,
termination and level-set waypoints are read from the returned objects.
"""

from __future__ import annotations

import functools
from array import array

import numpy as np

# (module, attribute, span).  Module "stiefel.KrausPoint" patches the class.
TARGETS = (
    ("cli", "main", "cli"),
    ("cli", "multi_start", "analysis.multi_start"),
    ("cli", "rerun_start", "analysis.rerun_start"),
    ("cli", "optimize", "analysis.optimize"),
    ("analysis", "optimize", "analysis.optimize"),
    ("analysis", "classify_critical", "analysis.classify"),
    ("cli", "level_transfer", "analysis.level_transfer"),
    ("cli", "levelset_connect", "analysis.levelset_connect"),
    ("cli", "_objective_mat", "landscape.objective"),
    ("cli", "objective_uv", "landscape.objective"),
    ("cli", "objective_diag", "landscape.objective"),
    ("analysis", "_objective_mat", "landscape.objective"),
    ("cli", "riemannian_gradient", "landscape.gradient"),
    ("analysis", "_rgrad_mat", "landscape.gradient"),
    ("cli", "hessian_form", "landscape.hessian"),
    ("cli", "critical_point", "landscape.critical_point"),
    ("cli", "morse_signature", "landscape.morse_signature"),
    ("cli", "to_diag", "landscape.coords"),
    ("analysis", "to_diag", "landscape.coords"),
    ("analysis", "from_diag", "landscape.coords"),
    ("cli", "_qf", "stiefel.retract"),
    ("analysis", "_qf", "stiefel.retract"),
    ("landscape", "_qf", "stiefel.retract"),
    ("analysis", "_polar", "stiefel.polar"),
    ("cli", "_project_mat", "stiefel.project"),
    ("analysis", "_project_mat", "stiefel.project"),
    ("cli", "_haar_frame", "stiefel.haar"),
    ("analysis", "_haar_frame", "stiefel.haar"),
    ("landscape", "orthonormal_tangent_basis", "stiefel.tangent_basis"),
    ("stiefel.KrausPoint", "__post_init__", "stiefel.kraus_point"),
    ("cli", "dilate", "qcore.dilate"),
    ("cli", "verify_dilation", "qcore.verify"),
    ("cli", "objective_trace", "qcore.verify"),
)

# Spans whose first argument is a frame or a stack of frames.
_FRAME_ARG = {"landscape.objective", "stiefel.retract"}


def _frames(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(np.prod(shape[:-2], dtype=np.int64))


class Tracer:
    """Records spans around the wrapped bindings while installed."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.frames = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        # Per-call results read from returned objects.
        self.opt_iters: list[int] = []
        self.opt_converged: list[bool] = []
        self.waypoints: list[int] = []

    def _span_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, fn, span: str):
        sid = self._span_id(span)
        count_frames = span in _FRAME_ARG
        on_return = {
            "analysis.optimize": self._record_trajectory,
            "analysis.levelset_connect": self._record_path,
        }.get(span)
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.frames.append(_frames(args) if count_frames else 1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _record_trajectory(self, traj) -> None:
        self.opt_iters.append(len(traj.iterates) - 1)
        self.opt_converged.append(traj.terminated == "converged")

    def _record_path(self, path) -> None:
        self.waypoints.append(len(path.waypoints))

    def install(self, modules: dict) -> None:
        """Patch every target binding found in ``modules`` (name -> module)."""
        for mod_name, attr, span in TARGETS:
            owner_name, _, cls = mod_name.partition(".")
            owner = modules.get(owner_name)
            if owner is not None and cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                if f"{mod_name}.{attr}" not in self.absent:
                    self.absent.append(f"{mod_name}.{attr}")
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def mark(self) -> dict:
        """Positions in the span and result lists, to slice one bundle."""
        return {
            "spans": len(self.name),
            "opt": len(self.opt_iters),
            "paths": len(self.waypoints),
        }

    def summarize(self, lo: dict, hi: dict) -> dict:
        """Counts, frames and self seconds per span over one bundle."""
        a, b = lo["spans"], hi["spans"]
        name = np.frombuffer(self.name, dtype=np.int32)[a:b]
        parent = np.frombuffer(self.parent, dtype=np.int32)[a:b] - a
        frames = np.frombuffer(self.frames, dtype=np.int32)[a:b]
        dur = (np.frombuffer(self.end)[a:b] - np.frombuffer(self.start)[a:b])
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        stats = {
            span: {
                "calls": int(calls[i]),
                "frames": int(np.sum(frames[name == i])),
                "self_s": float(np.sum(self_time[name == i])),
            }
            for i, span in enumerate(self.names)
        }
        # Objective evaluations made directly by the optimizer: one for
        # the start value plus one per line-search trial.
        trials = 0
        if "analysis.optimize" in self._ids and "landscape.objective" in self._ids:
            opt = self._ids["analysis.optimize"]
            obj = self._ids["landscape.objective"]
            direct = (name == obj) & has_parent
            trials = int(np.sum(name[parent[direct]] == opt))
            trials -= stats["analysis.optimize"]["calls"]
        iters = self.opt_iters[lo["opt"]:hi["opt"]]
        converged = self.opt_converged[lo["opt"]:hi["opt"]]
        stats["_results"] = {
            "iters": iters,
            "converged": int(sum(converged)),
            "trials": trials,
            "waypoints": int(sum(self.waypoints[lo["paths"]:hi["paths"]])),
            "spans": int(b - a),
            "root_s": float(np.sum(dur[~has_parent])),
        }
        return stats

    def save(self, path: str) -> None:
        """Write every span recorded in this run, once, as an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            frames=np.frombuffer(self.frames, dtype=np.int32),
        )
