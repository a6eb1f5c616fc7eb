"""Command-line driver emitting deterministic JSON and CSV artifacts.

Subcommands: evaluate, optimize, morse, levelset, dilate, scan.  Complex
numbers serialize as [re, im] pairs everywhere; CSV cells use 17
significant digits with '\\n' line endings; JSON objects are written with
sorted keys.  Identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 invalid input or illegal combination, 3
numerical-verification failure, 4 tracer or flow failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (
    FlowStallError,
    OptimizerConfig,
    multi_start,
    levelset_connect,
    level_transfer,
    _child_rng,
    _norms,
)
from .landscape import (
    CriticalManifoldId,
    LandscapeParams,
    ManifoldTag,
    _objective_mat,
    critical_point,
    hessian_form,
    morse_signature,
    objective_diag,
    objective_uv,
    predicted_morse,
    riemannian_gradient,
    to_diag,
)
from .qcore import (
    THETA0,
    BlochVector,
    DilatedUnitary,
    KrausSet,
    TargetOperator,
    bloch_to_density,
    dilate,
    kraus_conjugate,
    objective_trace,
    reduce_target,
    verify_dilation,
)
from .stiefel import (
    KrausPoint,
    _haar_frame,
    _project_mat,
    _qf,
    constraint_residuals,
    kraus_to_point,
    real_inner,
)

__all__ = ["main", "GridSpec"]


@dataclass(frozen=True)
class GridSpec:
    """Two-axis tangent slice: per-axis sample counts and scalar ranges."""

    count1: int
    count2: int
    range1: float
    range2: float

    def __post_init__(self):
        if self.count1 < 2 or self.count2 < 2:
            raise ValueError("grid counts must be at least 2")
        for r in (self.range1, self.range2):
            if not (math.isfinite(r) and r > 0):
                raise ValueError("grid ranges must be finite and positive")


# ---------------------------------------------------------------------------
# Serialization: [re, im] pairs, sorted-key JSON, %.17g CSV.


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _cvec(vec: np.ndarray) -> list:
    return [_pair(z) for z in vec]


def _parse_pair(item, what: str) -> complex:
    if not (isinstance(item, (list, tuple)) and len(item) == 2):
        raise ValueError(f"{what}: complex entries must be [re, im] pairs")
    re, im = float(item[0]), float(item[1])
    return complex(re, im)


def _parse_cvec(data, n: int, what: str) -> np.ndarray:
    if not (isinstance(data, (list, tuple)) and len(data) == n):
        raise ValueError(f"{what}: expected a list of {n} [re, im] pairs")
    return np.array([_parse_pair(item, what) for item in data], dtype=complex)


def point_to_dict(p: KrausPoint) -> dict:
    return {
        "u1": _cvec(p.u1),
        "u2": _cvec(p.u2),
        "v1": _cvec(p.v1),
        "v2": _cvec(p.v2),
    }


def point_from_dict(d: dict) -> KrausPoint:
    blocks = {}
    for key in ("u1", "u2", "v1", "v2"):
        if key not in d:
            raise ValueError(f"point JSON is missing field '{key}'")
        blocks[key] = _parse_cvec(d[key], 4, f"point field {key}")
    return KrausPoint(**blocks)


def kraus_to_dict(k: KrausSet) -> dict:
    return {
        "n": 2,
        "m": k.m,
        "operators": [
            [_cvec(op[0]), _cvec(op[1])] for op in k.operators
        ],
    }


def kraus_from_dict(d: dict) -> KrausSet:
    if d.get("n") != 2:
        raise ValueError("Kraus JSON must declare system dimension n = 2")
    ops_raw = d.get("operators")
    if not isinstance(ops_raw, (list, tuple)) or not ops_raw:
        raise ValueError("Kraus JSON must supply a non-empty 'operators' list")
    if d.get("m") != len(ops_raw):
        raise ValueError("Kraus JSON field 'm' must match the operator count")
    ops = []
    for idx, rows in enumerate(ops_raw):
        if not (isinstance(rows, (list, tuple)) and len(rows) == 2):
            raise ValueError(f"operator {idx} must have 2 rows")
        ops.append(
            np.array(
                [_parse_cvec(rows[0], 2, f"operator {idx}"),
                 _parse_cvec(rows[1], 2, f"operator {idx}")],
                dtype=complex,
            )
        )
    return KrausSet(tuple(ops))


def theta_from_dict(d: dict) -> TargetOperator:
    rows = d.get("entries")
    if not (isinstance(rows, (list, tuple)) and len(rows) == 2):
        raise ValueError("target-operator JSON must supply 2x2 'entries'")
    mat = np.array(
        [_parse_cvec(rows[0], 2, "theta"), _parse_cvec(rows[1], 2, "theta")],
        dtype=complex,
    )
    return TargetOperator(mat)


def unitary_to_dict(u: DilatedUnitary) -> dict:
    return {
        "dim": u.dim,
        "ancilla_dim": u.ancilla_dim,
        "entries": [_cvec(row) for row in u.entries],
    }


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def csv_lines(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(_g17(cell))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Argument plumbing.


def _parse_w(text: str) -> LandscapeParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--w expects three comma-separated numbers a,b,g")
    return LandscapeParams(w=BlochVector(*(float(p) for p in parts)))


def _parse_z(text: str | None):
    if text is None or text == "none":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--z expects two comma-separated numbers re,im")
    return complex(float(parts[0]), float(parts[1]))


_MANIFOLD_NAMES = {
    "global-min": ManifoldTag.GLOBAL_MIN,
    "global-max": ManifoldTag.GLOBAL_MAX,
    "saddle-minus": ManifoldTag.SADDLE_MINUS,
    "saddle-plus": ManifoldTag.SADDLE_PLUS,
    "mixed": ManifoldTag.MIXED_SADDLE,
    "mixed-saddle": ManifoldTag.MIXED_SADDLE,
}


def _parse_manifold(name: str, z_text: str | None) -> CriticalManifoldId:
    if name not in _MANIFOLD_NAMES:
        raise ValueError(
            f"unknown manifold '{name}'; choose from {sorted(_MANIFOLD_NAMES)}"
        )
    tag = _MANIFOLD_NAMES[name]
    z = _parse_z(z_text)
    if z is not None and tag is not ManifoldTag.MIXED_SADDLE:
        raise ValueError("--z applies only to the mixed saddle")
    return CriticalManifoldId(tag, z=z)


def _parse_tols(items) -> dict:
    tols = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"--tol expects NAME=VALUE, got '{item}'")
        name, _, value = item.partition("=")
        tols[name.strip()] = float(value)
    return tols


def _pick_tols(tols: dict, allowed: dict) -> dict:
    out = dict(allowed)
    for name, value in tols.items():
        if name not in allowed:
            raise ValueError(
                f"unknown tolerance '{name}'; this command accepts {sorted(allowed)}"
            )
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_evaluate(args) -> int:
    params = _parse_w(args.w)
    k = kraus_from_dict(_load_json(args.infile))
    theta = theta_from_dict(_load_json(args.theta)) if args.theta else THETA0
    scale, offset, basis = reduce_target(theta)
    reduced = kraus_conjugate(k, basis)
    p = kraus_to_point(reduced)
    j_trace = objective_trace(k, bloch_to_density(params.w), theta)
    j_uv = scale * objective_uv(p, params) + offset
    j_diag = scale * objective_diag(to_diag(p, params), params) + offset
    grad_norm = abs(scale) * riemannian_gradient(p, params).norm()
    phi1, phi2, phi3 = constraint_residuals(p.u1, p.u2, p.v1, p.v2)
    report = {
        "case": params.case,
        "w": [params.w.alpha, params.w.beta, params.w.gamma],
        "j_trace": j_trace,
        "j_uv": j_uv,
        "j_diag": j_diag,
        "residual_trace_uv": abs(j_trace - j_uv),
        "residual_uv_diag": abs(j_uv - j_diag),
        "grad_norm": grad_norm,
        "constraints": {"phi1": phi1, "phi2": phi2, "phi3": _pair(phi3)},
    }
    if args.format == "csv":
        rows = [
            ("case", params.case),
            ("j_trace", j_trace),
            ("j_uv", j_uv),
            ("j_diag", j_diag),
            ("residual_trace_uv", report["residual_trace_uv"]),
            ("residual_uv_diag", report["residual_uv_diag"]),
            ("grad_norm", grad_norm),
            ("phi1", phi1),
            ("phi2", phi2),
            ("phi3_re", phi3.real),
            ("phi3_im", phi3.imag),
        ]
        _write_text(csv_lines(("key", "value"), rows), args.out)
    else:
        _write_text(dumps_json(report), args.out)
    return 0


_OPT_TOL_DEFAULTS = {
    "grad_tol": 1e-8,
    "max_iters": 5000,
}


def _direction(name: str) -> str:
    if name in ("max", "maximize"):
        return "maximize"
    if name in ("min", "minimize"):
        return "minimize"
    raise ValueError("--direction must be one of max, maximize, min, minimize")


def _cmd_optimize(args) -> int:
    params = _parse_w(args.w)
    tols = _pick_tols(args.tol, _OPT_TOL_DEFAULTS)
    cfg = OptimizerConfig(
        direction=_direction(args.direction),
        max_iters=tols["max_iters"],
        grad_tol=tols["grad_tol"],
    )
    start = None
    if args.start_file:
        start = point_from_dict(_load_json(args.start_file))
    seed = args.seed
    if seed is None:
        if start is None:
            raise ValueError("--seed is required unless --start-file is given")
        seed = 0
    report = multi_start(params, args.starts, seed, cfg, start=start)
    payload = {
        "starts": report.starts,
        "seed": report.seed,
        "direction": report.direction,
        "reached_global": report.reached_global,
        "converged": report.converged,
        "final_values": list(report.final_values),
        "worst_gap": report.worst_gap,
        "classified_saddle_hits": report.classified_saddle_hits,
        "best_index": report.best_index,
        "best_value": report.final_values[report.best_index],
        "iterations": {
            "p50": float(np.median(report.iterations)),
            "max": max(report.iterations),
        },
    }
    if args.format == "csv":
        rows = list(enumerate(report.final_values))
        _write_text(csv_lines(("index", "final_value"), rows), args.out)
    else:
        _write_text(dumps_json(payload), args.out)
    traj_path = args.traj_out
    if traj_path is None and args.out is not None:
        traj_path = args.out + ".traj.csv"
    if traj_path is not None:
        rows = [(i, value, gnorm) for i, (value, gnorm) in enumerate(report.best_rows)]
        _write_text(csv_lines(("iter", "value", "grad_norm"), rows), traj_path)
    return 0


_MORSE_TOL_DEFAULTS = {"zero_tol": 1e-12}


def _cmd_morse(args) -> int:
    params = _parse_w(args.w)
    tols = _pick_tols(args.tol, _MORSE_TOL_DEFAULTS)
    mid = _parse_manifold(args.manifold, args.z)
    predicted = predicted_morse(mid, params)
    point = critical_point(mid, params, seed=args.seed)
    hess = hessian_form(point, params)
    computed = morse_signature(hess, zero_tol=tols["zero_tol"])
    match = computed == predicted
    grad_norm = riemannian_gradient(point, params).norm()
    report = {
        "manifold": mid.tag.value,
        "w": [params.w.alpha, params.w.beta, params.w.gamma],
        "z": None if mid.z is None else _pair(mid.z),
        "seed": args.seed,
        "predicted": [predicted.nu_plus, predicted.nu_minus, predicted.nu_zero],
        "computed": [computed.nu_plus, computed.nu_minus, computed.nu_zero],
        "match": match,
        "grad_norm": grad_norm,
    }
    if args.format == "csv":
        rows = [
            ("manifold", mid.tag.value),
            ("predicted_positive", predicted.nu_plus),
            ("predicted_negative", predicted.nu_minus),
            ("predicted_zero", predicted.nu_zero),
            ("computed_positive", computed.nu_plus),
            ("computed_negative", computed.nu_minus),
            ("computed_zero", computed.nu_zero),
            ("match", str(match).lower()),
            ("grad_norm", grad_norm),
        ]
        _write_text(csv_lines(("key", "value"), rows), args.out)
    else:
        _write_text(dumps_json(report), args.out)
    if not match:
        print(
            f"morse: computed signature {report['computed']} does not match "
            f"predicted {report['predicted']}",
            file=sys.stderr,
        )
        return 3
    return 0


def _levelset_endpoints(params: LandscapeParams, mu: float, seed: int):
    if mu >= 1.0 - 1e-9 or mu <= 1e-9:
        tag = ManifoldTag.GLOBAL_MAX if mu >= 0.5 else ManifoldTag.GLOBAL_MIN
        mid = CriticalManifoldId(tag)
        return (
            critical_point(mid, params, seed=2 * seed),
            critical_point(mid, params, seed=2 * seed + 1),
        )
    a = KrausPoint.from_matrix(_haar_frame(8, 2, _child_rng(seed, 0)))
    b = KrausPoint.from_matrix(_haar_frame(8, 2, _child_rng(seed, 1)))
    return level_transfer(a, params, mu), level_transfer(b, params, mu)


def _cmd_levelset(args) -> int:
    params = _parse_w(args.w)
    mu = args.mu
    a, b = _levelset_endpoints(params, mu, args.seed)
    path = levelset_connect(a, b, params, mu)
    frames = np.stack([p.matrix for p in path.waypoints])
    values = _objective_mat(frames, params).tolist()
    steps = [0.0] + _norms(frames[1:] - frames[:-1]).tolist()
    rows = [(i, value, abs(value - mu), step)
            for i, (value, step) in enumerate(zip(values, steps))]
    rows.append(
        ("status", path.status, path.max_value_deviation, path.max_step_length)
    )
    if args.format == "json":
        payload = {
            "mu": path.mu,
            "status": path.status,
            "waypoints": len(path.waypoints),
            "max_value_deviation": path.max_value_deviation,
            "max_step_length": path.max_step_length,
            "detail": path.detail,
        }
        _write_text(dumps_json(payload), args.out)
    else:
        _write_text(
            csv_lines(("index", "value", "deviation", "step"), rows),
            args.out,
        )
    if path.status != "connected":
        print(f"levelset: tracer failed: {path.detail}", file=sys.stderr)
        return 4
    return 0


_DILATE_PROBES = (
    BlochVector(0.0, 0.0, 1.0),
    BlochVector(0.0, 0.0, -1.0),
    BlochVector(1.0, 0.0, 0.0),
    BlochVector(0.0, 1.0, 0.0),
    BlochVector(0.3, -0.2, 0.4),
)


def _cmd_dilate(args) -> int:
    k = kraus_from_dict(_load_json(args.infile))
    u = dilate(k)
    residual = max(
        verify_dilation(u, k, bloch_to_density(w)) for w in _DILATE_PROBES
    )
    gram = u.entries.conj().T @ u.entries
    unitarity = float(np.max(np.abs(gram - np.eye(u.dim))))
    report = unitary_to_dict(u)
    report["partial_trace_residual"] = residual
    report["unitarity_residual"] = unitarity
    if args.format == "csv":
        rows = [
            (i, j, u.entries[i, j].real, u.entries[i, j].imag)
            for i in range(u.dim)
            for j in range(u.dim)
        ]
        _write_text(csv_lines(("row", "col", "re", "im"), rows), args.out)
    else:
        _write_text(dumps_json(report), args.out)
    return 0


def _cmd_scan(args) -> int:
    params = _parse_w(args.w)
    grid = GridSpec(
        count1=args.grid, count2=args.grid, range1=args.range, range2=args.range
    )
    if args.manifold:
        mid = _parse_manifold(args.manifold, args.z)
        base = critical_point(mid, params, seed=2 * args.seed)
    else:
        base = KrausPoint.from_matrix(_haar_frame(8, 2, _child_rng(args.seed, 0)))
    w0 = base.matrix
    rng = _child_rng(args.seed, 1)
    dirs = []
    for _ in range(2):
        raw = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        d = _project_mat(w0, raw)
        for prev in dirs:
            d = d - real_inner(prev.reshape(-1), d.reshape(-1)) * prev
        norm = float(np.linalg.norm(d))
        if norm < 1e-12:
            raise ValueError("degenerate tangent directions; change the seed")
        dirs.append(d / norm)
    d1, d2 = dirs
    s1 = np.linspace(-grid.range1, grid.range1, grid.count1)
    s2 = np.linspace(-grid.range2, grid.range2, grid.count2)
    deltas = (
        s1[:, None, None, None] * d1[None, None, :, :]
        + s2[None, :, None, None] * d2[None, None, :, :]
    )
    frames = _qf(w0[None, None, :, :] + deltas)
    values = _objective_mat(frames, params)
    rows = [
        (s1[i], s2[j], values[i, j])
        for i in range(grid.count1)
        for j in range(grid.count2)
    ]
    if args.format == "json":
        payload = {
            "w": [params.w.alpha, params.w.beta, params.w.gamma],
            "seed": args.seed,
            "grid": [grid.count1, grid.count2],
            "range": [grid.range1, grid.range2],
            "rows": [[float(a), float(b), float(c)] for a, b, c in rows],
        }
        _write_text(dumps_json(payload), args.out)
    else:
        _write_text(csv_lines(("s1", "s2", "J"), rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krauscape",
        description=(
            "Control-landscape toolkit for two-level Kraus maps: evaluate "
            "objectives, run seeded optimization campaigns, verify Morse "
            "signatures, trace level sets, dilate channels, and export "
            "landscape slices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_w=True, need_seed=False):
        if need_w:
            p.add_argument("--w", required=True, help="Stokes vector a,b,g")
        p.add_argument("--seed", type=int, required=need_seed, help="RNG seed")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--tol", action="append", help="override NAME=VALUE")

    p_eval = sub.add_parser("evaluate", help="objective report for a Kraus set")
    add_common(p_eval)
    p_eval.add_argument("--in", dest="infile", required=True, help="Kraus JSON file")
    p_eval.add_argument("--theta", help="target-operator JSON file")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")

    p_opt = sub.add_parser("optimize", help="seeded multi-start gradient runs")
    add_common(p_opt)
    p_opt.add_argument("--direction", required=True, help="max or min")
    p_opt.add_argument("--starts", type=int, default=1)
    p_opt.add_argument("--start-file", dest="start_file", help="start-point JSON")
    p_opt.add_argument("--traj-out", dest="traj_out", help="best-trajectory CSV path")
    p_opt.add_argument("--format", choices=("json", "csv"), default="json")

    p_morse = sub.add_parser("morse", help="verify a Morse signature")
    add_common(p_morse, need_seed=True)
    p_morse.add_argument("--manifold", required=True)
    p_morse.add_argument("--z", help="mixed-saddle chart parameter re,im")
    p_morse.add_argument("--format", choices=("json", "csv"), default="json")

    p_level = sub.add_parser("levelset", help="trace a level-set path")
    add_common(p_level, need_seed=True)
    p_level.add_argument("--mu", type=float, required=True)
    p_level.add_argument("--format", choices=("json", "csv"), default="csv")

    p_dilate = sub.add_parser("dilate", help="unitary dilation of a Kraus set")
    add_common(p_dilate, need_w=False)
    p_dilate.add_argument("--in", dest="infile", required=True, help="Kraus JSON file")
    p_dilate.add_argument("--format", choices=("json", "csv"), default="json")

    p_scan = sub.add_parser("scan", help="objective values over a tangent slice")
    add_common(p_scan, need_seed=True)
    p_scan.add_argument("--manifold", help="base the slice at a critical point")
    p_scan.add_argument("--z", help="mixed-saddle chart parameter re,im")
    p_scan.add_argument("--grid", type=int, default=41, help="samples per axis")
    p_scan.add_argument("--range", type=float, default=1.0, help="half-width per axis")
    p_scan.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


_HANDLERS = {
    "evaluate": _cmd_evaluate,
    "optimize": _cmd_optimize,
    "morse": _cmd_morse,
    "levelset": _cmd_levelset,
    "dilate": _cmd_dilate,
    "scan": _cmd_scan,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        # Every subcommand takes --tol; those with tolerances read the dict.
        args.tol = _parse_tols(args.tol)
        return handler(args)
    except FlowStallError as exc:
        print(f"krauscape {args.command}: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"krauscape {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
