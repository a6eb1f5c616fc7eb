"""Command-line driver emitting deterministic JSON and CSV artifacts.

Subcommands: evaluate, optimize, morse, levelset, dilate, scan.  Complex
numbers serialize as [re, im] pairs everywhere; CSV cells use 17
significant digits with '\\n' line endings; JSON objects are written with
sorted keys.  Identical invocations produce byte-identical artifacts.

Exit codes: 0 success, 2 invalid input, an illegal combination or a
size whose arrays cannot be allocated, 3 numerical-verification
failure, 4 tracer or flow failure, or an ``optimize`` campaign with a
run that did not converge.

``scan`` reads each grid frame's J from 2x2 Gram data: the Gram
matrices of the slice X + s1 D1 + s2 D2 and of its u-rows are
quadratics in (s1, s2), the QR retraction's R is the Cholesky factor of
the first, and J is linear in the u-row Gram matrix of the retracted
frame, so no frame is formed (:func:`_scan_values`).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .analysis import (
    FlowStallError,
    OptimizerConfig,
    multi_start,
    level_transfer,
    _haar_starts,
    _witness,
)
from .landscape import (
    CriticalManifoldId,
    LandscapeParams,
    ManifoldTag,
    _critical_frames,
    _hessian,
    _quotient_value,
    critical_point,
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
    _dilation_residual,
    bloch_to_density,
    dilate,
    objective_trace,
    reduce_target,
)
from .stiefel import (
    KrausPoint,
    _gram_r,
    _haar_frames,
    _kraus_points,
    _project_mat,
    _seeded_rng,
    constraint_residuals,
    kraus_to_point,
    real_inner,
)

__all__ = ["main"]


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


def csv_lines(header, rows) -> str:
    """CSV text of a header and rows.

    A str cell is written as is, an integer (Python or numpy) in decimal,
    and any other cell as a float with 17 significant digits.  Each row
    is formatted in one operation, by the %-format of its cell types.
    """
    out = [",".join(header)]
    formats = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%s" if issubclass(t, str)
                else "%d" if issubclass(t, (int, np.integer)) else "%.17g"
                for t in types)
        out.append(fmt % row)
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
    """Write to stdout, or as UTF-8 bytes in one write to ``path``."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _write_report(args, payload: dict, header: tuple, rows) -> None:
    """Write a subcommand's report in its ``--format``: ``payload`` as JSON,
    or ``rows`` under ``header`` as CSV (:func:`csv_lines`)."""
    if args.format == "csv":
        _write_text(csv_lines(header, rows), args.out)
    else:
        _write_text(dumps_json(payload), args.out)


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


# Every tag's value, and "mixed" for the mixed saddle.
_MANIFOLD_NAMES = {tag.value: tag for tag in ManifoldTag}
_MANIFOLD_NAMES["mixed"] = ManifoldTag.MIXED_SADDLE


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


def _pick_tols(items, names: tuple) -> dict:
    """The ``--tol NAME=VALUE`` overrides, by name; a name not in ``names`` fails.

    They go to the library as keywords, so its defaults stand for every
    name not overridden.
    """
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"--tol expects NAME=VALUE, got '{item}'")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in names:
            raise ValueError(
                f"unknown tolerance '{name}'; this command accepts {sorted(names)}"
            )
        out[name] = float(value)
    return out


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_evaluate(args) -> int:
    params = _parse_w(args.w)
    k = kraus_from_dict(_load_json(args.infile))
    theta = theta_from_dict(_load_json(args.theta)) if args.theta else THETA0
    scale, offset, basis = reduce_target(theta)
    # Tr[Phi(rho) Theta] = scale Tr[Phi'(rho) diag(1, 0)] + offset for the
    # channel K' = U^H K, which rotates the output only, not the input.
    reduced = KrausSet(tuple(basis.conj().T @ op for op in k.operators), tol=k.tol)
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
    _write_report(args, report, ("key", "value"), rows)
    return 0


def _direction(name: str) -> str:
    if name in ("max", "maximize"):
        return "maximize"
    if name in ("min", "minimize"):
        return "minimize"
    raise ValueError("--direction must be one of max, maximize, min, minimize")


def _cmd_optimize(args) -> int:
    params = _parse_w(args.w)
    tols = _pick_tols(args.tol, ("grad_tol", "max_iters"))
    cfg = OptimizerConfig(direction=_direction(args.direction), **tols)
    start = None
    if args.start_file:
        start = point_from_dict(_load_json(args.start_file))
    seed = args.seed
    if seed is None:
        if start is None:
            raise ValueError("--seed is required unless --start-file is given")
        seed = 0
    report = multi_start(params, args.starts, seed, cfg, start=start)
    # The median of the iteration counts, as np.median gives it.
    its = sorted(report.iterations)
    half = len(its) // 2
    p50 = float(its[half]) if len(its) % 2 else (its[half - 1] + its[half]) / 2
    payload = {
        "starts": report.starts,
        "seed": report.seed,
        "direction": report.direction,
        "reached_global": report.reached_global,
        "converged": report.converged,
        "stalled": report.stalled,
        "final_values": list(report.final_values),
        "worst_gap": report.worst_gap,
        "classified_saddle_hits": report.classified_saddle_hits,
        "best_index": report.best_index,
        "best_value": report.final_values[report.best_index],
        "iterations": {
            "p50": p50,
            "max": its[-1],
        },
    }
    _write_report(args, payload, ("index", "final_value"), enumerate(report.final_values))
    traj_path = args.traj_out
    if traj_path is None and args.out is not None:
        traj_path = args.out + ".traj.csv"
    if traj_path is not None:
        rows = [(i, value, gnorm) for i, (value, gnorm) in enumerate(report.best_rows)]
        _write_text(csv_lines(("iter", "value", "grad_norm"), rows), traj_path)
    if report.converged < report.starts:
        print(
            f"optimize: {report.starts - report.converged} of {report.starts} runs "
            f"did not converge ({report.stalled} stalled)",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_morse(args) -> int:
    params = _parse_w(args.w)
    tols = _pick_tols(args.tol, ("zero_tol",))
    mid = _parse_manifold(args.manifold, args.z)
    predicted = predicted_morse(mid, params)
    point = critical_point(mid, params, seed=args.seed)
    # The Hessian and the gradient norm, riemannian_gradient(...).norm(),
    # from the one gradient pass of hessian_form.
    hess, grad_norm = _hessian(point, params)
    computed = morse_signature(hess, **tols)
    match = computed == predicted
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
    _write_report(args, report, ("key", "value"), rows)
    if not match:
        print(
            f"morse: computed signature {report['computed']} does not match "
            f"predicted {report['predicted']}",
            file=sys.stderr,
        )
        return 3
    return 0


def _levelset_endpoints(params: LandscapeParams, mu: float, seed: int):
    """The two endpoints of ``levelset``: frames 0 and 1 of ``default_rng(seed)``.

    Inside (0, 1) they are the level transfers of the Haar frames
    :func:`_haar_starts` ``(seed, 2)``; at an extreme level, within 1e-9
    of 0 or 1, they are the frames :func:`_critical_frames` draws on that
    extreme's sub-manifold.  Each (2, 8, 2) stack is checked once
    (:func:`stiefel._kraus_points`).
    """
    if mu >= 1.0 - 1e-9 or mu <= 1e-9:
        tag = ManifoldTag.GLOBAL_MAX if mu >= 0.5 else ManifoldTag.GLOBAL_MIN
        return _kraus_points(
            _critical_frames(CriticalManifoldId(tag), params, _seeded_rng(seed), 2))
    a, b = _kraus_points(_haar_starts(seed, 2))
    return level_transfer(a, params, mu), level_transfer(b, params, mu)


def _cmd_levelset(args) -> int:
    params = _parse_w(args.w)
    mu = args.mu
    a, b = _levelset_endpoints(params, mu, args.seed)
    # The waypoints of levelset_connect as one stack, with the J values and
    # chords the witness took for its own check.
    path = _witness(a.matrix, b.matrix, params, mu)
    rows = [(i, value, abs(value - mu), step)
            for i, (value, step) in enumerate(zip(path.values.tolist(),
                                                  path.steps.tolist()))]
    rows.append(("status", path.status, path.deviation, path.step))
    payload = {
        "mu": mu,
        "status": path.status,
        "waypoints": len(path.frames),
        "max_value_deviation": path.deviation,
        "max_step_length": path.step,
        "detail": path.detail,
    }
    _write_report(args, payload, ("index", "value", "deviation", "step"), rows)
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


@functools.cache
def _probe_states() -> np.ndarray:
    """The density matrices of the dilation probes, as one read-only stack."""
    states = np.stack([bloch_to_density(w).entries for w in _DILATE_PROBES])
    states.setflags(write=False)
    return states


def _cmd_dilate(args) -> int:
    k = kraus_from_dict(_load_json(args.infile))
    u = dilate(k)
    # The largest verify_dilation residual over the probes, in one pass.
    residual = _dilation_residual(u, k, _probe_states())
    gram = u.entries.conj().T @ u.entries
    unitarity = float(np.max(np.abs(gram - np.eye(u.dim))))
    report = unitary_to_dict(u)
    report["partial_trace_residual"] = residual
    report["unitarity_residual"] = unitarity
    rows = (
        (i, j, u.entries[i, j].real, u.entries[i, j].imag)
        for i in range(u.dim)
        for j in range(u.dim)
    )
    _write_report(args, report, ("row", "col", "re", "im"), rows)
    return 0


def _cmd_scan(args) -> int:
    params = _parse_w(args.w)
    if args.grid < 2:
        raise ValueError("grid counts must be at least 2")
    if not (math.isfinite(args.range) and args.range > 0):
        raise ValueError("grid ranges must be finite and positive")
    # The Gram data hold squares of the range, which overflow from about
    # 1.3e154 (the square root of the largest float).
    if args.range > 1e150:
        raise ValueError("grid ranges must be at most 1e150")
    # The base frame, then the two directions, from the one stream.
    rng = _seeded_rng(args.seed)
    if args.manifold:
        mid = _parse_manifold(args.manifold, args.z)
        base = _critical_frames(mid, params, rng, 1)[0]
    else:
        base = _haar_frames(rng, 1)[0]
    w0 = KrausPoint.from_matrix(base).matrix
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
    s1 = s2 = np.linspace(-args.range, args.range, args.grid)
    values = _scan_values(w0, d1, d2, s1, s2, params)
    if args.format == "json":
        payload = {
            "w": [params.w.alpha, params.w.beta, params.w.gamma],
            "seed": args.seed,
            "grid": [args.grid, args.grid],
            "range": [args.range, args.range],
            "rows": [[a, b, c] for (a, b), c in zip(
                itertools.product(s1.tolist(), s2.tolist()), values.ravel().tolist())],
        }
        _write_text(dumps_json(payload), args.out)
    else:
        _write_text(_grid_csv(s1, s2, values), args.out)
    return 0


def _scan_values(w0: np.ndarray, d1: np.ndarray, d2: np.ndarray, s1: np.ndarray,
                 s2: np.ndarray, params: LandscapeParams) -> np.ndarray:
    """J of the QR-retracted frames of X + s1[i] D1 + s2[j] D2, flat with i outer.

    No frame is formed.  For Y = X + s1 D1 + s2 D2, both Y^H Y and the
    Gram matrix A = Y_u^H Y_u of its u-rows are quadratics in (s1, s2)
    whose 2x2 coefficients are the products Z_a^H Z_b of Z = (X, D1, D2).
    Their 8 real entries are one (8, 6) by (6, G) product over the
    monomials 1, s1, s2, s1^2, s1 s2, s2^2.  The retraction is Y R^-1
    with R the Cholesky factor of Y^H Y (``stiefel._gram_r``), so its
    u-rows have the Gram matrix M = R^-H A R^-1, and J follows from M
    (``landscape._quotient_value``).  The whole computation is entrywise
    arithmetic on (G,) arrays.
    """
    zs = np.concatenate([w0, d1, d2], axis=1)
    # Monomial k is c_a c_b for c = (1, s1, s2) and the k-th pair (a, b), a <= b.
    a, b = np.triu_indices(3)
    coeffs = []
    for rows in (zs, zs[:4]):
        p = (rows.conj().T @ rows).reshape(3, 2, 3, 2).swapaxes(1, 2)
        c = np.where((a == b)[:, None, None], p[a, b], p[a, b] + p[b, a])
        coeffs += [c[:, 0, 0].real, c[:, 1, 1].real, c[:, 0, 1].real, c[:, 0, 1].imag]
    t1, t2 = np.repeat(s1, len(s2)), np.tile(s2, len(s1))
    mono = np.stack([np.ones_like(t1), t1, t2, t1 * t1, t1 * t2, t2 * t2])
    quad = np.array(coeffs) @ mono
    r11, r12r, r12i, r22 = _gram_r(quad[:4])
    a11, a22, a12r, a12i = quad[4:]
    # R^-1 = [[x, y], [0, z]] with y = -r12 x z, and br + i bi is (A R^-1)_12.
    x, z = 1.0 / r11, 1.0 / r22
    yr, yi = -r12r * x * z, -r12i * x * z
    br, bi = a11 * yr + a12r * z, a11 * yi + a12i * z
    m22 = yr * br + yi * bi + z * (a12r * yr + a12i * yi + a22 * z)
    return _quotient_value((x * x * a11, m22, x * br, x * bi), params)


def _grid_csv(s1: np.ndarray, s2: np.ndarray, values: np.ndarray) -> str:
    """``csv_lines`` of the rows (s1[i], s2[j], values[i, j]), i outer.

    Each coordinate is formatted once, into a template of every line with
    a %.17g slot for its J, and the J values fill it in one %-operation,
    so the text is byte-identical to the row-by-row one.
    """
    c2 = ["%.17g" % x for x in s2.tolist()]
    template = "".join(
        "".join(f"{a},{b},%.17g\n" for b in c2) for a in ("%.17g" % x for x in s1.tolist()))
    return "s1,s2,J\n" + template % tuple(values.ravel().tolist())


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

    # --seed and --tol go only to the subcommands whose handlers read them.
    def add_common(p, need_w=True):
        if need_w:
            p.add_argument("--w", required=True, help="Stokes vector a,b,g")
        p.add_argument("--out", help="output path (default: stdout)")

    p_eval = sub.add_parser("evaluate", help="objective report for a Kraus set")
    add_common(p_eval)
    p_eval.add_argument("--in", dest="infile", required=True, help="Kraus JSON file")
    p_eval.add_argument("--theta", help="target-operator JSON file")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")

    p_opt = sub.add_parser("optimize", help="seeded multi-start gradient runs")
    add_common(p_opt)
    p_opt.add_argument("--seed", type=int, help="RNG seed")
    p_opt.add_argument("--tol", action="append", help="override NAME=VALUE")
    p_opt.add_argument("--direction", required=True, help="max or min")
    p_opt.add_argument("--starts", type=int, default=1)
    p_opt.add_argument("--start-file", dest="start_file", help="start-point JSON")
    p_opt.add_argument("--traj-out", dest="traj_out", help="best-trajectory CSV path")
    p_opt.add_argument("--format", choices=("json", "csv"), default="json")

    p_morse = sub.add_parser("morse", help="verify a Morse signature")
    add_common(p_morse)
    p_morse.add_argument("--seed", type=int, required=True, help="RNG seed")
    p_morse.add_argument("--tol", action="append", help="override NAME=VALUE")
    p_morse.add_argument("--manifold", required=True)
    p_morse.add_argument("--z", help="mixed-saddle chart parameter re,im")
    p_morse.add_argument("--format", choices=("json", "csv"), default="json")

    p_level = sub.add_parser("levelset", help="trace a level-set path")
    add_common(p_level)
    p_level.add_argument("--seed", type=int, required=True, help="RNG seed")
    p_level.add_argument("--mu", type=float, required=True)
    p_level.add_argument("--format", choices=("json", "csv"), default="csv")

    p_dilate = sub.add_parser("dilate", help="unitary dilation of a Kraus set")
    add_common(p_dilate, need_w=False)
    p_dilate.add_argument("--in", dest="infile", required=True, help="Kraus JSON file")
    p_dilate.add_argument("--format", choices=("json", "csv"), default="json")

    p_scan = sub.add_parser("scan", help="objective values over a tangent slice")
    add_common(p_scan)
    p_scan.add_argument("--seed", type=int, required=True, help="RNG seed")
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


@functools.cache
def _subparsers() -> dict:
    """The subcommands' own parsers in :func:`_parser`, by command name."""
    parser = _parser()
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _parse(argv: list) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with one pass over the arguments.

    The top-level parser hands every argument after the command name to
    that command's parser, and rejects any argument that parser leaves
    over.  A known command's arguments go straight to its parser; any
    other argv, or one with arguments left over, goes to the top-level
    parser, whose usage error, help text and exit code stay its own.
    """
    sub = _subparsers().get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except FlowStallError as exc:
        print(f"krauscape {args.command}: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, OSError, MemoryError) as exc:
        print(f"krauscape {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
