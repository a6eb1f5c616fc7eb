"""Workloads of the benchmark: CLI invocations made from a seed, and checks.

A bundle is a list of ``krauscape`` invocations; the benchmark runs a
new draw of it every two bundles.  The workload seed and the draw number
pick the ``--seed`` of each invocation and the Kraus sets written as
input files; krauscape sees only those.  Only the documented
flags ``--w --seed --direction --starts --manifold --z --mu --grid --in
--out`` are passed, and only documented output fields are read.

Why these workloads:

- ``campaign-mixed``: 40-start campaigns at |w| in {0, 0.5, 0.539}, both
  directions.  Runs converge in 5-30 iterations, so per-run overhead
  dominates: Haar draws, iterate validation, classification, the rerun
  of the best start, serialisation.
- ``campaign-nearpure``: 2-start campaigns at |w| in {0.99, 0.999,
  1-1e-6, 1}, both directions.  Runs take 1300-5000 iterations, so the
  iteration count and the per-iteration kernels dominate.
- ``certify``: Morse signatures, level-set witnesses, dilation,
  evaluation and a 41x41 scan.  The landscape and stiefel kernels run on
  about 1600 frames per call here against one frame per call in the
  campaigns, and the optimizer does not run at all.

The near-mixed Morse checks at |w| = 1e-5 give a wrong signature for
some seeds today.  They are kept out of the timed bundle, whose
invocations must all succeed, and run as a separate probe whose
mismatch count every run reports.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

W_MIXED = "0,0,0"
W_HALF = "0,0,0.5"
W_TILTED = "0.3,-0.4,0.2"  # |w| = 0.5385
W_NEARPURE = ("0,0,0.99", "0,0,0.999", "0,0,0.999999", "0.6,0,0.8")
W_NEARMIXED = "0,0,1e-5"

MIXED_STARTS = 40
NEARPURE_STARTS = 2
SCAN_GRID = 41
PROBE_SEEDS = 8

WORKLOADS = ("campaign-mixed", "campaign-nearpure", "certify")

_EXT = {
    "optimize": ".json",
    "morse": ".json",
    "levelset": ".csv",
    "dilate": ".json",
    "evaluate": ".json",
    "scan": ".csv",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation without its ``--out`` path."""

    argv: tuple

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def ext(self) -> str:
        return _EXT[self.command]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def _op(*argv) -> Op:
    return Op(tuple(str(a) for a in argv))


def _rng(seed: int, *keys) -> np.random.Generator:
    return np.random.default_rng([seed] + [zlib.crc32(str(k).encode()) for k in keys])


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def kraus_document(rng: np.random.Generator) -> dict:
    """A Haar-random four-operator Kraus set in the CLI's JSON format."""
    g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    frame = q * (d / np.abs(d))
    ops = []
    for a in range(4):
        rows = [[frame[a, 0], frame[a, 1]], [frame[4 + a, 0], frame[4 + a, 1]]]
        ops.append([[[float(z.real), float(z.imag)] for z in row] for row in rows])
    return {"n": 2, "m": 4, "operators": ops}


class Plan:
    """Invocations of one workload, all made from the workload seed.

    ``bundle(draw)`` is the timed list for draw number ``draw``; the
    levelset cost varies by a factor of three with the seed, so a run
    takes a new draw every two bundles and averages over many of them.
    """

    def __init__(self, workload: str, seed: int, input_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.input_dir = input_dir
        rng = _rng(seed, workload, "warmup")
        if workload == "certify":
            kraus = self._kraus_files(rng, "warmup", 1)[0]
            self.warmup = (
                _op("morse", "--w", W_HALF, "--seed", 0, "--manifold", "saddle-minus"),
                _op("levelset", "--w", W_HALF, "--seed", 0, "--mu", "1.0"),
                _op("dilate", "--in", kraus),
                _op("evaluate", "--w", W_HALF, "--in", kraus),
                _op("scan", "--w", W_HALF, "--seed", 0, "--grid", 2),
            )
        else:
            self.warmup = (_op("optimize", "--w", W_MIXED, "--seed", _seeds(rng, 1)[0],
                               "--direction", "max", "--starts", 1),)
        self.probe = tuple(
            _op("morse", "--w", W_NEARMIXED, "--seed", s, "--manifold", m)
            for m in ("saddle-minus", "saddle-plus")
            for s in _seeds(_rng(seed, "near-mixed-probe"), PROBE_SEEDS)
        )

    def _kraus_files(self, rng, tag, n: int) -> list[str]:
        paths = []
        for i in range(n):
            path = os.path.join(self.input_dir, f"kraus-{tag}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(kraus_document(rng), fh)
            paths.append(path)
        return paths

    def bundle(self, draw: int) -> tuple:
        """The invocations of one draw; writes the draw's input files."""
        rng = _rng(self.seed, self.workload, draw)
        if self.workload == "campaign-mixed":
            return tuple(
                _op("optimize", "--w", w, "--seed", s, "--direction", d,
                    "--starts", MIXED_STARTS)
                for w in (W_MIXED, W_HALF, W_TILTED)
                for d, s in zip(("max", "min"), _seeds(rng, 2))
            )
        if self.workload == "campaign-nearpure":
            return tuple(
                _op("optimize", "--w", w, "--seed", s, "--direction", d,
                    "--starts", NEARPURE_STARTS)
                for w in W_NEARPURE
                for d, s in zip(("max", "min"), _seeds(rng, 2))
            )
        kraus = self._kraus_files(rng, draw, 2)
        ops = [
            _op("morse", "--w", w, "--seed", s, "--manifold", m)
            for w in (W_HALF, W_TILTED)
            for m in ("saddle-minus", "saddle-plus")
            for s in _seeds(rng, 3)
        ]
        ops += [_op("morse", "--w", W_MIXED, "--seed", s, "--manifold", "mixed")
                for s in _seeds(rng, 2)]
        re, im = rng.uniform(-1.0, 1.0, size=2)
        ops.append(_op("morse", "--w", W_MIXED, "--seed", _seeds(rng, 1)[0],
                       "--manifold", "mixed", f"--z={re:.6f},{im:.6f}"))
        ops += [_op("levelset", "--w", W_HALF, "--seed", s, "--mu", mu)
                for mu in ("0.4", "1.0") for s in _seeds(rng, 2)]
        ops += [_op("dilate", "--in", k) for k in kraus]
        ops += [_op("evaluate", "--w", w, "--in", k)
                for w, k in zip((W_HALF, W_TILTED), kraus)]
        ops.append(_op("scan", "--w", W_HALF, "--seed", _seeds(rng, 1)[0],
                       "--grid", SCAN_GRID))
        return tuple(ops)


def artifact_paths(op: Op, out: str) -> list[str]:
    """Files an invocation with ``--out out`` writes."""
    if op.command == "optimize":
        return [out, out + ".traj.csv"]
    return [out]


def check(op: Op, rc, artifacts: list[bytes]) -> str | None:
    """Why the invocation failed, or None when its output is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _check_output(op, artifacts)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc}"


def _check_output(op: Op, artifacts: list[bytes]) -> str | None:
    cmd = op.command
    text = artifacts[0].decode("utf-8")
    if cmd == "optimize":
        report = json.loads(text)
        starts = int(op.flag("--starts"))
        if report["starts"] != starts or report["reached_global"] != starts:
            return f"reached_global {report['reached_global']} of {starts}"
        if not report["worst_gap"] < 1e-6:
            return f"worst_gap {report['worst_gap']:.3e}"
        if len(artifacts) < 2 or len(artifacts[1].splitlines()) < 2:
            return "missing best-run trajectory"
        return None
    if cmd == "morse":
        report = json.loads(text)
        if report["match"] is not True:
            return f"signature {report['computed']} != {report['predicted']}"
        return None
    if cmd == "levelset":
        status = text.splitlines()[-1].split(",")
        if status[0] != "status" or status[1] != "connected":
            return f"levelset status {status[1:]}"
        if not (float(status[2]) <= 1e-6 and float(status[3]) <= 0.05):
            return f"levelset deviation {status[2]}, step {status[3]}"
        return None
    if cmd == "dilate":
        report = json.loads(text)
        worst = max(report["partial_trace_residual"], report["unitarity_residual"])
        return None if worst <= 1e-12 else f"dilation residual {worst:.3e}"
    if cmd == "evaluate":
        report = json.loads(text)
        worst = max(report["residual_trace_uv"], report["residual_uv_diag"])
        return None if worst <= 1e-12 else f"evaluation residual {worst:.3e}"
    if cmd == "scan":
        grid = int(op.flag("--grid"))
        rows = len(text.splitlines()) - 1
        return None if rows == grid * grid else f"scan has {rows} rows, not {grid * grid}"
    raise ValueError(f"no check for {cmd}")
