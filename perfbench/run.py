"""Benchmark of krauscape, driven in-process through its CLI entry point.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --runs 10 --bench-out bench.json

A run builds the workload's invocations from ``--seed``, sets up (fresh
imports, input files, one warm-up invocation of each subcommand), then
runs bundles of the workload's invocations through
``krauscape.cli.main(argv)`` for about ``--seconds`` seconds.  Each bundle
is a new draw of inputs and runs twice in a row.  Every invocation's exit
code and artifacts are checked, and the second bundle of a pair must
reproduce the artifacts of the first byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones:

- ``wall_ref``: time of one bundle in reference units (see refclock.py),
  median over the bundles of the run;
- ``setup_s``: seconds from process start to the first timed invocation,
  at the nominal host speed of refclock.py, median over five fresh
  processes, three run before the timed section and two after it;
- ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` the second bundle of each pair runs with the span tracer
installed (tracer.py) and the metrics are the per-layer ones, per bundle:
counts of the first traced bundle, so they repeat exactly for a seed, and
self times as medians over the traced bundles.  The line
before the last holds the run's environment and artifact digest.
``--workload all`` runs every workload ``--runs`` times untraced and once
traced in child processes, prints medians, and writes a file that
compare.py reads.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# Pin the BLAS pools before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from refclock import NOMINAL_UNIT_S, RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
# Set-up is sampled in fresh processes, three before and two after the
# timed section, so the median spans more than one state of the host.
SETUP_SAMPLES = (3, 2)
CHILD_TIMEOUT_S = 170
MODULES = ("cli", "analysis", "landscape", "stiefel", "qcore")


def _default_seconds() -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return int(json.load(fh)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 30


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="untraced runs per workload, seeds seed..seed+runs-1 (all only)")
    p.add_argument("--bench-out", help="write every run's result here (all only)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = _default_seconds()
    return args


# ---------------------------------------------------------------------------
# Set-up: imports, inputs, warm-up.


def import_krauscape() -> dict:
    """Import krauscape from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"krauscape.{name}")
        except ImportError:
            if name == "cli":
                raise
    origin = os.path.realpath(modules["cli"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"krauscape was imported from {origin}, not from {SRC}")
    return modules


def setup(workload: str, seed: int, run_dir: str):
    """Everything before the first timed invocation; returns (modules, plan)."""
    modules = import_krauscape()
    os.makedirs(run_dir)
    plan = workloads.Plan(workload, seed, run_dir)
    for i, op in enumerate(plan.warmup):
        rc, _, artifacts, err = run_op(
            modules["cli"], op, run_dir, f"warmup-{i}", time.perf_counter)
        reason = workloads.check(op, rc, artifacts)
        if reason:
            raise RuntimeError(f"warm-up {' '.join(op.argv)} failed: {reason} {err}")
    return modules, plan


def run_op(cli, op, run_dir: str, name: str, clock):
    """Run one invocation; return (exit code, seconds, artifacts, stderr).

    The artifacts are read back and deleted, so every invocation writes
    fresh files and no file is ever overwritten in place.
    """
    out = os.path.join(run_dir, name + op.ext)
    argv = list(op.argv) + ["--out", out]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the CLI let an error escape: a failed op
            rc = f"uncaught {type(exc).__name__}: {exc}"
        dt = clock() - t0
    artifacts = []
    for path in workloads.artifact_paths(op, out):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                artifacts.append(fh.read())
            os.unlink(path)
    return rc, dt, artifacts, err.getvalue().strip()


def measure_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Set-up times of ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_only(args, run_dir: str) -> None:
    """Set up once and print the set-up time since process start.

    The reference kernel samples the host speed while set-up runs, and
    ``setup_s`` is the raw time converted to the nominal host speed
    (``NOMINAL_UNIT_S``); the raw seconds are printed beside it.
    """
    clock = RefClock()
    clock.start()
    try:
        setup(args.workload, args.seed, run_dir)
        clock.sample()
        raw = clock.now() - _T_START
    finally:
        clock.stop()
    unit = clock.unit(0, len(clock.samples))
    print(json.dumps({"setup_s": raw * NOMINAL_UNIT_S / unit, "raw_s": raw}))


# ---------------------------------------------------------------------------
# Measurement.


def _median(values):
    return statistics.median(values) if values else 0.0


def run_bundles(modules, plan, run_dir: str, seconds: float, trace: bool):
    """Run bundles for about ``seconds``, each draw twice in a row.

    The second bundle of a pair must write the same artifacts as the
    first; with ``trace`` it runs with the tracer installed.
    """
    clock = RefClock()
    tracer = Tracer(clock.now) if trace else None
    bundles = []
    failures = []
    mismatched_pairs = 0
    attempted = 0
    clock.start()
    try:
        begin = time.perf_counter()
        while True:
            second = len(bundles) % 2 == 1
            traced = trace and second
            if not second:
                ops = plan.bundle(len(bundles) // 2)
            if traced:
                tracer.install(modules)
                mark = tracer.mark()
            first_sample = len(clock.samples)
            op_s = 0.0
            artifact_bytes = 0
            digest = hashlib.sha256()
            for k, op in enumerate(ops):
                rc, dt, artifacts, err = run_op(
                    modules["cli"], op, run_dir, f"b{len(bundles)}-{k}", clock.now)
                attempted += 1
                op_s += dt
                reason = workloads.check(op, rc, artifacts)
                if reason:
                    failures.append(f"{' '.join(op.argv)}: {reason} {err}".strip())
                for blob in artifacts:
                    digest.update(len(blob).to_bytes(8, "little"))
                    digest.update(blob)
                    artifact_bytes += len(blob)
            stats = None
            if traced:
                tracer.uninstall()
                stats = tracer.summarize(mark, tracer.mark())
            unit = clock.unit(first_sample, len(clock.samples))
            bundles.append({
                "traced": traced, "op_s": op_s, "unit_s": unit,
                "wall_ref": op_s / unit, "digest": digest.hexdigest(), "stats": stats,
                "invocations": len(ops), "artifact_bytes": artifact_bytes,
            })
            if second and bundles[-1]["digest"] != bundles[-2]["digest"]:
                mismatched_pairs += 1
            elapsed = time.perf_counter() - begin
            if trace and len(bundles) < 2:
                continue
            if elapsed * (len(bundles) + 1) / len(bundles) > seconds:
                break
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
    return {
        "bundles": bundles,
        "attempted": attempted,
        "failures": failures,
        "mismatched_pairs": mismatched_pairs,
        "tracer": tracer,
        "ref_samples": len(clock.samples),
    }


def run_probe(modules, plan, run_dir: str) -> int:
    """Near-mixed Morse checks outside the timed section; returns mismatches."""
    mismatches = 0
    for i, op in enumerate(plan.probe):
        rc, _, artifacts, _ = run_op(
            modules["cli"], op, run_dir, f"probe-{i}", time.perf_counter)
        if workloads.check(op, rc, artifacts) is not None:
            mismatches += 1
    return mismatches


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(top)):
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Metrics.

# Spans whose self time is a per-layer metric, named "<span>.self_ref".
_SELF_REF = (
    "cli",
    "analysis.multi_start",
    "analysis.optimize",
    "analysis.classify",
    "analysis.level_transfer",
    "analysis.levelset_connect",
    "landscape.objective",
    "landscape.gradient",
    "landscape.hessian",
    "landscape.critical_point",
    "landscape.morse_signature",
    "stiefel.retract",
    "stiefel.kraus_point",
    "stiefel.tangent_basis",
    "stiefel.haar",
    "qcore.dilate",
    "qcore.verify",
)

_COUNTS = {
    "cli.calls": ("cli", "calls"),
    "analysis.optimize.calls": ("analysis.optimize", "calls"),
    "analysis.level_transfer.calls": ("analysis.level_transfer", "calls"),
    "landscape.objective.calls": ("landscape.objective", "calls"),
    "landscape.objective.frames": ("landscape.objective", "frames"),
    "landscape.gradient.calls": ("landscape.gradient", "calls"),
    "landscape.hessian.calls": ("landscape.hessian", "calls"),
    "stiefel.retract.calls": ("stiefel.retract", "calls"),
    "stiefel.retract.frames": ("stiefel.retract", "frames"),
    "stiefel.kraus_point.constructs": ("stiefel.kraus_point", "calls"),
}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(measured, setup_samples) -> dict:
    return {
        "wall_ref": _metric(_median([b["wall_ref"] for b in measured["bundles"]]), "ref"),
        "setup_s": _metric(_median([s["setup_s"] for s in setup_samples]), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(measured, mismatches: int) -> dict:
    traced = [b for b in measured["bundles"] if b["traced"]]
    plain = [b for b in measured["bundles"] if not b["traced"]]
    first = traced[0]["stats"]
    res = first["_results"]

    def stat(span, key):
        return first.get(span, {}).get(key, 0)

    metrics = {}
    for name, (span, key) in _COUNTS.items():
        metrics[name] = _metric(stat(span, key), "count")
    metrics["cli.artifact_bytes"] = _metric(traced[0]["artifact_bytes"], "bytes")
    for span in _SELF_REF:
        metrics[f"{span}.self_ref"] = _metric(
            _median([b["stats"].get(span, {}).get("self_s", 0.0) / b["unit_s"]
                     for b in traced]), "ref")
    iters = res["iters"]
    calls = len(iters)
    metrics["analysis.optimize.iters"] = _metric(sum(iters), "count")
    metrics["analysis.optimize.iters_p50"] = _metric(
        statistics.median(iters) if iters else 0, "count")
    metrics["analysis.optimize.converged_frac"] = _metric(
        res["converged"] / calls if calls else 0.0, "frac")
    metrics["analysis.linesearch.accept_ratio"] = _metric(
        sum(iters) / res["trials"] if res["trials"] else 0.0, "frac")
    metrics["analysis.levelset.waypoints"] = _metric(res["waypoints"], "count")
    metrics["landscape.morse.nearmixed_mismatches"] = _metric(mismatches, "count")
    metrics["trace.spans"] = _metric(res["spans"], "count")
    metrics["trace.overhead_ref"] = _metric(
        _median([b["wall_ref"] for b in traced]) - _median([b["wall_ref"] for b in plain]),
        "ref")
    return metrics


def layer_table(measured) -> list[str]:
    """Readable per-span lines: calls, seconds and share of the traced time."""
    traced = [b for b in measured["bundles"] if b["traced"]]
    total = _median([b["stats"]["_results"]["root_s"] for b in traced])
    spans = sorted(
        (k for k in traced[0]["stats"] if not k.startswith("_")),
        key=lambda k: -traced[0]["stats"][k]["self_s"])
    lines = [f"{'span':30s} {'calls':>9s} {'frames':>10s} {'self_s':>10s} {'share':>7s}"]
    for span in spans:
        s = _median([b["stats"][span]["self_s"] for b in traced])
        st = traced[0]["stats"][span]
        lines.append(f"{span:30s} {st['calls']:9d} {st['frames']:10d} "
                     f"{s:10.5f} {s / total if total else 0.0:7.2%}")
    return lines


# ---------------------------------------------------------------------------
# Entry points.


def run_one(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            setup_only(args, run_dir)
            return 0
        setup_samples = []
        if not args.trace:
            setup_samples += measure_setup(args.workload, args.seed, SETUP_SAMPLES[0])
        t0 = time.perf_counter()
        modules, plan = setup(args.workload, args.seed, run_dir)
        own_setup_s = time.perf_counter() - t0
        measured = run_bundles(modules, plan, run_dir, args.seconds, bool(args.trace))
        mismatches = run_probe(modules, plan, run_dir)
        if not args.trace:
            setup_samples += measure_setup(args.workload, args.seed, SETUP_SAMPLES[1])
        if args.trace:
            spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-{args.seed}.npz")
            measured["tracer"].save(spans_path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    bundles = measured["bundles"]
    failures = measured["failures"]
    correct = not failures and not measured["mismatched_pairs"]
    if args.trace:
        metrics = per_layer_metrics(measured, mismatches)
    else:
        metrics = end_to_end_metrics(measured, setup_samples)
    ratios = [b["wall_ref"] for b in bundles if not b["traced"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "bundles": len(bundles),
        "invocations_per_bundle": bundles[0]["invocations"],
        "wall_s": _median([b["op_s"] for b in bundles if not b["traced"]]),
        "wall_ref_bundles": ratios,
        "setup_s_samples": [s["setup_s"] for s in setup_samples],
        "setup_raw_s_samples": [s["raw_s"] for s in setup_samples],
        "own_setup_s": own_setup_s,
        "ref_unit_s": _median([b["unit_s"] for b in bundles]),
        "ref_samples": measured["ref_samples"],
        "fail_frac": len(failures) / measured["attempted"],
        "nearmixed_probe": f"{mismatches} of {len(plan.probe)} Morse checks at |w|=1e-5 mismatch",
        "artifact_sha256": bundles[0]["digest"],
        "environment": environment(),
    }
    if args.trace:
        info["absent_bindings"] = measured["tracer"].absent
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
        for line in layer_table(measured):
            print(line)
    for f in failures[:10]:
        print(f"FAILED {f}")
    if measured["mismatched_pairs"]:
        print(f"FAILED {measured['mismatched_pairs']} repeated bundles changed their artifacts")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def run_all(args) -> int:
    """Every workload, ``--runs`` untraced runs and one traced run each."""
    runs = []
    summary = {}
    for workload in workloads.WORKLOADS:
        mine = [_child(workload, args.seed + i, args.seconds, 0) for i in range(args.runs)]
        traced = _child(workload, args.seed, args.seconds, 1)
        runs += mine + [traced]
        print(f"== {workload}: {args.runs} untraced runs of {args.seconds:g} s, "
              f"seeds {args.seed}..{args.seed + args.runs - 1}")
        for name in mine[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in mine]
            unit = mine[0]["result"]["metrics"][name]["unit"]
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            print(f"  {name:14s} median {q[1]:12.6g} {unit:4s} "
                  f"quartiles [{q[0]:.6g}, {q[2]:.6g}]  n={len(vals)}")
            summary[f"{workload}.{name}"] = _metric(q[1], unit)
        wall_s = [r["info"]["wall_s"] for r in mine]
        att = sum(r["result"]["attempted"] for r in mine)
        fail = sum(r["result"]["failed"] for r in mine)
        print(f"  {'wall_s':14s} median {statistics.median(wall_s):12.6g} s    (not gated)")
        print(f"  {'fail_frac':14s} {fail / att:.6g} ({fail} failed of {att} attempted)")
        print(f"  per layer, traced run (seed {args.seed}), per bundle:")
        for name, m in traced["result"]["metrics"].items():
            print(f"    {name:40s} {m['value']:14.6g} {m['unit']}")
    correct = all(r["result"]["correct"] for r in runs)
    if args.bench_out:
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "runs": runs}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": summary,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "krauscape", "cli.py")):
        print(f"perfbench: no krauscape sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
