#!/usr/bin/env python3
"""Workload benchmark for nsgap.

    python3 perfbench/run.py --workload {expander,normed,finite} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Each workload is a closed loop with one client: a fixed set of requests
runs one after another through `nsgap.cli.run(argv)` in this process, each
writing its report to a file under `perfbench/out/`, and the set is
repeated in rounds until `--seconds` are used.  A request's latency is its
largest process CPU time over the rounds: on a shared host the same request
takes up to twice as long while other tenants load the machine, and the
loaded speed is the one a run is sure to meet (see perfbench/README.md).
Wall times are printed alongside.  Outputs are checked after the timed rounds.
The last line of standard output is one JSON object with the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`); the lines
before it list every metric with its unit, the failing requests and the
machine.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread of requests, and one BLAS thread under it; set before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import mixes
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# confirm a claimed gain on this seed only after it was made on other seeds
HELD_OUT_SEED = 1_262_012
SETUP_REPEATS = 6  # half before the timed rounds, half after
TAIL_BEYOND = 10


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- measurements -------------------------------------------------------------

def measure_setup(repeats: int) -> list:
    """CPU times to import nsgap.cli in `repeats` fresh interpreters."""
    code = ("import time; t = time.process_time(); import nsgap.cli; "
            "print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"importing nsgap.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_request(cli, req) -> dict:
    """Exit code, CPU and wall seconds and error text of one in-process CLI
    invocation."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        code = cli.run(list(req.argv))
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # a crash is a failed request, not a crashed run
        code, error = -1, f"{type(exc).__name__}: {exc}"
    return {"req": req, "code": code, "seconds": time.process_time() - cpu,
            "wall_s": time.perf_counter() - wall, "error": error}


def timed_rounds(cli, requests: list, seconds: float) -> list:
    """Run the request set in rounds until `seconds` of wall time have
    passed since the first request.  Round 0 always completes; the last
    round may stop at any request.  Each record keeps the request's CPU and
    wall times of every round, their largest, and its first error."""
    done = [{"req": req, "cpu": [], "wall": [], "error": None} for req in requests]
    start = time.perf_counter()
    for k in itertools.count():
        if k >= len(done) and time.perf_counter() - start >= seconds:
            break
        rec = done[k % len(done)]
        one = run_request(cli, rec["req"])
        rec["cpu"].append(one["seconds"])
        rec["wall"].append(one["wall_s"])
        rec["error"] = rec["error"] or one["error"]
    for rec in done:
        rec["seconds"], rec["wall_s"] = max(rec["cpu"]), max(rec["wall"])
    return done


def class_medians(done: list) -> dict:
    """Median latency (s) per request class."""
    by_class = {}
    for rec in done:
        by_class.setdefault(rec["req"].cls, []).append(rec["seconds"])
    return {cls: statistics.median(xs) for cls, xs in sorted(by_class.items())}


def tail(latencies: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def geomean(values: list) -> float:
    """Geometric mean; 0 when there is nothing to average."""
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def run_checks(done: list) -> dict:
    """Check every completed request; returns the reports of those that pass
    and marks failures (exit code or check) in place."""
    reports = {}
    for rec in done:
        if rec["error"]:
            continue
        try:
            reports[rec["req"].name] = checks.check(rec["req"])
        except checks.CheckFailed as exc:
            rec["error"] = f"check failed: {exc}"
        except (OSError, KeyError, TypeError, ValueError) as exc:
            rec["error"] = f"check failed: unreadable report ({type(exc).__name__}: {exc})"
    return reports


def quality(done: list, reports: dict) -> dict:
    """Geometric means over the checked reports: gap values (heuristic lower
    bounds, or exact values, which bound themselves), embedding distortions
    and Hilbertian distances of norms."""
    gaps, distortions, dxs = [], [], []
    for rec in done:
        rep = reports.get(rec["req"].name)
        if rep is None:
            continue
        kind = rec["req"].kind
        if kind == "expander":
            gaps.append(rep["gamma_classical"])
        elif kind.startswith("gap"):
            gaps.append(rep["value"])
        elif kind == "embed":
            distortions.append(rep["D_achieved"])
        elif kind.startswith("john"):
            dxs.append(rep["D_X"])
    return {"gap_lb_geomean": geomean(gaps),
            "embed.average_embed_hilbert.distortion_geomean": geomean(distortions),
            "john.hilbert_distance.d_x_geomean": geomean(dxs)}


def input_hash(done: list, workdir: Path) -> str:
    """SHA-256 over the argv (relative to the work directory) and the input
    file bytes of the request set, in order."""
    h = hashlib.sha256()
    for rec in done:
        for arg in rec["req"].argv:
            h.update(arg.replace(str(workdir), "").encode())
            path = Path(arg)
            if arg.endswith(".json") and path.is_file() and not arg.endswith(".out.json"):
                h.update(path.read_bytes())
    return h.hexdigest()


def metadata() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "nsgap").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(BLAS_THREADS), "git_commit": commit, "src_lines": lines,
            "held_out_seed": HELD_OUT_SEED}


# --- modes ----------------------------------------------------------------------

def untraced(args, cli, workdir: Path) -> tuple:
    requests = mixes.build_requests(args.workload, args.seed, workdir)
    setup = measure_setup(SETUP_REPEATS // 2)
    done = timed_rounds(cli, requests, args.seconds)
    setup += measure_setup(SETUP_REPEATS - len(setup))
    reports = run_checks(done)
    latencies = [rec["seconds"] * 1000.0 for rec in done]
    walls = [rec["wall_s"] * 1000.0 for rec in done]
    busy = sum(rec["seconds"] for rec in done)
    tail_ms, tail_pct, count = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(done) / busy,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gap_lb_geomean": quality(done, reports)["gap_lb_geomean"],
    }
    info = {"tail_percentile": tail_pct, "samples": count, "cpu_busy_s": busy,
            "wall_busy_s": sum(walls) / 1000.0,
            "wall_ops_per_s": len(done) * 1000.0 / sum(walls),
            "wall_p50_ms": statistics.median(walls), "wall_tail_ms": tail(walls)[0],
            "class_median_ms": {cls: round(med * 1000.0, 3)
                                for cls, med in class_medians(done).items()},
            "rounds": sum(len(r["cpu"]) for r in done) / len(done),
            "repeat_spread": statistics.median(max(r["cpu"]) / min(r["cpu"]) for r in done),
            "setup_samples_s": setup}
    return done, metrics, info


def traced(args, cli, workdir: Path) -> tuple:
    """The request set once untraced as a warm-up, then each request
    untraced and traced back to back.  Per-layer metrics come from the
    traced runs; the overhead is traced minus untraced time of the same
    requests."""
    requests = mixes.build_requests(args.workload, args.seed, workdir)
    reference = []
    for req in requests:
        code = run_request(cli, req)["code"]
        reference.append(req.out.read_bytes() if code == 0 else None)
    tracer = spans.Tracer()
    done, plain_s = [], 0.0
    for req, before in zip(requests, reference):
        plain_s += run_request(cli, req)["seconds"]
        tracer.request = req.name
        tracer.install()
        try:
            rec = run_request(cli, req)
        finally:
            tracer.uninstall()
        if rec["code"] == 0 and req.out.read_bytes() != before:
            rec["error"] = "report differs between the untraced and traced runs"
        done.append(rec)
    reports = run_checks(done)
    metrics = {**tracer.layer_metrics(), **quality(done, reports)}
    traced_s = sum(rec["seconds"] for rec in done)
    metrics["trace.overhead_s"] = traced_s - plain_s
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    info = {"untraced_s": plain_s, "traced_s": traced_s, "missing_targets": tracer.missing,
            "spans": len(tracer.spans)}
    return done, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nsgap" / "cli.py").is_file():
        fail(f"no program to measure: {SRC / 'nsgap'} is missing")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from nsgap import cli

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        mode = traced if args.trace else untraced
        done, metrics, info = mode(args, cli, workdir)
        info["input_sha256"] = input_hash(done, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [rec for rec in done if rec["error"]]
    meta = metadata()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    absent = sorted(set(units) - set(metrics))
    if absent:
        fail(f"metrics not computed: {', '.join(absent)}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for key, value in meta.items():
        print(f"  meta {key}: {value}")
    for key, value in info.items():
        print(f"  info {key}: {value}")
    for key in units:
        print(f"  {key}: {metrics[key]:.6g} {units[key]}")
    print(f"  fail_ratio: {len(failed) / len(done):.6g} ratio "
          f"({len(failed)} of {len(done)} requests)")
    for rec in failed:
        print(f"  FAILED {rec['req'].name}: {rec['error']}")
    result = {
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "meta": meta,
                    "failures": {rec["req"].name: rec["error"] for rec in failed},
                    "cpu_s": {rec["req"].name: rec.get("cpu", [rec["seconds"]])
                              for rec in done}},
                   indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
