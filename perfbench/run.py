"""crashmle benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc_pool --seed 1 --seconds 45 --trace 0

Workloads: ``mc_pool`` and ``cli_pipeline`` (see ``workloads.py``).  The
workload runs in child processes of its own, one at a time, so its peak
RSS and caches are its own.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
five fresh processes of the time from process start to the first timed
iteration), ``wall_s`` (median iteration time), ``wall_s_tail``,
``refits_per_s`` and ``peak_rss_mb``.  Times are given at the reference
host speed: a wall time is multiplied by the reference time of
``probe.py``'s kernels over their median time in the same process,
measured after set-up and between the iterations.  The raw median wall
times and the host speed are printed as well.

``--trace 1`` splits the run in two halves, untraced and then traced,
over the same datasets, and reports the per-layer metrics of the traced
half together with the tracing overhead (traced minus untraced
``wall_s``, both at the reference host speed).  The spans go to
``.perfbench/spans-<workload>-<seed>.csv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give every metric with its unit and sample count, the output-check
findings and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("mc_pool", "cli_pipeline")
SETUP_SAMPLES = 5          # fresh processes whose set-up time is timed
RUN_BUDGET_S = 170.0       # every child together must end within 180 s
# Single-threaded BLAS: the kernels are elementwise numpy, BLAS only sees
# small products, and extra threads on a shared two-core machine add noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in BLAS_ENV:
        env[name] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def run_child(args, deadline: float, *, trace: int, seconds: float,
              setup_only: bool = False, spans=None) -> dict:
    """Run worker.py once; return its result, with ``setup_s`` added."""
    result_path = os.path.join(OUT, f"result-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - start))
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)
    # CLOCK_MONOTONIC is shared by every process on the machine.
    result["setup_s"] = result["ready"] - start
    return result


def host_speed(result: dict) -> float:
    """How fast the host ran in a child process, as a share of the
    reference speed (see probe.py)."""
    return result["probe_reference"] / statistics.median(result["probes"])


def scaled_times(result: dict) -> list[float]:
    """A child's iteration times at the reference host speed."""
    speed = host_speed(result)
    return [t * speed for t in result["times"]]


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its name.

    With fewer than 20 samples no percentile at or above the median has
    ten samples beyond it; the maximum is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    k = n - 11
    return ordered[k], f"p{100.0 * (k + 1) / n:.0f} of {n}"


def machine() -> dict:
    import numpy
    import scipy
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["commit"] = git_commit()
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crashmle", "__init__.py")):
        print(f"error: no crashmle sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace:
        # Each pass gets half the run, so a traced run takes as long as an
        # untraced one.
        half = args.seconds / 2
        plain = run_child(args, deadline, trace=0, seconds=half)
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv.gz")
        main_run = run_child(args, deadline, trace=1, seconds=half, spans=spans)
        runs = [plain, main_run]
        untraced = statistics.median(scaled_times(plain))
        overhead = statistics.median(scaled_times(main_run)) - untraced
        metrics = dict(main_run["layers"])
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / untraced
        units = {k: unit_of(k) for k in metrics}
        samples = {k: len(main_run["times"]) for k in metrics}
    else:
        setup_runs = [run_child(args, deadline, trace=0, seconds=args.seconds,
                                setup_only=True)
                      for _ in range(SETUP_SAMPLES - 1)]
        main_run = run_child(args, deadline, trace=0, seconds=args.seconds)
        runs = [main_run]
        times = scaled_times(main_run)
        tail_value, tail_name = tail(times)
        setup_runs.append(main_run)
        raw_setups = [r["setup_s"] for r in setup_runs]
        setups = [r["setup_s"] * host_speed(r) for r in setup_runs]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(times),
            "wall_s_tail": tail_value,
            "refits_per_s": main_run["refits"] / sum(times),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        units = {"setup_s": "s", "wall_s": "s", "wall_s_tail": "s",
                 "refits_per_s": "1/s", "peak_rss_mb": "MB"}
        samples = {"setup_s": len(setups), "wall_s": len(times),
                   "wall_s_tail": len(times), "refits_per_s": len(times),
                   "peak_rss_mb": 1}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    mismatches = [m for r in runs for m in r["mismatches"]]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(main_run['times'])}  datasets {main_run['indices']}")
    for name, value in metrics.items():
        extra = f"  ({tail_name})" if name == "wall_s_tail" else ""
        print(f"  {name:<36} {value:>14.6g} {units[name]:<6} n={samples[name]}{extra}")
    if not args.trace:
        print(f"  {'raw setup_s':<36} {statistics.median(raw_setups):>14.6g} s      "
              f"n={len(raw_setups)}")
        print(f"  {'raw wall_s':<36} {statistics.median(main_run['times']):>14.6g} s      "
              f"n={len(main_run['times'])}  (host at {host_speed(main_run):.3g} of "
              f"reference speed, {len(main_run['probes'])} probes)")
    print(f"  failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for m in mismatches:
        print(f"  check failed: {m}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "iteration_times": main_run["times"], "datasets": main_run["indices"],
              "failed_ratio": failed / attempted, "machine": machine()}
    if not args.trace:
        detail["setup_samples"] = setups
        detail["raw_setup_samples"] = raw_setups
        detail["wall_s_tail_percentile"] = tail_name
        detail["host_speed"] = host_speed(main_run)
        detail["probe_times"] = main_run["probes"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith("ns_per_element"):
        return "ns"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
