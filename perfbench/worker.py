"""One workload in one process: set up, run the timed iterations, check.

Started by ``run.py``, never by hand.  The parent sets the BLAS thread
count and ``PYTHONPATH`` in this process's environment before it starts,
so they are in force when numpy loads.  The result goes to the JSON file
named by ``--result``; the parent turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    import crashmle
    import probe
    import tracer as tracing
    from workloads import WORKLOADS, compare_values, pool_indices

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(crashmle)

    workload = WORKLOADS[args.workload]()
    n_iter = max(1, round(args.seconds / workload.nominal_s))
    indices = pool_indices(workload, args.seed, n_iter)
    workdir = os.path.join(os.path.dirname(args.result), f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.prepare(indices, workdir)
        with warnings.catch_warnings():
            # tiny warm-up inputs can be degenerate; their warnings mean nothing
            warnings.simplefilter("ignore")
            workload.warm_up()
        ready = time.monotonic()
        # Host-speed probes right after set-up (at least five, so a set-up
        # process has its own), between the timed iterations and after the
        # last: about 2% of the run.
        probe_reps = max(1, round(0.02 * workload.nominal_s
                                  / probe.reference(workload.probe)))
        probes = [probe.run(workload.probe) for _ in range(max(5, probe_reps))]
        if args.setup_only:
            _write(args.result, {"ready": ready, "probes": probes,
                                 "probe_reference": probe.reference(workload.probe)})
            return 0

        counting = tracer.count_warnings if tracer is not None else contextlib.nullcontext
        times, outcomes = [], []
        for i, index in enumerate(indices):
            if tracer is not None:
                tracer.iteration = i
            with counting():
                t0 = time.perf_counter()
                outcomes.append(workload.iterate(index))
                times.append(time.perf_counter() - t0)
            probes += [probe.run(workload.probe) for _ in range(probe_reps)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})
    attempted = failed = 0
    mismatches = []
    for index, outcome in zip(indices, outcomes):
        bad = compare_values(outcome.values, reference.get(str(index)))
        attempted += outcome.attempted + 1  # the output check is an operation too
        failed += outcome.failed + bool(bad)
        mismatches += [f"dataset {index}: {b}" for b in bad]
        mismatches += [f"dataset {index}: {n}" for n in outcome.notes]

    result = {
        "ready": ready,
        "indices": indices,
        "times": times,
        "probes": probes,
        "probe_reference": probe.reference(workload.probe),
        "refits": sum(o.refits for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(indices))
        if args.spans:
            tracer.write(args.spans)
    _write(args.result, result)
    return 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
