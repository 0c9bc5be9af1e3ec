"""Regenerate ``reference.json``: the frozen outputs every run is checked against.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/freeze.py [workload ...]

Runs one iteration on every dataset of each named workload's pool (dev
and held-out parts; all workloads when none is named) and stores the
checked values.  Run it only at a commit whose outputs are known good,
and say so when the file changes: it is the benchmark's correctness
oracle.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(os.path.dirname(HERE), ".perfbench")


def main(names) -> int:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]()
        indices = list(range(workload.dev_pool + workload.heldout_pool))
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"freeze-{name}-", dir=OUT)
        try:
            workload.prepare(indices, workdir)
            entries = {}
            for index in indices:
                outcome = workload.iterate(index)
                if outcome.failed or outcome.notes:
                    print(f"{name} dataset {index}: {outcome.failed} failures "
                          f"{outcome.notes}", file=sys.stderr)
                    return 1
                entries[str(index)] = outcome.values
                print(f"{name} dataset {index}: {outcome.values}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference[name] = entries
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
