"""A fixed computation that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts: on a shared 2-vCPU Xeon VM, 45-second runs of the
same code a few minutes apart came out up to 40% apart, while within a
run the speed held steady.  The probe runs after set-up and between
timed iterations, in the workload's own process, and touches no
crashmle code, so a change to crashmle cannot move it.  ``run.py``
scales set-up and iteration times by ``reference / probe`` to report
them at the reference speed.

Two kernels mirror the two ways crashmle loads the machine:

* ``small`` - many tiny numpy calls (an NB log-likelihood on 122 rows,
  1,500 times), bound by Python call overhead like the Monte Carlo
  refits;
* ``large`` - a softmax and log-mean over a (1500, 200, 3) array,
  bound by arithmetic and memory like the simulated likelihoods.
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy.special import gammaln

# Median seconds of each kernel on that VM (Python 3.11.7, numpy 2.4.6,
# one BLAS thread): a probe that takes this long means the host runs at
# reference speed.
REFERENCE_S = {"small": 0.045, "large": 0.095}


@functools.lru_cache(maxsize=None)
def _inputs(kernel: str):
    rng = np.random.default_rng(0)
    if kernel == "small":
        return rng.normal(size=(122, 2)), rng.poisson(3.0, size=122).astype(float)
    return (rng.normal(size=(1500, 200, 3)),)


def _small(x, y) -> float:
    beta, r, total = np.array([1.0, 0.3]), 1.0 / 0.8, 0.0
    for _ in range(1500):
        mu = np.exp(x @ beta)
        total += float(np.sum(gammaln(y + r) - gammaln(r) - gammaln(y + 1)
                              + r * np.log(r / (r + mu)) + y * np.log(mu / (r + mu))))
        beta = beta + 1e-6
    return total


def _large(z) -> float:
    total = 0.0
    for _ in range(4):
        e = np.exp(0.5 * z)
        p = e / e.sum(axis=2, keepdims=True)
        total += float(np.log(p.mean(axis=1)).sum())
    return total


KERNELS = {"small": _small, "large": _large}


def run(kernels) -> float:
    """Seconds the named kernels take, one after the other."""
    start = time.perf_counter()
    for name in kernels:
        KERNELS[name](*_inputs(name))
    return time.perf_counter() - start


def reference(kernels) -> float:
    """What ``run(kernels)`` takes at reference speed."""
    return sum(REFERENCE_S[name] for name in kernels)
