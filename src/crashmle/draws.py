"""Quasi-random draw matrices and the per-draw algebra of simulated likelihood.

Each random term gets a Halton sequence in its own prime base, with an
initial burn-in skipped; observation ``n`` owns a disjoint block of the
sequence, so repeated evaluations and reruns see exactly the same draws.
The mixed logit and the mixed negative binomial share these matrices and
the helpers below, which turn per-draw values into coefficient draws,
simulated log-likelihoods and scores.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .dataset import DesignMatrix

MIN_DRAWS = 25


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


def first_primes(count: int) -> tuple[int, ...]:
    primes = []
    n = 2
    while len(primes) < count:
        if is_prime(n):
            primes.append(n)
        n += 1
    return tuple(primes)


def halton(base: int, count: int, skip: int = 0) -> np.ndarray:
    """Radical-inverse sequence in base ``base``.

    Returns elements ``skip+1 .. skip+count`` of the classic sequence
    (index 1 is 1/base); all values lie strictly inside (0, 1).
    """
    if not is_prime(base):
        raise ValueError(f"Halton base must be prime, got {base}")
    if count < 1:
        raise ValueError("count must be positive")
    if skip < 0:
        raise ValueError("skip must be non-negative")
    idx = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.zeros(count)
    f = 1.0
    while idx.any():
        f /= base
        out += f * (idx % base)
        idx //= base
    return out


_KIND_TO_DIST = {"random_normal": "normal", "random_uniform": "uniform"}


class DrawMatrix:
    """Standardized quasi-random draws for every random term.

    ``std[d]`` is an (N, R) array for dimension ``d``: inverse-normal
    transforms for normal terms, ``2u - 1`` for uniform terms.
    Observation ``n`` owns the post-skip Halton elements
    ``[n*R, (n+1)*R)`` of the dimension's base sequence.  An optional
    Cranley-Patterson shift rotates each dimension by a seeded uniform
    offset before transforming.
    """

    def __init__(self, n_obs: int, n_draws: int, dists: tuple[str, ...],
                 seed: int = 0, skip: int = 10, shift: bool = False):
        if n_draws < MIN_DRAWS:
            raise ValueError(f"need at least {MIN_DRAWS} draws, got {n_draws}")
        if n_obs < 1:
            raise ValueError("n_obs must be positive")
        self.n_obs = n_obs
        self.n_draws = n_draws
        self.dists = tuple(dists)
        self.seed = seed
        self.skip = skip
        self.shift = shift
        self.primes = first_primes(len(self.dists))
        offsets = None
        if shift:
            rng = np.random.Generator(np.random.PCG64(seed))
            offsets = rng.random(len(self.dists))
        std = []
        for d, dist in enumerate(self.dists):
            u = halton(self.primes[d], n_obs * n_draws, skip=skip)
            if offsets is not None:
                u = np.mod(u + offsets[d], 1.0)
                u = np.clip(u, 1e-12, 1.0 - 1e-12)
            u = u.reshape(n_obs, n_draws)
            if dist == "normal":
                std.append(ndtri(u))
            else:
                std.append(2.0 * u - 1.0)
        self.std = tuple(std)

    @classmethod
    def for_design(cls, design: DesignMatrix, n_draws: int, seed: int = 0,
                   skip: int = 10, shift: bool = False) -> "DrawMatrix":
        dists = tuple(_KIND_TO_DIST[design.spec.terms[j].kind]
                      for j in design.random_terms)
        if not dists:
            raise ValueError("design has no random terms")
        return cls(design.n_obs, n_draws, dists, seed=seed, skip=skip, shift=shift)


def coefficient_draws(theta, design: DesignMatrix, draws: DrawMatrix | None,
                      j: int):
    """Coefficient draws (N, R) for term j; the location if it is fixed."""
    loc = theta[design.loc_pos[j]]
    if j in design.random_terms:
        dim = design.random_terms.index(j)
        scale = np.exp(theta[design.scale_pos[j]])
        return loc + scale * draws.std[dim]
    return loc


def draw_mean(log_lik: np.ndarray):
    """Simulated log-likelihood per observation from per-draw values.

    ``log_lik`` is (..., N, R).  Returns the log of the draw-mean
    likelihood (..., N) and each draw's posterior share of it (..., N,
    R), which weights the draws in the scores; one draw has share one.
    """
    if log_lik.shape[-1] == 1:
        return log_lik[..., 0], np.broadcast_to(1.0, log_lik.shape)
    m = log_lik.max(axis=-1, keepdims=True)
    with np.errstate(under="ignore"):
        lse = m + np.log(np.exp(log_lik - m).sum(axis=-1, keepdims=True))
    return lse[..., 0] - np.log(log_lik.shape[-1]), np.exp(log_lik - lse)


def scale_score(theta, design: DesignMatrix, draws: DrawMatrix, j: int,
                we: np.ndarray) -> np.ndarray:
    """Per-observation score (..., N) of random term ``j``'s log-scale.

    ``we`` (..., N, R) is the posterior-weighted derivative of each
    draw's log-likelihood with respect to the term's coefficient draw
    (of ``theta``, one vector or (K, P) rows); summed over draws it gives
    the location score.
    """
    dim = design.random_terms.index(j)
    scale = np.exp(theta[..., design.scale_pos[j], None])
    return design.x[:, j] * (we * draws.std[dim]).sum(axis=-1) * scale
