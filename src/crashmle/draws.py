"""Quasi-random draw matrices for simulated likelihood.

Each random term gets a Halton sequence in its own prime base, with an
initial burn-in skipped; observation ``n`` owns a disjoint block of the
sequence, so repeated evaluations and reruns see exactly the same draws.
The mixed logit and the mixed negative binomial share these matrices and
the coefficient draws below.  Each family's kernel averages its own
draws: the logit kernel weighs them by probabilities, the NB kernel
turns per-draw log probabilities into posterior shares in place.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.special import ndtri

from .dataset import _KIND_TO_DIST, DesignMatrix

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
    top = skip + count
    idx = np.arange(skip + 1, top + 1, dtype=np.int32 if top < 2**31 else np.int64)
    digit = np.empty_like(idx)
    # the partial sums of the lowest k digits, for every value of them
    # (base**k <= 2**16), built in the digit loop's own order, so that one
    # gather gives bit for bit what k passes of that loop would
    table = np.zeros(1)
    f = 1.0
    while top and table.size * base <= 1 << 16:
        top //= base
        f /= base
        table = (table[None, :] + (f * np.arange(base))[:, None]).ravel()
    np.divmod(idx, table.size, out=(idx, digit))
    out = table[digit]
    while top:  # one pass per higher base-`base` digit of the largest index
        top //= base
        f /= base
        np.divmod(idx, base, out=(idx, digit))
        out += f * digit
    return out


class DrawMatrix:
    """Standardized quasi-random draws for every random term.

    ``std[d]`` is an (N, R) array for dimension ``d``: inverse-normal
    transforms for normal terms, ``2u - 1`` for uniform terms.
    Observation ``n`` owns the post-skip Halton elements
    ``[n*R, (n+1)*R)`` of the dimension's base sequence.  An optional
    Cranley-Patterson shift rotates each dimension by a seeded uniform
    offset before transforming.  A matrix made by :meth:`subset` keeps
    its source rows' draws, so its row ``n`` owns those of the source
    row it took; its ``seed``, ``skip`` and ``shift`` describe the
    source matrix.
    """

    def __init__(self, n_obs: int, n_draws: int, dists: tuple[str, ...],
                 seed: int = 0, skip: int = 10, shift: bool = False):
        if n_draws < MIN_DRAWS:
            raise ValueError(f"need at least {MIN_DRAWS} draws, got {n_draws}")
        if n_obs < 1:
            raise ValueError("n_obs must be positive")
        if seed < 0:
            raise ValueError("seed must be non-negative")
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
    def for_design(cls, design: DesignMatrix, n_draws: int, **options) -> "DrawMatrix":
        dists = tuple(_KIND_TO_DIST[design.spec.terms[j].kind]
                      for j in design.random_terms)
        if not dists:
            raise ValueError("design has no random terms")
        return cls(design.n_obs, n_draws, dists, **options)

    def subset(self, index: np.ndarray) -> "DrawMatrix":
        """Row subset (slice, boolean mask or integer index array), in order:
        each observation it selects keeps its own draws, so the simulated
        likelihoods of complementary subsets sum to the full one."""
        out = copy.copy(self)
        out.std = tuple(std[index] for std in self.std)
        out.n_obs = len(out.std[0])
        return out


def coefficient_draws(theta, design: DesignMatrix, draws: DrawMatrix | None,
                      j: int, rows=slice(None)):
    """Coefficient draws (N, R) for term j of the observations ``rows``
    selects; the location if the term is fixed."""
    loc = theta[design.loc_pos[j]]
    if j in design.random_terms:
        dim = design.random_terms.index(j)
        scale = np.exp(theta[design.scale_pos[j]])
        return loc + scale * draws.std[dim][rows]
    return loc
