"""Mixing distributions, with their one inverse-CDF map :func:`standard_draws`,
and the quasi-random draw matrices of simulated likelihood.

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
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .dataset import _KIND_TO_DIST, DesignMatrix

MIN_DRAWS = 25

#: elements of one block of working memory (:func:`blocks`).  A draw
#: matrix is built this many Halton elements at a time; the logit kernel
#: works through the observations in blocks of this many (K * rows * R)
#: elements per outcome, and the NB kernel in tiles and observation blocks
#: of this many (row, observation, draw) elements, so that working memory
#: scales with the block, not with N * R, and a block's arrays stay in cache
BLOCK_ELEMENTS = 1 << 14


def block_rows(per_row: int, budget: int | None = None) -> int:
    """Rows of ``per_row`` elements in one full slice of :func:`blocks`."""
    return max(1, (BLOCK_ELEMENTS if budget is None else budget) // per_row)


def blocks(n: int, per_row: int, budget: int | None = None):
    """Consecutive slices over ``n`` rows of ``per_row`` elements, each of at
    most ``budget`` (``BLOCK_ELEMENTS`` when it runs) elements or one row."""
    step = block_rows(per_row, budget)
    for a in range(0, n, step):
        yield slice(a, min(a + step, n))


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


@dataclass(frozen=True)
class Mixing:
    """One mixing distribution: normal(location, sd) or uniform with
    support [location - scale, location + scale]."""

    dist: str
    location: float
    scale: float

    def __post_init__(self):
        if self.dist not in ("normal", "uniform"):
            raise ValueError(f"dist must be 'normal' or 'uniform', got {self.dist!r}")
        if self.scale < 0:
            raise ValueError("mixing scale must be non-negative")


def standard_draws(u: np.ndarray, dist: str, out=None) -> np.ndarray:
    """Standardized draws of mixing distribution ``dist`` by inverse CDF at
    uniforms ``u`` in (0, 1): standard normal, or uniform on [-1, 1];
    written to ``out`` (which may be ``u``) when given."""
    if dist == "normal":
        return ndtri(u, out=out)
    return np.subtract(np.multiply(u, 2.0, out=out), 1.0, out=out)


def transform_draws(uniforms: np.ndarray, mixing: Mixing) -> np.ndarray:
    """Map uniform (0,1) draws to coefficient draws by inverse CDF."""
    u = np.asarray(uniforms, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("uniform draws must lie strictly inside (0, 1)")
    return mixing.location + mixing.scale * standard_draws(u, mixing.dist)


def sign_share(mixing: Mixing) -> float:
    """Probability mass of the mixing distribution below zero."""
    b, s = mixing.location, mixing.scale
    if s == 0.0:
        return 1.0 if b < 0 else (0.5 if b == 0 else 0.0)
    if mixing.dist == "normal":
        return float(ndtr(-b / s))
    return float(np.clip((s - b) / (2.0 * s), 0.0, 1.0))


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
    dtype = np.int32 if top < 2**31 else np.int64
    # the partial sums of the lowest k digits, for every value of them
    # (base**k <= 2**16), built in the digit loop's own order, so that one
    # gather gives bit for bit what k passes of that loop would
    table = np.zeros(1)
    f = 1.0
    while top and table.size * base <= 1 << 16:
        top //= base
        f /= base
        table = (table[None, :] + (f * np.arange(base))[:, None]).ravel()
    out = np.empty(count)
    # a block of indices at a time, each chunk taking every pass the
    # largest index needs (a missing digit adds zero), so that the index,
    # digit and increment arrays stay within a block
    for b in blocks(count, 1):
        idx = np.arange(skip + 1 + b.start, skip + 1 + b.stop, dtype=dtype)
        digit = np.empty_like(idx)
        np.divmod(idx, table.size, out=(idx, digit))
        chunk = np.take(table, digit, out=out[b])
        g, rest = f, top
        while rest:  # one pass per higher base-`base` digit of the largest index
            rest //= base
            g /= base
            np.divmod(idx, base, out=(idx, digit))
            chunk += g * digit
    return out


class DrawMatrix:
    """Standardized quasi-random draws for every random term.

    ``std[d]`` is an (N, R) array for dimension ``d``: the
    :func:`standard_draws` of its term's mixing distribution.
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
            # shifted and transformed in place: the build holds no more
            # than its output, the digit table and one chunk of indices
            u = halton(self.primes[d], n_obs * n_draws, skip=skip).reshape(n_obs, n_draws)
            if offsets is not None:
                np.mod(np.add(u, offsets[d], out=u), 1.0, out=u)
                np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
            std.append(standard_draws(u, dist, out=u))
        self.std = tuple(std)

    @classmethod
    def for_design(cls, design: DesignMatrix, n_draws: int | None, **options) -> "DrawMatrix":
        if n_draws is None:  # no hidden default draw count
            raise ValueError("mixed families require n_draws")
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
                      j: int, rows):
    """Coefficient draws (N, R) for term j of the observations ``rows``
    selects; the location if the term is fixed."""
    loc = theta[design.loc_pos[j]]
    if j in design.random_terms:
        dim = design.random_terms.index(j)
        scale = np.exp(theta[design.scale_pos[j]])
        return loc + scale * draws.std[dim][rows]
    return loc
