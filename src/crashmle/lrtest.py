"""Likelihood-ratio tests for parameter transferability across subsets.

The observed statistic compares a pooled fit against separate fits on
the two halves of a 0/1 split: ``x2 = -2 * (ll_pooled - ll_a - ll_b)``
with one degree of freedom per extra parameter.  Because the asymptotic
chi-squared reference can be optimistic in small samples, the Monte
Carlo variant re-simulates outcomes from the pooled fit, refits all
three models per replicate, and reports the plain exceedance fraction
as the finite-sample p-value.

The observed fits and the replicate refits share one staged refit,
:func:`_stages`: the pooled model, then each subset from its row's
pooled solution.  The mixed families simulate all three fits on one
pooled Halton matrix, each subset on its own observations' rows, so the
subsets start at the pooled log-likelihood and the statistic is
non-negative by construction for every family.

The Monte Carlo replicates are refitted in :func:`crashmle.draws.blocks`
of ``max(BLOCK_ELEMENTS // (n_obs * R), 1)`` rows, R being a mixed spec's
draws and 1 otherwise: 2,148 on a 122-site plain table, so that 500
replicates take one block; fewer on large tables and with many draws, so
that a block's outcomes and outputs stay within a fixed number of
elements.  The kernels bound their own working memory.  A stacked NB
refit does not depend on the rows fitted with it, so NB statistics are
the same, bit for bit, for every block size; logit statistics agree to
1e-6 (the logit kernel's observation blocks depend on the rows per call).
Replicate ``i`` draws from ``SeedSequence((seed, i))``, whose state a port
of numpy's hash computes a block at a time (checked against numpy's).
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import gammaincc, gammaincinv

from . import serialize, simulate
from .dataset import (DesignMatrix, ModelSpec, ObservationTable, build_design,
                      split_by_flag)
from .draws import DrawMatrix, blocks
from .families import REGISTRY, maximize_rows, natural_from_internal
from .optimize import FitResult, OptimSettings

#: most (replicate, observation) elements in a block of refits: on large
#: tables a block has fewer rows, so its outcomes and outputs stay bounded
BLOCK_ELEMENTS = 1 << 18
#: why a Monte Carlo replicate is dropped, in order of precedence
DROP_REASONS = ("optimization_error", "not_converged", "negative_statistic")
#: how far below zero a statistic is clamped to zero as optimizer noise
CLAMP_TOL = 1e-4
#: largest share of Monte Carlo replicates that may be dropped
MAX_FAILURE_RATE = 0.2


def chi2_sf(x, dof) -> float:
    """Chi-squared survival function P(X >= x) via the regularized
    upper incomplete gamma function."""
    if np.any(np.asarray(dof) <= 0):
        raise ValueError("dof must be positive")
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be non-negative")
    out = gammaincc(np.asarray(dof) / 2.0, np.asarray(x) / 2.0)
    return float(out) if np.isscalar(x) and np.isscalar(dof) else out


def chi2_quantile(p: float, dof: float) -> float:
    """Quantile of the chi-squared distribution, through the inverse of
    the regularized lower incomplete gamma function."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if dof <= 0:
        raise ValueError("dof must be positive")
    return float(2.0 * gammaincinv(dof / 2.0, p))


def lr_statistic(ll_all: float, ll_a: float, ll_b: float,
                 params_all: int, params_a: int, params_b: int):
    """Pooling statistic and degrees of freedom.

    The statistic is non-negative whenever the subset fits are at least
    as good as the pooled fit restricted to each subset; values inside
    ``-CLAMP_TOL`` are attributed to optimizer noise and clamped to
    zero with a warning, anything lower is an error.
    """
    dof = params_a + params_b - params_all
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    x2 = -2.0 * (ll_all - ll_a - ll_b)
    if x2 < -CLAMP_TOL:
        raise ValueError(
            f"pooled log-likelihood exceeds the subset total by {-x2 / 2:.6g}; "
            f"subset fits did not reach their optima")
    if x2 < 0.0:
        warnings.warn(f"clamping slightly negative statistic {x2:.3g} to zero",
                      RuntimeWarning)
        x2 = 0.0
    return x2, dof


@dataclass
class ModelPiece:
    """One of the three fits entering the statistic."""

    label: str
    ll: float
    n_params: int
    n_obs: int
    converged: bool


@dataclass
class LrTestResult:
    x2: float
    dof: int
    p_asymptotic: float
    critical_value_05: float
    pooled: ModelPiece
    subset_a: ModelPiece
    subset_b: ModelPiece
    flag_column: str
    family: str
    p_mc: float | None = None
    replicates_requested: int = 0
    replicates_kept: int = 0
    replicates_dropped: int = 0
    #: drops per DROP_REASONS key; the values sum to replicates_dropped
    replicates_dropped_by_reason: dict = field(
        default_factory=lambda: dict.fromkeys(DROP_REASONS, 0))
    seed: int | None = None
    plus_one: bool = False
    histogram_edges: np.ndarray | None = None
    histogram_counts: np.ndarray | None = None
    #: raw replicate statistics; kept in memory for diagnostics, not serialized
    null_stats: np.ndarray | None = None

    @property
    def all_converged(self) -> bool:
        return (self.pooled.converged and self.subset_a.converged
                and self.subset_b.converged)

    def to_dict(self) -> dict:
        d = asdict(self)
        edges, counts = d.pop("histogram_edges"), d.pop("histogram_counts")
        del d["null_stats"]
        d["histogram"] = None if edges is None else {"edges": edges, "counts": counts}
        return serialize.sanitize(d)

    def write_histogram_csv(self, path) -> None:
        """Null-distribution histogram as bin_left,bin_right,count rows."""
        if self.histogram_edges is None:
            raise ValueError("no Monte Carlo histogram in this result")
        edges = self.histogram_edges
        serialize.write_csv(path, {"bin_left": edges[:-1], "bin_right": edges[1:],
                                   "count": self.histogram_counts})


class _Pieces:
    """Cached designs and draw matrices for one test."""

    def __init__(self, table: ObservationTable, spec: ModelSpec,
                 flag_column: str, settings: OptimSettings | None,
                 n_draws: int | None):
        self.spec = spec
        self.family = REGISTRY[spec.family]
        self.settings = settings
        self.flag_column = flag_column
        part_a, part_b = split_by_flag(table, flag_column)
        if part_a.n_rows == 0 or part_b.n_rows == 0:
            raise ValueError(f"flag column {flag_column!r} does not split the data")
        self.mask_a = table.columns[flag_column] == 1.0
        #: each fit's rows of the pooled data: pooled, subset A, subset B
        self.rows = {"all": slice(None), "a": self.mask_a, "b": ~self.mask_a}
        self.designs = {key: build_design(part, spec)
                        for key, part in zip(self.rows, (table, part_a, part_b))}
        self.draws = {}
        if spec.is_mixed:  # the subsets' draws are the pooled draws' rows
            pooled = DrawMatrix.for_design(self.designs["all"], n_draws)
            self.draws = {key: pooled.subset(rows) for key, rows in self.rows.items()}


def _stages(pieces: _Pieces, starts: np.ndarray, outcomes: np.ndarray | None = None):
    """The pooled fit from every row of ``starts``, then each subset's from
    its row's pooled solution: the pooled, A and B ``BatchResult``.  Row b fits
    the pooled outcomes ``outcomes[b]``; without them the one start row
    fits the data's own."""
    fits = []
    for key, rows in pieces.rows.items():
        fits.append(maximize_rows(pieces.family, pieces.designs[key],
                                  pieces.draws.get(key), starts,
                                  None if outcomes is None else outcomes[:, rows],
                                  pieces.settings))
        starts = fits[0].theta
    return fits


def _observed(pieces: _Pieces):
    """The pooled fit, then each subset's from the pooled solution; raises
    the first OptimizationError met, in pooled, A, B order."""
    start = pieces.family.start(pieces.designs["all"])
    return [res.row() for res in _stages(pieces, start[None])]


def _build_result(pieces: _Pieces, fits) -> LrTestResult:
    p_all = fits[0].theta.size
    x2, dof = lr_statistic(*(res.ll for res in fits), p_all, p_all, p_all)
    models = {}
    labels = ("pooled", "subset_a", "subset_b")
    for label, design, res in zip(labels, pieces.designs.values(), fits):
        if not res.converged:
            warnings.warn(f"{label} fit did not converge: {res.message}",
                          RuntimeWarning)
        models[label] = ModelPiece(label, res.ll, p_all, design.n_obs, res.converged)
    return LrTestResult(
        x2=x2, dof=dof, p_asymptotic=chi2_sf(x2, dof),
        critical_value_05=chi2_quantile(0.95, dof), **models,
        flag_column=pieces.flag_column, family=pieces.spec.family)


def lr_test(table: ObservationTable, spec: ModelSpec, flag_column: str,
            settings: OptimSettings | None = None,
            n_draws: int = 200) -> LrTestResult:
    """Asymptotic pooling test of one spec across a 0/1 split.

    Fits the pooled sample, then each subset warm-started from the
    pooled solution on the pooled draws' rows (mixed families, ``n_draws``
    Halton draws), which guarantees a non-negative statistic, and refers
    it to chi-squared with ``p_a + p_b - p_all`` degrees of freedom.
    Every fit goes through :func:`crashmle.families.maximize_rows`, so a
    separated MNL fit is reported not converged, as by
    :func:`crashmle.families.fit`.
    """
    pieces = _Pieces(table, spec, flag_column, settings, n_draws)
    return _build_result(pieces, _observed(pieces))


def simulate_under_null(fit: FitResult, table: ObservationTable,
                        rng: np.random.Generator | int = 0) -> ObservationTable:
    """Redraw outcomes for ``table`` from a fitted pooled model.

    ``rng`` may be a Generator or a non-negative seed; a seed draws from
    ``SeedSequence(seed)``, not from a replicate's ``SeedSequence((seed, i))``
    as :func:`replicate_outcomes` does.  Under this
    resampling the pooled spec is the true model, so refitted statistics
    trace the null distribution of the pooling test.
    """
    if fit.spec is None:
        raise ValueError("fit carries no model spec")
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError("seed must be non-negative")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(rng))))
    return simulate.redraw_outcomes(fit.spec, fit.theta_internal, table, rng)


def _seed_hash(const: int, mult: int):
    """numpy's ``SeedSequence`` word hash on uint32 arrays, stepping ``const``."""
    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hash_words


def _replicate_states(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for each
    replicate ``i`` in ``start..stop-1``, one row each, by numpy's seed hash
    (NEP 19 keeps it fixed) on all rows at once.  The entropy is the seed's,
    then ``i``'s, little-endian 32-bit words (0 is one zero word)."""
    seed, start, stop = map(operator.index, (seed, start, stop))
    if seed < 0 or start < 0:
        raise ValueError("seed and replicate indices must be non-negative")
    if stop < start:
        raise ValueError(f"replicate range {start}..{stop} ends before it starts")
    if start < 1 << 32 < stop:  # from 2**32 on, i has a second word
        return np.concatenate([_replicate_states(seed, start, 1 << 32),
                               _replicate_states(seed, 1 << 32, stop)])
    index = np.arange(start, stop, dtype=np.uint64)
    words = ([seed >> 32 * k & 0xFFFFFFFF for k in range((seed.bit_length() + 31) // 32 or 1)]
             + [index >> np.uint64(32 * k) for k in range(1 + (start >= 1 << 32))])
    words = [np.broadcast_to(w, index.shape).astype(np.uint32)  # zeros fill the pool
             for w in words + [0] * (4 - len(words))]
    hashmix = _seed_hash(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    # each pool word into every other, then each word beyond the pool into all
    for src, dst in [*itertools.permutations(range(4), 2),
                     *itertools.product(range(4, len(words)), range(4))]:
        mixed = (np.uint32(0xCA01F9DD) * pool[dst]
                 - np.uint32(0x4973F715) * hashmix((pool if src < 4 else words)[src]))
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    walk = _seed_hash(0x8B51F9DD, 0x58F38DED)
    state = np.stack([walk(pool[k % 4]) for k in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@dataclass
class _PresetState(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands ``PCG64`` one precomputed state."""

    state: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset state holds 4 uint64 words only")
        return self.state


def replicate_outcomes(design: DesignMatrix, theta_internal: np.ndarray,
                       seed: int, start: int, stop: int) -> np.ndarray:
    """Simulated outcome vectors of replicates ``start..stop-1``, one per row
    of an int64 (stop - start, N) array, filled in place (no rows for an
    empty range; a reversed range or a negative seed or start is refused).

    Replicate ``i`` draws from ``SeedSequence((seed, i))`` alone, its state
    computed with the block's by :func:`_replicate_states`, so a row does
    not depend on the block.  Without random terms the block computes the
    outcome law once, and each replicate takes the family's ``draw``.
    """
    states = _replicate_states(seed, start, stop)
    family = REGISTRY[design.spec.family]
    natural = natural_from_internal(theta_internal, design)[0]
    law = None if design.random_terms else simulate.outcome_law(design, theta_internal)
    out = np.empty((stop - start, design.n_obs), dtype=np.int64)
    for row, state in zip(out, states):
        rng = np.random.Generator(np.random.PCG64(_PresetState(state)))
        row[:] = (simulate.draw_outcomes(design, theta_internal, rng) if law is None
                  else family.draw(law, natural, rng))
    return out


def _replicate_block(pieces: _Pieces, theta_observed: np.ndarray,
                     outcomes: np.ndarray):
    """Null statistics of a block of replicates.

    ``outcomes`` holds one simulated outcome vector of the pooled data
    per row, refitted by :func:`_stages` from ``theta_observed``.
    Returns the statistics (NaN where dropped) and each row's drop reason
    ("" if kept).
    """
    fits = _stages(pieces, np.tile(theta_observed, (len(outcomes), 1)), outcomes)
    error = np.any([res.error for res in fits], axis=0)
    converged = np.all([res.converged for res in fits], axis=0)
    x2 = -2.0 * (fits[0].ll - fits[1].ll - fits[2].ll)
    reason = np.select([error, ~converged, x2 < -CLAMP_TOL], list(DROP_REASONS), "")
    x2 = np.where(reason == "", np.maximum(x2, 0.0), np.nan)
    return x2, reason


def mc_null_distribution(table: ObservationTable, spec: ModelSpec,
                         flag_column: str, replicates: int = 1000,
                         seed: int = 0, bins: int = 50,
                         settings: OptimSettings | None = None,
                         n_draws: int = 200,
                         plus_one: bool = False) -> LrTestResult:
    """Parametric-bootstrap pooling test.

    Each replicate redraws outcomes from the observed pooled fit and
    refits pooled and subset models as :func:`lr_test` does, so every
    replicate statistic is non-negative by construction, and the Monte
    Carlo p-value is the fraction of replicate statistics at or above the
    observed one.  ``plus_one`` switches to the (k+1)/(n+1) estimate.
    Replicates whose refits raise, fail to converge or give a statistic
    below ``-CLAMP_TOL`` (a safety check) are dropped and counted by
    reason; more than ``MAX_FAILURE_RATE`` of them, or all of them,
    abort the test.

    Replicates are processed in blocks of at most ``BLOCK_ELEMENTS``
    (replicate, observation, draw) elements (see the module docstring):
    the block's outcomes are drawn first, then the pooled, subset A and
    subset B models are refitted stage by stage, like the observed fits,
    each stage one call of :func:`crashmle.families.maximize_rows`.  A
    separated MNL refit counts as not converged.  Statistics of every
    family agree with one serial refit per replicate to within 1e-6.
    Replicate ``i`` draws from ``SeedSequence((seed, i))`` alone (its state
    computed a block at a time), so outcomes do not depend on execution order.
    """
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if bins < 1:
        raise ValueError("bins must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    pieces = _Pieces(table, spec, flag_column, settings, n_draws)
    fits = _observed(pieces)
    result = _build_result(pieces, fits)

    null_stats = []
    by_reason = dict.fromkeys(DROP_REASONS, 0)
    for b in blocks(replicates, table.n_rows * (n_draws if spec.is_mixed else 1),
                    BLOCK_ELEMENTS):
        outcomes = replicate_outcomes(pieces.designs["all"], fits[0].theta, seed,
                                      b.start, b.stop)
        x2, reason = _replicate_block(pieces, fits[0].theta, outcomes)
        null_stats.extend(x2[reason == ""])
        for r in reason[reason != ""]:
            by_reason[r] += 1
    dropped = sum(by_reason.values())

    if dropped > MAX_FAILURE_RATE * replicates or dropped == replicates:
        raise RuntimeError(
            f"{dropped} of {replicates} null replicates failed to converge; "
            f"the null distribution is unreliable")
    null_stats = np.asarray(null_stats)
    kept = null_stats.size
    exceed = int((null_stats >= result.x2).sum())
    p_mc = (exceed + plus_one) / (kept + plus_one)
    hi = float(max(null_stats.max() if kept else 0.0, result.x2))
    if hi <= 0.0:
        hi = 1.0
    counts, edges = np.histogram(null_stats, bins=bins, range=(0.0, hi))

    return replace(result, p_mc=float(p_mc), replicates_requested=replicates,
                   replicates_kept=kept, replicates_dropped=dropped,
                   replicates_dropped_by_reason=by_reason, seed=seed, plus_one=plus_one,
                   histogram_edges=edges, histogram_counts=counts,
                   null_stats=null_stats)
