"""Likelihood-ratio tests for parameter transferability across subsets.

The observed statistic compares a pooled fit against separate fits on
the two halves of a 0/1 split: ``x2 = -2 * (ll_pooled - ll_a - ll_b)``
with one degree of freedom per extra parameter.  Because the asymptotic
chi-squared reference can be optimistic in small samples, the Monte
Carlo variant re-simulates outcomes from the pooled fit, refits all
three models per replicate, and reports the plain exceedance fraction
as the finite-sample p-value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaincc

from . import simulate
from .dataset import (DesignMatrix, ModelSpec, ObservationTable, build_design,
                      split_by_flag)
from .draws import DrawMatrix
from .families import REGISTRY
from .optimize import (FitResult, OptimizationError, OptimSettings, maximize,
                       maximize_batch)

#: Monte Carlo replicates refitted together; bounds the batched arrays
BLOCK_ROWS = 64
#: largest simulated count refitted in a batch: a count block above it is
#: refitted serially, so the per-row dispersion tables stay small
BATCH_COUNT_CAP = 4096
#: why a Monte Carlo replicate is dropped, in order of precedence
DROP_REASONS = ("optimization_error", "not_converged", "negative_statistic")


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
    """Quantile of the chi-squared distribution by bracketed root finding."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if dof <= 0:
        raise ValueError("dof must be positive")
    target = 1.0 - p
    hi = dof + 10.0
    for _ in range(200):
        if chi2_sf(hi, dof) < target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the quantile")
    return float(brentq(lambda x: chi2_sf(x, dof) - target, 0.0, hi,
                        xtol=1e-12, rtol=8.9e-16))


def lr_statistic(ll_all: float, ll_a: float, ll_b: float,
                 params_all: int, params_a: int, params_b: int,
                 clamp_tol: float = 1e-4):
    """Pooling statistic and degrees of freedom.

    The statistic is non-negative whenever the subset fits are at least
    as good as the pooled fit restricted to each subset; values inside
    ``-clamp_tol`` are attributed to optimizer noise and clamped to
    zero with a warning, anything lower is an error.
    """
    dof = params_a + params_b - params_all
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    x2 = -2.0 * (ll_all - ll_a - ll_b)
    if x2 < -clamp_tol:
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

    def to_dict(self) -> dict:
        return {"label": self.label, "ll": self.ll, "n_params": self.n_params,
                "n_obs": self.n_obs, "converged": self.converged}


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
    #: refits that batched Newton handed to the serial maximizer
    replicates_serial_fallback: int = 0
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
        from . import serialize
        d = {"x2": self.x2, "dof": self.dof,
             "p_asymptotic": self.p_asymptotic,
             "critical_value_05": self.critical_value_05,
             "pooled": self.pooled.to_dict(),
             "subset_a": self.subset_a.to_dict(),
             "subset_b": self.subset_b.to_dict(),
             "flag_column": self.flag_column,
             "family": self.family,
             "p_mc": serialize.nan_to_none(self.p_mc) if self.p_mc is not None else None,
             "replicates_requested": self.replicates_requested,
             "replicates_kept": self.replicates_kept,
             "replicates_dropped": self.replicates_dropped,
             "replicates_dropped_by_reason": dict(self.replicates_dropped_by_reason),
             "replicates_serial_fallback": self.replicates_serial_fallback,
             "seed": self.seed,
             "plus_one": self.plus_one,
             "histogram": None}
        if self.histogram_edges is not None:
            d["histogram"] = {"edges": list(map(float, self.histogram_edges)),
                              "counts": list(map(int, self.histogram_counts))}
        return d

    def write_histogram_csv(self, path) -> None:
        """Null-distribution histogram as bin_left,bin_right,count rows."""
        if self.histogram_edges is None:
            raise ValueError("no Monte Carlo histogram in this result")
        import csv
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "count"])
            edges = self.histogram_edges
            for i, count in enumerate(self.histogram_counts):
                writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])),
                                 int(count)])


class _Pieces:
    """Cached designs, draw matrices, and observed fits for one test."""

    def __init__(self, table: ObservationTable, spec: ModelSpec,
                 flag_column: str, settings: OptimSettings | None,
                 n_draws: int | None, draw_seed: int = 0):
        self.spec = spec
        self.family = REGISTRY[spec.family]
        self.settings = settings
        self.flag_column = flag_column
        self.table = table
        flag = table.columns.get(flag_column)
        if flag is None:
            raise ValueError(f"flag column {flag_column!r} not in table")
        part_a, part_b = split_by_flag(table, flag_column)
        if part_a.n_rows == 0 or part_b.n_rows == 0:
            raise ValueError(f"flag column {flag_column!r} does not split the data")
        self.mask_a = flag == 1.0
        self.designs = {"all": build_design(table, spec),
                        "a": build_design(part_a, spec),
                        "b": build_design(part_b, spec)}
        self.draws = {}
        if self.family.needs_draws:
            for key, design in self.designs.items():
                self.draws[key] = DrawMatrix.for_design(
                    design, 200 if n_draws is None else n_draws, seed=draw_seed)

    def fit(self, key: str, theta0=None, outcomes=None):
        """Maximize model ``key``; ``outcomes`` replaces its outcomes."""
        design = self.designs[key]
        objective = self.family.objective(design, self.draws.get(key), outcomes)
        start = self.family.start(design) if theta0 is None else theta0
        return maximize(objective, start, self.settings)


def _observed(pieces: _Pieces):
    res_all = pieces.fit("all")
    res_a = pieces.fit("a", theta0=res_all.theta)
    res_b = pieces.fit("b", theta0=res_all.theta)
    return res_all, res_a, res_b


def _build_result(pieces: _Pieces, res_all, res_a, res_b) -> LrTestResult:
    p_all = res_all.theta.size
    x2, dof = lr_statistic(res_all.ll, res_a.ll, res_b.ll, p_all, p_all, p_all)
    for label, res in (("pooled", res_all), ("subset A", res_a), ("subset B", res_b)):
        if not res.converged:
            warnings.warn(f"{label} fit did not converge: {res.message}",
                          RuntimeWarning)
    return LrTestResult(
        x2=x2, dof=dof, p_asymptotic=chi2_sf(x2, dof),
        critical_value_05=chi2_quantile(0.95, dof),
        pooled=ModelPiece("pooled", res_all.ll, p_all,
                          pieces.designs["all"].n_obs, res_all.converged),
        subset_a=ModelPiece("subset_a", res_a.ll, p_all,
                            pieces.designs["a"].n_obs, res_a.converged),
        subset_b=ModelPiece("subset_b", res_b.ll, p_all,
                            pieces.designs["b"].n_obs, res_b.converged),
        flag_column=pieces.flag_column, family=pieces.spec.family)


def lr_test(table: ObservationTable, spec: ModelSpec, flag_column: str,
            settings: OptimSettings | None = None,
            n_draws: int | None = None) -> LrTestResult:
    """Asymptotic pooling test of one spec across a 0/1 split.

    Fits the pooled sample, then each subset warm-started from the
    pooled solution (which guarantees a non-negative statistic), and
    refers the statistic to chi-squared with ``p_a + p_b - p_all``
    degrees of freedom.
    """
    pieces = _Pieces(table, spec, flag_column, settings, n_draws)
    return _build_result(pieces, *_observed(pieces))


def simulate_under_null(fit: FitResult, table: ObservationTable,
                        rng: np.random.Generator | int = 0) -> ObservationTable:
    """Redraw outcomes for ``table`` from a fitted pooled model.

    ``rng`` may be a Generator or a seed.  Under this resampling the
    pooled spec is the true model, so refitted statistics trace the
    null distribution of the pooling test.
    """
    if fit.spec is None:
        raise ValueError("fit carries no model spec")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(rng))))
    return simulate.redraw_outcomes(fit.spec, fit.theta_internal, table, rng)


def replicate_outcomes(design: DesignMatrix, theta_internal: np.ndarray,
                       seed: int, start: int, stop: int) -> np.ndarray:
    """Simulated outcome vectors of replicates ``start..stop-1``, one per row.

    Replicate ``i`` draws from ``SeedSequence((seed, i))`` alone, so a
    row does not depend on which block it is drawn in.
    """
    return np.stack([
        simulate.draw_outcomes(design, theta_internal, np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, i)))))
        for i in range(start, stop)])


def _refit_stage(pieces: _Pieces, key: str, starts: np.ndarray,
                 outcomes: np.ndarray):
    """Refit model ``key`` to every row of ``outcomes`` from ``starts``.

    Rows of a family with a batch objective (plain MNL and NB) go
    through batched Newton; a row that Newton does not converge is
    refitted by :func:`maximize` from the same start, as is every row of
    the other families and of a count block above ``BATCH_COUNT_CAP``.  Returns the thetas, log-likelihoods,
    converged flags, OptimizationError flags, and the number of rows
    that Newton handed to :func:`maximize`.
    """
    b = len(outcomes)
    theta = starts.copy()
    ll = np.full(b, np.nan)
    converged = np.zeros(b, dtype=bool)
    error = np.zeros(b, dtype=bool)
    serial = np.ones(b, dtype=bool)
    handed = 0
    batch_objective = pieces.family.batch_objective
    if b and batch_objective is not None and not (
            pieces.spec.is_frequency and outcomes.max() > BATCH_COUNT_CAP):
        res = maximize_batch(batch_objective(pieces.designs[key], outcomes),
                             starts, pieces.settings)
        theta, ll, converged = res.theta, res.ll, res.converged
        serial = ~converged
        handed = int(serial.sum())
    for i in np.flatnonzero(serial):
        try:
            rep = pieces.fit(key, theta0=starts[i], outcomes=outcomes[i])
        except OptimizationError:
            error[i] = True
            continue
        theta[i], ll[i], converged[i] = rep.theta, rep.ll, rep.converged
    return theta, ll, converged, error, handed


def _replicate_block(pieces: _Pieces, theta_observed: np.ndarray,
                     outcomes: np.ndarray):
    """Null statistics of a block of replicates.

    ``outcomes`` holds one simulated outcome vector of the pooled data
    per row.  The pooled model is refitted from ``theta_observed``, then
    each subset from its row's pooled solution.  Returns the statistics
    (NaN where dropped), each row's drop reason ("" if kept) and the
    number of refits handed to the serial fallback.
    """
    b = len(outcomes)
    starts = np.tile(theta_observed, (b, 1))
    lls = {}
    error = np.zeros(b, dtype=bool)
    converged = np.ones(b, dtype=bool)
    handed = 0
    for key, cols in (("all", slice(None)), ("a", pieces.mask_a),
                      ("b", ~pieces.mask_a)):
        rows = np.flatnonzero(~error)
        theta, ll, conv, err, n = _refit_stage(pieces, key, starts[rows],
                                               outcomes[rows][:, cols])
        lls[key] = np.full(b, np.nan)
        lls[key][rows] = ll
        converged[rows] &= conv
        error[rows] = err
        handed += n
        if key == "all":
            starts[rows] = theta
    x2 = -2.0 * (lls["all"] - lls["a"] - lls["b"])
    reason = np.select([error, ~converged, x2 < -1e-4], list(DROP_REASONS), "")
    x2 = np.where(reason == "", np.maximum(x2, 0.0), np.nan)
    return x2, reason, handed


def mc_null_distribution(table: ObservationTable, spec: ModelSpec,
                         flag_column: str, replicates: int = 1000,
                         seed: int = 0, bins: int = 50,
                         settings: OptimSettings | None = None,
                         n_draws: int | None = None,
                         plus_one: bool = False,
                         max_failure_rate: float = 0.2) -> LrTestResult:
    """Parametric-bootstrap pooling test.

    Each replicate redraws outcomes from the observed pooled fit,
    refits pooled and subset models (warm-started so every replicate
    statistic is non-negative by construction), and the Monte Carlo
    p-value is the fraction of replicate statistics at or above the
    observed one.  ``plus_one`` switches to the (k+1)/(n+1) estimate.
    Replicates whose refits raise, fail to converge or give a
    statistic below -1e-4 are dropped and counted by reason; more than
    ``max_failure_rate`` of them, or all of them, abort the test.

    Replicates are processed in blocks of ``BLOCK_ROWS``: the block's
    outcomes are drawn first, then the pooled, subset A and subset B
    models are refitted stage by stage.  MNL and NB refits run as one
    batched Newton problem per stage (analytic Hessians); any refit it
    does not converge is redone by the serial BFGS maximizer from the
    same start, and mixed families are refitted serially throughout.
    Statistics agree with one serial refit per replicate to within
    1e-6.  Replicate ``i`` draws from ``SeedSequence((seed, i))`` alone,
    so outcomes do not depend on execution order.
    """
    if replicates < 1:
        raise ValueError("replicates must be positive")
    pieces = _Pieces(table, spec, flag_column, settings, n_draws)
    res_all, res_a, res_b = _observed(pieces)
    result = _build_result(pieces, res_all, res_a, res_b)

    null_stats = []
    by_reason = dict.fromkeys(DROP_REASONS, 0)
    handed = 0
    for start in range(0, replicates, BLOCK_ROWS):
        outcomes = replicate_outcomes(pieces.designs["all"], res_all.theta, seed,
                                      start, min(start + BLOCK_ROWS, replicates))
        x2, reason, n = _replicate_block(pieces, res_all.theta, outcomes)
        null_stats.extend(x2[reason == ""])
        for r in reason[reason != ""]:
            by_reason[r] += 1
        handed += n
    dropped = sum(by_reason.values())

    if dropped > max_failure_rate * replicates or dropped == replicates:
        raise RuntimeError(
            f"{dropped} of {replicates} null replicates failed to converge; "
            f"the null distribution is unreliable")
    null_stats = np.asarray(null_stats)
    kept = null_stats.size
    exceed = int((null_stats >= result.x2).sum())
    if plus_one:
        p_mc = (exceed + 1) / (kept + 1)
    else:
        p_mc = exceed / kept
    hi = float(max(null_stats.max() if kept else 0.0, result.x2))
    if hi <= 0.0:
        hi = 1.0
    counts, edges = np.histogram(null_stats, bins=bins, range=(0.0, hi))

    result.p_mc = float(p_mc)
    result.replicates_requested = replicates
    result.replicates_kept = kept
    result.replicates_dropped = dropped
    result.replicates_dropped_by_reason = by_reason
    result.replicates_serial_fallback = handed
    result.seed = seed
    result.plus_one = plus_one
    result.histogram_edges = edges
    result.histogram_counts = counts
    result.null_stats = null_stats
    return result
