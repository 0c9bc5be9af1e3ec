"""Mixed (random-parameters) multinomial logit via simulated likelihood.

Random coefficients follow normal or uniform mixing distributions.  The
choice probability is the mixing-distribution average of the logit
probability, approximated by the mean over R quasi-random draws per
observation.  The draws come from the Halton draw matrix of
:mod:`crashmle.draws`, fixed across evaluations, so the simulated
likelihood is a deterministic function of the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import families
from .dataset import DesignMatrix, ModelSpec, ObservationTable
# first_primes, halton, is_prime and natural_from_internal are re-exported
from .draws import (DrawMatrix, draw_mean, first_primes, halton, is_prime,
                    scale_score)
from .families import natural_from_internal
from .mnl import (_log_softmax, _logit_effects, _predictor_draws,
                  restricted_loglik)
from .optimize import FitResult, OptimSettings
from .reporting import EffectsReport


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


def transform_draws(uniforms: np.ndarray, mixing: Mixing) -> np.ndarray:
    """Map uniform (0,1) draws to coefficient draws by inverse CDF."""
    u = np.asarray(uniforms, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("uniform draws must lie strictly inside (0, 1)")
    if mixing.dist == "normal":
        return mixing.location + mixing.scale * ndtri(u)
    return mixing.location + mixing.scale * (2.0 * u - 1.0)


def sign_share(mixing: Mixing) -> float:
    """Probability mass of the mixing distribution below zero."""
    b, s = mixing.location, mixing.scale
    if s == 0.0:
        return 1.0 if b < 0 else (0.5 if b == 0 else 0.0)
    if mixing.dist == "normal":
        return float(ndtr(-b / s))
    return float(np.clip((s - b) / (2.0 * s), 0.0, 1.0))


def simulated_probs(theta, design: DesignMatrix, draws: DrawMatrix) -> np.ndarray:
    """Simulated outcome probabilities (N, I): mean over draws of the
    conditional logit probabilities."""
    logp = _log_softmax(_predictor_draws(theta, design, draws))
    return np.exp(logp).mean(axis=1)


def simulated_prob(theta, design: DesignMatrix, row: int,
                   draws: DrawMatrix) -> np.ndarray:
    """Simulated probability vector for a single observation.

    Works row by row so very large draw counts stay affordable.
    """
    if not 0 <= row < design.n_obs:
        raise IndexError(f"row {row} out of range for {design.n_obs} observations")
    v = _predictor_draws(theta, design, draws, rows=[row])[0]  # (R, I)
    return np.exp(_log_softmax(v)).mean(axis=0)


def _kernel(design: DesignMatrix, draws: DrawMatrix,
            y_index: np.ndarray | None = None):
    """Simulated likelihood kernel ``theta -> (ll (N,), scores (N, P))``.

    ``y_index`` overrides the design's encoded outcomes.  Scores are
    reduced over draws term by term, so no (N, R, P) array is built;
    they fill a (P, N) matrix, returned transposed, so that each
    parameter's scores stay contiguous for the objective's sum.
    """
    y = design.y_index if y_index is None else np.asarray(y_index, dtype=np.int64)
    rows = np.arange(design.n_obs)
    inc_y = design.incidence.T[y]  # (N, T)

    def kernel(theta):
        theta = np.asarray(theta, dtype=np.float64)
        logp = _log_softmax(_predictor_draws(theta, design, draws))
        ll, w = draw_mean(logp[rows, :, y])
        p = np.exp(logp)
        scores = np.empty((design.n_params, design.n_obs))
        for j in range(len(design.spec.terms)):
            cols = np.flatnonzero(design.incidence[j])
            we = w * (inc_y[:, j, None] - p[:, :, cols].sum(axis=2))  # (N, R)
            scores[design.loc_pos[j]] = design.x[:, j] * we.sum(axis=1)
            if j in design.random_terms:
                scores[design.scale_pos[j]] = scale_score(theta, design, draws, j, we)
        return ll, scores.T

    return kernel


def make_objective(design: DesignMatrix, draws: DrawMatrix,
                   y_index: np.ndarray | None = None):
    """Simulated log-likelihood closure ``theta -> (ll, grad)``.

    The per-observation likelihood is the draw average of conditional
    logit probabilities, accumulated in log space; gradients weight
    each draw by its posterior share of the observation's likelihood.
    """
    if draws.n_obs != design.n_obs:
        raise ValueError("draw matrix and design disagree on the number of rows")
    return families.summed(_kernel(design, draws, y_index))


def mixed_loglik(theta, design: DesignMatrix, draws: DrawMatrix):
    """Simulated log-likelihood and gradient at ``theta`` (scales as logs)."""
    return make_objective(design, draws)(theta)


def mixed_scores(theta, design: DesignMatrix, draws: DrawMatrix) -> np.ndarray:
    """Per-observation simulated score matrix (N, P)."""
    return _kernel(design, draws)(theta)[1]


def fit_mixed_mnl(table: ObservationTable, spec: ModelSpec,
                  settings: OptimSettings | None = None,
                  n_draws: int = 200, seed: int = 0, skip: int = 10,
                  shift: bool = False,
                  theta0: np.ndarray | None = None) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"mixed_mnl"``.

    Mixing scales are estimated as logs and reported as positive
    scales (normal: sd, uniform: half-width spread) with delta-method
    standard errors.
    """
    if spec.family != "mixed_mnl":
        raise ValueError(f"fit_mixed_mnl expects family 'mixed_mnl', got {spec.family!r}")
    return families.fit(table, spec, settings, theta0, n_draws=n_draws, seed=seed,
                        skip=skip, shift=shift)


def mixed_effects(fit: FitResult, table: ObservationTable, variables=None,
                  pseudo: bool = False,
                  draws: DrawMatrix | None = None) -> EffectsReport:
    """Elasticities (or indicator pseudo-elasticities) for a mixed fit.

    Probabilities and their derivatives are simulated with the same
    draw matrix the fit used, so coefficient heterogeneity propagates
    into the averaged effects.
    """
    if fit.spec is None or fit.spec.family != "mixed_mnl":
        raise ValueError("mixed_effects requires a mixed_mnl fit")
    return _logit_effects(fit, table, variables, pseudo, draws)


families.REGISTRY["mixed_mnl"] = families.Family(
    objective=lambda design, draws, y: make_objective(design, draws, y_index=y),
    scores=lambda theta, design, draws: mixed_scores(theta, design, draws),
    start=lambda design: np.zeros(design.n_params),
    restricted_ll=lambda design, settings: restricted_loglik(design),
    needs_draws=True,
    effects={"elasticity": lambda fit, table, v: mixed_effects(fit, table, v),
             "pseudo": lambda fit, table, v: mixed_effects(fit, table, v,
                                                           pseudo=True)})
