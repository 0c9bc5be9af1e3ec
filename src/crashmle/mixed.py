"""Mixed (random-parameters) multinomial logit via simulated likelihood.

Random coefficients follow normal or uniform mixing distributions.  The
choice probability is the mixing-distribution average of the logit
probability, approximated by the mean over R quasi-random draws per
observation.  The draws come from the Halton draw matrix of
:mod:`crashmle.draws`, fixed across evaluations, so the simulated
likelihood is a deterministic function of the parameters.  Likelihood,
probabilities and effects are those of :mod:`crashmle.mnl` over the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import families, mnl
from .dataset import DesignMatrix, ModelSpec, ObservationTable
# first_primes, halton, is_prime and natural_from_internal are re-exported
from .draws import DrawMatrix, first_primes, halton, is_prime
from .families import natural_from_internal
from .mnl import _logit_effects, restricted_loglik
from .optimize import FitResult
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
    return mnl._mean_probs(theta, design, draws)


def simulated_prob(theta, design: DesignMatrix, row: int,
                   draws: DrawMatrix) -> np.ndarray:
    """Simulated probability vector for a single observation.

    Works row by row so very large draw counts stay affordable.
    """
    return mnl._mean_probs(theta, design, draws, row)


def make_objective(design: DesignMatrix, draws: DrawMatrix,
                   y_index: np.ndarray | None = None):
    """Simulated log-likelihood closure ``theta -> (ll, grad)``.

    The per-observation likelihood is the draw average of conditional
    logit probabilities (recomputed in log space where the observed
    outcome underflows at every draw); gradients weight each draw by its
    posterior share of the observation's likelihood.
    """
    if draws.n_obs != design.n_obs:
        raise ValueError("draw matrix and design disagree on the number of rows")
    return families.summed(mnl._kernel(design, draws, y_index))


def mixed_loglik(theta, design: DesignMatrix, draws: DrawMatrix):
    """Simulated log-likelihood and gradient at ``theta`` (scales as logs)."""
    return make_objective(design, draws)(theta)


def mixed_scores(theta, design: DesignMatrix, draws: DrawMatrix) -> np.ndarray:
    """Per-observation simulated score matrix (N, P)."""
    return families.first_row(mnl._kernel(design, draws))(theta)[1]


def fit_mixed_mnl(table: ObservationTable, spec: ModelSpec, **options) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"mixed_mnl"``, with the
    same keyword options (the Halton draws among them).

    Mixing scales are estimated as logs and reported as positive
    scales (normal: sd, uniform: half-width spread) with delta-method
    standard errors.
    """
    if spec.family != "mixed_mnl":
        raise ValueError(f"fit_mixed_mnl expects family 'mixed_mnl', got {spec.family!r}")
    return families.fit(table, spec, **options)


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
    kernel=mnl._kernel,
    start=lambda design: np.zeros(design.n_params),
    restricted_ll=lambda design, settings: restricted_loglik(design),
    effects={"elasticity": lambda fit, table, v: mixed_effects(fit, table, v),
             "pseudo": lambda fit, table, v: mixed_effects(fit, table, v,
                                                           pseudo=True)})
