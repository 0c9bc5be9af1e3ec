"""Mixed (random-parameters) multinomial logit via simulated likelihood.

Random coefficients follow normal or uniform mixing distributions
(:class:`crashmle.draws.Mixing`, re-exported here).  The
choice probability is the mixing-distribution average of the logit
probability, approximated by the mean over R quasi-random draws per
observation.  The draws come from the Halton draw matrix of
:mod:`crashmle.draws`, fixed across evaluations, so the simulated
likelihood is a deterministic function of the parameters.  Likelihood,
probabilities and effects are those of :mod:`crashmle.mnl` over the draws.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import families, mnl
from .dataset import DesignMatrix, ModelSpec, ObservationTable
from .draws import (DrawMatrix, Mixing, first_primes, halton, is_prime, sign_share,
                    transform_draws)
from .families import natural_from_internal
from .mnl import _logit_effects
from .optimize import FitResult
from .reporting import EffectsReport

#: importable from here: the mixing and Halton tools of draws, and the scale map
REEXPORTED = (Mixing, sign_share, transform_draws, first_primes, halton, is_prime,
              natural_from_internal)


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
                  pseudo: bool = False) -> EffectsReport:
    """Elasticities (or indicator pseudo-elasticities) for a mixed fit.

    Probabilities and their derivatives are simulated with the draw
    matrix the fit records (:func:`crashmle.families.fit_draws`), so
    coefficient heterogeneity propagates into the averaged effects.
    """
    if fit.spec is None or fit.spec.family != "mixed_mnl":
        raise ValueError("mixed_effects requires a mixed_mnl fit")
    return _logit_effects(fit, table, variables, pseudo)


families.REGISTRY["mixed_mnl"] = replace(
    families.REGISTRY["mnl"],
    title="mixed multinomial logit",
    boundary=lambda design, theta: None,  # no separation check yet (ROADMAP item 1)
    objective=lambda design, draws, y: make_objective(design, draws, y_index=y),
    effects={"elasticity": lambda fit, table, v: mixed_effects(fit, table, v),
             "pseudo": lambda fit, table, v: mixed_effects(fit, table, v, pseudo=True)})
