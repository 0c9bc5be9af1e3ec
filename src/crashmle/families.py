"""One fit pipeline over a registry of model families.

Each family module (``mnl``, ``mixed``, ``negbin``) adds a
:class:`Family` record to ``REGISTRY``; the package imports all of
them, so the table is complete once ``crashmle`` is imported.  The fit
pipeline, the CLI and the pooling test look a family up here instead of
branching on its name.

The MNL and NB likelihoods are stacked kernels: ``kernel(theta, rows,
hessian=False)`` maps (K, P) parameter rows and the indices of the K
outcome rows they belong to onto (K, N) log-likelihoods, (K, N, P)
scores and, with ``hessian``, (K, P, P) Hessians of the summed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import DesignMatrix, ModelSpec, ObservationTable, build_design
from .draws import DrawMatrix
from .optimize import (FitResult, OptimSettings, covariance, maximize,
                       summarize)


@dataclass(frozen=True)
class Family:
    """What the shared machinery needs to know about one model family.

    The callables look their targets up as module attributes when they
    run, so a wrapper installed on a module attribute (as
    ``perfbench/tracer.py`` does) also sees the calls made from here.
    """

    #: (design, draws, outcomes or None) -> ``theta -> (ll, grad)``
    objective: Callable
    #: (theta, design, draws) -> (N, P) per-observation scores
    scores: Callable
    #: design -> default start vector
    start: Callable
    #: (design, settings) -> restricted log-likelihood for rho-squared
    restricted_ll: Callable
    #: simulated-likelihood families evaluate over a draw matrix
    needs_draws: bool
    #: effect type -> (fit, table, variables) -> EffectsReport
    effects: dict
    #: (design, theta) -> message when the estimates are not interior
    boundary: Callable = lambda design, theta: None
    #: (design, (B, N) outcomes) -> batched Newton objective, or None
    batch_objective: Callable | None = None


REGISTRY: dict[str, Family] = {}


def first_row(kernel):
    """A stacked kernel at one ``theta`` on its first outcome row:
    ``theta -> (ll (N,), scores (N, P))``."""
    def single(theta):
        ll, scores = kernel(np.asarray(theta, dtype=np.float64)[None], slice(0, 1))
        return ll[0], scores[0]

    return single


def batched(kernel):
    """Newton objective ``(theta, rows) -> (ll (K,), grad (K, P), hess)``
    summing a stacked kernel's rows; a non-finite row log-likelihood comes
    back as -inf."""
    def objective(theta, rows):
        ll_obs, scores, hess = kernel(theta, rows, hessian=True)
        with np.errstate(over="ignore", invalid="ignore"):
            ll = ll_obs.sum(axis=1)
        ll[~np.isfinite(ll)] = -np.inf
        return ll, scores.sum(axis=1), hess

    return objective


def summed(kernel):
    """Objective ``theta -> (ll, grad)`` from a likelihood kernel.

    ``kernel(theta)`` returns the per-observation log-likelihoods (N,)
    and scores (N, P); the objective sums both over observations.  A
    non-finite log-likelihood comes back as -inf with a zero gradient.
    """
    def objective(theta):
        ll_obs, scores = kernel(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            ll = float(ll_obs.sum())
            if not np.isfinite(ll):
                return -np.inf, np.zeros(scores.shape[1])
            return ll, scores.sum(axis=0)

    return objective


def natural_from_internal(theta, design: DesignMatrix, cov=None):
    """Map internal estimates to the reported scale.

    Mixing scales, and alpha in the last slot of a count model, are
    estimated as logs.  Returns (theta_natural, cov_natural); the
    covariance uses the delta method with the diagonal Jacobian of the
    transform.
    """
    theta = np.asarray(theta, dtype=np.float64)
    logs = [design.scale_pos[j] for j in design.random_terms]
    if design.spec.is_frequency:
        logs.append(theta.size - 1)
    nat = theta.copy()
    nat[logs] = np.exp(theta[logs])
    jac = np.ones(theta.size)
    jac[logs] = nat[logs]
    return nat, None if cov is None else cov * np.outer(jac, jac)


def fit_draws(fit: FitResult, design: DesignMatrix) -> DrawMatrix | None:
    """The draw matrix ``fit`` was estimated with (None without draws);
    draw settings the fit does not record take their defaults."""
    if not REGISTRY[fit.spec.family].needs_draws:
        return None
    if fit.n_draws is None:
        raise ValueError("fit carries no draw count; was it a mixed fit?")
    recorded = {"seed": fit.seed, "skip": fit.skip, "shift": fit.shift}
    return DrawMatrix.for_design(design, fit.n_draws, **{
        k: v for k, v in recorded.items() if v is not None})


def fit(table: ObservationTable, spec: ModelSpec,
        settings: OptimSettings | None = None,
        theta0: np.ndarray | None = None, n_draws: int = 200, seed: int = 0,
        skip: int = 10, shift: bool = False) -> FitResult:
    """Estimate a model of any family by (simulated) maximum likelihood.

    Maximizes from ``theta0`` (default: the family's start vector),
    takes the covariance from the inverse negative Hessian with the
    outer product of scores as fallback, and reports mixing scales and
    alpha on their natural scale with delta-method standard errors.
    ``n_draws``, ``seed``, ``skip`` and ``shift`` set the Halton draw
    matrix of the mixed families and are ignored by the others.
    ``fit_mnl``, ``fit_mixed_mnl``, ``fit_nb`` and ``fit_mixed_nb`` are
    this function for one family each.
    """
    family = REGISTRY[spec.family]
    design = build_design(table, spec)
    ll_restricted = family.restricted_ll(design, settings)
    draw_settings = (dict(n_draws=n_draws, seed=seed, skip=skip, shift=shift)
                     if family.needs_draws else {})
    draws = DrawMatrix.for_design(design, **draw_settings) if draw_settings else None
    objective = family.objective(design, draws, None)
    start = family.start(design) if theta0 is None else np.asarray(theta0, float)
    res = maximize(objective, start, settings)

    converged, message = res.converged, res.message
    boundary = family.boundary(design, res.theta)
    if boundary is not None:
        converged, message = False, boundary
    cov = covariance(objective, res.theta, settings,
                     scores=family.scores(res.theta, design, draws))
    nat, cov_nat = natural_from_internal(res.theta, design, cov.cov)
    alpha = ("alpha",) if spec.is_frequency else ()
    return summarize(
        nat, cov_nat, res.ll, ll_restricted,
        param_names=design.param_names + alpha, converged=converged,
        iterations=res.iterations, n_obs=design.n_obs, family=spec.family,
        theta_internal=res.theta, spec=spec, se_method=cov.method,
        message=message, **draw_settings)
