"""Negative binomial count models, plain and with random coefficients.

The mean is log-linear in the covariates and the variance is
``lam * (1 + alpha * lam)``; ``alpha -> 0`` recovers the Poisson model.
The dispersion parameter is estimated on the log scale.  The log
probability is computed through the scaled log-Pochhammer sum
``sum_{k<A} log1p(k * alpha)`` rather than a difference of log-gamma
values, which stays accurate for arbitrarily small ``alpha``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.special import gammaln

from . import families
from .dataset import (CONSTANT, DesignMatrix, ModelSpec, ObservationTable,
                      Term, build_design)
from .draws import DrawMatrix, coefficient_draws, draw_mean, scale_score
from .mnl import _term_targets
from .optimize import FitResult, OptimSettings
from .reporting import EffectRow, EffectsReport


def _poch_tables(r: np.ndarray, amax: int, hessian: bool = False):
    """Tables ``tab``, ``dtab`` (and ``h2tab`` with ``hessian``), each
    (K, amax + 1) for the (K, 1) column ``r`` and indexed by count a.

    ``tab[a] = sum_{k=0}^{a-1} log1p(k / r)`` equals
    ``lnGamma(a + r) - lnGamma(r) - a * ln(r)`` without cancellation;
    ``dtab`` is its derivative in ``r``; ``h2tab[a] = sum_{k<a} k r /
    (r + k)^2`` is the second log-alpha derivative of ``tab``, summed
    term by term so that it does not cancel when alpha is small.
    """
    k = np.arange(amax, dtype=np.float64)
    terms = [np.log1p(k / r), -k / (r * (r + k))]
    if hessian:
        terms.append(k * r / (r + k) ** 2)
    tables = [np.zeros((r.shape[0], amax + 1)) for _ in terms]
    for term, table in zip(terms, tables):
        np.cumsum(term, axis=1, out=table[:, 1:])
    return tables


def nb_logpmf(counts, lam, alpha: float):
    """Negative binomial log probability mass.

    Parameters
    ----------
    counts : int or array of non-negative ints
    lam : float or array of positive means
    alpha : float
        Overdispersion, strictly positive; the variance is
        ``lam * (1 + alpha * lam)``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a = np.asarray(counts)
    if a.dtype.kind == "f":
        if not np.all(np.abs(a - np.rint(a)) < 1e-9):
            raise ValueError("counts must be integers")
        a = np.rint(a).astype(np.int64)
    a = a.astype(np.int64)
    if np.any(a < 0):
        raise ValueError("counts must be non-negative")
    lam_arr = np.asarray(lam, dtype=np.float64)
    if np.any(lam_arr <= 0):
        raise ValueError("lam must be positive")
    r = 1.0 / alpha
    tab = _poch_tables(np.array([[r]]), int(a.max()) if a.size else 0)[0][0]
    out = (tab[a] + a * np.log(lam_arr)
           - (r + a) * np.log1p(alpha * lam_arr) - gammaln(a + 1.0))
    if np.isscalar(counts) and np.isscalar(lam):
        return float(out)
    return out


def _eta_draws(theta, design: DesignMatrix,
               draws: DrawMatrix | None) -> np.ndarray:
    """Log-mean per draw, shape (..., N, R) for ``theta`` of shape
    (..., P); R = 1 without draws.  Scale slots hold logs."""
    eta = (theta[..., design.loc_pos] @ design.x.T)[..., None]
    for dim, j in enumerate(design.random_terms):
        scale = np.exp(theta[..., design.scale_pos[j], None, None])
        eta = eta + design.x[:, j, None] * (scale * draws.std[dim])
    return eta


def _kernel(design: DesignMatrix, draws: DrawMatrix | None, counts=None):
    """Stacked likelihood kernel (see :mod:`crashmle.families`): ``theta``
    rows pack the design's parameters and log(alpha); ``counts`` (B, N),
    or (N,) for B = 1, overrides the design's counts.  With draws the
    likelihood is the draw average of NB probabilities, with no Hessian;
    without draws it is the plain NB, as if with one draw."""
    a = np.atleast_2d(design.counts if counts is None else counts).astype(np.int64)
    af = a.astype(np.float64)[..., None]  # (B, N, 1)
    gamln_a1 = gammaln(af + 1.0)
    amax_row = a.max(axis=1, initial=0)
    x = design.x
    p = design.n_params + 1

    def kernel(theta, rows, hessian=False):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape[-1] != p:
            raise ValueError(f"expected {p} parameters, got {theta.shape[-1]}")
        k = theta.shape[0]
        afk = af[rows]
        amax = int(amax_row[rows].max(initial=0))
        # position of count a of row k in the flattened tables
        at = a[rows] + (amax + 1) * np.arange(k)[:, None]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            alpha = np.exp(theta[:, -1, None, None])  # (K, 1, 1)
            r = np.exp(-theta[:, -1, None, None])
            tab, dtab, *h2tab = [np.take(t, at)
                                 for t in _poch_tables(r[:, 0], amax, hessian)]
            eta = _eta_draws(theta, design, draws)  # (K, N, R)
            lam = np.exp(eta)
            l1p = np.log1p(alpha * lam)
            lpmf = (tab[..., None] - gamln_a1[rows]) + afk * eta - (r + afk) * l1p
            ll, w = draw_mean(lpmf)
            del at, tab, eta  # freed early: a lower peak per call faults fewer pages
            q = lam * (r + afk) / (r + lam)
            wd = w * (afk - q)
            # (P, K, N), so that each parameter's scores stay contiguous
            scores = np.empty((p, k, design.n_obs))
            wd_sum = wd.sum(axis=-1)
            for j in range(x.shape[1]):
                scores[design.loc_pos[j]] = x[:, j] * wd_sum
                if j in design.random_terms:
                    scores[design.scale_pos[j]] = scale_score(theta, design, draws,
                                                              j, wd)
            del wd, wd_sum
            scores[-1] = -r[..., 0] * dtab + (w * (r * l1p - q)).sum(axis=-1)
            if not hessian:
                return ll, scores.transpose(1, 2, 0)
            # one draw, so w = 1; u = -d(a - q)/d eta
            rs = r / (r + lam)
            u = q * rs
            xx = (x[:, :, None] * x[:, None, :]).reshape(len(x), -1)
            hess = np.empty((k, p, p))
            hess[:, :-1, :-1] = -(u[..., 0] @ xx).reshape(k, p - 1, p - 1)
            cross = x.T @ (rs * (lam - q))  # (K, T, 1)
            hess[:, :-1, -1:], hess[:, -1:, :-1] = cross, cross.transpose(0, 2, 1)
            hess[:, -1, -1] = (h2tab[0] + (2.0 * lam * rs - r * l1p - u)[..., 0]).sum(1)
        return ll, scores.transpose(1, 2, 0), hess

    return kernel


def make_objective(design: DesignMatrix, counts: np.ndarray | None = None):
    """Log-likelihood closure ``theta -> (ll, grad)`` for a plain NB design.

    ``theta`` packs the coefficient vector followed by log(alpha);
    ``counts`` overrides the design's counts.
    """
    return families.summed(_kernel(design, None, counts))


def make_batch_objective(design: DesignMatrix, counts: np.ndarray):
    """Batched Newton objective (:func:`crashmle.families.batched`) for
    the (B, N) count vectors ``counts``; each row agrees with
    :func:`make_objective` on its counts."""
    return families.batched(_kernel(design, None, counts))


def nb_loglik(theta, design: DesignMatrix):
    """Log-likelihood and gradient; ``theta = (betas..., log alpha)``."""
    return make_objective(design)(theta)


def nb_scores(theta, design: DesignMatrix) -> np.ndarray:
    """Per-observation score matrix (N, T+1)."""
    return families.first_row(_kernel(design, None))(theta)[1]


def _intercept_only_ll(design: DesignMatrix,
                       settings: OptimSettings | None) -> float:
    """Converged log-likelihood of the constant-plus-dispersion model;
    raises if every count is zero (alpha is then not identified)."""
    if int(design.counts.max()) == 0:
        raise ValueError("all counts are zero; overdispersion is not identified")
    spec = ModelSpec("nb", (Term(CONSTANT),))
    intercept = build_design(design.table, spec)
    theta0 = np.array([[np.log(max(float(design.counts.mean()), 0.05)), 0.0]])
    return families.maximize_rows(families.REGISTRY["nb"], intercept, None, theta0,
                                  settings=settings).row().ll


def _default_theta0(design: DesignMatrix) -> np.ndarray:
    """Zeros, except the constant starts at the log mean count and the
    dispersion at log(1)."""
    theta0 = np.zeros(design.n_params + 1)
    mean = float(design.counts.mean())
    for j, term in enumerate(design.spec.terms):
        if term.variable == CONSTANT:
            theta0[design.loc_pos[j]] = np.log(max(mean, 0.05))
            break
    return theta0


def fit_nb(table: ObservationTable, spec: ModelSpec,
           settings: OptimSettings | None = None,
           theta0: np.ndarray | None = None) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"nb"``.

    The restricted log-likelihood comes from an intercept-only fit of
    the same family, so McFadden's rho-squared measures the covariates'
    contribution.  Raises if every count is zero (the overdispersion
    parameter is then unidentified).
    """
    if spec.family != "nb":
        raise ValueError(f"fit_nb expects family 'nb', got {spec.family!r}")
    return families.fit(table, spec, settings, theta0)


def make_mixed_objective(design: DesignMatrix, draws: DrawMatrix,
                         counts: np.ndarray | None = None):
    """Simulated log-likelihood closure for a mixed NB design.

    Coefficients mix across draws; the dispersion is common to all
    draws and estimated as log(alpha) in the last slot.
    """
    if draws.n_obs != design.n_obs:
        raise ValueError("draw matrix and design disagree on the number of rows")
    return families.summed(_kernel(design, draws, counts))


def mixed_nb_scores(theta, design: DesignMatrix, draws: DrawMatrix) -> np.ndarray:
    """Per-observation simulated score matrix (N, P+1)."""
    return families.first_row(_kernel(design, draws))(theta)[1]


def fit_mixed_nb(table: ObservationTable, spec: ModelSpec,
                 settings: OptimSettings | None = None,
                 n_draws: int = 200, seed: int = 0, skip: int = 10,
                 shift: bool = False,
                 theta0: np.ndarray | None = None) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"mixed_nb"``.

    Mixing applies to the coefficients only; alpha is shared across
    draws.  The restricted log-likelihood is the plain intercept-only
    NB fit, matching :func:`fit_nb`.
    """
    if spec.family != "mixed_nb":
        raise ValueError(f"fit_mixed_nb expects family 'mixed_nb', got {spec.family!r}")
    return families.fit(table, spec, settings, theta0, n_draws=n_draws, seed=seed,
                        skip=skip, shift=shift)


def marginal_effects(fit: FitResult, table: ObservationTable,
                     variables=None) -> EffectsReport:
    """Average change in the expected count per unit of each variable.

    For the plain model this is ``mean(lam) * beta``; the mixed model
    averages ``lam * beta`` over observations and coefficient draws.
    """
    if fit.spec is None or not fit.spec.is_frequency:
        raise ValueError("marginal_effects requires an nb or mixed_nb fit")
    design = build_design(table, fit.spec)
    theta = fit.theta_internal
    draws = families.fit_draws(fit, design)
    lam = np.exp(_eta_draws(theta, design, draws))  # (N, R)
    rows = []
    for var, j, _ in _term_targets(design, variables):
        beta = coefficient_draws(theta, design, draws, j)
        rows.append(EffectRow(var, "", "", "marginal", float((lam * beta).mean())))
    return EffectsReport("marginal", tuple(rows), design.n_obs)


families.REGISTRY["nb"] = families.Family(
    objective=lambda design, draws, counts: make_objective(design, counts=counts),
    scores=lambda theta, design, draws: nb_scores(theta, design),
    start=_default_theta0,
    restricted_ll=_intercept_only_ll,
    needs_draws=False,
    effects={"marginal": lambda fit, table, v: marginal_effects(fit, table, v)},
    batch_objective=lambda design, counts: make_batch_objective(design, counts))
families.REGISTRY["mixed_nb"] = replace(
    families.REGISTRY["nb"],
    objective=lambda design, draws, counts: make_mixed_objective(
        design, draws, counts=counts),
    scores=lambda theta, design, draws: mixed_nb_scores(theta, design, draws),
    needs_draws=True,
    batch_objective=None)
