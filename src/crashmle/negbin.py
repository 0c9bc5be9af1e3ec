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
from .optimize import FitResult, OptimSettings, maximize
from .reporting import EffectRow, EffectsReport


def _poch_tables(r: float, amax: int):
    """Cumulative tables indexed by count a.

    ``tab[a] = sum_{k=0}^{a-1} log1p(k / r)`` equals
    ``lnGamma(a + r) - lnGamma(r) - a * ln(r)`` without cancellation;
    ``dtab`` is its derivative in ``r``.
    """
    k = np.arange(amax, dtype=np.float64)
    tab = np.concatenate(([0.0], np.cumsum(np.log1p(k / r))))
    dtab = np.concatenate(([0.0], np.cumsum(-k / (r * (r + k)))))
    return tab, dtab


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
    tab, _ = _poch_tables(r, int(a.max()) if a.size else 0)
    out = (tab[a] + a * np.log(lam_arr)
           - (r + a) * np.log1p(alpha * lam_arr) - gammaln(a + 1.0))
    if np.isscalar(counts) and np.isscalar(lam):
        return float(out)
    return out


def _eta_draws(theta, design: DesignMatrix,
               draws: DrawMatrix | None) -> np.ndarray:
    """Log-mean per draw, shape (N, R), or (N, 1) without draws; scale
    slots hold logs."""
    n_draws = 1 if draws is None else draws.n_draws
    eta = np.repeat((design.x @ theta[design.loc_pos])[:, None], n_draws, axis=1)
    for dim, j in enumerate(design.random_terms):
        scale = np.exp(theta[design.scale_pos[j]])
        eta += design.x[:, j, None] * (scale * draws.std[dim])
    return eta


def _kernel(design: DesignMatrix, draws: DrawMatrix | None, counts=None):
    """Likelihood kernel ``theta -> (ll (N,), scores (N, P))``.

    ``theta`` packs the design's parameters (log mixing scales in the
    scale slots) followed by log(alpha).  With draws the likelihood is
    the draw average of NB probabilities, the dispersion common to all
    draws; without draws it is the plain NB, as if with one draw.
    ``counts`` overrides the design's counts.  Count-dependent
    quantities are cached, so repeated evaluations only rebuild the
    O(max count) dispersion tables.
    """
    a = np.asarray(design.counts if counts is None else counts).astype(np.int64)
    amax = int(a.max()) if a.size else 0
    af = a.astype(np.float64)[:, None]  # (N, 1)
    gamln_a1 = gammaln(af + 1.0)
    p = design.n_params + 1

    def kernel(theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.size != p:
            raise ValueError(f"expected {p} parameters, got {theta.size}")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            alpha = np.exp(theta[-1])
            r = np.exp(-theta[-1])
            tab, dtab = _poch_tables(r, amax)
            eta = _eta_draws(theta, design, draws)
            lam = np.exp(eta)
            l1p = np.log1p(alpha * lam)
            lpmf = (tab[a][:, None] - gamln_a1) + af * eta - (r + af) * l1p
            ll, w = draw_mean(lpmf)
            q = lam * (r + af) / (r + lam)
            wd = w * (af - q)
            scores = np.empty((p, design.n_obs))
            scores[design.loc_pos] = design.x.T * wd.sum(axis=1)
            for j in design.random_terms:
                scores[design.scale_pos[j]] = scale_score(theta, design, draws, j, wd)
            scores[-1] = -r * dtab[a] + (w * (r * l1p - q)).sum(axis=1)
        return ll, scores.T

    return kernel


def make_objective(design: DesignMatrix, counts: np.ndarray | None = None):
    """Log-likelihood closure ``theta -> (ll, grad)`` for a plain NB design.

    ``theta`` packs the coefficient vector followed by log(alpha);
    ``counts`` overrides the design's counts.
    """
    return families.summed(_kernel(design, None, counts))


def _batch_poch_tables(r: np.ndarray, amax: int):
    """Row-wise :func:`_poch_tables` for a (K, 1) column of ``r``.

    Returns ``tab`` and ``dtab`` as there, plus ``h2tab[a] = sum_{k<a}
    k r / (r + k)^2``: the second log-alpha derivative of ``tab``, summed
    term by term so that it does not cancel when alpha is small.  All
    three are (K, amax + 1), flattened row after row.
    """
    k = np.arange(amax, dtype=np.float64)
    rk = r + k
    out = np.zeros((3, r.shape[0], amax + 1))
    np.cumsum(np.log1p(k / r), axis=1, out=out[0, :, 1:])
    np.cumsum(-k / (r * rk), axis=1, out=out[1, :, 1:])
    np.cumsum(k * r / rk ** 2, axis=1, out=out[2, :, 1:])
    return out.reshape(3, -1)


def make_batch_objective(design: DesignMatrix, counts: np.ndarray):
    """Batched log-likelihood, gradient and analytic Hessian.

    ``counts`` is a (B, N) matrix of count vectors for the design's
    covariates.  The closure maps ``(theta, rows)`` - a (K, T+1) stack
    of parameter vectors and the K count rows they belong to - to (K,)
    log-likelihoods, (K, T+1) gradients and (K, T+1, T+1) Hessians.
    Each row agrees with :func:`make_objective` on its counts and uses
    dispersion tables of its own, as wide as the largest count among
    the rows evaluated.
    """
    x = design.x
    a_all = np.asarray(counts).astype(np.int64)
    af_all = a_all.astype(np.float64)
    gamln_all = gammaln(af_all + 1.0)
    amax_all = a_all.max(axis=1, initial=0)
    t = x.shape[1]

    def objective(theta, rows):
        a, af = a_all[rows], af_all[rows]
        amax = int(amax_all[rows].max(initial=0))
        # position of count a of row k in the flattened tables
        at = a + (amax + 1) * np.arange(len(rows))[:, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            alpha = np.exp(theta[:, -1:])
            r = np.exp(-theta[:, -1:])
            tab, dtab, h2tab = _batch_poch_tables(r, amax)[:, at]
            eta = theta[:, :-1] @ x.T
            lam = np.exp(eta)
            l1p = np.log1p(alpha * lam)
            ll = (tab + af * eta - (r + af) * l1p - gamln_all[rows]).sum(axis=1)
            q = lam / (r + lam)
            qq = q * (r / (r + lam))  # q (1 - q)
            grad = np.empty((len(rows), t + 1))
            grad[:, :-1] = (af - (r + af) * q) @ x
            grad[:, -1] = (-r * dtab + r * l1p - (r + af) * q).sum(axis=1)
            hess = np.empty((len(rows), t + 1, t + 1))
            hess[:, :-1, :-1] = np.einsum("kn,nt,ns->kts", -(r + af) * qq, x, x)
            cross = (qq * (lam - af)) @ x
            hess[:, :-1, -1] = cross
            hess[:, -1, :-1] = cross
            hess[:, -1, -1] = (h2tab - r * l1p + 2.0 * r * q
                               - (r + af) * qq).sum(axis=1)
        ll[~np.isfinite(ll)] = -np.inf
        return ll, grad, hess

    return objective


def nb_loglik(theta, design: DesignMatrix):
    """Log-likelihood and gradient; ``theta = (betas..., log alpha)``."""
    return make_objective(design)(theta)


def nb_scores(theta, design: DesignMatrix) -> np.ndarray:
    """Per-observation score matrix (N, T+1)."""
    return _kernel(design, None)(theta)[1]


def _intercept_only_ll(design: DesignMatrix,
                       settings: OptimSettings | None) -> float:
    """Converged log-likelihood of the constant-plus-dispersion model;
    raises if every count is zero (alpha is then not identified)."""
    if int(design.counts.max()) == 0:
        raise ValueError("all counts are zero; overdispersion is not identified")
    spec = ModelSpec("nb", (Term(CONSTANT),))
    intercept = build_design(design.table, spec)
    theta0 = np.array([np.log(max(float(design.counts.mean()), 0.05)), 0.0])
    return maximize(make_objective(intercept), theta0, settings).ll


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
    return _kernel(design, draws)(theta)[1]


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
    effects={"marginal": lambda fit, table, v: marginal_effects(fit, table, v)})
families.REGISTRY["mixed_nb"] = replace(
    families.REGISTRY["nb"],
    objective=lambda design, draws, counts: make_mixed_objective(
        design, draws, counts=counts),
    scores=lambda theta, design, draws: mixed_nb_scores(theta, design, draws),
    needs_draws=True)
