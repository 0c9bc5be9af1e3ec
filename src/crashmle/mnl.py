"""Multinomial logit estimation for discrete severity outcomes.

Outcome probabilities are softmax functions of linear predictors built
from the design matrix; the base outcome's predictor is identically
zero.  The log-likelihood is globally concave in the coefficients, so
the quasi-Newton maximizer converges from a zero start unless the data
are degenerate (perfect separation is flagged after the fit).
"""

from __future__ import annotations

import numpy as np

from .dataset import DesignMatrix, ModelSpec, ObservationTable, build_design
from .optimize import (FitResult, OptimSettings, covariance, maximize,
                       summarize)
from .reporting import EffectRow, EffectsReport

#: predictor magnitude beyond which a fit is flagged as separated
SEPARATION_BOUND = 30.0


def _log_softmax(v: np.ndarray) -> np.ndarray:
    """Log-softmax over the last (outcome) axis."""
    m = v.max(axis=-1, keepdims=True)
    z = v - m
    with np.errstate(under="ignore"):
        lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z - lse


def mnl_probs(theta: np.ndarray, design: DesignMatrix) -> np.ndarray:
    """Outcome probabilities (N, I) at fixed coefficients.

    Only location parameters enter; on a mixed design this evaluates
    the logit at the mixing locations.
    """
    return np.exp(_log_softmax(design.linear_predictors(theta)))


def mnl_prob(theta: np.ndarray, design: DesignMatrix, row: int) -> np.ndarray:
    """Probability vector for one observation, ordered like spec outcomes."""
    if not 0 <= row < design.n_obs:
        raise IndexError(f"row {row} out of range for {design.n_obs} observations")
    return mnl_probs(theta, design)[row]


def make_objective(design: DesignMatrix, y_index: np.ndarray | None = None):
    """Log-likelihood closure ``theta -> (ll, grad)`` for all-fixed designs.

    ``y_index`` overrides the design's encoded outcomes; used when
    refitting the same covariates against simulated outcomes.
    """
    if design.n_params != len(design.spec.terms):
        raise ValueError("objective requires a design with fixed terms only")
    x = design.x
    inc = design.incidence
    y = design.y_index if y_index is None else np.asarray(y_index, dtype=np.int64)
    inc_y = inc.T[y]  # (N, T) indicator: outcome of row n is in term t's set
    xi = x * inc_y    # contribution of each row to the data part of the score

    def objective(theta):
        v = (x * theta) @ inc
        logp = _log_softmax(v)
        ll = float(logp[np.arange(len(y)), y].sum())
        p = np.exp(logp)
        grad = (xi - x * (p @ inc.T)).sum(axis=0)
        return ll, grad

    return objective


def make_batch_objective(design: DesignMatrix, y_index: np.ndarray):
    """Batched log-likelihood, gradient and analytic Hessian.

    ``y_index`` is a (B, N) matrix of outcome vectors for the design's
    covariates.  The closure maps ``(theta, rows)`` - a (K, P) stack of
    coefficient vectors and the K outcome rows they belong to - to (K,)
    log-likelihoods, (K, P) gradients and (K, P, P) Hessians; each row
    agrees with :func:`make_objective` on its outcomes.
    """
    if design.n_params != len(design.spec.terms):
        raise ValueError("objective requires a design with fixed terms only")
    x = design.x
    inc = design.incidence
    n, t = x.shape
    y_all = np.asarray(y_index, dtype=np.int64)
    xi_all = x * inc.T[y_all]  # (B, N, T)
    # d[n, t, i] = dv[n, i] / dtheta[t]; dd pairs them for the Hessian
    d = x[:, :, None] * inc[None]
    dd = np.einsum("nti,nsi->nits", d, d).reshape(n * inc.shape[1], t * t)

    def objective(theta, rows):
        y = y_all[rows]
        logp = _log_softmax((x * theta[:, None, :]) @ inc)
        ll = np.take_along_axis(logp, y[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        p = np.exp(logp)
        m = x * (p @ inc.T)
        grad = (xi_all[rows] - m).sum(axis=1)
        hess = (m.transpose(0, 2, 1) @ m
                - (p.reshape(len(rows), -1) @ dd).reshape(-1, t, t))
        return ll, grad, hess

    return objective


def mnl_loglik(theta: np.ndarray, design: DesignMatrix):
    """Log-likelihood and analytic gradient at ``theta``."""
    return make_objective(design)(np.asarray(theta, dtype=np.float64))


def mnl_scores(theta: np.ndarray, design: DesignMatrix) -> np.ndarray:
    """Per-observation gradient contributions (N, P)."""
    theta = np.asarray(theta, dtype=np.float64)
    x = design.x
    inc = design.incidence
    y = design.y_index
    p = np.exp(_log_softmax((x * theta) @ inc))
    return x * (inc.T[y] - p @ inc.T)


def restricted_loglik(design: DesignMatrix) -> float:
    """Equal-shares log-likelihood N * ln(1/I)."""
    return design.n_obs * float(np.log(1.0 / design.n_outcomes))


def fit_mnl(table: ObservationTable, spec: ModelSpec,
            settings: OptimSettings | None = None,
            theta0: np.ndarray | None = None) -> FitResult:
    """Estimate a multinomial logit by maximum likelihood.

    Parameters
    ----------
    table : ObservationTable
        Severity data whose labels all belong to ``spec.outcomes``.
    spec : ModelSpec
        Family ``"mnl"``; all terms fixed.
    settings : OptimSettings, optional
        Optimizer controls.
    theta0 : array, optional
        Starting coefficients (defaults to zeros, where the model is
        the equal-shares null).

    A solution whose linear predictors exceed 30 in magnitude is
    reported as non-converged with a perfect-separation message: the
    likelihood is then maximized only in the limit of infinite
    coefficients and the gradient check is misleading.
    """
    if spec.family != "mnl":
        raise ValueError(f"fit_mnl expects family 'mnl', got {spec.family!r}")
    design = build_design(table, spec)
    objective = make_objective(design)
    start = np.zeros(design.n_params) if theta0 is None else np.asarray(theta0, float)
    res = maximize(objective, start, settings)

    converged = res.converged
    message = res.message
    vmax = float(np.max(np.abs(design.linear_predictors(res.theta))))
    if vmax > SEPARATION_BOUND:
        converged = False
        message = (f"linear predictors reach {vmax:.1f}; possible perfect "
                   f"separation, estimates are not interior")

    cov = covariance(objective, res.theta, settings,
                     scores=mnl_scores(res.theta, design))
    return summarize(
        res.theta, cov.cov, res.ll, restricted_loglik(design),
        param_names=design.param_names, converged=converged,
        iterations=res.iterations, n_obs=design.n_obs, family=spec.family,
        theta_internal=res.theta, spec=spec, se_method=cov.method,
        message=message)


def _term_targets(design: DesignMatrix, variables):
    """(variable, term index, target outcome) triples in report order."""
    spec = design.spec
    if variables is None:
        variables = []
        for t in spec.terms:
            if t.variable != "constant" and t.variable not in variables:
                variables.append(t.variable)
    triples = []
    for var in variables:
        if var == "constant":
            raise ValueError("effects for the constant are not defined")
        hits = [j for j, t in enumerate(spec.terms) if t.variable == var]
        if not hits:
            raise ValueError(f"variable {var!r} has no term in the model")
        for j in hits:
            for target in spec.terms[j].outcomes:
                triples.append((var, j, target))
    return triples


def _variable_values(design: DesignMatrix, var: str) -> np.ndarray:
    if var not in design.table.columns:
        raise ValueError(f"variable {var!r} not in table")
    return design.table.columns[var]


def _require_indicator(values: np.ndarray, var: str):
    if not np.all((values == 0.0) | (values == 1.0)):
        raise ValueError(f"variable {var!r} is not a 0/1 indicator; "
                         f"use elasticities for continuous variables")


def _require_continuous(values: np.ndarray, var: str):
    if np.all((values == 0.0) | (values == 1.0)):
        raise ValueError(f"variable {var!r} is a 0/1 indicator; "
                         f"use pseudo-elasticities")


def elasticities(fit: FitResult, table: ObservationTable,
                 variables=None) -> EffectsReport:
    """Average direct and cross elasticities of outcome probabilities.

    For a variable entering outcome ``j`` with coefficient ``b``, the
    direct elasticity of P(j) is ``(1 - P(j)) * b * x`` and the cross
    elasticity of every other probability is ``-P(j) * b * x``, each
    averaged over all observations.  Coefficients shared across
    outcomes are evaluated equation by equation.  Requires a
    fixed-coefficient fit on continuous variables.
    """
    if fit.spec is None or fit.spec.family != "mnl":
        raise ValueError("elasticities requires a plain mnl fit; "
                         "use mixed_effects for mixed fits")
    design = build_design(table, fit.spec)
    theta = fit.theta_internal
    probs = mnl_probs(theta, design)
    rows = []
    for var, j, target in _term_targets(design, variables):
        x = _variable_values(design, var)
        _require_continuous(x, var)
        beta = float(theta[design.loc_pos[j]])
        col = design.outcome_labels.index(target)
        pj = probs[:, col]
        bx = beta * x
        direct = float(np.mean((1.0 - pj) * bx))
        cross = float(np.mean(-pj * bx))
        rows.append(EffectRow(var, target, target, "direct", direct))
        for i, label in enumerate(design.outcome_labels):
            if i == col:
                continue
            rows.append(EffectRow(var, target, label, "cross", cross))
    return EffectsReport("elasticity", tuple(rows), design.n_obs)


def pseudo_elasticities(fit: FitResult, table: ObservationTable,
                        variables=None) -> EffectsReport:
    """Average probability response to switching an indicator on.

    The indicator is toggled from zero to one in the target equation
    only; the reported value is the mean over all observations of
    (P_switched_on - P_switched_off) / P_observed for each outcome.
    """
    if fit.spec is None or fit.spec.family != "mnl":
        raise ValueError("pseudo_elasticities requires a plain mnl fit; "
                         "use mixed_effects for mixed fits")
    design = build_design(table, fit.spec)
    theta = fit.theta_internal
    v = design.linear_predictors(theta)
    p_obs = np.exp(_log_softmax(v))
    rows = []
    for var, j, target in _term_targets(design, variables):
        x = _variable_values(design, var)
        _require_indicator(x, var)
        beta = float(theta[design.loc_pos[j]])
        col = design.outcome_labels.index(target)
        v_on = v.copy()
        v_on[:, col] += beta * (1.0 - x)
        v_off = v.copy()
        v_off[:, col] -= beta * x
        delta = np.exp(_log_softmax(v_on)) - np.exp(_log_softmax(v_off))
        values = (delta / p_obs).mean(axis=0)
        rows.append(EffectRow(var, target, target, "direct", float(values[col])))
        for i, label in enumerate(design.outcome_labels):
            if i == col:
                continue
            rows.append(EffectRow(var, target, label, "cross", float(values[i])))
    return EffectsReport("pseudo_elasticity", tuple(rows), design.n_obs)
