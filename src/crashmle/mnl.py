"""Multinomial logit estimation for discrete severity outcomes.

Outcome probabilities are softmax functions of linear predictors built
from the design matrix; the base outcome's predictor is identically
zero.  The log-likelihood is globally concave in the coefficients, so
the quasi-Newton maximizer converges from a zero start unless the data
are degenerate (perfect separation is flagged after the fit).  The
predictor and effects helpers also take a draw matrix, so the mixed
logit (:mod:`crashmle.mixed`) reports its effects through them.
"""

from __future__ import annotations

import numpy as np

from . import families
from .dataset import DesignMatrix, ModelSpec, ObservationTable, build_design
from .draws import coefficient_draws
from .optimize import FitResult, OptimSettings
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


def _kernel(design: DesignMatrix, y_index: np.ndarray | None = None):
    """Stacked likelihood kernel (see :mod:`crashmle.families`);
    ``y_index`` (B, N), or (N,) for B = 1, overrides the design's encoded
    outcomes."""
    x = design.x
    inc = design.incidence
    y = np.atleast_2d(design.y_index if y_index is None else y_index).astype(np.int64)
    xi = x * inc.T[y]  # data part of the score: x where y is in term t's set

    def kernel(theta, rows, hessian=False):
        theta = np.asarray(theta, dtype=np.float64)
        logp = _log_softmax((x * theta[:, None, :]) @ inc)  # (K, N, I)
        ll = np.take_along_axis(logp, y[rows][..., None], axis=-1)[..., 0]
        p = np.exp(logp, out=logp)  # reuses the log-probabilities' memory
        m = x * (p @ inc.T)
        scores = xi[rows] - m
        if not hessian:
            return ll, scores
        # d v_ni / d theta_t = x_nt inc_ti, paired per observation and outcome
        k, t = theta.shape
        xx = (x[:, :, None] * x[:, None, :]).reshape(-1, t * t)
        ii = (inc.T[:, :, None] * inc.T[:, None, :]).reshape(-1, t * t)
        pdd = (p.transpose(0, 2, 1) @ xx * ii).sum(axis=1).reshape(k, t, t)
        return ll, scores, m.transpose(0, 2, 1) @ m - pdd

    return kernel


def make_objective(design: DesignMatrix, y_index: np.ndarray | None = None):
    """Log-likelihood closure ``theta -> (ll, grad)`` for all-fixed designs.

    ``y_index`` overrides the design's encoded outcomes; used when
    refitting the same covariates against simulated outcomes.
    """
    if design.n_params != len(design.spec.terms):
        raise ValueError("objective requires a design with fixed terms only")
    return families.summed(families.first_row(_kernel(design, y_index)))


def make_batch_objective(design: DesignMatrix, y_index: np.ndarray):
    """Batched Newton objective (:func:`crashmle.families.batched`) for
    the (B, N) outcome vectors ``y_index``; each row agrees with
    :func:`make_objective` on its outcomes."""
    if design.n_params != len(design.spec.terms):
        raise ValueError("objective requires a design with fixed terms only")
    return families.batched(_kernel(design, y_index))


def mnl_loglik(theta: np.ndarray, design: DesignMatrix):
    """Log-likelihood and analytic gradient at ``theta``."""
    return make_objective(design)(np.asarray(theta, dtype=np.float64))


def mnl_scores(theta: np.ndarray, design: DesignMatrix) -> np.ndarray:
    """Per-observation gradient contributions (N, P)."""
    return families.first_row(_kernel(design))(theta)[1]


def restricted_loglik(design: DesignMatrix) -> float:
    """Equal-shares log-likelihood N * ln(1/I)."""
    return design.n_obs * float(np.log(1.0 / design.n_outcomes))


def _separation(design: DesignMatrix, theta: np.ndarray) -> str | None:
    vmax = float(np.max(np.abs(design.linear_predictors(theta))))
    if vmax > SEPARATION_BOUND:
        return (f"linear predictors reach {vmax:.1f}; possible perfect "
                f"separation, estimates are not interior")
    return None


def fit_mnl(table: ObservationTable, spec: ModelSpec,
            settings: OptimSettings | None = None,
            theta0: np.ndarray | None = None) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"mnl"`` (all terms fixed).

    A solution whose linear predictors exceed 30 in magnitude is
    reported as non-converged with a perfect-separation message: the
    likelihood is then maximized only in the limit of infinite
    coefficients and the gradient check is misleading.
    """
    if spec.family != "mnl":
        raise ValueError(f"fit_mnl expects family 'mnl', got {spec.family!r}")
    return families.fit(table, spec, settings, theta0)


def _term_targets(design: DesignMatrix, variables):
    """(variable, term index, target outcome) triples in report order.

    Count-model terms have no outcomes; their target is ``""``.
    """
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
            for target in spec.terms[j].outcomes or ("",):
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


def _predictor_draws(theta, design: DesignMatrix, draws=None,
                     rows=slice(None)) -> np.ndarray:
    """Linear predictors per draw of the observations ``rows`` selects,
    shape (N, R, I); R = 1 without draws."""
    theta = np.asarray(theta, dtype=np.float64)
    n_draws = 1 if draws is None else draws.n_draws
    x = design.x[rows]
    v = np.repeat(((x * theta[design.loc_pos]) @ design.incidence)[:, None, :],
                  n_draws, axis=1)
    for dim, j in enumerate(design.random_terms):
        scale = np.exp(theta[design.scale_pos[j]])
        contrib = x[:, j, None] * (scale * draws.std[dim][rows])  # (N, R)
        for col in np.flatnonzero(design.incidence[j]):
            v[:, :, col] += contrib
    return v


def _logit_effects(fit: FitResult, table: ObservationTable, variables,
                   pseudo: bool, draws=None) -> EffectsReport:
    """Elasticities or indicator pseudo-elasticities of a logit fit.

    Probabilities and their derivatives are averaged over the fit's
    draws (a plain logit has one draw), so coefficient heterogeneity
    propagates into the averaged effects.
    """
    design = build_design(table, fit.spec)
    if draws is None:
        draws = families.fit_draws(fit, design)
    theta = fit.theta_internal
    v = _predictor_draws(theta, design, draws)
    p = np.exp(_log_softmax(v))  # (N, R, I)
    p_bar = p.mean(axis=1)
    labels = design.outcome_labels
    rows = []
    for var, j, target in _term_targets(design, variables):
        x = _variable_values(design, var)
        col = labels.index(target)
        beta_draws = coefficient_draws(theta, design, draws, j)
        if pseudo:
            _require_indicator(x, var)
            v_on = v.copy()
            v_on[:, :, col] += beta_draws * (1.0 - x[:, None])
            v_off = v.copy()
            v_off[:, :, col] -= beta_draws * x[:, None]
            delta = (np.exp(_log_softmax(v_on)) - np.exp(_log_softmax(v_off))).mean(axis=1)
            values = (delta / p_bar).mean(axis=0)
        else:
            _require_continuous(x, var)
            pj = p[:, :, col]
            values = np.empty(len(labels))
            for i in range(len(labels)):
                kron = 1.0 if i == col else 0.0
                dp = (p[:, :, i] * beta_draws * (kron - pj)).mean(axis=1)
                values[i] = float(np.mean(x * dp / p_bar[:, i]))
        rows.append(EffectRow(var, target, target,
                              "direct", float(values[col])))
        for i, label in enumerate(labels):
            if i == col:
                continue
            rows.append(EffectRow(var, target, label, "cross", float(values[i])))
    kind = "pseudo_elasticity" if pseudo else "elasticity"
    return EffectsReport(kind, tuple(rows), design.n_obs)


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
    return _logit_effects(fit, table, variables, pseudo=False)


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
    return _logit_effects(fit, table, variables, pseudo=True)


families.REGISTRY["mnl"] = families.Family(
    objective=lambda design, draws, y: make_objective(design, y),
    scores=lambda theta, design, draws: mnl_scores(theta, design),
    start=lambda design: np.zeros(design.n_params),
    restricted_ll=lambda design, settings: restricted_loglik(design),
    needs_draws=False,
    effects={"elasticity": lambda fit, table, v: elasticities(fit, table, v),
             "pseudo": lambda fit, table, v: pseudo_elasticities(fit, table, v)},
    boundary=_separation,
    batch_objective=lambda design, y: make_batch_objective(design, y))
