"""One fit pipeline over a registry of model families.

Each family module (``mnl``, ``mixed``, ``negbin``) adds a
:class:`Family` record to ``REGISTRY``; the package imports all of
them, so the table is complete once ``crashmle`` is imported.  The fit
pipeline, the CLI and the pooling test look a family up here instead of
branching on its name.

A family's likelihood is one stacked kernel, ``Family.kernel``
(``mnl._kernel`` or ``negbin._kernel``): ``kernel(theta, rows,
hessian=False)`` maps (K, P) parameter rows and the indices of the K
outcome rows they belong to onto (K, N) log-likelihoods, (K, N, P)
scores and, with ``hessian``, (K, P, P) Hessians of the summed rows.
Given a draw matrix a kernel is the mixed family's simulated likelihood,
which has no Hessian; without one it is the plain family, as if with
one draw.  Every other view derives from the kernel.  Only
:func:`batched` and :func:`fit` ask for Hessians, and both use the
outputs at once, so the per-observation outputs of such a call may be
work arrays that the kernel's next call overwrites (the NB kernel's
are); every other call returns fresh arrays, which :func:`first_row`
hands on to callers that keep them.  Both kernels bound their working
memory by the constant ``mnl.BLOCK_ELEMENTS``, so it scales with a
block, not with K * N * R: the logit kernel works through the
observations in blocks of that many elements per outcome, the NB kernel
through its K rows in tiles of that many (row, observation, draw)
elements and dispersion-table entries, never splitting a row.  The
logit's per-block softmax (``mnl._block_softmax``) also gives its
simulated probabilities and effects.

Every fit, refit and grid point is maximized by :func:`maximize_rows`
in one stacked ascent on the kernel, :func:`crashmle.optimize.maximize_batch`:
Newton on its analytic Hessians when there are no draws (plain MNL and
NB), each shifted by ``optimize.SHIFT``'s rule where it is not negative
definite, and BFGS with draws.  A design column that is zero on every
row leaves its coefficient unidentified; such a design is not maximized
at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import DesignMatrix, ModelSpec, ObservationTable, build_design
from .draws import DrawMatrix
from .optimize import (BatchResult, FitResult, OptimSettings, covariance,
                       maximize_batch, summarize)

@dataclass(frozen=True)
class Family:
    """What the shared machinery needs to know about one model family.

    ``objective`` looks its factory up as a module attribute when it
    runs, so a wrapper installed on that attribute (as
    ``perfbench/tracer.py`` does) also sees the calls made from here.
    """

    #: (design, draws or None, outcomes or None) -> stacked kernel
    kernel: Callable
    #: (design, draws, outcomes or None) -> ``theta -> (ll, grad)``, for fit's FD Hessian
    objective: Callable
    #: design -> default start vector
    start: Callable
    #: (design, settings) -> restricted log-likelihood for rho-squared
    restricted_ll: Callable
    #: effect type -> (fit, table, variables) -> EffectsReport
    effects: dict
    #: (design, theta) -> message when the estimates are not interior
    boundary: Callable = lambda design, theta: None


REGISTRY: dict[str, Family] = {}


def maximize_rows(family: Family, design: DesignMatrix, draws: DrawMatrix | None,
                  starts: np.ndarray, outcomes: np.ndarray | None = None,
                  settings: OptimSettings | None = None) -> BatchResult:
    """Maximize ``family``'s likelihood on ``design`` once per row of ``starts``.

    Row b fits the outcomes ``outcomes[b]`` (encoded outcome indices or
    counts, (B, N)); without ``outcomes`` the one start row fits the
    design's own outcomes.  One stacked ascent on the family's kernel
    fits the rows: Newton on its Hessians without draws, BFGS with them.
    A converged row that ``family.boundary`` rejects is reported not
    converged with the boundary message.  When a design column is zero
    on every row, no row is maximized: each is reported not converged at
    its start, with a message naming the term.
    """
    objective = batched(family.kernel(design, draws, outcomes), hessian=draws is None)
    idle = np.flatnonzero(~design.x.any(axis=0))
    if idle.size:
        names = ", ".join(design.param_names[design.loc_pos[j]] for j in idle)
        b, theta = len(starts), np.array(starts, dtype=np.float64)
        ll, grad, _ = objective(theta, np.arange(b))
        message = np.full(b, f"not maximized: term {names} is zero on every row, so "
                             f"its coefficient is not identified", dtype=object)
        return BatchResult(theta, ll, np.zeros(b, dtype=bool), np.zeros(b, dtype=np.int64),
                           message, grad, [ll.copy()], 1)
    res = maximize_batch(objective, starts, settings)
    for i in np.flatnonzero(res.converged):
        boundary = family.boundary(design, res.theta[i])
        if boundary is not None:
            res.converged[i], res.message[i] = False, boundary
    return res


def first_row(kernel):
    """A stacked kernel at one ``theta`` on its first outcome row:
    ``theta -> (ll (N,), scores (N, P))``."""
    def single(theta):
        ll, scores = kernel(np.asarray(theta, dtype=np.float64)[None], slice(0, 1))
        return ll[0], scores[0]

    return single


def batched(kernel, hessian=True):
    """Ascent objective ``(theta, rows) -> (ll (K,), grad (K, P), hess)``
    summing a stacked kernel's rows: ``hess`` is the kernel's (K, P, P)
    Hessians with ``hessian`` (Newton) and None without (BFGS).  A
    non-finite row log-likelihood comes back as -inf with a zero
    gradient."""
    def objective(theta, rows):
        ll_obs, scores, *hess = kernel(theta, rows, hessian=hessian)
        with np.errstate(over="ignore", invalid="ignore"):
            ll, grad = ll_obs.sum(axis=1), scores.sum(axis=1)
        bad = ~np.isfinite(ll)
        ll[bad], grad[bad] = -np.inf, 0.0
        return ll, grad, hess[0] if hessian else None

    return objective


def summed(kernel):
    """Objective ``theta -> (ll, grad)`` from a stacked kernel at one
    ``theta``, :func:`batched` on its first outcome row."""
    objective = batched(kernel, hessian=False)

    def single(theta):
        ll, grad, _ = objective(np.asarray(theta, dtype=np.float64)[None], slice(0, 1))
        return float(ll[0]), grad[0]

    return single


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
    if not fit.spec.is_mixed:
        return None
    if fit.n_draws is None:
        raise ValueError("fit carries no draw count; was it a mixed fit?")
    recorded = {"seed": fit.seed, "skip": fit.skip, "shift": fit.shift}
    return DrawMatrix.for_design(design, fit.n_draws, **{
        k: v for k, v in recorded.items() if v is not None})


def fit(table: ObservationTable, spec: ModelSpec,
        settings: OptimSettings | None = None, n_draws: int = 200, seed: int = 0,
        skip: int = 10, shift: bool = False) -> FitResult:
    """Estimate a model of any family by (simulated) maximum likelihood.

    Maximizes from the family's start vector with :func:`maximize_rows`,
    takes the covariance from the inverse negative Hessian (the kernel's
    analytic one without draws, central differences of
    ``family.objective`` with them) with the outer product of the
    kernel's scores as fallback, and reports mixing scales and alpha on
    their natural scale with delta-method standard errors.
    ``n_draws``, ``seed``, ``skip`` and ``shift`` set the Halton draw
    matrix of the mixed families and are ignored by the others.
    ``fit_mnl``, ``fit_mixed_mnl``, ``fit_nb`` and ``fit_mixed_nb`` check
    the family and forward their options here.
    """
    if spec.is_mixed and n_draws is None:
        raise ValueError("mixed families require n_draws")
    family = REGISTRY[spec.family]
    design = build_design(table, spec)
    ll_restricted = family.restricted_ll(design, settings)
    draw_settings = (dict(n_draws=n_draws, seed=seed, skip=skip, shift=shift)
                     if spec.is_mixed else {})
    draws = DrawMatrix.for_design(design, **draw_settings) if draw_settings else None
    res = maximize_rows(family, design, draws, family.start(design)[None],
                        settings=settings).row()
    # the scores and, without draws, the analytic Hessian at the solution
    at = family.kernel(design, draws, None)(res.theta[None], slice(0, 1),
                                            hessian=draws is None)
    objective = None if draws is None else family.objective(design, draws, None)
    cov = covariance(objective, res.theta, scores=at[1][0],
                     hessian=at[2][0] if draws is None else None)
    nat, cov_nat = natural_from_internal(res.theta, design, cov.cov)
    alpha = ("alpha",) if spec.is_frequency else ()
    return summarize(
        nat, cov_nat, res.ll, ll_restricted,
        param_names=design.param_names + alpha, converged=res.converged,
        iterations=res.iterations, n_obs=design.n_obs, family=spec.family,
        theta_internal=res.theta, spec=spec, se_method=cov.method,
        message=res.message, **draw_settings)
