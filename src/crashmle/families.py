"""One fit pipeline over a registry of model families.

Each family module (``mnl``, ``mixed``, ``negbin``) adds a
:class:`Family` record to ``REGISTRY``; the package imports all of
them, so the table is complete once ``crashmle`` is imported.  The fit
pipeline, the CLI and the pooling test look a family up here instead of
branching on its name.

A family's likelihood is one stacked kernel, ``Family.kernel``
(``mnl._kernel`` or ``negbin._kernel``): ``kernel(theta, rows, obs=False)``
maps (K, P) parameter rows and the indices of the K outcome rows they belong
to onto (K,) log-likelihoods, (K, P) gradients and (K, P, P) Hessians (None
with draws), each summed over the observations, or with ``obs`` onto (K, N)
log-likelihoods and (K, N, P) scores.  Each row holds ``design.n_params``
parameters.  Given a draw matrix, which must have the design's rows, a
kernel is the mixed family's simulated likelihood; without one it is the
plain family, as if with one draw, and the design has fixed terms only.
:func:`checked` enforces this contract for both kernels, a summed row that
is not finite coming back as -inf with a zero gradient, and an empty stack
(K = 0) as empty outputs of these shapes.  Every other view
derives from the kernel.  Every kernel call returns arrays that the caller
owns: no later call touches them.  Both kernels bound their working memory
by the constant ``draws.BLOCK_ELEMENTS``, so it scales with a block, not
with K * N * R; ``draws.blocks`` makes every cut.  The logit kernel works
through the observations in blocks of that many elements per outcome, the NB
kernel through its K rows in tiles of that many (row, observation, draw)
elements and table entries, and every row (without draws, as one draw) in
observation blocks of that many elements, in a tile arena that never leaves
the kernel; both sum their outputs block by block.  Draw matrices are built
that many Halton values at a time.  The logit's per-block softmax
(``mnl._block_softmax``) also gives its simulated probabilities, effects and
separation check, and the NB's per-block log-means (``negbin._eta_draws``)
its marginal effects, in the logit's observation blocks.  ``simulate`` draws
its outcomes from the same per-block laws, at one draw per row.

Every fit, refit and grid point is maximized by :func:`maximize_rows`
in one stacked ascent on the kernel, :func:`crashmle.optimize.maximize_batch`:
Newton on its analytic Hessians when there are no draws (plain MNL and
NB), each shifted by ``optimize.SHIFT``'s rule where it is not
numerically negative definite (an exactly singular one, from a repeated
column, included), and BFGS with draws.  A design column that is zero
on every row leaves its coefficient unidentified; such a design is not
maximized at all.  A plain fit inverts the Hessian its ascent stopped
on; only the mixed families register an ``objective`` to difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import DesignMatrix, ModelSpec, ObservationTable, build_design
from .draws import DrawMatrix
from .optimize import (BatchResult, FitResult, OptimSettings, covariance,
                       hessian_fd, maximize_batch, summarize)

@dataclass(frozen=True)
class Family:
    """What the shared machinery needs to know about one model family.

    ``objective`` looks its factory up as a module attribute when it
    runs, so a wrapper installed on that attribute (as
    ``perfbench/tracer.py`` does) also sees the calls made from here.
    """

    #: (design, draws or None, outcomes or None) -> stacked kernel, the ascent's objective
    kernel: Callable
    #: design -> default start vector
    start: Callable
    #: (design, settings) -> restricted log-likelihood for rho-squared
    restricted_ll: Callable
    #: effect type -> (fit, table, variables) -> EffectsReport
    effects: dict
    #: (design, theta) -> message when the estimates are not interior
    boundary: Callable = lambda design, theta: None
    #: (design, draws, outcomes or None) -> ``theta -> (ll, grad)`` for fit's FD Hessian
    objective: Callable | None = None


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
    objective = family.kernel(design, draws, outcomes)
    idle = np.flatnonzero(~design.x.any(axis=0))
    if idle.size:
        names = ", ".join(design.param_names[design.loc_pos[j]] for j in idle)
        b, theta = len(starts), np.array(starts, dtype=np.float64)
        ll, grad, hess = objective(theta, np.arange(b))
        message = np.full(b, f"not maximized: term {names} is zero on every row, so "
                             f"its coefficient is not identified", dtype=object)
        return BatchResult(theta, ll, np.zeros(b, dtype=bool), np.zeros(b, dtype=np.int64),
                           message, grad, [ll.copy()], 1, hess)
    res = maximize_batch(objective, starts, settings)
    for i in np.flatnonzero(res.converged):
        boundary = family.boundary(design, res.theta[i])
        if boundary is not None:
            res.converged[i], res.message[i] = False, boundary
    return res


def checked(kernel, design: DesignMatrix, draws: DrawMatrix | None):
    """Stacked ``kernel`` on ``design`` and ``draws`` behind the kernel
    contract's checks and non-finite rule, ``theta`` as float64; both factories use it."""
    if draws is None and design.random_terms:
        raise ValueError("objective requires a design with fixed terms only")
    if draws is not None and draws.n_obs != design.n_obs:
        raise ValueError("draw matrix and design disagree on the number of rows")

    def call(theta, rows, obs=False):
        theta = np.asarray(theta, dtype=np.float64)
        p = design.n_params
        if theta.shape[-1] != p:
            raise ValueError(f"expected {p} parameters, got {theta.shape[-1]}")
        if not len(theta):  # an empty stack: the outputs' shapes, no kernel work
            if obs:
                return np.zeros((0, design.n_obs)), np.zeros((0, design.n_obs, p))
            return np.zeros(0), np.zeros((0, p)), None if draws else np.zeros((0, p, p))
        out = kernel(theta, rows, obs)
        if not obs:
            bad = ~np.isfinite(out[0])
            out[0][bad], out[1][bad] = -np.inf, 0.0
        return out

    return call


def first_row(kernel):
    """A stacked kernel at one ``theta`` on its first outcome row:
    ``theta -> (ll (N,), scores (N, P))``."""
    def single(theta):
        ll, scores = kernel(np.asarray(theta, dtype=np.float64)[None], slice(0, 1), obs=True)
        return ll[0], scores[0]

    return single


def summed(kernel):
    """Objective ``theta -> (ll, grad)`` from a stacked kernel at one
    ``theta``: its summed outputs on its first outcome row."""
    def single(theta):
        ll, grad, _ = kernel(np.asarray(theta, dtype=np.float64)[None], slice(0, 1))
        return float(ll[0]), grad[0]

    return single


def natural_from_internal(theta, design: DesignMatrix, cov=None):
    """Map internal estimates to the reported scale.

    The slots ``design.log_pos`` (mixing scales, and a count model's
    alpha) are estimated as logs.  Returns (theta_natural, cov_natural);
    the covariance uses the delta method with the diagonal Jacobian of
    the transform.
    """
    theta = np.asarray(theta, dtype=np.float64)
    nat = theta.copy()
    nat[design.log_pos] = np.exp(theta[design.log_pos])
    jac = np.ones(theta.size)
    jac[design.log_pos] = nat[design.log_pos]
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
    takes the covariance from the inverse negative Hessian (the one the
    ascent stopped on, or central differences of a registered
    ``family.objective``) with the outer product of the kernel's
    per-observation scores, asked for only then, as fallback, and reports
    mixing scales and alpha on their natural scale with delta-method
    standard errors.
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
    batch = maximize_rows(family, design, draws, family.start(design)[None], settings=settings)
    res = batch.row()
    hessian = (batch.hess[0] if family.objective is None
               else hessian_fd(family.objective(design, draws, None), res.theta))
    cov = covariance(hessian, lambda: first_row(family.kernel(design, draws, None))(res.theta)[1])
    nat, cov_nat = natural_from_internal(res.theta, design, cov.cov)
    return summarize(
        nat, cov_nat, res.ll, ll_restricted,
        param_names=design.param_names, converged=res.converged,
        iterations=res.iterations, n_obs=design.n_obs, family=spec.family,
        theta_internal=res.theta, spec=spec, se_method=cov.method,
        message=res.message, **draw_settings)
