"""Maximizers and post-fit summary machinery.

Every maximization runs one ascent loop, :func:`maximize_batch`, over B
independent problems, one per row, each taking Newton steps on the
Hessians its objective returns or, when it returns None for them, BFGS
steps on its own inverse-Hessian estimate.  A Newton row whose negative
Hessian is not numerically positive definite, an exactly singular one
included, steps on that matrix shifted by a multiple of the identity
(``SHIFT``); the start check, Armijo backtracking, the convergence test
(the gradient infinity norm, scaled by max(1, |ll|), at most
``gradient_tolerance``), the step-tolerance stop, the iteration limit
and the rows' stop messages are shared.  Fits run it through
:func:`crashmle.families.maximize_rows`; :func:`maximize` is its one-row
BFGS case, which no fit calls.  Standard errors invert the negative
Hessian handed to :func:`covariance` (the ascent's last analytic one, or
:func:`hessian_fd`'s central differences of the gradient), falling back
on the outer product of scores when that matrix is not positive definite
or does not invert.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import serialize
from .dataset import FAMILIES, ModelSpec, expected_param_names

#: smallest reciprocal condition number of an outer product of scores
#: that is inverted for BHHH standard errors.  Below it the inverse has
#: lost 12 of double precision's 16 digits and its variances are rounding
#: noise (standard errors of 1e13 and more on a fit stopped on a flat
#: region), so the covariance is reported undefined instead.
BHHH_MIN_RCOND = 1e-12

#: a Newton row whose negative Hessian (P eigenvalues lambda) is not
#: numerically positive definite, its smallest eigenvalue at most ``P * eps
#: * max(1, max|lambda|)`` (exactly singular included), steps on it plus
#: ``tau * I``, with ``tau = SHIFT * max(1, max|lambda|) - min(lambda)``, so
#: that its smallest eigenvalue becomes SHIFT times its largest magnitude
#: (Nocedal & Wright, Numerical Optimization, 2nd ed., section 3.4, eq. 3.43)
SHIFT = 1e-3
#: relative step of :func:`hessian_fd`'s central differences
FD_STEP = 1e-5

_NOT_FINITE = "objective is not finite at the starting point"


class OptimizationError(RuntimeError):
    """Raised when the objective is unusable (non-finite at the start,
    or no finite ascent step can be found)."""


@dataclass(frozen=True)
class OptimSettings:
    """Optimizer controls shared by every fit function."""

    max_iterations: int = 200
    gradient_tolerance: float = 1e-6
    step_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("gradient_tolerance", "step_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class MaximizeResult:
    """One problem's outcome of the ascent loop.  ``grad_inf_norm`` is
    the gradient's infinity norm over max(1, |ll|), the quantity the
    stop test reads."""

    theta: np.ndarray
    ll: float
    converged: bool
    iterations: int
    n_evals: int
    grad_inf_norm: float
    message: str
    ll_path: list[float]


@dataclass
class BatchResult:
    """Row-wise outcome of the ascent loop.  A row with ``converged``
    False stopped before the gradient test passed, at its last accepted
    iterate; ``iterations`` counts its accepted steps, so its entries of
    ``ll_path`` (the (B,) log-likelihoods at the start and after every
    iteration) are the first ``iterations + 1``.  An ``error`` row was
    not finite at its start and has a NaN ``ll``.  ``hess`` holds each
    Newton row's Hessian at its final ``theta``; it is None for BFGS."""

    theta: np.ndarray       # (B, P)
    ll: np.ndarray          # (B,)
    converged: np.ndarray   # (B,) bool
    iterations: np.ndarray  # (B,) int
    message: np.ndarray     # (B,) str
    grad: np.ndarray        # (B, P)
    ll_path: list
    n_evals: int
    hess: np.ndarray | None  # (B, P, P)

    @property
    def error(self) -> np.ndarray:
        return self.message == _NOT_FINITE

    def row(self, i: int = 0) -> MaximizeResult:
        """Row ``i`` (``n_evals`` is the whole batch's); raises the
        OptimizationError it met."""
        if self.error[i]:
            raise OptimizationError(self.message[i])
        return MaximizeResult(
            self.theta[i], float(self.ll[i]), bool(self.converged[i]),
            int(self.iterations[i]), self.n_evals,
            float(_scaled_gnorm(self.grad[i:i + 1], self.ll[i:i + 1])[0]), self.message[i],
            [float(v[i]) for v in self.ll_path[:self.iterations[i] + 1]])


def _scaled_gnorm(grad: np.ndarray, ll: np.ndarray) -> np.ndarray:
    """Each row's gradient infinity norm over max(1, |ll|)."""
    return np.abs(grad).max(axis=1) / np.maximum(1.0, np.abs(ll))


def maximize_batch(objective, theta0, settings: OptimSettings | None = None) -> BatchResult:
    """The ascent loop over B independent problems, one per row of ``theta0``.

    ``objective(theta, rows)`` maps a (K, P) stack of iterates and the
    indices of the K problems they belong to onto (K,) log-likelihoods,
    (K, P) gradients and (K, P, P) Hessians for Newton steps, or None for
    BFGS steps, as its first evaluation shows.  Newton solves the stack's
    negative Hessians after one Cholesky factorization, and splits the
    stack down to the rows for which that fails (:func:`_newton_directions`);
    such a row that is not numerically positive definite steps on its
    matrix shifted by ``SHIFT``'s rule.  A row stops when it starts
    non-finite, passes the gradient test, meets a non-finite Hessian
    (Newton) or a zero gradient (BFGS), finds no ascent step, moves less
    than ``step_tolerance`` or runs out of iterations.  A Newton row keeps
    the Hessian of its last accepted evaluation, which the result returns.
    """
    s = settings or OptimSettings()
    theta = np.array(theta0, dtype=np.float64)
    b, p = theta.shape
    ll, grad, hess = objective(theta, np.arange(b))
    n_evals, bfgs = 1, hess is None
    finite = np.isfinite(ll) & np.isfinite(grad).all(axis=1)
    ll[~finite] = np.nan
    converged = np.zeros(b, dtype=bool)
    converged[finite] = _scaled_gnorm(grad[finite], ll[finite]) <= s.gradient_tolerance
    active = finite & ~converged
    message = np.full(b, _NOT_FINITE, dtype=object)
    message[converged] = "converged at start"
    message[active] = "iteration limit reached"
    iterations = np.zeros(b, dtype=np.int64)
    # BFGS inverse negative Hessians, and which are the identity still
    h_inv, fresh = np.tile(np.eye(p), (b, 1, 1)), np.ones(b, dtype=bool)
    ll_path = [ll.copy()]

    for it in range(1, s.max_iterations + 1):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        g = grad[rows]
        if bfgs:
            direction, slope = np.empty_like(g), np.empty(rows.size)
            for j, k in enumerate(rows):
                direction[j] = h_inv[k] @ g[j]
                slope[j] = direction[j] @ g[j]
                if slope[j] <= 0.0:  # not an ascent direction: restart
                    h_inv[k], fresh[k] = np.eye(p), True
                    direction[j], slope[j] = g[j], g[j] @ g[j]
            ok, why = slope != 0.0, "zero gradient"
        else:
            neg_h = -hess[rows]
            ok = np.isfinite(neg_h).all(axis=(1, 2))
            direction = np.zeros_like(g)
            direction[ok] = _newton_directions(neg_h[ok], g[ok])
            slope = np.einsum("kp,kp->k", direction, g)
            why = "Hessian not finite"
        if not ok.all():
            converged[rows[~ok]] = bfgs  # a zero gradient is a stationary point
            message[rows[~ok]] = why
            active[rows[~ok]] = False
            rows, g, direction, slope = rows[ok], g[ok], direction[ok], slope[ok]

        # Armijo backtracking: halve a row's step until accepted or below 1e-14
        step, pending = np.ones(rows.size), np.arange(rows.size)
        while pending.size:
            idx = rows[pending]
            trial = theta[idx] + step[pending, None] * direction[pending]
            ll_t, grad_t, hess_t = objective(trial, idx)
            n_evals += 1
            good = (np.isfinite(ll_t) & np.isfinite(grad_t).all(axis=1)
                    & (ll_t >= ll[idx] + 1e-4 * step[pending] * slope[pending]))
            acc = idx[good]
            theta[acc], ll[acc], grad[acc] = trial[good], ll_t[good], grad_t[good]
            if not bfgs:
                hess[acc] = hess_t[good]
            step[pending[~good]] *= 0.5
            pending = pending[~good & (step[pending] >= 1e-14)]
        moved = step >= 1e-14
        if not moved.all():
            message[rows[~moved]] = "line search failed to find an ascent step"
            active[rows[~moved]] = False
            rows, g, direction, step = rows[moved], g[moved], direction[moved], step[moved]
        delta = step[:, None] * direction
        iterations[rows] = it

        done = _scaled_gnorm(grad[rows], ll[rows]) <= s.gradient_tolerance
        stalled = ~done & (np.abs(delta).max(axis=1) <= s.step_tolerance
                           * (1.0 + np.abs(theta[rows]).max(axis=1)))
        stop = done | stalled
        if stop.any():
            converged[rows[done]] = True
            message[rows[done]] = "gradient tolerance reached"
            message[rows[stalled]] = "step size below tolerance"
            active[rows[stop]] = False
        if bfgs:  # update on the negated problem: curvature pairs (delta, -gdiff)
            for k, d, y in zip(rows, delta, -(grad[rows] - g)):
                sy = float(d @ y)
                if sy > 1e-12 * float(np.linalg.norm(d)) * float(np.linalg.norm(y)):
                    h = h_inv[k]
                    if fresh[k]:
                        h *= sy / float(y @ y)
                        fresh[k] = False
                    rho = 1.0 / sy
                    hy = h @ y
                    h -= rho * (np.outer(d, hy) + np.outer(hy, d))
                    h += rho * rho * float(y @ hy) * np.outer(d, d) + rho * np.outer(d, d)
        ll_path.append(ll.copy())

    return BatchResult(theta, ll, converged, iterations, message, grad, ll_path, n_evals, hess)


def _newton_directions(neg_h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton directions (K, P) for negative Hessians (K, P, P) and
    gradients (K, P): one Cholesky and solve of the stack, else of each
    half, down to single rows, so that a row is shifted by ``SHIFT``'s
    rule exactly when it would be alone."""
    try:
        np.linalg.cholesky(neg_h)
        return np.linalg.solve(neg_h, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(neg_h) > 1:
            half = len(neg_h) // 2
            return np.concatenate([_newton_directions(neg_h[:half], g[:half]),
                                   _newton_directions(neg_h[half:], g[half:])])
    lam, p = np.linalg.eigvalsh(neg_h[0]), g.shape[1]
    top = max(1.0, np.abs(lam).max())
    if lam[0] <= p * np.finfo(np.float64).eps * top:  # not numerically positive definite
        neg_h = neg_h + (SHIFT * top - lam[0]) * np.eye(p)
    return np.linalg.solve(neg_h, g[..., None])[..., 0]


def maximize(objective, theta0, settings: OptimSettings | None = None) -> MaximizeResult:
    """Maximize ``objective(theta) -> (ll, grad)`` from ``theta0`` by BFGS,
    the one-row case of the ascent loop.

    Accepted iterates are monotone in ``ll`` (Armijo condition), so the
    final point is also the best one seen.  Non-finite trial points are
    handled by shrinking the step.  ``iterations`` counts the iterations
    begun, the one in which the fit stopped included.
    """
    def one_row(theta, rows):
        ll, grad = objective(theta[0])
        return np.array([float(ll)]), np.array(grad, dtype=np.float64, ndmin=2), None

    res = maximize_batch(one_row, np.array(theta0, dtype=np.float64)[None], settings)
    return replace(res.row(), iterations=len(res.ll_path) - 1)


def hessian_fd(objective, theta: np.ndarray) -> np.ndarray:
    """Hessian of the log-likelihood by central differences of the gradient.

    Step for coordinate k is ``FD_STEP * max(1, |theta_k|)``; the result
    is symmetrized.
    """
    theta = np.asarray(theta, dtype=np.float64)
    p = theta.size
    hess = np.empty((p, p))
    for k in range(p):
        h = FD_STEP * max(1.0, abs(theta[k]))
        up = theta.copy()
        up[k] += h
        down = theta.copy()
        down[k] -= h
        _, g_up = objective(up)
        _, g_down = objective(down)
        hess[:, k] = (np.asarray(g_up) - np.asarray(g_down)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


@dataclass
class CovarianceResult:
    cov: np.ndarray | None
    se: np.ndarray
    method: str  # "hessian", "bhhh", or "undefined"


def _try_inverse_pd(a: np.ndarray, min_rcond: float = 0.0) -> np.ndarray | None:
    """Inverse of a symmetric matrix if positive definite, else None; a
    nearly singular matrix can pass Cholesky and still fail to invert, or
    invert, in rounding, to a non-positive variance, which is rejected,
    as is one whose reciprocal condition number is below ``min_rcond``."""
    try:
        np.linalg.cholesky(a)
        if 1.0 / np.linalg.cond(a) < min_rcond:
            return None
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None
    var = np.diag(inv)
    return inv if np.all(np.isfinite(var) & (var > 0.0)) else None


def covariance(hessian: np.ndarray, scores=None) -> CovarianceResult:
    """Parameter covariance at the optimum from its log-likelihood Hessian.

    Tries the inverse negative ``hessian`` first.  If that is not
    positive definite and ``scores``, a zero-argument callable that
    returns the per-observation scores (N, P), is supplied, falls back to
    the inverse outer product of scores, unless its reciprocal condition
    number is below ``BHHH_MIN_RCOND``.  When both fail the standard
    errors are NaN and the method is ``"undefined"``.
    """
    cov = _try_inverse_pd(-np.asarray(hessian, dtype=np.float64))
    if cov is not None:
        return CovarianceResult(cov, np.sqrt(np.diag(cov)), "hessian")
    if scores is not None:
        scores = np.asarray(scores(), dtype=np.float64)
        cov = _try_inverse_pd(scores.T @ scores, BHHH_MIN_RCOND)
        if cov is not None:
            warnings.warn("negative Hessian not positive definite; standard errors "
                          "use the outer product of scores", RuntimeWarning)
            return CovarianceResult(cov, np.sqrt(np.diag(cov)), "bhhh")
    warnings.warn("covariance matrix is undefined at this solution; standard "
                  "errors reported as NaN", RuntimeWarning)
    return CovarianceResult(None, np.full(len(hessian), np.nan), "undefined")


@dataclass
class FitResult:
    """Estimates and fit statistics in reporting (natural) parameterization.

    ``theta_hat`` holds locations, positive mixing scales, and the
    overdispersion alpha where applicable; ``theta_internal`` is the
    packed optimizer vector (scales and alpha as logs) used for warm
    starts and post-fit computations.
    """

    param_names: tuple[str, ...]
    theta_hat: np.ndarray
    standard_errors: np.ndarray
    t_ratios: np.ndarray
    ll_converged: float
    ll_restricted: float
    mcfadden_rho2: float
    converged: bool
    iterations: int
    n_obs: int
    family: str
    theta_internal: np.ndarray
    spec: ModelSpec | None = None
    se_method: str = "hessian"
    message: str = ""
    n_draws: int | None = None
    seed: int | None = None
    #: Halton burn-in and Cranley-Patterson shift of a simulated fit's draws
    skip: int | None = None
    shift: bool | None = None

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def coef(self, name: str) -> float:
        return float(self.theta_hat[self.param_names.index(name)])

    def se(self, name: str) -> float:
        return float(self.standard_errors[self.param_names.index(name)])

    def t_ratio(self, name: str) -> float:
        return float(self.t_ratios[self.param_names.index(name)])

    def to_dict(self) -> dict:
        return serialize.sanitize({
            "param_names": list(self.param_names),
            "theta_hat": self.theta_hat,
            "standard_errors": self.standard_errors,
            "t_ratios": self.t_ratios,
            "ll_converged": self.ll_converged,
            "ll_restricted": self.ll_restricted,
            "mcfadden_rho2": self.mcfadden_rho2,
            "converged": self.converged,
            "iterations": self.iterations,
            "n_obs": self.n_obs,
            "n_params": self.n_params,
            "family": self.family,
            "theta_internal": self.theta_internal,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "se_method": self.se_method,
            "message": self.message,
            "n_draws": self.n_draws,
            "seed": self.seed,
            **({} if self.skip is None else {"skip": self.skip, "shift": self.shift}),
        })

    def to_json(self) -> str:
        return serialize.dumps(self.to_dict())

    @staticmethod
    def from_dict(d: dict) -> "FitResult":
        # every field without a default must be in the file
        serialize.require(d, [f.name for f in fields(FitResult) if f.default is MISSING], "fit")
        names = tuple(serialize.string(v, "fit param name")
                      for v in serialize.array(d["param_names"], "fit param_names"))
        spec = ModelSpec.from_dict(d["spec"]) if d.get("spec") else None
        family = serialize.string(d["family"], "fit family")
        if family not in FAMILIES:
            raise ValueError(f"fit family must be one of {FAMILIES}, got {family!r}")
        if spec is not None and family != spec.family:
            raise ValueError(f"fit family {family!r} is not its spec's family {spec.family!r}")
        if spec is not None and names != expected_param_names(spec):
            raise ValueError(f"fit param_names {list(names)} are not the spec's "
                             f"{list(expected_param_names(spec))}")
        num = lambda key, v: math.nan if v is None else serialize.number(v, f"fit {key}")
        arrays = {}
        for key in ("theta_hat", "standard_errors", "t_ratios", "theta_internal"):
            values = serialize.array(d[key], f"fit {key}")
            if len(values) != len(names):
                raise ValueError(f"fit {key} has {len(values)} values for "
                                 f"{len(names)} parameters")
            arrays[key] = np.array([num(key, v) for v in values])
        simulated = d.get("n_draws") is not None  # older files: default draws
        draw_settings = {"n_draws": d.get("n_draws"), "seed": d.get("seed"),
                         "skip": d.get("skip", 10 if simulated else None)}
        se_method = serialize.string(d.get("se_method", "hessian"), "fit se_method")
        if se_method not in ("hessian", "bhhh", "undefined"):
            raise ValueError(f"fit se_method must be hessian, bhhh or undefined, "
                             f"got {se_method!r}")
        return FitResult(
            param_names=names, spec=spec, **arrays,
            **{k: num(k, d[k]) for k in ("ll_converged", "ll_restricted", "mcfadden_rho2")},
            converged=serialize.boolean(d["converged"], "fit converged"),
            iterations=serialize.integer(d["iterations"], "fit iterations"),
            n_obs=serialize.integer(d["n_obs"], "fit n_obs"),
            family=family,
            se_method=se_method,
            message=serialize.string(d.get("message", ""), "fit message"),
            shift=(serialize.boolean(d["shift"], "fit shift") if "shift" in d
                   else False if simulated else None),
            **{k: None if v is None else serialize.integer(v, f"fit {k}")
               for k, v in draw_settings.items()})


def summarize(theta_hat, cov, ll: float, ll_restricted: float, *,
              param_names, converged: bool, iterations: int, n_obs: int,
              family: str, theta_internal, spec=None,
              se_method: str = "hessian", message: str = "",
              n_draws=None, seed=None, skip=None, shift=None) -> FitResult:
    """Assemble a :class:`FitResult`.

    Standard errors are the square roots of ``cov``'s diagonal (NaN
    without ``cov``); McFadden rho-squared is ``1 - ll / ll_restricted``.
    A fit whose converged log-likelihood falls below the restricted one
    triggers a RuntimeWarning: with a shared optimum that ordering can
    only come from swapped arguments or a failed maximization.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    se = (np.full(theta_hat.size, np.nan) if cov is None
          else np.sqrt(np.diag(np.asarray(cov, dtype=np.float64))))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ratios = np.where(se > 0, theta_hat / se, np.nan)
    if ll < ll_restricted - 1e-8 * max(1.0, abs(ll_restricted)):
        warnings.warn(
            "log-likelihood at convergence is below the restricted "
            "log-likelihood; the two values may be swapped", RuntimeWarning)
    if ll_restricted != 0.0:
        rho2 = 1.0 - ll / ll_restricted
    else:
        rho2 = 0.0 if ll == 0.0 else np.nan
    return FitResult(
        param_names=tuple(param_names), theta_hat=theta_hat,
        standard_errors=se, t_ratios=t_ratios, ll_converged=float(ll),
        ll_restricted=float(ll_restricted), mcfadden_rho2=float(rho2),
        converged=converged, iterations=iterations, n_obs=n_obs,
        family=family, theta_internal=np.asarray(theta_internal, dtype=np.float64),
        spec=spec, se_method=se_method, message=message,
        n_draws=n_draws, seed=seed, skip=skip, shift=shift)
