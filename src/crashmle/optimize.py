"""Quasi-Newton maximization and post-fit summary machinery.

The maximizer is BFGS with Armijo backtracking on objectives that
return the log-likelihood and its analytic gradient together.
Convergence is declared when the gradient infinity norm, scaled by
max(1, |ll|), drops below ``gradient_tolerance``.  Standard errors come
from the inverse negative Hessian (central finite differences of the
gradient), with an outer-product-of-scores fallback when that matrix is
not positive definite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import serialize
from .dataset import ModelSpec


class OptimizationError(RuntimeError):
    """Raised when the objective is unusable (non-finite at the start,
    or no finite ascent step can be found)."""


@dataclass(frozen=True)
class OptimSettings:
    """Optimizer controls shared by every fit function."""

    max_iterations: int = 200
    gradient_tolerance: float = 1e-6
    step_tolerance: float = 1e-10
    hessian_fd_step: float = 1e-5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("gradient_tolerance", "step_tolerance", "hessian_fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class MaximizeResult:
    theta: np.ndarray
    ll: float
    converged: bool
    iterations: int
    n_evals: int
    grad_inf_norm: float
    message: str
    ll_path: list[float]


def _scaled_gnorm(grad: np.ndarray, ll: float) -> float:
    return float(np.max(np.abs(grad))) / max(1.0, abs(ll))


def maximize(objective, theta0, settings: OptimSettings | None = None) -> MaximizeResult:
    """Maximize ``objective(theta) -> (ll, grad)`` from ``theta0``.

    Accepted iterates are monotone in ``ll`` (Armijo condition), so the
    final point is also the best one seen.  Non-finite trial points are
    handled by shrinking the step.
    """
    s = settings or OptimSettings()
    theta = np.array(theta0, dtype=np.float64).copy()
    p = theta.size
    ll, grad = objective(theta)
    ll = float(ll)
    grad = np.asarray(grad, dtype=np.float64)
    n_evals = 1
    if not np.isfinite(ll) or not np.all(np.isfinite(grad)):
        raise OptimizationError("objective is not finite at the starting point")
    ll_path = [ll]

    if _scaled_gnorm(grad, ll) <= s.gradient_tolerance:
        return MaximizeResult(theta, ll, True, 0, n_evals,
                              _scaled_gnorm(grad, ll), "converged at start", ll_path)

    h_inv = np.eye(p)  # approximate inverse of the negative Hessian
    first_update = True
    c1 = 1e-4
    message = "iteration limit reached"
    converged = False
    iterations = 0

    for iterations in range(1, s.max_iterations + 1):
        direction = h_inv @ grad
        slope = float(direction @ grad)
        if slope <= 0.0:
            h_inv = np.eye(p)
            first_update = True
            direction = grad.copy()
            slope = float(grad @ grad)
            if slope == 0.0:
                converged = True
                message = "zero gradient"
                break

        step = 1.0
        accepted = False
        while step >= 1e-14:
            trial = theta + step * direction
            ll_t, grad_t = objective(trial)
            n_evals += 1
            ll_t = float(ll_t)
            if np.isfinite(ll_t) and np.all(np.isfinite(grad_t)) \
                    and ll_t >= ll + c1 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            message = "line search failed to find an ascent step"
            break

        delta = step * direction
        gdiff = np.asarray(grad_t, dtype=np.float64) - grad
        theta = trial
        ll = ll_t
        grad = np.asarray(grad_t, dtype=np.float64)
        ll_path.append(ll)

        gnorm = _scaled_gnorm(grad, ll)
        if gnorm <= s.gradient_tolerance:
            converged = True
            message = "gradient tolerance reached"
            break

        # BFGS update on the negated problem: curvature pair (delta, -gdiff)
        y = -gdiff
        sy = float(delta @ y)
        if sy > 1e-12 * float(np.linalg.norm(delta)) * float(np.linalg.norm(y)):
            if first_update:
                h_inv *= sy / float(y @ y)
                first_update = False
            rho = 1.0 / sy
            hy = h_inv @ y
            h_inv -= rho * (np.outer(delta, hy) + np.outer(hy, delta))
            h_inv += rho * rho * float(y @ hy) * np.outer(delta, delta) \
                + rho * np.outer(delta, delta)

        if float(np.max(np.abs(delta))) <= s.step_tolerance * (1.0 + float(np.max(np.abs(theta)))):
            message = "step size below tolerance"
            break

    return MaximizeResult(theta, ll, converged, iterations, n_evals,
                          _scaled_gnorm(grad, ll), message, ll_path)


@dataclass
class BatchResult:
    """Row-wise outcome of :func:`maximize_batch`.

    Rows with ``converged`` False stopped before the gradient test
    passed; their ``theta`` and ``ll`` are the last accepted iterate.
    """

    theta: np.ndarray      # (B, P)
    ll: np.ndarray         # (B,)
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int


def maximize_batch(objective, theta0, settings: OptimSettings | None = None) -> BatchResult:
    """Newton maximization of B independent problems at once.

    ``objective(theta, rows)`` maps a (K, P) stack of iterates and the
    indices of the K problems they belong to onto (K,) log-likelihoods,
    (K, P) gradients and (K, P, P) Hessians.  Every row takes Newton
    steps with its own Armijo backtracking and stops under the gradient
    test of :func:`maximize`.  A row stops unconverged, to be refitted
    by :func:`maximize`, when it starts non-finite, meets a Hessian that
    is not negative definite, finds no ascent step, moves less than
    ``step_tolerance`` or runs out of iterations.
    """
    s = settings or OptimSettings()
    theta = np.array(theta0, dtype=np.float64)
    b = theta.shape[0]
    all_rows = np.arange(b)
    ll, grad, hess = objective(theta, all_rows)
    gnorm = lambda g, f: np.max(np.abs(g), axis=1) / np.maximum(1.0, np.abs(f))
    finite = np.isfinite(ll) & np.isfinite(grad).all(axis=1)
    converged = np.zeros(b, dtype=bool)
    converged[finite] = gnorm(grad[finite], ll[finite]) <= s.gradient_tolerance
    active = finite & ~converged
    iterations = np.zeros(b, dtype=np.int64)
    c1 = 1e-4

    for it in range(1, s.max_iterations + 1):
        rows = all_rows[active]
        if rows.size == 0:
            break
        neg_h = -hess[rows]
        ok = np.isfinite(neg_h).all(axis=(1, 2))
        ok[ok] = np.linalg.eigvalsh(neg_h[ok])[:, 0] > 0.0
        active[rows[~ok]] = False
        rows, neg_h = rows[ok], neg_h[ok]
        g = grad[rows]
        direction = np.linalg.solve(neg_h, g[:, :, None])[:, :, 0]
        slope = np.einsum("kp,kp->k", direction, g)

        step = np.ones(rows.size)
        pending = np.arange(rows.size)
        while pending.size:
            idx = rows[pending]
            trial = theta[idx] + step[pending, None] * direction[pending]
            ll_t, grad_t, hess_t = objective(trial, idx)
            good = (np.isfinite(ll_t) & np.isfinite(grad_t).all(axis=1)
                    & (ll_t >= ll[idx] + c1 * step[pending] * slope[pending]))
            acc = idx[good]
            delta = step[pending[good], None] * direction[pending[good]]
            theta[acc], ll[acc] = trial[good], ll_t[good]
            grad[acc], hess[acc] = grad_t[good], hess_t[good]
            iterations[acc] = it
            done = gnorm(grad[acc], ll[acc]) <= s.gradient_tolerance
            converged[acc[done]] = True
            stalled = (np.max(np.abs(delta), axis=1)
                       <= s.step_tolerance * (1.0 + np.max(np.abs(theta[acc]), axis=1)))
            active[acc[done | stalled]] = False
            step[pending[~good]] *= 0.5
            failed = ~good & (step[pending] < 1e-14)
            active[idx[failed]] = False
            pending = pending[~good & ~failed]

    return BatchResult(theta, ll, converged, iterations)


def hessian_fd(objective, theta: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    """Hessian of the log-likelihood by central differences of the gradient.

    Step for coordinate k is ``rel_step * max(1, |theta_k|)``; the result
    is symmetrized.
    """
    theta = np.asarray(theta, dtype=np.float64)
    p = theta.size
    hess = np.empty((p, p))
    for k in range(p):
        h = rel_step * max(1.0, abs(theta[k]))
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


def _try_inverse_pd(a: np.ndarray) -> np.ndarray | None:
    """Inverse of a symmetric matrix if positive definite, else None; a
    nearly singular matrix can pass Cholesky and still invert, in
    rounding, to a non-positive variance, which is rejected."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    inv = np.linalg.inv(a)
    var = np.diag(inv)
    return inv if np.all(np.isfinite(var) & (var > 0.0)) else None


def covariance(objective, theta_hat: np.ndarray,
               settings: OptimSettings | None = None,
               scores: np.ndarray | None = None) -> CovarianceResult:
    """Parameter covariance at the optimum.

    Tries the inverse negative Hessian first.  If that is not positive
    definite and per-observation ``scores`` (N, P) are supplied, falls
    back to the inverse outer product of scores.  When both fail the
    standard errors are NaN and the method is ``"undefined"``.
    """
    s = settings or OptimSettings()
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    p = theta_hat.size
    hess = hessian_fd(objective, theta_hat, s.hessian_fd_step)
    cov = _try_inverse_pd(-hess)
    if cov is not None:
        return CovarianceResult(cov, np.sqrt(np.diag(cov)), "hessian")
    if scores is not None:
        scores = np.asarray(scores, dtype=np.float64)
        opg = scores.T @ scores
        cov = _try_inverse_pd(opg)
        if cov is not None:
            warnings.warn("negative Hessian not positive definite; standard errors "
                          "use the outer product of scores", RuntimeWarning)
            return CovarianceResult(cov, np.sqrt(np.diag(cov)), "bhhh")
    warnings.warn("covariance matrix is undefined at this solution; standard "
                  "errors reported as NaN", RuntimeWarning)
    return CovarianceResult(None, np.full(p, np.nan), "undefined")


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
        return {
            "param_names": list(self.param_names),
            "theta_hat": [serialize.nan_to_none(v) for v in self.theta_hat],
            "standard_errors": [serialize.nan_to_none(v) for v in self.standard_errors],
            "t_ratios": [serialize.nan_to_none(v) for v in self.t_ratios],
            "ll_converged": serialize.nan_to_none(self.ll_converged),
            "ll_restricted": serialize.nan_to_none(self.ll_restricted),
            "mcfadden_rho2": serialize.nan_to_none(self.mcfadden_rho2),
            "converged": self.converged,
            "iterations": self.iterations,
            "n_obs": self.n_obs,
            "n_params": self.n_params,
            "family": self.family,
            "theta_internal": [serialize.nan_to_none(v) for v in self.theta_internal],
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "se_method": self.se_method,
            "message": self.message,
            "n_draws": self.n_draws,
            "seed": self.seed,
            **({} if self.skip is None else {"skip": self.skip, "shift": self.shift}),
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_dict())

    @staticmethod
    def from_dict(d: dict) -> "FitResult":
        arr = lambda key: np.array([serialize.none_to_nan(v) for v in d[key]])
        spec = ModelSpec.from_dict(d["spec"]) if d.get("spec") else None
        simulated = d.get("n_draws") is not None  # older files: default draws
        return FitResult(
            param_names=tuple(d["param_names"]),
            theta_hat=arr("theta_hat"),
            standard_errors=arr("standard_errors"),
            t_ratios=arr("t_ratios"),
            ll_converged=serialize.none_to_nan(d["ll_converged"]),
            ll_restricted=serialize.none_to_nan(d["ll_restricted"]),
            mcfadden_rho2=serialize.none_to_nan(d["mcfadden_rho2"]),
            converged=d["converged"],
            iterations=d["iterations"],
            n_obs=d["n_obs"],
            family=d["family"],
            theta_internal=arr("theta_internal"),
            spec=spec,
            se_method=d.get("se_method", "hessian"),
            message=d.get("message", ""),
            n_draws=d.get("n_draws"),
            seed=d.get("seed"),
            skip=d.get("skip", 10 if simulated else None),
            shift=d.get("shift", False if simulated else None),
        )


def summarize(theta_hat, cov, ll: float, ll_restricted: float, *,
              param_names, converged: bool, iterations: int, n_obs: int,
              family: str, theta_internal, se=None, spec=None,
              se_method: str = "hessian", message: str = "",
              n_draws=None, seed=None, skip=None, shift=None) -> FitResult:
    """Assemble a :class:`FitResult`.

    McFadden rho-squared is ``1 - ll / ll_restricted``.  A fit whose
    converged log-likelihood falls below the restricted one triggers a
    RuntimeWarning: with a shared optimum that ordering can only come
    from swapped arguments or a failed maximization.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    if se is None:
        if cov is None:
            se = np.full(theta_hat.size, np.nan)
        else:
            se = np.sqrt(np.diag(np.asarray(cov, dtype=np.float64)))
    se = np.asarray(se, dtype=np.float64)
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
