"""Negative binomial count models, plain and with random coefficients.

The mean is log-linear in the covariates and the variance is
``lam * (1 + alpha * lam)``; ``alpha -> 0`` recovers the Poisson model.
The dispersion parameter is estimated on the log scale.  The log
probability is computed through the scaled log-Pochhammer sum
``sum_{k<A} log1p(k * alpha)`` rather than a difference of log-gamma
values, which stays accurate for arbitrarily small ``alpha`` (above
``TABLE_CAP``, in closed form).  One kernel serves both families; it
averages the mixed model's draws itself.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import gammaln

from . import families
from .dataset import (CONSTANT, DesignMatrix, ModelSpec, ObservationTable,
                      Term, build_design)
from .draws import DrawMatrix, coefficient_draws
from .mnl import BLOCK_ELEMENTS, _term_targets
from .optimize import FitResult, OptimSettings
from .reporting import EffectRow, EffectsReport

#: largest count whose dispersion tables are summed term by term; a larger
#: count continues from the entries at TAIL_START in closed form (:func:`_poch_tail`)
TABLE_CAP, TAIL_START = 4096, 1024


def _poch_tables(alpha: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (2 or 3, K, amax + 1) with the tables ``tab``,
    ``dtab`` (and ``h2tab``) for the (K, 1) column ``alpha``, indexed by
    count a, and return it.

    ``tab[a] = sum_{k=0}^{a-1} log1p(k * alpha)`` equals
    ``lnGamma(a + r) - lnGamma(r) - a * ln(r)`` (r = 1 / alpha) without
    cancellation; ``dtab[a] = sum_{k<a} t s`` and ``h2tab[a] = sum_{k<a}
    t s^2``, with ``t = k * alpha`` and ``s = 1 / (1 + t)``, are its first
    and second log-alpha derivatives, summed term by term so that they do
    not cancel when alpha is small.  The terms are written in place, with
    one reciprocal each, and summed by one ``cumsum``.
    """
    k = np.arange(out.shape[2] - 1, dtype=np.float64)
    t = np.multiply(alpha, k, out=out[0, :, 1:])
    s = np.add(t, 1.0, out=out[-1, :, 1:])  # the last table is free until its turn
    np.reciprocal(s, out=s)
    np.multiply(t, s, out=out[1, :, 1:])
    if len(out) == 3:
        s *= out[1, :, 1:]
    np.log1p(t, out=t)
    out[:, :, 0] = 0.0
    return np.cumsum(out, axis=2, out=out)


def _poch_tail(alpha, a, nt):
    """The first ``nt`` increments of ``tab``, ``dtab`` and ``h2tab`` (see
    :func:`_poch_tables`) from c = ``TAIL_START`` to counts ``a > c``:
    Euler-Maclaurin sums over k = c .. a-1 (integral, endpoint halves, one
    Bernoulli term; remainder below 1e-14 of the sum at c = 1024).  With s_x
    = 1 / (1 + x alpha) and y = (a - c) alpha s_c, no integral cancels."""
    c = float(TAIL_START)
    r, u, d, sc = 1.0 / alpha, alpha * c, a - c, 1.0 / (1.0 + alpha * c)
    q = alpha * sc
    y, ly, y1 = q * d, np.log1p(q * d), 1.0 + q * d
    z, sa, gap, small = y / y1, sc / y1, y - ly, y < 0.1
    if small.any():  # y - log1p(y) cancels: the series of log1p(y) = 2 atanh(w)
        w = y / (1.0 + y1)
        w2 = w * w
        gap = np.where(small, w * (y - 2.0 * w2 * (1 / 3 + w2 * (1 / 5 + w2 * (1 / 7 + w2 * (
            1 / 9 + w2 * (1 / 11 + w2 / 13)))))), gap)
    tab = d * np.log1p(u) + (r + c) * (y * ly - gap) - ly / 2 - q * z / 12
    dtab = d * u * sc + r * gap - sc * z * (0.5 + alpha * (sa + sc) / 12)
    if nt < 3:
        return np.stack([tab, dtab][:nt])
    h2tab = (r * (np.where(small, y * z - gap, ly - z) + z * u * sc) + sc * z * (1 - sc - sa) / 2
             + alpha * (sa * sa * (2 * sa - 1) - sc * sc * (2 * sc - 1)) / 12)
    return np.stack([tab, dtab, h2tab])


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
    width = min(int(a.max()) if a.size else 0, TABLE_CAP) + 1
    tab = _poch_tables(np.array([[alpha]]), np.empty((2, 1, width)))[0, 0]
    wide = a > TABLE_CAP
    head = np.array(tab[np.where(wide, TAIL_START, a)])
    head[wide] += _poch_tail(alpha, a[wide], 1)[0]
    out = (head + a * np.log(lam_arr)
           - (1.0 / alpha + a) * np.log1p(alpha * lam_arr) - gammaln(a + 1.0))
    if np.isscalar(counts) and np.isscalar(lam):
        return float(out)
    return out


def _eta_draws(theta, design: DesignMatrix, draws: DrawMatrix | None,
               out=(None, None, None)) -> np.ndarray:
    """Log-mean per draw, shape (..., N, R) for ``theta`` of shape
    (..., P); R = 1 without draws.  Scale slots hold logs.  Each row's
    predictor is a matrix product of its own, (1, T) by (T, N), so it
    does not depend on the rows evaluated with it.  ``out`` receives that
    product (..., 1, N), the sum and one term's draws (..., N, R), where
    not None."""
    product, total, term = out
    eta = np.swapaxes(np.matmul(theta[..., None, design.loc_pos], design.x.T,
                                out=product), -1, -2)
    for dim, j in enumerate(design.random_terms):
        scale = np.exp(theta[..., design.scale_pos[j], None, None])
        term = np.multiply(scale, draws.std[dim], out=term)
        term *= design.x[:, j, None]
        eta = np.add(eta, term, out=total)
    return eta


def _carve(flat: np.ndarray, *shapes):
    """Consecutive C-contiguous views of ``flat``, one per shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def _kernel(design: DesignMatrix, draws: DrawMatrix | None, counts=None):
    """Stacked likelihood kernel (see :mod:`crashmle.families`): ``theta``
    rows pack the design's parameters and log(alpha); ``counts`` (B, N),
    or (N,) for B = 1, overrides the design's counts.  With draws the
    likelihood is the draw average of NB probabilities, with no Hessian;
    without draws it is the plain NB, as if with one draw.

    The K rows are evaluated in tiles of at least one row and at most
    ``BLOCK_ELEMENTS`` (row, observation, draw) elements and as many table
    entries, so that working memory scales with the tile, not with K * N *
    R or the largest count; a row's arithmetic does not depend on the rows
    evaluated with it, so every tiling gives the same outputs bit for bit.
    Tables reach a tile's largest count up to ``TABLE_CAP``; a larger count
    adds its :func:`_poch_tail` to the entries at ``TAIL_START``.  The
    closure owns one tile's work arrays, sized for a full tile of its
    widest tables, so that repeated calls do not allocate them: each draw's
    log probability becomes its posterior share in place.  With
    ``hessian`` the per-observation outputs are work arrays too, valid
    until the next call (see :mod:`crashmle.families`); without, they are
    fresh.  ``lnGamma(a + 1)`` is folded into the log-Pochhammer table, so
    one ``take`` gathers every count's table entries.
    """
    a = np.atleast_2d(np.asarray(design.counts if counts is None else counts,
                                 dtype=np.int64))
    b, n = a.shape
    amax_row = a.max(axis=1, initial=0)
    widest = int(amax_row.max(initial=0))
    if widest > TABLE_CAP:  # as a tile's tables: larger counts read the entries at TAIL_START
        widest = max(int(a.max(initial=0, where=a <= TABLE_CAP)), TAIL_START)
    widest += 1
    lgam = gammaln(np.arange(widest) + 1.0)
    x = design.x
    # the Hessian's covariate products, (N, T * T); with draws there is no Hessian
    xx = None if draws is not None else (x[:, :, None] * x[:, None, :]).reshape(n, -1)
    p = design.n_params + 1
    n_draws = 1 if draws is None else draws.n_draws
    index = np.arange(b)
    floats = ints = outputs = None

    def kernel(theta, rows, hessian=False):
        nonlocal floats, ints, outputs
        if hessian and draws is not None:
            raise ValueError("the simulated likelihood has no analytic Hessian")
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape[-1] != p:
            raise ValueError(f"expected {p} parameters, got {theta.shape[-1]}")
        k = theta.shape[0]
        rows = index[rows]
        nt = 3 if hessian else 2
        tile = min(k, max(1, BLOCK_ELEMENTS // max(n * n_draws, widest)))

        def shapes(kt, width):  # the work arrays of a kt-row tile
            return ([(kt, n, n_draws)] * 8 + [(kt, 1, n)] + [(kt, n, 1)] * 3
                    + [(nt, kt, n), (nt, kt, width)])
        size = sum(map(math.prod, shapes(tile, widest)))
        if floats is None or len(floats) < size or len(ints) < tile * n:
            floats, ints = np.empty(size), np.empty(tile * n, dtype=np.int64)
        if hessian:  # outputs the caller uses at once, reused like the work arrays
            if outputs is None or len(outputs) < k * n * (p + 1):
                outputs = np.empty(k * n * (p + 1))
            ll, scores = _carve(outputs, (k, n), (p, k, n))
        else:
            ll, scores = np.empty((k, n)), np.empty((p, k, n))
        hess = np.empty((k, p, p)) if hessian else None
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            for start in range(0, k, tile):
                at_tile = slice(start, start + tile)
                th = theta[at_tile]
                kt, most = len(th), int(amax_row[rows[at_tile]].max())
                at = np.take(a, rows[at_tile], axis=0, mode="clip",
                             out=ints[:kt * n].reshape(kt, n))
                if most > TABLE_CAP:  # larger counts read the entries at TAIL_START
                    wide = np.nonzero(at > TABLE_CAP)
                    big, at[wide] = at[wide].astype(np.float64), TAIL_START
                width = (int(at.max()) if most > TABLE_CAP else most) + 1
                (lam, l1p, ra, lpmf, q, rl, wd, tmp, product, afk, top, total, tabs,
                 tables) = _carve(floats, *shapes(kt, width))
                np.copyto(afk[..., 0], at)
                # position of count a of row k in the flattened tables
                at += width * np.arange(kt)[:, None]
                alpha = np.exp(th[:, -1, None, None])  # (kt, 1, 1)
                r = np.exp(-th[:, -1, None, None])
                _poch_tables(alpha[:, 0], tables)[0] -= lgam[:width]
                np.take(tables.reshape(nt, -1), at, axis=1, out=tabs, mode="clip")
                if most > TABLE_CAP:  # ... and add their tails
                    afk[wide[0], wide[1], 0] = big
                    tabs[:, wide[0], wide[1]] += _poch_tail(alpha[wide[0], 0, 0], big, nt)
                    tabs[0][wide] += lgam[TAIL_START] - gammaln(big + 1.0)
                # wd and tmp are free until the log probabilities are done
                eta = _eta_draws(th, design, draws, out=(product, wd, tmp))
                np.exp(eta, out=lam)
                np.log1p(np.multiply(alpha, lam, out=l1p), out=l1p)
                np.add(r, afk, out=ra)
                np.add(tabs[0][..., None], np.multiply(afk, eta, out=lpmf), out=lpmf)
                lpmf -= np.multiply(ra, l1p, out=tmp)
                np.divide(np.multiply(lam, ra, out=q), np.add(r, lam, out=rl), out=q)
                np.subtract(afk, q, out=wd)
                np.subtract(np.multiply(r, l1p, out=tmp), q, out=tmp)
                if draws is None:  # one draw: its share is one
                    ll[at_tile] = lpmf[..., 0]
                    wd_sum, tmp_sum = wd[..., 0], tmp[..., 0]
                else:  # the log of the draw mean; the draws' shares overwrite lpmf
                    np.max(lpmf, axis=-1, keepdims=True, out=top)
                    lpmf -= top
                    np.exp(lpmf, out=lpmf)
                    np.sum(lpmf, axis=-1, keepdims=True, out=total)
                    lpmf /= total
                    ll[at_tile] = (top + np.log(total))[..., 0] - np.log(n_draws)
                    wd *= lpmf
                    tmp *= lpmf
                    wd_sum, tmp_sum = wd.sum(axis=-1), tmp.sum(axis=-1)
                # (P, K, N), so that each parameter's scores stay contiguous
                for j in range(x.shape[1]):
                    np.multiply(x[:, j], wd_sum, out=scores[design.loc_pos[j], at_tile])
                for dim, j in enumerate(design.random_terms):  # the log-scales
                    drawn = np.multiply(wd, draws.std[dim], out=rl).sum(axis=-1)
                    scores[design.scale_pos[j], at_tile] = (
                        x[:, j] * drawn * np.exp(th[:, design.scale_pos[j], None]))
                np.add(tabs[1], tmp_sum, out=scores[-1, at_tile])
                if not hessian:
                    continue
                # one draw, so w = 1; u = -d(a - q)/d eta
                h = hess[at_tile]
                rs = np.divide(r, rl, out=rl)
                u = np.multiply(q, rs, out=ra)
                h[:, :-1, :-1] = -(u.reshape(kt, 1, n) @ xx).reshape(kt, p - 1, p - 1)
                cross = x.T @ np.multiply(np.subtract(lam, q, out=tmp), rs, out=tmp)
                h[:, :-1, -1:], h[:, -1:, :-1] = cross, cross.transpose(0, 2, 1)
                np.multiply(np.multiply(lam, 2.0, out=tmp), rs, out=tmp)
                tmp -= np.multiply(r, l1p, out=wd)
                tmp -= u
                h[:, -1, -1] = np.add(tabs[2], tmp[..., 0], out=tabs[2]).sum(axis=1)
        if not hessian:
            return ll, scores.transpose(1, 2, 0)
        return ll, scores.transpose(1, 2, 0), hess

    return kernel


def make_objective(design: DesignMatrix, counts: np.ndarray | None = None):
    """Log-likelihood closure ``theta -> (ll, grad)`` for a plain NB design.

    ``theta`` packs the coefficient vector followed by log(alpha);
    ``counts`` overrides the design's counts.
    """
    return families.summed(_kernel(design, None, counts))


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


def fit_nb(table: ObservationTable, spec: ModelSpec, **options) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"nb"``, with the same
    keyword options.

    The restricted log-likelihood comes from an intercept-only fit of
    the same family, so McFadden's rho-squared measures the covariates'
    contribution.  Raises if every count is zero (the overdispersion
    parameter is then unidentified).
    """
    if spec.family != "nb":
        raise ValueError(f"fit_nb expects family 'nb', got {spec.family!r}")
    return families.fit(table, spec, **options)


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


def fit_mixed_nb(table: ObservationTable, spec: ModelSpec, **options) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"mixed_nb"``, with the
    same keyword options (the Halton draws among them).

    Mixing applies to the coefficients only; alpha is shared across
    draws.  The restricted log-likelihood is the plain intercept-only
    NB fit, matching :func:`fit_nb`.
    """
    if spec.family != "mixed_nb":
        raise ValueError(f"fit_mixed_nb expects family 'mixed_nb', got {spec.family!r}")
    return families.fit(table, spec, **options)


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
    kernel=_kernel,
    start=_default_theta0,
    restricted_ll=_intercept_only_ll,
    effects={"marginal": lambda fit, table, v: marginal_effects(fit, table, v)})
families.REGISTRY["mixed_nb"] = replace(
    families.REGISTRY["nb"],
    objective=lambda design, draws, counts: make_mixed_objective(
        design, draws, counts=counts))
