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

from . import draws as _draws
from . import families, simulate
from .dataset import (CONSTANT, DesignMatrix, ModelSpec, ObservationTable,
                      Term, as_counts, build_design)
from .draws import DrawMatrix, coefficient_draws
from .optimize import FitResult, OptimSettings
from .reporting import EffectRow, EffectsReport, term_targets

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
    a = as_counts(counts, "counts")
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


def _location(theta, design: DesignMatrix, out=None) -> np.ndarray:
    """Location predictor (..., 1, N) of ``theta`` (..., P): each row's is a
    (1, T) by (T, N) product of its own, whatever rows come with it."""
    return np.matmul(theta[..., None, design.loc_pos], design.x.T, out=out)


def _eta_draws(theta, design: DesignMatrix, std: tuple | None,
               rows, product, out=(None, None)) -> np.ndarray:
    """Log-mean per draw, shape (..., n, R) for ``theta`` of shape
    (..., P), on the n observations ``rows`` selects, with each random
    term's (N, R) draws ``std``; R = 1 without draws.  Scale slots hold
    logs.  ``product`` is the :func:`_location` of every observation;
    a block takes its columns, which a product over the block alone could
    round differently.  ``out`` receives the sum and one term's draws
    (..., n, R), where not None."""
    eta = np.swapaxes(product[..., rows], -1, -2)
    total, term = out
    for dim, j in enumerate(design.random_terms):
        scale = np.exp(theta[..., design.scale_pos[j], None, None])
        term = np.multiply(scale, std[dim][rows], out=term)
        term *= design.x[rows, j, None]
        eta = np.add(eta, term, out=total)
    return eta


def _mean_blocks(theta, design: DesignMatrix, std: tuple | None):
    """The NB's outcome law: each observation block ``b`` and its means per draw
    (nb, R) at each random term's (N, R) draws ``std``, as the kernel has them."""
    product = _location(theta, design)
    for b in _draws.blocks(design.n_obs, std[0].shape[1] if std else 1):
        yield b, np.exp(_eta_draws(theta, design, std, b, product))


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
    rows pack the design's parameters, log(alpha) last; ``counts`` (B, N),
    or (N,) for B = 1, overrides the design's counts.  With draws the
    likelihood is the draw average of NB probabilities; without, the plain NB.

    The K rows are evaluated in tiles of at least one row and at most
    ``draws.BLOCK_ELEMENTS`` (row, observation, draw) elements and as many table
    entries, and a tile in observation blocks of at most that many
    elements (at least one observation; a row without draws is one draw),
    both cut by :func:`crashmle.draws.blocks`, so that working memory
    scales with the block, not with K * N * R or the largest count.  Each
    row's dispersion tables, table entries and location predictor are
    built once per tile, for all its observations.  A row's blocks depend
    only on N, R and ``BLOCK_ELEMENTS``, not on the rows evaluated with
    it, so every tiling gives the same outputs bit for bit; so does every
    blocking per observation, while the summed rows move in their last bits.
    Tables reach a tile's largest count up to ``TABLE_CAP``; a larger count
    adds its :func:`_poch_tail` to the entries at ``TAIL_START``.  A stack
    of several tiles is cut in order of each row's largest count (a stable
    sort), so that a tile's tables are about as wide as its own rows need,
    not as the widest row that happens to sit beside them; since no row
    depends on its neighbours, the order moves no output bit, and each
    tile's sums are written to its rows' places in the outputs.  The
    closure owns the work arrays of one full tile and block, its tile
    arena, and their views, so that repeated calls neither allocate nor
    carve them: each draw's log probability becomes its posterior share
    in place.  The arena never leaves the kernel; every call returns
    fresh outputs.
    ``lnGamma(a + 1)`` is folded into the log-Pochhammer table, so one
    ``take`` gathers every count's table entries.
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
    p = design.n_params
    n_draws, std = (1, None) if draws is None else (draws.n_draws, draws.std)
    index = np.arange(b)
    per_tile = max(n * n_draws, widest)  # the larger of a row's elements and table entries
    floats = ints = layout = None
    carved = {}  # views of ``floats`` by offset and shapes, for one arena and layout

    def carve(at, shapes):
        key = (at, *shapes)
        if key not in carved:
            carved[key] = _carve(floats[at:], *shapes)
        return carved[key]

    def kernel(theta, rows, obs):
        nonlocal floats, ints, layout
        k = theta.shape[0]
        # a slice becomes a view of the row indices; an array stays the caller's
        rows = index[rows] if isinstance(rows, slice) else np.asarray(rows)
        hess = np.zeros((k, p, p)) if draws is None and not obs else None
        nt = 2 if hess is None else 3
        tile = min(k, _draws.block_rows(per_tile))
        span = min(n, _draws.block_rows(tile * n_draws))

        def block_shapes(kt, nb):  # the work arrays of a block of a kt-row tile
            return [(kt, nb, n_draws)] * 8 + [(kt, nb, 1)] * 2

        def tile_shapes(kt):  # a kt-row tile's arrays over all its observations
            return [(kt, 1, n), (kt, n, 1), (nt, kt, n)]
        # the arena: a block's work arrays, a tile's tables, its other arrays
        per_block = sum(map(math.prod, block_shapes(tile, span)))
        at_arrays = per_block + nt * tile * widest
        size = at_arrays + sum(map(math.prod, tile_shapes(tile)))
        if floats is None or len(floats) < size or len(ints) < tile * n:
            floats, ints, layout = np.empty(size), np.empty(tile * n, dtype=np.int64), None
        if layout != (per_block, at_arrays):  # views are kept for one layout at a time
            layout = per_block, at_arrays
            carved.clear()
        shape = (k, n) if obs else (k,)  # per observation, or their sums
        ll, scores = np.zeros(shape), np.zeros((p, *shape))  # each parameter's contiguous
        tiles = _draws.blocks(k, per_tile)
        if k > tile:  # tiles take the rows in order of largest count
            order = np.argsort(amax_row[rows], kind="stable")
            tiles = (order[t] for t in tiles)

        def add(out, block):  # a block's (kt, nb) log-likelihoods or one parameter's scores
            if obs:
                out[at_tile, ob] = block
            else:  # summed as it is computed, so that no (P, K, nb) array is held
                out += block.sum(axis=1)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            for at_tile in tiles:
                sel, th = rows[at_tile], theta[at_tile]
                # the tile's sums: views of the call's for a slice, else copies
                # written back once the tile is done
                lt, st = (ll, scores) if obs else (ll[at_tile], scores[:, at_tile])
                ht = None if hess is None else hess[at_tile]
                kt, most = len(th), int(amax_row[sel].max())
                # wrap: a negative row index counts from the end, as amax_row[sel] took it
                at = np.take(a, sel, axis=0, mode="wrap", out=ints[:kt * n].reshape(kt, n))
                if most > TABLE_CAP:  # larger counts read the entries at TAIL_START
                    wide = np.nonzero(at > TABLE_CAP)
                    big, at[wide] = at[wide].astype(np.float64), TAIL_START
                width = (int(at.max()) if most > TABLE_CAP else most) + 1
                product, afk, tabs = carve(at_arrays, tile_shapes(kt))
                tables = floats[per_block:per_block + nt * kt * width].reshape(nt, kt, width)
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
                _location(th, design, out=product)
                for ob in _draws.blocks(n, tile * n_draws):
                    (lam, l1p, ra, lpmf, q, rl, wd, tmp, top,
                     total) = carve(0, block_shapes(kt, ob.stop - ob.start))
                    # wd and tmp are free until the log probabilities are done
                    eta = _eta_draws(th, design, std, ob, product, out=(wd, tmp))
                    fk = afk[:, ob]
                    np.exp(eta, out=lam)
                    np.log1p(np.multiply(alpha, lam, out=l1p), out=l1p)
                    np.add(r, fk, out=ra)
                    np.add(tabs[0][:, ob, None], np.multiply(fk, eta, out=lpmf), out=lpmf)
                    lpmf -= np.multiply(ra, l1p, out=tmp)
                    np.divide(np.multiply(lam, ra, out=q), np.add(r, lam, out=rl), out=q)
                    np.subtract(fk, q, out=wd)
                    np.subtract(np.multiply(r, l1p, out=tmp), q, out=tmp)
                    if draws is None:  # one draw: its share is one
                        lb = lpmf[..., 0]
                        wd_sum, tmp_sum = wd[..., 0], tmp[..., 0]
                    else:  # the log of the draw mean; the draws' shares overwrite lpmf
                        np.max(lpmf, axis=-1, keepdims=True, out=top)
                        lpmf -= top
                        np.exp(lpmf, out=lpmf)
                        np.sum(lpmf, axis=-1, keepdims=True, out=total)
                        lpmf /= total
                        lb = (top + np.log(total))[..., 0] - np.log(n_draws)
                        wd *= lpmf
                        tmp *= lpmf
                        wd_sum, tmp_sum = wd.sum(axis=-1), tmp.sum(axis=-1)
                    add(lt, lb)
                    spare = top[..., 0]  # free from here on
                    for j in range(x.shape[1]):
                        add(st[design.loc_pos[j]], np.multiply(x[ob, j], wd_sum, out=spare))
                    for dim, j in enumerate(design.random_terms):  # the log-scales
                        drawn = np.multiply(wd, std[dim][ob], out=rl).sum(axis=-1)
                        add(st[design.scale_pos[j]],
                            x[ob, j] * drawn * np.exp(th[:, design.scale_pos[j], None]))
                    add(st[-1], np.add(tabs[1][:, ob], tmp_sum, out=spare))
                    if hess is None:
                        continue
                    # the block's part of the Hessian: one draw, so w = 1;
                    # u = -d(a - q)/d eta
                    t2 = tabs[2][:, ob]
                    rs = np.divide(r, rl, out=rl)
                    u = np.multiply(q, rs, out=ra)
                    ht[:, :-1, :-1] -= (u.reshape(kt, 1, -1) @ xx[ob]).reshape(kt, p - 1, p - 1)
                    ht[:, :-1, -1:] += x[ob].T @ np.multiply(np.subtract(lam, q, out=tmp), rs,
                                                             out=tmp)
                    np.multiply(np.multiply(lam, 2.0, out=tmp), rs, out=tmp)
                    tmp -= np.multiply(r, l1p, out=wd)
                    tmp -= u
                    ht[:, -1, -1] += np.add(t2, tmp[..., 0], out=t2).sum(axis=1)
                if not obs:
                    ll[at_tile], scores[:, at_tile] = lt, st
                if hess is not None:
                    hess[at_tile] = ht
        if hess is not None:
            hess[:, -1:, :-1] = hess[:, :-1, -1:].transpose(0, 2, 1)
        return (ll, scores.transpose(1, 2, 0)) if obs else (ll, scores.T, hess)

    return families.checked(kernel, design, draws)


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
    """Per-observation score matrix (N, P)."""
    return families.first_row(_kernel(design, None))(theta)[1]


def _intercept_only_ll(design: DesignMatrix,
                       settings: OptimSettings | None) -> float:
    """Converged log-likelihood of the constant-plus-dispersion model;
    raises if every count is zero (alpha is then not identified)."""
    if int(design.counts.max()) == 0:
        raise ValueError("all counts are zero; overdispersion is not identified")
    spec = ModelSpec("nb", (Term(CONSTANT),))
    intercept = build_design(design.table, spec)
    return families.maximize_rows(families.REGISTRY["nb"], intercept, None,
                                  _default_theta0(intercept)[None], settings=settings).row().ll


def _default_theta0(design: DesignMatrix) -> np.ndarray:
    """Zeros, except the constant starts at the log mean count and the
    dispersion at log(1)."""
    theta0 = np.zeros(design.n_params)
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
    return families.summed(_kernel(design, draws, counts))


def mixed_nb_scores(theta, design: DesignMatrix, draws: DrawMatrix) -> np.ndarray:
    """Per-observation simulated score matrix (N, P)."""
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
    averages ``lam * beta`` over observations and coefficient draws.  Both
    are summed in observation blocks, a plain row as one draw.
    """
    if fit.spec is None or not fit.spec.is_frequency:
        raise ValueError("marginal_effects requires an nb or mixed_nb fit")
    design = build_design(table, fit.spec)
    theta = fit.theta_internal
    draws = families.fit_draws(fit, design)
    triples, n_draws = term_targets(design, variables), 1 if draws is None else draws.n_draws
    sums = []
    for b, lam in _mean_blocks(theta, design, None if draws is None else draws.std):
        sums.append([(lam * coefficient_draws(theta, design, draws, j, rows=b)).sum()
                     for _, j, _ in triples])
        lam = None  # freed before the next block allocates its own
    means = np.sum(sums, axis=0) / (design.n_obs * n_draws)
    rows = [EffectRow(var, "", "", "marginal", float(mean))
            for (var, _, _), mean in zip(triples, means)]
    return EffectsReport("marginal", tuple(rows), design.n_obs)


families.REGISTRY["nb"] = families.Family(
    title="negative binomial",
    kernel=_kernel,
    # one piece: the gamma stage draws every mean's multiplier before the Poisson draws
    law=lambda theta, design, std: [np.concatenate([
        lam[:, 0] for _, lam in _mean_blocks(theta, design, std)])],
    draw=lambda lam, natural, rng: simulate.draw_counts(lam, natural[-1], rng),
    start=_default_theta0,
    restricted_ll=_intercept_only_ll,
    effects={"marginal": lambda fit, table, v: marginal_effects(fit, table, v)})
families.REGISTRY["mixed_nb"] = replace(
    families.REGISTRY["nb"],
    title="mixed negative binomial",
    objective=lambda design, draws, counts: make_mixed_objective(
        design, draws, counts=counts))
