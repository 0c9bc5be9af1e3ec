"""Multinomial logit estimation for discrete severity outcomes.

Outcome probabilities are softmax functions of linear predictors built
from the design matrix; the base outcome's predictor is identically
zero.  The log-likelihood is globally concave in the coefficients, so
Newton's method on the kernel's analytic Hessian converges from a zero
start unless the data are degenerate (perfect separation is flagged
after the fit).  The
likelihood kernel, the predictor, probability and effects helpers all
take an optional draw matrix: the mixed logit (:mod:`crashmle.mixed`)
is this logit averaged over draws, and a plain logit is one draw.
"""

from __future__ import annotations

import numpy as np

from . import families
from .dataset import DesignMatrix, ModelSpec, ObservationTable, build_design
from .draws import DrawMatrix, coefficient_draws
from .optimize import FitResult, OptimSettings
from .reporting import EffectRow, EffectsReport

#: predictor magnitude beyond which a fit is flagged as separated
SEPARATION_BOUND = 30.0


#: elements (K * rows * R) of one outcome slice in an observation block;
#: the logit kernel works through the observations block by block, so a
#: block's slices stay in cache and its memory does not grow with N * R
BLOCK_ELEMENTS = 1 << 14


def _blocks(n: int, per_row: int):
    """Consecutive slices over ``n`` observations, each of at most
    ``BLOCK_ELEMENTS // per_row`` of them (at least one)."""
    step = max(1, BLOCK_ELEMENTS // per_row)
    for a in range(0, n, step):
        yield slice(a, min(a + step, n))


def _softmax_slices(v: list):
    """Reduce per-outcome predictor slices over the outcomes, one slice at
    a time: the maximum ``m = max_i v_i``, the shifted slices ``v_i - m``,
    their exponentials and the sum of those (``>= 1``).  The slices
    broadcast against each other.
    """
    m = v[0]
    for vi in v[1:]:
        m = np.maximum(m, vi)
    z = [vi - m for vi in v]
    with np.errstate(under="ignore"):
        e = [np.exp(zi) for zi in z]
    s = e[0].copy()
    for ei in e[1:]:
        s += ei
    return m, z, e, s


def _log_softmax(v) -> np.ndarray:
    """Log-softmax of predictors ``v``, an array with the outcomes on its
    last axis or a list of per-outcome slices, reduced over the outcome
    slices and stacked on a last axis; with fewer than eight outcomes it
    equals bit for bit ``v - max`` less the log of the exponentials
    summed along the axis."""
    if isinstance(v, np.ndarray):
        v = [v[..., i] for i in range(v.shape[-1])]
    _, z, _, s = _softmax_slices(v)
    lse = np.log(s)
    return np.stack([zi - lse for zi in z], axis=-1)


def mnl_probs(theta: np.ndarray, design: DesignMatrix) -> np.ndarray:
    """Outcome probabilities (N, I) at fixed coefficients.

    Only location parameters enter; on a mixed design this evaluates
    the logit at the mixing locations.
    """
    return _mean_probs(theta, design)


def mnl_prob(theta: np.ndarray, design: DesignMatrix, row: int) -> np.ndarray:
    """Probability vector for one observation, ordered like spec outcomes."""
    return _mean_probs(theta, design, row=row)


def _kernel(design: DesignMatrix, draws: DrawMatrix | None = None,
            y_index: np.ndarray | None = None):
    """Stacked logit likelihood kernel (see :mod:`crashmle.families`).

    With ``draws`` it is the simulated likelihood of the mixed logit, the
    draw average of logit probabilities, with no Hessian; without draws
    it is the plain MNL.  ``y_index`` (B, N), or (N,) for B = 1,
    overrides the design's encoded outcomes.

    Only the outcomes some random term enters have predictors that vary
    across draws.  The others, the base among them, form the fixed group:
    they are softmaxed once per observation, to their log-sum-exp ``c``
    and their shares ``q_i`` within the group, and enter each draw's
    softmax as one slice ``c``.  A fixed outcome's probability at draw r
    is then ``P_F,r q_i``.  The draws' posterior weights are the observed
    outcome's probabilities ``p_y,r`` normalized over the draws, and
    ``ll = log(mean_r p_y,r)`` (plus ``log q_y`` for a fixed outcome).  An
    observation whose ``p_y,r`` underflow at every draw is recomputed in
    the log domain, so its ``ll`` stays finite.  A plain MNL has no
    varying outcomes: its arithmetic is the fixed group's alone.

    The observations are evaluated in consecutive blocks of about
    ``BLOCK_ELEMENTS`` (K * rows * R) elements per outcome, each varying
    outcome's per-draw values kept as their own (K, rows, R) slice of a
    work array that is reused block after block.  The block size is a
    constant, so results do not depend on the machine, and the kernel's
    working memory scales with the block, not with N * R; its outputs
    are (K, N) and (K, N, P) as always.
    """
    if draws is None and design.random_terms:
        raise ValueError("objective requires a design with fixed terms only")
    x = design.x
    inc = design.incidence
    y = np.atleast_2d(design.y_index if y_index is None else y_index).astype(np.int64)
    xi = x * inc.T[y]  # data part of the score: x where y is in term t's set
    # outcomes some term enters; only their probabilities reach the scores
    scored = np.flatnonzero(inc.any(axis=0))
    to_terms = inc[:, scored].T  # (S, T): the terms entering each
    ii = (to_terms[:, :, None] * to_terms[:, None, :]).reshape(len(scored), -1)
    n_draws = 1 if draws is None else draws.n_draws
    random = design.random_terms if draws is not None else ()
    # each outcome's slot in the per-draw softmax: 0 for the fixed group,
    # 1, 2, ... for the outcomes whose predictors vary across draws
    slot = np.zeros(inc.shape[1], dtype=np.int64)
    varying = np.flatnonzero(inc[list(random)].any(axis=0)) if random else []
    slot[varying] = np.arange(1, len(varying) + 1)
    fixed = np.flatnonzero(slot == 0)
    # (position in the fixed group, outcome) of the scored fixed outcomes
    shares = [(f, i) for f, i in enumerate(fixed) if i in scored]
    n_slots = len(varying) + 1
    # the varying slots each random term enters, and its draws
    enters = {j: slot[np.flatnonzero(inc[j])] for j in random}
    std = {j: draws.std[dim] for dim, j in enumerate(random)}
    # below this draw sum of p_y,r, draws whose probability underflowed
    # would no longer weigh nothing against the others
    tiny = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
    gys = slot[y] if random else None  # the observed outcomes' slots

    def kernel(theta, rows, hessian=False):
        if hessian and draws is not None:
            raise ValueError("the simulated likelihood has no analytic Hessian")
        theta = np.asarray(theta, dtype=np.float64)
        k, t = theta.shape[0], x.shape[1]
        ll = np.empty((k, design.n_obs))
        scores = np.empty((k, design.n_obs, design.n_params))
        hess = np.zeros((k, t, t)) if hessian else None
        loc = theta[:, None, design.loc_pos]
        sd = {j: np.exp(theta[:, design.scale_pos[j], None, None]) for j in random}
        work = None
        for b in _blocks(design.n_obs, k * n_draws):
            yb = y[rows, b]  # (K, nb)
            v = (x[b] * loc) @ inc  # (K, nb, I)
            m, z, e, s = _softmax_slices([v[..., i, None] for i in fixed])
            # log q_y: the observed outcome's log-share in the fixed group
            logq = z[0].copy()
            for f in range(1, len(z)):
                np.copyto(logq, z[f], where=(yb == fixed[f])[..., None])
            lse = np.log(s)
            logq -= lse
            q = {i: e[f] / s for f, i in shares}  # (K, nb, 1) each
            if not random:
                ll[:, b] = logq[..., 0]
                ps = np.concatenate([q[i] for i in scored], axis=-1)
            else:
                nb = b.stop - b.start
                size = k * nb * n_draws
                if work is None:  # the first block is the largest
                    work = np.empty((n_slots + 3) * size)
                    rows_at = np.arange(k * nb)
                buf = work[:(n_slots + 3) * size].reshape(n_slots + 3, k, nb, n_draws)
                sl, top, tot, w = buf[:n_slots], buf[n_slots], buf[n_slots + 1], buf[-1]
                coef = {j: x[b, j, None] * sd[j] for j in random}  # (K, nb, 1)
                # the varying predictors less the fixed group's log-sum-exp
                # c: the location part plus each random term's coefficient
                # draws (``top`` holds the draws)
                c = m + lse  # (K, nb, 1)
                built = set()
                for j in random:
                    np.multiply(std[j][b], coef[j], out=top)
                    for si in enters[j]:
                        if si in built:
                            sl[si] += top
                        else:
                            np.add(v[..., varying[si - 1], None] - c, top, out=sl[si])
                            built.add(si)
                # softmax per draw over the fixed group's slot, which is 0
                # after the shift, and the varying slots, in place; ``top``
                # keeps each draw's maximum and ``tot`` its sum of exponentials
                np.maximum(sl[1], 0.0, out=top)
                for si in range(2, n_slots):
                    np.maximum(top, sl[si], out=top)
                np.negative(top, out=sl[0])
                sl[1:] -= top
                with np.errstate(under="ignore"):
                    np.exp(sl, out=sl)
                np.add(sl[0], sl[1], out=tot)
                for si in range(2, n_slots):
                    tot += sl[si]
                sl /= tot
                # p_y,r: the rows of the observed outcome's slot
                gy = gys[rows, b]
                np.take(sl.reshape(-1, n_draws), gy.ravel() * (k * nb) + rows_at[:k * nb],
                        axis=0, out=w.reshape(-1, n_draws), mode="clip")
                total = w.sum(axis=-1)
                low = np.nonzero(total < tiny)
                if low[0].size:
                    # underflow at every draw: log p_y,r from the predictor,
                    # less each draw's log-sum-exp ``top + log(tot)``
                    kk, nn = low
                    yl = yb[low]
                    lp = np.where(gy[low] == 0, 0.0, v[kk, nn, yl] - c[low][:, 0])[:, None]
                    for j in random:
                        lp = lp + (inc[j, yl] * coef[j][low][:, 0])[:, None] * std[j][b][nn]
                    lp -= top[low] + np.log(tot[low])
                    shift = lp.max(axis=-1)
                    w[low] = np.exp(lp - shift[:, None])
                    total[low] = w[low].sum(axis=-1)
                # ``w / total`` are the draws' posterior weights
                lb = np.log(total)
                if low[0].size:
                    lb[low] += shift
                lb -= np.log(n_draws)
                ll[:, b] = np.where(gy == 0, lb + logq[..., 0], lb)
                # draw-weighted mean probability of each slot, and of each
                # scored outcome: a fixed outcome's is its share of slot 0's
                pw = (w[..., None, :] @ sl[..., None])[..., 0, 0] / total  # (n_slots, K, nb)
                ps = np.stack([pw[slot[i]] if slot[i] else q[i][..., 0] * pw[0]
                               for i in scored], axis=-1)
            # probability mass of each term's outcome set, draw-weighted
            mass = x[b] * (ps @ to_terms)  # (K, nb, T)
            scores[:, b, design.loc_pos] = xi[rows, b] - mass
            for j in random:
                # sum_r w_r (1[y in set_j] - P_set_j,r) x_j sd_j std_j,r; the
                # products go to ``top``, so ``w`` stays intact for the next
                # term
                np.subtract(inc[j][yb][..., None], sl[enters[j][0]], out=top)
                for si in enters[j][1:]:
                    top -= sl[si]
                top *= w
                top *= std[j][b]
                scores[:, b, design.scale_pos[j]] = (
                    x[b, j] * (top.sum(axis=-1) / total) * sd[j][..., 0])
            if hessian:
                # d v_ni / d theta_t = x_nt inc_ti, paired per outcome
                xx = (x[b, :, None] * x[b, None, :]).reshape(-1, t * t)
                pdd = ((ps.transpose(0, 2, 1) @ xx) * ii).sum(axis=1)
                hess += mass.transpose(0, 2, 1) @ mass - pdd.reshape(k, t, t)
        return (ll, scores, hess) if hessian else (ll, scores)

    return kernel


def make_objective(design: DesignMatrix, y_index: np.ndarray | None = None):
    """Log-likelihood closure ``theta -> (ll, grad)`` for all-fixed designs.

    ``y_index`` overrides the design's encoded outcomes; used when
    refitting the same covariates against simulated outcomes.
    """
    return families.summed(_kernel(design, None, y_index))


def make_batch_objective(design: DesignMatrix, y_index: np.ndarray):
    """Batched Newton objective (:func:`crashmle.families.batched`) for
    the (B, N) outcome vectors ``y_index``; each row agrees with
    :func:`make_objective` on its outcomes."""
    return families.batched(_kernel(design, None, y_index))


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


def _predictor_slices(theta, design: DesignMatrix, draws=None,
                      rows=slice(None)) -> list:
    """Linear predictors per draw of the observations ``rows`` selects,
    one slice per outcome for ``theta`` of shape (..., P): (..., N, R)
    where a random term enters the outcome, (..., N, 1) otherwise."""
    theta = np.asarray(theta, dtype=np.float64)
    x = design.x[rows]
    v = (x * theta[..., None, design.loc_pos]) @ design.incidence
    v = [v[..., i, None] for i in range(v.shape[-1])]
    for dim, j in enumerate(design.random_terms if draws is not None else ()):
        scale = np.exp(theta[..., design.scale_pos[j], None, None])
        contrib = x[:, j, None] * (scale * draws.std[dim][rows])  # (..., N, R)
        for col in np.flatnonzero(design.incidence[j]):
            v[col] = v[col] + contrib
    return v


def _mean_probs(theta, design: DesignMatrix, draws=None,
                row: int | None = None) -> np.ndarray:
    """Outcome probabilities averaged over draws: (N, I), or (I,) for
    observation ``row`` alone; evaluated in observation blocks."""
    if row is None:
        first, n = 0, design.n_obs
    elif 0 <= row < design.n_obs:
        first, n = row, 1
    else:
        raise IndexError(f"row {row} out of range for {design.n_obs} observations")
    out = np.empty((n, design.n_outcomes))
    for b in _blocks(n, 1 if draws is None else draws.n_draws):
        v = _predictor_slices(theta, design, draws,
                              slice(first + b.start, first + b.stop))
        out[b] = np.exp(_log_softmax(v)).mean(axis=-2)
    return out if row is None else out[0]


def _logit_effects(fit: FitResult, table: ObservationTable, variables,
                   pseudo: bool, draws=None) -> EffectsReport:
    """Elasticities or indicator pseudo-elasticities of a logit fit.

    Probabilities and their derivatives are averaged over the fit's
    draws (a plain logit has one draw), so coefficient heterogeneity
    propagates into the averaged effects.  Each observation's effects
    are evaluated in observation blocks, as in the likelihood kernel,
    and averaged over all observations at the end.
    """
    design = build_design(table, fit.spec)
    if draws is None:
        draws = families.fit_draws(fit, design)
    theta = fit.theta_internal
    labels = design.outcome_labels
    triples = _term_targets(design, variables)
    for var, j, _ in triples:
        x = design.x[:, j]
        if pseudo != bool(np.all((x == 0.0) | (x == 1.0))):
            raise ValueError(
                f"variable {var!r} is not a 0/1 indicator; use elasticities" if pseudo
                else f"variable {var!r} is a 0/1 indicator; use pseudo-elasticities")
    # per-observation effects: (triple, outcome, observation)
    each = np.empty((len(triples), len(labels), design.n_obs))
    for b in _blocks(design.n_obs, 1 if draws is None else draws.n_draws):
        v = _predictor_slices(theta, design, draws, b)
        p = np.exp(_log_softmax(v))  # (nb, R, I)
        p_bar = p.mean(axis=1)
        for t, (var, j, target) in enumerate(triples):
            x = design.x[b, j]
            col = labels.index(target)
            beta_draws = coefficient_draws(theta, design, draws, j, rows=b)
            if pseudo:
                v_on, v_off = list(v), list(v)  # the target's slice switched
                v_on[col] = v[col] + beta_draws * (1.0 - x[:, None])
                v_off[col] = v[col] - beta_draws * x[:, None]
                delta = (np.exp(_log_softmax(v_on))
                         - np.exp(_log_softmax(v_off))).mean(axis=1)
                each[t, :, b] = (delta / p_bar).T
                continue
            pj = p[:, :, col]
            for i in range(len(labels)):
                kron = 1.0 if i == col else 0.0
                dp = (p[:, :, i] * beta_draws * (kron - pj)).mean(axis=1)
                each[t, i, b] = x * dp / p_bar[:, i]
    values = each.mean(axis=-1)
    rows = []
    for (var, j, target), vals in zip(triples, values):
        col = labels.index(target)
        rows.append(EffectRow(var, target, target, "direct", float(vals[col])))
        for i, label in enumerate(labels):
            if i == col:
                continue
            rows.append(EffectRow(var, target, label, "cross", float(vals[i])))
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
