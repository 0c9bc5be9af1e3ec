"""Multinomial logit estimation for discrete severity outcomes.

Outcome probabilities are softmax functions of linear predictors built
from the design matrix; the base outcome's predictor is identically
zero.  The log-likelihood is globally concave in the coefficients, so
Newton's method on the kernel's analytic Hessian converges from a zero
start unless the data are degenerate (perfect separation is flagged
after the fit).  The likelihood kernel, the probabilities and the
effects all take an optional draw matrix and compute the logit by one
per-block softmax, :func:`_block_softmax`: the mixed logit
(:mod:`crashmle.mixed`) is this logit averaged over draws, and a plain
logit is one draw.
"""

from __future__ import annotations

import numpy as np

from . import draws as _draws
from . import families, simulate
from .dataset import DesignMatrix, ModelSpec, ObservationTable, build_design
from .draws import DrawMatrix, coefficient_draws
from .optimize import FitResult
from .reporting import EffectRow, EffectsReport, term_targets

#: predictor magnitude beyond which a fit is flagged as separated
SEPARATION_BOUND = 30.0


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


def _slots(design: DesignMatrix, std: tuple | None):
    """Each outcome's slot (I,) in the per-draw softmax, and each random
    term's slots and (N, R) draws ``std``.  The outcomes some random term
    enters vary across draws and take slots 1, 2, ...; the others, the
    base among them, form the fixed group, slot 0.  Without draws (None)
    all are fixed.  The draws must have the design's rows: the kernel, the
    probabilities, the effects and ``simulate`` set theirs up here."""
    if std is not None and any(len(d) != design.n_obs for d in std):
        raise ValueError("draw matrix and design disagree on the number of rows")
    inc = design.incidence
    random = design.random_terms if std is not None else ()
    slot = np.zeros(inc.shape[1], dtype=np.int64)
    varying = inc[list(random)].any(axis=0)
    slot[varying] = np.arange(1, varying.sum() + 1)
    return (slot, {j: slot[inc[j] > 0] for j in random},
            {j: std[dim] for dim, j in enumerate(random)})


def _block_softmax(theta, design: DesignMatrix, slots):
    """``block(b, switch=None)``: the logit at parameter rows ``theta``,
    (K, P) or (P,), on the observations ``b`` (a slice) with the slots of
    :func:`_slots`; it returns ``v, coef, z, lse, q, c, buf``.

    ``v`` are the location predictors, ``coef[j]`` random term j's
    covariate times its mixing scale.  The fixed group is softmaxed once
    per observation with the plain MNL's arithmetic: its shifted slices
    ``z``, their log-sum-exp ``lse`` and each member's share ``q_i``.
    With draws (else ``c`` and ``buf`` are None), each draw's softmax over
    slot 0, the group's log-sum-exp ``c``, and the varying slots runs in
    place on ``buf``, an array of the call's own: ``buf[s]`` holds slot s's
    probabilities, ``buf[n_slots]`` each draw's maximum less ``c``,
    ``buf[n_slots + 1]`` its sum of exponentials, and ``buf[n_slots + 2]``
    is free.  A fixed outcome's probability is slot 0's times its
    ``q_i``.  A ``switch`` (j, col, dx) adds term j's coefficient draws
    times ``dx`` to outcome col's predictor alone.
    """
    slot, enters, std = slots
    fixed, varying = np.flatnonzero(slot == 0), np.flatnonzero(slot)
    n_slots = len(varying) + 1
    theta = np.asarray(theta, dtype=np.float64)
    loc = theta[..., None, design.loc_pos]
    sd = {j: np.exp(theta[..., design.scale_pos[j], None, None]) for j in enters}

    def block(b, switch=None):
        x = design.x[b]
        v = (x * loc) @ design.incidence
        coef = {j: x[:, j, None] * sd[j] for j in enters}
        parts = [(std[j][b], coef[j], enters[j]) for j in enters]
        if switch is not None:
            j, col, dx = switch
            v[..., col] += loc[..., j] * dx
            if j in sd:
                parts.append((std[j][b], dx[:, None] * sd[j], [slot[col]]))
        m, z, e, s = _softmax_slices([v[..., i, None] for i in fixed])
        lse = np.log(s)
        q = {i: ei / s for i, ei in zip(fixed, e)}
        if not parts:
            return v, coef, z, lse, q, None, None
        c = m + lse
        buf = np.empty((n_slots + 3, *v.shape[:-1], parts[0][0].shape[-1]))
        sl, top, tot = buf[:n_slots], buf[n_slots], buf[n_slots + 1]
        # the varying predictors less c: the location part plus each
        # term's draws (``top`` holds the draws)
        built = set()
        for draws, coef_j, enters_j in parts:
            np.multiply(draws, coef_j, out=top)
            for si in enters_j:
                if si in built:
                    sl[si] += top
                else:
                    np.add(v[..., varying[si - 1], None] - c, top, out=sl[si])
                    built.add(si)
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
        return v, coef, z, lse, q, c, buf

    return block


def _draw_means(block, slot, b, switch=None):
    """``block(b, switch)``'s slot probabilities at each draw (n_slots,
    nb, R), ones without draws, fixed shares and outcome probabilities
    averaged over the draws (nb, I)."""
    *_, lse, q, _, buf = block(b, switch)
    p = np.ones((1, *lse.shape)) if buf is None else buf[:np.count_nonzero(slot) + 1]
    p_slot = p.mean(axis=-1)
    return p, q, np.stack([p_slot[s] if s else q[i][..., 0] * p_slot[0]
                           for i, s in enumerate(slot)], axis=-1)


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

    With ``draws`` it is the mixed logit's simulated likelihood, the draw
    average of logit probabilities; without, the plain MNL.  ``y_index``
    (B, N), or (N,) for B = 1, overrides the design's encoded outcomes.

    The observations are evaluated in consecutive blocks of about
    ``draws.BLOCK_ELEMENTS`` (K * rows * R) elements per outcome, a constant, so
    results do not depend on the machine and working memory scales with
    the block, not with N * R.  Each block's probabilities come from
    :func:`_block_softmax`, and every call returns fresh outputs.  The
    draws' posterior weights are the observed outcome's probabilities
    ``p_y,r`` normalized over the draws, and ``ll = log(mean_r p_y,r)``
    (plus ``log q_y`` for a fixed outcome).  An observation whose
    ``p_y,r`` underflow at every draw is recomputed in the log domain, so
    its ``ll`` stays finite.
    """
    x = design.x
    inc = design.incidence
    y = np.atleast_2d(np.asarray(design.y_index if y_index is None else y_index, np.int64))
    # outcomes some term enters; only their probabilities reach the scores
    scored = np.flatnonzero(inc.any(axis=0))
    to_terms = inc[:, scored].T  # (S, T): the terms entering each
    term_sets = [np.flatnonzero(row) for row in to_terms]
    n_draws = 1 if draws is None else draws.n_draws
    slots = slot, enters, std = _slots(design, None if draws is None else draws.std)
    fixed, random, n_slots = np.flatnonzero(slot == 0), tuple(enters), np.count_nonzero(slot) + 1
    # below this draw sum of p_y,r, draws whose probability underflowed
    # would no longer weigh nothing against the others
    tiny = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
    gys = slot[y] if random else None  # the observed outcomes' slots

    def kernel(theta, rows, obs):
        k, t, p = theta.shape[0], x.shape[1], design.n_params
        shape = (k, design.n_obs) if obs else (k,)  # per observation, or their sums
        ll, scores = np.zeros(shape), np.zeros((*shape, p))
        hess = np.zeros((k, t, t)) if draws is None and not obs else None
        # a row whose mixing scale overflows has no finite simulated
        # likelihood: it is evaluated at zero instead and returned as -inf
        with np.errstate(over="ignore"):
            over = np.any([np.isinf(np.exp(theta[:, design.scale_pos[j]]))
                           for j in random], axis=0)
        if np.any(over):
            theta = np.where(over[:, None], 0.0, theta)
        sd = {j: np.exp(theta[:, design.scale_pos[j], None, None]) for j in random}
        block = _block_softmax(theta, design, slots)
        for b in _draws.blocks(design.n_obs, k * n_draws):
            yb = y[rows, b]  # (K, nb)
            sb = scores[:, b] if obs else np.empty((*yb.shape, p))
            v, coef, z, lse, q, c, buf = block(b)
            # log q_y: the observed outcome's log-share in the fixed group
            logq = z[0].copy()
            for f in range(1, len(z)):
                np.copyto(logq, z[f], where=(yb == fixed[f])[..., None])
            logq -= lse
            if not random:
                lb = logq[..., 0]
                ps = np.concatenate([q[i] for i in scored], axis=-1)
            else:
                kn = k * (b.stop - b.start)
                sl, top, tot, w = buf[:n_slots], buf[n_slots], buf[n_slots + 1], buf[-1]
                # p_y,r: the rows of the observed outcome's slot
                gy = gys[rows, b]
                np.take(sl.reshape(-1, n_draws), gy.ravel() * kn + np.arange(kn),
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
                lw = np.log(total)
                if low[0].size:
                    lw[low] += shift
                lw -= np.log(n_draws)
                lb = np.where(gy == 0, lw + logq[..., 0], lw)
                # draw-weighted mean probability of each slot, and of each
                # scored outcome: a fixed outcome's is its share of slot 0's
                pw = (w[..., None, :] @ sl[..., None])[..., 0, 0] / total  # (n_slots, K, nb)
                ps = np.stack([pw[slot[i]] if slot[i] else q[i][..., 0] * pw[0]
                               for i in scored], axis=-1)
            # probability mass of each term's outcome set, draw-weighted
            mass = x[b] * (ps @ to_terms)  # (K, nb, T)
            # the data part (x where y is in term t's set) less that mass
            sb[..., design.loc_pos] = x[b] * inc.T[yb] - mass
            for j in random:
                # sum_r w_r (1[y in set_j] - P_set_j,r) x_j sd_j std_j,r; the
                # products go to ``top``, so ``w`` stays intact for the next
                # term
                np.subtract(inc[j][yb][..., None], sl[enters[j][0]], out=top)
                for si in enters[j][1:]:
                    top -= sl[si]
                top *= w
                top *= std[j][b]
                sb[..., design.scale_pos[j]] = (
                    x[b, j] * (top.sum(axis=-1) / total) * sd[j][..., 0])
            if hess is not None:
                # d v_ni / d theta_t = x_nt inc_ti: the mass products, less
                # x_S' diag(p_i) x_S on the terms S entering each outcome i
                hess += mass.transpose(0, 2, 1) @ mass
                for i, terms in enumerate(term_sets):
                    xs = x[b, terms]
                    hess[:, terms[:, None], terms] -= (
                        (ps[..., i, None] * xs).transpose(0, 2, 1) @ xs)
            if obs:
                ll[:, b] = lb
            else:  # the running gradient enters the block's first observation,
                # so that N is summed in numpy's order over a whole (K, N, P) array
                with np.errstate(over="ignore", invalid="ignore"):
                    ll += lb.sum(axis=1)
                    sb[:, 0] += scores
                    scores = sb.sum(axis=1)
            # freed before the next block allocates its own, so that the
            # blocks take turns in one place in memory, which stays in cache
            buf = sl = top = tot = w = lb = sb = None
        ll[over], scores[over] = -np.inf, 0.0
        if hess is not None:  # the matmuls' rounding leaves it a few ulps from symmetric
            hess = 0.5 * (hess + hess.transpose(0, 2, 1))
        return (ll, scores) if obs else (ll, scores, hess)

    return families.checked(kernel, design, draws)


def make_objective(design: DesignMatrix, y_index: np.ndarray | None = None):
    """Log-likelihood closure ``theta -> (ll, grad)`` for all-fixed designs.

    ``y_index`` overrides the design's encoded outcomes; used when
    refitting the same covariates against simulated outcomes.
    """
    return families.summed(_kernel(design, None, y_index))


def mnl_loglik(theta: np.ndarray, design: DesignMatrix):
    """Log-likelihood and analytic gradient at ``theta``."""
    return make_objective(design)(theta)


def mnl_scores(theta: np.ndarray, design: DesignMatrix) -> np.ndarray:
    """Per-observation gradient contributions (N, P)."""
    return families.first_row(_kernel(design))(theta)[1]


def restricted_loglik(design: DesignMatrix) -> float:
    """Equal-shares log-likelihood N * ln(1/I)."""
    return design.n_obs * float(np.log(1.0 / design.n_outcomes))


def _separation(design: DesignMatrix, theta: np.ndarray) -> str | None:
    block = _block_softmax(theta, design, _slots(design, None))  # predictors per block
    vmax = max(float(np.abs(block(b)[0]).max()) for b in _draws.blocks(design.n_obs, 1))
    if vmax > SEPARATION_BOUND:
        return (f"linear predictors reach {vmax:.1f}; possible perfect "
                f"separation, estimates are not interior")
    return None


def fit_mnl(table: ObservationTable, spec: ModelSpec, **options) -> FitResult:
    """:func:`crashmle.families.fit` for family ``"mnl"`` (all terms fixed),
    with the same keyword options.

    A solution whose linear predictors exceed 30 in magnitude is
    reported as non-converged with a perfect-separation message: the
    likelihood is then maximized only in the limit of infinite
    coefficients and the gradient check is misleading.
    """
    if spec.family != "mnl":
        raise ValueError(f"fit_mnl expects family 'mnl', got {spec.family!r}")
    return families.fit(table, spec, **options)


def _prob_blocks(theta, design: DesignMatrix, std: tuple | None, rows=None):
    """The logit's outcome law: the outcome probabilities (nb, I) averaged
    over each random term's (N, R) draws ``std`` (None: fixed terms only), on
    each observation slice of ``rows``, by default the blocks of R draws a row."""
    slots = _slots(design, std)
    block = _block_softmax(theta, design, slots)
    for b in rows or _draws.blocks(design.n_obs, std[0].shape[1] if std else 1):
        yield _draw_means(block, slots[0], b)[2]


def _mean_probs(theta, design: DesignMatrix, draws=None,
                row: int | None = None) -> np.ndarray:
    """Outcome probabilities averaged over draws: (N, I), or (I,) for
    observation ``row`` alone; evaluated in observation blocks."""
    if row is not None and not 0 <= row < design.n_obs:
        raise IndexError(f"row {row} out of range for {design.n_obs} observations")
    out = np.concatenate(list(_prob_blocks(theta, design, None if draws is None else draws.std,
                                           None if row is None else [slice(row, row + 1)])))
    return out if row is None else out[0]


def _logit_effects(fit: FitResult, table: ObservationTable, variables,
                   pseudo: bool) -> EffectsReport:
    """Elasticities or indicator pseudo-elasticities of a logit fit.

    Probabilities and their derivatives are averaged over the draws the
    fit records, :func:`crashmle.families.fit_draws` (a plain logit has
    one draw), so coefficient heterogeneity propagates into the averaged
    effects.  The observations' effects are evaluated and summed in
    observation blocks, on the likelihood kernel's probabilities
    (:func:`_block_softmax`), and the sum is divided by N at the end.
    """
    design = build_design(table, fit.spec)
    draws = families.fit_draws(fit, design)
    theta = fit.theta_internal
    labels = design.outcome_labels
    triples = term_targets(design, variables)
    for var, j, _ in triples:
        x = design.x[:, j]
        if pseudo != bool(np.all((x == 0.0) | (x == 1.0))):
            raise ValueError(
                f"variable {var!r} is not a 0/1 indicator; use elasticities" if pseudo
                else f"variable {var!r} is a 0/1 indicator; use pseudo-elasticities")
    slots = _slots(design, None if draws is None else draws.std)
    slot, block = slots[0], _block_softmax(theta, design, slots)
    # the effects summed over the observations: (triple, outcome)
    values = np.zeros((len(triples), len(labels)))
    for b in _draws.blocks(design.n_obs, 1 if draws is None else draws.n_draws):
        p, q, p_bar = _draw_means(block, slot, b)
        p_sum = p.sum(axis=-1)  # (n_slots, nb)
        for t, (var, j, target) in enumerate(triples):
            x = design.x[b, j]
            col = labels.index(target)
            if pseudo:
                # switched in the target's predictor alone
                on = _draw_means(block, slot, b, (j, col, 1.0 - x))[2]
                off = _draw_means(block, slot, b, (j, col, -x))[2]
                each = np.ascontiguousarray(((on - off) / p_bar).T)
            else:
                # p_col,r, and the coefficient draws times it
                pc = p[slot[col]] if slot[col] else q[col] * p[0]
                bp = coefficient_draws(theta, design, draws, j, rows=b) * pc
                # cross: -x mean_r(p_i,r b_r p_col,r) / p_bar_i, the same for
                # every outcome of a slot (a fixed outcome's share cancels)
                cross = (p[:, :, None, :] @ bp[:, :, None])[..., 0, 0] / p_sum
                each = -x * cross[slot]
                each[col] = x * (bp * (1.0 - pc)).mean(axis=-1) / p_bar[:, col]
            # (outcome, observation), each outcome's row contiguous, so that
            # it is summed pairwise
            values[t] += each.sum(axis=-1)
        p = q = p_bar = p_sum = pc = bp = cross = each = on = off = None  # freed, as in _kernel
    values /= design.n_obs
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
    title="multinomial logit",
    kernel=_kernel,
    # one uniform per row, drawn block by block from the cumulative law
    law=lambda *args: (np.cumsum(p, axis=1) for p in _prob_blocks(*args)),
    draw=lambda cdf, natural, rng: simulate.draw_severity_outcomes(cdf, rng),
    start=lambda design: np.zeros(design.n_params),
    restricted_ll=lambda design, settings: restricted_loglik(design),
    effects={"elasticity": lambda fit, table, v: elasticities(fit, table, v),
             "pseudo": lambda fit, table, v: pseudo_elasticities(fit, table, v)},
    boundary=_separation)
