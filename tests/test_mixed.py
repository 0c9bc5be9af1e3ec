"""Mixed logit: Halton draws, mixing transforms, simulated likelihood."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from numpy.polynomial.hermite import hermgauss

from conftest import peak_beyond_outputs
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term, build_design
from crashmle.mixed import (
    DrawMatrix,
    Mixing,
    first_primes,
    fit_mixed_mnl,
    halton,
    is_prime,
    make_objective,
    mixed_effects,
    mixed_loglik,
    natural_from_internal,
    sign_share,
    simulated_prob,
    simulated_probs,
    transform_draws,
)
from crashmle import families, mnl
from crashmle.draws import BLOCK_ELEMENTS, blocks
from crashmle.mnl import elasticities, fit_mnl, mnl_probs, pseudo_elasticities
from crashmle.negbin import marginal_effects


def mixed_table(n=60, seed=3):
    rng = np.random.default_rng(seed)
    cols = {"x1": rng.normal(size=n), "x2": rng.normal(size=n)}
    labels = np.array(["a", "b", "base"])
    return ObservationTable(cols, labels[rng.integers(0, 3, size=n)], "severity")


MIXED_SPEC = ModelSpec("mixed_mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("x1", ("a",), "random_normal"), Term("x2", ("b",), "random_uniform")),
    ("a", "b", "base"), "base")


# ------------------------------------------------------------------ halton

def test_halton_base2_first_values():
    np.testing.assert_allclose(
        halton(2, 8),
        [1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8, 1 / 16], rtol=1e-15)


def test_halton_base3_first_values():
    np.testing.assert_allclose(
        halton(3, 6), [1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9, 2 / 9], rtol=1e-15)


def test_halton_skip_matches_slicing():
    np.testing.assert_array_equal(halton(2, 5, skip=10), halton(2, 15)[10:])
    np.testing.assert_array_equal(halton(5, 7, skip=3), halton(5, 10)[3:])


def halton_reference(base, count, skip=0):
    """The radical inverse digit by digit on int64 indices until every
    index is zero, as first written."""
    idx = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.zeros(count)
    f = 1.0
    while idx.any():
        f /= base
        out += f * (idx % base)
        idx //= base
    return out


@pytest.mark.parametrize("base, count, skip", [
    (2, 1, 0), (3, 1, 0), (5, 2, 0), (2, 7, 1), (3, 26, 0), (5, 125, 0),
    (2, 150_000, 10), (3, 150_000, 10), (5, 150_000, 10), (7, 1000, 12345),
    (2, 16, 2**31 - 8), (3, 16, 2**31 - 8), (5, 4, 2**40),
    # counts at the edges of the digit tables (2**16, 3**10, 5**6, 7**5)
    (2, 2**16 - 1, 0), (2, 2**16, 0), (2, 2**16 + 1, 0),
    (3, 3**10 - 1, 0), (3, 3**10, 0), (3, 3**10 + 1, 0),
    (5, 5**6 + 1, 0), (7, 7**5 - 1, 0), (7, 7**5 + 1, 3),
    # bases with a table of one digit, and of none
    (257, 257**2 + 1, 5), (65537, 1000, 65530),
])
def test_halton_is_bit_identical_to_the_reference(base, count, skip):
    assert halton(base, count, skip).tobytes() == \
        halton_reference(base, count, skip).tobytes()


def test_halton_values_strictly_inside_unit_interval():
    for base in (2, 3, 5):
        u = halton(base, 2000)
        assert u.min() > 0.0 and u.max() < 1.0


def test_halton_low_discrepancy_mean():
    assert abs(halton(2, 1000).mean() - 0.5) < 5e-3
    assert abs(halton(3, 1000).mean() - 0.5) < 5e-3


def test_halton_input_validation():
    with pytest.raises(ValueError, match="prime"):
        halton(4, 10)
    with pytest.raises(ValueError, match="count"):
        halton(2, 0)
    with pytest.raises(ValueError, match="skip"):
        halton(2, 10, skip=-1)


def test_prime_helpers():
    assert first_primes(6) == (2, 3, 5, 7, 11, 13)
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# ------------------------------------------------------------------ mixing

def test_transform_draws_normal_inverse_cdf():
    u = np.array([0.5, 0.975, 0.025])
    mix = Mixing("normal", 1.0, 2.0)
    out = transform_draws(u, mix)
    assert out[0] == pytest.approx(1.0)
    np.testing.assert_allclose(out, 1.0 + 2.0 * scipy.stats.norm.ppf(u), rtol=1e-12)


def test_transform_draws_uniform_support():
    mix = Mixing("uniform", 1.0, 0.5)
    out = transform_draws(np.array([0.5, 1e-9, 1.0 - 1e-9]), mix)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.5, abs=1e-6)
    assert out[2] == pytest.approx(1.5, abs=1e-6)


def test_transform_draws_rejects_boundary():
    with pytest.raises(ValueError, match="strictly inside"):
        transform_draws(np.array([0.0, 0.5]), Mixing("normal", 0.0, 1.0))


def test_mixing_validation():
    with pytest.raises(ValueError, match="dist"):
        Mixing("triangular", 0.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        Mixing("normal", 0.0, -1.0)


def test_sign_share_closed_forms():
    assert sign_share(Mixing("normal", -1.85, 2.65)) == pytest.approx(
        scipy.stats.norm.cdf(1.85 / 2.65), rel=1e-12)
    assert sign_share(Mixing("normal", 0.0, 1.0)) == pytest.approx(0.5)
    # uniform on [-1, 3]: a quarter of the support is negative
    assert sign_share(Mixing("uniform", 1.0, 2.0)) == pytest.approx(0.25)
    assert sign_share(Mixing("uniform", 5.0, 1.0)) == 0.0
    assert sign_share(Mixing("uniform", -5.0, 1.0)) == 1.0
    # degenerate scale collapses to a point mass
    assert sign_share(Mixing("normal", -2.0, 0.0)) == 1.0
    assert sign_share(Mixing("normal", 2.0, 0.0)) == 0.0


# ------------------------------------------------------------- draw matrix

def test_draw_matrix_blocks_come_from_the_dimension_sequence():
    dm = DrawMatrix(n_obs=3, n_draws=25, dists=("normal", "uniform"))
    u2 = halton(2, 3 * 25, skip=10).reshape(3, 25)
    u3 = halton(3, 3 * 25, skip=10).reshape(3, 25)
    np.testing.assert_allclose(dm.std[0], scipy.special.ndtri(u2), rtol=1e-12)
    np.testing.assert_allclose(dm.std[1], 2.0 * u3 - 1.0, rtol=1e-12)
    assert dm.primes == (2, 3)


def test_a_draw_matrix_build_peaks_one_chunk_above_its_output():
    # two C07-sized dimensions, 3000 x 500 draws each: the Halton indices,
    # digits and increments of a whole dimension would take 24 MB, its
    # uniforms and their transform 24 MB more; a build holds the digit
    # table (at most 2**16 doubles) and those of one chunk, the shift and
    # the inverse CDF work in place
    dists = ("normal", "uniform")
    dm, peak = peak_beyond_outputs(DrawMatrix, 3000, 500, dists, seed=3, shift=True)
    assert peak <= 8 * (1 << 16) + 3 * 8 * BLOCK_ELEMENTS
    # in place, every value is the one the whole-array arithmetic gives
    offsets = np.random.Generator(np.random.PCG64(3)).random(2)
    for d, (base, dist) in enumerate(zip((2, 3), dists)):
        u = np.clip(np.mod(halton(base, 3000 * 500, skip=10) + offsets[d], 1.0),
                    1e-12, 1.0 - 1e-12).reshape(3000, 500)
        want = scipy.special.ndtri(u) if dist == "normal" else 2.0 * u - 1.0
        assert dm.std[d].tobytes() == want.tobytes()


def test_draw_matrix_minimum_draws_enforced():
    with pytest.raises(ValueError, match="at least 25"):
        DrawMatrix(n_obs=2, n_draws=24, dists=("normal",))
    with pytest.raises(ValueError, match="^n_obs must be positive$"):
        DrawMatrix(n_obs=0, n_draws=25, dists=("normal",))


def test_draw_matrix_shift_is_seeded_and_deterministic():
    a = DrawMatrix(4, 25, ("normal",), seed=7, shift=True)
    b = DrawMatrix(4, 25, ("normal",), seed=7, shift=True)
    c = DrawMatrix(4, 25, ("normal",), seed=8, shift=True)
    plain = DrawMatrix(4, 25, ("normal",))
    np.testing.assert_array_equal(a.std[0], b.std[0])
    assert not np.array_equal(a.std[0], c.std[0])
    assert not np.array_equal(a.std[0], plain.std[0])


@pytest.mark.parametrize("shift", [False, True])
def test_draw_matrix_refuses_a_negative_seed(shift):
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        DrawMatrix(4, 25, ("normal",), seed=-1, shift=shift)


def test_draw_matrix_subset_keeps_each_observations_draws():
    dm = DrawMatrix(n_obs=10, n_draws=25, dists=("normal", "uniform"))
    flagged = np.arange(10) % 3 == 0
    for index, n in ((flagged, 4), (np.flatnonzero(~flagged), 6)):
        sub = dm.subset(index)
        assert (sub.n_obs, sub.n_draws, sub.dists) == (n, 25, dm.dists)
        for got, full in zip(sub.std, dm.std):
            np.testing.assert_array_equal(got, full[index])
    assert dm.n_obs == 10 and dm.std[0].shape == (10, 25)


def test_draw_matrix_for_design():
    table = mixed_table(10)
    design = build_design(table, MIXED_SPEC)
    dm = DrawMatrix.for_design(design, 30)
    assert dm.dists == ("normal", "uniform")
    assert dm.n_obs == 10 and dm.n_draws == 30
    plain = build_design(table, ModelSpec(
        "mnl", (Term("x1", ("a",)),), ("a", "b", "base"), "base"))
    with pytest.raises(ValueError, match="no random terms"):
        DrawMatrix.for_design(plain, 30)


# ----------------------------------------------------- simulated likelihood

def theta_mixed(loc_x1=1.0, sd_x1=0.5, loc_x2=-0.6, spread_x2=0.8):
    # packing: constant[a], constant[b], x1 loc, x1 log sd, x2 loc, x2 log spread
    return np.array([0.3, 0.2, loc_x1, np.log(sd_x1), loc_x2, np.log(spread_x2)])


def test_simulated_probs_rows_sum_to_one():
    design = build_design(mixed_table(20), MIXED_SPEC)
    draws = DrawMatrix.for_design(design, 50)
    p = simulated_probs(theta_mixed(), design, draws)
    assert p.shape == (20, 3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
    for row in (0, 7, 19):
        np.testing.assert_allclose(simulated_prob(theta_mixed(), design, row, draws),
                                   p[row], rtol=1e-12)


def test_simulated_probs_collapse_to_mnl_at_tiny_scale():
    table = mixed_table(25)
    design = build_design(table, MIXED_SPEC)
    draws = DrawMatrix.for_design(design, 50)
    theta = theta_mixed(sd_x1=np.exp(-30), spread_x2=np.exp(-30))
    theta[3] = theta[5] = -30.0

    plain_spec = ModelSpec("mnl", (
        Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
        Term("x1", ("a",)), Term("x2", ("b",))), ("a", "b", "base"), "base")
    plain = build_design(table, plain_spec)
    p_plain = mnl_probs(np.array([0.3, 0.2, 1.0, -0.6]), plain)
    p_mixed = simulated_probs(theta, design, draws)
    np.testing.assert_allclose(p_mixed, p_plain, atol=1e-12)


def test_simulated_prob_matches_gauss_hermite_oracle():
    # one normal random coefficient: the mixture integral has a GH form
    spec = ModelSpec("mixed_mnl", (
        Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
        Term("x1", ("a",), "random_normal")), ("a", "b", "base"), "base")
    table = ObservationTable({"x1": [1.3, -0.7]}, np.array(["a", "b"]), "severity")
    design = build_design(table, spec)
    theta = np.array([0.3, 0.2, 1.0, np.log(2.0)])
    draws = DrawMatrix.for_design(design, 20000)
    p = simulated_prob(theta, design, 0, draws)

    nodes, weights = hermgauss(64)
    expected = np.zeros(3)
    for node, w in zip(nodes, weights):
        beta = 1.0 + 2.0 * np.sqrt(2.0) * node
        v = np.array([0.3 + beta * 1.3, 0.2, 0.0])
        e = np.exp(v - v.max())
        expected += w * e / e.sum()
    expected /= np.sqrt(np.pi)
    np.testing.assert_allclose(p, expected, atol=2e-4)


def assert_gradient_matches_central_differences(objective, theta, h=1e-6):
    _, grad = objective(theta)
    fd = np.empty_like(grad)
    for k in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd[k] = (objective(up)[0] - objective(dn)[0]) / (2.0 * h)
    np.testing.assert_allclose(grad, fd, rtol=2e-6, atol=1e-8)


def test_mixed_gradient_matches_central_differences():
    design = build_design(mixed_table(30), MIXED_SPEC)
    draws = DrawMatrix.for_design(design, 40)
    objective = make_objective(design, draws)
    rng = np.random.default_rng(4)
    for _ in range(3):
        theta = theta_mixed(*rng.uniform(0.3, 1.2, size=4))
        assert_gradient_matches_central_differences(objective, theta)


def test_mixed_loglik_wrapper_returns_objective_value():
    design = build_design(mixed_table(15), MIXED_SPEC)
    draws = DrawMatrix.for_design(design, 30)
    ll, grad = mixed_loglik(theta_mixed(), design, draws)
    assert np.isfinite(ll) and grad.shape == (6,)
    p = simulated_probs(theta_mixed(), design, draws)
    chosen = p[np.arange(15), design.y_index]
    assert ll == pytest.approx(np.log(chosen).sum(), rel=1e-12)


def test_natural_from_internal_applies_delta_method():
    spec = ModelSpec("mixed_mnl", (Term("x1", ("a",), "random_normal"),),
                     ("a", "b"), "b")
    design = build_design(
        ObservationTable({"x1": [0.5]}, np.array(["a"]), "severity"), spec)
    internal = np.array([1.0, np.log(0.5)])
    cov = np.diag([0.04, 0.09])
    natural, cov_nat = natural_from_internal(internal, design, cov)
    np.testing.assert_allclose(natural, [1.0, 0.5])
    # se of s = exp(log s) is s * se(log s)
    np.testing.assert_allclose(np.sqrt(np.diag(cov_nat)), [0.2, 0.5 * 0.3])


# ---------------------------------------------------------------- fitting

def test_fit_mixed_reports_natural_scales():
    table = mixed_table(150, seed=8)
    fit = fit_mixed_mnl(table, MIXED_SPEC, n_draws=25)
    assert fit.param_names == ("constant[a]", "constant[b]",
                               "x1[a]", "x1[a]:sd", "x2[b]", "x2[b]:spread")
    assert fit.coef("x1[a]:sd") > 0
    assert fit.coef("x2[b]:spread") > 0
    idx = fit.param_names.index("x1[a]:sd")
    assert fit.coef("x1[a]:sd") == pytest.approx(np.exp(fit.theta_internal[idx]))
    assert fit.n_draws == 25 and fit.seed == 0
    assert fit.ll_restricted == pytest.approx(150 * np.log(1 / 3))


def test_fit_mixed_requires_mixed_family():
    table = mixed_table(30)
    plain = ModelSpec("mnl", (Term("x1", ("a",)),), ("a", "b", "base"), "base")
    with pytest.raises(ValueError, match="mixed_mnl"):
        fit_mixed_mnl(table, plain, n_draws=25)
    with pytest.raises(ValueError, match="^fit_mnl expects family 'mnl', got 'mixed_mnl'$"):
        fit_mnl(table, MIXED_SPEC)


def test_a_mixed_fit_without_a_draw_count_names_it():
    with pytest.raises(ValueError, match="mixed families require n_draws"):
        fit_mixed_mnl(mixed_table(), MIXED_SPEC, n_draws=None)
    # nor are the draws of a mixed fit that records no count rebuilt
    design = build_design(mixed_table(), MIXED_SPEC)
    with pytest.raises(ValueError, match="^fit carries no draw count; was it a mixed fit\\?$"):
        families.fit_draws(SimpleNamespace(spec=MIXED_SPEC, n_draws=None), design)


# ----------------------------------------------------------------- effects

def test_mixed_effects_match_plain_elasticities_at_tiny_scale():
    rng = np.random.default_rng(12)
    n = 80
    table = ObservationTable({"x1": rng.normal(size=n), "x2": rng.normal(size=n)},
                             np.array(["a", "b", "base"])[rng.integers(0, 3, n)],
                             "severity")
    plain_spec = ModelSpec("mnl", (
        Term(CONSTANT, ("a",)), Term("x1", ("a",)), Term("x2", ("b",))),
        ("a", "b", "base"), "base")
    plain_fit = fit_mnl(table, plain_spec)

    from crashmle.optimize import summarize
    mixed_spec = ModelSpec("mixed_mnl", (
        Term(CONSTANT, ("a",)), Term("x1", ("a",), "random_normal"),
        Term("x2", ("b",))), ("a", "b", "base"), "base")
    beta = plain_fit.theta_internal
    internal = np.array([beta[0], beta[1], -30.0, beta[2]])
    natural = np.array([beta[0], beta[1], np.exp(-30.0), beta[2]])
    frozen = summarize(natural, None, plain_fit.ll_converged,
                       plain_fit.ll_restricted,
                       param_names=("constant[a]", "x1[a]", "x1[a]:sd", "x2[b]"),
                       converged=True, iterations=0, n_obs=n, family="mixed_mnl",
                       theta_internal=internal, spec=mixed_spec,
                       n_draws=60, seed=0)

    mixed_report = mixed_effects(frozen, table, ["x1", "x2"])
    plain_report = elasticities(plain_fit, table, ["x1", "x2"])
    mixed_vals = {(r.variable, r.target, r.outcome): r.value
                  for r in mixed_report.rows}
    for r in plain_report.rows:
        assert mixed_vals[(r.variable, r.target, r.outcome)] == pytest.approx(
            r.value, abs=1e-9)


EFFECTS_SPEC = ModelSpec("mixed_mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("x1", ("a",), "random_normal"), Term("d1", ("a", "b"), "random_uniform"),
    Term("x2", ("c",)), Term("d2", ("c",))), ("a", "b", "c", "base"), "base")


def dense_effects(design, draws, theta, variables, pseudo):
    """{(variable, target, outcome): effect} from whole (N, R, I) arrays:
    each draw's logit probabilities over every outcome; a pseudo switch
    adds the term's coefficient draws to the target's predictor alone."""
    x, inc, labels = design.x, design.incidence, design.outcome_labels
    beta = [np.full((design.n_obs, draws.n_draws), theta[pos])
            for pos in design.loc_pos]
    for dim, j in enumerate(design.random_terms):
        beta[j] = beta[j] + np.exp(theta[design.scale_pos[j]]) * draws.std[dim]
    v = sum((x[:, j, None] * beta[j])[..., None] * inc[j] for j in range(len(beta)))

    def softmax(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    p = softmax(v)
    p_bar = p.mean(axis=1)
    out = {}
    for j, term in enumerate(design.spec.terms):
        if term.variable not in variables:
            continue
        for target in term.outcomes:
            col = labels.index(target)
            if pseudo:
                v_on, v_off = v.copy(), v.copy()
                v_on[..., col] += beta[j] * (1.0 - x[:, j, None])
                v_off[..., col] -= beta[j] * x[:, j, None]
                each = (softmax(v_on) - softmax(v_off)).mean(axis=1) / p_bar
            else:
                kron = np.arange(len(labels)) == col
                dp = (p * (beta[j] * x[:, j, None])[..., None]
                      * (kron - p[..., col, None])).mean(axis=1)
                each = dp / p_bar
            for i, label in enumerate(labels):
                out[(term.variable, target, label)] = each[:, i].mean()
    return out


@pytest.mark.parametrize("pseudo, variables", [(False, ["x1", "x2"]),
                                                (True, ["d1", "d2"])])
def test_mixed_effects_match_a_dense_evaluation(pseudo, variables):
    # a normal random x1 on a, a uniform random indicator d1 tied across a
    # and b, a fixed x2 and a fixed indicator d2 on the fixed outcome c
    rng = np.random.default_rng(21)
    n = 70
    table = ObservationTable(
        {"x1": rng.normal(size=n), "x2": rng.normal(size=n),
         "d1": rng.integers(0, 2, n).astype(float),
         "d2": rng.integers(0, 2, n).astype(float)},
        np.array(["a", "b", "c", "base"])[rng.integers(0, 4, n)], "severity")
    design = build_design(table, EFFECTS_SPEC)
    theta = np.array([0.3, -0.2, 0.8, np.log(1.2), -0.6, np.log(0.9), 0.5, 0.7])
    natural, _ = natural_from_internal(theta, design)
    from crashmle.optimize import summarize
    fit = summarize(natural, None, -1.0, -2.0, param_names=design.param_names,
                    converged=True, iterations=0, n_obs=n, family="mixed_mnl",
                    theta_internal=theta, spec=EFFECTS_SPEC, n_draws=40, seed=0)
    draws = DrawMatrix.for_design(design, 40)
    report = mixed_effects(fit, table, variables, pseudo=pseudo)
    want = dense_effects(design, draws, theta, variables, pseudo)
    got = {(r.variable, r.target, r.outcome): r.value for r in report.rows}
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_mixed_effects_requires_mixed_fit():
    table = mixed_table(40)
    plain_spec = ModelSpec("mnl", (Term("x1", ("a",)),), ("a", "b", "base"), "base")
    fit = fit_mnl(table, plain_spec)
    with pytest.raises(ValueError, match="mixed"):
        mixed_effects(fit, table)
    # and the plain families' effects refuse a fit of another family
    with pytest.raises(ValueError, match="^marginal_effects requires an nb or mixed_nb fit$"):
        marginal_effects(fit, table)
    mixed_fit = SimpleNamespace(spec=MIXED_SPEC)
    for effects in (elasticities, pseudo_elasticities):
        with pytest.raises(ValueError, match=f"^{effects.__name__} requires a plain mnl fit; "
                                             f"use mixed_effects for mixed fits$"):
            effects(mixed_fit, table)


# ------------------------------------------------- blocked logit kernel

def dense_logit(design, draws, y, theta):
    """(K, N) log-likelihoods and (K, N, P) scores from whole (K, N, R, I)
    arrays; R = 1 without draws."""
    x, inc = design.x, design.incidence
    k, n = theta.shape[0], design.n_obs
    r = 1 if draws is None else draws.n_draws
    v = np.repeat(((x * theta[:, None, design.loc_pos]) @ inc)[:, :, None, :], r, axis=2)
    for dim, j in enumerate(design.random_terms):
        beta = np.exp(theta[:, design.scale_pos[j], None, None]) * draws.std[dim]
        v += (x[:, j, None] * beta)[..., None] * inc[j]
    v -= v.max(axis=-1, keepdims=True)
    logp = v - np.log(np.exp(v).sum(axis=-1, keepdims=True))
    logl = np.take_along_axis(logp, y[:, :, None, None], axis=-1)[..., 0]  # (K, N, R)
    top = logl.max(axis=-1, keepdims=True)
    lik = np.exp(logl - top)
    ll = top[..., 0] + np.log(lik.mean(axis=-1))
    w = lik / lik.sum(axis=-1, keepdims=True)
    # d logl / d v_t: 1 if y is in term t's set, less the set's probability
    d = inc.T[y][:, :, None, :] - np.exp(logp) @ inc.T  # (K, N, R, T)
    scores = np.empty((k, n, design.n_params))
    scores[..., design.loc_pos] = x * (w[..., None] * d).sum(axis=2)
    for dim, j in enumerate(design.random_terms):
        scale = np.exp(theta[:, design.scale_pos[j], None])
        scores[..., design.scale_pos[j]] = x[:, j] * scale * (
            w * d[..., j] * draws.std[dim]).sum(axis=-1)
    return ll, scores


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


SHARED_SPEC = ModelSpec("mixed_mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("x1", ("a",), "random_normal"), Term("x2", ("a", "b"), "random_uniform"),
    Term("x2", ("c",))), ("a", "b", "c", "base"), "base")


def shared_case(n, n_draws, k=3, seed=0):
    """A design whose normal and uniform random terms share outcome a, K
    parameter rows around a point and K distinct outcome rows."""
    rng = np.random.default_rng(seed)
    labels = np.array(["a", "b", "c", "base"])
    table = ObservationTable({"x1": rng.normal(size=n), "x2": rng.normal(size=n)},
                             labels[rng.integers(0, 4, size=n)], "severity")
    design = build_design(table, SHARED_SPEC)
    draws = DrawMatrix.for_design(design, n_draws)
    theta = np.array([0.3, -0.2, 0.8, np.log(1.5), -0.5, np.log(0.7), 0.4])
    theta = theta + 0.2 * rng.normal(size=(k, theta.size))
    y = rng.integers(0, 4, size=(k + 1, n))
    return design, draws, y, theta


@pytest.mark.parametrize("rows_of", [lambda step: 1, lambda step: step // 2,
                                     lambda step: 2 * step, lambda step: 2 * step + 1])
def test_blocked_kernel_matches_a_dense_evaluation(rows_of):
    # K = 3 rows evaluated against outcome rows 3, 0 and 2
    n_draws, pick = 40, np.array([3, 0, 2])
    n = rows_of(BLOCK_ELEMENTS // (len(pick) * n_draws))
    design, draws, y, theta = shared_case(n, n_draws, k=len(pick))
    ll, scores = mnl._kernel(design, draws, y)(theta, pick, obs=True)
    want_ll, want_scores = dense_logit(design, draws, y[pick], theta)
    assert ll.shape == (3, n) and scores.shape == (3, n, design.n_params)
    assert_close(ll, want_ll)
    assert_close(scores, want_scores)


def test_blocked_kernel_matches_a_dense_evaluation_without_draws():
    spec = ModelSpec("mnl", tuple(replace(t, kind="fixed") for t in SHARED_SPEC.terms),
                     SHARED_SPEC.outcomes, "base")
    for n in (1, 2 * (BLOCK_ELEMENTS // 3) + 1):
        case, _, y, theta = shared_case(n, 25)
        design = build_design(case.table, spec)
        theta = theta[:, [0, 1, 2, 4, 6]]
        kernel = mnl._kernel(design, None, y)
        (ll, scores), hess = kernel(theta, slice(1, 4), obs=True), kernel(theta, slice(1, 4))[2]
        want_ll, want_scores = dense_logit(design, None, y[1:4], theta)
        assert_close(ll, want_ll)
        assert_close(scores, want_scores)
        # the Hessian as the whole-array formula: x x' paired per outcome
        x, inc, t = design.x, design.incidence, design.x.shape[1]
        p = np.stack([mnl.mnl_probs(row, design) for row in theta])
        m = x * (p @ inc.T)
        xx = (x[:, :, None] * x[:, None, :]).reshape(-1, t * t)
        ii = (inc.T[:, :, None] * inc.T[:, None, :]).reshape(-1, t * t)
        pdd = (p.transpose(0, 2, 1) @ xx * ii).sum(axis=1).reshape(3, t, t)
        assert_close(hess, m.transpose(0, 2, 1) @ m - pdd)


def test_logit_blocks_may_come_in_any_order():
    design, draws, _, theta = shared_case(2 * (BLOCK_ELEMENTS // 30), 30, k=1)
    slots = mnl._slots(design, draws.std)
    short, full = slice(5, 8), next(blocks(design.n_obs, draws.n_draws))
    block = mnl._block_softmax(theta[0], design, slots)
    p_short, _, short_first = mnl._draw_means(block, slots[0], short)
    kept = p_short.copy()
    p_full, _, full_second = mnl._draw_means(block, slots[0], full)
    np.testing.assert_array_equal(p_short, kept)  # the full block has arrays of its own
    assert not np.shares_memory(p_short, p_full)
    block = mnl._block_softmax(theta[0], design, slots)
    full_first = mnl._draw_means(block, slots[0], full)[2]
    short_second = mnl._draw_means(block, slots[0], short)[2]
    np.testing.assert_array_equal(short_first, short_second)
    np.testing.assert_array_equal(full_first, full_second)
    probs = mnl._mean_probs(theta[0], design, draws)
    np.testing.assert_array_equal(full_first, probs[full])
    np.testing.assert_array_equal(short_first, probs[short])


def test_kernel_rescues_observations_improbable_at_every_draw():
    # a constant of 800 on outcome a leaves every other outcome a
    # probability of about e^-800 at every draw, far below the smallest
    # double; each outcome, fixed (c, base) and varying (a, b), is observed
    design, draws, _, theta = shared_case(12, 30, k=1)
    theta[0, 0] = 800.0
    y = np.arange(12) % 4
    ll, scores = mnl._kernel(design, draws, y)(theta, slice(0, 1), obs=True)
    want_ll, want_scores = dense_logit(design, draws, y[None], theta)
    assert np.all(want_ll[0, y != 0] < np.log(1e-300))
    assert np.all(np.isfinite(ll)) and np.all(np.isfinite(scores))
    assert_close(ll, want_ll)
    assert_close(scores, want_scores)


def test_kernel_at_a_plateau_scale_matches_a_dense_evaluation():
    # mixing scales of 1e11, where the 2k-row benchmark fits stop: at
    # nearly every draw one outcome takes all the probability
    design, draws, y, theta = shared_case(50, 30, k=2)
    theta[:, [3, 5]] = np.log(1e11)
    ll, scores = mnl._kernel(design, draws, y)(theta, [2, 0], obs=True)
    want_ll, want_scores = dense_logit(design, draws, y[[2, 0]], theta)
    assert np.all(np.isfinite(ll))
    assert_close(ll, want_ll)
    assert_close(scores, want_scores)


def test_an_overflowing_mixing_scale_gives_minus_infinity():
    # exp(720) overflows: a line search that tries such a log-scale gets
    # -inf back, without an overflow or invalid-value warning
    design, draws, y, theta = shared_case(50, 30, k=2)
    theta[0, 3] = 720.0
    ll, grad = make_objective(design, draws, y[0])(theta[0])
    assert ll == -np.inf and not grad.any()
    # in a stack of rows only that row is -inf; the other is as if alone
    kernel = mnl._kernel(design, draws, y)
    ll, scores = kernel(theta, np.array([0, 2]), obs=True)
    alone = kernel(theta[1:], np.array([2]), obs=True)
    assert np.all(ll[0] == -np.inf) and not scores[0].any()
    np.testing.assert_array_equal(ll[1:], alone[0])
    np.testing.assert_array_equal(scores[1:], alone[1])


def test_shared_outcome_gradient_matches_central_differences():
    # two random terms enter outcome a, and the uniform one also enters b
    design, draws, y, theta = shared_case(40, 30, k=1)
    assert_gradient_matches_central_differences(
        make_objective(design, draws, y[1]), theta[0])


def evaluation_peak(n, n_draws=500):
    """Memory peak of one evaluation beyond its outputs."""
    design, draws, y, theta = shared_case(n, n_draws, k=1)
    return peak_beyond_outputs(mnl._kernel(design, draws, y[0]), theta, slice(0, 1))[1]


def test_kernel_memory_scales_with_the_block_not_with_n_times_r():
    # a C07-sized evaluation (N = 3000, R = 500): one whole (N, R) slice
    # per outcome would take 12 MB
    peak = evaluation_peak(3000)
    assert peak < 12e6
    # beyond the (K, N) and (K, N, P) outputs, doubling N adds nothing
    # (4 kB allow for the interpreter's own allocations)
    assert evaluation_peak(6000) <= peak + 4096
