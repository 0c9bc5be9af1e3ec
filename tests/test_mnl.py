"""Multinomial logit: probabilities, likelihood, fitting, elasticities."""


from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from conftest import peak_beyond_outputs
from crashmle import families, mnl
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term, build_design
from crashmle.draws import BLOCK_ELEMENTS
from crashmle.mnl import (
    SEPARATION_BOUND,
    elasticities,
    fit_mnl,
    make_objective,
    mnl_loglik,
    mnl_prob,
    mnl_probs,
    pseudo_elasticities,
    restricted_loglik,
)


def binary_table(n=200, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    p = 1.0 / (1.0 + np.exp(-(0.4 + 0.9 * x)))
    y = np.where(rng.random(n) < p, "yes", "no")
    return ObservationTable({"x": x}, y, "severity")


BINARY_SPEC = ModelSpec("mnl", (Term(CONSTANT, ("yes",)), Term("x", ("yes",))),
                        ("yes", "no"), "no")


def three_outcome_table(n=400, seed=2):
    rng = np.random.default_rng(seed)
    cols = {"x1": rng.normal(size=n), "x2": rng.normal(size=n),
            "flag": (rng.random(n) < 0.4).astype(float)}
    v = np.stack([0.3 + 0.8 * cols["x1"] - 0.5 * cols["x2"] + 0.7 * cols["flag"],
                  -0.2 + 0.8 * cols["x1"],
                  np.zeros(n)], axis=1)
    e = np.exp(v - v.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    u = rng.random(n)
    y_idx = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    labels = np.array(["a", "b", "base"])
    return ObservationTable(cols, labels[y_idx], "severity")


THREE_SPEC = ModelSpec("mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("x1", ("a", "b")), Term("x2", ("a",)), Term("flag", ("a",))),
    ("a", "b", "base"), "base")


def softmax_rows(v):
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# --------------------------------------------------------- probabilities

def test_binary_probabilities_match_logistic_closed_form():
    table = binary_table(50)
    design = build_design(table, BINARY_SPEC)
    theta = np.array([0.4, 0.9])
    probs = mnl_probs(theta, design)
    expected = 1.0 / (1.0 + np.exp(-(0.4 + 0.9 * table.columns["x"])))
    np.testing.assert_allclose(probs[:, 0], expected, rtol=1e-12)
    np.testing.assert_allclose(probs[:, 1], 1.0 - expected, rtol=1e-12)


def test_probabilities_sum_to_one_and_match_row_accessor():
    design = build_design(three_outcome_table(60), THREE_SPEC)
    theta = np.array([0.3, -0.2, 0.8, -0.5, 0.7])
    probs = mnl_probs(theta, design)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(probs > 0)
    for row in (0, 17, 59):
        np.testing.assert_allclose(mnl_prob(theta, design, row), probs[row],
                                   rtol=1e-15)
    for row in (-1, 60):
        with pytest.raises(IndexError, match=f"row {row} out of range for 60"):
            mnl_prob(theta, design, row)


def test_loglik_matches_direct_recomputation():
    table = three_outcome_table(80)
    design = build_design(table, THREE_SPEC)
    theta = np.array([0.1, 0.2, -0.3, 0.4, -0.1])
    ll, _ = mnl_loglik(theta, design)
    p = softmax_rows(design.linear_predictors(theta))
    expected = np.log(p[np.arange(80), design.y_index]).sum()
    assert ll == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_central_differences():
    design = build_design(three_outcome_table(60), THREE_SPEC)
    objective = make_objective(design)
    rng = np.random.default_rng(5)
    for _ in range(5):
        theta = rng.normal(scale=0.5, size=design.n_params)
        _, grad = objective(theta)
        fd = np.empty_like(grad)
        h = 1e-6
        for k in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (objective(up)[0] - objective(dn)[0]) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def twelve_term_design(n, seed=4):
    """A 12-term design over four outcomes whose terms enter different
    outcome sets: one, two or three of the non-base outcomes."""
    rng = np.random.default_rng(seed)
    cols = {f"x{j}": rng.normal(size=n) for j in range(12)}
    labels = np.array(["a", "b", "c", "base"])[rng.integers(0, 4, n)]
    sets = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "b", "c")]
    terms = tuple(Term(f"x{j}", sets[j % len(sets)]) for j in range(12))
    return build_design(ObservationTable(cols, labels, "severity"),
                        ModelSpec("mnl", terms, ("a", "b", "c", "base"), "base"))


def test_stacked_hessians_match_the_covariate_product_formula():
    design = twelve_term_design(500)
    theta = np.random.default_rng(6).normal(scale=0.3, size=(3, design.n_params))
    _, _, hess = mnl._kernel(design)(theta, np.zeros(3, dtype=np.int64))
    # sum over observations of m m' - sum_i p_i (x * inc_i)(x * inc_i)', with
    # m = x * (inc @ p) the probability mass of each term's outcome set
    x, inc = design.x, design.incidence
    p = np.stack([softmax_rows(design.linear_predictors(th)) for th in theta])
    mass = x * (p @ inc.T)
    xi = x[:, None, :] * inc.T[None]  # (N, I, T)
    expected = (mass.transpose(0, 2, 1) @ mass
                - np.einsum("kni,nit,niu->ktu", p, xi, xi))
    for h, ref in zip(hess, expected):
        np.testing.assert_allclose(h, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert np.array_equal(hess, hess.transpose(0, 2, 1))


def test_the_hessian_needs_no_covariate_product_array():
    # a (rows, T^2) temporary would be 12x the (rows, T) arrays of a call
    # without the Hessian
    design = twelve_term_design(40_000)
    kernel = mnl._kernel(design)
    theta, rows = np.full((1, design.n_params), 0.05), np.zeros(1, dtype=np.int64)
    # a per-observation call has no Hessian; a summed call has
    peaks = {hessian: peak_beyond_outputs(kernel, theta, rows, obs=not hessian)[1]
             for hessian in (False, True)}
    assert peaks[True] <= 1.5 * peaks[False], peaks


def test_building_the_kernel_allocates_no_rows_by_observations_by_terms_array():
    # four outcome rows over 40,000 observations and twelve terms: the
    # score's data part for all of them at once would take 15 MB, and as
    # much again to build; a kernel holds the outcome rows and each block
    # forms its own data part
    design = twelve_term_design(40_000)
    y = np.stack([np.roll(design.y_index, s) for s in range(4)])
    kernel, peak = peak_beyond_outputs(mnl._kernel, design, None, y)
    assert peak < 2 * y.nbytes
    theta = np.full((2, design.n_params), 0.05)
    ll, scores = kernel(theta, np.array([3, 1]), obs=True)
    for got, row in zip(scores, (3, 1)):
        np.testing.assert_array_equal(got, mnl._kernel(design, None, y[row])(
            theta[:1], slice(0, 1), obs=True)[1][0])


def test_restricted_loglik_equal_shares():
    design = build_design(three_outcome_table(90), THREE_SPEC)
    assert restricted_loglik(design) == pytest.approx(90 * np.log(1.0 / 3.0))


# ----------------------------------------------------------------- fitting

def test_fit_matches_independent_optimizer():
    table = binary_table(300)
    design = build_design(table, BINARY_SPEC)
    fit = fit_mnl(table, BINARY_SPEC)
    assert fit.converged

    x = table.columns["x"]
    y = (table.outcome == "yes").astype(float)

    def nll(theta):
        v = theta[0] + theta[1] * x
        return -(y * v - np.logaddexp(0.0, v)).sum()

    ref = scipy.optimize.minimize(nll, np.zeros(2), method="BFGS")
    np.testing.assert_allclose(fit.theta_hat, ref.x, atol=1e-5)
    assert fit.ll_converged == pytest.approx(-ref.fun, rel=1e-10)
    assert fit.ll_restricted == pytest.approx(300 * np.log(0.5))
    assert 0.0 < fit.mcfadden_rho2 < 1.0


def test_fit_reports_tied_coefficient_once():
    fit = fit_mnl(three_outcome_table(), THREE_SPEC)
    assert fit.converged
    assert fit.param_names == ("constant[a]", "constant[b]", "x1[a+b]",
                               "x2[a]", "flag[a]")
    assert np.all(np.isfinite(fit.standard_errors))


def test_fit_recovers_truth_roughly():
    fit = fit_mnl(three_outcome_table(4000, seed=9), THREE_SPEC)
    truth = {"constant[a]": 0.3, "constant[b]": -0.2, "x1[a+b]": 0.8,
             "x2[a]": -0.5, "flag[a]": 0.7}
    for name, value in truth.items():
        assert abs(fit.coef(name) - value) < 4.0 * fit.se(name)


def test_separation_is_flagged():
    x = np.array([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])
    y = np.array(["no", "no", "no", "yes", "yes", "yes"])
    table = ObservationTable({"x": x}, y, "severity")
    fit = fit_mnl(table, BINARY_SPEC)
    assert not fit.converged
    assert "separation" in fit.message
    lp = build_design(table, BINARY_SPEC).linear_predictors(fit.theta_internal)
    assert np.max(np.abs(lp)) > SEPARATION_BOUND


def test_separation_check_peaks_the_same_at_twice_the_observations():
    # the check reads the logit's predictors block by block: the (N, I)
    # predictors of every observation at once would take 1.6 MB more at
    # four blocks than at two
    theta = np.array([0.3, -0.2, 0.8, -0.5, 0.7])
    peaks = {}
    for n_blocks in (2, 4):
        design = build_design(three_outcome_table(n_blocks * BLOCK_ELEMENTS), THREE_SPEC)
        peaks[n_blocks] = peak_beyond_outputs(mnl._separation, design, theta)[1]
    assert peaks[4] <= peaks[2] + 8 * BLOCK_ELEMENTS


def test_a_plain_ascent_peaks_the_same_at_twice_the_observations():
    # beyond the design, built before the call here, maximize_rows holds
    # per observation no kernel outputs, no copy of the outcomes and no
    # separation predictors: its kernel sums each block as it goes
    family = families.REGISTRY["mnl"]
    peaks = {}
    for n_blocks in (2, 4):
        design = build_design(three_outcome_table(n_blocks * BLOCK_ELEMENTS), THREE_SPEC)
        res, peaks[n_blocks] = peak_beyond_outputs(
            families.maximize_rows, family, design, None, family.start(design)[None])
        assert res.converged[0]
    assert peaks[4] <= peaks[2] + 8 * BLOCK_ELEMENTS


@pytest.mark.parametrize("effects, variables", [(elasticities, ["x1", "x2"]),
                                                (pseudo_elasticities, ["flag"])],
                         ids=["elasticity", "pseudo"])
def test_logit_effects_hold_one_block_at_a_time(monkeypatch, effects, variables):
    # a block's arrays are freed before the next block allocates its own, so
    # beyond the design, built before the call here, two blocks peak as one
    fit = SimpleNamespace(spec=THREE_SPEC,
                          theta_internal=np.array([0.3, -0.2, 0.8, -0.5, 0.7]))
    peaks = {}
    for n_blocks in (1, 2):
        table = three_outcome_table(n_blocks * BLOCK_ELEMENTS)
        design = build_design(table, THREE_SPEC)
        monkeypatch.setattr(mnl, "build_design", lambda *_, d=design: d)
        peaks[n_blocks] = peak_beyond_outputs(effects, fit, table, variables)[1]
    assert peaks[2] <= peaks[1] + 8 * BLOCK_ELEMENTS


# ------------------------------------------------------------ elasticities

def elasticity_fd(table, spec, theta, var, term_index, target, h=1e-6):
    """d ln P / d ln x by central differences, perturbing one equation."""
    design = build_design(table, spec)
    col = design.spec.outcomes.index(target)
    beta = theta[design.loc_pos[term_index]]
    x = table.columns[var]
    v = design.linear_predictors(theta)
    out = np.zeros((table.n_rows, len(design.spec.outcomes)))
    for sign in (+1.0, -1.0):
        v_shift = v.copy()
        v_shift[:, col] += beta * x * (sign * h)  # x -> x(1 + sign*h)
        p = softmax_rows(v_shift)
        out += sign * np.log(p)
    return out / (2.0 * h)


def test_direct_and_cross_elasticities_match_fd_oracle():
    table = three_outcome_table(150)
    fit = fit_mnl(table, THREE_SPEC)
    report = elasticities(fit, table, ["x1", "x2"])
    theta = fit.theta_internal

    by_key = {(r.variable, r.target, r.outcome): r.value for r in report.rows}
    cases = [("x1", 2, "a"), ("x1", 2, "b"), ("x2", 3, "a")]
    for var, j, target in cases:
        grid = elasticity_fd(table, THREE_SPEC, theta, var, j, target)
        labels = THREE_SPEC.outcomes
        for i, outcome in enumerate(labels):
            assert by_key[(var, target, outcome)] == pytest.approx(
                grid[:, i].mean(), abs=1e-5)


def test_cross_elasticity_is_common_to_all_other_outcomes():
    table = three_outcome_table(100)
    fit = fit_mnl(table, THREE_SPEC)
    report = elasticities(fit, table, ["x2"])
    cross = [r.value for r in report.rows if r.kind == "cross"]
    assert len(cross) == 2
    assert cross[0] == pytest.approx(cross[1], rel=1e-12)


def test_probability_weighted_elasticities_sum_to_zero_per_row():
    rng = np.random.default_rng(11)
    for trial in range(5):
        x1, x2 = rng.normal(size=2)
        table = ObservationTable({"x1": [x1], "x2": [x2], "flag": [0.0]},
                                 np.array(["a"]), "severity")
        fit = fit_mnl(three_outcome_table(200, seed=trial), THREE_SPEC)
        report = elasticities(fit, table, ["x1", "x2"])
        probs = mnl_probs(fit.theta_internal, build_design(table, THREE_SPEC))[0]
        labels = THREE_SPEC.outcomes
        targets = {(r.variable, r.target) for r in report.rows}
        for var, target in targets:
            total = sum(r.value * probs[labels.index(r.outcome)]
                        for r in report.rows
                        if r.variable == var and r.target == target)
            assert total == pytest.approx(0.0, abs=1e-10)


def test_pseudo_elasticities_match_direct_recomputation():
    table = three_outcome_table(120)
    fit = fit_mnl(table, THREE_SPEC)
    report = pseudo_elasticities(fit, table, ["flag"])
    design = build_design(table, THREE_SPEC)
    theta = fit.theta_internal
    beta = theta[design.loc_pos[4]]
    x = table.columns["flag"]

    v = design.linear_predictors(theta)
    p_obs = softmax_rows(v)
    v_on, v_off = v.copy(), v.copy()
    v_on[:, 0] += beta * (1.0 - x)
    v_off[:, 0] -= beta * x
    expected = ((softmax_rows(v_on) - softmax_rows(v_off)) / p_obs).mean(axis=0)

    by_outcome = {r.outcome: r.value for r in report.rows}
    for i, label in enumerate(THREE_SPEC.outcomes):
        assert by_outcome[label] == pytest.approx(expected[i], rel=1e-12)
    kinds = {r.outcome: r.kind for r in report.rows}
    assert kinds["a"] == "direct" and kinds["b"] == "cross"


def test_elasticities_peak_the_same_at_twice_the_observations(monkeypatch):
    # the effects are summed block by block: beyond the design, built
    # outside the call here, an observation adds no (variable, outcome)
    # entries (72 B for these three triples of three outcomes).  Both sizes
    # are whole blocks, so that their last blocks are alike
    fit = SimpleNamespace(spec=THREE_SPEC,
                          theta_internal=np.array([0.3, -0.2, 0.8, 0.8, -0.5, 0.7]))
    peaks = {}
    for n in (2 * BLOCK_ELEMENTS, 4 * BLOCK_ELEMENTS):
        table = three_outcome_table(n, seed=5)
        design = build_design(table, THREE_SPEC)
        monkeypatch.setattr(mnl, "build_design", lambda *_, d=design: d)
        peaks[n] = peak_beyond_outputs(elasticities, fit, table, ["x1", "x2"])[1]
    assert peaks[4 * BLOCK_ELEMENTS] <= peaks[2 * BLOCK_ELEMENTS] + 8 * BLOCK_ELEMENTS


def test_effect_variable_type_enforcement():
    table = three_outcome_table(50)
    fit = fit_mnl(table, THREE_SPEC)
    with pytest.raises(ValueError, match="use pseudo-elasticities"):
        elasticities(fit, table, ["flag"])
    with pytest.raises(ValueError, match="use elasticities"):
        pseudo_elasticities(fit, table, ["x1"])
    with pytest.raises(ValueError, match="no term"):
        elasticities(fit, table, ["unknown"])
    with pytest.raises(ValueError, match="constant"):
        elasticities(fit, table, ["constant"])


def test_default_variable_set_covers_all_non_constant_terms():
    table = three_outcome_table(50)
    fit = fit_mnl(table, THREE_SPEC)
    report = pseudo_elasticities(fit, table, ["flag"])
    assert {r.variable for r in report.rows} == {"flag"}
    full = elasticities(fit, table, ["x1", "x2"])
    assert {r.variable for r in full.rows} == {"x1", "x2"}
    assert report.effect_type == "pseudo_elasticity"
    assert full.effect_type == "elasticity"
    assert full.n_obs == 50
