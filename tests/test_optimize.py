"""Maximizer, covariance machinery, and fit-summary assembly."""

import json
import re
import warnings
from dataclasses import MISSING, fields

import numpy as np
import pytest

from crashmle import optimize
from crashmle.dataset import ModelSpec, Term
from crashmle.optimize import (
    BHHH_MIN_RCOND,
    CovarianceResult,
    FitResult,
    OptimSettings,
    OptimizationError,
    covariance,
    hessian_fd,
    maximize,
    summarize,
)
from crashmle.reporting import fit_table_text


def quadratic(center, hess):
    """Concave quadratic with known maximizer and curvature."""
    center = np.asarray(center, dtype=float)
    hess = np.asarray(hess, dtype=float)

    def objective(theta):
        d = theta - center
        return -0.5 * d @ hess @ d, -hess @ d

    return objective


def test_settings_validation():
    s = OptimSettings()
    assert s.max_iterations == 200
    assert s.gradient_tolerance == 1e-6
    with pytest.raises(ValueError):
        OptimSettings(max_iterations=0)
    with pytest.raises(ValueError):
        OptimSettings(gradient_tolerance=-1.0)
    with pytest.raises(ValueError):
        OptimSettings(step_tolerance=0.0)


def test_maximize_quadratic_exact():
    center = np.array([1.5, -2.0, 0.25])
    hess = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    res = maximize(quadratic(center, hess), np.zeros(3))
    assert res.converged
    np.testing.assert_allclose(res.theta, center, atol=1e-6)
    assert res.ll == pytest.approx(0.0, abs=1e-10)
    assert res.grad_inf_norm <= 1e-6
    assert res.n_evals >= res.iterations


def test_maximize_converged_at_start():
    center = np.array([2.0, -1.0])
    res = maximize(quadratic(center, np.eye(2)), center.copy())
    assert res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.theta, center)


def test_maximize_negated_rosenbrock():
    def objective(theta):
        x, y = theta
        f = 100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2
        g = np.array([-400.0 * x * (y - x * x) - 2.0 * (1.0 - x),
                      200.0 * (y - x * x)])
        return -f, -g

    res = maximize(objective, np.array([-1.2, 1.0]),
                   OptimSettings(max_iterations=500))
    assert res.converged
    np.testing.assert_allclose(res.theta, [1.0, 1.0], atol=1e-5)


def test_maximize_ll_path_is_monotone():
    res = maximize(quadratic([3.0, 3.0], [[2.0, 0.3], [0.3, 1.0]]),
                   np.array([-5.0, 5.0]))
    path = np.asarray(res.ll_path)
    assert np.all(np.diff(path) >= -1e-12)
    assert path[-1] == pytest.approx(res.ll)


def test_maximize_iteration_cap():
    def objective(theta):
        x, y = theta
        f = 100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2
        g = np.array([-400.0 * x * (y - x * x) - 2.0 * (1.0 - x),
                      200.0 * (y - x * x)])
        return -f, -g

    res = maximize(objective, np.array([-1.2, 1.0]),
                   OptimSettings(max_iterations=3))
    assert not res.converged
    assert res.iterations == 3
    assert "iteration" in res.message


def test_maximize_rejects_non_finite_start():
    def objective(theta):
        return -np.inf, np.zeros(1)

    with pytest.raises(OptimizationError, match="not finite"):
        maximize(objective, np.zeros(1))


def test_maximize_stops_on_a_zero_gradient():
    # g @ g underflows to zero while the scaled gradient is above a tiny
    # tolerance: the iteration restarts from the gradient and stops there
    def objective(theta):
        return 0.0, np.full(2, 1e-200)

    res = maximize(objective, np.zeros(2), OptimSettings(gradient_tolerance=1e-300))
    assert (res.converged, res.iterations, res.message, res.n_evals) == \
        (True, 1, "zero gradient", 1)
    assert res.ll_path == [0.0]


def test_maximize_stops_when_the_line_search_fails():
    # the gradient points uphill, the values fall along it: every trial
    # step from 1 down to 2**-46 is rejected
    def objective(theta):
        return -float(theta @ theta), 2.0 * theta

    res = maximize(objective, np.ones(1))
    assert (res.converged, res.iterations, res.message, res.n_evals) == \
        (False, 1, "line search failed to find an ascent step", 48)
    np.testing.assert_array_equal(res.theta, [1.0])
    assert res.ll_path == [-1.0]


def test_maximize_stops_on_a_short_step():
    def objective(theta):
        return -float((theta[0] - 1.0) ** 4), -4.0 * (theta - 1.0) ** 3

    res = maximize(objective, np.array([0.3]), OptimSettings(step_tolerance=1.0))
    assert (res.converged, res.iterations, res.message, res.n_evals) == \
        (False, 1, "step size below tolerance", 2)
    assert len(res.ll_path) == 2 and res.ll_path[1] > res.ll_path[0]


def test_maximize_restarts_bfgs_after_a_non_ascent_direction():
    # values rise to the right while the gradients shrink and then flip to
    # -2**100; the second BFGS update cancels to a non-positive inverse
    # Hessian, so the third direction is not an ascent direction and the
    # iteration restarts from the raw gradient, along which the values
    # fall: the restarted line search fails
    def objective(theta):
        t = theta[0]
        if t < 0.5:
            return 0.0, np.array([1.0])
        if t < 2.0:
            return 1.0, np.array([1.0 - 2.0 ** -40])
        return 2.0 ** 40, np.array([-2.0 ** 100])

    res = maximize(objective, np.zeros(1))
    assert (res.converged, res.iterations, res.message, res.n_evals) == \
        (False, 3, "line search failed to find an ascent step", 50)
    np.testing.assert_array_equal(res.theta, [2.0 ** 40])
    assert res.ll_path == [0.0, 1.0, 2.0 ** 40]


def test_hessian_fd_matches_analytic():
    def objective(theta):
        x, y = theta
        f = x * x * y + np.sin(y)
        g = np.array([2.0 * x * y, x * x + np.cos(y)])
        return f, g

    point = np.array([1.3, -0.4])
    h = hessian_fd(objective, point)
    expected = np.array([[2.0 * point[1], 2.0 * point[0]],
                         [2.0 * point[0], -np.sin(point[1])]])
    np.testing.assert_allclose(h, expected, atol=1e-6)
    np.testing.assert_allclose(h, h.T, atol=1e-12)  # symmetrized


def test_covariance_from_hessian():
    hess = np.array([[4.0, 1.0], [1.0, 3.0]])
    res = covariance(hessian_fd(quadratic([0.5, -0.5], hess), np.array([0.5, -0.5])))
    assert res.method == "hessian"
    np.testing.assert_allclose(res.cov, np.linalg.inv(hess), atol=1e-6)
    np.testing.assert_allclose(res.se, np.sqrt(np.diag(np.linalg.inv(hess))),
                               atol=1e-6)


def test_covariance_bhhh_fallback():
    # flat in the second coordinate: the Hessian is singular
    def objective(theta):
        return -0.5 * theta[0] ** 2, np.array([-theta[0], 0.0])

    scores = np.array([[0.5, 0.2], [-0.5, -0.1], [0.1, 0.3], [-0.1, -0.4]])
    with pytest.warns(RuntimeWarning, match="outer product"):
        res = covariance(hessian_fd(objective, np.zeros(2)), scores=lambda: scores)
    assert res.method == "bhhh"
    np.testing.assert_allclose(res.cov, np.linalg.inv(scores.T @ scores),
                               atol=1e-10)


def test_covariance_undefined_when_all_routes_fail():
    def objective(theta):
        return -0.5 * theta[0] ** 2, np.array([-theta[0], 0.0])

    with pytest.warns(RuntimeWarning, match="undefined"):
        res = covariance(hessian_fd(objective, np.zeros(2)))
    assert res.method == "undefined"
    assert np.all(np.isnan(res.se))


def near_collinear_scores():
    """Scores whose outer product passes Cholesky yet inverts, in rounding,
    to a non-positive variance: two columns equal to within 1e-9."""
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(20, 1))
        scores = np.hstack([v, v * (1.0 + 1e-9 * rng.normal(size=(20, 1))),
                            rng.normal(size=(20, 1))])
        opg = scores.T @ scores
        try:
            np.linalg.cholesky(opg)
        except np.linalg.LinAlgError:
            continue
        if np.diag(np.linalg.inv(opg)).min() <= 0.0:
            return scores
    raise AssertionError("no such score matrix among the seeds tried")


def test_covariance_rejects_an_inverse_with_a_non_positive_variance():
    def objective(theta):  # flat: the Hessian route fails
        return 0.0, np.zeros(3)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = covariance(hessian_fd(objective, np.zeros(3)),
                         scores=lambda: near_collinear_scores())
    assert res.method == "undefined"
    assert np.all(np.isnan(res.se))
    messages = [str(w.message) for w in caught]
    assert any("undefined" in m for m in messages)
    assert not any("sqrt" in m for m in messages), messages


def test_covariance_rejects_an_ill_conditioned_outer_product():
    def objective(theta):  # flat: the Hessian route fails
        return 0.0, np.zeros(2)

    scores = np.random.default_rng(0).normal(size=(50, 2))
    with pytest.warns(RuntimeWarning, match="outer product"):
        res = covariance(hessian_fd(objective, np.zeros(2)), scores=lambda: scores)
    assert res.method == "bhhh"
    # positive definite, but with a condition number of about 1e20 its
    # inverse is rounding noise: variances near 1e20
    ill = scores * np.array([1.0, 1e-10])
    opg = ill.T @ ill
    np.linalg.cholesky(opg)
    assert 1e19 < np.linalg.cond(opg) < 1e21
    assert 1.0 / np.linalg.cond(opg) < BHHH_MIN_RCOND
    with pytest.warns(RuntimeWarning, match="undefined"):
        res = covariance(hessian_fd(objective, np.zeros(2)), scores=lambda: ill)
    assert res.method == "undefined"
    assert np.all(np.isnan(res.se))


def test_summarize_computes_t_and_rho2():
    fit = summarize(np.array([2.0, -1.0]), np.diag([0.25, 4.0]),
                    ll=-100.0, ll_restricted=-200.0,
                    param_names=("a", "b"), converged=True, iterations=7,
                    n_obs=50, family="mnl", theta_internal=np.array([2.0, -1.0]))
    assert fit.coef("a") == 2.0
    assert fit.se("a") == pytest.approx(0.5)
    assert fit.t_ratio("a") == pytest.approx(4.0)
    assert fit.t_ratio("b") == pytest.approx(-0.5)
    assert fit.mcfadden_rho2 == pytest.approx(0.5)
    assert fit.n_params == 2
    # a restricted log-likelihood of zero: rho-squared is 0 at ll 0, else undefined
    zero = dict(param_names=("a",), converged=True, iterations=1, n_obs=10,
                family="mnl", theta_internal=np.array([1.0]))
    assert summarize(np.array([1.0]), np.eye(1), 0.0, 0.0, **zero).mcfadden_rho2 == 0.0
    with pytest.warns(RuntimeWarning, match="may be swapped"):
        assert np.isnan(summarize(np.array([1.0]), np.eye(1), -1.0, 0.0, **zero).mcfadden_rho2)


def test_summarize_warns_on_swapped_likelihoods():
    with pytest.warns(RuntimeWarning, match="may be swapped"):
        summarize(np.array([1.0]), np.eye(1), ll=-300.0, ll_restricted=-100.0,
                  param_names=("a",), converged=True, iterations=1,
                  n_obs=10, family="nb", theta_internal=np.array([1.0]))


def test_summarize_handles_missing_covariance():
    fit = summarize(np.array([1.0]), None, ll=-10.0, ll_restricted=-20.0,
                    param_names=("a",), converged=False, iterations=3,
                    n_obs=10, family="nb", theta_internal=np.array([1.0]),
                    se_method="undefined", message="line search failed")
    assert np.isnan(fit.se("a"))
    assert np.isnan(fit.t_ratio("a"))
    assert not fit.converged
    # the table prints an undefined error and t-ratio as nan
    row = next(line for line in fit_table_text(fit).splitlines() if line.startswith("a "))
    assert row.split() == ["a", "1", "nan", "nan"]


def test_fit_result_round_trip():
    from crashmle.dataset import ModelSpec, Term

    spec = ModelSpec("mixed_nb", (Term("constant"), Term("z", (), "random_normal")))
    # a correctly rounded square root undoes a square: the errors are 0.1, 0.2, NaN, 0.3
    fit = summarize(np.array([1.0, 0.5, 2.0, 0.8]),
                    np.diag(np.square([0.1, 0.2, np.nan, 0.3])),
                    ll=-50.0, ll_restricted=-80.0,
                    param_names=("constant", "z", "z:sd", "alpha"),
                    converged=True, iterations=12, n_obs=100,
                    family="mixed_nb",
                    theta_internal=np.array([1.0, 0.5, np.log(2.0), np.log(0.8)]),
                    spec=spec,
                    se_method="bhhh", n_draws=100, seed=4, skip=500, shift=True)
    back = FitResult.from_dict(fit.to_dict())
    assert back.param_names == fit.param_names
    np.testing.assert_array_equal(back.theta_hat, fit.theta_hat)
    np.testing.assert_array_equal(back.theta_internal, fit.theta_internal)
    assert np.isnan(back.se("z:sd")) and back.se("constant") == 0.1
    assert back.spec == spec
    assert back.n_draws == 100 and back.seed == 4
    assert back.skip == 500 and back.shift is True
    # files written without draw settings used the default draws
    old = fit.to_dict()
    del old["skip"], old["shift"]
    legacy = FitResult.from_dict(old)
    assert (legacy.skip, legacy.shift) == (10, False)
    assert back.ll_converged == fit.ll_converged
    assert "-50.0" in fit.to_json() or "-50" in fit.to_json()


def every_field_set():
    """A simulated fit whose every field with a default holds another value."""
    spec = ModelSpec("mixed_nb", (Term("constant"), Term("z", (), "random_normal")))
    return FitResult(
        param_names=["constant", "z", "z:sd", "alpha"],
        theta_hat=np.array([1.0, 0.5, 2.0, 0.8]),
        standard_errors=np.array([0.1, 0.2, np.nan, 0.3]),
        t_ratios=np.array([10.0, 2.5, np.nan, 0.8 / 0.3]),
        ll_converged=-50.0, ll_restricted=-80.0, mcfadden_rho2=0.375,
        converged=False, iterations=12, n_obs=100, family="mixed_nb",
        theta_internal=[1.0, 0.5, np.log(2.0), np.log(0.8)], spec=spec,
        se_method="bhhh", message="step size below tolerance",
        n_draws=100, seed=4, skip=500, shift=True)


def test_every_fit_field_survives_the_fit_file():
    fit = every_field_set()
    # the record coerces its names and packed vector, whichever way it is built
    assert fit.param_names == ("constant", "z", "z:sd", "alpha")
    assert fit.theta_internal.dtype == np.float64
    back = FitResult.from_dict(json.loads(fit.to_json()))
    for f in fields(FitResult):
        want, got = getattr(fit, f.name), getattr(back, f.name)
        assert f.default is MISSING or want != f.default, f.name
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want, err_msg=f.name)
        else:
            assert (type(got), got) == (type(want), want), f.name


def test_the_fit_file_keys_are_the_fields_and_n_params():
    keys = {f.name for f in fields(FitResult)} | {"n_params"}
    fit = every_field_set()
    assert set(fit.to_dict()) == keys
    assert fit.to_dict()["n_params"] == 4
    # a fit without draws writes no draw settings
    plain = summarize(np.array([1.0]), np.eye(1), ll=-1.0, ll_restricted=-2.0,
                      param_names=("a",), converged=True, iterations=0,
                      n_obs=1, family="nb", theta_internal=np.array([1.0]))
    assert set(plain.to_dict()) == keys - {"skip", "shift"}


def test_every_fit_field_annotation_has_a_reader(monkeypatch):
    # the names and the spec are read on their own; every other field
    # through the reader of its annotation
    special = {"param_names", "spec"}
    assert {f.type for f in fields(FitResult) if f.name not in special} <= set(optimize._READERS)
    # an annotation without a reader fails the read, though its field is not in the file
    d = every_field_set().to_dict()
    del d["seed"]
    monkeypatch.delitem(optimize._READERS, "int | None")
    with pytest.raises(KeyError, match=re.escape("'int | None'")):
        FitResult.from_dict(d)


@pytest.mark.parametrize("family, title", [
    ("mnl", "multinomial logit"), ("mixed_mnl", "mixed multinomial logit"),
    ("nb", "negative binomial"), ("mixed_nb", "mixed negative binomial")])
def test_the_fit_table_heads_with_the_family_title(family, title):
    fit = summarize(np.array([1.0]), np.eye(1), ll=-1.0, ll_restricted=-2.0,
                    param_names=("a",), converged=True, iterations=0,
                    n_obs=1, family=family, theta_internal=np.array([1.0]))
    assert fit_table_text(fit).splitlines()[0] == f"Model: {title} ({family})"


def test_fit_result_unknown_name_errors():
    fit = summarize(np.array([1.0]), np.eye(1), ll=-1.0, ll_restricted=-2.0,
                    param_names=("a",), converged=True, iterations=0,
                    n_obs=1, family="nb", theta_internal=np.array([1.0]))
    with pytest.raises(ValueError):
        fit.coef("zzz")
