"""Batched Monte Carlo refits: kernels, the Newton solver, and the block
dispatcher of the pooling test, each checked against its serial oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from crashmle import lrtest, mnl, negbin
from crashmle.dataset import (CONSTANT, ModelSpec, ObservationTable, Term,
                              build_design, split_by_flag)
from crashmle.optimize import (OptimSettings, OptimizationError, hessian_fd,
                               maximize, maximize_batch)
from crashmle.simulate import (CovariateRecipe, DgpConfig, gen_mnl, gen_nb,
                               redraw_outcomes)

NB_SPEC = ModelSpec("nb", (Term(CONSTANT), Term("z1")))
MNL_SPEC = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
                             Term("x1", ("a",)), Term("x1", ("b",)),
                             Term("x2", ("a", "b"))),
                     ("a", "b", "base"), "base")
FLAG = {"flag": CovariateRecipe("bernoulli", p=0.4)}


def nb_table(n=150, seed=0, alpha=0.8):
    cfg = DgpConfig(NB_SPEC, {"constant": 1.5, "z1": 0.4, "alpha": alpha},
                    {"z1": CovariateRecipe("normal"), **FLAG}, n=n, seed=seed)
    return gen_nb(cfg)


def mnl_table(n=200, seed=0):
    cfg = DgpConfig(MNL_SPEC, {"constant[a]": 0.3, "constant[b]": -0.2,
                               "x1[a]": 0.7, "x1[b]": -0.4, "x2[a+b]": 0.5},
                    {"x1": CovariateRecipe("normal"),
                     "x2": CovariateRecipe("uniform", low=-1.0, high=1.0), **FLAG},
                    n=n, seed=seed)
    return gen_mnl(cfg)


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def nb_batch_case(alpha):
    """Design, four count vectors, and per-row parameters around the truth."""
    table = nb_table(alpha=alpha)
    design = build_design(table, NB_SPEC)
    counts = np.stack([nb_table(seed=s, alpha=alpha).outcome for s in range(4)])
    rng = np.random.default_rng(1)
    theta = np.array([1.5, 0.4, np.log(alpha)]) + 0.1 * rng.normal(size=(4, 3))
    return design, counts, theta


def mnl_batch_case():
    design = build_design(mnl_table(), MNL_SPEC)
    ys = np.stack([build_design(mnl_table(seed=s), MNL_SPEC).y_index
                   for s in range(4)])
    theta = 0.3 * np.random.default_rng(2).normal(size=(4, design.n_params))
    return design, ys, theta


def batch_cases():
    for alpha in (1e-6, 0.8, 50.0):
        design, counts, theta = nb_batch_case(alpha)
        yield (f"nb alpha={alpha}", negbin.make_batch_objective(design, counts),
               [negbin.make_objective(design, counts=c) for c in counts], theta)
    design, ys, theta = mnl_batch_case()
    yield ("mnl", mnl.make_batch_objective(design, ys),
           [mnl.make_objective(design, y_index=y) for y in ys], theta)


# ------------------------------------------------------------------ kernels

def test_batch_rows_equal_the_serial_objective():
    for label, batch, serial, theta in batch_cases():
        ll, grad, _ = batch(theta, np.arange(len(theta)))
        for k, objective in enumerate(serial):
            ll_k, grad_k = objective(theta[k])
            assert ll[k] == pytest.approx(ll_k, rel=1e-12, abs=0.0), label
            assert rel_err(grad[k], grad_k) <= 1e-12, label
        # a subset of rows, in another order, gives the same rows
        rows = np.array([3, 1])
        ll_sub, grad_sub, hess_sub = batch(theta[rows], rows)
        _, _, hess = batch(theta, np.arange(len(theta)))
        np.testing.assert_allclose(ll_sub, ll[rows], rtol=1e-13)
        np.testing.assert_allclose(grad_sub, grad[rows], rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(hess_sub, hess[rows], rtol=1e-12, atol=1e-9)


def test_batch_rows_match_independent_likelihoods():
    """Row log-likelihoods against formulas that share no code with the
    kernels: scipy's NB pmf and a plain softmax."""
    for alpha in (1e-6, 0.8, 50.0):
        design, counts, theta = nb_batch_case(alpha)
        rows = np.array([2, 0, 3])
        ll, _, _ = negbin.make_batch_objective(design, counts)(theta[rows], rows)
        for k, row in enumerate(rows):
            lam = np.exp(design.x @ theta[row, :-1])
            r = np.exp(-theta[row, -1])
            want = nbinom.logpmf(counts[row], r, r / (r + lam)).sum()
            assert ll[k] == pytest.approx(want, rel=1e-8), alpha
    design, ys, theta = mnl_batch_case()
    ll, _, _ = mnl.make_batch_objective(design, ys)(theta, np.arange(len(ys)))
    for k, y in enumerate(ys):
        v = (design.x * theta[k]) @ design.incidence
        prob = np.exp(v) / np.exp(v).sum(axis=1, keepdims=True)
        want = np.log(prob[np.arange(len(y)), y]).sum()
        assert ll[k] == pytest.approx(want, rel=1e-12)


@st.composite
def nb_problems(draw):
    """A small NB design, count rows (some all zero), parameter rows and a
    subset of the count rows in random order."""
    n = draw(st.integers(1, 25))
    b = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-1.0, 1.0, n)
    counts = rng.negative_binomial(1.0, 0.2, size=(b, n))
    counts[draw(st.lists(st.integers(0, b - 1), max_size=b))] = 0
    rows = np.array(draw(st.permutations(range(b)))[:draw(st.integers(1, b))])
    alpha = draw(st.floats(1e-6, 1e2))
    theta = np.column_stack([rng.uniform(-1.0, 1.0, (len(rows), 2)),
                             np.full(len(rows), np.log(alpha))])
    table = ObservationTable({"z1": z}, counts[0], "frequency")
    return build_design(table, NB_SPEC), counts, rows, theta


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nb_problems())
def test_nb_batch_rows_are_consistent_on_random_problems(problem):
    design, counts, rows, theta = problem
    batch = negbin.make_batch_objective(design, counts)
    _, grad, hess = batch(theta, rows)
    for k, row in enumerate(rows):
        # one row alone is the serial objective on its counts
        ll_k, grad_k, _ = batch(theta[k:k + 1], rows[k:k + 1])
        ll_s, grad_s = negbin.make_objective(design, counts=counts[row])(theta[k])
        assert ll_k[0] == pytest.approx(ll_s, rel=1e-12, abs=0.0)
        assert rel_err(grad_k[0], grad_s) <= 1e-12
        # the Hessian is the derivative of the batched gradient
        fd = np.empty((3, 3))
        for j in range(3):
            h = 1e-5 * max(1.0, abs(theta[k, j]))
            pair = np.stack([theta[k], theta[k]])
            pair[0, j] += h
            pair[1, j] -= h
            _, grad_pm, _ = batch(pair, np.array([row, row]))
            fd[:, j] = (grad_pm[0] - grad_pm[1]) / (2.0 * h)
        assert rel_err(hess[k], fd) <= 1e-6


def test_batch_derivatives_match_finite_differences():
    for label, batch, serial, theta in batch_cases():
        rows = np.arange(len(theta))
        _, grad, hess = batch(theta, rows)
        p = theta.shape[1]
        for k in rows:
            fd_grad = np.empty(p)
            fd_hess = np.empty((p, p))
            for j in range(p):
                h = 1e-5 * max(1.0, abs(theta[k, j]))
                up, down = theta[k].copy(), theta[k].copy()
                up[j] += h
                down[j] -= h
                pair = np.stack([up, down])
                ll_pm, grad_pm, _ = batch(pair, np.array([k, k]))
                fd_grad[j] = (ll_pm[0] - ll_pm[1]) / (2.0 * h)
                fd_hess[:, j] = (grad_pm[0] - grad_pm[1]) / (2.0 * h)
            assert rel_err(grad[k], fd_grad) <= 1e-6, label
            assert rel_err(hess[k], 0.5 * (fd_hess + fd_hess.T)) <= 1e-6, label
            assert rel_err(hess[k], hessian_fd(serial[k], theta[k])) <= 1e-6, label
            np.testing.assert_array_equal(hess[k], hess[k].T)


def test_nb_batch_objective_is_minus_infinity_where_undefined():
    design, counts, theta = nb_batch_case(0.8)
    theta[1, 0] = 800.0  # exp overflows: the serial objective returns -inf too
    ll, _, _ = negbin.make_batch_objective(design, counts)(theta, np.arange(4))
    assert ll[1] == -np.inf and np.all(np.isfinite(ll[[0, 2, 3]]))


# ------------------------------------------------------------------- solver

def quadratic_batch(centers, hessians):
    """Rows of concave (or not) quadratics with known maximizers."""
    def objective(theta, rows):
        d = theta - centers[rows]
        hd = np.einsum("kpq,kq->kp", hessians[rows], d)
        return -0.5 * np.einsum("kp,kp->k", d, hd), -hd, -hessians[rows]
    return objective


def test_maximize_batch_solves_each_row():
    for label, batch, serial, theta in batch_cases():
        if label == "nb alpha=1e-06":
            continue  # Poisson-like counts: the maximum is at alpha -> 0
        res = maximize_batch(batch, theta)
        assert res.converged.all(), label
        assert np.all(res.iterations <= 12), label
        for k, objective in enumerate(serial):
            ref = maximize(objective, theta[k])
            assert res.ll[k] == pytest.approx(ref.ll, rel=1e-9), label
            ll_k, grad_k = objective(res.theta[k])
            assert ll_k == pytest.approx(res.ll[k], rel=1e-12, abs=0.0)
            assert np.max(np.abs(grad_k)) <= 1e-6 * max(1.0, abs(ll_k))


def test_maximize_batch_stops_rows_it_cannot_solve():
    centers = np.array([[1.0, -2.0], [0.5, 0.5], [0.0, 0.0], [3.0, 1.0]])
    hessians = np.stack([np.diag([2.0, 1.0]), np.diag([1.0, -1.0]),
                         np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])])
    objective = quadratic_batch(centers, hessians)

    def with_bad_start(theta, rows):
        ll, grad, hess = objective(theta, rows)
        ll[(rows == 2) & np.all(theta == 0.0, axis=1)] = np.nan
        return ll, grad, hess

    start = np.full((4, 2), 5.0)
    start[2] = 0.0
    res = maximize_batch(with_bad_start, start)
    # row 1 is a saddle (Hessian not negative definite), row 2 starts NaN
    np.testing.assert_array_equal(res.converged, [True, False, False, True])
    np.testing.assert_allclose(res.theta[[0, 3]], centers[[0, 3]], atol=1e-12)
    np.testing.assert_array_equal(res.theta[1], start[1])
    assert res.iterations[1] == 0 and res.iterations[2] == 0


def test_maximize_batch_respects_the_iteration_limit():
    design, counts, theta = nb_batch_case(0.8)
    theta += 1.0
    res = maximize_batch(negbin.make_batch_objective(design, counts), theta,
                         OptimSettings(max_iterations=1))
    assert not res.converged.any()
    assert np.all(res.iterations <= 1)


# ---------------------------------------------------------- outcome streams

def test_replicate_outcomes_follow_the_per_replicate_streams():
    for table, spec in ((nb_table(), NB_SPEC), (mnl_table(), MNL_SPEC)):
        design = build_design(table, spec)
        theta = np.linspace(0.1, 0.5, design.n_params + spec.is_frequency)
        block = lrtest.replicate_outcomes(design, theta, 11, 3, 7)
        assert block.shape == (4, table.n_rows)
        for row, i in enumerate(range(3, 7)):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, i))))
            sim = redraw_outcomes(spec, theta, table, rng)
            want = (build_design(sim, spec).y_index if spec.is_severity
                    else sim.outcome)
            np.testing.assert_array_equal(block[row], want)


# ---------------------------------------------------- the Monte Carlo loop

def serial_replicate(table, spec, theta_observed, outcome):
    """One replicate as a plain serial refit loop: (statistic, drop reason)."""
    labels = np.asarray(spec.outcomes)[outcome] if spec.is_severity else outcome
    fit_table = ObservationTable(dict(table.columns), labels, table.mode)
    make = negbin.make_objective if spec.is_frequency else mnl.make_objective
    try:
        rep_all = maximize(make(build_design(fit_table, spec)), theta_observed)
        reps = [maximize(make(build_design(part, spec)), rep_all.theta)
                for part in split_by_flag(fit_table, "flag")]
    except OptimizationError:
        return np.nan, "optimization_error"
    if not (rep_all.converged and all(r.converged for r in reps)):
        return np.nan, "not_converged"
    # split_by_flag returns the flag == 1 part first, like subset A
    x2 = -2.0 * (rep_all.ll - reps[0].ll - reps[1].ll)
    if x2 < -1e-4:
        return np.nan, "negative_statistic"
    return max(x2, 0.0), ""


def serial_null(table, spec, replicates, seed):
    pieces = lrtest._Pieces(table, spec, "flag", None, None)
    theta = lrtest._observed(pieces)[0].theta
    out = []
    for i in range(replicates):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        sim = redraw_outcomes(spec, theta, table, rng)
        y = build_design(sim, spec).y_index if spec.is_severity else sim.outcome
        out.append(serial_replicate(table, spec, theta, y))
    return out


@pytest.mark.parametrize("family", ["nb", "mnl"])
def test_mc_matches_a_serial_refit_loop(family):
    table, spec = (nb_table(122, seed=5), NB_SPEC) if family == "nb" \
        else (mnl_table(300, seed=5), MNL_SPEC)
    result = lrtest.mc_null_distribution(table, spec, "flag", replicates=150,
                                         seed=4)
    reference = serial_null(table, spec, 150, 4)
    kept = np.array([x2 for x2, why in reference if why == ""])
    assert result.replicates_kept == kept.size
    assert result.replicates_dropped == 150 - kept.size
    for reason in lrtest.DROP_REASONS:
        assert result.replicates_dropped_by_reason[reason] == \
            sum(why == reason for _, why in reference)
    np.testing.assert_allclose(result.null_stats, kept, rtol=0.0, atol=1e-6)


def forced_block():
    table = nb_table(122, seed=3)
    pieces = lrtest._Pieces(table, NB_SPEC, "flag", None, None)
    theta = lrtest._observed(pieces)[0].theta
    outcomes = lrtest.replicate_outcomes(pieces.designs["all"], theta, 0, 0, 6)
    return table, pieces, theta, outcomes


def assert_block_matches_serial(table, pieces, theta, outcomes):
    x2, reason, handed = lrtest._replicate_block(pieces, theta, outcomes)
    for k, y in enumerate(outcomes):
        want_x2, want_reason = serial_replicate(table, NB_SPEC, theta, y)
        assert reason[k] == want_reason
        if want_reason == "":
            assert x2[k] == pytest.approx(want_x2, abs=1e-6)
        else:
            assert np.isnan(x2[k])
    return handed


def test_forced_fallback_rows_are_kept_or_dropped_as_serially():
    table, pieces, theta, outcomes = forced_block()
    outcomes[0, pieces.mask_a] = 0    # all-zero counts in subset A
    outcomes[1, ~pieces.mask_a] = 0   # ... in subset B
    outcomes[2] = 0                   # ... everywhere
    handed = assert_block_matches_serial(table, pieces, theta, outcomes)
    assert handed > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_outlier_count_sends_its_block_to_the_serial_fit(monkeypatch):
    table, pieces, theta, outcomes = forced_block()
    outcomes[3, 5] = 100_000
    batched_max = []

    def recording_kernel(design, counts):
        batched_max.append(int(counts.max()))
        return negbin.make_batch_objective(design, counts)

    monkeypatch.setattr(pieces, "family",
                        replace(pieces.family, batch_objective=recording_kernel))
    tracemalloc.start()
    try:
        lrtest._replicate_block(pieces, theta, outcomes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    # the subset without the outlier still goes through Newton
    assert batched_max and max(batched_max) <= lrtest.BATCH_COUNT_CAP
    assert_block_matches_serial(table, pieces, theta, outcomes)
