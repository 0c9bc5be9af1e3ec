"""Batched Monte Carlo refits: kernels, the Newton solver, and the block
dispatcher of the pooling test, each checked against its serial oracle."""

import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from conftest import peak_beyond_outputs
import crashmle
from crashmle import families, lrtest, mixed, mnl, negbin
from crashmle.dataset import (CONSTANT, ModelSpec, ObservationTable, Term,
                              build_design, split_by_flag)
from crashmle.draws import DrawMatrix
from crashmle.optimize import (OptimSettings, OptimizationError, hessian_fd,
                               maximize, maximize_batch)
from crashmle.simulate import (CovariateRecipe, DgpConfig, gen_mnl, gen_nb,
                               redraw_outcomes)

NB_SPEC = ModelSpec("nb", (Term(CONSTANT), Term("z1")))
MNL_SPEC = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
                             Term("x1", ("a",)), Term("x1", ("b",)),
                             Term("x2", ("a", "b"))),
                     ("a", "b", "base"), "base")
MIXED_NB_SPEC = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
MIXED_SPEC = ModelSpec("mixed_mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("x1", ("a",), "random_normal"), Term("x2", ("b",), "random_uniform")),
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
        yield (f"nb alpha={alpha}",
               negbin._kernel(design, None, counts),
               [negbin.make_objective(design, counts=c) for c in counts], theta)
    design, ys, theta = mnl_batch_case()
    yield ("mnl", mnl._kernel(design, None, ys),
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
        batch = negbin._kernel(design, None, counts)
        ll, _, _ = batch(theta[rows], rows)
        for k, row in enumerate(rows):
            lam = np.exp(design.x @ theta[row, :-1])
            r = np.exp(-theta[row, -1])
            want = nbinom.logpmf(counts[row], r, r / (r + lam)).sum()
            assert ll[k] == pytest.approx(want, rel=1e-8), alpha
    design, ys, theta = mnl_batch_case()
    ll, _, _ = mnl._kernel(design, None, ys)(theta, np.arange(len(ys)))
    for k, y in enumerate(ys):
        v = (design.x * theta[k]) @ design.incidence
        prob = np.exp(v) / np.exp(v).sum(axis=1, keepdims=True)
        want = np.log(prob[np.arange(len(y)), y]).sum()
        assert ll[k] == pytest.approx(want, rel=1e-12)


def test_mixed_logit_rows_equal_the_serial_objective():
    design = build_design(mnl_table(), MIXED_SPEC)
    ys = np.stack([build_design(mnl_table(seed=s), MNL_SPEC).y_index
                   for s in range(3)])
    draws = DrawMatrix.for_design(design, 30)
    theta = 0.3 * np.random.default_rng(3).normal(size=(3, design.n_params))
    theta[:, design.scale_pos[list(design.random_terms)]] = np.log([0.6, 1.5])
    rows = np.array([2, 0, 1])
    ll, scores = mnl._kernel(design, draws, ys)(theta, rows, obs=True)
    assert scores.shape == (3, design.n_obs, design.n_params)
    for k, row in enumerate(rows):
        ll_k, grad_k = mixed.make_objective(design, draws, y_index=ys[row])(theta[k])
        assert ll[k].sum() == pytest.approx(ll_k, rel=1e-12, abs=0.0)
        assert rel_err(scores[k].sum(axis=0), grad_k) <= 1e-12


def draw_entry_points(n_rows):
    """Each entry point that takes a draw matrix, called on a 300-row
    design with a matrix of ``n_rows`` rows."""
    logit = build_design(mnl_table(n=300), MIXED_SPEC)
    logit_draws = DrawMatrix(n_rows, 25, ("normal", "uniform"))
    theta = np.zeros(logit.n_params)
    nb = build_design(nb_table(n=300), MIXED_NB_SPEC)
    nb_draws = DrawMatrix(n_rows, 25, ("normal",))
    nb_theta = np.zeros(nb.n_params)
    return {
        "mnl_kernel": lambda: mnl._kernel(logit, logit_draws)(theta[None], [0]),
        "mixed_objective": lambda: mixed.make_objective(logit, logit_draws)(theta),
        "mixed_scores": lambda: mixed.mixed_scores(theta, logit, logit_draws),
        "simulated_probs": lambda: mixed.simulated_probs(theta, logit, logit_draws),
        "simulated_prob": lambda: mixed.simulated_prob(theta, logit, 0, logit_draws),
        "nb_kernel": lambda: negbin._kernel(nb, nb_draws)(nb_theta[None], [0]),
        "mixed_nb_objective": lambda: negbin.make_mixed_objective(nb, nb_draws)(nb_theta),
        "mixed_nb_scores": lambda: negbin.mixed_nb_scores(nb_theta, nb, nb_draws),
    }


@pytest.mark.parametrize("n_rows", [100, 600])
@pytest.mark.parametrize("entry", list(draw_entry_points(300)))
def test_every_draw_entry_point_checks_the_matrix_rows(entry, n_rows):
    call = draw_entry_points(n_rows)[entry]
    with pytest.raises(ValueError, match="draw matrix and design disagree on the number of rows"):
        call()


def kernel_entry_points(case):
    """Each entry point onto the two likelihood kernels, as (design,
    ``call(theta)``) on a 300-row design: the plain families' on plain
    designs (``"plain"``) or on designs with random terms (``"random"``),
    or the mixed families' with a 25-draw matrix (``"mixed"``)."""
    random = case != "plain"
    logit = build_design(mnl_table(n=300), MIXED_SPEC if random else MNL_SPEC)
    nb = build_design(nb_table(n=300), MIXED_NB_SPEC if random else NB_SPEC)
    if case == "mixed":
        ld, nd = DrawMatrix.for_design(logit, 25), DrawMatrix.for_design(nb, 25)
        return {
            "mnl_kernel": (logit, lambda t: mnl._kernel(logit, ld)(t[None], [0])),
            "mixed_objective": (logit, lambda t: mixed.make_objective(logit, ld)(t)),
            "mixed_loglik": (logit, lambda t: mixed.mixed_loglik(t, logit, ld)),
            "mixed_scores": (logit, lambda t: mixed.mixed_scores(t, logit, ld)),
            "nb_kernel": (nb, lambda t: negbin._kernel(nb, nd)(t[None], [0])),
            "mixed_nb_objective": (nb, lambda t: negbin.make_mixed_objective(nb, nd)(t)),
            "mixed_nb_scores": (nb, lambda t: negbin.mixed_nb_scores(t, nb, nd)),
        }
    return {
        "mnl_kernel": (logit, lambda t: mnl._kernel(logit)(t[None], [0])),
        "mnl_objective": (logit, lambda t: mnl.make_objective(logit)(t)),
        "mnl_loglik": (logit, lambda t: mnl.mnl_loglik(t, logit)),
        "mnl_scores": (logit, lambda t: mnl.mnl_scores(t, logit)),
        "nb_kernel": (nb, lambda t: negbin._kernel(nb, None)(t[None], [0])),
        "nb_objective": (nb, lambda t: negbin.make_objective(nb)(t)),
        "nb_loglik": (nb, lambda t: negbin.nb_loglik(t, nb)),
        "nb_scores": (nb, lambda t: negbin.nb_scores(t, nb)),
    }


def refused(call, message):
    """``call()`` raises a ValueError matching ``message`` from
    ``families.py``, where the one check of the kernel contract lives."""
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.traceback[-1].path.name == "families.py"


@pytest.mark.parametrize("entry", list(kernel_entry_points("random")))
def test_a_design_with_random_terms_needs_draws(entry):
    design, call = kernel_entry_points("random")[entry]
    refused(lambda: call(np.zeros(design.n_params)),
            "^objective requires a design with fixed terms only$")


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("case, entry", [(case, entry) for case in ("plain", "mixed")
                                         for entry in kernel_entry_points(case)])
def test_each_parameter_row_has_the_design_width(case, entry, extra):
    design, call = kernel_entry_points(case)[entry]
    p = design.n_params
    refused(lambda: call(np.zeros(p + extra)), f"^expected {p} parameters, got {p + extra}$")


@pytest.mark.parametrize("kernel, table, spec", [(mnl._kernel, mnl_table, MIXED_SPEC),
                                                 (negbin._kernel, nb_table, MIXED_NB_SPEC)],
                         ids=["mnl", "nb"])
def test_a_kernel_with_draws_has_no_hessian(kernel, table, spec):
    design = build_design(table(n=300), spec)
    call = kernel(design, DrawMatrix.for_design(design, 25))
    assert call(np.zeros((1, design.n_params)), [0])[2] is None


@pytest.mark.parametrize("family", ["mnl", "mixed_mnl", "nb", "mixed_nb"])
def test_an_empty_stack_gives_empty_outputs_and_an_empty_fit(family):
    logit = family.endswith("mnl")
    spec = {"mnl": MNL_SPEC, "mixed_mnl": MIXED_SPEC, "nb": NB_SPEC,
            "mixed_nb": MIXED_NB_SPEC}[family]
    design = build_design((mnl_table if logit else nb_table)(n=60), spec)
    draws = DrawMatrix.for_design(design, 25) if spec.is_mixed else None
    record = families.REGISTRY[family]
    p, n = design.n_params, design.n_obs
    theta, rows = np.zeros((0, p)), np.arange(0)
    kernel = record.kernel(design, draws, None)
    ll, grad, hess = kernel(theta, rows)
    assert (ll.shape, grad.shape) == ((0,), (0, p))
    assert hess is None if spec.is_mixed else hess.shape == (0, p, p)
    ll, scores = kernel(theta, rows, obs=True)
    assert (ll.shape, scores.shape) == ((0, n), (0, n, p))
    outcomes = (design.y_index if logit else design.counts)[None, :][:0]
    res = families.maximize_rows(record, design, draws, theta, outcomes)
    assert (res.theta.shape, res.ll.shape, res.converged.shape) == ((0, p), (0,), (0,))


def test_logit_kernel_without_draws_is_the_mnl_closed_form():
    design, ys, theta = mnl_batch_case()
    y = ys[1]
    ll, scores = mnl._kernel(design, None, y)(theta[:1], slice(0, 1), obs=True)
    v = (design.x * theta[0]) @ design.incidence
    prob = np.exp(v) / np.exp(v).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(ll[0], np.log(prob[np.arange(len(y)), y]), rtol=1e-12)
    inc = design.incidence
    want = design.x * (inc[:, y].T - prob @ inc.T)
    np.testing.assert_allclose(scores[0], want, rtol=1e-12, atol=1e-12)


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
    batch = negbin._kernel(design, None, counts)
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


@pytest.mark.bitwise
def test_nb_kernel_rows_do_not_depend_on_the_batch():
    """Each row of a 4-row NB kernel call is, bit for bit, its 1-row call:
    log-likelihoods, scores and Hessian."""
    for alpha in (1e-6, 0.8, 50.0):
        design, counts, theta = nb_batch_case(alpha)
        kernel = negbin._kernel(design, None, counts)
        rows = np.arange(len(theta))
        for obs in (False, True):
            together = [out.copy() for out in kernel(theta, rows, obs)]
            for k in rows:
                alone = kernel(theta[k:k + 1], rows[k:k + 1], obs)
                for got, want in zip(alone, together, strict=True):
                    np.testing.assert_array_equal(got[0], want[k])


def one_block_kernel(label):
    """Kernel, theta, rows and ``span -> BLOCK_ELEMENTS`` giving blocks of
    ``span`` observations, for family ``label``; at the default
    ``BLOCK_ELEMENTS`` each row of 150 observations is one block."""
    rng, rows = np.random.default_rng(8), np.array([2, 0, 1])
    n_draws = 25 if label.startswith("mixed") else None
    if label.endswith("mnl"):
        design = build_design(mnl_table(n=150), MIXED_SPEC if n_draws else MNL_SPEC)
        outcomes = np.stack([np.roll(design.y_index, s) for s in range(3)])
        theta = 0.3 * rng.normal(size=(3, design.n_params))
        make, budget = mnl._kernel, lambda span: span * len(rows) * (n_draws or 1)
    else:  # a row of more than one block is a tile of its own
        design = build_design(nb_table(n=150), MIXED_NB_SPEC if n_draws else NB_SPEC)
        outcomes = np.stack([np.roll(design.counts, s) for s in range(3)])
        theta = np.array([1.5, 0.4, *([np.log(0.5)] if n_draws else []), np.log(0.8)])
        theta = theta + 0.1 * rng.normal(size=(3, theta.size))
        make, budget = negbin._kernel, lambda span: span * (n_draws or 1)
    draws = DrawMatrix.for_design(design, n_draws) if n_draws else None
    return make(design, draws, outcomes), theta, rows, budget


@pytest.mark.parametrize("label", ["mnl", "mixed_mnl", "nb", "mixed_nb"])
def test_summed_outputs_are_the_observations_summed(label):
    """A row of one block sums, bit for bit, what the per-observation view
    returns for it; a row of several blocks agrees to rounding, but for the
    logit's scores, which the running sum keeps bit for bit."""
    kernel, theta, rows, budget = one_block_kernel(label)
    for span in (None, 1, 7, 40):
        with pytest.MonkeyPatch.context() as mp:
            if span is not None:
                mp.setattr("crashmle.draws.BLOCK_ELEMENTS", budget(span))
            ll, grad, hess = kernel(theta, rows)
            ll_obs, scores = kernel(theta, rows, obs=True)
        assert (hess is None) == label.startswith("mixed")
        if span is None or label.endswith("mnl"):
            np.testing.assert_array_equal(grad, scores.sum(axis=1))
        if span is None:
            np.testing.assert_array_equal(ll, ll_obs.sum(axis=1))
            continue
        for got, want in ((ll, ll_obs.sum(axis=1)), (grad, scores.sum(axis=1))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_a_running_sum_carried_into_each_block_is_numpys_middle_axis_sum():
    """What the logit kernel's scores rely on: numpy sums a C-contiguous (K,
    N, P) array over N one observation after another, so adding the running
    sum into each block's first observation before summing the block gives
    ``sum(axis=1)`` bit for bit, for every block size."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 1000, 5)) * 10.0 ** rng.integers(-8, 9, size=(3, 1000, 5))
    want = a.sum(axis=1)
    assert not np.array_equal(a[:, ::-1].sum(axis=1), want)  # the order shows in the bits
    for span in (1, 7, 40, 1000):
        total = np.zeros((3, 5))
        for at in range(0, 1000, span):
            block = a[:, at:at + span].copy()
            block[:, 0] += total
            total = block.sum(axis=1)
        np.testing.assert_array_equal(total, want)


def test_arrays_a_caller_keeps_survive_the_next_kernel_call():
    """The NB kernel reuses its work arrays; what its wrappers return is
    the caller's own."""
    design, counts, theta = nb_batch_case(0.8)
    kernel = negbin._kernel(design, None, counts)
    for call in (lambda t: families.first_row(kernel)(t[0]),
                 lambda t: kernel(t, np.arange(len(t))),
                 lambda t: families.summed(kernel)(t[0])):
        first = call(theta)
        kept = [np.copy(out) for out in first]
        call(theta[::-1] + 0.5)
        for got, want in zip(first, kept):
            np.testing.assert_array_equal(got, want)


def test_nb_batch_objective_is_minus_infinity_where_undefined():
    design, counts, theta = nb_batch_case(0.8)
    theta[1, 0] = 800.0  # exp overflows: the serial objective returns -inf too
    ll, _, _ = negbin._kernel(design, None, counts)(theta, np.arange(4))
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
    centers = np.array([[1.0, -2.0], [0.5, 0.5], [0.0, 0.0], [3.0, 1.0], [0.0, 0.0]])
    hessians = np.stack([np.diag([2.0, 1.0]), np.eye(2), np.eye(2),
                         np.array([[2.0, 0.5], [0.5, 1.0]]), np.eye(2)])
    objective = quadratic_batch(centers, hessians)

    def with_bad_rows(theta, rows):
        ll, grad, hess = objective(theta, rows)
        # row 1: -(d0**2) / 2 - (d1**2 - 1)**2 / 4, a saddle at its start
        d = theta[rows == 1] - centers[1]
        ll[rows == 1] = -0.5 * d[:, 0] ** 2 - 0.25 * (d[:, 1] ** 2 - 1.0) ** 2
        grad[rows == 1] = np.stack([-d[:, 0], -(d[:, 1] ** 3 - d[:, 1])], axis=1)
        hess[rows == 1] = [np.diag([-1.0, 1.0 - 3.0 * v ** 2]) for v in d[:, 1]]
        ll[(rows == 2) & np.all(theta == 0.0, axis=1)] = np.nan
        hess[rows == 4] = np.nan
        return ll, grad, hess

    start = np.full((5, 2), 5.0)
    start[1] = centers[1] + [4.5, 0.1]
    start[2] = 0.0
    res = maximize_batch(with_bad_rows, start)
    # the saddle row climbs to a maximum on shifted Hessians; row 2 starts
    # NaN, and row 4's Hessian is not finite
    np.testing.assert_array_equal(res.converged, [True, True, False, True, False])
    np.testing.assert_allclose(res.theta[[0, 3]], centers[[0, 3]], atol=1e-12)
    np.testing.assert_allclose(np.abs(res.theta[1] - centers[1]), [0.0, 1.0], atol=1e-6)
    np.testing.assert_array_equal(res.theta[[2, 4]], start[[2, 4]])
    np.testing.assert_array_equal(res.iterations[[2, 4]], [0, 0])
    assert np.isnan(res.ll[2]) and list(res.error) == [False, False, True, False, False]
    assert list(res.message) == ["gradient tolerance reached",
                                 "gradient tolerance reached",
                                 "objective is not finite at the starting point",
                                 "gradient tolerance reached",
                                 "Hessian not finite"]


def double_well_batch(theta, rows):
    """Rows of -(t**2 - 1)**2, whose Hessian is not negative definite
    for |t| < 1/sqrt(3)."""
    return (-np.sum((theta ** 2 - 1.0) ** 2, axis=1), -4.0 * theta * (theta ** 2 - 1.0),
            (4.0 - 12.0 * theta ** 2)[:, :, None])


def test_maximize_batch_shifts_an_indefinite_hessian_to_reach_a_maximum():
    start = np.array([[0.1], [-0.3], [0.5], [2.0]])
    assert np.all(double_well_batch(start, np.arange(4))[2][:3] > 0.0)
    res = maximize_batch(double_well_batch, start)
    assert res.converged.all()
    np.testing.assert_allclose(res.theta[:, 0], [1.0, -1.0, 1.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(res.ll, 0.0, atol=1e-12)
    # a row whose start is concave takes the plain Newton steps it takes alone
    alone = maximize_batch(double_well_batch, start[3:])
    np.testing.assert_array_equal(alone.theta[0], res.theta[3])
    assert alone.iterations[0] == res.iterations[3]


def test_maximize_batch_shifts_an_exactly_singular_hessian():
    # -(d0 + d1)**2 has the singular Hessian -2 * ones, which passes
    # Cholesky in rounding and then meets an exact zero pivot in the solve
    singular = 2.0 * np.ones((2, 2))
    np.linalg.cholesky(singular)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular, np.ones(2))
    centers = np.array([[1.0, -2.0], [0.5, 0.5], [3.0, 1.0]])
    hessians = np.stack([np.diag([2.0, 1.0]), singular, np.array([[2.0, 0.5], [0.5, 1.0]])])
    objective = quadratic_batch(centers, hessians)
    start = np.array([[5.0, 4.0], [2.0, 3.0], [-1.0, 0.0]])
    res = maximize_batch(objective, start)
    assert res.converged.all()
    assert np.sum(res.theta[1] - centers[1]) == pytest.approx(0.0, abs=1e-6)
    # the other rows take the plain Newton steps they take alone
    for k in (0, 2):
        alone = maximize_batch(quadratic_batch(centers[k:k + 1], hessians[k:k + 1]),
                               start[k:k + 1])
        np.testing.assert_array_equal(alone.theta[0], res.theta[k])
        assert (alone.ll[0], alone.iterations[0]) == (res.ll[k], res.iterations[k])


def singular_mnl():
    """A 500-row logit whose x3 duplicates x1, and its spec without x3."""
    table = mnl_table(n=500)
    table = ObservationTable(dict(table.columns, x3=table.columns["x1"]), table.outcome,
                             "severity")
    spec = ModelSpec("mnl", MNL_SPEC.terms + (Term("x3", ("a",)),), MNL_SPEC.outcomes, "base")
    return table, spec, MNL_SPEC


def singular_nb():
    """A 500-row NB table whose covariate is 1 on every row, like the
    constant, and its spec without the covariate."""
    table = nb_table(n=500)
    table = ObservationTable(dict(table.columns, z1=np.ones(table.n_rows)), table.outcome,
                             "frequency")
    return table, NB_SPEC, ModelSpec("nb", (Term(CONSTANT),))


@pytest.mark.parametrize("case", [singular_mnl, singular_nb], ids=["mnl", "nb"])
def test_a_fit_with_an_exactly_singular_hessian_converges(case):
    table, spec, reduced = case()
    with pytest.warns(RuntimeWarning, match="covariance matrix is undefined"):
        fit = crashmle.fit(table, spec)
    assert fit.converged and fit.se_method == "undefined"
    # the repeated column adds no freedom: the model without it has the same maximum
    assert fit.ll_converged == pytest.approx(crashmle.fit(table, reduced).ll_converged,
                                             rel=1e-9)


def test_maximize_batch_stops_rows_whose_line_search_fails():
    # row 1's gradient points uphill while its values fall along it
    def objective(theta, rows):
        sign = np.where(rows == 1, -1.0, 1.0)[:, None]
        ll = -np.einsum("kp,kp->k", theta, theta)
        hess = np.broadcast_to(-2.0 * np.eye(2), (len(rows), 2, 2))
        return ll, -2.0 * sign * theta, hess.copy()

    start = np.ones((2, 2))
    res = maximize_batch(objective, start)
    np.testing.assert_array_equal(res.converged, [True, False])
    np.testing.assert_array_equal(res.iterations, [1, 0])
    np.testing.assert_array_equal(res.theta, [[0.0, 0.0], [1.0, 1.0]])
    assert list(res.message) == ["gradient tolerance reached",
                                 "line search failed to find an ascent step"]


def quartic_batch(theta, rows):
    """Rows of -(t - 1)**4, maximized by Newton a third of the way at a time."""
    d = theta - 1.0
    return -np.sum(d ** 4, axis=1), -4.0 * d ** 3, (-12.0 * d ** 2)[:, :, None]


def curvature_pair(problems):
    """The rows ``problems`` selects of two: row 0 is t1 + t2 - (t1**2 +
    1e-17 t2**2) / 2, whose negative Hessian diag(1, 1e-17) is positive
    definite but nearly singular; row 1 is -(t1**2 - 1)**2 - t2**2 / 2,
    indefinite at t1 = 0.1."""
    kind = np.arange(2)[problems]

    def objective(theta, rows):
        quad = kind[rows, None] == 0
        t1, t2 = theta[:, :1], theta[:, 1:]
        ll = np.where(quad, t1 + t2 - 0.5 * (t1 ** 2 + 1e-17 * t2 ** 2),
                      -(t1 ** 2 - 1.0) ** 2 - 0.5 * t2 ** 2)
        grad = np.where(quad, np.hstack([1.0 - t1, 1.0 - 1e-17 * t2]),
                        np.hstack([-4.0 * t1 * (t1 ** 2 - 1.0), -t2]))
        curv = np.where(quad, [-1.0, -1e-17], np.hstack([4.0 - 12.0 * t1 ** 2, -np.ones_like(t2)]))
        return ll[:, 0], grad, curv[:, :, None] * np.eye(2)
    return objective


def test_maximize_batch_stops_rows_on_a_short_step():
    res = maximize_batch(quartic_batch, np.array([[0.0], [0.5]]),
                         OptimSettings(step_tolerance=1.0))
    np.testing.assert_array_equal(res.converged, [False, False])
    np.testing.assert_array_equal(res.iterations, [1, 1])
    np.testing.assert_allclose(res.theta[:, 0], [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
    assert list(res.message) == ["step size below tolerance"] * 2


def test_maximize_batch_rows_are_independent():
    """Each row of a batch run is, bit for bit, that row run alone, given
    an objective whose rows are computed independently of each other (the
    logit kernel on one observation block, the NB kernel)."""
    design, ys, theta = mnl_batch_case()
    quartic_starts = np.array([[0.0], [0.9], [-3.0], [1.0]])
    # the quartic rows stop at different iterations, one at its start
    np.testing.assert_array_equal(
        maximize_batch(quartic_batch, quartic_starts).iterations, [13, 7, 16, 0])
    nb_cases = [
        (lambda rows, d=d, c=c: negbin._kernel(d, None, c[rows]), t)
        for d, c, t in map(nb_batch_case, (1e-6, 0.8, 50.0))]
    for make, start in (
            (lambda rows: quartic_batch, quartic_starts),
            # a stack that fails Cholesky shifts only the rows that fail alone
            (curvature_pair, np.array([[0.0, 0.0], [0.1, 1.0]])),
            (lambda rows: mnl._kernel(design, None, ys[rows]), theta),
            *nb_cases):
        res = maximize_batch(make(slice(None)), start)
        for k in range(len(start)):
            alone = maximize_batch(make(slice(k, k + 1)), start[k:k + 1])
            np.testing.assert_array_equal(alone.theta[0], res.theta[k])
            assert (alone.ll[0], alone.iterations[0]) == (res.ll[k], res.iterations[k])


def test_maximize_batch_respects_the_iteration_limit():
    design, counts, theta = nb_batch_case(0.8)
    theta += 1.0
    res = maximize_batch(negbin._kernel(design, None, counts), theta,
                         OptimSettings(max_iterations=1))
    assert not res.converged.any()
    assert np.all(res.iterations <= 1)
    res = maximize_batch(quartic_batch, np.zeros((1, 1)), OptimSettings(max_iterations=3))
    assert (res.converged[0], res.iterations[0]) == (False, 3)
    assert res.message[0] == "iteration limit reached"


# ---------------------------------------------------------- outcome streams

def test_replicate_outcomes_follow_the_per_replicate_streams():
    for table, spec in ((nb_table(), NB_SPEC), (mnl_table(), MNL_SPEC)):
        design = build_design(table, spec)
        theta = np.linspace(0.1, 0.5, design.n_params)
        block = lrtest.replicate_outcomes(design, theta, 11, 3, 7)
        assert block.shape == (4, table.n_rows)
        for row, i in enumerate(range(3, 7)):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, i))))
            sim = redraw_outcomes(spec, theta, table, rng)
            want = (build_design(sim, spec).y_index if spec.is_severity
                    else sim.outcome)
            np.testing.assert_array_equal(block[row], want)


def test_an_empty_range_of_replicates_draws_no_outcomes():
    for table, spec in ((nb_table(), NB_SPEC), (mnl_table(), MNL_SPEC)):
        design = build_design(table, spec)
        theta = np.linspace(0.1, 0.5, design.n_params)
        for stop, rows in ((3, 0), (5, 2)):
            block = lrtest.replicate_outcomes(design, theta, 11, 3, stop)
            assert block.shape == (rows, table.n_rows) and block.dtype == np.int64


def test_mixed_replicate_outcomes_follow_the_per_replicate_streams():
    # a mixed replicate draws its mixing draws, then its outcomes, from
    # the one stream SeedSequence((seed, i))
    for table, spec in ((nb_table(), MIXED_NB_SPEC), (mnl_table(), MIXED_SPEC)):
        design = build_design(table, spec)
        theta = np.linspace(0.1, 0.5, design.n_params)
        block = lrtest.replicate_outcomes(design, theta, 11, 3, 7)
        assert block.shape == (4, table.n_rows)
        for row, i in enumerate(range(3, 7)):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((11, i))))
            sim = redraw_outcomes(spec, theta, table, rng)
            want = (build_design(sim, spec).y_index if spec.is_severity
                    else sim.outcome)
            np.testing.assert_array_equal(block[row], want)


# ---------------------------------------------------- the Monte Carlo loop

def serial_replicate(table, spec, theta_observed, outcome, draws=None):
    """One replicate as a plain serial refit loop: (statistic, drop reason).
    A mixed spec's pooled model is fitted on ``draws``, and each subset's
    on the rows of ``draws`` it owns."""
    labels = np.asarray(spec.outcomes)[outcome] if spec.is_severity else outcome
    fit_table = ObservationTable(dict(table.columns), labels, table.mode)
    kernel = families.REGISTRY[spec.family].kernel
    make = lambda design, draws, outcomes: families.summed(kernel(design, draws, outcomes))
    flagged = table.columns["flag"] == 1.0
    # split_by_flag returns the flag == 1 part first, like subset A
    parts = zip(split_by_flag(fit_table, "flag"), (flagged, ~flagged))
    try:
        rep_all = maximize(make(build_design(fit_table, spec), draws, None),
                           theta_observed)
        reps = [maximize(make(build_design(part, spec),
                              None if draws is None else draws.subset(rows), None),
                         rep_all.theta)
                for part, rows in parts]
    except OptimizationError:
        return np.nan, "optimization_error"
    if not (rep_all.converged and all(r.converged for r in reps)):
        return np.nan, "not_converged"
    x2 = -2.0 * (rep_all.ll - reps[0].ll - reps[1].ll)
    if x2 < -1e-4:
        return np.nan, "negative_statistic"
    return max(x2, 0.0), ""


def serial_null(table, spec, replicates, seed, n_draws=None):
    pieces = lrtest._Pieces(table, spec, "flag", None, n_draws)
    theta = lrtest._observed(pieces)[0].theta
    draws = (DrawMatrix.for_design(build_design(table, spec), n_draws)
             if spec.is_mixed else None)
    out = []
    for i in range(replicates):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        sim = redraw_outcomes(spec, theta, table, rng)
        y = build_design(sim, spec).y_index if spec.is_severity else sim.outcome
        out.append(serial_replicate(table, spec, theta, y, draws))
    return out


@pytest.mark.parametrize("family", ["nb", "mnl", "mixed_nb", "mixed_mnl"])
def test_mc_matches_a_serial_refit_loop(family):
    spec = {"nb": NB_SPEC, "mnl": MNL_SPEC, "mixed_nb": MIXED_NB_SPEC,
            "mixed_mnl": MIXED_SPEC}[family]
    table = nb_table(122, seed=5) if spec.is_frequency else mnl_table(300, seed=5)
    # the mixed families refit serially: fewer replicates, on 25 draws
    replicates, n_draws = (20, 25) if spec.is_mixed else (150, None)
    result = lrtest.mc_null_distribution(table, spec, "flag", replicates=replicates,
                                         seed=4, n_draws=n_draws)
    reference = serial_null(table, spec, replicates, 4, n_draws)
    kept = np.array([x2 for x2, why in reference if why == ""])
    assert result.replicates_kept == kept.size
    assert result.replicates_dropped == replicates - kept.size
    for reason in lrtest.DROP_REASONS:
        assert result.replicates_dropped_by_reason[reason] == \
            sum(why == reason for _, why in reference)
    np.testing.assert_allclose(result.null_stats, kept, rtol=0.0, atol=1e-6)


def test_mc_matches_a_serial_refit_loop_at_a_multi_word_seed():
    # a seed of 2**32 or more enters SeedSequence as two or more words
    table, seed = nb_table(122, seed=5), 2**32 + 1
    result = lrtest.mc_null_distribution(table, NB_SPEC, "flag", replicates=40, seed=seed)
    reference = serial_null(table, NB_SPEC, 40, seed)
    kept = np.array([x2 for x2, why in reference if why == ""])
    assert result.replicates_kept == kept.size
    for reason in lrtest.DROP_REASONS:
        assert result.replicates_dropped_by_reason[reason] == \
            sum(why == reason for _, why in reference)
    np.testing.assert_allclose(result.null_stats, kept, rtol=0.0, atol=1e-6)


def test_batch_hess_is_the_kernel_hessian_at_each_rows_final_theta():
    """A Newton row returns the Hessian of its last accepted evaluation:
    bit for bit a fresh one-row kernel call's at its final theta.  The NB
    rows are stacked, their kernel rows being independent of each other;
    the logit's observation blocks depend on the rows per call, so it is
    fitted one row at a time, as a fit does.  A stage with draws returns
    no Hessian."""
    nb_design, counts, theta = nb_batch_case(0.8)
    mnl_design = build_design(mnl_table(), MNL_SPEC)
    for family, design, starts, outcomes in [
            ("nb", nb_design, theta, counts),
            ("mnl", mnl_design, np.zeros((1, mnl_design.n_params)), None)]:
        kernel = families.REGISTRY[family].kernel
        res = families.maximize_rows(families.REGISTRY[family], design, None, starts, outcomes)
        assert res.converged.all() and res.iterations.min() > 0
        for k in range(len(starts)):
            fresh = kernel(design, None, None if outcomes is None else outcomes[k:k + 1])
            np.testing.assert_array_equal(res.hess[k],
                                          fresh(res.theta[k:k + 1], slice(0, 1))[2][0])
    table = nb_table()
    design = build_design(table, MIXED_NB_SPEC)
    res = families.maximize_rows(families.REGISTRY["mixed_nb"], design,
                                 DrawMatrix.for_design(design, 25),
                                 families.REGISTRY["mixed_nb"].start(design)[None])
    assert res.iterations[0] > 0 and res.hess is None


@pytest.mark.parametrize("family", ["mixed_nb", "mixed_mnl"])
def test_stacked_mixed_refits_equal_each_row_fitted_alone(family):
    """Six replicate rows in one stacked BFGS ascent give each row's own
    fit: bit for bit for the NB kernel, whose rows do not depend on each
    other, and to 1e-6 for the logit kernel, whose observation blocks
    depend on the rows per call."""
    spec, table = ((MIXED_NB_SPEC, nb_table(122, seed=5)) if family == "mixed_nb"
                   else (MIXED_SPEC, mnl_table(300, seed=5)))
    pieces = lrtest._Pieces(table, spec, "flag", None, 25)
    design, draws = pieces.designs["all"], pieces.draws["all"]
    theta = lrtest._observed(pieces)[0].theta
    outcomes = lrtest.replicate_outcomes(design, theta, 4, 0, 6)
    family = families.REGISTRY[spec.family]
    stacked = families.maximize_rows(family, design, draws, np.tile(theta, (6, 1)),
                                     outcomes)
    assert stacked.converged.all()
    for k in range(6):
        alone = families.maximize_rows(family, design, draws, theta[None],
                                       outcomes[k:k + 1])
        assert alone.iterations[0] == stacked.iterations[k]
        if spec.is_frequency:
            np.testing.assert_array_equal(alone.theta[0], stacked.theta[k])
            assert alone.ll[0] == stacked.ll[k]
        else:
            np.testing.assert_allclose(alone.theta[0], stacked.theta[k], rtol=0, atol=1e-6)
            assert alone.ll[0] == pytest.approx(stacked.ll[k], rel=0, abs=1e-6)


def test_mixed_fits_and_pooling_tests_do_not_call_the_one_row_maximizer(monkeypatch):
    def no_maximize(*args, **kwargs):
        raise AssertionError("optimize.maximize was called")
    # every crashmle module that holds the function, under any name
    for name, module in list(sys.modules.items()):
        if name == "crashmle" or name.startswith("crashmle."):
            for attr, value in list(vars(module).items()):
                if value is maximize:
                    monkeypatch.setattr(module, attr, no_maximize)
    table = nb_table(122, seed=5)
    fit = crashmle.fit(table, MIXED_NB_SPEC, n_draws=25)
    assert fit.converged
    result = lrtest.lr_test(table, MIXED_NB_SPEC, "flag", n_draws=25)
    assert result.all_converged and result.x2 >= 0.0


def mc_in_blocks_of(block_rows, table, *args, tile_rows=None):
    """``lrtest.mc_null_distribution`` with ``block_rows`` replicates per
    block (None: the default, ``lrtest.BLOCK_ELEMENTS // n_rows``) and a kernel
    block of ``tile_rows`` table rows' elements (None: the default),
    which sets the NB kernel's tiles and the logit kernel's observation
    blocks."""
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(lrtest, "BLOCK_ELEMENTS", block_rows * table.n_rows)
        if tile_rows is not None:
            mp.setattr("crashmle.draws.BLOCK_ELEMENTS", tile_rows * table.n_rows)
        return lrtest.mc_null_distribution(table, *args)


@pytest.mark.bitwise
@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.integers(0, 2**16))
def test_mc_statistics_do_not_depend_on_the_block_size(table_seed, seed):
    """NB replicate statistics and drop counts are bit-identical in blocks
    of 7, 64 and the default rows, and in NB kernel tiles of 5 rows; MNL
    statistics agree to 1e-6, because the logit kernel's observation
    blocks depend on the rows per call and on the kernel block."""
    for table, spec in ((nb_table(122, seed=table_seed), NB_SPEC),
                        (mnl_table(300, seed=table_seed), MNL_SPEC)):
        args = (table, spec, "flag", 150, seed)
        default = mc_in_blocks_of(None, *args)
        for block_rows, tile_rows in ((7, None), (64, None), (None, 5)):
            res = mc_in_blocks_of(block_rows, *args, tile_rows=tile_rows)
            assert res.replicates_dropped_by_reason == \
                default.replicates_dropped_by_reason
            if spec.is_frequency:
                np.testing.assert_array_equal(res.null_stats, default.null_stats)
            else:
                np.testing.assert_allclose(res.null_stats, default.null_stats,
                                           rtol=0.0, atol=1e-6)


def test_mc_memory_on_a_large_table_is_bounded_by_the_block():
    # 20,000 rows: a block has one replicate (BLOCK_ELEMENTS // 20,000 is
    # 1), not all 64, and its work arrays stay within tens of MB
    table = nb_table(20_000, seed=1)
    res, peak = peak_beyond_outputs(lrtest.mc_null_distribution, table, NB_SPEC, "flag",
                                    replicates=64)
    assert res.replicates_kept == 64
    assert peak < 80e6


# Python 3.12 and later warn when a process with other threads forks; the
# tests below fork beside a BLAS thread pool wherever one was started
FORK_WARNING = "ignore:This process .* is multi-threaded:DeprecationWarning"


def in_processes(monkeypatch, n):
    """Monte Carlo blocks shared among ``n`` processes, as on an ``n``-CPU
    host, with the thread probe reading one thread (a BLAS thread pool
    would otherwise keep every call in one process)."""
    monkeypatch.setattr(lrtest, "_cpus", lambda: n)
    monkeypatch.setattr(lrtest, "_single_threaded", lambda: True)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.bitwise
@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("family", ["nb", "mnl", "mixed_nb", "mixed_mnl"])
def test_mc_results_do_not_depend_on_the_process_count(family, monkeypatch):
    """Null statistics, the observed statistic, p_mc and the drops by
    reason are bit-identical in 1, 2 and 3 processes, over at least three
    blocks, and every forked child is reaped."""
    spec = {"nb": NB_SPEC, "mnl": MNL_SPEC, "mixed_nb": MIXED_NB_SPEC,
            "mixed_mnl": MIXED_SPEC}[family]
    table = nb_table(122, seed=5) if spec.is_frequency else mnl_table(300, seed=5)
    replicates, n_draws = (9, 25) if spec.is_mixed else (60, None)
    monkeypatch.setattr(lrtest, "BLOCK_ELEMENTS", 3 * table.n_rows * (n_draws or 1))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = []
    for n in (1, 2, 3):
        in_processes(monkeypatch, n)
        runs.append(lrtest.mc_null_distribution(table, spec, "flag", replicates, 4,
                                                n_draws=n_draws))
    assert len(forks) == 0 + 1 + 2
    assert_no_child_left()
    for res in runs[1:]:
        np.testing.assert_array_equal(res.null_stats, runs[0].null_stats)
        assert (res.x2, res.p_mc, res.replicates_dropped_by_reason) == \
            (runs[0].x2, runs[0].p_mc, runs[0].replicates_dropped_by_reason)


@pytest.mark.filterwarnings(FORK_WARNING)
@pytest.mark.parametrize("where, error, message", [
    ("child", ValueError, "a block failed in the child"),
    ("parent", ValueError, "a block failed in the parent"),
    ("child exit", RuntimeError, r"ended without a result \(exit status 7\)")])
def test_a_failed_block_raises_and_leaves_no_child(where, error, message, monkeypatch):
    """A child's exception is raised with its type and message, a child that
    dies names its exit status, and a failure in the calling process kills
    the children; in each case every child is reaped."""
    table = nb_table(122, seed=5)
    monkeypatch.setattr(lrtest, "BLOCK_ELEMENTS", 10 * table.n_rows)
    in_processes(monkeypatch, 3)
    parent, block = os.getpid(), lrtest._replicate_block

    def failing(pieces, theta, outcomes):
        if os.getpid() == parent and where == "parent":
            raise ValueError("a block failed in the parent")
        if os.getpid() != parent and where == "child":
            raise ValueError("a block failed in the child")
        if os.getpid() != parent and where == "child exit":
            os._exit(7)
        return block(pieces, theta, outcomes)
    monkeypatch.setattr(lrtest, "_replicate_block", failing)
    with pytest.raises(error, match=message) as raised:
        lrtest.mc_null_distribution(table, NB_SPEC, "flag", replicates=40, seed=1)
    assert raised.type is error
    assert_no_child_left()


@pytest.mark.parametrize("case", ["one cpu", "probe reads two threads", "thread running"])
def test_mc_does_not_fork_on_one_cpu_or_beside_another_thread(case, monkeypatch):
    """Four blocks stay in one process on one CPU, where the thread probe
    reads a second thread, and (probe unpatched) beside a running thread."""
    def no_fork():
        raise AssertionError("os.fork was called")
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(lrtest, "_cpus", lambda: 1 if case == "one cpu" else 3)
    if case != "thread running":
        monkeypatch.setattr(lrtest, "_single_threaded", lambda: case == "one cpu")
    table = nb_table(122, seed=5)
    monkeypatch.setattr(lrtest, "BLOCK_ELEMENTS", 10 * table.n_rows)
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait)
    waiting.start()
    try:
        res = lrtest.mc_null_distribution(table, NB_SPEC, "flag", replicates=40, seed=1)
    finally:
        stop.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert res.replicates_requested == 40


def test_mc_drops_separated_mnl_replicates_as_not_converged():
    # xr is non-zero only on the few rows of a rare indicator; a replicate
    # whose outcomes on those rows line up with the sign of xr separates,
    # its xr coefficient runs off and its predictors pass the bound of 30
    gen = ModelSpec("mnl", MNL_SPEC.terms[:4], MNL_SPEC.outcomes, "base")
    table = gen_mnl(DgpConfig(
        gen, {"constant[a]": 0.3, "constant[b]": -0.2, "x1[a]": 0.7, "x1[b]": -0.4},
        {"x1": CovariateRecipe("normal"), "ind": CovariateRecipe("bernoulli", p=0.05),
         **FLAG}, n=300, seed=0))
    columns = dict(table.columns, xr=table.columns["ind"] * table.columns["x1"])
    table = ObservationTable(columns, table.outcome, "severity")
    spec = ModelSpec("mnl", gen.terms + (Term("xr", ("a",)),), gen.outcomes, "base")
    result = lrtest.mc_null_distribution(table, spec, "flag", replicates=100, seed=1)
    assert result.all_converged
    dropped = result.replicates_dropped_by_reason
    assert dropped["not_converged"] > 0
    assert dropped["optimization_error"] == dropped["negative_statistic"] == 0
    assert result.replicates_kept == 100 - dropped["not_converged"]


def test_a_term_that_is_zero_on_every_row_is_not_maximized(monkeypatch):
    # a 150-row table whose indicator never fires: its coefficient does not
    # enter the likelihood, so no maximizer may report it converged
    table = mnl_table(n=150)
    columns = dict(table.columns, ind=np.zeros(table.n_rows))
    table = ObservationTable(columns, table.outcome, "severity")
    spec = ModelSpec("mnl", MNL_SPEC.terms + (Term("ind", ("b",)),),
                     MNL_SPEC.outcomes, "base")
    design = build_design(table, spec)

    def no_maximizer(*args, **kwargs):
        raise AssertionError("an unidentified design was maximized")
    monkeypatch.setattr(families, "maximize_batch", no_maximizer)
    starts = np.zeros((3, design.n_params))
    ys = np.stack([design.y_index, np.roll(design.y_index, 1), design.y_index[::-1]])
    res = families.maximize_rows(families.REGISTRY["mnl"], design, None, starts, ys)
    assert not res.converged.any() and not res.error.any()
    assert all("ind[b]" in m and "not identified" in m for m in res.message)
    np.testing.assert_array_equal(res.theta, starts)
    for y, ll in zip(ys, res.ll):
        assert ll == mnl.make_objective(design, y)(starts[0])[0]

    with pytest.warns(RuntimeWarning, match="covariance matrix is undefined"):
        fit = crashmle.fit(table, spec)
    assert not fit.converged and "ind[b]" in fit.message


def forced_block():
    table = nb_table(122, seed=3)
    pieces = lrtest._Pieces(table, NB_SPEC, "flag", None, None)
    theta = lrtest._observed(pieces)[0].theta
    outcomes = lrtest.replicate_outcomes(pieces.designs["all"], theta, 0, 0, 6)
    return table, pieces, theta, outcomes


def assert_block_matches_serial(table, pieces, theta, outcomes):
    x2, reason = lrtest._replicate_block(pieces, theta, outcomes)
    for k, y in enumerate(outcomes):
        want_x2, want_reason = serial_replicate(table, NB_SPEC, theta, y)
        assert reason[k] == want_reason
        if want_reason == "":
            assert x2[k] == pytest.approx(want_x2, abs=1e-6)
        else:
            assert np.isnan(x2[k])


def test_forced_fallback_rows_are_kept_or_dropped_as_serially():
    table, pieces, theta, outcomes = forced_block()
    outcomes[0, pieces.mask_a] = 0    # all-zero counts in subset A
    outcomes[1, ~pieces.mask_a] = 0   # ... in subset B
    outcomes[2] = 0                   # ... everywhere
    assert_block_matches_serial(table, pieces, theta, outcomes)


@pytest.mark.parametrize("spec, table, flat", [
    (NB_SPEC, nb_table, False), (MNL_SPEC, mnl_table, False),
    (MIXED_NB_SPEC, nb_table, False), (MIXED_NB_SPEC, nb_table, True)],
    ids=["nb", "mnl", "mixed_nb", "bhhh"])
def test_a_plain_fit_makes_no_kernel_call_after_maximizing(monkeypatch, spec, table, flat):
    """After maximizing, a plain fit makes no kernel call: it inverts the
    Hessian its ascent stopped on.  A mixed fit whose finite-difference
    Hessian inverts makes no kernel call either; one whose Hessian does
    not (a flat objective here) makes one per-observation call, for the
    outer product of its scores."""
    options = {"n_draws": 25} if spec.is_mixed else {}
    want = families.fit(table(), spec, **options)
    family, maximize_rows, log = families.REGISTRY[spec.family], families.maximize_rows, []

    def recording_kernel(design, draws, outcomes):
        kernel = family.kernel(design, draws, outcomes)

        def recorded(theta, rows, obs=False):
            log.append("obs" if obs else "summed")
            return kernel(theta, rows, obs)
        return recorded

    def recording_maximize(*args, **kwargs):
        res = maximize_rows(*args, **kwargs)
        log.append("maximized")
        return res

    def objective(design, draws, outcomes):
        if flat:
            return lambda theta: (0.0, np.zeros(design.n_params))
        return family.objective(design, draws, outcomes)

    monkeypatch.setitem(families.REGISTRY, spec.family,
                        replace(family, kernel=recording_kernel,
                                objective=objective if spec.is_mixed else None))
    monkeypatch.setattr(families, "maximize_rows", recording_maximize)
    if flat:
        with pytest.warns(RuntimeWarning, match="outer product of scores"):
            got = families.fit(table(), spec, **options)
    else:
        got = families.fit(table(), spec, **options)
    after = log[len(log) - log[::-1].index("maximized"):]
    assert after == (["obs"] if flat else [])
    assert got.se_method == ("bhhh" if flat else "hessian")
    if not flat:
        np.testing.assert_array_equal(got.standard_errors, want.standard_errors)
    np.testing.assert_array_equal(got.theta_hat, want.theta_hat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_outlier_count_takes_newton_in_every_stage(monkeypatch):
    table, pieces, theta, outcomes = forced_block()
    outcomes[3, 5] = 100_000  # an observation of subset B
    kernels = []  # each kernel's counts and Hessian flags

    def recording_kernel(design, draws, counts):
        counts, flags = np.atleast_2d(counts), set()
        kernel = negbin._kernel(design, draws, counts)
        kernels.append((counts, flags))

        def recorded(theta, rows, obs=False):
            out = kernel(theta, rows, obs)
            flags.add(not obs and out[2] is not None)  # a Newton call
            return out
        return recorded

    monkeypatch.setattr(pieces, "family",
                        replace(pieces.family, kernel=recording_kernel))
    (x2, reason), peak = peak_beyond_outputs(lrtest._replicate_block, pieces, theta, outcomes)
    assert peak < 20e6
    # all six rows take Newton in each stage, the outlier's in the pooled
    # stage and in subset B
    newton = [counts for counts, flags in kernels if True in flags]
    assert [len(counts) for counts in newton] == [6, 6, 6]
    assert [counts.max() > negbin.TABLE_CAP for counts in newton] == [True, False, True]
    # no stage leaves Newton, not even the outlier's row in subset A, whose
    # start (the pooled solution) has a Hessian that is not negative definite
    assert all(flags == {True} for _, flags in kernels)
    # the outlier's replicate is kept, and its pooled fit is the one-row
    # Newton fit; whether a BFGS refit from the same start gets there turns
    # on its first steps to extreme parameters, so no BFGS reference is used
    assert reason[3] == "" and np.isfinite(x2[3])
    design = pieces.designs["all"]
    alone = families.maximize_rows(pieces.family, design, None, theta[None], outcomes[3:4])
    assert alone.ll[0] == pytest.approx(-498.11, abs=0.01)
    pooled = families.maximize_rows(pieces.family, design, None,
                                    np.tile(theta, (6, 1)), outcomes)
    assert pooled.ll[3] == pytest.approx(alone.ll[0], abs=1e-6)
    assert_block_matches_serial(table, pieces, theta, outcomes[np.arange(6) != 3])
