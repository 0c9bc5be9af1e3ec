"""Per-observation scores of every family's likelihood kernel.

The scores feed the outer-product (BHHH) standard errors.  Each kernel
returns per-observation log-likelihoods and scores; the scores must be
the derivatives of those log-likelihoods, and summed they must give the
objective's gradient.
"""

import numpy as np
import pytest

from crashmle import mixed, mnl, negbin
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term, build_design
from crashmle.draws import DrawMatrix
from crashmle.families import REGISTRY, first_row

N = 40
SEVERITY = ("a", "b", "base")

SPECS = {
    "mnl": ModelSpec("mnl", (
        Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)), Term("x1", ("a",)),
        Term("x2", ("a", "b"))), SEVERITY, "base"),
    "mixed_mnl": ModelSpec("mixed_mnl", (
        Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
        Term("x1", ("a",), "random_normal"), Term("x2", ("b",), "random_uniform")),
        SEVERITY, "base"),
    "nb": ModelSpec("nb", (Term(CONSTANT), Term("x1"), Term("x2"))),
    "mixed_nb": ModelSpec("mixed_nb", (
        Term(CONSTANT), Term("x1", (), "random_normal"),
        Term("x2", (), "random_uniform"))),
}

# kernel(design, draws) -> theta -> (per-observation ll, scores); the mnl
# and nb kernels take a stack of parameter rows, evaluated here at one
KERNELS = {
    "mnl": lambda design, draws: first_row(mnl._kernel(design, design.y_index)),
    "mixed_mnl": lambda design, draws: mixed._kernel(design, draws, design.y_index),
    "nb": lambda design, draws: first_row(
        negbin._kernel(design, None, design.counts)),
    "mixed_nb": lambda design, draws: first_row(
        negbin._kernel(design, draws, design.counts)),
}


def case(family):
    """Design, draws (or None) and an off-optimum parameter vector."""
    rng = np.random.default_rng(7)
    columns = {"x1": rng.normal(size=N), "x2": rng.uniform(0.0, 2.0, size=N)}
    spec = SPECS[family]
    if spec.is_severity:
        table = ObservationTable(columns, rng.choice(SEVERITY, size=N), "severity")
    else:
        counts = rng.poisson(2.0, size=N)
        counts[:3] = (0, 17, 40)
        table = ObservationTable(columns, counts, "frequency")
    design = build_design(table, spec)
    draws = (DrawMatrix.for_design(design, 30)
             if REGISTRY[family].needs_draws else None)
    theta = rng.normal(scale=0.3, size=design.n_params + spec.is_frequency)
    for j in design.random_terms:
        theta[design.scale_pos[j]] = np.log(0.6)
    if spec.is_frequency:
        theta[-1] = np.log(0.7)
    return design, draws, theta


@pytest.mark.parametrize("family", sorted(SPECS))
def test_scores_are_derivatives_of_per_observation_loglik(family):
    design, draws, theta = case(family)
    kernel = KERNELS[family](design, draws)
    ll_obs, scores = kernel(theta)
    assert ll_obs.shape == (N,)
    assert scores.shape == (N, theta.size)
    for k in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[k]))
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        fd = (kernel(up)[0] - kernel(down)[0]) / (2.0 * h)
        np.testing.assert_allclose(scores[:, k], fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("family", sorted(SPECS))
def test_scores_sum_to_the_objective_gradient(family):
    design, draws, theta = case(family)
    ll_obs, scores = KERNELS[family](design, draws)(theta)
    ll, grad = REGISTRY[family].objective(design, draws, None)(theta)
    assert ll == pytest.approx(ll_obs.sum(), rel=1e-12)
    np.testing.assert_allclose(scores.sum(axis=0), grad, rtol=1e-12, atol=1e-12)
    # the public score functions are the kernel's scores
    np.testing.assert_array_equal(REGISTRY[family].scores(theta, design, draws),
                                  scores)
