"""Per-observation scores of every family's likelihood kernel.

The scores feed the outer-product (BHHH) standard errors.  Each kernel
returns per-observation log-likelihoods and scores; the scores must be
the derivatives of those log-likelihoods, and summed they must give the
objective's gradient.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from crashmle import mixed, mnl, negbin
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term, build_design
from crashmle.draws import DrawMatrix
from crashmle.families import REGISTRY, first_row, fit, natural_from_internal, summed

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

# kernel(design, draws) -> theta -> (per-observation ll, scores); the logit
# and nb kernels take a stack of parameter rows, evaluated here at one
KERNELS = {
    "mnl": lambda design, draws: first_row(mnl._kernel(design, None, design.y_index)),
    "mixed_mnl": lambda design, draws: first_row(
        mnl._kernel(design, draws, design.y_index)),
    "nb": lambda design, draws: first_row(
        negbin._kernel(design, None, design.counts)),
    "mixed_nb": lambda design, draws: first_row(
        negbin._kernel(design, draws, design.counts)),
}

# the public per-observation score functions
SCORES = {
    "mnl": lambda theta, design, draws: mnl.mnl_scores(theta, design),
    "mixed_mnl": mixed.mixed_scores,
    "nb": lambda theta, design, draws: negbin.nb_scores(theta, design),
    "mixed_nb": negbin.mixed_nb_scores,
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
    draws = DrawMatrix.for_design(design, 30) if spec.is_mixed else None
    theta = rng.normal(scale=0.3, size=design.n_params)
    for j in design.random_terms:
        theta[design.scale_pos[j]] = np.log(0.6)
    if spec.is_frequency:
        theta[-1] = np.log(0.7)
    return design, draws, theta


@pytest.mark.parametrize("family", sorted(SPECS))
def test_the_design_packs_every_slot_and_knows_the_logs(family):
    """One packing for every family: the design's names cover the whole
    parameter vector, alpha too, and ``log_pos`` holds exactly the slots
    that the reported scale exponentiates."""
    design, _, theta = case(family)
    result = fit(design.table, design.spec, n_draws=25)
    names = design.param_names
    assert design.n_params == len(names) == result.n_params == theta.size
    assert result.param_names == names
    assert [names[i] for i in design.log_pos] == [
        name for name in names if name.endswith((":sd", ":spread")) or name == "alpha"]
    natural, _ = natural_from_internal(theta, design)
    np.testing.assert_array_equal(natural[design.log_pos], np.exp(theta[design.log_pos]))
    np.testing.assert_array_equal(np.delete(natural, design.log_pos),
                                  np.delete(theta, design.log_pos))


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
    ll, grad = summed(REGISTRY[family].kernel(design, draws, None))(theta)
    assert ll == pytest.approx(ll_obs.sum(), rel=1e-12)
    np.testing.assert_allclose(scores.sum(axis=0), grad, rtol=1e-12, atol=1e-12)
    # the public score functions are the kernel's scores
    np.testing.assert_array_equal(SCORES[family](theta, design, draws),
                                  scores)


@pytest.mark.parametrize("family", ["mixed_mnl", "mixed_nb"])
def test_mixed_loglik_collapses_to_plain_at_tiny_scale(family):
    """With every mixing log-scale at -60 a mixed kernel is the plain
    family's kernel at the same locations, and its scale scores vanish."""
    design, draws, theta = case(family)
    spec = design.spec
    plain_spec = replace(spec, family=spec.family.removeprefix("mixed_"),
                         terms=tuple(replace(t, kind="fixed") for t in spec.terms))
    scale = [design.scale_pos[j] for j in design.random_terms]
    theta[scale] = -60.0
    ll, scores = KERNELS[family](design, draws)(theta)
    ll_plain, scores_plain = KERNELS[plain_spec.family](
        build_design(design.table, plain_spec), None)(np.delete(theta, scale))
    np.testing.assert_allclose(ll, ll_plain, rtol=1e-14, atol=0.0)
    assert ll.sum() == pytest.approx(ll_plain.sum(), rel=1e-14, abs=0.0)
    np.testing.assert_allclose(np.delete(scores, scale, axis=1), scores_plain,
                               rtol=0.0, atol=1e-12)
    assert np.abs(scores[:, scale]).max() < 1e-20


@pytest.mark.parametrize("family", ["mixed_mnl", "mixed_nb"])
def test_permuted_draw_columns_change_only_the_summation_order(family):
    """The simulated likelihood averages over its draws, so the same
    permutation of the draw columns in every random dimension leaves the
    per-observation log-likelihoods and scores as they were, to rounding."""
    design, draws, theta = case(family)
    shuffled = copy.copy(draws)
    perm = np.random.default_rng(3).permutation(draws.n_draws)
    shuffled.std = tuple(std[:, perm] for std in draws.std)
    ll, scores = KERNELS[family](design, draws)(theta)
    ll_perm, scores_perm = KERNELS[family](design, shuffled)(theta)
    np.testing.assert_allclose(ll_perm, ll, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(scores_perm, scores, rtol=1e-12,
                               atol=1e-12 * np.abs(scores).max())
