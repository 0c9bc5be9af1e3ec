"""Metamorphic properties of the plain MNL and NB fits and of the mixed
likelihoods.

A fit must not depend on the order of the rows, on how often the whole
sample is repeated, on the order or the names of the outcome labels or on
the units of a covariate, and a logit's choice of base outcome only
shifts its coefficients.  A mixed kernel evaluated on permuted rows, each
with its own draws, gives the permuted per-observation outputs.  Each
property compares two evaluations on small seeded tables, so it needs no
stored reference.  The hypothesis runs are derandomized, so every run
draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashmle import families
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term, build_design
from crashmle.draws import DrawMatrix

N = 300
LABELS = ("a", "b", "base")
SPECS = {
    "mnl": ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
                             Term("x1", ("a",)), Term("x1", ("b",)),
                             Term("x2", ("a",))), LABELS, "base"),
    "nb": ModelSpec("nb", (Term(CONSTANT), Term("x1"), Term("x2"))),
}
MIXED_SPECS = {
    "mnl": ModelSpec("mixed_mnl", (Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
                                   Term("x1", ("a",), "random_normal"),
                                   Term("x2", ("b",), "random_uniform")), LABELS, "base"),
    "nb": ModelSpec("mixed_nb", (Term(CONSTANT), Term("x1", (), "random_normal"),
                                 Term("x2", (), "random_uniform"))),
}

examples = settings(derandomize=True, max_examples=8, deadline=None)
seeds = st.integers(0, 10_000)


def sample(family: str, seed: int) -> ObservationTable:
    """N rows of ``family``'s spec at fixed coefficients."""
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=N), rng.uniform(0.0, 2.0, size=N)
    columns = {"x1": x1, "x2": x2}
    if family == "nb":
        lam = np.exp(1.0 + 0.4 * x1 - 0.3 * x2)
        return ObservationTable(columns, rng.poisson(rng.gamma(1.25, 0.8 * lam)),
                                "frequency")
    v = np.stack([0.3 + 0.7 * x1 + 0.5 * x2, -0.2 - 0.4 * x1, np.zeros(N)], axis=1)
    p = np.exp(v) / np.exp(v).sum(axis=1, keepdims=True)
    picks = (rng.uniform(size=(N, 1)) > p.cumsum(axis=1)).sum(axis=1)
    return ObservationTable(columns, np.array(LABELS)[picks], "severity")


def rows(table: ObservationTable, index) -> ObservationTable:
    """The rows ``index`` selects, in its order."""
    return ObservationTable({k: v[index] for k, v in table.columns.items()},
                            table.outcome[index], table.mode)


def fit(table: ObservationTable, spec: ModelSpec):
    res = families.fit(table, spec)
    assert res.converged, res.message
    return res


@pytest.mark.parametrize("family", sorted(SPECS))
@examples
@given(seed=seeds)
def test_row_order_does_not_move_the_fit(family, seed):
    table = sample(family, seed)
    perm = np.random.default_rng(seed + 1).permutation(N)
    want, got = fit(table, SPECS[family]), fit(rows(table, perm), SPECS[family])
    assert got.ll_converged == pytest.approx(want.ll_converged, rel=1e-10)
    np.testing.assert_allclose(got.theta_hat, want.theta_hat, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("family", sorted(SPECS))
@examples
@given(seed=seeds)
def test_duplicated_rows_double_the_loglik(family, seed):
    table = sample(family, seed)
    want = fit(table, SPECS[family])
    got = fit(rows(table, np.tile(np.arange(N), 2)), SPECS[family])
    assert got.ll_converged == pytest.approx(2.0 * want.ll_converged, rel=1e-10)
    np.testing.assert_allclose(got.theta_hat, want.theta_hat, rtol=1e-6, atol=1e-8)
    # the standard errors shrink by sqrt(2)
    np.testing.assert_allclose(got.standard_errors * np.sqrt(2.0),
                               want.standard_errors, rtol=1e-6)


@examples
@given(seed=seeds, order=st.permutations(LABELS))
def test_outcome_label_order_does_not_move_the_fit(seed, order):
    table = sample("mnl", seed)
    spec = SPECS["mnl"]
    reordered = ModelSpec(spec.family, spec.terms, tuple(order), spec.base_outcome)
    want, got = fit(table, spec), fit(table, reordered)
    assert got.param_names == want.param_names
    assert got.ll_converged == pytest.approx(want.ll_converged, rel=1e-10)
    np.testing.assert_allclose(got.theta_hat, want.theta_hat, rtol=1e-6, atol=1e-8)


def relabel(name: str, new: dict) -> str:
    """``"x1[a+b]"`` with its outcome labels mapped through ``new``."""
    var, _, outcomes = name[:-1].partition("[")
    return f"{var}[{'+'.join(new[o] for o in outcomes.split('+'))}]"


@examples
@given(seed=seeds, names=st.lists(st.text("abcxyz_", min_size=1, max_size=4),
                                  min_size=3, max_size=3, unique=True))
def test_renamed_outcome_labels_rename_only_the_parameters(seed, names):
    new = dict(zip(LABELS, names))
    table, spec = sample("mnl", seed), SPECS["mnl"]
    renamed = ModelSpec(spec.family, tuple(Term(t.variable, tuple(new[o] for o in t.outcomes),
                                                t.kind) for t in spec.terms),
                        tuple(new[o] for o in spec.outcomes), new[spec.base_outcome])
    relabelled = ObservationTable(table.columns, np.array([new[o] for o in table.outcome]),
                                  table.mode)
    want, got = fit(table, spec), fit(relabelled, renamed)
    assert got.param_names == tuple(relabel(name, new) for name in want.param_names)
    assert got.ll_converged == pytest.approx(want.ll_converged, rel=1e-10)
    np.testing.assert_allclose(got.theta_hat, want.theta_hat, rtol=1e-6, atol=1e-8)


def full_mnl(base: str) -> ModelSpec:
    """Constant and ``x1`` in every outcome but ``base``, each with its own
    coefficient."""
    return ModelSpec("mnl", tuple(Term(var, (o,)) for var in (CONSTANT, "x1")
                                  for o in LABELS if o != base), LABELS, base)


@pytest.mark.parametrize("base", ["a", "b"])
@examples
@given(seed=seeds)
def test_a_new_base_outcome_shifts_the_coefficients(base, seed):
    """Every outcome's utility moves by the new base's, so each new
    coefficient is the old one minus the old base-``base`` one.  Newton
    steps map exactly under this linear change of parameters, but the
    gradient test does not, so one fit may stop an iteration earlier: the
    tolerances are those of the change of units."""
    table = sample("mnl", seed)
    want, got = fit(table, full_mnl("base")), fit(table, full_mnl(base))
    old = dict(zip(want.param_names, want.theta_hat))
    shifted = [old.get(f"{var}[{o}]", 0.0) - old[f"{var}[{base}]"]
               for var, o in (name[:-1].split("[") for name in got.param_names)]
    assert got.ll_converged == pytest.approx(want.ll_converged, rel=1e-6)
    np.testing.assert_allclose(got.theta_hat, shifted, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("family", sorted(SPECS))
@examples
@given(seed=seeds, power=st.floats(-3.0, 3.0))
def test_covariate_units_scale_only_its_coefficients(family, seed, power):
    """Newton is invariant to a linear change of units: ``x1`` times c
    divides its coefficients by c and leaves everything else alone."""
    c = 10.0 ** power
    table = sample(family, seed)
    spec = SPECS[family]
    scaled = ObservationTable({**table.columns, "x1": table.columns["x1"] * c},
                              table.outcome, table.mode)
    want, got = fit(table, spec), fit(scaled, spec)
    on_x1 = np.array([name.startswith("x1") for name in want.param_names])
    assert got.ll_converged == pytest.approx(want.ll_converged, rel=1e-6)
    np.testing.assert_allclose(got.theta_hat * np.where(on_x1, c, 1.0), want.theta_hat,
                               rtol=1e-5, atol=1e-8)
    assert got.iterations <= 2 * max(want.iterations, 1)
    assert want.iterations <= 2 * max(got.iterations, 1)


@pytest.mark.parametrize("family", sorted(MIXED_SPECS))
@examples
@given(seed=seeds)
def test_mixed_rows_permuted_with_their_draws_permute_the_kernel(family, seed):
    """The simulated likelihood of a row depends on that row and its own
    draws alone, so permuting both permutes each observation's
    log-likelihood and scores."""
    table, spec = sample(family, seed), MIXED_SPECS[family]
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(N)
    design = build_design(table, spec)
    draws = DrawMatrix.for_design(design, 50)
    theta = rng.normal(0.0, 0.5, design.n_params)
    kernel = families.REGISTRY[spec.family].kernel
    ll, scores = families.first_row(kernel(design, draws))(theta)
    ll_p, scores_p = families.first_row(kernel(build_design(table.subset(perm), spec),
                                               draws.subset(perm)))(theta)
    np.testing.assert_allclose(ll_p, ll[perm], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(scores_p, scores[perm], rtol=1e-12,
                               atol=1e-12 * np.abs(scores).max())
