"""Chi-squared helpers, pooling test, and the Monte Carlo null."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from test_golden import DGPS

from crashmle import lrtest
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term, split_by_flag
from crashmle.lrtest import (
    chi2_quantile,
    chi2_sf,
    lr_statistic,
    lr_test,
    mc_null_distribution,
    simulate_under_null,
)
from crashmle.mnl import fit_mnl
from crashmle.negbin import fit_nb
from crashmle.optimize import OptimSettings
from crashmle.simulate import CovariateRecipe, DgpConfig, gen_mnl, gen_nb, generate

NB_SPEC = ModelSpec("nb", (Term(CONSTANT), Term("z1")))


def nb_table_with_flag(n=300, seed=0, shift=0.0):
    """Counts with a 0/1 grouping column; ``shift`` moves group 1's mean."""
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=n)
    flag = (rng.random(n) < 0.5).astype(float)
    lam = np.exp(1.0 + 0.4 * z1 + shift * flag)
    counts = rng.poisson(rng.gamma(1.25, 0.8 * lam))
    return ObservationTable({"z1": z1, "flag": flag}, counts, "frequency")


# ------------------------------------------------------------- chi-squared

def chi2_sf_quadrature(x, dof):
    """Survival function by direct numeric integration of the density."""
    def density(t):
        return (t ** (dof / 2.0 - 1.0) * math.exp(-t / 2.0)
                / (2.0 ** (dof / 2.0) * math.gamma(dof / 2.0)))

    value, _ = scipy.integrate.quad(density, x, np.inf, limit=200)
    return value


def test_chi2_sf_matches_quadrature_oracle():
    for dof in (1, 2, 3, 5, 10, 21):
        for x in (0.5, 2.0, 7.5, 15.0, 27.21, 40.0):
            assert chi2_sf(x, dof) == pytest.approx(
                chi2_sf_quadrature(x, dof), abs=1e-10)


def test_chi2_sf_edge_cases():
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(1e4, 4) == pytest.approx(0.0, abs=1e-300)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 4)


def test_chi2_quantile_inverts_the_survival_function():
    for dof in (1, 3, 10, 21):
        for p in (0.05, 0.5, 0.9, 0.95, 0.999):
            q = chi2_quantile(p, dof)
            assert chi2_sf(q, dof) == pytest.approx(1.0 - p, abs=1e-10)
    assert chi2_quantile(0.9, 21) == pytest.approx(29.615, abs=1e-2)
    assert chi2_quantile(0.9, 10) == pytest.approx(15.987, abs=1e-2)
    with pytest.raises(ValueError):
        chi2_quantile(0.0, 3)
    with pytest.raises(ValueError):
        chi2_quantile(1.0, 3)
    for dof in (0, -2):
        with pytest.raises(ValueError, match="^dof must be positive$"):
            chi2_quantile(0.5, dof)


def test_chi2_quantile_monotone_in_p():
    qs = [chi2_quantile(p, 5) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


# ---------------------------------------------------------------- statistic

def test_lr_statistic_hand_value():
    x2, dof = lr_statistic(-110.0, -52.0, -50.0, 4, 4, 4)
    assert x2 == pytest.approx(16.0)
    assert dof == 4


def test_lr_statistic_clamps_optimizer_noise():
    with pytest.warns(RuntimeWarning, match="clamping"):
        x2, _ = lr_statistic(-100.0, -50.0, -50.000001, 3, 3, 3)
    assert x2 == 0.0


def test_lr_statistic_rejects_real_violations():
    with pytest.raises(ValueError, match="did not reach"):
        lr_statistic(-100.0, -55.0, -50.0, 3, 3, 3)
    with pytest.raises(ValueError, match="degrees of freedom"):
        lr_statistic(-100.0, -50.0, -49.0, 6, 3, 3)


# ----------------------------------------------------------------- lr_test

def test_lr_test_nb_under_the_null():
    table = nb_table_with_flag(400, seed=3, shift=0.0)
    result = lr_test(table, NB_SPEC, "flag")
    assert result.all_converged
    assert result.x2 >= 0.0
    assert result.dof == 3  # two three-parameter subsets minus the pooled three
    assert 0.0 <= result.p_asymptotic <= 1.0
    assert result.critical_value_05 == pytest.approx(chi2_quantile(0.95, 3))
    assert result.pooled.n_obs == 400
    assert result.subset_a.n_obs + result.subset_b.n_obs == 400
    assert result.family == "nb"


def test_lr_test_statistic_equals_separate_fits():
    table = nb_table_with_flag(350, seed=5, shift=0.4)
    result = lr_test(table, NB_SPEC, "flag")
    fit_all = fit_nb(table, NB_SPEC)
    part_a, part_b = split_by_flag(table, "flag")
    fit_a, fit_b = fit_nb(part_a, NB_SPEC), fit_nb(part_b, NB_SPEC)
    expected = -2.0 * (fit_all.ll_converged - fit_a.ll_converged
                       - fit_b.ll_converged)
    assert result.x2 == pytest.approx(expected, abs=1e-5)
    assert result.p_asymptotic == pytest.approx(chi2_sf(result.x2, 3), rel=1e-12)


def test_lr_test_detects_a_genuine_shift():
    table = nb_table_with_flag(800, seed=7, shift=0.8)
    result = lr_test(table, NB_SPEC, "flag")
    assert result.x2 > result.critical_value_05
    assert result.p_asymptotic < 0.01


def test_lr_test_severity_family():
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("x1", ("a",))),
                     ("a", "b"), "b")
    cfg = DgpConfig(spec, {"constant[a]": 0.2, "x1[a]": 0.6},
                    {"x1": CovariateRecipe("normal"),
                     "flag": CovariateRecipe("bernoulli", p=0.5)},
                    n=400, seed=1)
    result = lr_test(gen_mnl(cfg), spec, "flag")
    assert result.all_converged and result.x2 >= 0.0
    assert result.dof == 2


def test_lr_test_flag_validation():
    table = nb_table_with_flag(100)
    with pytest.raises(ValueError, match="not in table"):
        lr_test(table, NB_SPEC, "zzz")
    ones = ObservationTable({"z1": [0.1, 0.2], "flag": [1.0, 1.0]},
                            np.array([1, 2]), "frequency")
    with pytest.raises(ValueError, match="does not split"):
        lr_test(ones, NB_SPEC, "flag")
    mixed = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
    with pytest.raises(ValueError, match="mixed families require n_draws"):
        lr_test(table, mixed, "flag", n_draws=None)


@pytest.mark.parametrize("dgp", ["sev", "cnt"], ids=["mixed_mnl", "mixed_nb"])
def test_mixed_subset_likelihoods_sum_to_the_pooled_one(dgp):
    """The subsets simulate on the pooled draw matrix's rows, so at the
    pooled solution their log-likelihoods add up to the pooled one."""
    config = replace(DGPS[dgp], seed=7)
    pieces = lrtest._Pieces(generate(config), config.spec, "flag", None, 50)
    pooled = lrtest._observed(pieces)[0]
    subsets = [pieces.family.objective(pieces.designs[key], pieces.draws[key],
                                       None)(pooled.theta)[0] for key in "ab"]
    assert sum(subsets) == pytest.approx(pooled.ll, rel=1e-9, abs=0.0)


# ------------------------------------------------------------ simulate null

def test_simulate_under_null_redraws_outcomes_only():
    table = nb_table_with_flag(200, seed=2)
    fit = fit_nb(table, NB_SPEC)
    sim = simulate_under_null(fit, table, rng=3)
    assert np.array_equal(sim.columns["z1"], table.columns["z1"])
    assert np.array_equal(sim.columns["flag"], table.columns["flag"])
    assert not np.array_equal(sim.outcome, table.outcome)
    again = simulate_under_null(fit, table, rng=3)
    assert np.array_equal(sim.outcome, again.outcome)
    with pytest.raises(ValueError, match="^fit carries no model spec$"):
        simulate_under_null(replace(fit, spec=None), table, rng=3)


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
def test_simulate_under_null_refuses_a_negative_seed_by_name(seed):
    # as mc_null_distribution does, not with numpy's SeedSequence message
    table = nb_table_with_flag(60, seed=2)
    fit = fit_nb(table, NB_SPEC)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        simulate_under_null(fit, table, rng=seed)


# -------------------------------------------------------------- Monte Carlo

def test_mc_null_distribution_properties():
    table = nb_table_with_flag(150, seed=4)
    result = mc_null_distribution(table, NB_SPEC, "flag", replicates=60, seed=9,
                                  bins=10)
    assert result.replicates_requested == 60
    assert result.replicates_kept + result.replicates_dropped == 60
    assert set(result.replicates_dropped_by_reason) == {
        "optimization_error", "not_converged", "negative_statistic"}
    assert sum(result.replicates_dropped_by_reason.values()) == \
        result.replicates_dropped
    assert isinstance(result.replicates_dropped, int)
    assert result.null_stats.shape == (result.replicates_kept,)
    assert result.null_stats.min() >= 0.0
    exceed = int((result.null_stats >= result.x2).sum())
    assert result.p_mc == pytest.approx(exceed / result.replicates_kept)
    assert result.histogram_counts.sum() == result.replicates_kept
    assert len(result.histogram_edges) == 11
    assert result.seed == 9 and result.plus_one is False


def test_mc_null_distribution_is_deterministic():
    table = nb_table_with_flag(120, seed=6)
    a = mc_null_distribution(table, NB_SPEC, "flag", replicates=30, seed=2)
    b = mc_null_distribution(table, NB_SPEC, "flag", replicates=30, seed=2)
    assert a.p_mc == b.p_mc
    np.testing.assert_array_equal(a.null_stats, b.null_stats)
    c = mc_null_distribution(table, NB_SPEC, "flag", replicates=30, seed=3)
    assert not np.array_equal(a.null_stats, c.null_stats)


def test_mc_plus_one_estimate():
    table = nb_table_with_flag(120, seed=6)
    result = mc_null_distribution(table, NB_SPEC, "flag", replicates=30, seed=2,
                                  plus_one=True)
    exceed = int((result.null_stats >= result.x2).sum())
    assert result.p_mc == pytest.approx((exceed + 1) / (result.replicates_kept + 1))
    assert result.plus_one is True


def test_mc_histogram_csv(tmp_path):
    table = nb_table_with_flag(120, seed=1)
    result = mc_null_distribution(table, NB_SPEC, "flag", replicates=30, seed=0,
                                  bins=8)
    path = tmp_path / "null.hist.csv"
    result.write_histogram_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 9
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == result.replicates_kept

    plain = lr_test(table, NB_SPEC, "flag")
    with pytest.raises(ValueError, match="no Monte Carlo"):
        plain.write_histogram_csv(tmp_path / "x.csv")


def test_mc_histogram_spans_zero_to_one_when_every_statistic_is_zero(monkeypatch):
    """Outcomes split evenly between both groups give an observed statistic
    of exactly 0; with every replicate's 0 as well, the histogram has no
    width of its own and spans [0, 1]."""
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)),), ("a", "base"), "base")
    table = ObservationTable({"flag": np.array([1.0, 1.0, 0.0, 0.0])},
                             np.array(["a", "base"] * 2), "severity")
    monkeypatch.setattr(lrtest, "_replicate_block", lambda pieces, theta, outcomes: (
        np.zeros(len(outcomes)), np.full(len(outcomes), "")))
    result = mc_null_distribution(table, spec, "flag", replicates=20, bins=4)
    assert result.x2 == 0.0 and result.p_mc == 1.0
    np.testing.assert_array_equal(result.histogram_edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(result.histogram_counts, [20, 0, 0, 0])


def test_mixed_nb_null_statistics_are_non_negative():
    """Warm starts and shared draws keep every mixed replicate's statistic
    non-negative, so none is dropped as negative."""
    config = replace(DGPS["cnt"], seed=7)
    result = mc_null_distribution(generate(config), config.spec, "flag",
                                  replicates=40, seed=1, n_draws=50)
    assert result.replicates_dropped == 0
    assert result.null_stats.size == 40 and result.null_stats.min() >= 0.0


def test_mc_aborts_when_replicates_cannot_converge():
    table = nb_table_with_flag(150, seed=4)
    strangled = OptimSettings(max_iterations=1)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        with pytest.raises(RuntimeError, match="failed to converge"):
            mc_null_distribution(table, NB_SPEC, "flag", replicates=10, seed=0,
                                 settings=strangled)


def test_mc_aborts_when_every_replicate_is_dropped(monkeypatch):
    monkeypatch.setattr(lrtest, "MAX_FAILURE_RATE", 1.0)
    table = nb_table_with_flag(150, seed=4)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        with pytest.raises(RuntimeError, match="10 of 10"):
            mc_null_distribution(table, NB_SPEC, "flag", replicates=10, seed=0,
                                 settings=OptimSettings(max_iterations=1))


def test_mc_result_serialization_excludes_raw_statistics(tmp_path):
    table = nb_table_with_flag(120, seed=1)
    result = mc_null_distribution(table, NB_SPEC, "flag", replicates=30, seed=0)
    d = result.to_dict()
    assert "null_stats" not in d
    assert d["histogram"] is not None
    assert d["p_mc"] == result.p_mc
    assert d["pooled"]["label"] == "pooled"
    assert d["replicates_dropped_by_reason"] == result.replicates_dropped_by_reason
