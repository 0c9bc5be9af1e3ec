"""Influence-distance grid search over capped-distance covariates."""

import numpy as np
import pytest

from crashmle import influence
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term
from crashmle.influence import InfluenceProfile, influence_variable, search_influence
from crashmle.simulate import CovariateRecipe, DgpConfig, gen_influence

SPEC = ModelSpec("mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("d", ("a", "b")), Term("x1", ("b",))),
    ("a", "b", "base"), "base")

PARAMS = {"constant[a]": 1.2, "constant[b]": 0.6, "d[a+b]": -4.0, "x1[b]": 0.5}

RECIPES = {"d": CovariateRecipe("uniform", low=0.0, high=2.0),
           "x1": CovariateRecipe("normal")}


def influence_table(n=3000, seed=0, cap=0.5):
    cfg = DgpConfig(SPEC, PARAMS, RECIPES, n=n, seed=seed, influence=("d", cap))
    return gen_influence(cfg)


def test_influence_variable_caps_distances():
    d = np.array([0.1, 0.5, 0.9, 2.0])
    np.testing.assert_array_equal(influence_variable(d, 0.5),
                                  [0.1, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="cap"):
        influence_variable(d, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        influence_variable(np.array([-0.1]), 0.5)


def test_search_recovers_the_true_cap():
    table = influence_table(n=3000, seed=0, cap=0.5)
    profile = search_influence(table, SPEC, "d", 0.25, 0.90, 0.05)
    assert abs(profile.d_star - 0.5) <= 0.05 + 1e-9
    assert profile.segment_length == pytest.approx(2.0 * profile.d_star)
    assert not profile.flat
    assert np.all(profile.converged)
    # the profile peaks at d_star
    assert profile.ll.max() == profile.ll[list(profile.grid).index(profile.d_star)]


def test_grid_is_inclusive_of_both_ends():
    table = influence_table(n=400, seed=1)
    profile = search_influence(table, SPEC, "d", 0.3, 0.6, 0.1)
    np.testing.assert_allclose(profile.grid, [0.3, 0.4, 0.5, 0.6], atol=1e-12)


def test_lls_are_exactly_flat_beyond_the_largest_distance():
    # min(d, D) == d for every D >= max(d): identical models, and their
    # fits from the same zero start must return bit-identical log-likelihoods
    table = influence_table(n=500, seed=3)
    with pytest.warns(RuntimeWarning, match="flat"):
        profile = search_influence(table, SPEC, "d", 2.0, 3.0, 0.5)
    assert profile.ll[0] == profile.ll[1] == profile.ll[2]
    assert profile.flat
    assert profile.d_star == 2.0  # smallest tied cap wins


def test_ties_resolve_to_the_smallest_cap(monkeypatch):
    monkeypatch.setattr(influence, "TIE_TOL", np.inf)
    table = influence_table(n=500, seed=4)
    with pytest.warns(RuntimeWarning, match="flat"):
        profile = search_influence(table, SPEC, "d", 0.25, 3.0, 0.25)
    assert profile.d_star == 0.25


def test_search_validation():
    table = influence_table(n=200, seed=5)
    with pytest.raises(ValueError, match="not in table"):
        search_influence(table, SPEC, "x9", 0.2, 0.6, 0.1)
    extra = ObservationTable(dict(table.columns, unused=np.zeros(table.n_rows)),
                             table.outcome, "severity")
    with pytest.raises(ValueError, match="no term on"):
        search_influence(extra, SPEC, "unused", 0.2, 0.6, 0.1)
    with pytest.raises(ValueError, match="step"):
        search_influence(table, SPEC, "d", 0.2, 0.6, 0.0)
    with pytest.raises(ValueError, match="step"):
        search_influence(table, SPEC, "d", 0.8, 0.2, 0.1)
    mixed = ModelSpec("mixed_mnl", (Term("d", ("a",), "random_normal"),),
                      ("a", "b"), "b")
    with pytest.raises(ValueError, match="mnl"):
        search_influence(table, mixed, "d", 0.2, 0.6, 0.1)


def test_profile_to_csv_and_dict(tmp_path):
    table = influence_table(n=300, seed=6)
    profile = search_influence(table, SPEC, "d", 0.4, 0.6, 0.1)
    path = tmp_path / "profile.csv"
    profile.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "D,ll,converged"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.4)
    assert float(first[1]) == pytest.approx(profile.ll[0])

    d = profile.to_dict()
    assert d["distance_column"] == "d"
    assert d["d_star"] == profile.d_star
    assert len(d["grid"]) == len(d["ll"]) == len(d["converged"]) == 3


def test_separated_caps_are_not_converged_and_never_chosen():
    # outcome a exactly when d < 0.3: every cap >= 0.3 separates the
    # outcomes perfectly and its log-likelihood runs to zero, above the
    # interior caps 0.1 and 0.2, where no distance lies below the cap
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("d", ("a",))),
                     ("a", "b"), "b")
    d = np.random.default_rng(0).uniform(0.2, 1.0, size=300)
    table = ObservationTable({"d": d}, np.where(d < 0.3, "a", "b"), "severity")
    with pytest.warns(RuntimeWarning, match="flat"):
        profile = search_influence(table, spec, "d", 0.1, 0.5, 0.1)
    np.testing.assert_array_equal(profile.converged, [True, True, False, False, False])
    assert profile.ll[2:].min() > profile.ll[:2].max()
    assert profile.d_star == pytest.approx(0.1)
