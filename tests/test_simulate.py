"""Synthetic data generation: recipes, configs, stream discipline."""

import numpy as np
import pytest
import scipy.special

from conftest import peak_beyond_outputs
from crashmle import draws, mnl, negbin, simulate
from crashmle.dataset import (CONSTANT, ModelSpec, ObservationTable, Term, build_design,
                              load_csv)
from crashmle.draws import BLOCK_ELEMENTS, DrawMatrix
from crashmle.families import REGISTRY
from crashmle.simulate import (
    CovariateRecipe,
    DgpConfig,
    coefficient_matrix,
    expected_param_names,
    gen_influence,
    gen_mixed_mnl,
    gen_mixed_nb,
    gen_mnl,
    gen_nb,
    generate,
    redraw_outcomes,
)

MNL_SPEC = ModelSpec("mnl", (
    Term(CONSTANT, ("a",)), Term("x1", ("a",)), Term("x2", ("b",))),
    ("a", "b", "base"), "base")

MNL_PARAMS = {"constant[a]": 0.4, "x1[a]": 0.8, "x2[b]": -0.5}

MNL_RECIPES = {"x1": CovariateRecipe("normal"),
               "x2": CovariateRecipe("uniform", low=-1.0, high=1.0)}


def mnl_config(n=500, seed=0, **kw):
    return DgpConfig(MNL_SPEC, MNL_PARAMS, MNL_RECIPES, n=n, seed=seed, **kw)


NB_SPEC = ModelSpec("nb", (Term(CONSTANT), Term("z1")))
NB_PARAMS = {"constant": 1.0, "z1": 0.4, "alpha": 0.8}
NB_RECIPES = {"z1": CovariateRecipe("normal")}


def nb_config(n=500, seed=0):
    return DgpConfig(NB_SPEC, NB_PARAMS, NB_RECIPES, n=n, seed=seed)


# ----------------------------------------------------------------- recipes

def test_recipe_draw_shapes_and_ranges():
    rng = np.random.default_rng(0)
    n = 5000
    normal = CovariateRecipe("normal", mean=2.0, sd=0.5).draw(rng, n)
    assert abs(normal.mean() - 2.0) < 4 * 0.5 / np.sqrt(n)
    assert abs(normal.std() - 0.5) < 0.02
    uniform = CovariateRecipe("uniform", low=1.0, high=3.0).draw(rng, n)
    assert uniform.min() >= 1.0 and uniform.max() <= 3.0
    assert abs(uniform.mean() - 2.0) < 4 * (2.0 / np.sqrt(12.0)) / np.sqrt(n)
    bern = CovariateRecipe("bernoulli", p=0.3).draw(rng, n)
    assert set(np.unique(bern)) <= {0.0, 1.0}
    assert abs(bern.mean() - 0.3) < 4 * np.sqrt(0.3 * 0.7 / n)
    const = CovariateRecipe("constant", value=2.5).draw(rng, n)
    assert np.all(const == 2.5)


def test_recipe_validation():
    with pytest.raises(ValueError, match="kind"):
        CovariateRecipe("poisson")
    with pytest.raises(ValueError, match="sd"):
        CovariateRecipe("normal", sd=-1.0)
    with pytest.raises(ValueError, match="high >= low"):
        CovariateRecipe("uniform", low=2.0, high=1.0)
    with pytest.raises(ValueError, match="p in"):
        CovariateRecipe("bernoulli", p=1.5)


def test_recipe_dict_round_trip_and_key_checks():
    for recipe in (CovariateRecipe("normal", mean=1.0, sd=2.0),
                   CovariateRecipe("uniform", low=0.0, high=2.0),
                   CovariateRecipe("bernoulli", p=0.4),
                   CovariateRecipe("constant", value=3.0)):
        assert CovariateRecipe.from_dict(recipe.to_dict()) == recipe
    with pytest.raises(ValueError, match="needs a kind"):
        CovariateRecipe.from_dict({"mean": 0.0})
    with pytest.raises(ValueError, match="unknown keys"):
        CovariateRecipe.from_dict({"kind": "normal", "low": 0.0})


def test_normal_recipe_uses_inverse_cdf_of_the_uniform_stream():
    # the covariate stream is the first child of SeedSequence(seed)
    seed, n = 42, 100
    table = gen_nb(nb_config(n=n, seed=seed))
    child = np.random.SeedSequence(seed).spawn(3)[0]
    rng = np.random.Generator(np.random.PCG64(child))
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    np.testing.assert_array_equal(table.columns["z1"], scipy.special.ndtri(u))


# ------------------------------------------------------------------ config

def test_expected_param_names():
    assert expected_param_names(MNL_SPEC) == ("constant[a]", "x1[a]", "x2[b]")
    mixed = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z", (), "random_uniform")))
    assert expected_param_names(mixed) == ("constant", "z", "z:spread", "alpha")


def test_config_validates_param_names_exactly():
    with pytest.raises(ValueError, match="missing \\['x2\\[b\\]'\\]"):
        DgpConfig(MNL_SPEC, {"constant[a]": 0.4, "x1[a]": 0.8}, MNL_RECIPES, n=10)
    bad = dict(MNL_PARAMS, extra=1.0)
    with pytest.raises(ValueError, match="unexpected \\['extra'\\]"):
        DgpConfig(MNL_SPEC, bad, MNL_RECIPES, n=10)


def test_config_validates_values_and_recipes():
    with pytest.raises(ValueError, match="n must be positive"):
        mnl_config(n=0)
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z", (), "random_normal")))
    with pytest.raises(ValueError, match="non-negative"):
        DgpConfig(spec, {"constant": 1.0, "z": 0.2, "z:sd": -0.5, "alpha": 0.8},
                  {"z": CovariateRecipe("normal")}, n=10)
    with pytest.raises(ValueError, match="alpha must be positive"):
        DgpConfig(NB_SPEC, dict(NB_PARAMS, alpha=0.0), NB_RECIPES, n=10)
    with pytest.raises(ValueError, match="no covariate recipe"):
        DgpConfig(MNL_SPEC, MNL_PARAMS, {"x1": CovariateRecipe("normal")}, n=10)
    with pytest.raises(ValueError, match="has no recipe"):
        mnl_config(influence=("d", 0.5))
    with pytest.raises(ValueError, match="cap must be positive"):
        mnl_config(influence=("x1", 0.0))


def test_config_refuses_an_influence_cap_on_a_column_no_term_uses():
    # the cap would change nothing: the DGP would draw the uncapped outcomes
    recipes = dict(MNL_RECIPES, d=CovariateRecipe("uniform", low=0.0, high=2.0))
    with pytest.raises(ValueError, match="spec has no term on 'd'"):
        DgpConfig(MNL_SPEC, MNL_PARAMS, recipes, n=2000, seed=4, influence=("d", 0.5))


def test_config_dict_round_trip():
    cfg = mnl_config(n=50, seed=3, influence=("x1", 0.7))
    back = DgpConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert DgpConfig.from_dict(nb_config(n=20).to_dict()) == nb_config(n=20)


@pytest.mark.parametrize("where, key, message", [
    (None, "sed", "unknown keys \\['sed'\\] in dgp config"),
    ("influence", "capp", "unknown keys \\['capp'\\] in dgp influence"),
], ids=["config", "influence"])
def test_config_from_dict_refuses_an_unknown_key(where, key, message):
    # a mistyped key must not quietly fall back to its default; the spec's
    # own keys are checked by ModelSpec.from_dict
    d = mnl_config(n=50, seed=3, influence=("x1", 0.7)).to_dict()
    (d if where is None else d[where])[key] = 7
    with pytest.raises(ValueError, match=message):
        DgpConfig.from_dict(d)


def true_locations_and_scales(config, design):
    """Each term's true location and natural scale (zero for a fixed
    term), read from the config's parameters packed like a fit's."""
    packed = np.array([config.params[name] for name in design.param_names])
    return (packed[design.loc_pos],
            np.where(design.scale_pos >= 0, packed[design.scale_pos], 0.0))


def test_true_theta_layout():
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z", (), "random_normal")))
    cfg = DgpConfig(spec, {"constant": 1.0, "z": 0.2, "z:sd": 0.5, "alpha": 0.8},
                    {"z": CovariateRecipe("normal")}, n=10)
    design = build_design(generate(cfg), spec)
    locs, scales = true_locations_and_scales(cfg, design)
    np.testing.assert_array_equal(locs, [1.0, 0.2])
    np.testing.assert_array_equal(scales, [0.0, 0.5])
    assert design.param_names[-1] == "alpha"


# ------------------------------------------------------------- determinism

def tables_equal(a, b):
    return (a.mode == b.mode
            and a.column_names == b.column_names
            and all(np.array_equal(a.columns[c], b.columns[c])
                    for c in a.column_names)
            and np.array_equal(a.outcome, b.outcome))


def test_same_seed_same_table():
    assert tables_equal(gen_mnl(mnl_config(seed=5)), gen_mnl(mnl_config(seed=5)))
    assert not tables_equal(gen_mnl(mnl_config(seed=5)), gen_mnl(mnl_config(seed=6)))


def test_zero_scale_mixed_mnl_is_bit_identical_to_plain():
    mixed_spec = ModelSpec("mixed_mnl", (
        Term(CONSTANT, ("a",)), Term("x1", ("a",), "random_normal"),
        Term("x2", ("b",))), ("a", "b", "base"), "base")
    mixed_params = {"constant[a]": 0.4, "x1[a]": 0.8, "x1[a]:sd": 0.0,
                    "x2[b]": -0.5}
    cfg = DgpConfig(mixed_spec, mixed_params, MNL_RECIPES, n=400, seed=11)
    assert tables_equal(gen_mixed_mnl(cfg), gen_mnl(mnl_config(n=400, seed=11)))


def test_zero_scale_mixed_nb_is_bit_identical_to_plain():
    mixed_spec = ModelSpec("mixed_nb", (Term(CONSTANT),
                                        Term("z1", (), "random_uniform")))
    cfg = DgpConfig(mixed_spec,
                    {"constant": 1.0, "z1": 0.4, "z1:spread": 0.0, "alpha": 0.8},
                    NB_RECIPES, n=400, seed=11)
    assert tables_equal(gen_mixed_nb(cfg), gen_nb(nb_config(n=400, seed=11)))


def test_family_mismatch_raises():
    with pytest.raises(ValueError, match="expected 'nb'"):
        gen_nb(mnl_config())
    with pytest.raises(ValueError, match="expected 'mnl'"):
        gen_mnl(nb_config())


def test_generate_dispatches_on_family_and_influence():
    assert tables_equal(generate(mnl_config(seed=2)), gen_mnl(mnl_config(seed=2)))
    assert tables_equal(generate(nb_config(seed=2)), gen_nb(nb_config(seed=2)))
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("d", ("a",))),
                     ("a", "b"), "b")
    cfg = DgpConfig(spec, {"constant[a]": 0.3, "d[a]": -2.0},
                    {"d": CovariateRecipe("uniform", low=0.0, high=2.0)},
                    n=300, seed=4, influence=("d", 0.5))
    assert tables_equal(generate(cfg), gen_influence(cfg))


MIXED_MNL_SPEC = ModelSpec("mixed_mnl", (
    Term(CONSTANT, ("a",)), Term("x1", ("a",), "random_normal"),
    Term("x2", ("b",), "random_uniform")), ("a", "b", "base"), "base")
MIXED_MNL_PARAMS = {"constant[a]": 0.4, "x1[a]": 0.8, "x1[a]:sd": 0.6,
                    "x2[b]": -0.5, "x2[b]:spread": 0.3}


@pytest.mark.parametrize("n", [2 * BLOCK_ELEMENTS + 1, BLOCK_ELEMENTS + 2, 1])
@pytest.mark.parametrize("mixed", [False, True], ids=["mnl", "mixed_mnl"])
def test_severity_outcomes_drawn_by_block_equal_one_whole_draw(n, mixed):
    """The outcome law and the outcome uniforms come block by block; the
    table is the one a whole-N law and one whole uniform draw give."""
    config = (DgpConfig(MIXED_MNL_SPEC, MIXED_MNL_PARAMS, MNL_RECIPES, n=n, seed=4)
              if mixed else mnl_config(n=n, seed=4))
    cov_rng, mix_rng, out_rng = simulate._streams(config.seed)
    columns = {name: recipe.draw(cov_rng, n) for name, recipe in config.covariates.items()}
    design = build_design(ObservationTable(columns, np.full(n, "a"), "severity"),
                          config.spec)
    locs, scales = true_locations_and_scales(config, design)
    v = (design.x * coefficient_matrix(design, locs, scales, mix_rng)) @ design.incidence
    e = np.exp(v - v.max(axis=1, keepdims=True))
    cdf = np.cumsum(e / e.sum(axis=1, keepdims=True), axis=1)
    index = np.minimum((cdf < out_rng.random(n)[:, None]).sum(axis=1), 2)
    want = np.asarray(config.spec.outcomes)[index]
    assert np.array_equal(generate(config).outcome, want)


def test_the_plain_logit_law_is_the_likelihoods_bit_for_bit():
    table = gen_mnl(mnl_config(n=BLOCK_ELEMENTS + 5, seed=2))
    design = build_design(table, MNL_SPEC)
    theta = np.array([0.4, 0.8, -0.5])
    np.testing.assert_array_equal(simulate.outcome_law(design, theta),
                                  np.cumsum(mnl.mnl_probs(theta, design), axis=1))


@pytest.mark.parametrize("family", ["mixed_mnl", "mixed_nb"])
def test_zero_scales_give_the_plain_law_to_rounding(family):
    # the mixed law runs the per-draw arithmetic at a coefficient draw of
    # exactly the location, so it agrees with the plain law to rounding
    if family == "mixed_mnl":
        plain_spec, table = MNL_SPEC, gen_mnl(mnl_config(n=400, seed=3))
        terms = [Term(t.variable, t.outcomes, "random_normal") for t in MNL_SPEC.terms]
        spec = ModelSpec(family, tuple(terms), MNL_SPEC.outcomes, MNL_SPEC.base_outcome)
        plain_theta = np.array([0.4, 0.8, -0.5])
    else:
        plain_spec, table = NB_SPEC, gen_nb(nb_config(n=400, seed=3))
        spec = ModelSpec(family, (Term(CONSTANT, (), "random_uniform"),
                                  Term("z1", (), "random_normal")))
        plain_theta = np.array([1.0, 0.4, np.log(0.8)])
    plain = simulate.outcome_law(build_design(table, plain_spec), plain_theta)
    design = build_design(table, spec)
    theta = np.full(design.n_params, -np.inf)  # every scale's log: zero scales
    theta[np.setdiff1d(np.arange(design.n_params), design.scale_pos)] = plain_theta
    mixed = simulate.outcome_law(design, theta, np.random.default_rng(0))
    np.testing.assert_allclose(mixed, plain, rtol=1e-15, atol=0)


def test_an_outcome_law_with_random_terms_needs_rng():
    table = gen_mnl(mnl_config(n=20))
    design = build_design(table, MIXED_MNL_SPEC)
    with pytest.raises(ValueError, match="mixing draws .* need rng"):
        simulate.outcome_law(design, np.zeros(design.n_params))


def test_one_patch_of_the_block_size_reaches_both_kernels_and_simulate(monkeypatch):
    # draws.BLOCK_ELEMENTS is read when a call runs: one patch sets the
    # observation blocks of the logit kernel, of the NB kernel and of the
    # simulated outcome laws
    sizes = []

    def recording(function, at):
        def call(*args, **kwargs):
            sizes.append(args[at].stop - args[at].start)
            return function(*args, **kwargs)
        return call

    block_softmax, eta_draws = mnl._block_softmax, recording(negbin._eta_draws, 3)
    for module in (mnl, negbin, simulate):
        if hasattr(module, "_block_softmax"):
            monkeypatch.setattr(module, "_block_softmax",
                                lambda *a: recording(block_softmax(*a), 0))
        if hasattr(module, "_eta_draws"):
            monkeypatch.setattr(module, "_eta_draws", eta_draws)
    monkeypatch.setattr(draws, "BLOCK_ELEMENTS", 100)
    mixed_nb = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
    for spec, table in ((MIXED_MNL_SPEC, gen_mnl(mnl_config(n=30))),
                        (mixed_nb, gen_nb(nb_config(n=30)))):
        design = build_design(table, spec)
        kernel = REGISTRY[spec.family].kernel(design, DrawMatrix.for_design(design, 25), None)
        sizes.clear()
        kernel(np.zeros((1, design.n_params)), slice(0, 1))
        assert sizes == [4] * 7 + [2]  # 100 elements of 25 draws
    for config in (DgpConfig(MIXED_MNL_SPEC, MIXED_MNL_PARAMS, MNL_RECIPES, n=250),
                   nb_config(n=250)):
        sizes.clear()
        generate(config)
        assert sizes == [100, 100, 50]


def test_generate_needs_no_whole_n_temporaries_beyond_the_design():
    # beyond its table, a row adds its design-matrix row (T doubles), its
    # placeholder label and its outcome index (three more); the (N, T)
    # coefficients, their product with x and the (N, I) softmax
    # temporaries would add about twenty doubles
    n, terms = 50_000, len(MNL_SPEC.terms)
    peak = peak_beyond_outputs(generate, mnl_config(n=n))[1]
    peak_2n = peak_beyond_outputs(generate, mnl_config(n=2 * n))[1]
    assert peak_2n - peak <= n * 8 * (terms + 3)


# ---------------------------------------------------------------- moments

def test_mnl_outcome_frequencies_match_softmax_probabilities():
    # constant-only design: choice probabilities are known exactly
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",))),
                     ("a", "b", "base"), "base")
    cfg = DgpConfig(spec, {"constant[a]": 0.7, "constant[b]": -0.4}, {}, n=40000,
                    seed=3)
    table = gen_mnl(cfg)
    v = np.array([0.7, -0.4, 0.0])
    p = np.exp(v) / np.exp(v).sum()
    for label, prob in zip(("a", "b", "base"), p):
        share = np.mean(table.outcome == label)
        assert abs(share - prob) < 4.0 * np.sqrt(prob * (1 - prob) / 40000)


def test_nb_counts_match_mean_and_variance():
    spec = ModelSpec("nb", (Term(CONSTANT),))
    lam, alpha = 3.0, 0.6
    cfg = DgpConfig(spec, {"constant": np.log(lam), "alpha": alpha}, {}, n=60000,
                    seed=8)
    y = gen_nb(cfg).outcome.astype(float)
    var = lam * (1.0 + alpha * lam)
    assert abs(y.mean() - lam) < 4.0 * np.sqrt(var / 60000)
    # sampling error of the variance via the fourth-moment bound
    assert abs(y.var() - var) < 0.1 * var


def test_mixing_spreads_the_coefficients():
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
    cfg = DgpConfig(spec, {"constant": 1.0, "z1": 0.4, "z1:sd": 0.7, "alpha": 0.8},
                    NB_RECIPES, n=20000, seed=5)
    shell = ObservationTable({"z1": np.zeros(20000)}, np.zeros(20000, dtype=np.int64),
                             "frequency")
    from crashmle.dataset import build_design
    design = build_design(shell, spec)
    locs, scales = true_locations_and_scales(cfg, design)
    rng = np.random.default_rng(1)
    coef = coefficient_matrix(design, locs, scales, rng)
    assert np.all(coef[:, 0] == 1.0)
    assert abs(coef[:, 1].mean() - 0.4) < 4 * 0.7 / np.sqrt(20000)
    assert abs(coef[:, 1].std() - 0.7) < 0.02


# --------------------------------------------------------------- influence

def test_influence_table_keeps_raw_distances():
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("d", ("a",))),
                     ("a", "b"), "b")
    cfg = DgpConfig(spec, {"constant[a]": 0.3, "d[a]": -2.0},
                    {"d": CovariateRecipe("uniform", low=0.0, high=2.0)},
                    n=2000, seed=4, influence=("d", 0.5))
    table = gen_influence(cfg)
    assert table.columns["d"].max() > 0.5  # raw, not capped
    # capping matters: beyond the cap the outcome shares stop responding
    d = table.columns["d"]
    far = table.outcome[d > 1.0]
    farther = table.outcome[d > 1.5]
    assert abs(np.mean(far == "a") - np.mean(farther == "a")) < 0.05


def test_gen_influence_requires_influence_config():
    with pytest.raises(ValueError, match="influence"):
        gen_influence(mnl_config())


# ------------------------------------------------------------ redraw/csv

def test_redraw_outcomes_is_deterministic_and_preserves_covariates():
    table = gen_nb(nb_config(n=200, seed=1))
    theta = np.array([1.0, 0.4, np.log(0.8)])
    a = redraw_outcomes(NB_SPEC, theta, table, np.random.default_rng(7))
    b = redraw_outcomes(NB_SPEC, theta, table, np.random.default_rng(7))
    c = redraw_outcomes(NB_SPEC, theta, table, np.random.default_rng(8))
    assert tables_equal(a, b)
    assert not np.array_equal(a.outcome, c.outcome)
    assert np.array_equal(a.columns["z1"], table.columns["z1"])


def test_redraw_outcomes_severity_labels_stay_in_the_outcome_set():
    table = gen_mnl(mnl_config(n=150, seed=9))
    theta = np.array([0.4, 0.8, -0.5])
    redrawn = redraw_outcomes(MNL_SPEC, theta, table, np.random.default_rng(0))
    assert set(np.unique(redrawn.outcome)) <= {"a", "b", "base"}


def test_generated_table_survives_csv_round_trip(tmp_path):
    table = gen_mnl(mnl_config(n=100, seed=14))
    path = tmp_path / "sim.csv"
    table.to_csv(path)
    back = load_csv(path, "severity", "outcome")
    assert tables_equal(table, back)
