"""Negative binomial (plain and mixed) likelihoods, fitting, marginal effects."""

import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from scipy.special import gammaln

from conftest import peak_beyond_outputs
from crashmle.dataset import CONSTANT, ModelSpec, ObservationTable, Term, build_design
from crashmle.draws import BLOCK_ELEMENTS
from crashmle.mixed import DrawMatrix
from crashmle import mnl, negbin
from crashmle.negbin import (
    fit_mixed_nb,
    fit_nb,
    make_mixed_objective,
    make_objective,
    marginal_effects,
    nb_loglik,
    nb_logpmf,
)

NB_SPEC = ModelSpec("nb", (Term(CONSTANT), Term("z1"), Term("z2")))


def count_table(n=300, seed=6, alpha=0.8, beta=(1.0, 0.4, -0.3)):
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=n)
    z2 = rng.uniform(0.0, 2.0, size=n)
    lam = np.exp(beta[0] + beta[1] * z1 + beta[2] * z2)
    r = 1.0 / alpha
    counts = rng.poisson(rng.gamma(r, alpha * lam))
    return ObservationTable({"z1": z1, "z2": z2}, counts, "frequency")


# ------------------------------------------------------------------- pmf

def pochhammer_reference(alpha, a):
    """tab, dtab and h2tab at count ``a`` from log-gamma and polygamma
    values at 60 digits: ``tab = lnGamma(a + r) - lnGamma(r) - a ln r``
    (r = 1 / alpha) and its first two log-alpha derivatives."""
    with mpmath.workdps(60):
        r = 1 / mpmath.mpf(alpha)
        dpsi = mpmath.digamma(a + r) - mpmath.digamma(r)
        tab = mpmath.loggamma(a + r) - mpmath.loggamma(r) - a * mpmath.log(r)
        dtab = a - r * dpsi
        h2tab = r * dpsi + r * r * (mpmath.psi(1, a + r) - mpmath.psi(1, r))
        return [float(v) for v in (tab, dtab, h2tab)]


@pytest.mark.parametrize("alpha", [1e-8, 1e-4, 0.05, 0.8, 7.0, 1e3])
def test_pochhammer_tables_match_mpmath(alpha):
    cap = negbin.TABLE_CAP
    tables = negbin._poch_tables(np.array([[alpha]]), np.empty((3, 1, cap + 1)))[:, 0]
    np.testing.assert_array_equal(tables[:, :2], 0.0)
    for a in (2, 3, 10, 100, 1000):
        np.testing.assert_allclose(tables[:, a], pochhammer_reference(alpha, a),
                                   rtol=1e-12, atol=0.0)
    # above the cap the tables continue in closed form
    counts = np.array([cap + 1, 10**5, 10**7, 10**9])
    tails = tables[:, negbin.TAIL_START, None] + negbin._poch_tail(alpha, counts, 3)
    for a, tail in zip(counts, tails.T):
        np.testing.assert_allclose(tail, pochhammer_reference(alpha, int(a)),
                                   rtol=1e-12, atol=0.0)
    # and so does the pmf; its terms are of order a * log(a), so the sum
    # keeps their rounding
    a = 10**12
    for lam in (3.0, 1e6, 1e12):
        with mpmath.workdps(60):
            r, mp_lam = 1 / mpmath.mpf(alpha), mpmath.mpf(lam)
            terms = (mpmath.loggamma(a + r) - mpmath.loggamma(r) - mpmath.loggamma(a + 1),
                     r * mpmath.log(r / (r + mp_lam)), a * mpmath.log(mp_lam / (r + mp_lam)))
            want = float(sum(terms))
            scale = float(max(mpmath.loggamma(a + 1), abs(a * mpmath.log(mp_lam)),
                              (r + a) * mpmath.log1p(alpha * mp_lam)))
        assert abs(nb_logpmf(a, lam, alpha) - want) <= 4 * np.finfo(float).eps * scale


def test_logpmf_matches_scipy_parameterization():
    for alpha in (0.3, 0.8, 1.37, 2.5):
        r = 1.0 / alpha
        for lam in (0.1, 1.5, 7.0):
            k = np.arange(0, 31)
            ours = nb_logpmf(k, lam, alpha)
            ref = scipy.stats.nbinom.logpmf(k, r, r / (r + lam))
            np.testing.assert_allclose(ours, ref, atol=1e-10)


@pytest.mark.parametrize("counts, lam, alpha, message", [
    (2, 1.5, 0.0, "alpha must be positive"),
    (2, 1.5, -0.5, "alpha must be positive"),
    (np.array([1.0, 2.5]), 1.5, 0.8, "counts must be integers"),
    (np.array([1, -1]), 1.5, 0.8, "counts must be non-negative"),
    (2, 0.0, 0.8, "lam must be positive"),
    (np.array([2, 3]), np.array([1.0, -1.0]), 0.8, "lam must be positive"),
])
def test_logpmf_refuses_bad_arguments(counts, lam, alpha, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        nb_logpmf(counts, lam, alpha)


def test_logpmf_hand_checked_value():
    # P(Y=2 | lam=1.5, alpha=0.8): r=1.25, p=1.25/2.75;
    # log [ C(2+r-1, 2) p^r (1-p)^2 ] evaluated by hand
    assert nb_logpmf(2, 1.5, 0.8) == pytest.approx(-1.8569167, abs=1e-6)


def test_logpmf_probabilities_sum_to_one():
    k = np.arange(0, 400)
    total = np.exp(nb_logpmf(k, 3.0, 0.9)).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_logpmf_poisson_limit():
    k = np.arange(0, 25)
    ours = nb_logpmf(k, 2.7, 1e-8)
    ref = scipy.stats.poisson.logpmf(k, 2.7)
    np.testing.assert_allclose(ours, ref, atol=1e-6)


def test_logpmf_scalar_and_array_agree():
    assert nb_logpmf(4, 2.0, 0.5) == pytest.approx(
        float(nb_logpmf(np.array([4]), 2.0, 0.5)[0]), rel=1e-15)


# ------------------------------------------------------------- likelihood

def test_loglik_matches_sum_of_logpmf():
    table = count_table(100)
    design = build_design(table, NB_SPEC)
    theta = np.array([0.8, 0.3, -0.2, np.log(0.9)])
    ll, _ = nb_loglik(theta, design)
    lam = np.exp(design.linear_predictors(theta[:-1]))
    expected = sum(nb_logpmf(int(y), float(l), 0.9)
                   for y, l in zip(table.outcome, lam))
    assert ll == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_central_differences():
    design = build_design(count_table(120), NB_SPEC)
    objective = make_objective(design)
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = np.append(rng.normal(scale=0.3, size=3), rng.normal(scale=0.4))
        _, grad = objective(theta)
        h = 1e-6
        fd = np.empty_like(grad)
        for k in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (objective(up)[0] - objective(dn)[0]) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)


# ---------------------------------------------------------------- fitting

def test_fit_matches_independent_optimizer():
    table = count_table(400, seed=10)
    fit = fit_nb(table, NB_SPEC)
    assert fit.converged
    assert fit.param_names == ("constant", "z1", "z2", "alpha")

    y = table.outcome.astype(float)
    z1, z2 = table.columns["z1"], table.columns["z2"]

    def nll(theta):
        # textbook gamma-function form, written independently of the
        # package's log-Pochhammer recurrence
        lam = np.exp(theta[0] + theta[1] * z1 + theta[2] * z2)
        r = np.exp(-theta[3])  # theta[3] = log alpha
        return -np.sum(gammaln(y + r) - gammaln(r) - gammaln(y + 1.0)
                       + r * np.log(r / (r + lam)) + y * np.log(lam / (r + lam)))

    ref = scipy.optimize.minimize(nll, np.array([0.5, 0.0, 0.0, 0.0]),
                                  method="BFGS", options={"gtol": 1e-8})
    expected = np.append(ref.x[:3], np.exp(ref.x[3]))
    np.testing.assert_allclose(fit.theta_hat, expected, atol=2e-5)
    assert fit.ll_converged == pytest.approx(-ref.fun, rel=1e-9)


def test_fit_restricted_ll_is_intercept_only():
    table = count_table(200)
    fit = fit_nb(table, NB_SPEC)
    intercept_fit = fit_nb(table, ModelSpec("nb", (Term(CONSTANT),)))
    assert fit.ll_restricted == pytest.approx(intercept_fit.ll_converged, rel=1e-9)
    assert fit.mcfadden_rho2 == pytest.approx(
        1.0 - fit.ll_converged / fit.ll_restricted)


def test_fit_rejects_all_zero_counts():
    table = ObservationTable({"z1": [0.1, 0.2], "z2": [0.3, 0.4]},
                             np.array([0, 0]), "frequency")
    with pytest.raises(ValueError, match="all counts are zero"):
        fit_nb(table, NB_SPEC)


def test_fit_requires_nb_family():
    with pytest.raises(ValueError, match="'nb'"):
        fit_nb(count_table(50), ModelSpec("mixed_nb",
                                          (Term(CONSTANT),
                                           Term("z1", (), "random_normal"),
                                           Term("z2"))))
    with pytest.raises(ValueError, match="^fit_mixed_nb expects family 'mixed_nb', got 'nb'$"):
        fit_mixed_nb(count_table(50), NB_SPEC, n_draws=25)


# ----------------------------------------------------------------- mixed

def test_mixed_gradient_matches_central_differences():
    table = count_table(60)
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal"),
                                  Term("z2")))
    design = build_design(table, spec)
    draws = DrawMatrix.for_design(design, 30)
    objective = make_mixed_objective(design, draws)
    rng = np.random.default_rng(9)
    for _ in range(3):
        theta = np.array([0.8, 0.3, rng.uniform(-1.5, -0.5), -0.2,
                          rng.uniform(-0.5, 0.2)])
        _, grad = objective(theta)
        h = 1e-6
        fd = np.empty_like(grad)
        for k in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (objective(up)[0] - objective(dn)[0]) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=2e-6, atol=1e-7)


def c09_kernel():
    """The mixed-NB kernel at the C09 shape (N=1500, R=200) and a
    parameter row."""
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
    design = build_design(count_table(1500, seed=9), spec)
    kernel = negbin._kernel(design, DrawMatrix.for_design(design, 200))
    return kernel, np.array([[1.0, 0.4, np.log(0.3), np.log(0.8)]])


def test_mixed_kernel_averages_its_draws_in_its_work_arrays():
    kernel, theta = c09_kernel()
    first = kernel(theta, slice(0, 1), obs=True)
    again, peak = peak_beyond_outputs(kernel, theta, slice(0, 1), obs=True)
    # one (N, R) array takes 2.4 MB; the outputs take 0.06 MB
    assert peak < 0.9e6
    for out, repeated in zip(first, again):
        np.testing.assert_array_equal(out, repeated)
        assert not np.shares_memory(out, repeated)  # the outputs are fresh
    # so are a Hessian call's, NB and logit alike: a second call at another
    # point leaves the first call's outputs as they were
    table = count_table(200, seed=3)
    severity = ObservationTable(table.columns, np.where(table.outcome > 2, "many", "few"),
                                "severity")
    logit = ModelSpec("mnl", (Term(CONSTANT, ("many",)), Term("z1", ("many",))),
                      ("many", "few"), "few")
    for kernel, theta in [
            (negbin._kernel(build_design(table, NB_SPEC), None),
             np.array([[1.0, 0.4, -0.3, np.log(0.8)]])),
            (mnl._kernel(build_design(severity, logit)), np.array([[0.2, 0.5]]))]:
        first = kernel(theta, slice(0, 1))
        kept = [np.copy(out) for out in first]
        again = kernel(theta + 0.1, slice(0, 1))
        for out, value, repeated in zip(first, kept, again):
            assert not np.shares_memory(out, repeated)
            np.testing.assert_array_equal(out, value)


def test_mixed_kernel_has_no_hessian():
    kernel, theta = c09_kernel()
    assert kernel(theta, slice(0, 1))[2] is None


def test_mixed_kernel_holds_no_hessian_products():
    # five terms at N = 20,000: the Hessian's covariate products would
    # take 4 MB (N * 5 * 5 doubles), for a Hessian the kernel refuses
    table = count_table(20_000, seed=2)
    z1, z2 = table.columns["z1"], table.columns["z2"]
    table = ObservationTable(dict(table.columns, z3=z1 * z2, z4=z1 ** 2),
                             table.outcome, "frequency")
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal"),
                                  Term("z2"), Term("z3"), Term("z4")))
    design = build_design(table, spec)
    draws = DrawMatrix.for_design(design, 25)
    tracemalloc.start()
    try:
        kernel = negbin._kernel(design, draws)  # alive, with what it holds
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kernel
    # the counts, as integers and as floats, take 0.32 MB
    assert held < 1e6


def test_a_first_c09_call_peaks_the_same_at_twice_the_observations():
    # a row with draws is split into observation blocks: the tile arena
    # holds one block's eight (rows, observations, draws) work arrays, not
    # eight (N, R) arrays (19 MB at N = 1500); beyond that, an observation
    # adds the tile's location predictor, its count as a float and as an
    # index, and its two table entries (8 kB allow for the list of blocks
    # and the interpreter's own allocations)
    theta = np.array([[1.0, 0.4, np.log(0.3), np.log(0.8)]])
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
    peaks = {}
    for n in (1500, 3000):
        design = build_design(count_table(n, seed=9), spec)
        kernel = negbin._kernel(design, DrawMatrix.for_design(design, 200))
        peaks[n] = peak_beyond_outputs(kernel, theta, slice(0, 1))[1]
    assert peaks[1500] < 2e6
    assert peaks[3000] <= peaks[1500] + 1500 * 5 * 8 + 8192


def test_c09_marginal_effects_peak_the_same_at_twice_the_observations(monkeypatch):
    # lam * beta is averaged in observation blocks: beyond the design and
    # the draws, built before the call here, an observation adds its
    # location predictor, not three (N, R) arrays (7.2 MB at N = 1500)
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
    fit = SimpleNamespace(spec=spec, theta_internal=np.array([1.0, 0.4, np.log(0.3),
                                                              np.log(0.8)]))
    peaks = {}
    for n in (1500, 3000):
        table = count_table(n, seed=9)
        design = build_design(table, spec)
        draws = DrawMatrix.for_design(design, 200)
        monkeypatch.setattr(negbin, "build_design", lambda *_, d=design: d)
        monkeypatch.setattr(negbin.families, "fit_draws", lambda *_, d=draws: d)
        peaks[n] = peak_beyond_outputs(marginal_effects, fit, table)[1]
    assert peaks[1500] < 1e6
    assert peaks[3000] <= peaks[1500] + 8 * BLOCK_ELEMENTS


def test_observation_blocks_give_the_whole_row_bit_for_bit():
    # rows with draws split into blocks of 1, 7 or 40 observations, and
    # one block of every observation, give the same outputs; so do plain
    # rows, but for their Hessians, summed block by block, which agree to
    # rounding
    table = count_table(150, seed=4)
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal"),
                                  Term("z2", (), "random_uniform")))
    design = build_design(table, spec)
    draws = DrawMatrix.for_design(design, 25)
    counts = np.stack([np.roll(table.outcome, s) for s in range(3)])
    kernel = negbin._kernel(design, draws, counts)
    rng = np.random.default_rng(5)
    theta = np.array([1.0, 0.4, np.log(0.3), -0.3, np.log(0.2), np.log(0.8)]) \
        + 0.1 * rng.normal(size=(4, 6))
    rows = np.array([2, 0, 1, 2])
    whole = tiled_calls(len(theta), kernel, theta, rows, 150 * 25, obs=True)
    for span in (1, 7, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("crashmle.draws.BLOCK_ELEMENTS", span * 25)
            blocked = kernel(theta, rows, obs=True)
        for got, want in zip(blocked, whole, strict=True):
            np.testing.assert_array_equal(got, want)
    plain = negbin._kernel(build_design(table, NB_SPEC), None, counts)
    theta = np.array([1.0, 0.4, -0.3, np.log(0.8)]) + 0.1 * rng.normal(size=(4, 4))
    whole = tiled_calls(len(theta), plain, theta, rows, 150, obs=True)
    hess = tiled_calls(len(theta), plain, theta, rows, 150, obs=False)[2]
    for span in (1, 7, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("crashmle.draws.BLOCK_ELEMENTS", span)
            blocked, blocked_hess = plain(theta, rows, obs=True), plain(theta, rows)[2]
        for got, want in zip(blocked, whole, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(blocked_hess, hess, rtol=0,
                                   atol=1e-13 * np.abs(hess).max())


def test_a_first_plain_hessian_call_adds_only_its_tile_per_observation():
    # a plain row of more than BLOCK_ELEMENTS observations is blocked like
    # a row with draws: beyond its outputs, a first Hessian call holds per
    # observation only its tile's predictor, counts and table entries (48
    # B), not a block's work arrays for every observation as well
    peaks = {n: hessian_call_peak(1, n) for n in (50_000, 100_000)}
    assert peaks[100_000] <= peaks[50_000] + 48 * 50_000 + 8 * BLOCK_ELEMENTS


def tiled_calls(budget_rows, kernel, theta, rows, n_elements, obs):
    """Copies of a kernel call's outputs with a tile budget of
    ``budget_rows`` rows of ``n_elements`` (N * R) elements each."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("crashmle.draws.BLOCK_ELEMENTS", budget_rows * n_elements)
        return [np.copy(out) for out in kernel(theta, rows, obs=obs)]


@pytest.mark.bitwise
@pytest.mark.parametrize("mixed", [False, True], ids=["nb", "mixed_nb"])
def test_kernel_tiles_give_the_untiled_outputs_bit_for_bit(mixed):
    table = count_table(150, seed=4)
    spec = (ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal"),
                                   Term("z2"))) if mixed else NB_SPEC)
    design = build_design(table, spec)
    draws = DrawMatrix.for_design(design, 25) if mixed else None
    counts = np.stack([np.roll(table.outcome, s) for s in range(5)])
    counts[2, 7] = 60  # a wider dispersion table for one row
    kernel = negbin._kernel(design, draws, counts)
    rng = np.random.default_rng(3)
    theta = np.array([1.0, 0.4, -0.3, np.log(0.8)]) + 0.1 * rng.normal(size=(20, 4))
    if mixed:
        theta = np.insert(theta, 2, np.log(0.3), axis=1)
    rows = rng.integers(0, len(counts), size=len(theta))
    n_elements = design.n_obs * (draws.n_draws if mixed else 1)
    for obs in (True, False):
        untiled = tiled_calls(len(theta), kernel, theta, rows, n_elements, obs)
        for budget_rows in (1, 7):
            tiled = tiled_calls(budget_rows, kernel, theta, rows, n_elements, obs)
            for got, want in zip(tiled, untiled, strict=True):
                np.testing.assert_array_equal(got, want)


@pytest.mark.bitwise
@pytest.mark.parametrize("mixed", [False, True], ids=["nb", "mixed_nb"])
def test_a_permuted_stack_gives_the_permuted_outputs_bit_for_bit(mixed):
    # tiles take a stack's rows in order of largest count, so permuting the
    # stack changes which rows share a tile, but no row's outputs
    table = count_table(150, seed=4)
    spec = (ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal"),
                                   Term("z2"))) if mixed else NB_SPEC)
    design = build_design(table, spec)
    draws = DrawMatrix.for_design(design, 25) if mixed else None
    counts = np.stack([np.roll(table.outcome, s) for s in range(5)])
    counts[2, 7], counts[4, 9] = 60, 25  # wider dispersion tables for two rows
    kernel = negbin._kernel(design, draws, counts)
    rng = np.random.default_rng(6)
    theta = np.array([1.0, 0.4, -0.3, np.log(0.8)]) + 0.1 * rng.normal(size=(20, 4))
    if mixed:
        theta = np.insert(theta, 2, np.log(0.3), axis=1)
    rows, perm = rng.integers(0, len(counts), size=len(theta)), rng.permutation(len(theta))
    n_elements = design.n_obs * (draws.n_draws if mixed else 1)
    for obs in (True, False):
        for budget_rows in (1, 7, 20):  # tiles of one row, of seven, one tile
            want = tiled_calls(budget_rows, kernel, theta, rows, n_elements, obs)
            got = tiled_calls(budget_rows, kernel, theta[perm], rows[perm], n_elements, obs)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w[perm] if w.ndim else w)


def test_stacked_tiles_build_tables_about_as_wide_as_their_rows_need(monkeypatch):
    # a C12-shaped Hessian stack: 500 count vectors of 122 sites.  Tiles
    # that take rows in stack order build 2.03 times the table entries the
    # rows' own largest counts need here; tiles in order of largest count
    # build 1.16 times
    rng = np.random.default_rng(12)
    z1 = rng.normal(size=122)
    lam = np.exp(2.2 + 0.3 * z1)
    counts = rng.poisson(rng.gamma(1 / 0.8, 0.8 * lam, size=(500, 122)))
    table = ObservationTable({"z1": z1, "z2": rng.uniform(0.0, 2.0, 122)}, counts[0],
                             "frequency")
    kernel = negbin._kernel(build_design(table, NB_SPEC), None, counts)
    shapes = []
    real = negbin._poch_tables
    monkeypatch.setattr(negbin, "_poch_tables",
                        lambda alpha, out: shapes.append(out.shape) or real(alpha, out))
    theta = np.tile([2.2, 0.3, 0.0, np.log(0.8)], (500, 1))
    assert np.isfinite(kernel(theta, np.arange(500))[0]).all()
    assert len(shapes) > 1  # several tiles
    built = sum(rows * width for _, rows, width in shapes)
    assert built <= 1.5 * (counts.max(axis=1) + 1).sum()


def hessian_call_peak(k, n=122):
    """Memory peak of one K-row Hessian call of the plain NB kernel beyond
    its outputs."""
    design = build_design(count_table(n, seed=1), NB_SPEC)
    kernel = negbin._kernel(design, None)
    theta = np.tile([1.0, 0.4, -0.3, np.log(0.8)], (k, 1))
    rows = np.zeros(k, dtype=np.int64)
    return peak_beyond_outputs(kernel, theta, rows)[1]


def test_hessian_call_memory_is_set_by_the_tile_not_by_k_times_n():
    # 2,048 rows of 122 observations: the outputs take 8 MB; work arrays
    # for every row at once would take another 30 MB
    peak = hessian_call_peak(2048)
    tile_bytes = 8 * BLOCK_ELEMENTS
    assert peak < 20 * tile_bytes
    # beyond the outputs, doubling K adds only the K row indices (4 kB
    # allow for the interpreter's own allocations)
    assert peak <= hessian_call_peak(1024) + 8 * 1024 + 4096


def test_an_outlier_count_widens_only_its_own_tile():
    # one count of 20,000 among 200 rows of 122: tables as wide as that for
    # a whole tile of 134 rows would take 64 MB; tables stop at the cap, and
    # a tile holds no more table entries than BLOCK_ELEMENTS
    design = build_design(count_table(122, seed=1), NB_SPEC)
    counts = np.tile(design.counts, (200, 1))
    counts[77, 5] = 20_000
    kernel = negbin._kernel(design, None, counts)
    rng = np.random.default_rng(4)
    theta = np.array([1.0, 0.4, -0.3, np.log(0.8)]) + 0.1 * rng.normal(size=(200, 4))
    rows = np.arange(200)
    together, peak = peak_beyond_outputs(kernel, theta, rows)
    assert peak < 9e6  # per-observation outputs would take 1 MB
    for k in rows:
        alone = kernel(theta[k:k + 1], rows[k:k + 1])
        for got, want in zip(alone, together, strict=True):
            np.testing.assert_array_equal(got[0], want[k])


def test_a_count_above_the_cap_sizes_tiles_by_the_tables_they_build(monkeypatch):
    # one count of 1e7 among 500 rows of 122: every tile's tables stop at
    # TAIL_START + 1 = 1,025 entries, so a tile holds 16,384 // 1,025 = 15
    # rows (34 tiles), not the 3 that 4,097-wide tables would allow (167 tiles)
    design = build_design(count_table(122, seed=1), NB_SPEC)
    counts = np.tile(design.counts, (500, 1))
    counts[77, 5] = 10**7
    assert counts.max(where=counts <= negbin.TABLE_CAP, initial=0) < negbin.TAIL_START
    kernel = negbin._kernel(design, None, counts)
    theta = np.tile([1.0, 0.4, -0.3, np.log(0.8)], (500, 1))
    tables = []
    real = negbin._poch_tables
    monkeypatch.setattr(negbin, "_poch_tables",
                        lambda alpha, out: tables.append(out.shape) or real(alpha, out))
    assert np.isfinite(kernel(theta, np.arange(500))[0]).all()
    rows = BLOCK_ELEMENTS // (negbin.TAIL_START + 1)
    assert len(tables) == -(-500 // rows)  # one call per tile
    assert {shape[1] for shape in tables[:-1]} == {rows}


@pytest.mark.parametrize("obs", [False, True])
def test_kernel_memory_does_not_grow_with_the_largest_count(obs):
    # one count of a trillion reads the capped tables and adds its tail; one
    # table as wide as that count would take 8 TB
    design = build_design(count_table(122, seed=1), NB_SPEC)
    theta = np.tile([1.0, 0.4, -0.3, np.log(0.8)], (4, 1))
    peaks = []
    for count in (10, 10**12):
        counts = np.tile(design.counts, (4, 1))
        counts[2, 9] = count
        (ll, *_), peak = peak_beyond_outputs(
            lambda: negbin._kernel(design, None, counts)(theta, np.arange(4), obs))
        peaks.append(peak)
        assert np.isfinite(ll).all()
    assert peaks[1] < peaks[0] + 1e6


def test_a_mixed_fit_without_a_draw_count_names_it():
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
    with pytest.raises(ValueError, match="mixed families require n_draws"):
        fit_mixed_nb(count_table(80), spec, n_draws=None)


def test_fit_mixed_nb_reports_natural_parameters():
    table = count_table(250, seed=13)
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal"),
                                  Term("z2")))
    fit = fit_mixed_nb(table, spec, n_draws=25)
    assert fit.param_names == ("constant", "z1", "z1:sd", "z2", "alpha")
    assert fit.coef("z1:sd") >= 0
    assert fit.coef("alpha") > 0
    assert fit.n_draws == 25
    # restricted model is the plain intercept-only fit, shared with fit_nb
    plain = fit_nb(table, NB_SPEC)
    assert fit.ll_restricted == pytest.approx(plain.ll_restricted, rel=1e-9)


# ------------------------------------------------------------------ effects

def test_marginal_effects_equal_mean_rate_times_beta():
    table = count_table(150)
    fit = fit_nb(table, NB_SPEC)
    report = marginal_effects(fit, table)
    assert report.effect_type == "marginal"
    design = build_design(table, NB_SPEC)
    lam = np.exp(design.linear_predictors(fit.theta_internal[:-1]))
    values = {r.variable: r.value for r in report.rows}
    for var in ("z1", "z2"):
        assert values[var] == pytest.approx(lam.mean() * fit.coef(var), rel=1e-12)
    ratios = [values[v] / fit.coef(v) for v in ("z1", "z2")]
    assert ratios[0] == pytest.approx(ratios[1], abs=1e-10)
    for r in report.rows:
        assert r.kind == "marginal" and r.target == "" and r.outcome == ""


def test_marginal_effects_match_finite_difference_of_mean_rate():
    table = count_table(120)
    fit = fit_nb(table, NB_SPEC)
    report = marginal_effects(fit, table, ["z1"])
    beta = fit.theta_internal[:-1]
    design = build_design(table, NB_SPEC)
    h = 1e-6
    lam_up = np.exp(design.x @ beta + h * beta[1])
    lam_dn = np.exp(design.x @ beta - h * beta[1])
    fd = (lam_up - lam_dn).mean() / (2.0 * h)
    assert report.rows[0].value == pytest.approx(fd, rel=1e-5)
    # a variable named twice is reported once
    assert marginal_effects(fit, table, ["z1", "z1"]).rows == report.rows


def test_marginal_effects_reject_the_constant():
    table = count_table(50)
    fit = fit_nb(table, NB_SPEC)
    with pytest.raises(ValueError, match="constant"):
        marginal_effects(fit, table, ["constant"])
    with pytest.raises(ValueError, match="no term"):
        marginal_effects(fit, table, ["zzz"])
