"""Edge cases with the verdict the package gives on them today.

Each test pins what the code does at one edge, so that no change of
verdict goes unseen.  Where today's verdict is not the one wanted, the
test names the ROADMAP item that will change it, and the change that
turns the row around edits the test.
"""

import numpy as np
import pytest

from crashmle import families
from crashmle.dataset import CONSTANT, ModelSpec, Term, build_design
from crashmle.simulate import CovariateRecipe, DgpConfig, generate

#: the benchmark's 2k-row mixed logit (``perfbench/workloads.py``), at seed 1
MIXED_DGP = DgpConfig(
    ModelSpec("mixed_mnl", (Term(CONSTANT, ("a",)), Term("x1", ("a",), "random_normal")),
              ("a", "b", "base"), "base"),
    {"constant[a]": 0.4, "x1[a]": 0.8, "x1[a]:sd": 1.0},
    {"x1": CovariateRecipe("normal")}, n=2_000, seed=1)


def test_a_zero_start_mixed_logit_fit_reports_convergence_on_a_saturated_plateau():
    """The seed-1 ``MIXED_DGP`` fit (50 draws) reports ``converged`` far
    below its optimum, with an undefined covariance.

    The first BFGS step is the raw gradient: an identity inverse Hessian
    and a unit step.  Armijo accepts it, because the log-likelihood rises
    from 2000 ln(1/3) = -2197.2, and it lands at |theta| of about 170-200,
    where the logit saturates and the scaled gradient test passes after
    one iteration (ll -2150.8).  On the fit's own draws the true
    parameters give -2059.5.  ROADMAP item 1 (one ascent rule, with a
    checked convergence claim) turns this row around: the fit then
    reaches the near-truth optimum or reports ``converged: false``.
    """
    table = generate(MIXED_DGP)
    spec = MIXED_DGP.spec
    with pytest.warns(RuntimeWarning, match="covariance matrix is undefined"):
        fit = families.fit(table, spec, n_draws=50)
    design = build_design(table, spec)
    truth = np.array([MIXED_DGP.params[name] for name in design.param_names])
    truth[design.log_pos] = np.log(truth[design.log_pos])
    kernel = families.REGISTRY[spec.family].kernel(design, families.fit_draws(fit, design), None)
    ll_truth = families.summed(kernel)(truth)[0]
    assert fit.converged
    assert np.abs(fit.theta_internal).max() > 100
    assert ll_truth - fit.ll_converged > 50
