"""Maximum-likelihood models for accident severity and frequency.

Severity outcomes use multinomial logit and mixed (random-parameters)
logit with Halton-draw simulated likelihood; accident counts use
negative binomial and mixed negative binomial regression.  The package
also provides elasticity and marginal-effect reports, asymptotic and
Monte Carlo likelihood-ratio pooling tests, an influence-distance grid
search, and seed-deterministic synthetic data generators.
"""

from .dataset import (CONSTANT, DesignMatrix, ModelSpec, ObservationTable,
                      Term, build_design, load_csv, load_spec, parse_spec,
                      split_by_flag)
from .draws import DrawMatrix, halton
from .families import fit
from .influence import InfluenceProfile, influence_variable, search_influence
from .lrtest import (LrTestResult, chi2_quantile, chi2_sf, lr_statistic,
                     lr_test, mc_null_distribution, simulate_under_null)
from .mixed import (Mixing, fit_mixed_mnl, mixed_effects, mixed_loglik,
                    sign_share, simulated_prob, simulated_probs, transform_draws)
from .mnl import (elasticities, fit_mnl, mnl_loglik, mnl_prob, mnl_probs,
                  pseudo_elasticities)
from .negbin import (fit_mixed_nb, fit_nb, marginal_effects, nb_loglik,
                     nb_logpmf)
from .optimize import (CovarianceResult, FitResult, MaximizeResult,
                       OptimizationError, OptimSettings, covariance,
                       hessian_fd, maximize, summarize)
from .reporting import (EffectRow, EffectsReport, RunManifest, VERSION,
                        fit_table_text)
from .simulate import (CovariateRecipe, DgpConfig, gen_influence, gen_mixed_mnl,
                       gen_mixed_nb, gen_mnl, gen_nb, generate, redraw_outcomes)

__version__ = VERSION

__all__ = [
    "CONSTANT", "CovarianceResult", "CovariateRecipe", "DesignMatrix",
    "DgpConfig", "DrawMatrix", "EffectRow", "EffectsReport", "FitResult",
    "InfluenceProfile", "LrTestResult", "MaximizeResult", "Mixing",
    "ModelSpec", "ObservationTable", "OptimSettings", "OptimizationError",
    "RunManifest", "Term", "VERSION", "build_design", "chi2_quantile",
    "chi2_sf", "covariance", "elasticities", "fit", "fit_mixed_mnl",
    "fit_mixed_nb", "fit_mnl", "fit_nb", "fit_table_text", "gen_influence",
    "gen_mixed_mnl", "gen_mixed_nb", "gen_mnl", "gen_nb", "generate",
    "halton", "hessian_fd", "influence_variable", "load_csv", "load_spec",
    "lr_statistic", "lr_test", "marginal_effects", "maximize",
    "mc_null_distribution", "mixed_effects", "mixed_loglik", "mnl_loglik",
    "mnl_prob", "mnl_probs", "nb_loglik", "nb_logpmf", "parse_spec",
    "pseudo_elasticities", "redraw_outcomes", "search_influence",
    "sign_share", "simulate_under_null", "simulated_prob", "simulated_probs",
    "split_by_flag", "summarize", "transform_draws",
]
