"""Report containers and writers: effects tables, fit summaries, manifests."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import serialize
from .dataset import CONSTANT, DesignMatrix, scale_param_name, term_param_name
from .draws import Mixing, sign_share
from .families import REGISTRY
from .optimize import FitResult

#: package version recorded in manifests (kept in sync with pyproject)
VERSION = "0.1.0"


@dataclass(frozen=True)
class EffectRow:
    """Averaged response of one probability (or the mean count) to one variable.

    ``target`` is the outcome equation the variable was perturbed in;
    ``outcome`` is the probability whose response is measured.  ``kind``
    is ``direct`` when they coincide, ``cross`` otherwise, and
    ``marginal`` for count models (where both labels are empty).
    ``elastic`` flags an average magnitude of at least one.
    """

    variable: str
    target: str
    outcome: str
    kind: str
    value: float

    @property
    def elastic(self) -> bool:
        return abs(self.value) >= 1.0


#: an effects file's columns: :class:`EffectRow`'s fields, then ``elastic``
_ROW_COLUMNS = (*(f.name for f in fields(EffectRow)), "elastic")


@dataclass(frozen=True)
class EffectsReport:
    effect_type: str  # "elasticity", "pseudo_elasticity", or "marginal"
    rows: tuple[EffectRow, ...]
    n_obs: int

    def to_dict(self) -> dict:
        return serialize.sanitize({
            "effect_type": self.effect_type,
            "n_obs": self.n_obs,
            "rows": [{k: getattr(r, k) for k in _ROW_COLUMNS} for r in self.rows],
        })

    def to_csv(self, path) -> None:
        serialize.write_csv(path, {k: np.array([getattr(r, k) for r in self.rows])
                                   for k in _ROW_COLUMNS})


def term_targets(design: DesignMatrix, variables):
    """An effects report's (variable, term index, target outcome) triples.

    Count-model terms have no outcomes; their target is ``""``.
    """
    spec = design.spec
    if variables is None:
        variables = [t.variable for t in spec.terms if t.variable != CONSTANT]
    triples = []
    for var in dict.fromkeys(variables):  # each variable once, where first named
        if var == CONSTANT:
            raise ValueError("effects for the constant are not defined")
        hits = [j for j, t in enumerate(spec.terms) if t.variable == var]
        if not hits:
            raise ValueError(f"variable {var!r} has no term in the model")
        for j in hits:
            for target in spec.terms[j].outcomes or ("",):
                triples.append((var, j, target))
    return triples


def fmt_est(v: float) -> str:
    """Three significant figures, 'nan' when undefined."""
    if not math.isfinite(v):
        return "nan"
    return f"{v:.3g}"


def fmt_t(v: float) -> str:
    """Two decimals, 'nan' when undefined."""
    if not math.isfinite(v):
        return "nan"
    return f"{v:.2f}"


def fit_table_text(fit: FitResult) -> str:
    """Human-readable estimation table.

    One row per parameter (estimate to three significant figures,
    t-ratio to two decimals), then the summary block: log-likelihood at
    convergence, restricted log-likelihood, number of parameters,
    number of observations, McFadden rho-squared.
    """
    name_w = max(28, max((len(n) for n in fit.param_names), default=0) + 2)
    lines = []
    lines.append(f"Model: {REGISTRY[fit.family].title} ({fit.family})")
    if fit.n_draws is not None:
        seed = "" if fit.seed is None else f", seed {fit.seed}"
        lines.append(f"Simulated likelihood: {fit.n_draws} Halton draws per "
                     f"observation{seed}")
    if not fit.converged:
        note = f" ({fit.message})" if fit.message else ""
        lines.append(f"WARNING: did not converge{note}")
    lines.append("")
    header = f"{'Parameter':<{name_w}}{'Estimate':>12}{'Std.err':>12}{'t-ratio':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for i, name in enumerate(fit.param_names):
        lines.append(f"{name:<{name_w}}"
                     f"{fmt_est(float(fit.theta_hat[i])):>12}"
                     f"{fmt_est(float(fit.standard_errors[i])):>12}"
                     f"{fmt_t(float(fit.t_ratios[i])):>10}")
    lines.append("-" * len(header))
    lines.append(f"Log-likelihood at convergence: {fit.ll_converged:.2f}")
    lines.append(f"Restricted log-likelihood:     {fit.ll_restricted:.2f}")
    lines.append(f"Number of parameters:          {fit.n_params}")
    lines.append(f"Number of observations:        {fit.n_obs}")
    lines.append(f"McFadden rho-squared:          {fit.mcfadden_rho2:.3f}")

    dist_lines = _random_coefficient_lines(fit)
    if dist_lines:
        lines.append("")
        lines.append("Random coefficient distributions:")
        lines.extend(dist_lines)
    return "\n".join(lines) + "\n"


def _random_coefficient_lines(fit: FitResult) -> list[str]:
    if fit.spec is None or not fit.spec.is_mixed:
        return []
    lines = []
    for term in (t for t in fit.spec.terms if t.is_random):
        name = term_param_name(term, fit.spec.is_severity)
        loc, scale = fit.coef(name), fit.coef(scale_param_name(term, fit.spec.is_severity))
        law = (f"normal(mean {fmt_est(loc)}, sd {fmt_est(scale)})" if term.dist == "normal"
               else f"uniform(center {fmt_est(loc)}, spread {fmt_est(scale)}, "
                    f"implied sd {fmt_est(scale / math.sqrt(3.0))})")
        share = sign_share(Mixing(term.dist, loc, scale))
        lines.append(f"  {name}: {law}; share below zero {share:.3f}")
    return lines


@dataclass
class RunManifest:
    """Provenance record for one CLI invocation.

    Written next to the result files (``<out>.manifest.json``) so the
    result JSON itself stays byte-identical across reruns; the manifest
    is the only output with a timestamp.
    """

    command: list[str]
    inputs: dict[str, str]  # path -> sha256
    seed: int | None = None
    n_draws: int | None = None
    version: str = VERSION
    created_utc: str = ""

    def __post_init__(self):
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path) -> None:
        serialize.write_json(path, self.to_dict())
