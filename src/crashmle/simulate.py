"""Seed-deterministic synthetic data generators.

All randomness flows from numpy's PCG64 bit generator.  A top-level
seed is split with ``SeedSequence.spawn`` into three independent
streams (covariates, coefficient mixing, outcomes), so a mixed-family
generator run with all scales at zero consumes the covariate and
outcome streams exactly like its plain counterpart and reproduces it
bit for bit.  Normal variates are produced by inverse-CDF transform of
uniforms, never by rejection, keeping the draw count per row fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .dataset import (CONSTANT, DesignMatrix, ModelSpec, ObservationTable,
                      build_design, scale_param_name, term_param_name)

RECIPE_KINDS = ("normal", "uniform", "bernoulli", "constant")


def _streams(seed: int):
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.Generator(np.random.PCG64(s)) for s in children)


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniforms clipped into the open interval for inverse-CDF use."""
    return np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return ndtri(_uniform_open(rng, n))


@dataclass(frozen=True)
class CovariateRecipe:
    """How to draw one covariate column.

    Kinds: ``normal`` (mean, sd), ``uniform`` (low, high), ``bernoulli``
    (p), ``constant`` (value).
    """

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    low: float = 0.0
    high: float = 1.0
    p: float = 0.5
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
            raise ValueError(f"recipe kind must be one of {RECIPE_KINDS}, "
                             f"got {self.kind!r}")
        if self.kind == "normal" and self.sd < 0:
            raise ValueError("normal recipe needs sd >= 0")
        if self.kind == "uniform" and self.high < self.low:
            raise ValueError("uniform recipe needs high >= low")
        if self.kind == "bernoulli" and not 0.0 <= self.p <= 1.0:
            raise ValueError("bernoulli recipe needs p in [0, 1]")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "normal":
            return self.mean + self.sd * _standard_normal(rng, n)
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * rng.random(n)
        if self.kind == "bernoulli":
            return (rng.random(n) < self.p).astype(np.float64)
        return np.full(n, float(self.value))

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "normal":
            d.update(mean=self.mean, sd=self.sd)
        elif self.kind == "uniform":
            d.update(low=self.low, high=self.high)
        elif self.kind == "bernoulli":
            d.update(p=self.p)
        else:
            d.update(value=self.value)
        return d

    @staticmethod
    def from_dict(d: dict) -> "CovariateRecipe":
        if "kind" not in d:
            raise ValueError("covariate recipe needs a kind")
        kind = d["kind"]
        allowed = {"normal": {"mean", "sd"}, "uniform": {"low", "high"},
                   "bernoulli": {"p"}, "constant": {"value"}}
        if kind not in allowed:
            raise ValueError(f"recipe kind must be one of {RECIPE_KINDS}, got {kind!r}")
        extra = set(d) - {"kind"} - allowed[kind]
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)} for {kind!r} recipe")
        return CovariateRecipe(kind, **{k: v for k, v in d.items() if k != "kind"})


def expected_param_names(spec: ModelSpec) -> tuple[str, ...]:
    """Reporting-order parameter names implied by a spec."""
    names = []
    for t in spec.terms:
        names.append(term_param_name(t, spec.is_severity))
        if t.is_random:
            names.append(scale_param_name(t, spec.is_severity))
    if spec.is_frequency:
        names.append("alpha")
    return tuple(names)


@dataclass(frozen=True)
class DgpConfig:
    """Complete description of a synthetic data set.

    ``params`` maps every reporting parameter name (locations, mixing
    scales on the natural scale, ``alpha`` for count families) to its
    true value.  ``covariates`` must cover every term variable except
    the constant; extra columns (for example a grouping flag) are
    allowed and included in the output table.
    """

    spec: ModelSpec
    params: dict[str, float]
    covariates: dict[str, CovariateRecipe]
    n: int
    seed: int = 0
    influence: tuple[str, float] | None = None  # (distance column, cap)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        expected = set(expected_param_names(self.spec))
        got = set(self.params)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(f"params mismatch; missing {missing}, unexpected {extra}")
        for name, value in self.params.items():
            if (name.endswith(":sd") or name.endswith(":spread")) and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.spec.is_frequency and self.params["alpha"] <= 0:
            raise ValueError("alpha must be positive")
        for t in self.spec.terms:
            if t.variable != CONSTANT and t.variable not in self.covariates:
                raise ValueError(f"no covariate recipe for {t.variable!r}")
        if self.influence is not None:
            column, cap = self.influence
            if column not in self.covariates:
                raise ValueError(f"influence distance column {column!r} has no recipe")
            if cap <= 0:
                raise ValueError("influence cap must be positive")

    def to_dict(self) -> dict:
        d = {"spec": self.spec.to_dict(),
             "params": dict(self.params),
             "covariates": {k: v.to_dict() for k, v in self.covariates.items()},
             "n": self.n, "seed": self.seed}
        if self.influence is not None:
            d["influence"] = {"distance": self.influence[0], "cap": self.influence[1]}
        return d

    @staticmethod
    def from_dict(d: dict) -> "DgpConfig":
        influence = None
        if d.get("influence") is not None:
            influence = (d["influence"]["distance"], float(d["influence"]["cap"]))
        return DgpConfig(
            spec=ModelSpec.from_dict(d["spec"]),
            params={k: float(v) for k, v in d["params"].items()},
            covariates={k: CovariateRecipe.from_dict(v)
                        for k, v in d["covariates"].items()},
            n=int(d["n"]), seed=int(d.get("seed", 0)), influence=influence)


def true_theta(config: DgpConfig) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Per-term true locations and natural scales, plus alpha if any."""
    spec = config.spec
    locs = np.array([config.params[term_param_name(t, spec.is_severity)]
                     for t in spec.terms])
    scales = np.array([
        config.params[scale_param_name(t, spec.is_severity)] if t.is_random else 0.0
        for t in spec.terms])
    alpha = config.params["alpha"] if spec.is_frequency else None
    return locs, scales, alpha


def coefficient_matrix(design: DesignMatrix, locs, scales, mix_rng) -> np.ndarray:
    """Per-row coefficients (N, T): mixing draws for random terms.

    Every term contributes a column; fixed terms and zero scales
    reproduce the location exactly.  One stream draw per random term,
    in term order, regardless of scale.
    """
    n = design.n_obs
    coef = np.broadcast_to(np.asarray(locs, float), (n, len(locs))).copy()
    for j in design.random_terms:
        kind = design.spec.terms[j].kind
        if kind == "random_normal":
            z = _standard_normal(mix_rng, n)
        else:
            z = 2.0 * mix_rng.random(n) - 1.0
        coef[:, j] = locs[j] + scales[j] * z
    return coef


def draw_severity_outcomes(design: DesignMatrix, coef: np.ndarray,
                           out_rng: np.random.Generator,
                           x: np.ndarray | None = None) -> np.ndarray:
    """Outcome indices from per-row coefficients (one uniform per row)."""
    xm = design.x if x is None else x
    v = (xm * coef) @ design.incidence
    m = v.max(axis=1, keepdims=True)
    e = np.exp(v - m)
    probs = e / e.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    u = out_rng.random(design.n_obs)
    idx = (cum < u[:, None]).sum(axis=1)
    return np.minimum(idx, design.n_outcomes - 1)


def draw_counts(design: DesignMatrix, coef: np.ndarray, alpha: float,
                out_rng: np.random.Generator,
                x: np.ndarray | None = None) -> np.ndarray:
    """NB counts by gamma-Poisson mixture at per-row coefficients."""
    xm = design.x if x is None else x
    lam = np.exp((xm * coef).sum(axis=1))
    r = 1.0 / alpha
    g = out_rng.gamma(shape=r, scale=alpha, size=design.n_obs)
    return out_rng.poisson(lam * g).astype(np.int64)


def _generate(config: DgpConfig) -> ObservationTable:
    cov_rng, mix_rng, out_rng = _streams(config.seed)
    spec = config.spec
    columns = {name: recipe.draw(cov_rng, config.n)
               for name, recipe in config.covariates.items()}
    mode = "severity" if spec.is_severity else "frequency"
    placeholder = (np.zeros(config.n, dtype=np.int64) if mode == "frequency"
                   else np.full(config.n, spec.outcomes[0]))
    shell = ObservationTable(columns, placeholder, mode)
    design = build_design(shell, spec)

    x = None
    if config.influence is not None:
        column, cap = config.influence
        x = design.x.copy()
        for j, t in enumerate(spec.terms):
            if t.variable == column:
                x[:, j] = np.minimum(x[:, j], cap)

    locs, scales, alpha = true_theta(config)
    coef = coefficient_matrix(design, locs, scales, mix_rng)
    if spec.is_severity:
        idx = draw_severity_outcomes(design, coef, out_rng, x=x)
        outcome = np.asarray(spec.outcomes)[idx]
    else:
        outcome = draw_counts(design, coef, alpha, out_rng, x=x)
    return ObservationTable(columns, outcome, mode)


def _require_family(config: DgpConfig, family: str):
    if config.spec.family != family:
        raise ValueError(f"config family is {config.spec.family!r}, expected {family!r}")


def gen_mnl(config: DgpConfig) -> ObservationTable:
    """Multinomial logit data at the true coefficients."""
    _require_family(config, "mnl")
    return _generate(config)


def gen_mixed_mnl(config: DgpConfig) -> ObservationTable:
    """Mixed logit data; zero scales reproduce :func:`gen_mnl` exactly."""
    _require_family(config, "mixed_mnl")
    return _generate(config)


def gen_nb(config: DgpConfig) -> ObservationTable:
    """Negative binomial counts via the gamma-Poisson mixture."""
    _require_family(config, "nb")
    return _generate(config)


def gen_mixed_nb(config: DgpConfig) -> ObservationTable:
    """Random-coefficient NB counts; zero scales reproduce :func:`gen_nb`."""
    _require_family(config, "mixed_nb")
    return _generate(config)


def gen_influence(config: DgpConfig) -> ObservationTable:
    """Severity data whose true predictor caps the distance variable.

    The table keeps the raw distances; only the data-generating
    predictor uses min(distance, cap).
    """
    _require_family(config, "mnl")
    if config.influence is None:
        raise ValueError("config.influence must name the distance column and cap")
    return _generate(config)


def generate(config: DgpConfig) -> ObservationTable:
    """Family-dispatching front end used by the CLI."""
    if config.influence is not None:
        return gen_influence(config)
    return _generate(config)


def draw_outcomes(design: DesignMatrix, theta_internal: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Outcome indices (severity) or counts (frequency) for ``design``.

    ``theta_internal`` is the packed optimizer vector of a fit of the
    design's spec (scales and alpha as logs).  Mixing draws, the gamma
    stage, and the outcome draws all come from ``rng`` in a fixed order.
    """
    theta = np.asarray(theta_internal, dtype=np.float64)
    spec = design.spec
    theta_terms = theta[:-1] if spec.is_frequency else theta
    locs, scales = design.unpack(theta_terms)
    coef = coefficient_matrix(design, locs, scales, rng)
    if spec.is_severity:
        return draw_severity_outcomes(design, coef, rng)
    return draw_counts(design, coef, float(np.exp(theta[-1])), rng)


def redraw_outcomes(spec: ModelSpec, theta_internal: np.ndarray,
                    table: ObservationTable,
                    rng: np.random.Generator) -> ObservationTable:
    """New outcomes for existing covariates at fitted parameters.

    Used to simulate the null in parametric bootstrap tests; the draws
    are those of :func:`draw_outcomes`.
    """
    outcome = draw_outcomes(build_design(table, spec), theta_internal, rng)
    if spec.is_severity:
        outcome = np.asarray(spec.outcomes)[outcome]
    return ObservationTable(dict(table.columns), outcome, table.mode)
