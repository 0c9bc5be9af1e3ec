"""Seed-deterministic synthetic data generators.

All randomness flows from numpy's PCG64 bit generator.  A top-level
seed is split with ``SeedSequence.spawn`` into three independent
streams (covariates, coefficient mixing, outcomes).  The outcome law and
draw are the family's (``Family.law``, ``Family.draw``), at one draw per
row, each random term's mixing draw, so a mixed-family generator run with
all scales at zero uses the covariate and outcome streams exactly like its
plain counterpart, and its law agrees with the plain one to rounding.
Normal and mixing variates are produced by the inverse-CDF
transform of uniforms, :func:`crashmle.draws.standard_draws`, never by
rejection, keeping the draw count per row fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .dataset import (_KIND_TO_DIST, CONSTANT, DesignMatrix, ModelSpec, ObservationTable,
                      build_design, expected_param_names)
from .draws import standard_draws
from .families import REGISTRY, natural_from_internal

#: each recipe kind's parameters, in the order ``to_dict`` writes them
RECIPE_PARAMS = {"normal": ("mean", "sd"), "uniform": ("low", "high"),
                 "bernoulli": ("p",), "constant": ("value",)}
RECIPE_KINDS = tuple(RECIPE_PARAMS)


def _streams(seed: int):
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.Generator(np.random.PCG64(s)) for s in children)


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniforms clipped into the open interval for inverse-CDF use."""
    return np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)


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
            return self.mean + self.sd * standard_draws(_uniform_open(rng, n), "normal")
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * rng.random(n)
        if self.kind == "bernoulli":
            return (rng.random(n) < self.p).astype(np.float64)
        return np.full(n, float(self.value))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in RECIPE_PARAMS[self.kind]}}

    @staticmethod
    def from_dict(d: dict) -> "CovariateRecipe":
        if "kind" not in serialize.require(d, (), "covariate recipe"):
            raise ValueError("covariate recipe needs a kind")
        kind = d["kind"]
        if not isinstance(kind, str) or kind not in RECIPE_PARAMS:
            raise ValueError(f"recipe kind must be one of {RECIPE_KINDS}, got {kind!r}")
        serialize.known(d, {"kind", *RECIPE_PARAMS[kind]}, "unknown keys {} for {!r} recipe", kind)
        return CovariateRecipe(kind, **{
            k: serialize.number(v, f"covariate recipe {k!r}")
            for k, v in d.items() if k != "kind"})


@dataclass(frozen=True)
class DgpConfig:
    """Complete description of a synthetic data set.

    ``params`` maps every reporting parameter name (locations, mixing
    scales on the natural scale, ``alpha`` for count families) to its
    true value.  ``covariates`` must cover every term variable except
    the constant; extra columns (for example a grouping flag) are
    allowed and included in the output table.  ``influence`` caps a
    term's column in the outcome law alone.
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
        if self.seed < 0:
            raise ValueError(f"dgp seed must be non-negative, got {self.seed}")
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
            if not any(t.variable == column for t in self.spec.terms):
                raise ValueError(f"spec has no term on {column!r}")
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
        keys = ("spec", "params", "covariates", "n")
        serialize.known(serialize.require(d, (), "dgp config"), (*keys, "seed", "influence"),
                        "unknown keys {} in dgp config")
        serialize.require(d, keys, "dgp config")
        influence = None
        if d.get("influence") is not None:
            inf = serialize.require(d["influence"], ("distance", "cap"), "dgp influence")
            serialize.known(inf, ("distance", "cap"), "unknown keys {} in dgp influence")
            influence = (serialize.string(inf["distance"], "dgp influence distance"),
                         serialize.number(inf["cap"], "dgp influence cap"))
        params = serialize.require(d["params"], (), "dgp params")
        covariates = serialize.require(d["covariates"], (), "dgp covariates")
        return DgpConfig(
            spec=ModelSpec.from_dict(d["spec"]),
            params={k: serialize.number(v, f"dgp param {k!r}") for k, v in params.items()},
            covariates={k: CovariateRecipe.from_dict(v) for k, v in covariates.items()},
            n=serialize.integer(d["n"], "dgp n"),
            seed=serialize.integer(d.get("seed", 0), "dgp seed"), influence=influence)


def _mixing_draws(design: DesignMatrix, mix_rng) -> tuple:
    """Each random term's standardized mixing draws (N, 1), one per row:
    one whole-N stream draw per random term, in term order."""
    if design.random_terms and mix_rng is None:
        raise ValueError("the mixing draws of a design with random terms need rng")
    return tuple(standard_draws(_uniform_open(mix_rng, design.n_obs),
                                _KIND_TO_DIST[design.spec.terms[j].kind])[:, None]
                 for j in design.random_terms)


def coefficient_matrix(design: DesignMatrix, locs, scales, mix_rng) -> np.ndarray:
    """Per-row coefficients (N, T): each term's location, plus a random
    term's scale times its :func:`_mixing_draws`; a fixed term or a zero
    scale reproduces the location exactly."""
    coef = np.tile(np.asarray(locs, dtype=np.float64), (design.n_obs, 1))
    for j, std in zip(design.random_terms, _mixing_draws(design, mix_rng)):
        coef[:, j] += scales[j] * std[:, 0]
    return coef


def draw_severity_outcomes(cdf: np.ndarray, out_rng: np.random.Generator) -> np.ndarray:
    """Outcome indices from (N, I) cumulative probabilities (one uniform
    per row)."""
    u = out_rng.random(len(cdf))
    idx = (cdf < u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf.shape[1] - 1)


def draw_counts(lam: np.ndarray, alpha: float,
                out_rng: np.random.Generator) -> np.ndarray:
    """NB counts by gamma-Poisson mixture around the means ``lam``."""
    r = 1.0 / alpha
    g = out_rng.gamma(shape=r, scale=alpha, size=lam.size)
    return out_rng.poisson(lam * g).astype(np.int64)


def _labels(spec: ModelSpec, outcome: np.ndarray) -> np.ndarray:
    """A severity spec's labels of the outcome indices; counts as they are."""
    return np.asarray(spec.outcomes)[outcome] if spec.is_severity else outcome


def _draw(design: DesignMatrix, theta: np.ndarray, natural: np.ndarray,
          mix_rng, out_rng: np.random.Generator) -> np.ndarray:
    """Outcome indices or counts: the family's law at the packed ``theta`` and
    one ``mix_rng`` draw per row, drawn from ``out_rng`` at ``natural``."""
    family = REGISTRY[design.spec.family]
    laws = family.law(theta, design, _mixing_draws(design, mix_rng))
    return np.concatenate([family.draw(law, natural, out_rng) for law in laws])


def _generate(config: DgpConfig, family: str) -> ObservationTable:
    spec = config.spec
    if spec.family != family:
        raise ValueError(f"config family is {spec.family!r}, expected {family!r}")
    cov_rng, mix_rng, out_rng = _streams(config.seed)
    columns = {name: recipe.draw(cov_rng, config.n)
               for name, recipe in config.covariates.items()}
    law_columns = dict(columns)
    if config.influence is not None:  # the law takes the capped distance, the table the raw
        column, cap = config.influence
        law_columns[column] = np.minimum(columns[column], cap)
    placeholder = _labels(spec, np.zeros(config.n, dtype=np.int64))
    design = build_design(ObservationTable(law_columns, placeholder, spec.mode), spec)
    # the true parameters packed like a fit's: a zero scale's log is -inf,
    # and its coefficient is exactly the location; the draws take them as given
    natural = np.array([config.params[name] for name in design.param_names])
    theta = natural.copy()
    with np.errstate(divide="ignore"):
        theta[design.log_pos] = np.log(natural[design.log_pos])
    outcome = _draw(design, theta, natural, mix_rng, out_rng)
    return ObservationTable(columns, _labels(spec, outcome), spec.mode)


def gen_mnl(config: DgpConfig) -> ObservationTable:
    """Multinomial logit data at the true coefficients."""
    return _generate(config, "mnl")


def gen_mixed_mnl(config: DgpConfig) -> ObservationTable:
    """Mixed logit data, one mixing draw per row; zero scales take
    :func:`gen_mnl`'s streams and its law, to rounding."""
    return _generate(config, "mixed_mnl")


def gen_nb(config: DgpConfig) -> ObservationTable:
    """Negative binomial counts via the gamma-Poisson mixture."""
    return _generate(config, "nb")


def gen_mixed_nb(config: DgpConfig) -> ObservationTable:
    """Random-coefficient NB counts, one mixing draw per row; zero scales
    take :func:`gen_nb`'s streams and its means, to rounding."""
    return _generate(config, "mixed_nb")


def gen_influence(config: DgpConfig) -> ObservationTable:
    """Severity data whose true predictor caps the distance variable.

    The table keeps the raw distances; only the data-generating
    predictor uses min(distance, cap).
    """
    if config.influence is None:
        raise ValueError("config.influence must name the distance column and cap")
    return _generate(config, "mnl")


def generate(config: DgpConfig) -> ObservationTable:
    """Family-dispatching front end used by the CLI."""
    if config.influence is not None:
        return gen_influence(config)
    return _generate(config, config.spec.family)


def outcome_law(design: DesignMatrix, theta_internal: np.ndarray,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """The part of :func:`draw_outcomes` before the outcome draws, the whole
    ``Family.law``: the (N,) NB means or the (N, I) cumulative outcome
    probabilities at per-row coefficients whose mixing draws come from ``rng``
    (None for a design without random terms, which takes no draws)."""
    theta = np.asarray(theta_internal, dtype=np.float64)
    laws = REGISTRY[design.spec.family].law(theta, design, _mixing_draws(design, rng))
    return np.concatenate(list(laws))


def draw_outcomes(design: DesignMatrix, theta_internal: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Outcome indices (severity) or counts (frequency) for ``design``.

    ``theta_internal`` is the packed optimizer vector of a fit of the
    design's spec (scales and alpha as logs).  Mixing draws, then the
    family's outcome draws (:attr:`crashmle.families.Family.draw`: a
    count's gamma stage, then its Poisson draw) all come from ``rng``.
    """
    theta = np.asarray(theta_internal, dtype=np.float64)
    return _draw(design, theta, natural_from_internal(theta, design)[0], rng, rng)


def redraw_outcomes(spec: ModelSpec, theta_internal: np.ndarray,
                    table: ObservationTable,
                    rng: np.random.Generator) -> ObservationTable:
    """New outcomes for existing covariates at fitted parameters.

    Used to simulate the null in parametric bootstrap tests; the draws
    are those of :func:`draw_outcomes`.
    """
    outcome = draw_outcomes(build_design(table, spec), theta_internal, rng)
    return ObservationTable(dict(table.columns), _labels(spec, outcome), table.mode)
