"""Grid search for the influence distance of a point feature.

A feature located somewhere along a road is assumed to affect accident
severity only within an unknown distance D of itself.  The model enters
the feature through the capped variable min(d, D), where d is each
accident's distance to the feature.  The search fits the severity model
over a grid of caps and picks the one with the highest log-likelihood;
the feature's influence segment is then 2 * D_star (both directions).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import serialize
from .dataset import ModelSpec, ObservationTable, build_design
from .families import REGISTRY, maximize_rows
from .optimize import OptimSettings

MAX_GRID_POINTS = 10_000  # most caps in a grid; a larger one is refused unbuilt
TIE_TOL = 1e-6  # log-likelihoods this close are tied


def influence_variable(d, cap: float) -> np.ndarray:
    """Capped distance min(d, cap) used as the model covariate."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    return np.minimum(d, cap)


@dataclass
class InfluenceProfile:
    """Log-likelihood profile over candidate influence distances."""

    distance_column: str
    grid: np.ndarray
    ll: np.ndarray
    converged: np.ndarray
    d_star: float
    segment_length: float
    flat: bool

    def to_dict(self) -> dict:
        return serialize.sanitize(asdict(self))

    def to_csv(self, path) -> None:
        """Profile rows as D,ll,converged."""
        serialize.write_csv(path, {"D": self.grid, "ll": self.ll, "converged": self.converged})


def search_influence(table: ObservationTable, spec: ModelSpec,
                     distance_column: str, d_min: float, d_max: float,
                     step: float,
                     settings: OptimSettings | None = None) -> InfluenceProfile:
    """Profile the severity log-likelihood over candidate caps.

    Parameters
    ----------
    table, spec : data and multinomial logit model
        ``distance_column`` must appear in the spec; at every grid
        point its values are replaced by min(d, D) before fitting.
    d_min, d_max, step : floats
        Inclusive grid ``d_min, d_min + step, ...`` up to ``d_max``, all
        finite, of at most ``MAX_GRID_POINTS`` caps.

    Every cap is fitted from a zero start by
    :func:`crashmle.families.maximize_rows`.  Once the cap exceeds the
    largest observed distance the capped variable stops changing, so the
    fit and the log-likelihood are bitwise identical from cap to cap.  A
    cap not finite at its start comes back not converged with a NaN
    log-likelihood, a separated fit not converged, as in
    :func:`crashmle.families.fit`; no cap that did not converge is chosen.
    Log-likelihood ties within ``TIE_TOL`` resolve to the smallest cap; a
    profile whose total range is below it is reported flat with a warning.
    """
    if spec.family != "mnl":
        raise ValueError("influence search expects a plain mnl spec")
    if distance_column not in table.columns:
        raise ValueError(f"distance column {distance_column!r} not in table")
    if not any(t.variable == distance_column for t in spec.terms):
        raise ValueError(f"spec has no term on {distance_column!r}")
    for name, value in (("d_min", d_min), ("d_max", d_max), ("step", step)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if d_min <= 0 or step <= 0 or d_max < d_min:
        raise ValueError("need 0 < d_min <= d_max and step > 0")
    span = (d_max - d_min) / step + 1e-9  # inf if the quotient overflows
    if span >= MAX_GRID_POINTS:
        raise ValueError(f"more than {MAX_GRID_POINTS} caps from {d_min} to {d_max} by {step}")

    grid = d_min + step * np.arange(int(span) + 1)
    raw = table.columns[distance_column]

    family = REGISTRY["mnl"]
    lls = np.full(len(grid), np.nan)
    converged = np.zeros(len(grid), dtype=bool)
    for k, cap in enumerate(grid):
        columns = dict(table.columns)
        columns[distance_column] = influence_variable(raw, float(cap))
        design = build_design(ObservationTable(columns, table.outcome, table.mode),
                              spec)
        res = maximize_rows(family, design, None, np.zeros((1, design.n_params)),
                            settings=settings)
        lls[k], converged[k] = res.ll[0], res.converged[0]

    if not converged.any():
        raise RuntimeError("no grid point converged; profile is unusable")
    ok = np.where(converged)[0]
    ll_max = lls[ok].max()
    best = ok[lls[ok] >= ll_max - TIE_TOL]
    d_star = float(grid[best[0]])
    flat = bool(lls[ok].max() - lls[ok].min() < TIE_TOL)
    if flat:
        warnings.warn("log-likelihood profile is flat over the whole grid; "
                      "the influence distance is not identified", RuntimeWarning)
    return InfluenceProfile(distance_column, grid, lls, converged,
                            d_star, 2.0 * d_star, flat)
