"""Frozen outputs of a small seeded CLI pipeline over all four families.

The pipeline simulates severity, count and influence data, fits mnl,
mixed_mnl, nb and mixed_nb models, computes their effects, runs
asymptotic and Monte Carlo pooling tests and an influence grid search.
Every result JSON must match its golden copy in ``tests/golden/``: the
same structure, the same strings and flags, and every number within a
relative 1e-9.  Manifests carry timestamps and are not compared.  A
stored fit read by ``FitResult.from_dict`` writes its own bytes again.

A change that alters results on purpose regenerates the goldens with::

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.  Regeneration keeps every stored number that
still agrees with the fresh run within the tolerance, so rounding-level
drift does not re-anchor the fixture; it writes only the values that
moved beyond it and the keys or files added or removed, and prints each
file and path it changed.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from crashmle.cli import main
from crashmle.dataset import CONSTANT, ModelSpec, Term, build_design, load_csv
from crashmle.families import REGISTRY, natural_from_internal, summed
from crashmle.optimize import FitResult, OptimSettings, covariance, hessian_fd
from crashmle.serialize import dumps
from crashmle.simulate import CovariateRecipe, DgpConfig

GOLDEN = Path(__file__).with_name("golden")
RTOL = 1e-9

SEV_GEN = ModelSpec("mixed_mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("x1", ("a",), "random_normal"), Term("w", ("b",), "random_uniform"),
    Term("ind", ("a",))), ("a", "b", "base"), "base")
CNT_GEN = ModelSpec("mixed_nb", (
    Term(CONSTANT), Term("z1", (), "random_normal"), Term("z2")))
INF_GEN = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("d", ("a",))),
                    ("a", "b"), "b")

DGPS = {
    "sev": DgpConfig(
        SEV_GEN, {"constant[a]": 0.3, "constant[b]": -0.2, "x1[a]": 0.8,
                  "x1[a]:sd": 1.0, "w[b]": -0.6, "w[b]:spread": 0.9,
                  "ind[a]": 0.7},
        {"x1": CovariateRecipe("normal"),
         "w": CovariateRecipe("uniform", low=0.0, high=2.0),
         "ind": CovariateRecipe("bernoulli", p=0.4),
         "flag": CovariateRecipe("bernoulli", p=0.5)}, n=400, seed=5),
    "cnt": DgpConfig(
        CNT_GEN, {"constant": 1.0, "z1": 0.4, "z1:sd": 0.5, "z2": -0.3,
                  "alpha": 0.6},
        {"z1": CovariateRecipe("normal"),
         "z2": CovariateRecipe("uniform", low=-1.0, high=1.0),
         "flag": CovariateRecipe("bernoulli", p=0.5)}, n=300, seed=6),
    "inf": DgpConfig(
        INF_GEN, {"constant[a]": 0.8, "d[a]": -3.0},
        {"d": CovariateRecipe("uniform", low=0.0, high=2.0)},
        n=1500, seed=3, influence=("d", 0.5)),
}

SPECS = {
    "mnl": ModelSpec("mnl", tuple(Term(t.variable, t.outcomes)
                                  for t in SEV_GEN.terms),
                     SEV_GEN.outcomes, SEV_GEN.base_outcome),
    "mixed_mnl": SEV_GEN,
    "nb": ModelSpec("nb", tuple(Term(t.variable) for t in CNT_GEN.terms)),
    "mixed_nb": CNT_GEN,
    "inf": INF_GEN,
}

_DIST = {"random_normal": "normal", "random_uniform": "uniform"}


def spec_text(spec: ModelSpec) -> str:
    """The spec as an INI file for ``--spec``."""
    lines = ["[model]", f"family = {spec.family}"]
    if spec.is_severity:
        lines += [f"outcomes = {', '.join(spec.outcomes)}",
                  f"base = {spec.base_outcome}"]
    for t in spec.terms:
        lines += ["", "[term]", f"var = {t.variable}"]
        if t.outcomes:
            lines.append(f"outcomes = {', '.join(t.outcomes)}")
        if t.kind in _DIST:
            lines.append(f"dist = {_DIST[t.kind]}")
    return "\n".join(lines) + "\n"


def run_pipeline(root: Path) -> None:
    """Write every input under ``root`` and run the pipeline there."""
    root.mkdir(parents=True, exist_ok=True)
    p = lambda name: str(root / name)
    for name, cfg in DGPS.items():
        (root / f"{name}_dgp.json").write_text(dumps(cfg.to_dict()))
    for name, spec in SPECS.items():
        (root / f"{name}.ini").write_text(spec_text(spec))
    runs = [
        ["simulate", "--dgp", p("sev_dgp.json"), "--out", p("sev")],
        ["simulate", "--dgp", p("cnt_dgp.json"), "--out", p("cnt")],
        ["simulate", "--dgp", p("inf_dgp.json"), "--out", p("inf")],
        ["fit", "--data", p("sev.csv"), "--spec", p("mnl.ini"),
         "--out", p("fit_mnl")],
        ["fit", "--data", p("sev.csv"), "--spec", p("mixed_mnl.ini"),
         "--draws", "50", "--out", p("fit_mixed_mnl")],
        ["fit", "--data", p("cnt.csv"), "--spec", p("nb.ini"),
         "--out", p("fit_nb")],
        ["fit", "--data", p("cnt.csv"), "--spec", p("mixed_nb.ini"),
         "--draws", "50", "--out", p("fit_mixed_nb")],
        ["effects", "--fit", p("fit_mnl.json"), "--data", p("sev.csv"),
         "--type", "elasticity", "--vars", "x1,w", "--out", p("eff_mnl_elas")],
        ["effects", "--fit", p("fit_mnl.json"), "--data", p("sev.csv"),
         "--type", "pseudo", "--vars", "ind", "--out", p("eff_mnl_pseudo")],
        ["effects", "--fit", p("fit_mixed_mnl.json"), "--data", p("sev.csv"),
         "--type", "elasticity", "--vars", "x1,w",
         "--out", p("eff_mixed_mnl_elas")],
        ["effects", "--fit", p("fit_nb.json"), "--data", p("cnt.csv"),
         "--type", "marginal", "--out", p("eff_nb_marg")],
        ["effects", "--fit", p("fit_mixed_nb.json"), "--data", p("cnt.csv"),
         "--type", "marginal", "--out", p("eff_mixed_nb_marg")],
        ["lrtest", "--data", p("sev.csv"), "--spec", p("mnl.ini"),
         "--flag", "flag", "--out", p("lr_mnl")],
        ["lrtest", "--data", p("cnt.csv"), "--spec", p("nb.ini"),
         "--flag", "flag", "--mc", "40", "--seed", "3", "--out", p("lr_nb_mc")],
        ["lrtest", "--data", p("cnt.csv"), "--spec", p("mixed_nb.ini"),
         "--flag", "flag", "--draws", "50", "--out", p("lr_mixed_nb")],
        ["influence", "--data", p("inf.csv"), "--spec", p("inf.ini"),
         "--distance", "d", "--dmin", "0.3", "--dmax", "0.7", "--step", "0.1",
         "--out", p("prof")],
    ]
    for argv in runs:
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"crashmle {' '.join(argv)} exited {code}")


def result_files(root: Path) -> list[str]:
    """Result JSON names under ``root``: outputs, not inputs or manifests."""
    return sorted(f.name for f in root.glob("*.json")
                  if not f.name.endswith((".manifest.json", "_dgp.json")))


def mismatches(got, want, path="$"):
    """Paths at which ``got`` differs from ``want``."""
    if isinstance(want, float) and type(got) in (int, float):
        if not math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def merge(stored, fresh, path="$"):
    """``fresh`` with every value that agrees with ``stored`` (numbers to
    RTOL) kept as stored, and the paths that moved, were added or were
    removed; the result has no :func:`mismatches` against ``fresh``."""
    if isinstance(stored, float) and type(fresh) in (int, float):
        if math.isclose(fresh, stored, rel_tol=RTOL, abs_tol=0.0):
            return stored, []
        return fresh, [path]
    if isinstance(stored, dict) and isinstance(fresh, dict):
        out, changed = {}, [f"{path}.{k}" for k in stored if k not in fresh]
        for k, v in fresh.items():
            if k in stored:
                out[k], sub = merge(stored[k], v, f"{path}.{k}")
                changed += sub
            else:
                out[k] = v
                changed.append(f"{path}.{k}")
        return out, changed
    if isinstance(stored, list) and isinstance(fresh, list) and len(stored) == len(fresh):
        pairs = [merge(s, f, f"{path}[{i}]") for i, (s, f) in enumerate(zip(stored, fresh))]
        return [v for v, _ in pairs], [p for _, sub in pairs for p in sub]
    if type(stored) is type(fresh) and stored == fresh:
        return stored, []
    return fresh, [path]


def test_regeneration_keeps_the_stored_numbers_within_tolerance():
    stored = {"ll": -100.0, "se": [0.5, 0.25], "name": "mnl", "gone": 1}
    fresh = {"ll": -100.0 * (1.0 + 1e-12), "se": [0.5, 0.3], "name": "mnl",
             "new": 2.0}
    value, changed = merge(stored, fresh)
    assert value == {"ll": -100.0, "se": [0.5, 0.3], "name": "mnl", "new": 2.0}
    assert sorted(changed) == ["$.gone", "$.new", "$.se[1]"]
    assert mismatches(value, fresh) == []
    assert merge(fresh, fresh) == (fresh, [])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_run")
    run_pipeline(root)
    return root


def test_pipeline_writes_exactly_the_golden_files(outputs):
    assert result_files(outputs) == result_files(GOLDEN)


@pytest.mark.parametrize("name", result_files(GOLDEN))
def test_result_matches_golden(outputs, name):
    got = json.loads((outputs / name).read_text())
    want = json.loads((GOLDEN / name).read_text())
    assert mismatches(got, want) == []


@pytest.mark.parametrize("name", [n for n in result_files(GOLDEN) if n.startswith("fit_")])
def test_golden_fits_are_fixed_points_of_the_fit_record(name):
    """Reading a stored fit and writing it again gives its bytes."""
    text = (GOLDEN / name).read_text()
    assert FitResult.from_dict(json.loads(text)).to_json() == text


@pytest.mark.parametrize("name, data", [("fit_mnl", "sev"), ("fit_nb", "cnt")])
def test_golden_newton_fits_are_optima_with_analytic_covariance(outputs, name, data):
    """The stored plain fits pass the gradient test at their stored
    estimates, and their standard errors, taken from the kernels'
    analytic Hessians, agree with central differences of the gradient."""
    fit = FitResult.from_dict(json.loads((GOLDEN / f"{name}.json").read_text()))
    spec = fit.spec
    labels = spec.outcomes if spec.is_severity else None
    mode = "severity" if spec.is_severity else "frequency"
    table = load_csv(outputs / f"{data}.csv", mode, "outcome", labels)
    design = build_design(table, spec)
    objective = summed(REGISTRY[spec.family].kernel(design, None, None))
    ll, grad = objective(fit.theta_internal)
    assert ll == pytest.approx(fit.ll_converged, rel=1e-12)
    assert np.max(np.abs(grad)) / max(1.0, abs(ll)) <= OptimSettings().gradient_tolerance
    cov = covariance(hessian_fd(objective, fit.theta_internal))  # finite differences
    assert cov.method == "hessian"
    _, cov_nat = natural_from_internal(fit.theta_internal, design, cov.cov)
    np.testing.assert_allclose(fit.standard_errors, np.sqrt(np.diag(cov_nat)),
                               rtol=1e-5, atol=0.0)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        names = result_files(Path(tmp))
        for name in sorted(set(result_files(GOLDEN)) - set(names)):
            (GOLDEN / name).unlink()
            print(f"removed {GOLDEN / name}", file=sys.stderr)
        for name in names:
            target = GOLDEN / name
            fresh = json.loads((Path(tmp) / name).read_text())
            value, changed = (merge(json.loads(target.read_text()), fresh)
                              if target.exists() else (fresh, ["$"]))
            if changed:
                target.write_text(dumps(value))
                for path in changed:
                    print(f"wrote {target}: {path}", file=sys.stderr)
