"""End-to-end command-line workflows in a temporary directory."""

import json
import subprocess
import sys

import numpy as np
import pytest

from crashmle.cli import main
from crashmle.dataset import (CONSTANT, ModelSpec, ObservationTable, Term,
                              build_design, load_csv)
from crashmle.draws import DrawMatrix
from crashmle.mixed import mixed_effects
from crashmle.optimize import FitResult
from crashmle.serialize import dumps
from crashmle.simulate import CovariateRecipe, DgpConfig

MNL_SPEC_TEXT = """[model]
family = mnl
outcomes = a, b, base
base = base

[term]
var = constant
outcomes = a

[term]
var = x1
outcomes = a

[term]
var = flag
outcomes = a
"""

NB_SPEC_TEXT = """[model]
family = nb

[term]
var = constant

[term]
var = z1
"""

MIXED_SPEC_TEXT = """[model]
family = mixed_mnl
outcomes = a, b, base
base = base

[term]
var = constant
outcomes = a

[term]
var = x1
outcomes = a
dist = normal
"""


def write_dgp(path, config: DgpConfig):
    path.write_text(dumps(config.to_dict()))


def mnl_dgp(n=400, seed=0):
    spec = ModelSpec("mnl", (
        Term(CONSTANT, ("a",)), Term("x1", ("a",)), Term("flag", ("a",))),
        ("a", "b", "base"), "base")
    return DgpConfig(spec,
                     {"constant[a]": 0.4, "x1[a]": 0.8, "flag[a]": 0.5},
                     {"x1": CovariateRecipe("normal"),
                      "flag": CovariateRecipe("bernoulli", p=0.4)},
                     n=n, seed=seed)


def nb_dgp(n=300, seed=1):
    spec = ModelSpec("nb", (Term(CONSTANT), Term("z1")))
    return DgpConfig(spec, {"constant": 1.0, "z1": 0.4, "alpha": 0.8},
                     {"z1": CovariateRecipe("normal"),
                      "flag": CovariateRecipe("bernoulli", p=0.5)},
                     n=n, seed=seed)


@pytest.fixture()
def workdir(tmp_path):
    write_dgp(tmp_path / "mnl_dgp.json", mnl_dgp())
    write_dgp(tmp_path / "nb_dgp.json", nb_dgp())
    (tmp_path / "mnl.ini").write_text(MNL_SPEC_TEXT)
    (tmp_path / "nb.ini").write_text(NB_SPEC_TEXT)
    (tmp_path / "mixed.ini").write_text(MIXED_SPEC_TEXT)
    assert main(["simulate", "--dgp", str(tmp_path / "mnl_dgp.json"),
                 "--out", str(tmp_path / "mnl_data")]) == 0
    assert main(["simulate", "--dgp", str(tmp_path / "nb_dgp.json"),
                 "--out", str(tmp_path / "nb_data")]) == 0
    return tmp_path


def test_simulate_writes_csv_and_manifest(workdir):
    csv_path = workdir / "mnl_data.csv"
    assert csv_path.exists()
    # dumps() sorts keys, so the covariate columns come back in name order.
    header = csv_path.read_text().splitlines()[0]
    assert header == "flag,x1,outcome"
    manifest = json.loads((workdir / "mnl_data.manifest.json").read_text())
    assert manifest["seed"] == 0
    assert "created_utc" in manifest and manifest["version"]


def test_simulate_overrides_n_and_seed(workdir):
    assert main(["simulate", "--dgp", str(workdir / "mnl_dgp.json"),
                 "--out", str(workdir / "small"), "--n", "17", "--seed", "5"]) == 0
    lines = (workdir / "small.csv").read_text().strip().splitlines()
    assert len(lines) == 18
    manifest = json.loads((workdir / "small.manifest.json").read_text())
    assert manifest["seed"] == 5


def test_fit_effects_pipeline(workdir, capsys):
    assert main(["fit", "--data", str(workdir / "mnl_data.csv"),
                 "--spec", str(workdir / "mnl.ini"),
                 "--out", str(workdir / "fit")]) == 0
    out = capsys.readouterr().out
    assert "multinomial logit" in out and "McFadden rho-squared" in out

    fit = json.loads((workdir / "fit.json").read_text())
    assert fit["converged"] is True
    assert fit["param_names"] == ["constant[a]", "x1[a]", "flag[a]"]
    assert (workdir / "fit.txt").exists()
    assert (workdir / "fit.manifest.json").exists()

    assert main(["effects", "--fit", str(workdir / "fit.json"),
                 "--data", str(workdir / "mnl_data.csv"),
                 "--out", str(workdir / "elas"), "--type", "elasticity",
                 "--vars", "x1"]) == 0
    rows = json.loads((workdir / "elas.json").read_text())["rows"]
    assert {r["variable"] for r in rows} == {"x1"}
    assert (workdir / "elas.csv").read_text().startswith(
        "variable,target,outcome,kind,value,elastic")

    assert main(["effects", "--fit", str(workdir / "fit.json"),
                 "--data", str(workdir / "mnl_data.csv"),
                 "--out", str(workdir / "pseudo"), "--type", "pseudo",
                 "--vars", "flag"]) == 0
    rows = json.loads((workdir / "pseudo.json").read_text())["rows"]
    assert {r["variable"] for r in rows} == {"flag"}


def test_fit_json_is_byte_identical_across_reruns(workdir):
    args = ["fit", "--data", str(workdir / "mnl_data.csv"),
            "--spec", str(workdir / "mnl.ini")]
    assert main(args + ["--out", str(workdir / "r1")]) == 0
    assert main(args + ["--out", str(workdir / "r2")]) == 0
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()
    assert (workdir / "r1.txt").read_bytes() == (workdir / "r2.txt").read_bytes()


def test_mixed_fit_requires_draws(workdir):
    args = ["fit", "--data", str(workdir / "mnl_data.csv"),
            "--spec", str(workdir / "mixed.ini"),
            "--out", str(workdir / "mixedfit")]
    assert main(args) == 2  # --draws is mandatory for mixed families
    assert main(args + ["--draws", "25"]) == 0
    fit = json.loads((workdir / "mixedfit.json").read_text())
    assert "x1[a]:sd" in fit["param_names"]
    assert fit["n_draws"] == 25
    manifest = json.loads((workdir / "mixedfit.manifest.json").read_text())
    assert manifest["n_draws"] == 25


def test_effects_use_the_draws_the_fit_used(workdir):
    """Effects of a fit with non-default Halton draws are simulated with
    the same draws, as recorded in the fit file."""
    assert main(["fit", "--data", str(workdir / "mnl_data.csv"),
                 "--spec", str(workdir / "mixed.ini"), "--draws", "25",
                 "--skip", "500", "--out", str(workdir / "mixedfit")]) == 0
    fit_dict = json.loads((workdir / "mixedfit.json").read_text())
    assert fit_dict["skip"] == 500 and fit_dict["shift"] is False
    assert main(["effects", "--fit", str(workdir / "mixedfit.json"),
                 "--data", str(workdir / "mnl_data.csv"), "--type", "elasticity",
                 "--vars", "x1", "--out", str(workdir / "elas")]) == 0
    rows = json.loads((workdir / "elas.json").read_text())["rows"]

    fit = FitResult.from_dict(fit_dict)
    table = load_csv(workdir / "mnl_data.csv", "severity", "outcome",
                     fit.spec.outcomes)
    draws = DrawMatrix.for_design(build_design(table, fit.spec), 25, skip=500)
    want = mixed_effects(fit, table, ["x1"], draws=draws).rows
    assert [r["outcome"] for r in rows] == [r.outcome for r in want]
    np.testing.assert_allclose([r["value"] for r in rows],
                               [r.value for r in want], rtol=1e-12)


def test_marginal_effects_for_count_fit(workdir):
    assert main(["fit", "--data", str(workdir / "nb_data.csv"),
                 "--spec", str(workdir / "nb.ini"),
                 "--out", str(workdir / "nbfit")]) == 0
    assert main(["effects", "--fit", str(workdir / "nbfit.json"),
                 "--data", str(workdir / "nb_data.csv"),
                 "--out", str(workdir / "marg"), "--type", "marginal"]) == 0
    rows = json.loads((workdir / "marg.json").read_text())["rows"]
    assert rows[0]["kind"] == "marginal"
    # type mismatch is a usage error
    assert main(["effects", "--fit", str(workdir / "nbfit.json"),
                 "--data", str(workdir / "nb_data.csv"),
                 "--out", str(workdir / "bad"), "--type", "elasticity"]) == 2


def test_lrtest_asymptotic_and_mc(workdir, capsys):
    base = ["lrtest", "--data", str(workdir / "nb_data.csv"),
            "--spec", str(workdir / "nb.ini"), "--flag", "flag"]
    assert main(base + ["--out", str(workdir / "lr")]) == 0
    result = json.loads((workdir / "lr.json").read_text())
    assert result["dof"] == 3
    assert result["p_mc"] is None
    assert not (workdir / "lr.hist.csv").exists()

    assert main(base + ["--out", str(workdir / "lrmc"), "--mc", "30",
                        "--seed", "2"]) == 0
    result = json.loads((workdir / "lrmc.json").read_text())
    assert result["replicates_kept"] > 0
    assert sum(result["replicates_dropped_by_reason"].values()) == \
        result["replicates_dropped"]
    assert "refits by serial fallback" in capsys.readouterr().out
    assert 0.0 <= result["p_mc"] <= 1.0
    assert (workdir / "lrmc.hist.csv").exists()

    # reruns of a seeded Monte Carlo are byte-identical
    assert main(base + ["--out", str(workdir / "lrmc2"), "--mc", "30",
                        "--seed", "2"]) == 0
    assert (workdir / "lrmc.json").read_bytes() == \
        (workdir / "lrmc2.json").read_bytes()
    assert (workdir / "lrmc.hist.csv").read_bytes() == \
        (workdir / "lrmc2.hist.csv").read_bytes()


def test_influence_command(workdir):
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("d", ("a",))),
                     ("a", "b"), "b")
    cfg = DgpConfig(spec, {"constant[a]": 0.8, "d[a]": -3.0},
                    {"d": CovariateRecipe("uniform", low=0.0, high=2.0)},
                    n=2000, seed=3, influence=("d", 0.5))
    write_dgp(workdir / "inf_dgp.json", cfg)
    (workdir / "inf.ini").write_text(
        "[model]\nfamily = mnl\noutcomes = a, b\nbase = b\n"
        "[term]\nvar = constant\noutcomes = a\n"
        "[term]\nvar = d\noutcomes = a\n")
    assert main(["simulate", "--dgp", str(workdir / "inf_dgp.json"),
                 "--out", str(workdir / "inf_data")]) == 0
    assert main(["influence", "--data", str(workdir / "inf_data.csv"),
                 "--spec", str(workdir / "inf.ini"), "--distance", "d",
                 "--dmin", "0.3", "--dmax", "0.7", "--step", "0.1",
                 "--out", str(workdir / "prof")]) == 0
    prof = json.loads((workdir / "prof.json").read_text())
    assert abs(prof["d_star"] - 0.5) <= 0.1 + 1e-9
    lines = (workdir / "prof.csv").read_text().strip().splitlines()
    assert lines[0] == "D,ll,converged" and len(lines) == 6


def test_nonconverged_fit_exits_one(workdir):
    x = np.array([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])
    y = np.array(["a", "a", "a", "b", "b", "b"])
    table = ObservationTable({"x1": x, "flag": np.zeros(6)}, y, "severity")
    table.to_csv(workdir / "sep.csv")
    (workdir / "sep.ini").write_text(
        "[model]\nfamily = mnl\noutcomes = a, b\nbase = a\n"
        "[term]\nvar = constant\noutcomes = b\n"
        "[term]\nvar = x1\noutcomes = b\n")
    assert main(["fit", "--data", str(workdir / "sep.csv"),
                 "--spec", str(workdir / "sep.ini"),
                 "--out", str(workdir / "sepfit")]) == 1
    fit = json.loads((workdir / "sepfit.json").read_text())
    assert fit["converged"] is False


def test_errors_exit_two(workdir, capsys):
    assert main(["fit", "--data", str(workdir / "missing.csv"),
                 "--spec", str(workdir / "mnl.ini"),
                 "--out", str(workdir / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    (workdir / "broken.ini").write_text("[model]\nfamily = sparrow\n")
    assert main(["fit", "--data", str(workdir / "mnl_data.csv"),
                 "--spec", str(workdir / "broken.ini"),
                 "--out", str(workdir / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_argparse_rejects_missing_required_options():
    with pytest.raises(SystemExit):
        main(["fit", "--data", "x.csv"])
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "crashmle", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "crashmle" in proc.stdout
