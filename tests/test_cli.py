"""End-to-end command-line workflows in a temporary directory."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crashmle
from crashmle import lrtest
from crashmle.cli import main
from crashmle.dataset import (CONSTANT, ModelSpec, ObservationTable, Term, load_csv,
                              load_spec)
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


def test_a_manifest_records_the_arguments_main_parsed(workdir, monkeypatch):
    # main called in-process, under another program's command line
    monkeypatch.setattr(sys, "argv", ["host_program.py", "--workload", "cli_pipeline"])
    argv = ["fit", "--data", str(workdir / "nb_data.csv"), "--spec", str(workdir / "nb.ini"),
            "--out", str(workdir / "nbfit")]
    assert main(argv) == 0
    assert json.loads((workdir / "nbfit.manifest.json").read_text())["command"] == argv


def test_a_plain_run_records_no_draws(workdir):
    # --draws is ignored by a plain family, and so is left out of its record
    common = ["--data", str(workdir / "nb_data.csv"), "--spec", str(workdir / "nb.ini"),
              "--draws", "50"]
    assert main(["fit", *common, "--out", str(workdir / "nbfit")]) == 0
    assert main(["lrtest", *common, "--flag", "flag", "--out", str(workdir / "nblr")]) == 0
    assert json.loads((workdir / "nbfit.json").read_text())["n_draws"] is None
    for out in ("nbfit", "nblr"):
        assert json.loads((workdir / f"{out}.manifest.json").read_text())["n_draws"] is None


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


def test_inputs_with_a_utf8_byte_order_mark_read_as_without(workdir):
    """Spreadsheet tools often start a file with a byte-order mark."""
    (workdir / "settings.json").write_text('{"max_iterations": 150}')
    for name in ("mnl_data.csv", "mnl.ini", "settings.json", "mnl_dgp.json"):
        (workdir / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + (workdir / name).read_bytes())
    for prefix in ("", "bom_"):
        assert main(["fit", "--data", str(workdir / f"{prefix}mnl_data.csv"),
                     "--spec", str(workdir / f"{prefix}mnl.ini"),
                     "--settings", str(workdir / f"{prefix}settings.json"),
                     "--out", str(workdir / f"{prefix}fit")]) == 0
        assert main(["simulate", "--dgp", str(workdir / f"{prefix}mnl_dgp.json"),
                     "--out", str(workdir / f"{prefix}sim")]) == 0
    assert load_spec(workdir / "bom_mnl.ini") == load_spec(workdir / "mnl.ini")
    want, got = (load_csv(workdir / f"{prefix}mnl_data.csv", "severity", "outcome")
                 for prefix in ("", "bom_"))
    assert list(got.columns) == list(want.columns) == ["flag", "x1"]
    assert all(np.array_equal(got.columns[k], want.columns[k]) for k in want.columns)
    assert np.array_equal(got.outcome, want.outcome)
    assert (workdir / "bom_fit.json").read_bytes() == (workdir / "fit.json").read_bytes()
    assert (workdir / "bom_sim.csv").read_bytes() == (workdir / "sim.csv").read_bytes()
    (workdir / "bom_fit.json").write_bytes(b"\xef\xbb\xbf" + (workdir / "fit.json").read_bytes())
    assert main(["effects", "--fit", str(workdir / "bom_fit.json"),
                 "--data", str(workdir / "bom_mnl_data.csv"), "--type", "elasticity",
                 "--vars", "x1", "--out", str(workdir / "bom_elas")]) == 0


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


def test_mixed_lrtest_requires_draws(workdir, capsys):
    args = ["lrtest", "--data", str(workdir / "mnl_data.csv"),
            "--spec", str(workdir / "mixed.ini"), "--flag", "flag",
            "--out", str(workdir / "mixedlr")]
    assert main(args) == 2  # no hidden default draw count
    assert "error: mixed families require --draws" in capsys.readouterr().err
    assert not (workdir / "mixedlr.json").exists()
    assert main(args + ["--draws", "25"]) == 0
    manifest = json.loads((workdir / "mixedlr.manifest.json").read_text())
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
    want = mixed_effects(fit, table, ["x1"]).rows
    assert [r["outcome"] for r in rows] == [r.outcome for r in want]
    np.testing.assert_allclose([r["value"] for r in rows],
                               [r.value for r in want], rtol=1e-12)
    # the recorded burn-in reaches the effects: the default one gives others
    default = mixed_effects(replace(fit, skip=10), table, ["x1"]).rows
    assert [r.value for r in default] != [r.value for r in want]


def test_mixed_pseudo_effects_command(workdir):
    """``effects --type pseudo`` on a mixed logit fit with an indicator
    term gives mixed_effects' pseudo-elasticities."""
    (workdir / "mixed_flag.ini").write_text(MIXED_SPEC_TEXT + "\n[term]\nvar = flag\n"
                                            "outcomes = a\n")
    assert main(["fit", "--data", str(workdir / "mnl_data.csv"),
                 "--spec", str(workdir / "mixed_flag.ini"), "--draws", "25",
                 "--out", str(workdir / "mixedflag")]) == 0
    assert main(["effects", "--fit", str(workdir / "mixedflag.json"),
                 "--data", str(workdir / "mnl_data.csv"), "--type", "pseudo",
                 "--vars", "flag", "--out", str(workdir / "pseudo")]) == 0
    report = json.loads((workdir / "pseudo.json").read_text())

    fit = FitResult.from_dict(json.loads((workdir / "mixedflag.json").read_text()))
    table = load_csv(workdir / "mnl_data.csv", "severity", "outcome", fit.spec.outcomes)
    want = mixed_effects(fit, table, ["flag"], pseudo=True)
    assert report["effect_type"] == want.effect_type == "pseudo_elasticity"
    assert [(r["variable"], r["outcome"]) for r in report["rows"]] == [
        (r.variable, r.outcome) for r in want.rows]
    np.testing.assert_allclose([r["value"] for r in report["rows"]],
                               [r.value for r in want.rows], rtol=1e-12)


def test_effects_refuses_a_fit_file_without_a_spec(workdir, capsys):
    assert main(["fit", "--data", str(workdir / "mnl_data.csv"),
                 "--spec", str(workdir / "mnl.ini"), "--out", str(workdir / "fit")]) == 0
    fit = json.loads((workdir / "fit.json").read_text())
    (workdir / "nospec.json").write_text(dumps({**fit, "spec": None}))
    capsys.readouterr()
    assert main(["effects", "--fit", str(workdir / "nospec.json"),
                 "--data", str(workdir / "mnl_data.csv"), "--type", "elasticity",
                 "--out", str(workdir / "eff")]) == 2
    assert capsys.readouterr().err == "error: fit file carries no model spec\n"
    assert not (workdir / "eff.json").exists()


def test_fit_notes_the_rows_it_dropped(workdir, capsys):
    header, first, *rest = (workdir / "mnl_data.csv").read_text().splitlines()
    (workdir / "gap.csv").write_text("\n".join([header, "," + first.split(",", 1)[1],
                                                 *rest]) + "\n")
    capsys.readouterr()
    assert main(["fit", "--data", str(workdir / "gap.csv"),
                 "--spec", str(workdir / "mnl.ini"), "--out", str(workdir / "gapfit")]) == 0
    assert capsys.readouterr().out.startswith("note: dropped 1 rows with missing fields\n")
    assert json.loads((workdir / "gapfit.json").read_text())["n_obs"] == len(rest)


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
    assert "replicates kept" in capsys.readouterr().out
    assert 0.0 <= result["p_mc"] <= 1.0
    assert (workdir / "lrmc.hist.csv").exists()

    # reruns of a seeded Monte Carlo are byte-identical
    assert main(base + ["--out", str(workdir / "lrmc2"), "--mc", "30",
                        "--seed", "2"]) == 0
    assert (workdir / "lrmc.json").read_bytes() == \
        (workdir / "lrmc2.json").read_bytes()
    assert (workdir / "lrmc.hist.csv").read_bytes() == \
        (workdir / "lrmc2.hist.csv").read_bytes()


def test_lrtest_rejects_a_replicate_count_below_one(workdir, capsys):
    # --mc 0 used to run the asymptotic test alone and exit 0
    for replicates in ("0", "-3"):
        assert main(["lrtest", "--data", str(workdir / "nb_data.csv"),
                     "--spec", str(workdir / "nb.ini"), "--flag", "flag",
                     "--mc", replicates, "--out", str(workdir / "lr0")]) == 2
        assert "error: replicates must be positive" in capsys.readouterr().err
        assert not (workdir / "lr0.json").exists()


@pytest.mark.parametrize("option, message", [
    (["--bins", "-1"], "bins must be positive"), (["--bins", "0"], "bins must be positive"),
    (["--seed", "-1"], "seed must be non-negative")], ids=["bins_negative", "bins_zero",
                                                           "seed_negative"])
def test_lrtest_refuses_bad_bins_or_seed_before_fitting(workdir, capsys, monkeypatch,
                                                        option, message):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted")
    monkeypatch.setattr(lrtest, "maximize_rows", no_fit)
    capsys.readouterr()
    assert main(["lrtest", "--data", str(workdir / "nb_data.csv"),
                 "--spec", str(workdir / "nb.ini"), "--flag", "flag", "--mc", "30",
                 *option, "--out", str(workdir / "lr0")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "lr0.json").exists()


def influence_args(workdir, n):
    """Data and spec of a feature whose influence ends at d = 0.5: the
    ``influence`` options that name them."""
    spec = ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("d", ("a",))),
                     ("a", "b"), "b")
    cfg = DgpConfig(spec, {"constant[a]": 0.8, "d[a]": -3.0},
                    {"d": CovariateRecipe("uniform", low=0.0, high=2.0)},
                    n=n, seed=3, influence=("d", 0.5))
    write_dgp(workdir / "inf_dgp.json", cfg)
    (workdir / "inf.ini").write_text(
        "[model]\nfamily = mnl\noutcomes = a, b\nbase = b\n"
        "[term]\nvar = constant\noutcomes = a\n"
        "[term]\nvar = d\noutcomes = a\n")
    assert main(["simulate", "--dgp", str(workdir / "inf_dgp.json"),
                 "--out", str(workdir / "inf_data")]) == 0
    return ["influence", "--data", str(workdir / "inf_data.csv"),
            "--spec", str(workdir / "inf.ini"), "--distance", "d",
            "--out", str(workdir / "prof")]


def test_influence_command(workdir):
    assert main(influence_args(workdir, 2000)
                + ["--dmin", "0.3", "--dmax", "0.7", "--step", "0.1"]) == 0
    prof = json.loads((workdir / "prof.json").read_text())
    assert abs(prof["d_star"] - 0.5) <= 0.1 + 1e-9
    lines = (workdir / "prof.csv").read_text().strip().splitlines()
    assert lines[0] == "D,ll,converged" and len(lines) == 6


def test_influence_command_reports_a_flat_profile(workdir, capsys):
    """Every cap above the largest distance leaves the covariate as it is,
    so the profile is flat."""
    argv = influence_args(workdir, 200) + ["--dmin", "3", "--dmax", "4", "--step", "0.5"]
    capsys.readouterr()
    with pytest.warns(RuntimeWarning, match="profile is flat"):
        assert main(argv) == 0
    assert "  WARNING: profile is flat; distance not identified\n" in capsys.readouterr().out
    assert json.loads((workdir / "prof.json").read_text())["flat"] is True


@pytest.mark.parametrize("flag, value, message", [
    ("--dmax", "inf", "d_max must be finite, got inf"),
    ("--dmin", "nan", "d_min must be finite, got nan"),
    ("--dmax", "nan", "d_max must be finite, got nan"),
    ("--step", "nan", "step must be finite, got nan"),
    ("--step", "inf", "step must be finite, got inf"),
    # 6.5e11 caps: refused before the grid is built
    ("--step", "1e-12", "more than 10000 caps from 0.25 to 0.9 by 1e-12"),
])
def test_influence_rejects_a_grid_it_cannot_build(workdir, capsys, flag, value, message):
    grid = {"--dmin": "0.25", "--dmax": "0.9", "--step": "0.05", flag: value}
    argv = influence_args(workdir, 200) + [v for item in grid.items() for v in item]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "prof.json").exists()


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


def test_lrtest_split_on_a_model_term_exits_one(workdir):
    # flag is also a term: on subset A it repeats the constant, which makes
    # that fit's Hessian exactly singular, and on subset B it is zero
    with pytest.warns(RuntimeWarning, match=r"subset_b fit did not converge: not "
                      r"maximized: term flag\[a\] is zero on every row"):
        assert main(["lrtest", "--data", str(workdir / "mnl_data.csv"),
                     "--spec", str(workdir / "mnl.ini"), "--flag", "flag",
                     "--out", str(workdir / "lr")]) == 1
    result = json.loads((workdir / "lr.json").read_text())
    assert result["subset_a"]["converged"] and not result["subset_b"]["converged"]


def test_fit_of_a_count_of_a_trillion_writes_its_result(workdir):
    lines = (workdir / "nb_data.csv").read_text().splitlines()
    lines[8] = lines[8].rsplit(",", 1)[0] + ",1000000000000"  # the count is the last column
    (workdir / "huge.csv").write_text("\n".join(lines) + "\n")
    assert main(["fit", "--data", str(workdir / "huge.csv"),
                 "--spec", str(workdir / "nb.ini"),
                 "--out", str(workdir / "hugefit")]) in (0, 1)
    fit = json.loads((workdir / "hugefit.json").read_text())
    assert np.isfinite(fit["ll_converged"])


MIXED_NB_SPEC_TEXT = NB_SPEC_TEXT.replace("family = nb", "family = mixed_nb") + "dist = normal\n"


@pytest.mark.parametrize("rows", ["", "1,0.5,,a\n"], ids=["header_only", "all_dropped"])
@pytest.mark.parametrize("family", ["mnl", "mixed_mnl", "nb", "mixed_nb"])
def test_a_table_without_rows_is_refused_for_every_family(workdir, capsys, family, rows):
    spec = {"mnl": MNL_SPEC_TEXT, "mixed_mnl": MIXED_SPEC_TEXT, "nb": NB_SPEC_TEXT,
            "mixed_nb": MIXED_NB_SPEC_TEXT}[family]
    (workdir / "spec.ini").write_text(spec)
    (workdir / "empty.csv").write_text("flag,x1,z1,outcome\n" + rows)
    draws = ["--draws", "25"] if family.startswith("mixed") else []
    capsys.readouterr()
    assert main(["fit", "--data", str(workdir / "empty.csv"), "--spec",
                 str(workdir / "spec.ini"), "--out", str(workdir / "empty_fit")] + draws) == 2
    assert capsys.readouterr().err == "error: the table has no rows\n"
    assert not (workdir / "empty_fit.json").exists()


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


def test_simulate_rejects_an_unknown_term_dist(workdir, capsys):
    d = mnl_dgp().to_dict()
    d["spec"]["terms"][1]["dist"] = "gamma"
    (workdir / "bad_dgp.json").write_text(dumps(d))
    assert main(["simulate", "--dgp", str(workdir / "bad_dgp.json"),
                 "--out", str(workdir / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'gamma'" in err


@pytest.mark.parametrize("mistype, key", [
    (lambda d: d["spec"]["terms"][1].update(distribution="normal"), "distribution"),
    (lambda d: d.update(sed=7), "sed"),
], ids=["term_key", "config_key"])
def test_simulate_names_an_unknown_dgp_key(workdir, capsys, mistype, key):
    # a mistyped key must not fall back to its default (x1 fixed, seed 0)
    d = mnl_dgp().to_dict()
    mistype(d)
    (workdir / "bad_dgp.json").write_text(dumps(d))
    assert main(["simulate", "--dgp", str(workdir / "bad_dgp.json"),
                 "--out", str(workdir / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown keys") and f"'{key}'" in err
    assert not (workdir / "x.csv").exists()


def test_simulate_names_a_missing_dgp_key(workdir, capsys):
    d = mnl_dgp().to_dict()
    del d["n"]
    (workdir / "bad_dgp.json").write_text(dumps(d))
    assert main(["simulate", "--dgp", str(workdir / "bad_dgp.json"),
                 "--out", str(workdir / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'n'" in err


def test_simulate_refuses_an_influence_cap_on_a_column_no_term_uses(workdir, capsys):
    # the cap would change nothing: the table would be the uncapped DGP's
    d = mnl_dgp().to_dict()
    d["covariates"]["d"] = {"kind": "uniform", "low": 0.0, "high": 2.0}
    d["influence"] = {"distance": "d", "cap": 0.5}
    (workdir / "inf_dgp.json").write_text(dumps(d))
    assert main(["simulate", "--dgp", str(workdir / "inf_dgp.json"),
                 "--out", str(workdir / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: spec has no term on 'd'")
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("where", ["flag", "dgp_file"])
def test_simulate_names_a_negative_seed(workdir, capsys, where):
    d = mnl_dgp().to_dict()
    extra = []
    if where == "flag":
        extra = ["--seed", "-1"]
    else:
        d["seed"] = -1
    (workdir / "seed_dgp.json").write_text(dumps(d))
    assert main(["simulate", "--dgp", str(workdir / "seed_dgp.json"),
                 "--out", str(workdir / "x"), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dgp seed" in err and "-1" in err
    assert not (workdir / "x.csv").exists()


def _params_as_list(d):
    d["params"] = [1, 2]
    return d


def _covariates_as_list(d):
    d["covariates"] = []
    return d


def _recipe_as_number(d):
    d["covariates"]["x1"] = 5
    return d


def _config_as_list(d):
    return list(d)


def _spec_as_family_name(d):
    d["spec"] = "nb"
    return d


def _setting(path, value):
    """A dgp mistype that sets the entry the keys ``path`` lead to."""
    def mistype(d):
        inner = d
        for name in path[:-1]:
            inner = inner[name]
        inner[path[-1]] = value
        return d
    return mistype


@pytest.mark.parametrize("mistype, extra, message", [
    (_params_as_list, [], "dgp params must be a JSON object"),
    (_covariates_as_list, [], "dgp covariates must be a JSON object"),
    (_recipe_as_number, [], "covariate recipe must be a JSON object"),
    (_config_as_list, ["--n", "5"], "dgp config must be a JSON object"),
    (_spec_as_family_name, [], "model spec must be a JSON object"),
    (_setting(("params", "x1[a]"), None), [],
     "dgp param 'x1[a]' must be a finite number, got null"),
    (_setting(("params", "x1[a]"), [1, 2]), [],
     "dgp param 'x1[a]' must be a finite number, got [1, 2]"),
    (_setting(("params", "x1[a]"), True), [],
     "dgp param 'x1[a]' must be a finite number, got true"),
    (_setting(("params", "x1[a]"), float("nan")), [],
     "dgp param 'x1[a]' must be a finite number, got NaN"),
    (_setting(("n",), None), [], "dgp n must be an integer, got null"),
    (_setting(("seed",), [1]), [], "dgp seed must be an integer, got [1]"),
    (_setting(("influence",), {"distance": "x1", "cap": None}), [],
     "dgp influence cap must be a finite number, got null"),
    (_setting(("covariates", "x1", "sd"), None), [],
     "covariate recipe 'sd' must be a finite number, got null"),
    (_setting(("covariates", "x1", "kind"), ["normal"]), [],
     "recipe kind must be one of ('normal', 'uniform', 'bernoulli', 'constant'), "
     "got ['normal']"),
    (_setting(("spec", "terms"), None), [],
     "model spec terms must be a JSON array, got null"),
    (_setting(("spec", "outcomes"), None), [],
     "model spec outcomes must be a JSON array, got null"),
    (_setting(("spec", "terms", 1, "outcomes"), None), [],
     "term 'x1' outcomes must be a JSON array, got null"),
    (_setting(("spec", "terms", 1, "dist"), ["normal"]), [],
     'term \'x1\' dist must be a string, got ["normal"]'),
    (_setting(("spec", "terms", 1, "dist"), {}), [],
     "term 'x1' dist must be a string, got {}"),
    (_setting(("spec", "terms", 1, "var"), ["x1"]), [],
     'model spec term var must be a string, got ["x1"]'),
    (_setting(("spec", "outcomes", 0), ["a"]), [],
     'model spec outcome must be a string, got ["a"]'),
    (_setting(("spec", "terms", 1, "outcomes", 0), ["a"]), [],
     'term \'x1\' outcome must be a string, got ["a"]'),
], ids=["params_list", "covariates_list", "recipe_number", "config_list_with_n",
        "spec_string", "param_null", "param_list", "param_bool", "param_nan", "n_null",
        "seed_list", "influence_cap_null", "recipe_value_null", "recipe_kind_list",
        "spec_terms_null", "spec_outcomes_null", "term_outcomes_null", "term_dist_list",
        "term_dist_object", "term_var_list", "spec_outcome_list", "term_outcome_list"])
def test_simulate_names_a_mistyped_dgp_value(workdir, capsys, mistype, extra, message):
    (workdir / "bad_dgp.json").write_text(json.dumps(mistype(mnl_dgp().to_dict())))
    assert main(["simulate", "--dgp", str(workdir / "bad_dgp.json"),
                 "--out", str(workdir / "x"), *extra]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_effects_names_a_missing_fit_key(workdir, capsys):
    assert main(["fit", "--data", str(workdir / "mnl_data.csv"),
                 "--spec", str(workdir / "mnl.ini"),
                 "--out", str(workdir / "fit")]) == 0
    d = json.loads((workdir / "fit.json").read_text())
    del d["theta_hat"]
    (workdir / "bad_fit.json").write_text(dumps(d))
    capsys.readouterr()
    assert main(["effects", "--fit", str(workdir / "bad_fit.json"),
                 "--data", str(workdir / "mnl_data.csv"), "--type", "elasticity",
                 "--out", str(workdir / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'theta_hat'" in err


@pytest.fixture(scope="module")
def mixed_fit(tmp_path_factory):
    """A directory holding mnl_data.csv, and the dict of a mixed fit to it."""
    root = tmp_path_factory.mktemp("mixed_fit")
    write_dgp(root / "mnl_dgp.json", mnl_dgp())
    (root / "mixed.ini").write_text(MIXED_SPEC_TEXT)
    assert main(["simulate", "--dgp", str(root / "mnl_dgp.json"),
                 "--out", str(root / "mnl_data")]) == 0
    assert main(["fit", "--data", str(root / "mnl_data.csv"),
                 "--spec", str(root / "mixed.ini"), "--draws", "25",
                 "--out", str(root / "fit")]) == 0
    return root, json.loads((root / "fit.json").read_text())


@pytest.mark.parametrize("key, value, message", [
    ("theta_internal", 5, "fit theta_internal must be a JSON array, got 5"),
    ("theta_internal", [0.5], "fit theta_internal has 1 values for 3 parameters"),
    ("param_names", 3, "fit param_names must be a JSON array, got 3"),
    ("param_names", ["x1[a]", "x1[a]:sd", "constant[a]"],
     "fit param_names ['x1[a]', 'x1[a]:sd', 'constant[a]'] are not the spec's "
     "['constant[a]', 'x1[a]', 'x1[a]:sd']"),
    ("n_draws", "30", 'fit n_draws must be an integer, got "30"'),
    ("n_draws", 30.0, "fit n_draws must be an integer, got 30.0"),
    ("skip", "10", 'fit skip must be an integer, got "10"'),
    ("converged", "yes", 'fit converged must be a boolean, got "yes"'),
    ("converged", None, "fit converged must be a boolean, got null"),
    ("se_method", 5, "fit se_method must be a string, got 5"),
    ("se_method", "opg", "fit se_method must be hessian, bhhh or undefined, got 'opg'"),
    ("message", [1], "fit message must be a string, got [1]"),
    ("shift", "false", 'fit shift must be a boolean, got "false"'),
    ("family", "mnl", "fit family 'mnl' is not its spec's family 'mixed_mnl'"),
    ("family", "logit",
     "fit family must be one of ('mnl', 'mixed_mnl', 'nb', 'mixed_nb'), got 'logit'"),
], ids=["theta_number", "theta_short", "names_number", "names_reordered",
        "draws_string", "draws_float", "skip_string", "converged_string",
        "converged_null", "se_method_number", "se_method_unknown", "message_list",
        "shift_string", "family_other", "family_unknown"])
def test_effects_names_a_mistyped_fit_value(mixed_fit, capsys, key, value, message):
    root, d = mixed_fit
    (root / "bad_fit.json").write_text(dumps({**d, key: value}))
    capsys.readouterr()
    assert main(["effects", "--fit", str(root / "bad_fit.json"),
                 "--data", str(root / "mnl_data.csv"), "--type", "elasticity",
                 "--out", str(root / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("settings, message", [
    ({"max_iterations": "5"}, 'optimizer setting max_iterations must be an integer, got "5"'),
    ({"gradient_tolerance": "1e-6"},
     'optimizer setting gradient_tolerance must be a finite number, got "1e-6"'),
    ({"max_iterations": 5.5}, "optimizer setting max_iterations must be an integer, got 5.5"),
    ({"max_iterations": None}, "optimizer setting max_iterations must be an integer, got null"),
    ({"max_iterations": True}, "optimizer setting max_iterations must be an integer, got true"),
    ({"step_tolerance": float("nan")},
     "optimizer setting step_tolerance must be a finite number, got NaN"),
    ([1, 2], "optimizer settings must be a JSON object"),
    ({"hessian_fd_step": 1e308}, "unknown optimizer settings ['hessian_fd_step']"),
], ids=["iterations_string", "tolerance_string", "iterations_float", "iterations_null",
        "iterations_bool", "step_nan", "list", "retired_fd_step"])
def test_fit_names_a_mistyped_setting(mixed_fit, capsys, settings, message):
    root, _ = mixed_fit
    (root / "bad_settings.json").write_text(json.dumps(settings))
    capsys.readouterr()
    assert main(["fit", "--data", str(root / "mnl_data.csv"),
                 "--spec", str(root / "mixed.ini"), "--draws", "25",
                 "--settings", str(root / "bad_settings.json"),
                 "--out", str(root / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_argparse_rejects_missing_required_options():
    with pytest.raises(SystemExit):
        main(["fit", "--data", "x.csv"])
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_module_entry_point_runs():
    # the package the tests import, whether or not it is installed
    src = str(Path(crashmle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    for module in ("crashmle", "crashmle.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "--version"],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, f"crashmle {crashmle.VERSION}\n"), module


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_a_command_hands_freed_heap_memory_back(tmp_path):
    """An 8 MiB array freed after a 16 MiB one stays resident in glibc's
    heap, whose mmap threshold the 16 MiB one raised; the next command
    returns it to the system when it ends."""
    code = """if True:
        import os
        import numpy as np
        from crashmle.cli import main
        def rss():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        a = np.ones(2 << 20); del a
        before = rss()
        b = np.ones(1 << 20); del b
        assert main(["simulate", "--dgp", "missing.json", "--out", "x"]) == 2
        print(rss() - before)
    """
    src = str(Path(crashmle.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=env, check=True)
    assert int(proc.stdout) < 1 << 20


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """Small inputs for every subcommand: the files and, for each command,
    its argv, its numeric flags and the JSON input it reads (or None)."""
    root = tmp_path_factory.mktemp("small_inputs")
    write_dgp(root / "mnl_dgp.json", mnl_dgp(n=120))
    write_dgp(root / "nb_dgp.json", nb_dgp(n=120))
    (root / "mnl.ini").write_text(MNL_SPEC_TEXT)
    (root / "nb.ini").write_text(NB_SPEC_TEXT)
    (root / "mixed.ini").write_text(MIXED_SPEC_TEXT)
    (root / "settings.json").write_text('{"max_iterations": 100, "gradient_tolerance": 1e-6}')
    for name in ("mnl", "nb"):
        assert main(["simulate", "--dgp", str(root / f"{name}_dgp.json"),
                     "--out", str(root / f"{name}_data")]) == 0
    assert main(["fit", "--data", str(root / "mnl_data.csv"), "--spec", str(root / "mnl.ini"),
                 "--out", str(root / "mnl_fit")]) == 0
    out = str(root / "out")
    nb_data = ["--data", str(root / "nb_data.csv"), "--spec", str(root / "nb.ini")]
    settings_file = ["--settings", str(root / "settings.json")]
    commands = {
        "simulate": (["simulate", "--dgp", str(root / "mnl_dgp.json"), "--n", "40",
                      "--seed", "3"], ("--n", "--seed"), root / "mnl_dgp.json"),
        "fit": (["fit", *nb_data, *settings_file], (), root / "settings.json"),
        "fit_mixed": (["fit", "--data", str(root / "mnl_data.csv"),
                       "--spec", str(root / "mixed.ini"), "--draws", "25", "--seed", "1",
                       "--skip", "10", "--shift"], ("--draws", "--seed", "--skip"), None),
        "effects": (["effects", "--fit", str(root / "mnl_fit.json"),
                     "--data", str(root / "mnl_data.csv"), "--type", "elasticity",
                     "--vars", "x1"], (), root / "mnl_fit.json"),
        "lrtest": (["lrtest", *nb_data, "--flag", "flag", "--mc", "5", "--seed", "2",
                    "--bins", "10", "--draws", "25", *settings_file],
                   ("--mc", "--seed", "--bins", "--draws"), root / "settings.json"),
        "influence": ([*influence_args(root, 200)[:-2], "--dmin", "0.3", "--dmax", "0.7",
                       "--step", "0.2"], ("--dmin", "--dmax", "--step"), None),
    }
    for argv, _, _ in commands.values():
        assert main([*argv, "--out", out]) == 0, argv
    return root, out, commands


def json_paths(doc, path=()):
    """Every path into a JSON document, the root's included."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, path + (key,))


def json_type(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


OTHER_VALUES = (None, True, "x", 0.5, 3, [], {})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_cli_exits_cleanly_on_a_bad_flag_or_json_value(small_inputs, data):
    """A numeric flag set to 0, -1, NaN or +-inf, or one JSON value
    replaced by one of another type, ends in exit 0, 1 or 2 (argparse's
    included), with an ``error:`` line on exit 2, no other exception and
    no numpy floating-point warning."""
    root, out, commands = small_inputs
    argv, flags, json_input = commands[data.draw(st.sampled_from(sorted(commands)))]
    argv = [*argv, "--out", out]
    if flags and (json_input is None or data.draw(st.booleans())):
        flag = data.draw(st.sampled_from(flags))
        argv[argv.index(flag) + 1] = data.draw(st.sampled_from(
            ["0", "-1", "nan", "inf", "-inf"]))
    else:
        holder = [json.loads(json_input.read_text())]  # so that the root has a parent
        path = data.draw(st.sampled_from(list(json_paths(holder[0], (0,)))))
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from(
            [v for v in OTHER_VALUES if json_type(v) != json_type(parent[path[-1]])]))
        (root / "mutated.json").write_text(json.dumps(holder[0]))
        argv[argv.index(str(json_input))] = str(root / "mutated.json")
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error:" in stderr.getvalue(), (argv, stderr.getvalue())
    assert not [w for w in caught if "encountered in" in str(w.message)], argv
