"""The two benchmark workloads, run through crashmle's public API and CLI.

Each workload draws its datasets from a fixed pool of dataset indices, so
that every output it produces has a reference frozen in
``reference.json``.  A run's ``--seed`` picks which pool entries it uses
(a seeded permutation); the held-out seed draws from a separate part of
each pool that development runs never touch.

A workload object has:

* ``nominal_s`` - rough seconds per iteration, used to turn the run
  length into a fixed number of iterations (so runs on different
  commits do identical work);
* ``probe`` - the ``probe.py`` kernels that load the host the way the
  workload does;
* ``prepare(indices, workdir)`` - builds the inputs (untimed set-up);
* ``warm_up()`` - exercises every code path once on tiny inputs;
* ``iterate(index)`` - one timed iteration, returning an ``Outcome``
  whose ``values`` ``compare_values`` checks against the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import crashmle
from crashmle import cli, serialize
from crashmle.dataset import CONSTANT, ModelSpec, Term
from crashmle.simulate import CovariateRecipe, DgpConfig

HELDOUT_SEED = 20091001


@dataclass
class Outcome:
    """What one iteration did: values to check, fits done, failures seen."""

    values: dict
    refits: int
    attempted: int
    failed: int
    notes: list = field(default_factory=list)


def pool_indices(workload, seed: int, n_iter: int) -> list[int]:
    """Dataset indices for a run: a seeded walk over the dev or held-out pool."""
    if seed == HELDOUT_SEED:
        pool = np.arange(workload.dev_pool, workload.dev_pool + workload.heldout_pool)
    else:
        pool = np.arange(workload.dev_pool)
    order = np.random.default_rng(seed).permutation(pool)
    return [int(v) for v in np.resize(order, n_iter)]


def _close(a, b, rtol: float, atol: float) -> bool:
    if a is None or b is None:
        return a is b
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


# Tolerances.  A valid but different optimizer path (another line search,
# Newton instead of BFGS) stops somewhere inside the gradient tolerance,
# which moves a log-likelihood by far less than 1e-6 relative; a wrong
# likelihood moves it by far more.  The Monte Carlo p-value may move by
# two replicates whose statistic sits next to the observed one.
LL_RTOL = 1e-6
X2_ATOL, X2_RTOL = 1e-5, 1e-6


def compare_values(values: dict, ref: dict | None) -> list[str]:
    """Names of the reference fields that ``values`` does not reproduce."""
    if ref is None:
        return ["<no reference>"]
    bad = []
    for key, want in ref.items():
        got = values.get(key)
        if key.startswith("converged") or key.startswith("replicates") \
                or key == "exit_codes":
            ok = got == want
        elif key.startswith("ll"):
            ok = _close(got, want, LL_RTOL, 0.0)
        elif key.startswith("x2"):
            ok = _close(got, want, X2_RTOL, X2_ATOL)
        elif key == "p_mc":
            ok = _close(got, want, 0.0, 2.0 / values.get("replicates_requested", 1) + 1e-12)
        elif key.startswith("d_star"):
            ok = _close(got, want, 0.0, 1e-9)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, reference {want!r}")
    return bad


# --------------------------------------------------------------- mc_pool

C12_SPEC = ModelSpec("nb", (Term(CONSTANT), Term("z1")))
C12_PARAMS = {"constant": 2.2, "z1": 0.3, "alpha": 0.8}
C12_RECIPES = {"z1": CovariateRecipe("normal"),
               "flag": CovariateRecipe("bernoulli", p=0.393)}
C12_REPLICATES = 500


class McPool:
    """Parametric-bootstrap pooling test on C12-shaped NB data.

    One iteration is one Monte Carlo unit: ``mc_null_distribution`` with
    500 replicates on its own n=122 dataset, about 1,500 small serial
    refits.  Python call overhead, not arithmetic, sets its cost.
    """

    name = "mc_pool"
    nominal_s = 2.0
    probe = ("small",)
    dev_pool = 64
    heldout_pool = 16

    def prepare(self, indices, workdir):
        self.tables = {i: crashmle.gen_nb(DgpConfig(C12_SPEC, C12_PARAMS, C12_RECIPES,
                                                    n=122, seed=i))
                       for i in set(indices)}

    def warm_up(self):
        table = crashmle.gen_nb(DgpConfig(C12_SPEC, C12_PARAMS, C12_RECIPES,
                                          n=60, seed=10**6))
        crashmle.mc_null_distribution(table, C12_SPEC, "flag", replicates=5, seed=0)

    def iterate(self, index) -> Outcome:
        try:
            res = crashmle.mc_null_distribution(self.tables[index], C12_SPEC, "flag",
                                                replicates=C12_REPLICATES, seed=index)
        except (RuntimeError, ValueError) as exc:  # OptimizationError is a RuntimeError
            return Outcome({}, 0, 3 + C12_REPLICATES, 3 + C12_REPLICATES, [repr(exc)])
        pieces = (res.pooled, res.subset_a, res.subset_b)
        values = {
            "converged": [p.converged for p in pieces],
            "ll_pooled": res.pooled.ll,
            "ll_a": res.subset_a.ll,
            "ll_b": res.subset_b.ll,
            "x2": res.x2,
            "p_mc": res.p_mc,
            "replicates_requested": res.replicates_requested,
            "replicates_kept": res.replicates_kept,
            "replicates_dropped": res.replicates_dropped,
        }
        failed = sum(not p.converged for p in pieces) + res.replicates_dropped
        return Outcome(values, 3 + 3 * res.replicates_requested,
                       3 + res.replicates_requested, failed)


# ---------------------------------------------------------- cli_pipeline

MNL_DGP = DgpConfig(
    ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
                      Term("x1", ("a",)), Term("x1", ("b",)),
                      Term("x2", ("a",)), Term("flag", ("b",))),
              ("a", "b", "base"), "base"),
    {"constant[a]": 0.4, "constant[b]": -0.3, "x1[a]": 0.8, "x1[b]": -0.5,
     "x2[a]": 0.3, "flag[b]": 0.6},
    {"x1": CovariateRecipe("normal"),
     "x2": CovariateRecipe("uniform", low=0.0, high=2.0),
     "flag": CovariateRecipe("bernoulli", p=0.4)}, n=200_000)
MNL_INI = """[model]
family = mnl
outcomes = a, b, base
base = base
[term]
var = constant
outcomes = a
[term]
var = constant
outcomes = b
[term]
var = x1
outcomes = a
[term]
var = x1
outcomes = b
[term]
var = x2
outcomes = a
[term]
var = flag
outcomes = b
"""

NB_DGP = DgpConfig(
    ModelSpec("nb", (Term(CONSTANT), Term("z1"), Term("z2"))),
    {"constant": 1.0, "z1": 0.4, "z2": -0.3, "alpha": 0.8},
    {"z1": CovariateRecipe("normal"),
     "z2": CovariateRecipe("uniform", low=0.0, high=2.0),
     "flag": CovariateRecipe("bernoulli", p=0.5)}, n=50_000)
NB_INI = """[model]
family = nb
[term]
var = constant
[term]
var = z1
[term]
var = z2
"""

MIXED_DGP = DgpConfig(
    ModelSpec("mixed_mnl", (Term(CONSTANT, ("a",)),
                            Term("x1", ("a",), "random_normal")),
              ("a", "b", "base"), "base"),
    {"constant[a]": 0.4, "x1[a]": 0.8, "x1[a]:sd": 1.0},
    {"x1": CovariateRecipe("normal")}, n=2_000)
MIXED_INI = """[model]
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

INF_DGP = DgpConfig(
    ModelSpec("mnl", (Term(CONSTANT, ("a",)), Term("d", ("a",))), ("a", "b"), "b"),
    {"constant[a]": 0.8, "d[a]": -3.0},
    {"d": CovariateRecipe("uniform", low=0.0, high=2.0)}, n=5_000,
    influence=("d", 0.5))
INF_INI = """[model]
family = mnl
outcomes = a, b
base = b
[term]
var = constant
outcomes = a
[term]
var = d
outcomes = a
"""


# The C07 and C09 simulated-likelihood fits: few evaluations over large
# (N, R, I) arrays, arithmetic and memory bound.
C07_SPEC = ModelSpec("mixed_mnl", (
    Term(CONSTANT, ("a",)), Term(CONSTANT, ("b",)),
    Term("x1", ("a",), "random_normal")), ("a", "b", "base"), "base")
C07_DGP = DgpConfig(C07_SPEC,
                    {"constant[a]": 0.3, "constant[b]": 0.2, "x1[a]": 1.0, "x1[a]:sd": 2.0},
                    {"x1": CovariateRecipe("normal", sd=2.0)}, n=3_000)
C07_INI = """[model]
family = mixed_mnl
outcomes = a, b, base
base = base
[term]
var = constant
outcomes = a
[term]
var = constant
outcomes = b
[term]
var = x1
outcomes = a
dist = normal
"""

C09_SPEC = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z1", (), "random_normal")))
C09_DGP = DgpConfig(C09_SPEC, {"constant": 1.8, "z1": 0.4, "z1:sd": 0.3, "alpha": 0.6},
                    {"z1": CovariateRecipe("normal")}, n=1_500)
C09_INI = """[model]
family = mixed_nb
[term]
var = constant
[term]
var = z1
dist = normal
"""


def _pipeline(seed: int, n_scale: float = 1.0):
    """The CLI argument lists of one pipeline pass, in order."""
    n = lambda cfg: str(max(50, int(cfg.n * n_scale)))
    s = str(seed)
    return [
        ["simulate", "--dgp", "mnl_dgp.json", "--out", "mnl", "--n", n(MNL_DGP), "--seed", s],
        ["fit", "--data", "mnl.csv", "--spec", "mnl.ini", "--out", "mnl_fit"],
        ["effects", "--fit", "mnl_fit.json", "--data", "mnl.csv", "--type", "elasticity",
         "--vars", "x1,x2", "--out", "mnl_elas"],
        ["simulate", "--dgp", "nb_dgp.json", "--out", "nb", "--n", n(NB_DGP), "--seed", s],
        ["fit", "--data", "nb.csv", "--spec", "nb.ini", "--out", "nb_fit"],
        ["lrtest", "--data", "nb.csv", "--spec", "nb.ini", "--flag", "flag", "--out", "nb_lr"],
        ["effects", "--fit", "nb_fit.json", "--data", "nb.csv", "--type", "marginal",
         "--out", "nb_marg"],
        ["simulate", "--dgp", "mixed_dgp.json", "--out", "mixed", "--n", n(MIXED_DGP),
         "--seed", s],
        ["fit", "--data", "mixed.csv", "--spec", "mixed.ini", "--draws", "50",
         "--out", "mixed_fit"],
        ["effects", "--fit", "mixed_fit.json", "--data", "mixed.csv", "--type",
         "elasticity", "--vars", "x1", "--out", "mixed_elas"],
        ["simulate", "--dgp", "inf_dgp.json", "--out", "inf", "--n", n(INF_DGP), "--seed", s],
        ["influence", "--data", "inf.csv", "--spec", "inf.ini", "--distance", "d",
         "--dmin", "0.25", "--dmax", "0.90", "--step", "0.05", "--out", "inf_prof"],
        ["simulate", "--dgp", "c07_dgp.json", "--out", "c07", "--n", n(C07_DGP), "--seed", s],
        ["fit", "--data", "c07.csv", "--spec", "c07.ini", "--draws", "500",
         "--out", "c07_fit"],
        ["effects", "--fit", "c07_fit.json", "--data", "c07.csv", "--type",
         "elasticity", "--vars", "x1", "--out", "c07_elas"],
        ["simulate", "--dgp", "c09_dgp.json", "--out", "c09", "--n", n(C09_DGP), "--seed", s],
        ["fit", "--data", "c09.csv", "--spec", "c09.ini", "--draws", "200",
         "--out", "c09_fit"],
        ["effects", "--fit", "c09_fit.json", "--data", "c09.csv", "--type", "marginal",
         "--out", "c09_marg"],
    ]


# Fits per pipeline pass: mnl, nb, lrtest (pooled + two subsets),
# mixed_mnl, the 14 points of the influence grid, C07 and C09.
CLI_REFITS = 1 + 1 + 3 + 1 + 14 + 2


class CliPipeline:
    """``crashmle.cli.main`` in-process: simulate -> fit -> effects.

    Six inputs: a 200k-row six-parameter MNL table; a 50k-row NB table,
    which also runs the asymptotic ``lrtest``; a 2,000-row mixed_mnl
    table fitted with 50 draws; a 5k-row influence table searched over
    14 caps; the C07 mixed_mnl table (N=3000, 500 draws, then
    elasticities) and the C09 mixed_nb table (N=1500, 200 draws, then
    marginal effects).  The C07 likelihood over (N, R, I) arrays takes
    about half the time; CSV write/load, design build and the large-N
    MNL and NB kernels most of the rest.
    """

    name = "cli_pipeline"
    nominal_s = 23.0
    probe = ("small", "large")
    dev_pool = 12
    heldout_pool = 4

    def prepare(self, indices, workdir):
        self.workdir = workdir
        for fname, cfg in (("mnl_dgp.json", MNL_DGP), ("nb_dgp.json", NB_DGP),
                           ("mixed_dgp.json", MIXED_DGP), ("inf_dgp.json", INF_DGP),
                           ("c07_dgp.json", C07_DGP), ("c09_dgp.json", C09_DGP)):
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(serialize.dumps(cfg.to_dict()))
        for fname, text in (("mnl.ini", MNL_INI), ("nb.ini", NB_INI),
                            ("mixed.ini", MIXED_INI), ("inf.ini", INF_INI),
                            ("c07.ini", C07_INI), ("c09.ini", C09_INI)):
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)

    def _run(self, seed, notes, n_scale=1.0):
        codes = []
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in _pipeline(seed, n_scale):
                    try:
                        codes.append(cli.main(argv))
                    except Exception as exc:  # a crash is a failed command, not a failed run
                        codes.append(-1)
                        notes.append(f"{argv[0]}: {exc!r}")
        finally:
            os.chdir(cwd)
        return codes

    def _read(self, name):
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def warm_up(self):
        self._run(10**6, [], n_scale=0.01)

    def iterate(self, index) -> Outcome:
        notes = []
        codes = self._run(index, notes)
        values = {"exit_codes": codes}
        read = self._read
        try:
            for key in ("mnl", "nb", "mixed", "c07", "c09"):
                fit = read(f"{key}_fit.json")
                values[f"converged_{key}"] = fit["converged"]
                values[f"ll_{key}"] = fit["ll_converged"]
            lr = read("nb_lr.json")
            values["converged_lr"] = [lr[k]["converged"]
                                      for k in ("pooled", "subset_a", "subset_b")]
            values["ll_lr_pooled"] = lr["pooled"]["ll"]
            values["x2_lr"] = lr["x2"]
            prof = read("inf_prof.json")
            values["converged_influence"] = all(prof["converged"])
            values["d_star"] = prof["d_star"]
            unreadable = 0
        except (OSError, KeyError, ValueError) as exc:
            notes.append(f"reading outputs: {exc!r}")
            unreadable = 1
        failed = sum(c != 0 for c in codes) + unreadable
        return Outcome(values, CLI_REFITS, len(codes) + 1, failed, notes)


WORKLOADS = {w.name: w for w in (McPool, CliPipeline)}
