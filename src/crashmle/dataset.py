"""Data ingestion, model specification, and design-matrix construction.

Observations arrive as RFC-4180 CSV files with a header row.  Severity
tables carry a string outcome label per row (one of a declared outcome
set); frequency tables carry a non-negative integer count (:func:`as_counts`).
All other columns are numeric covariates.  A :class:`ModelSpec` lists the
terms of a model (variable, outcome set, coefficient kind) and is compiled
against a table into a :class:`DesignMatrix`, which fixes the parameter
packing used by every estimator in the package: every slot, alpha too.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import serialize

SEVERITY = "severity"
FREQUENCY = "frequency"
MODES = (SEVERITY, FREQUENCY)

FAMILIES = ("mnl", "mixed_mnl", "nb", "mixed_nb")
SEVERITY_FAMILIES = ("mnl", "mixed_mnl")  # the others are frequency families
MIXED_FAMILIES = ("mixed_mnl", "mixed_nb")

#: each term kind's mixing distribution, as a spec file's ``dist`` names it
_KIND_TO_DIST = {"fixed": "fixed", "random_normal": "normal", "random_uniform": "uniform"}
_DIST_TO_KIND = {v: k for k, v in _KIND_TO_DIST.items()}
TERM_KINDS = tuple(_KIND_TO_DIST)

#: pseudo-variable that expands to a column of ones
CONSTANT = "constant"


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservationTable:
    """Immutable rectangular data set.

    Parameters
    ----------
    columns : dict[str, np.ndarray]
        Covariate columns, float64, all the same length.
    outcome : np.ndarray
        Severity labels (strings) or frequency counts (int64).
    mode : str
        ``"severity"`` or ``"frequency"``.
    n_dropped : int
        Rows discarded during ingestion because of missing fields.
    """

    columns: dict[str, np.ndarray]
    outcome: np.ndarray
    mode: str
    n_dropped: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        n = len(self.outcome)
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise ValueError(f"column {name!r} has shape {arr.shape}, expected ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"column {name!r} contains non-finite values")
            cols[name] = _readonly(arr)
        if self.mode == FREQUENCY:
            out = as_counts(self.outcome, "frequency outcomes")
        else:
            out = np.asarray(self.outcome)
            if out.dtype.kind not in ("U", "O"):
                out = out.astype(str)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "outcome", _readonly(out))

    @property
    def n_rows(self) -> int:
        return len(self.outcome)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def subset(self, index: np.ndarray) -> "ObservationTable":
        """Row subset (boolean mask or integer index array), order preserved."""
        cols = {name: arr[index] for name, arr in self.columns.items()}
        return ObservationTable(cols, self.outcome[index], self.mode, 0)

    def to_csv(self, path, outcome_column: str = "outcome") -> None:
        """Write the table as CSV by :func:`crashmle.serialize.write_csv`,
        the outcome column last."""
        if outcome_column in self.columns:
            raise ValueError(f"outcome column name {outcome_column!r} clashes with a covariate")
        serialize.write_csv(path, {**self.columns, outcome_column: self.outcome})


def as_counts(values, what: str) -> np.ndarray:
    """``values`` as int64 counts: integers, or floats within 1e-9 of an
    integer, none negative; Python integers of any size, unsigned and
    float values inside the int64 range (checked before the cast;
    infinities too).  ``what`` names them."""
    out = np.asarray(values)
    if out.dtype.kind == "O":  # numpy holds integers beyond 64 bits as objects
        if np.any((out < -2 ** 63) | (out >= 2 ** 63)):
            raise ValueError(f"{what} must lie within the int64 range")
        out = np.asarray(out.tolist())
    if out.dtype.kind == "u" and np.any(out > np.iinfo(np.int64).max):
        raise ValueError(f"{what} must lie within the int64 range")
    if out.dtype.kind == "f":
        rounded = np.rint(out)
        if np.any(np.abs(rounded) >= 2.0 ** 63):
            raise ValueError(f"{what} must lie within the int64 range")
        if not np.all(np.abs(out - rounded) < 1e-9):
            raise ValueError(f"{what} must be integers")
        out = rounded
    out = out.astype(np.int64)
    if out.min(initial=0) < 0:
        raise ValueError(f"{what} must be non-negative")
    return out


def _parse_count(cell: str, where: str) -> int:
    """A count cell: integer text, read exactly over the int64 range, or
    float text such as ``"3.0"``, whose value :func:`as_counts` checks, as
    it checks negative integers."""
    what = f"{where}: count {cell!r}"
    try:
        value = int(cell)
    except ValueError:
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(f"{where}: non-numeric count {cell!r}") from None
    else:
        if not -2 ** 63 <= value < 2 ** 63:  # numpy would not hold it as an int64
            raise ValueError(f"{what} must lie within the int64 range")
        if value >= 0:  # a count as it stands: no numpy call per row
            return value
    return int(as_counts(value, what))


def _read_header(reader, path, outcome_column: str) -> list[str]:
    """The stripped header row; it must name each column once and hold
    the outcome column."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header")
    if outcome_column not in header:
        raise ValueError(f"{path}: outcome column {outcome_column!r} not in header")
    return header


def load_csv(path, mode: str, outcome_column: str,
             outcome_labels=None) -> ObservationTable:
    """Read a CSV file into an :class:`ObservationTable`.

    Blank lines are skipped.  Rows with one or more empty cells are
    dropped and counted in ``n_dropped``.  Non-numeric covariate cells,
    unknown severity labels (when ``outcome_labels`` is given), and
    negative or fractional counts raise ``ValueError``.

    The rows are parsed in one typed ``np.loadtxt`` pass; a file that
    pass cannot take as it stands (a row to drop or an error to report)
    is read again by the row loop :func:`_load_rows`, which gives the
    same table for every file both accept.

    Parameters
    ----------
    path : str or os.PathLike
        CSV file with a header row.
    mode : str
        ``"severity"`` or ``"frequency"``.
    outcome_column : str
        Header name of the outcome column.
    outcome_labels : sequence of str, optional
        Declared severity outcome set; labels outside it are an error.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        header = _read_header(csv.reader(fh), path, outcome_column)
        table = _load_typed(fh, header, header.index(outcome_column), mode,
                            outcome_labels)
    if table is None:
        table = _load_rows(path, mode, outcome_column, outcome_labels)
    return table


def _load_typed(fh, header, out_pos, mode, outcome_labels):
    """The rows after the header, parsed by one ``np.loadtxt`` call, as a
    table; None when the file needs the row loop: an empty cell, a field
    too many or too few, no rows, a cell loadtxt does not parse (``3.0``
    as a count, ``1_0``, non-ASCII digits), an unknown label or a
    negative count.

    The structured dtype (no ``usecols``, which would switch off the
    field-count check) gives float64 covariates, int64 counts and
    string labels; its fields are named by position because numpy
    renames an empty name.  ``comments=None`` keeps a ``#`` in a label.
    """
    out_type = object if mode == SEVERITY else np.int64
    dtype = np.dtype([(str(i), out_type if i == out_pos else np.float64)
                      for i in range(len(header))])
    with warnings.catch_warnings():
        # "input contained no data", and numpy 1.x's deprecated reading
        # of "3.0" as an integer, go to the row loop too
        warnings.simplefilter("error")
        try:
            data = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    outcome = data[str(out_pos)]
    if mode == SEVERITY:
        labels = [label.strip() for label in outcome.tolist()]
        seen = set(labels)
        if "" in seen or (outcome_labels is not None
                          and not seen <= set(outcome_labels)):
            return None
        outcome = np.asarray(labels)
    elif np.any(outcome < 0):
        return None
    columns = {name: np.ascontiguousarray(data[str(i)])
               for i, name in enumerate(header) if i != out_pos}
    return ObservationTable(columns, outcome, mode, 0)


def _load_rows(path, mode: str, outcome_column: str,
               outcome_labels) -> ObservationTable:
    """:func:`load_csv` one record at a time: drops and counts rows with
    an empty cell and names the line of the first bad one."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path, outcome_column)
        out_pos = header.index(outcome_column)
        cov_names = [h for h in header if h != outcome_column]
        cov_pos = [i for i, h in enumerate(header) if h != outcome_column]
        label_set = set(outcome_labels) if outcome_labels is not None else None

        cov_rows: list[list[float]] = []
        outcomes: list = []
        n_dropped = 0
        for lineno, raw in enumerate(reader, start=2):
            if not raw:  # a blank line
                continue
            if len(raw) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}")
            cells = list(map(str.strip, raw))
            if "" in cells:
                n_dropped += 1
                continue
            out_cell = cells[out_pos]
            if mode == SEVERITY:
                if label_set is not None and out_cell not in label_set:
                    raise ValueError(
                        f"{path}:{lineno}: unknown outcome label {out_cell!r}")
                outcomes.append(out_cell)
            else:
                outcomes.append(_parse_count(out_cell, f"{path}:{lineno}"))
            row_vals = []
            for pos in cov_pos:
                try:
                    row_vals.append(float(cells[pos]))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric value {cells[pos]!r} "
                        f"in column {header[pos]!r}") from None
            cov_rows.append(row_vals)

    data = np.asarray(cov_rows, dtype=np.float64).reshape(len(cov_rows), len(cov_names))
    columns = {name: data[:, j] for j, name in enumerate(cov_names)}
    if mode == SEVERITY:
        outcome = np.asarray(outcomes)
    else:
        outcome = np.asarray(outcomes, dtype=np.int64)
    return ObservationTable(columns, outcome, mode, n_dropped)


def split_by_flag(table: ObservationTable, flag_column: str):
    """Split into (flagged, unflagged) subtables on a 0/1 column."""
    if flag_column not in table.columns:
        raise ValueError(f"flag column {flag_column!r} not in table")
    flag = table.columns[flag_column]
    if not np.all((flag == 0.0) | (flag == 1.0)):
        raise ValueError(f"flag column {flag_column!r} is not binary 0/1")
    mask = flag == 1.0
    return table.subset(mask), table.subset(~mask)


@dataclass(frozen=True)
class Term:
    """One model term: a variable with a coefficient of a given kind.

    ``outcomes`` names the severity equations the term enters (a tied
    coefficient lists several); frequency terms leave it empty.  Kind
    ``fixed`` is a scalar coefficient, ``random_normal`` and
    ``random_uniform`` add an estimated mixing scale.
    """

    variable: str
    outcomes: tuple[str, ...] = ()
    kind: str = "fixed"

    def __post_init__(self):
        if not self.variable:
            raise ValueError("term variable must be a non-empty string")
        if self.kind not in TERM_KINDS:
            raise ValueError(f"term kind must be one of {TERM_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    @property
    def is_random(self) -> bool:
        return self.kind != "fixed"

    @property
    def dist(self) -> str:
        """The spec file's ``dist``: ``normal``, ``uniform``, or ``fixed``."""
        return _KIND_TO_DIST[self.kind]

    @property
    def n_params(self) -> int:
        """Location only for fixed terms, location plus scale otherwise."""
        return 2 if self.is_random else 1


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus term list.

    Severity families (``mnl``, ``mixed_mnl``) declare the outcome set
    and a base outcome whose coefficients are normalised to zero.
    Frequency families (``nb``, ``mixed_nb``) have no outcome set.
    """

    family: str
    terms: tuple[Term, ...]
    outcomes: tuple[str, ...] = ()
    base_outcome: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not self.terms:
            raise ValueError("model spec has no terms")
        if self.is_severity:
            if len(self.outcomes) < 2:
                raise ValueError("severity models need a list of at least two outcomes")
            if len(set(self.outcomes)) != len(self.outcomes):
                raise ValueError("duplicate outcome labels")
            if self.base_outcome is None:
                raise ValueError("severity models need a base outcome")
            if self.base_outcome not in self.outcomes:
                raise ValueError(
                    f"base outcome {self.base_outcome!r} not in {self.outcomes}")
            nonbase = set(self.outcomes) - {self.base_outcome}
            for t in self.terms:
                if not t.outcomes:
                    raise ValueError(f"term {t.variable!r} has no outcomes")
                bad = set(t.outcomes) - nonbase
                if bad:
                    raise ValueError(
                        f"term {t.variable!r} enters {sorted(bad)}; severity terms "
                        f"may only enter non-base outcomes")
        else:
            if self.outcomes:
                raise ValueError("frequency models do not declare outcomes")
            if self.base_outcome is not None:
                raise ValueError("frequency models do not declare a base outcome")
            for t in self.terms:
                if t.outcomes:
                    raise ValueError(
                        f"term {t.variable!r} lists outcomes in a frequency model")
        if not self.is_mixed:
            for t in self.terms:
                if t.is_random:
                    raise ValueError(
                        f"term {t.variable!r} is random; family {self.family!r} "
                        f"allows fixed terms only")
        seen = set()
        for t in self.terms:
            key = (t.variable, frozenset(t.outcomes))
            if key in seen:
                raise ValueError(
                    f"duplicate term for variable {t.variable!r} and outcome set "
                    f"{sorted(t.outcomes)}")
            seen.add(key)

    @property
    def is_severity(self) -> bool:
        return self.family in SEVERITY_FAMILIES

    @property
    def is_frequency(self) -> bool:
        return not self.is_severity

    @property
    def is_mixed(self) -> bool:
        return self.family in MIXED_FAMILIES

    @property
    def mode(self) -> str:
        return SEVERITY if self.is_severity else FREQUENCY

    def to_dict(self) -> dict:
        d = {"family": self.family,
             "terms": [{"var": t.variable, "outcomes": list(t.outcomes),
                        "dist": t.dist} for t in self.terms]}
        if self.is_severity:
            d["outcomes"] = list(self.outcomes)
            d["base"] = self.base_outcome
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        """The spec a fit or dgp file's ``spec`` object describes, the one
        validator of both spec formats (:func:`parse_spec` builds that
        object from INI); an unknown key is an error."""
        # unknown keys first: a mistyped key is named, not the one it misses
        serialize.known(serialize.require(d, (), "model spec"), (*_MODEL_KEYS, "terms"),
                        "unknown keys {} in model spec")
        serialize.require(d, ("family", "terms"), "model spec")
        terms = []
        for t in serialize.array(d["terms"], "model spec terms"):
            var = serialize.string(serialize.require(t, ("var",), "model spec term")["var"],
                                   "model spec term var")
            serialize.known(t, _TERM_KEYS, "unknown keys {} in term {!r}", var)
            dist = serialize.string(t.get("dist", "fixed"), f"term {var!r} dist")
            if dist not in _DIST_TO_KIND:
                raise ValueError(f"term {var!r}: dist must be one of "
                                 f"{sorted(_DIST_TO_KIND)}, got {dist!r}")
            outcomes = serialize.array(t.get("outcomes", ()), f"term {var!r} outcomes")
            terms.append(Term(var, tuple(serialize.string(o, f"term {var!r} outcome")
                                         for o in outcomes), _DIST_TO_KIND[dist]))
        outcomes = serialize.array(d.get("outcomes", ()), "model spec outcomes")
        base = d.get("base")
        return ModelSpec(serialize.string(d["family"], "model spec family"), tuple(terms),
                         tuple(serialize.string(o, "model spec outcome") for o in outcomes),
                         None if base is None else serialize.string(base, "model spec base"))


#: the keys of a spec object besides ``terms`` (INI's ``[term]`` sections), and of a term
_MODEL_KEYS, _TERM_KEYS = ("family", "outcomes", "base"), ("var", "outcomes", "dist")


def parse_spec(text: str) -> ModelSpec:
    """Parse the INI-style model-spec format.

    One ``[model]`` section (keys ``family``, and for severity families
    ``outcomes`` and ``base``) followed by one ``[term]`` section per
    term (keys ``var``, ``outcomes``, ``dist``).  Full-line comments
    start with ``#`` or ``;``.  Unknown sections or keys are errors.
    ``family`` and ``dist`` are case-insensitive and outcome lists are
    comma-separated; the sections then make the dict of a fit or dgp
    file's ``spec`` object, which :meth:`ModelSpec.from_dict` validates.
    """
    model: dict | None = None
    terms: list[dict] = []
    current = section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section == "model":
                if model is not None:
                    raise ValueError(f"line {lineno}: repeated [model] section")
                current = model = {}
            elif section == "term":
                current = {}
                terms.append(current)
            else:
                raise ValueError(f"line {lineno}: unknown section [{section}]")
            continue
        if current is None:
            raise ValueError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in (_MODEL_KEYS if current is model else _TERM_KEYS):
            raise ValueError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in current:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        if key == "outcomes":
            value = [s.strip() for s in value.split(",")]
        current[key] = value.lower() if key in ("family", "dist") else value
    return ModelSpec.from_dict({**(model or {}), "terms": terms})


def load_spec(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_spec(fh.read())


def term_param_name(term: Term, severity: bool) -> str:
    if severity:
        return f"{term.variable}[{'+'.join(term.outcomes)}]"
    return term.variable


def scale_param_name(term: Term, severity: bool) -> str:
    suffix = "sd" if term.dist == "normal" else "spread"
    return f"{term_param_name(term, severity)}:{suffix}"


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


class DesignMatrix:
    """Compiled (table, spec) pair with a fixed parameter packing.

    Parameters are packed in spec term order, each location immediately
    followed by its log-scale when the term is random, and a count
    model's dispersion ``alpha`` last.  Scale slots and the dispersion
    slot hold logs internally so the optimizer works unconstrained;
    estimators report natural values.

    Attributes
    ----------
    x : (N, T) ndarray
        Per-term covariate values (``constant`` expands to ones).
    incidence : (T, I) ndarray or None
        Term-to-outcome indicator for severity models; the base column
        is identically zero.
    param_names : tuple[str, ...]
        Every slot's name in packed order, ``alpha`` last in a count model.
    log_pos : (L,) int ndarray
        The slots estimated as logs: the random terms' scales, then alpha.
    """

    def __init__(self, table: ObservationTable, spec: ModelSpec):
        if table.mode != spec.mode:
            raise ValueError(
                f"family {spec.family!r} needs a {spec.mode} table, "
                f"got {table.mode}")
        if table.n_rows == 0:
            raise ValueError("the table has no rows")
        self.spec = spec
        self.table = table
        self.n_obs = table.n_rows
        n_terms = len(spec.terms)

        x = np.empty((self.n_obs, n_terms))
        for j, t in enumerate(spec.terms):
            if t.variable == CONSTANT:
                x[:, j] = 1.0
            elif t.variable in table.columns:
                x[:, j] = table.columns[t.variable]
            else:
                raise ValueError(f"variable {t.variable!r} not in table")
        self.x = _readonly(x)

        width = np.array([t.n_params for t in spec.terms], dtype=np.int64)
        self.param_names = expected_param_names(spec)
        self.n_params = len(self.param_names)
        self.loc_pos = _readonly(np.cumsum(width) - width)
        self.scale_pos = _readonly(np.where(width == 2, self.loc_pos + 1, -1))
        self.random_terms = tuple(j for j, t in enumerate(spec.terms) if t.is_random)
        logs = [self.scale_pos[j] for j in self.random_terms]
        if spec.is_frequency:
            logs.append(self.n_params - 1)
        self.log_pos = _readonly(np.array(logs, dtype=np.int64))

        if spec.is_severity:
            self.outcome_labels = spec.outcomes
            self.base_index = spec.outcomes.index(spec.base_outcome)
            n_out = len(spec.outcomes)
            inc = np.zeros((n_terms, n_out))
            for j, t in enumerate(spec.terms):
                for label in t.outcomes:
                    inc[j, spec.outcomes.index(label)] = 1.0
            self.incidence = _readonly(inc)
            # each label's place among the sorted outcomes, then its index
            order = np.argsort(spec.outcomes)
            ranked = np.asarray(spec.outcomes)[order]
            at = np.searchsorted(ranked, table.outcome.astype(str, copy=False)).clip(max=n_out - 1)
            unknown = np.flatnonzero(ranked[at] != table.outcome)
            if unknown.size:
                raise ValueError(
                    f"outcome label {str(table.outcome[unknown[0]])!r} not in spec outcomes "
                    f"{spec.outcomes}")
            self.y_index = _readonly(order[at])
            self.counts = None
        else:
            self.outcome_labels = ()
            self.base_index = None
            self.incidence = None
            self.y_index = None
            self.counts = table.outcome

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_labels)

    def linear_predictors(self, theta: np.ndarray) -> np.ndarray:
        """Fixed-coefficient predictors: (N, I) for severity, (N,) for counts.

        Scale slots, if any, are ignored; random terms contribute their
        location only.
        """
        locs = np.asarray(theta, dtype=np.float64)[self.loc_pos]
        if self.spec.is_severity:
            return (self.x * locs) @ self.incidence
        return self.x @ locs

    def index_map(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.param_names)}


def build_design(table: ObservationTable, spec: ModelSpec) -> DesignMatrix:
    """Compile a spec against a table; pure in its inputs."""
    return DesignMatrix(table, spec)
