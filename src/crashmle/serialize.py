"""The bytes of every result file, byte-stable across runs: JSON through
:func:`sanitize`, the one mapping of NaN and infinities to null, and CSV
through :func:`_csv_field`, the one quoting rule; and the readers' checks."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

#: rows :func:`write_csv` joins into one string at a time, column by
#: column; the chunks bound the Python objects and the text it holds
CSV_CHUNK_ROWS = 1 << 12


def sanitize(obj):
    """Recursively convert to plain JSON types; NaN/inf become null."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subtype
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def dumps(obj) -> str:
    """Serialize with sorted keys and repr floats; byte-stable across runs."""
    return json.dumps(sanitize(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def write_csv(path, columns: dict) -> None:
    """Write ``columns``, header name to 1-D array, as RFC-4180 CSV:
    ``csv.writer``'s bytes, joined a chunk of rows at a time.  Floats are
    written in shortest round-trip form, integers and booleans as
    integers, and text through :func:`_csv_field`."""
    in_row = len(columns) > 1
    arrays = [np.asarray(v) for v in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_csv_field(str(c), in_row) for c in columns) + "\r\n")
        for a in range(0, len(arrays[0]), CSV_CHUNK_ROWS):
            cells = [_csv_cells(col[a:a + CSV_CHUNK_ROWS], in_row) for col in arrays]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _csv_cells(values: np.ndarray, in_row: bool):
    """One chunk of a column as its CSV cells; each distinct text value is
    quoted once."""
    kind = values.dtype.kind
    values = (values.astype(np.int64) if kind == "b" else values).tolist()
    if kind == "f":
        return map(repr, values)
    if kind in "biu":
        return map(str, values)
    return map({v: _csv_field(str(v), in_row) for v in set(values)}.__getitem__, values)


def _csv_field(cell: str, in_row: bool) -> str:
    """``cell`` as ``csv.writer`` writes it: quoted, its quotes doubled, when
    it holds a comma, a quote, CR or LF, or is empty and its row's only cell."""
    quote = any(c in cell for c in ',"\r\n') or not (cell or in_row)
    return '"' + cell.replace('"', '""') + '"' if quote else cell


def require(d: dict, keys, what: str) -> dict:
    """Return ``d``; raise a ValueError naming ``what`` if it is not a
    dict, or naming the missing keys if it lacks any of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")
    return d


def known(d: dict, keys, message: str, *args) -> dict:
    """Return ``d``; raise a ValueError with ``message.format(extra, *args)``
    if ``d`` has keys not among ``keys``, ``extra`` being their sorted list."""
    extra = sorted(set(d) - set(keys))
    if extra:
        raise ValueError(message.format(extra, *args))
    return d


def number(value, what: str) -> float:
    """``value`` as a float; raise a ValueError naming ``what`` unless it
    is a finite JSON number (a boolean is not; Python's ``json`` also
    reads ``NaN`` and ``Infinity``, which are not)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{what} must be a finite number, got {json.dumps(value)}")
    return float(value)


def integer(value, what: str) -> int:
    """``value``; raise a ValueError naming ``what`` unless it is a JSON
    integer (a boolean is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def boolean(value, what: str) -> bool:
    """``value``; raise a ValueError naming ``what`` unless it is a JSON boolean."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean, got {json.dumps(value)}")
    return value


def string(value, what: str) -> str:
    """``value``; raise a ValueError naming ``what`` unless it is a JSON
    string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {json.dumps(value)}")
    return value


def array(value, what: str) -> list:
    """``value``; raise a ValueError naming ``what`` unless it is a JSON
    array."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array, got {json.dumps(value)}")
    return value


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
