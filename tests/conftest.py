"""Test-session setup.

``pyproject.toml`` puts ``src/`` on pytest's own import path; exporting
it in ``PYTHONPATH`` as well lets the subprocesses that tests start
(``python -m crashmle``) import the package from a fresh checkout.
Tests measure memory with :func:`peak_beyond_outputs`.
"""

import os
import tracemalloc
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def output_bytes(obj) -> int:
    """The bytes of the arrays in ``obj``: an array, or the tuples, lists,
    dicts and object attributes that hold arrays."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(map(output_bytes, obj))
    if isinstance(obj, dict):
        return sum(map(output_bytes, obj.values()))
    if hasattr(obj, "__dict__"):
        return output_bytes(vars(obj))
    return 0


def peak_beyond_outputs(call, *args, **kwargs):
    """``call(*args, **kwargs)`` under ``tracemalloc``: its result, and the
    peak of the memory it allocated less the bytes of the arrays it
    returns (:func:`output_bytes`)."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - output_bytes(result)
