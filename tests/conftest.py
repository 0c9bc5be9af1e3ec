"""Test-session setup.

``pyproject.toml`` puts ``src/`` on pytest's own import path; exporting
it in ``PYTHONPATH`` as well lets the subprocesses that tests start
(``python -m crashmle``) import the package from a fresh checkout.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
