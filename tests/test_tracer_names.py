"""The benchmark tracer's tables name functions that exist in crashmle.

``perfbench/tracer.py`` looks crashmle's functions, objective factories
and methods up by module and name when it installs; a name moved or
renamed in the package would otherwise fail only a traced benchmark run.
This test reads the tables from the file and does not install the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import crashmle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves_in_crashmle():
    tracer = load_tracer()
    module = lambda name: importlib.import_module(f"{crashmle.__name__}.{name}")
    functions = [(m, f) for m, names in tracer.FUNCTIONS.items() for f in names]
    missing = [f"{m}.{f}" for m, f in functions + list(tracer.OBJECTIVES)
               if not callable(getattr(module(m), f, None))]
    # a method is wrapped where its class defines it, not where it inherits it
    missing += [f"{m}.{c}.{f}" for m, c, f in tracer.METHODS
                if f not in vars(getattr(module(m), c, object))]
    assert tracer.FUNCTIONS and tracer.OBJECTIVES and tracer.METHODS
    assert missing == []
