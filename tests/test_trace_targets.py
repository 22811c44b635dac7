"""The benchmark tracer wraps package functions by module attribute; a
renamed or removed function must fail here, not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modules, attr, *_ in tracer.TARGETS:
        for mod in modules:
            assert callable(getattr(importlib.import_module(mod), attr)), f"{mod}.{attr}"
