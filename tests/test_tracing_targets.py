"""The benchmark's traced names exist in the package.

`perfbench/tracing.py` wraps each (module, function) of its TARGETS with a
bare getattr on `ltcforge.<module>`, so a deleted or renamed function stops
every traced benchmark run.  The file imports only the standard library and
is loaded here by path."""

import importlib
import importlib.util
from pathlib import Path

import ltcforge

TRACING = Path(ltcforge.__file__).parents[2] / "perfbench" / "tracing.py"


def test_every_traced_function_is_an_attribute_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"ltcforge.{module}"), name, None))
    ]
    assert tracing.TARGETS and missing == []
