"""Every function the benchmark tracer wraps still exists in coxfree.

The tracer in perfbench/ looks each (module, path) up by name when it
installs, so renaming or deleting one in coxfree breaks traced benchmark
runs.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TRACED
    for module, path, _ in tracer.TRACED:
        owner = importlib.import_module(f"coxfree.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), f"{module}.{path}"
        else:
            assert callable(getattr(owner, path, None)), f"{module}.{path}"
