"""The layer tracer of the benchmark wraps library names by module and
attribute; a rename or move inside src/ddlab must keep every one of them
resolvable, or traced runs break."""
import importlib
import importlib.util
from pathlib import Path

import ddlab  # noqa: F401  (the tracer resolves names after this import)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_traced_boundary_resolves():
    boundaries = _boundaries()
    assert boundaries
    missing = [
        (module_name, attr)
        for module_name, attr, _name, _counter in boundaries
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
