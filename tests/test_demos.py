"""Each demo's main() prints exactly the output recorded in tests/data/demos."""
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_recorded_output(path):
    spec = importlib.util.spec_from_file_location("demo_" + path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        demo.main()
    want = (ROOT / "tests" / "data" / "demos" / (path.stem + ".out")).read_text()
    assert out.getvalue() == want
