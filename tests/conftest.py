"""Fixtures and golden-file helpers shared by the test modules."""
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]

# HYPOTHESIS_PROFILE=ci (the CI workflow) draws the same examples on every
# run and prints the blob that replays a failure locally
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def src_env():
    """The environment of a fresh interpreter that imports ddlab from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


# Goldens of float.hex strings: a test module builds {key: string} and
# compares it with the recorded file; running the module as a script with
# --record rewrites the file (only when a change is meant to move its bits).


def assert_bits(path, bits):
    """Every key of the golden at `path`, and no other, with its recorded string."""
    want = json.loads(path.read_text())
    assert bits.keys() == want.keys()
    assert [k for k in want if bits[k] != want[k]] == []


def record_bits(path, make_bits):
    """The --record entry point of a golden test module."""
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python %s --record" % sys.argv[0])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(make_bits(), indent=1, sort_keys=True) + "\n")
