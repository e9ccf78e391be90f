"""Project tooling: ``tools/artifact_digests.py``, which shows that two source trees write
the same artifacts, and the test session's own settings in ``pyproject.toml``."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  ROOT / "tools" / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fixture", [
    "evolve_phase_flip.json", "continuum_gaussian.json", "decompose_upper.json",
    "verify_random.json", "sweep_reference.json",
], ids=["exact", "continuum", "decompose", "verify", "sweep"])
def test_digest_of_a_fixture_is_stable(fixture):
    tool = load_tool()
    path = ROOT / "tests" / "fixtures" / fixture
    config = json.loads(path.read_text())
    first = tool.digest(ROOT / "src", config["command"], path, config["output"], 1)
    assert first["exit"] == 0 and first["validate"]["exit"] == 0
    for digest in (first["artifact"], first["stdout"], first["stderr"]):
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    again = tool.digest(ROOT / "src", config["command"], path, config["output"], 1)
    assert json.dumps(again, sort_keys=True) == json.dumps(first, sort_keys=True)


FAILING_PROPERTIES = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_bounded_above(x):
    assert x < 5


@settings(derandomize=True, database=None)
@given(st.integers())
def test_bounded_below(x):
    assert x > -5


def test_passes():
    pass
'''


def test_failing_property_tests_are_reported_not_fatal(tmp_path):
    # a falsified property is reported as a failure under this project's warning
    # filters, and the session goes on to the tests after it
    module = tmp_path / "test_properties.py"
    module.write_text(FAILING_PROPERTIES)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(module)],
        capture_output=True, text=True, cwd=tmp_path, check=False, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "2 failed, 1 passed" in output
