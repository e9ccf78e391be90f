"""``tools/artifact_digests.py``, which shows that two source trees write the same artifacts."""

import importlib.util
import json
import re
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
