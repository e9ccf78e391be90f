"""The config checker in ``cli`` against a JSON Schema validator on the same schema dicts.

The reference is jsonschema's Draft 2020-12 validator with ``integer`` narrowed
to JSON integers, as the checker defines it (``2.0`` is not an integer).  Both
must give the same diagnostics on drawn near-valid configs of every command.
The CLI itself never imports jsonschema.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, validators

import biham
from biham import cli

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(biham.__file__).resolve().parent.parent

HUGE = 10 ** 400

ReferenceValidator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: type(value) is int))


def reference_diagnostics(cfg, command):
    validator = ReferenceValidator(cli.config_schema(command))
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(map(str, e.absolute_path)))
    return [f"{'.'.join(map(str, e.absolute_path)) or '(root)'}: {e.message}" for e in errors]


def property_names(schema):
    """Every property name that ``schema`` declares, at any depth."""
    names = set()
    for key, rule in schema.items():
        if key == "properties":
            names |= set(rule)
            for sub in rule.values():
                names |= property_names(sub)
        elif key == "items":
            names |= property_names(rule)
    return names


BASES = [cli.load_config(path) for path in sorted(FIXTURES.glob("*.json"))]
KEYS = sorted(set().union(*(property_names(cli.config_schema(c)) for c in cli.COMMANDS)))
WORDS = ["rk4", "exact", "linear", "table", "gaussian", "plane_wave", "complex_gaussian"]

FLOAT_MAX = sys.float_info.max
NUMBERS = st.one_of(
    st.integers(-3, 70),
    # bounds of the schemas, integral floats, and integers beyond float range
    st.sampled_from([0, 0.0, -0.0, 1, 2.0, 8, 64.0, 1.5, 1e308, FLOAT_MAX, -FLOAT_MAX,
                     float("inf"), float("-inf"), 5e-324, 10 ** 6, 10 ** 6 + 1, 2 ** 64,
                     HUGE, -HUGE]),
    st.floats(allow_nan=False),  # inf is what the literal 1e999 parses to
)
LEAVES = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.none(), st.booleans(), st.text(max_size=3),
                   st.sampled_from(WORDS))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(KEYS), inner, max_size=2)),
    max_leaves=4)


def containers(node, schema):
    """``(container, its schema)`` for ``node`` and what is inside it, number grids aside."""
    if not schema:  # a number grid, which io checks
        return
    yield node, schema
    if isinstance(node, dict):
        children = ((child, schema.get("properties", {}).get(key, {}))
                    for key, child in node.items())
    else:
        children = ((child, schema.get("items", {})) for child in node)
    for child, sub in children:
        if isinstance(child, (dict, list)):
            yield from containers(child, sub)


@st.composite
def near_valid_configs(draw):
    """A fixture with up to three keys or elements set, added or deleted."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    command = cfg["command"]
    for _ in range(draw(st.integers(0, 3))):
        node, schema = draw(st.sampled_from(list(containers(cfg, cli.config_schema(command)))))
        if isinstance(node, dict):
            known = sorted(schema.get("properties", {}))
            key = draw(st.sampled_from(sorted(node) + known * 3 + ["extra_knob"]))
            if key in node and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(st.one_of(NUMBERS, VALUES))
        elif node:
            node[draw(st.integers(0, len(node) - 1))] = draw(st.one_of(NUMBERS, VALUES))
    return cfg, command


@settings(max_examples=250, deadline=None, derandomize=True)
@given(near_valid_configs())
def test_same_diagnostics_as_json_schema(case):
    cfg, command = case
    # the same verdict, and the same paths in the same order with the same messages
    assert cli._schema_diagnostics(cfg, command) == reference_diagnostics(cfg, command)


def fixture_with(name, **params):
    cfg = cli.load_config(FIXTURES / f"{name}.json")
    cfg["params"].update(params)
    return cfg


# one violation of each keyword the schemas use, and the message order at one path
KEYWORD_CASES = {
    "type": fixture_with("evolve_phase_flip", dt=True),
    "const": {**fixture_with("decompose_upper"), "command": "verify"},
    "enum": fixture_with("evolve_phase_flip", method="leapfrog"),
    "minimum": fixture_with("sweep_reference", samples=1),
    "exclusiveMinimum": fixture_with("sweep_reference", T=0),
    "maximum": fixture_with("sweep_reference", samples=10 ** 6 + 1),
    "multipleOf": fixture_with("continuum_gaussian",
                               psi0={"kind": "plane_wave", "mode": 1.5}),
    "minItems": fixture_with("sweep_reference", csq=[1.0]),
    "maxItems": fixture_with("sweep_reference", csq=[1.0, 0.0, 0.0]),
    "minLength": {**fixture_with("verify_random"), "output": ""},
    "required": fixture_with("verify_random", matrix={"n": 3}),
    "additionalProperties": {**fixture_with("decompose_upper", zeta=1, alpha=2), "extra": 0},
    "items": fixture_with("evolve_phase_flip", csq=[1.0, -1.0, "x"]),
    "type_and_minimum": fixture_with("evolve_phase_flip", snapshot_every=0.5),
}


@pytest.mark.parametrize("case", sorted(KEYWORD_CASES))
def test_each_keyword_as_json_schema(case):
    cfg = KEYWORD_CASES[case]
    command = "decompose" if case == "const" else cfg["command"]
    expected = reference_diagnostics(cfg, command)
    assert expected and cli._schema_diagnostics(cfg, command) == expected


def test_integral_floats_are_not_integers():
    cfg = cli.load_config(FIXTURES / "continuum_gaussian.json")
    cfg["params"].update(N=64.0, snapshot_every=2.0)
    cfg["seed"] = 3.0
    assert [d.split(": ")[0] for d in cli._schema_diagnostics(cfg, "continuum")] == [
        "params.N", "params.snapshot_every", "seed"]
    assert Draft202012Validator(cli.config_schema("continuum")).is_valid(cfg)


def test_number_grids_are_not_walked():
    class Unwalkable(list):
        def __iter__(self):
            raise AssertionError("the checker walked a number grid")

        __len__ = __getitem__ = __iter__

    grid = Unwalkable()
    cfg = {"command": "decompose", "params": {"matrix": {"n": 256, "re": grid, "im": grid}}}
    assert cli._schema_diagnostics(cfg, "decompose") == []


def test_cli_does_not_import_jsonschema(tmp_path):
    runs = []
    for path in sorted(FIXTURES.glob("*.json")):
        argv = [json.loads(path.read_text())["command"], "--config", str(path),
                "--out", str(tmp_path / path.stem)]
        runs.append(f"assert main({argv + ['--validate-only']!r}) == 0")
        runs.append(f"assert main({argv!r}) == 0")
    code = "\n".join(["import sys", "from biham.cli import main", *runs,
                      "print('jsonschema' in sys.modules)"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
    assert len(list(tmp_path.iterdir())) == 5
