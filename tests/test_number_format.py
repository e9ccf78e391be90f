"""Matrix and vector number grids are checked by ``io`` alone, once per run.

The config schema only says that ``re``/``im`` are arrays; ``io`` refuses any
element that is not a JSON number (booleans and numeric strings included),
ragged or deeper nesting, integers beyond float range, non-finite values and
wrong shapes.  Its verdicts and arrays match the earlier rule, which ran a
per-element schema and then ``np.asarray``, shape and finiteness checks.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from biham import cli, io
from biham.errors import ConfigError

FIXTURES = Path(__file__).parent / "fixtures"

HUGE = 10 ** 400  # a 400-digit integer literal, beyond float range

# ---------------------------------------------------------------------------
# the earlier rule, kept as the reference

_OLD_GRID = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
_OLD_LIST = {"type": "array", "items": {"type": "number"}}
OLD_MATRIX = Draft202012Validator({
    "type": "object", "required": ["n", "re", "im"], "additionalProperties": False,
    "properties": {"n": {"type": "integer", "minimum": 1}, "re": _OLD_GRID, "im": _OLD_GRID},
})
OLD_VECTOR = Draft202012Validator({
    "type": "object", "required": ["re", "im"], "additionalProperties": False,
    "properties": {"re": _OLD_LIST, "im": _OLD_LIST},
})
NEW_MATRIX = Draft202012Validator(cli.MATRIX_SCHEMA)
NEW_VECTOR = Draft202012Validator(cli.VECTOR_SCHEMA)


def reference_parse(obj, validator, shape):
    """The earlier verdict: the array, or None if rejected (an OverflowError included)."""
    if not validator.is_valid(obj):
        return None
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (ValueError, OverflowError):
        return None
    if len(shape) == 1 and (re.ndim != 1 or re.shape != im.shape):
        return None
    if re.shape != shape or im.shape != shape:
        return None
    with np.errstate(invalid="ignore"):  # 1j*inf
        z = re + 1j * im
    return z if np.all(np.isfinite(z)) else None


def io_parse(obj, validator, read, *args):
    """The io verdict: the array, or None after a ConfigError."""
    assert validator.is_valid(obj)  # the schema leaves every element to io
    try:
        return read(obj, *args)
    except ConfigError:
        return None


# ---------------------------------------------------------------------------
# drawn grids: numbers in a given shape, then perhaps one fault

NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers())
BIG_INTEGERS = st.one_of(
    st.integers(min_value=-2 ** 1030, max_value=2 ** 1030),
    # float max, the rounding midpoint above it, and the first power of two beyond
    st.sampled_from([2 ** 1024 - 2 ** 971, 2 ** 1024 - 2 ** 970, 2 ** 1024, -HUGE]),
)
NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False).map(repr),
    st.integers().map(str),
    st.just(float("inf")),
    st.lists(NUMBERS, max_size=2),
    st.just({}),
)


@st.composite
def grids(draw, shape):
    """Nested lists of drawn numbers in ``shape``, with at most one fault applied."""
    size = int(np.prod(shape))
    flat = draw(st.lists(NUMBERS, min_size=size, max_size=size))
    fault = draw(st.sampled_from([None] * 4 + ["leaf", "big", "short", "shallow", "deep"]))
    if fault in ("leaf", "big") and size:
        flat[draw(st.integers(0, size - 1))] = draw(NOT_NUMBERS if fault == "leaf"
                                                    else BIG_INTEGERS)
    if len(shape) == 1:
        grid = flat
    else:
        cols = shape[1]
        grid = [flat[i * cols:(i + 1) * cols] for i in range(shape[0])]
    if fault == "short" and grid and len(shape) == 2:
        grid[draw(st.integers(0, len(grid) - 1))].pop()  # a ragged row
    elif fault == "short" and grid:
        grid.pop()
    elif fault == "shallow" and grid and len(shape) == 2:
        grid[draw(st.integers(0, len(grid) - 1))] = draw(NUMBERS)
    elif fault == "deep":
        grid = [grid]
    return grid


@st.composite
def matrix_objects(draw):
    n = draw(st.integers(1, 3))
    shapes = st.sampled_from([(n, n), (n, n), (n, n), (n, n + 1), (n + 1, n), (n - 1, n)])
    return n, {"n": n, "re": draw(grids(draw(shapes))), "im": draw(grids(draw(shapes)))}


@st.composite
def vector_objects(draw):
    n = draw(st.integers(1, 4))
    shapes = st.sampled_from([(n,), (n,), (n,), (n + 1,), (n - 1,)])
    return n, {"re": draw(grids(draw(shapes))), "im": draw(grids(draw(shapes)))}


def assert_same_verdict(expected, got):
    assert (expected is None) == (got is None)
    if got is not None:
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrix_objects())
def test_matrix_reader_matches_the_earlier_rule(case):
    n, obj = case
    expected = reference_parse(obj, OLD_MATRIX, (n, n))
    got = io_parse(obj, NEW_MATRIX, io.matrix_from_json)
    assert_same_verdict(expected, got)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(vector_objects())
def test_vector_reader_matches_the_earlier_rule(case):
    n, obj = case
    expected = reference_parse(obj, OLD_VECTOR, (n,))
    got = io_parse(obj, NEW_VECTOR, io.vector_from_json, n)
    assert_same_verdict(expected, got)


@pytest.mark.parametrize("entry", [True, "1.5", None, [1.0], HUGE, 1e999])
def test_faulty_entry_is_named(entry):
    matrix = {"n": 2, "re": [[1.0, 0.0], [0.0, entry]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ConfigError, match=r"^re: "):
        io.matrix_from_json(matrix)
    diags = cli.validate_config({"command": "decompose", "params": {"matrix": matrix}})
    assert len(diags) == 1 and diags[0].startswith("params.matrix: re: ")


# ---------------------------------------------------------------------------
# one schema pass and one parse of each grid per CLI invocation


def with_table_potential(entry):
    cfg = cli.load_config(FIXTURES / "continuum_gaussian.json")
    N = cfg["params"]["N"]
    cfg["params"]["potential"] = {"kind": "table", "re": [entry] + [0.0] * (N - 1),
                                  "im": [0.0] * N}
    return cfg


def evolve_with(**params):
    cfg = cli.load_config(FIXTURES / "evolve_phase_flip.json")
    cfg["params"].update(params)
    return cfg


COUNT_CASES = {
    **{path.stem: (cli.load_config(path), 0) for path in sorted(FIXTURES.glob("*.json"))},
    "continuum_table": (with_table_potential(0.1), 0),
    "verify_with_phibar0": (
        {"command": "verify",
         "params": {"matrix": {"n": 2, "re": [[1.0, 0.5], [0.0, -1.0]],
                               "im": [[0.0, 0.0], [0.0, 0.0]]},
                    "psi0": {"re": [1.0, 0.0], "im": [0.0, 0.0]},
                    "phibar0": {"re": [1.0, 0.0], "im": [0.0, 0.0]}}}, 0),
    "step_too_large": (evolve_with(method="rk4", dt=2.0, t_final=4.0), 3),
    "short_horizon": (evolve_with(t_final=1.0, dt=0.3), 2),
    "bad_psi0": (evolve_with(psi0={"re": [True, 0.0], "im": [0.0, 0.0]}), 2),
    "schema_error": (evolve_with(method="leapfrog"), 2),
}


@pytest.mark.parametrize("validate_only", [False, True])
@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_one_schema_pass_and_one_parse_per_grid(tmp_path, monkeypatch, capsys, case,
                                                validate_only):
    cfg, exit_code = COUNT_CASES[case]
    schema_ok = not cli._schema_diagnostics(cfg, cfg["command"])  # else no grid is read
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    calls = Counter()

    def counted(fn, label):
        def wrapper(*args):
            calls[label(args)] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "_schema_diagnostics",
                        counted(cli._schema_diagnostics, lambda args: "schema"))
    for name in ("matrix_from_json", "vector_from_json"):  # a call is known by its grid
        monkeypatch.setattr(io, name, counted(getattr(io, name),
                                              lambda args: json.dumps(args[0])))
    argv = [cfg["command"], "--config", str(config), "--out", str(tmp_path / "out")]
    code = cli.main(argv + ["--validate-only"] if validate_only else argv)
    capsys.readouterr()
    assert code == (min(exit_code, 2) if validate_only else exit_code)
    params = cfg["params"]  # grids are those without a "kind" other than "table"
    grids = [key for key in ("matrix", "psi0", "phibar0", "potential")
             if schema_ok and key in params and params[key].get("kind", "table") == "table"]
    assert calls == Counter(["schema"] + [json.dumps(params[key]) for key in grids])


def test_continuum_table_with_huge_integer(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(with_table_potential(HUGE)))
    out = tmp_path / "out"
    assert cli.main(["continuum", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "config_error"
    assert error["message"].startswith("params.potential: re: ")
    assert not out.exists()


def test_continuum_grid_too_large_to_build(tmp_path, capsys):
    cfg = cli.load_config(FIXTURES / "continuum_gaussian.json")
    cfg["params"]["N"] = HUGE
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["continuum", "--config", str(config), "--out", str(out)]
    assert cli.main(argv + ["--validate-only"]) == 2
    diags = json.loads(capsys.readouterr().out)
    assert len(diags) == 1 and diags[0].startswith("params: ")
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config_error"
    assert not out.exists()
