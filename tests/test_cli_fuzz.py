"""The CLI contract through ``main()`` on drawn configs of all five commands.

Every config ends in one of two ways on each route: an artifact with exit 0,
or one JSON error line on stderr with exit 2, 3 or 4, with no traceback and no
warning.  ``--validate-only`` and the run share one preflight, so a ``[]``
from validation is never followed by a config error from the run, and a
rerun writes the same bytes.  Nothing is written outside ``--out``.  An
artifact holds no inf or nan: JSON without its non-standard constants, CSV
cells finite but for the continuum's placeholder residuals.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biham.cli import main
from biham.dynamics import step_count

HUGE = 10 ** 400  # an integer literal beyond float range
FLOAT_MAX = 1.7976931348623157e308

# values set on one scalar field: extremes, integral floats, booleans, huge integers
EDGES = [0.0, -1.0, 5e-324, 1e-300, 1e-160, 1e300, FLOAT_MAX, -FLOAT_MAX, 2.0, 64.0, 3.0,
         True, False, HUGE, -HUGE, 10 ** 300, 2 ** 64, 7]
# a path-like output is refused: "ABSOLUTE" stands for a path beside the out directory;
# so are names the file system cannot encode or whose temp name is above 255 bytes
OUTPUTS = [None] * 6 + ["result.out", "..x.csv", "../escape.csv", "ABSOLUTE", "sub/x.csv",
                        ".", "..", "a\\b.csv", "a\0b.csv", "", "\ud800x.json", "a" * 241,
                        "a" * 242, "\u00e9" * 121]

SMALL = st.floats(-2.0, 2.0)


def numbers(draw, count, scale=1.0):
    return [draw(SMALL) * scale for _ in range(count)]


@st.composite
def matrices(draw):
    """Small real or complex matrices, now and then scaled to an extreme.

    At ``FLOAT_MAX / 2`` an eigenvalue can pass the float range.
    """
    n = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0] * 6 + [1e-300, 1e150, 1e300, FLOAT_MAX / 2]))
    re = [numbers(draw, n, scale) for _ in range(n)]
    im = [numbers(draw, n, scale) if draw(st.booleans()) else [0.0] * n for _ in range(n)]
    return {"n": n, "re": re, "im": im}


def vector(draw, n, scale=1.0):
    return {"re": numbers(draw, n, scale), "im": numbers(draw, n, scale)}


def optional(draw, params, key, values):
    if draw(st.booleans()):
        params[key] = draw(st.sampled_from(values))


@st.composite
def params_for(draw, command):
    if command == "sweep":
        # mostly inside the real regime |z| > |(x, y)|, now and then across it
        sign = draw(st.sampled_from([1.0, -1.0]))
        z = [sign * draw(st.floats(1.5, 4.0)), sign * draw(st.sampled_from([1.0] * 5 + [-1.0]))
             * draw(st.floats(1.5, 4.0))]
        x, y = ([draw(st.floats(-1.0, 1.0)) for _ in range(2)] for _ in range(2))
        csq_scale = draw(st.sampled_from([1.0] * 6 + [FLOAT_MAX / 2]))  # csq_1 + csq_2 overflows
        path = {"x0": x[0], "y0": y[0], "z0": z[0], "x1": x[1], "y1": y[1], "z1": z[1]}
        params = {"path": {**path, "interpolation": "linear"},
                  "T": draw(st.sampled_from([1.0, 5.0])),
                  "dt": draw(st.sampled_from([0.01, 0.05, 0.5])),
                  "csq": [draw(st.floats(0.0, 2.0)) * csq_scale for _ in range(2)]}
        optional(draw, params, "samples", [2, 5, 11])
        optional(draw, params, "hbar", [0.5, 1.0, 1e308, FLOAT_MAX])
        return params
    if command == "continuum":
        N = draw(st.sampled_from([8, 12, 16]))
        table = {"kind": "table", **vector(draw, N)}
        params = {
            "L": draw(st.sampled_from([10.0, 20.0])), "N": N,
            "potential": draw(st.sampled_from([
                {"kind": "complex_gaussian", "center": 5.0, "width": 1.5,
                 "amp_re": 0.8, "amp_im": -0.3}, table])),
            "psi0": draw(st.sampled_from([
                {"kind": "gaussian", "center": 4.0, "width": 1.2, "momentum": 1.0},
                {"kind": "plane_wave", "mode": 1}, table])),
            "dt": draw(st.sampled_from([0.0005, 0.001, 0.01])),
            "t_final": draw(st.sampled_from([0.01, 0.02, 0.03])),
        }
        optional(draw, params, "snapshot_every", [1, 3, 7])
        optional(draw, params, "m", [0.5, 1.0])
        return params
    h = draw(matrices())
    params = {"matrix": h}
    if command == "decompose":
        optional(draw, params, "tol", [1e-9, 1e-3])
        return params
    # half of them near 1e200, where the overlap and the right norm overflow
    scale = draw(st.sampled_from([1.0, 1e200]))
    params["psi0"] = vector(draw, h["n"], scale)
    extra = draw(st.sampled_from(["none", "phibar0", "csq"]))
    if extra == "phibar0":
        params["phibar0"] = vector(draw, h["n"], scale)
    elif extra == "csq" and command == "evolve":
        params["csq"] = [draw(st.floats(0.0, 2.0)) for _ in range(h["n"])]
    optional(draw, params, "hbar", [0.5, 1.0])
    if command == "verify":
        optional(draw, params, "fd_step", [1e-6, 1e-3])
        return params
    params.update(method=draw(st.sampled_from(["rk4", "exact"])),
                  t_final=draw(st.sampled_from([1.0, 0.5, 2.5])),
                  dt=draw(st.sampled_from([0.1, 0.05, 0.25])))
    optional(draw, params, "snapshot_every", [1, 2, 3, 7])  # 3 and 7 divide no horizon
    return params


def scalar_fields(node, path=()):
    """Paths to the number and boolean leaves of ``node``, outside number grids."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from scalar_fields(value, (*path, key))
        elif isinstance(value, (int, float)):
            yield (*path, key)


@st.composite
def configs(draw):
    command = draw(st.sampled_from(["decompose", "evolve", "verify", "sweep", "continuum"]))
    cfg = {"command": command, "params": draw(params_for(command))}
    optional(draw, cfg, "seed", [0, 5])
    output = draw(st.sampled_from(OUTPUTS))
    if output is not None:
        cfg["output"] = output
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        *parents, key = draw(st.sampled_from(sorted(scalar_fields(cfg))))
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = draw(st.sampled_from(EDGES))
    return cfg, draw(st.sampled_from([None] * 4 + [3, -1]))  # --seed


def call(argv, capfd):
    """Exit code, stdout and stderr lines of ``main(argv)``, with no warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capfd.readouterr()
    assert caught == [], [str(w.message) for w in caught]
    assert "Traceback" not in err
    return code, out, err.splitlines()


def artifacts(out):
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def assert_finite_artifact(data: bytes, params):
    """JSON parses without NaN or +-Infinity; CSV cells are finite, but for placeholders.

    The continuum's residual is a NaN placeholder in the end rows and in the
    row before a shorter last interval, whose time stencil is uneven.
    """
    text = data.decode()
    if text.startswith("{"):
        json.loads(text, parse_constant=_reject_constant)
        return
    header, *rows = text.splitlines()
    columns = header.split(",")
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    placeholder = np.zeros(table.shape, dtype=bool)
    if "continuity_residual" in columns:
        uneven = step_count(params["t_final"], params["dt"]) % params.get("snapshot_every", 1)
        placeholder[[0, -1, -2] if uneven else [0, -1],
                    columns.index("continuity_residual")] = True
        assert np.all(np.isnan(table[placeholder]))
    assert np.all(np.isfinite(table[~placeholder]))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs())
def test_cli_contract_on_drawn_configs(capfd, case):
    cfg, seed = case
    capfd.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if cfg.get("output") == "ABSOLUTE":
            cfg["output"] = str(tmp / "abs.csv")
        config, out = tmp / "cfg.json", tmp / "out"
        config.write_text(json.dumps(cfg))
        argv = [cfg["command"], "--config", str(config), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]

        code, stdout, err = call(argv + ["--validate-only"], capfd)
        diags = json.loads(stdout)
        assert err == [] and code == (2 if diags else 0)

        code, stdout, err = call(argv, capfd)
        assert code in (0, 2, 3, 4) and stdout == ""
        if code == 0:
            assert err == [] and not diags and len(artifacts(out)) == 1
            assert_finite_artifact(*artifacts(out).values(), cfg["params"])
        else:
            assert len(err) == 1 and set(json.loads(err[0])) == {"error", "message"}
            assert artifacts(out) == {}
        if not diags:
            assert code != 2
        else:
            assert code in (2, 3)
        written = artifacts(out)

        assert call(argv, capfd) == (code, stdout, err)
        assert artifacts(out) == written
        beside = sorted(p.name for p in tmp.iterdir())  # "out" only when the run wrote
        assert beside == (["cfg.json", "out"] if code == 0 else ["cfg.json"])
