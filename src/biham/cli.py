"""Config-driven scenario runner.

Usage: ``biham <command> --config <file> --out <dir> [--seed N] [--validate-only]``
with commands decompose, evolve, verify, sweep, continuum.  Configs are JSON
documents ``{"command": ..., "params": {...}, "output": ..., "seed": ...}``;
unknown fields are rejected.  Artifacts (CSV time series, JSON reports) are
written atomically and are byte-identical across runs for a fixed config,
seed and BLAS thread count.  Exit codes: 0 ok, 2 config error, 3 compute
error, 4 io error.
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import canonical, continuum, dynamics, io, lorentzian, spectral
from .errors import ComputeError, ConfigError, IoError, NonFinite

COMMANDS = ("decompose", "evolve", "verify", "sweep", "continuum")

DEFAULT_OUTPUT = {
    "decompose": "decompose.json",
    "evolve": "trajectory.csv",
    "verify": "canonical.json",
    "sweep": "sweep.csv",
    "continuum": "continuum.csv",
}

# re/im elements are checked by io, which reads them
MATRIX_SCHEMA = {
    "type": "object",
    "required": ["n", "re", "im"],
    "additionalProperties": False,
    "properties": {"n": {"type": "integer", "minimum": 1},
                   "re": {"type": "array"}, "im": {"type": "array"}},
}

VECTOR_SCHEMA = {
    "type": "object",
    "required": ["re", "im"],
    "additionalProperties": False,
    "properties": {"re": {"type": "array"}, "im": {"type": "array"}},
}

# a literal such as 1e999 parses to inf; the float range bounds keep it out
_NUMBER = {"type": "number", "minimum": -sys.float_info.max, "maximum": sys.float_info.max}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0, "maximum": sys.float_info.max}
_NON_NEGATIVE = {"type": "number", "minimum": 0, "maximum": sys.float_info.max}

PARAMS_SCHEMAS = {
    "decompose": {
        "type": "object",
        "required": ["matrix"],
        "additionalProperties": False,
        "properties": {"matrix": MATRIX_SCHEMA, "tol": _POSITIVE},
    },
    "evolve": {
        "type": "object",
        "required": ["matrix", "psi0", "method", "t_final", "dt"],
        "additionalProperties": False,
        "properties": {
            "matrix": MATRIX_SCHEMA,
            "psi0": VECTOR_SCHEMA,
            "phibar0": VECTOR_SCHEMA,
            "csq": {"type": "array", "items": _NON_NEGATIVE},
            "method": {"enum": ["rk4", "exact"]},
            "t_final": _POSITIVE,
            "dt": _POSITIVE,
            "snapshot_every": {"type": "integer", "minimum": 1},
            "hbar": _POSITIVE,
        },
    },
    "verify": {
        "type": "object",
        "required": ["matrix"],
        "additionalProperties": False,
        "properties": {
            "matrix": MATRIX_SCHEMA,
            "psi0": VECTOR_SCHEMA,
            "phibar0": VECTOR_SCHEMA,
            "hbar": _POSITIVE,
            "fd_step": _POSITIVE,
        },
    },
    "sweep": {
        "type": "object",
        "required": ["path", "T", "dt", "csq"],
        "additionalProperties": False,
        "properties": {
            "path": {
                "type": "object",
                "required": ["x0", "y0", "z0", "x1", "y1", "z1", "interpolation"],
                "additionalProperties": False,
                "properties": {
                    "x0": _NUMBER, "y0": _NUMBER, "z0": _NUMBER,
                    "x1": _NUMBER, "y1": _NUMBER, "z1": _NUMBER,
                    "interpolation": {"enum": ["linear"]},
                },
            },
            "T": _POSITIVE,
            "dt": _POSITIVE,
            "csq": {"type": "array", "minItems": 2, "maxItems": 2,
                    "items": _NON_NEGATIVE},
            "samples": {"type": "integer", "minimum": 2,
                        "maximum": dynamics.MAX_RECORDS},
            "hbar": _POSITIVE,
        },
    },
    "continuum": {
        "type": "object",
        "required": ["L", "N", "potential", "psi0", "dt", "t_final"],
        "additionalProperties": False,
        "properties": {
            "L": _POSITIVE,
            "N": {"type": "integer", "minimum": 8},
            "m": _POSITIVE,
            "hbar": _POSITIVE,
            "potential": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["complex_gaussian", "table"]},
                    "center": _NUMBER,
                    "width": _POSITIVE,
                    "amp_re": _NUMBER,
                    "amp_im": _NUMBER,
                    **VECTOR_SCHEMA["properties"],
                },
            },
            "psi0": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["gaussian", "plane_wave", "table"]},
                    "center": _NUMBER,
                    "width": _POSITIVE,
                    "momentum": _NUMBER,
                    # a float factor of the phase, so 2.0 is a whole mode as 2 is
                    "mode": {**_NUMBER, "multipleOf": 1},
                    **VECTOR_SCHEMA["properties"],
                },
            },
            "dt": _POSITIVE,
            "t_final": _POSITIVE,
            "snapshot_every": {"type": "integer", "minimum": 1},
        },
    },
}


def config_schema(command: str) -> dict:
    return {
        "type": "object",
        "required": ["command", "params"],
        "additionalProperties": False,
        "properties": {
            "command": {"const": command},
            "params": PARAMS_SCHEMAS[command],
            "output": {"type": "string", "minLength": 1},
            "seed": {"type": "integer", "minimum": 0},
        },
    }


def load_config(path) -> dict:
    """Read and JSON-parse a scenario config (no validation yet)."""
    obj = io.read_json(path)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


# The schemas above use only these JSON Schema keywords; a violation gets the
# message a Draft 2020-12 validator gives.  An integer is a JSON integer, as
# range() and numpy need: 2.0 is refused.  bool is neither a number nor an integer.
_TYPES = {"object": dict, "array": list, "string": str}


def _is_type(value, name) -> bool:
    if name == "integer":
        return type(value) is int
    if name == "number":
        return type(value) in (int, float)
    return isinstance(value, _TYPES[name])


def _too_short(value, least):
    return f"{value!r} {'should be non-empty' if least == 1 else 'is too short'}"


_KEYWORDS = {  # keyword: (value, rule) -> message, or None if the value complies
    "type": lambda v, t: None if _is_type(v, t) else f"{v!r} is not of type {t!r}",
    "const": lambda v, c: None if v == c else f"{c!r} was expected",
    "enum": lambda v, e: None if v in e else f"{v!r} is not one of {e!r}",
    "minimum": lambda v, m: f"{v!r} is less than the minimum of {m!r}"
    if _is_type(v, "number") and v < m else None,
    "exclusiveMinimum": lambda v, m: f"{v!r} is less than or equal to the minimum of {m!r}"
    if _is_type(v, "number") and v <= m else None,
    "maximum": lambda v, m: f"{v!r} is greater than the maximum of {m!r}"
    if _is_type(v, "number") and v > m else None,
    "multipleOf": lambda v, m: f"{v!r} is not a multiple of {m}"
    if _is_type(v, "number") and v % m else None,
    "minItems": lambda v, m: _too_short(v, m) if isinstance(v, list) and len(v) < m else None,
    "maxItems": lambda v, m: f"{v!r} is too long" if isinstance(v, list) and len(v) > m
    else None,
    "minLength": lambda v, m: _too_short(v, m) if isinstance(v, str) and len(v) < m else None,
}


def _violations(value, schema: dict, path=()):
    """``(path, message)`` for each rule of ``schema`` that ``value`` breaks, in keyword order.

    Number grids are left to io: their schema is ``{"type": "array"}``, with no ``items``.
    """
    for key, rule in schema.items():
        if key in ("properties", "required", "additionalProperties"):
            if not isinstance(value, dict):
                continue
            if key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _violations(value[name], sub, (*path, name))
            elif key == "required":
                yield from ((path, f"{name!r} is a required property")
                            for name in rule if name not in value)
            elif not rule and (extra := sorted(set(value) - set(schema["properties"]))):
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extra))} "
                             f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _violations(item, rule, (*path, i))
        elif (message := _KEYWORDS[key](value, rule)) is not None:
            yield path, message


def _schema_diagnostics(cfg: dict, command: str):
    errors = sorted(_violations(cfg, config_schema(command)),
                    key=lambda e: list(map(str, e[0])))
    return [f"{'.'.join(map(str, path)) or '(root)'}: {message}" for path, message in errors]


def _check_output(name: str) -> None:
    """ConfigError unless ``name`` is a bare file name, which keeps the artifact in ``--out``."""
    if name in (".", "..") or not set(name).isdisjoint("/\\\0"):
        raise ConfigError(f"must be a bare file name, without / or \\, got {name!r}")
    try:
        size = len(os.fsencode(name))
    except UnicodeError:  # a lone surrogate, say
        raise ConfigError(f"the file system cannot encode the file name {name!r}") from None
    if size > io.MAX_NAME_BYTES:
        raise ConfigError(f"a file name of {size} bytes is above the limit of "
                          f"{io.MAX_NAME_BYTES}")


def _horizon_steps(params) -> int:
    """Number of ``dt`` steps ending at ``t_final``; ConfigError if none does (to 1e-9)."""
    t_final, dt = params["t_final"], params["dt"]
    steps = dynamics.step_count(t_final, dt)
    if abs(steps * dt - t_final) > 1e-9 * t_final:
        raise ConfigError(f"t_final = {t_final!r} is not a whole number of steps dt = {dt!r}: "
                          f"{steps} steps end at t = {steps * dt!r}")
    return steps


def _check_rows(steps: int, every: int, n: int, columns: int) -> None:
    """ConfigError if ``steps`` steps recorded every ``every`` make more than a run may hold.

    A row holds ``2 n`` complex entries, psi and phibar, and ``columns`` CSV cells:
    rows, entries and cells are each capped, so the memory of a run is bounded.
    """
    rows = dynamics.record_count(steps, every)
    if rows > dynamics.MAX_RECORDS:
        raise ConfigError(f"{steps} steps recorded every {every} make {rows} rows, above the "
                          f"limit of {dynamics.MAX_RECORDS}")
    for width, what, limit in ((2 * n, "recorded complex entries", dynamics.MAX_RECORD_ENTRIES),
                               (columns, "CSV cells", io.MAX_CSV_CELLS)):
        if rows * width > limit:
            raise ConfigError(f"{steps} steps recorded every {every} make {rows} rows of "
                              f"{width} {what}, {rows * width} in all, above the limit of "
                              f"{limit}")


def _preflight(cfg: dict):
    """Schema, element and physics checks of a config: ``(problems, inputs)``.

    ``problems`` holds every violation as a typed error, physics ones as the run
    raises them; ``inputs`` holds what the checks parsed, for the run.
    """
    command = cfg.get("command")
    if command not in COMMANDS:
        return [ConfigError(f"command: must be one of {', '.join(COMMANDS)}, got {command!r}")], {}
    diags = _schema_diagnostics(cfg, command)
    if diags:
        return [ConfigError(d) for d in diags], {}
    params = cfg["params"]
    hbar = params.get("hbar", 1.0)
    problems, inputs = [], {}

    def check(where, fn, *args):
        """Run one library check; its result, or None with its typed error kept."""
        try:
            return fn(*args)
        except (ConfigError, ComputeError) as exc:
            problems.append(type(exc)(f"{where}: {exc}"))

    if "output" in cfg:
        check("output", _check_output, cfg["output"])

    if command in ("decompose", "evolve", "verify"):
        h = inputs["h"] = check("params.matrix", io.matrix_from_json, params["matrix"])
        if h is None:
            return problems, inputs
        n = h.shape[0]
        for key in ("psi0", "phibar0"):
            if key in params:
                inputs[key] = check(f"params.{key}", io.vector_from_json, params[key], n)

    if command == "evolve":
        if "phibar0" in params and "csq" in params:
            problems.append(ConfigError("params: phibar0 and csq are mutually exclusive"))
        if "csq" in params and len(params["csq"]) != n:
            problems.append(ConfigError(f"params.csq: expected {n} modal constants"))
        inputs["steps"] = check("params.t_final", _horizon_steps, params)
        if params["method"] == "rk4":
            check("params.dt", dynamics.check_step, h, params["dt"], hbar)
        if not problems:
            system = inputs["system"] = check("params.matrix",
                                              spectral.biorthogonal_decompose, h)
            if system is not None:  # evolve requires psi0, so no random state is drawn
                state0 = inputs["state0"] = check("params.psi0", _initial_state,
                                                  system, inputs, params, None)
                if state0 is not None and params["method"] == "exact":
                    # every mode grows or decays monotonically, so the last record
                    # is the largest: evaluating it is an exact overflow check
                    check("params.t_final", dynamics.exact_records, system, state0,
                          [inputs["steps"] * params["dt"]])

    elif command == "sweep":
        p = params["path"]
        path = inputs["path"] = lorentzian.SweepPath(
            (p["x0"], p["y0"], p["z0"]), (p["x1"], p["y1"], p["z1"]),
            T=params["T"], samples=params.get("samples", lorentzian.DEFAULT_SAMPLES))
        check("params.dt", lorentzian.check_sweep_step, path, params["dt"], hbar)
        check("params.path", lorentzian.check_real_regime, path)

    elif command == "continuum":
        for key in ("potential", "psi0"):
            if params[key]["kind"] == "table":
                inputs[key] = check(f"params.{key}", io.vector_from_json, params[key], params["N"])
        if problems:
            return problems, inputs
        try:
            # extreme centers, widths or phases give inf or nan here, not
            # warnings; psi0 and the generator are then refused as not finite
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                config, V, inputs["psi0"] = _continuum_setup(params, inputs)
                inputs["config"] = config
                h = inputs["h"] = continuum.discretize(config, V)
        except ConfigError as exc:
            return [exc], inputs
        except ValueError as exc:  # ContinuumConfig's own checks and grid size
            return [ConfigError(f"params: {exc}")], inputs
        if not np.all(np.isfinite(h)):
            return [ConfigError("params: the generator diagonal hbar^2/(m dx^2) + V leaves "
                                "the float range")], inputs
        inputs["steps"] = check("params.t_final", _horizon_steps, params)
        check("params.dt", dynamics.check_step, h, params["dt"], config.hbar)

    if inputs.get("steps") is not None:  # evolve and continuum
        n = inputs["h"].shape[0]
        check("params.snapshot_every", _check_rows, inputs["steps"],
              params.get("snapshot_every", 1), n,
              len(_evolve_header(n)) if command == "evolve" else len(CONTINUUM_HEADER))
    return problems, inputs


def validate_config(cfg: dict) -> list:
    """All schema and physics violations, without executing the scenario."""
    return [str(exc) for exc in _preflight(cfg)[0]]


# ---------------------------------------------------------------------------
# command execution


def _finite_table(table):
    """``table``, a CSV artifact; NonFinite if a cell is not finite.

    A derived column can overflow while the state it is computed from is finite.
    """
    rows = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if rows.size:
        raise NonFinite(f"a derived column leaves the float range at t={table[rows[0], 0]:.6g}")
    return table


def _initial_state(system, inputs, params, seed):
    """The state pair of a config; ``system`` is read only if phibar0 is not given."""
    psi0, phibar0 = inputs.get("psi0"), inputs.get("phibar0")
    if psi0 is None:  # numpy.random is imported only here
        n = inputs["h"].shape[0]
        rng = np.random.default_rng(seed)
        psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi0 /= np.linalg.norm(psi0)
    hbar = params.get("hbar", 1.0)
    if phibar0 is None:
        return dynamics.initial_state(system, psi0, params.get("csq"), hbar)
    return dynamics.StatePair(psi=psi0, phibar=phibar0, hbar=hbar)


def _run_decompose(inputs, params, seed):
    system = spectral.biorthogonal_decompose(inputs["h"],
                                             tol=params.get("tol", spectral.DEFAULT_TOL))
    report = {
        "n": system.n,
        "eigenvalues_re": system.eigenvalues.real.tolist(),
        "eigenvalues_im": system.eigenvalues.imag.tolist(),
        "biorthonormality_residual": spectral.biorthonormality_residual(system),
        "completeness_residual": spectral.completeness_residual(system),
        "condition_number": system.cond,
        "spectrum_is_real": spectral.spectrum_is_real(system),
    }
    return report


def _evolve_header(n: int) -> list:
    return ["t", *(f"{field}{k}_{part}" for field in ("psi", "phibar")
                   for k in range(n) for part in ("re", "im")),
            "overlap_re", "overlap_im", "right_norm"]


def _run_evolve(inputs, params, seed):
    # the preflight decomposed h and built state0; for exact it checked the last record
    h, state0, steps = inputs["h"], inputs["state0"], inputs["steps"]
    dt = params["dt"]
    every = params.get("snapshot_every", 1)
    if params["method"] == "rk4":
        # the preflight ran the step guard, so the maps are built without it
        maps = dynamics._step_maps(h, dt, state0.hbar, steps, every)
        traj = dynamics.rk4_trajectory(h, state0, dt, steps, record_every=every, _maps=maps)
    else:
        durations = dynamics.record_steps(steps, every) * dt
        traj = dynamics.exact_records(inputs["system"], state0, durations)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite_table
        overlap = dynamics.overlap(traj)
    # a complex row viewed as floats is re, im per component: the header's order
    return _evolve_header(h.shape[0]), _finite_table(np.column_stack(
        [traj.t, traj.psi.view(float), traj.phibar.view(float), overlap.real, overlap.imag,
         dynamics.right_norm(traj)]))


def _run_verify(inputs, params, seed):
    h = inputs["h"]
    system = spectral.biorthogonal_decompose(h)
    state = _initial_state(system, inputs, params, seed)
    report = canonical.canonical_report(h, state, system,
                                        params.get("fd_step", canonical.FD_STEP))
    payload = {
        "n": h.shape[0],
        "hamiltonian_value_re": report.hamiltonian_value.real,
        "hamiltonian_value_im": report.hamiltonian_value.imag,
        "modal_value_re": report.modal_value.real,
        "modal_value_im": report.modal_value.imag,
        "rhs_mismatch": report.rhs_mismatch,
        "grad_mismatch": report.grad_mismatch,
    }
    return payload


def _run_sweep(inputs, params, seed):
    path = inputs["path"]
    state0 = lorentzian.initial_sweep_state(path, params["csq"],
                                            hbar=params.get("hbar", 1.0))
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite_table
        record = lorentzian.sweep_adiabatic(path, state0, dt=params["dt"])
    header = ["t", "I_1", "I_2", "deviation_1", "deviation_2", "overlap_re", "overlap_im"]
    return header, _finite_table(np.column_stack(
        [record.times, record.actions.real, record.deviations,
         record.overlaps.real, record.overlaps.imag]))


def _continuum_setup(params, tables):
    config = continuum.ContinuumConfig(
        L=params["L"], N=params["N"],
        m=params.get("m", 1.0), hbar=params.get("hbar", 1.0))
    x = config.grid()
    pot = params["potential"]
    if pot["kind"] == "complex_gaussian":
        missing = [k for k in ("center", "width") if k not in pot]
        if missing:
            raise ConfigError(f"params.potential: missing {', '.join(missing)}")
        amp = pot.get("amp_re", 0.0) + 1j * pot.get("amp_im", 0.0)
        V = continuum.complex_gaussian_potential(x, pot["center"], pot["width"], amp)
    else:
        V = tables["potential"]

    init = params["psi0"]
    if init["kind"] == "gaussian":
        missing = [k for k in ("center", "width") if k not in init]
        if missing:
            raise ConfigError(f"params.psi0: missing {', '.join(missing)}")
        psi0 = continuum.gaussian_packet(x, init["center"], init["width"],
                                         init.get("momentum", 0.0), config.hbar)
    elif init["kind"] == "plane_wave":
        if "mode" not in init:
            raise ConfigError("params.psi0: missing mode")
        psi0 = continuum.plane_wave(config, init["mode"])
        psi0 = psi0 / np.sqrt(np.sum(np.abs(psi0) ** 2) * config.dx)
    else:
        psi0 = tables["psi0"]
    norm = np.sum(np.abs(psi0) ** 2)
    if not (np.all(np.isfinite(psi0)) and 0.0 < norm < np.inf):
        raise ConfigError("params.psi0: the initial state must have finite entries and a "
                          "finite nonzero norm on the grid")
    return config, V, psi0


CONTINUUM_HEADER = ["t", "Q_re", "Q_im", "continuity_residual", "right_norm"]


def _run_continuum(inputs, params, seed):
    config, h, steps, dt = inputs["config"], inputs["h"], inputs["steps"], params["dt"]
    every = params.get("snapshot_every", 1)
    state0 = _initial_state(spectral.biorthogonal_decompose(h), inputs, params, seed)
    # the preflight ran the step guard, so the maps are built without it
    maps = dynamics._step_maps(h, dt, config.hbar, steps, every)
    snaps = dynamics.rk4_trajectory(h, state0, dt, steps, record_every=every, _maps=maps)
    # the time stencil of a row needs equal gaps: not the end rows, nor the
    # row before a shorter last interval
    gaps = np.diff(dynamics.record_steps(steps, every))
    last = len(snaps) - 1 if gaps[-1] == gaps[0] else len(snaps) - 2
    resid = np.zeros(len(snaps))
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite_table
        q = continuum.lattice_charge(snaps, config.dx)
        if last > 1:
            resid[1:last] = continuum.continuity_residuals(snaps[:last + 1], config)
        norm = dynamics.right_norm(snaps) * config.dx
    table = _finite_table(np.column_stack([snaps.t, q.real, q.imag, resid, norm]))
    table[[0, *range(last, len(snaps))], 3] = np.nan  # no time stencil there
    return CONTINUUM_HEADER, table


_RUNNERS = {
    "decompose": _run_decompose,
    "evolve": _run_evolve,
    "verify": _run_verify,
    "sweep": _run_sweep,
    "continuum": _run_continuum,
}


def run_config(cfg: dict, out_dir) -> Path:
    """Check and execute a scenario config; returns the artifact path.

    A config with problems is not run: if all are physics ones the first is
    raised with its own code, else one ConfigError lists them all.
    """
    problems, inputs = _preflight(cfg)
    if problems:
        if all(isinstance(p, ComputeError) for p in problems):
            raise problems[0]
        raise ConfigError("; ".join(map(str, problems)))
    command = cfg["command"]
    # a report, or (header, table)
    artifact = _RUNNERS[command](inputs, cfg["params"], cfg.get("seed", 0))
    out_path = Path(out_dir) / cfg.get("output", DEFAULT_OUTPUT[command])
    if isinstance(artifact, dict):
        io.write_json(out_path, artifact)
    else:
        io.write_csv(out_path, *artifact)
    return out_path


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="biham",
        description="Scenario runner for biorthogonal non-Hermitian dynamics.")
    parser.add_argument("command", choices=COMMANDS, help="scenario to run")
    parser.add_argument("--config", required=True, help="JSON scenario config")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--validate-only", action="store_true",
                        help="report diagnostics without executing")
    return parser


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.get("command") != args.command:
            raise ConfigError(
                f"config command {cfg.get('command')!r} does not match "
                f"subcommand {args.command!r}")
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.validate_only:
            diagnostics = validate_config(cfg)
            print(json.dumps(diagnostics, indent=2))
            return 0 if not diagnostics else 2
        run_config(cfg, args.out)
        return 0
    except ConfigError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except ComputeError as exc:
        _emit_error(exc.code, str(exc))
        return 3
    except (IoError, OSError) as exc:
        code = exc.code if isinstance(exc, IoError) else "io_error"
        _emit_error(code, str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
