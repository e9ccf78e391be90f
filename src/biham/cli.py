"""Config-driven scenario runner.

Usage: ``biham <command> --config <file> --out <dir> [--seed N] [--validate-only]``
with commands decompose, evolve, verify, sweep, continuum.  Configs are JSON
documents ``{"command": ..., "params": {...}, "output": ..., "seed": ...}``;
unknown fields are rejected.  Artifacts (CSV time series, JSON reports) are
written atomically and are byte-identical across runs for a fixed config and
seed.  Exit codes: 0 ok, 2 config error, 3 compute error, 4 io error.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import canonical, continuum, dynamics, io, lorentzian, spectral
from .errors import ComputeError, ConfigError, IoError

log = logging.getLogger("biham")

COMMANDS = ("decompose", "evolve", "verify", "sweep", "continuum")

DEFAULT_OUTPUT = {
    "decompose": "decompose.json",
    "evolve": "trajectory.csv",
    "verify": "canonical.json",
    "sweep": "sweep.csv",
    "continuum": "continuum.csv",
}

_NUMBER_GRID = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
_NUMBER_LIST = {"type": "array", "items": {"type": "number"}}

MATRIX_SCHEMA = {
    "type": "object",
    "required": ["n", "re", "im"],
    "additionalProperties": False,
    "properties": {"n": {"type": "integer", "minimum": 1},
                   "re": _NUMBER_GRID, "im": _NUMBER_GRID},
}

VECTOR_SCHEMA = {
    "type": "object",
    "required": ["re", "im"],
    "additionalProperties": False,
    "properties": {"re": _NUMBER_LIST, "im": _NUMBER_LIST},
}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

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
            "csq": {"type": "array", "items": {"type": "number", "minimum": 0}},
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
                    "x0": {"type": "number"}, "y0": {"type": "number"},
                    "z0": {"type": "number"}, "x1": {"type": "number"},
                    "y1": {"type": "number"}, "z1": {"type": "number"},
                    "interpolation": {"enum": ["linear"]},
                },
            },
            "T": _POSITIVE,
            "dt": _POSITIVE,
            "csq": {"type": "array", "minItems": 2, "maxItems": 2,
                    "items": {"type": "number", "minimum": 0}},
            "samples": {"type": "integer", "minimum": 2},
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
                    "center": {"type": "number"},
                    "width": _POSITIVE,
                    "amp_re": {"type": "number"},
                    "amp_im": {"type": "number"},
                    "re": _NUMBER_LIST,
                    "im": _NUMBER_LIST,
                },
            },
            "psi0": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["gaussian", "plane_wave", "table"]},
                    "center": {"type": "number"},
                    "width": _POSITIVE,
                    "momentum": {"type": "number"},
                    "mode": {"type": "integer"},
                    "re": _NUMBER_LIST,
                    "im": _NUMBER_LIST,
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


def _schema_diagnostics(cfg: dict, command: str):
    validator = jsonschema.Draft202012Validator(config_schema(command))
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(map(str, e.absolute_path)))
    out = []
    for err in errors:
        where = ".".join(str(p) for p in err.absolute_path) or "(root)"
        out.append(f"{where}: {err.message}")
    return out


def _diagnose(where, check, *args) -> list:
    """Run one library check; its typed error comes back with ``where`` prefixed."""
    try:
        check(*args)
    except (ConfigError, ComputeError) as exc:
        return [type(exc)(f"{where}: {exc}")]
    return []


def _horizon_steps(params) -> int:
    """Number of ``dt`` steps ending at ``t_final``; ConfigError if none does (to 1e-9)."""
    t_final, dt = params["t_final"], params["dt"]
    ratio = t_final / dt
    if not np.isfinite(ratio):
        raise ConfigError(f"t_final/dt = {ratio} is not a finite step count")
    steps = max(1, round(ratio))
    if abs(steps * dt - t_final) > 1e-9 * t_final:
        raise ConfigError(f"t_final = {t_final!r} is not a whole number of steps dt = {dt!r}: "
                          f"{steps} steps end at t = {steps * dt!r}")
    return steps


def _problems(cfg: dict) -> list:
    """Every violation as a typed error; physics ones are those the run itself raises."""
    command = cfg.get("command")
    if command not in COMMANDS:
        return [ConfigError(f"command: must be one of {', '.join(COMMANDS)}, got {command!r}")]
    diags = _schema_diagnostics(cfg, command)
    if diags:
        return [ConfigError(d) for d in diags]
    params = cfg["params"]
    hbar = params.get("hbar", 1.0)
    problems = []

    if command in ("decompose", "evolve", "verify"):
        try:
            h = io.matrix_from_json(params["matrix"])
        except ConfigError as exc:
            return [ConfigError(f"params.matrix: {exc}")]
        n = h.shape[0]
        for key in ("psi0", "phibar0"):
            if key in params:
                problems += _diagnose(f"params.{key}", io.vector_from_json, params[key], n)

    if command == "evolve":
        if "phibar0" in params and "csq" in params:
            problems.append(ConfigError("params: phibar0 and csq are mutually exclusive"))
        if "csq" in params and len(params["csq"]) != n:
            problems.append(ConfigError(f"params.csq: expected {n} modal constants"))
        problems += _diagnose("params.t_final", _horizon_steps, params)
        if params["method"] == "rk4":
            problems += _diagnose("params.dt", dynamics.check_step, h, params["dt"], hbar)

    elif command == "sweep":
        path = _sweep_path(params)
        problems += _diagnose("params.dt", lorentzian.check_sweep_step, path, params["dt"], hbar)
        problems += _diagnose("params.path", lorentzian.check_real_regime, path)

    elif command == "continuum":
        try:
            config, V, psi0 = _continuum_setup(params)
        except ConfigError as exc:
            return [exc]
        except ValueError as exc:
            return [ConfigError(f"params: {exc}")]
        problems += _diagnose("params.t_final", _horizon_steps, params)
        problems += _diagnose("params.dt", dynamics.check_step,
                              continuum.discretize(config, V), params["dt"], config.hbar)

    return problems


def validate_config(cfg: dict) -> list:
    """All schema and physics violations, without executing the scenario."""
    return [str(exc) for exc in _problems(cfg)]


# ---------------------------------------------------------------------------
# command execution


def _state_columns(n):
    cols = ["t"]
    cols += [f"psi{k}_{part}" for k in range(n) for part in ("re", "im")]
    cols += [f"phibar{k}_{part}" for k in range(n) for part in ("re", "im")]
    cols += ["overlap_re", "overlap_im", "right_norm"]
    return cols


def _state_row(state):
    row = [state.t]
    for k in range(state.n):
        row += [state.psi[k].real, state.psi[k].imag]
    for k in range(state.n):
        row += [state.phibar[k].real, state.phibar[k].imag]
    q = dynamics.overlap(state)
    row += [q.real, q.imag, dynamics.right_norm(state)]
    return row


def _initial_state(system, params, n, rng=None):
    hbar = params.get("hbar", 1.0)
    if "psi0" in params:
        psi0 = io.vector_from_json(params["psi0"], n)
    else:
        psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi0 /= np.linalg.norm(psi0)
    if "phibar0" in params:
        phibar0 = io.vector_from_json(params["phibar0"], n)
    else:
        csq = np.asarray(params["csq"], dtype=float) if "csq" in params \
            else dynamics.default_modal_constants(system, psi0)
        phibar0 = dynamics.conjugate_field(system, psi0, csq)
    return dynamics.StatePair(psi=psi0, phibar=phibar0, hbar=hbar)


def _run_decompose(params, rng):
    h = io.matrix_from_json(params["matrix"])
    system = spectral.biorthogonal_decompose(h, tol=params.get("tol", spectral.DEFAULT_TOL))
    report = {
        "n": system.n,
        "eigenvalues_re": system.eigenvalues.real.tolist(),
        "eigenvalues_im": system.eigenvalues.imag.tolist(),
        "biorthonormality_residual": spectral.biorthonormality_residual(system),
        "completeness_residual": spectral.completeness_residual(system),
        "condition_number": system.cond,
        "spectrum_is_real": spectral.spectrum_is_real(system),
    }
    return ("json", report)


def _run_evolve(params, rng):
    h = io.matrix_from_json(params["matrix"])
    n = h.shape[0]
    system = spectral.biorthogonal_decompose(h)
    state0 = _initial_state(system, params, n, rng)
    dt = params["dt"]
    every = params.get("snapshot_every", 1)
    steps = _horizon_steps(params)
    if params["method"] == "rk4":
        snaps = dynamics.rk4_trajectory(h, state0, dt, steps, record_every=every)
    else:
        marks = list(range(0, steps + 1, every))
        if marks[-1] != steps:
            marks.append(steps)
        snaps = [dynamics.evolve_exact(system, state0, k * dt) for k in marks]
    return ("csv", (_state_columns(n), [_state_row(s) for s in snaps]))


def _run_verify(params, rng):
    h = io.matrix_from_json(params["matrix"])
    system = spectral.biorthogonal_decompose(h)
    state = _initial_state(system, params, h.shape[0], rng)
    report = canonical.canonical_report(
        h, state, system=system, fd_step=params.get("fd_step", canonical.FD_STEP))
    payload = {
        "n": h.shape[0],
        "hamiltonian_value_re": report.hamiltonian_value.real,
        "hamiltonian_value_im": report.hamiltonian_value.imag,
        "modal_value_re": report.modal_value.real,
        "modal_value_im": report.modal_value.imag,
        "rhs_mismatch": report.rhs_mismatch,
        "grad_mismatch": report.grad_mismatch,
    }
    return ("json", payload)


def _sweep_path(params):
    p = params["path"]
    return lorentzian.SweepPath.linear(
        (p["x0"], p["y0"], p["z0"]), (p["x1"], p["y1"], p["z1"]),
        T=params["T"], samples=params.get("samples", lorentzian.DEFAULT_SAMPLES))


def _run_sweep(params, rng):
    path = _sweep_path(params)
    state0 = lorentzian.initial_sweep_state(path, params["csq"],
                                            hbar=params.get("hbar", 1.0))
    record = lorentzian.sweep_adiabatic(path, state0, dt=params["dt"])
    header = ["t", "I_1", "I_2", "deviation_1", "deviation_2", "overlap_re", "overlap_im"]
    rows = []
    for k in range(len(record.times)):
        rows.append([
            record.times[k],
            record.actions[k, 0].real, record.actions[k, 1].real,
            record.deviations[k, 0], record.deviations[k, 1],
            record.overlaps[k].real, record.overlaps[k].imag,
        ])
    return ("csv", (header, rows))


def _continuum_setup(params):
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
        V = io.vector_from_json(pot, config.N)

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
        psi0 = io.vector_from_json(init, config.N)
    return config, V, psi0


def _run_continuum(params, rng):
    config, V, psi0 = _continuum_setup(params)
    field0 = continuum.initial_lattice_state(config, V, psi0)
    dt = params["dt"]
    every = params.get("snapshot_every", 1)
    steps = _horizon_steps(params)
    snaps = continuum.evolve_lattice(config, field0, dt, steps, record_every=every)
    header = ["t", "Q_re", "Q_im", "continuity_residual", "right_norm"]
    rows = []
    for k, snap in enumerate(snaps):
        q = continuum.lattice_charge(snap, config.dx)
        if 0 < k < len(snaps) - 1:
            resid = continuum.continuity_residual(snaps[k - 1:k + 2], config)
        else:
            resid = float("nan")
        norm = float(np.real(np.vdot(snap.psi, snap.psi))) * config.dx
        rows.append([snap.t, q.real, q.imag, resid, norm])
    return ("csv", (header, rows))


_RUNNERS = {
    "decompose": _run_decompose,
    "evolve": _run_evolve,
    "verify": _run_verify,
    "sweep": _run_sweep,
    "continuum": _run_continuum,
}


def run_config(cfg: dict, out_dir) -> Path:
    """Execute a validated scenario config; returns the artifact path."""
    command = cfg["command"]
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    log.info("running %s (seed %d)", command, seed)
    kind, payload = _RUNNERS[command](cfg["params"], rng)
    out_path = Path(out_dir) / cfg.get("output", DEFAULT_OUTPUT[command])
    if kind == "json":
        io.write_json(out_path, payload)
    else:
        header, rows = payload
        io.write_csv(out_path, header, rows)
    log.info("wrote %s", out_path)
    return out_path


# ---------------------------------------------------------------------------
# entry point


def _configure_logging():
    level = os.environ.get("BIHAM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biham",
        description="Scenario runner for biorthogonal non-Hermitian dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run a {name} scenario")
        cmd.add_argument("--config", required=True, help="JSON scenario config")
        cmd.add_argument("--out", default=".", help="output directory (default: .)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--validate-only", action="store_true",
                         help="report diagnostics without executing")
    return parser


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.get("command") != args.command:
            raise ConfigError(
                f"config command {cfg.get('command')!r} does not match "
                f"subcommand {args.command!r}")
        if args.seed is not None:
            cfg["seed"] = args.seed
        diagnostics = validate_config(cfg)
        if args.validate_only:
            print(json.dumps(diagnostics, indent=2))
            return 0 if not diagnostics else 2
        if diagnostics:
            # a physics-only failure keeps the code the run would have raised
            problems = _problems(cfg)
            if all(isinstance(p, ComputeError) for p in problems):
                raise problems[0]
            raise ConfigError("; ".join(diagnostics))
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
