"""Serialization helpers: matrix/state JSON forms, CSV emission, atomic writes.

Complex values are always serialized as separate re/im parts.  Floats are
rendered with ``repr`` (shortest round-trip form), which makes artifacts
byte-identical across runs of the same build.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, IoError


def matrix_from_json(obj) -> np.ndarray:
    """Parse a {"n": int, "re": [[...]], "im": [[...]]} row-major matrix."""
    try:
        n = int(obj["n"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed matrix object: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ConfigError(
            f"matrix re/im must be {n}x{n}, got {re.shape} and {im.shape}"
        )
    h = re + 1j * im
    if not np.all(np.isfinite(h)):
        raise ConfigError("matrix entries must be finite")
    return h


def vector_from_json(obj, n: int = None) -> np.ndarray:
    """Parse a {"re": [...], "im": [...]} complex vector."""
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed vector object: {exc}") from exc
    if re.ndim != 1 or re.shape != im.shape:
        raise ConfigError("vector re/im must be equal-length 1-D arrays")
    if n is not None and re.shape[0] != n:
        raise ConfigError(f"vector must have length {n}, got {re.shape[0]}")
    v = re + 1j * im
    if not np.all(np.isfinite(v)):
        raise ConfigError("vector entries must be finite")
    return v


def fmt(value) -> str:
    """Deterministic text form of one scalar."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def atomic_write_text(path, text: str) -> None:
    """Write text via a temp file in the target directory, then rename."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Emit a CSV artifact atomically; every cell goes through :func:`fmt`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """Emit a JSON artifact atomically with sorted keys."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not allowed")


def read_json(path):
    """Parse a JSON file; the non-standard constants NaN and +-Infinity are rejected."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:  # malformed, undecodable, or a rejected constant
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
