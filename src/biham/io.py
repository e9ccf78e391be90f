"""Serialization helpers: matrix/state JSON forms, CSV emission, atomic writes.

Complex values are always serialized as separate re/im parts.  Floats are
rendered with ``repr`` (shortest round-trip form), which makes artifacts
byte-identical across runs of the same build.
"""

import json
import os
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, IoError


def _complex_from_json(obj, shape: tuple) -> np.ndarray:
    """``re + 1j*im`` of ``obj``, each part a ``shape`` grid of finite JSON numbers.

    Booleans and numeric strings, which ``np.asarray`` would coerce, are refused.
    """
    parts = []
    for key in ("re", "im"):
        try:  # a missing part, a ragged row or an int beyond float range fails here
            part = np.asarray(obj[key], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: not a grid of numbers: {exc}") from exc
        if part.shape != shape:
            raise ConfigError(f"{key}: shape must be {shape}, got {part.shape}")
        flat = list(chain.from_iterable(obj[key])) if len(shape) == 2 else obj[key]
        if not set(map(type, flat)) <= {int, float}:
            bad = next(v for v in flat if type(v) not in (int, float))
            raise ConfigError(f"{key}: entries must be JSON numbers, got {bad!r}")
        if not np.all(np.isfinite(part)):  # before 1j*inf makes a nan and a warning
            raise ConfigError(f"{key}: entries must be finite")
        parts.append(part)
    return parts[0] + 1j * parts[1]


def matrix_from_json(obj) -> np.ndarray:
    """Parse a {"n": int, "re": [[...]], "im": [[...]]} row-major matrix."""
    try:
        n = int(obj["n"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed matrix object: {exc}") from exc
    return _complex_from_json(obj, (n, n))


def vector_from_json(obj, n: int) -> np.ndarray:
    """Parse a {"re": [...], "im": [...]} complex vector of length ``n``."""
    return _complex_from_json(obj, (n,))


# atomic_write_text's temp file is .<name>.<8 random characters>.tmp, beside the
# target; a file name holds at most 255 bytes, so this bounds the target's name
MAX_NAME_BYTES = 255 - len("..12345678.tmp")


def atomic_write_text(path, chunks) -> None:
    """Write an iterable of text chunks via a temp file in the target directory, then rename."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# cells of a CSV artifact above this are refused before the run
MAX_CSV_CELLS = 2 ** 24
# rows that write_csv formats at a time, each cell a Python float and its text (~100 bytes)
_CSV_BLOCK = 4096


def write_csv(path, header, table) -> None:
    """Emit a CSV artifact atomically: ``header``, then the float ``table`` by row blocks."""
    blocks = (table[lo:lo + _CSV_BLOCK].tolist() for lo in range(0, len(table), _CSV_BLOCK))
    lines = ("\n".join(",".join(map(repr, row)) for row in block) + "\n" for block in blocks)
    atomic_write_text(path, chain([",".join(header) + "\n"], lines))


def write_json(path, obj) -> None:
    """Emit a JSON artifact atomically with sorted keys."""
    atomic_write_text(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


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
        # decoded and parsed as json.loads does, without holding the bytes during the parse
        text = data.decode(json.detect_encoding(data), "surrogatepass")
        del data
        return json.JSONDecoder(parse_constant=_reject_constant).decode(text)
    except ValueError as exc:  # malformed, undecodable, or a rejected constant
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
