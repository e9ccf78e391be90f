"""``io``'s file forms: block-wise CSV writes, atomic writes of text chunks, JSON reads."""

import codecs
import json

import numpy as np
import pytest

from biham import io
from biham.errors import ConfigError


def one_string_csv(header, table) -> str:
    """The CSV text as one string: the form written before rows went out in blocks."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in table.tolist())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [0, 1, io._CSV_BLOCK, 3 * io._CSV_BLOCK + 17])
def test_csv_blocks_have_the_bytes_of_one_string(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-300, 300, (rows, 5))
    if rows:
        table[0] = [0.0, -0.0, 1e-320, np.finfo(float).max, 0.1]
    header = ["t", "a", "b", "c", "d"]
    path = tmp_path / "out.csv"
    io.write_csv(path, header, table)
    assert path.read_bytes() == one_string_csv(header, table).encode()


class Boom(Exception):
    pass


def test_a_failing_chunk_leaves_no_file(tmp_path):
    def chunks():
        yield "first block\n"
        raise Boom

    path = tmp_path / "out.csv"
    with pytest.raises(Boom):
        io.atomic_write_text(path, chunks())
    assert list(tmp_path.iterdir()) == []


def test_a_failing_chunk_keeps_the_old_target(tmp_path):
    def chunks():
        yield "new\n"
        raise Boom

    path = tmp_path / "out.csv"
    io.atomic_write_text(path, ["old\n"])
    with pytest.raises(Boom):
        io.atomic_write_text(path, chunks())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old\n"


def loads_bytes(data):
    """``(value, error)`` of the file's bytes handed to ``json.loads``, as ``read_json`` did."""
    try:
        return json.loads(data, parse_constant=io._reject_constant), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("data", [
    codecs.BOM_UTF8 + b'{"command": "evolve", "params": {"dt": 0.1}}',
    codecs.BOM_UTF8 + codecs.BOM_UTF8 + b"{}",
    '{"output": "été.csv", "seed": 3}'.encode("utf-16"),
    '{"output": "x"}'.encode("utf-16-le"),
    '[1.5, "\U0001d4b3"]'.encode("utf-32"),
    b'{"command": "\xff"}',
    b'{"dt": NaN}',
    b"",
], ids=["utf8-bom", "two-boms", "utf16", "utf16-le", "utf32", "undecodable", "nan", "empty"])
def test_read_json_decodes_as_json_loads(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    value, error = loads_bytes(data)
    if error is None:
        assert io.read_json(path) == value
    else:
        with pytest.raises(ConfigError) as exc:
            io.read_json(path)
        assert str(exc.value) == f"{path} is not valid JSON: {error}"
