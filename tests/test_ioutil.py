import json

import numpy as np
import pytest

from defaultlab.errors import ConfigurationError
from defaultlab.ioutil import BlockTable, canonical_json, jsonable, write_csv, write_json
from row_writer import write_rows


def test_jsonable_numpy_types():
    out = jsonable(
        {
            "arr": np.arange(3.0),
            "int": np.int64(4),
            "flag": np.bool_(True),
            "x": np.float64(0.5),
            "nested": [np.float32(1.0), {"k": np.array([[1, 2]])}],
        }
    )
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["int"] == 4 and isinstance(out["int"], int)
    assert out["flag"] is True
    assert out["nested"][1]["k"] == [[1, 2]]
    json.dumps(out)


def test_jsonable_nonfinite_and_unknown():
    out = jsonable({"a": float("inf"), "b": float("-inf"), "c": float("nan")})
    assert out == {"a": "inf", "b": "-inf", "c": "nan"}
    with pytest.raises(ConfigurationError):
        jsonable({"bad": object()})


def test_canonical_json_key_order():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}


def test_write_json_and_csv(tmp_path):
    jp = tmp_path / "sub" / "report.json"
    write_json(str(jp), {"z": np.float64(1.5), "a": 2})
    text = jp.read_text()
    assert json.loads(text) == {"a": 2, "z": 1.5}
    assert text.index('"a"') < text.index('"z"')

    cp = tmp_path / "table.csv"
    write_csv(str(cp), ("name", "value", "ok"), [("x", 0.1, True), ("y", np.float64(2.0), False)])
    raw = cp.read_bytes().decode()
    lines = raw.split("\r\n")
    assert lines[0] == "name,value,ok"
    assert lines[1] == "x,0.1,1"
    assert lines[2] == "y,2.0,0"

    write_csv(str(cp), ("name",), [("x",)])
    assert cp.read_bytes().decode() == "name\r\nx\r\n"


EDGE = np.array([-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, np.nan, np.inf, -np.inf, -2.5e-300, 1.0])


def edge_blocks():
    return [
        ((np.int64(3), np.int32(7)), (np.arange(EDGE.size), EDGE)),
        ((True, 0), (np.array([-1, 2**40], dtype=np.int64), np.array([0, 255], dtype=np.uint8))),
        ((1, 2), (np.arange(0), np.empty(0))),
        ((), (np.arange(3), np.array([0.5, np.nan, -0.0], dtype=np.float32), EDGE[:3])),
    ]


def test_block_table_writes_the_row_writer_bytes(tmp_path):
    blocks = edge_blocks()
    rows = [tuple(lead) + row for lead, cols in blocks for row in zip(*cols)]
    header = ("a", "b", "c", "d")
    write_rows(str(tmp_path / "rows.csv"), header, rows)
    table = BlockTable(lambda: blocks)
    write_csv(str(tmp_path / "blocks.csv"), header, table)
    raw = (tmp_path / "blocks.csv").read_bytes()
    assert raw == (tmp_path / "rows.csv").read_bytes()
    assert len(table) == len(rows) == raw.count(b"\r\n") - 1
    # iterating twice formats the same blocks again
    assert "".join(table) == "".join(table) == raw.decode().split("\r\n", 1)[1]
    assert b"3,7,0,-0.0\r\n3,7,1,5e-324\r\n" in raw
    assert b"3,7,5,nan\r\n3,7,6,inf\r\n3,7,7,-inf\r\n" in raw


def test_block_table_refuses_what_it_cannot_spell(tmp_path):
    for columns in (
        (np.array([True, False]),),
        (np.array(["x", "y"]),),
        (np.zeros((2, 2)),),
        (np.arange(2), np.arange(3.0)),
    ):
        with pytest.raises(ConfigurationError):
            list(BlockTable(lambda: [((), columns)]))
    with pytest.raises(TypeError):
        list(BlockTable(lambda: [((0.5,), (np.arange(2),))]))
