"""Columnar result tables: mmap round trip, zero-copy reads, schemas."""

from __future__ import annotations

import pytest

from repro.stats import ColumnarTable

SCHEMA = [("key", "str"), ("connections", "i64"), ("events_per_s", "f64")]


def _sample_table() -> ColumnarTable:
    table = ColumnarTable(SCHEMA)
    table.append(key="epoll_100", connections=100, events_per_s=61234.5)
    table.append(key="epoll_10000", connections=10000, events_per_s=59876.25)
    table.append(key="", connections=0, events_per_s=0.0)  # empty string ok
    return table


def test_round_trip(tmp_path):
    path = str(tmp_path / "points.tbl")
    table = _sample_table()
    size = table.write(path)
    assert size % 8 == 0

    loaded = ColumnarTable.open(path)
    assert loaded.schema == table.schema
    assert len(loaded) == len(table) == 3
    assert list(loaded.rows()) == list(table.rows())
    # Numeric columns come back as typed zero-copy views.
    assert loaded.column("connections")[1] == 10000
    assert loaded.column("events_per_s")[0] == 61234.5
    assert loaded.column("key")[1] == "epoll_10000"
    assert list(loaded.column("key")) == ["epoll_100", "epoll_10000", ""]
    loaded.close()


def test_empty_table_round_trip(tmp_path):
    path = str(tmp_path / "empty.tbl")
    ColumnarTable(SCHEMA).write(path)
    loaded = ColumnarTable.open(path)
    assert len(loaded) == 0
    assert list(loaded.rows()) == []
    loaded.close()


def test_schema_validation():
    with pytest.raises(ValueError):
        ColumnarTable([])
    with pytest.raises(ValueError):
        ColumnarTable([("x", "u8")])
    table = ColumnarTable([("a", "i64")])
    with pytest.raises(KeyError):
        table.append(b=1)
    with pytest.raises(ValueError):
        table.append(a=1, b=2)


def test_mapped_table_is_read_only(tmp_path):
    path = str(tmp_path / "ro.tbl")
    _sample_table().write(path)
    loaded = ColumnarTable.open(path)
    with pytest.raises(TypeError):
        loaded.append(key="x", connections=1, events_per_s=1.0)
    loaded.close()


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "junk.tbl")
    with open(path, "wb") as fh:
        fh.write(b"\x00" * 64)
    with pytest.raises(ValueError):
        ColumnarTable.open(path)


def test_cross_process_read_without_pickling(tmp_path):
    """A worker writes the table; the parent maps it — no pickle either way."""
    import multiprocessing

    path = str(tmp_path / "xproc.tbl")

    def produce(out_path):
        table = ColumnarTable(SCHEMA)
        for index in range(1000):
            table.append(
                key=f"row{index}", connections=index, events_per_s=index * 1.5
            )
        table.write(out_path)

    ctx = multiprocessing.get_context()
    proc = ctx.Process(target=produce, args=(path,))
    proc.start()
    proc.join()
    assert proc.exitcode == 0

    loaded = ColumnarTable.open(path)
    assert len(loaded) == 1000
    assert loaded.column("connections")[999] == 999
    assert loaded.column("key")[42] == "row42"
    loaded.close()


def test_bench_points_table():
    """bench scale's per-point rows flatten into the fixed schema."""
    from repro.experiments.bench_scale import points_table

    result = {
        "points": {
            "epoll_500": {
                "workload": "epoll", "connections": 500, "wall_s": 0.5,
                "sim_seconds": 0.1, "events": 1000, "events_per_s": 2000.0,
                "messages_delivered": 100, "bytes_delivered": 51200,
            },
            "epoll_500_auto": {
                "workload": "epoll", "connections": 500, "wall_s": 0.25,
                "sim_seconds": 0.1, "events": 400, "events_per_s": 1600.0,
                "messages_delivered": 100, "bytes_delivered": 51200,
                "fidelity": "auto",
            },
        }
    }
    table = points_table(result)
    assert len(table) == 2
    assert list(table.column("fidelity")) == ["packet", "auto"]
    assert table.column("bytes_delivered")[0] == 51200
