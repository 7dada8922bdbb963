"""Round-3 regression tests for the ADVICE.md findings.

Each test pins one previously-reproduced defect:
- poison-row retry transaction scoping (sqlite + duckdb)
- string filter values against STRING columns (no int coercion)
- lake CLI mutating commands take the writer flock, and load the
  manifest inside it
- ${var}-stringified speed limits parse
- OFFSET/LIMIT splitMode rejects loudly
"""

import sqlite3

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _poison_job_ds(n_good_first=50, dup_id=10):
    """Two-block dataset whose SECOND block contains a duplicate PK:
    block 1 = ids 0..49, block 2 = ids 50..98 plus a repeat of dup_id
    placed mid-block so rows before it have already hit the insert."""
    import ray.data as rd

    first = [{"id": i, "val": float(i)} for i in range(n_good_first)]
    second = [{"id": i, "val": float(i)} for i in range(n_good_first, 75)]
    second.append({"id": dup_id, "val": -1.0})  # poison: PK conflict
    second += [{"id": i, "val": float(i)} for i in range(75, 99)]
    return rd.from_blocks([pa.Table.from_pylist(first),
                           pa.Table.from_pylist(second)])


def test_sqlite_poison_row_keeps_prior_batches(tmp_path):
    """ADVICE high: con.rollback() on sqlite used to abort the
    connection-wide implicit transaction, silently discarding ALL
    previously written batches while `records` still counted them."""
    from go_datax_ray.sources.sqldb import write

    db = str(tmp_path / "d.db")
    ds = _poison_job_ds()
    res = write(ds, {
        "path": db, "table": "t", "writeMode": "insert",
        "preSql": "CREATE TABLE t (id INTEGER PRIMARY KEY, val REAL)",
    })
    with sqlite3.connect(db) as con:
        rows, distinct = con.execute(
            "SELECT count(*), count(DISTINCT id) FROM t").fetchone()
    # 99 distinct ids survive; the one duplicate is the only error
    assert (rows, distinct) == (99, 99)
    assert res["records"] == 99
    assert res["error_records"] == 1
    # block-1 rows specifically must NOT have vanished
    with sqlite3.connect(db) as con:
        assert con.execute(
            "SELECT count(*) FROM t WHERE id < 50").fetchone()[0] == 50


def test_duckdb_poison_row_no_duplicates(tmp_path):
    """ADVICE high: duckdb autocommit meant rollback no-opped and the
    per-row retry re-inserted rows already committed before the poison
    row, duplicating them."""
    import duckdb

    from go_datax_ray.sources.sqldb import write

    db = str(tmp_path / "d.duckdb")
    ds = _poison_job_ds()
    res = write(ds, {
        "path": db, "driver": "duckdb", "table": "t", "writeMode": "insert",
        "preSql": "CREATE TABLE t (id BIGINT PRIMARY KEY, val DOUBLE)",
    })
    con = duckdb.connect(db)
    rows, distinct = con.execute(
        "SELECT count(*), count(DISTINCT id) FROM t").fetchone()
    con.close()
    assert (rows, distinct) == (99, 99)
    assert res["records"] == 99
    assert res["error_records"] == 1


def test_string_filter_value_stays_string(tmp_path):
    """ADVICE medium: [["sku","==","007"]] must bind as the string
    '007', not int 7 — numeric coercion only applies to numeric cols."""
    from go_datax_ray.sources.parquet import read

    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({
        "sku": pa.array(["007", "7", "008", "42"]),
        "qty": pa.array([1, 2, 3, 4], pa.int64()),
    }), p)
    out = read({"path": p, "where": [["sku", "==", "007"]]}).take_all()
    assert [r["sku"] for r in out] == ["007"]
    # numeric column still coerces a stringified value ("${var}" path)
    out2 = read({"path": p, "where": [["qty", ">=", "3"]]}).take_all()
    assert sorted(r["qty"] for r in out2) == [3, 4]


def test_lake_cli_gc_respects_writer_lock(tmp_path):
    """ADVICE medium: gc-orphans must take the same flock the replay
    takes; concurrently with an in-flight replay it used to delete the
    uncommitted epoch's merge outputs."""
    from go_datax_ray.lake_cli import main
    from go_datax_ray.state.fs import writer_lock

    lake = str(tmp_path / "lake")
    with writer_lock(lake):  # simulate an in-flight replay
        with pytest.raises(RuntimeError, match="writer lock"):
            main(["gc-orphans", lake])


def test_lake_cli_gc_loads_manifest_inside_lock(tmp_path, monkeypatch):
    """gc-orphans must load the manifest inside the writer lock. A replay
    that commits epoch E+1 and releases the lock between an early load
    and the lock left gc with stale partitions, and lineage() drops the
    records above the stale epoch, so E+1's live files were deleted."""
    import contextlib
    import os

    from go_datax_ray.lake_cli import main
    from go_datax_ray.sinks import lake as sinks_lake
    from go_datax_ray.state.manifest import Manifest, final_path

    lake = str(tmp_path / "lake")

    def commit(epoch: int) -> None:
        man = Manifest.load(lake)
        man.num_partitions = 2
        man.fsh.write_parquet(pa.table({"url": [f"u{epoch}"], "lsn": [epoch]}),
                              final_path(lake, 0, epoch))
        man.commit_epoch(epoch, epoch, epoch,
                         [{"pid": 0, "rows": 1, "events": 1, "max_lsn": epoch}],
                         schema_json="", wall_s=0.0)

    commit(0)
    real_lock = sinks_lake.writer_lock

    @contextlib.contextmanager
    def lock_after_a_commit(lake_dir):
        commit(1)  # a replay commits one more epoch and releases the lock
        with real_lock(lake_dir):
            yield

    monkeypatch.setattr(sinks_lake, "writer_lock", lock_after_a_commit)
    assert main(["gc-orphans", lake]) == 0
    files = Manifest.load(lake).committed_files()
    assert files and all(os.path.exists(f) for f in files)


def test_speed_limit_accepts_stringified_values():
    """ADVICE low: ${var} substitution stringifies all values, so
    speed.record == "5000" must parse, not TypeError."""
    from go_datax_ray.config import JobConfig

    job = {
        "job": {
            "setting": {"speed": {"channel": "2", "record": "${rate}",
                                  "byte": "1048576"}},
            "content": [{
                "reader": {"name": "streamreader", "parameter": {}},
                "writer": {"name": "streamwriter", "parameter": {}},
            }],
        }
    }
    cfg = JobConfig.from_dict(job, variables={"rate": "5000"})
    assert cfg.channel == 2
    assert cfg.speed_record == 5000
    assert cfg.speed_byte == 1048576


def test_offset_split_mode_rejected():
    """VERDICT #10: OFFSET/LIMIT split (mysql_reader.go:386-429) is
    deliberately unsupported — reject loudly, never silently single-query."""
    from go_datax_ray.sources.sqldb import read

    with pytest.raises(ValueError, match="OFFSET/LIMIT"):
        read({"path": "/tmp/nonexistent.db", "table": "t",
              "splitMode": "offset"})
