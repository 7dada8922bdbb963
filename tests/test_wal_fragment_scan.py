"""Distributed WAL fragment-metadata scan (VERDICT r4 'what's wrong'
#3): past ``distribute_scan_after`` segments the per-epoch parquet
footer scan runs as a parallel task stage returning tiny (path, rg)
rows, not a serial driver loop — a 100 TB WAL is easily 10^5+ segments.
The distributed path must return EXACTLY the serial path's fragments,
in the same order, with the same lsn row-group pruning."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from go_datax_ray.pipelines.cdc_replay import ParquetWalSource, _scan_wal_footer


def _make_wal(tmp_path, n_files: int, rows_per_file: int = 40,
              rows_per_group: int = 10):
    wal = tmp_path / "wal"
    wal.mkdir()
    lo = 0
    for i in range(n_files):
        t = pa.table({
            "lsn": pa.array(np.arange(lo, lo + rows_per_file, dtype=np.int64)),
            "url": pa.array([f"u{j % 7}" for j in range(rows_per_file)]),
        })
        pq.write_table(t, wal / f"seg-{i:05d}.parquet",
                       row_group_size=rows_per_group)
        lo += rows_per_file
    return str(wal), lo


def test_distributed_scan_matches_serial(ray_session, tmp_path):
    wal, hi = _make_wal(tmp_path, n_files=50)
    src = ParquetWalSource(wal, 0, hi)
    lo, mid = 123, 987  # cuts across files and row groups
    serial = []
    for p in src._files():
        serial.extend(_scan_wal_footer(p, lo, mid))
    src.distribute_scan_after = 8  # force the task-stage path
    assert src.fragments(lo, mid) == serial
    # pruning really happened: only segments overlapping [123, 987)
    touched = {f["path"] for f in serial}
    assert 0 < len(touched) < 50


def test_small_wal_stays_driver_side(tmp_path):
    """Below the bound no Ray session is needed at all — the scan must
    not spin up a task stage for a handful of segments."""
    wal, hi = _make_wal(tmp_path, n_files=3)
    src = ParquetWalSource(wal, 0, hi)
    frags = src.fragments(0, hi)
    assert len(frags) == 3 * 4  # every row group listed
    assert frags == sorted(frags, key=lambda f: (f["path"], f["rg"]))


def test_replay_through_distributed_scan(ray_session, tmp_path):
    """End-to-end: a replay whose source is past the bound produces the
    same lake row count as the serial-scan replay."""
    from go_datax_ray.pipelines.cdc_replay import ReplayConfig, replay
    from go_datax_ray.sinks.lake import read_lake_table
    from go_datax_ray.synth import EventGen, SynthConfig

    cfg_s = SynthConfig(seed=9, n_urls=120)
    wal = tmp_path / "wal"
    wal.mkdir()
    lo = 0
    for i in range(20):
        t = EventGen(cfg_s)(pa.table({"id": np.arange(lo, lo + 100,
                                                      dtype=np.int64)}))
        pq.write_table(t, wal / f"seg-{i:05d}.parquet")
        lo += 100

    def run(lake, bound):
        src = ParquetWalSource(str(wal), 0, lo)
        src.distribute_scan_after = bound
        replay(src, ReplayConfig(lake_dir=lake, num_partitions=4,
                                 epoch_size=1000))
        return read_lake_table(lake).sort_by("url")

    a = run(str(tmp_path / "lake_serial"), 10_000)
    b = run(str(tmp_path / "lake_dist"), 4)
    assert a.equals(b)


def test_upsert_convenience_path_bounded(ray_session, tmp_path):
    """VERDICT r4 'what's wrong' #2: the parquet-sink upsert path
    materialises on the driver to assign dense lsns — the maxDriverRows
    bound must make an oversize load fail LOUDLY, not silently spool."""
    import pytest
    import ray.data as rd

    from go_datax_ray.sinks.parquet import write

    lake = str(tmp_path / "lake")
    t = pa.table({"k": [str(i) for i in range(500)],
                  "v": list(range(500))})
    param = {"path": lake, "writeMode": "upsert", "primaryKey": "k",
             "numPartitions": 4, "maxDriverRows": 100}
    with pytest.raises(ValueError, match="maxDriverRows"):
        write(rd.from_arrow(t), param)
    # within the bound the same load succeeds (and is idempotent)
    param["maxDriverRows"] = 1000
    assert write(rd.from_arrow(t), param)["records"] == 500


def test_multi_epoch_merge_matches_oracle_all_columns(ray_session, tmp_path):
    """The merge onto existing committed state, checked on EVERY column
    and the schema: a first replay commits state, a resumed multi-epoch
    replay with engine-derived text merges onto it, and the raw lake
    (tombstones included) equals the DuckDB LWW winners per url with
    text from ``synth.extract_text`` and part_id from the placement
    hash."""
    import duckdb

    from go_datax_ray.hashing import partition_ids
    from go_datax_ray.pipelines.cdc_replay import (
        ReplayConfig, SynthEventSource, replay)
    from go_datax_ray.schema import CDC_EVENT_SCHEMA
    from go_datax_ray.sinks.lake import read_lake_table
    from go_datax_ray.synth import EventGen, SynthConfig, extract_text

    scfg = SynthConfig(seed=11, n_urls=150)
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=800,
                       extract_text=True)
    assert replay(SynthEventSource(800, scfg), cfg).epochs == 1
    assert replay(SynthEventSource(2400, scfg), cfg).epochs == 2
    got = read_lake_table(lake, final_state=False).sort_by("url")

    events = EventGen(scfg)(pa.table({"id": np.arange(2400, dtype=np.int64)}))
    events = events.drop_columns(["text"])  # the engine derives it
    win = duckdb.sql(
        """
        SELECT * EXCLUDE (rn) FROM (
          SELECT *, row_number() OVER (PARTITION BY url ORDER BY warc_ts DESC, lsn DESC) rn
          FROM events
        ) WHERE rn = 1 ORDER BY url
        """
    ).arrow()
    want_schema = pa.schema(
        [f for f in CDC_EVENT_SCHEMA if f.name != "text"]
        + [pa.field("part_id", pa.int64()), pa.field("text", pa.large_string())]
    )
    html = win.column("html").to_pylist()
    want = pa.Table.from_pydict(
        {
            **{f.name: win.column(f.name) for f in CDC_EVENT_SCHEMA if f.name != "text"},
            "part_id": pa.array(partition_ids(win.column("url"), 4), pa.int64()),
            "text": pa.array([None if h is None else extract_text(h) for h in html],
                             pa.large_string()),
        }
    ).cast(want_schema)
    assert got.schema.equals(want_schema)
    assert got.num_rows == want.num_rows
    for name in want_schema.names:
        assert got.column(name).to_pylist() == want.column(name).to_pylist(), name


def test_fused_and_generic_prepare_identical(ray_session, tmp_path):
    """One prepare function: the same events through the fused
    ParquetWalSource row-group task and through the generic
    DatasetEventSource map give identical lakes (every column, schema)
    and identical per-epoch applied counts, with a row-dropping,
    column-rewriting transform and engine-derived text."""
    import pyarrow.compute as pc
    import ray.data as rd

    from go_datax_ray.pipelines.cdc_replay import (
        DatasetEventSource, ReplayConfig, replay)
    from go_datax_ray.sinks.lake import read_lake_table
    from go_datax_ray.synth import EventGen, SynthConfig

    events = EventGen(SynthConfig(seed=4, n_urls=200))(
        pa.table({"id": np.arange(3000, dtype=np.int64)}))
    wal = tmp_path / "wal"
    wal.mkdir()
    for i, lo in enumerate(range(0, 3000, 700)):
        pq.write_table(events.slice(lo, 700), wal / f"seg-{i:05d}.parquet",
                       row_group_size=300)

    def transform(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(pc.bit_wise_and(t.column("lsn"), 7), 3))
        return t.set_column(t.column_names.index("lang"), "lang",
                            pc.utf8_upper(t.column("lang")))

    def run(name, source):
        lake = str(tmp_path / name)
        res = replay(source, ReplayConfig(lake_dir=lake, num_partitions=4,
                                          epoch_size=1000, extract_text=True,
                                          transform=transform))
        return res, read_lake_table(lake, final_state=False).sort_by("url")

    res_f, fused = run("fused", ParquetWalSource(str(wal), 0, 3000))
    res_g, generic = run("generic",
                         DatasetEventSource(rd.from_arrow(events), 0, 3000))
    assert fused.num_rows > 0
    assert fused.schema.equals(generic.schema)
    assert fused.equals(generic)
    applied = [st["applied"] for st in res_f.epoch_stats]
    assert applied == [st["applied"] for st in res_g.epoch_stats]
    assert len(applied) == 3 and sum(applied) == pc.sum(pc.not_equal(
        pc.bit_wise_and(events.column("lsn"), 7), 3)).as_py()


def test_explicit_path_list_order_preserved(ray_session, tmp_path):
    """Review fix: with an explicit non-lexicographic path list, the
    distributed scan must return fragments in LIST order (the serial
    path's order), not sorted-string order."""
    wal, hi = _make_wal(tmp_path, n_files=12)
    import glob
    files = sorted(glob.glob(wal + "/*.parquet"))
    shuffled = files[::-1]  # caller-chosen order, reverse-lexicographic
    src = ParquetWalSource(shuffled, 0, hi)
    serial = []
    for p in src._files():
        serial.extend(_scan_wal_footer(p, 0, hi))
    src.distribute_scan_after = 4
    assert src.fragments(0, hi) == serial
