"""Casting matrix, speed reporter, hot-key skew, example jobs."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd


# ---------------------------------------------------------- casting matrix
def test_cast_date_to_long_unix_seconds():
    from go_datax_ray.stages.cast import cast_column

    ts = pa.array([1672531200_000_000, None], pa.timestamp("us"))  # 2023-01-01
    out = cast_column(ts, "long")
    assert out.to_pylist() == [1672531200, None]  # SECONDS (column.go:272-277)


def test_cast_date_to_string_fixed_format():
    from go_datax_ray.stages.cast import cast_column

    ts = pa.array([1672531200_000_000], pa.timestamp("us"))
    assert cast_column(ts, "string").to_pylist() == ["2023-01-01 00:00:00"]


def test_cast_bool_and_numeric():
    from go_datax_ray.stages.cast import cast_column

    b = pa.array([True, False, None], pa.bool_())
    assert cast_column(b, "long").to_pylist() == [1, 0, None]
    assert cast_column(b, "string").to_pylist() == ["true", "false", None]
    assert cast_column(b, "date").to_pylist() == [None, None, None]  # error cell
    lng = pa.array([0, 5, None], pa.int64())
    assert cast_column(lng, "bool").to_pylist() == [False, True, None]
    assert cast_column(lng, "date").to_pylist()[1].timestamp() == 5.0
    dbl = pa.array([1.5, 1e21], pa.float64())
    s = cast_column(dbl, "string").to_pylist()
    assert s[0] == "1.5" and "e" not in s[1].lower()  # never exponent


def test_cast_string_strict_vs_lenient():
    from go_datax_ray.stages.cast import cast_column

    s = pa.array(["12", "oops"], pa.string())
    with pytest.raises(pa.ArrowInvalid):
        cast_column(s, "long")
    out = cast_column(s, "long", lenient=True)
    assert out.to_pylist() == [12, 0]  # reader-lenient: bad parse -> 0


def test_cast_bytes_roundtrip():
    from go_datax_ray.stages.cast import cast_column

    b = pa.array([b"42"], pa.binary())
    assert cast_column(b, "string").to_pylist() == ["42"]
    assert cast_column(b, "long").to_pylist() == [42]


# ------------------------------------------------------------- reporter
def test_speed_reporter_emits_lines():
    from go_datax_ray.state.metrics import get_metrics_actor
    from go_datax_ray.state.reporter import SpeedReporter
    import ray

    metrics = get_metrics_actor("gdr_test_reporter")
    ray.get(metrics.inc.remote("partition/0/events", 500))
    ray.get(metrics.inc.remote("partition/1/events", 300))
    lines: list[str] = []
    with SpeedReporter(metrics, report_interval_s=3600, emit=lines.append):
        pass  # exit emits the final delta report
    assert len(lines) == 1
    assert "partition 0" in lines[0] and "events/s" in lines[0]


# ------------------------------------------------------------- skew
def test_hot_key_skew_correctness(tmp_path):
    """50% of events hit ONE url: combiner collapses them per batch, the
    merge LWWs the rest — final state must match the oracle."""
    import duckdb

    from go_datax_ray.pipelines.cdc_replay import DatasetEventSource, ReplayConfig, replay
    from go_datax_ray.sinks.lake import read_lake_table
    from go_datax_ray.synth import CDC_EVENT_SCHEMA

    n = 4000
    rng = np.random.default_rng(4)
    urls = np.where(
        rng.random(n) < 0.5,
        "https://hot.example.org/the-one",
        np.array([f"https://cold.example.org/{i % 333}" for i in range(n)]),
    )
    events = pa.Table.from_pydict(
        {
            "lsn": pa.array(np.arange(n), pa.int64()),
            "src_offset": pa.array(np.arange(n), pa.int64()),
            "op": pa.array(["I"] * n, pa.string()),
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(rng.integers(0, 1000, n) * 1_000_000, pa.timestamp("us")),
            "html": pa.array([b"<p>x</p>"] * n, pa.large_binary()),
            "text": pa.array(["x"] * n, pa.large_string()),
            "lang": pa.array(["en"] * n, pa.string()),
        },
        schema=CDC_EVENT_SCHEMA,
    )
    lake = str(tmp_path / "lake")
    replay(DatasetEventSource(rd.from_arrow(events), 0, n),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000))
    got = read_lake_table(lake).select(["url", "lsn"]).sort_by("url")
    want = duckdb.sql(
        """
        SELECT url, lsn FROM (
          SELECT *, row_number() OVER (PARTITION BY url ORDER BY warc_ts DESC, lsn DESC) rn
          FROM events) WHERE rn = 1 ORDER BY url
        """
    ).arrow()
    assert got.column("lsn").to_pylist() == want.column("lsn").to_pylist()


# ------------------------------------------------------------- examples
def test_example_jobs_run():
    from go_datax_ray.engine import run_job

    r1 = run_job("examples/stream2stream.json")
    assert r1.records == 2000
    r2 = run_job("examples/parquet2csv_transform.json")
    assert r2.records > 0 and r2.error_records == 0
    r3 = run_job("examples/upsert_conflict.json")
    r3b = run_job("examples/upsert_conflict.json")  # idempotent rerun
    from go_datax_ray.sinks.lake import read_lake_table

    t = read_lake_table("/tmp/gdr_example_lake")
    assert t.num_rows == 150  # customers at sf0.001, deduped by key


def test_speed_record_enforced():
    """speed.record is ENFORCED (token-bucket actor): a 400-record job
    capped at 500 rec/s must take >= ~0.6s and still deliver every
    record."""
    import time

    from go_datax_ray.engine import run_job

    job = {
        "job": {
            "setting": {"speed": {"channel": 2, "record": 500}},
            "content": [
                {
                    "reader": {
                        "name": "streamreader",
                        "parameter": {
                            "sliceRecordCount": 200,
                            "column": [{"type": "long", "value": "7"}],
                        },
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ],
        }
    }
    t0 = time.perf_counter()
    res = run_job(job)
    wall = time.perf_counter() - t0
    assert res.records == 400  # sliceRecordCount x channel
    assert wall >= 0.5  # 400 rec @ 500/s, minus the first-batch allowance
    # uncapped control: same job without the limit is much faster
    del job["job"]["setting"]["speed"]["record"]
    t0 = time.perf_counter()
    run_job(job)
    assert time.perf_counter() - t0 < wall
