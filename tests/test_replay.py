"""End-to-end CDC replay: final state vs DuckDB oracle, exactly-once
idempotent re-run, checkpoint resume equivalence, parallelism
independence, tombstone persistence, schema evolution, lineage."""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from go_datax_ray.pipelines.cdc_replay import (
    DatasetEventSource,
    ReplayConfig,
    SynthEventSource,
    replay,
)
from go_datax_ray.sinks.lake import compact, read_lake, read_lake_table
from go_datax_ray.state.manifest import Manifest
from go_datax_ray.synth import EventGen, SynthConfig

N_EVENTS = 4000
CFG = SynthConfig(seed=11, n_urls=300, ts_range_s=600)  # coarse ts -> LWW ties


def _oracle_final(n_events: int, cfg: SynthConfig) -> pa.Table:
    """DuckDB oracle: LWW winner per url, tombstones filtered."""
    events = EventGen(cfg)(pa.table({"id": np.arange(n_events, dtype=np.int64)}))
    return duckdb.sql(
        """
        SELECT url, lsn, warc_ts, op, text FROM (
          SELECT *, row_number() OVER (PARTITION BY url ORDER BY warc_ts DESC, lsn DESC) rn
          FROM events
        ) WHERE rn = 1 AND op <> 'D' ORDER BY url
        """
    ).arrow()


def _final_cols(lake_dir) -> pa.Table:
    t = read_lake_table(lake_dir)
    return t.select(["url", "lsn", "warc_ts", "op", "text"]).sort_by("url")


@pytest.fixture(scope="module")
def oracle():
    return _oracle_final(N_EVENTS, CFG)


def _run(tmp, *, num_partitions=8, epoch_size=N_EVENTS, n_events=N_EVENTS):
    cfg = ReplayConfig(
        lake_dir=str(tmp), num_partitions=num_partitions, epoch_size=epoch_size,
    )
    return replay(SynthEventSource(n_events, CFG), cfg)


def _assert_matches_oracle(lake_dir, oracle):
    got = _final_cols(lake_dir)
    assert got.num_rows == oracle.num_rows
    for col in ("url", "lsn", "text"):
        assert got.column(col).to_pylist() == oracle.column(col).to_pylist(), col


def test_single_epoch_matches_oracle(tmp_path, oracle):
    res = _run(tmp_path / "lake")
    assert res.events == N_EVENTS
    _assert_matches_oracle(tmp_path / "lake", oracle)


def test_multi_epoch_matches_oracle(tmp_path, oracle):
    _run(tmp_path / "lake", epoch_size=700)
    _assert_matches_oracle(tmp_path / "lake", oracle)
    # each epoch deletes the delta files it listed and their directories
    assert os.listdir(tmp_path / "lake" / "_delta") == []


def test_rerun_is_noop(tmp_path, oracle):
    lake = tmp_path / "lake"
    _run(lake)
    before = _final_cols(lake)
    res2 = _run(lake)  # replay same source again: watermark skips everything
    assert res2.events == 0 and res2.epochs == 0
    assert _final_cols(lake).equals(before)


def test_resume_mid_stream_equals_full_replay(tmp_path, oracle):
    """Crash-and-resume: apply first 40%, then resume the full log —
    final state identical to a one-shot replay (byte-level)."""
    lake = tmp_path / "lake"
    _run(lake, n_events=int(N_EVENTS * 0.4), epoch_size=900)
    man = Manifest.load(str(lake))
    assert man.watermark_lsn == int(N_EVENTS * 0.4) - 1
    _run(lake, n_events=N_EVENTS, epoch_size=900)
    _assert_matches_oracle(lake, oracle)


def test_parallelism_independent(tmp_path, oracle):
    """Same log at different partition counts/epoch sizes -> same state."""
    a, b = tmp_path / "a", tmp_path / "b"
    _run(a, num_partitions=4, epoch_size=1300)
    _run(b, num_partitions=16, epoch_size=N_EVENTS)
    ta = _final_cols(a)
    tb = _final_cols(b)
    assert ta.equals(tb)


def test_tombstones_persist_and_resume_no_resurrection(tmp_path):
    """A url deleted late in the log stays deleted after a resume that
    replays only the tail (tombstone must persist in partition state)."""
    lake = str(tmp_path / "lake")
    events = EventGen(CFG)(pa.table({"id": np.arange(N_EVENTS, dtype=np.int64)}))
    # find a url whose LWW winner is a delete
    win = duckdb.sql(
        """
        SELECT url, op FROM (
          SELECT *, row_number() OVER (PARTITION BY url ORDER BY warc_ts DESC, lsn DESC) rn
          FROM events) WHERE rn = 1 AND op = 'D' LIMIT 1
        """
    ).fetchall()
    assert win, "synth config should produce at least one final-delete url"
    dead_url = win[0][0]
    _run(lake, epoch_size=1000)
    finals = _final_cols(lake)
    assert dead_url not in set(finals.column("url").to_pylist())
    # raw partition state (not final view) still holds the tombstone row
    raw = read_lake_table(lake, final_state=False)
    dead_rows = raw.filter(pa.compute.equal(raw.column("url"), pa.scalar(dead_url)))
    assert dead_rows.num_rows == 1 and dead_rows.column("op")[0].as_py() == "D"


def test_schema_evolution_v2_tail(tmp_path):
    """v1 events then a v2 tail with additive fetch_status: old rows get
    nulls, new rows carry values, no type errors."""
    lake = str(tmp_path / "lake")
    cfg_v1 = SynthConfig(seed=5, n_urls=100)
    cfg_v2 = SynthConfig(seed=5, n_urls=100, v2=True)
    _ = replay(SynthEventSource(1000, cfg_v1), ReplayConfig(lake_dir=lake, num_partitions=4))
    import ray.data as rd

    tail = EventGen(cfg_v2, offset=1000)(pa.table({"id": np.arange(500, dtype=np.int64)}))
    res = replay(
        DatasetEventSource(rd.from_arrow(tail), 1000, 1500),
        ReplayConfig(lake_dir=lake, num_partitions=4),
    )
    assert res.events == 500
    t = read_lake_table(lake)
    assert "fetch_status" in t.column_names
    new = t.filter(pa.compute.greater_equal(t.column("lsn"), pa.scalar(1000)))
    old = t.filter(pa.compute.less(t.column("lsn"), pa.scalar(1000)))
    assert old.column("fetch_status").null_count == old.num_rows
    assert new.filter(pa.compute.equal(new.column("op"), pa.scalar("I"))).column(
        "fetch_status"
    ).null_count == 0 or new.num_rows == 0


def test_extract_in_engine_equivalent(tmp_path, oracle):
    """Replaying raw-html events (text dropped; engine derives text post-LWW
    inside the merge) yields byte-identical text per url vs carrying it."""
    import ray.data as rd

    events = EventGen(CFG)(pa.table({"id": np.arange(N_EVENTS, dtype=np.int64)}))
    raw = events.drop_columns(["text"])  # WAL carries html only
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=8, epoch_size=900, extract_text=True)
    replay(DatasetEventSource(rd.from_arrow(raw), 0, N_EVENTS), cfg)
    _assert_matches_oracle(lake, oracle)


def test_extract_text_batch_equivalence():
    """Vectorized extractor == canonical per-row extractor, including
    adversarial inputs (entities, unicode ws, control chars, bad utf-8)."""
    from go_datax_ray.synth import extract_text, extract_text_batch

    cases = [
        b"<html><body><p>plain ascii text</p></body></html>",
        b"<p>a&amp;b &lt;tag&gt; &#65;</p>",
        "<p>café  nbsp　ideo</p>".encode(),
        b"<p>ctrl\x1c\x1d\x1e\x1fchars\x0bvtab</p>",
        b"  <b>lead</b>\t\n trail  ",
        b"",
        b"<p></p>",
        b"no tags at all",
        b"\xff\xfe invalid utf8 <b>x</b>",
        None,
        b"one two three four",
        b"tab\there\nnew\r\nline\fform \t\n\r\f mixed\t \tend",
        b"a <b> bold </b>\t<i>\n</i> c<br/>\r\nd< x >e",
        b" \t lead and trail \n ",
        b" ", b"\t", b"  ", b" \n\r\f\t ",
    ]
    rng = np.random.default_rng(0)
    alphabet = np.frombuffer(b" \t\n\r\f<>ab", np.uint8)
    cases += [rng.choice(alphabet, rng.integers(0, 24)).tobytes() for _ in range(500)]
    want = [None if c is None else extract_text(c) for c in cases]
    assert extract_text_batch(pa.array(cases, pa.large_binary())).to_pylist() == want
    # one case per batch as well: an invalid utf-8 row sends its whole
    # batch down the per-row path, which would hide the vectorized one
    assert [extract_text_batch(pa.array([c], pa.large_binary()))[0].as_py()
            for c in cases] == want


def test_lineage_and_manifest(tmp_path):
    lake = str(tmp_path / "lake")
    res = _run(tmp_path / "lake", epoch_size=1500)
    man = Manifest.load(lake)
    lin = man.lineage()
    assert len(lin) == res.epochs
    # offsets chain with no gaps and cover the log
    assert lin[0]["lsn_lo"] == 0 and lin[-1]["lsn_hi"] == N_EVENTS - 1
    for a, b in zip(lin, lin[1:]):
        assert b["lsn_lo"] == a["lsn_hi"] + 1
    # every committed file exists; every partition entry points at one file
    for f in man.committed_files():
        assert os.path.exists(f)
    # per-partition lineage carries events + rows
    for rec in lin:
        for pid, ent in rec["partitions"].items():
            assert ent["events"] >= 0 and "file" in ent


def test_manifest_bytes_deterministic_in_pid_order(tmp_path, monkeypatch):
    """Merge tasks finish in any order; the manifest and the commit
    records still list partitions in pid order, so two replays of the
    same events write byte-identical manifests. Here the tasks holding
    low pids are made to finish last."""
    import json

    from go_datax_ray.pipelines import cdc_replay

    nparts = 8
    real = cdc_replay.make_delta_merger

    def low_pids_last(*args, **kwargs):
        merge = real(*args, **kwargs)

        def merge_late_if_low(batch):
            import time

            time.sleep(0.1 * (nparts - min(int(p) for p in batch["pid"])))
            return merge(batch)

        return merge_late_if_low

    monkeypatch.setattr(cdc_replay, "make_delta_merger", low_pids_last)
    manifests = []
    for name in ("a", "b"):
        _run(tmp_path / name, num_partitions=nparts, epoch_size=2000)
        with open(tmp_path / name / "_manifest.json", "rb") as f:
            manifests.append(f.read())
        for rec in Manifest.load(str(tmp_path / name)).lineage():
            assert list(rec["partitions"]) == sorted(rec["partitions"], key=int)
    assert manifests[0] == manifests[1]
    assert list(json.loads(manifests[0])["partitions"]) == [str(p) for p in range(nparts)]


def test_stale_tmp_and_delta_garbage_ignored(tmp_path, oracle):
    """Crash debris — stale _tmp files, leftover _delta dirs, an alien file
    in a partition dir — must be invisible (manifest decides visibility)
    and must not corrupt a subsequent resume."""
    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake", n_events=int(N_EVENTS * 0.5), epoch_size=900)
    # plant garbage: a fake tmp file, a stale delta dir, an orphan parquet
    os.makedirs(f"{lake}/_tmp", exist_ok=True)
    with open(f"{lake}/_tmp/part-00099-epoch-999999.parquet", "wb") as f:
        f.write(b"garbage")
    os.makedirs(f"{lake}/_delta/epoch-000000/part_id=3", exist_ok=True)
    with open(f"{lake}/_delta/epoch-000000/part_id=3/x.parquet", "wb") as f:
        f.write(b"junk")
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"url": ["alien"], "lsn": [999999]}), f"{lake}/part-00000/alien.parquet"
    )
    _run(tmp_path / "lake", n_events=N_EVENTS, epoch_size=900)  # resume
    _assert_matches_oracle(tmp_path / "lake", oracle)  # alien rows invisible


def test_replay_config_fields():
    """The replay's whole configuration: no transform hook runs before
    the LWW combine, and no metrics push runs after the commit."""
    import dataclasses

    assert [f.name for f in dataclasses.fields(ReplayConfig)] == [
        "lake_dir", "num_partitions", "epoch_size", "key", "hash_fn",
        "extract_text", "retain_history", "views"]


def test_empty_epoch_advances_watermark(tmp_path):
    """An epoch whose range holds no events still commits (watermark
    advances) — a tailing rerun must not reprocess the empty range."""
    import ray.data as rd

    from go_datax_ray.synth import CDC_EVENT_SCHEMA

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4)
    empty = CDC_EVENT_SCHEMA.empty_table()  # lsn 0..999 hold no events
    res = replay(DatasetEventSource(rd.from_arrow(empty), 0, 1000), cfg)
    assert res.events == 1000
    man = Manifest.load(lake)
    assert man.watermark_lsn == 999  # advanced despite zero applied rows
    assert not os.path.exists(f"{lake}/_delta/epoch-000000")
    res2 = replay(DatasetEventSource(rd.from_arrow(empty), 0, 1000), cfg)
    assert res2.events == 0 and res2.epochs == 0  # no reprocessing


def test_concurrent_writer_lock(tmp_path):
    """Second replay into a locked lake fails fast instead of racing."""
    import fcntl

    lake = tmp_path / "lake"
    lake.mkdir()
    holder = open(lake / "_writer.lock", "w")
    fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
    with pytest.raises(RuntimeError, match="writer lock"):
        _run(lake, n_events=100)
    fcntl.flock(holder, fcntl.LOCK_UN)
    holder.close()
    res = _run(lake, n_events=500)  # released -> proceeds
    assert res.events == 500


def test_read_lake_streaming_matches_table(tmp_path):
    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake")
    ds = read_lake(lake)
    t = read_lake_table(lake)
    assert ds.count() == t.num_rows
    # column pruning without 'op' still tombstone-filters (and drops op)
    pruned = read_lake(lake, columns=["url", "lsn"])
    assert pruned.count() == t.num_rows
    assert [f.name for f in pruned.schema().base_schema] == ["url", "lsn"]


def test_read_lake_point_lookup_prunes_partitions(tmp_path):
    """keys= point lookup: the reader prunes to the hash partitions the
    keys map to (manifest-recorded key column + hash_fn) and returns
    exactly the full-scan rows for those keys."""
    from go_datax_ray.hashing import partition_ids

    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake", num_partitions=8)
    full = read_lake_table(lake)
    keys = sorted(set(full.column("url").to_pylist()))[:3]
    want = full.filter(pc.is_in(full.column("url"), value_set=pa.array(keys)))
    ds = read_lake(lake, keys=keys)
    got = pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    ).sort_by("url")
    assert got.sort_by("url").column("url").to_pylist() == \
        want.sort_by("url").column("url").to_pylist()
    assert got.num_rows == want.num_rows
    # pruning: only the keys' partitions are read, not all 8 files
    n_pids = len(set(partition_ids(keys, 8).tolist()))
    man = Manifest.load(lake)
    assert len(man.files_for_keys(keys)) == n_pids < len(man.committed_files())
    # column pruning composes with the lookup (key col requested
    # internally for the filter, then dropped from the output)
    narrow = read_lake(lake, keys=keys, columns=["lsn"])
    assert narrow.count() == want.num_rows
    assert [f.name for f in narrow.schema().base_schema] == ["lsn"]
    # a key the lake never saw returns 0 rows via 1 file
    assert read_lake(lake, keys=["https://nope.example/x"]).count() == 0
    # the driver-side lookup returns the same rows, no Ray Data plan
    from go_datax_ray.sinks.lake import lookup

    assert lookup(lake, keys).sort_by("url").equals(want.sort_by("url"))


def test_key_places_rows_and_url_identifies_them(tmp_path):
    """``ReplayConfig.key`` places and looks up rows (ES routing); LWW
    identifies records by url. Two events for doc ``d1`` under urls
    ``u1`` and ``u2`` stay two rows, both in d1's partition."""
    import ray.data as rd

    from go_datax_ray.sinks.lake import lookup

    events = pa.table({
        "url": ["u1", "u2"], "doc": ["d1", "d1"],
        "lsn": pa.array([0, 1], pa.int64()),
        "warc_ts": pa.array([0, 0], pa.timestamp("us")),
        "op": ["I", "I"],
    })
    lake = str(tmp_path / "lake")
    replay(DatasetEventSource(rd.from_arrow(events), 0, 2),
           ReplayConfig(lake_dir=lake, num_partitions=2, key="doc"))
    assert read_lake_table(lake).column("url").to_pylist() == ["u1", "u2"]
    got = lookup(lake, ["d1"]).sort_by("url")
    assert got.column("url").to_pylist() == ["u1", "u2"]
    assert got.column("doc").to_pylist() == ["d1", "d1"]


def test_lake_cli_get_point_lookup(tmp_path, capsys):
    """lake_cli get: manifest-pruned point lookup, no Ray session,
    tombstones filtered, binary columns summarised."""
    import json as _json

    from go_datax_ray.lake_cli import main as cli_main

    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake")
    key = read_lake_table(lake).column("url")[0].as_py()
    rc = cli_main(["get", lake, "--keys", key])
    assert rc == 0
    rows = [_json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1 and rows[0]["url"] == key
    assert rows[0]["html"].startswith("<")  # binary summarised, not dumped


def test_lake_cli_count_without_ray(tmp_path, monkeypatch, capsys):
    """lake_cli count equals read_lake(...).count(), now and as of an
    earlier epoch, and neither starts nor stops a Ray session."""
    import json as _json

    import ray

    from go_datax_ray.lake_cli import main as cli_main

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(N_EVENTS, CFG), ReplayConfig(
        lake_dir=lake, num_partitions=4, epoch_size=1000, retain_history=True))
    want = {e: read_lake(lake, asof_epoch=e).count() for e in (None, 1)}
    assert want[None] != want[1]

    def no_ray(*a, **kw):
        raise AssertionError("lake_cli count touched the Ray session")

    monkeypatch.setattr(ray, "init", no_ray)
    monkeypatch.setattr(ray, "shutdown", no_ray)
    for e, n in want.items():
        assert cli_main(["count", lake] + ([] if e is None else ["--asof-epoch", str(e)])) == 0
        assert _json.loads(capsys.readouterr().out) == {"rows": n, "asof_epoch": e}


def test_read_lake_where_pushdown(tmp_path):
    """where triplets push into the parquet scan and compose with the
    tombstone filter; string values against numeric columns coerce via
    the committed schema (the parquet-reader grammar, shared)."""
    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake")
    full = read_lake_table(lake)
    want = full.filter(pc.equal(full.column("lang"), pa.scalar("en"))).num_rows
    got = read_lake(lake, where=[["lang", "==", "en"]]).count()
    assert got == want and 0 < got < full.num_rows
    # numeric coercion: lsn bound arrives as a string (job-JSON shape)
    mid = int(pc.mean(full.column("lsn")).as_py())
    want2 = full.filter(pc.greater(full.column("lsn"), pa.scalar(mid))).num_rows
    assert read_lake(lake, where=[["lsn", ">", str(mid)]]).count() == want2


def test_streaming_read_across_partial_evolution(tmp_path):
    """After a v2 tail that touches only SOME partitions, the streaming
    read_lake unifies mixed file schemas and v2 values survive when their
    events win LWW."""
    import ray.data as rd

    from go_datax_ray.schema import CDC_EVENT_SCHEMA_V2
    from go_datax_ray.sinks.lake import read_lake

    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake", n_events=2000, num_partitions=8)
    ev = pa.Table.from_pydict(
        {
            "lsn": pa.array([2005], pa.int64()),
            "src_offset": pa.array([2005], pa.int64()),
            "op": pa.array(["U"], pa.string()),
            "url": pa.array(["https://evolved.example.org/x"], pa.string()),
            "warc_ts": pa.array([9_000_000_000_000_000], pa.timestamp("us")),
            "html": pa.array([b"<p>v2</p>"], pa.large_binary()),
            "text": pa.array(["v2"], pa.large_string()),
            "lang": pa.array(["en"], pa.string()),
            "fetch_status": pa.array([200], pa.int64()),
        },
        schema=CDC_EVENT_SCHEMA_V2,
    )
    replay(
        DatasetEventSource(rd.from_arrow(ev), 2005, 2006),
        ReplayConfig(lake_dir=lake, num_partitions=8),
    )
    df = read_lake(lake).to_pandas()
    assert "fetch_status" in df.columns  # unified across mixed-schema files
    row = df[df["url"] == "https://evolved.example.org/x"]
    assert row["fetch_status"].iloc[0] == 200 and row["text"].iloc[0] == "v2"
    # v1-era rows null-filled
    assert df["fetch_status"].notna().sum() == 1



def _one_event(lsn: int, url: str, v2: bool) -> pa.Table:
    from go_datax_ray.schema import CDC_EVENT_SCHEMA, CDC_EVENT_SCHEMA_V2

    cols = {
        "lsn": pa.array([lsn], pa.int64()),
        "src_offset": pa.array([lsn], pa.int64()),
        "op": pa.array(["U"], pa.string()),
        "url": pa.array([url], pa.string()),
        "warc_ts": pa.array([9_000_000_000_000_000], pa.timestamp("us")),
        "html": pa.array([b"<p>x</p>"], pa.large_binary()),
        "text": pa.array(["x"], pa.large_string()),
        "lang": pa.array(["en"], pa.string()),
    }
    if v2:
        cols["fetch_status"] = pa.array([200], pa.int64())
    return pa.Table.from_pydict(cols, schema=CDC_EVENT_SCHEMA_V2 if v2 else CDC_EVENT_SCHEMA)


def test_lookup_null_fills_columns_added_after_a_file(tmp_path):
    """A v2 event adds fetch_status to one partition, then a v1 epoch
    touches only another. The manifest schema keeps the column (before,
    it was the union of the last epoch's files only), and lookup returns
    it null-filled for rows of files written before it existed."""
    import ray.data as rd

    from go_datax_ray.hashing import partition_ids
    from go_datax_ray.sinks.lake import lookup, schema_from_json

    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake", n_events=2000, num_partitions=8)
    v2_url = "https://evolved.example.org/x"
    v1_url = next(u for u in (f"https://v1.example.org/{i}" for i in range(100))
                  if partition_ids([u], 8)[0] != partition_ids([v2_url], 8)[0])
    for lsn, url, v2 in ((2005, v2_url, True), (2006, v1_url, False)):
        replay(DatasetEventSource(rd.from_arrow(_one_event(lsn, url, v2)), lsn, lsn + 1),
               ReplayConfig(lake_dir=lake, num_partitions=8))
    assert "fetch_status" in schema_from_json(Manifest.load(lake).schema_json).names
    full = read_lake_table(lake)
    old_url = full.filter(pc.is_null(full.column("fetch_status"))).column("url")[0].as_py()
    keys = [v2_url, v1_url, old_url]
    got = lookup(lake, keys).sort_by("url")
    assert got.equals(full.filter(pc.is_in(full.column("url"), pa.array(keys))).sort_by("url"))
    status = dict(zip(got.column("url").to_pylist(), got.column("fetch_status").to_pylist()))
    assert status == {v2_url: 200, v1_url: None, old_url: None}


def test_lookup_logs_no_schema_warning(tmp_path):
    """A point lookup runs no Ray Data read: before, read_lake(keys=[k])
    of a live key logged Ray Data's schema-divergence warning."""
    import logging

    lake = str(tmp_path / "lake")
    _run(tmp_path / "lake")
    key = read_lake_table(lake).column("url")[0].as_py()
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        rows = read_lake(lake, keys=[key]).take_all()
    finally:
        logger.removeHandler(handler)
    assert [r["url"] for r in rows] == [key]
    assert not [r for r in records if "different schema" in r.getMessage()]

_ONE_CPU_REPLAY = """
import sys
import ray
from ray.data import DataContext
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.synth import SynthConfig
res = replay(SynthEventSource(2000, SynthConfig(seed=3, n_urls=200)),
             ReplayConfig(lake_dir=sys.argv[1], num_partitions=4, epoch_size=1000))
print("events", res.events)
ray.shutdown()
"""


def test_synth_source_replays_on_one_cpu(tmp_path):
    """SynthEventSource generates in stateless tasks: on a one-CPU
    cluster no generator holds the only CPU while the range read that
    feeds it waits for one, so the replay finishes instead of hanging."""
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root, RAY_USAGE_STATS_ENABLED="0")
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_REPLAY, str(tmp_path / "lake")],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("2000-event SynthEventSource replay hung at num_cpus=1")
    assert proc.returncode == 0, err[-2000:]
    assert "events 2000" in out


def test_epoch_phase_fields(tmp_path, capsys):
    """Each epoch reports its phase seconds, its delta counts and the
    bytes of the partition files it wrote (``final_bytes``); the commit
    record stores all but ``commit_s`` and ``lake_cli lineage`` prints
    them."""
    import json

    from go_datax_ray import lake_cli

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=8, epoch_size=1500, retain_history=True)
    res = replay(SynthEventSource(N_EVENTS, CFG), cfg)
    stored = ("scan_s", "prepare_write_s", "merge_s", "delta_bytes", "delta_files",
              "final_bytes")
    for st in res.epoch_stats:
        assert set(st) == {"epoch", "lsn_lo", "lsn_hi", "events", "applied",
                           "wall_s", "events_per_sec", *stored, "commit_s"}
        assert all(st[k] >= 0 for k in (*stored, "commit_s"))
        assert st["scan_s"] + st["prepare_write_s"] + st["merge_s"] <= st["wall_s"]
        assert st["delta_files"] > 0 and st["delta_bytes"] > 0
    assert lake_cli.main(["lineage", lake]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(recs) == len(res.epoch_stats)
    for rec, st in zip(recs, res.epoch_stats):
        assert {k: rec[k] for k in (*stored, "wall_s")} == {
            k: st[k] for k in (*stored, "wall_s")}
        assert "commit_s" not in rec
        # final_bytes is the size of the files the record names, and each
        # partition's bytes is the size of its own file
        assert rec["final_bytes"] == sum(
            os.path.getsize(os.path.join(lake, p["file"])) for p in rec["partitions"].values())
        for p in rec["partitions"].values():
            assert set(p) == {"file", "rows", "events", "max_lsn", "bytes"}
            assert p["bytes"] == os.path.getsize(os.path.join(lake, p["file"]))
    # a compaction epoch records the bytes it rewrote too
    compact(lake, retain_history=True)
    rec = Manifest.load(lake).lineage()[-1]
    assert rec["final_bytes"] == sum(
        os.path.getsize(os.path.join(lake, p["file"])) for p in rec["partitions"].values())
    assert all(p["bytes"] == os.path.getsize(os.path.join(lake, p["file"]))
               for p in rec["partitions"].values())


def test_result_independent_of_source_blocks(tmp_path):
    """The same events in one block and in many small ones commit the
    same table and the same per-partition lineage events: block
    structure moves only the prepare batches."""
    import ray.data as rd

    events = EventGen(CFG)(pa.table({"id": np.arange(N_EVENTS, dtype=np.int64)}))

    def run(name, ds):
        lake = str(tmp_path / name)
        replay(DatasetEventSource(ds, 0, N_EVENTS),
               ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1500))
        lineage = [{pid: p["events"] for pid, p in rec["partitions"].items()}
                   for rec in Manifest.load(lake).lineage()]
        return read_lake_table(lake, final_state=False).sort_by("url"), lineage

    one_t, one_l = run("one", rd.from_arrow(events))
    many = rd.from_arrow([events.slice(i, 97) for i in range(0, N_EVENTS, 97)])
    assert many.num_blocks() > 40
    many_t, many_l = run("many", many)
    assert len(one_l) == 3
    assert one_t.num_rows > 0 and one_t.equals(many_t)
    assert one_l == many_l


def test_upsert_of_any_arrow_column_types(tmp_path):
    """Columns outside the manifest's readable type spellings (float32,
    date32, int16, ...) commit and read back through read_lake."""
    import datetime
    import ray.data as rd

    from go_datax_ray.sinks.parquet import write

    t = pa.table({
        "k": ["a", "b", "c"],
        "f32": pa.array([1.5, 2.5, None], pa.float32()),
        "d": pa.array([datetime.date(2024, 1, i) for i in (1, 2, 3)], pa.date32()),
        "i16": pa.array([1, -2, 3], pa.int16()),
    })
    lake = str(tmp_path / "lake")
    write(rd.from_arrow(t), {"path": lake, "writeMode": "upsert",
                             "primaryKey": "k", "numPartitions": 2})
    got = pa.concat_tables(read_lake(lake).iter_batches(batch_format="pyarrow")).sort_by("k")
    assert got.select(t.column_names).equals(t)
    assert got.schema.field("f32").type == pa.float32()


def test_schema_json_round_trips_and_loads_legacy_spellings():
    import json

    from go_datax_ray.sinks.lake import schema_from_json, schema_to_json

    legacy = json.dumps([["url", "string"], ["lsn", "int64"], ["n", "int32"],
                         ["warc_ts", "timestamp_us"], ["x", "float64"],
                         ["ok", "bool"], ["html", "large_string"],
                         ["b", "binary"], ["lb", "large_binary"]])
    assert schema_from_json(legacy) == pa.schema([
        ("url", pa.string()), ("lsn", pa.int64()), ("n", pa.int32()),
        ("warc_ts", pa.timestamp("us")), ("x", pa.float64()),
        ("ok", pa.bool_()), ("html", pa.large_string()),
        ("b", pa.binary()), ("lb", pa.large_binary())])
    assert schema_to_json(schema_from_json(legacy)) == legacy
    exotic = pa.schema([
        ("f32", pa.float32()), ("d", pa.date32()), ("i16", pa.int16()),
        ("ts_ms", pa.timestamp("ms")), ("ts_tz", pa.timestamp("us", tz="UTC")),
        ("dec", pa.decimal128(12, 3)), ("tags", pa.list_(pa.string())),
    ])
    assert schema_from_json(schema_to_json(exotic)) == exotic
