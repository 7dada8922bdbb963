"""Time-travel reads: as-of-epoch views, retention, history GC."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.sinks.lake import gc_history, gc_orphans, read_lake
from go_datax_ray.state.manifest import Manifest
from go_datax_ray.synth import EventGen, SynthConfig

CFG = SynthConfig(seed=17, n_urls=200, ts_range_s=600)
N = 4000


def _oracle_at(n_events: int) -> set[tuple[str, int]]:
    events = EventGen(CFG)(pa.table({"id": np.arange(n_events, dtype=np.int64)}))
    rows = duckdb.sql(
        """
        SELECT url, lsn FROM (
          SELECT *, row_number() OVER (PARTITION BY url ORDER BY warc_ts DESC, lsn DESC) rn
          FROM events) WHERE rn = 1 AND op <> 'D'
        """
    ).fetchall()
    return set(rows)


def test_asof_views_match_prefix_replays(tmp_path):
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000, retain_history=True)
    replay(SynthEventSource(N, CFG), cfg)  # 4 epochs: 0..3
    man = Manifest.load(lake)
    assert man.epoch == 3
    for epoch, upto in ((0, 1000), (1, 2000), (2, 3000), (3, 4000)):
        t = read_lake(lake, columns=["url", "lsn"], asof_epoch=epoch).to_pandas()
        got = set(map(tuple, t.values.tolist()))
        assert got == _oracle_at(upto), f"epoch {epoch}"
    # asof latest == plain read
    t_latest = read_lake(lake, columns=["url", "lsn"]).to_pandas()
    assert set(map(tuple, t_latest.values.tolist())) == _oracle_at(N)


def test_gc_history_keeps_retained_views(tmp_path):
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000, retain_history=True)
    replay(SynthEventSource(N, CFG), cfg)
    removed = gc_history(lake, keep_epochs_after=1)  # keep epochs 2,3
    assert removed > 0
    # retained views still readable and correct
    t2 = read_lake(lake, columns=["url", "lsn"], asof_epoch=2).to_pandas()
    assert set(map(tuple, t2.values.tolist())) == _oracle_at(3000)
    # GC'd view raises a clear error
    with pytest.raises(FileNotFoundError, match="time-travel"):
        read_lake(lake, asof_epoch=0)


def test_no_retention_default_rejects_time_travel(tmp_path):
    lake = str(tmp_path / "lake")
    replay(SynthEventSource(N, CFG), ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000))
    with pytest.raises(FileNotFoundError, match="retain_history"):
        read_lake(lake, asof_epoch=0)


def test_lineage_reconciles_with_manifest(tmp_path):
    """Orphan commit records (crash between record write and manifest swap)
    are ignored; a missing record for an acknowledged epoch fails loudly."""
    import json
    import os

    import pytest

    from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
    from go_datax_ray.state.manifest import COMMITS_DIR, Manifest
    from go_datax_ray.synth import SynthConfig

    lake = str(tmp_path / "lake")
    replay(
        SynthEventSource(3000, SynthConfig(n_urls=300)),
        ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000),
    )
    man = Manifest.load(lake)
    n = len(man.lineage())
    assert n == man.epoch + 1

    # orphan record beyond manifest.epoch -> silently excluded
    orphan = os.path.join(lake, COMMITS_DIR, f"epoch-{man.epoch + 1:06d}.json")
    with open(orphan, "w") as f:
        json.dump({"epoch": man.epoch + 1, "lsn_lo": 0, "lsn_hi": 0,
                   "partitions": {}}, f)
    assert len(Manifest.load(lake).lineage()) == n

    # missing record for an acknowledged epoch -> loud failure
    os.remove(os.path.join(lake, COMMITS_DIR, "epoch-000000.json"))
    with pytest.raises(FileNotFoundError, match="lineage gap"):
        Manifest.load(lake).lineage()


def test_gc_orphans_removes_uncommitted_epoch_files(tmp_path):
    """Rename-free commits leave debris from crashed epochs; gc_orphans
    removes exactly the unreferenced data files."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
    from go_datax_ray.sinks.lake import read_lake_table
    from go_datax_ray.state.manifest import Manifest, final_path

    lake = str(tmp_path / "lake")
    replay(
        SynthEventSource(3000, SynthConfig(n_urls=300)),
        ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000),
    )
    before = read_lake_table(lake)
    man = Manifest.load(lake)
    # crash debris: a "future epoch" file that never reached the manifest
    orphan = final_path(lake, 1, man.epoch + 1)
    pq.write_table(pa.table({"url": ["zombie"]}), orphan)
    assert gc_orphans(lake) == 1
    assert not os.path.exists(orphan)
    # committed state untouched, all referenced files intact
    assert read_lake_table(lake).equals(before)
    assert gc_orphans(lake) == 0


def test_delete_where_respects_time_travel(tmp_path):
    """delete_where commits a new epoch: as-of views BEFORE it still show
    the deleted rows; the live view doesn't; compaction after the delete
    physically drops them."""
    from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
    from go_datax_ray.sinks.lake import compact, delete_where, read_lake, read_lake_table
    from go_datax_ray.state.manifest import Manifest

    lake = str(tmp_path / "lake")
    replay(
        SynthEventSource(3000, SynthConfig(seed=7, n_urls=300)),
        ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1500),
    )
    pre_epoch = Manifest.load(lake).epoch
    before = read_lake_table(lake)
    n_es = before.filter(pa.compute.equal(before.column("lang"), pa.scalar("es"))).num_rows
    assert n_es > 0
    out = delete_where(lake, [["lang", "=", "es"]], retain_history=True)
    assert out["deleted"] == n_es
    # live view: gone
    live = read_lake_table(lake)
    assert live.filter(pa.compute.equal(live.column("lang"), pa.scalar("es"))).num_rows == 0
    assert live.num_rows == before.num_rows - n_es
    # as-of the pre-delete epoch: still visible
    asof = read_lake(lake, asof_epoch=pre_epoch, final_state=True).to_pandas()
    assert (asof["lang"] == "es").sum() == n_es
    # compaction drops the delete tombstones physically; final state stable
    res = compact(lake)
    assert res["dropped_tombstones"] >= n_es
    live2 = read_lake_table(lake)
    assert live2.drop_columns(["part_id"]).num_rows == live.num_rows
