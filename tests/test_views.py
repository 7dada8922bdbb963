"""Aggregate views (sinks/views.py): the view states the partition
files carry in their footers must sum to a full recompute from the
lake's final state after every replay — including resume, no-op
re-runs, deletes, compaction, writers not given the view, and time
travel."""

import shutil

import pyarrow as pa
import pyarrow.compute as pc

from go_datax_ray.pipelines.cdc_replay import (
    ReplayConfig,
    SynthEventSource,
    replay,
)
from go_datax_ray.sinks.lake import read_lake_table
from go_datax_ray.sinks.views import ViewSpec, read_view, view_states
from go_datax_ray.synth import SynthConfig


def _make_spec() -> ViewSpec:
    """Build spec (+derive) inside a closure so cloudpickle serialises
    the derive fn BY VALUE — a module-level fn in tests/ would pickle by
    reference and Ray workers cannot import the test module."""

    def derive(t: pa.Table) -> pa.Table:
        return t.append_column(
            "text_len", pc.utf8_length(t.column("text")).cast(pa.int64())
        )

    return ViewSpec(
        name="lang_stats", group_cols=("lang",), sum_cols=("text_len",),
        derive=derive,
    )


SPEC = _make_spec()


def _recompute(lake: str) -> dict:
    t = SPEC.derive(read_lake_table(lake))
    g = t.select(["lang", "text_len"]).group_by(["lang"]).aggregate(
        [("text_len", "sum"), ([], "count_all")]
    )
    return {r["lang"]: (r["count_all"], r["text_len_sum"]) for r in g.to_pylist()}


def _view(lake: str, **kw) -> dict:
    v = read_view(lake, SPEC, **kw)
    return {r["lang"]: (r["n"], r["sum_text_len"]) for r in v.to_pylist()}


def test_view_equals_recompute_across_resume(tmp_path):
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=3000,
                       views=(SPEC,))
    replay(SynthEventSource(9000, SynthConfig(n_urls=900)), cfg)
    assert _view(lake) == _recompute(lake)
    # resume: only the tail replays; deltas accumulate
    replay(SynthEventSource(15000, SynthConfig(n_urls=900)), cfg)
    assert _view(lake) == _recompute(lake)
    # no-op rerun changes nothing
    r = replay(SynthEventSource(15000, SynthConfig(n_urls=900)), cfg)
    assert r.epochs == 0
    assert _view(lake) == _recompute(lake)


def test_view_time_travel(tmp_path):
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=2000,
                       retain_history=True, views=(SPEC,))
    replay(SynthEventSource(4000, SynthConfig(n_urls=500)), cfg)
    asof = _view(lake)  # state at the last epoch of run 1
    from go_datax_ray.state.manifest import Manifest

    e1 = Manifest.load(lake).epoch
    replay(SynthEventSource(8000, SynthConfig(n_urls=500)), cfg)
    assert _view(lake) == _recompute(lake)
    assert _view(lake, asof_epoch=e1) == asof


def test_partition_view_state_update_and_delete(tmp_path):
    """One partition written twice by ``write_partition``: the second
    file's footer holds the state of its own live rows only. An update
    that MOVES a row across groups leaves its old group; a delete drops
    its row; sums follow. Metadata read back with a file never leaks."""
    import pyarrow.parquet as pq

    from go_datax_ray.sinks.lake import write_partition
    from go_datax_ray.sinks.views import footer_state
    from go_datax_ray.state.fs import LakeFS
    from go_datax_ray.state.manifest import final_path

    spec = ViewSpec(name="s", group_cols=("lang",), sum_cols=("b",))
    lake = str(tmp_path / "lake")
    fsh = LakeFS(lake)
    old = pa.table({
        "op": ["U", "U", "U"],
        "lang": ["en", "en", "de"],
        "b": pa.array([10, 20, 30], pa.int64()),
    })
    new = pa.table({
        "op": ["U", "U", "D"],
        "lang": ["en", "fr", None],
        "b": pa.array([10, 21, None], pa.int64()),
    })

    def state(epoch: int) -> dict:
        md = pq.read_metadata(final_path(lake, 0, epoch)).metadata
        return {r["lang"]: (r["n"], r["sum_b"]) for r in footer_state(md, spec).to_pylist()}

    write_partition(fsh, lake, 0, 0, old, key=None, views=view_states(old, (spec,)))
    assert state(0) == {"en": (2, 30), "de": (1, 30)}
    # the new rows as a rewrite sees them: with the old file's metadata
    new = new.replace_schema_metadata(fsh.read_parquet(final_path(lake, 0, 0)).schema.metadata)
    write_partition(fsh, lake, 1, 0, new, key=None, views=view_states(new, (spec,)))
    # en: 2->1 (10); de: deleted; fr: 0->1 (21)
    assert state(1) == {"en": (1, 10), "fr": (1, 21)}
    write_partition(fsh, lake, 2, 0, new, key=None, views={})
    assert pq.read_metadata(final_path(lake, 0, 2)).metadata.keys() == {b"ARROW:schema"}


def test_view_empty_lake_returns_empty():
    shutil.rmtree("/tmp/gdr_empty_view_lake", ignore_errors=True)
    import os

    os.makedirs("/tmp/gdr_empty_view_lake", exist_ok=True)
    v = read_view("/tmp/gdr_empty_view_lake", SPEC)
    assert v.num_rows == 0
    assert v.column_names == ["lang", "n", "sum_text_len"]


def _plant_uncommitted_file(lake: str, epoch: int) -> None:
    """A crashed epoch's partition 0 file: written, never committed,
    its footer holding a bogus ``zz`` group."""
    from go_datax_ray.sinks.lake import write_partition
    from go_datax_ray.state.fs import LakeFS

    fake_new = pa.table({"op": ["U"], "lang": ["zz"], "text": ["x" * 10]})
    write_partition(LakeFS(lake), lake, epoch, 0, fake_new, key="url",
                    views=view_states(fake_new, (SPEC,)))


def test_uncommitted_epoch_deltas_invisible(tmp_path):
    """The footer state of a partition file the manifest never committed
    (crashed epoch) must not appear in read_view — visibility rides the
    manifest, exactly like data files."""
    from go_datax_ray.state.manifest import Manifest

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=4000,
                       views=(SPEC,))
    replay(SynthEventSource(4000, SynthConfig(n_urls=400)), cfg)
    before = _view(lake)
    # simulate a crashed epoch: its file exists, the manifest never moved
    _plant_uncommitted_file(lake, Manifest.load(lake).epoch + 1)
    assert _view(lake) == before  # zz never appears
    assert "zz" not in _view(lake)


def test_two_views_same_replay(tmp_path):
    """Multiple ViewSpecs maintained in one replay, independently."""
    spec2 = ViewSpec(name="op_counts", group_cols=("lang", "op"))
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=3000,
                       views=(SPEC, spec2))
    replay(SynthEventSource(6000, SynthConfig(n_urls=600)), cfg)
    assert _view(lake) == _recompute(lake)
    v2 = read_view(lake, spec2)
    # live rows only -> op is never 'D' (I/U both live)
    assert "D" not in set(v2.column("op").to_pylist())
    total = sum(v2.column("n").to_pylist())
    assert total == sum(n for n, _ in _recompute(lake).values())


def test_crashed_attempt_view_delta_cleared_on_retry(tmp_path, monkeypatch):
    """A crashed epoch attempt's view delta must not survive a retry whose
    delta for that partition nets to zero (and so writes no file)."""
    import pytest
    import ray.data as rd

    from go_datax_ray.pipelines.cdc_replay import DatasetEventSource
    from go_datax_ray.state.manifest import Manifest

    spec = ViewSpec(name="by_lang", group_cols=("lang",))
    events = pa.table({
        "url": ["b", "b"], "lsn": pa.array([0, 1], pa.int64()),
        "warc_ts": pa.array([0, 0], pa.timestamp("us")),
        "op": ["I", "D"], "lang": ["de", None],
    })
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=1, views=(spec,))

    def crash(*args, **kwargs):
        raise RuntimeError("crash before commit")

    monkeypatch.setattr(Manifest, "commit_epoch", crash)
    with pytest.raises(RuntimeError, match="crash before commit"):
        replay(DatasetEventSource(rd.from_arrow(events), 0, 1), cfg)
    monkeypatch.undo()
    replay(DatasetEventSource(rd.from_arrow(events), 0, 2), cfg)
    assert read_lake_table(lake).num_rows == 0
    assert read_view(lake, spec).num_rows == 0


def test_delete_where_maintains_views(tmp_path):
    """delete_where(views=...) writes the views' deltas in its epoch, so
    the view stops counting the deleted rows, also after a further
    replay."""
    from go_datax_ray.sinks.lake import delete_where

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=3000,
                       views=(SPEC,))
    replay(SynthEventSource(6000, SynthConfig(n_urls=600)), cfg)
    en_before = _view(lake)["en"][0]
    out = delete_where(lake, [["lang", "=", "en"]], views=(SPEC,))
    assert out["deleted"] >= en_before > 0
    assert "en" not in _view(lake)
    assert _view(lake) == _recompute(lake)
    replay(SynthEventSource(9000, SynthConfig(n_urls=600)), cfg)
    assert _view(lake) == _recompute(lake)


def _lake_files(lake: str) -> dict:
    import hashlib
    import os

    out = {}
    for root, _, names in os.walk(lake):
        for n in names:
            p = os.path.join(root, n)
            with open(p, "rb") as f:
                out[os.path.relpath(p, lake)] = hashlib.sha256(f.read()).hexdigest()
    return out


def test_compaction_epoch_hides_a_crashed_attempts_view_delta(tmp_path):
    """A compaction commits the epoch a crashed replay attempt wrote a
    partition file for; it overwrites that file with the committed
    partition's rows and view state, so the bogus state never becomes
    visible."""
    from go_datax_ray.sinks.lake import compact
    from go_datax_ray.state.manifest import Manifest

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4, views=(SPEC,)))
    crashed_epoch = Manifest.load(lake).epoch + 1
    _plant_uncommitted_file(lake, crashed_epoch)
    assert compact(lake)["epoch"] == crashed_epoch
    assert "zz" not in _view(lake)
    assert _view(lake) == _recompute(lake)


def test_maintenance_ops_take_the_writer_lock(tmp_path):
    """compact, delete_where and the gc ops fail fast while another job
    holds the writer lock, and change nothing."""
    import pytest

    from go_datax_ray.sinks.lake import compact, delete_where, gc_history, gc_orphans
    from go_datax_ray.state.fs import writer_lock

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000,
                        views=(SPEC,)))
    before = _lake_files(lake)
    ops = [lambda: compact(lake),
           lambda: delete_where(lake, [["lang", "=", "en"]], views=(SPEC,)),
           lambda: gc_orphans(lake),
           lambda: gc_history(lake, keep_epochs_after=0)]
    with writer_lock(lake):  # an in-flight replay
        for op in ops:
            with pytest.raises(RuntimeError, match="another job holds the lake writer lock"):
                op()
    assert _lake_files(lake) == before
    # once the lock is free, each runs
    assert compact(lake)["epoch"] == 3
    assert delete_where(lake, [["lang", "=", "en"]], views=(SPEC,))["epoch"] == 4
    assert gc_orphans(lake) == 0 and gc_history(lake, keep_epochs_after=0) == 0


def test_maintenance_epochs_rewrite_only_changed_partitions(tmp_path):
    """A delete_where of one url commits only that url's partition, and
    every other partition keeps its file, view state included; a compact
    with no tombstone to drop commits nothing and reports the current
    epoch."""
    from go_datax_ray.sinks.lake import compact, delete_where
    from go_datax_ray.state.manifest import Manifest

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=8, views=(SPEC,)))
    assert compact(lake)["dropped_tombstones"] > 0
    before = Manifest.load(lake)
    url = read_lake_table(lake).column("url")[0].as_py()
    out = delete_where(lake, [["url", "=", url]])
    assert out == {"deleted": 1, "epoch": before.epoch + 1}
    after = Manifest.load(lake)
    changed = [pid for pid, ent in before.partitions.items()
               if after.partitions[pid]["file"] != ent["file"]]
    assert list(after.lineage()[-1]["partitions"]) == changed and len(changed) == 1
    assert _view(lake) == _recompute(lake)
    # the delete's tombstone is at an lsn below the watermark: drop it,
    # then nothing is left to drop
    assert compact(lake)["dropped_tombstones"] == 1
    files = _lake_files(lake)
    epoch = Manifest.load(lake).epoch
    assert compact(lake) == {"dropped_tombstones": 0, "epoch": epoch}
    assert Manifest.load(lake).epoch == epoch and _lake_files(lake) == files


def test_replay_without_views_leaves_the_view_exact(tmp_path):
    """A continuation replayed without the lake's view writes files
    without its state; read_view recomputes those partitions."""
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=3000, views=(SPEC,))
    replay(SynthEventSource(3000, SynthConfig(n_urls=600)), cfg)
    replay(SynthEventSource(6000, SynthConfig(n_urls=600)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=3000))
    assert _view(lake) == _recompute(lake)
    # a later replay with the view writes its state again
    replay(SynthEventSource(9000, SynthConfig(n_urls=600)), cfg)
    assert _view(lake) == _recompute(lake)


def test_view_first_passed_on_a_later_replay(tmp_path):
    """A view first given to the second replay covers the rows the first
    replay committed too."""
    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=600)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=3000))
    replay(SynthEventSource(6000, SynthConfig(n_urls=600)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=3000, views=(SPEC,)))
    assert _view(lake) == _recompute(lake)


def test_delete_where_without_views_leaves_the_view_exact(tmp_path):
    """delete_where and ``lake_cli delete-where``, which cannot pass a
    ``derive`` hook, run on a lake with views; the view stays exact."""
    from go_datax_ray.lake_cli import main as cli
    from go_datax_ray.sinks.lake import delete_where

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4, views=(SPEC,)))
    assert delete_where(lake, [["lang", "=", "en"]])["deleted"] > 0
    assert "en" not in _view(lake)
    assert _view(lake) == _recompute(lake)
    assert cli(["delete-where", lake, "--where", '[["lang","=","de"]]']) == 0
    assert "de" not in _view(lake)
    assert _view(lake) == _recompute(lake)


def test_compact_keeps_every_files_view_state(tmp_path, monkeypatch):
    """compact is not given the views; each file it writes keeps the
    state of the file it rewrote, so read_view recomputes no partition
    from its rows."""
    import pyarrow.parquet as pq

    from go_datax_ray.sinks import views
    from go_datax_ray.sinks.lake import compact, delete_where
    from go_datax_ray.state.manifest import Manifest

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4, views=(SPEC,)))
    delete_where(lake, [["lang", "=", "en"]], views=(SPEC,))  # tombstones to drop
    assert compact(lake)["dropped_tombstones"] > 0
    for f in Manifest.load(lake).committed_files():
        assert views.footer_state(pq.read_metadata(f).metadata, SPEC) is not None, f
    calls = []
    local_agg = views._local_agg
    monkeypatch.setattr(views, "_local_agg", lambda *a: calls.append(a) or local_agg(*a))
    got = _view(lake)
    assert calls == []
    monkeypatch.undo()
    assert got == _recompute(lake)


def test_lake_written_before_footer_state_reads_its_view(tmp_path):
    """A lake from before footer state: files without view state and
    per-epoch delta files under ``_views/``. read_view recomputes the
    files and ignores the leftover delta files."""
    import pyarrow.parquet as pq

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4))
    leftover = tmp_path / "lake" / "_views" / "lang_stats" / "delta-e000000-p00000.parquet"
    leftover.parent.mkdir(parents=True)
    pq.write_table(pa.table({"lang": ["zz"], "n": pa.array([5], pa.int64()),
                             "sum_text_len": pa.array([50], pa.int64())}), leftover)
    assert "zz" not in _view(lake)
    assert _view(lake) == _recompute(lake)
