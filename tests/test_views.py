"""Incremental aggregate views (sinks/views.py): per-epoch delta
maintenance inside the partition merge must equal a full recompute from
the lake's final state after every replay — including resume, no-op
re-runs, deletes, and time travel."""

import shutil

import pyarrow as pa
import pyarrow.compute as pc

from go_datax_ray.pipelines.cdc_replay import (
    ReplayConfig,
    SynthEventSource,
    replay,
)
from go_datax_ray.sinks.lake import read_lake_table
from go_datax_ray.sinks.views import ViewSpec, partition_view_delta, read_view
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


def test_partition_view_delta_update_and_delete():
    """Hand-built old/new states: an update that MOVES a row across
    groups must emit -1/+1; a delete emits -1; sums follow."""
    spec = ViewSpec(name="s", group_cols=("lang",), sum_cols=("b",))
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
    d = partition_view_delta(old, new, spec)
    got = {r["lang"]: (r["n"], r["sum_b"]) for r in d.to_pylist()}
    # en: 2->1 (-1, -20); de: 1->0 (deleted); fr: 0->1 (+1, +21)
    assert got == {"en": (-1, -20), "de": (-1, -30), "fr": (1, 21)}


def test_view_empty_lake_returns_empty():
    shutil.rmtree("/tmp/gdr_empty_view_lake", ignore_errors=True)
    import os

    os.makedirs("/tmp/gdr_empty_view_lake", exist_ok=True)
    v = read_view("/tmp/gdr_empty_view_lake", SPEC)
    assert v.num_rows == 0
    assert v.column_names == ["lang", "n", "sum_text_len"]


def test_fold_view_deltas(tmp_path):
    """Folding compacts committed deltas into one base; the view is
    unchanged, new epochs keep accumulating on top, and a second fold
    absorbs the prior base."""
    from go_datax_ray.sinks.views import fold_view_deltas

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=2000,
                       views=(SPEC,))
    replay(SynthEventSource(6000, SynthConfig(n_urls=500)), cfg)
    before = _view(lake)
    res = fold_view_deltas(lake, SPEC)
    assert res["folded"] > 0
    assert _view(lake) == before == _recompute(lake)
    # new epochs on top of the base
    replay(SynthEventSource(10000, SynthConfig(n_urls=500)), cfg)
    assert _view(lake) == _recompute(lake)
    res2 = fold_view_deltas(lake, SPEC)
    assert res2["base_epoch"] > res["base_epoch"]
    assert _view(lake) == _recompute(lake)
    # asof below the folded base must raise (granularity gone)
    import pytest

    with pytest.raises(ValueError):
        read_view(lake, SPEC, asof_epoch=0)


def test_fold_view_cli(tmp_path):
    """CLI fold-view (no derive needed — measures already live in the
    delta files) matches the API result."""
    from go_datax_ray.lake_cli import main as cli

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=2000,
                       views=(SPEC,))
    replay(SynthEventSource(4000, SynthConfig(n_urls=400)), cfg)
    before = _view(lake)
    rc = cli(["fold-view", lake, "--view", "lang_stats",
              "--group-cols", "lang", "--sum-cols", "text_len"])
    assert rc == 0
    assert _view(lake) == before


def test_uncommitted_epoch_deltas_invisible(tmp_path):
    """Deltas written for an epoch the manifest never committed (crashed
    epoch) must not appear in read_view — visibility rides the manifest,
    exactly like data files."""
    from go_datax_ray.sinks.views import write_view_deltas
    from go_datax_ray.state.fs import LakeFS
    from go_datax_ray.state.manifest import Manifest

    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=4000,
                       views=(SPEC,))
    replay(SynthEventSource(4000, SynthConfig(n_urls=400)), cfg)
    before = _view(lake)
    # simulate a crashed epoch: delta files exist, manifest never moved
    crashed_epoch = Manifest.load(lake).epoch + 1
    fake_new = pa.table({
        "op": ["U"], "lang": ["zz"],
        "text": ["x" * 10],
    })
    write_view_deltas(LakeFS(lake), (SPEC,), None, fake_new,
                      crashed_epoch, 0)
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


def test_delete_where_refuses_a_view_it_was_not_given(tmp_path):
    """Without the lake's views, delete_where raises before it writes
    anything, naming each missing view; the CLI, which cannot pass a
    ``derive`` hook, refuses too."""
    import pytest

    from go_datax_ray.lake_cli import main as cli
    from go_datax_ray.sinks.lake import delete_where

    spec2 = ViewSpec(name="op_counts", group_cols=("lang", "op"))
    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4, views=(SPEC, spec2)))
    before = _lake_files(lake)
    with pytest.raises(ValueError, match=r"\['lang_stats', 'op_counts'\]"):
        delete_where(lake, [["lang", "=", "en"]])
    with pytest.raises(ValueError, match=r"\['op_counts'\]"):
        delete_where(lake, [["lang", "=", "en"]], views=(SPEC,))
    with pytest.raises(SystemExit):
        cli(["delete-where", lake, "--where", '[["lang","=","en"]]'])
    assert _lake_files(lake) == before


def test_compaction_epoch_hides_a_crashed_attempts_view_delta(tmp_path):
    """A compaction commits the epoch a crashed replay attempt wrote view
    deltas for; it clears them first, as a replay retry does, so they
    never become visible."""
    from go_datax_ray.sinks.lake import compact
    from go_datax_ray.sinks.views import write_view_deltas
    from go_datax_ray.state.fs import LakeFS
    from go_datax_ray.state.manifest import Manifest

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4, views=(SPEC,)))
    crashed_epoch = Manifest.load(lake).epoch + 1
    write_view_deltas(LakeFS(lake), (SPEC,), None,
                      pa.table({"op": ["U"], "lang": ["zz"], "text": ["x"]}),
                      crashed_epoch, 0)
    assert compact(lake)["epoch"] == crashed_epoch
    assert "zz" not in _view(lake)
    assert _view(lake) == _recompute(lake)


def test_maintenance_ops_take_the_writer_lock(tmp_path):
    """compact, delete_where and fold_view_deltas fail fast while
    another job holds the writer lock, and change nothing."""
    import pytest

    from go_datax_ray.sinks.lake import compact, delete_where
    from go_datax_ray.sinks.views import fold_view_deltas
    from go_datax_ray.state.fs import writer_lock

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(n_urls=300)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000,
                        views=(SPEC,)))
    before = _lake_files(lake)
    ops = [lambda: compact(lake),
           lambda: delete_where(lake, [["lang", "=", "en"]], views=(SPEC,)),
           lambda: fold_view_deltas(lake, SPEC)]
    with writer_lock(lake):  # an in-flight replay
        for op in ops:
            with pytest.raises(RuntimeError, match="another job holds the lake writer lock"):
                op()
    assert _lake_files(lake) == before
    # once the lock is free, each runs
    assert compact(lake)["epoch"] == 3
    assert delete_where(lake, [["lang", "=", "en"]], views=(SPEC,))["epoch"] == 4
    assert fold_view_deltas(lake, SPEC)["base_epoch"] == 4
