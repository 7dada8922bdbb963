"""Injected-crash exactly-once tests: kill the replay at each window of
the commit protocol (manifest.py commit_epoch: merge files -> fsync'd
commit record -> manifest swap -> old-file GC) and prove a resumed
replay converges to the exact uninterrupted final state with gap-free
lineage. The stale-debris test (test_replay.py) plants crash artifacts
by hand; these produce them the way a real crash would — by dying
mid-commit."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.state import manifest as manifest_mod
from go_datax_ray.state.manifest import Manifest
from go_datax_ray.synth import SynthConfig

N_EVENTS = 3000
CFG = SynthConfig(seed=23, n_urls=250, ts_range_s=600)
EPOCH_SIZE = 600  # -> 5 epochs


def _run(lake, *, n_events=N_EVENTS):
    return replay(
        SynthEventSource(n_events, CFG),
        ReplayConfig(lake_dir=str(lake), num_partitions=4,
                     epoch_size=EPOCH_SIZE),
    )


def _final(lake) -> pa.Table:
    from go_datax_ray.sinks.lake import read_lake_table

    return (read_lake_table(str(lake))
            .select(["url", "lsn", "warc_ts", "op", "text"])
            .sort_by("url"))


class _Boom(RuntimeError):
    pass


@pytest.fixture()
def expected(ray_session, tmp_path_factory):
    """Final state of an UNINTERRUPTED replay of the same source."""
    lake = tmp_path_factory.mktemp("clean") / "lake"
    _run(lake)
    return _final(lake)


def test_crash_before_commit_record(ray_session, tmp_path, monkeypatch,
                                    expected):
    """Die after the merge wrote epoch-2's partition files but before
    the commit record / manifest swap: the epoch is unacknowledged, so
    resume must reprocess it from the watermark and land the identical
    final state (the orphan merge outputs are simply overwritten)."""
    lake = tmp_path / "lake"
    real = Manifest.commit_epoch

    def dying(self, epoch, *a, **kw):
        if epoch == 2:
            raise _Boom("crash: merge files on disk, nothing committed")
        return real(self, epoch, *a, **kw)

    monkeypatch.setattr(Manifest, "commit_epoch", dying)
    with pytest.raises(_Boom):
        _run(lake)
    man = Manifest.load(str(lake))
    assert man.epoch == 1  # epochs 0-1 committed, 2 lost
    monkeypatch.setattr(Manifest, "commit_epoch", real)
    res = _run(lake)  # resume from watermark
    assert res.epochs == 3  # epochs 2-4 reprocessed, 0-1 skipped
    got = _final(lake)
    assert got.equals(expected)
    man = Manifest.load(str(lake))
    assert man.epoch == 4
    assert [rec["epoch"] for rec in man.lineage()] == [0, 1, 2, 3, 4]


def test_crash_between_record_and_swap(ray_session, tmp_path, monkeypatch,
                                       expected):
    """Die after epoch-2's commit record is fsync'd but before the
    manifest swap (the commit point): the record is an orphan the
    lineage reader must ignore, resume reprocesses epoch 2, and the
    re-written record replaces the orphan — no duplicate, no gap."""
    lake = tmp_path / "lake"
    real_save = Manifest._save_atomic

    def dying_save(self):
        # commit_epoch sets self.epoch before the swap, so this fires
        # exactly at epoch-2's commit point with the record already on disk
        if self.epoch == 2:
            raise _Boom("crash: commit record written, manifest not swapped")
        return real_save(self)

    monkeypatch.setattr(Manifest, "_save_atomic", dying_save)
    with pytest.raises(_Boom):
        _run(lake)
    monkeypatch.setattr(Manifest, "_save_atomic", real_save)
    man = Manifest.load(str(lake))
    assert man.epoch == 1  # swap never happened
    # the orphan record exists on disk but lineage() must filter it
    assert [rec["epoch"] for rec in man.lineage()] == [0, 1]
    res = _run(lake)
    assert res.epochs == 3
    got = _final(lake)
    assert got.equals(expected)
    man = Manifest.load(str(lake))
    assert [rec["epoch"] for rec in man.lineage()] == [0, 1, 2, 3, 4]
    # exactly-once: every live row appears exactly once across partitions
    urls = got.column("url").to_pylist()
    assert len(urls) == len(set(urls))


def test_repeated_crashes_converge(ray_session, tmp_path, monkeypatch,
                                   expected):
    """A replay that crashes on EVERY epoch commit once (worst-case flaky
    infrastructure) still converges: each resume advances exactly one
    epoch, and the final state is identical to the uninterrupted run."""
    lake = tmp_path / "lake"
    real = Manifest.commit_epoch
    crashed: set[int] = set()

    def flaky(self, epoch, *a, **kw):
        if epoch not in crashed:
            crashed.add(epoch)
            raise _Boom(f"crash at epoch {epoch}")
        return real(self, epoch, *a, **kw)

    monkeypatch.setattr(Manifest, "commit_epoch", flaky)
    for _ in range(6):
        try:
            _run(lake)
            break
        except _Boom:
            continue
    man = Manifest.load(str(lake))
    assert man.epoch == 4
    got = _final(lake)
    assert got.equals(expected)
    assert [rec["epoch"] for rec in man.lineage()] == [0, 1, 2, 3, 4]


def _lake_with_committed_pid0(tmp_path):
    """P=2 lake after 1000 synth events: (lake, committed file of pid 0)."""
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=2, epoch_size=1000)
    replay(SynthEventSource(1000, SynthConfig(seed=3)), cfg)
    return lake, cfg, Manifest.load(lake).partition_file(0)


def _merge_error(lake, cfg, path) -> str:
    """Replay the 100-event tail, which must fail in the merge of pid 0;
    returns the error text. The manifest must not have moved."""
    with pytest.raises(Exception) as ei:
        replay(SynthEventSource(1100, SynthConfig(seed=3)), cfg)
    man = Manifest.load(lake)
    assert man.epoch == 0 and man.partition_file(0) == path
    return str(ei.value)


def test_missing_committed_file_fails_the_merge(ray_session, tmp_path):
    """A committed partition file that has gone missing is an error, not
    an empty partition: reading it as empty would drop its rows."""
    import os

    lake, cfg, path = _lake_with_committed_pid0(tmp_path)
    os.remove(path)
    msg = _merge_error(lake, cfg, path)
    assert "epoch 1 partition 0" in msg and path in msg


def test_corrupt_committed_file_error_names_epoch_partition_file(ray_session, tmp_path):
    lake, cfg, path = _lake_with_committed_pid0(tmp_path)
    with open(path, "wb") as f:
        f.write(b"not a parquet file" * 10)
    msg = _merge_error(lake, cfg, path)
    assert "epoch 1 partition 0" in msg and path in msg


def test_merge_error_inside_a_chunk_names_its_partition(ray_session, tmp_path, monkeypatch):
    """The merge round runs min(P, CPUs) tasks over contiguous runs of
    sorted pids. A corrupt committed file whose pid sits in the middle
    of its run fails the epoch: the error names the epoch, that pid, its
    committed file and its delta files, and no commit record is written."""
    import os

    import ray
    import ray.data as rd

    cpus = int(ray.cluster_resources()["CPU"])
    nparts = 3 * cpus  # every run holds 3 pids
    runs = []
    real_from_items = rd.from_items

    def recording_from_items(items, **kwargs):
        ds = real_from_items(items, **kwargs)
        if items and "pid" in items[0]:
            runs.append([b["pid"].tolist() for b in
                         ds.iter_batches(batch_size=None, batch_format="numpy")])
        return ds

    monkeypatch.setattr(rd, "from_items", recording_from_items)
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=nparts, epoch_size=2000)
    replay(SynthEventSource(2000, SynthConfig(seed=3)), cfg)
    assert len(runs) == 1 and len(runs[0]) == min(nparts, cpus)
    assert sorted(runs[0]) == [list(range(i, i + 3)) for i in range(0, nparts, 3)]

    pid = sorted(runs[0])[-1][1]  # neither first nor last of its run
    path = Manifest.load(lake).partition_file(pid)
    with open(path, "wb") as f:
        f.write(b"not a parquet file" * 10)
    with pytest.raises(Exception) as ei:
        replay(SynthEventSource(2500, SynthConfig(seed=3)), cfg)
    msg = str(ei.value)
    assert f"epoch 1 partition {pid} " in msg and path in msg
    assert f"_delta/epoch-000001/part_id={pid}/" in msg
    man = Manifest.load(lake)
    assert man.epoch == 0 and man.partition_file(pid) == path
    assert not os.path.exists(os.path.join(lake, "_commits", "epoch-000001.json"))
