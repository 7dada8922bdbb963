"""Commit-record fencing: the epoch commit CAS (atomic create-if-absent)
that detects concurrent committers instead of silently last-writer-
winning. Covers the filesystem primitive (os.link locally, conditional
PUT on the boto s3 path, None on generic fsspec) and the three
resolution branches in Manifest._write_commit_record_fenced:

  1. stable-identical existing record  -> proceed (resumed replay)
  2. manifest already moved past epoch -> raise (concurrent winner)
  3. orphan with a different slice     -> reclaim (single-writer rule)
"""

from __future__ import annotations

import json
import os

import pytest

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.state.fs import LakeFS
from go_datax_ray.state.manifest import COMMITS_DIR, Manifest, final_path
from go_datax_ray.synth import SynthConfig


# ---------------------------------------------------------------- primitive


def test_write_json_if_absent_local(tmp_path):
    fsh = LakeFS(str(tmp_path))
    p = str(tmp_path / "rec.json")
    assert fsh.write_json_if_absent(p, '{"v": 1}') is True
    assert fsh.write_json_if_absent(p, '{"v": 2}') is False
    assert json.load(open(p)) == {"v": 1}  # loser never mutates
    # no tmp debris either way
    assert [f for f in os.listdir(tmp_path) if ".tmp" in f] == []


def test_write_json_if_absent_generic_fsspec_is_none(tmp_path):
    fsh = LakeFS("file://" + str(tmp_path))
    assert fsh.write_json_if_absent(fsh.join("rec.json"), "{}") is None


def test_put_if_absent_s3(moto_server):
    import boto3

    boto3.client("s3", endpoint_url=moto_server).create_bucket(Bucket="casbkt")
    fsh = LakeFS("s3://casbkt/lake")
    p = fsh.join(COMMITS_DIR, "epoch-000000.json")
    assert fsh.write_json_if_absent(p, '{"v": 1}') is True
    assert fsh.write_json_if_absent(p, '{"v": 2}') is False
    with fsh.open(p, "rb") as f:
        assert json.load(f) == {"v": 1}


# ------------------------------------------------------------- the 3 branches


def _commit_once(lake: str, n: int = 1000, seed: int = 7) -> Manifest:
    replay(
        SynthEventSource(n, SynthConfig(seed=seed, n_urls=100)),
        ReplayConfig(lake_dir=lake, num_partitions=2, epoch_size=n),
    )
    return Manifest.load(lake)


def test_resumed_identical_commit_proceeds(ray_session, tmp_path):
    """Branch 1: a crash between the record write and the manifest swap
    replays the epoch idempotically — the retry's CAS loses against our
    own predecessor's stable-identical record and the commit still
    completes, keeping the first attempt's record."""
    import shutil

    lake = str(tmp_path / "lake")
    man = _commit_once(lake)
    assert man.epoch == 0
    entries = []
    for pid in range(2):
        if man.fsh.exists(final_path(lake, pid, 0)):
            shutil.copyfile(final_path(lake, pid, 0), final_path(lake, pid, 1))
            entries.append({"pid": pid, "rows": 1, "events": 1, "max_lsn": 1999})
    # the crashed predecessor's record: stable fields EXACTLY what the
    # retry will produce, timing fields different (per-attempt)
    predecessor = {
        "epoch": 1, "lsn_lo": 1000, "lsn_hi": 2000,
        "committed_at": 0.0, "wall_s": 123.0,
        "events": sum(int(e["events"]) for e in entries),
        "events_per_sec": None,
        "partitions": {
            str(int(e["pid"])): {
                "file": f"part-{int(e['pid']):05d}/part-{int(e['pid']):05d}-epoch-000001.parquet",
                "rows": int(e["rows"]),
                "events": int(e["events"]),
                "max_lsn": int(e["max_lsn"]),
            }
            for e in entries
        },
    }
    man.fsh.write_json_atomic(
        man.fsh.join(COMMITS_DIR, "epoch-000001.json"), json.dumps(predecessor))
    m2 = Manifest.load(lake)
    assert m2.commit_epoch(1, 1000, 2000, entries, man.schema_json, wall_s=1.0)
    final = Manifest.load(lake)
    assert final.epoch == 1
    # the predecessor's record was kept, not overwritten
    assert final.lineage()[-1]["committed_at"] == 0.0
    assert final.lineage()[-1]["wall_s"] == 123.0


def test_concurrent_winner_detected(ray_session, tmp_path):
    """Branch 2: writer B holds a stale manifest; writer A commits epoch 1
    (record + swap). B's commit of a DIFFERENT epoch-1 slice must raise,
    not overwrite."""
    lake = str(tmp_path / "lake")
    man = _commit_once(lake)
    a = Manifest.load(lake)
    b = Manifest.load(lake)
    import shutil

    entries = []
    for pid in range(2):
        if man.fsh.exists(final_path(lake, pid, 0)):
            shutil.copyfile(final_path(lake, pid, 0), final_path(lake, pid, 1))
            entries.append({"pid": pid, "rows": 1, "events": 1, "max_lsn": 1999})
    assert a.commit_epoch(1, 1000, 2000, entries, man.schema_json, wall_s=1.0)
    # B raced the same epoch with a different slice boundary
    b_entries = [dict(e, max_lsn=2500) for e in entries]
    with pytest.raises(RuntimeError, match="concurrent writer"):
        b.commit_epoch(1, 1000, 2500, b_entries, man.schema_json, wall_s=1.0)
    # A's commit record is intact
    final = Manifest.load(lake)
    assert final.lineage()[-1]["lsn_hi"] == 2000


def test_orphan_record_reclaimed(ray_session, tmp_path):
    """Branch 3: a crashed predecessor left an epoch-1 record for a
    DIFFERENT slice (the WAL grew between attempts) and never swapped the
    manifest. The retry reclaims the orphan and commits."""
    lake = str(tmp_path / "lake")
    man = _commit_once(lake)
    # orphan record: epoch 1 with an old, shorter slice
    fsh = man.fsh
    orphan = {
        "epoch": 1, "lsn_lo": 1000, "lsn_hi": 1500,
        "committed_at": 0.0, "wall_s": 0.5, "events": 500,
        "events_per_sec": 1000.0, "partitions": {},
    }
    fsh.write_json_atomic(
        fsh.join(COMMITS_DIR, "epoch-000001.json"), json.dumps(orphan))
    import shutil

    entries = []
    for pid in range(2):
        if fsh.exists(final_path(lake, pid, 0)):
            shutil.copyfile(final_path(lake, pid, 0), final_path(lake, pid, 1))
            entries.append({"pid": pid, "rows": 1, "events": 1, "max_lsn": 1999})
    m2 = Manifest.load(lake)
    assert m2.commit_epoch(1, 1000, 2000, entries, man.schema_json, wall_s=1.0)
    final = Manifest.load(lake)
    assert final.epoch == 1
    assert final.lineage()[-1]["lsn_hi"] == 2000  # reclaimed, not the orphan


def test_manifest_swap_if_match_s3(moto_server):
    """The manifest pointer itself is CAS-protected on the boto s3 path:
    a writer whose loaded snapshot went stale loses the swap LOUDLY —
    the backstop for maintenance jobs (compact/gc/delete) racing a
    replay on a remote lake, where no flock exists. That includes a
    racer that overwrites the manifest right after our conditional
    create: the tag kept for the next swap is the create's own, never
    the racer's."""
    import boto3

    boto3.client("s3", endpoint_url=moto_server).create_bucket(Bucket="swapbkt")
    lake = "s3://swapbkt/lake"
    m0 = Manifest(lake_dir=lake, num_partitions=2)
    racer = boto3.client("s3", endpoint_url=moto_server)
    events = m0.fsh.fs._client.meta.events
    raced = []

    def overwrite_once(**kwargs):
        if not raced:
            raced.append(True)
            racer.put_object(Bucket="swapbkt", Key="lake/_manifest.json",
                             Body=json.dumps({
                                 "num_partitions": 2, "watermark_lsn": 7,
                                 "epoch": -1, "schema_json": None,
                                 "partitions": {}, "key": None,
                                 "hash_fn": None}))

    events.register("after-call.s3.PutObject", overwrite_once)
    try:
        m0._save_atomic()  # first write: if-absent, then the racer's PUT
    finally:
        events.unregister("after-call.s3.PutObject", overwrite_once)
    assert raced
    m0.watermark_lsn = 50
    with pytest.raises(RuntimeError, match="manifest swap lost"):
        m0._save_atomic()  # the racer's write must not be overwritten
    assert Manifest.load(lake).watermark_lsn == 7
    a = Manifest.load(lake)
    b = Manifest.load(lake)
    a.watermark_lsn = 100
    a._save_atomic()  # A swaps first
    b.watermark_lsn = 200
    with pytest.raises(RuntimeError, match="manifest swap lost"):
        b._save_atomic()  # B's snapshot is stale
    # A's state survived; B reloads and can proceed
    cur = Manifest.load(lake)
    assert cur.watermark_lsn == 100
    cur.watermark_lsn = 200
    cur._save_atomic()
    assert Manifest.load(lake).watermark_lsn == 200
    # creating over an existing manifest (tag None) also loses loudly
    fresh = Manifest(lake_dir=lake, num_partitions=2)
    with pytest.raises(RuntimeError, match="manifest swap lost"):
        fresh._save_atomic()


def test_conditional_put_resent_after_lost_response_s3(moto_server, monkeypatch):
    """botocore re-sends a PUT whose response was lost. When the first
    conditional PUT had landed, the re-send fails its condition against
    this writer's own object (412). Commits must still succeed and keep
    the object's real ETag for the next If-Match swap."""
    import boto3

    s3 = boto3.client("s3", endpoint_url=moto_server)
    s3.create_bucket(Bucket="resendbkt")
    lake = "s3://resendbkt/lake"
    man = Manifest(lake_dir=lake, num_partitions=2)
    client = man.fsh.fs._client
    real_put = client.put_object
    resent = []

    def put_with_lost_response(**kw):
        if "IfMatch" in kw or "IfNoneMatch" in kw:
            real_put(**kw)  # lands; its response never reaches us
            resent.append(kw["Key"])
        return real_put(**kw)

    monkeypatch.setattr(client, "put_object", put_with_lost_response)
    for epoch in (0, 1):  # If-None-Match create, then If-Match swap
        assert man.commit_epoch(epoch, epoch * 10, epoch * 10 + 9, [], None,
                                wall_s=0.1)
        head = s3.head_object(Bucket="resendbkt", Key="lake/_manifest.json")
        assert man._swap_tag == head["ETag"]
    assert resent.count("lake/_manifest.json") == 2
    assert resent.count("lake/_commits/epoch-000001.json") == 1
    assert Manifest.load(lake).watermark_lsn == 19


def test_replay_still_green_end_to_end(ray_session, tmp_path):
    """The fenced record write is invisible to the normal replay path:
    multi-epoch replay + resume no-op behave exactly as before."""
    lake = str(tmp_path / "lake")
    cfg = SynthConfig(seed=3, n_urls=150)
    res = replay(
        SynthEventSource(3000, cfg),
        ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000),
    )
    assert res.events == 3000 and res.epochs == 3
    res2 = replay(
        SynthEventSource(3000, cfg),
        ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000),
    )
    assert res2.events == 0 and res2.epochs == 0
    man = Manifest.load(lake)
    assert len(man.lineage()) == man.epoch + 1 == 3
