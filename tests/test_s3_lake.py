"""Object-store exercise: the lake and the oss/s3 file IO against a REAL
S3 endpoint — a loopback moto server — through the boto3-backed fsspec
fallback (state/s3boto.py).

test_fsspec_lake / test_fsspec_files prove the fsspec code paths over
file://; this module proves them over the actual S3 wire protocol:
prefix listings, ranged GETs, multipart uploads, copy+delete manifest
swap (NOT atomic — the documented hard single-writer requirement for
object-store lakes, state/fs.py module docstring), and the no-rename
content-addressed data plane. The endpoint/credential env is pinned in
conftest.py BEFORE ray.init so Ray worker processes inherit it.
"""

import os

import pytest

pytest.importorskip("moto")
pytest.importorskip("boto3")

from go_datax_ray.engine import run_job
from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.sinks.lake import read_lake, read_lake_table
from go_datax_ray.state.fs import LakeFS
from go_datax_ray.state.manifest import Manifest
from go_datax_ray.state.s3boto import BotoS3FileSystem
from go_datax_ray.synth import SynthConfig

BUCKET = "enginetest"


@pytest.fixture(scope="module")
def s3_bucket(moto_server):
    import boto3

    boto3.client("s3", endpoint_url=moto_server).create_bucket(Bucket=BUCKET)
    return BUCKET


def test_s3_lake_replay_round_trip(s3_bucket, tmp_path):
    plain = str(tmp_path / "lake_plain")
    uri = f"s3://{s3_bucket}/lake_rt"
    cfg = SynthConfig(seed=11, n_urls=300)
    for lake in (plain, uri):
        res = replay(
            SynthEventSource(3000, cfg),
            ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000),
        )
        assert res.events == 3000 and res.epochs == 3
        assert [s.get("delta_bytes", 0) > 0 for s in res.epoch_stats] == [True] * 3
    # identical committed state on local disk and on the object store
    t_plain = read_lake_table(plain).drop_columns(["part_id"])
    t_s3 = read_lake_table(uri).drop_columns(["part_id"])
    assert t_plain.equals(t_s3)
    # streaming (ray.data) read over the s3 lake
    assert read_lake(uri).count() == t_s3.num_rows
    # resume is a watermark no-op over s3 too
    res2 = replay(
        SynthEventSource(3000, cfg),
        ReplayConfig(lake_dir=uri, num_partitions=4, epoch_size=1000),
    )
    assert res2.events == 0 and res2.epochs == 0
    # lineage reconciles through the object store
    man = Manifest.load(uri)
    assert len(man.lineage()) == man.epoch + 1 == 3
    # every epoch deleted the delta files it listed
    assert man.fsh.find(man.fsh.join("_delta")) == {}


def test_s3_tail_cycle_request_budget(s3_bucket, moto_requests):
    """One tail cycle on the object store sends at most 6 requests per
    partition it touches, plus 10, counted at the moto endpoint: every
    merge input is one GET, with no HEADs before it."""
    import collections

    lake = f"s3://{s3_bucket}/budget"
    cfg = SynthConfig(seed=3, n_urls=2000)
    rc = ReplayConfig(lake_dir=lake, num_partitions=32, epoch_size=10**9)
    replay(SynthEventSource(4000, cfg), rc)
    moto_requests.clear()
    assert replay(SynthEventSource(4400, cfg), rc).epochs == 1
    counts = collections.Counter(t for t, _ in moto_requests)
    touched = len(Manifest.load(lake).lineage()[-1]["partitions"])
    assert touched >= 16
    assert sum(counts.values()) <= 6 * touched + 10, (touched, dict(counts))


def test_oss_reader_writer_over_s3(s3_bucket):
    out = f"s3://{s3_bucket}/oss_out"
    job = {
        "job": {
            "content": [{
                "reader": {"name": "parquetreader", "parameter": {
                    "path": "/root/testdata/sf0.001/region.parquet",
                    "column": ["r_regionkey", "r_name"],
                }},
                "writer": {"name": "osswriter", "parameter": {
                    "path": out, "fileName": "region",
                    "writeMode": "truncate",
                }},
            }]
        }
    }
    res = run_job(job)
    assert res.records == 5
    assert all(f.startswith("s3://") for f in res.sink_result["files"])
    # read back through the ossreader with a glob over the bucket prefix
    back = {
        "job": {
            "content": [{
                "reader": {"name": "ossreader", "parameter": {
                    "path": f"{out}/region*"}},
                "writer": {"name": "streamwriter", "parameter": {"print": False}},
            }]
        }
    }
    assert run_job(back).records == 5
    # nonConflict sees the existing objects via the prefix listing
    job["job"]["content"][0]["writer"]["parameter"]["writeMode"] = "nonConflict"
    with pytest.raises(Exception, match="nonConflict"):
        run_job(job)


def test_s3_maintenance_soak(s3_bucket, ray_session):
    """The FULL maintenance soak (replay, delete_where, compaction,
    time-travel, gc_history, gc_orphans — scripts/lake_soak.py) over the
    object store: every manifest save in every maintenance op rides the
    If-Match conditional swap, the data plane stays rename-free, and the
    exact driver-side LWW oracle must hold bit-for-bit as it does
    locally."""
    import importlib.util

    p = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts", "lake_soak.py")
    spec = importlib.util.spec_from_file_location("lake_soak_s3", p)
    soak = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(soak)
    stats = soak.run_soak(f"s3://{s3_bucket}/soak", cycles=2,
                          events_per_cycle=800, n_urls=150)
    assert stats["cycles"] == 2
    assert stats["compactions"] == 2
    assert stats["tombstones_dropped"] > 0
    assert stats["asof_checks"] >= 6
    assert stats["gc_orphans_removed"] >= 1
    assert stats["evolution_checks"] >= 2
    # the maintained view: after each replay (the second one without the
    # view), delete_where and compaction, and as of a retained epoch
    assert stats["view_checks"] == 6


def test_s3_multipart_and_manifest_swap(s3_bucket):
    fsh = LakeFS(f"s3://{s3_bucket}/raw")
    # multipart upload: 11 MiB through the buffered file (5 MiB parts ->
    # 2 parts + final), then ranged read-back of head and tail
    p = fsh.join("big.bin")
    payload = (b"0123456789abcdef" * (11 * 2**20 // 16))
    with fsh.open(p, "wb") as f:
        f.write(payload)
    with fsh.open(p, "rb") as f:
        assert f.read(16) == payload[:16]
        f.seek(len(payload) - 16)
        assert f.read(16) == payload[-16:]
    assert fsh.exists(p) and isinstance(fsh.fs, BotoS3FileSystem)
    # manifest-style swap: tmp write + mv (copy+delete on S3) is
    # last-writer-wins, never leaves the tmp object behind
    m = fsh.join("_manifest.json")
    fsh.write_json_atomic(m, '{"epoch": 0}')
    fsh.write_json_atomic(m, '{"epoch": 1}')
    with fsh.open(m, "rb") as f:
        assert b'"epoch": 1' in f.read()
    assert not fsh.exists(m + ".tmp")
    # listing and delete through the facade
    assert "big.bin" in fsh.listdir(fsh.join(""))
    assert fsh.remove_many([p]) == []
    assert not fsh.exists(p)


def test_boto_fs_pickle_keeps_endpoint(monkeypatch):
    """Task closures carry the filesystem pickled: an explicit
    ``endpoint_url`` must survive the round trip, not be re-resolved
    from ``AWS_ENDPOINT_URL`` on the worker."""
    import pickle

    from go_datax_ray.state.s3boto import BotoS3FileSystem

    monkeypatch.setenv("AWS_ENDPOINT_URL", "http://127.0.0.1:1")
    fs = BotoS3FileSystem(endpoint_url="http://127.0.0.1:2")
    blob = pickle.dumps(fs)
    BotoS3FileSystem.clear_instance_cache()
    assert pickle.loads(blob)._client.meta.endpoint_url == "http://127.0.0.1:2"


@pytest.mark.parametrize("size", [6 * 2**20, 2**20], ids=["multipart", "single-put"])
def test_s3_write_that_raises_publishes_nothing(s3_bucket, size):
    """A write whose ``with`` block raises leaves neither an object nor
    an open multipart upload behind, above and below one 5 MiB part. A
    smaller requested block size is clamped to the 5 MiB S3 part floor."""
    import boto3

    fs = LakeFS(f"s3://{s3_bucket}/aborted").fs
    key = f"{s3_bucket}/aborted/obj-{size}.bin"
    with pytest.raises(RuntimeError, match="mid-write"):
        with fs.open(key, "wb", block_size=2**20) as f:
            assert f.blocksize == 5 * 2**20
            f.write(b"x" * size)
            raise RuntimeError("mid-write failure")
    assert not fs.exists(key)
    s3 = boto3.client("s3", endpoint_url=os.environ["AWS_ENDPOINT_URL"])
    ups = s3.list_multipart_uploads(Bucket=s3_bucket, Prefix="aborted/")
    assert ups.get("Uploads", []) == []


def test_boto_find_is_one_prefix_listing(s3_bucket):
    """``BotoS3FileSystem.find`` returns what fsspec's generic
    directory walk returns, from one LIST for a 32-partition delta dir."""
    from fsspec import AbstractFileSystem

    fs = BotoS3FileSystem(skip_instance_cache=True)
    top = f"{s3_bucket}/findtest/_delta/epoch-000001"
    for pid in range(32):
        fs.pipe_file(f"{top}/part_id={pid}/{pid:03d}_000000_0.parquet", b"x" * (pid + 1))
    fs.pipe_file(f"{top}/part_id=3/sub/deeper.parquet", b"yy")
    bucket, key = fs._split(top)
    fs._client.put_object(Bucket=bucket, Key=f"{key}/part_id=4/", Body=b"")  # a directory marker
    lists = []
    fs._client.meta.events.register(
        "before-call.s3.ListObjectsV2", lambda **kw: lists.append(1))
    got = fs.find(top, detail=True)
    assert len(lists) == 1
    assert len(got) == 33 and got[f"{top}/part_id=5/005_000000_0.parquet"]["size"] == 6
    assert got == AbstractFileSystem.find(fs, top, detail=True)
    assert list(got) == AbstractFileSystem.find(fs, top)
    assert fs.find(top) == list(got)
    # a literal object and a missing path, as the generic find has them
    one = f"{top}/part_id=7/007_000000_0.parquet"
    assert fs.find(one, detail=True) == AbstractFileSystem.find(fs, one, detail=True)
    assert fs.find(f"{top}/nothing") == AbstractFileSystem.find(fs, f"{top}/nothing") == []


def test_remove_listed_sends_one_delete_objects(s3_bucket, monkeypatch):
    """Removing a 33-file delta listing sends one batched
    ``DeleteObjects`` and no single ``DeleteObject``; 1001 keys take two
    requests; a key the store reports as not deleted is returned, and
    ``remove_listed`` raises on it."""
    fsh = LakeFS(f"s3://{s3_bucket}/rmtest")
    fsh.fs = BotoS3FileSystem(skip_instance_cache=True)
    top = fsh.join("_delta", "epoch-000001")
    for pid in range(33):
        fsh.fs.pipe_file(f"{top}/part_id={pid}/x.parquet", b"x")
    calls = []
    for op in ("DeleteObjects", "DeleteObject"):
        fsh.fs._client.meta.events.register(
            f"before-call.s3.{op}", lambda event_name, **kw: calls.append(event_name))
    listing = fsh.find(top)
    assert len(listing) == 33
    fsh.remove_listed(top, listing)
    assert calls == ["before-call.s3.DeleteObjects"]
    assert fsh.find(top) == {}
    calls.clear()
    assert fsh.remove_many(fsh.join("gone", f"{i}.parquet") for i in range(1001)) == []
    assert calls == ["before-call.s3.DeleteObjects"] * 2
    monkeypatch.setattr(fsh.fs._client, "delete_objects", lambda **kw: {
        "Errors": [{"Key": "rmtest/x", "Code": "AccessDenied"}]})
    assert fsh.remove_many([fsh.join("x")]) == [fsh.join("x")]
    with pytest.raises(OSError, match="rmtest/x"):
        fsh.remove_listed(top, {fsh.join("x"): 1})
