"""LakeFS has one code path for every store: the same checks run over a
plain path, a ``file://`` URI and a loopback moto ``s3://`` bucket."""

import os
import posixpath

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.sinks.lake import lookup, read_lake, read_lake_table
from go_datax_ray.state.fs import LakeFS
from go_datax_ray.state.manifest import Manifest
from go_datax_ray.synth import SynthConfig

BUCKET = "lakefsbkt"


@pytest.fixture(params=["plain", "file", "s3"])
def fsh(request, tmp_path):
    if request.param == "plain":
        return LakeFS(str(tmp_path / "lake"))
    if request.param == "file":
        return LakeFS("file://" + str(tmp_path / "lake"))
    import boto3

    ep = request.getfixturevalue("moto_server")
    boto3.client("s3", endpoint_url=ep).create_bucket(Bucket=BUCKET)
    return LakeFS(f"s3://{BUCKET}/{tmp_path.name}")


def _write(fsh, rel: str, data: bytes) -> str:
    p = fsh.join(rel)
    fsh.makedirs(posixpath.dirname(p))
    with fsh.open(p, "wb") as f:
        f.write(data)
    return p


def test_parquet_round_trip(fsh):
    t = pa.table({"url": ["a", "b", "c"], "lsn": [3, 1, 2], "text": ["x", None, "z"]})
    p = fsh.join("part-00000", "part-00000-epoch-000000.parquet")
    fsh.write_parquet(t, p, compression="zstd")  # creates the parent dir
    assert fsh.read_parquet(p).equals(t)
    assert fsh.read_parquet(p, columns=["lsn"]).equals(t.select(["lsn"]))


def test_write_parquet_returns_the_bytes_written(fsh):
    t = pa.table({"url": ["a", "b", "c"], "lsn": [3, 1, 2]})
    p = fsh.join("d", "x.parquet")
    assert fsh.write_parquet(t, p, compression="zstd") == fsh.find(fsh.join("d"))[p] > 0


def test_glob_and_listdir_agree(fsh):
    for name in ("b.parquet", "a.parquet", "c.json"):
        _write(fsh, f"d/{name}", b"{}")
    names = ["a.parquet", "b.parquet", "c.json"]
    assert fsh.listdir(fsh.join("d")) == names
    assert [posixpath.basename(p) for p in fsh.glob(fsh.join("d", "*"))] == names
    assert [posixpath.basename(p) for p in fsh.glob(fsh.join("d", "*.parquet"))] == names[:2]
    assert fsh.glob(fsh.join("d", "*.csv")) == []


def test_find_lists_files_with_sizes(fsh):
    _write(fsh, "d/x.bin", b"a" * 1000)
    _write(fsh, "d/sub/y.bin", b"b" * 234)
    found = fsh.find(fsh.join("d"))
    assert found == {fsh.join("d", "sub", "y.bin"): 234, fsh.join("d", "x.bin"): 1000}
    assert list(found) == sorted(found)
    assert fsh.find(fsh.join("missing")) == {}


def test_rmtree_exists_isdir(fsh):
    p = _write(fsh, "d/sub/y.bin", b"b")
    d = fsh.join("d")
    assert fsh.exists(p) and not fsh.isdir(p)
    assert fsh.exists(d) and fsh.isdir(d)
    fsh.rmtree(d)
    assert not fsh.exists(p) and not fsh.exists(d) and not fsh.isdir(d)
    fsh.rmtree(d)  # missing: no error


def test_remove_listed_deletes_files_and_their_dirs(fsh):
    for pid in (0, 1):
        _write(fsh, f"d/part_id={pid}/x.bin", b"a")
    keep = _write(fsh, "kept/y.bin", b"b")
    d = fsh.join("d")
    fsh.remove_listed(d, fsh.find(d))
    assert fsh.find(d) == {} and not fsh.exists(d)
    assert fsh.exists(keep)
    fsh.remove_listed(fsh.join("missing"), {})  # nothing listed: no error


def test_relpath_inverts_join(fsh):
    for rel in ("_manifest.json", "part-00001/part-00001-epoch-000002.parquet"):
        assert fsh.relpath(fsh.join(rel)) == rel


def test_relative_lake_dir_matches_absolute(ray_session, tmp_path):
    """A relative ``lake_dir`` commits the same manifest ``file`` entries
    as the same replay at an absolute path; ``committed_files()`` come
    back absolute."""
    abs_lake = str(tmp_path / "abs_lake")
    rel_lake = os.path.relpath(str(tmp_path / "rel_lake"))
    assert not os.path.isabs(rel_lake)
    cfg = SynthConfig(seed=5, n_urls=120)
    for lake in (abs_lake, rel_lake):
        replay(SynthEventSource(2000, cfg),
               ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000))
    a, r = Manifest.load(abs_lake), Manifest.load(rel_lake)
    assert r.epoch == a.epoch == 1
    assert ({pid: e["file"] for pid, e in r.partitions.items()}
            == {pid: e["file"] for pid, e in a.partitions.items()})
    assert all(os.path.isabs(f) and os.path.exists(f) for f in r.committed_files())
    assert [rec["partitions"] for rec in r.lineage()] == [
        rec["partitions"] for rec in a.lineage()]


def _arrow(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_read_lake_blocks_share_the_committed_schema(ray_session, tmp_path):
    """Every block of a filtered ``read_lake`` has the committed schema,
    projected to ``columns``, also where a file's filter kept no rows,
    so the blocks concatenate."""
    import ray

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(2000, SynthConfig(seed=7, n_urls=150)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000,
                        retain_history=True))
    full = read_lake_table(lake)
    schema, url = full.schema, full.column("url")[0].as_py()
    for kw, names, rows in [
        ({"where": [["url", "=", url]]}, schema.names, 1),
        ({"asof_epoch": 0, "keys": [url]}, schema.names, 1),
        ({"where": [["url", "=", url]], "columns": ["url", "lsn"]}, ["url", "lsn"], 1),
        ({"where": [["lsn", ">", 10**9]]}, schema.names, 0),
    ]:
        blocks = ray.get(read_lake(lake, **kw).to_arrow_refs())
        assert len(blocks) > 1, kw
        assert all(b.schema.names == names for b in blocks), kw
        assert pa.concat_tables(blocks).num_rows == rows, kw


def test_read_lake_streams_each_file_in_row_groups(ray_session, tmp_path):
    """``read_lake``'s tasks stream each file one record batch at a time
    (``_scan_batches``) instead of holding the whole filtered file, and
    a scan whose filter keeps no rows yields one empty table of the
    projected schema."""
    import pyarrow.parquet as pq

    from go_datax_ray.sinks.lake import _read_plan, _scan_batches

    lake = str(tmp_path / "lake")
    replay(SynthEventSource(3000, SynthConfig(seed=5, n_urls=1000)),
           ReplayConfig(lake_dir=lake, num_partitions=2, epoch_size=3000))
    files = Manifest.load(lake).committed_files()
    for f in files:  # the same rows, in 50-row row groups
        pq.write_table(pq.read_table(f), f, row_group_size=50)
    pafs, files, schema, expr = _read_plan(lake)
    tables = list(_scan_batches(pafs, files, schema, expr))
    assert len(tables) > len(files)
    assert max(t.num_rows for t in tables) <= 50
    got = pa.concat_tables(tables).sort_by("url")
    assert got.equals(read_lake_table(lake).sort_by("url"))
    assert _arrow(read_lake(lake)).sort_by("url").equals(got)

    pafs, files, schema, expr = _read_plan(lake, where=[["lsn", ">", 10**9]])
    (empty,) = _scan_batches(pafs, files, schema, expr, ["url", "lsn"])
    assert empty.num_rows == 0 and empty.schema.names == ["url", "lsn"]


def test_lookup_matches_full_read(fsh):
    """``lookup`` and ``read_lake(keys=)`` return exactly the full read's
    rows for live, tombstoned and never-seen keys, on every store; with
    ``asof_epoch`` the keys filter that epoch's files."""
    lake = fsh.base
    replay(SynthEventSource(2000, SynthConfig(seed=7, n_urls=150)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000,
                        retain_history=True))
    raw = read_lake_table(lake, final_state=False)
    dead = raw.filter(pc.equal(raw.column("op"), "D")).column("url")[0].as_py()
    full = read_lake_table(lake)
    live = full.column("url").to_pylist()[:2]
    keys = [*live, dead, "https://never.example.org/x"]

    def want(t, keys, cols=None):
        t = t.filter(pc.is_in(t.column("url"), pa.array(keys))).sort_by("url")
        return t.select(cols) if cols else t

    assert lookup(lake, keys).sort_by("url").equals(want(full, keys))
    assert want(full, keys).column("url").to_pylist() == sorted(live)
    assert lookup(lake, [dead]).num_rows == 0
    # columns= that names neither the key nor op
    assert lookup(lake, keys, columns=["lsn", "lang"]).sort_by("lsn").equals(
        want(full, keys, ["lsn", "lang"]).sort_by("lsn"))
    assert _arrow(read_lake(lake, keys=keys)).sort_by("url").equals(want(full, keys))
    # asof_epoch + keys reads epoch 0's files: a key that epoch 1
    # rewrote comes back with its epoch-0 row
    then = _arrow(read_lake(lake, asof_epoch=0))
    now = dict(zip(full.column("url").to_pylist(), full.column("lsn").to_pylist()))
    changed = next(u for u, lsn in zip(then.column("url").to_pylist(),
                                       then.column("lsn").to_pylist())
                   if u in now and now[u] != lsn)
    got = _arrow(read_lake(lake, asof_epoch=0, keys=[*keys, changed],
                           columns=["url", "lsn"])).sort_by("url")
    assert changed in got.column("url").to_pylist()
    assert got.equals(want(then, [*keys, changed], ["url", "lsn"]))


@pytest.mark.parametrize("fsh", ["plain", "s3"], indirect=True)
def test_reads_without_payload_statistics(ray_session, fsh):
    """The partition files keep no min/max on ``html`` and ``text``, so
    nothing prunes on them: filtered reads on those columns, key reads
    and time travel still return exactly the rows of a full read
    filtered here."""
    import pyarrow.parquet as pq

    lake = fsh.base
    replay(SynthEventSource(2000, SynthConfig(seed=9, n_urls=150)),
           ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000,
                        extract_text=True, retain_history=True))
    man = Manifest.load(lake)
    md = pq.read_metadata(man.committed_files()[0], filesystem=fsh.pafs)
    names = md.schema.names
    rg = md.row_group(0)
    assert not rg.column(names.index("text")).is_stats_set
    assert not rg.column(names.index("html")).is_stats_set

    full = read_lake_table(lake)
    text, html = full.column("text")[5].as_py(), full.column("html")[7].as_py()
    mid = sorted(full.column("text").to_pylist())[full.num_rows // 2]

    def want(t, mask):
        return t.filter(mask).sort_by("url")

    for where, mask in [
        ([["text", "=", text]], pc.equal(full.column("text"), text)),
        ([["text", ">=", mid]], pc.greater_equal(full.column("text"), mid)),
        ([["html", "=", html]], pc.equal(full.column("html"), pa.scalar(html, pa.large_binary()))),
    ]:
        expect = want(full, mask)
        assert expect.num_rows > 0, where
        assert _arrow(read_lake(lake, where=where)).sort_by("url").equals(expect), where

    keys = full.column("url").to_pylist()[::40]
    expect = want(full, pc.is_in(full.column("url"), pa.array(keys)))
    assert lookup(lake, keys).sort_by("url").equals(expect)
    assert _arrow(read_lake(lake, keys=keys)).sort_by("url").equals(expect)

    then = _arrow(read_lake(lake, asof_epoch=0))
    then_text = then.column("text")[3].as_py()
    got = _arrow(read_lake(lake, asof_epoch=0, where=[["text", "=", then_text]]))
    assert got.sort_by("url").equals(want(then, pc.equal(then.column("text"), then_text)))
