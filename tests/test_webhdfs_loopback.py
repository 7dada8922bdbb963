"""hdfsreader/hdfswriter and the lake over a REAL webhdfs:// REST
connection (loopback server, stdlib http.server): the reference's
hdfsreader walks and reads HDFS paths (hdfs_reader.go:81-139) and its
hdfswriter stages+renames into place (hdfs_writer.go). Until this round
the hdfs routing was exercised only via file:// — this drives the actual
WebHDFS REST protocol, including the namenode->datanode redirect dance
on every read and write, and the lake's manifest RENAME swap, which on
HDFS (unlike S3's copy+delete) is namenode-atomic."""

from __future__ import annotations

import gzip
import os

import pyarrow as pa
import ray.data as rd

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.registry import SINKS, SOURCES
from go_datax_ray.sinks.lake import read_lake, read_lake_table
from go_datax_ray.synth import SynthConfig

from _webhdfs_loopback import LoopbackWebHdfsServer


def _ds(n: int, blocks: int):
    t = pa.table({"id": list(range(n)), "v": [f"v{i}" for i in range(n)]})
    return rd.from_arrow(t).repartition(blocks)


def test_hdfswriter_then_hdfsreader_roundtrip(ray_session, tmp_path):
    root = tmp_path / "srv"
    root.mkdir()
    with LoopbackWebHdfsServer(str(root)) as url:
        res = SINKS["hdfswriter"](_ds(300, 3), {
            "path": f"{url}/out", "fileName": "r", "header": ["id", "v"],
            "minRowsPerFile": 100,
        })
        assert res["records"] == 300
        assert len(res["files"]) == 3
        # files really landed under the server's root, one per task
        on_disk = sorted(p.name for p in (root / "out").iterdir())
        assert on_disk == ["r_00000.csv", "r_00001.csv", "r_00002.csv"]
        assert all(f.startswith(url) for f in res["files"])

        ds = SOURCES["hdfsreader"]({
            "path": f"{url}/out/r_*.csv",
            "column": [{"index": 0, "type": "long"},
                       {"index": 1, "type": "string"}],
            "skipHeader": True,
        })
        rows = ds.take_all()
        assert sorted(r["column_0"] for r in rows) == list(range(300))


def test_hdfs_gzip_and_truncate(ray_session, tmp_path):
    root = tmp_path / "srv"
    root.mkdir()
    with LoopbackWebHdfsServer(str(root)) as url:
        SINKS["hdfswriter"](_ds(120, 1), {
            "path": f"{url}/gz", "fileName": "c", "compress": "gzip",
        })
        raw = (root / "gz" / "c_00000.csv.gz").read_bytes()
        assert len(gzip.decompress(raw).splitlines()) == 120
        assert SOURCES["hdfsreader"]({
            "path": f"{url}/gz/*.csv.gz",
            "column": [{"index": 0, "type": "long"},
                       {"index": 1, "type": "string"}],
            "compress": "gzip",
        }).count() == 120
        # truncate clears matching files up front over the REST path
        SINKS["hdfswriter"](_ds(50, 1), {
            "path": f"{url}/gz", "fileName": "c", "writeMode": "truncate",
        })
        on_disk = sorted(p.name for p in (root / "gz").iterdir())
        assert on_disk == ["c_00000.csv"]


def test_lake_replay_over_webhdfs(ray_session, tmp_path):
    root = tmp_path / "srv"
    root.mkdir()
    plain = str(tmp_path / "lake_plain")
    with LoopbackWebHdfsServer(str(root)) as url:
        uri = f"{url}/lake"
        cfg = SynthConfig(seed=11, n_urls=200)
        for lake in (plain, uri):
            res = replay(
                SynthEventSource(2000, cfg),
                ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000),
            )
            assert res.events == 2000 and res.epochs == 2
            assert [s.get("delta_bytes", 0) > 0 for s in res.epoch_stats] == [True] * 2
        # identical committed state on local disk and over webhdfs
        t_plain = read_lake_table(plain).drop_columns(["part_id"])
        t_hdfs = read_lake_table(uri).drop_columns(["part_id"])
        assert t_plain.equals(t_hdfs)
        # streaming (ray.data) read across worker processes
        assert read_lake(uri).count() == t_hdfs.num_rows
        # resume is a watermark no-op: the manifest survived its RENAME swap
        res2 = replay(
            SynthEventSource(2000, cfg),
            ReplayConfig(lake_dir=uri, num_partitions=4, epoch_size=1000),
        )
        assert res2.events == 0 and res2.epochs == 0
        # each epoch removed its delta files and their emptied directories
        assert os.listdir(root / "lake" / "_delta") == []
