"""Lake on an fsspec filesystem (file:// URI): the full exactly-once
replay path with NO os.replace on data files (content-addressed epoch
files + manifest-pointer visibility), exercised through the same public
surface as the local-path lake."""

import pyarrow as pa
import pytest

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.sinks.lake import read_lake, read_lake_table
from go_datax_ray.state.manifest import Manifest
from go_datax_ray.synth import SynthConfig


def test_fsspec_file_uri_replay_round_trip(tmp_path):
    plain = str(tmp_path / "lake_plain")
    uri = "file://" + str(tmp_path / "lake_uri")
    cfg = SynthConfig(seed=11, n_urls=300)
    for lake in (plain, uri):
        res = replay(
            SynthEventSource(3000, cfg),
            ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000),
        )
        assert res.events == 3000 and res.epochs == 3
        # every epoch wrote deltas, and their bytes are counted on both
        # path styles
        assert [s.get("delta_bytes", 0) > 0 for s in res.epoch_stats] == [True] * 3
    # identical committed state through both path styles
    t_plain = read_lake_table(plain).drop_columns(["part_id"])
    t_uri = read_lake_table(uri).drop_columns(["part_id"])
    assert t_plain.equals(t_uri)
    # streaming read over the URI lake
    assert read_lake(uri).count() == t_uri.num_rows
    # resume on the URI lake is a watermark no-op
    res2 = replay(
        SynthEventSource(3000, cfg),
        ReplayConfig(lake_dir=uri, num_partitions=4, epoch_size=1000),
    )
    assert res2.events == 0 and res2.epochs == 0
    # lineage reconciles through fsspec too
    man = Manifest.load(uri)
    assert len(man.lineage()) == man.epoch + 1 == 3

