"""Round-4 regression tests for the ADVICE.md (r3) findings.

- pre-metadata manifests (no key/hash_fn fields) must be treated as
  placement-UNKNOWN: no pruning with guessed defaults, no false replay
  rejection, fields backfilled on the next commit
- per-jdbcUrl split must drop splitMode along with splitPk (token mode
  used to crash the recursive per-URL read)
- read_lake(keys=[ints]) against a string key column must cast the
  value set instead of raising an is_in type mismatch
"""

import json
import sqlite3

import numpy as np
import pyarrow as pa
import pytest

from go_datax_ray.pipelines.cdc_replay import (
    DatasetEventSource,
    ReplayConfig,
    SynthEventSource,
    replay,
)
from go_datax_ray.sinks.lake import read_lake
from go_datax_ray.state.manifest import MANIFEST_NAME, Manifest
from go_datax_ray.synth import SynthConfig


def _strip_placement(lake_dir: str) -> None:
    """Rewrite _manifest.json as a pre-metadata manifest (no key/hash_fn)."""
    p = f"{lake_dir}/{MANIFEST_NAME}"
    with open(p) as f:
        d = json.load(f)
    d.pop("key", None)
    d.pop("hash_fn", None)
    with open(p, "w") as f:
        json.dump(d, f)


def test_pre_metadata_manifest_placement_unknown(tmp_path):
    """ADVICE medium: a lake built with hash_fn='md5' whose manifest
    predates the key/hash_fn fields must not be pruned with the crc32
    default (silent missing rows) nor rejected by the replay guard."""
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=8, hash_fn="md5",
                       epoch_size=500)
    replay(SynthEventSource(500, SynthConfig(seed=3, n_urls=80)), cfg)
    _strip_placement(lake)

    man = Manifest.load(lake)
    assert man.key is None and man.hash_fn is None
    # pruning must fall back to scanning every committed file
    assert sorted(man.files_for_keys(["anything"])) == sorted(man.committed_files())
    # point lookup must fail loudly, not guess a key column
    with pytest.raises(ValueError, match="predates key metadata"):
        read_lake(lake, keys=["anything"])
    # resuming with the ORIGINAL (non-default) config must not be rejected
    res = replay(SynthEventSource(700, SynthConfig(seed=3, n_urls=80)), cfg)
    assert res.events == 200  # only the new tail replays
    man2 = Manifest.load(lake)
    assert (man2.key, man2.hash_fn) == ("url", "md5")  # backfilled


def test_pre_metadata_manifest_wrong_config_still_caught(tmp_path):
    """The partition-COUNT guard still fires on pre-metadata manifests."""
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=8, epoch_size=500)
    replay(SynthEventSource(500, SynthConfig(seed=3, n_urls=80)), cfg)
    _strip_placement(lake)
    bad = ReplayConfig(lake_dir=lake, num_partitions=16, epoch_size=500)
    with pytest.raises(ValueError, match="partitions"):
        replay(SynthEventSource(700, SynthConfig(seed=3, n_urls=80)), bad)


def test_per_url_split_keeps_token_mode_valid(tmp_path):
    """ADVICE medium: multi-URL connection + splitMode='token' used to
    crash the per-URL recursive read with 'token requires splitPk'
    because only splitPk was popped from the sub-param."""
    from go_datax_ray.sources.sqldb import read

    paths = []
    for i in range(2):
        p = str(tmp_path / f"d{i}.db")
        with sqlite3.connect(p) as con:
            con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
            con.executemany("INSERT INTO t VALUES (?, ?)",
                            [(j + i * 100, float(j)) for j in range(50)])
        paths.append(p)
    ds = read({
        "connection": [{"jdbcUrl": [f"jdbc:sqlite:{p}" for p in paths],
                        "table": ["t"]}],
        "splitMode": "token", "splitPk": "id",
    }, channel=4)
    rows = ds.take_all()
    assert len(rows) == 100
    assert len({r["id"] for r in rows}) == 100


def test_read_lake_int_keys_cast_to_key_type(tmp_path):
    """ADVICE low: int key values against a string key column pruned to
    the right files but then raised an is_in type mismatch."""
    import ray.data as rd

    n = 200
    raw = pa.table({
        "url": pa.array([str(i % 40) for i in range(n)]),
        "warc_ts": pa.array(np.arange(n, dtype=np.int64)),
        "lsn": pa.array(np.arange(n, dtype=np.int64)),
        "op": pa.array(["U"] * n),
        "html": pa.array([b"<p>x</p>"] * n, pa.binary()),
    })
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=8, epoch_size=n)
    replay(DatasetEventSource(rd.from_arrow(raw), 0, n), cfg)
    got = read_lake(lake, keys=[1, 7]).take_all()
    assert sorted({r["url"] for r in got}) == ["1", "7"]
    assert len(got) == 2  # LWW winner per url
    from go_datax_ray.sinks.lake import lookup

    assert sorted(lookup(lake, [1, 7]).column("url").to_pylist()) == ["1", "7"]
