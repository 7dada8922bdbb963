"""No Parquet file the lake writes has dictionary pages; the files it
keeps are zstd and the intra-epoch delta files lz4. Kept files carry
min/max statistics on every column but the ``large_binary`` and
``large_string`` payload columns, and always on the lake key; delta
files carry none. Checked on the column chunks of the delta files and
the partition files of a replay with a view, ``compact`` and
``delete_where``."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from go_datax_ray.pipelines.cdc_replay import (
    DatasetEventSource, ReplayConfig, SynthEventSource, replay)
from go_datax_ray.sinks.lake import compact, delete_where, lookup, read_lake_table
from go_datax_ray.sinks.views import ViewSpec
from go_datax_ray.state.fs import LakeFS
from go_datax_ray.state.manifest import Manifest
from go_datax_ray.synth import EventGen, SynthConfig

SPEC = ViewSpec(name="by_lang", group_cols=("lang",))
KINDS = ("_delta", "part-")


def _chunks(path: str):
    md = pq.ParquetFile(path).metadata
    return [md.row_group(rg).column(i)
            for rg in range(md.num_row_groups) for i in range(md.num_columns)]


def _min_max_columns(path: str) -> set[str]:
    """The columns of ``path`` whose every chunk has min/max statistics."""
    chunks = _chunks(path)
    names = {c.path_in_schema for c in chunks}
    return {n for n in names
            if all(c.is_stats_set and c.statistics.has_min_max
                   for c in chunks if c.path_in_schema == n)}


@pytest.fixture(scope="module")
def lake_files(ray_session, tmp_path_factory):
    """Every Parquet file of a lake that kept its delta files, by kind:
    replay with a view, more replay, ``compact``, ``delete_where``."""
    lake = str(tmp_path_factory.mktemp("encoding") / "lake")
    with pytest.MonkeyPatch.context() as mp:
        # keep each epoch's delta files: the replay deletes them after the merge
        mp.setattr(LakeFS, "remove_listed", lambda self, top, files: None)
        cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000,
                           views=(SPEC,))
        replay(SynthEventSource(2000, SynthConfig(seed=3, n_urls=300)), cfg)
        replay(SynthEventSource(3000, SynthConfig(seed=3, n_urls=300)), cfg)
    compact(lake, retain_history=True)
    delete_where(lake, [["lang", "=", "en"]], retain_history=True, views=(SPEC,))

    files: dict[str, list[str]] = {k: [] for k in KINDS}
    for f in sorted(glob.glob(os.path.join(lake, "**", "*.parquet"), recursive=True)):
        rel = os.path.relpath(f, lake)
        (kind,) = [k for k in KINDS if k in rel]
        files[kind].append(f)
    assert all(files.values()), {k: len(v) for k, v in files.items()}
    return files


def test_lake_files_have_no_dictionary_pages(lake_files):
    for kind, files in lake_files.items():
        codec = "LZ4" if kind == "_delta" else "ZSTD"
        for f in files:
            for c in _chunks(f):
                assert c.compression == codec, (f, c.compression)
                assert not c.has_dictionary_page, f
                assert not {"PLAIN_DICTIONARY", "RLE_DICTIONARY"} & set(c.encodings), (
                    f, c.encodings)


def test_kept_files_have_statistics_but_on_payload_columns(lake_files):
    for f in lake_files["part-"]:
        names = set(pq.read_schema(f).names)
        assert {"html", "text"} <= names, f
        assert _min_max_columns(f) == names - {"html", "text"}, f
        assert {"url", "lsn", "op", "warc_ts"} <= _min_max_columns(f), f


def test_delta_files_have_no_statistics(lake_files):
    for f in lake_files["_delta"]:
        assert not any(c.is_stats_set for c in _chunks(f)), f


def test_large_string_key_keeps_its_statistics(ray_session, tmp_path):
    """A lake keyed by a ``large_string`` column keeps min/max on the key
    in the replay's and ``compact``'s files, and lookups by it return
    the keys' rows."""
    import ray.data as rd

    events = EventGen(SynthConfig(seed=4, n_urls=200))(pa.table({"id": range(2000)}))
    events = events.set_column(events.column_names.index("url"), "url",
                               events.column("url").cast(pa.large_string()))
    lake = str(tmp_path / "lake")
    replay(DatasetEventSource(rd.from_arrow(events), 0, 2000),
           ReplayConfig(lake_dir=lake, num_partitions=2, epoch_size=1000))
    compact(lake)
    for f in Manifest.load(lake).committed_files():
        assert pq.read_schema(f).field("url").type == pa.large_string()
        assert "url" in _min_max_columns(f) and "html" not in _min_max_columns(f), f
    full = read_lake_table(lake)
    keys = full.column("url").to_pylist()[:3]
    got = lookup(lake, keys).sort_by("url")
    assert got.column("url").to_pylist() == sorted(keys)
