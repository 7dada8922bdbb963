"""No Parquet file the lake writes has dictionary pages; the files it
keeps are zstd and the intra-epoch delta files lz4. Checked on the
column chunks of the delta files, the partition files of a replay,
``compact`` and ``delete_where``, and the view delta and base files."""

import glob
import os

import pyarrow.parquet as pq

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.sinks.lake import compact, delete_where
from go_datax_ray.sinks.views import ViewSpec, fold_view_deltas
from go_datax_ray.state.fs import LakeFS
from go_datax_ray.synth import SynthConfig

SPEC = ViewSpec(name="by_lang", group_cols=("lang",))


def _chunk_encodings(path: str) -> set[tuple[str, bool, tuple]]:
    md = pq.ParquetFile(path).metadata
    return {(c.compression, c.has_dictionary_page, c.encodings)
            for rg in range(md.num_row_groups)
            for c in (md.row_group(rg).column(i) for i in range(md.num_columns))}


def test_lake_files_have_no_dictionary_pages(tmp_path, monkeypatch):
    # keep each epoch's delta files: the replay deletes them after the merge
    monkeypatch.setattr(LakeFS, "remove_listed", lambda self, top, files: None)
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_dir=lake, num_partitions=4, epoch_size=1000, views=(SPEC,))
    replay(SynthEventSource(2000, SynthConfig(seed=3, n_urls=300)), cfg)
    fold_view_deltas(lake, SPEC)  # a view base file
    replay(SynthEventSource(3000, SynthConfig(seed=3, n_urls=300)), cfg)  # view deltas on top
    compact(lake, retain_history=True)
    delete_where(lake, [["lang", "=", "en"]], retain_history=True)

    files = sorted(glob.glob(os.path.join(lake, "**", "*.parquet"), recursive=True))
    kinds = {"_delta": 0, "part-": 0, "delta-e": 0, "base-e": 0}
    for f in files:
        rel = os.path.relpath(f, lake)
        for k in kinds:
            kinds[k] += k in rel
        codec = "LZ4" if rel.startswith("_delta") else "ZSTD"
        for compression, has_dict, encodings in _chunk_encodings(f):
            assert compression == codec, (rel, compression)
            assert not has_dict, rel
            assert not {"PLAIN_DICTIONARY", "RLE_DICTIONARY"} & set(encodings), (rel, encodings)
    assert all(kinds.values()), kinds
