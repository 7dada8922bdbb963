"""Kernel pass: the public stage functions timed in-process, without Ray,
on one more epoch of the run's WAL, beyond what the lake has applied,
merged into the lake's committed partition files.

It follows the replay's epoch in the same order: read each WAL row group
and keep the epoch's lsn range, tag part ids, LWW-combine bundles of row
groups, then per partition read the committed file, select LWW winners
over the (url, warc_ts, lsn) columns of old and new rows, extract text
for new winners and write the merged file (to a scratch directory, never
into the lake). The epoch must lie above the lake's watermark: rows the
lake already holds tie with their committed copies, the committed copy
wins the tie, and the pass would extract no text at all.
"""

from __future__ import annotations

import os
import shutil
import time

from harness import median

# row groups per prepare task: the replay's rows_per_task // WAL rows per
# row group (32768 // 8192)
RG_PER_BUNDLE = 4
KEY_COLS = ["url", "warc_ts", "lsn"]


def _one_pass(frags: list[dict], lo: int, hi: int, man, num_partitions: int,
              scratch: str) -> dict[str, float]:
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from go_datax_ray.stages.lww import lww_combine_counted, lww_indices
    from go_datax_ray.stages.partition import add_part_id
    from go_datax_ray.state.fs import LakeFS
    from go_datax_ray.synth import extract_text_batch

    m = dict.fromkeys(["prepare.read_rg_s", "partition.part_id_s", "lww.combine_s",
                       "fs.read_committed_s", "lww.select_s", "synth.extract_text_s",
                       "fs.write_final_s"], 0.0)
    rows_in = rows_out = new_winners = 0
    combined = []
    for b in range(0, len(frags), RG_PER_BUNDLE):
        t0 = time.perf_counter()
        tables = []
        for f in frags[b:b + RG_PER_BUNDLE]:
            t = pq.ParquetFile(f["path"]).read_row_group(int(f["rg"]))
            lsn = t.column("lsn")
            t = t.filter(pc.and_(pc.greater_equal(lsn, pa.scalar(lo)), pc.less(lsn, pa.scalar(hi))))
            if t.num_rows:
                tables.append(t)
        if not tables:
            continue
        t = pa.concat_tables(tables)
        if "text" in t.column_names:
            t = t.drop_columns(["text"])
        t1 = time.perf_counter()
        t = add_part_id(t, key="url", num_partitions=num_partitions, hash_fn="crc32")
        t2 = time.perf_counter()
        out = lww_combine_counted(t, min_reduction=0.05)
        t3 = time.perf_counter()
        m["prepare.read_rg_s"] += t1 - t0
        m["partition.part_id_s"] += t2 - t1
        m["lww.combine_s"] += t3 - t2
        rows_in += t.num_rows
        rows_out += out.num_rows
        combined.append(out)
    if not combined:
        raise ValueError(f"no WAL rows in lsn [{lo}, {hi})")
    delta = pa.concat_tables(combined)
    fsh = LakeFS(scratch)
    pids = np.unique(delta.column("part_id").to_numpy())
    for pid in pids.tolist():
        new = delta.filter(pc.equal(delta.column("part_id"), pa.scalar(pid)))
        new = new.drop_columns(["_n_ev"])
        t0 = time.perf_counter()
        path = man.partition_file(pid)
        old = man.fsh.read_parquet(path) if path else None
        t1 = time.perf_counter()
        sources = [s for s in (old, new) if s is not None]
        keys = pa.concat_tables([s.select(KEY_COLS) for s in sources])
        winners = np.sort(lww_indices(keys))
        t2 = time.perf_counter()
        n_old = old.num_rows if old is not None else 0
        new_w = new.take(pa.array(winners[winners >= n_old] - n_old))
        new_winners += new_w.num_rows
        t3 = time.perf_counter()
        text = extract_text_batch(new_w.column("html"))
        t4 = time.perf_counter()
        new_w = new_w.append_column(pa.field("text", pa.large_string()), text)
        parts = [new_w]
        if old is not None:
            parts.insert(0, old.take(pa.array(winners[winners < n_old])))
            parts[1] = parts[1].select(old.column_names).cast(old.schema)
        merged = pa.concat_tables(parts)
        t5 = time.perf_counter()
        fsh.write_parquet(merged, fsh.join(f"part-{pid:05d}.parquet"),
                          compression="zstd", compression_level=1, row_group_size=64 * 1024)
        t6 = time.perf_counter()
        m["fs.read_committed_s"] += t1 - t0
        m["lww.select_s"] += t2 - t1
        m["synth.extract_text_s"] += t4 - t3
        m["fs.write_final_s"] += t6 - t5
    m["lww.combine_keep_ratio"] = rows_out / rows_in if rows_in else None
    m["new_winners"] = new_winners
    return m


def kernel_pass(wal_files: list[str], lo: int, hi: int, lake_dir: str,
                num_partitions: int, scratch: str, repeats: int = 3) -> dict[str, float]:
    """Median over ``repeats`` passes of each kernel's seconds for the
    epoch with lsn range [lo, hi), plus ``new_winners``: the rows of that
    epoch that won against the committed files."""
    from go_datax_ray.pipelines.cdc_replay import ParquetWalSource
    from go_datax_ray.state.manifest import Manifest

    frags = ParquetWalSource(wal_files, lo, hi).fragments(lo, hi)
    man = Manifest.load(lake_dir)
    if lo <= man.watermark_lsn:
        raise ValueError(f"lsn [{lo}, {hi}) overlaps what the lake applied "
                         f"(watermark {man.watermark_lsn})")
    runs = []
    try:
        for _ in range(repeats):
            shutil.rmtree(scratch, ignore_errors=True)
            os.makedirs(scratch)
            runs.append(_one_pass(frags, lo, hi, man, num_partitions, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {k: median([r[k] for r in runs]) for k in runs[0]}
