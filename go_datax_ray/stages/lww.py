"""Last-writer-wins (LWW) dedup kernels.

Per key (url) keep the single row with max ``(warc_ts, lsn)``. ``lsn`` is
unique (total order of the log), so the winner is well-defined even under
``warc_ts`` ties (SURVEY.md §7.4). The winning row may be a tombstone
(op='D') — tombstones are kept through dedup and the lake merge, and only
filtered when reading final state, so a resumed replay cannot resurrect a
deleted url.

This is the engine's analogue of the reference's sink-side PK conflict
resolution — PostgreSQL ``ON CONFLICT (pk) DO UPDATE`` / MySQL
``ON DUPLICATE KEY UPDATE`` (/root/reference/common/database/rdbms/
writer/common.go:557-607) — expressed as an associative, commutative
reduction so it can run (1) within each Arrow batch as a combiner before
the delta write and (2) per partition in the merge, with identical
semantics.

Everything is vectorised: sort_indices over the (warc_ts, lsn) key
columns only, factorize keys, np.unique for first-winner selection, then
a single ``Table.take`` so the wide html payload moves once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

LWW_ORDER = [("warc_ts", "descending"), ("lsn", "descending")]


def _lww_sort_factorize(table: pa.Table, key: str):
    """The one winner-selection kernel: rows sorted by descending
    (warc_ts, lsn), their keys factorized in that order. Returns
    ``(order, codes, uniq, first)``: ``order[first]`` are the per-key
    winners, ``codes`` the sorted rows' key codes."""
    order = pc.sort_indices(
        table.select([k for k, _ in LWW_ORDER]), sort_keys=LWW_ORDER
    ).to_numpy()
    keys = table.column(key).take(pa.array(order))
    codes, _ = pd.factorize(keys.to_pandas(), use_na_sentinel=False)
    uniq, first = np.unique(codes, return_index=True)
    return order, codes, uniq, first


def lww_indices(table: pa.Table, key: str = "url") -> np.ndarray:
    """Row indices of the per-key winners (unspecified order)."""
    order, _, _, first = _lww_sort_factorize(table, key)
    return order[first]


def _lww_take_counted(table: pa.Table, key: str, *,
                      min_reduction: float = 0.0) -> pa.Table:
    """Winner rows with their ``_n_ev`` raw-event counts ROLLED UP from
    the duplicates they supersede (sum per key), so SUM(_n_ev) over any
    downstream grouping equals the raw event count regardless of batch
    structure. With ``min_reduction`` > 0, batches below that duplicate
    ratio pass through untouched — exactness holds because kept rows
    keep their own counts."""
    order, codes, uniq, first = _lww_sort_factorize(table, key)
    if min_reduction > 0 and len(first) >= table.num_rows * (1.0 - min_reduction):
        return table
    nev_sorted = table.column("_n_ev").to_numpy()[order]
    sums = np.bincount(codes, weights=nev_sorted).astype(np.int64)
    out = table.take(pa.array(order[first]))
    i = out.column_names.index("_n_ev")
    return out.set_column(i, "_n_ev", pa.array(sums[uniq], pa.int64()))


def lww_table(table: pa.Table, key: str = "url") -> pa.Table:
    """LWW-dedup a table: one winner row per key. When the table carries
    the ``_n_ev`` lineage counter, superseded rows' counts roll into the
    winner (see _lww_take_counted)."""
    if table.num_rows <= 1:
        return table
    if "_n_ev" in table.column_names:
        return _lww_take_counted(table, key)
    return table.take(pa.array(lww_indices(table, key)))


def lww_combine_batch(batch: pa.Table, *, min_reduction: float = 0.05) -> pa.Table:
    """Shuffle combiner: within-batch LWW. Drops superseded versions of a
    key before the all-to-all exchange, shrinking shuffle payload — the
    'pre-aggregate inside map_batches' rule for wide html rows.

    Adaptive: ``Table.take`` copies the whole (html-wide) batch, so when
    the in-batch duplicate ratio is below ``min_reduction`` the copy costs
    more than the shuffle bytes it saves — pass the batch through
    untouched (the merge LWWs anyway; correctness is unaffected). Hot-key
    streams blow past the threshold and still get combined."""
    if batch.num_rows <= 1:
        return batch
    idx = lww_indices(batch)
    if len(idx) >= batch.num_rows * (1.0 - min_reduction):
        return batch
    return batch.take(pa.array(idx))


def lww_combine_counted(batch: pa.Table, *, key: str = "url",
                        min_reduction: float = 0.05) -> pa.Table:
    """The replay's combiner: within-batch LWW that PRESERVES
    the raw-event count in a ``_n_ev`` column (attached here as 1/row
    when absent). The lineage 'events' metric is SUM(_n_ev) at the
    merge — deterministic raw event counts per (epoch, partition),
    independent of how the stream happened to be batched (without the
    counter it silently measured post-combine rows, which changed with
    block structure — caught by the sf0.1 lineage SQL oracle)."""
    if "_n_ev" not in batch.column_names:
        batch = batch.append_column(
            "_n_ev", pa.array(np.ones(batch.num_rows, np.int64), pa.int64())
        )
    if batch.num_rows <= 1:
        return batch
    return _lww_take_counted(batch, key, min_reduction=min_reduction)


def dedup_events(ds, *, key: str = "url", combine_first: bool = True):
    """Dataset-level LWW dedup: optional per-batch combiner, then a
    per-partition group reduce. Requires a ``part_id`` column (from
    stages.partition); grouping on part_id (P groups) instead of url
    (millions of groups) keeps the shuffle coarse-grained."""
    if combine_first:
        ds = ds.map_batches(lww_combine_batch, batch_format="pyarrow", zero_copy_batch=True)
    return ds.groupby("part_id").map_groups(lww_table, batch_format="pyarrow")
