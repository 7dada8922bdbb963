"""Last-writer-wins (LWW) dedup kernel.

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

One kernel serves both: a stable Arrow ``sort_indices`` over
``(key asc, warc_ts desc, lsn desc)``. The head of each key run is that
key's winner, so winners come back in ascending key order, and among
exact ``(key, warc_ts, lsn)`` ties the earliest row wins. A single
``Table.take`` then moves the wide html payload once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

LWW_ORDER = [("warc_ts", "descending"), ("lsn", "descending")]


def _lww_runs(table: pa.Table, key: str) -> tuple[np.ndarray, np.ndarray]:
    """The one winner-selection sort. Returns ``(order, starts)``: the
    stable key-ordered sort permutation and the positions in it where a
    key run begins, so ``order[starts]`` are the winners in key order."""
    order = pc.sort_indices(
        table.select([key, *(k for k, _ in LWW_ORDER)]),
        sort_keys=[(key, "ascending"), *LWW_ORDER],
    )
    keys = table.column(key).take(order)
    # a new run wherever the key changes; nulls sort last and form one run
    cur, prev = keys[1:], keys[:-1]
    changed = pc.and_(pc.fill_null(pc.not_equal(cur, prev), True), pc.is_valid(prev))
    starts = np.flatnonzero(
        np.concatenate([[True], changed.to_numpy(zero_copy_only=False)])
    )
    return order.to_numpy(), starts


def lww_indices(table: pa.Table, key: str = "url") -> np.ndarray:
    """Row indices of the per-key winners, in ascending key order."""
    if table.num_rows == 0:
        return np.empty(0, np.int64)
    order, starts = _lww_runs(table, key)
    return order[starts]


def lww_table(table: pa.Table, key: str = "url", *,
              min_reduction: float = 0.0) -> pa.Table:
    """LWW-dedup a table: one winner row per key, in ascending key order.

    When the table carries the ``_n_ev`` lineage counter, superseded
    rows' counts are summed into their winner, so SUM(_n_ev) over any
    downstream grouping equals the raw event count regardless of batch
    structure. With ``min_reduction`` > 0, a table whose duplicate ratio
    is below it comes back unchanged: ``Table.take`` copies the whole
    (html-wide) table, which costs more than the few rows it would drop.
    Exactness holds either way because kept rows keep their own counts."""
    if table.num_rows <= 1:
        return table
    order, starts = _lww_runs(table, key)
    if min_reduction > 0 and len(starts) >= table.num_rows * (1.0 - min_reduction):
        return table
    out = table.take(order[starts])
    if "_n_ev" in out.column_names:
        nev = table.column("_n_ev").to_numpy()[order]
        i = out.column_names.index("_n_ev")
        out = out.set_column(i, "_n_ev", pa.array(np.add.reduceat(nev, starts), pa.int64()))
    return out


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
    return lww_table(batch, key, min_reduction=min_reduction)


def dedup_events(ds):
    """Dataset-level LWW dedup on ``url``: a per-batch combiner, then a
    per-partition group reduce. Requires a ``part_id`` column (from
    stages.partition); grouping on part_id (P groups) instead of url
    (millions of groups) keeps the shuffle coarse-grained."""
    ds = ds.map_batches(lww_table, fn_kwargs={"min_reduction": 0.05},
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.groupby("part_id").map_groups(lww_table, batch_format="pyarrow")
