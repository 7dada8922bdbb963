"""Incrementally-maintained aggregate views over the CDC lake.

A view is ``SELECT group_cols, count(*) AS n, sum(col) AS sum_col...
FROM final_state GROUP BY group_cols`` kept up to date per epoch WITHOUT
rescanning the lake — the differential-dataflow move applied to the LWW
merge: each partition merge already holds the partition's OLD committed
state and its NEW merged state in memory, so the view delta for that
partition is two tiny local aggregates (``agg(new_live) - agg(old_live)``)
computed where the data already is. Nothing extra is read; nothing
corpus-sized moves.

Exactly-once composes with the manifest protocol (state/manifest.py):
delta files are content-addressed by (view, epoch, partition) and written
BEFORE the manifest swap; ``read_view`` only sums deltas for epochs
``<= Manifest.epoch`` (committed), so a crashed epoch's deltas are
invisible and its deterministic retry simply overwrites them — the same
visibility rule the data files use. With ``retain_history=True`` the
epoch-stamped deltas double as view time travel (``asof_epoch``).

The reference has no aggregate state at all (its CDC answer is WHERE
re-query, /root/reference/README.md:224); this is the operator a
100-TB ingest tier needs so that "pages per language right now" is a
1000-row read instead of a full-lake groupby.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

from ..state.fs import LakeFS, writer_lock
from .lake import LAKE_PARQUET_OPTS, statistics_columns

VIEWS_DIR = "_views"
_DELTA_RE = re.compile(r"delta-e(\d+)-p(\d+)\.parquet$")


@dataclass(frozen=True)
class ViewSpec:
    """One maintained view: COUNT(*) plus exact int sums per group over
    the live (non-tombstone) final state. ``derive`` optionally appends
    computed columns (row-wise, deterministic — e.g. utf8_length(text))
    before aggregation so sums over derived quantities stay incremental."""

    name: str
    group_cols: tuple[str, ...]
    sum_cols: tuple[str, ...] = ()
    derive: Callable[[pa.Table], pa.Table] | None = None

    def measure_cols(self) -> list[str]:
        return ["n"] + [f"sum_{c}" for c in self.sum_cols]


def _local_agg(t: pa.Table, spec: ViewSpec, sign: int) -> pa.Table:
    """Per-partition local aggregate of the live rows, measures
    multiplied by ``sign`` (+1 new state, -1 old state)."""
    t = t.filter(pc.not_equal(t.column("op"), pa.scalar("D")))
    if spec.derive is not None:
        t = spec.derive(t)
    cols = list(spec.group_cols) + list(spec.sum_cols)
    t = t.select(cols)
    aggs = [(c, "sum") for c in spec.sum_cols] + [([], "count_all")]
    g = t.group_by(list(spec.group_cols)).aggregate(aggs)
    out = {k: g.column(k) for k in spec.group_cols}
    s = pa.scalar(sign, pa.int64())
    out["n"] = pc.multiply(g.column("count_all").cast(pa.int64()), s)
    for c in spec.sum_cols:
        out[f"sum_{c}"] = pc.multiply(
            pc.fill_null(g.column(f"{c}_sum"), 0).cast(pa.int64()), s
        )
    return pa.table(out)


def _sum_deltas(parts: list[pa.Table], spec: ViewSpec) -> pa.Table:
    t = pa.concat_tables(parts, promote_options="default")
    if t.num_rows == 0:
        return t
    g = t.group_by(list(spec.group_cols)).aggregate(
        [(m, "sum") for m in spec.measure_cols()]
    )
    out = {k: g.column(k) for k in spec.group_cols}
    for m in spec.measure_cols():
        out[m] = g.column(f"{m}_sum").cast(pa.int64())
    return pa.table(out)


def partition_view_delta(
    old: pa.Table | None, new: pa.Table, spec: ViewSpec
) -> pa.Table:
    """agg(new_live) - agg(old_live), zero-measure groups dropped."""
    parts = [_local_agg(new, spec, +1)]
    if old is not None:
        if old.schema != new.schema:
            # additive evolution: an older partition state may predate a
            # view column — null-fill via the lake's conform rule
            from ..schema import conform, evolve

            old = conform(old, evolve(old.schema, new.schema))
        parts.append(_local_agg(old, spec, -1))
    d = _sum_deltas(parts, spec)
    if d.num_rows == 0:
        return d
    nonzero = pa.array([False] * d.num_rows)
    for m in spec.measure_cols():
        nonzero = pc.or_(nonzero, pc.not_equal(d.column(m), pa.scalar(0)))
    return d.filter(nonzero)


def clear_view_deltas(fsh: LakeFS, epoch: int) -> None:
    """Remove every view's deltas of ``epoch``, before the epoch (re)runs.
    ``write_view_deltas`` writes no file for an empty delta, so a retry
    would otherwise leave a crashed attempt's stale delta in place."""
    failed = fsh.remove_many(fsh.glob(fsh.join(VIEWS_DIR, "*", f"delta-e{epoch:06d}-p*.parquet")))
    if failed:
        raise OSError(f"could not clear the view deltas of epoch {epoch}: {failed}")


def view_names(fsh: LakeFS) -> set[str]:
    """The names of the views the lake holds files of under ``_views/``."""
    return {posixpath.basename(posixpath.dirname(f))
            for f in fsh.glob(fsh.join(VIEWS_DIR, "*", "*.parquet"))}


def write_view_deltas(fsh: LakeFS, specs: tuple[ViewSpec, ...], old: pa.Table | None,
                      new: pa.Table, epoch: int, pid: int) -> None:
    """Called from ``sinks.lake.write_partition``, where old/new already
    sit in memory: two local aggregates, no extra lake IO.
    Content-addressed path per (view, epoch, pid): a retried epoch
    recomputes the identical delta and overwrites idempotently."""
    for spec in specs:
        d = partition_view_delta(old, new, spec)
        if d.num_rows:
            path = fsh.join(VIEWS_DIR, spec.name, f"delta-e{epoch:06d}-p{pid:05d}.parquet")
            fsh.write_parquet(d, path, **LAKE_PARQUET_OPTS,
                              write_statistics=statistics_columns(d.schema))


def _list_delta_files(fsh: LakeFS, base: str) -> list[tuple[int, str]]:
    out = []
    for f in fsh.glob(f"{base}/delta-*.parquet"):
        m = _DELTA_RE.search(f)
        if m:
            out.append((int(m.group(1)), f))
    return out


_BASE_RE = re.compile(r"base-e(\d+)\.parquet$")


def _find_base(fsh: LakeFS, base_dir: str) -> tuple[int, str] | None:
    best = None
    for f in fsh.glob(f"{base_dir}/base-*.parquet"):
        m = _BASE_RE.search(f)
        if m and (best is None or int(m.group(1)) > best[0]):
            best = (int(m.group(1)), f)
    return best


def fold_view_deltas(lake_dir: str, spec: ViewSpec) -> dict:
    """Compact the view's committed per-epoch delta files into ONE base
    file (``base-e{N}.parquet`` = summed state as of epoch N), bounding
    ``read_view`` cost as epochs accumulate. Crash-safe ordering: the
    new base is written BEFORE the folded files are removed (a crash
    between leaves double-counting impossible because read_view always
    prefers the NEWEST base and ignores deltas <= its epoch). Folding
    drops per-epoch granularity, so ``asof_epoch`` time travel below the
    base epoch stops working — same trade as Manifest.gc_history.
    Takes the writer lock, as ``replay`` does."""
    from ..state.manifest import Manifest

    with writer_lock(lake_dir):
        man = Manifest.load(lake_dir)
        fsh = man.fsh
        base_dir = fsh.join(VIEWS_DIR, spec.name)
        prior = _find_base(fsh, base_dir)
        deltas = [
            (e, f) for e, f in _list_delta_files(fsh, base_dir)
            if e <= man.epoch and (prior is None or e > prior[0])
        ]
        if not deltas:
            return {"folded": 0, "base_epoch": prior[0] if prior else -1}
        parts = [fsh.read_parquet(f) for _, f in deltas]
        if prior is not None:
            parts.append(fsh.read_parquet(prior[1]))
        t = _sum_deltas(parts, spec)
        new_epoch = max(e for e, _ in deltas)
        out = f"{base_dir}/base-e{new_epoch:06d}.parquet"
        fsh.write_parquet(t, out, **LAKE_PARQUET_OPTS,
                          write_statistics=statistics_columns(t.schema))
        # best-effort: a leftover delta <= base epoch is ignored by read_view
        folded = len(deltas) - len(fsh.remove_many(f for _, f in deltas))
        if prior is not None:
            fsh.remove_many([prior[1]])
    return {"folded": folded, "base_epoch": new_epoch}


def read_view(lake_dir: str, spec: ViewSpec, *, asof_epoch: int | None = None) -> pa.Table:
    """Materialize the view: sum committed epoch deltas (epoch <=
    manifest watermark, or ``asof_epoch`` for time travel), drop groups
    whose live count reached zero, sort by group for determinism. The
    read is O(|distinct groups| x epochs-since-last-fold) — independent
    of lake size; ``fold_view_deltas`` bounds the epoch factor. The
    newest ``base-e{N}`` file (if any) is preferred and all deltas
    ``<= N`` are ignored — that makes a crash between the fold's
    base-write and delta-removal harmless (no double count)."""
    from ..state.manifest import Manifest

    man = Manifest.load(lake_dir)
    horizon = man.epoch if asof_epoch is None else asof_epoch
    fsh = man.fsh
    base_dir = fsh.join(VIEWS_DIR, spec.name)
    folded = _find_base(fsh, base_dir)
    if folded is not None and folded[0] > horizon:
        raise ValueError(
            f"view {spec.name!r}: asof_epoch={horizon} predates the folded "
            f"base (epoch {folded[0]}) — per-epoch granularity was compacted "
            "away (fold_view_deltas docstring)"
        )
    keep = [
        f for e, f in _list_delta_files(fsh, base_dir)
        if e <= horizon and (folded is None or e > folded[0])
    ]
    if folded is not None:
        keep = [folded[1]] + keep
    def _group_type(k: str) -> pa.DataType:
        # empty-view schema: take group-col types from the committed lake
        # schema (derived group cols fall back to string)
        if man.schema_json:
            from .lake import schema_from_json

            sch = schema_from_json(man.schema_json)
            if k in sch.names:
                return sch.field(k).type
        return pa.string()

    empty = pa.table(
        {
            **{k: pa.array([], _group_type(k)) for k in spec.group_cols},
            **{m: pa.array([], pa.int64()) for m in spec.measure_cols()},
        }
    )
    if not keep:
        return empty
    t = _sum_deltas([fsh.read_parquet(f) for f in keep], spec)
    if t.num_rows == 0:
        return empty
    t = t.filter(pc.greater(t.column("n"), pa.scalar(0)))
    return t.sort_by([(k, "ascending") for k in spec.group_cols])
