"""Aggregate views over the CDC lake, kept in the partition files' footers.

A view is ``SELECT group_cols, count(*) AS n, sum(col) AS sum_col...
FROM final_state GROUP BY group_cols``. Every partition file the lake
commits carries, in its Parquet key-value footer metadata, the
aggregate of its own live rows for each view its writer was given
(``view_states``): one Arrow IPC table per view, under ``view:<name>``.
The merge computes it from the merged partition, which already sits in
memory, so nothing extra is read. ``read_view`` sums the footers of the
committed files, P footer reads whatever the lake's size or age.

View state lives and dies with its partition file, as Delta Lake keeps
per-file statistics in the file's own add action. So the manifest's
visibility rule, deterministic retries, ``retain_history`` time travel
(``asof_epoch``) and ``gc_orphans``/``gc_history`` cover views with no
code of their own: an uncommitted file's state is invisible, and a
retry overwrites it with the same bytes.

A file whose footer holds no state for a view, or one whose columns
are not the view's, is recomputed from its rows with the same
``_local_agg``: a file written by a replay or ``delete_where`` that was
not given the view, or by a lake version older than footer state. So
omitting a view never leaves it wrong; it only costs the next
``read_view`` a scan of the partitions written without it. A view's
state is known by its name and columns: change ``derive`` under a new
name.

The reference has no aggregate state at all (its CDC answer is WHERE
re-query, /root/reference/README.md:224); this is the operator a
100-TB ingest tier needs so that "pages per language right now" is a
1000-row read instead of a full-lake groupby.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_STATE_PREFIX = b"view:"


@dataclass(frozen=True)
class ViewSpec:
    """One maintained view: COUNT(*) plus exact int sums per group over
    the live (non-tombstone) final state. ``derive`` optionally appends
    computed columns (row-wise, deterministic — e.g. utf8_length(text))
    before aggregation, so sums over derived quantities need no rescan."""

    name: str
    group_cols: tuple[str, ...]
    sum_cols: tuple[str, ...] = ()
    derive: Callable[[pa.Table], pa.Table] | None = None

    def measure_cols(self) -> list[str]:
        return ["n"] + [f"sum_{c}" for c in self.sum_cols]


def _local_agg(t: pa.Table, spec: ViewSpec) -> pa.Table:
    """The view over the live rows of ``t``: one partition's state."""
    t = t.filter(pc.not_equal(t.column("op"), pa.scalar("D")))
    if spec.derive is not None:
        t = spec.derive(t)
    cols = list(spec.group_cols) + list(spec.sum_cols)
    t = t.select(cols)
    aggs = [(c, "sum") for c in spec.sum_cols] + [([], "count_all")]
    g = t.group_by(list(spec.group_cols)).aggregate(aggs)
    out = {k: g.column(k) for k in spec.group_cols}
    out["n"] = g.column("count_all").cast(pa.int64())
    for c in spec.sum_cols:
        out[f"sum_{c}"] = pc.fill_null(g.column(f"{c}_sum"), 0).cast(pa.int64())
    return pa.table(out)


def _sum_states(parts: list[pa.Table], spec: ViewSpec) -> pa.Table:
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


def view_states(t: pa.Table, specs: tuple[ViewSpec, ...]) -> dict[bytes, bytes]:
    """The footer metadata of a partition file holding ``t``: each
    view's ``_local_agg`` of ``t`` as Arrow IPC, keyed by view name."""
    out = {}
    for spec in specs:
        state = _local_agg(t, spec)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, state.schema) as w:
            w.write_table(state)
        out[_STATE_PREFIX + spec.name.encode()] = sink.getvalue().to_pybytes()
    return out


def kept_view_states(t: pa.Table) -> dict[bytes, bytes]:
    """The view states of the file ``t`` was read from: its schema
    metadata's ``view:`` keys, for a rewrite that keeps every live row."""
    return {k: v for k, v in (t.schema.metadata or {}).items() if k.startswith(_STATE_PREFIX)}


def footer_state(metadata: dict[bytes, bytes] | None, spec: ViewSpec) -> pa.Table | None:
    """The state of ``spec`` in a partition file's footer ``metadata``,
    or None when the footer holds none with the view's columns."""
    ipc = (metadata or {}).get(_STATE_PREFIX + spec.name.encode())
    if ipc is None:
        return None
    state = pa.ipc.open_stream(pa.py_buffer(ipc)).read_all()
    if state.column_names != list(spec.group_cols) + spec.measure_cols():
        return None
    return state


def read_view(lake_dir: str, spec: ViewSpec, *, asof_epoch: int | None = None) -> pa.Table:
    """Materialize the view: sum the states in the footers of the
    committed partition files (``asof_epoch``: the files of that
    retained epoch), recomputing a file from its rows, over the
    committed schema, when its footer holds no state for the view.
    Sorted by group for determinism."""
    from ..state.manifest import Manifest
    from .lake import _scan, schema_from_json

    man = Manifest.load(lake_dir)
    schema = schema_from_json(man.schema_json) if man.schema_json else None
    files = man.committed_files() if asof_epoch is None else man.files_asof(asof_epoch)
    fsh = man.fsh
    parts = []
    for f in files:
        state = footer_state(pq.read_metadata(f, filesystem=fsh.pafs).metadata, spec)
        if state is None:
            state = _local_agg(_scan(fsh.pafs, [f], schema, None), spec)
        parts.append(state)

    def _group_type(k: str) -> pa.DataType:
        # empty-view schema: take group-col types from the committed lake
        # schema (derived group cols fall back to string)
        if schema is not None and k in schema.names:
            return schema.field(k).type
        return pa.string()

    t = _sum_states(parts, spec) if parts else None
    if t is None or t.num_rows == 0:
        return pa.table({
            **{k: pa.array([], _group_type(k)) for k in spec.group_cols},
            **{m: pa.array([], pa.int64()) for m in spec.measure_cols()},
        })
    return t.sort_by([(k, "ascending") for k in spec.group_cols])
