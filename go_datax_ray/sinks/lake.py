"""Merge-apply upsert into the partitioned Parquet lake.

Semantics are the reference's RDBMS writer upsert — batch INSERT with
PK conflict resolution, PG ``ON CONFLICT (pk) DO UPDATE`` / MySQL
``ON DUPLICATE KEY UPDATE`` (/root/reference/common/database/rdbms/
writer/common.go:518-616) — plus the elasticsearchwriter's per-event
action model insert/update/delete keyed by _id
(/root/reference/plugins/writer/elasticsearchwriter/
elasticsearch_writer.go:33-41,1288-1359), re-expressed as a
copy-on-write partition merge:

    read committed partition file (if any) + this epoch's delta files
    -> additive-evolve schemas -> conform and concat, committed file first
    -> one LWW take (old rows carry their own (warc_ts, lsn)); the
       kernel returns winners in url order, so the file content is
       byte-deterministic without a second sort
    -> [derive text for new winners]
    -> write_partition: the content-addressed final path
       part-{pid}/...-epoch-{e}, with the views' states of the new
       rows in its footer (compact and delete_where too)

Visibility is decided by the manifest commit (state.manifest): the
written epoch file is invisible garbage until the manifest points at it,
so retried tasks (deterministic bytes, same path) are harmless and NO
rename is needed on data files — the data plane is S3-compatible.
Each file's footer carries the states of the lake's maintained views
over its own rows (``sinks.views``), so view state shares that
visibility, its retries and its history.

The merge runs after the delta write (``make_delta_merger``): one
task per CPU, each merging a run of partition ids one after another,
on the exact files the replay listed: no task lists or probes the
store, and a missing input fails loudly. At 100 TB
scale the per-partition rewrite amortises because P is sized so a
partition is a few GB (copy-on-write upsert, Hudi/Delta-style); the hot
path stays vectorised Arrow end-to-end.

Every file the lake keeps has one encoding, ``LAKE_PARQUET_OPTS``:
zstd level 1 without dictionary pages, with min/max statistics only
where a reader can prune on them (``statistics_columns``): every
column but the ``large_binary`` and ``large_string`` payload columns
(``html``, ``text``), and always the lake key. Only the intra-epoch delta files, written and read once on
the epoch's critical path, are lz4 and carry no statistics
(``cdc_replay._DELTA_PARQUET_OPTS``).

Reads share one plan (``_read_plan``): the manifest picks the files
and one pyarrow filter joins ``where``, the key set and the tombstone
filter, and one scanner (``_scanner``, a ``pyarrow.dataset`` scan over
the committed schema) runs it. ``read_lake`` streams it per file in Ray
tasks; ``lookup``, ``read_lake(keys=)`` and ``read_lake_table`` run it
once on the driver (``_scan``), without a Ray Data plan.
"""

from __future__ import annotations

import base64
import functools
import json
from typing import Callable

import numpy as np
import pyarrow as pa

from ..schema import conform, evolve
from ..stages.lww import lww_indices
from ..state.fs import LakeFS, writer_lock
from ..state.manifest import Manifest, final_path

# Readable manifest spellings of the common column types. Any other
# Arrow type is spelled as its one-field Arrow IPC schema in base64,
# which round-trips every type exactly (decimals, lists, tz, units).
_TYPE_TO_STR = {
    pa.int64(): "int64",
    pa.int32(): "int32",
    pa.float64(): "float64",
    pa.string(): "string",
    pa.large_string(): "large_string",
    pa.binary(): "binary",
    pa.large_binary(): "large_binary",
    pa.bool_(): "bool",
    pa.timestamp("us"): "timestamp_us",
}
_STR_TO_TYPE = {v: k for k, v in _TYPE_TO_STR.items()}
_IPC_PREFIX = "arrow-ipc-base64:"


def _type_to_str(t: pa.DataType) -> str:
    s = _TYPE_TO_STR.get(t)
    if s is None:
        ipc = pa.schema([pa.field("t", t)]).serialize().to_pybytes()
        s = _IPC_PREFIX + base64.b64encode(ipc).decode()
    return s


def _type_from_str(s: str) -> pa.DataType:
    if s.startswith(_IPC_PREFIX):
        ipc = base64.b64decode(s[len(_IPC_PREFIX):])
        return pa.ipc.read_schema(pa.py_buffer(ipc)).field(0).type
    return _STR_TO_TYPE[s]


def schema_to_json(schema: pa.Schema) -> str:
    return json.dumps([[f.name, _type_to_str(f.type)] for f in schema])


def schema_from_json(s: str) -> pa.Schema:
    return pa.schema([pa.field(n, _type_from_str(t)) for n, t in json.loads(s)])


def _fill_text(t: pa.Table) -> pa.Table:
    """Derive text = extract_text(html) for rows that lack it.

    Called on the post-LWW winner set, NOT the raw event stream: derived
    columns are computed once per surviving key instead of once per event
    (10x fewer extractions at a 10:1 update ratio), and the shuffle/delta
    exchange never carries the derived payload. Committed rows keep their
    existing bytes untouched (byte-identity invariant)."""
    from ..synth import extract_text_batch

    html = t.column("html")
    if "text" not in t.column_names:
        return t.append_column(pa.field("text", pa.large_string()), extract_text_batch(html))
    text = t.column("text")
    need = pa.compute.and_(pa.compute.is_null(text), pa.compute.is_valid(html)).combine_chunks()
    if not pa.compute.any(need).as_py():
        return t
    vals = extract_text_batch(html.filter(need)).cast(text.type)
    return t.set_column(t.column_names.index("text"), "text",
                        pa.compute.replace_with_mask(text, need, vals))


# The encoding of every file the lake keeps. zstd-1 without dictionary
# pages: html, text and url are nearly all distinct values, so
# dictionary pages cost bytes and encode CPU and save nothing
# (BASELINE.md §4h).
LAKE_PARQUET_OPTS = {"compression": "zstd", "compression_level": 1,
                     "use_dictionary": False}
# Committed partition files (``write_partition``) add their row-group
# size; the delta write leaves it to Ray, which turns it into
# write_dataset row limits.
_PARTITION_FILE_OPTS = {**LAKE_PARQUET_OPTS, "row_group_size": 64 * 1024}
# Payload types: min/max of a whole ~1 KB html or text value, in every
# page header and column chunk, prunes nothing a reader asks for and
# was ~16% of a tail partition file's bytes (BASELINE.md §4i).
_PAYLOAD_TYPES = (pa.large_binary(), pa.large_string())


def statistics_columns(schema: pa.Schema, key: str | None = None) -> list[str]:
    """The ``write_statistics`` columns of a kept file of ``schema``:
    every column but the payload ones, plus ``key``, which ``lookup``
    and ``read_lake`` prune on whatever its type."""
    return [f.name for f in schema if f.type not in _PAYLOAD_TYPES or f.name == key]


# One row per merged partition, returned by the merge tasks to the
# driver, which commits them as the epoch's manifest entries.
ENTRY_SCHEMA = pa.schema([
    ("pid", pa.int64()),
    ("rows", pa.int64()),
    ("events", pa.int64()),
    ("max_lsn", pa.int64()),
    ("schema_json", pa.string()),
    ("bytes", pa.int64()),
])


def write_partition(fsh: LakeFS, lake_dir: str, epoch: int, pid: int, new: pa.Table, *,
                    key: str | None, views: dict[bytes, bytes]) -> dict:
    """The one writer of partition epoch files (the merge, ``compact``,
    ``delete_where``): ``new`` at ``final_path``, its schema metadata
    replaced by exactly ``views``, the view states of its footer
    (``sinks.views.view_states``). A table read from a lake file
    carries that file's metadata, which must not leak into the new
    one. Returns the entry's ``pid``, ``rows``, ``schema_json`` and
    ``bytes``; the caller adds ``events`` and ``max_lsn``."""
    new = new.replace_schema_metadata(views or None)  # {} would serialize empty metadata
    nbytes = fsh.write_parquet(new, final_path(lake_dir, pid, epoch), **_PARTITION_FILE_OPTS,
                               write_statistics=statistics_columns(new.schema, key))
    return {"pid": pid, "rows": new.num_rows, "schema_json": schema_to_json(new.schema),
            "bytes": nbytes}


def make_delta_merger(
    lake_dir: str,
    epoch: int,
    inputs: dict[int, tuple[str | None, list[str]]],
    extract_missing_text: bool = False,
    views: tuple = (),
    key: str | None = None,
) -> Callable[[dict], pa.Table]:
    """Merge fn for the delta exchange: input batches carry partition ids;
    each pid's delta files (written by the partition-pruned
    ``write_parquet(partition_cols=["part_id"])`` stage) are read, LWW'd
    against the committed partition file, and written by
    ``write_partition``. Duplicate delta rows from retried upstream
    write tasks are harmless — LWW collapses them (idempotent
    reduction).

    ``inputs`` maps each pid to ``(committed file or None, delta files
    in path order)``, from the driver's manifest snapshot and its one
    listing of the delta files: a small dict captured in the task
    closure, shipped once per task. ``key`` is the lake key, and each
    merged file's footer gets the states of the ``views`` it is given.
    A failed merge names its epoch, partition and files."""
    from .views import view_states

    def merge_pid(fsh, pid: int, old_path: str | None, files: list[str]) -> dict:
        deltas = [fsh.read_parquet(f) for f in files]
        # events = RAW event count: the combiner rolls superseded rows'
        # counts into winners (_n_ev), so this is deterministic per
        # (epoch, partition) regardless of batch structure
        events = pa.compute.sum(pa.chunked_array([d.column("_n_ev") for d in deltas])).as_py()
        # old first, then delta files in path order: the stable sort lets
        # the committed copy win exact ties; winners come back in url
        # order, so the file content is byte-deterministic
        sources = ([fsh.read_parquet(old_path)] if old_path is not None else []) + [
            d.drop_columns(["_n_ev"]) for d in deltas]
        schema = functools.reduce(evolve, [s.schema for s in sources])
        if "part_id" not in schema.names:
            schema = schema.append(pa.field("part_id", pa.int64()))
        allt = pa.concat_tables([conform(s, schema) for s in sources])
        # delta files lost part_id to their directories; old rows hold pid
        allt = allt.set_column(schema.get_field_index("part_id"), schema.field("part_id"),
                               pa.array(np.full(allt.num_rows, pid), pa.int64()))
        new = allt.take(lww_indices(allt))
        if extract_missing_text:
            new = _fill_text(new)
        entry = write_partition(fsh, lake_dir, epoch, pid, new, key=key,
                                views=view_states(new, views))
        return {**entry, "events": events,
                "max_lsn": int(pa.compute.max(new.column("lsn")).as_py())}

    def merge_pids(batch: dict) -> pa.Table:
        fsh = LakeFS(lake_dir)
        out: list[dict] = []
        for pid in batch["pid"]:
            pid = int(pid)
            old_path, files = inputs[pid]
            try:
                out.append(merge_pid(fsh, pid, old_path, files))
            except Exception as e:
                raise RuntimeError(
                    f"merge of epoch {epoch} partition {pid} failed "
                    f"(committed file {old_path}, delta files {files}): "
                    f"{type(e).__name__}: {e}"
                ) from e
        return pa.Table.from_pylist(out, schema=ENTRY_SCHEMA)

    return merge_pids


def _read_plan(lake_dir: str, *, final_state: bool = True,
               asof_epoch: int | None = None, keys: list | None = None,
               where: list[list] | None = None):
    """The lake's one read plan: ``(pyarrow filesystem, files, committed
    schema, filter)``, the filter being ONE pyarrow expression (or None)
    for the scan to push down."""
    import operator

    from ..sources.parquet import build_filter

    man = Manifest.load(lake_dir)
    schema = schema_from_json(man.schema_json) if man.schema_json else None
    conds = [build_filter(where, schema)] if where else []
    if keys is not None:
        if man.key is None:
            raise ValueError(
                "read_lake(keys=...): this lake's manifest predates key metadata (key column "
                "unknown); re-commit once to backfill, or filter with where=[[col, '=', v]]")
        # files_for_keys hashes str(k), but isin is type-strict: cast the
        # keys to the key column's type (int keys, ADVICE r3)
        vs = pa.array(list(keys))
        if schema is not None and man.key in schema.names:
            vs = vs.cast(schema.field(man.key).type)
        conds.append(pa.compute.field(man.key).isin(vs))
    if final_state:
        conds.append(pa.compute.field("op") != "D")
    if asof_epoch is not None:
        files = man.files_asof(asof_epoch)
    elif keys is not None:
        files = man.files_for_keys(keys)
    else:
        files = man.committed_files()
    expr = functools.reduce(operator.and_, conds) if conds else None
    return man.fsh.pafs, files, schema, expr


def _scanner(pafs, files: list[str], schema: pa.Schema | None, expr,
             columns: list[str] | None = None):
    """A read plan as one ``pyarrow.dataset`` scanner over the committed
    schema, which null-fills columns added after a partition file was
    written, as ``conform`` does. Its ``projected_schema`` is that
    schema projected to ``columns``, whatever the filter keeps."""
    import pyarrow.dataset as pads

    ds = pads.dataset(files, schema=schema, format="parquet", filesystem=pafs)
    return ds.scanner(columns=columns, filter=expr)


def _scan(pafs, files: list[str], schema: pa.Schema | None, expr,
          columns: list[str] | None = None) -> pa.Table:
    """A read plan as one table of the committed schema, projected to
    ``columns``, even when the filter keeps no rows."""
    if not files:
        return (schema or pa.schema([])).empty_table()
    return _scanner(pafs, files, schema, expr, columns).to_table()


def _scan_batches(pafs, files: list[str], schema: pa.Schema | None, expr,
                  columns: list[str] | None = None):
    """A read plan streamed file by file, one record batch at a time, as
    tables of the committed schema projected to ``columns``; one empty
    table of that schema when the filter keeps no rows."""
    kept = False
    for f in files:
        sc = _scanner(pafs, [f], schema, expr, columns)
        for b in sc.to_batches():
            if b.num_rows:
                kept = True
                yield pa.Table.from_batches([b])
    if not kept:
        yield sc.projected_schema.empty_table()


def lookup(lake_dir: str, keys: list, columns: list[str] | None = None) -> pa.Table:
    """Point lookup without a Ray Data plan: the live rows of ``keys``,
    read driver-side from only the hash partitions they map to."""
    return _scan(*_read_plan(lake_dir, keys=keys), columns=columns)


def read_lake(lake_dir: str, *, columns: list[str] | None = None, final_state: bool = True,
              asof_epoch: int | None = None, keys: list | None = None,
              where: list[list] | None = None):
    """Read the committed lake as a Dataset (manifest-listed files only —
    uncommitted tmp/garbage files are invisible). ``final_state`` filters
    delete tombstones, yielding the upsert-resolved table state.
    ``asof_epoch`` reads the state as of an earlier committed epoch
    (requires a lake written with retain_history=True).

    ``keys``: point-lookup values of the lake's key column. The lake is
    hash-placed (part_id = hash(key) % P, recorded in the manifest), so
    the read PRUNES to the partitions those keys map to — k lookups
    touch at most k of P files instead of scanning the lake (the
    data-skipping read; at 100 TB / 64k partitions a key lookup is one
    file). Without ``asof_epoch`` it is ``lookup()``'s read in one block.

    ``where``: ``[["col", op, value], ...]`` conjunction (the parquet
    reader plugin's triplet grammar). It, the key set and the tombstone
    filter are one filter pushed into each file's scan (row-group
    statistics pruning); it may name unprojected columns.

    One Ray task per file, as ``read_parquet`` runs for files above
    Ray's block size. Each streams its file in record batches
    (``_scan_batches``), so every block has the committed schema
    projected to ``columns``; a task whose filter keeps no rows returns
    one empty block of that schema. Ray's own parquet reader returned a
    0-column block there, which broke ``pa.concat_tables`` over the
    blocks."""
    import ray.data as rd

    pafs, files, schema, expr = _read_plan(
        lake_dir, final_state=final_state, asof_epoch=asof_epoch, keys=keys, where=where)
    if (keys is not None and asof_epoch is None) or not files:
        return rd.from_arrow(_scan(pafs, files, schema, expr, columns))

    def scan(batch: pa.Table):
        return _scan_batches(pafs, batch.column("file").to_pylist(), schema, expr, columns)

    return rd.from_items([{"file": f} for f in files], override_num_blocks=len(files)).map_batches(
        scan, batch_format="pyarrow", batch_size=None)


def _rewrite_partitions(man, rewrite: Callable[[pa.Table], pa.Table],
                        retain_history: bool, views: tuple | None) -> int:
    """Rewrite the partitions of ``man`` that ``rewrite`` changes (it
    returns its input when it changes no row) into one new epoch, commit
    it and return it; with no change, commit nothing and return
    ``man.epoch``. Each new file's footer gets the states of ``views``
    over its rows, or, with ``views`` None, keeps the view states of the
    file it rewrites. The epoch applies no events and leaves the
    watermark where it is; each entry keeps its partition's previous
    ``max_lsn``, since a rewritten partition can end up empty. The
    commit record stores the bytes written as ``final_bytes``."""
    from .views import kept_view_states, view_states

    epoch = man.epoch + 1
    entries = []
    for pid_s, ent in man.partitions.items():
        pid = int(pid_s)
        old = man.fsh.read_parquet(man.fsh.join(ent["file"]))
        new = rewrite(old)
        if new is old:
            continue
        states = kept_view_states(old) if views is None else view_states(new, views)
        entry = write_partition(man.fsh, man.lake_dir, epoch, pid, new,
                                key=man.key, views=states)
        entries.append({**entry, "events": 0, "max_lsn": ent["max_lsn"]})
    if not entries:
        return man.epoch
    man.commit_epoch(
        epoch, lsn_lo=man.watermark_lsn, lsn_hi=man.watermark_lsn,
        entries=entries, schema_json=man.schema_json or "", wall_s=0.0,
        retain_history=retain_history,
        phases={"final_bytes": sum(e["bytes"] for e in entries)},
    )
    return epoch


def compact(lake_dir: str, *, drop_tombstones_below_lsn: int | None = None,
            retain_history: bool = False) -> dict[str, int]:
    """Compaction: rewrite the partitions holding delete tombstones with
    lsn < the horizon (default: the committed watermark) without them.
    Takes the writer lock, as ``replay`` does. Each file keeps its view
    states: a tombstone is never a live row.

    SAFETY CONTRACT (documented per SURVEY.md §7.4 tombstone/resume
    interaction): dropping a tombstone is only safe when no future event
    for that key can carry a LOWER (warc_ts, lsn) than the tombstone —
    i.e. the source replays only offsets > watermark AND event
    timestamps are monotone per key. Callers that cannot guarantee
    per-key ts monotonicity should pass a horizon older than their
    maximum expected timestamp disorder. Runs through the same
    tmp -> commit_epoch path, so it is atomic and resumable; with
    ``retain_history`` time travel spans the compaction."""
    import pyarrow.compute as pc

    with writer_lock(lake_dir):
        man = Manifest.load(lake_dir)
        horizon = (drop_tombstones_below_lsn if drop_tombstones_below_lsn is not None
                   else man.watermark_lsn)
        dropped = 0

        def drop_dead_tombstones(t: pa.Table) -> pa.Table:
            nonlocal dropped
            is_dead_tomb = pc.and_(
                pc.equal(t.column("op"), pa.scalar("D")),
                pc.less(t.column("lsn"), pa.scalar(horizon, pa.int64())),
            )
            out = t.filter(pc.invert(pc.fill_null(is_dead_tomb, False)))
            dropped += t.num_rows - out.num_rows
            return out if out.num_rows < t.num_rows else t

        epoch = _rewrite_partitions(man, drop_dead_tombstones, retain_history, None)
    return {"dropped_tombstones": dropped, "epoch": epoch}


def delete_where(lake_dir: str, where: list[list], *, retain_history: bool = False,
                 views: tuple = ()) -> dict[str, int]:
    """ES deleteByConditions analogue (elasticsearch_writer.go:1257-1286):
    flip every committed row matching the ``where`` conjunction
    ([["col", op, value], ...], the parquet-reader filter grammar) to a
    delete tombstone, in one atomically-committed epoch of the partitions
    holding a match. Rows keep their own (warc_ts, lsn), so the delete is
    exactly as durable as the state it deleted — a later CDC event with a
    newer version key still wins (the same semantics as deleteBy-then-index
    in the reference). Takes the writer lock, as ``replay`` does.
    ``views`` are the lake's ``ReplayConfig.views``, whose states the
    rewritten files' footers get; ``read_view`` recomputes a view left
    out from the rows."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from ..sources.parquet import build_filter

    if not where:
        raise ValueError("delete_where needs at least one condition")
    with writer_lock(lake_dir):
        man = Manifest.load(lake_dir)
        flipped = 0
        expr = None

        def flip_matches(t: pa.Table) -> pa.Table:
            nonlocal flipped, expr
            if expr is None:
                # Bind string values against the lake's actual column types
                # (parquet._coerce) — built once, from the first partition's
                # schema (all partitions share the manifest schema).
                expr = build_filter(where, t.schema)
            # evaluate the expression as a boolean mask over the partition
            mask_tbl = pads.dataset(t).scanner(columns={"_m": expr}).to_table()
            mask = pc.fill_null(mask_tbl.column("_m"), False)
            flips = pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
            if not flips:
                return t
            flipped += flips
            new_op = pc.if_else(mask, pa.scalar("D"), t.column("op"))
            return t.set_column(t.column_names.index("op"), "op", new_op)

        epoch = _rewrite_partitions(man, flip_matches, retain_history, views)
    return {"deleted": flipped, "epoch": epoch}


def gc_orphans(lake_dir: str) -> int:
    """``Manifest._gc_orphans`` under the writer lock, on a manifest
    loaded inside it: an in-flight epoch's merge outputs are unreferenced
    until it commits, as are the epochs a stale manifest missed."""
    with writer_lock(lake_dir):
        return Manifest.load(lake_dir)._gc_orphans()


def gc_history(lake_dir: str, keep_epochs_after: int) -> int:
    """``Manifest._gc_history`` under the writer lock, as ``gc_orphans``."""
    with writer_lock(lake_dir):
        return Manifest.load(lake_dir)._gc_history(keep_epochs_after)


def read_lake_table(lake_dir: str, *, final_state: bool = True) -> pa.Table:
    """Driver-side small read of the whole lake (tests/golden checks only)."""
    t = _scan(*_read_plan(lake_dir, final_state=final_state))
    return t.sort_by([("part_id", "ascending"), ("url", "ascending")]) if t.num_rows else t
