"""The flagship pipeline: CDC replay into the Parquet lake.

go-datax's whole job model — JobContainer phases init/prepare/split/
schedule/post driving reader->channel->writer goroutine pairs
(/root/reference/core/job/jobcontainer.go:61-138, /root/reference/core/
task/taskgroupcontainer.go:39-239) — collapses into one Ray Data
pipeline per epoch:

    source.read(lo, hi)                      # split: lsn-range read tasks
      .map_batches(prepare)                  # drop text, LWW combine,
                                             # add_part_id, in the read task
      .write_parquet(partition_cols=[part_id])   # per-partition deltas
    -> one merge task per CPU, each over a   # committed file + deltas,
       run of sorted partition ids           # from one listing of them
    -> driver commits the epoch atomically (manifest + rename)

``ParquetWalSource.read`` plans the epoch from its segment footers
(``fragments``) and reads one bundle of row groups per task.

Delta files are lz4 without dictionary pages or statistics
(``_DELTA_PARQUET_OPTS``); the committed files the merge writes are
zstd-1 without dictionary pages, with statistics on every column but
the payload ones (``sinks.lake.LAKE_PARQUET_OPTS``,
``sinks.lake.statistics_columns``).

Each epoch's phases are timed (``scan_s``, ``prepare_write_s``,
``merge_s``, ``commit_s``) into ``ReplayResult.epoch_stats``; all but
``commit_s`` also go into the epoch's commit record, with the delta
files' count and bytes and the partition files' bytes
(``final_bytes``).

The epoch loop is the checkpoint unit: a crash between epochs resumes
from the manifest watermark; a crash mid-epoch replays the whole epoch,
which is idempotent (deterministic tmp names + LWW + manifest gate).
"""

from __future__ import annotations

import functools
import posixpath
import time
from dataclasses import dataclass, field
from typing import Any, Protocol

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import evolve
from ..sinks.lake import make_delta_merger, schema_from_json, schema_to_json
from ..stages.lww import lww_combine_counted
from ..stages.partition import add_part_id
from ..state.fs import LakeFS, writer_lock
from ..state.manifest import Manifest
from ..synth import SynthConfig, gen_events

# Encoding of the intra-epoch delta files, written and read once on the
# epoch's critical path. No dictionary pages: html, text and url are
# nearly all distinct. lz4, not the committed files' zstd-1: zstd-1 writes
# 27% fewer delta bytes but encodes and decodes more slowly, and in
# bench.py-shaped epochs it lengthened the replay (BASELINE.md §4h). No
# statistics: the merge reads each delta file whole, without a filter
# (BASELINE.md §4i).
_DELTA_PARQUET_OPTS = {"compression": "lz4", "use_dictionary": False,
                       "write_statistics": False}
# The combiner copies the whole (html-wide) batch, so batches whose
# in-batch duplicate ratio is below this pass through uncombined; the
# merge LWWs anyway (stages.lww).
_COMBINE_MIN_REDUCTION = 0.05
# Events per source block, and so per prepare call: the delta write emits
# one file per (block, partition), so larger blocks give fewer, larger
# delta files and bound the merge's per-file open cost. At the lake's
# ~1 KB pages a block is about 36 MB, and bench.py's sf0.1 epoch writes
# 16,384 delta files; sizing blocks by bytes instead is still open.
_PREPARE_ROWS = 32768
# Ray Data reserves object store for each task it has not measured yet
# at target_max_block_size (128 MiB by default) per pending output
# block, so under a small store it launched one merge task and held the
# rest until that one finished (BASELINE.md §4e). Merge tasks return
# only ENTRY_SCHEMA rows, so the merge Dataset's own context gets 1 MiB
# and every task starts at once.
_MERGE_TARGET_BLOCK_BYTES = 1 << 20


class EventSource(Protocol):
    """A WAL/binlog tail abstraction: total extent + range read. ``read``
    returns None when it knows [lo, hi) holds no event. The replay
    prepares each block in one call, in the task that made it, so a source
    makes blocks of about ``_PREPARE_ROWS`` events."""

    def lsn_bounds(self) -> tuple[int, int]:  # [lo, hi) of available events
        ...

    def read(self, lo: int, hi: int) -> Any:  # ray.data.Dataset of CDC events, or None
        ...


class SynthEventSource:
    """Deterministic generator tail (streamreader analogue, seeded)."""

    def __init__(self, n_events: int, cfg: SynthConfig | None = None):
        self.n_events = n_events
        self.cfg = cfg or SynthConfig()

    def lsn_bounds(self) -> tuple[int, int]:
        return (0, self.n_events)

    def read(self, lo: int, hi: int):
        """Even blocks of at most ``_PREPARE_ROWS`` events, one task each."""
        import ray.data as rd

        n = -(-(hi - lo) // _PREPARE_ROWS)
        return rd.range(hi - lo, override_num_blocks=n).map_batches(
            gen_events, fn_args=(self.cfg, lo), batch_format="pyarrow", batch_size=None)


class DatasetEventSource:
    """Replay one existing Dataset that carries an ``lsn`` column. A
    continuation (say, in a newer schema) is a second source and replay."""

    def __init__(self, ds, lsn_lo: int, lsn_hi: int):
        self.ds = ds
        self._bounds = (lsn_lo, lsn_hi)

    def lsn_bounds(self) -> tuple[int, int]:
        return self._bounds

    def read(self, lo: int, hi: int):
        """Filters ``_PREPARE_ROWS`` rows per call, but Ray joins one
        task's filtered batches into blocks of up to its target block size
        (128 MiB), so one block can hold a whole large input block."""
        lo_s, hi_s = pa.scalar(lo, pa.int64()), pa.scalar(hi, pa.int64())
        return self.ds.map_batches(
            lambda t: t.filter(
                pc.and_(pc.greater_equal(t.column("lsn"), lo_s), pc.less(t.column("lsn"), hi_s))
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=_PREPARE_ROWS,
        )


class ParquetWalSource:
    """Replay WAL segments persisted as Parquet. ``fragments`` plans each
    epoch from the segment footers, with lsn row-group pruning; ``read``
    reads the planned row groups in bundles, one task and one block per
    bundle. The replay's prepare runs in that task, so only its winners,
    not the raw html, enter the object store."""

    def __init__(self, paths: list[str] | str, lsn_lo: int, lsn_hi: int):
        self.paths = paths
        self._bounds = (lsn_lo, lsn_hi)

    def lsn_bounds(self) -> tuple[int, int]:
        return self._bounds

    def _files(self) -> list[str]:
        import glob as _g
        import os as _os

        paths = self.paths
        if isinstance(paths, str):
            if _os.path.isdir(paths):
                return sorted(_g.glob(_os.path.join(paths, "*.parquet")))
            if any(c in paths for c in "*?["):
                return sorted(_g.glob(paths))
            return [paths]
        return list(paths)

    def fragments(self, lo: int, hi: int) -> list[dict]:
        """The epoch's read plan: one ``{"path", "rg", "rows"}`` per row
        group overlapping [lo, hi), in ``_files()`` order, then row-group
        order. Row groups whose lsn statistics fall outside the range are
        pruned, and ``rows`` is the footer's row count, which sizes
        ``read``'s bundles. Plain driver-side loop over the
        segment footers: about 0.13 ms per segment on a 4-vCPU VM
        (BASELINE.md §4c), cheaper than any task stage."""
        import pyarrow.parquet as pq

        out: list[dict] = []
        for path in self._files():
            md = pq.read_metadata(path)
            names = md.schema.names
            lsn_i = names.index("lsn") if "lsn" in names else None
            for rg in range(md.num_row_groups):
                meta = md.row_group(rg)
                st = None if lsn_i is None else meta.column(lsn_i).statistics
                if st is not None and st.has_min_max and (st.max < lo or st.min >= hi):
                    continue
                out.append({"path": path, "rg": rg, "rows": meta.num_rows})
        return out

    def read(self, lo: int, hi: int):
        """None when no row group overlaps [lo, hi). The planned row
        groups fill bundles in order up to ``_PREPARE_ROWS`` footer rows (a
        larger one is a bundle of its own); one task per bundle index reads
        them, filters to [lo, hi) and returns one block, or none if empty.
        A failed read names the segment, the row group and the range."""
        import pyarrow.parquet as pq
        import ray.data as rd

        bundles: list[list[dict]] = []
        rows = 0
        for frag in self.fragments(lo, hi):
            if not bundles or rows + frag["rows"] > _PREPARE_ROWS:
                bundles.append([])
                rows = 0
            bundles[-1].append(frag)
            rows += frag["rows"]
        if not bundles:
            return None

        def read_bundle(batch: dict):
            tables = []
            for frag in bundles[int(batch["i"][0])]:  # batch_size=1
                try:
                    t = pq.ParquetFile(frag["path"]).read_row_group(frag["rg"])
                    lsn = t.column("lsn")
                    t = t.filter(pc.and_(pc.greater_equal(lsn, pa.scalar(lo)),
                                         pc.less(lsn, pa.scalar(hi))))
                except Exception as e:
                    raise RuntimeError(f"WAL read of {frag['path']} row group {frag['rg']}"
                                       f" for lsn [{lo}, {hi}) failed: {e!r}") from e
                if t.num_rows:
                    tables.append(t)
            if tables:
                yield pa.concat_tables(tables)

        return rd.from_items(
            [{"i": i} for i in range(len(bundles))], override_num_blocks=len(bundles)
        ).map_batches(read_bundle, batch_format="numpy", batch_size=1)


def make_prepare(cfg: "ReplayConfig"):
    """The one prepare function every source's events go through: drop
    source text (when the engine derives it) -> within-batch LWW combine
    -> add_part_id, so only the combine's winners are hashed."""
    drop_text = cfg.extract_text
    key, nparts, hash_fn = cfg.key, cfg.num_partitions, cfg.hash_fn

    def prepare(t: pa.Table) -> pa.Table:
        if drop_text and "text" in t.column_names:
            t = t.drop_columns(["text"])
        t = lww_combine_counted(t, min_reduction=_COMBINE_MIN_REDUCTION)
        return add_part_id(t, key=key, num_partitions=nparts, hash_fn=hash_fn)

    return prepare


@dataclass
class ReplayConfig:
    lake_dir: str
    num_partitions: int = 32
    epoch_size: int = 1_000_000
    # The column the lake is hash-placed and looked up by (part_id =
    # hash(key) % P; lookup and read_lake(keys=)): the analogue of ES
    # routing. Records are identified by url whatever it names: LWW
    # keeps one row per url, so two urls under one key stay two rows
    # in the key's partition, as sinks.parquet.write_upsert's routing
    # places rows by _routing and dedups them by url.
    key: str = "url"
    # Partition hash family: "crc32" (reference-exact CRC32(pk)%N hot
    # path) or "md5" (DuckDB md5_number_lower-checkable placement — final
    # table state is identical either way, only placement moves; pick md5
    # when lineage/placement must be SQL-auditable).
    hash_fn: str = "crc32"
    # Derive text = extract_text(html) inside the engine instead of
    # trusting/carrying the source's text column. The incoming text column
    # (if any) is dropped in prepare and extraction runs on the post-LWW
    # winner set inside the merge: derived payload never enters the delta
    # files, and extraction cost is per surviving key, not per event
    # (the realistic profile of webtext CDC ingest — events arrive as raw
    # html; byte-identity of the extractor is enforced by tests).
    extract_text: bool = False
    # Keep superseded partition files so any committed epoch remains
    # readable (read_lake(asof_epoch=...) time travel — the ES alias-swap
    # analogue); GC old views later with sinks.lake.gc_history().
    retain_history: bool = False
    # Maintained aggregate views (sinks.views.ViewSpec): the merge writes
    # each view's aggregate of a partition's new rows, already in memory
    # there, into the partition file's footer, so the state is committed
    # with the file; read with sinks.views.read_view, which recomputes
    # the partitions a replay without the view wrote.
    views: tuple = ()


@dataclass
class ReplayResult:
    lake_dir: str
    events: int = 0
    epochs: int = 0
    wall_s: float = 0.0
    epoch_stats: list[dict] = field(default_factory=list)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def _write_and_merge(ds, cfg: ReplayConfig, epoch: int,
                     committed: dict[int, str], stats: dict) -> list[dict]:
    """The delta exchange: write the prepared events into per-partition
    delta files (``write_parquet(partition_cols=[part_id])``), list them
    once, then merge every partition from its exact files
    (write-then-compact, no shuffle operator): one task per CPU, each
    over a contiguous run of sorted partition ids, all launched together.
    Returns the manifest entry rows in pid order; ``stats`` receives the
    phase seconds ``prepare_write_s`` and ``merge_s``, the listing's
    ``delta_files`` and ``delta_bytes``, and the entries' ``final_bytes``.
    The listed delta files are deleted afterwards."""
    import ray
    import ray.data as rd

    fsh = LakeFS(cfg.lake_dir)
    delta_dir = fsh.join("_delta", f"epoch-{epoch:06d}")
    fsh.rmtree(delta_dir)  # idempotent epoch restart
    t0 = time.perf_counter()
    try:  # runs the source's read and prepare too
        ds.write_parquet(delta_dir, partition_cols=["part_id"],
                         filesystem=fsh.pafs, **_DELTA_PARQUET_OPTS)
    except Exception as e:
        raise RuntimeError(f"read, prepare or delta write of epoch {epoch} failed: {e!r}") from e
    t1 = time.perf_counter()
    listing = fsh.find(delta_dir)  # path order: the merge's tie-break order
    inputs: dict[int, tuple[str | None, list[str]]] = {}  # pid -> (committed, deltas)
    for path in listing:  # {delta_dir}/part_id={pid}/{file}.parquet
        pid = int(posixpath.basename(posixpath.dirname(path)).removeprefix("part_id="))
        inputs.setdefault(pid, (committed.get(pid), []))[1].append(path)
    stats.update(prepare_write_s=t1 - t0, delta_files=len(listing),
                 delta_bytes=sum(listing.values()))
    entries: list[dict] = []
    if inputs:
        merge = make_delta_merger(
            cfg.lake_dir, epoch, inputs,
            extract_missing_text=cfg.extract_text, views=cfg.views, key=cfg.key,
        )
        n = min(len(inputs), int(ray.cluster_resources()["CPU"]))
        merged = rd.from_items(
            [{"pid": p} for p in sorted(inputs)], override_num_blocks=n
        ).map_batches(merge, batch_format="numpy", batch_size=None)
        merged.context.target_max_block_size = _MERGE_TARGET_BLOCK_BYTES
        # take_all yields rows in task completion order; pid order makes
        # the manifest and commit record bytes deterministic
        entries = sorted(merged.take_all(), key=lambda e: int(e["pid"]))
        stats.update(merge_s=time.perf_counter() - t1,
                     final_bytes=sum(int(e["bytes"]) for e in entries))
    fsh.remove_listed(delta_dir, listing)
    return entries


def replay(source: EventSource, cfg: ReplayConfig) -> ReplayResult:
    """Run the CDC replay from the source's current extent into the lake,
    resuming after the committed watermark. Exactly-once: re-running with
    the same source is a no-op past the watermark. Holds an exclusive
    writer lock on the lake — two concurrent replays would race the
    manifest, so the second fails fast (flock is released by the OS even
    on crash, so a dead writer never wedges the lake)."""
    with writer_lock(cfg.lake_dir):
        return _replay_locked(source, cfg)


def _replay_locked(source: EventSource, cfg: ReplayConfig) -> ReplayResult:
    man = Manifest.load(cfg.lake_dir)
    if man.num_partitions and man.num_partitions != cfg.num_partitions:
        raise ValueError(
            f"lake has {man.num_partitions} partitions; config says {cfg.num_partitions}"
        )
    # key/hash_fn None = pre-metadata manifest: placement unknown, so don't
    # reject the very config the lake may have been built with — backfill
    # below and let the next commit record it (ADVICE r3)
    if (man.num_partitions and man.key is not None and man.hash_fn is not None
            and (man.key, man.hash_fn) != (cfg.key, cfg.hash_fn)):
        raise ValueError(
            f"lake is keyed/placed by ({man.key}, {man.hash_fn}); "
            f"config says ({cfg.key}, {cfg.hash_fn})"
        )
    man.num_partitions = cfg.num_partitions
    man.key, man.hash_fn = cfg.key, cfg.hash_fn

    src_lo, src_hi = source.lsn_bounds()
    start = max(src_lo, man.watermark_lsn + 1)
    res = ReplayResult(lake_dir=cfg.lake_dir)
    t_total = time.perf_counter()
    epoch = man.epoch
    prepare = make_prepare(cfg)
    lo = start
    while lo < src_hi:
        hi = min(lo + cfg.epoch_size, src_hi)
        epoch += 1
        t0 = time.perf_counter()
        ds = source.read(lo, hi)
        if ds is not None:
            # batch_size=None: a batch size on this last fused stage makes
            # Ray coalesce the read's inputs (one row per WAL bundle) into
            # one serial task (measured 22 s instead of 3 s)
            ds = ds.map_batches(prepare, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)
        # per-phase seconds and delta counts; an epoch with nothing to
        # write keeps the zeros
        phases = {"scan_s": time.perf_counter() - t0, "prepare_write_s": 0.0,
                  "merge_s": 0.0, "delta_bytes": 0, "delta_files": 0, "final_bytes": 0}
        committed = {
            int(pid): man.partition_file(int(pid)) for pid in man.partitions
        }
        entries = [] if ds is None else _write_and_merge(
            ds, cfg, epoch, committed, phases)
        wall = time.perf_counter() - t0
        # the committed schema is cumulative (readers scan every file over
        # it); an epoch with no entries still COMMITS so the watermark
        # advances — else a tail/rerun would reprocess it forever
        schema_json = man.schema_json or ""
        if entries:
            jsons = ([schema_json] if schema_json else []) + [e["schema_json"] for e in entries]
            schema_json = schema_to_json(functools.reduce(evolve, map(schema_from_json, jsons)))
        t_commit = time.perf_counter()
        man.commit_epoch(
            epoch,
            lsn_lo=lo,
            lsn_hi=hi - 1,
            entries=entries,
            schema_json=schema_json,
            wall_s=wall,
            retain_history=cfg.retain_history,
            phases=phases,
        )
        commit_s = time.perf_counter() - t_commit
        # events consumed from the WAL this epoch = the offset span advanced;
        # per-partition entry counts are post-combiner applied rows.
        n_events = hi - lo
        n_applied = sum(int(e["events"]) for e in entries)
        res.events += n_events
        res.epochs += 1
        res.epoch_stats.append({
            "epoch": epoch,
            "lsn_lo": lo,
            "lsn_hi": hi - 1,
            "events": n_events,
            "applied": n_applied,
            "wall_s": wall,
            "events_per_sec": n_events / wall if wall > 0 else 0.0,
            **phases,
            "commit_s": commit_s,
        })
        lo = hi
    res.wall_s = time.perf_counter() - t_total
    return res
