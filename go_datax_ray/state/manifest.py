"""Partition-epoch manifest: the exactly-once commit log of the lake.

Hardened from the reference's only two-phase-commit mechanism — hdfswriter
writes per-task temp paths and renames them at job Post
(/root/reference/plugins/writer/hdfswriter/hdfs_writer.go:366-506; note the
reference never actually wires job-level Post, SURVEY.md §3.1). Ours:

  1. merge tasks write DIRECTLY to the content-addressed final path
     ``part-{pid}/part-{pid}-epoch-{e}.parquet`` — deterministic name +
     byte-deterministic content, so a retried Ray task overwrites the
     same bytes (never double-applies). NO rename on data files, which
     makes the data plane S3-compatible (object stores have no atomic
     rename);
  2. visibility is decided solely by ``_manifest.json``: an uncommitted
     epoch file is invisible garbage until the manifest points at it.
     The manifest swap itself uses ``os.replace`` locally; on S3-class
     storage it maps to a conditional PUT / versioned pointer — a
     single-object swap either way;
  3. a replay of an already-committed epoch is detected and becomes a
     no-op (idempotent re-commit).

The manifest also carries the committed table schema (for Avro-style
additive evolution) and per-partition lineage: source-offset watermark ->
partition -> committed file, which is what makes the replay
checkpoint-resumable (north_rule).

Unlike the reference's non-deterministic output names
(``fileName + unixnano``, /root/reference/plugins/writer/txtfilewriter/
txtfile_writer.go:238-249), every name here is a pure function of
(partition, epoch).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .fs import LakeFS

MANIFEST_NAME = "_manifest.json"
COMMITS_DIR = "_commits"


def final_path(lake_dir: str, pid: int, epoch: int) -> str:
    """Content-addressed data file: a pure function of (partition, epoch).
    Merge tasks write here directly; the manifest pointer decides
    visibility, so no rename is ever needed on data files (S3-ready).
    Non-hive dir name (no '=') so read_parquet doesn't invent a
    partition column. ``lake_dir`` may be a plain path or an fsspec URI;
    the returned path is fs-native (see state.fs.LakeFS)."""
    return LakeFS(lake_dir).join(f"part-{pid:05d}", f"part-{pid:05d}-epoch-{epoch:06d}.parquet")


@dataclass
class Manifest:
    """Committed state of a lake directory."""

    lake_dir: str
    num_partitions: int = 0
    watermark_lsn: int = -1  # every event with lsn <= watermark is committed
    epoch: int = -1  # last committed epoch
    schema_json: str | None = None  # committed Arrow schema (serialized)
    # pid(str) -> {"file": rel, "rows": int, "max_lsn": int, "epoch": int}
    partitions: dict[str, dict[str, Any]] = field(default_factory=dict)
    # placement metadata: which column keys the lake and how it hashes —
    # recorded so READERS can prune to hash partitions (point lookups
    # touch 1 of P files instead of scanning the lake). The key places
    # and looks up rows, as ES routing does; records are identified by
    # url whatever it names (ReplayConfig.key). ``None`` means
    # UNKNOWN (a manifest written before these fields existed): readers
    # must fall back to scanning every committed file rather than prune
    # with a guessed hash, and the replay placement guard must not
    # reject — the fields are backfilled on the next commit (ADVICE r3).
    key: str | None = "url"
    hash_fn: str | None = "crc32"

    # opaque optimistic-concurrency tag of the manifest object this state
    # was loaded from (S3 ETag on the boto path; None locally, where the
    # writer flock serializes, and on filesystems without a conditional
    # primitive). Identifies the loaded SNAPSHOT, not the logical state —
    # excluded from equality/repr.
    _swap_tag: str | None = field(default=None, compare=False, repr=False)

    @cached_property
    def fsh(self) -> LakeFS:
        return LakeFS(self.lake_dir)

    # -- load/save ---------------------------------------------------------
    @classmethod
    def load(cls, lake_dir: str) -> "Manifest":
        fsh = LakeFS(lake_dir)
        p = fsh.join(MANIFEST_NAME)
        if not fsh.exists(p):
            return cls(lake_dir=lake_dir)
        payload, tag = fsh.read_json_tagged(p)
        d = json.loads(payload)
        man = cls(
            lake_dir=lake_dir,
            num_partitions=d["num_partitions"],
            watermark_lsn=d["watermark_lsn"],
            epoch=d["epoch"],
            schema_json=d.get("schema_json"),
            partitions=d["partitions"],
            key=d.get("key"),        # None = pre-metadata manifest: unknown,
            hash_fn=d.get("hash_fn"),  # never assume defaults (ADVICE r3)
        )
        man._swap_tag = tag
        return man

    def _save_atomic(self) -> None:
        """Publish the manifest pointer. Locally: fsync'd tmp +
        ``os.replace`` under the writer flock. On the boto s3 path: a
        conditional swap (If-Match on the tag this state was loaded
        with), so two writers racing the pointer — e.g. a replay vs a
        compaction job violating the single-writer rule — lose loudly
        instead of silently dropping one commit. Other remote stores
        keep the documented last-writer-wins ``mv``."""
        self.fsh.makedirs(self.fsh.root)
        payload = json.dumps(
            {
                "num_partitions": self.num_partitions,
                "watermark_lsn": self.watermark_lsn,
                "epoch": self.epoch,
                "schema_json": self.schema_json,
                "partitions": self.partitions,
                "key": self.key,
                "hash_fn": self.hash_fn,
            }
        )
        p = self.fsh.join(MANIFEST_NAME)
        res = self.fsh.replace_json_if_match(p, payload, self._swap_tag)
        if res is None:  # no conditional primitive: local flock / generic mv
            self.fsh.write_json_atomic(p, payload)
            return
        if res is False:
            raise RuntimeError(
                f"manifest swap lost: {p} changed since this state was "
                f"loaded (tag {self._swap_tag!r}) — a concurrent writer is "
                "violating the lake's single-writer rule; reload and retry"
            )
        self._swap_tag = res  # new tag, for the next epoch's swap

    # -- queries -----------------------------------------------------------
    def partition_file(self, pid: int) -> str | None:
        ent = self.partitions.get(str(pid))
        if ent is None:
            return None
        return self.fsh.join(ent["file"])

    def files_for_keys(self, keys: list) -> list[str]:
        """Data-skipping file selection: the partition files the given
        key values hash-place into (part_id = hash_fn(key) % P). k keys
        touch at most k of P files — the point-lookup read path."""
        from ..hashing import partition_ids

        if not self.num_partitions or self.key is None or self.hash_fn is None:
            # placement unknown (pre-metadata manifest): pruning with a
            # guessed hash silently drops rows — scan everything instead
            return self.committed_files()
        pids = set(partition_ids(
            [str(k) for k in keys], self.num_partitions, self.hash_fn
        ).tolist())
        return [f for pid in sorted(pids)
                for f in [self.partition_file(pid)] if f is not None]

    def committed_files(self) -> list[str]:
        return [self.fsh.join(e["file"]) for e in self.partitions.values()]

    # -- commit protocol ---------------------------------------------------
    def commit_epoch(
        self,
        epoch: int,
        lsn_lo: int,
        lsn_hi: int,
        entries: list[dict[str, Any]],
        schema_json: str,
        wall_s: float,
        retain_history: bool = False,
        phases: dict[str, Any] | None = None,
    ) -> bool:
        """Atomically publish one epoch. ``entries`` rows come from the merge
        stage: {pid, rows, events, max_lsn}; the record keeps an entry's
        ``bytes`` (its file's size) too, when it has them. ``phases`` (the
        replay's per-phase seconds and byte counts) is stored in the commit
        record next to ``wall_s``; like it, it is per-attempt telemetry outside
        the record's identity (``_stable_fields``). Returns False (no-op)
        if the epoch is already committed — the idempotent-replay
        guarantee."""
        if epoch <= self.epoch:
            return False
        old_files: list[str] = []
        for ent in entries:
            pid = int(ent["pid"])
            dst = final_path(self.lake_dir, pid, epoch)
            if not self.fsh.exists(dst):
                raise FileNotFoundError(
                    f"commit_epoch({epoch}): merge output missing for "
                    f"partition {pid}: {dst}"
                )
            prev = self.partitions.get(str(pid))
            if prev is not None:
                old_files.append(self.fsh.join(prev["file"]))
            self.partitions[str(pid)] = {
                "file": self.fsh.relpath(dst),
                "rows": int(ent["rows"]),
                "max_lsn": int(ent["max_lsn"]),
                "epoch": epoch,
            }
        # Commit record FIRST (fsync'd), manifest swap second: the manifest
        # pointer is the single source of commit truth, so a crash between
        # the two leaves an orphan record for an epoch the manifest never
        # acknowledged — lineage() filters those out. The reverse order
        # could acknowledge an epoch whose lineage record was lost
        # (ADVICE r1, manifest.py:166).
        self.fsh.makedirs(self.fsh.join(COMMITS_DIR))
        events_total = sum(int(e["events"]) for e in entries)
        commit_rec = {
            "epoch": epoch,
            "lsn_lo": lsn_lo,
            "lsn_hi": lsn_hi,
            "committed_at": time.time(),
            "wall_s": wall_s,
            **(phases or {}),
            "events": events_total,
            "events_per_sec": events_total / wall_s if wall_s > 0 else None,
            "partitions": {
                str(int(e["pid"])): {
                    "file": self.partitions[str(int(e["pid"]))]["file"],
                    "rows": int(e["rows"]),
                    "events": int(e["events"]),
                    "max_lsn": int(e["max_lsn"]),
                    **({"bytes": int(e["bytes"])} if "bytes" in e else {}),
                }
                for e in entries
            },
        }
        cpath = self.fsh.join(COMMITS_DIR, f"epoch-{epoch:06d}.json")
        self._write_commit_record_fenced(epoch, cpath, commit_rec)
        # manifest swap LAST — this is the commit point
        self.epoch = epoch
        self.watermark_lsn = max(self.watermark_lsn, lsn_hi)
        if schema_json:
            self.schema_json = schema_json
        self._save_atomic()
        # superseded partition files are garbage once the manifest moved on
        # — unless history retention is on (time-travel reads via the
        # commit records; GC them later with sinks.lake.gc_history())
        if not retain_history:
            self.fsh.remove_many(old_files)  # best-effort: failures are left
        return True

    @staticmethod
    def _stable_fields(rec: dict[str, Any]) -> dict[str, Any]:
        """The deterministic identity of a commit record — everything but
        the per-attempt timing fields (committed_at, wall_s, the phase
        fields, events_per_sec)."""
        return {
            "epoch": rec["epoch"],
            "lsn_lo": rec["lsn_lo"],
            "lsn_hi": rec["lsn_hi"],
            "partitions": rec["partitions"],
        }

    def _write_commit_record_fenced(
        self, epoch: int, cpath: str, commit_rec: dict[str, Any]
    ) -> None:
        """Publish the epoch's commit record behind an atomic
        create-if-absent fence where the filesystem has one (os.link
        locally, S3 conditional PUT via state.s3boto) — concurrent
        committers are DETECTED instead of silently last-writer-winning.
        Losing the CAS means one of three things, resolved in order:

        1. the existing record is stable-identical → our own crashed
           predecessor wrote it (idempotent epoch replay produces the
           same bytes) — keep it and proceed to the manifest swap;
        2. the manifest, reloaded, now acknowledges this epoch → a
           concurrent writer finished first — raise (the caller's state
           is stale; a retry loads the new watermark and no-ops);
        3. otherwise → an orphan record from a crashed writer whose
           epoch slice differed (the WAL grew between attempts). Under
           the lake's single-writer requirement (flock locally,
           deployment-level on remote stores — state/fs.py docstring)
           no LIVE writer can be mid-commit here, so reclaim it.

        Filesystems with no conditional primitive (generic fsspec) keep
        the documented last-writer-wins swap."""
        won = self.fsh.write_json_if_absent(cpath, json.dumps(commit_rec))
        if won is None:  # no conditional primitive on this filesystem
            self.fsh.write_json_atomic(cpath, json.dumps(commit_rec))
            return
        if won:
            return
        with self.fsh.open(cpath) as f:
            existing = json.load(f)
        if self._stable_fields(existing) == self._stable_fields(commit_rec):
            return  # resumed idempotent replay: the record is already ours
        current = Manifest.load(self.lake_dir)
        if current.epoch >= epoch:
            raise RuntimeError(
                f"epoch {epoch} was committed by a concurrent writer "
                f"(manifest now at epoch {current.epoch}) — reload and resume "
                f"from the new watermark"
            )
        # orphan from a crashed attempt with a different epoch slice:
        # single-writer requirement makes reclaiming safe
        self.fsh.write_json_atomic(cpath, json.dumps(commit_rec))

    # -- time travel -------------------------------------------------------
    def files_asof(self, epoch: int) -> list[str]:
        """Committed partition files as of ``epoch`` (inclusive),
        reconstructed from the per-epoch lineage records. Requires the
        lake to have been written with retain_history=True (otherwise
        superseded files are deleted and only the latest state exists).
        This is the engine's analogue of the elasticsearchwriter's atomic
        alias swap (elasticsearch_writer.go:512-563): every committed
        epoch IS a publishable alias."""
        latest: dict[str, str] = {}
        for rec in self.lineage():
            if rec["epoch"] > epoch:
                break
            for pid, ent in rec["partitions"].items():
                latest[pid] = ent["file"]
        out = []
        missing = []
        for pid, rel in latest.items():
            p = self.fsh.join(rel)
            (out if self.fsh.exists(p) else missing).append(p)
        if missing:
            raise FileNotFoundError(
                f"time-travel to epoch {epoch} needs {len(missing)} superseded "
                "files that were GC'd — write the lake with retain_history=True"
            )
        return out

    def _gc_history(self, keep_epochs_after: int) -> int:
        """Delete retained history files not referenced by the CURRENT
        state or by the as-of view of any retained epoch (> horizon).
        A file written long ago but still current at a retained epoch
        survives (views are cumulative, not per-record)."""
        needed: set[str] = {ent["file"] for ent in self.partitions.values()}
        latest: dict[str, str] = {}
        all_files: set[str] = set()
        for rec in self.lineage():
            for pid, ent in rec["partitions"].items():
                latest[pid] = ent["file"]
                all_files.add(ent["file"])
            if rec["epoch"] > keep_epochs_after:
                needed.update(latest.values())
        stale = [self.fsh.join(rel) for rel in sorted(all_files - needed)]
        return len(stale) - len(self.fsh.remove_many(stale))  # best-effort

    def _gc_orphans(self) -> int:
        """Remove UNREFERENCED epoch data files — debris from crashed or
        aborted epochs that wrote their content-addressed file but never
        reached the manifest swap. Rename-free commits make such debris
        normal; it is invisible to readers (manifest decides visibility)
        but costs storage. A file is kept iff the current manifest or any
        commit record references it. Call ``sinks.lake.gc_orphans``,
        which holds the writer lock."""
        referenced: set[str] = {ent["file"] for ent in self.partitions.values()}
        for rec in self.lineage():
            for ent in rec["partitions"].values():
                referenced.add(ent["file"])
        orphans = []
        pids = {int(p) for p in self.partitions} | set(range(self.num_partitions))
        for pid in sorted(pids):
            pdir = self.fsh.join(f"part-{pid:05d}")
            if not self.fsh.isdir(pdir):
                continue
            for name in self.fsh.listdir(pdir):
                rel = f"part-{pid:05d}/{name}"
                if name.endswith(".parquet") and rel not in referenced:
                    orphans.append(self.fsh.join(rel))
        return len(orphans) - len(self.fsh.remove_many(orphans))  # best-effort

    def lineage(self) -> list[dict[str, Any]]:
        """Commit records in epoch order, reconciled against the manifest:
        records beyond ``self.epoch`` (orphans from a crash between the
        record write and the manifest swap) are ignored; a MISSING record
        for an acknowledged epoch fails loudly — silent gaps would make
        time-travel views quietly inconsistent (ADVICE r1)."""
        cdir = self.fsh.join(COMMITS_DIR)
        if not self.fsh.isdir(cdir):
            if self.epoch >= 0:
                raise FileNotFoundError(
                    f"manifest acknowledges epoch {self.epoch} but no commit "
                    f"records exist under {cdir}"
                )
            return []
        out = []
        for name in self.fsh.listdir(cdir):
            if name.endswith(".json") and not name.endswith(".tmp"):
                with self.fsh.open(self.fsh.join(COMMITS_DIR, name)) as f:
                    rec = json.load(f)
                if rec["epoch"] <= self.epoch:
                    out.append(rec)
        seen = {rec["epoch"] for rec in out}
        missing = [e for e in range(self.epoch + 1) if e not in seen]
        if missing:
            raise FileNotFoundError(
                f"lineage gap: manifest acknowledges epoch {self.epoch} but "
                f"commit records for epochs {missing[:5]}{'...' if len(missing) > 5 else ''} "
                "are missing"
            )
        return out
