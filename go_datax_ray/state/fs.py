"""Filesystem indirection for the lake data plane.

Every lake, plain path or URI, goes through one pair of filesystems:
fsspec's (``url_to_fs``; ``LocalFileSystem`` for plain paths) for file
operations and whole-file reads, and a pyarrow one for Parquet writes
and scans (pyarrow's native ``LocalFileSystem`` for plain paths, an
``FSSpecHandler`` over the fsspec one otherwise). So ``file://``, ``s3://``,
``webhdfs://``, ``memory://`` and plain paths share one code path, and the local tests exercise what
remote lakes run. The data plane needs NO renames (content-addressed
epoch files, manifest-decided visibility).

Only the safety primitives keep a local branch, because plain paths are
the only place they run: the fsync'd tmp + ``os.replace`` manifest swap,
the ``os.link`` create-if-absent fence, and the ``writer_lock`` flock.
Remote stores swap with ``fs.mv`` (copy+delete on object stores,
namenode rename on HDFS) unless the filesystem has a conditional PUT.

**Object-store lakes are HARD single-writer.** Local lakes are protected
by the flock in ``writer_lock``; remote lakes have no cross-process
lock, so exactly one replay/compact/gc job per remote lake is a
deployment requirement (enforce it in the scheduler). As a second line
of defense the commit protocol fences each epoch's commit record behind
an atomic create-if-absent where the store has one — ``os.link``
locally, a conditional PUT (S3 ``If-None-Match``) on the boto-backed s3
path (``write_json_if_absent`` below,
``Manifest._write_commit_record_fenced``) — and on that s3 path the
manifest swap is an ``If-Match`` PUT, so a race is detected instead of
silently lost; generic fsspec filesystems without a conditional
primitive keep last-writer-wins.
"""

from __future__ import annotations

import contextlib
import os
import posixpath
from typing import Any, Iterable

import fsspec
import pyarrow as pa
import pyarrow.fs
import pyarrow.parquet as pq


@contextlib.contextmanager
def writer_lock(lake_dir: str):
    """Exclusive lake writer flock — the single mutual-exclusion point
    shared by replay, compact, delete_where (each takes it itself) and
    the CLI's gc commands (all of them rewrite epoch files
    or the manifest, so any pair racing corrupts an in-flight commit).
    Non-blocking: a second holder fails fast. The OS releases the flock
    on crash, so a dead writer never wedges the lake. Remote (URI) lakes
    have no cross-process lock — see the module docstring's hard
    single-writer requirement."""
    if "://" in str(lake_dir):
        yield  # remote: deployment-level single-writer (docstring)
        return
    import fcntl

    os.makedirs(lake_dir, exist_ok=True)
    lock_f = open(os.path.join(lake_dir, "_writer.lock"), "w")
    try:
        fcntl.flock(lock_f, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError as e:
        lock_f.close()
        raise RuntimeError(
            f"another job holds the lake writer lock on {lake_dir}"
        ) from e
    try:
        yield
    finally:
        fcntl.flock(lock_f, fcntl.LOCK_UN)
        lock_f.close()


class LakeFS:
    """Tiny fs facade over one fsspec filesystem (``fs``) and one pyarrow
    filesystem (``pafs``) for the same store. Callers pass paths built
    with ``join`` (or ``/``-joined onto one) and never branch on the
    store. Besides picking ``pafs``, ``local`` is read only by the
    safety primitives."""

    def __init__(self, base):
        self.base = base = str(base)
        self.local = "://" not in base
        self.fs, self.root = fsspec.core.url_to_fs(base)
        self.pafs = (pyarrow.fs.LocalFileSystem() if self.local else
                     pyarrow.fs.PyFileSystem(pyarrow.fs.FSSpecHandler(self.fs)))

    # -- paths -----------------------------------------------------------
    def join(self, *parts: str) -> str:
        return posixpath.join(self.root, *parts)

    def relpath(self, p: str) -> str:
        return posixpath.relpath(p, self.root)

    # -- predicates ------------------------------------------------------
    def exists(self, p: str) -> bool:
        return self.fs.exists(p)

    def isdir(self, p: str) -> bool:
        return self.fs.isdir(p)

    # -- ops -------------------------------------------------------------
    def makedirs(self, p: str) -> None:
        self.fs.makedirs(p, exist_ok=True)

    def open(self, p: str, mode: str = "rb"):
        return self.fs.open(p, mode)

    def glob(self, pattern: str) -> list[str]:
        return sorted(self.fs.glob(pattern))

    def find(self, p: str) -> dict[str, int]:
        """Every file under ``p`` -> its bytes, in path order (empty when
        ``p`` is missing): one recursive listing, no per-file stat."""
        return {k: int(v["size"]) for k, v in self.fs.find(p, detail=True).items()}

    def listdir(self, p: str) -> list[str]:
        return sorted(posixpath.basename(x.rstrip("/")) for x in self.fs.ls(p, detail=False))

    def remove_many(self, paths: Iterable[str]) -> list[str]:
        """Delete the files ``paths`` (batched ``DeleteObjects`` on the boto
        S3 filesystem, else one delete per file) and return those that
        could not be deleted, for the caller to raise on or leave."""
        paths = list(paths)
        if hasattr(self.fs, "rm_files"):
            return self.fs.rm_files(paths)
        failed = []
        for p in paths:
            try:
                self.fs.rm_file(p)
            except OSError:
                failed.append(p)
        return failed

    def rmtree(self, p: str) -> None:
        if self.fs.exists(p):
            self.fs.rm(p, recursive=True)

    def remove_listed(self, top: str, files: Iterable[str]) -> None:
        """Delete the files a ``find(top)`` returned, then the directories
        that held them and ``top``, deepest first, without listing or
        probing again. Object stores have no directories (``rmdir`` does
        nothing on ``BotoS3FileSystem``), so they get one ``DeleteObjects``
        per 1000 files and nothing more."""
        files = list(files)
        failed = self.remove_many(files)
        if failed:
            raise OSError(f"could not delete {len(failed)} listed files: {failed[:5]}")
        # WebHDFS has no rmdir of its own; its non-recursive DELETE
        # removes an empty directory and refuses a full one
        rmdir = self.fs.rm if "webhdfs" in self.fs.protocol else self.fs.rmdir
        for d in sorted({posixpath.dirname(f) for f in files} | {top}, reverse=True):
            with contextlib.suppress(FileNotFoundError):
                rmdir(d)

    def replace(self, src: str, dst: str) -> None:
        """Atomic swap locally; mv on remote (copy+delete on object
        stores, namenode rename on HDFS — last-writer-wins either way,
        see the module docstring's hard single-writer requirement).

        HDFS-semantics stores REJECT a rename onto an existing
        destination (Hadoop FileSystem.rename returns false; WebHDFS
        reports it as ``{"boolean": false}`` with HTTP 200, which
        fsspec's ``mv`` silently ignores) — without the check below the
        manifest swap would silently no-op on every save after the
        first. Detect the rejected overwrite by the src surviving the
        mv, then delete dst and retry once. The dst-missing window this
        opens is readers-see-no-manifest (fail-safe: an empty Manifest,
        never a partial one), only on rename-semantics stores, under
        the single-writer rule."""
        if self.local:
            os.replace(src, dst)
            return
        self.fs.mv(src, dst)
        if self.fs.exists(src):  # rename-refused-overwrite semantics
            self.fs.rm(dst)
            self.fs.mv(src, dst)
            if self.fs.exists(src):
                raise OSError(f"remote rename {src} -> {dst} failed twice")

    def write_json_atomic(self, p: str, payload: str) -> None:
        tmp = p + ".tmp"
        with self.open(tmp, "wb") as f:
            f.write(payload.encode())
            if self.local:
                f.flush()
                os.fsync(f.fileno())
        self.replace(tmp, p)

    def read_json_tagged(self, p: str) -> tuple[str, str | None]:
        """Read a JSON file and an opaque swap tag for optimistic
        concurrency. Local and generic-fsspec files return tag None (the
        local manifest is protected by the writer flock instead); the
        boto s3 path returns the object's ETag, read in the same GET as
        the content."""
        if hasattr(self.fs, "get_with_tag"):
            data, tag = self.fs.get_with_tag(p)
            return data.decode(), tag
        with self.open(p, "rb") as f:
            return f.read().decode(), None

    def replace_json_if_match(
        self, p: str, payload: str, tag: str | None
    ) -> str | bool | None:
        """Optimistic-concurrency swap: replace ``p`` only if it still
        carries ``tag`` (``tag=None`` means "must not exist yet").
        Returns the NEW tag on success, False when the file moved
        underneath the caller (a concurrent writer swapped first), or
        None when this filesystem has no conditional primitive — the
        caller falls back to write_json_atomic (flock-protected locally,
        documented last-writer-wins on generic remotes)."""
        if not hasattr(self.fs, "put_if_match"):
            return None
        if tag is None:
            # the ETag comes from the create's own PUT response, so a
            # racer's later overwrite fails our next If-Match
            return self.fs.put_if_absent(p, payload.encode())
        return self.fs.put_if_match(p, payload.encode(), tag)

    def write_json_if_absent(self, p: str, payload: str) -> bool | None:
        """Atomic create-if-absent: write ``payload`` to ``p`` only if no
        file exists there. Returns True (created), False (lost the race —
        a file already exists), or None (this filesystem has no atomic
        conditional create — caller falls back to last-writer-wins).

        Local: fsync a unique tmp then ``os.link`` it into place —
        link(2) fails with EEXIST atomically, and the data is durable
        before it becomes visible (no partial record can ever block the
        CAS). S3 (boto fallback): a conditional PUT (If-None-Match) —
        object PUTs are all-or-nothing, so no partial there either.
        Other fsspec filesystems: None (no portable primitive)."""
        if self.local:
            tmp = f"{p}.tmp.{os.getpid()}.{id(self)}"
            with open(tmp, "w") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            try:
                os.link(tmp, p)
                return True
            except FileExistsError:
                return False
            finally:
                os.remove(tmp)
        if hasattr(self.fs, "put_if_absent"):
            return self.fs.put_if_absent(p, payload.encode()) is not False
        return None

    # -- Arrow interop ---------------------------------------------------
    def read_parquet(self, p: str, columns: list[str] | None = None):
        """``p`` read as one object: one GET, and no HEAD, on object stores."""
        return pq.read_table(pa.BufferReader(self.fs.cat_file(p)), columns=columns)

    def write_parquet(self, table: Any, p: str, **kwargs: Any) -> int:
        """Write ``table`` to ``p``, creating its parent directory, and
        return the bytes written: the stream's position at the end, so
        no stat or HEAD follows the write."""
        self.makedirs(posixpath.dirname(p))
        with self.pafs.open_output_stream(p, compression=None) as out:
            pq.write_table(table, out, **kwargs)
            return out.tell()
