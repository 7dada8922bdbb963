"""Minimal boto3-backed fsspec S3 filesystem — fallback when s3fs is absent.

The reference's ossreader/osswriter speak to an S3-compatible object
store (oss_reader.go:279-389 lists a bucket by prefix and reads whole
objects; oss_writer.go:167-246 streams multipart uploads), and its
hdfs paths are frequently backed by object stores in practice. This
engine routes every ``s3://`` / ``oss://``-style URI through fsspec
(`sources/txtfile.py:_resolve_uri`, `state/fs.py:LakeFS`); the canonical
fsspec implementation is ``s3fs``, but that package may be absent while
``boto3`` (the standard AWS SDK) is present. This module implements the
minimal AbstractFileSystem surface those code paths need — list / info /
ranged read / multipart write / copy / delete — directly over boto3, and
`go_datax_ray/__init__.py` registers it for ``s3://``/``s3a://`` only
when s3fs is unavailable (s3fs wins when installed).

Endpoint and credentials resolve the standard SDK way (env vars, config
files, instance roles); a non-AWS endpoint (MinIO, Ceph RGW, Alibaba
OSS S3-compat mode, a loopback test server) comes from the
``endpoint_url=`` storage option or ``AWS_ENDPOINT_URL``.

Semantics that matter to the lake (`state/fs.py` module docstring):
``put_if_absent`` (``If-None-Match``) fences each epoch's commit record
and ``put_if_match`` (``If-Match`` on the ETag the manifest was loaded
with) swaps the manifest, so a concurrent writer loses loudly instead of
last-writer-winning. Data files need no swap (content-addressed names).
A write that raises inside its ``with`` block publishes nothing: its
multipart upload is aborted and the final PUT is skipped.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any

from fsspec import AbstractFileSystem
from fsspec.spec import AbstractBufferedFile

_MIN_PART = 5 * 2**20  # S3 rejects multipart parts below 5 MiB (EntityTooSmall)
_PRECONDITION_CODES = ("PreconditionFailed", "412", "ConditionalRequestConflict")


class BotoS3FileSystem(AbstractFileSystem):
    """S3 over boto3: paths are ``bucket/key`` after protocol strip."""

    protocol = ("s3", "s3a")
    root_marker = ""

    def __init__(
        self,
        endpoint_url: str | None = None,
        region_name: str | None = None,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        import boto3

        self._client = boto3.client(
            "s3",
            endpoint_url=endpoint_url
            or os.environ.get("AWS_ENDPOINT_URL")
            or None,
            region_name=region_name or None,
        )

    # -- path helpers ------------------------------------------------------
    def _split(self, path: str) -> tuple[str, str]:
        path = self._strip_protocol(path).lstrip("/")
        bucket, _, key = path.partition("/")
        return bucket, key

    # -- listings ----------------------------------------------------------
    def ls(self, path: str, detail: bool = True, **kwargs: Any):
        bucket, key = self._split(path)
        prefix = key.rstrip("/") + "/" if key else ""
        out: list[dict] = []
        pages = self._client.get_paginator("list_objects_v2").paginate(
            Bucket=bucket, Prefix=prefix, Delimiter="/"
        )
        for page in pages:
            for cp in page.get("CommonPrefixes", ()):
                out.append(
                    {
                        "name": f"{bucket}/{cp['Prefix'].rstrip('/')}",
                        "size": 0,
                        "type": "directory",
                    }
                )
            for obj in page.get("Contents", ()):
                if obj["Key"] == prefix:  # zero-byte "directory marker"
                    continue
                out.append(
                    {
                        "name": f"{bucket}/{obj['Key']}",
                        "size": obj["Size"],
                        "type": "file",
                        "mtime": obj.get("LastModified"),
                    }
                )
        if not out and key:
            # not a prefix — a literal object, or nothing
            return [self.info(path)] if detail else [f"{bucket}/{key}"]
        return out if detail else sorted(o["name"] for o in out)

    def find(self, path: str, maxdepth=None, withdirs: bool = False,
             detail: bool = False, **kwargs: Any):
        """Every object under ``path``, as fsspec's ``find`` returns them
        (names sorted; ``{name: info}`` with ``detail``), from one
        paginated listing of the prefix without a delimiter instead of
        one listing per directory."""
        if maxdepth is not None or withdirs:
            return super().find(path, maxdepth=maxdepth, withdirs=withdirs,
                                detail=detail, **kwargs)
        bucket, key = self._split(path)
        prefix = key.rstrip("/") + "/" if key else ""
        out: dict[str, dict] = {}
        pages = self._client.get_paginator("list_objects_v2").paginate(
            Bucket=bucket, Prefix=prefix
        )
        for page in pages:
            for obj in page.get("Contents", ()):
                if obj["Key"].endswith("/"):  # zero-byte "directory marker"
                    continue
                name = f"{bucket}/{obj['Key']}"
                out[name] = {"name": name, "size": obj["Size"], "type": "file",
                             "mtime": obj.get("LastModified")}
        if not out and key:  # not a prefix: a literal object, or nothing
            with contextlib.suppress(FileNotFoundError):
                inf = self.info(path)
                if inf["type"] == "file":
                    out[inf["name"]] = inf
        names = sorted(out)
        return {n: out[n] for n in names} if detail else names

    def info(self, path: str, **kwargs: Any) -> dict:
        bucket, key = self._split(path)
        if not key:
            return {"name": bucket, "size": 0, "type": "directory"}
        try:
            h = self._client.head_object(Bucket=bucket, Key=key)
            return {
                "name": f"{bucket}/{key}",
                "size": h["ContentLength"],
                "type": "file",
                "mtime": h.get("LastModified"),
            }
        except self._client.exceptions.ClientError as e:
            if e.response.get("Error", {}).get("Code") not in ("404", "NoSuchKey"):
                raise
        r = self._client.list_objects_v2(
            Bucket=bucket, Prefix=key.rstrip("/") + "/", MaxKeys=1
        )
        if r.get("KeyCount", 0):
            return {"name": f"{bucket}/{key}", "size": 0, "type": "directory"}
        raise FileNotFoundError(path)

    # -- object ops ----------------------------------------------------------
    def rm_file(self, path: str) -> None:
        bucket, key = self._split(path)
        self._client.delete_object(Bucket=bucket, Key=key)

    _rm = rm_file

    def rm_files(self, paths: list[str]) -> list[str]:
        """Delete objects with one ``DeleteObjects`` per 1000 keys (the S3
        limit) instead of one DELETE each; returns the ``bucket/key``
        paths the store reports as not deleted."""
        objs: dict[str, list[dict]] = {}
        for p in paths:
            bucket, key = self._split(p)
            objs.setdefault(bucket, []).append({"Key": key})
        failed = []
        for bucket, keys in objs.items():
            for i in range(0, len(keys), 1000):
                r = self._client.delete_objects(
                    Bucket=bucket, Delete={"Objects": keys[i:i + 1000], "Quiet": True})
                failed += [f"{bucket}/{e['Key']}" for e in r.get("Errors", ())]
        return failed

    def cp_file(self, path1: str, path2: str, **kwargs: Any) -> None:
        b1, k1 = self._split(path1)
        b2, k2 = self._split(path2)
        self._client.copy_object(
            Bucket=b2, Key=k2, CopySource={"Bucket": b1, "Key": k1}
        )

    def cat_file(self, path: str, start=None, end=None, **kwargs: Any) -> bytes:
        bucket, key = self._split(path)
        rng: dict = {}
        if start is not None or end is not None:
            rng["Range"] = f"bytes={start or 0}-{'' if end is None else end - 1}"
        return self._client.get_object(Bucket=bucket, Key=key, **rng)["Body"].read()

    def pipe_file(self, path: str, value: bytes, **kwargs: Any) -> None:
        bucket, key = self._split(path)
        self._client.put_object(Bucket=bucket, Key=key, Body=value)

    def get_with_tag(self, path: str) -> tuple[bytes, str]:
        """Read an object and its ETag in ONE GET — the read half of the
        optimistic-concurrency manifest swap (no window between reading
        content and reading the tag)."""
        bucket, key = self._split(path)
        r = self._client.get_object(Bucket=bucket, Key=key)
        return r["Body"].read(), r["ETag"]

    def put_if_match(self, path: str, value: bytes, etag: str) -> str | bool:
        """Conditional replace (S3 ``If-Match``, public since 2024):
        atomically overwrite the object only if its current ETag still
        equals ``etag``. Returns the NEW ETag on success, False when the
        object moved underneath us (someone else swapped first)."""
        return self._put_conditional(path, value, IfMatch=etag)

    def put_if_absent(self, path: str, value: bytes) -> str | bool:
        """Conditional create (S3 ``If-None-Match: *``, public since 2024
        on AWS and supported by MinIO/Ceph/moto): atomically write the
        object only if the key does not exist. Returns the new object's
        ETag, from the PUT response itself, or False when another writer
        got there first. This is the store-native conditional write the
        lake's commit protocol uses to fence concurrent committers on
        object-store lakes (state/manifest.py)."""
        return self._put_conditional(path, value, IfNoneMatch="*")

    def _put_conditional(self, path: str, value: bytes, **cond: str) -> str | bool:
        """PUT ``value`` under the S3 condition ``cond``; the ETag on
        success, False when the condition fails.

        botocore retries a PUT whose response was lost, so a conditional
        PUT that already landed can come back as 412 against its own
        write. A 412 is therefore read back: an object whose body equals
        ``value`` is ours (or byte-identical to ours), and its ETag is
        returned."""
        bucket, key = self._split(path)
        try:
            return self._client.put_object(
                Bucket=bucket, Key=key, Body=value, **cond)["ETag"]
        except self._client.exceptions.ClientError as e:
            if e.response.get("Error", {}).get("Code") not in _PRECONDITION_CODES:
                raise
        try:
            body, tag = self.get_with_tag(path)
        except self._client.exceptions.NoSuchKey:
            return False
        return tag if body == value else False

    # -- directories: objects stores have none ------------------------------
    def mkdir(self, path: str, create_parents: bool = True, **kwargs: Any) -> None:
        pass

    def makedirs(self, path: str, exist_ok: bool = True) -> None:
        pass

    def rmdir(self, path: str) -> None:
        pass

    # -- open ---------------------------------------------------------------
    def _open(self, path: str, mode: str = "rb", block_size=None, **kwargs: Any):
        return BotoS3File(self, path, mode, block_size=max(block_size or 0, _MIN_PART))


class BotoS3File(AbstractBufferedFile):
    """Ranged GETs on read; single PUT below one block, multipart above.
    A write whose ``with`` block raises is discarded, not published."""

    def __exit__(self, exc_type, *args):
        if exc_type is not None and self.writable():
            self.discard()
        return super().__exit__(exc_type, *args)

    def discard(self) -> None:
        """Abort the multipart upload, if one started, and close without
        the final PUT."""
        if getattr(self, "_mpu", None) is not None:
            fs: BotoS3FileSystem = self.fs
            bucket, key = fs._split(self.path)
            fs._client.abort_multipart_upload(
                Bucket=bucket, Key=key, UploadId=self._mpu["UploadId"])
        self.closed = True

    def _fetch_range(self, start: int, end: int) -> bytes:
        if start >= end:
            return b""
        fs: BotoS3FileSystem = self.fs
        bucket, key = fs._split(self.path)
        r = fs._client.get_object(
            Bucket=bucket, Key=key, Range=f"bytes={start}-{end - 1}"
        )
        return r["Body"].read()

    def _initiate_upload(self) -> None:
        fs: BotoS3FileSystem = self.fs
        bucket, key = fs._split(self.path)
        if self.tell() < self.blocksize:
            self._mpu = None  # close() will single-shot PUT
            return
        self._mpu = fs._client.create_multipart_upload(Bucket=bucket, Key=key)
        self._parts: list[dict] = []

    def _upload_chunk(self, final: bool = False) -> bool:
        fs: BotoS3FileSystem = self.fs
        bucket, key = fs._split(self.path)
        data = self.buffer.getvalue()
        if self._mpu is None:
            fs._client.put_object(Bucket=bucket, Key=key, Body=data)
            return True
        if data or not self._parts:
            part = fs._client.upload_part(
                Bucket=bucket,
                Key=key,
                UploadId=self._mpu["UploadId"],
                PartNumber=len(self._parts) + 1,
                Body=data,
            )
            self._parts.append(
                {"ETag": part["ETag"], "PartNumber": len(self._parts) + 1}
            )
        if final:
            fs._client.complete_multipart_upload(
                Bucket=bucket,
                Key=key,
                UploadId=self._mpu["UploadId"],
                MultipartUpload={"Parts": self._parts},
            )
        return True
