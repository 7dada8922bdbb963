"""Key-hash partitioning and shuffle-size helpers.

Generalises the reference's hash split — task i reads rows where
``CRC32(pk) % N == i`` (/root/reference/plugins/reader/mysqlreader/
mysql_reader.go:432-444) — into the engine's partitioner:
``part_id = crc32(url) % P`` (or ``md5_lower64(url) % P``, DuckDB-checkable
via ``md5_number_lower(url) % P``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import partition_ids


def add_part_id(batch: pa.Table, *, key: str = "url", num_partitions: int = 64,
                hash_fn: str = "crc32") -> pa.Table:
    """Vectorised stage: append part_id = hash(key) % P (crc32 default)."""
    pid = partition_ids(batch.column(key), num_partitions, hash_fn)
    return batch.append_column("part_id", pa.array(pid, pa.int64()))


def partition_events(ds, *, key: str = "url", num_partitions: int = 64,
                     hash_fn: str = "crc32"):
    """Dataset stage: tag every event with its lake partition."""
    return ds.map_batches(
        add_part_id,
        fn_kwargs={"key": key, "num_partitions": num_partitions, "hash_fn": hash_fn},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def shuffle_blocks(requested: int | None = None) -> int:
    """Bound the block count feeding a sort shuffle: Ray's sort shuffle
    materialises O(blocks x reducers) object refs on the driver (reducers
    = input blocks), so unbounded map-stage block counts quadratically
    blow up driver heap. Default: 2 blocks per CPU, floor 64 — sized so
    reducers track cluster parallelism, not upstream file count."""
    if requested is not None:
        return requested
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 32))
    except Exception:  # noqa: BLE001 — not initialised yet
        cpus = 32
    return max(64, cpus * 2)


def read_blocks(files: int = 1) -> int:
    """Block count for ``read_parquet(override_num_blocks=...)`` on
    small-file inputs: the sf test tables are ONE parquet file, which
    Ray reads as ONE block — serialising every map stage upstream of
    the first shuffle. One block per CPU restores map parallelism; at
    real scale (many files / row groups) the natural block count is
    already >= cpus, so the override is a no-op floor, never a cap."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 32))
    except Exception:  # noqa: BLE001
        cpus = 32
    return max(8, cpus, files)


def maybe_repartition(ds, bound: int | None = None, *,
                      rows_per_block: int = 16384):
    """Bound the block count feeding a sort shuffle, cheaply.

    The sort shuffle materialises O(blocks x reducers) object refs on
    the driver (reducers follow input blocks), and map operators emit
    roughly one block per output batch — a 400k-row map stage produced
    320 actual blocks while the PLAN's estimate said 5 (the estimate
    only sees the read stage), so estimate-gated skipping alone let a
    320x320-ref shuffle through (round-3 regression: 1.5 GB driver RSS
    on the dedup soak).

    Two layers, both cheap:
    1. ALWAYS streaming-coalesce to ~rows_per_block rows per block —
       Ray's StreamingRepartition is a task-pool operator (no
       all-to-all barrier, no fusion batch-size interaction), so actual
       blocks become ~rows/rows_per_block regardless of upstream batch
       granularity.
    2. The full repartition(bound) all-to-all only when the PLAN
       estimate exceeds the bound — i.e. the input is structurally
       large (many files/fragments), where blocks^2 would overwhelm the
       driver even after coalescing."""
    bound = shuffle_blocks(bound)
    try:
        nb = ds._plan.initial_num_blocks()
    except Exception:  # noqa: BLE001
        nb = None
    ds = ds.repartition(target_num_rows_per_block=rows_per_block)
    if nb is not None and 0 < nb <= bound:
        return ds
    return ds.repartition(bound)


def bounded_groupby(ds, keys):
    """groupby with the sort-shuffle fan-out bounded (see shuffle_blocks)."""
    return maybe_repartition(ds).groupby(keys)


def _cohash_raw(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Combined uint64 hash of the key columns (splitmix64 mixing) —
    the full-width identity hash behind _cohash; also used for hot-key
    membership tests (a collision only mis-places a cold key, never
    changes join/group results)."""
    from ..hashing import crc32_array, splitmix64

    acc = np.zeros(t.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = t.column(k)
            if pa.types.is_integer(col.type) or pa.types.is_timestamp(col.type):
                v = col.cast(pa.int64()).combine_chunks().to_numpy(
                    zero_copy_only=False
                ).view(np.uint64)
            else:
                v = crc32_array(col)
            acc = splitmix64(acc * np.uint64(0x9E3779B97F4A7C15) + v)
    return acc


def _cohash(t: pa.Table, keys: list[str], n_groups: int) -> np.ndarray:
    """Combined hash of the key columns, mod n_groups (uint64 mixing)."""
    return (_cohash_raw(t, keys) % np.uint64(n_groups)).astype(np.int64)


def cohash_map_groups(ds, keys: list[str], fn, *, n_groups: int | None = None):
    """Per-group map WITHOUT per-group call overhead.

    ``groupby(keys).map_groups(fn)`` makes one Python call per DISTINCT
    key — on high-cardinality keys (LSH buckets, content hashes) that is
    10^4-10^6 calls of ~100 us each, and it dominated the round-2
    minhash/exact-dedup wall time. Here rows are co-hashed into
    ``n_groups`` (~shuffle_blocks) coarse buckets — every row of one
    logical key still lands in ONE bucket — and ``fn`` is called once
    per coarse bucket with MANY logical groups inside. ``fn`` must
    segment internally (sort by the key columns + np.unique/lexsort
    boundaries — see dedup._segments for the canonical pattern)."""
    n_groups = shuffle_blocks(n_groups)

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_ck", pa.array(_cohash(t, keys, n_groups), pa.int64()))

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)

    def call(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns(["_ck"]))

    return maybe_repartition(tagged).groupby("_ck").map_groups(
        call, batch_format="pyarrow"
    )


def actor_pool(min_actors: int = 1) -> tuple[int, int]:
    """Autoscaling actor-pool bounds for stateful map_batches stages:
    ceiling tracks the cluster (cpus-2, floor 8) instead of a hardcoded
    8, so per-doc stages don't cap at a quarter of a 32-cpu box; the
    pool only grows when the backlog demands it, so a high ceiling is
    free for small inputs."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 32))
    except Exception:  # noqa: BLE001
        cpus = 32
    return (min_actors, max(8, cpus - 2))
