"""Engine metrics: a named counter actor + go-datax-style speed reports.

Mirrors the reference's Communication counter map + MergeFrom
(/root/reference/common/statistics/communication_base.go:9-60) and its
delta-based byteSpeed/recordSpeed reports
(/root/reference/common/statistics/communication_tool.go:54-99) — the
counters live in one named Ray actor instead of per-goroutine structs,
and 'merge' is just the actor serialising increments.

Also implements the reference's error limiter
(/root/reference/common/statistics/error_limiter.go:24-113): abort when
error records exceed an absolute count or a fraction of total.
"""

from __future__ import annotations

import time
from collections import defaultdict

import ray


@ray.remote(num_cpus=0)
class MetricsActor:
    """Thread-safe (actor-serialised) counter map keyed by string."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.t0 = time.time()
        self._last_snap: tuple[float, dict[str, int]] | None = None

    def inc(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def snapshot(self) -> dict[str, int]:
        return dict(self.counters)

    def speed_report(self) -> dict[str, float]:
        """Delta counters / delta time since the previous call — the
        RECORD_SPEED / BYTE_SPEED semantics of the reference."""
        now = time.time()
        snap = dict(self.counters)
        if self._last_snap is None:
            prev_t, prev = self.t0, {}
        else:
            prev_t, prev = self._last_snap
        dt = max(now - prev_t, 1e-9)
        self._last_snap = (now, snap)
        return {k: (v - prev.get(k, 0)) / dt for k, v in snap.items()}


def get_metrics_actor(name: str = "gdr_metrics") -> "ray.actor.ActorHandle":
    """Get-or-create the named metrics actor for this Ray session."""
    return MetricsActor.options(
        name=name, get_if_exists=True, lifetime="detached"
    ).remote()


@ray.remote(num_cpus=0)
class DeadLetterActor:
    """Collects poison rows (serialized Arrow IPC) — the reference's
    per-row degraded retry path routed to a side table instead of a
    failed batch (/root/reference/plugins/writer/tdenginewriter/
    tdengine_writer.go:304-355 writeEachRow fallback)."""

    def __init__(self) -> None:
        self.batches: list[bytes] = []
        self.n = 0

    def append(self, ipc_bytes: bytes, n_rows: int) -> None:
        self.batches.append(ipc_bytes)
        self.n += n_rows

    def count(self) -> int:
        return self.n

    def drain(self) -> list[bytes]:
        out, self.batches = self.batches, []
        return out


def get_dead_letter_actor(name: str = "gdr_dead_letter"):
    return DeadLetterActor.options(name=name, get_if_exists=True).remote()


def table_to_ipc(t) -> bytes:
    import io

    import pyarrow as pa

    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue()


class ErrorLimitExceeded(RuntimeError):
    pass


def check_error_limit(
    total: int, errors: int, *, record_limit: int | None = None, percentage: float | None = None
) -> None:
    """errorLimit.record / errorLimit.percentage semantics
    (/root/reference/common/statistics/error_limiter.go:24-113)."""
    if record_limit is not None and errors > record_limit:
        raise ErrorLimitExceeded(f"error records {errors} > limit {record_limit}")
    if percentage is not None and total > 0 and errors / total > percentage:
        raise ErrorLimitExceeded(
            f"error rate {errors / total:.4f} > limit {percentage:.4f}"
        )


def format_job_stats(records: int, byts: int, wall_s: float, errors: int = 0) -> str:
    """Final job stats line in the reference's format
    (/root/reference/core/job/jobcontainer.go:322-338)."""
    rs = records / wall_s if wall_s > 0 else 0.0
    bs = byts / wall_s if wall_s > 0 else 0.0
    return (
        f"Total {records} records, {byts} bytes | "
        f"Speed {bs / 1024:.2f}KB/s, {rs:.0f} records/s | "
        f"Error {errors} records | "
        f"All Task WaitWriterTime 0.000s | All Task WaitReaderTime 0.000s | "
        f"Percentage 100.00%"
    )


def make_rate_limiter(record_rate: int | None, byte_rate: int | None):
    """Global token-bucket rate limiter for speed.record / speed.byte.

    The reference documents these knobs but never enforces them
    (/root/reference/docs/USER_GUIDE.md:136-150); here they are REAL: a
    detached-free actor tracks cumulative records/bytes across ALL
    parallel tasks, and each batch sleeps inside its map task until the
    cumulative rate falls under the cap — the sleep stalls the task,
    and Ray's streaming backpressure propagates the stall upstream to
    the reader (the reference's Channel-based flow control, inverted)."""
    import time as _time

    import ray as _ray

    @_ray.remote(num_cpus=0)
    class _RateLimiter:
        def __init__(self):
            self.t0 = _time.monotonic()
            self.records = 0
            self.bytes = 0

        def acquire(self, n_records: int, n_bytes: int) -> float:
            """Record a batch; return seconds the caller must sleep so the
            cumulative rate stays under the caps."""
            self.records += n_records
            self.bytes += n_bytes
            elapsed = _time.monotonic() - self.t0
            wait = 0.0
            if record_rate:
                wait = max(wait, self.records / record_rate - elapsed)
            if byte_rate:
                wait = max(wait, self.bytes / byte_rate - elapsed)
            return wait

    return _RateLimiter.remote()


def throttle_stage(limiter):
    """map_batches fn: charge the batch to the global limiter and sleep
    off any overage (pass-through otherwise)."""
    import time as _time

    import pyarrow as _pa

    import ray as _ray

    def throttle(t: _pa.Table) -> _pa.Table:
        wait = _ray.get(limiter.acquire.remote(t.num_rows, t.nbytes))
        if wait > 0:
            _time.sleep(min(wait, 30.0))
        return t

    return throttle
