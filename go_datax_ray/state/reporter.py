"""Background speed reporter: the reference's scheduler reporter loop.

Mirrors /root/reference/common/statistics/communicator.go:177-258 — a
ticker samples counters every sleepInterval and logs delta-based
byteSpeed/recordSpeed every reportInterval
(/root/reference/core/job/jobcontainer.go:117-121 defaults 10s/30s) —
as a daemon thread polling the MetricsActor and emitting
events/sec-per-partition lines (the BASELINE-required format). The CDC
replay does not feed the actor: its speeds are in
``ReplayResult.epoch_stats`` and in each commit record's per-partition
``events`` (``lake_cli lineage``)."""

from __future__ import annotations

import threading
import time
from typing import Callable

import ray


class SpeedReporter:
    """Poll the metrics actor on an interval; emit per-partition speed
    lines via ``emit`` (default print). Use as a context manager around
    a job whose stages increment the actor's ``partition/<p>/events``
    counters."""

    def __init__(self, metrics_actor, *, report_interval_s: float = 30.0,
                 emit: Callable[[str], None] = print):
        self.metrics = metrics_actor
        self.interval = report_interval_s
        self.emit = emit
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.reports: list[dict[str, float]] = []

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._report_once()

    def _report_once(self) -> None:
        try:
            speeds = ray.get(self.metrics.speed_report.remote())
        except Exception:  # noqa: BLE001 — actor may be gone at shutdown
            return
        parts = {
            k.split("/")[1]: v for k, v in speeds.items()
            if k.startswith("partition/") and k.endswith("/events")
        }
        self.reports.append(speeds)
        if parts:
            line = " | ".join(
                f"partition {p}: {v:.0f} events/s"
                for p, v in sorted(parts.items(), key=lambda kv: int(kv[0]))
            )
            self.emit(f"[speed] {line}")

    def __enter__(self) -> "SpeedReporter":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._report_once()  # final report (jobcontainer.go:307-351)
