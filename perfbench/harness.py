"""Measurement helpers shared by the workloads: percentiles, the open-loop
clock, the /proc memory sampler, process-tree cleanup and the driver-side
tracing probe.

Nothing here imports Ray or the lake package at module load, so the
self-tests run without either.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from contextlib import contextmanager

# A percentile is reported only when at least this many samples lie
# beyond it (choosing-metrics rule: p90 needs >= 100 samples).
MIN_BEYOND = 10


def percentile(values, q: float):
    """Nearest-rank percentile of ``values`` at fraction ``q`` (0 < q < 1).

    Returns None when fewer than MIN_BEYOND samples lie strictly beyond
    the chosen rank, i.e. when the sample cannot support the percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    if n - rank < MIN_BEYOND and q > 0.5:
        return None
    return xs[rank - 1]


def median(values):
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


# --------------------------------------------------------------------------
# open-loop clock


class OpenLoopClock:
    """Events are emitted at a fixed ``rate`` (events/s) from ``t0``; the
    WAL is flushed in segments of ``seg_events`` events, and a segment
    becomes visible when its last event is due (a segment flush).

    Event ``j`` (0-based, counted from the first timed event) is due at
    ``t0 + (j + 1) / rate``; its freshness is the commit time of the
    cycle that applied it minus that due time."""

    def __init__(self, t0: float, rate: float, seg_events: int):
        self.t0 = t0
        self.rate = float(rate)
        self.seg_events = int(seg_events)

    def visible_at(self, k: int) -> float:
        """Time segment ``k`` becomes visible."""
        return self.t0 + (k + 1) * self.seg_events / self.rate

    def visible_count(self, now: float, limit: int) -> int:
        """Segments visible at ``now`` (capped at ``limit``)."""
        k = math.floor((now - self.t0) * self.rate / self.seg_events + 1e-9)
        return max(0, min(limit, k))

    def freshness(self, first_seg: int, n_segs: int, commit_t: float):
        """Freshness (s) of every event in segments [first_seg,
        first_seg + n_segs) committed at ``commit_t``, as a numpy array."""
        import numpy as np

        j = np.arange(first_seg * self.seg_events,
                      (first_seg + n_segs) * self.seg_events, dtype=np.float64)
        return commit_t - (self.t0 + (j + 1) / self.rate)


# --------------------------------------------------------------------------
# /proc process tree: memory sampling and cleanup


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # comm may hold spaces/parens: ppid is the 2nd field after the last ')'
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(root: int) -> list[int]:
    """Pids of every live descendant of ``root`` (not ``root`` itself)."""
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def rss_bytes(pid: int) -> int:
    """Resident set size of one process from /proc/<pid>/status (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class RssSampler:
    """Background sampler of the summed RSS of a process and all its
    descendants (the driver plus the Ray processes it started). psutil is
    not available, so it reads /proc. The process tree is re-walked every
    ``tree_every`` samples; RSS is read every ``interval`` seconds."""

    def __init__(self, root: int | None = None, interval: float = 0.2,
                 tree_every: int = 5):
        self.root = root if root is not None else os.getpid()
        self.interval = interval
        self.tree_every = tree_every
        self.peak = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self, pids: list[int]) -> int:
        total = sum(rss_bytes(p) for p in [self.root, *pids])
        self.peak = max(self.peak, total)
        self.samples += 1
        return total

    def _run(self) -> None:
        pids: list[int] = []
        i = 0
        while not self._stop.is_set():
            if i % self.tree_every == 0:
                pids = descendants(self.root)
            self.sample(pids)
            i += 1
            self._stop.wait(self.interval)

    def start(self) -> "RssSampler":
        self.peak = 0
        self.samples = 0
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> int:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        return self.peak


# Every process a run starts carries this variable in its environment, so
# one that has left the process tree is still found, also where the
# subreaper below cannot be set.
RUN_TAG_VAR = "PERFBENCH_RUN_TAG"
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> str:
    """Make this process the reaper of its orphaned descendants and tag
    its environment; returns the tag. When a raylet exits before its
    workers, the workers are then re-parented here, not to init, so
    ``kill_tree`` still sees and waits for them."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # the environment tag below still finds them
    tag = f"{os.getpid()}-{time.time_ns()}"
    os.environ[RUN_TAG_VAR] = tag
    return tag


def _lineage() -> set[int]:
    """This process and its ancestors."""
    out, pid = set(), os.getpid()
    while pid > 1 and pid not in out:
        out.add(pid)
        try:
            with open(f"/proc/{pid}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            break
        pid = int(stat[stat.rindex(b")") + 2:].split()[1])
    return out


def tagged(tag: str) -> list[int]:
    """Pids of live processes whose environment carries
    ``RUN_TAG_VAR=tag``, other than this process and its ancestors (the
    supervisor of a run carries the tag too)."""
    needle = f"{RUN_TAG_VAR}={tag}".encode()
    mine, out = _lineage(), []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) in mine:
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read().split(b"\0")
        except OSError:
            continue
        if needle in env and _alive(int(name)):
            out.append(int(name))
    return out


def run_processes(root: int | None = None) -> list[int]:
    """Live processes this run started: descendants of ``root`` plus
    every process carrying this run's tag."""
    root = root if root is not None else os.getpid()
    pids = {p for p in descendants(root) if _alive(p)}
    tag = os.environ.get(RUN_TAG_VAR)
    if tag:
        pids.update(tagged(tag))
    return sorted(pids)


def kill_tree(root: int | None = None, grace_s: float = 10.0) -> int:
    """Wait for every process this run started to end, SIGKILLing
    whatever is still alive after ``grace_s``. Returns how many had to
    be killed."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        _reap()
        if not run_processes(root):
            return 0
        time.sleep(0.2)
    killed: set[int] = set()
    deadline = time.monotonic() + 10
    while True:  # again each pass: a dying parent may have forked
        _reap()
        live = run_processes(root)
        if not live or time.monotonic() > deadline:
            return len(killed)
        for p in live:
            try:
                os.kill(p, signal.SIGKILL)
                killed.add(p)
            except OSError:
                pass
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    """True unless the process is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:][:1] != b"Z"


def _reap() -> None:
    """Collect exited direct children so they do not linger as zombies."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


# --------------------------------------------------------------------------
# per-operation timeout


class OpTimeout(Exception):
    """An operation ran past its wall-clock allowance."""


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread if the block runs longer than
    ``seconds``. Ray's blocking waits check for signals, so a hung replay
    or read is interrupted rather than waited on forever."""

    def _fire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# --------------------------------------------------------------------------
# driver-side probe: byte counting (always) and spans (when tracing)


def dir_bytes(path: str) -> tuple[int, int]:
    """(files, bytes) of the regular files under ``path``."""
    files = total = 0
    for root, _dirs, names in os.walk(path):
        for n in names:
            try:
                total += os.path.getsize(os.path.join(root, n))
                files += 1
            except OSError:
                pass
    return files, total


def file_bytes(path: str | None) -> int:
    try:
        return os.path.getsize(path) if path else 0
    except OSError:
        return 0


class Probe:
    """Wraps the driver-side calls that ``replay()`` and ``read_lake()``
    make. Every wrapper calls straight through.

    Untraced runs install only the ``Manifest.commit_epoch`` wrapper: it
    stats the epoch's final partition files before the commit deletes
    the files they supersede (one stat per touched partition), which
    write amplification needs. Traced runs install every wrapper; spans,
    delta file counts and committed-file bytes are recorded only while
    ``tracing`` is true, so traced and untraced operations can alternate
    within one run.

    A span is a dict: name, start, end, parent (index into ``spans`` or
    -1), epoch (sequence number of the commit it belongs to) and root
    (index of the enclosing operation span)."""

    def __init__(self):
        self.tracing = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.epoch_seq = 0
        self.commits: list[dict] = []   # one per commit_epoch call
        self.deltas: list[dict] = []    # one per traced delta write_parquet call
        self.lookups: list[dict] = []   # one per traced files_for_keys call
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields the span dict (None when
        not tracing) so the caller can attach counts to it."""
        if not self.tracing:
            yield None
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else -1,
               "epoch": self.epoch_seq,
               "root": self._stack[0] if self._stack else len(self.spans)}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def current_root(self) -> str | None:
        return self.spans[self._stack[0]]["name"] if self._stack else None

    # -- wrappers ----------------------------------------------------------
    def install(self, full: bool) -> None:
        """Install the commit wrapper, and with ``full`` every other one."""
        import ray.data

        from go_datax_ray.pipelines.cdc_replay import ParquetWalSource
        from go_datax_ray.state.manifest import Manifest, final_path

        probe = self
        Dataset = ray.data.Dataset

        orig_fragments = ParquetWalSource.fragments
        orig_write = Dataset.write_parquet
        orig_take_all = Dataset.take_all
        orig_commit = Manifest.commit_epoch
        orig_load = Manifest.load.__func__
        orig_ffk = Manifest.files_for_keys

        def fragments(self, lo, hi):
            with probe.span("cdc_replay.scan") as rec:
                out = orig_fragments(self, lo, hi)
            if rec is not None:
                rec["fragments"] = len(out)
            return out

        def write_parquet(self, path, *args, **kwargs):
            with probe.span("cdc_replay.prepare_write"):
                out = orig_write(self, path, *args, **kwargs)
            if probe.tracing:
                with probe.span("bench.count"):
                    files, nbytes = dir_bytes(path)
                probe.deltas.append({"seq": probe.epoch_seq, "files": files, "bytes": nbytes})
            return out

        def take_all(self, *args, **kwargs):
            root = probe.current_root()
            name = "lake.read" if root in ("bench.lookup", "bench.scan") else "cdc_replay.merge"
            with probe.span(name):
                return orig_take_all(self, *args, **kwargs)

        def commit_epoch(self, epoch, lsn_lo, lsn_hi, entries, *args, **kwargs):
            with probe.span("bench.count"):
                final = [final_path(self.lake_dir, int(e["pid"]), epoch) for e in entries]
                final_bytes = sum(file_bytes(p) for p in final)
                prev_bytes = (sum(file_bytes(self.partition_file(int(e["pid"])))
                                  for e in entries) if probe.tracing else None)
            with probe.span("manifest.commit"):
                out = orig_commit(self, epoch, lsn_lo, lsn_hi, entries, *args, **kwargs)
            probe.commits.append({
                "seq": probe.epoch_seq, "epoch": epoch, "lsn_lo": lsn_lo,
                "lsn_hi": lsn_hi, "end": time.perf_counter(),
                "final_files": len(final), "final_bytes": final_bytes,
                "read_committed_bytes": prev_bytes, "traced": probe.tracing,
            })
            probe.epoch_seq += 1
            return out

        def load(cls, lake_dir):
            with probe.span("manifest.load"):
                return orig_load(cls, lake_dir)

        def files_for_keys(self, keys):
            with probe.span("lake.files_for_keys"):
                files = orig_ffk(self, keys)
            if probe.tracing:
                probe.lookups.append({"files": len(files)})
            return files

        self._saved = [(Manifest, "commit_epoch", orig_commit)]
        Manifest.commit_epoch = commit_epoch
        if not full:
            return
        self._saved += [
            (ParquetWalSource, "fragments", orig_fragments),
            (Dataset, "write_parquet", orig_write),
            (Dataset, "take_all", orig_take_all),
            (Manifest, "load", classmethod(orig_load)),
            (Manifest, "files_for_keys", orig_ffk),
        ]
        ParquetWalSource.fragments = fragments
        Dataset.write_parquet = write_parquet
        Dataset.take_all = take_all
        Manifest.load = classmethod(load)
        Manifest.files_for_keys = files_for_keys

    def uninstall(self) -> None:
        for owner, name, orig in self._saved:
            setattr(owner, name, orig)
        self._saved = []


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[i] for i, s in enumerate(spans)]


def epoch_breakdown(spans: list[dict]) -> list[dict]:
    """Split every traced ``bench.replay`` operation into epochs.

    An epoch runs from the end of the previous commit (or the start of the
    replay call) to the end of its own commit; the last epoch of a call
    runs to the call's end. ``other_s`` is the epoch wall not covered by
    a direct child span of the operation, so the child spans plus
    ``other_s`` account for each epoch's wall exactly."""
    out = []
    for ri, root in enumerate(spans):
        if root["name"] != "bench.replay" or root["parent"] != -1:
            continue
        kids = [s for s in spans if s["parent"] == ri]
        commits = [s for s in kids if s["name"] == "manifest.commit"]
        start = root["start"]
        for n, c in enumerate(commits):
            last = n == len(commits) - 1
            end = root["end"] if last else c["end"]
            mine = [s for s in kids
                    if s["epoch"] == c["epoch"] or (last and s["epoch"] > c["epoch"])]
            row = {"epoch_seq": c["epoch"], "wall_s": end - start}
            for s in mine:
                row[s["name"]] = row.get(s["name"], 0.0) + (s["end"] - s["start"])
                if "fragments" in s:
                    row["fragments"] = row.get("fragments", 0) + s["fragments"]
            row["other_s"] = row["wall_s"] - sum(s["end"] - s["start"] for s in mine)
            out.append(row)
            start = end
    return out
