"""The two workloads: ``bulk`` backfill and open-loop ``tail`` ingest,
each followed by checked reads of the lake it wrote. Each runs in one
driver process with a Ray session of ``os.cpu_count()`` CPUs.

Both report the same end-to-end metrics, each read the way a user of that
workload meets it:

- ``throughput_per_s``: WAL events committed per second. On bulk, of the
  fastest backfill trial. On tail, of the open-loop window up to the last
  commit: the rate held at the offered 2,000 events/s, which drops only
  when a backlog grows. The tailer's own speed shows in tail freshness (a cycle
  going from 0.75 s to 1.5 s raises p50 by ~40%); its capacity, events
  per second of summed cycle wall, is kept in the result file.
- ``latency_s_p50`` / ``latency_s_p90``: per event, commit time minus the
  start of the backfill (bulk) or minus the time the event was due
  (tail freshness). A backfill commits in 4 epochs, so its per-event
  figures take 4 values per trial: p50 is the second commit and p90 the
  last, i.e. the trial wall; each is the lowest over the trials. On bulk
  they move with throughput; the tail is where latency carries its own
  signal.
- ``io_amp``: bytes of delta and final files written per WAL byte applied.
  Delta bytes are the ``delta_bytes`` the replay reports per epoch;
  final bytes are stat'ed by the benchmark at commit.
- ``peak_rss_mb``: the driver plus the Ray processes it started, over
  the measured window.
- ``setup_s``: Ray start and the untimed warm-up: one backfill epoch
  (bulk), or the base-lake build and one cycle (tail). Input generation
  is excluded.
"""

from __future__ import annotations

import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from harness import (OpenLoopClock, Probe, RssSampler, epoch_breakdown, median,
                     percentile, self_times, time_limit)

NUM_PARTITIONS = 32
PAYLOAD_BYTES = 1024      # mean html page size
RG_EVENTS = 8192          # WAL rows per Parquet row group

# bulk: ~10 versions per url, backfilled into a fresh lake in 4 epochs
BULK_EVENTS = 100_000
BULK_URLS = 10_000
BULK_EPOCH = 25_000
BULK_SEG = 16_384
BULK_MIN_TRIALS = 3

# the kernel pass merges one more chunk of this many events, beyond the
# applied WAL, into the written lake: a bulk epoch, a tail segment
KERNEL_BULK = BULK_EPOCH

# tail: a base lake of 40k events over 20k urls, then the open loop
BASE_EVENTS = 40_000
BASE_URLS = 20_000
BASE_SEG = 16_384
TAIL_RATE = 2_000         # events/s offered by the open-loop generator
TAIL_SEG = 4_000          # events per WAL segment: one every 2 s, so a cycle (~0.7 s) has 2x headroom
ONE_EPOCH = 10**9         # epoch_size that applies everything due in one epoch

# reads of the written lake after the timed window: a traced run takes
# enough for the per-layer medians; an untraced run only checks a few,
# since the lake-wide oracle already checks every url
READ_LOOKUPS = 20
READ_SCANS = 3
CHECK_LOOKUPS = 6
CHECK_SCANS = 1
LOOKUP_MIX = (0.6, 0.2)   # share of live and deleted keys; rest never seen

OBJECT_STORE_BYTES = 256 * 1024 * 1024
# Ray puts sockets at <temp>/session_<time>_<pid>/sockets/plasma_store and
# refuses paths over 107 bytes; longer temp dirs fall back to Ray's default
RAY_TMP_MAX = 40


@dataclass
class Ctx:
    root: str             # checkout root (holds go_datax_ray)
    work: str             # scratch area inside the checkout
    seed: int
    seconds: float
    trace: bool
    deadline: float       # perf_counter() by which measuring must stop
    probe: Probe = field(default_factory=Probe)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def budget(self, cap: float) -> float:
        return max(1.0, min(cap, self.deadline - time.perf_counter()))

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")


# --------------------------------------------------------------------------
# inputs


def synth_cfg(seed: int, n_urls: int):
    from go_datax_ray.synth import SynthConfig

    return SynthConfig(seed=seed, n_urls=n_urls, n_domains=max(10, n_urls // 10),
                       payload_bytes=PAYLOAD_BYTES)


def wal_segments(ctx: Ctx, name: str, cfg, lo: int, hi: int, seg: int) -> list[str]:
    """WAL segment files for lsn [lo, hi), ``seg`` events each, generated
    with ``synth.gen_event_batch`` and cached by seed. Events carry raw
    html only; the engine derives text itself (``extract_text=True``)."""
    import pyarrow.parquet as pq

    from go_datax_ray.synth import EventGen, gen_event_batch

    cache = os.path.join(ctx.work, "cache")
    mine = f"seed-{ctx.seed}"
    if os.path.isdir(cache):
        for d in os.listdir(cache):  # keep one seed's inputs on disk
            if d != mine:
                shutil.rmtree(os.path.join(cache, d), ignore_errors=True)
    d = os.path.join(cache, mine, name)
    os.makedirs(d, exist_ok=True)
    pool = None
    files = []
    for s in range(lo, hi, seg):
        path = os.path.join(d, f"seg-{s:012d}.parquet")
        if not os.path.exists(path):
            if pool is None:
                pool = EventGen(cfg).url_pool
            t = gen_event_batch(np.arange(s, min(hi, s + seg)), cfg, pool)
            pq.write_table(t.drop_columns(["text"]), path + ".tmp", row_group_size=RG_EVENTS)
            os.replace(path + ".tmp", path)
        files.append(path)
    return files


def total_bytes(files: list[str]) -> int:
    return sum(os.path.getsize(f) for f in files)


# --------------------------------------------------------------------------
# Ray session


def start_ray(ctx: Ctx) -> None:
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import ray
    from ray.data import DataContext

    kw = {}
    tmp = os.path.join(ctx.work, "ray")
    if len(tmp) <= RAY_TMP_MAX:
        shutil.rmtree(tmp, ignore_errors=True)  # keep only this run's session
        os.makedirs(tmp)
        kw["_temp_dir"] = tmp
    ctx.details["ray_temp_dir"] = kw.get("_temp_dir", "ray default")
    # workers must import go_datax_ray whatever their cwd
    pypath = os.pathsep.join(p for p in (ctx.root, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             runtime_env={"env_vars": {"PYTHONPATH": pypath}}, **kw)
    DataContext.get_current().enable_progress_bars = False
    ctx.details["ray_num_cpus"] = ray.cluster_resources().get("CPU")


def stop_ray() -> None:
    import sys

    if "ray" in sys.modules:
        import ray

        if ray.is_initialized():
            ray.shutdown()


def replay_cfg(lake: str, epoch_size: int):
    from go_datax_ray.pipelines.cdc_replay import ReplayConfig

    return ReplayConfig(lake_dir=lake, num_partitions=NUM_PARTITIONS,
                        epoch_size=epoch_size, extract_text=True)


def replay_op(ctx: Ctx, files: list[str], hi: int, lake: str, epoch_size: int,
              cap: float) -> None:
    """One traced-or-not ``replay()`` call over WAL files with lsn [0, hi).
    Each commit the probe saw gets the ``delta_bytes`` that the replay
    reports for its epoch (None when the replay reports none)."""
    from go_datax_ray.pipelines.cdc_replay import ParquetWalSource, replay

    c0 = len(ctx.probe.commits)
    with time_limit(ctx.budget(cap)), ctx.probe.span("bench.replay"):
        res = replay(ParquetWalSource(files, 0, hi), replay_cfg(lake, epoch_size))
    commits = ctx.probe.commits[c0:]
    if [c["epoch"] for c in commits] != [st["epoch"] for st in res.epoch_stats]:
        raise RuntimeError(f"replay reported epochs {[st['epoch'] for st in res.epoch_stats]}, "
                           f"commits seen {[c['epoch'] for c in commits]}")
    for c, st in zip(commits, res.epoch_stats):
        c["delta_bytes"] = st.get("delta_bytes")


def check_lake(ctx: Ctx, wal: list[str], lake: str) -> None:
    """Oracle: the lake's committed state against the WAL (one check)."""
    import oracle
    from go_datax_ray.state.manifest import Manifest

    ctx.attempted += 1
    try:
        rep = oracle.check_lake(wal, Manifest.load(lake).committed_files())
    except Exception:  # noqa: BLE001 — recorded as a failed check
        ctx.fail("lake oracle")
        return
    ctx.details["lake_oracle"] = rep
    if not oracle.lake_ok(rep):
        ctx.failed += 1
        ctx.errors.append(f"lake oracle mismatch: {rep}")


# --------------------------------------------------------------------------
# shared reporting


def delta_bytes(commits: list[dict]) -> list[int] | None:
    """Per commit, the delta bytes its epoch wrote; None when an epoch
    that committed partition files reports none, since leaving it out
    would read as less I/O."""
    if any(c["final_files"] and c.get("delta_bytes") is None for c in commits):
        return None
    return [c.get("delta_bytes") or 0 for c in commits]


def write_amp(ctx: Ctx, commits: list[dict], wal_bytes: int) -> float | None:
    deltas = delta_bytes(commits)
    if deltas is None:
        ctx.errors.append("io_amp: an epoch that committed files reported no delta_bytes")
        return None
    return (sum(c["final_bytes"] for c in commits) + sum(deltas)) / wal_bytes


def check_delta_counts(ctx: Ctx) -> None:
    """Traced epochs: the delta bytes the replay reports must equal the
    bytes the benchmark counts under the delta write's directory."""
    by_seq = {c["seq"]: c for c in ctx.probe.commits}
    for d in ctx.probe.deltas:
        c = by_seq.get(d["seq"])
        if c is None:
            continue  # the epoch failed before its commit; counted there
        ctx.attempted += 1
        if c.get("delta_bytes") != d["bytes"]:
            ctx.failed += 1
            ctx.errors.append(f"epoch {c['epoch']}: replay reports delta_bytes "
                              f"{c.get('delta_bytes')}, delta dir holds {d['bytes']}")


def replay_layers(ctx: Ctx, kernels: dict[str, float]) -> dict[str, float | None]:
    """Per-layer metrics of the traced replay epochs (medians per epoch).
    A layer no traced epoch recorded is None, i.e. missing."""
    probe = ctx.probe
    check_delta_counts(ctx)
    rows = epoch_breakdown(probe.spans)

    def med(key):
        if not any(key in r for r in rows):
            return None
        return median([r.get(key, 0.0) for r in rows])

    commits = [c for c in probe.commits if c["traced"]]
    deltas = delta_bytes(commits)
    # every traced Manifest.load: one per replay() call and one per lookup
    loads = [s["end"] - s["start"] for s in probe.spans if s["name"] == "manifest.load"]
    out = {
        "cdc_replay.epoch_s": med("wall_s"),
        "cdc_replay.scan_s": med("cdc_replay.scan"),
        "cdc_replay.fragments": med("fragments"),
        "cdc_replay.prepare_write_s": med("cdc_replay.prepare_write"),
        "cdc_replay.merge_s": med("cdc_replay.merge"),
        "cdc_replay.other_s": med("other_s"),
        "manifest.commit_s": med("manifest.commit"),
        "manifest.load_s": median(loads),
        "cdc_replay.delta_bytes": median(deltas) if deltas is not None else None,
        "cdc_replay.delta_files": median([d["files"] for d in probe.deltas]),
        "fs.read_committed_bytes": median([c["read_committed_bytes"] for c in commits]),
        "fs.final_bytes_written": median([c["final_bytes"] for c in commits]),
        "fs.final_files_written": median([c["final_files"] for c in commits]),
    }
    out.update(kernels)
    return out


def manifest_bytes(lake: str) -> int:
    from go_datax_ray.state.manifest import MANIFEST_NAME

    return os.path.getsize(os.path.join(lake, MANIFEST_NAME))


def overhead_ratio(walls: list[tuple[bool, float]]) -> float:
    """Median traced operation wall over median untraced wall, minus 1."""
    on = median([w for t, w in walls if t])
    off = median([w for t, w in walls if not t])
    return on / off - 1.0 if on and off else None


def run_kernels(ctx: Ctx, wal: list[str], lo: int, hi: int, lake: str) -> dict[str, float]:
    """Kernel pass merging WAL lsn [lo, hi), which the lake has not
    applied, into the lake's committed files. It is a failed check when
    no new row wins, since text extraction would then time no work."""
    from kernels import kernel_pass

    ctx.attempted += 1
    try:
        out = kernel_pass(wal, lo, hi, lake, NUM_PARTITIONS, os.path.join(ctx.work, "kernels"))
    except Exception:  # noqa: BLE001 — its metrics are then missing
        ctx.fail("kernel pass")
        return {}
    ctx.details["kernel_new_winners"] = out.pop("new_winners")
    if not ctx.details["kernel_new_winners"]:
        ctx.failed += 1
        ctx.errors.append(f"kernel pass over lsn [{lo}, {hi}) selected no new winners")
    return out


# --------------------------------------------------------------------------
# bulk


def _bulk_trial(ctx: Ctx, wal: list[str], lake: str) -> dict | None:
    probe = ctx.probe
    shutil.rmtree(lake, ignore_errors=True)
    c0 = len(probe.commits)
    n_epochs = math.ceil(BULK_EVENTS / BULK_EPOCH)
    ctx.attempted += n_epochs
    t0 = time.perf_counter()
    try:
        replay_op(ctx, wal, BULK_EVENTS, lake, BULK_EPOCH, cap=90)
    except Exception:  # noqa: BLE001 — a failed or hung backfill is recorded
        ctx.fail("bulk trial", n_epochs - (len(probe.commits) - c0))
        return None
    wall = time.perf_counter() - t0
    commits = probe.commits[c0:]
    # per event: its epoch's commit time minus the backfill start
    lat = np.repeat([c["end"] - t0 for c in commits],
                    [c["lsn_hi"] - c["lsn_lo"] + 1 for c in commits])
    return {"wall_s": wall, "events_per_s": BULK_EVENTS / wall,
            "p50": percentile(lat, 0.5), "p90": percentile(lat, 0.9),
            "commits": commits, "traced": probe.tracing}


def run_bulk(ctx: Ctx) -> tuple[dict, dict]:
    cfg = synth_cfg(ctx.seed, BULK_URLS)
    wal = wal_segments(ctx, "bulk", cfg, 0, BULK_EVENTS, BULK_SEG)
    wal_bytes = total_bytes(wal)
    k_lo, k_hi = BULK_EVENTS, BULK_EVENTS + KERNEL_BULK
    k_wal = wal_segments(ctx, "bulk-next", cfg, k_lo, k_hi, BULK_SEG) if ctx.trace else []
    lake = os.path.join(ctx.work, "lake-bulk")

    t_setup = time.perf_counter()
    start_ray(ctx)
    ctx.details["ray_init_s"] = time.perf_counter() - t_setup
    ctx.probe.install(full=ctx.trace)
    # warm-up: the first replay in a session pays for worker start-up and
    # imports; one epoch starts a worker on every CPU. A whole backfill
    # as warm-up cost ~8 s more per run, and after one epoch the first
    # timed trial is no slower than the rest.
    shutil.rmtree(lake, ignore_errors=True)
    ctx.attempted += 1  # a failure here ends the run and is counted there
    replay_op(ctx, wal, BULK_EPOCH, lake, BULK_EPOCH, cap=90)
    setup_s = time.perf_counter() - t_setup

    sampler = RssSampler().start()
    trials = []
    t_end = time.perf_counter() + ctx.seconds
    i = 0
    while ((time.perf_counter() < t_end or len(trials) < BULK_MIN_TRIALS)
           and time.perf_counter() < ctx.deadline):
        ctx.probe.tracing = ctx.trace and i % 2 == 1
        tr = _bulk_trial(ctx, wal, lake)
        i += 1
        if tr is None:
            break
        trials.append(tr)
    ctx.probe.tracing = False
    peak = sampler.stop()
    check_lake(ctx, wal, lake)
    reads = read_phase(ctx, wal, lake)

    ctx.details["trials"] = [{k: v for k, v in t.items() if k != "commits"} for t in trials]
    plain = [t for t in trials if not t["traced"]]
    amp = [write_amp(ctx, t["commits"], wal_bytes) for t in plain]
    # Other tenants of a shared host only add time, and their load comes
    # in spells longer than a trial, so the median trial moves with the
    # host; the best trial is the figure least disturbed by it. Every
    # trial is in the result file.
    e2e = {
        "throughput_per_s": max((t["events_per_s"] for t in plain), default=None),
        "latency_s_p50": min((t["p50"] for t in plain), default=None),
        "latency_s_p90": min((t["p90"] for t in plain), default=None),
        "io_amp": None if None in amp else median(amp),
        "peak_rss_mb": peak / 2**20,
        "setup_s": setup_s,
    }
    layers = {}
    if ctx.trace:
        layers = replay_layers(ctx, run_kernels(ctx, k_wal, k_lo, k_hi, lake))
        layers["trace.overhead_ratio"] = overhead_ratio([(t["traced"], t["wall_s"]) for t in trials])
        layers["manifest.bytes"] = manifest_bytes(lake)
        layers.update(reads)
    return e2e, layers


# --------------------------------------------------------------------------
# tail


def run_tail(ctx: Ctx) -> tuple[dict, dict]:
    cfg = synth_cfg(ctx.seed, BASE_URLS)
    base = wal_segments(ctx, "base", cfg, 0, BASE_EVENTS, BASE_SEG)
    k_timed = max(2, int(ctx.seconds * TAIL_RATE / TAIL_SEG))
    # segment 0 is the warm-up cycle; segments 1..k_timed are timed
    tail_hi = BASE_EVENTS + (1 + k_timed) * TAIL_SEG
    tail = wal_segments(ctx, "tail", cfg, BASE_EVENTS, tail_hi, TAIL_SEG)
    k_wal = wal_segments(ctx, "tail-next", cfg, tail_hi, tail_hi + TAIL_SEG,
                         TAIL_SEG) if ctx.trace else []
    lake = os.path.join(ctx.work, "lake-tail")
    shutil.rmtree(lake, ignore_errors=True)
    probe = ctx.probe

    t_setup = time.perf_counter()
    start_ray(ctx)
    ctx.details["ray_init_s"] = time.perf_counter() - t_setup
    probe.install(full=ctx.trace)
    ctx.attempted += 2  # a failure here ends the run and is counted there
    replay_op(ctx, base, BASE_EVENTS, lake, ONE_EPOCH, cap=120)
    replay_op(ctx, base + tail[:1], BASE_EVENTS + TAIL_SEG, lake, ONE_EPOCH, cap=60)
    setup_s = time.perf_counter() - t_setup

    sampler = RssSampler().start()
    clock = OpenLoopClock(time.perf_counter(), TAIL_RATE, TAIL_SEG)
    fresh, cycles = [], []
    consumed = 0
    while consumed < k_timed:
        now = time.perf_counter()
        if now > ctx.deadline:
            ctx.failed += 1
            ctx.errors.append(f"tail: {k_timed - consumed} segments not applied by the deadline")
            break
        vis = clock.visible_count(now, k_timed)
        if vis == consumed:
            time.sleep(max(0.0, clock.visible_at(consumed) - now))
            continue
        probe.tracing = ctx.trace and len(cycles) % 2 == 1
        c0 = len(probe.commits)
        ctx.attempted += 1
        try:
            replay_op(ctx, base + tail[:1 + vis], BASE_EVENTS + (1 + vis) * TAIL_SEG,
                      lake, ONE_EPOCH, cap=60)
        except Exception:  # noqa: BLE001 — the lake state is unknown after this
            ctx.fail("tail cycle")
            break
        commit_t = probe.commits[-1]["end"]
        fresh.append(clock.freshness(consumed, vis - consumed, commit_t))
        cycles.append({"start_s": now - clock.t0, "wall_s": time.perf_counter() - now,
                       "segments": vis - consumed, "traced": probe.tracing,
                       "seg_bytes": total_bytes(tail[1 + consumed:1 + vis]),
                       "commits": probe.commits[c0:]})
        consumed = vis
    probe.tracing = False
    peak = sampler.stop()
    applied = base + tail[:1 + consumed]
    check_lake(ctx, applied, lake)
    reads = read_phase(ctx, applied, lake)

    fr = np.concatenate(fresh) if fresh else np.zeros(0)
    last_commit = probe.commits[-1]["end"] - clock.t0 if cycles else None
    plain = [c for c in cycles if not c["traced"]]
    busy_s = sum(c["wall_s"] for c in plain)
    ctx.details["tail"] = {
        "rate_ev_s": TAIL_RATE, "seg_events": TAIL_SEG, "segments": consumed,
        "events": int(fr.size), "max_segments_per_cycle": max((c["segments"] for c in cycles), default=0),
        "freshness_p95": percentile(fr, 0.95), "freshness_p99": percentile(fr, 0.99),
        # events applied per second spent in replay(): the tailer's capacity
        "capacity_ev_s": sum(c["segments"] for c in plain) * TAIL_SEG / busy_s if plain else None,
        "cycles": [{k: v for k, v in c.items() if k != "commits"} for c in cycles],
    }
    e2e = {
        "throughput_per_s": fr.size / last_commit if cycles else None,
        "latency_s_p50": percentile(fr, 0.5),
        "latency_s_p90": percentile(fr, 0.9),
        "io_amp": write_amp(ctx, [x for c in plain for x in c["commits"]],
                            sum(c["seg_bytes"] for c in plain)) if plain else None,
        "peak_rss_mb": peak / 2**20,
        "setup_s": setup_s,
    }
    layers = {}
    if ctx.trace:
        layers = replay_layers(ctx, run_kernels(ctx, k_wal, tail_hi, tail_hi + TAIL_SEG, lake))
        layers["trace.overhead_ratio"] = overhead_ratio([(c["traced"], c["wall_s"]) for c in cycles])
        layers["manifest.bytes"] = manifest_bytes(lake)
        layers.update(reads)
    return e2e, layers


# --------------------------------------------------------------------------
# reads of the written lake


def draw_keys(seed: int, expected: dict, n: int) -> list[str]:
    """Lookup keys by seed: live urls, deleted urls and never-seen urls."""
    rng = np.random.default_rng(seed)
    live = sorted(u for u, (_, op) in expected.items() if op != "D")
    dead = sorted(u for u, (_, op) in expected.items() if op == "D")
    out = []
    for u in rng.random(n):
        if u < LOOKUP_MIX[0] or not dead:
            out.append(live[rng.integers(len(live))])
        elif u < LOOKUP_MIX[0] + LOOKUP_MIX[1]:
            out.append(dead[rng.integers(len(dead))])
        else:
            out.append(f"https://never.example.org/p/{rng.integers(1 << 32):08x}")
    return out


def read_phase(ctx: Ctx, wal: list[str], lake: str) -> dict:
    """Point lookups ``read_lake(lake, keys=[k]).take_all()`` and full
    ``read_lake(lake).count()`` scans of the lake, each checked against
    the oracle; lookups alternate traced and untraced in a traced run.
    Only per-layer metrics come from here: single lookups are driver-CPU
    bound and their run-to-run spread on a shared host is wider than any
    end-to-end bound allows."""
    import oracle
    from go_datax_ray.sinks.lake import read_lake

    probe = ctx.probe
    expected = oracle.expected_state(wal)
    n_live = sum(1 for _, op in expected.values() if op != "D")
    l0 = len(probe.lookups)
    lat, traced = [], []
    n_lookups, n_scans = (READ_LOOKUPS, READ_SCANS) if ctx.trace else (CHECK_LOOKUPS, CHECK_SCANS)
    for i, key in enumerate(draw_keys(ctx.seed, expected, n_lookups)):
        probe.tracing = ctx.trace and i % 2 == 1
        ctx.attempted += 1
        t0 = time.perf_counter()
        try:
            with time_limit(ctx.budget(20)), probe.span("bench.lookup"):
                rows = read_lake(lake, keys=[key]).take_all()
        except Exception:  # noqa: BLE001 — a failed lookup is recorded
            ctx.fail(f"lookup {key}")
            continue
        lat.append(time.perf_counter() - t0)
        traced.append(probe.tracing)
        want = expected.get(key)
        if want is not None and want[1] != "D":
            ok = len(rows) == 1 and rows[0]["url"] == key and rows[0]["lsn"] == want[0]
        else:
            ok = not rows
        if not ok:
            ctx.failed += 1
            ctx.errors.append(f"lookup {key}: got {[(r['url'], r['lsn']) for r in rows]}, want {want}")
    probe.tracing = False
    rates = []
    for _ in range(n_scans):
        ctx.attempted += 1
        t0 = time.perf_counter()
        try:
            with time_limit(ctx.budget(60)):
                n = read_lake(lake).count()
        except Exception:  # noqa: BLE001
            ctx.fail("scan")
            continue
        rates.append(n / (time.perf_counter() - t0))
        if n != n_live:
            ctx.failed += 1
            ctx.errors.append(f"scan counted {n} rows, oracle has {n_live} live urls")
    ctx.details["reads"] = {"lookup_s": lat, "scan_rows_per_s": rates, "live_urls": n_live}
    if not ctx.trace:
        return {}
    spans = probe.spans
    selfs = self_times(spans)

    def med(name):
        return median([selfs[i] for i, s in enumerate(spans)
                       if s["name"] == name and spans[s["root"]]["name"] == "bench.lookup"])

    return {
        "lake.lookup_s": median([x for x, t in zip(lat, traced) if not t]),
        "lake.read_s": med("lake.read"),
        "lake.lookup_files": median([x["files"] for x in probe.lookups[l0:]]),
        "lake.scan_rows_per_s": median(rates),
    }


WORKLOADS = {"bulk": run_bulk, "tail": run_tail}
