"""Multi-epoch lake soak (VERDICT r3 #10): interleaves replay,
delete_where, compaction, time-travel reads, history/orphan GC and
lineage reconciliation against an exact driver-side LWW oracle — the
interaction surface a 100x-scale lake lives under (continuous ingest
with concurrent maintenance).

Round-5 addition (VERDICT r4 #10): the second half of the soak replays
V2-SCHEMA epochs (additive fetch_status column), so schema evolution x
views x delete_where x compaction x time-travel interact under load —
the evolved column must appear on new winners, stay null on old rows,
match the oracle value per live url, and survive compaction; pre-v2
as-of views must stay byte-stable.

One maintained view (``by_lang``: rows and lsn sum per lang) rides the
even cycles' replays and delete_where, as a deployment's views would;
the odd cycles replay without it, as a writer that omits a view does,
so the view must stay exact through partitions that carry no state.

Invariants checked every cycle:
- final state == python LWW oracle (url, lsn, op; delete_where flips
  matching winners, compaction forgets dead tombstones entirely)
- the view == a recompute from the final state after every replay,
  delete_where and compaction, and at a retained epoch after gc_history
- compaction NEVER changes final state
- every retained epoch's as-of view reproduces the digest recorded the
  moment it committed (time travel is stable under later maintenance)
- lineage() is gap-free after every commit
- gc_history keeps retained views readable, expires older ones loudly
- gc_orphans removes exactly the planted uncommitted debris

Usage: python scripts/lake_soak.py [cycles] [events_per_cycle]
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa


def _digest(table: pa.Table) -> str:
    """Order-insensitive digest of (url, lsn, op) final-state rows."""
    import hashlib

    rows = sorted(zip(
        table.column("url").to_pylist(),
        table.column("lsn").to_pylist(),
        table.column("op").to_pylist() if "op" in table.column_names
        else ["?"] * table.num_rows,
    ))
    return hashlib.md5(json.dumps(rows).encode()).hexdigest()


def _final(lake: str) -> pa.Table:
    from go_datax_ray.sinks.lake import read_lake_table

    t = read_lake_table(lake)  # final_state=True: tombstones filtered
    return t.select(["url", "lsn"]).append_column(
        "op", pa.array(["L"] * t.num_rows, pa.string())
    )


def _asof(lake: str, epoch: int) -> pa.Table:
    from go_datax_ray.sinks.lake import read_lake

    t = pa.Table.from_pylist(
        read_lake(lake, asof_epoch=epoch, columns=["url", "lsn"]).take_all()
    )
    if t.num_rows == 0:
        t = pa.table({"url": pa.array([], pa.string()),
                      "lsn": pa.array([], pa.int64())})
    return t.append_column("op", pa.array(["L"] * t.num_rows, pa.string()))


def run_soak(lake: str, *, cycles: int = 4, events_per_cycle: int = 3000,
             n_urls: int = 400, num_partitions: int = 8, seed: int = 7) -> dict:
    from go_datax_ray.pipelines.cdc_replay import (
        ReplayConfig,
        SynthEventSource,
        replay,
    )
    from go_datax_ray.sinks.lake import (
        compact, delete_where, gc_history, gc_orphans, read_lake, read_lake_table)
    from go_datax_ray.sinks.views import ViewSpec, read_view
    from go_datax_ray.state.manifest import Manifest
    from go_datax_ray.synth import EventGen, SynthConfig

    scfg = SynthConfig(seed=seed, n_urls=n_urls, ts_range_s=600)
    # v2 = the additive-column schema evolution variant: same events per
    # id, plus fetch_status (synth.py); kicks in at the soak's midpoint
    scfg_v2 = SynthConfig(seed=seed, n_urls=n_urls, ts_range_s=600, v2=True)
    evolve_at = cycles // 2
    views = (ViewSpec(name="by_lang", group_cols=("lang",), sum_cols=("lsn",)),)
    cfg = ReplayConfig(
        lake_dir=lake, num_partitions=num_partitions,
        epoch_size=max(events_per_cycle // 2, 1), retain_history=True, views=views,
    )
    cfg_without_views = dataclasses.replace(cfg, views=())
    gen = EventGen(scfg)
    gen_v2 = EventGen(scfg_v2)

    # -- exact driver-side oracle: url -> (warc_ts, lsn, op, lang, fs) ---
    oracle: dict[str, tuple[int, int, str, str, int | None]] = {}

    def apply_events(lo: int, hi: int, *, v2: bool = False) -> None:
        g = gen_v2 if v2 else gen
        ev = g(pa.table({"id": pa.array(np.arange(lo, hi, dtype=np.int64))}))
        fs_col = (ev.column("fetch_status").to_pylist()
                  if "fetch_status" in ev.column_names else [None] * ev.num_rows)
        for url, ts, lsn, op, lang, fs in zip(
            ev.column("url").to_pylist(),
            ev.column("warc_ts").to_pylist(),
            ev.column("lsn").to_pylist(),
            ev.column("op").to_pylist(),
            ev.column("lang").to_pylist(),
            fs_col,
        ):
            ts_us = int(ts.timestamp() * 1_000_000) if hasattr(ts, "timestamp") else int(ts)
            cur = oracle.get(url)
            if cur is None or (ts_us, lsn) > (cur[0], cur[1]):
                oracle[url] = (ts_us, lsn, op, lang, fs)

    def oracle_final() -> list[tuple[str, int, str]]:
        return sorted((u, v[1], "L") for u, v in oracle.items() if v[2] != "D")

    def oracle_digest() -> str:
        import hashlib

        return hashlib.md5(json.dumps(oracle_final()).encode()).hexdigest()

    stats = {"cycles": 0, "deletes": 0, "compactions": 0,
             "tombstones_dropped": 0, "asof_checks": 0,
             "evolution_checks": 0, "view_checks": 0}

    def check_view(where: str, asof_epoch: int | None = None) -> None:
        """The maintained view equals a group-by over the final state
        (as of ``asof_epoch``)."""
        t = (read_lake_table(lake) if asof_epoch is None else
             pa.Table.from_pylist(read_lake(lake, asof_epoch=asof_epoch,
                                            columns=["lang", "lsn"]).take_all()))
        t = t.group_by(["lang"]).aggregate([("lsn", "sum"), ([], "count_all")])
        want = {r["lang"]: (r["count_all"], r["lsn_sum"]) for r in t.to_pylist()}
        got = {r["lang"]: (r["n"], r["sum_lsn"])
               for r in read_view(lake, views[0], asof_epoch=asof_epoch).to_pylist()}
        assert got == want, f"{where}: view != recompute"
        stats["view_checks"] += 1

    def check_evolution(where: str) -> None:
        """Evolved-column invariants: present, null on pre-v2 winners,
        oracle-exact on live urls."""
        t = read_lake_table(lake)
        assert "fetch_status" in t.column_names, f"{where}: fetch_status missing"
        got = dict(zip(t.column("url").to_pylist(),
                       t.column("fetch_status").to_pylist()))
        for u, (_ts, _lsn, op, _lang, fs) in oracle.items():
            if op != "D":
                assert got.get(u) == fs, \
                    f"{where}: fetch_status[{u}] = {got.get(u)} != oracle {fs}"
        stats["evolution_checks"] += 1
    snapshots: dict[int, str] = {}  # epoch -> final-state digest
    total = 0
    t0 = time.perf_counter()

    for c in range(cycles):
        v2 = c >= evolve_at
        lo, total = total, total + events_per_cycle
        replay(SynthEventSource(total, scfg_v2 if v2 else scfg),
               cfg if c % 2 == 0 else cfg_without_views)
        apply_events(lo, total, v2=v2)
        man = Manifest.load(lake)
        got = _digest(_final(lake))
        assert got == oracle_digest(), f"cycle {c}: replay final != oracle"
        check_view(f"cycle {c} post-replay")
        snapshots[man.epoch] = got

        if v2:
            check_evolution(f"cycle {c} post-replay")

        if c % 2 == 0:
            delete_where(lake, [["lang", "=", "es"]], retain_history=True, views=views)
            for u, (ts, lsn, op, lang, fs) in list(oracle.items()):
                if op != "D" and lang == "es":
                    oracle[u] = (ts, lsn, "D", lang, fs)
            stats["deletes"] += 1
            man = Manifest.load(lake)
            got = _digest(_final(lake))
            assert got == oracle_digest(), f"cycle {c}: delete_where != oracle"
            check_view(f"cycle {c} post-delete_where")
            snapshots[man.epoch] = got

        before = _digest(_final(lake))
        res = compact(lake, retain_history=True)
        stats["compactions"] += 1
        stats["tombstones_dropped"] += res["dropped_tombstones"]
        # compaction forgets dead tombstones: they stop competing in LWW
        wm = Manifest.load(lake).watermark_lsn
        for u, (ts, lsn, op, _lang, _fs) in list(oracle.items()):
            if op == "D" and lsn < wm:
                del oracle[u]
        man = Manifest.load(lake)
        got = _digest(_final(lake))
        assert got == before, f"cycle {c}: compaction changed final state"
        assert got == oracle_digest(), f"cycle {c}: post-compaction oracle drift"
        check_view(f"cycle {c} post-compaction")
        if v2:
            # evolution x compaction: the additive column survives the
            # rewrite with oracle-exact values (checked pre-compaction
            # too, right after the v2 replay committed)
            check_evolution(f"cycle {c} post-compaction")
        snapshots[man.epoch] = got

        # every retained epoch still reproduces its recorded digest
        for ep, dig in snapshots.items():
            assert _digest(_asof(lake, ep)) == dig, \
                f"cycle {c}: time-travel to epoch {ep} drifted"
            stats["asof_checks"] += 1
        man.lineage()  # raises on any gap
        stats["cycles"] += 1

    # -- GC phase ---------------------------------------------------------
    man = Manifest.load(lake)
    eps = sorted(snapshots)
    horizon = eps[len(eps) // 2]
    removed = gc_history(lake, keep_epochs_after=horizon)
    stats["gc_history_removed"] = removed
    for ep in eps:
        if ep > horizon:
            assert _digest(_asof(lake, ep)) == snapshots[ep], \
                f"gc_history broke retained epoch {ep}"
    # current state unaffected
    assert _digest(_final(lake)) == snapshots[eps[-1]]
    oldest_kept = min(ep for ep in eps if ep > horizon)
    check_view(f"epoch {oldest_kept} after gc_history", asof_epoch=oldest_kept)

    # -- orphan GC: plant uncommitted debris, remove exactly it ----------
    from go_datax_ray.state.fs import LakeFS
    from go_datax_ray.state.manifest import final_path

    fsh = LakeFS(lake)  # fs-agnostic: the soak also runs over s3:// URIs
    debris = final_path(lake, 0, man.epoch + 50)
    with fsh.open(debris, "wb") as f:
        f.write(b"not really parquet")
    n_orphans = gc_orphans(lake)
    assert not fsh.exists(debris), "gc_orphans left the planted orphan"
    assert _digest(_final(lake)) == snapshots[eps[-1]], "gc_orphans touched live data"
    stats["gc_orphans_removed"] = n_orphans
    stats["wall_s"] = round(time.perf_counter() - t0, 2)
    stats["epochs"] = Manifest.load(lake).epoch + 1
    stats["final_rows"] = len(oracle_final())
    return stats


def main() -> int:
    cycles = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    epc = int(sys.argv[2]) if len(sys.argv) > 2 else 3000
    import shutil

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    lake = "/tmp/gdr_lake_soak"
    shutil.rmtree(lake, ignore_errors=True)
    stats = run_soak(lake, cycles=cycles, events_per_cycle=epc)
    print(json.dumps(stats))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
