"""Fingerprint the lakes a fixed set of replays commits, to check that a
change to the replay leaves its output byte-identical.

    python scripts/lake_identity.py > new.json
    PYTHONPATH=/path/to/other/checkout python scripts/lake_identity.py > old.json
    python scripts/lake_identity.py --diff old.json new.json

Builds its inputs in a temporary directory with ``synth.gen_event_batch``
and runs four replays in one fresh 4-CPU Ray session:

- ``bulk``: perfbench's bulk shape. A 100k-event WAL over 10k urls, in
  16,384-event segments of 8,192-row row groups, replayed by
  ``ParquetWalSource`` into 32 partitions in 4 epochs of 25k events,
  with ``extract_text``.
- ``tail``: perfbench's tail shape. A 40k-event base over 20k urls in
  one epoch, then four 4k-event segments, one replay each.
- ``synth``: 70k ``SynthEventSource`` events in 40k-event epochs, P=8.
- ``evolve``: 6k v1 events, then a 3k-event v2 tail with the additive
  ``fetch_status`` column, each through ``DatasetEventSource`` over ten
  blocks, P=8.

Every replay keeps its history, so each epoch's partition files stay on
disk. Prints one JSON object: per shape, the sha256 of every partition
file (by path in the lake) and, per epoch, ``applied``, ``delta_files``,
``delta_bytes`` and ``final_bytes``. ``--diff A B`` compares two such
outputs, prints what differs and exits 1 if anything does. The
``go_datax_ray`` first on ``PYTHONPATH`` is the one measured, else this
checkout's.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import sys
import tempfile

if importlib.util.find_spec("go_datax_ray") is None:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

EPOCH_FIELDS = ("applied", "delta_files", "delta_bytes", "final_bytes")
RG_EVENTS = 8192  # WAL rows per Parquet row group
ONE_EPOCH = 10**9


def synth_cfg(n_urls: int, **kw):
    from go_datax_ray.synth import SynthConfig

    return SynthConfig(seed=1, n_urls=n_urls, n_domains=max(10, n_urls // 10),
                       payload_bytes=1024, **kw)


def wal(d: str, cfg, lo: int, hi: int, seg: int) -> list[str]:
    """WAL segments for lsn [lo, hi), ``seg`` events each, html only."""
    import numpy as np
    import pyarrow.parquet as pq

    from go_datax_ray.synth import EventGen, gen_event_batch

    os.makedirs(d, exist_ok=True)
    pool = EventGen(cfg).url_pool
    files = []
    for s in range(lo, hi, seg):
        path = os.path.join(d, f"seg-{s:012d}.parquet")
        t = gen_event_batch(np.arange(s, min(hi, s + seg)), cfg, pool)
        pq.write_table(t.drop_columns(["text"]), path, row_group_size=RG_EVENTS)
        files.append(path)
    return files


def fingerprint(lake: str, results) -> dict:
    files = {}
    for p in sorted(glob.glob(os.path.join(lake, "part-*", "*.parquet"))):
        with open(p, "rb") as f:
            files[os.path.relpath(p, lake)] = hashlib.sha256(f.read()).hexdigest()
    epochs = [{k: st[k] for k in ("epoch", *EPOCH_FIELDS)}
              for res in results for st in res.epoch_stats]
    return {"files": files, "epochs": epochs}


def run_shapes(tmp: str) -> dict:
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from go_datax_ray.pipelines.cdc_replay import (
        DatasetEventSource, ParquetWalSource, ReplayConfig, SynthEventSource, replay)
    from go_datax_ray.synth import EventGen

    def cfg(name, nparts, epoch_size, extract_text):
        return ReplayConfig(lake_dir=os.path.join(tmp, name), num_partitions=nparts,
                            epoch_size=epoch_size, extract_text=extract_text,
                            retain_history=True)

    out = {}
    bulk = wal(os.path.join(tmp, "wal-bulk"), synth_cfg(10_000), 0, 100_000, 16_384)
    c = cfg("bulk", 32, 25_000, True)
    out["bulk"] = fingerprint(c.lake_dir, [replay(ParquetWalSource(bulk, 0, 100_000), c)])

    tcfg = synth_cfg(20_000)
    base = wal(os.path.join(tmp, "wal-base"), tcfg, 0, 40_000, 16_384)
    tail = wal(os.path.join(tmp, "wal-tail"), tcfg, 40_000, 56_000, 4_000)
    c = cfg("tail", 32, ONE_EPOCH, True)
    results = [replay(ParquetWalSource(base, 0, 40_000), c)]
    for k in range(1, len(tail) + 1):
        hi = 40_000 + 4_000 * k
        results.append(replay(ParquetWalSource(base + tail[:k], 0, hi), c))
    out["tail"] = fingerprint(c.lake_dir, results)

    c = cfg("synth", 8, 40_000, False)
    out["synth"] = fingerprint(c.lake_dir, [replay(SynthEventSource(70_000, synth_cfg(5_000)), c)])

    c = cfg("evolve", 8, 4_000, True)
    results = []
    for lo, hi, v2 in ((0, 6_000, False), (6_000, 9_000, True)):
        ev = EventGen(synth_cfg(2_000, v2=v2), offset=lo)(
            pa.table({"id": np.arange(hi - lo, dtype=np.int64)}))
        step = -(-ev.num_rows // 10)
        ds = rd.from_arrow([ev.slice(i, step) for i in range(0, ev.num_rows, step)])
        results.append(replay(DatasetEventSource(ds, lo, hi), c))
    out["evolve"] = fingerprint(c.lake_dir, results)
    return out


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    for shape in sorted(set(a) | set(b)):
        if shape not in a or shape not in b:
            lines.append(f"{shape}: only in {'B' if shape not in a else 'A'}")
            continue
        fa, fb = a[shape]["files"], b[shape]["files"]
        for p in sorted(set(fa) | set(fb)):
            if fa.get(p) != fb.get(p):
                lines.append(f"{shape}: {p}: {fa.get(p)} != {fb.get(p)}")
        if a[shape]["epochs"] != b[shape]["epochs"]:
            lines.append(f"{shape}: epochs {a[shape]['epochs']} != {b[shape]['epochs']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="lake_identity.py")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.diff:
        a, b = (load(f) for f in args.diff)
        lines = diff(a, b)
        for line in lines:
            print(line)
        n_files = {s: len(a[s]["files"]) for s in a}
        print(f"{'DIFFERENT' if lines else 'identical'}: files per shape {n_files}")
        return 1 if lines else 0

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import ray
    from ray.data import DataContext

    import go_datax_ray

    root = os.path.dirname(os.path.dirname(os.path.abspath(go_datax_ray.__file__)))
    ray.init(address="local", num_cpus=min(4, os.cpu_count() or 1), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 1024 * 1024,
             runtime_env={"env_vars": {"PYTHONPATH": root}})
    DataContext.get_current().enable_progress_bars = False
    try:
        with tempfile.TemporaryDirectory(prefix="lake_identity_") as tmp:
            print(json.dumps(run_shapes(tmp), sort_keys=True))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
