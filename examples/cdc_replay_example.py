"""Runnable end-to-end CDC example: generate a WAL, replay it into a lake
with in-engine text extraction, resume an incremental tail, time-travel,
then deduplicate the resulting corpus.

    python examples/cdc_replay_example.py   (from the repo root)
"""

import shutil
import sys

sys.path.insert(0, ".")

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from go_datax_ray.pipelines.cdc_replay import ReplayConfig, SynthEventSource, replay
from go_datax_ray.sinks.lake import read_lake
from go_datax_ray.stages.dedup import minhash_dedup_corpus
from go_datax_ray.synth import SynthConfig

LAKE = "/tmp/gdr_example_cdc_lake"
shutil.rmtree(LAKE, ignore_errors=True)

cfg = ReplayConfig(
    lake_dir=LAKE, num_partitions=8, epoch_size=10_000,
    extract_text=True, retain_history=True,
)
synth = SynthConfig(n_urls=3000, payload_bytes=512)

# 1. full replay of 30k events (3 epochs, exactly-once commits)
res = replay(SynthEventSource(30_000, synth), cfg)
for st in res.epoch_stats:
    print(st)
print(f"replayed {res.events} events in {res.epochs} epochs "
      f"({res.events_per_sec:.0f} ev/s)")

# 2. the WAL grew; only the tail is consumed (watermark resume)
res2 = replay(SynthEventSource(36_000, synth), cfg)
print(f"incremental: {res2.events} new events")

# 3. current state + time travel to the first epoch
now = read_lake(LAKE)
then = read_lake(LAKE, asof_epoch=0)
print(f"live urls now: {now.count()}, as of epoch 0: {then.count()}")

# 4. near-dup dedup over the extracted corpus
docs = read_lake(LAKE, columns=["lsn", "text"]).map_batches(
    lambda t: t.rename_columns(["doc_id", "text"]), batch_format="pyarrow"
)
deduped, stats = minhash_dedup_corpus(docs, threshold=0.9)
print(f"dedup: {stats}")
print(f"docs after near-dup removal: {deduped.count()}")

ray.shutdown()
