"""Pytest wrapper for the compaction/GC interaction soak
(scripts/lake_soak.py — VERDICT r3 #10): replay, delete_where,
compaction, time-travel, gc_history and gc_orphans interleaved under an
exact driver-side LWW oracle."""

import importlib.util
import os


def _load_soak():
    p = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "lake_soak.py")
    spec = importlib.util.spec_from_file_location("lake_soak", p)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_lake_maintenance_soak(tmp_path):
    soak = _load_soak()
    stats = soak.run_soak(str(tmp_path / "lake"), cycles=2,
                          events_per_cycle=1200, n_urls=200)
    assert stats["cycles"] == 2
    assert stats["compactions"] == 2
    assert stats["deletes"] == 1
    assert stats["tombstones_dropped"] > 0   # compaction did real work
    assert stats["asof_checks"] >= 6          # time travel exercised
    assert stats["gc_orphans_removed"] >= 1   # planted debris collected
    # VERDICT r4 #10: the second half of the soak replays v2-schema
    # epochs — the evolved column checked post-replay AND post-compaction
    assert stats["evolution_checks"] >= 2
    # the maintained view: after each replay (the second one without the
    # view), delete_where and compaction, and as of a retained epoch
    assert stats["view_checks"] == 6
