"""Self-tests of the benchmark harness (no Ray needed).

    python3 perfbench/run.py --self-test

Covers the percentile rule (a percentile needs at least ten samples
beyond it), the open-loop due-time and freshness accounting, the /proc
RSS sampler and process-tree cleanup, the epoch accounting of spans, the
rule that an unreported delta byte count leaves write amplification
missing, and the lake oracle against a planted wrong winner and a planted wrong text.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
import unittest

import harness


class PercentileTest(unittest.TestCase):
    def test_needs_ten_beyond(self):
        xs = list(range(1, 101))          # 100 samples: p90 leaves 10 beyond
        self.assertEqual(harness.percentile(xs, 0.9), 90)
        self.assertIsNone(harness.percentile(xs[:99], 0.9))
        self.assertIsNone(harness.percentile(xs, 0.95))
        self.assertEqual(harness.percentile(list(range(1, 201)), 0.95), 190)

    def test_median_any_size(self):
        self.assertEqual(harness.percentile([3, 1, 2], 0.5), 2)
        self.assertEqual(harness.median([4, 1, 3, 2]), 2.5)
        self.assertIsNone(harness.percentile([], 0.5))


class OpenLoopTest(unittest.TestCase):
    def test_due_times_and_freshness(self):
        clock = harness.OpenLoopClock(t0=100.0, rate=1000.0, seg_events=500)
        # segment k is visible when its last event is due
        self.assertAlmostEqual(clock.visible_at(0), 100.5)
        self.assertAlmostEqual(clock.visible_at(3), 102.0)
        self.assertEqual(clock.visible_count(100.49, 10), 0)
        self.assertEqual(clock.visible_count(100.5, 10), 1)
        self.assertEqual(clock.visible_count(105.0, 4), 4)
        # segments 1..2 committed at t=101.75: event j due at 100 + (j+1)/1000
        f = clock.freshness(1, 2, 101.75)
        self.assertEqual(len(f), 1000)
        self.assertAlmostEqual(f[0], 101.75 - 100.501)
        self.assertAlmostEqual(f[-1], 0.25)  # the last event is due when segment 2 shows
        self.assertAlmostEqual(float(f.mean()), 101.75 - (100.0 + 1.0005), places=6)


class RssSamplerTest(unittest.TestCase):
    def test_counts_children_and_cleanup(self):
        code = "b = bytearray(64 * 1024 * 1024); import time; time.sleep(30)"
        child = subprocess.Popen([sys.executable, "-c", code])
        try:
            deadline = time.monotonic() + 10
            while harness.rss_bytes(child.pid) < 60 * 2**20 and time.monotonic() < deadline:
                time.sleep(0.05)
            sampler = harness.RssSampler(interval=0.05, tree_every=1).start()
            time.sleep(0.3)
            peak = sampler.stop()
            self.assertIn(child.pid, harness.descendants(os.getpid()))
            self.assertGreater(peak, harness.rss_bytes(os.getpid()) + 60 * 2**20)
            self.assertGreater(sampler.samples, 1)
        finally:
            killed = harness.kill_tree(grace_s=0)
            child.wait(timeout=10)
        self.assertEqual(killed, 1)
        self.assertNotIn(child.pid, [p for p in harness.descendants(os.getpid())
                                     if harness._alive(p)])


class OrphanCleanupTest(unittest.TestCase):
    def test_orphaned_grandchild_is_found_and_stopped(self):
        tag = harness.adopt_orphans()
        # the child starts a grandchild and exits at once, orphaning it
        code = ("import subprocess, sys; "
                "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'], "
                "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); print(p.pid)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=30, check=True)
        orphan = int(out.stdout.split()[0])
        try:
            self.assertIn(orphan, harness.tagged(tag))
            self.assertIn(orphan, harness.run_processes())
        finally:
            killed = harness.kill_tree(grace_s=0)
        self.assertEqual(killed, 1)
        self.assertFalse(harness._alive(orphan))
        self.assertEqual(harness.run_processes(), [])


class SpanAccountingTest(unittest.TestCase):
    def test_epochs_cover_the_wall(self):
        def s(name, start, end, parent, epoch):
            return {"name": name, "start": start, "end": end, "parent": parent,
                    "epoch": epoch, "root": 0}

        spans = [s("bench.replay", 0.0, 10.0, -1, 0),
                 s("manifest.load", 0.1, 0.2, 0, 0),
                 s("cdc_replay.scan", 0.3, 0.5, 0, 0),
                 s("cdc_replay.merge", 1.0, 3.0, 0, 0),
                 s("manifest.commit", 3.0, 3.5, 0, 0),
                 s("cdc_replay.scan", 4.0, 4.2, 0, 1),
                 s("manifest.commit", 8.0, 9.0, 0, 1)]
        rows = harness.epoch_breakdown(spans)
        self.assertEqual([r["wall_s"] for r in rows], [3.5, 6.5])
        for r in rows:
            covered = sum(v for k, v in r.items() if "." in k)
            self.assertAlmostEqual(covered + r["other_s"], r["wall_s"])
        self.assertAlmostEqual(harness.self_times(spans)[0], 10.0 - 4.0)


class WriteAmpTest(unittest.TestCase):
    def test_missing_delta_bytes_is_missing_not_zero(self):
        import workloads

        ctx = workloads.Ctx(root="", work="", seed=1, seconds=1.0, trace=False, deadline=0.0)
        ok = [{"final_files": 2, "final_bytes": 300, "delta_bytes": 100},
              {"final_files": 0, "final_bytes": 0, "delta_bytes": None}]  # empty epoch
        self.assertEqual(workloads.write_amp(ctx, ok, 200), 2.0)
        self.assertEqual(ctx.errors, [])
        lost = ok + [{"final_files": 1, "final_bytes": 50, "delta_bytes": None}]
        self.assertIsNone(workloads.write_amp(ctx, lost, 200))
        self.assertEqual(len(ctx.errors), 1)


class OracleTest(unittest.TestCase):
    def test_planted_errors_are_caught(self):
        import oracle

        with tempfile.TemporaryDirectory() as d:
            got = oracle.planted_selftest(d, seed=7)
        self.assertEqual(got, {"accepts_correct_lake": True, "rejects_wrong_winner": True,
                               "rejects_wrong_text": True})


def main() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
