"""CDC lake benchmark: one workload per run.

    python3 perfbench/run.py --workload bulk|tail --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, measured on a separate
run in which half of the operations are traced. The full result (host
shape, seed, per-operation values, errors) is also written to
``.perfbench_work/results/``, with the traced run's spans beside it.
See perfbench/README.md for the workloads and what each metric means.

The workload runs in a child process. This process only supervises it:
however the child ends (a result, a crash, a hang, a SIGTERM), every
process the run started is stopped and waited for before the result is
printed, so nothing outlives the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# measuring stops here; the oracle and shutdown fit in what is left
MEASURE_LIMIT_S = 150.0
# past this the supervisor records a hang, stops every process and prints
HARD_LIMIT_S = 168.0

NOTES = [
    "BASELINE.md figures were taken at 32 cpus on another host: history, not bars.",
    "Known defect: SynthEventSource.read() deadlocks at num_cpus=1 (the EventGen actor "
    "holds the only CPU while the ReadRange task that feeds it waits for one), so "
    "inputs are generated in-process with synth.gen_event_batch.",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["bulk", "tail"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true", help="run the harness self-tests")
    # set by the supervisor: run the workload here and write its result
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def host_shape() -> dict:
    import duckdb
    import pyarrow
    import ray

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "duckdb": duckdb.__version__,
            "storage_path": WORK}


def result_path(args) -> str:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    return os.path.join(WORK, "results", stem + ".json")


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, default=float)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "go_datax_ray")):
        print(f"go_datax_ray not found under {ROOT}: run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    if args.self_test:
        import selftest

        return selftest.main()
    return run_workload(args) if args.worker else supervise(args, argv)


def supervise(args, argv: list[str]) -> int:
    """Run the workload in a child and print its result once every process
    the run started has ended."""
    import harness

    harness.adopt_orphans()
    path = result_path(args)
    if os.path.exists(path):
        os.remove(path)
    # a SIGTERM unwinds through the cleanup below instead of skipping it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    errors = []
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv, "--worker"])
    try:
        child.wait(timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired:  # a hang is a failed run, never an endless one
        errors.append(f"run exceeded {HARD_LIMIT_S:.0f} s")
    finally:
        stopped = harness.kill_tree(grace_s=10 if child.returncode is not None else 0)
    left = harness.run_processes()

    full = {}
    if child.returncode == 0 and os.path.exists(path):
        with open(path) as f:
            full = json.load(f)
    result = full.get("result")
    if result is None:
        errors.append(f"the run ended with code {child.returncode} and no result")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if left:  # a process that outlives the run could serve the next one
        errors.append(f"processes still running after cleanup: {left}")
        result.update(correct=False, attempted=result["attempted"] + 1,
                      failed=result["failed"] + 1)
    full.update(result=result, processes_killed_after_run=stopped,
                supervisor_errors=errors)
    write_json(path, full)
    print(json.dumps(result), flush=True)
    return 0


def run_workload(args) -> int:
    """The workload itself, in the supervised child: measure, check, stop
    Ray and write the full result file."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import harness
    import oracle
    import workloads

    t_start = time.perf_counter()
    ctx = workloads.Ctx(root=ROOT, work=WORK, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), deadline=t_start + MEASURE_LIMIT_S)

    # the oracle must catch a planted wrong winner and a planted wrong text
    planted = oracle.planted_selftest(os.path.join(WORK, "oracle-selftest"), args.seed)
    ctx.attempted += len(planted)
    ctx.failed += sum(not ok for ok in planted.values())

    e2e, layers = {}, {}
    try:
        e2e, layers = workloads.WORKLOADS[args.workload](ctx)
    except Exception:  # noqa: BLE001 — reported as a failed run below
        ctx.fail(f"workload {args.workload}")
    finally:
        ctx.probe.uninstall()
        workloads.stop_ray()
        killed = harness.kill_tree()

    values = layers if args.trace else e2e
    metrics, missing = {}, []
    for m in wanted:
        v = values.get(m["name"])
        if v is None or v != v:  # not measured: missing, never a 0 that reads as a gain
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}
    if missing:
        ctx.errors.append(f"metrics not measured: {missing}")
    correct = ctx.failed == 0 and not missing
    result = {"correct": correct, "attempted": max(1, ctx.attempted),
              "failed": ctx.failed, "metrics": metrics}
    path = result_path(args)
    if args.trace:
        write_json(path[:-len(".json")] + "-spans.json", ctx.probe.spans)
    write_json(path, {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_shape(), "ray_num_cpus": ctx.details.get("ray_num_cpus"),
        "result": result, "end_to_end": e2e, "per_layer": layers,
        "failed_ops_ratio": ctx.failed / max(1, ctx.attempted),
        "oracle_selftest": planted, "details": ctx.details, "errors": ctx.errors,
        "processes_killed_at_exit": killed, "wall_s": time.perf_counter() - t_start,
        "notes": NOTES,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
