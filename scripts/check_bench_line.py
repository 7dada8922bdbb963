"""Check one perfbench run's result line.

    python3 perfbench/run.py --workload bulk --trace 0 | python scripts/check_bench_line.py --trace 0
    python scripts/check_bench_line.py --trace 1 saved_stdout.txt

Reads perfbench's standard output (a file, or standard input) and exits
non-zero, naming each problem, unless its last non-empty line is a JSON
object with ``correct`` true, ``failed`` 0 and a value for every metric
``BENCHMARK.json`` lists: its ``end_to_end`` metrics for ``--trace 0``,
its ``per_layer`` metrics for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems(text: str, trace: int, bench: dict) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return ["no output"]
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"last line is not JSON ({e}): {lines[-1][:200]!r}"]
    if not isinstance(res, dict):
        return [f"last line is not a JSON object: {lines[-1][:200]!r}"]
    out = []
    if res.get("correct") is not True:
        out.append(f"correct is {res.get('correct')!r}")
    if res.get("failed") != 0:
        out.append(f"failed is {res.get('failed')!r}")
    metrics = res.get("metrics")
    if not isinstance(metrics, dict):
        return out + [f"metrics is {metrics!r}"]
    group = "per_layer" if trace else "end_to_end"
    missing = [m["name"] for m in bench[group]
               if not isinstance(metrics.get(m["name"]), dict)
               or not isinstance(metrics[m["name"]].get("value"), (int, float))]
    if missing:
        out.append(f"{group} metrics missing: {missing}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("file", nargs="?", help="saved stdout; standard input when absent")
    args = p.parse_args(argv)
    if args.file:
        with open(args.file) as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    found = problems(text, args.trace, bench)
    for msg in found:
        print(f"check_bench_line: {msg}", file=sys.stderr)
    if not found:
        group = "per_layer" if args.trace else "end_to_end"
        print(f"check_bench_line: ok ({len(bench[group])} {group} metrics)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
