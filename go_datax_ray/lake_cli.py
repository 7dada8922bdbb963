"""Lake admin CLI: inspect and maintain a partitioned CDC lake.

    python -m go_datax_ray.lake_cli status  LAKE_DIR
    python -m go_datax_ray.lake_cli lineage LAKE_DIR
    python -m go_datax_ray.lake_cli count   LAKE_DIR [--asof-epoch N]
    python -m go_datax_ray.lake_cli get     LAKE_DIR --keys k1,k2[,...]
    python -m go_datax_ray.lake_cli compact LAKE_DIR [--horizon LSN]
    python -m go_datax_ray.lake_cli gc-orphans LAKE_DIR
    python -m go_datax_ray.lake_cli gc-history LAKE_DIR --keep-after N
    python -m go_datax_ray.lake_cli delete-where LAKE_DIR --where '[["col","op",value],...]'

No command starts a Ray session: each is manifest and filesystem work
on the driver. ``count`` counts live rows with the lake's one read plan
(``sinks.lake._read_plan``), and ``get`` prints the keys' live rows, one
JSON line each, from one ``sinks.lake.lookup`` scan of the partitions
they hash to. LAKE_DIR may be a local path or any fsspec URI (file://,
s3://, ...).

Every command that changes the lake calls a ``sinks.lake`` function
that holds the replay's writer lock and loads the manifest inside it.
``delete-where`` works on lakes with views: it cannot pass their
``ViewSpec``s, so the files it rewrites carry no view state and
``read_view`` recomputes those partitions from their rows.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="go_datax_ray.lake_cli")
    p.add_argument("cmd", choices=["status", "lineage", "count", "get",
                                   "compact", "gc-orphans", "gc-history",
                                   "delete-where"])
    p.add_argument("lake_dir")
    p.add_argument("--keys", type=str, default=None)
    p.add_argument("--asof-epoch", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--keep-after", type=int, default=None)
    p.add_argument("--where", type=str, default=None)
    args = p.parse_args(argv)

    from .state.manifest import Manifest

    if args.cmd == "status":
        man = Manifest.load(args.lake_dir)
        print(json.dumps({
            "lake_dir": args.lake_dir,
            "epoch": man.epoch,
            "watermark_lsn": man.watermark_lsn,
            "num_partitions": man.num_partitions,
            "committed_partitions": len(man.partitions),
            "rows": sum(int(e["rows"]) for e in man.partitions.values()),
        }, indent=2))
        return 0

    if args.cmd == "lineage":
        for rec in Manifest.load(args.lake_dir).lineage():
            print(json.dumps(rec))
        return 0

    if args.cmd == "count":
        from .sinks.lake import _read_plan, _scanner

        pafs, files, schema, expr = _read_plan(args.lake_dir, asof_epoch=args.asof_epoch)
        n = _scanner(pafs, files, schema, expr).count_rows() if files else 0
        print(json.dumps({"rows": n, "asof_epoch": args.asof_epoch}))
        return 0

    if args.cmd == "get":
        # point lookup (sinks.lake.lookup): reads ONLY the partitions the
        # keys hash to, driver-side, never the lake — no Ray session
        if not args.keys:
            p.error("get requires --keys")
        from .sinks.lake import lookup

        try:
            t = lookup(args.lake_dir, args.keys.split(","))
        except ValueError as e:  # manifest predates key metadata
            p.error(str(e))
        for row in t.to_pylist():
            row = {k: (v if not isinstance(v, bytes) else f"<{len(v)}B>")
                   for k, v in row.items()}
            print(json.dumps(row, default=str))
        return 0

    if args.cmd == "compact":
        from .sinks.lake import compact

        print(json.dumps(compact(args.lake_dir, drop_tombstones_below_lsn=args.horizon)))
        return 0

    if args.cmd == "delete-where":
        if not args.where:
            p.error("delete-where requires --where")
        from .sinks.lake import delete_where

        try:
            print(json.dumps(delete_where(args.lake_dir, json.loads(args.where))))
        except ValueError as e:  # an empty condition list
            p.error(str(e))
        return 0

    if args.cmd == "gc-orphans":
        from .sinks.lake import gc_orphans

        print(json.dumps({"removed": gc_orphans(args.lake_dir)}))
        return 0

    if args.cmd == "gc-history":
        if args.keep_after is None:
            p.error("gc-history requires --keep-after")
        from .sinks.lake import gc_history

        print(json.dumps({"removed": gc_history(args.lake_dir, args.keep_after)}))
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
