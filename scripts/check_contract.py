"""Local stand-in for the driver's correctness gate: run every
queries()[name](sf_dir) and compare against oracle_sql()[name] via DuckDB
(row count + schema + order-insensitive value comparison).

Usage: python scripts/check_contract.py [sf_dir] [query_name ...]

An unknown query name exits 2 before Ray starts, listing the unknown
names.

Dtype equality is enforced (the driver's value hash is dtype-sensitive):
an int64 engine column vs a float64 oracle column FAILS here, as it
would in CORRECTNESS_r{N}.json.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import __ray_entry__ as m

    qs, oracles = m.queries(), m.oracle_sql()
    unknown = sorted(only - set(qs))
    if unknown:
        print(f"unknown query names: {' '.join(unknown)}", file=sys.stderr)
        return 2
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    failures = []
    for name, fn in qs.items():
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            failures.append(name)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"ok?  {name}: rows-only ({len(got)} rows, {dt:.1f}s)")
            continue
        want = canon(con.sql(sql).df())
        status = "OK  "
        if len(got) != len(want):
            status = "FAIL"
            failures.append(name)
            print(f"{status} {name}: rows {len(got)} != {len(want)}")
            continue
        if list(got.columns) != list(want.columns):
            status = "FAIL"
            failures.append(name)
            print(f"{status} {name}: cols {list(got.columns)} != {list(want.columns)}")
            continue
        dt_bad = [
            (c, str(got[c].dtype), str(want[c].dtype))
            for c in got.columns
            if got[c].dtype != want[c].dtype
        ]
        if dt_bad:
            failures.append(name)
            print(f"FAIL {name}: dtype mismatch {dt_bad}")
            continue
        mismatch = None
        for c in got.columns:
            a, b = got[c], want[c]
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                import numpy as np

                if not np.allclose(
                    a.astype(float), b.astype(float), rtol=1e-9, atol=1e-9, equal_nan=True
                ):
                    mismatch = c
                    break
            elif not a.equals(b.astype(a.dtype)):
                mismatch = c
                break
        if mismatch:
            failures.append(name)
            print(f"FAIL {name}: column {mismatch!r} differs")
            print("  got :", got[mismatch].head(5).tolist())
            print("  want:", want[mismatch].head(5).tolist())
        else:
            print(f"OK   {name}: {len(got)} rows ({dt:.1f}s)")
    ray.shutdown()
    print(f"\n{len(qs) - len(failures)}/{len(qs)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
