"""Where a lake's Parquet bytes go, and what other encodings would cost.

By default prints, per column over the lake's committed files, the
column chunks' encodings and codecs and their compressed and
uncompressed bytes. With ``--grid`` it also rewrites those files in
memory with lz4 and zstd levels 1-4, each with dictionary pages on and
off, and prints per encoding the bytes and the encode and decode
seconds (best of ``--repeat``), summed over the files.

    python scripts/lake_bytes.py LAKE_DIR [--grid] [--repeat N]

A directory without a committed manifest (a kept ``_delta/epoch-N``
directory, say) is read as every ``*.parquet`` file under it. Needs no
Ray session.
"""

from __future__ import annotations

import argparse
import collections
import glob
import io
import os
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

GRID = [("lz4", None)] + [("zstd", level) for level in (1, 2, 3, 4)]
ROW_GROUP_SIZE = 64 * 1024  # the partition files' row-group size


def lake_files(path: str) -> list[str]:
    from go_datax_ray.state.manifest import Manifest

    files = Manifest.load(path).committed_files()
    return files or sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))


def column_bytes(files: list[str]) -> None:
    stats: dict[str, list] = collections.defaultdict(lambda: [set(), set(), 0, 0])
    for f in files:
        md = pq.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            for i in range(md.num_columns):
                c = md.row_group(rg).column(i)
                s = stats[c.path_in_schema]
                s[0].update(c.encodings)
                s[1].add(c.compression)
                s[2] += c.total_compressed_size
                s[3] += c.total_uncompressed_size
    print(f"{len(files)} files")
    print(f"{'column':<12} {'codec':<8} {'compressed':>12} {'uncompressed':>13}  encodings")
    total = [0, 0]
    for name, (enc, codec, comp, unc) in stats.items():
        total[0] += comp
        total[1] += unc
        print(f"{name:<12} {','.join(sorted(codec)):<8} {comp:>12,} {unc:>13,}  "
              f"{','.join(sorted(enc))}")
    print(f"{'total':<12} {'':<8} {total[0]:>12,} {total[1]:>13,}")


def grid(files: list[str], repeat: int) -> None:
    tables = [pq.read_table(f) for f in files]
    print(f"{'codec':<8} {'dictionary':<10} {'bytes':>12} {'encode_s':>9} {'decode_s':>9}")
    for codec, level in GRID:
        for use_dictionary in (True, False):
            nbytes, enc_s, dec_s = 0, 0.0, 0.0
            for t in tables:
                best_enc = best_dec = float("inf")
                for _ in range(repeat):
                    buf = io.BytesIO()
                    t0 = time.perf_counter()
                    pq.write_table(t, buf, compression=codec, compression_level=level,
                                   use_dictionary=use_dictionary,
                                   row_group_size=ROW_GROUP_SIZE)
                    t1 = time.perf_counter()
                    # one thread, as in a Ray read task; threaded reads of
                    # in-memory buffers also made pyarrow 16.1 abort at exit
                    pq.read_table(pa.BufferReader(buf.getvalue()), use_threads=False)
                    t2 = time.perf_counter()
                    best_enc, best_dec = min(best_enc, t1 - t0), min(best_dec, t2 - t1)
                nbytes += buf.tell()
                enc_s += best_enc
                dec_s += best_dec
            name = codec if level is None else f"{codec}-{level}"
            print(f"{name:<8} {'on' if use_dictionary else 'off':<10} {nbytes:>12,} "
                  f"{enc_s:>9.3f} {dec_s:>9.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("lake_dir")
    ap.add_argument("--grid", action="store_true",
                    help="rewrite the files in memory with every codec of the grid")
    ap.add_argument("--repeat", type=int, default=3,
                    help="encode/decode repetitions per file in --grid (best is kept)")
    args = ap.parse_args()
    files = lake_files(args.lake_dir)
    if not files:
        sys.exit(f"no Parquet files under {args.lake_dir}")
    column_bytes(files)
    if args.grid:
        print()
        grid(files, args.repeat)


if __name__ == "__main__":
    main()
