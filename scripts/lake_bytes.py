"""Where a lake's Parquet bytes go, and what other encodings would cost.

By default prints, per column over the lake's committed files, the
column chunks' encodings and codecs, their compressed and uncompressed
bytes, and the bytes of their min/max statistics; then the footers'
bytes, with each file's leading magic. The ``file`` column of a chunk is its pages plus the copy of its
metadata that follows them, so the columns plus the footers add up to
the files' sizes (the ``total`` row). ``min/max`` counts one copy of
each chunk's min and max values; the file holds one in the footer, one
in the chunk's own metadata and one per data page, in its header.

With ``--grid`` it also rewrites those files in memory with lz4 and
zstd levels 1-4, each with dictionary pages on and off, and with the
lake's encoding with payload statistics off (``statistics_columns``),
and prints per encoding the bytes and the encode and decode seconds
(best of ``--repeat``), summed over the files.

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
MAGIC = b"PAR1"  # opens a Parquet file and closes its footer
_WIDTH = {"BOOLEAN": 1, "INT32": 4, "FLOAT": 4, "INT64": 8, "DOUBLE": 8, "INT96": 12}


def lake_files(path: str) -> tuple[list[str], str | None]:
    """The lake's committed files and its key, or every ``*.parquet``
    file under ``path`` and no key."""
    from go_datax_ray.state.manifest import Manifest

    man = Manifest.load(path)
    files = man.committed_files()
    if files:
        return files, man.key
    return sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)), None


def _min_max_bytes(c) -> int:
    """One copy of a column chunk's min and max values, as stored."""
    st = c.statistics
    if not (c.is_stats_set and st.has_min_max):
        return 0
    width = _WIDTH.get(st.physical_type)
    if width:
        return 2 * width
    return len(st.min_raw) + len(st.max_raw)


def column_bytes(files: list[str]) -> None:
    stats: dict[str, list] = collections.defaultdict(lambda: [set(), set(), 0, 0, 0, 0])
    footers = size = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        n = os.path.getsize(f)
        size += n
        # leading magic; footer, its 4-byte length and the closing magic
        footers += len(MAGIC) + md.serialized_size + 4 + len(MAGIC)
        # a chunk runs from its first page to the next chunk's first
        # page (the footer, for the last one): its pages, then a copy
        # of its metadata
        chunks = [md.row_group(rg).column(i)
                  for rg in range(md.num_row_groups) for i in range(md.num_columns)]
        starts = [c.dictionary_page_offset or c.data_page_offset for c in chunks]
        ends = starts[1:] + [n - md.serialized_size - 4 - len(MAGIC)]
        for c, start, end in zip(chunks, starts, ends):
            s = stats[c.path_in_schema]
            s[0].update(c.encodings)
            s[1].add(c.compression)
            s[2] += c.total_compressed_size
            s[3] += c.total_uncompressed_size
            s[4] += end - start
            s[5] += _min_max_bytes(c)
    print(f"{len(files)} files, {size:,} bytes")
    print(f"{'column':<12} {'codec':<8} {'file':>12} {'compressed':>12} {'uncompressed':>13} "
          f"{'min/max':>9}  encodings")
    total = [0, 0, 0, 0]
    for name, (enc, codec, comp, unc, chunk, minmax) in stats.items():
        for i, v in enumerate((chunk, comp, unc, minmax)):
            total[i] += v
        print(f"{name:<12} {','.join(sorted(codec)):<8} {chunk:>12,} {comp:>12,} {unc:>13,} "
              f"{minmax:>9,}  {','.join(sorted(enc))}")
    print(f"{'footers':<12} {'':<8} {footers:>12,}")
    print(f"{'total':<12} {'':<8} {total[0] + footers:>12,} {total[1]:>12,} {total[2]:>13,} "
          f"{total[3]:>9,}")


def grid(files: list[str], key: str | None, repeat: int) -> None:
    from go_datax_ray.sinks.lake import LAKE_PARQUET_OPTS, statistics_columns

    tables = [pq.read_table(f) for f in files]
    rows = [(codec if level is None else f"{codec}-{level}", "all",
             {"compression": codec, "compression_level": level, "use_dictionary": d})
            for codec, level in GRID for d in (True, False)]
    rows.append(("zstd-1", "no payload", LAKE_PARQUET_OPTS))  # the kept files' encoding
    print(f"{'codec':<8} {'dictionary':<10} {'statistics':<10} {'bytes':>12} "
          f"{'encode_s':>9} {'decode_s':>9}")
    for name, statistics, opts in rows:
        nbytes, enc_s, dec_s = 0, 0.0, 0.0
        for t in tables:
            kw = opts if statistics == "all" else {
                **opts, "write_statistics": statistics_columns(t.schema, key)}
            best_enc = best_dec = float("inf")
            for _ in range(repeat):
                buf = io.BytesIO()
                t0 = time.perf_counter()
                pq.write_table(t, buf, row_group_size=ROW_GROUP_SIZE, **kw)
                t1 = time.perf_counter()
                # one thread, as in a Ray read task; threaded reads of
                # in-memory buffers also made pyarrow 16.1 abort at exit
                pq.read_table(pa.BufferReader(buf.getvalue()), use_threads=False)
                t2 = time.perf_counter()
                best_enc, best_dec = min(best_enc, t1 - t0), min(best_dec, t2 - t1)
            nbytes += buf.tell()
            enc_s += best_enc
            dec_s += best_dec
        print(f"{name:<8} {'on' if opts['use_dictionary'] else 'off':<10} {statistics:<10} "
              f"{nbytes:>12,} {enc_s:>9.3f} {dec_s:>9.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("lake_dir")
    ap.add_argument("--grid", action="store_true",
                    help="rewrite the files in memory with every codec of the grid")
    ap.add_argument("--repeat", type=int, default=3,
                    help="encode/decode repetitions per file in --grid (best is kept)")
    args = ap.parse_args()
    files, key = lake_files(args.lake_dir)
    if not files:
        sys.exit(f"no Parquet files under {args.lake_dir}")
    column_bytes(files)
    if args.grid:
        print()
        grid(files, key, args.repeat)


if __name__ == "__main__":
    main()
