"""Correctness oracles, independent of the engine's own code paths.

The expected lake state is computed by DuckDB straight from the WAL
Parquet files: per url, the event with the largest ``(warc_ts, lsn)``
wins, tombstones included. The lake side is read straight from the
manifest's committed files, not through ``read_lake``.
"""

from __future__ import annotations

import os

import duckdb


def _file_list(paths: list[str]) -> str:
    return "[" + ", ".join("'" + p.replace("'", "''") + "'" for p in paths) + "]"


def _winners_sql(wal_files: list[str]) -> str:
    # lsn < 1e12, so this key orders exactly by (warc_ts, lsn)
    return f"""
        WITH wal AS (SELECT url, lsn, op, warc_ts FROM read_parquet({_file_list(wal_files)})),
        win AS (
            SELECT url, arg_max(lsn, epoch_us(warc_ts)::HUGEINT * 1000000000000 + lsn) AS lsn
            FROM wal GROUP BY url
        )
        SELECT win.url, win.lsn, wal.op FROM win JOIN wal USING (lsn)
    """


def expected_state(wal_files: list[str]) -> dict[str, tuple[int, str]]:
    """url -> (winning lsn, op) over the given WAL files."""
    con = duckdb.connect()
    try:
        rows = con.sql(_winners_sql(wal_files)).fetchall()
    finally:
        con.close()
    return {url: (lsn, op) for url, lsn, op in rows}


def check_lake(wal_files: list[str], lake_files: list[str]) -> dict[str, int]:
    """Compare a lake's committed files with the WAL's LWW winners.

    Returns counts: ``rows`` (lake rows), ``winner_mismatch`` (urls whose
    lake (lsn, op) differs from the oracle, including urls missing on
    either side), ``duplicates`` (extra rows per url), ``html_mismatch``
    (live rows whose html is not the winning event's html) and
    ``text_mismatch`` (live rows whose text is not
    ``synth.extract_text(html)``)."""
    from go_datax_ray.synth import extract_text

    con = duckdb.connect()
    try:
        con.sql(f"CREATE TEMP TABLE exp AS {_winners_sql(wal_files)}")
        if lake_files:
            con.sql(f"""CREATE TEMP TABLE lake AS SELECT url, lsn, op, html, text
                        FROM read_parquet({_file_list(lake_files)}, union_by_name=true)""")
        else:
            con.sql("""CREATE TEMP TABLE lake (url VARCHAR, lsn BIGINT, op VARCHAR,
                                               html BLOB, text VARCHAR)""")
        rows, dups = con.sql("SELECT count(*), count(*) - count(DISTINCT url) FROM lake").fetchone()
        winner = con.sql("""
            SELECT count(*) FROM exp FULL OUTER JOIN lake USING (url)
            WHERE exp.lsn IS DISTINCT FROM lake.lsn OR exp.op IS DISTINCT FROM lake.op
        """).fetchone()[0]
        html = con.sql(f"""
            SELECT count(*) FROM lake JOIN read_parquet({_file_list(wal_files)}) w USING (lsn)
            WHERE lake.op <> 'D' AND lake.html IS DISTINCT FROM w.html
        """).fetchone()[0]
        live = con.sql("SELECT html, text FROM lake WHERE op <> 'D'").fetchall()
    finally:
        con.close()
    text = sum(1 for h, t in live if h is None or extract_text(h) != t)
    return {"rows": int(rows), "winner_mismatch": int(winner), "duplicates": int(dups),
            "html_mismatch": int(html), "text_mismatch": int(text)}


def lake_ok(report: dict[str, int]) -> bool:
    return not any(v for k, v in report.items() if k != "rows")


def planted_selftest(workdir: str, seed: int) -> dict[str, bool]:
    """Check that the oracle accepts a correct lake and rejects a lake with
    one planted wrong winner and one with a planted wrong text.

    The correct lake is built here by a plain Python LWW over a small
    generated WAL, independent of the engine and of DuckDB."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_datax_ray.synth import EventGen, SynthConfig, extract_text, gen_event_batch

    cfg = SynthConfig(seed=seed, n_urls=150, payload_bytes=64)
    ev = gen_event_batch(np.arange(1500), cfg, EventGen(cfg).url_pool).drop_columns(["text"])
    os.makedirs(workdir, exist_ok=True)
    wal = os.path.join(workdir, "wal.parquet")
    pq.write_table(ev, wal)

    rows = ev.to_pylist()
    best: dict[str, dict] = {}
    for r in rows:
        cur = best.get(r["url"])
        if cur is None or (r["warc_ts"], r["lsn"]) > (cur["warc_ts"], cur["lsn"]):
            best[r["url"]] = r
    good = []
    for r in best.values():
        r = dict(r)
        r["text"] = None if r["html"] is None else extract_text(r["html"])
        good.append(r)

    def verdict(table_rows: list[dict], name: str) -> bool:
        path = os.path.join(workdir, f"{name}.parquet")
        pq.write_table(pa.Table.from_pylist(table_rows), path)
        return lake_ok(check_lake([wal], [path]))

    # a url with a superseded version, and a live winner, to plant errors on
    loser = next(r for r in rows if best[r["url"]]["lsn"] != r["lsn"])
    wrong_winner = [dict(loser, text=None if loser["html"] is None else extract_text(loser["html"]))
                    if r["url"] == loser["url"] else r for r in good]
    live = next(r for r in good if r["op"] != "D")
    wrong_text = [dict(r, text=r["text"] + " x") if r is live else r for r in good]
    return {
        "accepts_correct_lake": verdict(good, "good"),
        "rejects_wrong_winner": not verdict(wrong_winner, "wrong_winner"),
        "rejects_wrong_text": not verdict(wrong_text, "wrong_text"),
    }
