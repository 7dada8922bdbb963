"""Job engine + file sources/sinks: reference-semantics tests
(mirrors the reference's test-data configs — SURVEY.md §5)."""

import gzip
import json
import os

import pyarrow as pa
import pytest

from go_datax_ray.config import JobConfig, go_layout_to_strftime
from go_datax_ray.engine import run_job

SAMPLE_CSV = """id,name,age,email,created_at
1,Alice,25,alice@example.com,2023-01-15
2,Bob,\\N,bob@example.com,2023-02-20
3,,35,charlie@example.com,2023-03-25
4,Dave,abc,dave@example.com,bad-date
"""


@pytest.fixture()
def csv_dir(tmp_path):
    d = tmp_path / "in"
    d.mkdir()
    (d / "sample.csv").write_text(SAMPLE_CSV)
    return d


def _txt_job(csv_dir, out_dir, **writer_extra):
    return {
        "job": {
            "setting": {"speed": {"channel": 2}},
            "content": [
                {
                    "reader": {
                        "name": "txtfilereader",
                        "parameter": {
                            "path": str(csv_dir / "*.csv"),
                            "column": [
                                {"index": 0, "type": "long"},
                                {"index": 1, "type": "string"},
                                {"index": 2, "type": "long"},
                                {"index": 3, "type": "string"},
                                {"index": 4, "type": "date", "format": "2006-01-02"},
                            ],
                            "fieldDelimiter": ",",
                            "skipHeader": True,
                            "nullFormat": "\\N",
                        },
                    },
                    "writer": {
                        "name": "txtfilewriter",
                        "parameter": {
                            "path": str(out_dir),
                            "fileName": "result",
                            "writeMode": "truncate",
                            "fieldDelimiter": ",",
                            "nullFormat": "\\N",
                            "dateFormat": "2006-01-02",
                            "header": ["id", "name", "age", "email", "created_at"],
                            **writer_extra,
                        },
                    },
                }
            ],
        }
    }


def test_go_layout_conversion():
    assert go_layout_to_strftime("2006-01-02 15:04:05") == "%Y-%m-%d %H:%M:%S"
    assert go_layout_to_strftime("2006/01/02") == "%Y/%m/%d"
    assert go_layout_to_strftime("01/02/2006") == "%m/%d/%Y"
    assert go_layout_to_strftime("2006-01-02T15:04:05Z07:00") == "%Y-%m-%dT%H:%M:%S%z"


def test_txtfile_roundtrip(csv_dir, tmp_path):
    out = tmp_path / "out"
    res = run_job(_txt_job(csv_dir, out))
    assert res.records == 4
    files = sorted(os.listdir(out))
    body = (out / files[0]).read_text().splitlines()
    assert body[0] == "id,name,age,email,created_at"
    # reference rendering: null -> \N; ""≡NULL conflation; bad long -> 0;
    # bad date -> \N (typed-column deviation, documented)
    assert body[1] == "1,Alice,25,alice@example.com,2023-01-15"
    assert body[2] == "2,Bob,\\N,bob@example.com,2023-02-20"
    assert body[3] == "3,\\N,35,charlie@example.com,2023-03-25"
    assert body[4] == "4,Dave,0,dave@example.com,\\N"


def test_txtfile_write_modes(csv_dir, tmp_path):
    out = tmp_path / "out"
    run_job(_txt_job(csv_dir, out))
    with pytest.raises(FileExistsError):
        run_job(_txt_job(csv_dir, out, writeMode="nonConflict"))
    run_job(_txt_job(csv_dir, out))  # truncate again: idempotent rerun
    assert len([f for f in os.listdir(out) if f.startswith("result")]) == 1


def test_txtfile_wildcard_and_const(csv_dir, tmp_path):
    job = _txt_job(csv_dir, tmp_path / "o")
    rp = job["job"]["content"][0]["reader"]["parameter"]
    rp["column"] = [
        {"index": 0, "type": "long"},
        {"value": "const!", "type": "string"},
        {"index": 99, "type": "string"},  # out of range -> null
    ]
    job["job"]["content"][0]["writer"] = {
        "name": "streamwriter",
        "parameter": {"print": False, "fieldDelimiter": "\t"},
    }
    res = run_job(job)
    lines = res.sink_result["lines"]
    assert lines[0] == "1\tconst!\t"  # stream profile: null -> ""


def test_txtfile_gzip(tmp_path):
    d = tmp_path / "gz"
    d.mkdir()
    (d / "x.csv.gz").write_bytes(gzip.compress(b"7,zed\n8,yak\n"))
    job = {
        "job": {
            "content": [
                {
                    "reader": {
                        "name": "txtfilereader",
                        "parameter": {
                            "path": str(d),
                            "column": [
                                {"index": 0, "type": "long"},
                                {"index": 1, "type": "string"},
                            ],
                        },
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ]
        }
    }
    res = run_job(job)
    assert res.sink_result["lines"] == ["7\tzed", "8\tyak"]


def test_jsonfile_reader_jsonl_and_dotted(tmp_path):
    d = tmp_path / "j"
    d.mkdir()
    (d / "u.jsonl").write_text(
        '{"id": 1, "name": "John", "active": true, "meta": {"city": "SF"}, "created_at": "2023-01-01T10:00:00Z"}\n'
        '{"id": 2, "name": "Jane", "active": false, "meta": {"city": "NY"}, "created_at": "2023-02-01T10:00:00Z"}\n'
    )
    job = {
        "job": {
            "content": [
                {
                    "reader": {
                        "name": "jsonfilereader",
                        "parameter": {
                            "path": str(d),
                            "column": [
                                {"name": "id", "type": "long"},
                                {"name": "name", "type": "string"},
                                {"name": "active", "type": "bool"},
                                {"name": "meta.city", "type": "string"},
                                {"name": "created_at", "type": "date"},
                            ],
                        },
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ]
        }
    }
    res = run_job(job)
    assert res.sink_result["lines"] == [
        "1\tJohn\ttrue\tSF\t2023-01-01 10:00:00",
        "2\tJane\tfalse\tNY\t2023-02-01 10:00:00",
    ]


def test_jsonfile_array_sniff_and_inference(tmp_path):
    d = tmp_path / "j2"
    d.mkdir()
    rows = [{"a": i, "b": f"s{i}", "c": 1.5 * i} for i in range(10)]
    (d / "arr.json").write_text(json.dumps(rows))
    from go_datax_ray.sources.jsonfile import infer_schema, load_json_rows

    assert load_json_rows(str(d / "arr.json")) == rows
    sch = infer_schema([str(d / "arr.json")])
    assert {s["name"]: s["type"] for s in sch} == {"a": "long", "b": "string", "c": "double"}


def test_stream2stream_with_transformers():
    """stream2stream.json shape + dx chain (transformer configs are the
    reference's config-transformer-*.json pattern)."""
    job = {
        "job": {
            "setting": {"speed": {"channel": 2}},
            "content": [
                {
                    "reader": {
                        "name": "streamreader",
                        "parameter": {
                            "sliceRecordCount": 100,
                            "column": [
                                {"type": "long", "value": "123"},
                                {"type": "string", "value": "hello world"},
                                {"type": "double"},
                                {"type": "bool"},
                                {"type": "date"},
                            ],
                        },
                    },
                    "transformer": [
                        {"name": "dx_substr", "parameter": {"columnIndex": 1, "paras": ["0", "5"]}},
                        {"name": "dx_pad", "parameter": {"columnIndex": 1, "paras": ["right", "8", "x"]}},
                    ],
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ],
        }
    }
    res = run_job(job)
    assert res.records == 200  # sliceRecordCount x channel
    first = res.sink_result["lines"][0].split("\t")
    assert first[0] == "123"
    assert first[1] == "helloxxx"  # substr(0,5) then rpad to 8
    assert first[3] in ("true", "false")
    float(first[2])  # %.6f double renders
    # determinism: rerun gives identical lines (seeded, unlike reference)
    res2 = run_job(job)
    assert res2.sink_result["lines"] == res.sink_result["lines"]


def test_parquet_reader_filter(tmp_path):
    job = {
        "job": {
            "content": [
                {
                    "reader": {
                        "name": "mysqlreader",  # alias -> parquet source
                        "parameter": {
                            "path": "/root/testdata/sf0.001/orders.parquet",
                            "column": ["o_orderkey", "o_totalprice"],
                            "where": [["o_totalprice", ">", 100000]],
                            "allowCollapse": True,
                        },
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ]
        }
    }
    res = run_job(job)
    import duckdb

    want = duckdb.sql(
        "SELECT count(*) FROM '/root/testdata/sf0.001/orders.parquet' WHERE o_totalprice > 100000"
    ).fetchone()[0]
    assert res.records == want


def test_parquet_upsert_conflict_duplicate(tmp_path):
    """config-conflict-duplicate-test semantics: loading overlapping PKs
    upserts; re-loading the same data is a no-op (idempotent replay)."""
    import ray.data as rd

    from go_datax_ray.sinks.lake import read_lake_table
    from go_datax_ray.sinks.parquet import write as pwrite

    lake = str(tmp_path / "lake")
    t1 = pa.table({"pk": [1, 2, 3], "v": ["a", "b", "c"],
                   "ver": pa.array([1, 1, 1], pa.timestamp("us"))})
    t2 = pa.table({"pk": [2, 3, 4], "v": ["B", "C", "d"],
                   "ver": pa.array([2, 2, 2], pa.timestamp("us"))})
    param = {"path": lake, "writeMode": "upsert", "primaryKey": "pk", "versionColumn": "ver"}
    pwrite(rd.from_arrow(t1), param)
    pwrite(rd.from_arrow(t2), param)
    out = read_lake_table(lake)
    got = dict(zip(out.column("pk").to_pylist(), out.column("v").to_pylist()))
    assert got == {1: "a", 2: "B", 3: "C", 4: "d"}
    pwrite(rd.from_arrow(t2), param)  # duplicate load -> state unchanged
    out2 = read_lake_table(lake)
    assert dict(zip(out2.column("pk").to_pylist(), out2.column("v").to_pylist())) == got


def test_error_limit():
    from go_datax_ray.state.metrics import ErrorLimitExceeded, check_error_limit

    check_error_limit(100, 1, record_limit=5)
    with pytest.raises(ErrorLimitExceeded):
        check_error_limit(100, 6, record_limit=5)
    with pytest.raises(ErrorLimitExceeded):
        check_error_limit(100, 11, percentage=0.1)


def test_jobconfig_parse():
    cfg = JobConfig.from_dict(
        {
            "job": {
                "setting": {"speed": {"channel": 4}, "errorLimit": {"record": 3}},
                "content": [
                    {
                        "reader": {"name": "streamreader", "parameter": {"column": []}},
                        "writer": {"name": "streamwriter", "parameter": {}},
                    }
                ],
            }
        }
    )
    assert cfg.channel == 4 and cfg.error_limit_record == 3


def test_collapsed_alias_fails_loudly(tmp_path):
    """VERDICT r1 missing #1: a live-DB plugin name must not silently
    redirect to files — it raises unless allowCollapse is set."""
    import pytest

    job = {
        "job": {
            "content": [
                {
                    "reader": {
                        "name": "mysqlreader",
                        "parameter": {"path": "/root/testdata/sf0.001/orders.parquet"},
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ]
        }
    }
    with pytest.raises(ValueError, match="allowCollapse"):
        run_job(job)
    job["job"]["content"][0]["reader"]["parameter"]["allowCollapse"] = True
    job["job"]["content"][0]["writer"] = {
        "name": "mysqlwriter", "parameter": {"path": str(tmp_path / "out")},
    }
    with pytest.raises(ValueError, match="allowCollapse"):
        run_job(job)


def _make_sqlite(path, n=500):
    import sqlite3

    with sqlite3.connect(path) as con:
        con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, val REAL)")
        con.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(i, f"g{i % 7}", i * 1.5) for i in range(n)],
        )
        con.commit()


def test_sqlite_reader_real_db_equivalence(tmp_path):
    """sqlitereader runs against a REAL database file; results match the
    same query run directly (reference mysql_reader.go:550-616 model:
    column list + where + splitPk ranges)."""
    import sqlite3

    db = str(tmp_path / "src.db")
    _make_sqlite(db)
    job = {
        "job": {
            "setting": {"speed": {"channel": 4}},
            "content": [
                {
                    "reader": {
                        "name": "sqlitereader",
                        "parameter": {
                            "connection": [{"jdbcUrl": f"jdbc:sqlite:{db}", "table": ["t"]}],
                            "column": ["id", "grp", "val"],
                            "where": "val > 100",
                            "splitPk": "id",
                        },
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ]
        }
    }
    res = run_job(job)
    with sqlite3.connect(db) as con:
        want = con.execute("SELECT count(*) FROM t WHERE val > 100").fetchone()[0]
    assert res.records == want
    # querySql override wins verbatim
    job["job"]["content"][0]["reader"]["parameter"] = {
        "path": db, "querySql": "SELECT grp, count(*) AS n FROM t GROUP BY grp",
    }
    res2 = run_job(job)
    assert res2.records == 7


def test_sqlite_writer_round_trip(tmp_path):
    """sqlitereader -> sqlitewriter replace-mode round trip; re-running
    the job is idempotent (INSERT OR REPLACE on the PK)."""
    import sqlite3

    src = str(tmp_path / "src.db")
    dst = str(tmp_path / "dst.db")
    _make_sqlite(src, n=200)
    job = {
        "job": {
            "content": [
                {
                    "reader": {
                        "name": "sqlitereader",
                        "parameter": {"path": src, "table": "t",
                                      "column": ["id", "grp", "val"]},
                    },
                    "writer": {
                        "name": "sqlitewriter",
                        "parameter": {"path": dst, "table": "t", "writeMode": "replace",
                                      "preSql": "CREATE TABLE IF NOT EXISTS t "
                                                "(id INTEGER PRIMARY KEY, grp TEXT, val REAL)"},
                    },
                }
            ]
        }
    }
    res = run_job(job)
    assert res.records == 200
    run_job(job)  # idempotent
    with sqlite3.connect(dst) as con:
        assert con.execute("SELECT count(*) FROM t").fetchone()[0] == 200
        assert con.execute("SELECT val FROM t WHERE id = 10").fetchone()[0] == 15.0


def test_sqlite_split_queries():
    from go_datax_ray.sources.sqldb import build_queries

    qs = build_queries(
        {"table": "t", "column": ["a", "b"], "splitPk": "id", "where": "b > 0"},
        channel=3, min_max=(0, 299),
    )
    assert len(qs) == 3
    assert qs[0] == "SELECT a, b FROM t WHERE (b > 0) AND id >= 0 AND id < 100"
    assert qs[-1].endswith("id >= 200 AND id <= 299")


def test_token_range_split_queries():
    """Cassandra-style token-range split (cassandra_reader.go:155-258):
    contiguous gdr_token(pk) slices, one per channel, covering [0, 2^32)
    exactly once."""
    from go_datax_ray.sources.sqldb import TOKEN_SPACE, build_queries, token_ranges

    toks = token_ranges(4)
    assert toks[0][0] == 0 and toks[-1][1] == TOKEN_SPACE
    for (a, b), (c, _) in zip(toks, toks[1:]):
        assert b == c  # contiguous, no gap/overlap
    qs = build_queries(
        {"table": "t", "column": ["a"], "splitPk": "k", "where": "a > 0"},
        channel=4, tokens=toks,
    )
    assert len(qs) == 4
    assert qs[0] == (
        "SELECT a FROM t WHERE (a > 0) AND gdr_token(k) >= 0 "
        f"AND gdr_token(k) < {TOKEN_SPACE // 4}"
    )
    assert qs[-1].endswith(f"gdr_token(k) >= {3 * (TOKEN_SPACE // 4)}")


def test_token_range_split_end_to_end(tmp_path, ray_session):
    """splitMode=token reads every row exactly once across tasks, on a
    TEXT key (no MIN/MAX pre-query needed — the token is a hash), for
    both DB drivers; the split is roughly balanced."""
    import sqlite3

    from go_datax_ray.sources.sqldb import build_queries, read, token_ranges

    db = str(tmp_path / "tok.db")
    with sqlite3.connect(db) as con:
        con.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v INTEGER)")
        con.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(f"user-{i}", i) for i in range(500)],
        )
        con.commit()
    param = {"path": db, "table": "t", "column": ["k", "v"],
             "splitPk": "k", "splitMode": "token"}
    ds = read(param, channel=4)
    rows = ds.take_all()
    assert sorted(r["v"] for r in rows) == list(range(500))
    # per-slice counts: disjoint cover, no slice empty at 500 keys / 4
    import duckdb

    ddb = str(tmp_path / "tok.duckdb")
    con = duckdb.connect(ddb)
    con.execute("CREATE TABLE t AS SELECT 'user-' || i::VARCHAR AS k, i AS v "
                "FROM range(500) tbl(i)")
    con.close()
    ds2 = read({"path": ddb, "driver": "duckdb", "table": "t",
                "column": ["k", "v"], "splitPk": "k", "splitMode": "token"},
               channel=4)
    assert sorted(r["v"] for r in ds2.take_all()) == list(range(500))
    # balance: every slice sees some rows (hash spreads 500 keys)
    from go_datax_ray.sources.sqldb import _connect

    con = _connect("sqlite", db)
    counts = []
    for q in build_queries(param, channel=4, tokens=token_ranges(4)):
        cq = q.replace("SELECT k, v", "SELECT count(*)")
        counts.append(con.execute(cq).fetchone()[0])
    con.close()
    assert sum(counts) == 500 and min(counts) > 0


def test_orc_round_trip(tmp_path):
    """orcfilewriter -> orcfilereader round trip with column pruning and
    a where filter (the reference's hdfs ORC path, implemented for real)."""
    import duckdb

    src = str(tmp_path / "orc")
    job_w = {
        "job": {
            "content": [
                {
                    "reader": {
                        "name": "parquetreader",
                        "parameter": {
                            "path": "/root/testdata/sf0.001/orders.parquet",
                            "column": ["o_orderkey", "o_custkey", "o_totalprice"],
                        },
                    },
                    "writer": {"name": "orcfilewriter",
                               "parameter": {"path": src, "fileName": "orders"}},
                }
            ]
        }
    }
    res = run_job(job_w)
    assert res.records == 1500
    # idempotent rerun in truncate mode produces the same content-hash files
    job_w["job"]["content"][0]["writer"]["parameter"]["writeMode"] = "truncate"
    res2 = run_job(job_w)
    assert sorted(res2.sink_result["files"]) == sorted(res.sink_result["files"])

    job_r = {
        "job": {
            "setting": {"speed": {"channel": 2}},
            "content": [
                {
                    "reader": {
                        "name": "orcfilereader",
                        "parameter": {
                            "path": src + "/*.orc",
                            "column": ["o_orderkey", "o_totalprice"],
                            "where": [["o_totalprice", ">", 100000.0]],
                        },
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ]
        }
    }
    res3 = run_job(job_r)
    want = duckdb.sql(
        "SELECT count(*) FROM '/root/testdata/sf0.001/orders.parquet' "
        "WHERE o_totalprice > 100000"
    ).fetchone()[0]
    assert res3.records == want


def test_duckdb_reader_writer_round_trip(tmp_path):
    """Second real DB-API engine: duckdbreader with splitPk parallel
    read-only connections -> duckdbwriter."""
    import duckdb

    src = str(tmp_path / "src.duckdb")
    con = duckdb.connect(src)
    con.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, grp VARCHAR, val DOUBLE)")
    con.execute("INSERT INTO t SELECT k, 'g' || (k % 5), k * 2.0 FROM range(300) r(k)")
    con.close()
    dst = str(tmp_path / "dst.duckdb")
    job = {
        "job": {
            "setting": {"speed": {"channel": 3}},
            "content": [
                {
                    "reader": {
                        "name": "duckdbreader",
                        "parameter": {
                            "connection": [{"jdbcUrl": f"jdbc:duckdb:{src}", "table": ["t"]}],
                            "column": ["id", "grp", "val"],
                            "where": "val >= 100",
                            "splitPk": "id",
                        },
                    },
                    "writer": {
                        "name": "duckdbwriter",
                        "parameter": {
                            "path": dst, "driver": "duckdb", "table": "t",
                            "writeMode": "replace",
                            "preSql": "CREATE TABLE IF NOT EXISTS t "
                                      "(id BIGINT PRIMARY KEY, grp VARCHAR, val DOUBLE)",
                        },
                    },
                }
            ]
        }
    }
    res = run_job(job)
    assert res.records == 250  # ids 50..299
    run_job(job)  # idempotent replace
    con = duckdb.connect(dst)
    assert con.execute("SELECT count(*), min(id) FROM t").fetchone() == (250, 50)
    con.close()


def test_sqlite_text_splitpk(tmp_path):
    """TEXT splitPk = the reference's dictionary split: NTILE-sampled
    string boundaries -> disjoint, complete string-range reads."""
    import sqlite3

    db = str(tmp_path / "txt.db")
    with sqlite3.connect(db) as con:
        con.execute("CREATE TABLE t (email TEXT PRIMARY KEY, n INTEGER)")
        con.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(f"user{i:04d}@{chr(97 + i % 17)}.example", i) for i in range(400)],
        )
        con.commit()
    from go_datax_ray.sources.sqldb import build_queries, read

    job = {
        "job": {
            "setting": {"speed": {"channel": 4}},
            "content": [
                {
                    "reader": {
                        "name": "sqlitereader",
                        "parameter": {"path": db, "table": "t",
                                      "column": ["email", "n"], "splitPk": "email"},
                    },
                    "writer": {"name": "streamwriter", "parameter": {"print": False}},
                }
            ]
        }
    }
    res = run_job(job)
    assert res.records == 400
    # quoting: boundaries with single quotes must not break the SQL
    qs = build_queries({"table": "t", "column": ["a"], "splitPk": "a"},
                       channel=2, boundaries=["a'b", "m"])
    assert qs[0] == "SELECT a FROM t WHERE a >= 'a''b' AND a < 'm'"


def test_sqlite_writer_skip_mode(tmp_path):
    """writeMode=skip keeps the FIRST write on PK conflict (the
    reference's conflict-skip config semantics)."""
    import sqlite3

    src = str(tmp_path / "s.db")
    dst = str(tmp_path / "d.db")
    _make_sqlite(src, n=50)
    with sqlite3.connect(dst) as con:
        con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, val REAL)")
        con.execute("INSERT INTO t VALUES (10, 'orig', -1.0)")
        con.commit()
    job = {
        "job": {
            "content": [
                {
                    "reader": {"name": "sqlitereader",
                               "parameter": {"path": src, "table": "t",
                                             "column": ["id", "grp", "val"]}},
                    "writer": {"name": "sqlitewriter",
                               "parameter": {"path": dst, "table": "t",
                                             "writeMode": "skip"}},
                }
            ]
        }
    }
    res = run_job(job)
    assert res.records == 50
    with sqlite3.connect(dst) as con:
        assert con.execute("SELECT count(*) FROM t").fetchone()[0] == 50
        # pre-existing conflicting row SKIPPED, not replaced
        assert con.execute("SELECT grp, val FROM t WHERE id = 10").fetchone() == ("orig", -1.0)


def test_sqlite_writer_poison_row_degraded_retry(tmp_path):
    """A constraint-violating row must not sink the batch: good rows
    land, the poison row is counted (tdengine_writer.go:304-355
    pattern), and errorLimit sees it."""
    import sqlite3

    import pytest

    from go_datax_ray.state.metrics import ErrorLimitExceeded

    src = str(tmp_path / "s.db")
    dst = str(tmp_path / "d.db")
    with sqlite3.connect(src) as con:
        con.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        [(i, None if i == 7 else f"v{i}") for i in range(20)])
        con.commit()
    job = {
        "job": {
            "content": [
                {
                    "reader": {"name": "sqlitereader",
                               "parameter": {"path": src, "table": "t",
                                             "column": ["id", "v"]}},
                    "writer": {"name": "sqlitewriter",
                               "parameter": {"path": dst, "table": "t",
                                             "preSql": "CREATE TABLE t "
                                                       "(id INTEGER, v TEXT NOT NULL)"}},
                }
            ]
        }
    }
    res = run_job(job)
    assert res.records == 19 and res.error_records == 1
    with sqlite3.connect(dst) as con:
        assert con.execute("SELECT count(*) FROM t").fetchone()[0] == 19
    # errorLimit counts writer-side poison rows too
    job["job"]["setting"] = {"errorLimit": {"record": 0}}
    job["job"]["content"][0]["writer"]["parameter"]["preSql"] = [
        "DROP TABLE IF EXISTS t",
        "CREATE TABLE t (id INTEGER, v TEXT NOT NULL)",
    ]
    with pytest.raises(ErrorLimitExceeded):
        run_job(job)


def test_presql_table_placeholder(tmp_path, ray_session):
    """@table in preSql/postSql renders to the target table — the
    reference's renderSqlsWithTable (common.go:187-203)."""
    import sqlite3

    import pyarrow as pa
    import ray.data as rd

    from go_datax_ray.sources.sqldb import write

    db = str(tmp_path / "w.db")
    ds = rd.from_arrow(pa.table({"id": pa.array([1, 2], pa.int64()),
                                 "v": pa.array([10, 20], pa.int64())}))
    res = write(ds, {
        "path": db, "table": "t",
        "preSql": ["CREATE TABLE IF NOT EXISTS @table (id INTEGER PRIMARY KEY, v INTEGER)",
                   "DELETE FROM @table"],
        "postSql": "CREATE INDEX IF NOT EXISTS ix ON @table (v)",
    })
    assert res["records"] == 2
    with sqlite3.connect(db) as con:
        assert con.execute("SELECT count(*) FROM t").fetchone()[0] == 2
        names = [r[1] for r in con.execute("PRAGMA index_list('t')").fetchall()]
    assert "ix" in names


def test_per_jdbcurl_split(tmp_path, ray_session):
    """Per-jdbcUrl split (tdengine_reader.go:196-233): several
    connection URLs read as one unsliced task each, unioned."""
    import sqlite3

    from go_datax_ray.sources.sqldb import read

    paths = []
    for shard in range(3):
        db = str(tmp_path / f"s{shard}.db")
        with sqlite3.connect(db) as con:
            con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            con.executemany(
                "INSERT INTO t VALUES (?, ?)",
                [(i, i) for i in range(shard * 100, shard * 100 + 100)],
            )
            con.commit()
        paths.append(db)
    ds = read({
        "connection": [{"jdbcUrl": [f"jdbc:sqlite:{p}" for p in paths],
                        "table": ["t"]}],
        "column": ["id", "v"],
    }, channel=4)
    assert sorted(r["v"] for r in ds.take_all()) == list(range(300))


def test_python_m_module_entry(tmp_path):
    """`python -m go_datax_ray job.json` — the reference's `datax
    job.json` CLI shape (main.go:23-67) — runs a whole job in a fresh
    process that owns its own Ray session and prints the final stats
    line."""
    import json
    import subprocess
    import sys

    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "job": {"content": [{
            "reader": {"name": "parquetreader", "parameter": {
                "path": "/root/testdata/sf0.001/region.parquet",
                "column": ["r_regionkey", "r_name"]}},
            "writer": {"name": "streamwriter", "parameter": {"print": False}},
        }]}
    }))
    out = subprocess.run(
        [sys.executable, "-m", "go_datax_ray", str(job), "--num-cpus", "2"],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ).stdout
    assert "Total 5 records" in out and "Error 0 records" in out


def test_check_contract_rejects_unknown_query_names():
    """scripts/check_contract.py exits 2 on a name that is not in
    queries(), listing it, instead of running nothing and passing 0/0."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "scripts/check_contract.py", "no_such_sf_dir",
         "lake_point_lookup", "q_lake_point_lookup"],
        capture_output=True, text=True, cwd=root, timeout=120,
    )
    assert out.returncode == 2
    assert "q_lake_point_lookup" in out.stderr and "0/0 passed" not in out.stdout
