"""Property-based tests (hypothesis) for the pure kernels: these pin
engine semantics against independent definitions on adversarial inputs,
not just fixtures. No Ray needed — everything here is a pure function."""

import hashlib
import zlib

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from go_datax_ray.hashing import crc32_array, md5_lower64_array, partition_ids
from go_datax_ray.stages.codecs import png_decode, png_encode, wav_decode, wav_encode
from go_datax_ray.stages.dedup import ngram_jaccard
from go_datax_ray.stages.windows import _to_cents

texts = st.lists(
    st.one_of(st.none(), st.text(max_size=60)), min_size=0, max_size=40
)


@settings(max_examples=60, deadline=None)
@given(texts)
def test_hash_arrays_match_reference_hashes(vals):
    arr = pa.array(vals, pa.string())
    got_crc = crc32_array(arr)
    want_crc = np.array(
        [0 if v is None else zlib.crc32(v.encode("utf-8")) for v in vals], dtype=np.uint64
    )
    assert (got_crc == want_crc).all()
    got_md5 = md5_lower64_array(arr)
    want_md5 = np.array(
        [0 if v is None else int.from_bytes(hashlib.md5(v.encode()).digest()[8:16], "little")
         for v in vals],
        dtype=np.uint64,
    )
    assert (got_md5 == want_md5).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=64))
def test_partition_ids_stable_and_in_range(keys, p):
    pid = partition_ids(pa.array(keys, pa.string()), p)
    assert ((pid >= 0) & (pid < p)).all()
    # chunking never changes placement (batch-boundary independence)
    half = len(keys) // 2
    chunked = pa.chunked_array(
        [pa.array(keys[:half], pa.string()), pa.array(keys[half:], pa.string())]
    )
    assert (partition_ids(chunked, p) == pid).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=50,
))
def test_cents_rounding_matches_duckdb(vals):
    t = pa.table({"value": pa.array(vals, pa.float64())})
    got = _to_cents(t, "value").column("_cents").to_pylist()
    want = [r[0] for r in duckdb.sql(
        "SELECT CAST(ROUND(v * 100) AS BIGINT) FROM (SELECT unnest(?) AS v)",
        params=[vals],
    ).fetchall()]
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.sampled_from([1, 3, 4]), st.integers(min_value=0, max_value=2**32 - 1))
def test_png_round_trip_property(h, w, ch, seed):
    rng = np.random.default_rng(seed)
    shape = (h, w) if ch == 1 else (h, w, ch)
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    out = png_decode(png_encode(img))
    assert out.shape == img.shape and (out == img).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=500),
       st.sampled_from([8000, 16000, 44100]))
def test_wav_round_trip_property(wave, sr):
    w = np.asarray(wave)
    out, got_sr = wav_decode(wav_encode(w, sr))
    assert got_sr == sr and out.shape == w.shape
    assert np.abs(out - w).max() <= 1.0 / 32000


@settings(max_examples=40, deadline=None)
@given(st.text(max_size=200), st.text(max_size=200))
def test_ngram_jaccard_metric_properties(a, b):
    jab = ngram_jaccard(a, b)
    assert 0.0 <= jab <= 1.0
    assert jab == ngram_jaccard(b, a)  # symmetric
    assert ngram_jaccard(a, a) == 1.0  # reflexive


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 5)), st.integers(0, 3),
                          st.integers(0, 4), st.integers(1, 4)),
                min_size=0, max_size=60),
       st.sampled_from([0.0, 0.05, 0.5, 0.9]))
@example([(1, 2, 3, 1), (0, 0, 0, 2), (1, 2, 3, 4), (None, 0, 0, 1), (None, 1, 0, 1)], 0.0)
@example([(2, 0, 0, 1), (1, 0, 0, 1), (0, 0, 0, 1)], 0.5)
@example([(2, 0, 0, 1), (1, 0, 0, 1), (0, 0, 0, 1)], 0.0)
def test_lww_order_independent(rows, min_reduction):
    """lww_indices / lww_table against a pure-Python LWW. Small value
    ranges force exact (url, warc_ts, lsn) ties, where the first row
    wins; winners come in ascending url order (null url last); _n_ev
    sums per url; below ``min_reduction`` the input comes back as is;
    and the winners do not depend on event arrival order."""
    from go_datax_ray.stages.lww import lww_indices, lww_table

    def build(seq):
        return pa.table({
            "url": pa.array([None if k is None else f"u{k}" for k, _, _, _ in seq], pa.string()),
            "warc_ts": pa.array([ts for _, ts, _, _ in seq], pa.timestamp("us")),
            "lsn": pa.array([lsn for _, _, lsn, _ in seq], pa.int64()),
            "_n_ev": pa.array([n for _, _, _, n in seq], pa.int64()),
            "rid": pa.array(range(len(seq)), pa.int64()),
        })

    best: dict = {}
    nev: dict = {}
    for i, (k, ts, lsn, n) in enumerate(rows):
        if k not in best or (ts, lsn) > rows[best[k]][1:3]:  # strict: first row wins ties
            best[k] = i
        nev[k] = nev.get(k, 0) + n
    keys = sorted(best, key=lambda k: (k is None, k))
    want_rid = [best[k] for k in keys]

    t = build(rows)
    assert lww_indices(t).tolist() == want_rid
    got = lww_table(t)
    assert got.column("rid").to_pylist() == want_rid
    assert got.column("_n_ev").to_pylist() == [nev[k] for k in keys]
    assert got.schema == t.schema

    reduced = lww_table(t, min_reduction=min_reduction)
    if min_reduction > 0 and len(rows) > 1 and len(keys) >= len(rows) * (1 - min_reduction):
        assert reduced is t
    else:
        assert reduced.equals(got)

    cols = ["url", "warc_ts", "lsn", "_n_ev"]
    assert lww_table(build(rows[::-1])).select(cols).equals(got.select(cols))
