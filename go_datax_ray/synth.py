"""Deterministic synthetic webtext + CDC event generators.

The reference ships a synthetic generator reader (streamreader,
/root/reference/plugins/reader/streamreader/stream_reader.go:119-249:
N tasks x sliceRecordCount rows, per-column constant or random values) —
but seeds it with wall-clock time (stream_reader.go:99-104). Ours is a
pure function of (seed, index) via splitmix64 streams, so the same event
log is reproduced at any parallelism, any batch size, any resume point.

Everything is expressed Ray-Data-first: ``ray.data.range(n)`` gives the
index space; a stateless ``map_batches`` maps index ranges to event rows.
No driver-side loops; generation scales with the cluster.
"""

from __future__ import annotations

import functools
import html as _htmlmod
import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from .hashing import mix_streams, uniform01
from .schema import CDC_EVENT_SCHEMA, CDC_EVENT_SCHEMA_V2

# Small fixed vocabulary for page payloads (deterministic).
_WORDS = (
    "data lake stream batch merge upsert delete insert update replay shard "
    "partition salt skew key value table column schema arrow parquet ray "
    "actor block shuffle commit manifest epoch offset lineage checkpoint "
    "web page crawl index fetch parse extract tokenize corpus sample"
).split()

_LANGS = np.array(["en", "zh", "de", "fr", "es", "ja", "ru", "pt", "unk"])
# skewed language mix, CommonCrawl-ish
_LANG_CDF = np.cumsum(np.array([0.45, 0.12, 0.08, 0.07, 0.07, 0.06, 0.05, 0.05, 0.05]))

_BASE_TS_US = 1672531200_000_000  # 2023-01-01T00:00:00Z in microseconds


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the deterministic generator (all defaults seeded, FIXTURES.md §1-2)."""

    seed: int = 42
    n_urls: int = 1000
    n_domains: int = 100
    # op mix: P(D), P(U); remainder is I (FIXTURES.md §2 default 60/30/10)
    p_delete: float = 0.10
    p_update: float = 0.30
    # timestamps drawn uniformly in [base, base + ts_range_s) — deliberately
    # NOT aligned with lsn order, and coarse enough to create (url, warc_ts)
    # ties so the lsn tiebreak is exercised.
    ts_range_s: int = 86400
    payload_words: int = 24  # distinct words seeding each page's phrase
    # mean html payload size; actual size uniform in [b/2, 3b/2) per event
    # (bench uses KB-scale pages per FIXTURES.md §1; tests stay small)
    payload_bytes: int = 256
    v2: bool = False  # emit additive fetch_status column (schema evolution)


@functools.lru_cache(maxsize=4)
def _url_pool(cfg: SynthConfig) -> np.ndarray:
    """The url population, built once per process per config (read-only).
    Domains are Zipf-skewed: domain id drawn as floor(n_domains * u^3) so
    a handful of hot domains own most urls — hot keys the replay's
    per-batch combiner has to absorb."""
    idx = np.arange(cfg.n_urls, dtype=np.uint64)
    u = uniform01(idx, cfg.seed, 101)
    domain_ids = np.minimum((cfg.n_domains * u**3).astype(np.int64), cfg.n_domains - 1)
    pool = np.array(
        [
            f"https://d{d:04d}.example.org/p/{int(h % np.uint64(1 << 32)):08x}"
            for d, h in zip(domain_ids, mix_streams(idx, cfg.seed, 102))
        ]
    )
    pool.setflags(write=False)
    return pool


def gen_event_batch(indices: np.ndarray, cfg: SynthConfig, url_pool: np.ndarray) -> pa.Table:
    """Pure function: event indices (= lsn) -> Arrow table of CDC events."""
    idx = indices.astype(np.uint64)
    n = len(idx)
    # key choice, skewed toward low url ids (hot keys)
    u_key = uniform01(idx, cfg.seed, 1)
    url_ids = np.minimum((len(url_pool) * u_key**2).astype(np.int64), len(url_pool) - 1)
    urls = url_pool[url_ids]

    u_op = uniform01(idx, cfg.seed, 2)
    ops = np.where(u_op < cfg.p_delete, "D", np.where(u_op < cfg.p_delete + cfg.p_update, "U", "I"))

    # second-resolution timestamps over a bounded range -> ties happen
    ts_us = _BASE_TS_US + (mix_streams(idx, cfg.seed, 3) % np.uint64(cfg.ts_range_s)).astype(
        np.int64
    ) * 1_000_000

    lang_u = uniform01(idx, cfg.seed, 4)
    langs = _LANGS[np.searchsorted(_LANG_CDF, lang_u, side="right").clip(0, len(_LANGS) - 1)]

    # payload: deterministic phrase per event, tiled to a per-event target
    # size (uniform in [b/2, 3b/2) around cfg.payload_bytes)
    nw = 4 + (mix_streams(idx, cfg.seed, 5) % np.uint64(cfg.payload_words)).astype(np.int64)
    word_seed = mix_streams(idx, cfg.seed, 6)
    tgt = (cfg.payload_bytes // 2) + (
        mix_streams(idx, cfg.seed, 8) % np.uint64(max(cfg.payload_bytes, 1))
    ).astype(np.int64)
    is_del = ops == "D"
    htmls: list[bytes | None] = [None] * n
    W = len(_WORDS)
    for i in range(n):
        if is_del[i]:
            continue
        s = int(word_seed[i])
        words = [_WORDS[(s >> (j % 48)) * (j + 1) % W] for j in range(int(nw[i]))]
        phrase = " ".join(words) + ". "
        t = int(tgt[i])
        body = (phrase * (t // len(phrase) + 1))[:t]
        htmls[i] = (
            f"<html><head><title>{urls[i]}</title></head>"
            f'<body><h1>v{int(idx[i])}</h1><p>{body}</p><p class="f">lang={langs[i]}</p></body></html>'
        ).encode("utf-8")

    texts = [None if h is None else extract_text(h) for h in htmls]
    lsn = indices.astype(np.int64)
    cols = {
        "lsn": pa.array(lsn, pa.int64()),
        "src_offset": pa.array(lsn, pa.int64()),
        "op": pa.array(ops, pa.string()),
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts_us, pa.timestamp("us")),
        "html": pa.array(htmls, pa.large_binary()),
        "text": pa.array(texts, pa.large_string()),
        "lang": pa.array([None if d else l for d, l in zip(is_del, langs)], pa.string()),
    }
    schema = CDC_EVENT_SCHEMA
    if cfg.v2:
        status = np.where(
            uniform01(idx, cfg.seed, 7) < 0.95, np.int64(200), np.int64(503)
        )
        cols["fetch_status"] = pa.array([None if d else int(s) for d, s in zip(is_del, status)], pa.int64())
        schema = CDC_EVENT_SCHEMA_V2
    return pa.Table.from_pydict(cols, schema=schema)


_TAG_RE = re.compile(rb"<[^>]*>")
_WS_RE = re.compile(r"\s+")


def extract_text(html_bytes: bytes) -> str:
    """THE fixed text extractor: strip tags, unescape entities, collapse
    whitespace. Byte-identical output per html is the per-row invariant
    demanded by BASELINE.json input_hint — every pipeline stage must call
    exactly this function or the provably-equivalent vectorized
    ``extract_text_batch`` (tests assert equivalence)."""
    no_tags = _TAG_RE.sub(b" ", html_bytes)
    s = _htmlmod.unescape(no_tags.decode("utf-8", errors="replace"))
    return _WS_RE.sub(" ", s).strip()


# Vectorized fast path: rows that are pure printable-ASCII with no HTML
# entities behave identically under Arrow's re2 kernels and Python's re,
# so they take the zero-copy Arrow path; anything else (entities, unicode
# whitespace, control chars, invalid utf-8) falls back to the canonical
# per-row function. test_core asserts batch == per-row on adversarial input.
_NEEDS_PY_RE = r"[&\x00-\x08\x0b\x0e-\x1f\x7f]|[^\x00-\x7f]"


def extract_text_batch(html_arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized extract_text over a (large_)binary array -> large_string,
    byte-identical to the per-row canonical function."""
    import pyarrow.compute as pc

    if isinstance(html_arr, pa.ChunkedArray):
        html_arr = html_arr.combine_chunks()
    try:
        s = html_arr.cast(pa.large_string())  # validates utf-8
    except pa.ArrowInvalid:
        return pa.array(
            [None if h is None else extract_text(h) for h in html_arr.to_pylist()],
            pa.large_string(),
        )
    no_tags = pc.replace_substring_regex(s, pattern=r"<[^>]*>", replacement=" ")
    needs_py = pc.fill_null(pc.match_substring_regex(no_tags, _NEEDS_PY_RE), False)
    # every whitespace run but a lone " " becomes " "; lone spaces, most
    # of the runs between words, are already in their final form
    fast = pc.utf8_trim(
        pc.replace_substring_regex(
            no_tags, pattern=r"[\t\n\r\f\v][ \t\n\r\f\v]*| [ \t\n\r\f\v]+", replacement=" "),
        " ",
    )
    if not pc.any(needs_py).as_py():
        return fast.combine_chunks() if isinstance(fast, pa.ChunkedArray) else fast
    out = fast.to_pylist()
    mask = needs_py.to_pylist()
    raw = html_arr.to_pylist()
    for i, m in enumerate(mask):
        if m and raw[i] is not None:
            out[i] = extract_text(raw[i])
    return pa.array(out, pa.large_string())


def gen_events(batch: pa.Table, cfg: SynthConfig, offset: int = 0) -> pa.Table:
    """Task-pool stage: index batch (``id`` column) -> CDC event batch.
    Stateless, so generation never holds a CPU between batches; the url
    pool comes from the per-process cache."""
    indices = batch.column("id").to_numpy() + offset
    return gen_event_batch(indices, cfg, _url_pool(cfg))


class EventGen:
    """Callable form of ``gen_events`` bound to one config and offset."""

    def __init__(self, cfg: SynthConfig | None = None, offset: int = 0):
        self.cfg = cfg or SynthConfig()
        self.offset = offset
        self.url_pool = _url_pool(self.cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return gen_events(batch, self.cfg, self.offset)


def make_pages_table(cfg: SynthConfig | None = None) -> pa.Table:
    """Initial webtext_pages snapshot (FIXTURES.md §1): exactly one row per
    url of the population, rendered to the lake schema (no CDC envelope).
    Used to preload a lake and as the unit-test base table."""
    cfg = cfg or SynthConfig()
    pool = _url_pool(cfg)
    # one event per url index, ops forced to I, then swap in the pooled urls
    ev = gen_event_batch(
        np.arange(cfg.n_urls, dtype=np.int64),
        SynthConfig(
            seed=cfg.seed,
            n_urls=cfg.n_urls,
            n_domains=cfg.n_domains,
            p_delete=0.0,
            p_update=0.0,
            ts_range_s=cfg.ts_range_s,
            payload_words=cfg.payload_words,
        ),
        pool,
    )
    ev = ev.drop_columns(["url"]).append_column(
        pa.field("url", pa.string()), pa.array(pool, pa.string())
    )
    return ev.select(["url", "warc_ts", "html", "text", "lang"])
