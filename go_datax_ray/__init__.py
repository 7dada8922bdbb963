"""go_datax_ray — a Ray-Data-native CDC / incremental-ingest engine.

A from-scratch re-expression of the capabilities of longkeyy/go-datax
(reference at /root/reference, a reader->channel->writer batch sync tool)
as an idiomatic Ray Data streaming pipeline, re-targeted at a CDC workload:

    WAL/binlog-style change events over Common-Crawl-style web pages
    -> url-hash partition, per-batch last-writer-wins combine
    -> per-partition delta files (one exchange, no shuffle operator)
    -> per-key (warc_ts, lsn) last-writer-wins merge into a partitioned
       Parquet lake at content-addressed paths (no data-file rename)
    -> exactly-once commit (create-if-absent commit record + manifest
       pointer swap)
    -> checkpoint-resumable replay with per-partition lineage + metrics.

Nothing here calls ray.init(); the embedding process owns the Ray session.
"""

__version__ = "0.1.0"


def _register_s3_fallback() -> None:
    """Route s3://-family URIs through the boto3-backed fallback when
    s3fs is absent (see state/s3boto.py). Runs at package import so
    every process touching engine code — driver AND Ray workers — agrees
    on the s3 implementation; registration is a lazy string path, so
    boto3 itself only loads on first s3 use. s3fs, when installed, wins."""
    import importlib.util

    if importlib.util.find_spec("s3fs") is not None:
        return
    try:
        import fsspec

        for proto in ("s3", "s3a"):
            fsspec.register_implementation(
                proto, "go_datax_ray.state.s3boto.BotoS3FileSystem", clobber=True
            )
    except ImportError:  # fsspec itself absent: URI paths fail loudly anyway
        pass


_register_s3_fallback()
