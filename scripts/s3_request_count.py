"""Object-store requests per tail epoch, counted at the S3 endpoint.

Starts a loopback moto S3 server behind a counting WSGI wrapper, builds
a 40k-event base lake on ``s3://`` from a local Parquet WAL (P=32,
``extract_text=True``), then runs three 4k-event tail cycles and prints
one JSON object: the per-type request counts (HEAD, LIST, GET, PUT,
DELETE, POST) of the base backfill and of each cycle, with each cycle's
wall, touched partitions and delta files. The counts are deterministic.

    python scripts/s3_request_count.py [WAL_DIR]

Needs ``moto`` and ``boto3``; starts its own Ray session of 4 CPUs.
"""

from __future__ import annotations

import collections
import json
import os
import socket
import sys
import tempfile
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BASE, TAIL, CYCLES, PARTITIONS = 40_000, 4_000, 3, 32
LAKE = "s3://probe/lake"


def counting_moto(port: int):
    """Start a loopback moto S3 server on ``port`` behind a WSGI wrapper
    that logs every request as ``(type, path)``, the type being the HTTP
    method, or LIST for a bucket listing. Returns ``(server, log)``;
    stop it with ``server.shutdown()``."""
    from moto.server import DomainDispatcherApplication, create_backend_app
    from werkzeug.serving import make_server

    app = DomainDispatcherApplication(create_backend_app)
    log: list[tuple[str, str]] = []

    def counting(environ, start_response):
        method = environ["REQUEST_METHOD"]
        listing = method == "GET" and "list-type" in environ.get("QUERY_STRING", "")
        log.append(("LIST" if listing else method, environ.get("PATH_INFO", "")))
        return app(environ, start_response)

    srv = make_server("127.0.0.1", port, counting, threaded=True)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv, log


def main() -> None:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    # before ray.init, so the Ray workers inherit the endpoint
    os.environ.update({
        "AWS_ACCESS_KEY_ID": "testing", "AWS_SECRET_ACCESS_KEY": "testing",
        "AWS_DEFAULT_REGION": "us-east-1", "AWS_EC2_METADATA_DISABLED": "true",
        "AWS_ENDPOINT_URL": f"http://127.0.0.1:{port}",
    })
    import boto3
    import ray

    srv, log = counting_moto(port)
    boto3.client("s3").create_bucket(Bucket="probe")

    ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from go_datax_ray.pipelines.cdc_replay import ParquetWalSource, ReplayConfig, replay
    from go_datax_ray.state.manifest import Manifest
    from go_datax_ray.synth import EventGen, SynthConfig

    wal = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="wal-")
    os.makedirs(wal, exist_ok=True)
    n = BASE + TAIL * CYCLES
    events = EventGen(SynthConfig(seed=1, n_urls=20_000))(
        pa.table({"id": np.arange(n, dtype=np.int64)}))
    files = []
    for i in range(n // TAIL):
        files.append(os.path.join(wal, f"seg-{i:05d}.parquet"))
        pq.write_table(events.slice(i * TAIL, TAIL), files[-1])
    cfg = ReplayConfig(lake_dir=LAKE, num_partitions=PARTITIONS, epoch_size=BASE,
                       extract_text=True)

    out = {}
    log.clear()
    replay(ParquetWalSource(files, 0, BASE), cfg)
    out["base"] = dict(sorted(collections.Counter(t for t, _ in log).items()))
    for c in range(CYCLES):
        log.clear()
        t0 = time.perf_counter()
        replay(ParquetWalSource(files, 0, BASE + TAIL * (c + 1)), cfg)
        wall = time.perf_counter() - t0
        snap = dict(sorted(collections.Counter(t for t, _ in log).items()))
        delta_files = len({p for t, p in log if t == "PUT" and "/_delta/" in p})
        touched = len(Manifest.load(LAKE).lineage()[-1]["partitions"])
        out[f"cycle{c}"] = {**snap, "total": sum(snap.values()), "wall_s": round(wall, 2),
                            "touched": touched, "delta_files": delta_files}
    print(json.dumps(out))
    ray.shutdown()
    srv.shutdown()


if __name__ == "__main__":
    main()
