import os
import socket

import pytest


def _free_loopback_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# AWS env must exist BEFORE ray.init so Ray worker processes inherit it:
# the loopback object-store tests start the session's moto S3 server
# (``moto_server`` below) on this port, and engine code running inside
# workers resolves endpoint + credentials from the environment when it
# constructs the s3 filesystem (state/s3boto.py). The port is taken
# free at import, so parallel sessions do not collide. The values are
# forced, not defaulted, so an exported real endpoint or credential can
# never receive test writes.
S3_TEST_ENDPOINT = f"http://127.0.0.1:{_free_loopback_port()}"
os.environ.update({
    "AWS_ACCESS_KEY_ID": "testing",
    "AWS_SECRET_ACCESS_KEY": "testing",
    "AWS_DEFAULT_REGION": "us-east-1",
    "AWS_ENDPOINT_URL": S3_TEST_ENDPOINT,
    "AWS_EC2_METADATA_DISABLED": "true",
})


@pytest.fixture(scope="session")
def moto_server():
    """One loopback moto S3 server for the whole session; yields its
    endpoint. Tests create the buckets they use."""
    pytest.importorskip("moto")
    pytest.importorskip("boto3")
    from moto.server import ThreadedMotoServer

    port = int(S3_TEST_ENDPOINT.rsplit(":", 1)[1])
    srv = ThreadedMotoServer(ip_address="127.0.0.1", port=port, verbose=False)
    srv.start()
    yield S3_TEST_ENDPOINT
    srv.stop()


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()
