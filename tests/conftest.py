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
def moto_requests():
    """One loopback moto S3 server for the whole session, behind the
    request-counting wrapper of ``scripts/s3_request_count.py``; yields
    its log of ``(type, path)`` requests. Tests create the buckets they
    use."""
    pytest.importorskip("moto")
    pytest.importorskip("boto3")
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "s3_request_count.py")
    spec = importlib.util.spec_from_file_location("s3_request_count", path)
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    srv, log = counter.counting_moto(int(S3_TEST_ENDPOINT.rsplit(":", 1)[1]))
    yield log
    srv.shutdown()


@pytest.fixture(scope="session")
def moto_server(moto_requests):
    """The session's moto S3 endpoint."""
    return S3_TEST_ENDPOINT


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
