import os

import pytest

# AWS env must exist BEFORE ray.init so Ray worker processes inherit it:
# the loopback object-store tests (test_s3_lake.py) start a moto S3
# server on this fixed port, and engine code running inside workers
# resolves endpoint + credentials from the environment when it
# constructs the s3 filesystem (state/s3boto.py). The values are forced,
# not defaulted, so an exported real endpoint or credential can never
# receive test writes.
S3_TEST_PORT = 5553
os.environ.update({
    "AWS_ACCESS_KEY_ID": "testing",
    "AWS_SECRET_ACCESS_KEY": "testing",
    "AWS_DEFAULT_REGION": "us-east-1",
    "AWS_ENDPOINT_URL": f"http://127.0.0.1:{S3_TEST_PORT}",
    "AWS_EC2_METADATA_DISABLED": "true",
})


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
