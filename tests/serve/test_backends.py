"""The thread and process backends answer alike, errors and stats included.

Every endpoint body runs unchanged on either backend; these tests pin
the parts of an answer that are not a report body: the detail of a 500
and the per-kernel cache counts behind ``GET /kernels``.
"""

import json

import pytest

from repro.serve import ServiceConfig, ServiceThread, default_registry
from repro.serve.kernels import parse_intervals


def _out_of_domain_inputs() -> list[list[float]]:
    """blackscholes' default ranges, each widened 100x about its centre:
    the expiry range then extends below zero and ``sqrt(T)`` fails."""
    entry = default_registry()["blackscholes"]
    wide = []
    for iv in parse_intervals(None, entry):
        width = iv.hi - iv.lo
        wide.append([iv.lo - 49.5 * width, iv.hi + 49.5 * width])
    return wide


def _expected_detail(inputs) -> str:
    entry = default_registry()["blackscholes"]
    with pytest.raises(Exception) as exc_info:
        entry.analyse_in_process(parse_intervals(inputs, entry))
    return f"unhandled error: {exc_info.value!r}"


@pytest.fixture(
    scope="module",
    params=[
        ("thread", 1),
        ("thread", 16),
        ("process", 1),
        ("process", 16),
    ],
    ids=lambda p: f"{p[0]}-max_batch{p[1]}",
)
def service(request):
    backend, max_batch = request.param
    config = ServiceConfig(
        port=0, executor=backend, workers=2, max_batch=max_batch
    )
    with ServiceThread(config=config) as thread:
        yield thread


@pytest.mark.parametrize("endpoint", ["/analyse", "/advise"])
def test_analysis_error_detail_is_the_same_everywhere(service, endpoint):
    inputs = _out_of_domain_inputs()
    expected = _expected_detail(inputs)
    assert "sqrt domain error" in expected
    with service.client() as client:
        status, _, body = client.request_raw(
            "POST", endpoint, {"kernel": "blackscholes", "inputs": inputs}
        )
    assert status == 500
    assert json.loads(body)["error"]["detail"] == expected


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_kernels_cache_counts_every_answered_request(backend):
    config = ServiceConfig(port=0, executor=backend, workers=2)
    with ServiceThread(config=config) as service:
        with service.client() as client:
            for _ in range(4):
                client.analyse_raw("blackscholes")
            for _ in range(2):
                client.advise("blackscholes")
            listing = {k["id"]: k for k in client.kernels()}
    stats = listing["blackscholes"]["cache"]
    assert stats["records"] >= 1
    assert stats["records"] + stats["replays"] + stats["divergences"] == 6
    assert listing["sobel"]["cache"]["records"] == 0
