"""Every ``/predict`` answer is the library's ``predict_batch``, byte for byte.

One parametrized sweep over every registered backend id, the
``tournament`` router and the default (no ``backend``) path, in both
the scalar and the bulk request form.  The expected body is built from
the library objects exactly as a client would reconstruct it, and the
served bytes must equal its ``json.dumps`` encoding: same keys, same
order, same float bits.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.backends import backend_ids
from repro.backends.tournament import TournamentRouter, run_platform_tournament
from repro.bench import SweepConfig
from repro.core.compiled import DEFAULT_N_MAX
from repro.evaluation import run_platform_experiment

from tests.service.conftest import ServerThread

PLATFORM = "henri"
SEED = 0


@pytest.fixture(scope="module")
def server():
    with ServerThread() as thread:
        yield thread


@pytest.fixture(scope="module")
def library():
    """backend selector -> the library object answering it."""
    config = SweepConfig(seed=SEED)
    result = run_platform_experiment(PLATFORM, config=config)
    run = run_platform_tournament(result, config=config)
    models = {None: result.model, **run.calibrated}
    models["tournament"] = TournamentRouter(run.tournament, run.calibrated)
    return models


@pytest.fixture(scope="module")
def queries(library):
    k = library[None].n_numa_nodes
    # Up to the compiled table's top row; past it /predict answers 400
    # (tests/service/test_compiled_service.py).
    return [(n, mc, mm) for n in (0, 1, 7, 18, DEFAULT_N_MAX)
            for mc in range(k) for mm in range(k)]


def _post(port: int, body: dict) -> bytes:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST",
            "/predict",
            body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw
    finally:
        conn.close()


def _envelope(backend: str | None) -> dict:
    envelope = {"platform": PLATFORM, "seed": SEED}
    # The explicit default is answered exactly like an absent selector.
    if backend not in (None, "threshold"):
        envelope["backend"] = backend
    return envelope


SELECTORS = [None, *backend_ids(), "tournament"]


@pytest.mark.parametrize("backend", SELECTORS, ids=str)
def test_bulk_bytes_equal_library(server, library, queries, backend):
    body = {
        "platform": PLATFORM,
        "seed": SEED,
        "queries": [{"n": n, "m_comp": c, "m_comm": m} for n, c, m in queries],
    }
    if backend is not None:
        body["backend"] = backend
    model = library[None if backend == "threshold" else backend]
    expected = {
        **_envelope(backend),
        "results": [p.to_dict() for p in model.predict_batch(queries)],
    }
    assert _post(server.port, body) == json.dumps(expected).encode()


@pytest.mark.parametrize("backend", SELECTORS, ids=str)
def test_scalar_bytes_equal_library(server, library, queries, backend):
    model = library[None if backend == "threshold" else backend]
    for query in queries[::5] + queries[-1:]:
        n, m_comp, m_comm = query
        body = {"platform": PLATFORM, "seed": SEED, "n": n,
                "m_comp": m_comp, "m_comm": m_comm}
        if backend is not None:
            body["backend"] = backend
        expected = {
            **model.predict_batch([query])[0].to_dict(),
            **_envelope(backend),
        }
        assert _post(server.port, body) == json.dumps(expected).encode()
