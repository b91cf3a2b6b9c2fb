"""The compiled kernel wired through the serving tier.

Covers the compiled-prediction PR end to end at the service layer:
calibration produces a compiled table (persisted when a cache dir is
configured, in-memory otherwise), the server answers bulk and scalar
queries out of it bit-identically to the live model, the ``compiled``
metrics block counts table hits, and a core count past the table is a
400.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bench import SweepConfig
from repro.core import load_compiled
from repro.core.compiled import DEFAULT_N_MAX
from repro.evaluation import run_platform_experiment
from repro.pipeline import ArtifactStore, config_fingerprint
from repro.service.client import ServiceResponseError
from repro.service.registry import ModelRegistry

PLATFORM = "occigen"


class TestRegistryCompiles:
    def test_default_calibrator_attaches_compiled_model(self):
        registry = ModelRegistry()
        entry = asyncio.run(registry.get(PLATFORM))
        assert entry.compiled is not None
        assert entry.compiled.n_max >= 64
        assert entry.compiled.predict_batch(
            [(8, 0, 1)]
        ) == entry.model.predict_batch([(8, 0, 1)])

    def test_cache_dir_persists_the_compiled_artifact(self, tmp_path):
        registry = ModelRegistry(cache_dir=tmp_path)
        entry = asyncio.run(registry.get(PLATFORM))
        assert entry.compiled is not None
        fingerprint = config_fingerprint(SweepConfig(seed=0))
        stored = load_compiled(
            ArtifactStore(tmp_path), PLATFORM, fingerprint
        )
        assert stored is not None
        query = [(8, 0, 1)]
        assert stored.predict_batch(query) == entry.compiled.predict_batch(
            query
        )

    def test_second_registry_warm_starts_from_the_store(self, tmp_path):
        first = ModelRegistry(cache_dir=tmp_path)
        asyncio.run(first.get(PLATFORM))
        # A fresh registry sharing the store loads the compiled table
        # instead of recompiling (same answers either way; the store
        # copy must at least be valid and complete).
        second = ModelRegistry(cache_dir=tmp_path)
        entry = asyncio.run(second.get(PLATFORM))
        assert entry.compiled is not None
        assert entry.compiled.predict_batch(
            [(12, 1, 0)]
        ) == entry.model.predict_batch([(12, 1, 0)])


class TestServedFromTheTable:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))

    def test_bulk_answers_come_from_the_compiled_table(
        self, server, reference
    ):
        client = server.client()
        client.calibrate(PLATFORM)
        queries = [(n, n % 2, (n + 1) % 2) for n in range(1, 17)]
        rows = client.predict_many(PLATFORM, queries)
        for (n, mc, mm), row in zip(queries, rows):
            assert row["comp_parallel"] == reference.model.comp_parallel(
                n, mc, mm
            )
            assert row["comm_parallel"] == reference.model.comm_parallel(
                n, mc, mm
            )
        compiled = client.metrics()["compiled"]
        assert compiled["table_queries"] >= len(queries)

    def test_scalar_answers_come_from_the_compiled_table(
        self, server, reference
    ):
        client = server.client()
        client.calibrate(PLATFORM)
        row = client.predict(PLATFORM, n=8, m_comp=0, m_comm=1)
        assert row["comp_parallel"] == reference.model.comp_parallel(8, 0, 1)
        compiled = client.metrics()["compiled"]
        assert compiled["table_queries"] >= 1

    def test_past_the_table_is_a_400(self, server):
        client = server.client()
        client.calibrate(PLATFORM)
        before = client.metrics()["compiled"]
        n = DEFAULT_N_MAX + 1
        with pytest.raises(ServiceResponseError) as err:
            client.predict(PLATFORM, n=n, m_comp=0, m_comm=1)
        assert err.value.status == 400
        assert f"n_max={DEFAULT_N_MAX}" in err.value.remote_message
        # A bulk request fails whole, naming the query past the table.
        with pytest.raises(ServiceResponseError) as err:
            client.predict_many(PLATFORM, [(8, 0, 1), (n, 1, 0), (4, 1, 1)])
        assert err.value.status == 400
        assert "query 1" in err.value.remote_message
        after = client.metrics()["compiled"]
        assert after["table_queries"] == before["table_queries"]

    def test_grid_matches_library(self, server, reference):
        client = server.client()
        client.calibrate(PLATFORM)
        grid = client.predict_grid(PLATFORM, [1, 4, 8], placements=[(0, 1)])
        expected = reference.model.predict_grid([1, 4, 8], [(0, 1)])[(0, 1)]
        cell = grid["grid"][0]
        assert cell["comp_parallel"] == expected.comp_parallel.tolist()
        assert cell["comm_parallel"] == expected.comm_parallel.tolist()
