"""ModelRegistry: LRU bound, hit accounting, single-flight calibration."""

import asyncio
import threading
import time

import pytest

from repro.core.compiled import CompiledModel
from repro.core.placement import PlacementModel
from repro.core.parameters import ModelParameters
from repro.errors import ServiceError, TopologyError
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelKey, ModelRegistry

LOCAL = ModelParameters(
    n_par_max=8,
    t_par_max=60.0,
    n_seq_max=12,
    t_seq_max=58.0,
    t_par_max2=56.0,
    delta_l=1.0,
    delta_r=0.5,
    b_comp_seq=5.0,
    b_comm_seq=10.0,
    alpha=0.4,
)
REMOTE = ModelParameters(
    n_par_max=6,
    t_par_max=30.0,
    n_seq_max=10,
    t_seq_max=28.0,
    t_par_max2=27.0,
    delta_l=0.75,
    delta_r=0.3,
    b_comp_seq=2.5,
    b_comm_seq=9.0,
    alpha=0.4,
)


class CountingCalibrator:
    """Stand-in calibrator: counts invocations, optionally stalls."""

    def __init__(self, delay_s: float = 0.0):
        self.calls = 0
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def __call__(self, key: ModelKey) -> ModelEntry:
        with self._lock:
            self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        model = PlacementModel(
            LOCAL, REMOTE, nodes_per_socket=1, n_numa_nodes=2
        )
        return ModelEntry(
            key=key,
            platform=None,
            model=model,
            compiled=CompiledModel.compile(model),
        )


class TestBasics:
    def test_miss_then_hits(self):
        calibrator = CountingCalibrator()
        metrics = ServiceMetrics()
        registry = ModelRegistry(metrics=metrics, calibrator=calibrator)

        async def go():
            first = await registry.get("henri")
            second = await registry.get("henri")
            assert first is second

        asyncio.run(go())
        assert calibrator.calls == 1
        assert metrics.registry_misses == 1
        assert metrics.registry_hits == 1
        assert metrics.calibrations_total == 1

    def test_seed_is_part_of_the_key(self):
        calibrator = CountingCalibrator()
        registry = ModelRegistry(calibrator=calibrator)

        async def go():
            await registry.get("henri", seed=0)
            await registry.get("henri", seed=1)

        asyncio.run(go())
        assert calibrator.calls == 2
        assert registry.cached("henri", 0) and registry.cached("henri", 1)

    def test_unknown_platform_rejected_without_calibration(self):
        calibrator = CountingCalibrator()
        registry = ModelRegistry(calibrator=calibrator)
        with pytest.raises(TopologyError, match="unknown platform"):
            asyncio.run(registry.get("bogus"))
        assert calibrator.calls == 0

    def test_max_entries_validated(self):
        with pytest.raises(ServiceError):
            ModelRegistry(max_entries=0)

    def test_lru_eviction(self):
        calibrator = CountingCalibrator()
        metrics = ServiceMetrics()
        registry = ModelRegistry(
            max_entries=2, metrics=metrics, calibrator=calibrator
        )

        async def go():
            await registry.get("henri")
            await registry.get("dahu")
            await registry.get("henri")  # refresh henri's recency
            await registry.get("pyxis")  # evicts dahu, not henri
            assert registry.cached("henri")
            assert registry.cached("pyxis")
            assert not registry.cached("dahu")

        asyncio.run(go())
        assert metrics.registry_evictions == 1
        assert len(registry) == 2

    def test_real_default_calibrator(self):
        """No injected calibrator: a real platform calibrates end to end."""
        registry = ModelRegistry()
        entry = asyncio.run(registry.get("occigen"))
        assert entry.platform.name == "occigen"
        value = entry.model.comp_parallel(8, 0, 1)
        assert value > 0


class TestSingleFlight:
    def test_concurrent_requests_calibrate_exactly_once(self):
        """Acceptance (a): N parallel requests -> one calibration."""
        calibrator = CountingCalibrator(delay_s=0.05)
        metrics = ServiceMetrics()
        registry = ModelRegistry(metrics=metrics, calibrator=calibrator)
        n_clients = 16

        async def go():
            entries = await asyncio.gather(
                *(registry.get("henri") for _ in range(n_clients))
            )
            assert all(e is entries[0] for e in entries)

        asyncio.run(go())
        assert calibrator.calls == 1
        assert metrics.registry_misses == 1
        assert metrics.registry_waits == n_clients - 1
        assert metrics.registry_hits == 0

    def test_failure_is_shared_then_retried(self):
        calls = []

        def flaky(key: ModelKey) -> ModelEntry:
            calls.append(key)
            if len(calls) == 1:
                raise ServiceError("transient calibration failure")
            return CountingCalibrator()(key)

        registry = ModelRegistry(calibrator=flaky)

        async def go():
            results = await asyncio.gather(
                *(registry.get("henri") for _ in range(4)),
                return_exceptions=True,
            )
            # All concurrent callers see the one failure...
            assert all(isinstance(r, ServiceError) for r in results)
            # ...and the failure is not cached: the next call retries.
            entry = await registry.get("henri")
            assert entry.key == ModelKey("henri", 0)

        asyncio.run(go())
        assert len(calls) == 2


class TestPreload:
    def test_preload_hydrates_synchronously(self):
        calibrator = CountingCalibrator()
        metrics = ServiceMetrics()
        registry = ModelRegistry(metrics=metrics, calibrator=calibrator)
        loaded = registry.preload([("henri", 0), ("dahu", 1)])
        assert [e.key for e in loaded] == [
            ModelKey("henri", 0),
            ModelKey("dahu", 1),
        ]
        assert calibrator.calls == 2
        assert metrics.preloads_total == 2
        assert metrics.calibrations_total == 2
        assert registry.cached("henri", 0) and registry.cached("dahu", 1)

    def test_preload_accepts_model_keys(self):
        registry = ModelRegistry(calibrator=CountingCalibrator())
        loaded = registry.preload([ModelKey("henri", 3)])
        assert len(loaded) == 1 and registry.cached("henri", 3)

    def test_preloaded_entry_is_served_without_recalibration(self):
        calibrator = CountingCalibrator()
        registry = ModelRegistry(calibrator=calibrator)
        registry.preload([("henri", 0)])

        async def go():
            return await registry.get("henri", 0)

        entry = asyncio.run(go())
        assert entry.key == ModelKey("henri", 0)
        assert calibrator.calls == 1  # the get() was a pure cache hit

    def test_preload_skips_already_cached_keys(self):
        calibrator = CountingCalibrator()
        metrics = ServiceMetrics()
        registry = ModelRegistry(metrics=metrics, calibrator=calibrator)
        registry.preload([("henri", 0)])
        loaded = registry.preload([("henri", 0), ("dahu", 0)])
        assert [e.key.platform for e in loaded] == ["dahu"]
        assert calibrator.calls == 2
        assert metrics.preloads_total == 2

    def test_preload_respects_the_lru_bound(self):
        metrics = ServiceMetrics()
        registry = ModelRegistry(
            max_entries=2, metrics=metrics, calibrator=CountingCalibrator()
        )
        registry.preload([("henri", 0), ("dahu", 0), ("pyxis", 0)])
        assert len(registry) == 2
        assert not registry.cached("henri", 0)  # oldest evicted
        assert metrics.registry_evictions == 1

    def test_preload_validates_platform_names(self):
        calibrator = CountingCalibrator()
        registry = ModelRegistry(calibrator=calibrator)
        with pytest.raises(TopologyError, match="unknown platform"):
            registry.preload([("bogus", 0)])
        assert calibrator.calls == 0
