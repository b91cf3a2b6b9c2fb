"""The compiled prediction kernel: tables vs the scalar oracle, and the
artifact lifecycle (round trip, corruption, version skew, recompile)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CompiledModel, load_compiled, load_or_compile
from repro.core.compiled import (
    COMPILED_FORMAT_VERSION,
    compiled_key,
    store_compiled,
)
from repro.core.oracle import ScalarOracle
from repro.core.placement import PlacementModel
from repro.errors import ModelError, PlacementError
from repro.pipeline import ArtifactStore
from repro.topology import get_platform

N_MAX = 48


def scalar_reference(model: PlacementModel, n: int, m_comp: int, m_comm: int):
    """Equations 6/7 replayed through the scalar oracle — the original
    implementation every faster layer must match bit for bit."""
    local = ScalarOracle(model.local)
    remote = ScalarOracle(model.remote)
    substituted = ScalarOracle(
        model.local.with_comm_nominal(model.remote.b_comm_seq)
    )
    if model.is_remote(m_comp) and m_comp == m_comm:
        comm_side = remote
    elif model.is_remote(m_comm):
        comm_side = substituted
    else:
        comm_side = local
    comp_side = remote if model.is_remote(m_comp) else local
    comp = (
        comp_side.comp_parallel(n)
        if m_comp == m_comm
        else comp_side.comp_alone(n)
    )
    return (
        comp,
        comm_side.comm_parallel(n),
        comp_side.comp_alone(n),
        comm_side.comm_alone(),
    )


class TestBitIdentity:
    def test_matches_scalar_oracle_on_every_platform(self, all_experiments):
        """Every archived platform x every placement x every n: the
        table answer equals the scalar-oracle replay exactly."""
        for name, experiment in all_experiments.items():
            model = experiment.model
            compiled = CompiledModel.compile(model, n_max=N_MAX)
            k = model.n_numa_nodes
            queries = [
                (n, mc, mm)
                for n in range(N_MAX + 1)
                for mc in range(k)
                for mm in range(k)
            ]
            points = compiled.predict_batch(queries)
            for (n, mc, mm), point in zip(queries, points):
                comp, comm, alone, comm_alone = scalar_reference(
                    model, n, mc, mm
                )
                assert point.comp_parallel == comp, (name, n, mc, mm)
                assert point.comm_parallel == comm, (name, n, mc, mm)
                assert point.comp_alone == alone, (name, n, mc, mm)
                assert point.comm_alone == comm_alone, (name, n, mc, mm)

    def test_columns_match_batch(self, all_experiments):
        model = all_experiments["occigen"].model
        compiled = CompiledModel.compile(model, n_max=N_MAX)
        k = model.n_numa_nodes
        queries = [(n, n % k, (n + 1) % k) for n in range(N_MAX + 1)]
        points = compiled.predict_batch(queries)
        columns = compiled.predict_columns(queries)
        assert columns["comp_parallel"].tolist() == [
            p.comp_parallel for p in points
        ]
        assert columns["comm_parallel"].tolist() == [
            p.comm_parallel for p in points
        ]
        assert columns["comm_alone"].tolist() == [p.comm_alone for p in points]
        assert columns["n"].tolist() == [p.n for p in points]

    def test_grid_matches_live_model(self, all_experiments):
        model = all_experiments["henri"].model
        compiled = CompiledModel.compile(model, n_max=N_MAX)
        ns = np.arange(1, N_MAX + 1)
        live = model.predict_grid(ns)
        tabulated = compiled.predict_grid(ns)
        assert set(live) == set(tabulated)
        for key in live:
            assert np.array_equal(
                live[key].comp_parallel, tabulated[key].comp_parallel
            )
            assert np.array_equal(
                live[key].comm_parallel, tabulated[key].comm_parallel
            )
            assert np.array_equal(
                live[key].comp_alone, tabulated[key].comp_alone
            )


class TestFallbackAndValidation:
    @pytest.fixture(scope="class")
    def compiled(self, all_experiments):
        return CompiledModel.compile(
            all_experiments["occigen"].model, n_max=8
        )

    def test_past_n_max_falls_back_to_live_model(self, all_experiments):
        model = all_experiments["occigen"].model
        compiled = CompiledModel.compile(model, n_max=8)
        point = compiled.predict_batch([(20, 0, 1)])[0]
        assert point == model.predict_batch([(20, 0, 1)])[0]
        columns = compiled.predict_columns([(2, 0, 0), (20, 0, 1)])
        assert columns["comp_parallel"][1] == point.comp_parallel
        mixed = [(0, 1, 0), (8, 0, 1), (9, 1, 1), (20, 0, 0), (3, 1, 0)]
        assert compiled.predict_batch(mixed) == model.predict_batch(mixed)
        grid = compiled.predict_grid(np.arange(1, 21), [(0, 1)])
        assert np.array_equal(
            grid[(0, 1)].comp_parallel,
            model.predict_grid(np.arange(1, 21), [(0, 1)])[(0, 1)]
            .comp_parallel,
        )

    def test_rejects_malformed_batches(self, compiled):
        assert compiled.predict_batch([]) == []
        with pytest.raises(PlacementError):
            compiled.predict_batch([(1, 2)])  # not a triple
        with pytest.raises(PlacementError, match="query 1"):
            compiled.predict_batch([(1, 0, 0), (1.5, 0, 0)])
        with pytest.raises(PlacementError, match="query 0"):
            compiled.predict_batch([(-1, 0, 0)])
        with pytest.raises(PlacementError, match="NUMA node"):
            compiled.predict_batch([(1, 0, 99)])

    def test_constructor_rejects_wrong_shapes(self, all_experiments):
        model = all_experiments["occigen"].model
        good = CompiledModel.compile(model, n_max=4)
        payloads = good.to_payloads()
        reloaded = CompiledModel.from_payloads(payloads)
        with pytest.raises(ModelError, match="shape"):
            CompiledModel(
                local=reloaded.local,
                remote=reloaded.remote,
                nodes_per_socket=reloaded.nodes_per_socket,
                n_numa_nodes=reloaded.n_numa_nodes,
                n_max=99,  # does not match the table's last axis
                tables=good.predict_grid([1])[(0, 0)].comp_parallel,
                comm_alone=np.zeros(4),
            )


class TestArtifactRoundTrip:
    def test_payload_round_trip_is_identical(self, all_experiments):
        model = all_experiments["diablo"].model
        compiled = CompiledModel.compile(model, n_max=N_MAX)
        reloaded = CompiledModel.from_payloads(compiled.to_payloads())
        assert reloaded.local == compiled.local
        assert reloaded.remote == compiled.remote
        assert reloaded.n_max == compiled.n_max
        assert reloaded.n_numa_nodes == compiled.n_numa_nodes
        queries = [(n, 0, 1) for n in range(N_MAX + 1)]
        assert reloaded.predict_batch(queries) == compiled.predict_batch(
            queries
        )

    def test_error_average_round_trips_including_nan(self, all_experiments):
        model = all_experiments["occigen"].model
        with_error = CompiledModel.compile(
            model, n_max=4, error_average_pct=3.25
        )
        assert (
            CompiledModel.from_payloads(with_error.to_payloads())
            .error_average_pct
            == 3.25
        )
        without = CompiledModel.compile(model, n_max=4)
        assert np.isnan(
            CompiledModel.from_payloads(without.to_payloads())
            .error_average_pct
        )

    @pytest.mark.parametrize(
        "mutate, defect",
        [
            (lambda p: p.pop("compiled.json"), "must carry"),
            (lambda p: p.update({"compiled.json": "{not json"}), "JSON"),
            (lambda p: p.update({"compiled.json": "[]"}), "JSON object"),
            (
                lambda p: p.update({"tables.npz": p["tables.npz"][:40]}),
                "unreadable",
            ),
            (lambda p: p.update({"tables.npz": b"garbage"}), "unreadable"),
        ],
    )
    def test_defective_payloads_raise_model_error(
        self, all_experiments, mutate, defect
    ):
        compiled = CompiledModel.compile(
            all_experiments["occigen"].model, n_max=4
        )
        payloads = dict(compiled.to_payloads())
        mutate(payloads)
        with pytest.raises(ModelError, match=defect):
            CompiledModel.from_payloads(payloads)

    def test_version_mismatch_raises_model_error(self, all_experiments):
        compiled = CompiledModel.compile(
            all_experiments["occigen"].model, n_max=4
        )
        payloads = dict(compiled.to_payloads())
        manifest = json.loads(payloads["compiled.json"])
        manifest["format_version"] = COMPILED_FORMAT_VERSION + 1
        payloads["compiled.json"] = json.dumps(manifest)
        with pytest.raises(ModelError, match="format version"):
            CompiledModel.from_payloads(payloads)

    def test_curve_order_mismatch_raises_model_error(self, all_experiments):
        compiled = CompiledModel.compile(
            all_experiments["occigen"].model, n_max=4
        )
        payloads = dict(compiled.to_payloads())
        manifest = json.loads(payloads["compiled.json"])
        manifest["curves"] = list(reversed(manifest["curves"]))
        payloads["compiled.json"] = json.dumps(manifest)
        with pytest.raises(ModelError, match="curve order"):
            CompiledModel.from_payloads(payloads)


class TestStoreLifecycle:
    FINGERPRINT = "f" * 16

    def test_store_round_trip(self, tmp_path, all_experiments):
        store = ArtifactStore(tmp_path)
        model = all_experiments["pyxis"].model
        compiled = CompiledModel.compile(model, n_max=N_MAX)
        store_compiled(store, "pyxis", self.FINGERPRINT, compiled)
        loaded = load_compiled(store, "pyxis", self.FINGERPRINT)
        assert loaded is not None
        queries = [(n, 0, 1) for n in range(N_MAX + 1)]
        assert loaded.predict_batch(queries) == compiled.predict_batch(
            queries
        )

    def test_missing_entry_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert load_compiled(store, "pyxis", self.FINGERPRINT) is None

    def test_invalid_artifact_is_logged_and_discarded(
        self, tmp_path, all_experiments, caplog
    ):
        store = ArtifactStore(tmp_path)
        compiled = CompiledModel.compile(
            all_experiments["occigen"].model, n_max=4
        )
        payloads = compiled.to_payloads()
        manifest = json.loads(payloads["compiled.json"])
        manifest["format_version"] = COMPILED_FORMAT_VERSION + 1
        payloads["compiled.json"] = json.dumps(manifest)
        key = compiled_key("occigen", self.FINGERPRINT)
        store.save(key, payloads)
        with caplog.at_level("WARNING", logger="repro.core"):
            assert load_compiled(store, "occigen", self.FINGERPRINT) is None
        assert any(
            "discarding invalid compiled artifact" in r.message
            for r in caplog.records
        )
        # Discarded for real: the store no longer returns the entry.
        assert store.load(key) is None

    def test_load_or_compile_reuses_and_publishes(
        self, tmp_path, all_experiments
    ):
        store = ArtifactStore(tmp_path)
        model = all_experiments["occigen"].model
        first = load_or_compile(
            store, "occigen", self.FINGERPRINT, model, n_max=16
        )
        assert load_compiled(store, "occigen", self.FINGERPRINT) is not None
        second = load_or_compile(
            store, "occigen", self.FINGERPRINT, model, n_max=16
        )
        # Served from the store, not recompiled from the live model.
        assert second.predict_batch([(8, 0, 1)]) == first.predict_batch(
            [(8, 0, 1)]
        )

    def test_load_or_compile_recompiles_when_table_too_small(
        self, tmp_path, all_experiments
    ):
        store = ArtifactStore(tmp_path)
        model = all_experiments["occigen"].model
        load_or_compile(store, "occigen", self.FINGERPRINT, model, n_max=8)
        bigger = load_or_compile(
            store, "occigen", self.FINGERPRINT, model, n_max=32
        )
        assert bigger.n_max == 32
        # The bigger table replaced the stored one (no lost publish).
        assert (
            load_compiled(store, "occigen", self.FINGERPRINT).n_max == 32
        )

    def test_load_or_compile_without_store(self, all_experiments):
        model = all_experiments["occigen"].model
        compiled = load_or_compile(
            None, "occigen", self.FINGERPRINT, model, n_max=8
        )
        assert compiled.n_max == 8


class TestTopologyCoverage:
    def test_default_n_max_covers_every_archived_platform(self):
        from repro.core.compiled import DEFAULT_N_MAX
        from repro.topology import platform_names

        for name in platform_names():
            platform = get_platform(name)
            assert platform.machine.n_cores <= DEFAULT_N_MAX
