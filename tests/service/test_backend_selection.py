"""`backend=` selection over HTTP: explicit backends, the tournament
router, per-backend metrics, and the structured failure modes."""

from __future__ import annotations

import pytest

from repro.core.compiled import DEFAULT_N_MAX, CompiledModel
from repro.core.parameters import ModelParameters
from repro.core.placement import PlacementModel
from repro.errors import ServiceError
from repro.service.registry import ModelEntry, ModelRegistry

RESULT_KEYS = {"comp_parallel", "comm_parallel", "comp_alone", "comm_alone"}


class TestPredictBackends:
    def test_default_counts_under_threshold(self, server):
        client = server.client()
        client.predict("henri", n=8, m_comp=0, m_comm=1)
        queries = client.metrics()["backends"]["queries"]
        assert queries.get("threshold", 0) >= 1

    def test_explicit_threshold_is_the_default_path(self, server):
        client = server.client()
        default = client.predict("henri", n=8, m_comp=0, m_comm=1)
        explicit = client.predict(
            "henri", n=8, m_comp=0, m_comm=1, backend="threshold"
        )
        for key in RESULT_KEYS:
            assert explicit[key] == default[key]

    def test_named_backend_answers_and_echoes(self, server):
        client = server.client()
        answer = client.predict(
            "henri", n=12, m_comp=0, m_comm=0, backend="naive"
        )
        assert answer["backend"] == "naive"
        assert RESULT_KEYS <= set(answer)
        # The naive baseline denies contention: its parallel curves are
        # its alone curves, unlike the threshold default on a contended
        # placement.
        assert answer["comp_parallel"] == answer["comp_alone"]
        default = client.predict("henri", n=12, m_comp=0, m_comm=0)
        assert answer["comm_parallel"] != default["comm_parallel"]
        queries = client.metrics()["backends"]["queries"]
        assert queries["naive"] == 1

    def test_bulk_backend(self, server):
        client = server.client()
        queries = [(n, 0, 0) for n in range(1, 9)]
        results = client.predict_many(
            "henri", queries, backend="langguth-threadfair"
        )
        assert len(results) == 8
        assert [r["n"] for r in results] == [q[0] for q in queries]
        counts = client.metrics()["backends"]["queries"]
        assert counts["langguth-threadfair"] == 8

    def test_tournament_routes_and_counts_winners(self, server):
        client = server.client()
        answer = client.predict(
            "henri", n=4, m_comp=0, m_comm=0, backend="tournament"
        )
        assert answer["backend"] == "tournament"
        counts = client.metrics()["backends"]["queries"]
        assert counts["tournament"] == 1
        routed = {
            k: v for k, v in counts.items() if k.startswith("tournament:")
        }
        assert sum(routed.values()) == 1
        # The routed winner is a concrete registered backend.
        (winner_key,) = routed
        assert winner_key.split(":", 1)[1] != "tournament"

    def test_tournament_agrees_with_its_winner(self, server):
        """A routed answer is bit-identical to asking the winning
        backend directly."""
        client = server.client()
        routed = client.predict(
            "henri", n=6, m_comp=1, m_comm=1, backend="tournament"
        )
        counts = client.metrics()["backends"]["queries"]
        winners = [
            k.split(":", 1)[1]
            for k in counts
            if k.startswith("tournament:")
        ]
        assert len(winners) == 1
        direct = client.predict(
            "henri", n=6, m_comp=1, m_comm=1, backend=winners[0]
        )
        for key in RESULT_KEYS:
            assert routed[key] == direct[key]

    def test_unknown_backend_is_a_structured_400(self, server):
        client = server.client()
        with pytest.raises(ServiceError) as err:
            client.predict(
                "henri", n=4, m_comp=0, m_comm=0, backend="alexnet"
            )
        assert err.value.status == 400
        assert "tournament" in str(err.value)  # lists what is available

    def test_backend_must_be_a_nonempty_string(self, server):
        client = server.client()
        with pytest.raises(ServiceError) as err:
            client.predict("henri", n=4, m_comp=0, m_comm=0, backend="")
        assert err.value.status == 400

    @pytest.mark.parametrize("backend", ["langguth-threadfair", "tournament"])
    def test_core_count_past_the_table_is_a_fast_400(self, server, backend):
        """Langguth's cost is linear in ``n`` (~17 s at 10**7): the
        bound is checked before any backend runs."""
        server.client().calibrate("henri")
        client = server.client(timeout=5.0)
        for n in (DEFAULT_N_MAX + 1, 10**7):
            with pytest.raises(ServiceError) as err:
                client.predict(
                    "henri", n=n, m_comp=0, m_comm=0, backend=backend
                )
            assert err.value.status == 400
            assert f"n_max={DEFAULT_N_MAX}" in err.value.remote_message


class TestAdviseBackends:
    def test_advise_with_backend_echoes_it(self, server):
        client = server.client()
        answer = client.advise(
            "henri",
            comp_bytes=4e10,
            comm_bytes=6e9,
            backend="queueing-ps",
        )
        assert answer["backend"] == "queueing-ps"
        assert answer["recommendations"]
        counts = client.metrics()["backends"]["queries"]
        assert counts["queueing-ps"] == 1

    def test_advise_tournament(self, server):
        client = server.client()
        answer = client.advise(
            "henri", comp_bytes=4e10, comm_bytes=6e9, backend="tournament"
        )
        assert answer["backend"] == "tournament"
        best = answer["recommendations"][0]
        assert best["n_cores"] >= 1
        counts = client.metrics()["backends"]["queries"]
        assert counts["tournament"] == 1
        assert any(k.startswith("tournament:") for k in counts)

    def test_advise_default_has_no_backend_field(self, server):
        client = server.client()
        answer = client.advise("henri", comp_bytes=4e10, comm_bytes=6e9)
        assert "backend" not in answer


class TestEntriesWithoutBackends:
    def test_custom_calibrator_entry_is_a_structured_400(
        self, server_factory
    ):
        """Registry entries built by custom calibrators carry no
        calibrated backends; selecting one must be a client error, not
        a 500."""
        local = ModelParameters(
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
        remote = ModelParameters(
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

        def bare_calibrator(key):
            model = PlacementModel(
                local, remote, nodes_per_socket=1, n_numa_nodes=2
            )
            return ModelEntry(
                key=key,
                platform=None,
                model=model,
                compiled=CompiledModel.compile(model),
            )

        server = server_factory(
            registry=ModelRegistry(calibrator=bare_calibrator)
        )
        client = server.client()
        with pytest.raises(ServiceError) as err:
            client.predict(
                "henri", n=4, m_comp=0, m_comm=0, backend="tournament"
            )
        assert err.value.status == 400
        assert "no calibrated backends" in str(err.value)
        # The default path still answers.
        assert "comp_parallel" in client.predict(
            "henri", n=4, m_comp=0, m_comm=0
        )
