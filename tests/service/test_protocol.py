"""Wire-format parsing and the error -> HTTP status mapping."""

import pytest

from repro.errors import (
    AdvisorError,
    ArbitrationError,
    CalibrationError,
    PlacementError,
    ReproError,
    ServiceError,
    TopologyError,
)
from repro.service import protocol


class TestStatusMapping:
    @pytest.mark.parametrize(
        "exc,status",
        [
            (ServiceError("bad"), 400),
            (TopologyError("unknown platform"), 404),
            (PlacementError("node"), 422),
            (AdvisorError("zero"), 422),
            (CalibrationError("fit"), 422),
            (ArbitrationError("infeasible"), 500),  # SimulationError family
            (ReproError("generic"), 500),
            (RuntimeError("not ours"), 500),
        ],
    )
    def test_status(self, exc, status):
        assert protocol.http_status_for(exc) == status

    def test_error_payload_shape(self):
        payload = protocol.error_payload(PlacementError("node 9 out of range"))
        assert payload == {
            "error": {
                "type": "PlacementError",
                "message": "node 9 out of range",
                "status": 422,
            }
        }


class TestParsePredict:
    def test_inline_query(self):
        platform, seed, queries, bulk, backend = protocol.parse_predict(
            {"platform": "henri", "n": 4, "m_comp": 0, "m_comm": 1}
        )
        assert (platform, seed, bulk, backend) == ("henri", 0, False, None)
        assert queries == [(4, 0, 1)]

    def test_bulk_queries(self):
        platform, seed, queries, bulk, backend = protocol.parse_predict(
            {
                "platform": "henri",
                "seed": 3,
                "queries": [
                    {"n": 4, "m_comp": 0, "m_comm": 0},
                    {"n": 8, "m_comp": 1, "m_comm": 0},
                ],
            }
        )
        assert (platform, seed, bulk, backend) == ("henri", 3, True, None)
        assert queries == [(4, 0, 0), (8, 1, 0)]

    def test_backend_selector(self):
        *_, backend = protocol.parse_predict(
            {
                "platform": "henri",
                "n": 4,
                "m_comp": 0,
                "m_comm": 1,
                "backend": "tournament",
            }
        )
        assert backend == "tournament"

    @pytest.mark.parametrize("bad", [7, "", ["overlap"]])
    def test_backend_must_be_nonempty_string(self, bad):
        with pytest.raises(ServiceError, match="backend"):
            protocol.parse_predict(
                {
                    "platform": "henri",
                    "n": 4,
                    "m_comp": 0,
                    "m_comm": 1,
                    "backend": bad,
                }
            )

    def test_mixed_forms_rejected(self):
        with pytest.raises(ServiceError, match="not both"):
            protocol.parse_predict(
                {"platform": "henri", "n": 4, "queries": []}
            )

    @pytest.mark.parametrize(
        "body,match",
        [
            (None, "JSON object"),
            ([1, 2], "JSON object"),
            ({}, "platform"),
            ({"platform": 7}, "string"),
            ({"platform": "henri"}, "missing required field 'n'"),
            ({"platform": "henri", "n": "four"}, "integer"),
            ({"platform": "henri", "n": True}, "integer"),
            ({"platform": "henri", "queries": []}, "non-empty"),
            ({"platform": "henri", "queries": [42]}, r"queries\[0\]"),
        ],
    )
    def test_malformed(self, body, match):
        with pytest.raises(ServiceError, match=match):
            protocol.parse_predict(body)

    def test_integral_float_accepted(self):
        _, _, queries, _, _ = protocol.parse_predict(
            {"platform": "henri", "n": 4.0, "m_comp": 0, "m_comm": 0}
        )
        assert queries == [(4, 0, 0)]
        assert type(queries[0][0]) is int


class TestParseOthers:
    def test_calibrate_defaults_seed(self):
        assert protocol.parse_calibrate({"platform": "dahu"}) == ("dahu", 0)

    def test_predict_grid(self):
        platform, seed, ns, placements = protocol.parse_predict_grid(
            {
                "platform": "dahu",
                "core_counts": [1, 2, 3],
                "placements": [[0, 0], [0, 1]],
            }
        )
        assert (platform, seed) == ("dahu", 0)
        assert ns == [1, 2, 3]
        assert placements == [(0, 0), (0, 1)]

    def test_predict_grid_default_placements(self):
        *_, placements = protocol.parse_predict_grid(
            {"platform": "dahu", "core_counts": [1]}
        )
        assert placements is None

    def test_predict_grid_bad_placement_pair(self):
        with pytest.raises(ServiceError, match=r"placements\[1\]"):
            protocol.parse_predict_grid(
                {
                    "platform": "dahu",
                    "core_counts": [1],
                    "placements": [[0, 0], [1]],
                }
            )

    def test_advise(self):
        parsed = protocol.parse_advise(
            {
                "platform": "dahu",
                "comp_bytes": 1e9,
                "comm_bytes": 2e8,
                "top": 3,
            }
        )
        assert parsed == ("dahu", 0, 1e9, 2e8, 3, None)

    def test_advise_backend(self):
        parsed = protocol.parse_advise(
            {
                "platform": "dahu",
                "comp_bytes": 1e9,
                "comm_bytes": 2e8,
                "backend": "overlap-afzal",
            }
        )
        assert parsed == ("dahu", 0, 1e9, 2e8, 5, "overlap-afzal")

    def test_advise_requires_numbers(self):
        with pytest.raises(ServiceError, match="number"):
            protocol.parse_advise(
                {"platform": "dahu", "comp_bytes": "lots", "comm_bytes": 0}
            )
