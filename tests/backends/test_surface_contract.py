"""One query contract for every model of a machine.

The paper's model, its compiled kernel, the six registered backends and
the tournament router all answer :class:`~repro.core.placement.
PlacementSurface`: they accept and reject exactly the same batch
queries, and their columns equal the per-query scalar answers bit for
bit on every archived platform.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import backend_ids
from repro.backends.tournament import TournamentRouter, run_platform_tournament
from repro.core import CompiledModel
from repro.core.placement import POINT_COLUMNS, PointPrediction
from repro.errors import PlacementError

SURFACES = ("placement", "compiled", *backend_ids(), "tournament")


@pytest.fixture(scope="module")
def surfaces(all_experiments, seeded_config):
    """platform -> surface name -> the model answering it."""
    out = {}
    for platform, experiment in all_experiments.items():
        run = run_platform_tournament(experiment, config=seeded_config)
        out[platform] = {
            "placement": experiment.model,
            "compiled": CompiledModel.compile(experiment.model, n_max=64),
            **run.calibrated,
            "tournament": TournamentRouter(run.tournament, run.calibrated),
        }
    return out


def _scalar_source(models, name, n, m_comp, m_comm):
    """Whose scalar curves a query's row must reproduce: the live model
    behind the compiled tables, the routed winner of a tournament
    query, else the surface itself."""
    if name == "compiled":
        return models["placement"]
    if name == "tournament":
        return models[models[name].winner_for(n, m_comp, m_comm)]
    return models[name]


REJECTED = {
    "bool core count": (True, 0, 0),
    "bool node": (4, True, 0),
    "float node": (4, 0.0, 0),
    "negative core count": (-1, 0, 0),
    "non-integral core count": (2.5, 0, 0),
    "nan core count": (float("nan"), 0, 0),
    "string core count": ("4", 0, 0),
    "out-of-range node": (4, 0, 99),
    "pair": (4, 0),
    "quadruple": (4, 0, 0, 0),
    "scalar": 4,
}


@pytest.mark.parametrize("name", SURFACES)
class TestContract:
    @pytest.mark.parametrize("bad", REJECTED.values(), ids=REJECTED.keys())
    def test_rejects_naming_the_query(self, surfaces, name, bad):
        surface = surfaces["henri"][name]
        for method in (surface.predict_columns, surface.predict_batch):
            with pytest.raises(PlacementError, match="batch query 1"):
                method([(4, 0, 0), bad])

    def test_accepts_integral_floats_and_numpy_integers(
        self, surfaces, name
    ):
        surface = surfaces["henri"][name]
        plain = surface.predict_batch([(4, 0, 1)])
        assert surface.predict_batch([(4.0, 0, 1)]) == plain
        assert surface.predict_batch([(np.int64(4), np.int8(0), 1)]) == plain
        point = surface.predict_batch([(4, 0, 1)])[0]
        assert type(point.n) is int and type(point.m_comp) is int

    def test_empty_batch_gives_zero_length_columns(self, surfaces, name):
        surface = surfaces["henri"][name]
        columns = surface.predict_columns([])
        assert list(columns) == list(POINT_COLUMNS)
        assert all(len(column) == 0 for column in columns.values())
        assert surface.predict_batch([]) == []

    def test_columns_equal_scalar_queries_on_every_platform(
        self, surfaces, name
    ):
        rng = np.random.default_rng(14)
        for platform, models in surfaces.items():
            surface = models[name]
            k = surface.n_numa_nodes
            queries = [
                (int(n), int(mc), int(mm))
                for n, mc, mm in zip(
                    rng.integers(0, 41, 300),
                    rng.integers(0, k, 300),
                    rng.integers(0, k, 300),
                )
            ]
            columns = surface.predict_columns(queries)
            points = surface.predict_batch(queries)
            for i, (n, mc, mm) in enumerate(queries):
                source = _scalar_source(models, name, n, mc, mm)
                expected = PointPrediction(
                    n,
                    mc,
                    mm,
                    source.comp_parallel(n, mc, mm),
                    source.comm_parallel(n, mc, mm),
                    source.comp_alone(n, mc),
                    source.comm_alone(mm),
                )
                where = (platform, name, n, mc, mm)
                assert points[i] == expected, where
                row = tuple(columns[c][i].item() for c in POINT_COLUMNS)
                assert row == tuple(expected.to_dict().values()), where
