"""The paper's threshold model as the reference backend.

A calibrated :class:`~repro.core.placement.PlacementModel` already
answers the whole backend surface (it carries ``backend_id`` and
``state_dict``), so this backend hands it out as is: routing through
the backend protocol is *bit-identical* to calling the model (and
therefore to the scalar :class:`~repro.core.oracle.ScalarOracle` —
``tests/backends`` re-proves it through this indirection).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.backends.base import ModelBackend
from repro.core.parameters import ModelParameters
from repro.core.placement import PlacementModel
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlatformDataset
    from repro.topology.platforms import Platform

__all__ = ["ThresholdBackend"]


class ThresholdBackend(ModelBackend):
    """The §III threshold model, calibrated per §IV-A2."""

    @property
    def backend_id(self) -> str:
        return PlacementModel.backend_id

    @property
    def version(self) -> int:
        return 1

    def calibrate(
        self, dataset: "PlatformDataset", platform: "Platform"
    ) -> PlacementModel:
        from repro.core.calibration import calibrate_placement_model

        return calibrate_placement_model(dataset, platform)

    def from_state(self, state: Mapping[str, Any]) -> PlacementModel:
        try:
            return PlacementModel(
                ModelParameters.from_dict(state["local"]),
                ModelParameters.from_dict(state["remote"]),
                nodes_per_socket=int(state["nodes_per_socket"]),
                n_numa_nodes=int(state["n_numa_nodes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"threshold backend state is malformed: {exc}") from exc
