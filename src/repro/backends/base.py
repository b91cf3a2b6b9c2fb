"""The pluggable model-backend protocol.

A *backend* is one analytic treatment of memory contention — the
paper's threshold model, a §II-D baseline, or a competing formulation
from the literature — packaged behind a uniform surface so everything
downstream (pipeline, tournament, service, advisor) can treat "which
model?" as a parameter:

* :class:`ModelBackend` — the uncalibrated family: a stable
  ``backend_id``, a code ``version`` (bumped whenever calibration or
  prediction changes for identical inputs), a config mapping folded
  into the artifact :meth:`~ModelBackend.fingerprint`, and
  ``calibrate(dataset, platform) -> CalibratedBackend``;
* :class:`CalibratedBackend` — one calibrated instance: its identity,
  its scalar curves and its state on top of the shared query surface
  :class:`~repro.core.placement.PlacementSurface` (``predict`` /
  ``predict_batch`` / ``predict_columns`` / ``predict_grid``, one
  validator), so the advisor and
  :func:`~repro.evaluation.metrics.placement_errors` work on any
  backend unchanged;
* :class:`TwoInstantiationBackend` — backends that, like the paper's
  model, calibrate a *local* and a *remote* instantiation and select
  between them per placement with the equations 6/7 rules of
  :class:`~repro.core.placement.TwoInstantiationModel`.

The paper's own model needs no wrapper: a calibrated
:class:`~repro.core.placement.PlacementModel` *is* the ``threshold``
backend (it carries ``backend_id`` and ``state_dict``).

Calibrated backends serialize to a JSON-able ``state_dict`` and
reconstruct via the owning backend's ``from_state`` — the round trip
the artifact store glue (:mod:`repro.backends.store`) relies on.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.placement import PlacementSurface, TwoInstantiationModel
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlatformDataset
    from repro.topology.platforms import Platform

__all__ = [
    "CalibratedBackend",
    "ModelBackend",
    "TwoInstantiationBackend",
    "sample_curves",
]


def sample_curves(
    dataset: "PlatformDataset", platform: "Platform"
) -> "dict[str, Any]":
    """The two calibration placements' curves (§IV-A2), keyed
    ``local``/``remote``.  Raises :class:`ModelError` naming the
    missing placement when the dataset lacks one."""
    from repro.bench.sweep import sample_placements

    local_key, remote_key = sample_placements(platform)
    out = {}
    for side, key in (("local", local_key), ("remote", remote_key)):
        if key not in dataset.sweep:
            raise ModelError(
                f"dataset for {dataset.platform_name!r} lacks the sample "
                f"placement {key}; measured: {dataset.sweep.placements()}"
            )
        out[side] = dataset.sweep[key]
    return out


class CalibratedBackend(PlacementSurface):
    """One backend calibrated for one platform.

    Implementations provide the identity, the topology, the scalar
    curve queries and the state; the batched surfaces come from
    :class:`~repro.core.placement.PlacementSurface`.
    """

    @property
    @abc.abstractmethod
    def backend_id(self) -> str:
        """The owning backend's stable identifier."""

    # ---- scalar queries --------------------------------------------------------

    @abc.abstractmethod
    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """Computation bandwidth with communications running (Eq. 7)."""

    @abc.abstractmethod
    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """Communication bandwidth with ``n`` cores computing (Eq. 6)."""

    @abc.abstractmethod
    def comp_alone(self, n: int, m_comp: int) -> float:
        """Computation-alone bandwidth for a placement."""

    @abc.abstractmethod
    def comm_alone(self, m_comm: int) -> float:
        """Communication-alone bandwidth for a placement."""

    # ---- serialization ---------------------------------------------------------

    @abc.abstractmethod
    def state_dict(self) -> dict[str, Any]:
        """JSON-able state from which ``from_state`` rebuilds this
        instance exactly (the artifact-store round-trip contract)."""


class ModelBackend(abc.ABC):
    """One backend family, uncalibrated."""

    @property
    @abc.abstractmethod
    def backend_id(self) -> str:
        """Stable identifier — artifact keys and API selectors use it."""

    @property
    @abc.abstractmethod
    def version(self) -> int:
        """Bumped whenever calibration or prediction changes for
        identical inputs; participates in the artifact stage version."""

    def config(self) -> Mapping[str, Any]:
        """Backend configuration folded into :meth:`fingerprint`."""
        return {}

    def fingerprint(self, config_fp: str) -> str:
        """Artifact fingerprint: sweep-config fingerprint + backend config.

        Backend id and version live in the stage name / stage version
        of the :class:`~repro.pipeline.stage.StageKey`, so the
        fingerprint only has to capture what *else* influenced the
        calibration: the measurement config and the backend's own knobs.
        """
        from repro.pipeline.fingerprint import fingerprint_mapping

        return fingerprint_mapping(
            {"config_fp": config_fp, "backend_config": dict(self.config())}
        )

    @abc.abstractmethod
    def calibrate(
        self, dataset: "PlatformDataset", platform: "Platform"
    ) -> CalibratedBackend:
        """Calibrate from a platform's measured curves.

        Backends calibrate from the same two sample placements as the
        paper's model (§IV-A2); the rest of the dataset is evaluation
        data and must not leak into calibration.
        """

    @abc.abstractmethod
    def from_state(self, state: Mapping[str, Any]) -> CalibratedBackend:
        """Rebuild a calibrated instance from ``state_dict`` output.

        Raise :class:`~repro.errors.ModelError` on any defect so the
        store glue can discard + recalibrate instead of serving a
        corrupt artifact.
        """


# ---- shared two-instantiation scaffolding -----------------------------------------


class TwoInstantiationBackend(TwoInstantiationModel, CalibratedBackend):
    """A calibrated backend made of local/remote instantiations.

    The placement selection (§III-C) is
    :class:`~repro.core.placement.TwoInstantiationModel`'s; subclasses
    add only their identity and serialization.
    """
