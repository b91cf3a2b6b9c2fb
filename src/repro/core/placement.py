"""Combining the local and remote models across placements (§III-C).

Two calibrated instantiations — ``M_local`` (computation and
communication data both on the first NUMA node of socket 0) and
``M_remote`` (both on the first node of socket 1) — predict *every*
``(m_comp, m_comm)`` placement through the selection rules of equations
6 and 7.

Index convention: NUMA nodes are numbered socket-major, computing cores
sit on socket 0, so a node ``m < #m`` (``nodes_per_socket``) is local
and ``m >= #m`` is remote — exactly the comparisons written in the
paper's equations.

The selection rules depend only on the placement, never on ``n``: once
the instantiation is chosen, a whole core-count sweep is one array
lookup in the memoized evaluation layer.  :meth:`PlacementModel.predict`
exploits that, and :meth:`PlacementModel.predict_grid` batches it over
every placement of a machine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from repro.core.evaluation import ModelEvaluator, as_core_counts, evaluator_for
from repro.core.model import ContentionModel
from repro.core.parameters import ModelParameters
from repro.errors import PlacementError

__all__ = [
    "POINT_COLUMNS",
    "PlacementModel",
    "PlacementPrediction",
    "PointPrediction",
]


@dataclass(frozen=True)
class PointPrediction:
    """Model predictions for one ``(n, m_comp, m_comm)`` query."""

    n: int
    m_comp: int
    m_comm: int
    comp_parallel: float
    comm_parallel: float
    comp_alone: float
    comm_alone: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m_comp": self.m_comp,
            "m_comm": self.m_comm,
            "comp_parallel": self.comp_parallel,
            "comm_parallel": self.comm_parallel,
            "comp_alone": self.comp_alone,
            "comm_alone": self.comm_alone,
        }


#: :class:`PointPrediction` fields in order: the keys of ``to_dict`` and
#: the columns every ``predict_columns`` returns.
POINT_COLUMNS = tuple(f.name for f in fields(PointPrediction))


@dataclass(frozen=True)
class PlacementPrediction:
    """Model predictions for one placement over a range of core counts."""

    m_comp: int
    m_comm: int
    core_counts: np.ndarray
    comp_parallel: np.ndarray
    comm_parallel: np.ndarray
    comp_alone: np.ndarray
    comm_alone: float

    def total_parallel(self) -> np.ndarray:
        return self.comp_parallel + self.comm_parallel


class PlacementModel:
    """The full model of one machine: ``M_local`` + ``M_remote`` + topology."""

    def __init__(
        self,
        local: ModelParameters,
        remote: ModelParameters,
        *,
        nodes_per_socket: int,
        n_numa_nodes: int,
    ) -> None:
        if nodes_per_socket < 1:
            raise PlacementError("nodes_per_socket must be >= 1")
        if n_numa_nodes <= nodes_per_socket:
            raise PlacementError(
                "the placement model needs at least two sockets' worth of "
                f"NUMA nodes, got {n_numa_nodes} with {nodes_per_socket} per socket"
            )
        self._local = ContentionModel(local)
        self._remote = ContentionModel(remote)
        # Equation 6's middle case: the local model with the remote
        # nominal network bandwidth substituted in.
        self._local_remote_nominal = ContentionModel(
            local.with_comm_nominal(remote.b_comm_seq)
        )
        self._nodes_per_socket = nodes_per_socket
        self._n_numa_nodes = n_numa_nodes

    # ---- accessors -------------------------------------------------------------

    @property
    def local(self) -> ModelParameters:
        return self._local.params

    @property
    def remote(self) -> ModelParameters:
        return self._remote.params

    @property
    def nodes_per_socket(self) -> int:
        """The paper's ``#m``."""
        return self._nodes_per_socket

    @property
    def n_numa_nodes(self) -> int:
        return self._n_numa_nodes

    def is_remote(self, m: int) -> bool:
        """``m >= #m`` — the comparison used by equations 6 and 7."""
        self._check_node(m)
        return m >= self._nodes_per_socket

    # ---- equation 6 ------------------------------------------------------------

    def _comm_evaluator(self, m_comp: int, m_comm: int) -> ModelEvaluator:
        """The instantiation equation 6 selects for one placement."""
        if self.is_remote(m_comp) and m_comp == m_comm:
            return evaluator_for(self._remote.params)
        if self.is_remote(m_comm):
            return evaluator_for(self._local_remote_nominal.params)
        return evaluator_for(self._local.params)

    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """``B_comm_par(n, m_comp, m_comm)`` (Eq. 6)."""
        self._check_node(m_comp)
        self._check_node(m_comm)
        if self.is_remote(m_comp) and m_comp == m_comm:
            return self._remote.comm_parallel(n)
        if self.is_remote(m_comm):
            return self._local_remote_nominal.comm_parallel(n)
        return self._local.comm_parallel(n)

    # ---- equation 7 ------------------------------------------------------------

    def _comp_selection(self, m_comp: int, m_comm: int) -> tuple[ModelEvaluator, str]:
        """Equation 7: which instantiation, and which of its curves."""
        model = self._remote if self.is_remote(m_comp) else self._local
        curve = "comp_par" if m_comp == m_comm else "comp_alone"
        return evaluator_for(model.params), curve

    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """``B_comp_par(n, m_comp, m_comm)`` (Eq. 7)."""
        self._check_node(m_comp)
        self._check_node(m_comm)
        if not self.is_remote(m_comp):
            if m_comp == m_comm:
                return self._local.comp_parallel(n)
            return self._local.comp_alone(n)
        if m_comp == m_comm:
            return self._remote.comp_parallel(n)
        return self._remote.comp_alone(n)

    # ---- alone predictions --------------------------------------------------------

    def comp_alone(self, n: int, m_comp: int) -> float:
        """Computation-alone bandwidth for a placement (Eq. 8 on the
        instantiation selected by ``m_comp``)."""
        self._check_node(m_comp)
        model = self._remote if self.is_remote(m_comp) else self._local
        return model.comp_alone(n)

    def comm_alone(self, m_comm: int) -> float:
        """Communication-alone bandwidth for a placement."""
        self._check_node(m_comm)
        if self.is_remote(m_comm):
            return self._remote.params.b_comm_seq
        return self._local.params.b_comm_seq

    # ---- sweeps ----------------------------------------------------------------

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        """Predict all curves of one placement over ``core_counts``.

        Core counts must be integral (integral floats are accepted);
        non-integral values raise :class:`PlacementError` rather than
        being truncated.
        """
        ns = as_core_counts(core_counts, error=PlacementError)
        self._check_node(m_comp)
        self._check_node(m_comm)
        comm_eval = self._comm_evaluator(m_comp, m_comm)
        comp_eval, comp_curve = self._comp_selection(m_comp, m_comm)
        alone_model = self._remote if self.is_remote(m_comp) else self._local
        alone_eval = evaluator_for(alone_model.params)
        return PlacementPrediction(
            m_comp=m_comp,
            m_comm=m_comm,
            core_counts=ns,
            comp_parallel=comp_eval.sweep(ns)[comp_curve],
            comm_parallel=comm_eval.sweep(ns)["comm_par"],
            comp_alone=alone_eval.sweep(ns)["comp_alone"],
            comm_alone=self.comm_alone(m_comm),
        )

    def predict_grid(
        self,
        core_counts: Sequence[int] | np.ndarray,
        placements: Iterable[tuple[int, int]] | None = None,
    ) -> dict[tuple[int, int], PlacementPrediction]:
        """Predict every placement (or the given ones) over ``core_counts``.

        The per-parameter-set tables are built at most once and shared
        across the whole grid, so a full ``k × k`` prediction costs a
        handful of array copies.
        """
        ns = as_core_counts(core_counts, error=PlacementError)
        if placements is None:
            nodes = range(self._n_numa_nodes)
            placements = [(mc, mm) for mc in nodes for mm in nodes]
        return {
            (m_comp, m_comm): self.predict(ns, m_comp, m_comm)
            for m_comp, m_comm in placements
        }

    def predict_batch(
        self, queries: Sequence[tuple[int, int, int]]
    ) -> list[PointPrediction]:
        """Answer heterogeneous scalar ``(n, m_comp, m_comm)`` queries in bulk.

        Queries are grouped by placement and each distinct placement is
        evaluated once through :meth:`predict` over its core counts, so
        a batch of scalar queries reuses the same memoized tables as a
        grid sweep.  Results are returned in query order and are
        bit-identical to issuing the scalar queries one at a time.
        """
        groups: dict[tuple[int, int], list[int]] = {}
        for index, query in enumerate(queries):
            if len(query) != 3:
                raise PlacementError(
                    f"batch queries must be (n, m_comp, m_comm) triples, "
                    f"got {query!r}"
                )
            n, m_comp, m_comm = query
            self._check_batch_count(n, index)
            groups.setdefault((m_comp, m_comm), []).append(index)
        results: dict[int, PointPrediction] = {}
        for (m_comp, m_comm), indices in groups.items():
            ns = as_core_counts(
                [queries[i][0] for i in indices], error=PlacementError
            )
            pred = self.predict(ns, m_comp, m_comm)
            for j, i in enumerate(indices):
                results[i] = PointPrediction(
                    n=int(ns[j]),
                    m_comp=m_comp,
                    m_comm=m_comm,
                    comp_parallel=float(pred.comp_parallel[j]),
                    comm_parallel=float(pred.comm_parallel[j]),
                    comp_alone=float(pred.comp_alone[j]),
                    comm_alone=float(pred.comm_alone),
                )
        return [results[i] for i in range(len(queries))]

    @staticmethod
    def _check_batch_count(n: object, index: int) -> None:
        """Validate one query's core count, naming the offending query.

        Booleans are rejected explicitly: ``True`` is an ``int`` in
        Python and would otherwise silently mean 1 core.
        """
        if isinstance(n, (bool, np.bool_)):
            raise PlacementError(
                f"batch query {index}: core count must be an integer, "
                f"got {n!r}"
            )
        if isinstance(n, (float, np.floating)):
            if not (np.isfinite(n) and float(n) == int(n)):
                raise PlacementError(
                    f"batch query {index}: core count must be integral, "
                    f"got {n!r}"
                )
            n = int(n)
        if not isinstance(n, (int, np.integer)):
            raise PlacementError(
                f"batch query {index}: core count must be an integer, "
                f"got {n!r}"
            )
        if n < 0:
            raise PlacementError(
                f"batch query {index}: core count must be >= 0, got {int(n)}"
            )

    # ---- helpers --------------------------------------------------------------

    def _check_node(self, m: int) -> None:
        if not isinstance(m, (int, np.integer)):
            raise PlacementError(f"NUMA node index must be an integer, got {m!r}")
        if not 0 <= m < self._n_numa_nodes:
            raise PlacementError(
                f"NUMA node {m} out of range (machine has "
                f"{self._n_numa_nodes} nodes)"
            )
