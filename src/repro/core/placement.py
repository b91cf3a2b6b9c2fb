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
exploits that.

Every model answers the same query surface, :class:`PlacementSurface`:
one batch validator, ``predict_columns`` as the only batch primitive,
and ``predict_batch``/``predict_grid`` built on it.  The selection
rules themselves live once, in :class:`TwoInstantiationModel`, which
the paper's model and the literature backends share.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.core.evaluation import as_core_counts, evaluator_for
from repro.core.model import ContentionModel
from repro.core.parameters import ModelParameters
from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlacementKey, PlatformDataset
    from repro.evaluation.metrics import ErrorBreakdown

__all__ = [
    "POINT_COLUMNS",
    "PlacementModel",
    "PlacementPrediction",
    "PlacementSurface",
    "PointPrediction",
    "TwoInstantiationModel",
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

#: The float columns: everything but the query itself.
_CURVES = POINT_COLUMNS[3:]

#: Equation 7's computation curves -> :meth:`ModelEvaluator.sweep` keys.
_SWEEP_KEYS = {"comp_parallel": "comp_par", "comp_alone": "comp_alone"}


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


_INT64_MAX = int(np.iinfo(np.int64).max)


def _plain_triples(queries: Sequence[object]) -> bool:
    """Every query a length-3 sequence of plain ``int``s (no bools)?"""
    try:
        return set(map(len, queries)) <= {3} and set(
            map(type, chain.from_iterable(queries))
        ) <= {int}
    except TypeError:  # a query that is not a sequence
        return False


class PlacementSurface(abc.ABC):
    """The query surface every model of a machine answers.

    Subclasses provide the topology and either :meth:`predict` (one
    placement over many core counts) or :meth:`predict_columns` (a
    native batch path); each default is built on the other, so a
    subclass must override at least one of them.  Everything else —
    node checks, the batch validator, ``predict_batch`` and
    ``predict_grid`` — is shared, so every model accepts and rejects
    exactly the same queries.
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def nodes_per_socket(self) -> int:
        """The paper's ``#m``."""

    @property
    @abc.abstractmethod
    def n_numa_nodes(self) -> int:
        """NUMA nodes of the modelled machine."""

    def is_remote(self, m: int) -> bool:
        """``m >= #m`` — the comparison used by equations 6 and 7."""
        self._check_node(m)
        return m >= self.nodes_per_socket

    def _check_node(self, m: int) -> None:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise PlacementError(f"NUMA node index must be an integer, got {m!r}")
        if not 0 <= m < self.n_numa_nodes:
            raise PlacementError(
                f"NUMA node {m} out of range (machine has "
                f"{self.n_numa_nodes} nodes)"
            )

    # ---- the one batch validator ---------------------------------------------

    def validate_queries(
        self, queries: Sequence[tuple[int, int, int]] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n, m_comp, m_comm)`` queries -> int64 ``(ns, m_comp, m_comm)``.

        ``n`` must be an integer (integral floats are accepted) and
        ``>= 0``; nodes must be integers in range; booleans are
        rejected everywhere (``True`` would silently mean 1).  Errors
        name the offending query (``batch query i: ...``); an empty
        batch gives zero-length columns.  Python-int triples and int64
        ``(N, 3)`` arrays take a vectorized path; anything else is
        checked query by query.
        """
        arr = None
        if isinstance(queries, np.ndarray):
            if queries.dtype == np.int64 and queries.shape[1:] == (3,):
                arr = queries
            else:
                queries = queries.tolist()
        elif _plain_triples(queries):
            try:
                arr = np.fromiter(
                    chain.from_iterable(queries),
                    dtype=np.int64,
                    count=3 * len(queries),
                ).reshape(-1, 3)
            except OverflowError:  # the exact pass names the query
                pass
        if arr is None:
            arr = np.array(
                [self._check_query(q, i) for i, q in enumerate(queries)],
                dtype=np.int64,
            ).reshape(-1, 3)
        ns, m_comp, m_comm = arr[:, 0], arr[:, 1], arr[:, 2]
        k = self.n_numa_nodes
        bad = (ns < 0) | (m_comp < 0) | (m_comp >= k)
        bad |= (m_comm < 0) | (m_comm >= k)
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            self._check_query(tuple(arr[index]), index)  # raises
        return ns, m_comp, m_comm

    def _check_query(self, query: object, index: int) -> tuple[int, int, int]:
        """One query, checked exactly; raises naming it."""
        where = f"batch query {index}"
        try:
            n, m_comp, m_comm = query  # type: ignore[misc]
        except (TypeError, ValueError):
            raise PlacementError(
                f"{where}: queries must be (n, m_comp, m_comm) triples, "
                f"got {query!r}"
            ) from None
        if isinstance(n, (float, np.floating)):
            if not (np.isfinite(n) and n == int(n)):
                raise PlacementError(
                    f"{where}: core count must be integral, got {n!r}"
                )
            n = int(n)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise PlacementError(
                f"{where}: core count must be an integer, got {n!r}"
            )
        if not 0 <= n <= _INT64_MAX:
            raise PlacementError(
                f"{where}: core count must be >= 0 and fit in int64, got {n}"
            )
        for m in (m_comp, m_comm):
            try:
                self._check_node(m)
            except PlacementError as exc:
                raise PlacementError(f"{where}: {exc}") from None
        return int(n), int(m_comp), int(m_comm)

    # ---- batched queries -----------------------------------------------------

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        """All curves of one placement over ``core_counts``.

        Core counts must be integral (integral floats are accepted);
        non-integral values raise :class:`PlacementError` rather than
        being truncated.  By default one :meth:`predict_columns` call.
        """
        ns = as_core_counts(core_counts, error=PlacementError)
        self._check_node(m_comp)
        self._check_node(m_comm)
        cols = self.predict_columns(
            np.column_stack(
                (ns, np.full_like(ns, m_comp), np.full_like(ns, m_comm))
            )
        )
        return PlacementPrediction(
            m_comp=m_comp,
            m_comm=m_comm,
            core_counts=ns,
            comp_parallel=cols["comp_parallel"],
            comm_parallel=cols["comm_parallel"],
            comp_alone=cols["comp_alone"],
            comm_alone=float(cols["comm_alone"][0]),
        )

    def predict_columns(
        self, queries: Sequence[tuple[int, int, int]] | np.ndarray
    ) -> dict[str, np.ndarray]:
        """Heterogeneous ``(n, m_comp, m_comm)`` queries as one array
        per :data:`POINT_COLUMNS` entry, in query order.

        The only batch primitive.  By default queries are grouped by
        placement and each placement is swept once by :meth:`predict`
        over its distinct core counts, so the answers are bit-identical
        to issuing the scalar queries one at a time.
        """
        ns, m_comp, m_comm = self.validate_queries(queries)
        cols = {"n": ns, "m_comp": m_comp, "m_comm": m_comm}
        cols.update((name, np.empty(ns.size)) for name in _CURVES)
        rows = m_comp * self.n_numa_nodes + m_comm
        for row in np.unique(rows):
            idx = np.flatnonzero(rows == row)
            distinct, inverse = np.unique(ns[idx], return_inverse=True)
            pred = self.predict(
                distinct, int(m_comp[idx[0]]), int(m_comm[idx[0]])
            )
            cols["comp_parallel"][idx] = pred.comp_parallel[inverse]
            cols["comm_parallel"][idx] = pred.comm_parallel[inverse]
            cols["comp_alone"][idx] = pred.comp_alone[inverse]
            cols["comm_alone"][idx] = pred.comm_alone
        return cols

    def predict_batch(
        self, queries: Sequence[tuple[int, int, int]] | np.ndarray
    ) -> list[PointPrediction]:
        """:meth:`predict_columns` as :class:`PointPrediction` objects."""
        cols = self.predict_columns(queries)
        return [
            PointPrediction(*row)
            for row in zip(*(cols[name].tolist() for name in POINT_COLUMNS))
        ]

    def predict_grid(
        self,
        core_counts: Sequence[int] | np.ndarray,
        placements: Iterable[tuple[int, int]] | None = None,
    ) -> dict[tuple[int, int], PlacementPrediction]:
        """Every placement (or the given ones) over ``core_counts``."""
        ns = as_core_counts(core_counts, error=PlacementError)
        if placements is None:
            nodes = range(self.n_numa_nodes)
            placements = [(mc, mm) for mc in nodes for mm in nodes]
        return {
            (m_comp, m_comm): self.predict(ns, m_comp, m_comm)
            for m_comp, m_comm in placements
        }

    # ---- evaluation ------------------------------------------------------------

    def error_report(
        self,
        dataset: "PlatformDataset",
        sample_keys: "Iterable[PlacementKey]",
    ) -> "ErrorBreakdown":
        """The Table II error breakdown of this model on a dataset."""
        from repro.evaluation.metrics import placement_errors

        return placement_errors(dataset, self, sample_keys)


class TwoInstantiationModel(PlacementSurface):
    """Local/remote instantiations selected per placement (§III-C).

    *Sides* are single-placement predictors exposing
    ``comp_parallel(n)`` / ``comm_parallel(n)`` / ``comp_alone(n)`` /
    ``b_comm_seq``; the equations 6/7 rules (:meth:`_select`) pick
    which side, and which computation curve, answers each
    ``(m_comp, m_comm)`` placement.  ``substituted`` is equation 6's
    middle case — the local side with the remote network nominal
    substituted in.
    """

    def __init__(
        self,
        *,
        local: Any,
        remote: Any,
        substituted: Any,
        nodes_per_socket: int,
        n_numa_nodes: int,
    ) -> None:
        if nodes_per_socket < 1:
            raise PlacementError("nodes_per_socket must be >= 1")
        if n_numa_nodes <= nodes_per_socket:
            raise PlacementError(
                "a two-instantiation model needs at least two sockets' "
                f"worth of NUMA nodes, got {n_numa_nodes} with "
                f"{nodes_per_socket} per socket"
            )
        self._local = local
        self._remote = remote
        self._substituted = substituted
        self._nodes_per_socket = nodes_per_socket
        self._n_numa_nodes = n_numa_nodes

    @property
    def nodes_per_socket(self) -> int:
        return self._nodes_per_socket

    @property
    def n_numa_nodes(self) -> int:
        return self._n_numa_nodes

    # ---- equations 6 and 7 ---------------------------------------------------

    def _side(self, m: int) -> Any:
        """The instantiation of node ``m``'s socket."""
        return self._remote if self.is_remote(m) else self._local

    def _select(self, m_comp: int, m_comm: int) -> tuple[Any, str, Any]:
        """``(comp side, comp curve, comm side)`` of one placement.

        Equation 7: the computation side is ``m_comp``'s, and its
        parallel curve applies only when both data sets share a node.
        Equation 6: communications use the remote side when both share
        a remote node, the substituted side for any other remote
        ``m_comm``, and the local side otherwise.
        """
        comp_side = self._side(m_comp)
        comp_curve = "comp_parallel" if m_comp == m_comm else "comp_alone"
        if self.is_remote(m_comp) and m_comp == m_comm:
            comm_side = self._remote
        elif self.is_remote(m_comm):
            comm_side = self._substituted
        else:
            comm_side = self._local
        return comp_side, comp_curve, comm_side

    # ---- scalar queries --------------------------------------------------------

    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """``B_comp_par(n, m_comp, m_comm)`` (Eq. 7)."""
        side, curve, _ = self._select(m_comp, m_comm)
        return float(getattr(side, curve)(n))

    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """``B_comm_par(n, m_comp, m_comm)`` (Eq. 6)."""
        return float(self._select(m_comp, m_comm)[2].comm_parallel(n))

    def comp_alone(self, n: int, m_comp: int) -> float:
        """Computation-alone bandwidth for a placement (Eq. 8 on the
        instantiation selected by ``m_comp``)."""
        return float(self._side(m_comp).comp_alone(n))

    def comm_alone(self, m_comm: int) -> float:
        """Communication-alone bandwidth for a placement."""
        return float(self._side(m_comm).b_comm_seq)

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        """One placement over ``core_counts``, one side query per ``n``."""
        ns = as_core_counts(core_counts, error=PlacementError)
        comp_side, comp_curve, comm_side = self._select(m_comp, m_comm)

        def curve(fn: Any) -> np.ndarray:
            return np.array([float(fn(int(n))) for n in ns])

        return PlacementPrediction(
            m_comp=m_comp,
            m_comm=m_comm,
            core_counts=ns,
            comp_parallel=curve(getattr(comp_side, comp_curve)),
            comm_parallel=curve(comm_side.comm_parallel),
            comp_alone=curve(comp_side.comp_alone),
            comm_alone=self.comm_alone(m_comm),
        )


class PlacementModel(TwoInstantiationModel):
    """The full model of one machine: ``M_local`` + ``M_remote`` + topology.

    Its sides are :class:`ContentionModel` instances, so a sweep is an
    array lookup in their memoized evaluators.  It is also the
    calibrated ``threshold`` backend (``backend_id``, ``state_dict``).
    """

    backend_id = "threshold"

    def __init__(
        self,
        local: ModelParameters,
        remote: ModelParameters,
        *,
        nodes_per_socket: int,
        n_numa_nodes: int,
    ) -> None:
        super().__init__(
            local=ContentionModel(local),
            remote=ContentionModel(remote),
            # Equation 6's middle case: the local model with the remote
            # nominal network bandwidth substituted in.
            substituted=ContentionModel(
                local.with_comm_nominal(remote.b_comm_seq)
            ),
            nodes_per_socket=nodes_per_socket,
            n_numa_nodes=n_numa_nodes,
        )

    @property
    def local(self) -> ModelParameters:
        return self._local.params

    @property
    def remote(self) -> ModelParameters:
        return self._remote.params

    @property
    def model(self) -> "PlacementModel":
        """The live model behind the threshold backend: itself."""
        return self

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        """One placement over ``core_counts`` from the evaluator tables."""
        ns = as_core_counts(core_counts, error=PlacementError)
        comp_side, comp_curve, comm_side = self._select(m_comp, m_comm)
        comp = evaluator_for(comp_side.params).sweep(ns)
        comm = evaluator_for(comm_side.params).sweep(ns)
        return PlacementPrediction(
            m_comp=m_comp,
            m_comm=m_comm,
            core_counts=ns,
            comp_parallel=comp[_SWEEP_KEYS[comp_curve]],
            comm_parallel=comm["comm_par"],
            comp_alone=comp["comp_alone"],
            comm_alone=self.comm_alone(m_comm),
        )

    def state_dict(self) -> dict[str, Any]:
        """JSON-able state; ``ThresholdBackend.from_state`` rebuilds it."""
        return {
            "local": self.local.to_dict(),
            "remote": self.remote.to_dict(),
            "nodes_per_socket": self.nodes_per_socket,
            "n_numa_nodes": self.n_numa_nodes,
        }
