"""Compiled prediction kernel: the model as a flat columnar artifact.

The threshold model is piecewise-linear in ``n``, so a calibrated
:class:`~repro.core.placement.PlacementModel` admits a *finite,
precomputable* answer set: every curve × every placement × every core
count up to the platform limit.  :class:`CompiledModel` materializes
that set once — through the exact same equation-6/7 selection path the
live model uses, so the tables are bit-identical to both
:class:`~repro.core.evaluation.ModelEvaluator` and the scalar
:class:`~repro.core.oracle.ScalarOracle` — and then answers hot-path
queries by pure fancy-indexed lookup.  It answers the shared
:class:`~repro.core.placement.PlacementSurface`: ``predict_columns`` is
its batch path — the shared validator plus four fancy-indexed gathers,
returning raw arrays (what the service's ``/predict`` serializes from);
``predict_grid`` slices every requested placement's rows in one gather
and ``predict`` is its one-placement case; ``predict_batch`` is the
surface's default built on ``predict_columns``.

Queries beyond the compiled ``n_max`` fall back transparently to a
reconstructed live model, so compilation is a pure optimisation, never
a behaviour change.

The on-disk form is one flat, versioned artifact: ``tables.npz``
(dense float64 arrays) + ``compiled.json`` (format version, the two
parameter sets, topology, table bounds).  Stored content-addressed in
the pipeline :class:`~repro.pipeline.store.ArtifactStore` under stage
``"compiled"`` with the *same* config fingerprint as the calibration
that produced it — a parameter change produces a new fingerprint, so a
stale compiled table can never be served for fresh parameters.  A
corrupted or version-mismatched artifact is logged, discarded, and
recompiled (see :func:`load_compiled` / :func:`load_or_compile`).
"""

from __future__ import annotations

import io
import json
import logging
import zipfile
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.evaluation import as_core_counts
from repro.core.parameters import ModelParameters
from repro.core.placement import (
    PlacementModel,
    PlacementPrediction,
    PlacementSurface,
)
from repro.errors import ModelError, PlacementError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.stage import StageKey
    from repro.pipeline.store import ArtifactStore

__all__ = [
    "COMPILED_FORMAT_VERSION",
    "COMPILED_STAGE",
    "COMPILED_STAGE_VERSION",
    "CompiledModel",
    "compiled_key",
    "load_compiled",
    "load_or_compile",
    "store_compiled",
]

log = logging.getLogger("repro.core")

#: Bumped whenever the artifact layout changes; older artifacts are
#: discarded and recompiled rather than misread.
COMPILED_FORMAT_VERSION = 1

#: The artifact-store stage name compiled models live under.
COMPILED_STAGE = "compiled"
COMPILED_STAGE_VERSION = 1

#: Dense tables cover at least this many core counts.  Every archived
#: platform tops out at 64 physical cores, so the default table covers
#: any plausible query while staying ~100 KB per model.
DEFAULT_N_MAX = 256

_TABLES_FILE = "tables.npz"
_MANIFEST_FILE = "compiled.json"

#: Row order of the 3-D table's leading axis.  ``comm_alone`` is
#: constant in ``n`` and stored as its own per-placement vector.
_CURVES = ("comp_parallel", "comm_parallel", "comp_alone")


class CompiledModel(PlacementSurface):
    """Dense per-placement answer tables for one calibrated model.

    ``tables`` has shape ``(3, n_placements, n_max + 1)`` — curve ×
    placement × core count — and ``comm_alone`` shape
    ``(n_placements,)``.  Placements are ordered row-major:
    ``index = m_comp * n_numa_nodes + m_comm``.
    """

    __slots__ = (
        "_local",
        "_remote",
        "_nodes_per_socket",
        "_n_numa_nodes",
        "_n_max",
        "_tables",
        "_comm_alone",
        "_error_average_pct",
        "_live",
    )

    def __init__(
        self,
        *,
        local: ModelParameters,
        remote: ModelParameters,
        nodes_per_socket: int,
        n_numa_nodes: int,
        n_max: int,
        tables: np.ndarray,
        comm_alone: np.ndarray,
        error_average_pct: float = float("nan"),
    ) -> None:
        expected = (len(_CURVES), n_numa_nodes * n_numa_nodes, n_max + 1)
        if tables.shape != expected or tables.dtype != np.float64:
            raise ModelError(
                f"compiled tables must be float64 of shape {expected}, got "
                f"{tables.dtype} {tables.shape}"
            )
        if comm_alone.shape != (expected[1],) or comm_alone.dtype != np.float64:
            raise ModelError(
                f"compiled comm_alone must be float64 of shape ({expected[1]},), "
                f"got {comm_alone.dtype} {comm_alone.shape}"
            )
        self._local = local
        self._remote = remote
        self._nodes_per_socket = nodes_per_socket
        self._n_numa_nodes = n_numa_nodes
        self._n_max = n_max
        self._tables = tables
        self._comm_alone = comm_alone
        self._error_average_pct = float(error_average_pct)
        self._live: PlacementModel | None = None

    # ---- construction ----------------------------------------------------------

    @classmethod
    def compile(
        cls,
        model: PlacementModel,
        *,
        n_max: int = DEFAULT_N_MAX,
        error_average_pct: float = float("nan"),
    ) -> "CompiledModel":
        """Materialize ``model`` into dense tables.

        Each placement row is produced by :meth:`PlacementModel.predict`
        itself — the same equation-6/7 selection every live query takes
        — so the compiled answers are bit-identical to the live model
        (and therefore to the scalar oracle) by construction.
        """
        if n_max < 1:
            raise ModelError(f"compiled n_max must be >= 1, got {n_max}")
        k = model.n_numa_nodes
        ns = np.arange(n_max + 1, dtype=np.int64)
        tables = np.empty((len(_CURVES), k * k, n_max + 1), dtype=np.float64)
        comm_alone = np.empty(k * k, dtype=np.float64)
        for m_comp in range(k):
            for m_comm in range(k):
                row = m_comp * k + m_comm
                pred = model.predict(ns, m_comp, m_comm)
                tables[0, row] = pred.comp_parallel
                tables[1, row] = pred.comm_parallel
                tables[2, row] = pred.comp_alone
                comm_alone[row] = pred.comm_alone
        compiled = cls(
            local=model.local,
            remote=model.remote,
            nodes_per_socket=model.nodes_per_socket,
            n_numa_nodes=k,
            n_max=n_max,
            tables=tables,
            comm_alone=comm_alone,
            error_average_pct=error_average_pct,
        )
        compiled._live = model
        return compiled

    # ---- accessors -------------------------------------------------------------

    @property
    def local(self) -> ModelParameters:
        return self._local

    @property
    def remote(self) -> ModelParameters:
        return self._remote

    @property
    def nodes_per_socket(self) -> int:
        return self._nodes_per_socket

    @property
    def n_numa_nodes(self) -> int:
        return self._n_numa_nodes

    @property
    def n_max(self) -> int:
        """Largest core count answered from the table."""
        return self._n_max

    @property
    def error_average_pct(self) -> float:
        return self._error_average_pct

    @property
    def table_bytes(self) -> int:
        return self._tables.nbytes + self._comm_alone.nbytes

    def placement_model(self) -> PlacementModel:
        """The live model this artifact compiles (reconstructed lazily).

        Used for queries the table cannot answer (``n > n_max``) and by
        consumers that need evaluator access (advise, sensitivity).
        """
        if self._live is None:
            self._live = PlacementModel(
                self._local,
                self._remote,
                nodes_per_socket=self._nodes_per_socket,
                n_numa_nodes=self._n_numa_nodes,
            )
        return self._live

    # ---- hot-path lookups ------------------------------------------------------

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        """One placement's table row sliced at ``core_counts``."""
        return self.predict_grid(core_counts, [(m_comp, m_comm)])[
            (m_comp, m_comm)
        ]

    def predict_grid(
        self,
        core_counts: Sequence[int] | np.ndarray,
        placements: Iterable[tuple[int, int]] | None = None,
    ) -> dict[tuple[int, int], PlacementPrediction]:
        """Every placement (or the given ones) in one table gather; the
        live model answers past ``n_max``."""
        ns = as_core_counts(core_counts, error=PlacementError)
        if int(ns.max()) > self._n_max:
            return self.placement_model().predict_grid(ns, placements)
        k = self._n_numa_nodes
        if placements is None:
            placements = [(mc, mm) for mc in range(k) for mm in range(k)]
        placements = list(placements)
        for m_comp, m_comm in placements:
            self._check_node(m_comp)
            self._check_node(m_comm)
        rows = np.array([mc * k + mm for mc, mm in placements], dtype=np.int64)
        curves = self._tables[:, rows[:, None], ns]
        return {
            (m_comp, m_comm): PlacementPrediction(
                m_comp=m_comp,
                m_comm=m_comm,
                core_counts=ns,
                comp_parallel=curves[0, i],
                comm_parallel=curves[1, i],
                comp_alone=curves[2, i],
                comm_alone=float(self._comm_alone[rows[i]]),
            )
            for i, (m_comp, m_comm) in enumerate(placements)
        }

    def predict_columns(
        self, queries: Sequence[tuple[int, int, int]] | np.ndarray
    ) -> dict[str, np.ndarray]:
        """The zero-object columnar path: the shared validator, then
        four fancy-indexed gathers returning the :data:`POINT_COLUMNS`
        as 1-D arrays in query order.  Queries beyond ``n_max`` are
        gathered at ``n_max`` and then overwritten with the live
        model's answers, so only they pay for the evaluator.
        """
        ns, m_comp, m_comm = self.validate_queries(queries)
        k = self._n_numa_nodes
        rows = m_comp * k + m_comm
        beyond = np.flatnonzero(ns > self._n_max)
        at = np.minimum(ns, self._n_max) if beyond.size else ns
        t = self._tables
        cols = {
            "n": ns,
            "m_comp": m_comp,
            "m_comm": m_comm,
            "comp_parallel": t[0, rows, at],
            "comm_parallel": t[1, rows, at],
            "comp_alone": t[2, rows, at],
            "comm_alone": self._comm_alone[rows],
        }
        if beyond.size:
            live = self.placement_model().predict_columns(
                np.column_stack((ns[beyond], m_comp[beyond], m_comm[beyond]))
            )
            # ``comm_alone`` does not depend on ``n``: the table holds it.
            for curve in _CURVES:
                cols[curve][beyond] = live[curve]
        return cols

    # ---- serialization ---------------------------------------------------------

    def to_payloads(self) -> dict[str, str | bytes]:
        """The flat artifact: ``compiled.json`` text + ``tables.npz`` bytes."""
        buffer = io.BytesIO()
        np.savez(buffer, tables=self._tables, comm_alone=self._comm_alone)
        manifest = {
            "format_version": COMPILED_FORMAT_VERSION,
            "local": self._local.to_dict(),
            "remote": self._remote.to_dict(),
            "nodes_per_socket": self._nodes_per_socket,
            "n_numa_nodes": self._n_numa_nodes,
            "n_max": self._n_max,
            "curves": list(_CURVES),
            "error_average_pct": (
                None
                if np.isnan(self._error_average_pct)
                else self._error_average_pct
            ),
        }
        return {
            _MANIFEST_FILE: json.dumps(manifest, indent=2, sort_keys=True),
            _TABLES_FILE: buffer.getvalue(),
        }

    @classmethod
    def from_payloads(
        cls, payloads: dict[str, str | bytes]
    ) -> "CompiledModel":
        """Reconstruct a compiled model, validating everything.

        Raises :class:`ModelError` on any defect — missing file, bad
        JSON, format-version mismatch, wrong array shape or dtype —
        so callers can log + recompile instead of serving stale or
        corrupt tables.
        """
        manifest_text = payloads.get(_MANIFEST_FILE)
        tables_raw = payloads.get(_TABLES_FILE)
        if not isinstance(manifest_text, str) or not isinstance(
            tables_raw, bytes
        ):
            raise ModelError(
                f"compiled artifact must carry text {_MANIFEST_FILE!r} and "
                f"binary {_TABLES_FILE!r}"
            )
        try:
            manifest = json.loads(manifest_text)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"compiled manifest is not valid JSON ({exc})"
            ) from exc
        if not isinstance(manifest, dict):
            raise ModelError("compiled manifest is not a JSON object")
        if manifest.get("format_version") != COMPILED_FORMAT_VERSION:
            raise ModelError(
                f"compiled format version {manifest.get('format_version')!r} "
                f"!= {COMPILED_FORMAT_VERSION}"
            )
        if manifest.get("curves") != list(_CURVES):
            raise ModelError(
                f"compiled curve order {manifest.get('curves')!r} != "
                f"{list(_CURVES)}"
            )
        try:
            local = ModelParameters.from_dict(manifest["local"])
            remote = ModelParameters.from_dict(manifest["remote"])
            nodes_per_socket = int(manifest["nodes_per_socket"])
            n_numa_nodes = int(manifest["n_numa_nodes"])
            n_max = int(manifest["n_max"])
            error_pct = manifest.get("error_average_pct")
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"compiled manifest is malformed: {exc}") from exc
        try:
            # A truncated .npz surfaces as zipfile.BadZipFile.
            with np.load(io.BytesIO(tables_raw), allow_pickle=False) as npz:
                tables = npz["tables"]
                comm_alone = npz["comm_alone"]
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise ModelError(f"compiled tables are unreadable: {exc}") from exc
        return cls(
            local=local,
            remote=remote,
            nodes_per_socket=nodes_per_socket,
            n_numa_nodes=n_numa_nodes,
            n_max=n_max,
            tables=tables,
            comm_alone=comm_alone,
            error_average_pct=(
                float("nan") if error_pct is None else float(error_pct)
            ),
        )


# ---- artifact-store glue ---------------------------------------------------------
#
# The store lives one layer up (repro.pipeline); imports are deferred so
# repro.core keeps no import-time dependency on it.


def compiled_key(platform: str, fingerprint: str) -> "StageKey":
    """The store address of a compiled model.

    Keyed by the *same* config fingerprint as the calibration that
    produced the parameters: a sweep-config change re-fingerprints and
    therefore recompiles — stale tables can never be served.
    """
    from repro.pipeline.stage import StageKey

    return StageKey(
        platform=platform,
        stage=COMPILED_STAGE,
        version=COMPILED_STAGE_VERSION,
        fingerprint=fingerprint,
    )


def store_compiled(
    store: "ArtifactStore",
    platform: str,
    fingerprint: str,
    compiled: CompiledModel,
) -> None:
    """Persist one compiled model, content-addressed."""
    store.save(
        compiled_key(platform, fingerprint),
        compiled.to_payloads(),
        provenance={
            "platform": platform,
            "n_max": compiled.n_max,
            "table_bytes": compiled.table_bytes,
        },
    )


def load_compiled(
    store: "ArtifactStore", platform: str, fingerprint: str
) -> CompiledModel | None:
    """Load + validate one compiled model; ``None`` means recompile.

    Store-level corruption (checksums, manifest) is already handled by
    the store; this adds the compiled-format validation pass on top.  A
    decodable-but-invalid artifact is logged and discarded so the next
    save replaces it.
    """
    key = compiled_key(platform, fingerprint)
    payloads = store.load(key)
    if payloads is None:
        return None
    try:
        return CompiledModel.from_payloads(payloads)
    except ModelError as exc:
        log.warning(
            "discarding invalid compiled artifact %s: %s", key.entry_id, exc
        )
        store.discard(key)
        return None


def load_or_compile(
    store: "ArtifactStore | None",
    platform: str,
    fingerprint: str,
    model: PlacementModel,
    *,
    n_max: int = DEFAULT_N_MAX,
    error_average_pct: float = float("nan"),
) -> CompiledModel:
    """The compile-on-calibrate entry point.

    Serves the stored artifact when one is present and valid *and*
    large enough, otherwise compiles from ``model`` and (when a store
    is given) publishes the result for every other worker sharing it.
    """
    if store is not None:
        cached = load_compiled(store, platform, fingerprint)
        if cached is not None:
            if cached.n_max >= n_max:
                return cached
            # Too small for the requested range: replace it, or the
            # save below would lose the publish race to the old entry.
            store.discard(compiled_key(platform, fingerprint))
    compiled = CompiledModel.compile(
        model, n_max=n_max, error_average_pct=error_average_pct
    )
    if store is not None:
        store_compiled(store, platform, fingerprint, compiled)
    return compiled
