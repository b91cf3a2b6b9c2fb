"""Cross-model tournament: score every backend on every regime.

A *regime* is one cell of the evaluation grid the service actually
routes queries into: ``platform × (m_comp, m_comm) placement ×
core-count band`` (``low``/``high`` — below and above the measured
sweep's median core count; saturation behaviour differs qualitatively
across that knee, and so do the backends' strengths).  The tournament

1. calibrates every registered backend from the archived sweep through
   the :class:`~repro.pipeline.store.ArtifactStore`
   (:func:`~repro.backends.store.load_or_calibrate` — second run: all
   cache hits),
2. scores each backend on each regime with the paper's Table II
   methodology (:func:`~repro.evaluation.metrics.mape`; the regime
   score is ``0.5·(comm MAPE + 0.5·(comp_par MAPE + comp_alone
   MAPE))``, lower is better),
3. emits a per-regime winner table, persisted as its own versioned
   artifact (stage ``"tournament"``, fingerprinted by the sweep config
   *and* the full roster, so adding a backend re-runs the tournament).

:class:`TournamentRouter` serves the result: a composite
:class:`~repro.backends.base.CalibratedBackend` that answers every
query with the winning backend of the query's regime — what the
service's ``backend=tournament`` mode runs on.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.backends.base import CalibratedBackend, ModelBackend
from repro.backends.registry import BACKENDS
from repro.backends.store import load_or_calibrate
from repro.core.placement import POINT_COLUMNS
from repro.errors import ModelError
from repro.evaluation.metrics import mape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import SweepConfig
    from repro.bench.results import ModeCurves
    from repro.core.placement import PlacementPrediction
    from repro.evaluation.experiments import ExperimentResult
    from repro.pipeline.stage import StageKey
    from repro.pipeline.store import ArtifactStore

__all__ = [
    "PlatformTournament",
    "RegimeScore",
    "TOURNAMENT_FORMAT_VERSION",
    "TOURNAMENT_STAGE",
    "TOURNAMENT_STAGE_VERSION",
    "TournamentRouter",
    "load_tournament",
    "render_winner_table",
    "run_tournament",
    "score_backends",
    "store_tournament",
    "tournament_fingerprint",
    "tournament_key",
]

log = logging.getLogger("repro.backends")

TOURNAMENT_FORMAT_VERSION = 1
TOURNAMENT_STAGE = "tournament"
TOURNAMENT_STAGE_VERSION = 1

_RESULT_FILE = "tournament.json"

BANDS = ("low", "high")


@dataclass(frozen=True)
class RegimeScore:
    """All backends' scores on one regime, and who won it.

    ``scores`` maps backend id to the regime error (percent, lower is
    better); an unscorable backend (a zero measured bandwidth makes the
    MAPE undefined) carries NaN and cannot win.
    """

    m_comp: int
    m_comm: int
    band: str
    n_min: int
    n_max: int
    scores: Mapping[str, float]
    winner: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "m_comp": self.m_comp,
            "m_comm": self.m_comm,
            "band": self.band,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "scores": {
                k: (None if np.isnan(v) else v)
                for k, v in self.scores.items()
            },
            "winner": self.winner,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegimeScore":
        try:
            scores = {
                str(k): (float("nan") if v is None else float(v))
                for k, v in dict(data["scores"]).items()
            }
            return cls(
                m_comp=int(data["m_comp"]),
                m_comm=int(data["m_comm"]),
                band=str(data["band"]),
                n_min=int(data["n_min"]),
                n_max=int(data["n_max"]),
                scores=scores,
                winner=str(data["winner"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ModelError(f"regime score is malformed: {exc}") from exc


@dataclass(frozen=True)
class PlatformTournament:
    """One platform's full tournament result."""

    platform: str
    roster: tuple[str, ...]
    regimes: tuple[RegimeScore, ...]

    def winners(self) -> dict[tuple[int, int, str], str]:
        """``(m_comp, m_comm, band) -> winning backend id``."""
        return {
            (r.m_comp, r.m_comm, r.band): r.winner for r in self.regimes
        }

    def win_counts(self) -> dict[str, int]:
        """Regimes won per backend (zero-filled over the roster)."""
        counts = {backend_id: 0 for backend_id in self.roster}
        for regime in self.regimes:
            counts[regime.winner] = counts.get(regime.winner, 0) + 1
        return counts

    # ---- serialization ---------------------------------------------------------

    def to_payloads(self) -> dict[str, str]:
        return {
            _RESULT_FILE: json.dumps(
                {
                    "format_version": TOURNAMENT_FORMAT_VERSION,
                    "platform": self.platform,
                    "roster": list(self.roster),
                    "regimes": [r.to_dict() for r in self.regimes],
                },
                indent=2,
                sort_keys=True,
            )
        }

    @classmethod
    def from_payloads(
        cls, payloads: Mapping[str, str | bytes]
    ) -> "PlatformTournament":
        raw = payloads.get(_RESULT_FILE)
        if not isinstance(raw, str):
            raise ModelError(
                f"tournament artifact must carry text {_RESULT_FILE!r}"
            )
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"tournament artifact is not valid JSON ({exc})"
            ) from exc
        if not isinstance(data, dict):
            raise ModelError("tournament artifact is not a JSON object")
        if data.get("format_version") != TOURNAMENT_FORMAT_VERSION:
            raise ModelError(
                f"tournament format version {data.get('format_version')!r} "
                f"!= {TOURNAMENT_FORMAT_VERSION}"
            )
        try:
            return cls(
                platform=str(data["platform"]),
                roster=tuple(str(b) for b in data["roster"]),
                regimes=tuple(
                    RegimeScore.from_dict(r) for r in data["regimes"]
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ModelError(
                f"tournament artifact is malformed: {exc}"
            ) from exc


# ---- scoring ----------------------------------------------------------------------


def _band_indices(core_counts: np.ndarray) -> dict[str, np.ndarray]:
    """Split a measured sweep into the low/high core-count bands.

    The low band is everything up to (and including) the median core
    count; a single-point sweep has only a low band.
    """
    median = float(np.median(core_counts))
    low = np.flatnonzero(core_counts <= median)
    high = np.flatnonzero(core_counts > median)
    bands = {"low": low}
    if high.size:
        bands["high"] = high
    return bands


def _regime_error(
    curves: "ModeCurves", pred: "PlacementPrediction", idx: np.ndarray
) -> float:
    """Table II weighting of one backend on one regime's points."""
    comm_err = mape(curves.comm_parallel[idx], pred.comm_parallel[idx])
    comp_err = 0.5 * (
        mape(curves.comp_parallel[idx], pred.comp_parallel[idx])
        + mape(curves.comp_alone[idx], pred.comp_alone[idx])
    )
    return 0.5 * (comm_err + comp_err)


def score_backends(
    result: "ExperimentResult",
    calibrated: Mapping[str, CalibratedBackend],
) -> PlatformTournament:
    """Score calibrated backends over every regime of one platform."""
    if not calibrated:
        raise ModelError("a tournament needs at least one backend")
    regimes: list[RegimeScore] = []
    dataset = result.dataset
    for key in dataset.sweep:
        curves = dataset.sweep[key]
        predictions = {}
        for backend_id, backend in calibrated.items():
            try:
                predictions[backend_id] = backend.predict(
                    curves.core_counts, *key
                )
            except ModelError as exc:
                log.warning(
                    "backend %s cannot predict placement %s on %s: %s",
                    backend_id,
                    key,
                    dataset.platform_name,
                    exc,
                )
                predictions[backend_id] = None
        for band, idx in _band_indices(curves.core_counts).items():
            scores: dict[str, float] = {}
            for backend_id, pred in predictions.items():
                if pred is None:
                    scores[backend_id] = float("nan")
                    continue
                try:
                    scores[backend_id] = _regime_error(curves, pred, idx)
                except ModelError:
                    # A zero measured bandwidth in this band: the
                    # paper's metric is undefined, nobody can win on it.
                    scores[backend_id] = float("nan")
            finite = {
                b: s for b, s in scores.items() if not np.isnan(s)
            }
            winner = (
                min(finite, key=finite.get)
                if finite
                else next(iter(calibrated))
            )
            regimes.append(
                RegimeScore(
                    m_comp=key[0],
                    m_comm=key[1],
                    band=band,
                    n_min=int(curves.core_counts[idx[0]]),
                    n_max=int(curves.core_counts[idx[-1]]),
                    scores=scores,
                    winner=winner,
                )
            )
    return PlatformTournament(
        platform=dataset.platform_name,
        roster=tuple(calibrated),
        regimes=tuple(regimes),
    )


# ---- artifact-store glue ----------------------------------------------------------


def tournament_fingerprint(
    config_fp: str, backends: Mapping[str, ModelBackend]
) -> str:
    """Sweep config + full roster (ids and code versions): any change
    to either re-runs the tournament."""
    from repro.pipeline.fingerprint import fingerprint_mapping

    return fingerprint_mapping(
        {
            "config_fp": config_fp,
            "roster": {b.backend_id: b.version for b in backends.values()},
        }
    )


def tournament_key(platform: str, fingerprint: str) -> "StageKey":
    from repro.pipeline.stage import StageKey

    return StageKey(
        platform=platform,
        stage=TOURNAMENT_STAGE,
        version=str(TOURNAMENT_STAGE_VERSION),
        fingerprint=fingerprint,
    )


def store_tournament(
    store: "ArtifactStore",
    fingerprint: str,
    tournament: PlatformTournament,
) -> None:
    store.save(
        tournament_key(tournament.platform, fingerprint),
        tournament.to_payloads(),
        provenance={
            "platform": tournament.platform,
            "roster": list(tournament.roster),
            "regimes": len(tournament.regimes),
        },
    )


def load_tournament(
    store: "ArtifactStore", platform: str, fingerprint: str
) -> PlatformTournament | None:
    key = tournament_key(platform, fingerprint)
    payloads = store.load(key)
    if payloads is None:
        return None
    try:
        return PlatformTournament.from_payloads(payloads)
    except ModelError as exc:
        log.warning(
            "discarding invalid tournament artifact %s: %s",
            key.entry_id,
            exc,
        )
        store.discard(key)
        return None


# ---- the runner -------------------------------------------------------------------


@dataclass(frozen=True)
class TournamentRun:
    """One platform's tournament plus how it was obtained."""

    tournament: PlatformTournament
    calibrated: Mapping[str, CalibratedBackend]
    #: backend id -> calibration served from the store
    backend_cached: Mapping[str, bool]
    #: the winner table itself came from the store
    cached: bool


def run_platform_tournament(
    result: "ExperimentResult",
    *,
    config: "SweepConfig | None" = None,
    store: "ArtifactStore | None" = None,
    backends: Mapping[str, ModelBackend] | None = None,
) -> TournamentRun:
    """Calibrate the roster and score it on one platform's archive.

    Every calibration and the winner table itself go through the
    artifact store when one is given; a second run over an unchanged
    archive is pure cache hits.
    """
    from repro.bench.config import SweepConfig
    from repro.pipeline.fingerprint import config_fingerprint

    roster = dict(backends if backends is not None else BACKENDS)
    config_fp = config_fingerprint(config or SweepConfig())
    platform = result.platform

    calibrated: dict[str, CalibratedBackend] = {}
    backend_cached: dict[str, bool] = {}
    for backend_id, backend in roster.items():
        calibrated[backend_id], backend_cached[backend_id] = (
            load_or_calibrate(
                store, backend, result.dataset, platform, config_fp
            )
        )

    fingerprint = tournament_fingerprint(config_fp, roster)
    if store is not None:
        stored = load_tournament(store, platform.name, fingerprint)
        if stored is not None and stored.roster == tuple(roster):
            return TournamentRun(
                tournament=stored,
                calibrated=calibrated,
                backend_cached=backend_cached,
                cached=True,
            )
    tournament = score_backends(result, calibrated)
    if store is not None:
        store_tournament(store, fingerprint, tournament)
    return TournamentRun(
        tournament=tournament,
        calibrated=calibrated,
        backend_cached=backend_cached,
        cached=False,
    )


def run_tournament(
    *,
    platforms: Sequence[str] | None = None,
    config: "SweepConfig | None" = None,
    cache_dir: "str | None" = None,
    store: "ArtifactStore | None" = None,
    backends: Mapping[str, ModelBackend] | None = None,
) -> dict[str, TournamentRun]:
    """The full tournament: every archived platform, every backend."""
    from repro.bench.config import SweepConfig
    from repro.evaluation.experiments import run_platform_experiment
    from repro.pipeline.store import ArtifactStore
    from repro.topology.platforms import platform_names

    if store is None and cache_dir is not None:
        store = ArtifactStore(cache_dir)
    config = config or SweepConfig()
    names = list(platforms) if platforms is not None else list(platform_names())
    runs: dict[str, TournamentRun] = {}
    for name in names:
        result = run_platform_experiment(name, config=config, store=store)
        runs[name] = run_platform_tournament(
            result, config=config, store=store, backends=backends
        )
    return runs


# ---- reporting --------------------------------------------------------------------


def render_winner_table(runs: Mapping[str, TournamentRun | PlatformTournament]) -> str:
    """The per-regime winner table, one row per regime."""
    header = (
        f"{'platform':<16} {'placement':<10} {'band':<5} "
        f"{'cores':<9} {'winner':<22} {'score%':>8}  margin"
    )
    lines = [header, "-" * len(header)]
    totals: dict[str, int] = {}
    n_regimes = 0
    for name in sorted(runs):
        run = runs[name]
        tournament = run.tournament if isinstance(run, TournamentRun) else run
        for regime in tournament.regimes:
            n_regimes += 1
            totals[regime.winner] = totals.get(regime.winner, 0) + 1
            finite = sorted(
                v for v in regime.scores.values() if not np.isnan(v)
            )
            best = regime.scores.get(regime.winner, float("nan"))
            margin = (
                f"+{finite[1] - finite[0]:.1f}" if len(finite) > 1 else "-"
            )
            placement = f"({regime.m_comp},{regime.m_comm})"
            cores = f"{regime.n_min}-{regime.n_max}"
            score = f"{best:.2f}" if not np.isnan(best) else "n/a"
            lines.append(
                f"{tournament.platform:<16} {placement:<10} "
                f"{regime.band:<5} {cores:<9} {regime.winner:<22} "
                f"{score:>8}  {margin}"
            )
    lines.append("")
    won = ", ".join(
        f"{backend}={count}"
        for backend, count in sorted(totals.items(), key=lambda kv: -kv[1])
    )
    lines.append(f"{n_regimes} regimes; wins: {won}")
    return "\n".join(lines)


# ---- the router -------------------------------------------------------------------


class TournamentRouter(CalibratedBackend):
    """A composite backend answering each query with its regime's winner.

    Built from one platform's tournament result plus the calibrated
    roster; per-query routing keys on the placement and on which side
    of the platform's band split the core count falls.  Query counts
    per routed backend accumulate in :attr:`route_counts` (the service
    merges them into ``/metrics``).
    """

    BACKEND_ID = "tournament"

    def __init__(
        self,
        tournament: PlatformTournament,
        calibrated: Mapping[str, CalibratedBackend],
    ) -> None:
        missing = [b for b in tournament.roster if b not in calibrated]
        if missing:
            raise ModelError(
                f"tournament roster lacks calibrated backends: {missing}"
            )
        some = next(iter(calibrated.values()))
        self._nodes_per_socket = some.nodes_per_socket
        self._n_numa_nodes = some.n_numa_nodes
        self._tournament = tournament
        self._calibrated = dict(calibrated)
        self._names = list(self._calibrated)
        #: fallback for unmeasured placements: the roster's overall
        #: most-winning backend.
        counts = tournament.win_counts()
        self._default = max(counts, key=counts.get)
        # Per placement row (``m_comp * k + m_comm``): the low band's
        # top core count and the low/high winners as roster indices.
        # A placement without a high band keeps its low winner above
        # the split; an unmeasured one routes to the default.
        k = self._n_numa_nodes
        default = self._names.index(self._default)
        self._low_n_max = np.zeros(k * k, dtype=np.int64)
        self._low = np.full(k * k, default)
        self._high = np.full(k * k, -1)
        for regime in tournament.regimes:
            row = regime.m_comp * k + regime.m_comm
            winner = self._names.index(regime.winner)
            if regime.band == "low":
                self._low_n_max[row] = regime.n_max
                self._low[row] = winner
            else:
                self._high[row] = winner
        self._high = np.where(self._high < 0, self._low, self._high)
        self.route_counts: dict[str, int] = {}

    @property
    def backend_id(self) -> str:
        return self.BACKEND_ID

    @property
    def tournament(self) -> PlatformTournament:
        return self._tournament

    @property
    def nodes_per_socket(self) -> int:
        return self._nodes_per_socket

    @property
    def n_numa_nodes(self) -> int:
        return self._n_numa_nodes

    # ---- routing ---------------------------------------------------------------

    def _winners(self, ns: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Roster indices of the winners of validated queries."""
        high = ns > self._low_n_max[rows]
        return np.where(high, self._high[rows], self._low[rows])

    def winner_for(self, n: int, m_comp: int, m_comm: int) -> str:
        """The backend id serving one ``(n, m_comp, m_comm)`` query."""
        k = self._n_numa_nodes
        if not (0 <= m_comp < k and 0 <= m_comm < k):
            return self._default
        return self._names[int(self._winners(n, m_comp * k + m_comm))]

    def _backend_for(self, n: int, m_comp: int, m_comm: int) -> CalibratedBackend:
        winner = self.winner_for(n, m_comp, m_comm)
        self.route_counts[winner] = self.route_counts.get(winner, 0) + 1
        return self._calibrated[winner]

    # ---- query surface ---------------------------------------------------------

    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        return self._backend_for(n, m_comp, m_comm).comp_parallel(
            n, m_comp, m_comm
        )

    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        return self._backend_for(n, m_comp, m_comm).comm_parallel(
            n, m_comp, m_comm
        )

    def comp_alone(self, n: int, m_comp: int) -> float:
        return self._backend_for(n, m_comp, m_comp).comp_alone(n, m_comp)

    def comm_alone(self, m_comm: int) -> float:
        # n-independent: the low band's winner answers.
        return self._backend_for(0, m_comm, m_comm).comm_alone(m_comm)

    def predict_columns(
        self, queries: "Sequence[tuple[int, int, int]] | np.ndarray"
    ) -> dict[str, np.ndarray]:
        """Route every query to its regime's winner in one vectorized
        step, then answer each winner's share with its own
        ``predict_columns`` (one route count per query)."""
        ns, m_comp, m_comm = self.validate_queries(queries)
        winners = self._winners(ns, m_comp * self._n_numa_nodes + m_comm)
        cols = {"n": ns, "m_comp": m_comp, "m_comm": m_comm}
        cols.update((name, np.empty(ns.size)) for name in POINT_COLUMNS[3:])
        for winner in np.unique(winners):
            idx = np.flatnonzero(winners == winner)
            name = self._names[winner]
            self.route_counts[name] = self.route_counts.get(name, 0) + idx.size
            part = self._calibrated[name].predict_columns(
                np.column_stack((ns[idx], m_comp[idx], m_comm[idx]))
            )
            for column in POINT_COLUMNS[3:]:
                cols[column][idx] = part[column]
        return cols

    def state_dict(self) -> dict[str, Any]:
        raise ModelError(
            "the tournament router is derived state; persist the "
            "tournament artifact and the roster calibrations instead"
        )
