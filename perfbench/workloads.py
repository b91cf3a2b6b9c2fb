"""The four workloads: inputs from the seed, in-process references, phases.

Every input is drawn from ``random.Random(seed)``; the server sees only
the generated request bytes.  The models the server calibrates use the
run's seed too, and the reference answers are computed
in this process for the same (platform, seed) through the public
pipeline (``run_platform_experiment``, ``run_platform_tournament``), so
every answer is checked bit for bit: floats compare exactly.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field

from loadgen import Sample, build_request, closed_loop, open_loop, percentile

__all__ = ["WORKLOADS", "Checker", "Workload"]

#: Cheap-to-calibrate platforms carrying the scalar streams.
SCALAR_PLATFORMS = ("henri", "dahu", "occigen")
ALL_PLATFORMS = ("henri", "henri-subnuma", "dahu", "diablo", "pyxis", "occigen")
#: One block of cold calibrations: every platform, and henri (the paper's
#: reference platform) twice.  Seven per block puts the median inside
#: henri's cluster of latencies instead of in the gap between two
#: platforms, where it would jump with every small shift.
CALIBRATE_BLOCK = (*ALL_PLATFORMS, "henri")
BULK_PLATFORM = "henri"
BULK_ROWS = 10_000
#: Seconds of each rung of the ``predict_max_rps`` rate ladder.
LADDER_STEP_S = 2.0
#: Untimed traffic before each timed phase, so lazy set-up and first-use
#: costs (imports, allocator growth, connection state) stay out of it.
WARMUP_S = 1.0
#: A phase is invalid when the generator's own lateness (p99) exceeds
#: this share of the workload's latency limit.  Host scheduling alone
#: put up to 9 ms there in busy periods (see README.md, "Noise").
LATE_SHARE = 0.5


def _same(expected: object, got: object) -> bool:
    """Bit-for-bit equality of decoded JSON (NaN equals NaN)."""
    if isinstance(expected, float) or isinstance(got, float):
        return isinstance(expected, float) and isinstance(got, float) and (
            expected == got or (math.isnan(expected) and math.isnan(got))
        )
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(
            k in got and _same(v, got[k]) for k, v in expected.items()
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(got, list)
            and len(got) == len(expected)
            and all(_same(e, g) for e, g in zip(expected, got))
        )
    return expected == got and isinstance(expected, bool) == isinstance(got, bool)


@dataclass
class Checker:
    """Counts attempted/failed requests and remembers why some failed."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, sample: Sample, expected: object) -> bool:
        """``expected`` is a decoded payload, or the exact bytes of one."""
        self.attempted += 1
        if sample.error or sample.status != 200:
            reason = sample.error or f"HTTP {sample.status}: {sample.body[:200]!r}"
            return self._fail(f"{sample.tag}: {reason}")
        if isinstance(expected, bytes):
            if sample.body == expected:
                return True
            expected = json.loads(expected)
        try:
            got = json.loads(sample.body)
        except ValueError:
            got = None
        if _same(expected, got):
            return True
        self.wrong += 1
        return self._fail(f"{sample.tag}: answer differs from the reference")

    def _fail(self, reason: str) -> bool:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)
        return False


# ---- references ----------------------------------------------------------------------


def _experiment(platform: str, seed: int):
    from repro.bench.config import SweepConfig
    from repro.evaluation.experiments import run_platform_experiment

    return run_platform_experiment(platform, config=SweepConfig(seed=seed))


def _calibration(platform: str, seed: int):
    """The §IV-A2 calibration from the two sample placements alone: the
    same parameters the full pipeline fits, at a fraction of its cost."""
    from repro.bench.config import SweepConfig
    from repro.bench.sweep import run_sample_sweeps
    from repro.core.calibration import calibrate_placement_model
    from repro.topology.platforms import get_platform

    spec = get_platform(platform)
    dataset = run_sample_sweeps(spec, config=SweepConfig(seed=seed))
    return calibrate_placement_model(dataset, spec)


def _tournament_router(result, seed: int):
    from repro.backends.tournament import TournamentRouter, run_platform_tournament
    from repro.bench.config import SweepConfig

    run = run_platform_tournament(result, config=SweepConfig(seed=seed))
    return TournamentRouter(run.tournament, run.calibrated)


@functools.cache
def _shape(platform: str) -> tuple[int, int]:
    """(cores per socket, NUMA nodes) of a platform."""
    from repro.topology.platforms import get_platform

    machine = get_platform(platform).machine
    return len(machine.sockets[0].cores), sum(
        len(s.numa_nodes) for s in machine.sockets
    )


def _random_query(rng: random.Random, platform: str) -> tuple[int, int, int]:
    cores, nodes = _shape(platform)
    return rng.randint(1, cores), rng.randrange(nodes), rng.randrange(nodes)


class ScalarStream:
    """Single-query threshold ``/predict`` requests over the scalar
    platforms, with their reference answers."""

    def __init__(self, rng: random.Random, seed: int, distinct: int = 384):
        self.seed = seed
        models = {p: _experiment(p, self.seed).model for p in SCALAR_PLATFORMS}
        self.wires: list[bytes] = []
        self.expected: list[dict] = []
        for _ in range(distinct):
            platform = rng.choice(SCALAR_PLATFORMS)
            n, m_comp, m_comm = _random_query(rng, platform)
            body = {
                "platform": platform,
                "seed": self.seed,
                "n": n,
                "m_comp": m_comp,
                "m_comm": m_comm,
            }
            answer = models[platform].predict_batch([(n, m_comp, m_comm)])[0]
            self.expected.append(
                {**answer.to_dict(), "platform": platform, "seed": self.seed}
            )
            self.wires.append(
                build_request("POST", "/predict", json.dumps(body).encode())
            )
        self._order = list(range(distinct))
        rng.shuffle(self._order)

    @property
    def preload(self) -> list[str]:
        return [f"{p}:{self.seed}" for p in SCALAR_PLATFORMS]

    def schedule(self, count: int) -> list[tuple[object, bytes]]:
        order = self._order
        return [
            (("predict", order[i % len(order)]), self.wires[order[i % len(order)]])
            for i in range(count)
        ]

    def check(self, checker: Checker, sample: Sample) -> bool:
        return checker.check(sample, self.expected[sample.tag[1]])


# ---- phases ---------------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase produced."""

    samples: dict[str, list[Sample]] = field(default_factory=dict)
    #: Untimed warm-up requests: checked, not measured.
    warmup: list[Sample] = field(default_factory=list)
    seconds: float = 0.0
    cpu_s: float = 0.0
    ladder: list[dict] = field(default_factory=list)


def _open_phase(conns, stream, rate, seconds, stop, alongside=None):
    count = max(1, int(rate * seconds))
    return open_loop(
        conns, stream.schedule(count), rate=rate, stop=stop, alongside=alongside
    )


class Workload:
    """One traffic mix.  Subclasses define inputs, references and phases."""

    name = ""
    fleet = False
    #: Primary operation: the sample kind behind ``latency_p50_ms``.
    primary = "predict"
    #: p99 latency limit of the open-loop phases (ms).  On the 2-vCPU
    #: host this was sized on, a bare ``time.sleep(0.002)`` already
    #: overshoots by 7 ms at p99 in busy periods, so the limit leaves
    #: room above that noise floor.
    limit_ms = 50.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.checker = Checker()

    def preload(self) -> list[str]:
        raise NotImplementedError

    def run(self, conns, server, seconds: float, stop, ladder: bool) -> Phase:
        raise NotImplementedError

    def verify(self, phase: Phase) -> None:
        """Check every answer of ``phase`` into ``self.checker``."""
        raise NotImplementedError


class ScalarWorkload(Workload):
    name = "scalar"
    rate = 400.0
    #: The ``predict_max_rps`` rate ladder (req/s), run after the main phase.
    ladder_rps = (1000.0, 2000.0, 3000.0)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stream = ScalarStream(self.rng, seed)

    def preload(self) -> list[str]:
        return self.stream.preload

    def run(self, conns, server, seconds, stop, ladder) -> Phase:
        ladder_s = LADDER_STEP_S * len(self.ladder_rps) if ladder else 0.0
        main_s = max(1.0, seconds - ladder_s)
        phase = Phase()
        phase.warmup = _open_phase(conns, self.stream, self.rate, WARMUP_S, stop)
        cpu0 = server.cpu_seconds()
        started = time.perf_counter()
        phase.samples["predict"] = _open_phase(
            conns, self.stream, self.rate, main_s, stop
        )
        phase.seconds = time.perf_counter() - started
        phase.cpu_s = server.cpu_seconds() - cpu0
        if ladder:
            for rate in self.ladder_rps:
                samples = _open_phase(conns, self.stream, rate, LADDER_STEP_S, stop)
                step = ladder_step(rate, samples, self.limit_ms)
                step["samples"] = samples
                phase.ladder.append(step)
                if not step["passed"]:
                    break
        return phase

    def verify(self, phase) -> None:
        for sample in phase.warmup + phase.samples["predict"]:
            self.stream.check(self.checker, sample)
        for step in phase.ladder:
            for sample in step.pop("samples"):
                self.stream.check(self.checker, sample)


class FleetWorkload(ScalarWorkload):
    name = "fleet"
    fleet = True
    rate = 150.0
    ladder_rps = (500.0, 1000.0, 1500.0)


def ladder_step(rate: float, samples: list[Sample], limit_ms: float) -> dict:
    """One rung: passes when p99 meets the limit, the backlog drained
    within the limit, and the generator kept its schedule."""
    ok = [s for s in samples if not s.error and s.status == 200]
    if not ok:
        return {"rate": rate, "passed": False, "valid": False}
    p99 = percentile([s.latency_ms for s in ok], 99)
    late_p99 = percentile([s.late * 1e3 for s in ok], 99)
    valid = late_p99 <= LATE_SHARE * limit_ms
    drained = (samples[-1].done - samples[-1].due) * 1e3 <= limit_ms
    return {
        "rate": rate,
        "p99_ms": p99,
        "late_p99_ms": late_p99,
        "conn_wait_p50_ms": percentile([s.conn_wait * 1e3 for s in ok], 50),
        "valid": valid,
        "passed": valid and len(ok) == len(samples) and p99 <= limit_ms and drained,
    }


class BulkWorkload(Workload):
    name = "bulk"
    primary = "bulk"
    distinct = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        result = _experiment(BULK_PLATFORM, self.seed)
        router = _tournament_router(result, self.seed)
        # Requests cycle threshold, threshold, threshold, tournament.
        self.requests: list[tuple[object, bytes]] = []
        self.expected: dict[object, bytes] = {}
        for i in range(self.distinct):
            for backend in (None, None, None, "tournament"):
                queries = [
                    _random_query(self.rng, BULK_PLATFORM) for _ in range(BULK_ROWS)
                ]
                body = {
                    "platform": BULK_PLATFORM,
                    "seed": self.seed,
                    "queries": [
                        {"n": n, "m_comp": c, "m_comm": m} for n, c, m in queries
                    ],
                }
                payload = {"platform": BULK_PLATFORM, "seed": self.seed}
                if backend is None:
                    answers = result.model.predict_batch(queries)
                else:
                    body["backend"] = backend
                    payload["backend"] = backend
                    answers = router.predict_batch(queries)
                payload["results"] = [a.to_dict() for a in answers]
                tag = ("bulk", len(self.requests), backend or "threshold")
                self.requests.append(
                    (tag, build_request("POST", "/predict", json.dumps(body).encode()))
                )
                self.expected[tag] = json.dumps(payload).encode()

    def preload(self) -> list[str]:
        return [f"{BULK_PLATFORM}:{self.seed}"]

    def run(self, conns, server, seconds, stop, ladder) -> Phase:
        phase = Phase()
        for tag, wire in self.requests[:4]:  # one threshold/tournament cycle
            sent = time.perf_counter()
            status, body = conns[0].exchange(wire)
            sample = Sample(tag, sent, sent, time.perf_counter(), status, body)
            self._check_and_drop(sample)
            phase.warmup.append(sample)
        cpu0 = server.cpu_seconds()
        started = time.perf_counter()
        # Check each answer as it arrives (outside its timed interval)
        # and keep only the verdict, not the 1.7 MB body.
        phase.samples["bulk"] = closed_loop(
            conns[0],
            self.requests,
            deadline=started + seconds,
            stop=stop,
            on_sample=self._check_and_drop,
        )
        phase.seconds = time.perf_counter() - started
        phase.cpu_s = server.cpu_seconds() - cpu0
        return phase

    def _check_and_drop(self, sample: Sample) -> None:
        self.checker.check(sample, self.expected[sample.tag])
        sample.body = b""

    def verify(self, phase) -> None:
        pass  # every answer was checked as it arrived


class CalibrateWorkload(Workload):
    name = "calibrate"
    primary = "calibrate"
    #: Beside a CPU-bound calibration, every read waits for the
    #: interpreter lock; at 200 req/s the stream sometimes fell behind
    #: for good on a busy host, so it runs at half that.
    rate = 100.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stream = ScalarStream(self.rng, seed)
        # Fresh pairs: seeds no other request of the run uses, platforms
        # in shuffled blocks so every run sees the same mix.
        self.pairs: list[tuple[str, int]] = []
        base = 1_000_000 + (seed % 100_000) * 1000
        for block in range(100):
            platforms = list(CALIBRATE_BLOCK)
            self.rng.shuffle(platforms)
            for platform in platforms:
                self.pairs.append((platform, base + len(self.pairs)))

    def preload(self) -> list[str]:
        return self.stream.preload

    def run(self, conns, server, seconds, stop, ladder) -> Phase:
        phase = Phase()
        requests = [
            (
                ("calibrate", platform, seed),
                build_request(
                    "POST",
                    "/calibrate",
                    json.dumps({"platform": platform, "seed": seed}).encode(),
                ),
            )
            for platform, seed in self.pairs
        ]
        phase.warmup = _open_phase(conns[1:], self.stream, self.rate, WARMUP_S, stop)
        cpu0 = server.cpu_seconds()
        started = time.perf_counter()

        def calibrations() -> None:
            # Whole blocks only, so every platform is equally represented.
            phase.samples["calibrate"] = closed_loop(
                conns[0],
                requests,
                deadline=started + seconds,
                stop=stop,
                multiple=len(CALIBRATE_BLOCK),
            )

        phase.samples["predict"] = _open_phase(
            conns[1:], self.stream, self.rate, seconds, stop, alongside=calibrations
        )
        phase.seconds = time.perf_counter() - started
        phase.cpu_s = server.cpu_seconds() - cpu0
        return phase

    def verify(self, phase) -> None:
        for sample in phase.warmup + phase.samples["predict"]:
            self.stream.check(self.checker, sample)
        for sample in phase.samples["calibrate"]:
            _, platform, seed = sample.tag
            model = _calibration(platform, seed)
            self.checker.check(
                sample,
                {
                    "platform": platform,
                    "seed": seed,
                    "cached": False,
                    "local": model.local.to_dict(),
                    "remote": model.remote.to_dict(),
                },
            )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (ScalarWorkload, BulkWorkload, CalibrateWorkload, FleetWorkload)
}
