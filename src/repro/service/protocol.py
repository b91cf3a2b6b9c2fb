"""Request/response schemas of the JSON prediction API.

Endpoints, payloads, and error envelopes are documented in
``docs/SERVICE.md``.  Every malformed request is reported as a
:class:`~repro.errors.ServiceError`; library failures keep their own
types, and :func:`http_status_for` maps the whole :class:`ReproError`
hierarchy onto HTTP statuses so clients can distinguish "you sent
garbage" (4xx) from "the model refused" (422) from "the service broke"
(5xx).
"""

from __future__ import annotations

from repro.errors import (
    AdvisorError,
    BenchmarkError,
    CalibrationError,
    ModelError,
    ReproError,
    ServiceError,
    TopologyError,
)

__all__ = [
    "error_payload",
    "http_status_for",
    "is_victim_advise",
    "parse_advise",
    "parse_advise_victim",
    "parse_calibrate",
    "parse_predict",
    "parse_predict_grid",
]

#: Most-derived first: ``isinstance`` walks this in order.
_STATUS_BY_ERROR: tuple[tuple[type, int], ...] = (
    (ServiceError, 400),  # malformed request
    (TopologyError, 404),  # unknown platform
    (AdvisorError, 422),  # valid JSON, unservable model query
    (ModelError, 422),  # includes PlacementError
    (CalibrationError, 422),
    (BenchmarkError, 422),
    (ReproError, 500),
)


def http_status_for(exc: BaseException) -> int:
    """HTTP status for a library error (500 for anything unexpected)."""
    for err_type, status in _STATUS_BY_ERROR:
        if isinstance(exc, err_type):
            return status
    return 500


def error_payload(exc: BaseException, *, status: int | None = None) -> dict:
    """The structured JSON error envelope of one failed request."""
    status = http_status_for(exc) if status is None else status
    return {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "status": status,
        }
    }


# ---- field extraction -----------------------------------------------------------


def _require_mapping(body: object) -> dict:
    if not isinstance(body, dict):
        raise ServiceError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _get(body: dict, field: str, *, default: object = ...) -> object:
    if field in body:
        return body[field]
    if default is ...:
        raise ServiceError(f"missing required field {field!r}")
    return default


def _as_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value == int(value):
            return int(value)
        raise ServiceError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _as_number(value: object, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"field {field!r} must be a number, got {value!r}")
    return float(value)


def _as_str(value: object, field: str) -> str:
    if not isinstance(value, str):
        raise ServiceError(f"field {field!r} must be a string, got {value!r}")
    return value


def _platform_and_seed(body: dict) -> tuple[str, int]:
    platform = _as_str(_get(body, "platform"), "platform")
    seed = _as_int(_get(body, "seed", default=0), "seed")
    return platform, seed


def _backend(body: dict) -> str | None:
    """The optional ``backend`` selector (``None`` = the default
    threshold model).  Validity of the name is the registry's business;
    the parser only enforces the type."""
    raw = _get(body, "backend", default=None)
    if raw is None:
        return None
    backend = _as_str(raw, "backend")
    if not backend:
        raise ServiceError("field 'backend' must be a non-empty string")
    return backend


# ---- per-endpoint parsers -------------------------------------------------------


def _parse_query(obj: object, *, where: str) -> tuple[int, int, int]:
    """One wire query -> ``(n, m_comp, m_comm)``."""
    if not isinstance(obj, dict):
        raise ServiceError(f"{where} must be an object, got {obj!r}")
    return (
        _as_int(_get(obj, "n"), "n"),
        _as_int(_get(obj, "m_comp"), "m_comp"),
        _as_int(_get(obj, "m_comm"), "m_comm"),
    )


def parse_calibrate(body: object) -> tuple[str, int]:
    """``POST /calibrate`` -> (platform, seed)."""
    return _platform_and_seed(_require_mapping(body))


def parse_predict(
    body: object,
) -> tuple[str, int, list[tuple[int, int, int]], bool, str | None]:
    """``POST /predict`` -> (platform, seed, queries, is_bulk, backend).

    Accepts either one inline query (``n``/``m_comp``/``m_comm`` at the
    top level) or a bulk ``queries`` list; the two forms are exclusive.
    ``backend`` selects a registered model backend (or ``tournament``);
    absent means the default threshold model.
    """
    body = _require_mapping(body)
    platform, seed = _platform_and_seed(body)
    backend = _backend(body)
    if "queries" in body:
        if any(k in body for k in ("n", "m_comp", "m_comm")):
            raise ServiceError(
                "use either an inline query or 'queries', not both"
            )
        raw = body["queries"]
        if not isinstance(raw, list) or not raw:
            raise ServiceError("field 'queries' must be a non-empty list")
        queries = [
            _parse_query(item, where=f"queries[{i}]")
            for i, item in enumerate(raw)
        ]
        return platform, seed, queries, True, backend
    return (
        platform,
        seed,
        [_parse_query(body, where="request body")],
        False,
        backend,
    )


def parse_predict_grid(
    body: object,
) -> tuple[str, int, list[int], list[tuple[int, int]] | None]:
    """``POST /predict_grid`` -> (platform, seed, core_counts, placements)."""
    body = _require_mapping(body)
    platform, seed = _platform_and_seed(body)
    raw_counts = _get(body, "core_counts")
    if not isinstance(raw_counts, list) or not raw_counts:
        raise ServiceError("field 'core_counts' must be a non-empty list")
    core_counts = [_as_int(v, "core_counts") for v in raw_counts]
    placements: list[tuple[int, int]] | None = None
    raw_placements = _get(body, "placements", default=None)
    if raw_placements is not None:
        if not isinstance(raw_placements, list) or not raw_placements:
            raise ServiceError("field 'placements' must be a non-empty list")
        placements = []
        for i, pair in enumerate(raw_placements):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ServiceError(
                    f"placements[{i}] must be an [m_comp, m_comm] pair"
                )
            placements.append(
                (_as_int(pair[0], "m_comp"), _as_int(pair[1], "m_comm"))
            )
    return platform, seed, core_counts, placements


def parse_advise(
    body: object,
) -> tuple[str, int, float, float, int, str | None]:
    """``POST /advise``
    -> (platform, seed, comp_bytes, comm_bytes, top, backend)."""
    body = _require_mapping(body)
    platform, seed = _platform_and_seed(body)
    comp_bytes = _as_number(_get(body, "comp_bytes"), "comp_bytes")
    comm_bytes = _as_number(_get(body, "comm_bytes"), "comm_bytes")
    top = _as_int(_get(body, "top", default=5), "top")
    return platform, seed, comp_bytes, comm_bytes, top, _backend(body)


def is_victim_advise(body: object) -> bool:
    """Whether an ``/advise`` body selects the victim-placement mode."""
    return isinstance(body, dict) and bool(body.get("victim"))


def parse_advise_victim(body: object) -> tuple[str, int, int | None]:
    """``POST /advise`` with ``"victim": true``
    -> (platform, seed, top).

    Victim mode stress-tests placements against the noisy-neighbour
    roster, so the workload byte counts of the makespan advisor do not
    apply and are rejected to avoid silently ignoring them.
    """
    body = _require_mapping(body)
    if body.get("victim") is not True:
        raise ServiceError("field 'victim' must be the JSON literal true")
    for banned in ("comp_bytes", "comm_bytes", "backend"):
        if banned in body:
            raise ServiceError(
                f"field {banned!r} does not apply to victim-placement "
                "advice; drop it or drop 'victim'"
            )
    platform, seed = _platform_and_seed(body)
    raw_top = _get(body, "top", default=None)
    top = None if raw_top is None else _as_int(raw_top, "top")
    return platform, seed, top
