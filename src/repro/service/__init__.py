"""repro.service — serving the contention model over JSON (ROADMAP:
production-scale serving).

The paper's predictor answers any ``(n, m_comp, m_comm)`` query from a
single cheap calibration; this package turns that into a long-running
query service:

* :mod:`repro.service.server` — stdlib asyncio HTTP/1.1 front end
  (``calibrate`` / ``predict`` / ``predict_grid`` / ``advise`` /
  ``healthz`` / ``metrics``);
* :mod:`repro.service.registry` — LRU-bounded, single-flight cache of
  calibrated :class:`~repro.core.placement.PlacementModel` instances;
* :mod:`repro.service.metrics` — counters and latency histograms
  behind ``/metrics``;
* :mod:`repro.service.client` — the blocking client used by
  ``python -m repro query``, the tests and the benchmark.

Start one with ``python -m repro serve --port 8080`` and query it with
``python -m repro query predict henri -n 14 --comp 0 --comm 1`` or any
HTTP client (see ``docs/SERVICE.md``).
"""

from repro.service.client import ServiceClient, ServiceResponseError
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelKey, ModelRegistry
from repro.service.server import ContentionService

__all__ = [
    "ContentionService",
    "ModelEntry",
    "ModelKey",
    "ModelRegistry",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceResponseError",
]
