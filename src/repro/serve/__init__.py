"""Thermal scheduling as a service (``python -m repro.serve``).

A zero-dependency asyncio HTTP/1.1 server answering the online queries a
fleet operator asks of the paper's machinery — "is this placement
thermally safe?" (``POST /v1/peak``, Algorithm 1), "what rotation period
should I use?" (``POST /v1/tau``, the HotPotato tau-ladder), and "what
would actually happen?" (``POST /v1/simulate``, a bounded-horizon engine
run) — for many independent tenants, with live counters on
``GET /metrics``.

The layers, bottom-up (the request lifecycle is traced end-to-end in
``docs/architecture.md``; the endpoint reference is ``docs/serve.md``):

- :class:`ServeCache` — cross-tenant sharing of eigendecompositions,
  Algorithm-1 calculators and the peak-temperature memo;
- :class:`ThermalService` — transport-free tenant registry, payload
  validation, tau selection, simulation, degradation ladder;
- :class:`ThermalServer` — the asyncio HTTP transport; each ``/v1/peak``
  or ``/v1/tau`` request is one ``peak_batch`` call over its candidates;
- :mod:`repro.serve.loadgen` — seeded Poisson load generator writing
  ``BENCH_serve.json``.
"""

from .cache import ServeCache, config_fingerprint, model_fingerprint
from .http import ThermalServer
from .service import ServeConfig, TenantState, ThermalService

__all__ = [
    "ServeCache",
    "ServeConfig",
    "TenantState",
    "ThermalServer",
    "ThermalService",
    "config_fingerprint",
    "model_fingerprint",
]
