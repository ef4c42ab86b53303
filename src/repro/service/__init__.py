"""Async HTTP/JSON service over the certified emulator surfaces.

The production face of the reproduction: :class:`EmulatorService`
answers delta/Delta/gamma queries from certified Chebyshev surfaces
(:mod:`repro.emulator`) in microseconds, falling back through the
content-addressed result cache to the exact batch solvers whenever a
surface refuses (out-of-domain capacity, rigid utility, off-grid
``kbar``).  :mod:`repro.service.http` serves it over stdlib asyncio —
``repro serve`` from the CLI — and :mod:`repro.service.client`
provides the matching keep-alive client used by the load bench.
"""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.core import ENGINE_HINTS, UTILITIES, EmulatorService, QueryError
from repro.service.http import (
    DEFAULT_EXECUTOR_WORKERS,
    MAX_BODY_BYTES,
    BackgroundServer,
    ServiceServer,
    metered,
    serve,
)

__all__ = [
    "ENGINE_HINTS",
    "EmulatorService",
    "QueryError",
    "UTILITIES",
    "ServiceServer",
    "BackgroundServer",
    "metered",
    "serve",
    "ServiceClient",
    "ServiceClientError",
    "MAX_BODY_BYTES",
    "DEFAULT_EXECUTOR_WORKERS",
]
