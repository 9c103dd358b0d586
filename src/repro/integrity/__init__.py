"""Silent-data-corruption resilience: detection and repair.

Injection of silent faults lives in :mod:`repro.faults`
(``FaultPlan.corruption`` / ``FaultPlan.payload_corruption``); this
package holds the defenses — checksummed shared-array blocks, end-to-end
payload checksums, per-round invariant verification.  The chaos
campaign that drives them through the HTTP API (``repro soak``) is a
client of the service and lives beside it.  See ``docs/fault-model.md``
("Silent faults and integrity").
"""

from .config import IntegrityConfig
from .monitor import IntegrityMonitor, guard_payload

__all__ = [
    "IntegrityConfig",
    "IntegrityMonitor",
    "guard_payload",
]
