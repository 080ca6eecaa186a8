"""Federated (multi-cluster, space-sharded) execution.

See :mod:`repro.federation.spec` for the fleet model and
:mod:`repro.federation.runner` for the conservative time-window
execution engine.  This package namespace stays import-light —
``runner`` pulls in the full serving stack, so it is imported lazily by
:func:`repro.runner.executor.execute_spec` rather than here.
"""

from repro.federation.spec import (
    FEDERATIONS,
    Federation,
    FederationError,
    ShardWorkerError,
    resolve_federation,
)

__all__ = ["FEDERATIONS", "Federation", "FederationError", "ShardWorkerError", "resolve_federation"]
