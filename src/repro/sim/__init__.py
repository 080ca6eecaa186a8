"""Discrete-event simulation kernel used by every serving system in repro.

The kernel is intentionally tiny: a monotonic clock plus a binary-heap event
queue with cancellable handles.  All higher-level behaviour (instances,
schedulers, memory operations) is expressed as callbacks scheduled here, which
keeps each serving system single-threaded and fully deterministic.
"""

# NOTE: repro.sim.engine is deliberately NOT imported here — it pulls
# in the scheduler/policy layers, which themselves import this package
# during startup.  Import engine backends via ``repro.sim.engine`` (or
# the re-export in ``repro.registry``).
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.simulator import EventHandle, SimulationError, Simulator

__all__ = [
    "EventHandle",
    "SimulationError",
    "Simulator",
    "make_rng",
    "spawn_rngs",
]
