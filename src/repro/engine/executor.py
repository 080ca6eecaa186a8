"""Executors: the serialized compute context iterations run on.

A full node has one executor (SLINFER's token-level time sharing, Fig. 14);
statically partitioned systems (sllm+c+s) give each partition its own
executor with a capacity fraction.  The executor itself is a passive record
— the owning serving system drives the iteration loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.instance import Instance, InstanceState
from repro.hardware.node import Node


@dataclass(slots=True)
class Executor:
    """A serialized compute context on (a fraction of) one node."""

    exec_id: str
    node: Node
    fraction: float = 1.0
    instances: list[Instance] = field(default_factory=list, repr=False)
    busy: bool = False
    busy_until: float = 0.0

    @property
    def is_cpu(self) -> bool:
        return self.node.is_cpu

    @property
    def is_gpu(self) -> bool:
        return self.node.is_gpu

    def runnable_instances(self) -> list[Instance]:
        return [instance for instance in self.instances if instance.has_work]

    def active_instances(self) -> list[Instance]:
        return [inst for inst in self.instances if inst.state is not InstanceState.UNLOADED]

    def add_instance(self, instance: Instance) -> None:
        self.instances.append(instance)

    def remove_instance(self, instance: Instance) -> None:
        self.instances.remove(instance)

    def __hash__(self) -> int:
        return hash(self.exec_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Executor) and other.exec_id == self.exec_id
