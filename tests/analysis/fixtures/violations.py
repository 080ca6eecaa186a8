"""Seeded lint fixture: exactly one violation of every shipped rule.

The acceptance test pins ``repro lint`` to produce precisely one
finding per rule id on this file — a new rule must add its seeded
violation here, and a rule regression (over- or under-matching) shows
up as a count change.
"""

import random
import time


class _Bus:
    def subscribe(self, kind: type, handler: object) -> None: ...

    def publish(self, event: object) -> None: ...


BUS = _Bus()


def stamp() -> float:
    return time.perf_counter()  # no-wall-clock


def jitter() -> float:
    return random.random()  # no-ambient-rng


def ordered_sum(items: set) -> int:
    total = 0
    for value in items:  # unordered-iteration
        total += value
    return total


def total_seconds(durations: "list[float]") -> float:
    return sum(d / 2 for d in durations)  # float-accum


def on_complete(event: object) -> None:
    BUS.publish(event)  # handler-purity: re-enters publish mid-delivery


BUS.subscribe(object, on_complete)


def sneak_event(sim: object, item: object) -> None:
    sim._heap.append(item)  # engine-seam


def untyped(value):  # typed-defs
    return value
