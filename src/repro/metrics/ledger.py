"""The metrics accumulators: one surface per kind, one type per mode.

A metrics mode is its pair of :data:`ACCUMULATORS`: a request-outcome
ledger, which counts each outcome the moment it is final, and a sample
store type for each sampled distribution.  Exact mode retains every
request and sample; streaming releases requests and sketches values.
Each kind answers the same calls in both modes, so reports, merges,
observers and audits never ask which mode ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, TypeVar, Union

from repro.engine.request import Request, RequestState
from repro.metrics.cdf import Cdf
from repro.metrics.streaming import QuantileSketch


#: the outcome counters every ledger keeps
COUNTS = ("arrivals", "completed", "dropped", "slo_met")

_L = TypeVar("_L", bound="OutcomeLedger")


@dataclass
class OutcomeLedger:
    """Outcome counters, live during the run, plus the requests still in
    flight (``pending``), which :meth:`snapshot` folds.  Each mode adds
    its own ``arrivals`` count."""

    mode: ClassVar[str]  # the metrics mode this ledger type implements
    completed: int = 0
    dropped: int = 0
    slo_met: int = 0
    pending: dict[int, Request] = field(default_factory=dict, repr=False, compare=False)

    def register(self, request: Request) -> None:
        self.pending[request.req_id] = request

    def finish(self, request: Request) -> None:
        """Fold a finished request's outcome; a repeat is a no-op."""
        if self.pending.pop(request.req_id, None) is not None:
            self.fold(request)

    def fold(self, request: Request) -> None:
        """Count one request's outcome at its current state."""
        if request.state is RequestState.COMPLETED:
            self.completed += 1
            self.slo_met += request.slo_met
        elif request.state is RequestState.DROPPED:
            self.dropped += 1

    def merge(self, other: "OutcomeLedger") -> None:
        self.completed += other.completed
        self.dropped += other.dropped
        self.slo_met += other.slo_met

    def copy(self: _L) -> _L:  # without the requests still pending
        return replace(self, pending={})

    def snapshot(self: _L) -> _L:
        """A copy for a report, with every in-flight request folded at its
        observed state (queued or decoding: neither completed nor dropped)."""
        snapshot = self.copy()
        for request in self.pending.values():
            snapshot.fold(request)
        return snapshot


@dataclass
class ExactLedger(OutcomeLedger):
    """Exact mode's ledger: the counters plus every request, retained,
    whose number is the arrival count."""

    mode: ClassVar[str] = "exact"
    requests: list[Request] = field(default_factory=list)

    @property
    def arrivals(self) -> int:
        return len(self.requests)

    def register(self, request: Request) -> None:
        super().register(request)
        self.requests.append(request)

    def completed_requests(self) -> list[Request]:
        return [r for r in self.requests if r.state is RequestState.COMPLETED]

    def ttft_cdf(self) -> Cdf:
        return Cdf.from_values(r.ttft for r in self.requests if r.ttft is not None)

    def merge(self, other: OutcomeLedger) -> None:
        assert isinstance(other, ExactLedger), "cannot merge ledgers of different modes"
        super().merge(other)
        self.requests.extend(other.requests)

    def copy(self) -> "ExactLedger":
        return replace(self, pending={}, requests=list(self.requests))

    def encode(self) -> list[list[Any]]:
        """Payload: one row per request (the counters are derived)."""
        return [_request_to_row(r) for r in self.requests]

    @classmethod
    def decode(cls, rows: list[list[Any]]) -> "ExactLedger":
        ledger = cls()
        for request in map(_request_from_row, rows):
            ledger.register(request)
            ledger.finish(request)  # at its final state
        return ledger


@dataclass
class RequestAggregate(OutcomeLedger):
    """Streaming mode's ledger: the counters plus a TTFT sketch; finished
    requests are released."""

    mode: ClassVar[str] = "streaming"
    arrivals: int = 0
    ttft: QuantileSketch = field(default_factory=QuantileSketch)

    def register(self, request: Request) -> None:
        super().register(request)
        self.arrivals += 1

    @property
    def requests(self) -> list[Request]:
        return []  # released as they finish

    def completed_requests(self) -> list[Request]:
        raise RuntimeError(
            "RunReport.completed needs per-request data, which streaming metrics mode "
            "does not retain; use the counts, rates and *_cdf(), or rerun with metrics='exact'"
        )

    def ttft_cdf(self) -> QuantileSketch:
        return self.ttft

    def fold(self, request: Request) -> None:
        super().fold(request)
        if request.ttft is not None:
            self.ttft.add(request.ttft)

    def merge(self, other: OutcomeLedger) -> None:
        assert isinstance(other, RequestAggregate), "cannot merge ledgers of different modes"
        super().merge(other)
        self.arrivals += other.arrivals
        self.ttft.merge(other.ttft)

    def copy(self) -> "RequestAggregate":
        return replace(self, pending={}, ttft=self.ttft.copy())

    def encode(self) -> dict[str, Any]:
        payload: dict[str, Any] = {name: getattr(self, name) for name in COUNTS}
        payload["ttft"] = self.ttft.encode()
        return payload

    @classmethod
    def decode(cls, payload: dict[str, Any]) -> "RequestAggregate":
        counts = {name: payload[name] for name in COUNTS}
        return cls(ttft=QuantileSketch.decode(payload["ttft"]), **counts)


class SampleList(list):
    """Exact mode's sample store: every value, read as a :class:`Cdf`."""

    add = list.append
    merge = list.extend

    def cdf(self) -> Cdf:
        return Cdf.from_values(self)

    def copy(self) -> "SampleList":
        return SampleList(self)

    def encode(self) -> list[float]:
        return list(self)

    @classmethod
    def decode(cls, values: list[float]) -> "SampleList":
        return cls(values)


#: either mode's request-outcome ledger
Ledger = Union[ExactLedger, RequestAggregate]
#: either mode's store for one sampled distribution
SampleStore = Union[SampleList, QuantileSketch]

#: each metrics mode's accumulator types: (outcome ledger, sample store)
ACCUMULATORS: dict[str, tuple[type[Ledger], type[SampleStore]]] = {
    "exact": (ExactLedger, SampleList),
    "streaming": (RequestAggregate, QuantileSketch),
}

#: recognised metrics modes
METRICS_MODES = tuple(ACCUMULATORS)


# Request fields serialized into report JSON, in row order.
_REQUEST_FIELDS: tuple[str, ...] = (
    "req_id",
    "deployment",
    "arrival",
    "input_len",
    "output_len",
    "ttft_slo",
    "tpot_slo",
    "state",
    "grace",
    "tokens_out",
    "prefill_len",
    "first_token_at",
    "finished_at",
    "dropped_at",
    "violation_at",
    "cold_started",
    "migrations",
)
_STATE = _REQUEST_FIELDS.index("state")


def _request_to_row(request: Request) -> list[Any]:
    row = [getattr(request, name) for name in _REQUEST_FIELDS]
    row[_STATE] = request.state.value
    return row


def _request_from_row(row: list[Any]) -> Request:
    request = Request(**dict(zip(_REQUEST_FIELDS[:_STATE], row)))
    request.state = RequestState(row[_STATE])
    for name, value in zip(_REQUEST_FIELDS[_STATE + 1 :], row[_STATE + 1 :]):
        setattr(request, name, value)
    return request
