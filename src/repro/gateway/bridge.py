"""The gateway↔simulator bridge: live requests into a QueueStream run.

The bridge owns a simulation thread running
``system.run(QueueStream(...))`` and a producer-facing :meth:`submit`
that pushes one request and blocks until the simulator has fully
processed its arrival.  The serving system's streaming ingest processes
arrival *i* completely before pulling arrival *i+1*, so when
``wait_processed(i)`` returns the simulation is quiescent (blocked in
``next()``) and request *i*'s admission outcome — placed, queued, or
dropped on arrival — is readable without races.

Verdict TTFT predictions go through
:meth:`~repro.perf.database.PerfDatabase.estimate_ttft`, the jitter-free
estimator: probing must never draw from the run's jitter RNG stream, or
a gateway replay would diverge from the batch run of the same trace.
For the same reason :meth:`probe` is advisory-only and calls no
policy code — admission policies may mutate on query (the KV-sharing
admission evicts under pressure).
"""

from __future__ import annotations

import threading
import time as _wallclock
from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.instance import Instance, InstanceState
from repro.engine.request import Request, RequestState
from repro.metrics.report import RunReport
from repro.policies.events import RequestArrived
from repro.workloads.spec import Deployment, RequestSpec
from repro.workloads.stream import QueueStream

#: how long one submit may wait on the simulation thread before erroring
DEFAULT_SUBMIT_TIMEOUT = 30.0


class GatewayError(RuntimeError):
    """The bridge cannot serve: dead simulation thread, timeout, misuse."""


@dataclass
class Verdict:
    """The simulator's arrival-time outcome for one submitted request."""

    index: int  # submission index (stream order)
    req_id: int  # simulator request id
    deployment: str
    arrival: float  # simulation-clock arrival time
    verdict: str  # "admitted" | "queued" | "dropped"
    cold_start: bool  # placement had to (or has to) load an instance
    predicted_ttft: Optional[float]  # jitter-free estimate, seconds
    queue_depth: int  # live queue length for the deployment after arrival
    ttft_slo: float  # the TTFT SLO this request is held to

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "req_id": self.req_id,
            "deployment": self.deployment,
            "arrival": self.arrival,
            "verdict": self.verdict,
            "cold_start": self.cold_start,
            "predicted_ttft": self.predicted_ttft,
            "queue_depth": self.queue_depth,
            "ttft_slo": self.ttft_slo,
        }


class SimBridge:
    """Run a serving system against live, queue-fed arrivals.

    ``mode="shadow"`` replays in virtual time: the caller supplies each
    request's simulation-clock arrival (or inherits the previous one),
    so a recorded trace replays faster than real time and byte-identical
    to a batch run.  ``mode="paced"`` stamps arrivals from the wall
    clock instead — ``pace_ratio`` simulation seconds per wall second —
    for interactive what-if sessions.
    """

    def __init__(
        self,
        system,
        deployments: dict[str, Deployment],
        duration: Optional[float] = None,
        mode: str = "shadow",
        pace_ratio: float = 1.0,
        submit_timeout: float = DEFAULT_SUBMIT_TIMEOUT,
    ) -> None:
        if mode not in ("shadow", "paced"):
            raise ValueError(f"unknown gateway mode {mode!r} (known: shadow, paced)")
        if pace_ratio <= 0:
            raise ValueError("pace_ratio must be positive")
        self.system = system
        self.mode = mode
        self.pace_ratio = pace_ratio
        self.submit_timeout = submit_timeout
        self.stream = QueueStream("gateway", deployments, duration=duration)
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._report: Optional[RunReport] = None
        self._error: Optional[BaseException] = None
        self._wall_start: Optional[float] = None
        # Submission index -> simulator Request: streamed arrivals are
        # processed strictly in push order and each publishes exactly
        # one RequestArrived, so appending here aligns with the stream's
        # indices.  (The metrics ledger counts outcomes, but streaming
        # mode releases the request objects a verdict needs.)
        self._requests: list[Request] = []
        system.bus.subscribe(RequestArrived, lambda e: self._requests.append(e.request))

    # ------------------------------------------------------------------
    # Construction from a run spec (the CLI / sweep-axes path)
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec,
        mode: str = "shadow",
        pace_ratio: float = 1.0,
        submit_timeout: float = DEFAULT_SUBMIT_TIMEOUT,
        **system_kwargs: Any,
    ) -> "SimBridge":
        """A bridge serving exactly the system a batch run would use.

        The deployments (and horizon) come from the spec's scenario; the
        system from the shared :func:`~repro.runner.executor.build_system`
        assembly — so a shadow replay of the scenario's own trace equals
        ``execute_spec(spec)`` report for report.
        """
        from repro.runner.executor import build_system
        from repro.runner.spec import build_workload_stream

        source = build_workload_stream(spec)
        return cls(
            build_system(spec, **system_kwargs),
            dict(source.deployments),
            duration=source.duration,
            mode=mode,
            pace_ratio=pace_ratio,
            submit_timeout=submit_timeout,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the simulation thread (idempotent misuse is an error)."""
        if self._thread is not None:
            raise GatewayError("bridge already started")
        self._wall_start = _wallclock.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="sim-bridge", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            self._report = self.system.run(self.stream)
        except BaseException as exc:  # surface to producers, don't die silently
            self._error = exc
            # Wake any submit() blocked in wait_processed: the condition
            # predicate won't turn true, but each 100 ms poll rechecks
            # self._error.

    def finalize(self, timeout: float = 60.0) -> RunReport:
        """Close the stream, drain the run, and return the final report."""
        if self._thread is None:
            raise GatewayError("bridge not started")
        self.stream.close()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise GatewayError("simulation thread did not drain in time")
        if self._error is not None:
            raise GatewayError(f"simulation failed: {self._error!r}") from self._error
        assert self._report is not None
        return self._report

    @property
    def finalized(self) -> bool:
        return self._report is not None or self._error is not None

    @property
    def outcome_counts(self) -> dict[str, int]:
        outcomes = self.system.metrics.outcomes
        return {
            "submitted": self.stream.submitted,
            "completed": outcomes.completed,
            "dropped": outcomes.dropped,
        }

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(
        self,
        deployment: str,
        input_len: int,
        output_len: int,
        arrival: Optional[float] = None,
        prefix_id: Optional[str] = None,
        prefix_len: int = 0,
    ) -> Verdict:
        """Push one request and block for the simulator's verdict.

        In shadow mode ``arrival`` is the simulation-clock time (default:
        the stream's last arrival, i.e. "immediately after the previous
        request"); paced mode ignores it and stamps from the wall clock.
        """
        if self._thread is None:
            raise GatewayError("bridge not started")
        with self._lock:
            if self.mode == "paced":
                assert self._wall_start is not None
                arrival = (_wallclock.monotonic() - self._wall_start) * self.pace_ratio
                last = self.stream.last_arrival
                if last is not None and arrival < last:
                    arrival = last
            elif arrival is None:
                arrival = self.stream.last_arrival or 0.0
            spec = RequestSpec(
                deployment=deployment,
                arrival=arrival,
                input_len=input_len,
                output_len=output_len,
                prefix_id=prefix_id,
                prefix_len=prefix_len,
            )
            index = self.stream.push(spec)
            deadline = _wallclock.monotonic() + self.submit_timeout
            while not self.stream.wait_processed(index, timeout=0.1):
                if self._error is not None:
                    raise GatewayError(
                        f"simulation failed: {self._error!r}"
                    ) from self._error
                if self._report is not None:
                    raise GatewayError("simulation ended before processing the request")
                if _wallclock.monotonic() > deadline:
                    raise GatewayError(
                        f"no verdict for request {index} within "
                        f"{self.submit_timeout:g}s"
                    )
            return self._verdict_for(index)

    def submit_spec(self, spec: RequestSpec) -> Verdict:
        """Submit a recorded :class:`RequestSpec` (trace-replay helper)."""
        return self.submit(
            spec.deployment,
            spec.input_len,
            spec.output_len,
            arrival=spec.arrival,
            prefix_id=spec.prefix_id,
            prefix_len=spec.prefix_len,
        )

    # ------------------------------------------------------------------
    # Verdicts (called with the simulation quiescent)
    # ------------------------------------------------------------------
    def _verdict_for(self, index: int) -> Verdict:
        request = self._requests[index]
        if request.state is RequestState.DROPPED:
            outcome, predicted = "dropped", None
        elif request.state in (RequestState.QUEUED, RequestState.MIGRATING):
            outcome, predicted = "queued", None
        else:
            outcome = "admitted"
            predicted = self._predict_ttft(request)
        return Verdict(
            index=index,
            req_id=request.req_id,
            deployment=request.deployment,
            arrival=request.arrival,
            verdict=outcome,
            cold_start=request.cold_started,
            predicted_ttft=predicted,
            queue_depth=self._queue_depth(request.deployment),
            ttft_slo=request.ttft_slo,
        )

    def _queue_depth(self, deployment: str) -> int:
        return sum(
            1 for queued in self.system.queued_requests()
            if queued.deployment == deployment
        )

    def _instance_of(self, request: Request) -> Optional[Instance]:
        for instance in self.system.instances_of(request.deployment):
            if request in instance.prefill_pending or request in instance.batch:
                return instance
        return None

    def _predict_ttft(self, request: Request) -> Optional[float]:
        instance = self._instance_of(request)
        if instance is None:
            return None
        wait = 0.0
        if instance.state is InstanceState.LOADING:
            wait = max(0.0, instance.load_ready_at - self.system.sim.now)
        prefill = self.system.perf.estimate_ttft(
            instance.node.spec,
            instance.model,
            max(1, request.prefill_len),
            instance.fraction,
            instance.tp_degree,
        )
        return wait + prefill

    # ------------------------------------------------------------------
    # Advisory probe (/admit): read-only, no simulation side effects
    # ------------------------------------------------------------------
    def probe(self, deployment: str, input_len: int = 512) -> dict[str, Any]:
        """What would likely happen to a request arriving now?

        A heuristic over visible state (instances, queue depth) that
        deliberately calls no policy code: policies may mutate on query
        (e.g. KV-sharing admission evicts under pressure), which would
        fork the simulation from its batch-run twin.
        """
        if deployment not in self.stream.deployments:
            known = ", ".join(sorted(self.stream.deployments))
            raise GatewayError(f"unknown deployment {deployment!r} (known: {known})")
        instances = self.system.instances_of(deployment)
        active = [i for i in instances if i.state is InstanceState.ACTIVE]
        loading = [i for i in instances if i.state is InstanceState.LOADING]
        now = self.system.sim.now
        perf = self.system.perf

        def _estimate(instance: Instance, wait: float) -> float:
            return wait + perf.estimate_ttft(
                instance.node.spec, instance.model, max(1, input_len),
                instance.fraction, instance.tp_degree,
            )

        if active:
            decision = "admit"
            predicted = min(_estimate(i, 0.0) for i in active)
        elif loading:
            decision = "cold-start"
            predicted = min(
                _estimate(i, max(0.0, i.load_ready_at - now)) for i in loading
            )
        else:
            decision = "cold-start"
            predicted = None
        return {
            "deployment": deployment,
            "decision": decision,
            "active_instances": len(active),
            "loading_instances": len(loading),
            "queue_depth": self._queue_depth(deployment),
            "predicted_ttft": predicted,
            "ttft_slo": self.system.slo.ttft(input_len),
            "sim_now": now,
        }
