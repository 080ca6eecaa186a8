"""SLINFER's full serving scheme (§V) as a composable placement policy.

Request lifecycle (Fig. 13): on arrival, try existing replicas (CPU
nodes first, reactive bin-packing order), validating each with the
compute subsystem's shadow validation and the memory subsystem's
Eq. 2 / watermark checks (with the §VII-D compromise to ``M_require``).
If no replica absorbs the request, try proactive preemption (§VIII-A);
then try launching a new instance on a best-fit node; otherwise the
request queues and is dropped once its queuing delay exceeds the TTFT
SLO.  Large models (weights above ``exclusive_weight_fraction`` of GPU
memory, or tensor-parallel deployments) fall back to ServerlessLLM-style
exclusive GPU allocation (§IX-E, §X).

The watermark-driven memory mechanisms ride on the event bus: per-
iteration underestimation recovery (§VII-D) subscribes to
``IterationFinished``, Ō updates and lazy scale-down subscribe to
``RequestCompleted``.  Memory-operation timings are republished as
``MemoryOpIssued`` events.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Collection, Optional

from repro.compute.shadow import ShadowInstance, ShadowVerdict, shadow_validate
from repro.consolidation.binpack import order_dispatch_candidates, order_nodes_best_fit
from repro.consolidation.preemption import plan_preemption
from repro.core.config import SlinferConfig, SystemConfig
from repro.engine.executor import Executor
from repro.engine.instance import Instance, InstanceState, overflow_step
from repro.engine.kvcache import BLOCK_TOKENS
from repro.hardware.node import Node as _Node
from repro.memory.estimator import (
    OutputLengthEstimator,
    initial_kv_required,
    kv_required_bytes,
)
from repro.memory.operations import MemoryOp, OpKind, OpState
from repro.memory.orchestrator import MemoryOrchestrator
from repro.memory.watermark import WatermarkPolicy
from repro.perf.laws import kv_scaling_seconds
from repro.perf.profiler import QuantifiedPerf
from repro.policies.base import PlacementPolicy
from repro.policies.events import (
    DecodeChainHandler,
    IterationFinished,
    MemoryOpIssued,
    NodeLoaded,
    NodeUnloaded,
    RequestCompleted,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import ServingSystem
    from repro.engine.request import Request
    from repro.hardware.node import Node
    from repro.models.catalog import ModelSpec
    from repro.workloads.spec import Deployment, Workload


def _as_slinfer_config(config: SystemConfig) -> SlinferConfig:
    """Adopt the system's config, widening a plain SystemConfig if needed.

    Sweeping SLINFER placement into a foreign bundle (whose config is a
    plain :class:`SystemConfig`) keeps the shared knobs and takes the
    paper's defaults for the SLINFER-specific ones.
    """
    if isinstance(config, SlinferConfig):
        return config
    shared = {f.name: getattr(config, f.name) for f in dataclasses.fields(SystemConfig)}
    return SlinferConfig(**shared)


class SlinferPlacement(PlacementPolicy):
    """Elastic heterogeneous sharing with shadow-validated placement."""

    def __init__(self) -> None:
        self.system: "ServingSystem | None" = None
        self.cfg = SlinferConfig()
        self.watermark = WatermarkPolicy(self.cfg.watermark)
        self.estimator = OutputLengthEstimator(prior=self.cfg.output_length_prior)
        self._orchestrators: dict[str, MemoryOrchestrator] = {}
        self._node_executor: dict[str, Executor] = {}
        self._reserved_nodes: set[str] = set()  # secondaries of TP instances
        self._exclusive_partners: dict[int, list["Node"]] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def prepare(self, system: "ServingSystem", workload: "Workload") -> None:
        self.system = system
        self.cfg = _as_slinfer_config(system.config)
        self.watermark = WatermarkPolicy(self.cfg.watermark)
        self.estimator = OutputLengthEstimator(prior=self.cfg.output_length_prior)
        for node in system.cluster.nodes:
            executor = Executor(exec_id=f"x-{node.node_id}", node=node)
            system.executors.append(executor)
            self._node_executor[node.node_id] = executor
            self._orchestrators[node.node_id] = MemoryOrchestrator(
                sim=system.sim,
                node=node,
                listener=self,
                on_op_metric=self._op_metric,
                topology=system.cluster.topology,
            )
        system.bus.subscribe(IterationFinished, _WatermarkCheck(self))
        system.bus.subscribe(RequestCompleted, self._on_request_complete)

    def _orch(self, instance_or_node) -> MemoryOrchestrator:
        node = instance_or_node if isinstance(instance_or_node, _Node) else instance_or_node.node
        return self._orchestrators[node.node_id]

    # ------------------------------------------------------------------
    # Orchestrator listener
    # ------------------------------------------------------------------
    def on_load_complete(self, instance: Instance) -> None:
        assert self.system is not None
        self.system.activate_instance(instance)

    def on_unload_complete(self, instance: Instance) -> None:
        assert self.system is not None
        self.system.detach(instance)
        self.system.capacity_changed()

    def on_scale_complete(self, instance: Instance, op: MemoryOp) -> None:
        assert self.system is not None
        self.system.capacity_changed()

    def _op_metric(self, op: MemoryOp, duration: float) -> None:
        assert self.system is not None
        self.system.publish(MemoryOpIssued(op, duration, self.system.sim.now))

    def unloading(self, instance: Instance) -> bool:
        return self._orch(instance).serving_kv_bytes(instance) is None

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def try_place(self, system: "ServingSystem", request: "Request") -> bool:
        deployment = system.deployments[request.deployment]
        if self._is_exclusive_deployment(deployment):
            return self._place_exclusive(request, deployment)
        candidates = self._candidate_instances(deployment, request)
        for instance in candidates[: self.cfg.max_placement_candidates]:
            if self._validate_and_dispatch(instance, request):
                return True
        # Preemption planning is arrival-time machinery (§VIII-A); queued
        # requests being retried skip it — the cluster state that failed
        # them hasn't structurally changed, and re-planning per retry would
        # make retries quadratic under overload.
        if (
            self.cfg.enable_consolidation
            and not system.retrying
            and self._try_preemption(request, deployment)
        ):
            return True
        return self._place_new_instance(request, deployment)

    def _candidate_instances(self, deployment: "Deployment", request: "Request") -> list[Instance]:
        system = self.system
        assert system is not None
        admission = system.policies.admission
        instances = [
            inst
            for inst in system.instances_of(deployment.name)
            if not inst.exclusive
            and not self.unloading(inst)
            and admission.allow_instance(system, inst, request)
        ]
        instances = [
            inst
            for inst in instances
            if inst.node.is_gpu or self._cpu_ok(inst.node, deployment.model, request)
        ]
        return order_dispatch_candidates(
            instances,
            prefer_cpu=self.cfg.enable_cpu,
            bin_packing=self.cfg.enable_consolidation,
        )

    def _cpu_ok(self, node: "Node", model: "ModelSpec", request: "Request") -> bool:
        system = self.system
        assert system is not None
        if not self.cfg.enable_cpu:
            return False
        return system.perf.cpu_can_serve(node.spec, model, request.prefill_len, system.slo)

    # ------------------------------------------------------------------
    # Admission to an existing instance
    # ------------------------------------------------------------------
    def _validate_and_dispatch(self, instance: Instance, request: "Request") -> bool:
        system = self.system
        assert system is not None
        orch = self._orch(instance)
        average_out = self.estimator.average(instance.deployment)
        require = kv_required_bytes(instance, average_out, extra_requests=[request])
        require -= self._shared_kv_discount(instance, request)
        planned = orch.planned_kv_bytes(instance)
        target: Optional[int] = None
        if planned < require:
            recommend = self.watermark.recommended_bytes(require)
            if orch.can_scale_to(instance, recommend):
                target = recommend
            elif orch.can_scale_to(instance, require):
                target = require  # §VII-D intra-instance compromise
            else:
                return False
        if not self._compute_admits(
            request,
            system.executor_for(instance),
            self._perf_of(instance),
            _join_grace(instance, request),
            target=instance,
        ):
            return False
        if target is not None:
            if instance.state is InstanceState.LOADING:
                orch.retarget_load_kv(instance, target)
            else:
                orch.request_scale(instance, target)
        system.dispatch(request, instance)
        return True

    def _shared_kv_discount(self, instance: Instance, request: "Request") -> int:
        """Bytes of the demand estimate already covered by shared blocks.

        With prefix sharing on, resident requests' shared prefixes are
        single physical copies, and the incoming request's cached-prefix
        hit (a side-effect-free probe) will not allocate either — so the
        Eq. 2 demand the scaler must cover shrinks by exactly those
        tokens.  Shared token counts are block-aligned, so the discount
        is block-exact.  Zero with sharing off.
        """
        store = instance.kv_share
        if store is None:
            return 0
        tokens = store.probe(request)
        for resident in instance.batch:
            tokens += resident.shared_tokens
        for resident in instance.prefill_pending:
            tokens += resident.shared_tokens
        return tokens * instance.model.kv_bytes_per_token

    # ------------------------------------------------------------------
    # Compute admission (§VI-C): the one check every placement passes
    # ------------------------------------------------------------------
    def _perf_of(self, instance: Instance) -> QuantifiedPerf:
        system = self.system
        assert system is not None
        return system.perf.quantified(
            instance.node.spec, instance.model, instance.fraction, instance.tp_degree
        )

    def _compute_admits(
        self,
        request: "Request",
        executor: Executor,
        perf: QuantifiedPerf,
        grace: float,
        target: Optional[Instance] = None,
        ready_at: float = 0.0,
        exclude: Collection[int] = (),
    ) -> bool:
        """Would ``executor``'s node serve ``request`` within SLOs (§VI-C)?

        The request joins ``target``, an existing replica, or, when
        ``target`` is None, a new instance ready at ``ready_at``.  The
        caller supplies the joined instance's ``perf`` and the request's
        ``grace``; instances whose ids are in ``exclude`` (preemption
        victims) count as gone.

        An O(instances) precheck runs first, with its own arithmetic:

        * aggregate decode (case 3 style): every other instance with
          work adds ``tpot_seconds(batch + pending prefills, avg
          context)``, averaged over its running batch only (the new
          request's context when the batch is empty); the joined
          instance adds ``tpot_seconds(batch + 1, request.context_len)``,
          ignoring its pending prefills.  The sum times ``overestimate``
          must fit the TPOT SLO.
        * own prefill (case 1 style, first token only): the prefill
          estimate times ``overestimate`` must fit the request's
          headroom plus one TPOT and its own grace, ignoring queued
          prefills ahead of it.

        Its rejections are final, and it can reject placements the
        virtual execution would pass.  Only then is every active,
        non-excluded instance snapshotted in executor order (the new
        request queued on ``target``, or on a virtual instance appended
        last) for :func:`shadow_validate`.
        """
        system = self.system
        assert system is not None
        now = system.sim.now
        overestimate = self.cfg.overestimate
        active = [inst for inst in executor.active_instances() if inst.inst_id not in exclude]
        aggregate = 0.0
        for other in active:
            if other is target:
                continue
            batch = other.batch_size + len(other.prefill_pending)
            if batch > 0:
                context = other.avg_context_len() or request.context_len
                aggregate += self._perf_of(other).tpot_seconds(batch, context)
        joined = target.batch_size if target is not None else 0
        aggregate += perf.tpot_seconds(joined + 1, request.context_len)
        if aggregate * overestimate > system.slo.tpot:
            return False
        if request.tokens_out == 0:  # mid-stream: own deadline is soft
            prefill = perf.ttft_seconds(request.prefill_len) * overestimate
            headroom = request.headroom(now) + request.tpot_slo
            if prefill > headroom + max(0.0, request.grace):
                return False
        shadows = []
        for other in active:
            if other is target:
                shadow = ShadowInstance.snapshot(other, perf)
                shadow.admit(request, grace)
            else:
                shadow = ShadowInstance.snapshot(other, self._perf_of(other))
            shadows.append(shadow)
        if target is None:
            virtual = ShadowInstance(perf, ready_at)
            virtual.admit(request, grace)
            shadows.append(virtual)
        with system.overhead_timer("shadow_validation"):
            verdict = shadow_validate(
                shadows,
                now=now,
                busy_until=executor.busy_until if executor.busy else now,
                tpot_slo=system.slo.tpot,
                overestimate=overestimate,
            )
        return verdict is ShadowVerdict.PASS

    # Hooks used by the preemption planner ------------------------------
    def validate_migration(self, destination: Instance, request: "Request") -> bool:
        """Would ``request`` (about to be evicted) meet SLOs on ``destination``?"""
        system = self.system
        assert system is not None
        if destination.state is InstanceState.UNLOADED or self.unloading(destination):
            return False
        orch = self._orch(destination)
        average_out = self.estimator.average(destination.deployment)
        require = kv_required_bytes(destination, average_out, extra_requests=[request])
        if orch.planned_kv_bytes(destination) < require and not orch.can_scale_to(
            destination, require
        ):
            return False
        return self._compute_admits(
            request,
            system.executor_for(destination),
            self._perf_of(destination),
            _join_grace(destination, request),
            target=destination,
        )

    def validate_after_preemption(
        self, target: Instance, request: "Request", victims: list[Instance]
    ) -> bool:
        """Would ``target`` absorb ``request`` once ``victims`` are gone?"""
        system = self.system
        assert system is not None
        orch = self._orch(target)
        average_out = self.estimator.average(target.deployment)
        require = kv_required_bytes(target, average_out, extra_requests=[request])
        freed = sum(
            victim.weight_bytes_per_node + orch.planned_kv_bytes(victim)
            for victim in victims
        )
        planned = orch.planned_kv_bytes(target)
        if planned < require:
            if orch.optimistic_free() + freed < require - planned:
                return False
        return self._compute_admits(
            request,
            system.executor_for(target),
            self._perf_of(target),
            _join_grace(target, request),
            target=target,
            exclude={victim.inst_id for victim in victims},
        )

    # ------------------------------------------------------------------
    # Proactive preemption (§VIII-A)
    # ------------------------------------------------------------------
    def _try_preemption(self, request: "Request", deployment: "Deployment") -> bool:
        system = self.system
        assert system is not None
        if not system.instances_of(deployment.name):
            return False
        with system.overhead_timer("preemption_planning"):
            plan = plan_preemption(self, request, deployment.name)
        if plan is None:
            return False
        system.metrics.preemptions += len(plan.victims)
        source_nodes: dict[int, "Node"] = {}
        for victim in plan.victims:
            for victim_request in victim.requests:
                victim.remove(victim_request)
                system.release_shared_kv(victim, victim_request)
                victim_request.begin_migration()
                source_nodes[victim_request.req_id] = victim.node
                system.metrics.migrations += 1
            self._orch(victim).unload_instance(victim)
        for migrated, destination in plan.migrations:
            if self._validate_and_dispatch(destination, migrated):
                self._announce_kv_migration(
                    source_nodes.get(migrated.req_id), destination, migrated
                )
            else:
                system.enqueue(migrated)
        # The target should now absorb the trigger request; fall back to the
        # normal path if runtime state shifted underneath the plan.
        if self._validate_and_dispatch(plan.target, request):
            return True
        return self._place_new_instance(request, deployment)

    def _announce_kv_migration(
        self, source: "Node | None", destination: Instance, request: "Request"
    ) -> None:
        """Issue the route-carrying ``MemoryOpIssued`` for a migrated KV set.

        On a contended route the bytes occupy the shared links through
        the bandwidth tracker (slowing concurrent cold starts) and the
        op is published when they land; on a dedicated route the move
        cannot contend with anything, so it is announced immediately
        with zero duration — no extra simulation events, preserving the
        pre-topology trajectory exactly.
        """
        system = self.system
        assert system is not None
        if source is None:
            return
        topology = system.cluster.topology
        route = topology.route_between(source.node_id, destination.node.node_id)
        nbytes = request.context_len * destination.model.kv_bytes_per_token
        op = MemoryOp(
            kind=OpKind.MIGRATE_KV,
            instance=destination,
            target_bytes=nbytes,
            state=OpState.EXECUTING,
            issued_at=system.sim.now,
            started_at=system.sim.now,
            route=topology.link_ids(route),
        )
        if topology.route_contended(route):
            def _landed(op: MemoryOp = op) -> None:
                op.state = OpState.DONE
                op.finished_at = system.sim.now
                self._op_metric(op, op.finished_at - op.issued_at)

            topology.start_kv_transfer(
                source.node_id, destination.node.node_id, nbytes, on_complete=_landed
            )
        else:
            op.state = OpState.DONE
            op.finished_at = system.sim.now
            self._op_metric(op, 0.0)

    # ------------------------------------------------------------------
    # New instances (§V bin-packing placement)
    # ------------------------------------------------------------------
    def _place_new_instance(self, request: "Request", deployment: "Deployment") -> bool:
        system = self.system
        assert system is not None
        model = deployment.model
        average_out = self.estimator.average(deployment.name)
        require = initial_kv_required(model, request, average_out)
        recommend = self.watermark.recommended_bytes(require)
        weights = model.weight_bytes

        nodes = [
            node
            for node in system.cluster.nodes
            if node.node_id not in self._reserved_nodes
            and not any(inst.exclusive for inst in node.instances)
        ]
        if not self.cfg.enable_sharing:
            nodes = [
                node
                for node in nodes
                if not any(
                    inst.state is not InstanceState.UNLOADED for inst in node.instances
                )
            ]
        nodes = [
            node
            for node in nodes
            if node.is_gpu or self._cpu_ok(node, model, request)
        ]
        ordered = order_nodes_best_fit(
            nodes,
            free_bytes=lambda n: self._orchestrators[n.node_id].optimistic_free(),
            required_bytes=weights + require,
            prefer_cpu=self.cfg.enable_cpu,
        )
        topology = system.cluster.topology
        candidates = ordered[: self.cfg.max_placement_candidates]
        if topology.has_shared_links:
            # Topology seam: within the best-fit candidate window, try
            # nodes whose inbound links are idle first — a cold start
            # behind a busy shared uplink starts later for the same
            # memory fit.  Sorting only the window keeps the candidate
            # *set* identical to the fit ordering (pressure reorders
            # trials, it never evicts an admittable node), and the
            # stable sort over all-zero pressures makes dedicated
            # topologies a no-op.
            candidates.sort(key=lambda n: topology.inbound_pressure(n.node_id))
        for node in candidates:
            orch = self._orchestrators[node.node_id]
            if orch.can_admit(weights, recommend):
                kv_target = recommend
            elif orch.can_admit(weights, require):
                kv_target = require
            else:
                continue
            # Load-time law over link state: bottleneck share of the
            # node's load route (the flat loader constant on an idle or
            # dedicated route), plus the KV-pool allocation.
            load_estimate = topology.estimate_load_seconds(node.node_id, weights)
            load_estimate += kv_scaling_seconds(0, kv_target, 0)
            executor = self._node_executor[node.node_id]
            perf = system.perf.quantified(node.spec, model, 1.0, deployment.tp_degree)
            if not self._compute_admits(
                request,
                executor,
                perf,
                max(request.grace, load_estimate),
                ready_at=system.sim.now + load_estimate,
            ):
                continue
            instance = system.make_instance(deployment, node)
            system.attach(instance, executor)
            duration = orch.admit_instance(instance, kv_target)
            if instance.load_ready_at <= system.sim.now:
                # Parked in the reservation station: carry the link-state
                # estimate until the load actually starts.  Started
                # loads already hold the tracker's exact completion time
                # (kept current under re-timing).
                instance.load_ready_at = system.sim.now + duration
            system.dispatch(request, instance)
            return True
        return False

    # ------------------------------------------------------------------
    # Memory-driven behaviour during serving (event-bus subscribers)
    # ------------------------------------------------------------------
    def _after_iteration(self, event: IterationFinished) -> None:
        instance = event.instance
        if instance.exclusive or instance.state is not InstanceState.ACTIVE:
            return
        orch = self._orchestrators[instance.node.node_id]
        planned = orch.serving_kv_bytes(instance)
        if planned is None:
            return  # unloading
        next_live = instance.live_kv_bytes() + instance.batch_size * instance.model.kv_bytes_per_token
        if next_live <= planned:
            return
        # Underestimation (§VII-D): try to grow again, else evict the
        # request with the longest headroom and reschedule it.
        average_out = self.estimator.average(instance.deployment)
        require = max(kv_required_bytes(instance, average_out), next_live)
        if orch.request_scale(instance, require):
            return
        self._evict_longest_headroom(instance)

    def decode_chain_quiet_steps(self, instance: Instance, max_steps: int) -> int:
        """Largest q ≤ ``max_steps`` with :meth:`_after_iteration` a
        no-op for the instance's next q consecutive decode iterations.

        The j-th iteration grants every batch member its j-th new token,
        so the handler's watermark check sees exactly
        ``live(j) + batch_size·kv_bytes_per_token ≤ planned`` with
        ``live(j)`` the block-rounded KV footprint at context ``+j``.
        Those are the very expressions the handler evaluates (the
        instance has no prefill backlog inside a chain, so
        ``live_kv_bytes`` reduces to the batch's blocks), and the
        footprint is non-decreasing in j, making quietness monotone.
        Every footprint is a whole number of blocks, so the byte
        comparison is the block count ``blocks(j) ≤ ⌊(planned −
        growth)/block⌋``, answered by the batch profile
        (:meth:`~repro.engine.instance.BatchProfile.quiet_steps`, the
        cached form of :func:`quiet_decode_steps`).
        """
        if max_steps <= 0:
            return 0
        if instance.exclusive or instance.state is not InstanceState.ACTIVE:
            return max_steps
        planned = self._orchestrators[instance.node.node_id].serving_kv_bytes(instance)
        if planned is None:
            return max_steps  # unloading
        growth = instance.batch_size * instance.model.kv_bytes_per_token
        budget = (planned - growth) // instance.kv.block_bytes
        profile = instance.batch_profile()
        store = instance.kv_share
        if store is not None:
            # Sharing-aware live footprint: referenced shared blocks are a
            # fixed term inside a chain (admissions break chains), so they
            # move to the budget side; each member's growing term is its
            # *private* tail, its blocks minus its block-aligned shared
            # prefix (``ceil((c + j − s)/BT) = ceil((c + j)/BT) − s/BT``).
            budget += profile.shared_blocks - store.referenced_blocks
        return profile.quiet_steps(budget, instance.grants, max_steps)

    def _evict_longest_headroom(self, instance: Instance) -> None:
        system = self.system
        assert system is not None
        if not instance.batch:
            return
        victim = max(instance.batch, key=lambda r: r.headroom(system.sim.now))
        instance.leave_batch(victim)
        system.release_shared_kv(instance, victim)
        victim.begin_migration()
        system.metrics.migrations += 1
        system.metrics.evictions += 1
        if not system.try_place(victim):
            system.enqueue(victim)

    def _on_request_complete(self, event: RequestCompleted) -> None:
        instance, request = event.instance, event.request
        self.estimator.observe(request.deployment, max(1, request.tokens_out))
        if instance.exclusive or instance.state is InstanceState.UNLOADED:
            return
        if self.unloading(instance):
            return
        orch = self._orch(instance)
        average_out = self.estimator.average(instance.deployment)
        require = kv_required_bytes(instance, average_out)
        planned = orch.planned_kv_bytes(instance)
        if self.watermark.should_scale_down(planned, require):
            orch.request_scale(instance, self.watermark.scale_down_target(require))

    # ------------------------------------------------------------------
    # Reclaim mechanics (invoked by the reclaim policy)
    # ------------------------------------------------------------------
    def unload(self, system: "ServingSystem", instance: Instance) -> None:
        if instance.exclusive:
            self._reclaim_exclusive(instance)
            return
        self._orch(instance).unload_instance(instance)

    # ------------------------------------------------------------------
    # Exclusive fallback for large models (§IX-E, §X)
    # ------------------------------------------------------------------
    def _is_exclusive_deployment(self, deployment: "Deployment") -> bool:
        system = self.system
        assert system is not None
        if deployment.tp_degree > 1:
            return True
        gpu_nodes = system.cluster.gpu_nodes
        if not gpu_nodes:
            return False
        threshold = self.cfg.exclusive_weight_fraction * gpu_nodes[0].memory_bytes
        return deployment.model.weight_bytes > threshold

    def _place_exclusive(self, request: "Request", deployment: "Deployment") -> bool:
        from repro.perf.limits import baseline_concurrency_limit

        system = self.system
        assert system is not None
        for instance in system.instances_of(deployment.name):
            limit = baseline_concurrency_limit(
                instance.node.spec, instance.model, shared=False, tp_degree=instance.tp_degree
            )
            if instance.request_count < max(1, limit):
                system.dispatch(request, instance)
                return True
        tp = deployment.tp_degree
        free = [
            node
            for node in system.cluster.gpu_nodes
            if not node.instances and node.node_id not in self._reserved_nodes
        ]
        if len(free) < tp:
            return False
        primary, partners = free[0], free[1:tp]
        instance = system.make_instance(deployment, primary, exclusive=True)
        executor = self._node_executor[primary.node_id]
        system.attach(instance, executor)
        for partner in partners:
            self._reserved_nodes.add(partner.node_id)
            system.publish(NodeLoaded(partner.node_id, partner.kind, system.sim.now))
        self._exclusive_partners[instance.inst_id] = partners
        shard_bytes = deployment.model.weight_bytes / tp
        transfer = system.cluster.topology.start_load(
            primary.node_id,
            shard_bytes,
            on_complete=lambda: self._exclusive_loaded(instance),
            on_retime=lambda eta: setattr(instance, "load_ready_at", eta),
        )
        instance.load_ready_at = transfer.eta
        system.dispatch(request, instance)
        return True

    def _exclusive_loaded(self, instance: Instance) -> None:
        system = self.system
        assert system is not None
        capacity = instance.tp_degree * instance.node.memory_bytes
        instance.kv.allocated_bytes = max(0, capacity - instance.model.weight_bytes)
        system.activate_instance(instance)

    def _reclaim_exclusive(self, instance: Instance) -> None:
        system = self.system
        assert system is not None
        instance.state = InstanceState.UNLOADED
        for partner in self._exclusive_partners.pop(instance.inst_id, []):
            self._reserved_nodes.discard(partner.node_id)
            system.publish(NodeUnloaded(partner.node_id, system.sim.now))
        system.detach(instance)
        system.capacity_changed()


def _join_grace(instance: Instance, request: "Request") -> float:
    """The grace ``request`` gets joining an existing replica: its own,
    widened to the replica's cold start while it is LOADING."""
    if instance.state is InstanceState.LOADING:
        return max(request.grace, instance.load_ready_at - request.arrival)
    return request.grace


class _WatermarkCheck(DecodeChainHandler):
    """The §VII-D watermark check, quiet for a bounded run of decode steps."""

    __slots__ = ("placement",)

    def __init__(self, placement: SlinferPlacement) -> None:
        self.placement = placement

    def __call__(self, event: IterationFinished) -> None:
        self.placement._after_iteration(event)

    def quiet_steps(self, instance: Instance, max_steps: int) -> int:
        return self.placement.decode_chain_quiet_steps(instance, max_steps)


def quiet_decode_steps(offsets: list[int], budget: int, max_steps: int) -> int:
    """Largest q ≤ ``max_steps`` with ``Σ⌊(o_i + q)/BT⌋ ≤ budget``, else 0.

    The closed form of the monotone block-count predicate behind
    :meth:`SlinferPlacement.decode_chain_quiet_steps`, recomputed from
    the members' ceil-shifted context offsets ``o_i`` (BT =
    ``BLOCK_TOKENS``): member i's block count steps up at ``q = BT − o_i
    mod BT`` and every BT steps after, and the predicate first fails at
    :func:`~repro.engine.instance.overflow_step`.  The live path reads the
    same bound from the instance's cached batch profile; this per-call
    form is its oracle.
    """
    if max_steps <= 0:
        return 0
    slack = budget - sum(c // BLOCK_TOKENS for c in offsets)
    crossings = sorted(BLOCK_TOKENS - c % BLOCK_TOKENS for c in offsets)
    quiet = overflow_step(crossings, slack) - 1
    return max_steps if quiet >= max_steps else max(0, int(quiet))
