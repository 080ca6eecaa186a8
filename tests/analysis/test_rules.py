"""Per-rule units: each rule's positive match, negative space, and scope."""

from __future__ import annotations

import textwrap

from lint_helpers import lint_source

from repro.analysis.engine import get_rule


def _src(body: str) -> str:
    return textwrap.dedent(body)


# ----------------------------------------------------------------------
# no-wall-clock
# ----------------------------------------------------------------------
class TestNoWallClock:
    def test_flags_perf_counter_in_sim(self):
        src = _src(
            """
            import time
            t = time.perf_counter()
            """
        )
        found = lint_source(src, "no-wall-clock", module="repro.sim.simulator")
        assert len(found) == 1
        assert "perf_counter" in found[0].message

    def test_flags_aliased_import_and_from_import(self):
        src = _src(
            """
            import time as _wallclock
            from time import monotonic as mono
            a = _wallclock.time()
            b = mono()
            """
        )
        rules = [f.line for f in lint_source(src, "no-wall-clock", module="repro.policies.x")]
        assert rules == [4, 5]

    def test_flags_datetime_now(self):
        src = _src(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        )
        assert len(lint_source(src, "no-wall-clock", module="repro.engine.request")) == 1

    def test_allowed_in_bench_and_core(self):
        rule = get_rule("no-wall-clock")
        assert not rule.applies("repro.bench.suite")
        assert not rule.applies("repro.gateway.server")
        assert not rule.applies("repro.core.system")  # the overhead seam lives here
        assert rule.applies("repro.policies.slinfer")
        assert rule.applies(None)  # fixtures are in scope

    def test_sim_now_attribute_not_flagged(self):
        src = _src(
            """
            def handle(sim) -> float:
                return sim.now
            """
        )
        assert lint_source(src, "no-wall-clock", module="repro.sim.simulator") == []


# ----------------------------------------------------------------------
# no-ambient-rng
# ----------------------------------------------------------------------
class TestNoAmbientRng:
    def test_flags_stdlib_random(self):
        src = "import random\nx = random.shuffle(items)\n"
        found = lint_source(src, "no-ambient-rng", module="repro.policies.work")
        assert len(found) == 1 and "random.shuffle" in found[0].message

    def test_flags_np_random_global_and_unseeded_default_rng(self):
        src = _src(
            """
            import numpy as np
            a = np.random.rand(3)
            rng = np.random.default_rng()
            """
        )
        found = lint_source(src, "no-ambient-rng", module="repro.workloads.scenarios")
        assert sorted(f.line for f in found) == [3, 4]

    def test_seeded_default_rng_and_annotations_ok(self):
        src = _src(
            """
            import numpy as np

            def draw(seed: int, rng: np.random.Generator) -> float:
                local = np.random.default_rng(seed)
                return local.random()
            """
        )
        assert lint_source(src, "no-ambient-rng", module="repro.workloads.scenarios") == []

    def test_rng_seam_module_exempt(self):
        assert not get_rule("no-ambient-rng").applies("repro.sim.rng")
        assert get_rule("no-ambient-rng").applies("repro.sim.simulator")


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
class TestUnorderedIteration:
    def test_flags_set_literal_and_assigned_set(self):
        src = _src(
            """
            candidates = {3, 1, 2}
            for c in candidates:
                print(c)
            """
        )
        assert len(lint_source(src, "unordered-iteration", module="repro.policies.x")) == 1

    def test_sorted_wrapping_accepted(self):
        src = _src(
            """
            candidates = set(names)
            for c in sorted(candidates):
                print(c)
            """
        )
        assert lint_source(src, "unordered-iteration", module="repro.policies.x") == []

    def test_membership_check_not_flagged(self):
        src = _src(
            """
            seen = set()
            if node in seen:
                pass
            """
        )
        assert lint_source(src, "unordered-iteration", module="repro.core.system") == []

    def test_dict_built_from_set_flagged(self):
        src = _src(
            """
            hot = {1, 2, 3}
            by_id = dict.fromkeys(hot)
            for key in by_id.keys():
                print(key)
            """
        )
        found = lint_source(src, "unordered-iteration", module="repro.kv.store")
        assert len(found) == 1 and "dict built from a set" in found[0].message

    def test_comprehension_over_set_call_flagged(self):
        src = "names = [n for n in set(raw)]\n"
        assert len(lint_source(src, "unordered-iteration", module="repro.sim.engine")) == 1

    def test_output_packages_exempt(self):
        rule = get_rule("unordered-iteration")
        assert not rule.applies("repro.bench.suite")
        assert not rule.applies("repro.cli")
        assert rule.applies("repro.workloads.scenarios")


# ----------------------------------------------------------------------
# handler-purity
# ----------------------------------------------------------------------
class TestHandlerPurity:
    def test_subscribed_method_calling_publish_flagged(self):
        src = _src(
            """
            class Policy:
                def prepare(self, system) -> None:
                    system.bus.subscribe(object, self._on_event)

                def _on_event(self, event) -> None:
                    self.system.publish(event)
            """
        )
        found = lint_source(src, "handler-purity", module="repro.policies.custom")
        assert len(found) == 1 and "publish" in found[0].message

    def test_handler_heappush_and_heap_access_flagged(self):
        src = _src(
            """
            import heapq

            def on_event(event) -> None:
                heapq.heappush(event.sim._heap, (0.0, 0, event))

            bus.subscribe(object, on_event)
            """
        )
        found = lint_source(src, "handler-purity", module="repro.policies.custom")
        assert {("heap" in f.message or "_heap" in f.message) for f in found} == {True}
        assert len(found) == 2  # the call and the _heap attribute

    def test_lambda_handler_checked(self):
        src = "bus.subscribe(object, lambda e: bus.publish(e))\n"
        found = lint_source(src, "handler-purity", module="repro.policies.custom")
        assert len(found) == 1 and "lambda" in found[0].message

    def test_unsubscribed_function_not_checked(self):
        src = _src(
            """
            def republish(bus, event) -> None:
                bus.publish(event)
            """
        )
        assert lint_source(src, "handler-purity", module="repro.policies.custom") == []

    def test_pure_observer_lambda_ok(self):
        src = "bus.subscribe(object, lambda e: counts.update([e.kind]))\n"
        assert lint_source(src, "handler-purity", module="repro.policies.observers") == []


# ----------------------------------------------------------------------
# engine-seam
# ----------------------------------------------------------------------
class TestEngineSeam:
    def test_foreign_heap_access_flagged(self):
        src = "def f(sim) -> int:\n    return len(sim._heap)\n"
        found = lint_source(src, "engine-seam", module="repro.policies.custom")
        assert len(found) == 1 and "_heap" in found[0].message

    def test_all_private_attrs_covered(self):
        src = _src(
            """
            def f(sim) -> None:
                sim._sequence = None
                sim._events_processed += 1
                sim._compact_at = 3
            """
        )
        assert len(lint_source(src, "engine-seam", module="repro.runner.executor")) == 3

    def test_own_private_state_allowed(self):
        src = _src(
            """
            class Thing:
                def __init__(self) -> None:
                    self._heap = []
                    self._sequence = 0
            """
        )
        assert lint_source(src, "engine-seam", module="repro.kv.prefix") == []

    def test_sim_package_exempt(self):
        rule = get_rule("engine-seam")
        assert not rule.applies("repro.sim.engine")
        assert not rule.applies("repro.sim.simulator")
        assert rule.applies("repro.core.system")
        assert rule.applies(None)


# ----------------------------------------------------------------------
# float-accum
# ----------------------------------------------------------------------
class TestFloatAccum:
    def test_float_comprehension_sum_flagged(self):
        src = "total = sum(r.busy_seconds for r in reports)\n"
        found = lint_source(src, "float-accum", module="repro.metrics.report")
        assert len(found) == 1 and "fsum" in found[0].message

    def test_integer_count_sum_not_flagged(self):
        src = "count = sum(1 for r in requests if r.done)\n"
        assert lint_source(src, "float-accum", module="repro.metrics.report") == []

    def test_int_counter_name_containing_ratio_not_flagged(self):
        # "migrations" contains the substring "ratio"; token matching
        # must not trip on it.
        src = "n = sum(r.migrations for r in reports)\n"
        assert lint_source(src, "float-accum", module="repro.metrics.report") == []

    def test_fsum_not_flagged(self):
        src = "import math\ntotal = math.fsum(r.seconds for r in reports)\n"
        assert lint_source(src, "float-accum", module="repro.metrics.collector") == []

    def test_scoped_to_metrics(self):
        rule = get_rule("float-accum")
        assert rule.applies("repro.metrics.report")
        assert not rule.applies("repro.policies.slinfer")


# ----------------------------------------------------------------------
# typed-defs
# ----------------------------------------------------------------------
class TestTypedDefs:
    def test_missing_annotations_flagged_once_per_function(self):
        src = _src(
            """
            def bad(a, b):
                return a + b
            """
        )
        found = lint_source(src, "typed-defs", module="repro.analysis.custom")
        assert len(found) == 1
        assert "a, b" in found[0].message and "return" in found[0].message

    def test_fully_annotated_passes(self):
        src = _src(
            """
            def good(a: int, *args: str, flag: bool = False, **kw: object) -> int:
                return a

            class C:
                def __init__(self, x: int):
                    self.x = x
            """
        )
        assert lint_source(src, "typed-defs", module="repro.analysis.custom") == []

    def test_scoped_to_strict_packages(self):
        rule = get_rule("typed-defs")
        assert rule.applies("repro.analysis.rules")
        assert not rule.applies("repro.policies.slinfer")

    def test_analysis_package_is_clean(self):
        from repro.analysis.engine import run_lint

        report = run_lint(["src/repro/analysis"], rules=["typed-defs"])
        assert report.findings == []
