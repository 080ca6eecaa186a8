"""The shipped lint rules: determinism hazards as AST checks.

Each rule encodes one contract the dynamic test suite (golden fixtures,
engine parity, stream≡list equality, fingerprint caching) can only
falsify *after* a hazard ships:

* ``no-wall-clock`` — host-clock reads inside deterministic modules.
* ``no-ambient-rng`` — RNG outside the seeded ``repro.sim.rng`` seam.
* ``unordered-iteration`` — set-ordered iteration feeding scheduling.
* ``handler-purity`` — event-bus handlers touching the scheduler heap
  or re-entering ``publish``.
* ``engine-seam`` — Simulator private state accessed outside
  ``repro/sim``.
* ``float-accum`` — bare ``sum()`` over floats in metrics hot paths.
* ``typed-defs`` — incomplete annotations in strict-tier packages.

``RunSpec`` axes need no rule: ``to_dict``, ``from_dict`` and
``fingerprint`` iterate the dataclass fields, and
``tests/runner/test_spec_axes.py`` checks every field at run time.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from repro.analysis.engine import FileContext, Rule, register_rule
from repro.analysis.findings import Finding


def _module_in(module: str | None, prefixes: Sequence[str]) -> bool:
    """True when ``module`` sits under any of the dotted ``prefixes``.

    Unknown modules (``None`` — e.g. test fixtures outside the package
    root) count as in-scope so every rule is exercisable from a fixture.
    """
    if module is None:
        return True
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# no-wall-clock
# ----------------------------------------------------------------------
@register_rule
class NoWallClockRule(Rule):
    """Host-clock reads are forbidden in deterministic modules.

    Simulation time is ``sim.now``; the only sanctioned wall-clock seam
    for policy code is ``ServingSystem.overhead_timer`` (which lives in
    ``repro.core``, outside this rule's scope).
    """

    rule_id = "no-wall-clock"
    description = (
        "time.time/perf_counter/datetime.now forbidden in repro.sim, "
        "repro.engine, repro.policies, repro.federation (use sim.now or "
        "the overhead seam)"
    )

    DENY = ("repro.sim", "repro.engine", "repro.policies", "repro.federation")
    TIME_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
        }
    )
    NOW_ATTRS = frozenset({"now", "utcnow", "today"})

    def applies(self, module: str | None) -> bool:
        return _module_in(module, self.DENY)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        time_aliases: set[str] = set()
        time_names: set[str] = set()  # from time import perf_counter as p
        dt_module_aliases: set[str] = set()  # import datetime as d
        dt_class_aliases: set[str] = set()  # from datetime import datetime/date
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name in ("datetime", "datetime.datetime"):
                        dt_module_aliases.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self.TIME_ATTRS:
                            time_names.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            dt_class_aliases.add(alias.asname or alias.name)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                base = node.value
                if (
                    node.attr in self.TIME_ATTRS
                    and isinstance(base, ast.Name)
                    and base.id in time_aliases
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"wall-clock read '{base.id}.{node.attr}' in a "
                        "deterministic module; use sim.now (simulated time) or "
                        "the ServingSystem.overhead_timer seam",
                    )
                elif node.attr in self.NOW_ATTRS:
                    if isinstance(base, ast.Name) and base.id in dt_class_aliases:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"wall-clock read '{base.id}.{node.attr}' in a "
                            "deterministic module; use sim.now",
                        )
                    elif (
                        isinstance(base, ast.Attribute)
                        and base.attr in ("datetime", "date")
                        and isinstance(base.value, ast.Name)
                        and base.value.id in dt_module_aliases
                    ):
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"wall-clock read 'datetime.{base.attr}.{node.attr}' "
                            "in a deterministic module; use sim.now",
                        )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in time_names
            ):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"wall-clock read '{node.id}' (imported from time) in a "
                    "deterministic module; use sim.now or the overhead seam",
                )


# ----------------------------------------------------------------------
# no-ambient-rng
# ----------------------------------------------------------------------
@register_rule
class NoAmbientRngRule(Rule):
    """All randomness must flow through the seeded ``repro.sim.rng`` seam."""

    rule_id = "no-ambient-rng"
    description = (
        "random.* and unseeded np.random.* forbidden outside repro.sim.rng "
        "(use make_rng/spawn_rngs)"
    )

    ALLOWED_MODULE = "repro.sim.rng"
    #: numpy factories that are fine when called with an explicit seed
    SEEDED_FACTORIES = frozenset(
        {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "SFC64"}
    )

    def applies(self, module: str | None) -> bool:
        return module != self.ALLOWED_MODULE

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        random_aliases: set[str] = set()
        np_aliases: set[str] = set()
        np_random_aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name == "numpy":
                        np_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        np_random_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        "import from the ambient 'random' module; draw from a "
                        "seeded generator via repro.sim.rng.make_rng instead",
                    )
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            np_random_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in self.SEEDED_FACTORIES:
                            yield ctx.finding(
                                node,
                                self.rule_id,
                                f"import of ambient numpy.random.{alias.name}; "
                                "use repro.sim.rng.make_rng",
                            )

        def is_np_random(base: ast.expr) -> bool:
            return (
                isinstance(base, ast.Name) and base.id in np_random_aliases
            ) or (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in np_aliases
            )

        # Seeded factories (default_rng, Generator, SeedSequence, ...) are
        # legitimate *constructors*: only a zero-argument call — which
        # falls back to OS entropy — is ambient.  Bare references (type
        # annotations, isinstance checks) are fine.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if (
                    func.attr in self.SEEDED_FACTORIES
                    and is_np_random(func.value)
                    and not node.args
                    and not node.keywords
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"unseeded np.random.{func.attr}(); pass an explicit "
                        "seed or use repro.sim.rng.make_rng",
                    )

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in random_aliases:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"ambient RNG 'random.{node.attr}' (process-global state); "
                    "use repro.sim.rng.make_rng",
                )
                continue
            if (
                is_np_random(base)
                and node.attr not in self.SEEDED_FACTORIES
            ):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"ambient np.random.{node.attr} (process-global state); "
                    "use repro.sim.rng.make_rng",
                )


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
class _SetNames(ast.NodeVisitor):
    """Collect names bound to set-typed values within one scope."""

    SET_ANNOTATIONS = frozenset(
        {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
    )

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.set_dict_names: set[str] = set()  # dicts built from a set

    def _is_set_expr(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name) and node.id in self.set_names:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _is_set_annotation(self, annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return False
        if isinstance(annotation, ast.Name):
            return annotation.id in self.SET_ANNOTATIONS
        if isinstance(annotation, ast.Subscript):
            return self._is_set_annotation(annotation.value)
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in self.SET_ANNOTATIONS
        return False

    def _is_set_built_dict(self, node: ast.expr) -> bool:
        # dict.fromkeys(S) and {k: v for k in S} inherit the set's order
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted == "dict.fromkeys" and node.args:
                return self._is_set_expr(node.args[0])
        if isinstance(node, ast.DictComp):
            return any(self._is_set_expr(gen.iter) for gen in node.generators)
        return False

    def bind(self, target: ast.expr, value: ast.expr | None) -> None:
        if not isinstance(target, ast.Name):
            return
        if self._is_set_expr(value):
            self.set_names.add(target.id)
        elif value is not None and self._is_set_built_dict(value):
            self.set_dict_names.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.bind(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and self._is_set_annotation(node.annotation):
            self.set_names.add(node.target.id)
        else:
            self.bind(node.target, node.value)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if self._is_set_annotation(node.annotation):
            self.set_names.add(node.arg)


@register_rule
class UnorderedIterationRule(Rule):
    """Iterating a set (or a dict built from one) is order-nondeterministic
    across processes; wrap in ``sorted(...)`` where the order can reach
    event scheduling."""

    rule_id = "unordered-iteration"
    description = (
        "iteration over set/frozenset (or a set-built dict) in modules that "
        "feed event scheduling; wrap in sorted(...)"
    )

    # Output-only / host-side packages where iteration order cannot
    # reach the event heap.
    EXEMPT = (
        "repro.analysis",
        "repro.bench",
        "repro.cli",
        "repro.experiments",
        "repro.gateway",
    )
    MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})

    def applies(self, module: str | None) -> bool:
        return not _module_in(module, self.EXEMPT) if module is not None else True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        names = _SetNames()
        names.visit(ctx.tree)

        def classify(expr: ast.expr) -> str | None:
            """A human-readable description if ``expr`` is unordered."""
            if names._is_set_expr(expr):
                return "a set"
            if isinstance(expr, ast.Name) and expr.id in names.set_dict_names:
                return "a dict built from a set"
            if isinstance(expr, ast.Call):
                func = expr.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("keys", "values", "items")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in names.set_dict_names
                ):
                    return f"a dict built from a set (.{func.attr}())"
                if (
                    isinstance(func, ast.Name)
                    and func.id in self.MATERIALIZERS
                    and expr.args
                ):
                    inner = classify(expr.args[0])
                    if inner is not None:
                        return inner
            return None

        iteration_sites: list[tuple[ast.expr, ast.AST]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iteration_sites.append((node.iter, node))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    iteration_sites.append((gen.iter, gen.iter))
        for expr, anchor in iteration_sites:
            described = classify(expr)
            if described is not None:
                yield ctx.finding(
                    anchor,
                    self.rule_id,
                    f"iteration over {described}: order is nondeterministic "
                    "across interpreters; wrap in sorted(...)",
                )


# ----------------------------------------------------------------------
# handler-purity
# ----------------------------------------------------------------------
@register_rule
class HandlerPurityRule(Rule):
    """Event-bus handlers observe; they must not reshape the event heap.

    A handler that pushes onto the scheduler heap or re-enters
    ``publish`` changes delivery order mid-chain.  Handlers schedule
    follow-up work via ``sim.schedule`` and leave publishing to the
    lifecycle owner.  Checked on the handler's direct body (calls it
    makes are not chased).
    """

    rule_id = "handler-purity"
    description = (
        "functions subscribed to the EventBus may not touch _heap, call "
        "heappush, or re-enter publish directly"
    )

    HEAP_CALLS = frozenset({"heappush", "heappop", "heapreplace", "heapify"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        handler_names: set[str] = set()
        lambda_handlers: list[ast.Lambda] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "subscribe" or len(node.args) < 2:
                continue
            handler = node.args[1]
            if isinstance(handler, ast.Lambda):
                lambda_handlers.append(handler)
            elif isinstance(handler, ast.Attribute):
                handler_names.add(handler.attr)
            elif isinstance(handler, ast.Name):
                handler_names.add(handler.id)

        bodies: list[tuple[str, ast.AST]] = [
            (f"lambda handler (line {handler.lineno})", handler)
            for handler in lambda_handlers
        ]
        for func in _walk_functions(ctx.tree):
            if func.name in handler_names:
                bodies.append((f"handler '{func.name}'", func))

        for label, body in bodies:
            yield from self._check_body(ctx, label, body)

    def _check_body(
        self, ctx: FileContext, label: str, body: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else None
                attr = func.attr if isinstance(func, ast.Attribute) else None
                if name in self.HEAP_CALLS or attr in self.HEAP_CALLS:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"{label} manipulates a heap directly "
                        f"({name or attr}); schedule via sim.schedule instead",
                    )
                elif attr == "publish":
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"{label} re-enters publish() mid-delivery, reordering "
                        "the handler chain; schedule the follow-up event via "
                        "sim.schedule",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "_heap":
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"{label} touches Simulator._heap; handlers must use the "
                    "public scheduling API",
                )


# ----------------------------------------------------------------------
# engine-seam
# ----------------------------------------------------------------------
@register_rule
class EngineSeamRule(Rule):
    """Simulator private state is owned by ``repro/sim`` alone.

    Engine backends (``repro/sim/engine.py``) are the one sanctioned
    seam for heap surgery; everything else goes through ``schedule`` /
    ``schedule_at`` / ``peek_time``.
    """

    rule_id = "engine-seam"
    description = (
        "Simulator private state (_heap/_sequence/_events_processed/"
        "_compact_at) may only be touched from repro.sim"
    )

    ALLOWED = ("repro.sim",)
    PRIVATE_ATTRS = frozenset({"_heap", "_sequence", "_events_processed", "_compact_at"})

    def applies(self, module: str | None) -> bool:
        return module is None or not _module_in(module, self.ALLOWED)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in self.PRIVATE_ATTRS:
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue  # a class's own private state, not the Simulator's
            yield ctx.finding(
                node,
                self.rule_id,
                f"direct access to Simulator internal '{node.attr}' outside "
                "repro/sim; use the public scheduling API or add an engine "
                "backend",
            )


# ----------------------------------------------------------------------
# float-accum
# ----------------------------------------------------------------------
@register_rule
class FloatAccumRule(Rule):
    """Bare ``sum()`` over floats is association-ordered; metrics paths
    that may merge or shard must use ``math.fsum`` (exact and
    permutation-invariant) or a running ``StreamingStat``."""

    rule_id = "float-accum"
    description = (
        "bare sum() over float-valued comprehensions in repro.metrics; "
        "use math.fsum or running stats"
    )

    SCOPE = ("repro.metrics",)
    FLOAT_HINTS = (
        "seconds",
        "duration",
        "utilization",
        "ratio",
        "fraction",
        "bytes",
        "wall",
        "latency",
        "ttft",
        "tpot",
    )

    def applies(self, module: str | None) -> bool:
        return _module_in(module, self.SCOPE)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                continue
            element = node.args[0]
            if isinstance(element, (ast.GeneratorExp, ast.ListComp)):
                element = element.elt
            if self._looks_float(element):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "bare sum() over float values accumulates in iteration "
                    "order; use math.fsum (exact, permutation-invariant) or a "
                    "running StreamingStat",
                )

    def _looks_float(self, element: ast.expr) -> bool:
        for node in ast.walk(element):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                return True
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return True
            if isinstance(node, (ast.Attribute, ast.Name)):
                label = node.attr if isinstance(node, ast.Attribute) else node.id
                # Token match, not substring: "migrations" must not trip
                # on "ratio".
                tokens = label.lower().split("_")
                if any(token in self.FLOAT_HINTS for token in tokens):
                    return True
        return False


# ----------------------------------------------------------------------
# typed-defs
# ----------------------------------------------------------------------
@register_rule
class TypedDefsRule(Rule):
    """The locally-enforceable half of the strict-typing gate.

    Mirrors the ``disallow_untyped_defs``/``disallow_incomplete_defs``
    tier of the committed mypy config for packages pinned strict, so
    the gate holds even where mypy is not installed.
    """

    rule_id = "typed-defs"
    description = (
        "strict-tier packages (repro.analysis) require fully annotated "
        "function signatures"
    )

    STRICT = ("repro.analysis",)

    def applies(self, module: str | None) -> bool:
        return _module_in(module, self.STRICT)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in _walk_functions(ctx.tree):
            missing: list[str] = []
            args = func.args
            positional = args.posonlyargs + args.args
            for index, arg in enumerate(positional):
                if index == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            for arg in args.kwonlyargs:
                if arg.annotation is None:
                    missing.append(arg.arg)
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is None:
                    missing.append("*" + arg.arg)
            needs_return = func.returns is None and func.name != "__init__"
            if missing or needs_return:
                parts = []
                if missing:
                    parts.append(f"unannotated parameter(s): {', '.join(missing)}")
                if needs_return:
                    parts.append("missing return annotation")
                yield ctx.finding(
                    func,
                    self.rule_id,
                    f"function '{func.name}' violates the strict typing tier "
                    f"({'; '.join(parts)})",
                )
