"""The built-in rules (``RPR001``..``RPR008``).

Each rule enforces one of the repo's simulation invariants; the
docstrings here are the catalog ``repro lint --explain`` and
``docs/static-analysis.md`` surface. Codes are stable — suppression
comments reference them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.registry import register_rule
from repro.lint.runner import FileContext, Finding

# -- RPR001 ----------------------------------------------------------------

#: Wall-clock and calendar sources: a simulation that reads them stops
#: being a pure function of (model, seed).
_WALL_CLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: OS-entropy sources (unseedable by construction).
_OS_ENTROPY = frozenset({
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.choice",
})

#: ``random.X`` module-level functions share one hidden global
#: generator; these names are the seedable class-based escape hatches.
_RANDOM_ALLOWED = frozenset({"random.Random", "random.getstate", "random.setstate"})

#: ``numpy.random`` names that are fine: the Generator API seeded
#: explicitly (``default_rng(seed)`` — the zero-arg call is flagged
#: separately) and its plumbing types.
_NUMPY_RANDOM_ALLOWED = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.BitGenerator",
})


@register_rule(
    "RPR001",
    name="wall-clock-in-simulation",
    summary="wall-clock time or unseeded randomness in simulation code",
    domains=("sim",),
)
def check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    """Ban wall-clock time and unseeded randomness in simulation code.

    A simulation result must be a pure function of the model and the
    seed: serial and parallel sweeps produce byte-identical CSVs, and
    cached results are keyed by content hashes of the cell alone.
    Reading the host's clock (``time.time``, ``time.monotonic``,
    ``datetime.now``, ...) or hidden-global / OS entropy
    (module-level ``random.*``, ``numpy.random.*`` legacy functions,
    ``os.urandom``, ``uuid.uuid4``, unseeded
    ``numpy.random.default_rng()``) silently breaks that contract.

    Inside a simulation, derive times from ``sim.now`` and randomness
    from the simulator-owned generator (``sim.rng``) or
    ``repro.workloads.base.workload_rng``. Orchestration code (CLI,
    sweep session, benchmarks) is outside this rule's domain — timing
    a sweep with ``perf_counter`` is fine there.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.resolve(node.func)
        if name is None:
            continue
        if name in _WALL_CLOCK:
            yield ctx.finding(
                "RPR001", node,
                f"call to wall-clock source {name}() in simulation code; "
                "derive times from sim.now",
            )
        elif name in _OS_ENTROPY:
            yield ctx.finding(
                "RPR001", node,
                f"call to OS-entropy source {name}() in simulation code; "
                "draw from sim.rng (seeded) instead",
            )
        elif name.startswith("random.") and name not in _RANDOM_ALLOWED:
            yield ctx.finding(
                "RPR001", node,
                f"module-level {name}() uses the hidden global generator; "
                "draw from sim.rng or workload_rng() instead",
            )
        elif name == "numpy.random.default_rng" and not node.args:
            yield ctx.finding(
                "RPR001", node,
                "numpy.random.default_rng() without a seed draws OS "
                "entropy; pass the simulation seed explicitly",
            )
        elif (name.startswith("numpy.random.") and name not in _NUMPY_RANDOM_ALLOWED):
            yield ctx.finding(
                "RPR001", node,
                f"legacy {name}() uses numpy's hidden global state; "
                "use a seeded numpy.random.default_rng / sim.rng",
            )


# -- RPR002 ----------------------------------------------------------------

#: Kernel scheduling entry points and timer constructors, and the
#: position of their time (or duration) argument.
_TIME_ARG = {
    "schedule": 0,
    "schedule_at": 0,
    "reschedule": 1,
    "PeriodicTimer": 1,
    "RestartableTimeout": 1,
}


def _float_in_expr(node: ast.expr) -> ast.expr | None:
    """The sub-expression that makes ``node`` float-valued, if any.

    Flags float literals anywhere in the expression and top-level
    true division (``/`` always produces a float). Integer-valued
    expressions (``3 * MS``, ``duration // 2``) pass.
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return node
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and type(sub.value) is float:
            return sub
    return None


@register_rule(
    "RPR002",
    name="float-simulation-time",
    summary="float literal or true division flowing into a schedule/timer time",
    domains=("sim", "tools", "test"),
)
def check_float_times(ctx: FileContext) -> Iterator[Finding]:
    """Keep simulation times integral at the call site.

    The kernel's clock is an integer nanosecond count; scheduling at
    a fractional time would either truncate silently (corrupting
    determinism) or raise at runtime — which the kernel now does. This
    rule moves that failure to lint time: the time argument of
    ``schedule``/``schedule_at``/``reschedule`` and the duration of
    ``PeriodicTimer``/``RestartableTimeout`` must not contain a float
    literal or a top-level true division (``/`` always yields
    ``float``; use ``//`` or the rounding helpers in
    :mod:`repro.units`).

    Tests that deliberately pass floats to assert the kernel raises
    suppress this rule explicitly (``# repro-lint: ignore[RPR002]``).
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            callee = func.attr
        elif isinstance(func, ast.Name):
            callee = func.id
        else:
            continue
        index = _TIME_ARG.get(callee)
        if index is None or len(node.args) <= index:
            continue
        culprit = _float_in_expr(node.args[index])
        if culprit is not None:
            what = (
                "true division (/) produces a float"
                if isinstance(culprit, ast.BinOp)
                else "float literal"
            )
            yield ctx.finding(
                "RPR002", node,
                f"{what} in the time argument of {callee}(); simulation "
                "times are integer nanoseconds (use //, round in the "
                "model, or repro.units helpers)",
            )


# -- RPR003 ----------------------------------------------------------------

_SCHEDULING_CALLS = frozenset({"schedule", "schedule_at", "reschedule", "inject"})
_KEYISH_NAMES = ("key", "hash", "digest", "canonical", "fingerprint")


def _is_unordered_iterable(node: ast.expr, ctx: FileContext) -> str | None:
    """Why ``node`` iterates in hash/identity order, or None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr == "values":
            return ".values()"
    return None


def _contains_scheduling(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _SCHEDULING_CALLS:
                return True
    return False


class _Rpr003Visitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._function_stack: list[str] = []

    def _keyish_scope(self) -> bool:
        return any(
            keyword in name.lower()
            for name in self._function_stack
            for keyword in _KEYISH_NAMES
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check(self, iter_node: ast.expr, body: ast.AST, at: ast.AST) -> None:
        why = _is_unordered_iterable(iter_node, self.ctx)
        if why is None:
            return
        if _contains_scheduling(body):
            sink = "event scheduling"
        elif self._keyish_scope():
            sink = "cache-key construction"
        else:
            return
        self.findings.append(self.ctx.finding(
            "RPR003", at,
            f"iteration over {why} feeds {sink}; iteration order is "
            "hash/insertion dependent — sort first (sorted(...)) or use "
            "an ordered container",
        ))

    def visit_For(self, node: ast.For) -> None:
        body = ast.Module(body=node.body, type_ignores=[])
        self._check(node.iter, body, node)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST, generators, elements) -> None:
        # The comprehension's output expressions are its "body".
        body = ast.Expression(body=ast.Tuple(elts=list(elements), ctx=ast.Load()))
        for comp in generators:
            self._check(comp.iter, body, node)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, node.generators, [node.elt])

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, node.generators, [node.elt])

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, node.generators, [node.elt])

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, node.generators, [node.key, node.value])


@register_rule(
    "RPR003",
    name="unordered-iteration-into-scheduling",
    summary="set/dict.values() iteration feeding event scheduling or cache keys",
    domains=("sim", "tools"),
)
def check_unordered_iteration(ctx: FileContext) -> Iterator[Finding]:
    """Keep event scheduling and cache keys off unordered iteration.

    Iterating a ``set`` (hash order — varies with ``PYTHONHASHSEED``
    for strings) or ``dict.values()`` built from unordered sources,
    and scheduling events or building cache-key material inside that
    loop, makes event sequence numbers — and therefore same-timestamp
    tie-breaking and content hashes — depend on iteration order
    rather than the model. Sort the iterable (``sorted(...)``), or
    use a list/tuple that encodes the intended order.

    The rule flags ``for``-loops and comprehensions whose iterable is
    a set literal, ``set()``/``frozenset()`` call, or ``.values()``
    call when the body schedules events, and any such iteration
    inside functions whose name suggests key/hash construction.
    """
    visitor = _Rpr003Visitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.findings


# -- RPR004 ----------------------------------------------------------------


def _self_attr_target(node: ast.AST) -> str | None:
    """``self.x`` assignment target name, if that is what ``node`` is."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@register_rule(
    "RPR004",
    name="checkpoint-unsafe-state",
    summary="generators, lambdas, open handles or __slots__ drift on model classes",
    domains=("sim",),
)
def check_checkpoint_safety(ctx: FileContext) -> Iterator[Finding]:
    """Keep model-object construction state snapshot-walkable.

    The warm-machine sweep path checkpoints a freshly built machine by
    walking its object graph (:mod:`repro.server.recycle`) and
    restoring it per cell. State the walker cannot restore faithfully
    must never be constructed onto a model object:

    * **generators** (``self.x = (... for ...)`` or ``iter(...)``) —
      a generator's frame cannot be snapshotted; restore would alias
      a half-consumed iterator across cells;
    * **lambdas/closures assigned in** ``__init__`` — the walker
      treats callables as reference leaves, so captured mutable state
      silently escapes the snapshot;
    * **open OS handles** (``open(...)``) — a file position is
      process state, not simulation state;
    * **__slots__ drift** — a slotted class (no inherited
      ``__dict__``) assigning attributes outside ``__slots__`` fails
      at runtime, and slot lists the restore walker replays must
      match what construction actually assigns.
    """
    for klass in ast.walk(ctx.tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        slots: set[str] | None = None
        simple_bases = all(
            isinstance(base, ast.Name) and base.id == "object"
            for base in klass.bases
        )
        for stmt in klass.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__slots__"
                and isinstance(stmt.value, (ast.Tuple, ast.List))
                and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in stmt.value.elts
                )
            ):
                slots = {e.value for e in stmt.value.elts}  # type: ignore[misc]
        assigned: dict[str, ast.AST] = {}
        for method in klass.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            in_init = method.name == "__init__"
            for node in ast.walk(method):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                for target in targets:
                    attr = _self_attr_target(target)
                    if attr is None:
                        continue
                    assigned.setdefault(attr, node)
                    if not in_init or value is None:
                        continue
                    if isinstance(value, ast.GeneratorExp):
                        yield ctx.finding(
                            "RPR004", node,
                            f"{klass.name}.{attr} holds a generator "
                            "expression; generator frames cannot be "
                            "checkpointed — materialize a tuple/list",
                        )
                    elif isinstance(value, ast.Lambda):
                        yield ctx.finding(
                            "RPR004", node,
                            f"{klass.name}.{attr} holds a lambda built in "
                            "__init__; captured state escapes the "
                            "checkpoint walker — use a bound method",
                        )
                    elif isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Name
                    ) and value.func.id in ("open", "iter"):
                        what = (
                            "an open OS handle"
                            if value.func.id == "open"
                            else "a live iterator"
                        )
                        yield ctx.finding(
                            "RPR004", node,
                            f"{klass.name}.{attr} holds {what}; process "
                            "state cannot be checkpoint/restored — open "
                            "lazily or materialize",
                        )
        if slots is not None and simple_bases:
            for attr, node in assigned.items():
                if attr not in slots:
                    yield ctx.finding(
                        "RPR004", node,
                        f"{klass.name}.{attr} is assigned but missing from "
                        "__slots__; the attribute fails at runtime and the "
                        "restore walker's slot plan cannot cover it",
                    )


# -- RPR005 ----------------------------------------------------------------


@register_rule(
    "RPR005",
    name="shared-meter-prefix",
    summary="ServerMachine on a shared meter without a channel_prefix",
    domains=("sim", "tools", "test"),
)
def check_channel_prefix(ctx: FileContext) -> Iterator[Finding]:
    """Enforce channel-prefix discipline on shared power meters.

    A fleet composes N machines on one :class:`PowerMeter`; every
    machine registers identically named channels (``package``,
    ``core0``...), so a shared meter **requires** a per-machine
    ``channel_prefix`` (``s00.``) or the second machine's channel
    registration collides (the meter raises at runtime — late, and
    only for N >= 2). Constructing ``ServerMachine(..., meter=...)``
    without ``channel_prefix=`` is therefore flagged statically.

    Passing ``meter=None`` explicitly (the private-meter default) is
    fine; so is forwarding ``**kwargs`` the caller cannot see.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee != "ServerMachine":
            continue
        keywords = {kw.arg for kw in node.keywords}
        if None in keywords:  # **kwargs — cannot see what is forwarded
            continue
        meter_kw = next((kw for kw in node.keywords if kw.arg == "meter"), None)
        if meter_kw is None:
            continue
        if isinstance(meter_kw.value, ast.Constant) and meter_kw.value.value is None:
            continue
        if "channel_prefix" not in keywords:
            yield ctx.finding(
                "RPR005", node,
                "ServerMachine built on a shared meter without a "
                "channel_prefix; per-machine prefixes (e.g. "
                "fleet.cluster.server_prefix(i)) keep channel names "
                "from colliding on the shared PowerMeter",
            )


# -- RPR006 ----------------------------------------------------------------

#: MachineConfig policy fields that are registered platform
#: properties; spelling them as raw constructor kwargs bypasses the
#: registry's parsing/validation and the canonical preset naming.
_PROP_BACKED_KWARGS = frozenset({
    "enabled_cstates",
    "governor",
    "package_policy",
    "timer_tick_hz",
    "tick_mode",
    "dispatch_policy",
    "network_latency_ns",
    "soc",
})

#: Paths allowed to assemble MachineConfig kwargs directly: the
#: property layer itself (the one place field mappings live) and the
#: preset builders in server/configs.py.
_PROPS_LAYER_PARTS = ("repro", "props")


def _in_props_layer(ctx: FileContext) -> bool:
    parts = ctx.path.parts
    for index in range(len(parts) - 1):
        if parts[index:index + 2] == _PROPS_LAYER_PARTS:
            return True
    return ctx.path.name == "configs.py" and "server" in parts


@register_rule(
    "RPR006",
    name="raw-machine-config-policy",
    summary="MachineConfig built with raw policy kwargs outside the props layer",
    domains=("sim", "tools"),
)
def check_raw_machine_config(ctx: FileContext) -> Iterator[Finding]:
    """Route configuration hybrids through the property registry.

    Every policy knob of :class:`MachineConfig` (C-state enables, the
    governor, package policy, tick rate/mode, dispatch policy, network
    latency, the SoC) is a registered platform property
    (:mod:`repro.props`). Constructing ``MachineConfig(...)`` with
    those fields as raw keywords bypasses the registry: no value
    parsing, no pepc-style errors, no canonical preset naming — and
    the resulting config can silently disagree with the property set
    sweep cache keys hash. Build variants with
    ``repro.props.apply_props(base, {...})`` (or a ``--set`` axis)
    instead.

    The property layer itself (``repro/props/``) and the preset
    builders (``server/configs.py``) are exempt by path — they are the
    two places the field mapping is allowed to live. Tests and
    benchmarks are outside the rule's domains.
    """
    if _in_props_layer(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee != "MachineConfig":
            continue
        raw = sorted(
            kw.arg for kw in node.keywords
            if kw.arg is not None and kw.arg in _PROP_BACKED_KWARGS
        )
        if raw:
            yield ctx.finding(
                "RPR006", node,
                f"MachineConfig built with raw policy kwarg(s) "
                f"{', '.join(raw)}; go through the property registry "
                "(repro.props.apply_props / --set) so values are "
                "validated and names stay canonical",
            )


# -- RPR007 ----------------------------------------------------------------

#: P-state ladder constructors; hand-rolling one outside the table
#: module bypasses the ladder's validation (monotonic frequencies,
#: nominal membership) and the ``pstate.table`` registry row that keys
#: sweep caches.
_PSTATE_CONSTRUCTORS = frozenset({"PStateTable", "PState"})


def _in_pstate_layer(ctx: FileContext) -> bool:
    return _in_props_layer(ctx) or (
        ctx.path.name == "pstates.py" and "soc" in ctx.path.parts
    )


@register_rule(
    "RPR007",
    name="raw-pstate-table",
    summary="PStateTable/PState constructed outside the props/pstates layer",
    domains=("sim", "tools"),
)
def check_raw_pstate_table(ctx: FileContext) -> Iterator[Finding]:
    """Route P-state ladders through the registry, like configs.

    The speed-scaling ladder a machine runs is a registered platform
    property (``pstate.table`` selects a named ladder from
    :data:`repro.soc.pstates.PSTATE_TABLES`; ``pstate.nominal`` picks
    the boot state). Hand-constructing ``PStateTable(...)`` or
    ``PState(...)`` elsewhere creates a ladder no property set can
    name: sweep cache keys cannot see it, the controller's grid search
    and the machine's repricing may disagree about what "nominal"
    means, and the table's validation is bypassed. Select ladders via
    ``--set pstate.table=...`` / ``apply_props`` instead; new ladders
    belong in ``repro/soc/pstates.py`` next to the existing ones.

    The property layer and ``repro/soc/pstates.py`` itself are exempt
    by path; tests and benchmarks are outside the rule's domains.
    """
    if _in_pstate_layer(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee not in _PSTATE_CONSTRUCTORS:
            continue
        yield ctx.finding(
            "RPR007", node,
            f"{callee} constructed outside the props/pstates layer; "
            "select a named ladder with pstate.table/pstate.nominal "
            "(repro.props) so sweep keys and the control plane see it",
        )


# -- RPR008 ----------------------------------------------------------------


def _attribute_targets(node: ast.expr) -> Iterator[ast.Attribute]:
    """The attribute stores among an assignment target (unpacking too)."""
    if isinstance(node, ast.Attribute):
        yield node
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _attribute_targets(element)
    elif isinstance(node, ast.Starred):
        yield from _attribute_targets(node.value)


def _is_kernel(ctx: FileContext) -> bool:
    return ctx.path.parts[-3:] == ("repro", "sim", "engine.py")


@register_rule(
    "RPR008",
    name="clock-or-wire-write",
    summary="assignment to a simulator's .now or another object's .value",
    domains=("sim", "tools", "test"),
)
def check_clock_and_wire_writes(ctx: FileContext) -> Iterator[Finding]:
    """Keep the simulator clock and wire levels single-writer.

    ``Simulator.now`` and ``Signal.value`` are plain attributes, read
    on every event and every wire edge, so nothing but convention
    stops a write. Only the kernel (``repro/sim/engine.py``) may move
    the clock: a model that sets ``sim.now`` desynchronizes every power
    channel's and residency counter's integration from the event
    queue. Only ``Signal.set`` may change a wire's level: it fires the
    watchers, counts the edge and keeps the AND trees' low-input counts
    exact, and a direct ``wire.value = ...`` skips all three.

    The rule flags any assignment (plain, augmented or annotated,
    unpacking included) to ``<expr>.now`` outside the kernel module,
    and to ``<expr>.value`` where ``<expr>`` is not ``self`` — a class
    writing its own ``value`` (``Signal.set``) is fine. Drive wires
    with ``Signal.set`` and advance time with ``sim.run``/``sim.step``.
    """
    kernel = _is_kernel(ctx)
    for node in ast.walk(ctx.tree):
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for attr in _attribute_targets(target):
                if attr.attr == "now" and not kernel:
                    yield ctx.finding(
                        "RPR008", attr,
                        "assignment to .now outside the event kernel; only "
                        "repro/sim/engine.py moves the simulator clock",
                    )
                elif attr.attr == "value" and not (
                    isinstance(attr.value, ast.Name) and attr.value.id == "self"
                ):
                    yield ctx.finding(
                        "RPR008", attr,
                        "assignment to another object's .value; drive a "
                        "wire with Signal.set so watchers and edge counts "
                        "see the change",
                    )
