"""The rule pack: the platform's contracts, statically enforced.

Every rule encodes an invariant the test suite already pins down at
runtime, so a violation is caught at review time instead of by a slow
end-to-end test:

========  ==========================================================
DET001    no global-RNG calls (``random.*``, ``np.random.*``)
DET002    no unseeded RNG construction (``default_rng()``)
DET003    no wall-clock reads (``time.time``, ``datetime.now``)
DET004    no iteration over set expressions (nondeterministic order)
DET005    no mutable default arguments
TEL001    telemetry must stay guarded/off the hot path
PAR001    registered backends must satisfy the shared interface
NUM001    no bit-exact float comparisons in simulation code
RES001    no bare ``except:`` / silently-swallowed ``except Exception``
========  ==========================================================

Determinism rules are scoped out of ``repro.telemetry`` (whose *job*
is wall-clock bookkeeping), ``repro.cli`` (session wiring), and
``repro.lint`` itself; files outside any ``repro`` package — fixtures,
scratch scripts — always get every rule.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.lint.engine import ModuleInfo, RawFinding, Rule, register

__all__ = [
    "GlobalRNGRule",
    "UnseededRNGRule",
    "WallClockRule",
    "SetIterationRule",
    "MutableDefaultRule",
    "UnguardedTelemetryRule",
    "BackendParityRule",
    "FloatEqualityRule",
    "ExceptionHygieneRule",
]

#: packages where wall-clock/RNG use is the module's sanctioned job
_DETERMINISM_EXEMPT = ("repro.telemetry", "repro.lint", "repro.cli")

#: RNG *constructors* — seeded use is fine, so DET001 leaves them to
#: DET002's unseeded check
_RNG_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _walk_calls(module: ModuleInfo) -> Iterator[tuple[ast.Call, str | None]]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield node, module.dotted_name(node.func)


@register
class GlobalRNGRule(Rule):
    """Calls through a module-level RNG break cross-backend parity:
    any extra draw anywhere shifts every subsequent value process-wide,
    so fitness trajectories stop being bit-identical."""

    id: ClassVar[str] = "DET001"
    title: ClassVar[str] = "global RNG call"
    contract: ClassVar[str] = (
        "determinism: identical fitness trajectories on every backend"
    )
    excluded_packages = _DETERMINISM_EXEMPT

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node, name in _walk_calls(module):
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "random" and len(parts) == 2:
                # Random()/SystemRandom() constructions are DET002's job
                if parts[1] not in ("Random", "SystemRandom"):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"call to global RNG `{name}` — draw from an "
                        "explicitly seeded generator passed in by the "
                        "caller instead",
                    )
            elif (
                len(parts) >= 2
                and parts[0] == "numpy"
                and parts[-2] == "random"
                and parts[-1] not in _RNG_CONSTRUCTORS
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"call to global NumPy RNG `{name}` — use a seeded "
                    "`np.random.Generator` (np.random.default_rng(seed))",
                )


@register
class UnseededRNGRule(Rule):
    """An RNG constructed without a seed is seeded from the OS, so two
    runs of the same configuration diverge immediately."""

    id: ClassVar[str] = "DET002"
    title: ClassVar[str] = "unseeded RNG construction"
    contract: ClassVar[str] = (
        "determinism: same config + seed must reproduce the same run"
    )
    excluded_packages = _DETERMINISM_EXEMPT

    _CONSTRUCTORS = frozenset(
        {
            "numpy.random.default_rng",
            "numpy.random.RandomState",
            "numpy.random.Generator",
            "random.Random",
        }
    )

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node, name in _walk_calls(module):
            if name in self._CONSTRUCTORS and not node.args and not any(
                kw.arg in ("seed", "x") for kw in node.keywords
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"`{name}()` without a seed is nondeterministic — "
                    "thread an explicit seed or Generator through",
                )
            elif name == "random.SystemRandom":
                yield (
                    node.lineno,
                    node.col_offset,
                    "`random.SystemRandom` is entropy-seeded by design "
                    "and can never reproduce",
                )


@register
class WallClockRule(Rule):
    """Wall-clock reads leak real time into simulation state; the
    monotonic `time.perf_counter` is fine for *measuring* but calendar
    time must never feed evolution, environments, or the device."""

    id: ClassVar[str] = "DET003"
    title: ClassVar[str] = "wall-clock read in simulation code"
    contract: ClassVar[str] = (
        "determinism: simulation state independent of real time"
    )
    excluded_packages = _DETERMINISM_EXEMPT

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node, name in _walk_calls(module):
            if name in _WALL_CLOCK:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read `{name}` — use `time.perf_counter` "
                    "for durations; calendar time belongs in "
                    "repro.telemetry manifests only",
                )


def _is_dict_view(node: ast.expr) -> bool:
    """A ``.keys()``/``.items()`` call: set-like, so ``|``, ``&``, ``^``
    and ``-`` on it build a set."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "items")
        and not node.args
        and not node.keywords
    )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return any(
            _is_set_expr(side) or _is_dict_view(side)
            for side in (node.left, node.right)
        )
    return False


@register
class SetIterationRule(Rule):
    """Set iteration order depends on insertion history and hash
    randomization; fed into genome, innovation, or species processing
    it silently reorders evolution.  Wrap the expression in
    ``sorted(...)`` to fix the order."""

    id: ClassVar[str] = "DET004"
    title: ClassVar[str] = "iteration over a set expression"
    contract: ClassVar[str] = (
        "determinism: stable genome/innovation/species ordering"
    )
    excluded_packages = _DETERMINISM_EXEMPT

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        def hit(iter_node: ast.expr) -> Iterator[RawFinding]:
            if _is_set_expr(iter_node):
                yield (
                    iter_node.lineno,
                    iter_node.col_offset,
                    "iterating a set has no defined order — wrap the "
                    "expression in sorted(...)",
                )

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from hit(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    yield from hit(generator.iter)


@register
class MutableDefaultRule(Rule):
    """A mutable default is shared across every call, so state leaks
    between invocations — and between runs resumed from checkpoints."""

    id: ClassVar[str] = "DET005"
    title: ClassVar[str] = "mutable default argument"
    contract: ClassVar[str] = "determinism: no hidden cross-call state"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp),
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._MUTABLE_CALLS
                )
                if mutable:
                    yield (
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in `{node.name}` — "
                        "default to None and construct inside the body",
                    )


@register
class UnguardedTelemetryRule(Rule):
    """Telemetry is off by default and must cost one ``None`` check
    when disabled.  Chaining directly off ``get_metrics()`` /
    ``get_tracer()`` crashes when telemetry is off (or forces it on),
    and constructing tracers/sessions in hot modules moves allocation
    onto the disabled fast path."""

    id: ClassVar[str] = "TEL001"
    title: ClassVar[str] = "unguarded telemetry construction/use"
    contract: ClassVar[str] = (
        "telemetry overhead: disabled telemetry costs one None check"
    )
    excluded_packages = ("repro.telemetry", "repro.lint", "repro.cli")

    _ACCESSORS = frozenset({"get_metrics", "get_tracer"})
    _SESSION_TYPES = frozenset(
        {
            "Tracer",
            "TelemetrySession",
            "repro.telemetry.TelemetrySession",
            "repro.telemetry.spans.Tracer",
        }
    )

    def _is_accessor(self, module: ModuleInfo, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = module.dotted_name(node.func)
        return name is not None and name.split(".")[-1] in self._ACCESSORS

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and self._is_accessor(
                module, node.value
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "chained use of get_metrics()/get_tracer() — store "
                    "the result in a local and check it for None first",
                )
            elif isinstance(node, ast.Call):
                name = module.dotted_name(node.func)
                if name in self._SESSION_TYPES or (
                    name is not None
                    and name.split(".")[-1] in ("TelemetrySession",)
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"`{name}` constructed in a hot module — sessions "
                        "and tracers are built at the CLI/session layer "
                        "and installed globally",
                    )


def _method_is_concrete(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """False when the body is only ``raise NotImplementedError`` (+doc)."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return True
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return not (isinstance(exc, ast.Name) and exc.id == "NotImplementedError")


@register
class BackendParityRule(Rule):
    """Every class registered in a ``BACKENDS`` mapping must satisfy
    the shared evaluation surface: a concrete ``_evaluate``, and a
    ``name`` class attribute equal to its registry key — the property
    that lets the CLI, platform, and tests treat backends uniformly."""

    id: ClassVar[str] = "PAR001"
    title: ClassVar[str] = "backend missing the shared interface surface"
    contract: ClassVar[str] = (
        "backend parity: every backend satisfies the lock-step "
        "evaluate interface"
    )

    _REQUIRED_CONCRETE = ("_evaluate",)

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        classes = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        registry: ast.Dict | None = None
        registry_line = 0
        for node in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if any(
                isinstance(t, ast.Name) and t.id == "BACKENDS" for t in targets
            ) and isinstance(value, ast.Dict):
                registry = value
                registry_line = node.lineno
        if registry is None:
            return

        def mro(cls: ast.ClassDef) -> list[ast.ClassDef]:
            chain = [cls]
            seen = {cls.name}
            frontier = cls
            while True:
                base_cls = None
                for base in frontier.bases:
                    if isinstance(base, ast.Name) and base.id in classes:
                        candidate = classes[base.id]
                        if candidate.name not in seen:
                            base_cls = candidate
                            break
                if base_cls is None:
                    return chain
                chain.append(base_cls)
                seen.add(base_cls.name)
                frontier = base_cls

        def concrete_methods(cls: ast.ClassDef) -> dict[str, bool]:
            methods: dict[str, bool] = {}
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = _method_is_concrete(item)
            return methods

        def class_attr(cls: ast.ClassDef, attr: str) -> ast.expr | None:
            for item in cls.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name) and target.id == attr:
                            return item.value
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    if (
                        isinstance(item.target, ast.Name)
                        and item.target.id == attr
                    ):
                        return item.value
            return None

        for key_node, value_node in zip(registry.keys, registry.values):
            if not isinstance(key_node, ast.Constant) or not isinstance(
                key_node.value, str
            ):
                continue
            key = key_node.value
            if not isinstance(value_node, ast.Name):
                continue  # imported backends can't be resolved statically
            cls = classes.get(value_node.id)
            if cls is None:
                yield (
                    value_node.lineno,
                    value_node.col_offset,
                    f"backend {key!r} maps to `{value_node.id}`, which is "
                    "not a class defined in this module",
                )
                continue
            chain = mro(cls)
            for required in self._REQUIRED_CONCRETE:
                impl: bool | None = None
                for klass in chain:
                    methods = concrete_methods(klass)
                    if required in methods:
                        impl = methods[required]
                        break
                if not impl:
                    yield (
                        cls.lineno,
                        cls.col_offset,
                        f"backend {key!r} ({cls.name}) has no concrete "
                        f"`{required}` — every registered backend must "
                        "implement the shared evaluate surface",
                    )
            # the `name` attribute must be overridden and match the key
            name_value: ast.expr | None = None
            for klass in chain[:-1] if len(chain) > 1 else chain:
                name_value = class_attr(klass, "name")
                if name_value is not None:
                    break
            if name_value is None:
                yield (
                    cls.lineno,
                    cls.col_offset,
                    f"backend {key!r} ({cls.name}) never sets the `name` "
                    "class attribute",
                )
            elif not (
                isinstance(name_value, ast.Constant)
                and name_value.value == key
            ):
                yield (
                    name_value.lineno,
                    name_value.col_offset,
                    f"backend {key!r} ({cls.name}) declares a `name` that "
                    f"does not match its registry key at line "
                    f"{registry_line}",
                )


def _catches_catchall(node: ast.expr) -> bool:
    """True when an except clause's type includes Exception/BaseException."""
    if isinstance(node, ast.Tuple):
        return any(_catches_catchall(element) for element in node.elts)
    if isinstance(node, ast.Name):
        return node.id in ("Exception", "BaseException")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Exception", "BaseException")
    return False


def _body_swallows(body: list[ast.stmt]) -> bool:
    """True when a handler body only passes (or holds a bare string)."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue
        return False
    return True


@register
class ExceptionHygieneRule(Rule):
    """A bare ``except:`` catches ``KeyboardInterrupt``/``SystemExit``
    and hides typos; an ``except Exception: pass`` silently swallows
    faults the resilience layer is supposed to *surface* (quarantine
    events, shard retries, fallback decisions).  Catch the narrowest
    type that the handler actually handles, and do something with it —
    the rare sanctioned swallow (interpreter-teardown guards) carries a
    ``# repro: noqa[RES001]`` marker as the reviewed allowlist."""

    id: ClassVar[str] = "RES001"
    title: ClassVar[str] = "bare or silently-swallowed exception handler"
    contract: ClassVar[str] = (
        "resilience: failures are handled narrowly and surfaced, "
        "never silently swallowed"
    )

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    "bare `except:` catches KeyboardInterrupt/SystemExit "
                    "— name the exception types this handler handles",
                )
            elif _catches_catchall(node.type) and _body_swallows(node.body):
                yield (
                    node.lineno,
                    node.col_offset,
                    "`except Exception: pass` silently swallows faults — "
                    "catch the narrow type, or surface/record the error "
                    "(sanctioned swallows carry `# repro: noqa[RES001]`)",
                )


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    """Bit-exact ``==``/``!=`` against float literals is almost always
    a rounding bug in simulation code.  The few deliberate bit-identical
    comparisons (sparsity skips, exact-zero guards) carry a
    ``# repro: noqa[NUM001]`` marker as the reviewed allowlist."""

    id: ClassVar[str] = "NUM001"
    title: ClassVar[str] = "bit-exact float comparison"
    contract: ClassVar[str] = (
        "numerical hygiene: no accidental exact float compares"
    )
    excluded_packages = _DETERMINISM_EXEMPT

    def check(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    _is_float_literal(left) or _is_float_literal(right)
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "bit-exact float comparison — use a tolerance "
                        "(math.isclose), or mark a deliberate "
                        "bit-identical check with `# repro: noqa[NUM001]`",
                    )
