#!/usr/bin/env python3
"""Repo-wide invariant lint: pure-stdlib AST checks over ``src/``.

Project-specific rules no off-the-shelf linter knows, enforced in CI
alongside ruff/mypy and runnable anywhere Python is (no dependencies):

``scan-bypass``
    Engine code must hand every backend scan a :class:`ScanSpec`.  A
    ``.select(profile, compiled)`` / ``.estimate(profile)`` /
    ``.select_batches(profile, compiled)`` call without the spec
    argument silently loses the pushdown contract (window, bindings,
    bounds, projection, order) — the exact bug class the plan verifier
    exists to catch at runtime, caught here statically.

``no-feature-detect``
    Every backend implements the whole scan protocol, so the engine and
    the sharded coordinator never ask a store which scan methods it has:
    no ``hasattr(store, "select_batches")`` or three-argument
    ``getattr(store, "select", None)`` naming a scan method under
    ``repro/engine/`` or in ``repro/storage/sharded.py``.  A fork on
    such a probe is how a wrapper that forgets to forward one method
    silently sends its queries down a different path.

``wall-clock``
    Engine, stream, and storage code must not read the clock directly —
    neither the wall clock (``time.time()``, ``datetime.now()`` &
    friends; a naive ``now()`` in streaming eviction or temporal
    filtering breaks replay determinism) nor the raw monotonic sources
    (``time.perf_counter()``, ``time.monotonic()``).  Event time comes
    from the data; elapsed time comes from the one sanctioned seam,
    :func:`repro.obs.clock.monotonic`, so instrumentation has a single
    place to interpose on.  ``repro/obs/`` itself implements the seam
    and is exempt by location.

``span-leak``
    Every tracer span must be closed on every exit path, exceptions
    included.  The only construction that guarantees that is the
    context-manager form, so a ``<tracer>.span(...)`` call is legal
    only as the context expression of a ``with`` item — never assigned,
    passed, or manually ``__enter__``-ed.  (Applies to receivers whose
    name mentions ``tracer``; ``SpanMap.span`` in the language layer is
    unrelated.)

``spawn-only``
    Worker processes must come from the ``spawn`` multiprocessing
    context.  The coordinator process may already run threads (the
    streaming ``EventBus`` delivery thread, the web UI's server), and
    ``fork()`` in a threaded process clones locks whose
    owning threads do not survive — a child deadlocked on a copied
    mutex.  Bans ``get_context()`` with any argument other than the
    literal ``"spawn"`` and direct ``multiprocessing.Process`` /
    ``Pool`` / ``Pipe`` construction (which use the platform default,
    ``fork`` on Linux); go through ``shardrpc.SPAWN_CONTEXT``.

``one-path``
    The engine has one execution path and two levers.  The
    ``EngineOptions`` fields whose default is ``True`` must be exactly
    ``prioritize`` and ``propagate`` (an optimisation that is always on
    needs no option; one that does not pay is deleted), and nothing under
    ``repro/engine/`` may import ``concurrent.futures`` — parallelism
    belongs to storage partitions and the sharded tier's processes, not
    to a second in-process dispatch of the same plan.

``bench-surface``
    The benchmark (``aiqlbench/``, which a performance PR may not edit)
    imports or monkeypatches a handful of engine names from outside:
    ``Recorder.patch`` does ``getattr(module, name)`` on
    ``repro.engine.executor`` and ``repro.engine.anomaly``, and the
    traced pass crashes if one is gone.  Each module listed in
    ``BENCH_SURFACE`` must exist and bind its names at module level, so
    a refactor that drops one fails lint instead of ``--trace 1``.

``mutable-default``
    No mutable default arguments (``def f(x, acc=[])``), the classic
    shared-state-across-calls bug.

``unused-import``
    Module-level imports that no code in the module references.
    ``__init__.py`` files (re-export surfaces), ``__future__`` imports,
    names listed in ``__all__``, and the module's ``BENCH_SURFACE``
    names are exempt.

Exit status: 0 clean, 1 findings (one ``path:line: [rule] message`` per
finding), 2 usage/parse errors.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Backend scan entry points and the argument count that includes a spec.
SCAN_METHODS = {"select": 3, "select_batches": 3, "estimate": 2,
                "access_path": 2}

#: Modules (beyond repro/engine/) that issue backend scans and therefore
#: fall under the scan-bypass rule: the shard RPC boundary may only ever
#: hand a worker's hosted backend a full ScanSpec, never raw kwargs.
SCAN_SPEC_MODULES = ("repro/storage/sharded.py", "repro/storage/shardrpc.py")

#: Directories (relative to src/repro) where direct clock reads are
#: banned — these read time only through ``repro.obs.clock.monotonic``.
CLOCK_FREE = ("engine", "stream", "storage")

#: The only ``EngineOptions`` fields allowed to default to ``True``.
LEVERS = {"prioritize", "propagate"}

#: Module-level names the benchmark reaches for, per module under src/.
BENCH_SURFACE = {
    "repro/engine/executor.py": ("execute", "execute_plan",
                                 "rewrite_dependency", "execute_anomaly"),
    "repro/engine/anomaly.py": ("execute_plan",),
    "repro/engine/joiner.py": ("join", "Binding", "TemporalCheck",
                               "DEFAULT_ROW_LIMIT"),
}

#: Process/pipe constructors that implicitly use the platform-default
#: start method (``fork`` on Linux) when called on the bare module.
FORKING_CONSTRUCTORS = ("Process", "Pool", "Pipe")

WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
    # Raw monotonic sources: fine in themselves, but instrumented code
    # must go through the repro.obs.clock seam so there is exactly one
    # place a test or future virtual clock can interpose on.
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
}


def _is_tracer_span(node: ast.Call) -> bool:
    """Is this ``<something tracer-ish>.span(...)``?

    Keyed on the receiver naming a tracer (``tracer``, ``self._tracer``,
    ``NULL_TRACER``, ...) so unrelated ``.span()`` APIs — the language
    layer's source-span map — stay out of the rule.
    """
    if not (isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"):
        return False
    receiver = _dotted(node.func.value)
    return any("tracer" in part.lower() for part in receiver)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


def _dotted(node: ast.expr) -> tuple[str, ...]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``; empty if not names."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class Checker(ast.NodeVisitor):
    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        self.findings: list[tuple[int, str, str]] = []
        posix = rel.replace("\\", "/")
        # repro/obs/ implements the clock seam; everything else in the
        # clock-free directories must read time through it.
        self.in_clock_free = (any(f"repro/{name}/" in posix
                                  for name in CLOCK_FREE)
                              and "repro/obs/" not in posix)
        self._with_spans: set[int] = set()
        self.in_engine_dir = "repro/engine/" in posix
        self.in_engine = (self.in_engine_dir
                          or any(posix.endswith(module)
                                 for module in SCAN_SPEC_MODULES))
        self.no_feature_detect = (self.in_engine_dir or posix.endswith(
            "repro/storage/sharded.py"))

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append((node.lineno, rule, message))

    # -- one path: two levers, no thread pool in the engine ----------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.in_engine_dir and node.name == "EngineOptions":
            on = {stmt.target.id for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and isinstance(stmt.value, ast.Constant)
                  and stmt.value.value is True}
            if on != LEVERS:
                self.report(node, "one-path",
                            f"EngineOptions fields defaulting to True are "
                            f"{sorted(on)}, expected {sorted(LEVERS)} — "
                            f"make a new optimisation unconditional "
                            f"instead of adding a lever")
        self.generic_visit(node)

    def _check_engine_import(self, node: ast.stmt, modules: list[str]) -> None:
        if self.in_engine_dir and any(
                module.split(".")[:2] == ["concurrent", "futures"]
                for module in modules):
            self.report(node, "one-path",
                        "concurrent.futures imported under repro/engine/ — "
                        "the engine runs one plan on one thread")

    def visit_Import(self, node: ast.Import) -> None:
        self._check_engine_import(node, [alias.name for alias in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        self._check_engine_import(
            node, [f"{module}.{alias.name}" for alias in node.names])

    # -- mutable defaults --------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_literal(default):
                self.report(default, "mutable-default",
                            f"function {node.name!r} has a mutable default "
                            f"argument (shared across calls)")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- with statements: the one legal home for tracer spans --------------
    def _register_with_items(self, node) -> None:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) and _is_tracer_span(expr):
                self._with_spans.add(id(expr))

    def visit_With(self, node: ast.With) -> None:
        self._register_with_items(node)
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._register_with_items(node)
        self.generic_visit(node)

    # -- calls: wall clock + span leaks + scan bypass + feature probes ------
    def visit_Call(self, node: ast.Call) -> None:
        if self.no_feature_detect and isinstance(node.func, ast.Name):
            probe = node.func.id
            if ((probe == "hasattr" and len(node.args) == 2)
                    or (probe == "getattr" and len(node.args) == 3)):
                method = node.args[1]
                if (isinstance(method, ast.Constant)
                        and method.value in SCAN_METHODS):
                    self.report(node, "no-feature-detect",
                                f"{probe}(..., {method.value!r}) probes for "
                                f"a scan method every backend implements; "
                                f"call it")
        dotted = _dotted(node.func)
        if self.in_clock_free and len(dotted) >= 2:
            if dotted[-2:] in WALL_CLOCK_CALLS:
                self.report(node, "wall-clock",
                            f"{'.'.join(dotted)}() reads the clock "
                            f"directly; use event timestamps or "
                            f"repro.obs.clock.monotonic()")
        if _is_tracer_span(node) and id(node) not in self._with_spans:
            self.report(node, "span-leak",
                        ".span(...) outside a with-statement can leak an "
                        "open span on exception paths; use "
                        "'with tracer.span(...) as s:'")
        if self.in_engine and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            needed = SCAN_METHODS.get(method)
            if needed is not None and not _dotted(node.func)[:1] == ("self",):
                supplied = len(node.args)
                has_star = any(isinstance(a, ast.Starred) for a in node.args)
                has_spec_kw = any(kw.arg == "spec" or kw.arg is None
                                  for kw in node.keywords)
                if supplied < needed and not has_star and not has_spec_kw:
                    self.report(node, "scan-bypass",
                                f".{method}() called with {supplied} "
                                f"argument(s) — backend scans must receive "
                                f"a ScanSpec (expected {needed})")
        self._check_spawn_only(node, dotted)
        self.generic_visit(node)

    def _check_spawn_only(self, node: ast.Call,
                          dotted: tuple[str, ...]) -> None:
        if not dotted:
            return
        if dotted[-1] == "get_context":
            argument = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "method":
                    argument = kw.value
            spawn = (isinstance(argument, ast.Constant)
                     and argument.value == "spawn")
            if not spawn:
                self.report(node, "spawn-only",
                            "get_context() must request the literal "
                            "'spawn' start method — fork after threads "
                            "(EventBus, web UI server) deadlocks")
        elif (len(dotted) >= 2 and dotted[0] == "multiprocessing"
              and dotted[-1] in FORKING_CONSTRUCTORS):
            self.report(node, "spawn-only",
                        f"multiprocessing.{dotted[-1]}() uses the "
                        f"platform-default start method (fork on Linux); "
                        f"construct via shardrpc.SPAWN_CONTEXT instead")


def _unused_imports(tree: ast.Module, is_init: bool,
                    exempt: tuple[str, ...] = ()) -> list[tuple[int, str]]:
    if is_init:
        return []
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imported[alias.asname or alias.name] = node.lineno
    if not imported:
        return []
    used: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) \
                        and isinstance(element.value, str):
                    exported.add(element.value)
    return [(line, name) for name, line in sorted(imported.items(),
                                                  key=lambda kv: kv[1])
            if name not in used and name not in exported
            and name not in exempt]


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level when it is imported."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and isinstance(node.target, ast.Name)):
            bound.add(node.target.id)
    return bound


def check_bench_surface(src: Path) -> list[str]:
    findings = []
    for module, names in BENCH_SURFACE.items():
        path = src / module
        rel = f"src/{module}"
        if not path.is_file():
            findings.append(f"{rel}:1: [bench-surface] module is gone; the "
                            f"benchmark imports {', '.join(names)} from it")
            continue
        try:
            bound = _module_bindings(ast.parse(
                path.read_text(encoding="utf-8")))
        except SyntaxError:
            continue    # check_file reports the parse error
        findings.extend(
            f"{rel}:1: [bench-surface] {name!r} is not bound at module "
            f"level; aiqlbench imports or patches it by that name"
            for name in names if name not in bound)
    return findings


def check_file(path: Path, root: Path) -> list[str]:
    rel = str(path.relative_to(root))
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as exc:
        return [f"{rel}:{exc.lineno}: [parse-error] {exc.msg}"]
    checker = Checker(path, rel)
    checker.visit(tree)
    findings = [f"{rel}:{line}: [{rule}] {message}"
                for line, rule, message in checker.findings]
    bench_names = next((names for module, names in BENCH_SURFACE.items()
                        if rel.replace("\\", "/").endswith(module)), ())
    findings.extend(
        f"{rel}:{line}: [unused-import] {name!r} is imported but never used"
        for line, name in _unused_imports(tree, path.name == "__init__.py",
                                          bench_names))
    return findings


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2
    findings: list[str] = []
    for path in sorted(src.rglob("*.py")):
        findings.extend(check_file(path, root))
    findings.extend(check_bench_surface(src))
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
