"""Whole-program analysis: import graph, call graph, per-function facts.

PR 6's rule engine is deliberately per-file — one parse, one rule pass,
no global state.  The whole-program rules (REP008 layering, REP009
kernel purity, REP010 write protocol) need to see *across* files: a
helper three calls below an ``@array_kernel`` that opens a file, an
import edge that points up the architecture, a marker file written
before its payload in another method.  This module is the bridge: each
file's already-parsed AST is distilled — still one parse per file — into
a small :class:`ModuleAnalysis` of plain data (import sites,
per-function call edges, impurity facts, durable-write sites), and a
:class:`ProjectGraph` assembles every module's analysis into the
project-wide import graph and a conservative call graph.

Conservatism, stated once:

* **Calls** are resolved through each module's qualified-name table
  (imports + local definitions, including ``self.`` methods and nested
  functions).  A call that cannot be resolved to an intra-project
  function — a method on an arbitrary object, a callable argument, an
  ``xp`` namespace operation — is *opaque*: assumed pure, assumed
  write-free.  The rules therefore under-approximate reachability and
  never flag what they cannot see; the facts they do flag are real.
* **Impurity facts** are recorded for *every* function (the denylists
  below are cheap), but only reported when a jit root's transitive call
  closure actually reaches them.
* The analyses carry no AST nodes, only plain data.

This module imports nothing outside the standard library: the lint
package is the bottom of the layer order it enforces (REP008 holds it to
stdlib + its own engine).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ImportSite",
    "ImpureFact",
    "ModuleAnalysis",
    "ProjectGraph",
    "WriteSite",
    "analyze_module",
    "dotted_name",
    "module_name_of",
    "package_of",
]

# ---------------------------------------------------------------------------
# Impurity denylists (REP009 facts)
# ---------------------------------------------------------------------------

#: Bare calls that touch the host environment.
_IO_CALLS = frozenset({"open", "input", "print", "breakpoint", "exec", "eval"})

#: Dotted-name prefixes whose whole namespace is host interaction.
#: (``os.path`` is pure string manipulation and explicitly exempt.)
_IO_PREFIXES = (
    "os.",
    "shutil.",
    "subprocess.",
    "socket.",
    "tempfile.",
    "repro.io.",
)
_IO_PREFIX_EXEMPT = ("os.path.",)

#: Method leaves that read or mutate the filesystem wherever they appear
#: (``Path`` methods, file handles).  Kept to unambiguous names so opaque
#: in-memory objects are not miscast as IO.
_IO_METHOD_LEAVES = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "unlink",
        "mkdir",
        "rmdir",
        "touch",
        "rename",
        "hardlink_to",
        "symlink_to",
    }
)

#: numpy entry points that serialise to / deserialise from disk.
_NP_IO_LEAVES = frozenset(
    {
        "load",
        "save",
        "savez",
        "savez_compressed",
        "loadtxt",
        "savetxt",
        "genfromtxt",
        "fromfile",
        "tofile",
        "memmap",
    }
)

#: RNG construction and entropy draws; a jit kernel may only consume
#: arrays of pre-drawn variates handed in by its caller.
_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")
_RNG_LEAVES = frozenset({"default_rng", "SeedSequence", "RandomState"})
_RNG_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Clock reads.  Monotonic counters are included deliberately: *any*
#: clock read inside a jit-compiled kernel happens at trace time, once,
#: and is then baked into the compiled artefact — a correctness bug, not
#: just a determinism one.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)

#: The atomic write helpers of :mod:`repro.io` (REP010 protocol events).
_WRITE_HELPERS = frozenset(
    {
        "atomic_write",
        "write_json_atomic",
        "write_bytes_atomic",
        "write_npz_atomic",
        "create_json_exclusive",
    }
)


def dotted_name(node: ast.AST) -> str:
    """Dotted name of an expression (``""`` when it is not a plain path)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def module_name_of(relpath: str) -> str:
    """Dotted module name of a package-relative path.

    ``repro/scoring/pairwise.py`` → ``repro.scoring.pairwise``;
    ``repro/xp/__init__.py`` → ``repro.xp``.  Non-package paths (test
    fixtures) are converted the same way so single-file linting works.
    """
    name = relpath[:-3] if relpath.endswith(".py") else relpath
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def package_of(module: str) -> str:
    """Top-level layering unit of a module: its first sub-package.

    ``repro.scoring.pairwise`` → ``scoring``; the single-module layers
    directly under the package root (``repro.io``, ``repro.config``) are
    their own unit; the root package itself is ``repro``.
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) == 1:
        return parts[0]
    return parts[1]


# ---------------------------------------------------------------------------
# Per-module analysis records
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ImportSite:
    """One intra-project import: the candidate target and where it happens."""

    target: str  #: dotted candidate (may name a module or an attribute of one)
    line: int
    col: int
    toplevel: bool  #: imported at module scope (not inside a function)


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One resolved intra-project call edge candidate."""

    target: str  #: fully qualified candidate, e.g. ``repro.geometry.rotation.apply``
    line: int


@dataclasses.dataclass(frozen=True)
class ImpureFact:
    """One direct effect a function performs (REP009 evidence)."""

    kind: str  #: ``io`` | ``rng`` | ``clock`` | ``scope`` | ``mutation``
    what: str  #: human-readable operation, e.g. ``open`` or ``global totals``
    line: int
    col: int


@dataclasses.dataclass(frozen=True)
class WriteSite:
    """One durable-write helper call (REP010 protocol event)."""

    helper: str  #: the :mod:`repro.io` helper name
    filename: str  #: resolved target leaf name (``entry.json``) or ``""``
    line: int
    col: int


@dataclasses.dataclass(frozen=True)
class FunctionInfo:
    """Everything the whole-program rules need to know about one function."""

    qualname: str  #: module-relative, e.g. ``Cls.method`` or ``f.<locals>.g``
    line: int
    col: int
    kernel: bool  #: decorated with ``@array_kernel``
    calls: Tuple[CallSite, ...]
    impure: Tuple[ImpureFact, ...]
    writes: Tuple[WriteSite, ...]


@dataclasses.dataclass(frozen=True)
class ModuleAnalysis:
    """The distilled analysis of one module."""

    relpath: str
    module: str
    imports: Tuple[ImportSite, ...]
    functions: Tuple[FunctionInfo, ...]
    #: resolved candidates wrapped by ``maybe_jit`` / ``maybe_vmap`` calls
    jit_roots: Tuple[CallSite, ...]


# ---------------------------------------------------------------------------
# Module analysis
# ---------------------------------------------------------------------------


def _is_type_checking_guard(node: ast.stmt) -> bool:
    """Whether a statement is an ``if TYPE_CHECKING:`` block."""
    return isinstance(node, ast.If) and dotted_name(node.test).endswith(
        "TYPE_CHECKING"
    )


def _is_array_kernel_decorator(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    dotted = dotted_name(target)
    return dotted.split(".")[-1] == "array_kernel"


class _Scope:
    """Name-resolution context of one function body."""

    def __init__(
        self,
        qualname: str,
        class_name: Optional[str],
        local_defs: Dict[str, str],
    ) -> None:
        self.qualname = qualname
        self.class_name = class_name
        #: local function/class name → module-relative qualname
        self.local_defs = local_defs


class _ModuleCollector:
    """Single-pass extraction of a module's analysis facts."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.module = module_name_of(relpath)
        self.imports: List[ImportSite] = []
        self.functions: List[FunctionInfo] = []
        self.jit_roots: List[CallSite] = []
        #: import alias → fully qualified dotted target
        self.aliases: Dict[str, str] = {}
        #: module-level ``NAME = "literal"`` constants
        self.module_consts: Dict[str, str] = {}
        #: class-level ``(Cls, NAME) = "literal"`` constants
        self.class_consts: Dict[Tuple[str, str], str] = {}
        #: module-level function/class name → module-relative qualname
        self.module_defs: Dict[str, str] = {}

    # -- pass 1: imports, constants, definition tables ------------------

    def collect(self, tree: ast.Module) -> ModuleAnalysis:
        self._collect_imports(tree.body, toplevel=True)
        self._collect_tables(tree.body, prefix="", class_name=None)
        self._collect_functions(tree.body, prefix="", class_name=None)
        self._collect_module_jit_roots(tree)
        seen: Set[Tuple[str, int]] = set()
        roots: List[CallSite] = []
        for site in self.jit_roots:
            key = (site.target, site.line)
            if key not in seen:
                seen.add(key)
                roots.append(site)
        return ModuleAnalysis(
            relpath=self.relpath,
            module=self.module,
            imports=tuple(self.imports),
            functions=tuple(self.functions),
            jit_roots=tuple(roots),
        )

    def _collect_module_jit_roots(self, tree: ast.Module) -> None:
        """``maybe_jit(f)`` at module scope (in-function sites are caught
        during function analysis; duplicates are removed in collect)."""
        scope = _Scope("<module>", None, {})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            leaf = dotted_name(node.func).split(".")[-1]
            if leaf in ("maybe_jit", "maybe_vmap") and node.args:
                wrapped = self._resolve_callable(
                    dotted_name(node.args[0]), scope
                )
                if wrapped:
                    self.jit_roots.append(CallSite(wrapped, node.lineno))

    def _collect_imports(self, body: Sequence[ast.stmt], toplevel: bool) -> None:
        for stmt in body:
            if _is_type_checking_guard(stmt):
                # Type-only imports never execute; record aliases for
                # call resolution but contribute no graph edge.
                self._record_aliases(stmt)
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._record_import(stmt, toplevel)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_imports(stmt.body, toplevel=False)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for child_body in _statement_bodies(stmt):
                    self._collect_imports(child_body, toplevel=toplevel)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_imports(stmt.body, toplevel=toplevel)

    def _record_aliases(self, stmt: ast.stmt) -> None:
        for inner in ast.walk(stmt):
            if isinstance(inner, (ast.Import, ast.ImportFrom)):
                self._record_import(inner, toplevel=False, edge=False)

    def _record_import(
        self,
        stmt: ast.stmt,
        toplevel: bool,
        edge: bool = True,
    ) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                self.aliases[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    self.aliases[local] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; record the full path
                    # for the import edge, the root for resolution.
                    self.aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
                if edge and self._intra(alias.name):
                    self.imports.append(
                        ImportSite(alias.name, stmt.lineno, stmt.col_offset, toplevel)
                    )
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level != 0 or not stmt.module:
                return
            for alias in stmt.names:
                target = f"{stmt.module}.{alias.name}"
                self.aliases[alias.asname or alias.name] = target
                if edge and self._intra(stmt.module):
                    self.imports.append(
                        ImportSite(target, stmt.lineno, stmt.col_offset, toplevel)
                    )

    @staticmethod
    def _intra(module: str) -> bool:
        return module == "repro" or module.startswith("repro.")

    def _collect_tables(
        self, body: Sequence[ast.stmt], prefix: str, class_name: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Constant
            ):
                value = stmt.value.value
                if not isinstance(value, str):
                    continue
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if class_name is None and not prefix:
                        self.module_consts[target.id] = value
                    elif class_name is not None:
                        self.class_consts[(class_name, target.id)] = value
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                if not prefix and class_name is None:
                    self.module_defs[stmt.name] = qual
            elif isinstance(stmt, ast.ClassDef):
                if not prefix and class_name is None:
                    self.module_defs[stmt.name] = stmt.name
                self._collect_tables(
                    stmt.body, prefix=f"{stmt.name}.", class_name=stmt.name
                )

    # -- pass 2: per-function facts --------------------------------------

    def _collect_functions(
        self, body: Sequence[ast.stmt], prefix: str, class_name: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                self._analyze_function(stmt, qual, class_name)
                self._collect_functions(
                    stmt.body, prefix=f"{qual}.<locals>.", class_name=None
                )
            elif isinstance(stmt, ast.ClassDef):
                self._collect_functions(
                    stmt.body, prefix=f"{prefix}{stmt.name}.", class_name=stmt.name
                )
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for child_body in _statement_bodies(stmt):
                    self._collect_functions(child_body, prefix, class_name)

    def _analyze_function(
        self,
        fn: ast.AST,
        qualname: str,
        class_name: Optional[str],
    ) -> None:
        assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = _parameter_names(fn.args)
        rebound = _rebound_names(fn)
        nested = {
            child.name: f"{qualname}.<locals>.{child.name}"
            for child in fn.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        scope = _Scope(qualname, class_name, nested)
        local_assigns = _single_assignments(fn)

        calls: List[CallSite] = []
        impure: List[ImpureFact] = []
        writes: List[WriteSite] = []

        for node in _walk_own_body(fn):
            if isinstance(node, ast.Global):
                impure.append(
                    ImpureFact(
                        "scope",
                        f"global {', '.join(node.names)}",
                        node.lineno,
                        node.col_offset,
                    )
                )
            elif isinstance(node, ast.Nonlocal):
                impure.append(
                    ImpureFact(
                        "scope",
                        f"nonlocal {', '.join(node.names)}",
                        node.lineno,
                        node.col_offset,
                    )
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                impure.extend(_parameter_mutations(node, params, rebound))
            elif isinstance(node, ast.Call):
                self._analyze_call(
                    node, scope, local_assigns, calls, impure, writes
                )

        self.functions.append(
            FunctionInfo(
                qualname=qualname,
                line=fn.lineno,
                col=fn.col_offset,
                kernel=any(
                    _is_array_kernel_decorator(d) for d in fn.decorator_list
                ),
                calls=tuple(calls),
                impure=tuple(impure),
                writes=tuple(writes),
            )
        )

    def _analyze_call(
        self,
        node: ast.Call,
        scope: _Scope,
        local_assigns: Dict[str, Optional[ast.expr]],
        calls: List[CallSite],
        impure: List[ImpureFact],
        writes: List[WriteSite],
    ) -> None:
        raw = dotted_name(node.func)
        if not raw:
            return
        qualified = self._qualify(raw)
        leaf = raw.split(".")[-1]

        fact = _impurity_of(raw, qualified, leaf)
        if fact is not None:
            impure.append(
                ImpureFact(fact, qualified or raw, node.lineno, node.col_offset)
            )

        if leaf in _WRITE_HELPERS:
            filename = ""
            if node.args:
                filename = self._filename_of(
                    node.args[0], scope, local_assigns
                )
            writes.append(
                WriteSite(leaf, filename, node.lineno, node.col_offset)
            )

        if leaf in ("maybe_jit", "maybe_vmap") and node.args:
            wrapped = self._resolve_callable(
                dotted_name(node.args[0]), scope
            )
            if wrapped:
                self.jit_roots.append(CallSite(wrapped, node.lineno))

        resolved = self._resolve_callable(raw, scope)
        if resolved:
            calls.append(CallSite(resolved, node.lineno))

    def _qualify(self, raw: str) -> str:
        """Expand the alias root of a dotted name (``np.x`` → ``numpy.x``)."""
        root, _, rest = raw.partition(".")
        target = self.aliases.get(root)
        if target is None:
            return raw
        return f"{target}.{rest}" if rest else target

    def _resolve_callable(self, raw: str, scope: _Scope) -> str:
        """Fully qualified intra-project candidate of a called name, or ``""``."""
        if not raw:
            return ""
        root, _, rest = raw.partition(".")
        if root == "self" and scope.class_name and rest and "." not in rest:
            return f"{self.module}.{scope.class_name}.{rest}"
        if not rest:
            if raw in scope.local_defs:
                return f"{self.module}.{scope.local_defs[raw]}"
            if raw in self.module_defs:
                return f"{self.module}.{self.module_defs[raw]}"
        qualified = self._qualify(raw)
        if self._intra(qualified):
            return qualified
        if root in self.module_defs and rest:
            # ``Cls.method`` / ``helper.attr`` on a module-level definition.
            return f"{self.module}.{self.module_defs[root]}.{rest}"
        return ""

    def _filename_of(
        self,
        expr: ast.expr,
        scope: _Scope,
        local_assigns: Dict[str, Optional[ast.expr]],
        depth: int = 0,
    ) -> str:
        """Leaf filename of a path expression, or ``""`` when opaque."""
        if depth > 8:
            return ""
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
            return self._filename_of(expr.right, scope, local_assigns, depth + 1)
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value.rsplit("/", 1)[-1]
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            root, _, attr = dotted.partition(".")
            if root == "self" and scope.class_name:
                value = self.class_consts.get((scope.class_name, attr))
                if value is not None:
                    return value
            if (root, attr) in self.class_consts:
                return self.class_consts[(root, attr)]
            return ""
        if isinstance(expr, ast.Name):
            if expr.id in self.module_consts:
                return self.module_consts[expr.id]
            assigned = local_assigns.get(expr.id)
            if assigned is not None:
                return self._filename_of(assigned, scope, local_assigns, depth + 1)
            return ""
        if isinstance(expr, ast.Call) and dotted_name(expr.func).split(".")[-1] in (
            "Path",
            "joinpath",
        ):
            if expr.args:
                return self._filename_of(
                    expr.args[-1], scope, local_assigns, depth + 1
                )
        return ""


def _statement_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    bodies: List[List[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field, None)
        if value:
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


def _parameter_names(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.args + args.posonlyargs + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _walk_own_body(fn: ast.AST) -> List[ast.AST]:
    """Every node of a function excluding nested function/class bodies."""
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return nodes


def _bound_name_leaves(target: ast.expr) -> Iterator[str]:
    """Plain names a binding target rebinds (``a``, ``a, b``, ``[a, *b]``).

    Attribute and subscript stores are *not* rebindings — they mutate the
    object behind the existing binding, which is exactly what the
    mutation fact must keep seeing.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_name_leaves(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_name_leaves(target.value)


def _rebound_names(fn: ast.AST) -> Set[str]:
    """Names rebound anywhere in a function body (excluding nested defs)."""
    rebound: Set[str] = set()
    for node in _walk_own_body(fn):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets = [node.optional_vars]
        elif isinstance(node, ast.NamedExpr):
            targets = [node.target]
        for target in targets:
            rebound.update(_bound_name_leaves(target))
    return rebound


def _single_assignments(fn: ast.AST) -> Dict[str, Optional[ast.expr]]:
    """Names assigned exactly once in a function → their value expression."""
    assigns: Dict[str, Optional[ast.expr]] = {}
    for node in _walk_own_body(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                key = target.id
                assigns[key] = None if key in assigns else node.value
    return {k: v for k, v in assigns.items()}


def _parameter_mutations(
    node: ast.stmt, params: Set[str], rebound: Set[str]
) -> List[ImpureFact]:
    """Attribute/subscript writes whose target roots at a parameter."""
    facts: List[ImpureFact] = []
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            continue
        base: ast.expr = target
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if not isinstance(base, ast.Name):
            continue
        # A parameter rebound to a local copy (``coords = xp.asarray(coords)``)
        # is the function's own value; only writes through the caller's
        # binding are mutations.
        if base.id in params and base.id not in rebound and base.id != "self":
            kind = "attribute" if isinstance(target, ast.Attribute) else "item"
            facts.append(
                ImpureFact(
                    "mutation",
                    f"{kind} write on parameter `{base.id}`",
                    target.lineno,
                    target.col_offset,
                )
            )
    return facts


def _impurity_of(raw: str, qualified: str, leaf: str) -> Optional[str]:
    """Impurity kind of one call by dotted name, or ``None``."""
    name = qualified or raw
    if name in _CLOCK_CALLS:
        return "clock"
    if (
        name in _RNG_CALLS
        or leaf in _RNG_LEAVES
        or any(name.startswith(p) for p in _RNG_PREFIXES)
    ):
        return "rng"
    if name in _IO_CALLS or leaf in _IO_METHOD_LEAVES or leaf in _WRITE_HELPERS:
        return "io"
    if any(name.startswith(p) for p in _IO_PREFIXES) and not any(
        name.startswith(p) for p in _IO_PREFIX_EXEMPT
    ):
        return "io"
    if name.startswith("numpy.") and leaf in _NP_IO_LEAVES:
        return "io"
    return None


def analyze_module(tree: ast.Module, relpath: str) -> ModuleAnalysis:
    """Distil one parsed module into its whole-program analysis facts."""
    return _ModuleCollector(relpath).collect(tree)


# ---------------------------------------------------------------------------
# The project graph
# ---------------------------------------------------------------------------


class ProjectGraph:
    """Every linted module's analysis, assembled into one queryable graph."""

    def __init__(self, analyses: Sequence[ModuleAnalysis]) -> None:
        self.modules: Dict[str, ModuleAnalysis] = {}
        for analysis in analyses:
            self.modules[analysis.module] = analysis
        #: fully qualified function name → (owning analysis, info)
        self.functions: Dict[str, Tuple[ModuleAnalysis, FunctionInfo]] = {}
        for analysis in self.modules.values():
            for info in analysis.functions:
                self.functions[f"{analysis.module}.{info.qualname}"] = (
                    analysis,
                    info,
                )
        self._toplevel: Optional[Dict[str, Set[str]]] = None

    # -- resolution ------------------------------------------------------

    def resolve_module(self, target: str) -> Optional[str]:
        """Module of an import candidate (peeling one attribute if needed)."""
        if target in self.modules:
            return target
        parent = target.rsplit(".", 1)[0] if "." in target else target
        if parent in self.modules:
            return parent
        return None

    def resolve_function(self, candidate: str) -> Optional[str]:
        """The candidate itself when it names a known function."""
        return candidate if candidate in self.functions else None

    # -- the module-level import graph -----------------------------------

    def toplevel_imports(self) -> Dict[str, Set[str]]:
        """Module → intra-project modules it imports at module scope."""
        if self._toplevel is None:
            graph: Dict[str, Set[str]] = {}
            for name, analysis in self.modules.items():
                targets: Set[str] = set()
                for site in analysis.imports:
                    if not site.toplevel:
                        continue
                    resolved = self.resolve_module(site.target)
                    if resolved is not None and resolved != name:
                        targets.add(resolved)
                graph[name] = targets
            self._toplevel = graph
        return self._toplevel

    def shortest_cycle(self, source: str, target: str) -> Optional[List[str]]:
        """Shortest module chain ``source → target → ... → source``.

        ``None`` when the edge ``source → target`` closes no cycle.  BFS
        over the module-level import graph from ``target`` back to
        ``source``; deterministic because neighbours expand in sorted
        order.
        """
        graph = self.toplevel_imports()
        if target not in graph:
            return None
        parents: Dict[str, str] = {target: source}
        queue = [target]
        while queue:
            current = queue.pop(0)
            if current == source:
                chain = [source]
                node = source
                while True:
                    node = parents[node]
                    chain.append(node)
                    if node == source:
                        break
                chain.reverse()
                return chain
            for neighbour in sorted(graph.get(current, ())):
                if neighbour not in parents:
                    parents[neighbour] = current
                    queue.append(neighbour)
        return None

    # -- call-graph closures ---------------------------------------------

    def call_closure(self, root: str) -> Dict[str, Tuple[str, ...]]:
        """Reachable project functions from ``root`` → their call chain.

        The chain is the function sequence from ``root`` (inclusive) to
        the reached function (inclusive); unresolvable calls are opaque
        and terminate exploration along that edge.
        """
        if root not in self.functions:
            return {}
        chains: Dict[str, Tuple[str, ...]] = {root: (root,)}
        queue = [root]
        while queue:
            current = queue.pop(0)
            _, info = self.functions[current]
            for call in info.calls:
                target = self.resolve_function(call.target)
                if target is None or target in chains:
                    continue
                chains[target] = chains[current] + (target,)
                queue.append(target)
        return chains
