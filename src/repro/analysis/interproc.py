"""Whole-package interprocedural call graph for the reduction-contract rule.

Static resolution over the stdlib AST, tuned to this codebase's idioms:

* **exact names** — module-level functions, ``from x import y`` /
  ``import x as y`` bindings (collected flat per module, so
  function-local imports like ``make_krylov_solver``'s lazy ones count),
  ``self.method`` within the enclosing class, and ``Class(...)``
  construction resolving to ``Class.__init__``;
* **registry dispatch** — the factory pattern the linter's RL005
  fixpoint was blind to.  Three registration shapes are recognized:
  module-level dict literals whose values name functions or classes
  (``_REGISTRY = {"jacobi": _jacobi}``), direct subscript-assignment
  (``REGISTRY[k] = fn``), and decorator factories whose body stores a
  parameter into a module dict (``register_workload``).  Any function
  that *subscripts* a known registry is given edges to every registered
  target — sound for "what could this dispatch call" questions.

On top of the edges, one transitive summary is computed to a fixpoint:
whether a function can reach a **reduction** — a collective
(``allreduce``/``allgather``/``barrier``/``alltoallv``/
``record_collective``) or a distributed dot-product primitive
(``dot``/``norm``/``fused_dots``/``batched_dots``), RL009's events.
Unresolvable attribute calls (``A.matvec``, ``self.M.apply``) contribute
no edges; the rule documents that boundary instead of guessing.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

#: Terminal call names that cost one distributed reduction: the
#: world-level collectives, and the dot-product primitives — each exactly
#: one fused allreduce regardless of operand count (``ParVector.dot``/
#: ``norm``, ``fused_dots``, ``batched_dots``).
REDUCTION_NAMES = frozenset(
    {
        "allreduce",
        "allgather",
        "barrier",
        "alltoallv",
        "record_collective",
        "dot",
        "norm",
        "fused_dots",
        "batched_dots",
    }
)


def _terminal_name(func: ast.expr) -> str | None:
    """Rightmost identifier of a call target (``a.b.c()`` -> ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None when any link is dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _is_numpy_rooted(func: ast.expr) -> bool:
    """True for ``np.*``/``numpy.*`` calls (local math, never collective)."""
    chain = _dotted_chain(func) if isinstance(func, ast.Attribute) else None
    return bool(chain) and chain[0] in ("np", "numpy")


@dataclass
class FunctionDecl:
    """One function definition in the indexed package."""

    module: str
    path: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    #: Call expressions evaluated by this function's own body (nested
    #: definitions excluded — they are their own decls).
    calls: list[ast.Call] = field(default_factory=list)
    #: Registries this function subscripts (dispatch sites).
    dispatches: set[str] = field(default_factory=set)
    #: A collective or reduction primitive is called in this body.
    has_reduction: bool = False

    @property
    def key(self) -> str:
        """Globally unique ``module:qualname`` identifier."""
        return f"{self.module}:{self.qualname}"


@dataclass
class _ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    #: local name -> ("module.attr" target) for from-imports and names.
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: local alias -> module (``import x.y as z``).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: class name -> set of method simple names.
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: functions defined here, by qualname.
    functions: dict[str, FunctionDecl] = field(default_factory=dict)


def module_name_for(path: str) -> str:
    """Dotted module name from a file path.

    Rooted at the last ``repro`` path component, however the tree is
    addressed (``src/repro/...``, ``repro/...`` from inside ``src``, an
    absolute or ``site-packages`` path, an in-memory fixture path); a
    path without one is outside the package and keeps its basename.
    """
    parts = list(os.path.normpath(path).split(os.sep))
    if "repro" in parts[:-1]:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "<module>"


def _body_calls(fn: ast.AST) -> list[ast.Call]:
    """Calls in ``fn``'s own body, skipping nested definitions."""
    out: list[ast.Call] = []

    def walk(node: ast.AST, top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ) and not top:
                continue
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            walk(child, False)
            if isinstance(child, ast.Call):
                out.append(child)

    walk(fn, True)
    return out


class ProjectIndex:
    """Call-graph index over a set of parsed source files."""

    def __init__(self) -> None:
        self.modules: dict[str, _ModuleInfo] = {}
        self.functions: dict[str, FunctionDecl] = {}
        #: registry key ("module:dictname") -> target function keys.
        self.registries: dict[str, set[str]] = {}
        #: decorator function key -> registry key it registers into.
        self._registering_decorators: dict[str, str] = {}
        self._reaches_reduction: dict[str, bool] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sources(cls, files: list[tuple[str, str]]) -> "ProjectIndex":
        """Index ``(path, source)`` pairs; unparsable files are skipped."""
        index = cls()
        for path, source in files:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            index._scan_module(path, tree)
        index._link_registries()
        index._compute_summary()
        return index

    @classmethod
    def from_paths(cls, paths: list[str]) -> "ProjectIndex":
        """Index every ``.py`` file under ``paths``."""
        from repro.analysis.lint import iter_python_files

        files = []
        for p in iter_python_files(paths):
            try:
                with open(p, encoding="utf-8") as fh:
                    files.append((p, fh.read()))
            except OSError:
                continue
        return cls.from_sources(files)

    def _scan_module(self, path: str, tree: ast.Module) -> None:
        mod = _ModuleInfo(name=module_name_for(path), path=path, tree=tree)
        self.modules[mod.name] = mod
        # Imports, collected flat (function-local lazy imports included).
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = mod.name.split(".")
                    parts = parts[: len(parts) - node.level]
                    base = ".".join(parts + ([node.module] if node.module else []))
                for alias in node.names:
                    bound = alias.asname or alias.name
                    mod.imports[bound] = (base, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.module_aliases[bound] = target
        # Declarations.
        self._scan_defs(mod, tree, scope=(), class_name=None)
        # Module-level registries: dict literals and subscript-assignment.
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Dict)
            ):
                targets = {
                    v.id for v in stmt.value.values if isinstance(v, ast.Name)
                }
                if targets:
                    key = f"{mod.name}:{stmt.targets[0].id}"
                    self.registries.setdefault(key, set())
                    for name in targets:
                        resolved = self._resolve_name(mod, name)
                        if resolved:
                            self.registries[key].update(resolved)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
                and isinstance(node.targets[0].value, ast.Name)
                and isinstance(node.value, ast.Name)
            ):
                key = f"{mod.name}:{node.targets[0].value.id}"
                resolved = self._resolve_name(mod, node.value.id)
                if resolved:
                    self.registries.setdefault(key, set()).update(resolved)

    def _scan_defs(
        self,
        mod: _ModuleInfo,
        node: ast.AST,
        scope: tuple[str, ...],
        class_name: str | None,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join(scope + (child.name,))
                decl = FunctionDecl(
                    module=mod.name,
                    path=mod.path,
                    qualname=qual,
                    node=child,
                    class_name=class_name,
                )
                decl.calls = _body_calls(child)
                for call in decl.calls:
                    name = _terminal_name(call.func)
                    if _is_numpy_rooted(call.func):
                        continue
                    if name in REDUCTION_NAMES:
                        decl.has_reduction = True
                mod.functions[qual] = decl
                self.functions[decl.key] = decl
                self._scan_defs(
                    mod, child, scope + (child.name,), class_name
                )
            elif isinstance(child, ast.ClassDef):
                mod.classes.setdefault(child.name, set())
                for sub in child.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        mod.classes[child.name].add(sub.name)
                self._scan_defs(
                    mod, child, scope + (child.name,), child.name
                )
            elif not isinstance(child, (ast.Lambda,)):
                self._scan_defs(mod, child, scope, class_name)

    # -- registry linking ---------------------------------------------------

    def _link_registries(self) -> None:
        """Decorator factories, decorated targets, and dispatch sites."""
        # 1. A function whose body assigns one of its parameters into a
        #    module-level dict is a registering decorator (possibly via a
        #    nested closure, e.g. register_workload's `decorate`).
        for decl in self.functions.values():
            params = self._own_and_nested_params(decl)
            for node in ast.walk(decl.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Subscript)
                    and isinstance(node.targets[0].value, ast.Name)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in params
                ):
                    reg_key = f"{decl.module}:{node.targets[0].value.id}"
                    # Outermost decorator wins: nested closures belong
                    # to it, so attribute the registration to the
                    # top-level factory name.
                    top = decl.key.split(":")[1].split(".")[0]
                    top_key = f"{decl.module}:{top}"
                    owner = top_key if top_key in self.functions else decl.key
                    self._registering_decorators[owner] = reg_key
        # 2. Functions decorated by a registering decorator become
        #    registry targets (decorator resolved through imports).
        for decl in self.functions.values():
            mod = self.modules[decl.module]
            for deco in decl.node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = _terminal_name(target)
                if name is None:
                    continue
                for deco_key in self._resolve_name(mod, name):
                    reg_key = self._registering_decorators.get(deco_key)
                    if reg_key is not None:
                        self.registries.setdefault(reg_key, set()).add(
                            decl.key
                        )
        # 3. Dispatch sites: any Subscript load of a registry name.
        for decl in self.functions.values():
            mod = self.modules[decl.module]
            for node in ast.walk(decl.node):
                if isinstance(node, ast.Subscript) and isinstance(
                    node.value, ast.Name
                ):
                    for key in self._registry_keys_for(mod, node.value.id):
                        decl.dispatches.add(key)

    def _own_and_nested_params(self, decl: FunctionDecl) -> set[str]:
        params: set[str] = set()
        for node in ast.walk(decl.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in (
                    a.posonlyargs + a.args + a.kwonlyargs
                ):
                    params.add(arg.arg)
        return params

    def _registry_keys_for(self, mod: _ModuleInfo, name: str) -> list[str]:
        keys = []
        local = f"{mod.name}:{name}"
        if local in self.registries:
            keys.append(local)
        if name in mod.imports:
            target_mod, target_name = mod.imports[name]
            remote = f"{target_mod}:{target_name}"
            if remote in self.registries:
                keys.append(remote)
        return keys

    # -- name/call resolution -----------------------------------------------

    def _resolve_name(self, mod: _ModuleInfo, name: str) -> set[str]:
        """A bare name in ``mod`` -> decl keys (function or class init)."""
        if name in mod.functions:
            return {mod.functions[name].key}
        if name in mod.classes:
            init = f"{mod.name}:{name}.__init__"
            return {init} if init in self.functions else set()
        if name in mod.imports:
            target_mod, target_name = mod.imports[name]
            tmod = self.modules.get(target_mod)
            if tmod is None:
                return set()
            return self._resolve_name(tmod, target_name)
        return set()

    def resolve_call(self, call: ast.Call, decl: FunctionDecl) -> set[str]:
        """Decl keys a call site may dispatch to (empty when unresolved)."""
        mod = self.modules.get(decl.module)
        if mod is None:
            return set()
        func = call.func
        # Registry dispatch: REGISTRY[name](...) or REGISTRY.get(...)(...)
        if isinstance(func, ast.Subscript) and isinstance(
            func.value, ast.Name
        ):
            out: set[str] = set()
            for key in self._registry_keys_for(mod, func.value.id):
                out.update(self.registries.get(key, set()))
            return out
        if isinstance(func, ast.Name):
            return self._resolve_name(mod, func.id)
        if isinstance(func, ast.Attribute):
            chain = _dotted_chain(func)
            if chain is None:
                return set()
            if (
                len(chain) == 2
                and chain[0] == "self"
                and decl.class_name is not None
                and chain[1] in mod.classes.get(decl.class_name, set())
            ):
                target = f"{mod.name}:{decl.class_name}.{chain[1]}"
                return {target} if target in self.functions else set()
            if len(chain) == 2 and chain[0] in mod.module_aliases:
                tmod = self.modules.get(mod.module_aliases[chain[0]])
                if tmod is not None:
                    return self._resolve_name(tmod, chain[1])
        return set()

    def callees(self, decl: FunctionDecl) -> set[str]:
        """All resolved callee keys of ``decl`` including registry edges."""
        out: set[str] = set()
        for call in decl.calls:
            out.update(self.resolve_call(call, decl))
        for reg_key in decl.dispatches:
            out.update(self.registries.get(reg_key, set()))
        return out

    # -- summary ------------------------------------------------------------

    def _compute_summary(self) -> None:
        summary = {k: d.has_reduction for k, d in self.functions.items()}
        edges = {k: self.callees(d) for k, d in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for k, outs in edges.items():
                if not summary[k] and any(summary.get(o, False) for o in outs):
                    summary[k] = True
                    changed = True
        self._reaches_reduction = summary

    def reaches_reduction(self, key: str) -> bool:
        """Can ``key`` (transitively) execute a distributed reduction?"""
        return self._reaches_reduction.get(key, False)
