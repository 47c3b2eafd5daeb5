"""repro-lint: AST-based determinism/accounting rules for this repo.

The paper's assembly/solver stack rests on a correctness contract that
plain Python cannot enforce by itself (§3.2-§3.3):

* order-nondeterministic accumulation is allowed **only** where it is
  declared (the ``"atomic"`` scatter mode); everything rank-visible must
  be bitwise reproducible, which in NumPy terms means *stable* sorts and
  fixed-order reductions;
* every device-kernel-shaped bulk operation must be cost-accounted
  through ``SimWorld.charge`` (the one writer of the
  :class:`~repro.perf.opcounts.OpRecorder`), or the machine model prices
  a run that never happened;
* construction/bookkeeping APIs with invariants (``make_smoother``,
  ``SimWorld.phase_scope``) must be used through their sanctioned entry
  points.

Each rule below statically checks one clause of that contract.  Findings
can be silenced inline with ``# repro: allow(RLxxx[, RLyyy])`` on the
offending line (or in the comment block above), the one suppression
mechanism; each is counted into the ``analysis.suppressed`` telemetry
counter so debt stays visible.

Rules
-----

======  ==================================================================
RL001   unstable sort: ``np.sort``/``np.argsort`` (or the ndarray method
        forms) without ``kind="stable"`` — tie order then depends on the
        introsort implementation, i.e. on NumPy version and platform.
RL002   raw scatter-write: ``np.add.at``/``np.subtract.at`` in the
        device-kernel packages (``repro.assembly``/``linalg``/``amg``/
        ``smoothers``/``krylov``) or the physics driver (``repro.core``)
        outside the registered scatter wrapper
        (:data:`REGISTERED_SCATTER_QUALNAMES`) — bypasses the
        atomic/deterministic mode contract and its cost
        accounting, and in ``core`` is an order-for-order ``np.bincount``
        at several times the cost.  (``np.maximum.at``/``minimum.at`` are
        exempt: they are exactly associative/commutative, so order cannot
        matter.)
RL003   unseeded RNG: ``default_rng()`` with no seed — every stochastic
        choice in the stack must replay bit-identically.
RL004   direct smoother construction: naming a smoother class instead of
        :func:`repro.smoothers.make_smoother`.  The factory is the only
        supported entry point, and this rule is its only enforcement.
RL005   unaccounted kernel: a function in the device-kernel packages
        performs bulk data motion (sort / scatter / segmented reduce /
        dense matmul via ``@``) with no recording call reachable in its
        intra-module call neighborhood (``world.charge``/``charge_alloc``
        or a ``record_*``/``_record*`` helper).
RL006   unbalanced phase push/pop: ``phase_scope`` used outside a
        ``with`` statement, or direct ``_phase_stack``/``_pop_phase``
        manipulation outside ``SimWorld`` itself.  Syntax suffices: the
        only push in the package sits in ``phase_scope``'s own
        ``try/finally``, so no path can leave a label behind.
RL007   protocol ownership, four clauses over ``repro.*`` modules: any
        ``os.replace``/``os.rename`` call outside ``repro.durable`` (a
        hand-copied commit instead of ``atomic_write``), any reference
        to ``exchange_halo_begin``/``exchange_halo_finish`` outside
        ``repro.comm.exchange`` (a hand-placed split exchange instead of
        the ``overlapped_halo`` scope), any reference to
        ``record_failure``/``record_recovery``/``RecoveryEvent`` outside
        ``repro.resilience`` (a hand-rolled failure path instead of the
        solver ladder and the step transaction — both name clauses read
        one name -> owner table), and any ``.ops.record*(`` /
        ``.traffic.record_*(`` call outside ``repro.comm`` and the two
        sink modules (a hand-wired ledger write instead of
        ``SimWorld.charge``/``charge_alloc``/``collective``, which read
        the phase themselves and reach every sink).  Syntax suffices:
        each protocol has one subject, asserted at run time where it
        lives (the fault matrix of ``tests/test_durable.py``; the
        ``comm.double_begin`` guard and ``MailboxLeakError``; the
        counters-mirror-events tests of ``tests/test_resilience.py``; the
        all-sinks test and the ledger golden of
        ``tests/test_ledger.py``), so no path elsewhere can get it wrong.
RL008   retired: rank-gated collectives cannot be written against
        ``SimWorld`` (no per-rank collective exists); the id is not
        reused.
RL009   retired: the static count of reduction sites missed a hidden
        allreduce inside a priced helper and saw nothing the measured
        ``collective_count()`` pins of ``tests/test_comm_avoiding.py``
        do not; the id is not reused.
RL010   swallowed campaign failure: a broad ``except`` (bare,
        ``Exception``, or ``BaseException``) inside ``repro.campaign``
        that neither re-raises nor routes the exception through
        the resilience taxonomy (``classify_failure`` /
        ``failure_context`` / a ``record_*`` helper).  The supervised
        runner's retry/quarantine decisions are keyed on taxonomy
        classes, so an except-and-continue that drops the exception
        silently erases a failure from the fault-domain bookkeeping.
======  ==================================================================

Every package-scoped rule (RL002, RL004, RL005, RL007, RL010, and the
``SimWorld`` exemption of RL006) keys on :func:`module_name_for`, so a
checkout that merely lives under a directory called ``linalg`` or
``campaign`` lints the same as any other.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field

from repro.analysis.findings import AnalysisReport, Finding

#: Rule catalog (id -> one-line description, used by the CLI and docs).
RULES: dict[str, str] = {
    "RL001": "unstable sort (missing kind=\"stable\") in rank-visible code",
    "RL002": "raw scatter-write outside the registered kernel wrappers",
    "RL003": "unseeded default_rng() breaks replay determinism",
    "RL004": "direct smoother construction bypassing make_smoother",
    "RL005": "bulk kernel with no reachable world.charge accounting",
    "RL006": "unbalanced/raw SimWorld phase push/pop",
    "RL007": (
        "protocol ownership: os.replace/os.rename outside repro.durable, "
        "a split-halo half named outside repro.comm.exchange, a failure/"
        "recovery record named outside repro.resilience, or a direct "
        "ops/traffic sink write outside repro.comm"
    ),
    "RL010": (
        "broad except in campaign code swallows the failure without "
        "recording a taxonomy class"
    ),
}

#: ``repro.<package>`` names treated as device-kernel code (RL002/RL005).
#: ``krylov`` joined the list after a hidden reduction in the one-reduce
#: orthogonalizer shipped without op accounting — solver inner kernels are
#: device-kernel-shaped too.
KERNEL_PACKAGES = ("assembly", "linalg", "amg", "smoothers", "krylov")

#: ``repro.<package>`` names where RL002 holds: the kernel packages plus
#: ``core``, whose per-node sums are one ``np.bincount`` each.
SCATTER_PACKAGES = KERNEL_PACKAGES + ("core",)

#: Qualified function names allowed to issue raw scatter-writes (RL002):
#: the mode-aware Stage-2 accumulation wrapper in ``repro.assembly.local``.
REGISTERED_SCATTER_QUALNAMES = frozenset({"LocalAssembler._scatter"})

#: Sort kinds NumPy guarantees to be stable.
_STABLE_KINDS = frozenset({"stable", "mergesort"})

#: ufuncs whose ``.at`` form is a raw scatter-write (RL002).  ``maximum``/
#: ``minimum`` are excluded: exactly associative and commutative, so the
#: commit order provably cannot change the result.
_SCATTER_UFUNCS = frozenset({"add", "subtract"})

#: np.<name> calls that constitute bulk device-kernel data motion (RL005).
_BULK_NP_CALLS = frozenset({"sort", "argsort", "lexsort"})

#: RL007 — the one module that may commit a file by rename; the names only
#: their owner (a module, or a package and everything below it) may
#: reference, with what to use instead; the package that may write the
#: modeled-clock sinks (``SimWorld`` is the one writer) beside the sinks'
#: own modules, and the sink attribute names.
_DURABLE_MODULE = "repro.durable"
_HALO_HINT = (
    "repro.comm.exchange",
    "overlap work with a halo round through `with overlapped_halo(...)`, "
    "the scope that cannot leave a begin without its finish",
)
_RECOVERY_HINT = (
    "repro.resilience",
    "offer the solve to solve_with_recovery or the step to "
    "StepTransaction, which record every failure and recovery themselves "
    "(counter = event by construction)",
)
_OWNED_NAMES: dict[str, tuple[str, str]] = {
    "exchange_halo_begin": _HALO_HINT,
    "exchange_halo_finish": _HALO_HINT,
    "record_failure": _RECOVERY_HINT,
    "record_recovery": _RECOVERY_HINT,
    "RecoveryEvent": _RECOVERY_HINT,
}
_LEDGER_PACKAGE = "comm"
_SINK_MODULES = frozenset({"repro.perf.opcounts", "repro.comm.traffic"})
_SINKS = frozenset({"ops", "traffic"})
#: RL006 — the module that owns the phase stack.
_SIMWORLD_MODULE = "repro.comm.simcomm"

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)\s*\)"
)


def _smoother_class_names() -> tuple[str, ...]:
    """Class names RL004 flags: the factory's own list (imported late, so
    loading the linter does not load the solver stack)."""
    from repro.smoothers.factory import SMOOTHER_CLASS_NAMES

    return tuple(SMOOTHER_CLASS_NAMES)


def _terminal_name(func: ast.expr) -> str | None:
    """Rightmost identifier of a call target (``a.b.c()`` -> ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


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


def _is_numpy_name(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _kind_is_stable(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
            return kw.value.value in _STABLE_KINDS
    return False


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


#: Calls that count as routing a swallowed exception into the failure
#: taxonomy (RL010): the classifier itself, the supervisor's context
#: builder, and ``record_*`` bookkeeping helpers.
_RL010_TAXONOMY_CALLS = frozenset({"classify_failure", "failure_context"})


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception``, ``except BaseException``
    (alone or inside a tuple)."""
    if handler.type is None:
        return True
    elems = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for elem in elems:
        name = _terminal_name(elem) if isinstance(
            elem, (ast.Name, ast.Attribute)
        ) else None
        if name in ("Exception", "BaseException"):
            return True
    return False


def _handler_records_taxonomy(handler: ast.ExceptHandler) -> bool:
    """True when a handler re-raises or routes through the taxonomy."""
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Raise):
            return True
        if isinstance(sub, ast.Call):
            name = _terminal_name(sub.func)
            if name in _RL010_TAXONOMY_CALLS or (
                name is not None and name.startswith("record_")
            ):
                return True
    return False


def _scatter_ufunc_at(call: ast.Call) -> str | None:
    """``np.add.at`` / ``np.subtract.at`` -> the ufunc name, else None."""
    f = call.func
    if (
        isinstance(f, ast.Attribute)
        and f.attr == "at"
        and isinstance(f.value, ast.Attribute)
        and f.value.attr in _SCATTER_UFUNCS
        and _is_numpy_name(f.value.value)
    ):
        return f.value.attr
    return None


def _ufunc_reduceat(call: ast.Call) -> bool:
    """``np.<ufunc>.reduceat`` (segmented reduction)."""
    f = call.func
    return (
        isinstance(f, ast.Attribute)
        and f.attr == "reduceat"
        and isinstance(f.value, ast.Attribute)
        and _is_numpy_name(f.value.value)
    )


def _is_recording_call(call: ast.Call) -> bool:
    """Does this call record kernel cost (``world.charge*`` / ``record_*``)?"""
    name = _terminal_name(call.func)
    if name is None:
        return False
    if name in ("charge", "charge_alloc"):
        return isinstance(call.func, ast.Attribute)
    return name.startswith("record_") or name.startswith("_record")


def _sink_write(call: ast.Call) -> str | None:
    """``<x>.ops.record*(`` / ``<x>.traffic.record_*(`` -> ``"ops.record"``
    (the sink and method named), else None."""
    f = call.func
    if (
        isinstance(f, ast.Attribute)
        and isinstance(f.value, ast.Attribute)
        and f.value.attr in _SINKS
        and (f.attr == "record" or f.attr.startswith("record_"))
    ):
        return f"{f.value.attr}.{f.attr}"
    return None


@dataclass
class _FunctionInfo:
    """Per-function facts RL005 needs for its reachability pass."""

    qualname: str
    node: ast.AST
    records: bool = False
    #: (rule-relevant bulk op label, line) occurrences inside this function.
    bulk_ops: list[tuple[str, int, ast.AST]] = field(default_factory=list)
    #: Simple names this function calls (module functions / self-methods).
    calls: set[str] = field(default_factory=set)


class _Linter(ast.NodeVisitor):
    """Single-pass AST walk collecting the syntactic rules' findings."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.raw: list[tuple[str, ast.AST, str, str | None]] = []
        self.smoother_classes = _smoother_class_names()
        # One identity for every scoped rule: ``repro.<package>[...]``.
        module = module_name_for(path)
        parts = module.split(".")
        in_package = parts[0] == "repro"
        package = parts[1] if in_package and len(parts) > 1 else None
        self.kernel_scope = package in KERNEL_PACKAGES
        self.scatter_scope = package in SCATTER_PACKAGES
        self.smoothers_scope = package == "smoothers"
        self.campaign_scope = package == "campaign"
        self.simworld_module = module == _SIMWORLD_MODULE
        # RL007 holds inside the package only: tools and tests may rename
        # files and drive the halves directly.
        self.may_rename = not in_package or module == _DURABLE_MODULE
        self.owned_elsewhere = {
            name: owned
            for name, owned in _OWNED_NAMES.items()
            if in_package and not f"{module}.".startswith(f"{owned[0]}.")
        }
        self.may_write_sinks = (
            not in_package
            or package == _LEDGER_PACKAGE
            or module in _SINK_MODULES
        )
        # Function-context stacks for qualnames and RL005 bookkeeping.
        self._scope: list[str] = []
        self._fn_stack: list[_FunctionInfo] = []
        self.functions: list[_FunctionInfo] = []
        # phase_scope calls that legitimately appear as `with` items.
        self._with_context_calls: set[int] = set()
        # Registry dispatch bookkeeping for RL005: dict-shaped registries
        # (name -> registered simple names) and per-function subscript
        # loads, resolved into call-graph edges in resolve_unaccounted.
        self.registry_targets: dict[str, set[str]] = {}
        self._subscript_loads: list[tuple[_FunctionInfo, str]] = []

    # -- context helpers ---------------------------------------------------

    def _qualname(self, name: str) -> str:
        return ".".join(self._scope + [name])

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        qualname = ".".join(self._scope) or None
        self.raw.append((rule, node, message, qualname))

    def _current_fn(self) -> _FunctionInfo | None:
        return self._fn_stack[-1] if self._fn_stack else None

    # -- structural visitors -----------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def _visit_function(self, node) -> None:
        info = _FunctionInfo(self._qualname(node.name), node)
        self.functions.append(info)
        self._scope.append(node.name)
        self._fn_stack.append(info)
        self.generic_visit(node)
        self._fn_stack.pop()
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                self._with_context_calls.add(id(item.context_expr))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Registry shapes: `_REGISTRY = {"k": fn, ...}` (dict literal of
        # names) and `REGISTRY[key] = fn` (incremental registration).
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                node.value, ast.Dict
            ):
                names = {
                    v.id for v in node.value.values
                    if isinstance(v, ast.Name)
                }
                if names:
                    self.registry_targets.setdefault(target.id, set()).update(
                        names
                    )
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(node.value, ast.Name)
            ):
                self.registry_targets.setdefault(
                    target.value.id, set()
                ).add(node.value.id)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        # RL010 — swallowed failures in campaign code.  Broad catches in
        # the fault-domain layer must either re-raise or record what
        # they caught through the resilience taxonomy; anything else
        # silently erases a failure the supervisor's retry/quarantine
        # machinery should have routed.
        if (
            self.campaign_scope
            and _catches_broadly(node)
            and not _handler_records_taxonomy(node)
        ):
            self._emit(
                "RL010",
                node,
                "broad except swallows the failure without recording a "
                "taxonomy class: re-raise or route through "
                "classify_failure/failure_context (or a record_* helper)",
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # `REGISTRY[name](...)` dispatch sites (resolved after the walk,
        # since registries may be defined below their first use).
        fn = self._current_fn()
        if (
            fn is not None
            and isinstance(node.value, ast.Name)
            and isinstance(node.ctx, ast.Load)
        ):
            self._subscript_loads.append((fn, node.value.id))
        self.generic_visit(node)

    # -- the rules ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._current_fn()
        name = _terminal_name(node.func)

        # RL001 — unstable sorts.
        if name in ("sort", "argsort") and not _kind_is_stable(node):
            if isinstance(node.func, ast.Attribute) and _is_numpy_name(
                node.func.value
            ):
                self._emit(
                    "RL001",
                    node,
                    f"np.{name} without kind=\"stable\": tie order is "
                    "platform/NumPy-version dependent",
                )
            elif isinstance(node.func, ast.Attribute) and not _has_keyword(
                node, "key"
            ):
                # Method form on an array-like; `key=` marks a (stable)
                # Python list.sort and is exempt.
                self._emit(
                    "RL001",
                    node,
                    f".{name}() without kind=\"stable\" (ndarray method "
                    "sorts default to unstable introsort)",
                )

        # RL002 — raw scatter-writes in kernel packages and core.
        ufunc = _scatter_ufunc_at(node)
        if ufunc is not None and self.scatter_scope:
            qual = fn.qualname if fn else "<module>"
            if qual not in REGISTERED_SCATTER_QUALNAMES:
                self._emit(
                    "RL002",
                    node,
                    f"np.{ufunc}.at outside the registered scatter "
                    "wrappers: accumulation-order semantics and cost "
                    "accounting are undeclared (route through "
                    "LocalAssembler._scatter, sum with np.bincount, or "
                    "pragma with justification)",
                )

        # RL003 — unseeded RNG.
        if name == "default_rng" and not node.args and not node.keywords:
            self._emit(
                "RL003",
                node,
                "default_rng() without a seed: stochastic choices must "
                "replay bit-identically across runs",
            )

        # RL004 — direct smoother construction.
        if (
            name in self.smoother_classes
            and not self.smoothers_scope
            and isinstance(node.func, (ast.Name, ast.Attribute))
        ):
            self._emit(
                "RL004",
                node,
                f"direct {name}(...) construction: use "
                "make_smoother(name, A, ...) so options stay uniform and "
                "registry-validated",
            )

        # RL006 — phase_scope outside a `with`, raw _pop_phase elsewhere.
        if name == "phase_scope" and id(node) not in self._with_context_calls:
            self._emit(
                "RL006",
                node,
                "phase_scope(...) must be entered via `with`: a bare call "
                "never pops, leaving all later traffic misattributed",
            )
        if name == "_pop_phase" and not self.simworld_module:
            self._emit(
                "RL006",
                node,
                "direct _pop_phase() call outside SimWorld: phase stack "
                "balance is phase_scope's contract",
            )

        # RL007 — a commit by rename outside repro.durable.
        if (
            not self.may_rename
            and name in ("replace", "rename")
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
        ):
            self._emit(
                "RL007",
                node,
                f"os.{name} outside {_DURABLE_MODULE}: commit files "
                "through atomic_write, the one audited tmp write → fsync "
                "→ replace",
            )

        # RL007 — a ledger write that bypasses SimWorld's verbs.
        sink = None if self.may_write_sinks else _sink_write(node)
        if sink is not None:
            self._emit(
                "RL007",
                node,
                f".{sink} outside repro.{_LEDGER_PACKAGE}: charge through "
                "SimWorld.charge / charge_alloc / collective, which read "
                "the phase themselves and reach every sink (traffic log, "
                "hub, timeline)",
            )

        # RL005 bookkeeping — recording markers, bulk ops, call edges.
        if fn is not None:
            if _is_recording_call(node):
                fn.records = True
            if name is not None:
                fn.calls.add(name)
            bulk: str | None = None
            if ufunc is not None:
                bulk = f"np.{ufunc}.at"
            elif _ufunc_reduceat(node):
                bulk = "reduceat"
            elif (
                name in _BULK_NP_CALLS
                and isinstance(node.func, ast.Attribute)
                and _is_numpy_name(node.func.value)
            ):
                bulk = f"np.{name}"
            if bulk is not None:
                fn.bulk_ops.append((bulk, node.lineno, node))

        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # RL005 bookkeeping — `@` (matmul / SpMV) is bulk data motion:
        # on the device it is a kernel launch like any sort or scatter.
        fn = self._current_fn()
        if fn is not None and isinstance(node.op, ast.MatMult):
            fn.bulk_ops.append(("matmul(@)", node.lineno, node))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # RL006 — direct phase-stack manipulation outside SimWorld.
        if node.attr == "_phase_stack" and not self.simworld_module:
            self._emit(
                "RL006",
                node,
                "_phase_stack touched directly: push/pop balance is "
                "checked only through phase_scope",
            )
        self._check_owned_name(node, node.attr)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._check_owned_name(node, node.id)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._check_owned_name(node, alias.name)

    def _check_owned_name(self, node: ast.AST, name: str) -> None:
        # RL007 — a protocol's private name referenced outside its owner.
        if name in self.owned_elsewhere:
            owner, hint = self.owned_elsewhere[name]
            self._emit(
                "RL007", node, f"{name} referenced outside {owner}: {hint}"
            )

    # -- RL005 resolution --------------------------------------------------

    def resolve_unaccounted(self) -> None:
        """Flag bulk ops in functions with no reachable recording call.

        Accounting propagates through the intra-module call graph in both
        directions (a helper whose call sites record is accounted, and so
        is a caller of a recording helper) to a fixpoint.  Cross-module
        helpers whose accounting lives elsewhere need a pragma.
        """
        if not self.kernel_scope:
            return
        by_simple: dict[str, list[_FunctionInfo]] = {}
        for f in self.functions:
            by_simple.setdefault(f.qualname.rsplit(".", 1)[-1], []).append(f)
        accounted = {f.qualname: f.records for f in self.functions}
        # Undirected adjacency over resolvable intra-module call edges.
        adj: dict[str, set[str]] = {f.qualname: set() for f in self.functions}
        for f in self.functions:
            for callee in f.calls:
                for g in by_simple.get(callee, []):
                    if g.qualname != f.qualname:
                        adj[f.qualname].add(g.qualname)
                        adj[g.qualname].add(f.qualname)
        # Registry-dispatch edges: a function subscripting a registry is
        # connected to every registered target — a factory-only kernel
        # (reachable solely through make_smoother/make_krylov_solver-style
        # dict dispatch) is otherwise invisible to this fixpoint.
        # Registered classes expand to their methods.
        for f, reg_name in self._subscript_loads:
            for target in self.registry_targets.get(reg_name, ()):
                expanded = list(by_simple.get(target, []))
                prefix = f"{target}."
                expanded.extend(
                    g for g in self.functions
                    if g.qualname.startswith(prefix)
                )
                for g in expanded:
                    if g.qualname != f.qualname:
                        adj[f.qualname].add(g.qualname)
                        adj[g.qualname].add(f.qualname)
        changed = True
        while changed:
            changed = False
            for q, nbrs in adj.items():
                if not accounted[q] and any(accounted[n] for n in nbrs):
                    accounted[q] = True
                    changed = True
        for f in self.functions:
            if accounted[f.qualname] or not f.bulk_ops:
                continue
            ops = ", ".join(sorted({b for b, _l, _n in f.bulk_ops}))
            self.raw.append((
                "RL005",
                f.node,
                f"{f.qualname} performs bulk data motion ({ops}) with no "
                "reachable world.charge / record_* accounting: the "
                "perf model will not see this kernel",
                f.qualname,
            ))


def _pragma_rules(line: str) -> set[str]:
    m = _PRAGMA_RE.search(line)
    return set(re.split(r"\s*,\s*", m.group(1))) if m else set()


def _suppressed(
    rule: str, node: ast.AST, lines: list[str], is_function: bool
) -> bool:
    """Inline-pragma check over the node's plausible comment lines.

    A pragma counts if it sits on the node's own line(s) or anywhere in
    the contiguous comment block immediately above — multi-line
    justifications are encouraged, so the marker need not be the last
    comment line.
    """
    lineno = getattr(node, "lineno", 1)
    if is_function:
        window = range(lineno, lineno + 1)
    else:
        end = getattr(node, "end_lineno", lineno) or lineno
        window = range(lineno, min(end, lineno + 5) + 1)
    for ln in window:
        if 1 <= ln <= len(lines) and rule in _pragma_rules(lines[ln - 1]):
            return True
    # Walk up through the comment block (and decorators, for functions)
    # directly above the node.
    ln = lineno - 1
    while 1 <= ln <= len(lines):
        stripped = lines[ln - 1].strip()
        if not (stripped.startswith("#") or stripped.startswith("@")):
            break
        if rule in _pragma_rules(stripped):
            return True
        ln -= 1
    return False


def lint_source(source: str, path: str) -> AnalysisReport:
    """Lint one file's source text; returns live + suppressed findings."""
    report = AnalysisReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.findings.append(
            Finding(
                rule="RL000",
                path=path,
                line=exc.lineno or 1,
                severity="error",
                message=f"syntax error: {exc.msg}",
            )
        )
        return report
    linter = _Linter(path, source)
    linter.visit(tree)
    linter.resolve_unaccounted()
    severity = {"RL005": "warning"}
    for rule, node, message, qualname in linter.raw:
        finding = Finding(
            rule=rule,
            path=path,
            line=getattr(node, "lineno", 1),
            severity=severity.get(rule, "error"),
            message=message,
            qualname=qualname,
        )
        is_fn = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        )
        if _suppressed(rule, node, linter.lines, is_fn):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
            continue
        for root, dirs, files in os.walk(p):
            dirs[:] = sorted(
                d for d in dirs if not d.startswith((".", "__pycache__"))
            )
            out.extend(
                os.path.join(root, f)
                for f in sorted(files)
                if f.endswith(".py")
            )
    return sorted(dict.fromkeys(out))


def lint_paths(paths: list[str]) -> AnalysisReport:
    """Lint every ``.py`` file under ``paths``."""
    report = AnalysisReport()
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        report.extend(lint_source(source, path))
    return report
