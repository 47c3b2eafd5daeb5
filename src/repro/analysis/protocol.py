"""Path-sensitive communication-protocol rules (RL007/RL008/RL009).

Built on :mod:`repro.analysis.cfg` (per-function control-flow graphs)
and :mod:`repro.analysis.interproc` (whole-package call graph), these
rules verify the contracts the comm-avoiding solver stack rests on —
the ones PR 8's bugs showed cannot be left to vigilance:

RL007 — **resource typestate**.  Two protocol state machines walked
    over every CFG path, exception edges included:

    * every ``exchange_halo_begin`` must reach exactly one
      ``exchange_halo_finish`` (a leaked begin strands posted sends; at
      the next barrier that is a :class:`MailboxLeakError`, on real MPI
      a hang).  Handles are tracked per variable, so rebinding a live
      handle fires too; returning or storing a handle transfers
      ownership to the caller and is quiet.
    * durable writes: a written temp file must be ``fsync``'d before
      ``os.replace`` (rename may commit before data → torn checkpoint
      after a crash), and a normal return must not leave the temp
      neither replaced nor cleaned.  Exception paths are exempt: the
      ``finally``-with-``exists``-guard cleanup idiom is the sanctioned
      shape.  Only functions that call ``os.replace``/``os.rename`` are
      checked — and inside the ``repro`` package only
      :mod:`repro.durable` may: a call anywhere else is a finding (a
      hand-copied commit instead of ``atomic_write``).

RL008 — **collective consistency**.  A collective (``allreduce``/
    ``allgather``/``barrier``/``alltoallv``/``record_collective``, or a
    resolved call that transitively reaches one) reachable from one arm
    of a rank-dependent branch but not the other is a deadlock at
    scale: some ranks post the collective, the rest never do.  Arms
    with identical lexical collective sequences are symmetric and
    exempt.  A condition is rank-dependent when it mentions ``rank``,
    ``*_rank``, or ``is_root``.

RL009 — **reduction contracts**.  ``@reduction_contract(...)``-decorated
    kernels (see :func:`repro.krylov.api.reduction_contract`) have their
    declared per-region allreduce counts checked against the statically
    counted reduction call sites: weight-1 primitives are ``dot`` /
    ``norm`` / ``fused_dots`` / ``batched_dots`` and the direct
    collectives; ``assume={name: n}`` prices resolved helpers (e.g.
    ``orthogonalize`` under the one-reduce variant); a resolved call
    that reaches a reduction but carries no assume entry is flagged.
    Region mapping: depth 0 = ``setup``, the innermost event depth =
    ``per_iteration``, anything between = ``per_restart``.  Unresolved
    attribute calls (``A.matvec``, ``self.M.apply``) are not counted —
    operator/preconditioner reductions are their own contract.

Findings respect the same ``# repro: allow(RLxxx)`` pragmas as the
syntactic rules and flow through the same baseline machinery.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.cfg import (
    CFG,
    ENTRY,
    EXIT,
    RAISE_EXIT,
    CFGNode,
    build_cfg,
    calls_in_order,
    node_calls,
)
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.interproc import (
    COLLECTIVE_NAMES,
    REDUCTION_PRIMITIVES,
    FunctionDecl,
    ProjectIndex,
    _dotted_chain,
    _is_numpy_rooted,
    _terminal_name,
)

_BEGIN = "exchange_halo_begin"
_FINISH = "exchange_halo_finish"
_CONTRACT_DECORATOR = "reduction_contract"

#: Path-explosion bound: states tracked per (node, state) pair.
_MAX_VISITS = 4096


@dataclass
class _RawFinding:
    rule: str
    line: int
    message: str
    #: AST anchor for the pragma window (the function when line-level
    #: context is unavailable).
    anchor: ast.AST


# -- generic set-of-states walker ---------------------------------------------


def _walk_states(cfg: CFG, step):
    """Propagate states over the CFG; returns ``{node_idx: {state}}``.

    ``step(node, state) -> state | None`` applies one node's events
    (None drops the path).  Implicit-exception edges (to ``unwind``
    nodes) additionally receive the *pre-event* state: an exception may
    fire before the statement's side effects.
    """
    out: dict[int, set] = {}
    # step() on ENTRY (stmt=None → no events) materializes the initial state.
    init = step(cfg.nodes[ENTRY], None)
    states: list[tuple[int, object]] = [(ENTRY, init)]
    seen: set = {(ENTRY, init)}
    while states:
        if len(seen) > _MAX_VISITS:
            break
        idx, st = states.pop()
        out.setdefault(idx, set()).add(st)
        node = cfg.nodes[idx]
        for succ in node.succs:
            succ_node = cfg.nodes[succ]
            carried = [step(succ_node, st)]
            if succ_node.kind == "unwind":
                carried.append(st)  # pre-event propagation
            for nxt in carried:
                if nxt is None:
                    continue
                if (succ, nxt) not in seen:
                    seen.add((succ, nxt))
                    states.append((succ, nxt))
    return out


# -- RL007: halo begin/finish typestate ---------------------------------------


def _flat_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_flat_names(elt))
        return out
    return []


def _halo_events(node: CFGNode) -> list[tuple]:
    """Ordered protocol events evaluated by one CFG node."""
    stmt = node.stmt
    if stmt is None:
        return []
    events: list[tuple] = []
    bound_call = None
    bound_name: str | None = None
    escaped_bind = False
    if (
        isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and isinstance(getattr(stmt, "value", None), ast.Call)
    ):
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            bound_call, bound_name = stmt.value, targets[0].id
        elif len(targets) == 1:
            # `self.handle = begin(...)`: stored away — caller-owned.
            bound_call, escaped_bind = stmt.value, True
    for call in node_calls(node):
        name = _terminal_name(call.func)
        if name == _BEGIN:
            if call is bound_call and escaped_bind:
                events.append(("begin_escaped",))
            elif call is bound_call:
                events.append(("begin", bound_name, call.lineno))
            else:
                anon = f"@{call.lineno}:{call.col_offset}"
                events.append(("begin", anon, call.lineno))
        elif name == _FINISH:
            handle = call.args[1] if len(call.args) > 1 else None
            if handle is None:
                for kw in call.keywords:
                    if kw.arg == "handle":
                        handle = kw.value
            events.append(("finish", handle))
        else:
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Name):
                    events.append(("escape", arg.id))
    if isinstance(stmt, ast.Assign) and stmt.value is not bound_call:
        for t in stmt.targets:
            for n in _flat_names(t):
                events.append(("rebind", n, stmt.lineno))
    if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Name):
        events.append(("return", stmt.value.id))
    return events


def _check_halo(decl: FunctionDecl) -> list[_RawFinding]:
    if not any(
        _terminal_name(c.func) in (_BEGIN, _FINISH) for c in decl.calls
    ):
        return []
    cfg = build_cfg(decl.node)
    findings: dict[tuple, _RawFinding] = {}

    def emit(key: tuple, line: int, message: str) -> None:
        if key not in findings:
            findings[key] = _RawFinding("RL007", line, message, decl.node)

    def step(node: CFGNode, state):
        open_set = frozenset() if state is None else state
        for ev in _halo_events(node):
            kind = ev[0]
            if kind == "begin":
                _, name, line = ev
                if any(n == name for n, _l in open_set):
                    emit(
                        ("double", line),
                        line,
                        f"{_BEGIN} rebinds {name!r} while a previous begin "
                        "on the same name is still unfinished: the first "
                        "exchange's sends are stranded",
                    )
                    open_set = frozenset(
                        e for e in open_set if e[0] != name
                    )
                open_set = open_set | {(name, line)}
            elif kind == "begin_escaped":
                pass  # stored to an attribute: ownership leaves this frame
            elif kind == "finish":
                handle = ev[1]
                if isinstance(handle, ast.Name):
                    open_set = frozenset(
                        e for e in open_set if e[0] != handle.id
                    )
                elif isinstance(handle, ast.Call):
                    anon = f"@{handle.lineno}:{handle.col_offset}"
                    open_set = frozenset(
                        e for e in open_set if e[0] != anon
                    )
                # Unresolvable handle (param/attr): caller-owned, no-op.
            elif kind == "escape":
                open_set = frozenset(
                    e for e in open_set if e[0] != ev[1]
                )
            elif kind == "rebind":
                _, name, line = ev
                hit = [e for e in open_set if e[0] == name]
                if hit:
                    emit(
                        ("rebind", line),
                        line,
                        f"halo handle {name!r} (begun at line {hit[0][1]}) "
                        "is rebound before exchange_halo_finish: the "
                        "in-flight exchange can no longer be drained",
                    )
                    open_set = frozenset(
                        e for e in open_set if e[0] != name
                    )
            elif kind == "return":
                open_set = frozenset(
                    e for e in open_set if e[0] != ev[1]
                )
        return open_set

    states = _walk_states(cfg, step)
    for exit_idx, how in ((EXIT, "a return"), (RAISE_EXIT, "an exception")):
        for st in states.get(exit_idx, ()):
            for name, line in st:
                emit(
                    ("leak", line, exit_idx),
                    line,
                    f"{_BEGIN} here can leave the function via {how} "
                    f"path without {_FINISH}: posted sends leak into the "
                    "next synchronization point",
                )
    return list(findings.values())


# -- RL007: durable-write (tmp → fsync → replace) -----------------------------


def _chain_is(call: ast.Call, *suffix: str) -> bool:
    chain = _dotted_chain(call.func)
    return chain is not None and tuple(chain[-len(suffix):]) == suffix


def _durable_events(node: CFGNode) -> list[tuple]:
    events: list[tuple] = []
    for call in node_calls(node):
        name = _terminal_name(call.func)
        if name == "open":
            mode = call.args[1] if len(call.args) > 1 else None
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and any(m in mode.value for m in ("w", "a", "x"))
            ):
                events.append(("write", call.lineno))
        elif isinstance(call.func, ast.Attribute) and name == "write":
            events.append(("write", call.lineno))
        elif name == "fsync":
            events.append(("fsync",))
        elif _chain_is(call, "os", "replace") or _chain_is(
            call, "os", "rename"
        ):
            events.append(("replace", call.lineno))
        elif _chain_is(call, "os", "unlink") or _chain_is(
            call, "os", "remove"
        ):
            events.append(("unlink",))
    return events


#: The one module allowed to commit a file by rename.
_DURABLE_MODULE = "repro.durable"


def _check_durable_write(decl: FunctionDecl) -> list[_RawFinding]:
    renames = [
        c
        for c in decl.calls
        if _chain_is(c, "os", "replace") or _chain_is(c, "os", "rename")
    ]
    if not renames:
        return []
    cfg = build_cfg(decl.node)
    findings: dict[tuple, _RawFinding] = {}

    def emit(key: tuple, line: int, message: str) -> None:
        if key not in findings:
            findings[key] = _RawFinding("RL007", line, message, decl.node)

    if (
        decl.module.split(".")[0] == "repro"
        and decl.module != _DURABLE_MODULE
    ):
        for call in renames:
            emit(
                ("outside", call.lineno),
                call.lineno,
                f"os.replace/os.rename outside {_DURABLE_MODULE}: commit "
                "files through atomic_write, the one audited tmp write → "
                "fsync → replace",
            )

    # State: (phase, last_write_line); phases: clean/written/synced/done.
    def step(node: CFGNode, state):
        phase, wline = ("clean", 0) if state is None else state
        for ev in _durable_events(node):
            if ev[0] == "write":
                phase, wline = "written", ev[1]
            elif ev[0] == "fsync":
                if phase == "written":
                    phase = "synced"
            elif ev[0] == "replace":
                if phase == "written":
                    emit(
                        ("nofsync", ev[1]),
                        ev[1],
                        "os.replace of a written temp file without an "
                        "intervening fsync: rename can commit before the "
                        "data, leaving a torn file after a crash",
                    )
                if phase in ("written", "synced", "clean"):
                    phase = "done"
            elif ev[0] == "unlink":
                if phase in ("written", "synced"):
                    phase, wline = "clean", 0
        return (phase, wline)

    states = _walk_states(cfg, step)
    for st in states.get(EXIT, ()):
        phase, wline = st
        if phase in ("written", "synced"):
            emit(
                ("unreplaced", wline),
                wline,
                "temp file written here can reach a normal return "
                "neither os.replace'd nor cleaned up: the durable-write "
                "protocol is tmp write → fsync → replace",
            )
    return list(findings.values())


# -- RL008: collective consistency under rank-dependent branches --------------

_RANK_NAMES = ("rank", "is_root")


def _mentions_rank(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        ident = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is not None and (
            ident in _RANK_NAMES or ident.endswith("_rank")
        ):
            return True
    return False


def _collective_label(
    call: ast.Call, decl: FunctionDecl, index: ProjectIndex
) -> str | None:
    name = _terminal_name(call.func)
    if _is_numpy_rooted(call.func):
        return None
    if name in COLLECTIVE_NAMES:
        return name
    target = index.call_reaches_collective(call, decl)
    if target is not None:
        return f"call to {target.split(':')[-1]}"
    return None


def _check_collectives(
    decl: FunctionDecl, index: ProjectIndex
) -> list[_RawFinding]:
    rank_ifs = [
        stmt
        for stmt in ast.walk(decl.node)
        if isinstance(stmt, ast.If) and _mentions_rank(stmt.test)
    ]
    if not rank_ifs:
        return []
    cfg = build_cfg(decl.node)
    sites: list[tuple[int, str, int]] = []  # (node_idx, label, line)
    for node in cfg.nodes:
        for call in node_calls(node):
            label = _collective_label(call, decl, index)
            if label is not None:
                sites.append((node.idx, label, call.lineno))
    if not sites:
        return []

    def seq(stmts: list[ast.stmt]) -> list[str]:
        return [
            lab
            for c in calls_in_order(stmts)
            if (lab := _collective_label(c, decl, index)) is not None
        ]

    findings: dict[tuple, _RawFinding] = {}
    for if_idx, true_entries in cfg.if_arms:
        stmt = cfg.nodes[if_idx].stmt
        if not isinstance(stmt, ast.If) or not _mentions_rank(stmt.test):
            continue
        blocked = frozenset({if_idx})
        reach_t = cfg.reachable(true_entries, blocked)
        false_entries = [
            s
            for s in cfg.successors(if_idx)
            if s not in true_entries and cfg.nodes[s].kind != "unwind"
        ]
        reach_f = cfg.reachable(false_entries, blocked)
        symmetric = bool(stmt.orelse) and seq(stmt.body) == seq(stmt.orelse)
        end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
        for node_idx, label, line in sites:
            inside = stmt.lineno <= line <= end
            if symmetric and inside:
                continue
            if (node_idx in reach_t) != (node_idx in reach_f):
                key = (line, label, stmt.lineno)
                if key not in findings:
                    findings[key] = _RawFinding(
                        "RL008",
                        line,
                        f"collective {label} executes only on one side of "
                        f"the rank-dependent branch at line {stmt.lineno}: "
                        "ranks taking the other side never post it — "
                        "deadlock at scale",
                        decl.node,
                    )
    return list(findings.values())


# -- RL009: reduction contracts -----------------------------------------------


def _contract_decorator(decl: FunctionDecl) -> ast.Call | None:
    for deco in decl.node.decorator_list:
        if (
            isinstance(deco, ast.Call)
            and _terminal_name(deco.func) == _CONTRACT_DECORATOR
        ):
            return deco
    return None


def _parse_contract(deco: ast.Call) -> dict:
    out: dict = {
        "setup": 0,
        "per_iteration": 0,
        "per_restart": None,
        "assume": {},
    }
    for kw in deco.keywords:
        if kw.arg in ("setup", "per_iteration", "per_restart") and isinstance(
            kw.value, ast.Constant
        ):
            out[kw.arg] = kw.value.value
        elif kw.arg == "assume" and isinstance(kw.value, ast.Dict):
            for k, v in zip(kw.value.keys, kw.value.values):
                if isinstance(k, ast.Constant) and isinstance(
                    v, ast.Constant
                ):
                    out["assume"][k.value] = v.value
    return out


def _count_reduction_sites(
    decl: FunctionDecl, index: ProjectIndex, assume: dict[str, int]
) -> tuple[list[tuple[int, int, int, str]], list[tuple[int, str]]]:
    """(depth, weight, line, label) events + unaccounted resolved calls."""
    events: list[tuple[int, int, int, str]] = []
    unaccounted: list[tuple[int, str]] = []

    def walk(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.Lambda,
                ),
            ):
                continue
            d = depth + 1 if isinstance(
                child, (ast.For, ast.While, ast.AsyncFor)
            ) else depth
            walk(child, d)
            if isinstance(child, ast.Call):
                name = _terminal_name(child.func)
                if name is None or _is_numpy_rooted(child.func):
                    continue
                if name in assume:
                    events.append(
                        (d, int(assume[name]), child.lineno, name)
                    )
                elif name in REDUCTION_PRIMITIVES or name in COLLECTIVE_NAMES:
                    events.append((d, 1, child.lineno, name))
                else:
                    for target in sorted(index.resolve_call(child, decl)):
                        if index.reaches_reduction(target):
                            unaccounted.append((child.lineno, target))
                            break

    walk(decl.node, 0)
    return events, unaccounted


def _check_contract(
    decl: FunctionDecl, index: ProjectIndex
) -> list[_RawFinding]:
    deco = _contract_decorator(decl)
    if deco is None:
        return []
    contract = _parse_contract(deco)
    events, unaccounted = _count_reduction_sites(
        decl, index, contract["assume"]
    )
    findings: list[_RawFinding] = []
    for line, target in unaccounted:
        findings.append(
            _RawFinding(
                "RL009",
                line,
                f"call to {target.split(':')[-1]} can reach a distributed "
                "reduction but has no assume= entry in the "
                "@reduction_contract: its cost would ship uncounted",
                decl.node,
            )
        )
    depth_max = max((d for d, w, _l, _n in events if w), default=0)
    region: dict[str, list[tuple[int, int, str]]] = {
        "setup": [],
        "per_iteration": [],
        "per_restart": [],
    }
    for d, w, line, name in events:
        if d == 0:
            region["setup"].append((w, line, name))
        elif d == depth_max:
            region["per_iteration"].append((w, line, name))
        else:
            region["per_restart"].append((w, line, name))

    def detail(evts: list[tuple[int, int, str]]) -> str:
        return (
            ", ".join(f"{n}@{line}" for _w, line, n in evts) or "none"
        )

    for key, label in (
        ("setup", "outside any loop"),
        ("per_iteration", "in the innermost loop"),
        ("per_restart", "at restart (intermediate loop) level"),
    ):
        counted = sum(w for w, _l, _n in region[key])
        declared = contract[key]
        if declared is None:
            if counted:
                findings.append(
                    _RawFinding(
                        "RL009",
                        decl.node.lineno,
                        f"{counted} reduction(s) {label} "
                        f"({detail(region[key])}) but the contract "
                        "declares no per_restart count",
                        decl.node,
                    )
                )
        elif counted != declared:
            findings.append(
                _RawFinding(
                    "RL009",
                    decl.node.lineno,
                    f"contract declares {key}={declared} but "
                    f"{counted} reduction site(s) counted {label} "
                    f"({detail(region[key])})",
                    decl.node,
                )
            )
    return findings


# -- driver -------------------------------------------------------------------


def analyze_protocol_sources(
    files: list[tuple[str, str]]
) -> AnalysisReport:
    """Run RL007/RL008/RL009 over ``(path, source)`` pairs."""
    from repro.analysis.lint import _suppressed

    index = ProjectIndex.from_sources(files)
    lines_by_path = {path: source.splitlines() for path, source in files}
    report = AnalysisReport()
    for key in sorted(index.functions):
        decl = index.functions[key]
        raw: list[_RawFinding] = []
        raw.extend(_check_halo(decl))
        raw.extend(_check_durable_write(decl))
        raw.extend(_check_collectives(decl, index))
        raw.extend(_check_contract(decl, index))
        lines = lines_by_path.get(decl.path, [])
        for rf in raw:
            finding = Finding(
                rule=rf.rule,
                path=decl.path,
                line=rf.line,
                severity="error",
                message=f"{decl.qualname}: {rf.message}",
                qualname=decl.qualname,
            )
            anchor: ast.AST = ast.Pass()
            anchor.lineno = rf.line  # pragma window anchors on the line
            if _suppressed(rf.rule, anchor, lines, False) or _suppressed(
                rf.rule, decl.node, lines, True
            ):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    return report


def analyze_protocol_paths(paths: list[str]) -> AnalysisReport:
    """Run the protocol rules over every ``.py`` file under ``paths``."""
    from repro.analysis.lint import iter_python_files

    files = []
    for p in iter_python_files(paths):
        try:
            with open(p, encoding="utf-8") as fh:
                files.append((p, fh.read()))
        except OSError:
            continue
    return analyze_protocol_sources(files)


def analyze_protocol_source(source: str, path: str) -> AnalysisReport:
    """Single-file convenience wrapper (fixtures and tests)."""
    return analyze_protocol_sources([(path, source)])
