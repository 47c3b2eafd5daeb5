"""Reduction contracts (RL009): declared vs statically counted reductions.

Built on :mod:`repro.analysis.interproc` (whole-package call graph), the
rule verifies the contract the comm-avoiding solver stack rests on — the
one PR 8's hidden third reduction showed cannot be left to vigilance.

``@reduction_contract(...)``-decorated kernels (see
:func:`repro.krylov.api.reduction_contract`) have their declared
per-region allreduce counts checked against the statically counted
reduction call sites: weight-1 primitives are ``dot`` / ``norm`` /
``fused_dots`` / ``batched_dots`` and the direct collectives;
``assume={name: n}`` prices resolved helpers (e.g. ``orthogonalize``
under the one-reduce variant); a resolved call that reaches a reduction
but carries no assume entry is flagged.  Region mapping: depth 0 =
``setup``, the innermost event depth = ``per_iteration``, anything
between = ``per_restart``.  Unresolved attribute calls (``A.matvec``,
``self.M.apply``) are not counted — operator/preconditioner reductions
are their own contract.

The rule is an ``ast`` walk over loop depth plus the call graph; no
control-flow graph is involved.  Its runtime twin is the measured
``TrafficLog.collective_count()`` pins of ``tests/test_comm_avoiding.py``.
Findings respect the same ``# repro: allow(RL009)`` pragmas as the
syntactic rules.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.interproc import (
    REDUCTION_NAMES,
    FunctionDecl,
    ProjectIndex,
    _is_numpy_rooted,
    _terminal_name,
)
from repro.analysis.lint import _suppressed, iter_python_files

_CONTRACT_DECORATOR = "reduction_contract"


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
                elif name in REDUCTION_NAMES:
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
) -> list[tuple[int, str]]:
    """``(line, message)`` of every contract violation in ``decl``."""
    deco = _contract_decorator(decl)
    if deco is None:
        return []
    contract = _parse_contract(deco)
    events, unaccounted = _count_reduction_sites(
        decl, index, contract["assume"]
    )
    findings = [
        (
            line,
            f"call to {target.split(':')[-1]} can reach a distributed "
            "reduction but has no assume= entry in the "
            "@reduction_contract: its cost would ship uncounted",
        )
        for line, target in unaccounted
    ]
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
                    (
                        decl.node.lineno,
                        f"{counted} reduction(s) {label} "
                        f"({detail(region[key])}) but the contract "
                        "declares no per_restart count",
                    )
                )
        elif counted != declared:
            findings.append(
                (
                    decl.node.lineno,
                    f"contract declares {key}={declared} but "
                    f"{counted} reduction site(s) counted {label} "
                    f"({detail(region[key])})",
                )
            )
    return findings


# -- driver -------------------------------------------------------------------


def analyze_protocol_sources(
    files: list[tuple[str, str]]
) -> AnalysisReport:
    """Run RL009 over ``(path, source)`` pairs indexed as one package."""
    index = ProjectIndex.from_sources(files)
    lines_by_path = {path: source.splitlines() for path, source in files}
    report = AnalysisReport()
    for key in sorted(index.functions):
        decl = index.functions[key]
        lines = lines_by_path.get(decl.path, [])
        for line, message in _check_contract(decl, index):
            finding = Finding(
                rule="RL009",
                path=decl.path,
                line=line,
                severity="error",
                message=f"{decl.qualname}: {message}",
                qualname=decl.qualname,
            )
            anchor: ast.AST = ast.Pass()
            anchor.lineno = line  # pragma window anchors on the line
            if _suppressed("RL009", anchor, lines, False) or _suppressed(
                "RL009", decl.node, lines, True
            ):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    return report


def analyze_protocol_paths(paths: list[str]) -> AnalysisReport:
    """Run RL009 over every ``.py`` file under ``paths``."""
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
