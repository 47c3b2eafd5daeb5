"""repro-lint: static correctness analysis for the assembly/solver stack.

Syntactic AST rules ``RL001`` - ``RL007`` and ``RL010``
(:mod:`repro.analysis.lint`, catalogue in ``docs/static_analysis.md``)
enforcing the determinism and cost-accounting contract the paper's
pipeline rests on: stable sorts, wrapped scatter-writes, seeded RNG,
factory-only smoother construction, accounted kernels, balanced phase
scopes, one owner module each for the commit-by-rename and the split
halo exchange, recorded campaign failures.  The rules read source text
and run none of the code they check.  What syntax cannot see is
asserted where it lives: plan replay by ``tests/test_assembly_reuse.py``,
reduction budgets by the measured counts of
``tests/test_comm_avoiding.py``.

CLI: ``python -m repro analyze [--strict] [paths...]``; CI gate:
``benchmarks/check_static_analysis.py``.
"""

from repro.analysis.findings import (
    AnalysisReport,
    Finding,
    render_json,
    render_text,
    sort_findings,
)
from repro.analysis.lint import (
    RULES,
    iter_python_files,
    lint_paths,
    lint_source,
    module_name_for,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "RULES",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "render_json",
    "render_text",
    "sort_findings",
]
