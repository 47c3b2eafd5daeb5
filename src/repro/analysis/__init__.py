"""Static + dynamic correctness analysis for the assembly/solver stack.

Two halves, one findings stream (see ``docs/static_analysis.md``):

* **repro-lint** (:mod:`repro.analysis.lint`) — syntactic AST rules
  ``RL001`` - ``RL007`` and ``RL010`` enforcing the determinism and
  cost-accounting contract the paper's pipeline rests on (stable sorts,
  wrapped scatter-writes, seeded RNG, factory-only smoother
  construction, accounted kernels, balanced phase scopes, one owner
  module each for the commit-by-rename and the split halo exchange,
  recorded campaign failures), plus ``RL009``
  (:mod:`repro.analysis.protocol`): ``@reduction_contract`` counts
  verified over loop depth and a whole-package call graph
  (:mod:`repro.analysis.interproc`);
* **kernel sanitizer** (:mod:`repro.analysis.sanitizer` /
  :mod:`repro.analysis.determinism`) — shadow-memory write-set tracking
  of the Stage-2 scatter launches plus a permuted-thread replay harness
  asserting the bitwise-reproducibility half of the contract (``KS001``
  - ``KS005``).

CLI: ``python -m repro analyze [--strict] [paths...]``; CI gate:
``benchmarks/check_static_analysis.py``.
"""

from repro.analysis.determinism import (
    ATOMIC_BOUND_SAFETY,
    ThreadSchedule,
    atomic_deviation_bound,
    check_assembly_pipeline,
    check_scatter_modes,
    replay_scatter,
    run_dynamic_checks,
)
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
)
from repro.analysis.interproc import ProjectIndex
from repro.analysis.protocol import (
    analyze_protocol_paths,
    analyze_protocol_source,
    analyze_protocol_sources,
)
from repro.analysis.sanitizer import KernelSanitizer, LaunchRecord

__all__ = [
    "ATOMIC_BOUND_SAFETY",
    "AnalysisReport",
    "Finding",
    "KernelSanitizer",
    "LaunchRecord",
    "ProjectIndex",
    "RULES",
    "ThreadSchedule",
    "analyze_protocol_paths",
    "analyze_protocol_source",
    "analyze_protocol_sources",
    "atomic_deviation_bound",
    "check_assembly_pipeline",
    "check_scatter_modes",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "replay_scatter",
    "run_dynamic_checks",
    "sort_findings",
]
