"""Outside tracer: host-clock spans around the public layer boundaries.

Nothing under ``src/`` knows about this module.  ``install`` replaces each
boundary callable of :data:`BOUNDARIES` by a timing wrapper, ``uninstall``
puts the originals back.  A span records name, start, end and parent; spans
stay in memory until the run ends.  Self time is duration minus the time
covered by child spans, so the self times of everything below a span sum to
that span's duration exactly.

Two rules keep the numbers honest:

* A module-level function is patched at *every* ``repro.*`` module attribute
  that is bound to it (``from repro.comm.exchange import exchange_halo`` in
  ``linalg/parcsr.py`` makes a second binding the caller uses), with one
  wrapper object per function.
* ``OpRecorder.record`` and ``TrafficLog.record_*`` are not wrapped: they are
  the hottest calls in the program and their totals are read from the public
  report instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from typing import Callable, Iterable

#: (span name, module, dotted attribute).  Several targets may share a span
#: name; the span name's prefix is the layer.  The self-check requires every
#: span name here to be hit on at least one workload.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    # mesh / overset / partition
    ("mesh.generate", "repro.mesh.turbine", "make_workload"),
    ("mesh.advance_rotor", "repro.mesh.turbine", "TurbineMeshSystem.advance_rotor"),
    ("overset.assemble", "repro.overset.assembler", "OversetAssembler.assemble"),
    ("partition.multilevel", "repro.partition.multilevel", "multilevel_partition"),
    ("partition.rcb", "repro.partition.rcb", "rcb_element_node_partition"),
    # comm
    ("comm.build_pattern", "repro.comm.exchange", "build_exchange_pattern"),
    ("comm.halo", "repro.comm.exchange", "exchange_halo"),
    ("comm.halo_begin", "repro.comm.exchange", "exchange_halo_begin"),
    ("comm.halo_finish", "repro.comm.exchange", "exchange_halo_finish"),
    ("comm.collective", "repro.comm.simcomm", "SimWorld.allreduce"),
    ("comm.collective", "repro.comm.simcomm", "SimWorld.alltoallv"),
    ("comm.collective", "repro.comm.simcomm", "SimWorld.allgather"),
    ("comm.collective", "repro.comm.simcomm", "SimWorld.barrier"),
    # assembly
    ("assembly.graph", "repro.assembly.graph", "EquationGraph.__init__"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.__init__"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.reset"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.reset_rhs"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.add_edge_matrix"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.add_diag"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.add_fringe_matrix"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.add_node_rhs"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.set_constraint_rhs"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.add_edge_rhs"),
    ("assembly.local", "repro.assembly.local", "LocalAssembler.finalize"),
    ("assembly.global_matrix", "repro.assembly.global_assembly", "assemble_global_matrix"),
    ("assembly.global_vector", "repro.assembly.global_assembly", "assemble_global_vector"),
    # linalg
    ("linalg.parcsr_init", "repro.linalg.parcsr", "ParCSRMatrix.__init__"),
    ("linalg.matvec", "repro.linalg.parcsr", "ParCSRMatrix.matvec"),
    ("linalg.spgemm", "repro.linalg.spgemm", "spgemm"),
    ("linalg.spgemm", "repro.linalg.spgemm", "galerkin_product"),
    ("linalg.galerkin_refresh", "repro.linalg.spgemm", "galerkin_refresh"),
    # amg / smoothers / krylov
    ("amg.setup", "repro.amg.hierarchy", "AMGHierarchy.__init__"),
    ("amg.refresh", "repro.amg.hierarchy", "AMGHierarchy.refresh"),
    ("amg.vcycle", "repro.amg.cycle", "AMGPreconditioner.apply"),
    ("smoothers.make", "repro.smoothers.factory", "make_smoother"),
    ("smoothers.apply", "repro.smoothers.two_stage_gs", "TwoStageGS.apply"),
    ("smoothers.apply", "repro.smoothers.two_stage_gs", "TwoStageGS.smooth"),
    ("smoothers.apply", "repro.smoothers.gauss_seidel", "HybridGS.apply"),
    ("smoothers.apply", "repro.smoothers.gauss_seidel", "HybridGS.smooth"),
    ("smoothers.apply", "repro.smoothers.jacobi", "JacobiSmoother.apply"),
    ("smoothers.apply", "repro.smoothers.jacobi", "JacobiSmoother.smooth"),
    ("smoothers.apply", "repro.smoothers.chebyshev", "ChebyshevSmoother.apply"),
    ("smoothers.apply", "repro.smoothers.chebyshev", "ChebyshevSmoother.smooth"),
    ("krylov.solve", "repro.krylov.gmres", "GMRES.solve"),
    ("krylov.solve", "repro.krylov.cg", "CG.solve"),
    ("krylov.solve", "repro.krylov.pipelined_cg", "PipelinedCG.solve"),
    ("krylov.orthogonalize", "repro.krylov.gram_schmidt", "orthogonalize"),
    # core: the glue spans (their self time is the unattributed residue)
    ("core.construct", "repro.core.simulation", "NaluWindSimulation.__init__"),
    ("core.step", "repro.core.simulation", "NaluWindSimulation.step"),
    ("core.glue", "repro.core.composite", "CompositeMesh.update_connectivity"),
    ("core.glue", "repro.core.equation_system", "EquationSystem.update_graph"),
    ("core.glue", "repro.core.equation_system", "EquationSystem.assemble"),
    ("core.glue", "repro.core.equation_system", "EquationSystem.solve"),
    ("core.operators", "repro.core.operators", "mass_flux"),
    ("core.operators", "repro.core.operators", "boundary_mass_flux"),
    ("core.operators", "repro.core.operators", "least_squares_gradient"),
    # perf / obs / resilience
    ("perf.collect_aggregates", "repro.perf.cost", "collect_phase_aggregates"),
    ("obs.collect_telemetry", "repro.obs.telemetry", "collect_run_telemetry"),
    ("resilience.guards", "repro.resilience.guards", "validate_fields"),
    ("resilience.guards", "repro.resilience.guards", "validate_iterate"),
    ("resilience.guards", "repro.resilience.guards", "iterate_is_finite"),
    ("resilience.guards", "repro.resilience.guards", "operands_are_finite"),
    ("resilience.checkpoint_write", "repro.resilience.checkpoint", "CheckpointManager.save"),
    ("resilience.restart_load", "repro.resilience.checkpoint", "CheckpointManager.load_latest_good"),
    # campaign (coordinator process only: pool workers are other processes)
    ("campaign.store_put", "repro.campaign.store", "ResultStore.put"),
    ("campaign.store_get", "repro.campaign.store", "ResultStore.get"),
    ("campaign.manifest_write", "repro.campaign.manifest", "CampaignManifest.save"),
    ("campaign.lease", "repro.campaign.supervisor", "write_lease"),
    ("campaign.lease", "repro.campaign.supervisor", "release_lease"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))


class SpanRecorder:
    """In-memory span log; ``spans[i] = [name, start, end, parent_index]``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(
        self, fn: Callable, name: str, probe: Callable | None = None
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``probe(args, result)``, when given, runs after a successful call
        and outside the span; its value is stored as ``span[4]`` (a count
        taken where the work happens, e.g. bytes written).
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span.append(probe(args, result))
            return result

        traced.__otrace_original__ = fn
        return traced


def self_times(
    spans: list[list],
    within: str | None = None,
    lo: int = 0,
    hi: int | None = None,
) -> dict[str, list[float]]:
    """``name -> [self seconds, calls]`` over the closed spans ``lo:hi``.

    The slice must not cut a span from its parent (take it between calls
    made outside any span).  With ``within``, only spans at or below a span
    of that name count.
    """
    hi = len(spans) if hi is None else hi
    child = [0.0] * len(spans)
    inside = [within is None] * len(spans)
    for i in range(lo, hi):
        name, start, end, parent = spans[i][:4]
        if end is None:
            continue
        if parent >= 0:
            child[parent] += end - start
            inside[i] = inside[i] or inside[parent]
        if name == within:
            inside[i] = True
    out: dict[str, list[float]] = {}
    for i in range(lo, hi):
        name, start, end = spans[i][:3]
        if end is None or not inside[i]:
            continue
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += (end - start) - child[i]
        acc[1] += 1
    return out


def durations(
    spans: list[list], name: str, lo: int = 0, hi: int | None = None
) -> list[float]:
    """Inclusive durations of the closed spans called ``name`` in ``lo:hi``."""
    return [
        s[2] - s[1] for s in spans[lo:hi] if s[0] == name and s[2] is not None
    ]


def write_chrome_trace(spans: list[list], path: str) -> None:
    """Chrome-trace / Perfetto JSON (complete events, microseconds)."""
    t0 = spans[0][1] if spans else 0.0
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"id": i, "parent": parent},
        }
        for i, (name, start, end, parent, *_probe) in enumerate(spans)
        if end is not None
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _import_all_repro() -> None:
    """Load every ``repro`` module so each by-name binding exists to patch."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


def _repro_modules() -> Iterable:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(
    recorder: SpanRecorder, probes: dict[str, Callable] | None = None
) -> Callable[[], None]:
    """Wrap every boundary; returns the function that undoes it.

    ``probes`` maps a span name to the probe of :meth:`SpanRecorder.wrap`.
    """
    probes = probes or {}
    _import_all_repro()
    undo: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, value: object) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for span_name, module_name, dotted in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner_name, _, attr = dotted.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                patch(
                    owner,
                    attr,
                    recorder.wrap(
                        owner.__dict__[attr], span_name, probes.get(span_name)
                    ),
                )
                continue
            original = getattr(module, attr)
            wrapper = recorder.wrap(original, span_name, probes.get(span_name))
            for mod in _repro_modules():
                for key, bound in list(vars(mod).items()):
                    if bound is original:
                        patch(mod, key, wrapper)
    except BaseException:
        _restore(undo)
        raise
    return functools.partial(_restore, undo)


def _restore(undo: list[tuple[object, str, object]]) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


def installed() -> list[str]:
    """Names still bound to a tracing wrapper (empty once uninstalled)."""
    left = []
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if hasattr(value, "__otrace_original__"):
                left.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                left.extend(
                    f"{mod.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__otrace_original__")
                )
    return left
