"""Kernel sanitizer + repro-lint: rule fixtures and replay contracts.

Static half: one known-bad snippet and a clean twin per lint rule
(RL001-RL006, RL010; RL007/RL009 live in test_protocol_analysis.py), plus
the pragma suppression path and the CLI's exit contract.  Dynamic
half: planted races/unstable reductions must be *caught* (KS001-KS003),
and the shipped scatter modes / Algorithm 1-2 paths must replay bitwise
under permuted simulated-thread schedules — the executable form of the
paper's §3.2-§3.3 determinism contract.
"""

import json

import numpy as np
import pytest

from repro.analysis import (
    ATOMIC_BOUND_SAFETY,
    AnalysisReport,
    KernelSanitizer,
    ThreadSchedule,
    atomic_deviation_bound,
    check_assembly_pipeline,
    check_scatter_modes,
    lint_source,
    render_json,
    replay_scatter,
    run_dynamic_checks,
)
from repro.analysis.determinism import _build_problem
from repro.assembly.graph import EquationGraph, GraphSpec
from repro.assembly.local import SCATTER_MODES, LocalAssembler
from repro.comm.simcomm import SimWorld
from repro.obs.metrics import MetricsRegistry

# -- lint rule fixtures: (rule, bad snippet, clean twin, lint path) ----------

NEUTRAL = "src/repro/core/fixture.py"
KERNEL = "src/repro/assembly/fixture.py"
CAMPAIGN = "src/repro/campaign/fixture.py"

FIXTURES = [
    (
        "RL001",
        "import numpy as np\norder = np.argsort(x)\n",
        'import numpy as np\norder = np.argsort(x, kind="stable")\n',
        NEUTRAL,
    ),
    (
        "RL002",
        # Both twins record (so RL005 stays quiet); only the ufunc differs.
        "import numpy as np\n"
        "def scatter(world, t, s, v):\n"
        "    np.add.at(t, s, v)\n"
        "    world.ops.record(world.phase, 0, 'scatter', nbytes=8.0)\n",
        # maximum.at is exactly associative/commutative — exempt.
        "import numpy as np\n"
        "def scatter(world, t, s, v):\n"
        "    np.maximum.at(t, s, v)\n"
        "    world.ops.record(world.phase, 0, 'scatter', nbytes=8.0)\n",
        KERNEL,
    ),
    (
        "RL003",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(1234)\n",
        NEUTRAL,
    ),
    (
        "RL004",
        "from repro.smoothers.jacobi import JacobiSmoother\n"
        "sm = JacobiSmoother(A, omega=0.8)\n",
        "from repro.smoothers import make_smoother\n"
        'sm = make_smoother("jacobi", A, omega=0.8)\n',
        NEUTRAL,
    ),
    (
        "RL005",
        "import numpy as np\n"
        "def pack(keys, vals):\n"
        "    order = np.lexsort(keys)\n"
        "    return vals[order]\n",
        "import numpy as np\n"
        "def pack(world, keys, vals):\n"
        "    order = np.lexsort(keys)\n"
        "    world.ops.record(world.phase, 0, 'pack', nbytes=8.0)\n"
        "    return vals[order]\n",
        KERNEL,
    ),
    (
        "RL006",
        'world.phase_scope("assembly")\n',
        'with world.phase_scope("assembly"):\n    pass\n',
        NEUTRAL,
    ),
    (
        "RL010",
        "def drain(jobs):\n"
        "    for j in jobs:\n"
        "        try:\n"
        "            j.run()\n"
        "        except Exception:\n"
        "            continue\n",
        "def drain(jobs, manifest):\n"
        "    for j in jobs:\n"
        "        try:\n"
        "            j.run()\n"
        "        except Exception as exc:\n"
        "            manifest.mark(j.digest, failure_context(exc))\n",
        CAMPAIGN,
    ),
]


class TestLintRules:
    @pytest.mark.parametrize(
        "rule,bad,clean,path", FIXTURES, ids=[f[0] for f in FIXTURES]
    )
    def test_bad_fixture_fires_and_clean_twin_does_not(
        self, rule, bad, clean, path
    ):
        got = lint_source(bad, path)
        assert [f.rule for f in got.findings] == [rule]
        assert not lint_source(clean, path).findings

    def test_rl005_matmul_in_krylov_scope(self):
        # The regression that motivated extending RL005: a hidden
        # reduction (``V.T @ w``) in the one-reduce orthogonalizer
        # shipped with no op accounting.  ``krylov`` is kernel scope now
        # and ``@`` counts as bulk data motion.
        bad = "def orthogonalize(V, w):\n    h2 = V.T @ w\n    return h2\n"
        path = "src/repro/krylov/fixture.py"
        assert [f.rule for f in lint_source(bad, path).findings] == ["RL005"]
        clean = (
            "def orthogonalize(world, V, w):\n"
            "    h2 = V.T @ w\n"
            "    world.ops.record(world.phase, 0, 'multidot', nbytes=8.0)\n"
            "    return h2\n"
        )
        assert not lint_source(clean, path).findings
        # Outside the kernel packages, matmul stays unflagged.
        assert not lint_source(bad, "src/repro/obs/fixture.py").findings

    def test_rl005_registry_dispatch_edge(self):
        # A kernel reachable only through dict dispatch used to be
        # invisible to the accounting fixpoint: the dispatcher recorded,
        # but no call edge connected it to the registered function.
        bad = (
            "import numpy as np\n"
            "def _fast(keys, vals):\n"
            "    order = np.lexsort(keys)\n"
            "    return vals[order]\n"
            '_KERNELS = {"fast": _fast}\n'
            "def pack(world, name, keys, vals):\n"
            "    return _KERNELS[name](keys, vals)\n"
        )
        got = lint_source(bad, KERNEL)
        assert [f.rule for f in got.findings] == ["RL005"]
        assert got.findings[0].qualname == "_fast"
        # The dispatcher accounting now flows over the registry edge.
        clean = bad.replace(
            "    return _KERNELS[name](keys, vals)\n",
            "    world.ops.record(world.phase, 0, 'pack', nbytes=8.0)\n"
            "    return _KERNELS[name](keys, vals)\n",
        )
        assert not lint_source(clean, KERNEL).findings

    def test_rl005_subscript_registration_shape(self):
        # Incremental `REGISTRY[key] = fn` registration resolves too.
        clean = (
            "import numpy as np\n"
            "def _fast(keys, vals):\n"
            "    order = np.lexsort(keys)\n"
            "    return vals[order]\n"
            "_KERNELS = {}\n"
            '_KERNELS["fast"] = _fast\n'
            "def pack(world, name, keys, vals):\n"
            "    world.ops.record(world.phase, 0, 'pack', nbytes=8.0)\n"
            "    return _KERNELS[name](keys, vals)\n"
        )
        assert not lint_source(clean, KERNEL).findings

    def test_rl001_method_form(self):
        bad = "idx = weights.argsort()\n"
        clean = 'idx = weights.argsort(kind="stable")\n'
        assert [f.rule for f in lint_source(bad, NEUTRAL).findings] == [
            "RL001"
        ]
        assert not lint_source(clean, NEUTRAL).findings

    def test_rl002_scoped_to_kernel_packages(self):
        bad = FIXTURES[1][1]
        # The same raw np.add.at outside assembly/linalg/amg/smoothers is
        # host-side bookkeeping, not a device kernel: no finding.
        assert not lint_source(bad, NEUTRAL).findings

    def test_rl002_registered_wrapper_is_allowed(self):
        src = (
            "import numpy as np\n"
            "class LocalAssembler:\n"
            "    def _scatter(self, t, s, v):\n"
            "        np.add.at(t, s, v)\n"
            "        self._record_scatter(v.size, 'scatter')\n"
        )
        assert not lint_source(src, KERNEL).findings

    def test_rl006_raw_stack_manipulation(self):
        got = lint_source('world._pop_phase("assembly")\n', NEUTRAL)
        assert [f.rule for f in got.findings] == ["RL006"]

    def test_rl010_scoped_to_campaign_package(self):
        # The same swallow outside campaign/ is somebody else's
        # convention — only the fault-domain layer is held to taxonomy
        # bookkeeping.
        bad = FIXTURES[-1][1]
        assert not lint_source(bad, NEUTRAL).findings

    def test_rl010_narrow_except_unflagged(self):
        src = (
            "import os\n"
            "def release(path):\n"
            "    try:\n"
            "        os.unlink(path)\n"
            "    except OSError:\n"
            "        pass\n"
        )
        assert not lint_source(src, CAMPAIGN).findings

    def test_rl010_bare_except_flagged(self):
        src = (
            "def run(job):\n"
            "    try:\n"
            "        job()\n"
            "    except:\n"
            "        return None\n"
        )
        assert [f.rule for f in lint_source(src, CAMPAIGN).findings] == [
            "RL010"
        ]

    def test_rl010_reraise_and_record_helper_accepted(self):
        reraise = (
            "def run(job):\n"
            "    try:\n"
            "        job()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert not lint_source(reraise, CAMPAIGN).findings
        recorded = (
            "def run(job, log):\n"
            "    try:\n"
            "        job()\n"
            "    except Exception as exc:\n"
            "        record_failure(log, exc)\n"
        )
        assert not lint_source(recorded, CAMPAIGN).findings

    def test_syntax_error_is_a_finding_not_a_crash(self):
        got = lint_source("def broken(:\n", NEUTRAL)
        assert [f.rule for f in got.findings] == ["RL000"]


class TestSuppression:
    def test_pragma_same_line(self):
        src = "import numpy as np\no = np.argsort(x)  # repro: allow(RL001)\n"
        got = lint_source(src, NEUTRAL)
        assert not got.findings
        assert [f.rule for f in got.suppressed] == ["RL001"]

    def test_pragma_in_comment_block_above(self):
        src = (
            "import numpy as np\n"
            "# repro: allow(RL001) — justification may run over\n"
            "# several comment lines before the statement.\n"
            "o = np.argsort(x)\n"
        )
        got = lint_source(src, NEUTRAL)
        assert not got.findings and len(got.suppressed) == 1

    def test_pragma_does_not_cover_other_rules(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro: allow(RL001)\n"
        )
        got = lint_source(src, NEUTRAL)
        assert [f.rule for f in got.findings] == ["RL003"]

    def test_suppression_counts_into_metrics(self):
        src = "import numpy as np\no = np.argsort(x)  # repro: allow(RL001)\n"
        report = lint_source(src, NEUTRAL)
        m = MetricsRegistry()
        report.publish_metrics(m)
        assert m.counter("analysis.suppressed", rule="RL001").value == 1.0
        assert m.counter_total("analysis.findings") == 0.0


class TestCLI:
    def _run(self, argv):
        from repro.__main__ import main

        return main(argv)

    def test_strict_gate_fails_on_bad_tree(self, tmp_path, capsys):
        pkg = tmp_path / "assembly"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import numpy as np\n"
            "def scatter(t, s, v):\n"
            "    np.add.at(t, s, v)\n"
        )
        code = self._run(
            ["analyze", "--strict", "--no-dynamic", str(tmp_path)]
        )
        assert code == 1
        assert "RL002" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(
            'import numpy as np\no = np.argsort(x, kind="stable")\n'
        )
        assert (
            self._run(["analyze", "--strict", "--no-dynamic", str(tmp_path)])
            == 0
        )

    def test_json_format_carries_schema(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        self._run(
            ["analyze", "--no-dynamic", "--format", "json", str(tmp_path)]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.analysis/3"
        assert "metrics" in doc and "dynamic" in doc
        assert "baselined" not in doc

    def test_missing_path_warns_on_stderr_and_stdout_stays_json(
        self, tmp_path, capsys
    ):
        (tmp_path / "ok.py").write_text("x = 1\n")
        missing = str(tmp_path / "nosuch")
        code = self._run(
            [
                "analyze", "--no-dynamic", "--format", "json",
                str(tmp_path), missing,
            ]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["findings"] == []
        assert "warning" in err and "nosuch" in err

    def test_no_existing_path_is_a_usage_error_not_a_pass(
        self, tmp_path, capsys
    ):
        # A gate pointed only at a mistyped path analysed nothing and
        # used to exit 0.
        code = self._run(
            ["analyze", "--strict", "--no-dynamic", str(tmp_path / "nosuch")]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "no existing path" in err

    def test_shipped_tree_is_clean(self):
        # The acceptance criterion: the repo lints clean under --strict.
        assert (
            self._run(["analyze", "--strict", "--no-dynamic", "src/repro"])
            == 0
        )


# -- dynamic half ------------------------------------------------------------


def _mk_assembler(mode="deterministic", seed=0):
    edges, cons, num = _build_problem(seed, 30, 70, 2, 3)
    world = SimWorld(2)
    graph = EquationGraph(
        world, num, GraphSpec(n=30, edges=edges, constraint_rows=cons)
    )
    return LocalAssembler(world, graph, mode=mode), num, cons, edges


class TestSanitizer:
    def test_planted_conflicting_write_detected(self):
        # Duplicate constraint rows in one launch: raw last-writer-wins
        # assignment with overlapping writers — must surface as KS001.
        la, num, cons, _ = _mk_assembler()
        la.sanitizer = KernelSanitizer()
        rows = num.old_to_new[cons]
        dup = np.concatenate([rows, rows[:1]])
        la.set_constraint_rhs(dup, np.arange(dup.size, dtype=float))
        assert [f.rule for f in la.sanitizer.findings] == ["KS001"]
        assert "assemble_rhs_bc" in la.sanitizer.findings[0].kernel

    def test_unique_contract_violation_detected(self):
        san = KernelSanitizer()
        san.observe(
            "assemble_diag", np.zeros(8), np.array([3, 3, 5]), "unique"
        )
        assert [f.rule for f in san.findings] == ["KS002"]

    def test_declared_reduce_and_atomic_conflicts_are_not_findings(self):
        san = KernelSanitizer()
        slots = np.array([1, 1, 2, 2, 2])
        san.observe("k", np.zeros(4), slots, "reduce")
        san.observe("k", np.zeros(4), slots, "atomic")
        assert not san.findings
        assert san.nondeterministic_launches == 1
        s = san.summary()
        assert s["launches"] == 2 and s["conflicting_launches"] == 2

    def test_clean_pipeline_run_produces_no_sanitizer_findings(self):
        la, num, cons, edges = _mk_assembler()
        la.sanitizer = KernelSanitizer()
        rng = np.random.default_rng(3)
        E = edges.shape[0]
        ge = rng.standard_normal(E)
        la.add_edge_matrix(np.stack([ge, -ge, -ge, ge], axis=1))
        la.add_diag(rng.random(la.graph.n) + 1.0)
        la.set_constraint_rhs(num.old_to_new[cons], np.zeros(cons.size))
        assert not la.sanitizer.findings
        assert la.sanitizer.summary()["launches"] >= 3


class TestDeterminismReplay:
    def test_planted_unstable_reduction_detected(self):
        # An implementation that sorts the arrival-ordered list (or uses
        # an unstable sort) leaks schedule dependence into the
        # "deterministic" modes: the harness must flag it.
        report = check_scatter_modes(seed=2, sort_kind="unstable")
        rules = {f.rule for f in report.findings}
        assert "KS003" in rules
        kernels = {f.kernel for f in report.findings}
        assert "scatter:deterministic" in kernels

    @pytest.mark.parametrize("mode", SCATTER_MODES)
    def test_permuted_order_contract_per_mode(self, mode):
        rng = np.random.default_rng(11)
        n, m = 32, 300
        slots = rng.integers(0, n, size=m)
        vals = rng.standard_normal(m) * 10.0 ** rng.integers(-9, 1, size=m)
        ref = replay_scatter(n, slots, vals, mode, np.arange(m))
        for k in range(3):
            out = replay_scatter(
                n, slots, vals, mode, rng.permutation(m)
            )
            if mode == "atomic":
                bound = ATOMIC_BOUND_SAFETY * atomic_deviation_bound(
                    n, slots, vals
                )
                assert np.all(np.abs(out - ref) <= bound)
            else:
                # Bitwise, not approximate: the §3.3 contract.
                assert np.array_equal(out, ref)

    def test_atomic_reorder_actually_moves_bits(self):
        # The harness must be able to *see* reassociation, or the bound
        # check is vacuous.
        rng = np.random.default_rng(5)
        n, m = 8, 500
        slots = rng.integers(0, n, size=m)
        vals = rng.standard_normal(m) * 10.0 ** rng.integers(-9, 1, size=m)
        ref = replay_scatter(n, slots, vals, "atomic", np.arange(m))
        devs = [
            np.abs(
                replay_scatter(n, slots, vals, "atomic", rng.permutation(m))
                - ref
            ).max()
            for _ in range(8)
        ]
        assert max(devs) > 0.0

    def test_scatter_modes_clean(self):
        report = check_scatter_modes(seed=0)
        assert not report.findings
        assert report.dynamic_stats["scatter_checks"] == 12
        assert (
            report.dynamic_stats["atomic_max_deviation"]
            <= report.dynamic_stats["atomic_bound"]
        )

    def test_assembly_pipeline_clean_across_schedules_and_variants(self):
        report = check_assembly_pipeline(seed=0)
        assert not report.findings, [f.message for f in report.findings]
        san = report.dynamic_stats["sanitizer"]
        assert san["findings"] == 0 and san["launches"] > 0

    def test_run_dynamic_checks_roundtrip(self):
        report = run_dynamic_checks(seed=1)
        assert not report.errors()
        doc = json.loads(render_json(report))
        assert doc["dynamic"]["modes"] == list(SCATTER_MODES)

    def test_thread_schedule_is_seed_deterministic(self):
        a, b = ThreadSchedule(9), ThreadSchedule(9)
        assert np.array_equal(a.order(100), b.order(100))
        assert not np.array_equal(
            ThreadSchedule(9).order(100), ThreadSchedule(10).order(100)
        )

    def test_phase_imbalance_detected(self):
        world = SimWorld(2)
        world.assert_phase_balanced()
        cm = world.phase_scope("leaky")
        cm.__enter__()
        with pytest.raises(RuntimeError, match="phase stack not balanced"):
            world.assert_phase_balanced()
        cm.__exit__(None, None, None)
        world.assert_phase_balanced()


class TestReportPlumbing:
    def test_exit_code_strict_vs_default(self):
        from repro.analysis.findings import Finding

        r = AnalysisReport()
        r.findings.append(
            Finding(
                rule="RL005",
                path="x.py",
                line=1,
                severity="warning",
                message="m",
            )
        )
        assert r.exit_code(strict=False) == 0
        assert r.exit_code(strict=True) == 1

    def test_findings_counted_into_metrics(self):
        report = lint_source(
            "import numpy as np\no = np.argsort(x)\n", NEUTRAL
        )
        m = MetricsRegistry()
        report.publish_metrics(m)
        assert m.counter("analysis.findings", rule="RL001").value == 1.0
