"""repro-lint: rule fixtures, suppression, and the CLI's exit contract.

One known-bad snippet and a clean twin per lint rule (RL001-RL006,
RL010; RL007's four ownership clauses and the module identity every
scoped rule keys on live in test_protocol_analysis.py), plus the pragma
suppression path and the ``python -m repro analyze`` exit codes.
"""

import json

import pytest

from repro.analysis import AnalysisReport, lint_source
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
        "    world.charge('scatter', nbytes=8.0)\n",
        # maximum.at is exactly associative/commutative — exempt.
        "import numpy as np\n"
        "def scatter(world, t, s, v):\n"
        "    np.maximum.at(t, s, v)\n"
        "    world.charge('scatter', nbytes=8.0)\n",
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
        "    world.charge('pack', nbytes=8.0)\n"
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
            "    world.charge('multidot', nbytes=8.0)\n"
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
            "    world.charge('pack', nbytes=8.0)\n"
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
            "    world.charge('pack', nbytes=8.0)\n"
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
        # core's per-node sums are held to it too: each is one bincount.
        assert [f.rule for f in lint_source(bad, NEUTRAL).findings] == [
            "RL002"
        ]
        # The same raw np.add.at in any other package is host-side
        # bookkeeping, not a device kernel: no finding.
        assert not lint_source(bad, "src/repro/overset/fixture.py").findings

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
            "        record_outcome(log, exc)\n"
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
        report.publish(m)
        assert m.counter("analysis.suppressed", rule="RL001").value == 1.0
        assert m.counter_total("analysis.findings") == 0.0


class TestCLI:
    def _run(self, argv):
        from repro.__main__ import main

        return main(argv)

    def test_strict_gate_fails_on_bad_tree(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "assembly"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import numpy as np\n"
            "def scatter(t, s, v):\n"
            "    np.add.at(t, s, v)\n"
        )
        code = self._run(["analyze", "--strict", str(tmp_path)])
        assert code == 1
        assert "RL002" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(
            'import numpy as np\no = np.argsort(x, kind="stable")\n'
        )
        assert self._run(["analyze", "--strict", str(tmp_path)]) == 0

    def test_json_format_carries_schema(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        self._run(["analyze", "--format", "json", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.analysis/4"
        assert set(doc) == {"schema", "findings", "suppressed", "metrics"}

    def test_missing_path_warns_on_stderr_and_stdout_stays_json(
        self, tmp_path, capsys
    ):
        (tmp_path / "ok.py").write_text("x = 1\n")
        missing = str(tmp_path / "nosuch")
        code = self._run(
            ["analyze", "--format", "json", str(tmp_path), missing]
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
            ["analyze", "--strict", str(tmp_path / "nosuch")]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "no existing path" in err

    def test_shipped_tree_is_clean(self):
        # The acceptance criterion: the repo lints clean under --strict.
        assert self._run(["analyze", "--strict", "src/repro"]) == 0


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
        report.publish(m)
        assert m.counter("analysis.findings", rule="RL001").value == 1.0
