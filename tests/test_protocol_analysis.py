"""Protocol rules: RL007's four ownership clauses and module identity.

RL007 is syntactic since the split halo exchange got a scope, the
durable write one owner and the modeled-clock sinks one writer: each
clause has known-bad fixtures outside the owner module and clean twins
inside it.  The halo fixtures are the bug
shapes the retired path-sensitive rule was built on (an early return, an
exception edge, a rebound handle); every one of them is now red at each
line that names a half, because none can be written outside
``repro.comm.exchange`` at all.  Every package-scoped rule keys on one
module identity, pinned here against every way a tree can be addressed.
The bug-corpus class at the bottom reintroduces the three historical
PR 8 bugs and pins what stops each one today.
"""

import os
import shutil
import textwrap

import numpy as np
import pytest
from scipy import sparse

from repro.analysis.lint import lint_paths, lint_source, module_name_for
from repro.comm import SimComm, SimWorld
from repro.krylov import CG
from repro.linalg import ParCSRMatrix

PATH = "src/repro/comm/fixture.py"
HALO_OWNER = "src/repro/comm/exchange.py"
DURABLE = "src/repro/durable.py"


def _rules(report):
    return [f.rule for f in report.findings]


def _hits(report):
    return [(f.rule, f.line) for f in report.findings]


def _lint(src, path=PATH):
    return lint_source(textwrap.dedent(src), path)


class TestHaloTypestate:
    """The halo clause of RL007 (the class keeps the retired typestate
    rule's name with its fixtures)."""

    def test_early_return_leaks_begin(self):
        rep = _lint(
            """
            def solve(world, pat, owned, flag):
                h = exchange_halo_begin(world, pat, owned)
                if flag:
                    return None
                return exchange_halo_finish(world, h)
            """
        )
        assert _hits(rep) == [("RL007", 3), ("RL007", 6)]
        assert "overlapped_halo" in rep.findings[0].message

    def test_raise_path_leaks_begin(self):
        rep = _lint(
            """
            def solve(world, pat, owned, flag):
                h = exchange_halo_begin(world, pat, owned)
                if flag:
                    raise RuntimeError("abort")
                return exchange_halo_finish(world, h)
            """
        )
        assert _hits(rep) == [("RL007", 3), ("RL007", 6)]

    def test_double_begin_same_name(self):
        rep = _lint(
            """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                h = exchange_halo_begin(world, pat, owned)
                return exchange_halo_finish(world, h)
            """
        )
        assert _hits(rep) == [("RL007", 3), ("RL007", 4), ("RL007", 5)]

    def test_rebind_of_live_handle(self):
        rep = _lint(
            """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                try:
                    interior()
                finally:
                    h = None
                return exchange_halo_finish(world, h)
            """
        )
        assert _hits(rep) == [("RL007", 3), ("RL007", 8)]

    def test_begin_in_loop_without_finish(self):
        rep = _lint(
            """
            def solve(world, pat, owned, xs):
                for x in xs:
                    h = exchange_halo_begin(world, pat, owned)
                return None
            """
        )
        assert _hits(rep) == [("RL007", 4)]

    def test_import_and_attribute_references_fire(self):
        # Naming a half is the finding, whatever the syntax: the import
        # that would bring it in, a module-attribute access, an alias.
        rep = _lint(
            """
            from repro.comm import exchange
            from repro.comm.exchange import exchange_halo_begin as begin

            drain = exchange.exchange_halo_finish
            """
        )
        assert _hits(rep) == [("RL007", 3), ("RL007", 5)]

    def test_straight_line_pair_is_quiet(self):
        # Inside the owner module the halves are not policed statically:
        # the double-begin guard and MailboxLeakError watch them at run
        # time (tests/test_comm.py::TestSplitHaloGuard).
        rep = _lint(
            """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                interior_compute()
                return exchange_halo_finish(world, h)
            """,
            HALO_OWNER,
        )
        assert not rep.findings and not rep.suppressed

    def test_try_finally_idiom_is_quiet(self):
        src = """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                try:
                    interior_compute()
                finally:
                    exchange_halo_finish(world, h)
                return None
            """
        assert not _lint(src, HALO_OWNER).findings
        # Outside the package (tests, tools) the clause does not apply.
        assert not _lint(src, "tests/test_comm.py").findings

    def test_one_liner_finish_of_begin_is_quiet(self):
        # The shape of exchange_halo itself.
        rep = _lint(
            """
            def solve(world, pat, owned):
                return exchange_halo_finish(
                    world, exchange_halo_begin(world, pat, owned)
                )
            """,
            HALO_OWNER,
        )
        assert not rep.findings

    def test_pragma_suppresses_at_the_begin_line(self):
        rep = _lint(
            """
            def begin_round(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)  # repro: allow(RL007)
                return h
            """
        )
        assert not rep.findings
        assert [f.rule for f in rep.suppressed] == ["RL007"]


class TestDurableWriteProtocol:
    """The durable clause of RL007: ``os.replace``/``os.rename`` belong
    to ``repro.durable``; what happens around them there is the fault
    matrix of tests/test_durable.py, not a static question."""

    def test_write_fsync_replace_is_quiet(self):
        rep = _lint(
            """
            import os

            def save(path, blob):
                tmp = path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            """,
            DURABLE,
        )
        assert not rep.findings

    #: The shipped ``atomic_write`` shape.
    SANCTIONED = """
        import os

        def save(path, blob):
            tmp = path + ".tmp"
            try:
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        """

    def test_finally_unlink_cleanup_idiom_is_quiet(self):
        assert not _lint(self.SANCTIONED, DURABLE).findings

    def test_rename_outside_the_durable_module_fires(self):
        # Even a protocol-perfect hand copy is a finding inside the
        # package: a sixth commit site must go through atomic_write.
        rep = _lint(self.SANCTIONED, "src/repro/campaign/ledger.py")
        assert _hits(rep) == [("RL007", 10)]
        assert "atomic_write" in rep.findings[0].message
        assert not _lint(self.SANCTIONED, "tools/migrate.py").findings
        renamed = self.SANCTIONED.replace(
            "os.replace(tmp, path)",
            "os.rename(tmp, path)  # repro: allow(RL007)",
        )
        rep = _lint(renamed, "src/repro/campaign/ledger.py")
        assert not rep.findings
        assert [(f.rule, f.line) for f in rep.suppressed] == [("RL007", 10)]


class TestLedgerOwnership:
    """The ledger clause of RL007: the modeled-clock sinks are written
    by ``SimWorld``'s verbs only; whether every sink then sees the event
    is the all-sinks test of tests/test_ledger.py, not a static question."""

    OPS = """
        def matvec(world, y):
            world.ops.record(world.phase, 0, "spmv", nbytes=8.0)
            return y
        """
    TRAFFIC = """
        def dot(world, x, y):
            world.traffic.record_collective("allreduce", world.size, 8, "p")
            return x @ y
        """

    def test_direct_sink_writes_fire_outside_comm(self):
        rep = _lint(self.OPS, "src/repro/linalg/x.py")
        assert _hits(rep) == [("RL007", 3)]
        assert "SimWorld.charge" in rep.findings[0].message
        rep = _lint(self.TRAFFIC, "src/repro/krylov/x.py")
        assert ("RL007", 3) in _hits(rep)
        for method in ("record_ranks", "record_alloc"):
            src = self.OPS.replace("ops.record(", f"ops.{method}(")
            assert _hits(_lint(src, "src/repro/core/x.py")) == [("RL007", 3)]

    def test_quiet_in_comm_in_tests_and_through_the_verbs(self):
        for path in ("src/repro/comm/x.py", "tests/test_x.py"):
            assert "RL007" not in _rules(_lint(self.OPS, path))
            assert "RL007" not in _rules(_lint(self.TRAFFIC, path))
        verbs = """
            def matvec(world, y):
                world.charge("spmv", nbytes=8.0)
                world.collective("allreduce", 8)
                return y
            """
        assert not _lint(verbs, "src/repro/linalg/x.py").findings

    def test_pragma_is_honoured(self):
        src = self.OPS.replace(
            "nbytes=8.0)", "nbytes=8.0)  # repro: allow(RL007)"
        )
        rep = _lint(src, "src/repro/linalg/x.py")
        assert not rep.findings
        assert [(f.rule, f.line) for f in rep.suppressed] == [("RL007", 3)]

class TestRecoveryOwnership:
    """The failure-handling clause of RL007 (same name -> owner table as
    the halo halves): failures and recoveries are recorded inside
    ``repro.resilience`` only, so ``core/`` cannot grow a retry loop."""

    # The seeded mutant: the driver's pre-PR-22 rollback, put back.
    MUTANT = """
        from repro.resilience.policy import RecoveryEvent, record_recovery

        def rollback(sim, snapshot, failure, attempt):
            sim.set_state(*snapshot)
            event = RecoveryEvent(
                failure.equation, failure.kind, "rollback_restep",
                attempt, True,
            )
            record_recovery(sim.world, event)
        """

    def test_hand_rolled_recovery_fires_outside_resilience(self):
        rep = _lint(self.MUTANT, "src/repro/core/simulation.py")
        assert _hits(rep) == [
            ("RL007", 2), ("RL007", 2), ("RL007", 6), ("RL007", 10),
        ]
        assert "StepTransaction" in rep.findings[0].message
        guard = """
            def guard(world, failure, policy):
                policy.record_failure(world, failure)
                raise failure
            """
        assert _hits(_lint(guard, "src/repro/campaign/x.py")) == [("RL007", 3)]

    def test_quiet_inside_resilience_and_outside_the_package(self):
        for path in (
            "src/repro/resilience/transaction.py",
            "src/repro/resilience/__init__.py",
            "tests/test_x.py",
        ):
            assert not _lint(self.MUTANT, path).findings, path
        # Reading the folded record is everyone's right.
        reader = """
            def report(sim):
                return sim.transaction.summary()["recoveries"]
            """
        assert not _lint(reader, "src/repro/obs/x.py").findings


class TestModuleIdentity:
    """Every scoped rule keys on the module name, which must not depend
    on how the tree is addressed: ``src/repro``, ``repro`` from inside
    ``src`` (or ``site-packages``), an absolute path — nor on what the
    directories above the package happen to be called."""

    @pytest.mark.parametrize(
        "path,module",
        [
            ("src/repro/comm/exchange.py", "repro.comm.exchange"),
            ("repro/comm/exchange.py", "repro.comm.exchange"),
            ("/opt/py/site-packages/repro/durable.py", "repro.durable"),
            ("/work/repro/src/repro/comm/__init__.py", "repro.comm"),
            ("repro/__init__.py", "repro"),
            ("tools/migrate.py", "migrate"),
            ("/work/linalg/proj/src/repro/core/x.py", "repro.core.x"),
            ("/home/u/campaign/checkout/tools/x.py", "x"),
        ],
    )
    def test_rooted_at_the_last_repro_component(self, path, module):
        assert module_name_for(os.path.normpath(path)) == module

    def test_both_clauses_fire_however_the_tree_is_addressed(
        self, tmp_path, monkeypatch
    ):
        pkg = tmp_path / "src" / "repro"
        (pkg / "campaign").mkdir(parents=True)
        (pkg / "linalg").mkdir()
        (pkg / "campaign" / "store.py").write_text(
            "import os\n\ndef put(tmp, path):\n    os.replace(tmp, path)\n"
        )
        (pkg / "linalg" / "parcsr.py").write_text(
            "def matvec(world, pat, x):\n"
            "    return exchange_halo_begin(world, pat, x)\n"
        )
        (pkg / "durable.py").write_text(
            "import os\n\ndef atomic_write(tmp, path):\n"
            "    os.replace(tmp, path)\n"
        )
        expected = [("store.py", 4), ("parcsr.py", 2)]
        for cwd, arg in (
            (tmp_path, "src/repro"),
            (tmp_path / "src", "repro"),
            (tmp_path / "src" / "repro", str(pkg)),
        ):
            monkeypatch.chdir(cwd)
            rep = lint_paths([arg])
            assert _rules(rep) == ["RL007", "RL007"], (cwd, arg)
            assert [
                (os.path.basename(f.path), f.line) for f in rep.findings
            ] == expected

    # RL002/RL004/RL005/RL006/RL010 scope by ``repro.<package>`` too, not
    # by any path component that happens to carry a package's name.

    RAW_SCATTER = (
        "import numpy as np\n"
        "def bump(t, s, v):\n"
        "    np.add.at(t, s, v)\n"
    )
    SWALLOW = (
        "def drain(job):\n"
        "    try:\n"
        "        job()\n"
        "    except Exception:\n"
        "        pass\n"
    )

    def test_a_parent_directory_named_like_a_package_is_not_the_package(
        self,
    ):
        # A checkout under .../linalg/... used to make every module
        # kernel scope, one under .../campaign/... campaign scope.
        for path in (
            "/work/linalg/proj/src/repro/core/x.py",
            "/work/linalg/tools/x.py",
        ):
            assert not lint_source(self.RAW_SCATTER, path).findings
        assert not lint_source(
            self.SWALLOW, "/home/u/campaign/checkout/tools/x.py"
        ).findings
        assert not lint_source(
            self.SWALLOW, "/home/u/campaign/src/repro/obs/x.py"
        ).findings

    def test_the_package_is_in_scope_under_any_parent(self):
        assert _rules(
            lint_source(self.RAW_SCATTER, "/x/campaign/repro/linalg/k.py")
        ) == ["RL002", "RL005"]
        assert _rules(
            lint_source(self.SWALLOW, "/x/linalg/repro/campaign/__init__.py")
        ) == ["RL010"]
        # RL004's exemption and RL006's: the smoothers package and the
        # module that owns the phase stack, by identity.
        build = "sm = JacobiSmoother(A)\n"
        assert not lint_source(build, "repro/smoothers/__init__.py").findings
        assert _rules(
            lint_source(build, "/x/smoothers/repro/core/x.py")
        ) == ["RL004"]
        pop = "def leave(w):\n    w._pop_phase('x')\n"
        assert not lint_source(pop, "src/repro/comm/simcomm.py").findings
        assert _rules(lint_source(pop, "tools/simcomm.py")) == ["RL006"]

    def test_shipped_tree_is_clean_under_package_named_parents(
        self, tmp_path
    ):
        # The acceptance form of the bug: a clone that lives under
        # directories called `linalg` and `campaign` lints like any other.
        here = lint_paths(["src/repro"])
        root = tmp_path / "linalg" / "campaign" / "src"
        shutil.copytree(
            "src/repro",
            root / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        there = lint_paths([str(root / "repro")])
        assert not there.findings, [
            (f.rule, f.path, f.line) for f in there.findings
        ]
        assert len(there.suppressed) == len(here.suppressed)


class TestBugCorpus:
    """The PR 8 regression corpus: each historical bug, reintroduced in
    fixture form, and what stops it today."""

    def test_all_three_historical_bugs_are_caught(self):
        # The hidden third CG reduction, at run time: one more reduction
        # per iteration, behind an attribute call (`A.matvec`) that the
        # retired RL009 call graph never resolved.  The closed form the
        # measured pin asserts (tests/test_comm_avoiding.py::
        # test_cg_two_reductions_per_iteration) no longer holds.
        n = 36
        T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (n, n)).tocsr()
        world = SimWorld(3)
        M = ParCSRMatrix(
            world, T, np.linspace(0, n, 4).astype(np.int64)
        )

        class HiddenReduction:
            def __getattr__(self, name):
                return getattr(M, name)

            def matvec(self, x, overlap=False):
                x.norm()
                return M.matvec(x, overlap=overlap)

        res = CG(HiddenReduction(), tol=1e-8).solve(M.new_vector(np.ones(n)))
        assert res.converged and res.iterations > 0
        measured = world.traffic.collective_count()
        assert measured == 2 + 3 * res.iterations
        assert measured != 2 + 2 * res.iterations

        leaked_begin = (
            "src/repro/comm/overlap_bug.py",
            textwrap.dedent(
                """
                def matvec_overlap(world, pat, owned, skip):
                    h = exchange_halo_begin(world, pat, owned)
                    if skip:
                        return None
                    return exchange_halo_finish(world, h)
                """
            ),
        )
        # The leaked begin through RL007's ownership clause, at the line
        # the typestate walk used to name.
        path, source = leaked_begin
        assert ("RL007", 3) in _hits(lint_source(source, path))
        # The third bug, `if world.rank == 0: world.allreduce(x)` in a
        # coarse solve, was RL008's fixture.  RL008 is retired because the
        # bug cannot be written: a world has no rank to branch on, the
        # per-rank handle has no collective to call, and a collective fed
        # anything but one value per rank refuses to run.  Whoever adds a
        # per-rank collective breaks this pin and owes the rule back.
        world = SimWorld(3)
        assert not hasattr(world, "rank")
        assert {n for n in vars(SimComm) if not n.startswith("_")} == {
            "size",
            "send",
            "recv",
        }
        assert vars(world.comm(0)).keys() == {"world", "rank"}
        with pytest.raises(ValueError, match="one value per rank"):
            world.allreduce([1.0])
        with pytest.raises(ValueError, match="one value per rank"):
            world.allgather([1.0])


class TestShippedTree:
    def test_shipped_tree_is_protocol_clean(self):
        # No pragma either: each protocol really has its one owner.
        rep = lint_paths(["src/repro"])
        assert "RL007" not in _rules(rep)
        assert "RL007" not in [f.rule for f in rep.suppressed]
