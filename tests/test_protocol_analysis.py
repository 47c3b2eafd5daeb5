"""Path-sensitive protocol rules: CFG construction and RL007-RL009.

Each rule gets known-bad fixtures and clean twins, mirroring the
RL001-RL006 matrix in test_analysis.py but over *paths*: the bad
shapes here are all legal syntax that only goes wrong on one control
flow route (an early return, an exception edge, a rank-divergent
branch, a hidden in-loop reduction).  The bug-corpus class at the
bottom reintroduces the three historical PR 8 bugs verbatim and pins
the exact rule, file, and line each must fire on.
"""

import ast
import textwrap

from repro.analysis.cfg import (
    ENTRY,
    EXIT,
    RAISE_EXIT,
    build_cfg,
    calls_in_order,
)
from repro.analysis.interproc import ProjectIndex
from repro.analysis.protocol import (
    analyze_protocol_paths,
    analyze_protocol_source,
    analyze_protocol_sources,
)

PATH = "src/repro/comm/fixture.py"
DURABLE = "src/repro/durable.py"


def _cfg(src):
    tree = ast.parse(textwrap.dedent(src))
    func = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef)
    )
    return build_cfg(func)


def _rules(report):
    return [f.rule for f in report.findings]


def _analyze(src, path=PATH):
    return analyze_protocol_source(textwrap.dedent(src), path)


class TestCFG:
    def test_linear_flow_reaches_exit_only(self):
        cfg = _cfg(
            """
            def f():
                a = 1
                b = a + 1
                return b
            """
        )
        seen = cfg.reachable([ENTRY])
        assert EXIT in seen
        # Outside a try, statements are assumed non-throwing.
        assert RAISE_EXIT not in seen

    def test_raise_reaches_raise_exit_not_exit(self):
        cfg = _cfg(
            """
            def f():
                raise ValueError("boom")
            """
        )
        seen = cfg.reachable([ENTRY])
        assert RAISE_EXIT in seen
        assert EXIT not in seen

    def test_if_arms_recorded(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                b = 2
            """
        )
        assert len(cfg.if_arms) == 1
        if_idx, true_entries = cfg.if_arms[0]
        assert isinstance(cfg.nodes[if_idx].stmt, ast.If)
        assert [cfg.nodes[i].lineno for i in true_entries] == [4]
        # The false continuation is the remaining successor: `b = 2`.
        false = [
            s for s in cfg.successors(if_idx) if s not in true_entries
        ]
        assert {cfg.nodes[s].lineno for s in false} == {5}

    def test_try_body_exception_edge_routes_through_finally(self):
        cfg = _cfg(
            """
            def f():
                try:
                    work()
                finally:
                    cleanup()
                return 1
            """
        )
        seen = cfg.reachable([ENTRY])
        assert EXIT in seen and RAISE_EXIT in seen
        # The finally body is inlined once per route (normal + unwind),
        # so the cleanup statement appears as more than one node.
        copies = [n for n in cfg.nodes if n.lineno == 6]
        assert len(copies) >= 2
        # Every path into RAISE_EXIT comes from a finally copy.
        preds = [
            n for n in cfg.nodes if RAISE_EXIT in n.succs
        ]
        assert preds and all(n.lineno == 6 for n in preds)

    def test_loop_back_edge(self):
        cfg = _cfg(
            """
            def f(xs):
                for x in xs:
                    use(x)
            """
        )
        head = next(
            n.idx for n in cfg.nodes if isinstance(n.stmt, ast.For)
        )
        body = next(n for n in cfg.nodes if n.lineno == 4)
        assert head in body.succs

    def test_calls_in_order_is_post_order(self):
        call = ast.parse("finish(begin())").body[0].value
        names = [c.func.id for c in calls_in_order([call])]
        assert names == ["begin", "finish"]


class TestHaloTypestate:
    def test_early_return_leaks_begin(self):
        rep = _analyze(
            """
            def solve(world, pat, owned, flag):
                h = exchange_halo_begin(world, pat, owned)
                if flag:
                    return None
                return exchange_halo_finish(world, h)
            """
        )
        assert _rules(rep) == ["RL007"]
        f = rep.findings[0]
        assert f.line == 3 and "a return" in f.message

    def test_raise_path_leaks_begin(self):
        rep = _analyze(
            """
            def solve(world, pat, owned, flag):
                h = exchange_halo_begin(world, pat, owned)
                if flag:
                    raise RuntimeError("abort")
                return exchange_halo_finish(world, h)
            """
        )
        assert _rules(rep) == ["RL007"]
        assert "an exception" in rep.findings[0].message

    def test_double_begin_same_name(self):
        rep = _analyze(
            """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                h = exchange_halo_begin(world, pat, owned)
                return exchange_halo_finish(world, h)
            """
        )
        assert _rules(rep) == ["RL007"]
        assert "still unfinished" in rep.findings[0].message

    def test_rebind_of_live_handle(self):
        rep = _analyze(
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
        assert _rules(rep) == ["RL007"]
        assert "rebound" in rep.findings[0].message

    def test_begin_in_loop_without_finish(self):
        rep = _analyze(
            """
            def solve(world, pat, owned, xs):
                for x in xs:
                    h = exchange_halo_begin(world, pat, owned)
                return None
            """
        )
        assert rep.findings and set(_rules(rep)) == {"RL007"}

    def test_straight_line_pair_is_quiet(self):
        rep = _analyze(
            """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                interior_compute()
                return exchange_halo_finish(world, h)
            """
        )
        assert not rep.findings

    def test_try_finally_idiom_is_quiet(self):
        # The sanctioned overlap shape: finish in a finally covers the
        # exception edge out of the interior compute.
        rep = _analyze(
            """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                try:
                    interior_compute()
                finally:
                    exchange_halo_finish(world, h)
                return None
            """
        )
        assert not rep.findings

    def test_returned_handle_transfers_ownership(self):
        rep = _analyze(
            """
            def begin_round(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                return h
            """
        )
        assert not rep.findings

    def test_one_liner_finish_of_begin_is_quiet(self):
        rep = _analyze(
            """
            def solve(world, pat, owned):
                return exchange_halo_finish(
                    world, exchange_halo_begin(world, pat, owned)
                )
            """
        )
        assert not rep.findings

    def test_handle_passed_to_helper_escapes(self):
        rep = _analyze(
            """
            def solve(world, pat, owned):
                h = exchange_halo_begin(world, pat, owned)
                drain(world, h)
                return None
            """
        )
        assert not rep.findings

    def test_handle_stored_on_self_escapes(self):
        rep = _analyze(
            """
            class Round:
                def start(self, world, pat, owned):
                    self.h = exchange_halo_begin(world, pat, owned)
            """
        )
        assert not rep.findings

    def test_pragma_suppresses_at_the_begin_line(self):
        rep = _analyze(
            """
            def solve(world, pat, owned, flag):
                h = exchange_halo_begin(world, pat, owned)  # repro: allow(RL007)
                if flag:
                    return None
                return exchange_halo_finish(world, h)
            """
        )
        assert not rep.findings
        assert [f.rule for f in rep.suppressed] == ["RL007"]


class TestDurableWriteProtocol:
    # The protocol DFA has one legitimate subject inside the package:
    # repro.durable.  Fixtures are analyzed under its path.
    def test_replace_without_fsync_fires(self):
        rep = _analyze(
            """
            import os

            def save(path, blob):
                tmp = path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            """,
            DURABLE,
        )
        assert _rules(rep) == ["RL007"]
        f = rep.findings[0]
        assert f.line == 8 and "fsync" in f.message

    def test_write_fsync_replace_is_quiet(self):
        rep = _analyze(
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

    def test_written_never_replaced_on_normal_return_fires(self):
        rep = _analyze(
            """
            import os

            def save(path, blob, commit):
                tmp = path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                    os.fsync(fh.fileno())
                if commit:
                    os.replace(tmp, path)
            """,
            DURABLE,
        )
        assert _rules(rep) == ["RL007"]
        assert "neither os.replace'd nor cleaned" in rep.findings[0].message

    #: The shipped ``atomic_write`` shape: exception exits are exempt and
    #: the exists-guarded unlink clears the temp on failure.
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
        assert not _analyze(self.SANCTIONED, DURABLE).findings

    def test_rename_outside_the_durable_module_fires(self):
        # Even a protocol-perfect hand copy is a finding inside the
        # package: a sixth commit site must go through atomic_write.
        rep = _analyze(self.SANCTIONED, "src/repro/campaign/ledger.py")
        assert _rules(rep) == ["RL007"]
        f = rep.findings[0]
        assert f.line == 10 and "atomic_write" in f.message
        assert not _analyze(self.SANCTIONED, "tools/migrate.py").findings

    def test_functions_without_replace_are_not_checked(self):
        rep = _analyze(
            """
            def log_line(path, msg):
                with open(path, "a") as fh:
                    fh.write(msg)
            """
        )
        assert not rep.findings


class TestCollectiveConsistency:
    def test_collective_under_rank_guard_fires(self):
        rep = _analyze(
            """
            def step(world, x):
                if world.rank == 0:
                    world.allreduce(x)
            """
        )
        assert _rules(rep) == ["RL008"]
        f = rep.findings[0]
        assert f.line == 4 and "allreduce" in f.message

    def test_symmetric_arms_are_exempt(self):
        rep = _analyze(
            """
            def step(world, x, is_root):
                if is_root:
                    world.allreduce(x)
                else:
                    world.allreduce(x)
            """
        )
        assert not rep.findings

    def test_mismatched_arm_sequences_fire(self):
        rep = _analyze(
            """
            def step(world, x, is_root):
                if is_root:
                    world.allreduce(x)
                    world.barrier()
                else:
                    world.allreduce(x)
            """
        )
        assert rep.findings and set(_rules(rep)) == {"RL008"}
        assert any("barrier" in f.message for f in rep.findings)

    def test_collective_after_rank_gated_early_return_fires(self):
        rep = _analyze(
            """
            def step(world, x, my_rank):
                if my_rank != 0:
                    return None
                world.allreduce(x)
            """
        )
        assert _rules(rep) == ["RL008"]

    def test_non_rank_branch_is_quiet(self):
        rep = _analyze(
            """
            def step(world, x, flag):
                if flag:
                    world.allreduce(x)
            """
        )
        assert not rep.findings

    def test_interprocedural_collective_through_helper(self):
        rep = _analyze(
            """
            def reduce_all(world, x):
                return world.allreduce(x)

            def step(world, x):
                if world.rank == 0:
                    reduce_all(world, x)
            """
        )
        assert _rules(rep) == ["RL008"]
        assert "call to reduce_all" in rep.findings[0].message

    def test_loop_back_edge_does_not_mask_divergence(self):
        # Without blocking the branch node, the `continue` arm would
        # "reach" the collective via head -> if -> body on the next
        # lexical iteration and the divergence would vanish.
        rep = _analyze(
            """
            def step(world, xs):
                for x in xs:
                    if world.rank == 0:
                        continue
                    world.allreduce(x)
            """
        )
        assert _rules(rep) == ["RL008"]


class TestReductionContracts:
    def test_correct_contract_is_quiet(self):
        rep = _analyze(
            """
            @reduction_contract(setup=1, per_iteration=2)
            def cg(world, b):
                r0 = norm(b)
                for _ in range(10):
                    a = dot(b, b)
                    z = fused_dots(b, b)
            """
        )
        assert not rep.findings

    def test_hidden_per_iteration_reduction_fires(self):
        rep = _analyze(
            """
            @reduction_contract(setup=1, per_iteration=1)
            def cg(world, b):
                r0 = norm(b)
                for _ in range(10):
                    a = dot(b, b)
                    z = norm(b)
            """
        )
        assert _rules(rep) == ["RL009"]
        msg = rep.findings[0].message
        assert "per_iteration=1" in msg and "2 reduction site(s)" in msg

    def test_undeclared_per_restart_count_fires(self):
        rep = _analyze(
            """
            @reduction_contract(setup=1, per_iteration=1)
            def gmres(world, b):
                r0 = norm(b)
                while True:
                    z = norm(b)
                    for _ in range(5):
                        a = dot(b, b)
            """
        )
        assert _rules(rep) == ["RL009"]
        assert "no per_restart" in rep.findings[0].message

    def test_unaccounted_resolved_helper_fires(self):
        rep = _analyze(
            """
            def orthogonalize(V, w):
                return dot(V, w)

            @reduction_contract(setup=0, per_iteration=0)
            def arnoldi(V, w):
                for _ in range(3):
                    orthogonalize(V, w)
            """
        )
        assert _rules(rep) == ["RL009"]
        assert "assume=" in rep.findings[0].message

    def test_assume_prices_the_helper(self):
        rep = _analyze(
            """
            def orthogonalize(V, w):
                return dot(V, w)

            @reduction_contract(
                setup=0, per_iteration=3, assume={"orthogonalize": 3}
            )
            def arnoldi(V, w):
                for _ in range(3):
                    orthogonalize(V, w)
            """
        )
        assert not rep.findings

    def test_undecorated_functions_are_not_checked(self):
        rep = _analyze(
            """
            def free_kernel(b):
                for _ in range(10):
                    a = dot(b, b)
            """
        )
        assert not rep.findings


class TestInterproceduralIndex:
    def test_shipped_call_graph_facts(self):
        index = ProjectIndex.from_paths(["src/repro"])
        # The one-reduce orthogonalizer really does reach a reduction...
        assert index.reaches_reduction(
            "repro.krylov.gram_schmidt:orthogonalize"
        )
        # ...and the split halo exchange is point-to-point, collective-free.
        assert not index.reaches_collective(
            "repro.comm.exchange:exchange_halo"
        )


class TestBugCorpus:
    """The PR 8 regression corpus: each historical bug, reintroduced
    verbatim in fixture form, must be caught at its exact site."""

    def test_all_three_historical_bugs_are_caught(self):
        hidden_reduction = (
            "src/repro/krylov/cg_bug.py",
            textwrap.dedent(
                """
                @reduction_contract(setup=2, per_iteration=2)
                def solve(self, b):
                    rho = norm(b)
                    gamma = fused_dots(b, b)
                    for _ in range(50):
                        pap = dot(b, b)
                        rz = fused_dots(b, b)
                        extra = norm(b)
                """
            ),
        )
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
        rank_gated_collective = (
            "src/repro/amg/coarse_bug.py",
            textwrap.dedent(
                """
                def coarse_solve(world, x):
                    if world.rank == 0:
                        world.allreduce(x)
                """
            ),
        )
        rep = analyze_protocol_sources(
            [hidden_reduction, leaked_begin, rank_gated_collective]
        )
        got = {f.rule: (f.path, f.line) for f in rep.findings}
        assert len(rep.findings) == 3
        assert got["RL009"] == ("src/repro/krylov/cg_bug.py", 3)
        assert got["RL007"] == ("src/repro/comm/overlap_bug.py", 3)
        assert got["RL008"] == ("src/repro/amg/coarse_bug.py", 4)


class TestShippedTree:
    def test_shipped_tree_is_protocol_clean(self):
        rep = analyze_protocol_paths(["src/repro"])
        assert not rep.findings, [
            (f.path, f.line, f.message) for f in rep.findings
        ]
