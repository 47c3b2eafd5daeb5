"""Tests for the strong-scaling harness and report rendering."""

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignSpec
from repro.core.equation_system import PHASES
from repro.core.simulation import NaluWindSimulation
from repro.harness import (
    default_work_scale,
    equation_breakdown,
    format_table,
    nli_series,
    nli_step_times,
    series_table,
)
from repro.perf import EAGLE_GPU, SUMMIT_CPU_GRP, SUMMIT_GPU


@pytest.fixture(scope="module")
def tiny_campaign(tmp_path_factory):
    """A [2, 4]-rank turbine_tiny sweep, two steps, through the one job
    runner."""
    spec = CampaignSpec(
        name="tiny_sweep", workload="turbine_tiny", steps=2,
        grid={"nranks": [2, 4]},
    )
    campaign = Campaign(spec, str(tmp_path_factory.mktemp("tiny_sweep")))
    campaign.run()
    return campaign


@pytest.fixture(scope="module")
def tiny_sweep(tiny_campaign):
    """The sweep's stored results, rank-ordered, as priceable reports."""
    return tiny_campaign.reports()


class TestScalingHarness:
    def test_sweep_shape(self, tiny_sweep):
        assert [rep.config.nranks for rep in tiny_sweep] == [2, 4]
        for rep in tiny_sweep:
            assert rep.n_steps == 2
            assert len(rep.step_deltas()) == 2

    def test_priced_from_store_equals_priced_from_report(
        self, tiny_campaign, tiny_sweep
    ):
        """A stored ledger prices bitwise like the live report of the
        same job, on every machine and through every pricing function."""
        live = [
            NaluWindSimulation(job.workload, job.build_config()).run(2)
            for job in tiny_campaign.jobs
        ]
        for machine in (SUMMIT_GPU, SUMMIT_CPU_GRP, EAGLE_GPU):
            for a, b in zip(live, tiny_sweep):
                assert (
                    nli_step_times(a, machine).tobytes()
                    == nli_step_times(b, machine).tobytes()
                )
                for eq in ("momentum", "pressure", "scalar"):
                    bd_a = equation_breakdown(a, machine, eq)
                    bd_b = equation_breakdown(b, machine, eq)
                    assert [bd_a[p] for p in PHASES] == [
                        bd_b[p] for p in PHASES
                    ]
            s_a = nli_series(live, machine)
            s_b = nli_series(tiny_sweep, machine)
            assert (s_a.nodes, s_a.ranks, s_a.mean, s_a.std) == (
                s_b.nodes, s_b.ranks, s_b.mean, s_b.std
            )

    def test_step_times_positive(self, tiny_sweep):
        times = nli_step_times(tiny_sweep[0], SUMMIT_GPU)
        assert times.shape == (2,)
        assert np.all(times > 0)

    def test_series_construction(self, tiny_sweep):
        s = nli_series(tiny_sweep, SUMMIT_GPU, "gpu")
        assert s.ranks == [2, 4]
        assert s.nodes == [2 / 6, 4 / 6]
        assert len(s.mean) == 2
        assert all(m > 0 for m in s.mean)
        assert isinstance(s.slope(), float)

    def test_work_scale_default(self, tiny_sweep):
        # turbine_tiny has no paper-scale counterpart: scale 1.
        assert default_work_scale(tiny_sweep[0]) == 1.0

    def test_work_scale_known_workload(self):
        class FakeReport:
            workload = "turbine_low"
            total_nodes = 23_022

        assert default_work_scale(FakeReport()) == pytest.approx(1000.0, rel=0.01)

    def test_machine_ordering_preserved(self, tiny_sweep):
        """Eagle's cheaper messages make it no slower than Summit on the
        same run at the same rank count."""
        s_gpu = nli_series(tiny_sweep, SUMMIT_GPU)
        e_gpu = nli_series(tiny_sweep, EAGLE_GPU)
        assert all(e <= s * 1.05 for e, s in zip(e_gpu.mean, s_gpu.mean))

    def test_equation_breakdown_phases(self, tiny_sweep):
        bd = equation_breakdown(tiny_sweep[0], SUMMIT_GPU, "pressure")
        assert set(bd) == {
            "graph",
            "local_assembly",
            "global_assembly",
            "precond_setup",
            "solve",
        }
        assert bd["solve"] > 0

    def test_breakdown_sums_below_total(self, tiny_sweep):
        """One equation's breakdown is at most the whole NLI time."""
        rep = tiny_sweep[0]
        bd = equation_breakdown(rep, SUMMIT_GPU, "pressure")
        total = nli_step_times(rep, SUMMIT_GPU).mean()
        assert sum(bd.values()) <= total * 1.001


class TestReportRendering:
    def test_format_table_alignment(self):
        out = format_table(
            "T", ["a", "bb"], [[1, 2.5], ["x", "yy"]], note="n"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert out.endswith("n")

    def test_series_table_contains_slopes(self, tiny_sweep):
        s = nli_series(tiny_sweep, SUMMIT_GPU, "gpu")
        c = nli_series(tiny_sweep, SUMMIT_CPU_GRP, "cpu")
        out = series_table("title", [s, c])
        assert "log-log slopes" in out
        assert "gpu mean [s]" in out
        assert "cpu mean [s]" in out
