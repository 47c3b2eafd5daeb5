"""Tests for the op recorder, machine catalog, and cost model."""

import numpy as np
import pytest

from repro.comm import SimWorld
from repro.perf import (
    CostModel,
    EAGLE_GPU,
    MACHINES,
    OpRecorder,
    SUMMIT_CPU,
    SUMMIT_GPU,
    get_machine,
)
from repro.perf.cost import PhaseAggregate, collect_phase_aggregates
from repro.perf.opcounts import KernelTally


class TestOpRecorder:
    def test_record_and_tally(self):
        rec = OpRecorder()
        rec.record("p", 0, "spmv", flops=10, nbytes=100)
        rec.record("p", 0, "spmv", flops=5, nbytes=50, launches=2)
        t = rec.tally("p", 0)
        assert t.flops == 15
        assert t.bytes == 150
        assert t.launches == 3

    def test_max_rank_tally(self):
        rec = OpRecorder()
        rec.record("p", 0, "k", flops=10, nbytes=1)
        rec.record("p", 1, "k", flops=5, nbytes=100)
        t = rec.max_rank_tally("p")
        assert t.flops == 10
        assert t.bytes == 100

    def test_total_across_phases(self):
        rec = OpRecorder()
        rec.record("a", 0, "k", flops=1)
        rec.record("b", 1, "k", flops=2)
        assert rec.total().flops == 3
        assert rec.total("a").flops == 1

    def test_kernel_total(self):
        rec = OpRecorder()
        rec.record("a", 0, "spmv", flops=1)
        rec.record("b", 2, "spmv", flops=4)
        rec.record("a", 0, "sort", flops=8)
        assert rec.kernel_total("spmv").flops == 5

    def test_record_ranks_equals_one_record_per_rank(self):
        """Same additions in the same rank order: tallies are bitwise
        those of per-rank calls, for fractional work, per-rank launch
        counts and rank subsets alike."""
        rng = np.random.default_rng(0)
        flops = (rng.random(5) * 1e3).tolist()
        nbytes = (rng.random(5) / 3.0).tolist()
        bulk, single = OpRecorder(), OpRecorder()
        for _ in range(7):
            bulk.record_ranks("p", "axpy", flops, nbytes)
            bulk.record_ranks("p", "spmv", flops, nbytes, [2, 1, 1, 2, 1])
            bulk.record_ranks("p", "spmv", flops[:2], nbytes[:2], 1, [1, 4])
            for r in range(5):
                single.record("p", r, "axpy", flops=flops[r], nbytes=nbytes[r])
            for r, n in enumerate([2, 1, 1, 2, 1]):
                single.record(
                    "p", r, "spmv", flops=flops[r], nbytes=nbytes[r], launches=n
                )
            for i, r in enumerate([1, 4]):
                single.record("p", r, "spmv", flops=flops[i], nbytes=nbytes[i])
        assert bulk._tallies == single._tallies
        assert bulk._kernel_tallies == single._kernel_tallies
        bulk.record_ranks("q", "nothing", [], [])
        assert bulk.phases() == ["p"] and bulk.kernels("q") == []

    def test_peak_alloc_tracks_high_water_mark(self):
        rec = OpRecorder()
        rec.record_alloc(0, 100)
        rec.record_alloc(0, 50)
        rec.record_alloc(0, -120)
        rec.record_alloc(0, 10)
        assert rec.peak_alloc(0) == 150
        rec.record_alloc(1, 500)
        assert rec.peak_alloc() == 500

    def test_phases_and_ranks(self):
        rec = OpRecorder()
        rec.record("z", 3, "k")
        rec.record("a", 1, "k")
        assert rec.phases() == ["a", "z"]
        assert rec.ranks("z") == [3]


class TestMachines:
    def test_catalog_contents(self):
        assert set(MACHINES) == {
            "summit-gpu",
            "summit-cpu",
            "summit-cpu-grp",
            "eagle-gpu",
            "eagle-cpu",
            "eagle-cpu-grp",
        }

    def test_get_machine_unknown(self):
        with pytest.raises(KeyError):
            get_machine("frontier")

    def test_eagle_has_lower_message_latency_than_summit(self):
        # The Fig. 11 headline is carried by the MPI-stack difference.
        assert EAGLE_GPU.msg_latency < SUMMIT_GPU.msg_latency

    def test_gpu_devices_per_node(self):
        assert SUMMIT_GPU.devices_per_node == 6
        assert EAGLE_GPU.devices_per_node == 2

    def test_effective_rates(self):
        m = SUMMIT_GPU
        assert m.eff_flops == m.peak_flops * m.flop_eff
        assert m.eff_bw == m.mem_bw * m.bw_eff

    def test_with_override(self):
        m = SUMMIT_GPU.with_(msg_latency=1e-9)
        assert m.msg_latency == 1e-9
        assert m.name == SUMMIT_GPU.name


class TestCostModel:
    def test_kernel_time_is_roofline(self):
        cm = CostModel(SUMMIT_GPU)
        # Pure-flops tally.
        t_flops = cm.kernel_time(KernelTally(flops=SUMMIT_GPU.eff_flops, bytes=0, launches=0))
        assert t_flops == pytest.approx(1.0)
        # Pure-bytes tally.
        t_bytes = cm.kernel_time(KernelTally(flops=0, bytes=SUMMIT_GPU.eff_bw, launches=0))
        assert t_bytes == pytest.approx(1.0)

    def test_launch_overhead_dominates_tiny_kernels(self):
        cm = CostModel(SUMMIT_GPU)
        t = cm.kernel_time(KernelTally(flops=1, bytes=8, launches=100))
        assert t == pytest.approx(100 * SUMMIT_GPU.launch_overhead, rel=1e-3)

    def test_cpu_has_no_launch_overhead(self):
        cm = CostModel(SUMMIT_CPU)
        t = cm.kernel_time(KernelTally(flops=0, bytes=0, launches=1000))
        assert t == 0.0

    def test_memory_penalty(self):
        cm = CostModel(SUMMIT_GPU)
        assert cm.memory_penalty(1e9) == 1.0
        over = cm.memory_penalty(2 * SUMMIT_GPU.device_memory)
        assert over > 1.0

    def test_work_scale_scales_volume_not_launches(self):
        cm1 = CostModel(SUMMIT_GPU, work_scale=1.0)
        cm1000 = CostModel(SUMMIT_GPU, work_scale=1000.0)
        tally = KernelTally(flops=1e9, bytes=1e9, launches=0)
        assert cm1000.kernel_time(tally) == pytest.approx(
            1000 * cm1.kernel_time(tally)
        )
        launch_only = KernelTally(flops=0, bytes=0, launches=5)
        assert cm1000.kernel_time(launch_only) == cm1.kernel_time(launch_only)

    def test_collective_time_log_depth(self):
        cm = CostModel(SUMMIT_GPU)
        t2 = cm.collective_time(1, 8, 2)
        t16 = cm.collective_time(1, 8, 16)
        assert t16 == pytest.approx(4 * t2, rel=0.01)
        assert cm.collective_time(1, 8, 1) == 0.0

    def test_phase_pricing_from_world(self):
        w = SimWorld(2)
        with w.phase_scope("work"):
            w.ops.record("work", 0, "k", flops=1e9, nbytes=1e9)
            w.traffic.record_message(0, 1, 1000, "work")
        cm = CostModel(SUMMIT_GPU)
        times = cm.run_time(w)
        assert "work" in times
        assert times["work"].compute > 0
        assert times["work"].comm > 0

    def test_single_rank_run_has_no_comm(self):
        w = SimWorld(1)
        w.ops.record("p", 0, "k", flops=1e6, nbytes=1e6)
        cm = CostModel(SUMMIT_GPU)
        assert cm.run_time(w)["p"].comm == 0.0


class TestPhaseAggregate:
    def test_minus_plus_roundtrip(self):
        a = PhaseAggregate(flops=10, bytes=20, msgs=3)
        b = PhaseAggregate(flops=4, bytes=5, msgs=1)
        d = a.minus(b)
        assert d.flops == 6 and d.bytes == 15 and d.msgs == 2
        assert d.plus(b).flops == a.flops

    def test_collect_from_world(self):
        w = SimWorld(2)
        with w.phase_scope("x"):
            w.ops.record("x", 1, "k", flops=7, nbytes=9, launches=2)
            w.traffic.record_message(1, 0, 64, "x")
            w.traffic.record_collective("allreduce", 2, 8, "x")
        aggs = collect_phase_aggregates(w)
        assert aggs["x"].flops == 7
        assert aggs["x"].msgs == 1
        assert aggs["x"].colls == 1

    def test_price_aggregate_matches_phase_time(self):
        w = SimWorld(2)
        with w.phase_scope("x"):
            w.ops.record("x", 0, "k", flops=1e8, nbytes=1e8)
            w.traffic.record_message(0, 1, 4096, "x")
        cm = CostModel(SUMMIT_GPU)
        direct = cm.phase_time(w, "x")
        via_agg = cm.price_aggregate(
            collect_phase_aggregates(w)["x"], w.size, w.ops.peak_alloc()
        )
        assert via_agg.total == pytest.approx(direct.total)
