"""Cycle-level cluster simulation: correctness under contention and the
banking-conflict / utilization claims of §III-A and §III-C."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.sim import ClusterSimulator
from repro.kernels.blas import axpy_commands, axpy_reference
from repro.kernels.conv import conv2d_commands, conv2d_reference
from repro.mem.tcdm import TcdmConfig


def _conv_jobs(cluster, rng, image_shape=(20, 22), kernel=3):
    """One independent 3x3 convolution per co-processor."""
    img = rng.standard_normal(image_shape).astype(np.float32)
    weights = rng.standard_normal((kernel, kernel)).astype(np.float32)
    height, width = image_shape
    out_h, out_w = height - kernel + 1, width - kernel + 1
    sizes = [img.nbytes, weights.nbytes, out_h * out_w * 4] * cluster.config.num_ntx
    addresses = cluster.tcdm.alloc_layout(sizes)
    jobs = []
    outs = []
    for i in range(cluster.config.num_ntx):
        img_addr, w_addr, out_addr = addresses[3 * i : 3 * i + 3]
        cluster.stage_in(img_addr, img)
        cluster.stage_in(w_addr, weights)
        jobs.append((i, conv2d_commands(height, width, kernel, img_addr, w_addr, out_addr)[0]))
        outs.append(out_addr)
    return img, weights, jobs, outs, (out_h, out_w)


class TestSimulatorCorrectness:
    def test_results_identical_to_functional_execution(self, cluster, rng):
        img, weights, jobs, outs, out_shape = _conv_jobs(cluster, rng, (12, 14))
        simulator = ClusterSimulator(cluster)
        simulator.run(jobs)
        reference = conv2d_reference(img, weights)
        for out_addr in outs:
            np.testing.assert_allclose(
                cluster.stage_out(out_addr, out_shape), reference, rtol=1e-5, atol=1e-6
            )

    def test_multiple_commands_per_ntx(self, cluster, rng):
        n = 64
        a_addr, x_addr, y_addr = cluster.tcdm.alloc_layout([4, n * 4, n * 4])
        x = rng.standard_normal(n).astype(np.float32)
        y = rng.standard_normal(n).astype(np.float32)
        cluster.stage_in(a_addr, np.array([2.0], np.float32))
        cluster.stage_in(x_addr, x)
        cluster.stage_in(y_addr, y)
        command = axpy_commands(n, a_addr, x_addr, y_addr)[0]
        simulator = ClusterSimulator(cluster)
        simulator.run([(0, command), (0, command)])  # applied twice: y + 2x + 2x
        expected = axpy_reference(2.0, x, axpy_reference(2.0, x, y))
        np.testing.assert_allclose(cluster.stage_out(y_addr, (n,)), expected, rtol=1e-5)

    def test_invalid_ntx_id_rejected(self, cluster):
        simulator = ClusterSimulator(cluster)
        command = axpy_commands(4, cluster.tcdm.base, cluster.tcdm.base, cluster.tcdm.base)[0]
        with pytest.raises(ValueError):
            simulator.run([(99, command)])

    def test_timeout_guard(self, cluster, rng):
        _, _, jobs, _, _ = _conv_jobs(cluster, rng, (10, 12))
        simulator = ClusterSimulator(cluster)
        with pytest.raises(RuntimeError):
            simulator.run(jobs, max_cycles=10)


class TestPaperClaims:
    """§III-A/§III-C: ~13% conflict probability, ~87% of peak achievable."""

    def test_single_ntx_has_nearly_no_conflicts(self, cluster, rng):
        # A single streamer can still collide with itself (its two operand
        # ports or its write-back hitting the same bank in one cycle), but
        # such conflicts are rare and do not limit throughput.
        _, _, jobs, _, _ = _conv_jobs(cluster, rng, (16, 18))
        simulator = ClusterSimulator(cluster)
        result = simulator.run(jobs[:1])
        assert result.conflict_probability < 0.05
        assert result.utilization > 0.9

    def test_conflict_probability_matches_paper_band(self, cluster, rng):
        _, _, jobs, _, _ = _conv_jobs(cluster, rng, (26, 28))
        simulator = ClusterSimulator(cluster)
        result = simulator.run(jobs)
        # Paper: measured around 13%; accept a reasonable modelling band.
        assert 0.08 <= result.conflict_probability <= 0.18

    def test_achieved_performance_near_practical_peak(self, cluster, rng):
        img, weights, jobs, outs, out_shape = _conv_jobs(cluster, rng, (26, 28))
        simulator = ClusterSimulator(cluster)
        result = simulator.run(jobs)
        # Paper: up to 87% of the 20 Gflop/s peak, i.e. ~17.4 Gflop/s.
        gflops = result.achieved_flops_per_s / 1e9
        assert 14.0 <= gflops <= 20.0
        assert result.summary()["gflops"] == pytest.approx(gflops)
        assert result.utilization >= 0.75
        # The contended run still computes the golden output.
        np.testing.assert_allclose(
            cluster.stage_out(outs[0], out_shape),
            conv2d_reference(img, weights),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_fewer_banks_increase_conflicts(self, rng):
        results = {}
        for banks in (8, 16, 32, 64):
            cluster = Cluster(ClusterConfig(tcdm=TcdmConfig(num_banks=banks)))
            _, _, jobs, _, _ = _conv_jobs(cluster, rng, (20, 22))
            result = ClusterSimulator(cluster).run(jobs)
            results[banks] = result.conflict_probability
        # More banks, fewer conflicts; the 32-bank tape-out sits near 13%.
        assert results[8] > results[16] > results[32]
        assert results[64] <= results[32]
        assert 0.08 <= results[32] <= 0.18

    def test_ntx_per_cluster_ablation(self, rng):
        results = {}
        for num_ntx in (1, 2, 4, 8, 16):
            cluster = Cluster(ClusterConfig(num_ntx=num_ntx))
            _, _, jobs, _, _ = _conv_jobs(cluster, rng, (16, 18))
            results[num_ntx] = ClusterSimulator(cluster).run(jobs).summary()
        # Throughput grows with the co-processor count, sub-linearly because
        # of interconnect contention.
        gflops = [results[n]["gflops"] for n in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(gflops, gflops[1:]))
        assert results[16]["conflict_probability"] > results[2]["conflict_probability"]
        assert results[16]["gflops"] < 16 * results[1]["gflops"]

    def test_background_dma_traffic_adds_contention(self, cluster, rng):
        _, _, jobs, _, _ = _conv_jobs(cluster, rng, (20, 22))
        quiet = ClusterSimulator(Cluster())
        # Rebuild jobs for the fresh cluster used in the quiet run.
        cluster_quiet = quiet.cluster
        _, _, jobs_quiet, _, _ = _conv_jobs(cluster_quiet, rng, (20, 22))
        quiet_result = quiet.run(jobs_quiet)
        busy = ClusterSimulator(cluster)
        busy_result = busy.run(jobs, dma_requests_per_cycle=1.0)
        assert busy_result.conflict_probability >= quiet_result.conflict_probability
