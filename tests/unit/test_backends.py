"""Unit tests for the CPU, batched and simulated-GPU sampling backends."""

import numpy as np
import pytest

from repro.backends import CPUBackend, GPUBackend, make_backend
from repro.config import SamplingConfig
from repro.loops.ramachandran import RamachandranModel
from repro.moscem.complexes import partition_population
from repro.moscem.dominance import fitness_against, strength_fitness
from repro.scoring import default_multi_score
from repro.simt.device import GTX280
from repro.simt.memory import MemcpyKind


@pytest.fixture(scope="module")
def backend_config() -> SamplingConfig:
    return SamplingConfig(population_size=8, n_complexes=2, iterations=2, seed=3)


@pytest.fixture(scope="module")
def proposals(small_target):
    model = RamachandranModel()
    rng = np.random.default_rng(17)
    return model.sample_population(small_target.sequence, 8, rng)


@pytest.fixture(scope="module")
def cpu_backend(small_target, small_multi_score, backend_config):
    return CPUBackend(small_target, small_multi_score, backend_config)


@pytest.fixture(scope="module")
def gpu_backend(small_target, small_multi_score, backend_config):
    return GPUBackend(small_target, small_multi_score, backend_config)


@pytest.fixture(scope="module")
def xp_backend(small_target, small_multi_score, backend_config):
    return make_backend("xp", small_target, small_multi_score, backend_config)


class TestMakeBackend:
    def test_factory_names(self, small_target, small_multi_score, backend_config):
        assert isinstance(
            make_backend("cpu", small_target, small_multi_score, backend_config),
            CPUBackend,
        )
        assert isinstance(
            make_backend("gpu", small_target, small_multi_score, backend_config),
            GPUBackend,
        )
        assert isinstance(
            make_backend("SIMT", small_target, small_multi_score, backend_config),
            GPUBackend,
        )

    def test_unknown_backend_rejected(self, small_target, small_multi_score, backend_config):
        with pytest.raises(ValueError):
            make_backend("tpu", small_target, small_multi_score, backend_config)

    def test_bundle_backend_leaves_caller_stack_unbound(
        self, small_target, knowledge_base, backend_config
    ):
        """A bundle-bound backend binds private copies of the scorers, so a
        stack shared across cells keeps scoring on the plain numpy path."""
        multi = default_multi_score(small_target, knowledge_base=knowledge_base)
        xp = make_backend("xp", small_target, multi, backend_config)
        gpu = make_backend("gpu", small_target, multi, backend_config)
        assert all(fn.kernels is xp.kernels for fn in xp.multi_score)
        assert all(fn.kernels is None for fn in multi)
        assert all(fn.kernels is None for fn in gpu.multi_score)


class TestCPUBackend:
    def test_close_loops_shapes_and_ledger(self, cpu_backend, proposals, small_target):
        result = cpu_backend.close_loops(proposals)
        assert result.coords.shape == (8, small_target.n_residues, 4, 3)
        assert "CCD" in cpu_backend.ledger.records
        assert cpu_backend.ledger.records["CCD"].total_seconds > 0.0

    def test_evaluate_scores_shape_and_kernel_names(self, cpu_backend, proposals):
        closed = cpu_backend.close_loops(proposals)
        scores = cpu_backend.evaluate_scores(closed.coords, closed.torsions)
        assert scores.shape == (8, 3)
        for name in ("EvalVDW", "EvalTRIP", "EvalDIST"):
            assert name in cpu_backend.ledger.records

    def test_fitness_population_matches_reference(self, cpu_backend, rng):
        scores = rng.normal(size=(8, 3))
        np.testing.assert_allclose(
            cpu_backend.fitness_population(scores), strength_fitness(scores)
        )

    def test_fitness_within_complexes_covers_population(self, cpu_backend, rng):
        scores = rng.normal(size=(8, 3))
        proposals_scores = rng.normal(size=(8, 3))
        complexes = partition_population(8, 2)
        current, proposed = cpu_backend.fitness_within_complexes(
            scores, proposals_scores, complexes
        )
        assert current.shape == (8,)
        assert proposed.shape == (8,)
        assert np.all(np.isfinite(current))
        assert np.all(np.isfinite(proposed))

    def test_initialize_builds_population(self, cpu_backend, proposals):
        population = cpu_backend.initialize(proposals)
        assert population.size == 8
        assert population.scores.shape == (8, 3)
        assert population.fitness is None


class TestGPUBackend:
    def test_tables_uploaded_at_construction(self, gpu_backend):
        # Modelled transfers are records of the backend's own kernel ledger.
        record = gpu_backend.ledger.records[MemcpyKind.HOST_TO_ARRAY.value]
        assert record.calls >= 1
        assert record.total_seconds > record.calls * GTX280.transfer_latency

    def test_close_loops_records_kernel_and_transfer(self, gpu_backend, proposals, small_target):
        result = gpu_backend.close_loops(proposals)
        assert result.coords.shape == (8, small_target.n_residues, 4, 3)
        assert gpu_backend.profiler.kernel_calls["[CCD]"] >= 1
        assert MemcpyKind.HOST_TO_DEVICE.value in gpu_backend.ledger.records

    def test_evaluate_scores_launches_one_kernel_per_function(self, gpu_backend, proposals):
        closed = gpu_backend.close_loops(proposals)
        before = dict(gpu_backend.profiler.kernel_calls)
        scores = gpu_backend.evaluate_scores(closed.coords, closed.torsions)
        assert scores.shape == (8, 3)
        for name in ("[EvalVDW]", "[EvalTRIP]", "[EvalDIST]"):
            assert gpu_backend.profiler.kernel_calls[name] == before.get(name, 0) + 1

    def test_fitness_population_matches_reference(self, gpu_backend, rng):
        scores = rng.normal(size=(8, 3))
        np.testing.assert_allclose(
            gpu_backend.fitness_population(scores), strength_fitness(scores)
        )

    def test_fitness_within_complexes_matches_cpu(self, gpu_backend, cpu_backend, rng):
        scores = rng.normal(size=(8, 3))
        proposal_scores = rng.normal(size=(8, 3))
        complexes = partition_population(8, 2)
        gpu_current, gpu_proposed = gpu_backend.fitness_within_complexes(
            scores, proposal_scores, complexes
        )
        cpu_current, cpu_proposed = cpu_backend.fitness_within_complexes(
            scores, proposal_scores, complexes
        )
        np.testing.assert_allclose(gpu_current, cpu_current)
        np.testing.assert_allclose(gpu_proposed, cpu_proposed)

    def test_sync_hooks_record_transfers(self, gpu_backend, proposals):
        population = gpu_backend.initialize(proposals)
        population.fitness = gpu_backend.fitness_population(population.scores)
        dtoh = MemcpyKind.DEVICE_TO_HOST.value
        before = gpu_backend.ledger.records.get(dtoh)
        before_calls = before.calls if before else 0
        gpu_backend.sync_to_host(population)
        gpu_backend.sync_to_device(population)
        gpu_backend.finalize(population)
        after = gpu_backend.ledger.records[dtoh]
        assert after.calls >= before_calls + 2
        # Table II's Mem sync rows read the same ledger record.
        rows = {row.method: row for row in gpu_backend.profiler.rows()}
        assert rows[dtoh].category == "Mem sync"
        assert rows[dtoh].calls == after.calls

    def test_ledger_mirrors_profiler_kernels(self, small_target, small_multi_score, backend_config, proposals):
        backend = GPUBackend(small_target, small_multi_score, backend_config)
        backend.close_loops(proposals)
        # Backend ledger uses the stripped kernel name; the profiler reads
        # the same record, so the two agree exactly.
        assert "CCD" in backend.ledger.records
        assert (
            backend.ledger.records["CCD"].total_seconds
            == backend.profiler.kernel_seconds["[CCD]"]
        )
        assert backend.ledger.records["CCD"].calls == backend.profiler.kernel_calls["[CCD]"]


class TestBackendAgreement:
    """The functional-equivalence property the paper claims for CPU vs GPU."""

    def test_scores_identical_for_identical_conformations(
        self, cpu_backend, gpu_backend, proposals
    ):
        closed = gpu_backend.close_loops(proposals)
        cpu_scores = cpu_backend.evaluate_scores(closed.coords, closed.torsions)
        gpu_scores = gpu_backend.evaluate_scores(closed.coords, closed.torsions)
        np.testing.assert_allclose(cpu_scores, gpu_scores, rtol=1e-9)

    def test_ccd_closure_quality_comparable(self, cpu_backend, gpu_backend, proposals):
        cpu_result = cpu_backend.close_loops(proposals)
        gpu_result = gpu_backend.close_loops(proposals)
        # Both pipelines must close the same proposals to comparable quality.
        assert gpu_result.closure_error.mean() <= cpu_result.closure_error.mean() * 1.5 + 0.1
        assert cpu_result.closure_error.mean() <= gpu_result.closure_error.mean() * 1.5 + 0.1

    @pytest.mark.parametrize("backend", ["cpu_backend", "gpu_backend", "xp_backend"])
    def test_complex_fitness_equals_separate_queries(self, backend, request, rng):
        """One stacked ``fitness_against`` call per complex gives exactly
        the fitness of scoring members and proposals in separate calls."""
        scores = np.round(rng.normal(size=(8, 3)), 1)
        proposal_scores = np.round(rng.normal(size=(8, 3)), 1)
        complexes = partition_population(8, 2)
        current, proposed = request.getfixturevalue(backend).fitness_within_complexes(
            scores, proposal_scores, complexes
        )
        for indices in complexes:
            ref = scores[indices]
            assert np.array_equal(current[indices], fitness_against(ref, ref))
            assert np.array_equal(
                proposed[indices], fitness_against(ref, proposal_scores[indices])
            )
