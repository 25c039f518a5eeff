"""Unit tests for the simulated SIMT substrate: device, kernels, occupancy,
profiler and the execution engine."""

import numpy as np
import pytest

from repro.simt.device import GTX280, DeviceSpec
from repro.simt.engine import SIMTEngine
from repro.simt.kernel import KERNELS_BY_SECTION, PAPER_KERNELS, KernelLaunch, KernelSpec
from repro.simt.memory import MemcpyKind, MemorySpace
from repro.simt.occupancy import occupancy
from repro.simt.profiler import KernelProfiler
from repro.utils.timing import TimingLedger


class TestDeviceSpec:
    def test_gtx280_matches_paper_description(self):
        assert GTX280.multiprocessors == 30
        assert GTX280.cores_per_multiprocessor == 8
        assert GTX280.total_cores == 240
        assert GTX280.registers_per_multiprocessor == 16 * 1024
        assert GTX280.shared_memory_per_multiprocessor == 16 * 1024
        assert GTX280.constant_memory_bytes == 64 * 1024
        assert GTX280.max_threads_per_block == 512
        assert GTX280.warp_size == 32

    def test_blocks_for_population(self):
        assert GTX280.blocks_for_population(15360, 128) == 120
        assert GTX280.blocks_for_population(100, 128) == 1
        assert GTX280.blocks_for_population(129, 128) == 2

    def test_blocks_for_population_validation(self):
        with pytest.raises(ValueError):
            GTX280.blocks_for_population(100, 0)
        with pytest.raises(ValueError):
            GTX280.blocks_for_population(100, 1024)

    def test_invalid_device_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad",
                multiprocessors=0,
                cores_per_multiprocessor=8,
                registers_per_multiprocessor=16384,
                shared_memory_per_multiprocessor=16384,
                constant_memory_bytes=65536,
                max_threads_per_block=512,
                max_threads_per_multiprocessor=1024,
                max_blocks_per_multiprocessor=8,
                warp_size=32,
                global_memory_bytes=1 << 30,
            )

    def test_max_resident_threads(self):
        assert GTX280.max_resident_threads() == 30 * 1024
        assert GTX280.max_warps_per_multiprocessor == 32


class TestKernelSpec:
    def test_paper_kernel_set_complete(self):
        assert set(PAPER_KERNELS) == {
            "CCD", "EvalDIST", "EvalVDW", "EvalTRIP",
            "FitAssgPopulation", "FitAssgComplex",
        }

    def test_paper_register_counts(self):
        assert PAPER_KERNELS["CCD"].registers_per_thread == 32
        assert PAPER_KERNELS["EvalTRIP"].registers_per_thread == 20
        assert PAPER_KERNELS["FitAssgPopulation"].registers_per_thread == 8
        assert PAPER_KERNELS["FitAssgComplex"].registers_per_thread == 5

    def test_default_block_size_is_128(self):
        assert all(spec.threads_per_block == 128 for spec in PAPER_KERNELS.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("bad", registers_per_thread=0)
        with pytest.raises(ValueError):
            KernelSpec("bad", registers_per_thread=8, threads_per_block=0)

    def test_launch_thread_count(self):
        launch = KernelLaunch(spec=PAPER_KERNELS["CCD"], population_size=200, blocks=2)
        assert launch.threads == 256

    def test_section_names_map_to_specs(self):
        spec = PAPER_KERNELS["FitAssgComplex"]
        assert spec.section == "FitAssg within Complex"
        assert all(KERNELS_BY_SECTION[s.section] is s for s in PAPER_KERNELS.values())


class TestOccupancy:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("CCD", 0.50),
            ("EvalDIST", 0.50),
            ("EvalVDW", 0.50),
            ("EvalTRIP", 0.75),
            ("FitAssgPopulation", 1.00),
            ("FitAssgComplex", 1.00),
        ],
    )
    def test_paper_table_iii_values(self, key, expected):
        result = occupancy(PAPER_KERNELS[key], GTX280)
        assert result.occupancy == pytest.approx(expected)

    def test_register_heavy_kernels_limited_by_registers(self):
        result = occupancy(PAPER_KERNELS["CCD"], GTX280)
        assert result.limited_by == "registers"

    def test_light_kernels_limited_by_block_slots(self):
        result = occupancy(PAPER_KERNELS["FitAssgComplex"], GTX280)
        assert result.limited_by in ("blocks", "warps")
        assert result.blocks_per_multiprocessor == GTX280.max_blocks_per_multiprocessor

    def test_more_registers_never_increases_occupancy(self):
        previous = 1.1
        for registers in (4, 8, 16, 20, 32, 64, 128):
            spec = KernelSpec("probe", registers_per_thread=registers)
            value = occupancy(spec, GTX280).occupancy
            assert value <= previous + 1e-12
            previous = value

    def test_shared_memory_can_become_the_limit(self):
        spec = KernelSpec("shm", registers_per_thread=8)
        result = occupancy(spec, GTX280, shared_bytes_per_block=16 * 1024)
        assert result.blocks_per_multiprocessor == 1
        assert result.limited_by == "shared_memory"

    def test_big_blocks_limited_by_warps(self):
        spec = KernelSpec("big", registers_per_thread=4, threads_per_block=512)
        result = occupancy(spec, GTX280)
        assert result.blocks_per_multiprocessor == 2
        assert result.occupancy == pytest.approx(1.0)


def _modelled(nbytes):
    """Modelled seconds of one transfer on the GTX 280."""
    return GTX280.transfer_latency + nbytes / GTX280.transfer_bandwidth


class TestTransferRecord:
    """A transfer record is the kernel-ledger record under a memcpy label."""

    def test_accumulates(self):
        engine = SIMTEngine()
        engine.memcpy(MemcpyKind.HOST_TO_DEVICE, 100)
        engine.memcpy(MemcpyKind.HOST_TO_DEVICE, 300)
        record = engine.profiler.ledger.records["memcpyHtoD"]
        assert record.calls == 2
        assert record.total_seconds == _modelled(100) + _modelled(300)

    def test_negative_bytes_rejected(self):
        engine = SIMTEngine()
        with pytest.raises(ValueError):
            engine.memcpy(MemcpyKind.DEVICE_TO_HOST, -1)
        assert engine.profiler.ledger.records == {}

    def test_memory_space_enum_covers_paper_spaces(self):
        names = {space.value for space in MemorySpace}
        assert {"global", "texture", "constant", "shared", "registers", "local"} == names

    def test_memcpy_kinds_match_profiler_rows(self):
        values = {kind.value for kind in MemcpyKind}
        assert "memcpyHtoD" in values
        assert "memcpyDtoA" in values
        assert "memcpyDtoH" in values


class TestKernelProfiler:
    def _launch(self, profiler, key, seconds):
        """Book one kernel call the way the engine does: into the ledger."""
        profiler.ledger.add(PAPER_KERNELS[key].section, seconds)

    def test_kernel_accumulation(self):
        profiler = KernelProfiler()
        self._launch(profiler, "CCD", 1.0)
        self._launch(profiler, "CCD", 2.0)
        self._launch(profiler, "EvalVDW", 1.0)
        assert profiler.kernel_seconds["[CCD]"] == pytest.approx(3.0)
        assert profiler.kernel_calls["[CCD]"] == 2
        assert profiler.total_kernel_seconds() == pytest.approx(4.0)

    def test_views_read_a_shared_ledger(self):
        ledger = TimingLedger()
        profiler = KernelProfiler(ledger=ledger)
        ledger.add("FitAssg within Complex", 0.5, calls=3)
        assert profiler.kernel_seconds == {"[FitAssg] within Complex": 0.5}
        assert profiler.kernel_calls == {"[FitAssg] within Complex": 3}

    def test_memcpy_accumulation(self):
        profiler = KernelProfiler()
        profiler.ledger.add("memcpyHtoD", 0.01)
        profiler.ledger.add("memcpyHtoD", 0.01)
        profiler.ledger.add("memcpyDtoH", 0.005)
        self._launch(profiler, "CCD", 1.0)
        assert profiler.total_transfer_seconds() == pytest.approx(0.025)
        assert profiler.total_kernel_seconds() == pytest.approx(1.0)
        # Memcpy labels are rows of their own, never kernel columns.
        assert profiler.kernel_calls == {"[CCD]": 1}
        rows = {row.method: row for row in profiler.rows()}
        assert rows["memcpyHtoD"].category == "Mem sync"
        assert rows["memcpyHtoD"].calls == 2

    def test_rows_sorted_and_fractions_sum_to_one(self):
        profiler = KernelProfiler()
        self._launch(profiler, "CCD", 3.0)
        self._launch(profiler, "EvalVDW", 1.0)
        profiler.ledger.add(MemcpyKind.DEVICE_TO_HOST.value, 0.5)
        rows = profiler.rows()
        assert rows[0].method == "[CCD]"
        assert rows[0].category == "Kernel"
        assert sum(row.fraction for row in rows) == pytest.approx(1.0)

    def test_kernel_fraction(self):
        profiler = KernelProfiler()
        self._launch(profiler, "CCD", 3.0)
        self._launch(profiler, "EvalVDW", 1.0)
        assert profiler.kernel_fraction("[CCD]") == pytest.approx(0.75)
        assert profiler.kernel_fraction("[EvalTRIP]") == 0.0

    def test_render_contains_table_ii_vocabulary(self):
        profiler = KernelProfiler()
        self._launch(profiler, "CCD", 1.0)
        profiler.ledger.add(MemcpyKind.DEVICE_TO_ARRAY.value, 0.1)
        text = profiler.render()
        assert "[CCD]" in text
        assert "memcpyDtoA" in text
        assert "Mem sync" in text

    def test_keep_launches_flag(self):
        launch = KernelLaunch(spec=PAPER_KERNELS["CCD"], population_size=128, blocks=1)
        profiler = KernelProfiler(keep_launches=True)
        profiler.record_launch(launch)
        assert profiler.launches == [launch]
        default_profiler = KernelProfiler()
        default_profiler.record_launch(launch)
        assert default_profiler.launches == []


class TestSIMTEngine:
    def test_launch_runs_function_and_profiles(self):
        engine = SIMTEngine()
        result = engine.launch(
            PAPER_KERNELS["EvalVDW"], 256, lambda x: x * 2, np.arange(4)
        )
        np.testing.assert_array_equal(result, [0, 2, 4, 6])
        assert engine.profiler.kernel_calls["[EvalVDW]"] == 1
        assert engine.profiler.kernel_seconds["[EvalVDW]"] > 0.0
        # The launch was timed once, as a section of the profiler's ledger.
        record = engine.profiler.ledger.records["EvalVDW"]
        assert record.calls == 1
        assert record.total_seconds == engine.profiler.kernel_seconds["[EvalVDW]"]

    def test_launch_rejects_empty_population(self):
        engine = SIMTEngine()
        with pytest.raises(ValueError):
            engine.launch(PAPER_KERNELS["CCD"], 0, lambda: None)

    def test_memcpy_accepts_arrays_and_byte_counts(self):
        engine = SIMTEngine()
        engine.memcpy(MemcpyKind.HOST_TO_DEVICE, np.zeros(1000))
        engine.memcpy(MemcpyKind.DEVICE_TO_HOST, 4096)
        records = engine.profiler.ledger.records
        assert records["memcpyHtoD"].total_seconds == _modelled(8000)
        assert records["memcpyDtoH"].total_seconds == _modelled(4096)
        with pytest.raises(ValueError):
            engine.memcpy(MemcpyKind.DEVICE_TO_HOST, -1)

    def test_transfer_time_scales_with_size(self):
        engine = SIMTEngine()
        engine.memcpy(MemcpyKind.HOST_TO_DEVICE, 10)
        small = engine.profiler.ledger.records["memcpyHtoD"].total_seconds
        engine.memcpy(MemcpyKind.HOST_TO_DEVICE, 10_000_000)
        total = engine.profiler.ledger.records["memcpyHtoD"].total_seconds
        assert total - small > small

    def test_upload_tables_records_texture_transfers(self, knowledge_base):
        engine = SIMTEngine()
        engine.upload_tables(knowledge_base.triplet_neg_log, knowledge_base.distance_neg_log)
        record = engine.profiler.ledger.records["memcpyHtoA"]
        assert record.calls == 2
        assert record.total_seconds == (
            _modelled(knowledge_base.triplet_neg_log.nbytes)
            + _modelled(knowledge_base.distance_neg_log.nbytes)
        )

    def test_upload_constants_respects_capacity(self):
        engine = SIMTEngine()
        engine.upload_constants(1024)
        with pytest.raises(ValueError):
            engine.upload_constants(GTX280.constant_memory_bytes + 1)

    def test_kernel_occupancy_applies_register_limit(self):
        engine = SIMTEngine(register_limit=32)
        heavy = KernelSpec("heavy", registers_per_thread=64)
        result = engine.kernel_occupancy(heavy)
        # Capped at 32 registers, so occupancy matches the 32-register kernels.
        assert result.occupancy == pytest.approx(0.50)
