"""The compiled host draws reproduce numpy's draws bit for bit.

``sample_rows`` (the Ramachandran basin draws) and ``mutate_rows``
([Reproduction]) draw from the caller's generator through numpy's own
compiled samplers.  Each is run three ways -- compiled, the no-compiler
route (``native._library`` patched to ``None``, the Python loops in
``src``) and the scalar-numpy oracle ``tests/host_oracle.py`` -- and the
three must give equal arrays and leave the generator in an equal
``bit_generator.state``: at smoothness 0 and 0.3, basin-hop probability
0 and 1, every ``n_angles`` from 1 to 2n, every residue type, and
populations of 1, 64 and 7,680.  The Floyd ``choice`` pass is swept
against ``Generator.choice`` on every ``(n, k)`` with ``n <= 48``.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np
import pytest

import host_oracle as oracle
from repro import native
from repro.loops.ramachandran import (
    RamachandranModel,
    _sequence_tables,
    sample_basin,
    sample_loop_torsions,
)
from repro.geometry.vectors import wrap_angle
from repro.loops.targets import get_target
from repro.moscem.mutation import MAX_TORSIONS, mutate_population, mutate_torsions

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
PAPER_SEQUENCE = get_target("1cex(40:51)").sequence


@pytest.fixture(scope="module")
def lib():
    compiled = native.library()
    if compiled is None:
        pytest.skip("no working C compiler")
    return compiled


@pytest.fixture()
def three_routes(lib, monkeypatch):
    """``run(draw, reference, seed)``: ``draw`` compiled and on the
    no-compiler route and ``reference`` (the oracle), each on a fresh
    generator of ``seed``; asserts equal outputs and end states."""

    def run(draw, reference, seed):
        outputs, states = [], []
        for route in ("compiled", "numpy", "oracle"):
            rng = np.random.default_rng(seed)
            with monkeypatch.context() as patch:
                patch.setattr(native, "_library", None if route == "numpy" else lib)
                got = (reference if route == "oracle" else draw)(rng)
            outputs.append(np.concatenate([np.ravel(part) for part in got]))
            states.append(rng.bit_generator.state)
        for route, output, state in zip(("numpy", "oracle"), outputs[1:], states[1:]):
            assert outputs[0].tobytes() == output.tobytes(), route
            assert states[0] == state, route
        return outputs[0]

    return run


def population(sequence, size, seed, smoothness=0.3):
    return RamachandranModel(smoothness).sample_population(
        sequence, size, np.random.default_rng(seed)
    )


class TestBasinDraws:
    @pytest.mark.parametrize("smoothness", [0.0, 0.3])
    @pytest.mark.parametrize("size", [1, 64, 7680])
    def test_population(self, three_routes, smoothness, size):
        model = RamachandranModel(smoothness=smoothness)
        for seed in range(2 if size < 7680 else 1):
            three_routes(
                lambda rng: [model.sample_population(PAPER_SEQUENCE, size, rng)],
                lambda rng: [oracle.sample_population(PAPER_SEQUENCE, size, rng, smoothness)],
                seed,
            )

    @pytest.mark.parametrize("smoothness", [0.0, 0.3])
    def test_every_residue_type(self, three_routes, smoothness):
        for sequence in (ALPHABET, "G", "PPGGPPGG"):
            three_routes(
                lambda rng: [sample_loop_torsions(sequence, rng, smoothness)],
                lambda rng: [oracle.sample_loop_torsions(sequence, rng, smoothness)],
                7,
            )

    @pytest.mark.parametrize("aa", ALPHABET)
    def test_single_pairs(self, three_routes, aa):
        three_routes(
            lambda rng: [sample_basin(aa, rng) for _ in range(20)]
            + [RamachandranModel().sample_pairs(aa, 30, rng)],
            lambda rng: [oracle.sample_basin(aa, rng) for _ in range(20)]
            + [oracle.sample_pairs(aa, 30, rng)],
            3,
        )

    def test_a_residue_type_is_not_validated(self, three_routes):
        # ramachandran_basins gives every code but "G" and "P" the
        # generic basins; the pair forms never validated their residue.
        three_routes(
            lambda rng: [sample_basin("g", rng), sample_basin("X", rng)],
            lambda rng: [oracle.sample_basin("g", rng), oracle.sample_basin("X", rng)],
            4,
        )


class ScriptedBits(ctypes.Structure):
    """A ``bitgen_t`` whose ``next_double`` plays a script and whose
    integer draws are all 0, so numpy's ``random_normal`` returns its
    ``loc`` (the ziggurat's first strip accepts ``x = 0``)."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
        ("next_uint32", ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)),
        ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
        ("next_raw", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
    ]

    def __init__(self, values):
        script = iter(values)
        zero = lambda _state: 0  # noqa: E731
        super().__init__(
            None,
            self._fields_[1][1](zero),
            self._fields_[2][1](zero),
            self._fields_[3][1](lambda _state: next(script)),
            self._fields_[4][1](zero),
        )


class ScriptedGenerator(np.random.Generator):
    """The Python-route twin of :class:`ScriptedBits`."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self._script = iter(values)

    def random(self, size=None, dtype=np.float64, out=None):
        return next(self._script)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc


@pytest.mark.parametrize("smoothness", [0.0, 0.25, 0.5])
def test_uniform_draws_on_a_cumulative_weight(lib, smoothness):
    # Glycine's four basins weigh 0.25 each: 0.25, 0.5 and 0.75 are both
    # exact uniforms and exact cumulative weights (the lookup counts
    # cdf <= u), and 0.25 / 0.5 also equal the smoothness (a basin is
    # re-used only below it).
    sequence = "GGGGAGPG"
    values = [0.25, 0.5, 0.75, 0.0, 0.5, 0.25] * 8
    rows = 3
    expected = RamachandranModel(smoothness).sample_population(
        sequence, rows, ScriptedGenerator(values)
    )
    offset, size, cdf, params = _sequence_tables(sequence)
    got = np.empty_like(expected)
    bits = ScriptedBits(values)
    lib.sample_rows(
        ctypes.addressof(bits), rows, len(sequence), offset.ctypes.data,
        size.ctypes.data, cdf.ctypes.data, params.ctypes.data, smoothness,
        got.ctypes.data,
    )
    assert got.tobytes() == expected.tobytes()
    assert len(set(expected[0].tolist())) > 2  # the script reached several basins


def test_wrap_at_the_half_open_edges(lib):
    # One single-basin residue per edge case; with every normal draw at
    # its loc, the pass returns wrap_angle of the basin means.
    means = np.array([-np.pi, np.pi, 3 * np.pi, -3 * np.pi, np.nextafter(-np.pi, 0), 7.0, 0.0, 1e9])
    n = len(means) // 2
    params = np.column_stack([means[0::2], means[1::2], np.ones(n), np.ones(n)])
    offset, size, cdf = np.arange(n), np.ones(n, dtype=np.int64), np.ones(n)
    got = np.empty(2 * n)
    bits = ScriptedBits([0.5] * 2 * n)
    lib.sample_rows(
        ctypes.addressof(bits), 1, n, offset.ctypes.data, size.ctypes.data,
        cdf.ctypes.data, params.ctypes.data, 0.0, got.ctypes.data,
    )
    assert got.tobytes() == wrap_angle(means).tobytes()


class TestMutation:
    @pytest.mark.parametrize("hop", [0.0, 1.0])
    @pytest.mark.parametrize("smoothness", [0.0, 0.3])
    def test_every_angle_count(self, three_routes, hop, smoothness):
        torsions = population(ALPHABET, 64, 1, smoothness)
        for n_angles in range(1, 2 * len(ALPHABET) + 1):
            three_routes(
                lambda rng: mutate_population(
                    torsions, ALPHABET, rng, n_angles=n_angles, basin_hop_probability=hop
                ),
                lambda rng: oracle.mutate_population(
                    torsions, ALPHABET, rng, n_angles=n_angles, basin_hop_probability=hop
                ),
                n_angles,
            )

    @pytest.mark.parametrize("size", [1, 64, 7680])
    @pytest.mark.parametrize("hop", [0.0, 0.3, 1.0])
    def test_population_sizes(self, three_routes, size, hop):
        torsions = population(PAPER_SEQUENCE, size, 2)
        starts = three_routes(
            lambda rng: mutate_population(
                torsions, PAPER_SEQUENCE, rng, basin_hop_probability=hop
            ),
            lambda rng: oracle.mutate_population(
                torsions, PAPER_SEQUENCE, rng, basin_hop_probability=hop
            ),
            9,
        )[-size:]
        assert starts.min() >= 1 and starts.max() <= 2 * len(PAPER_SEQUENCE) - 1

    def test_single_row_form(self, three_routes):
        torsions = population(ALPHABET, 1, 3)[0]

        def rows(mutate):
            def draw(rng):
                results = [mutate(torsions, ALPHABET, rng, n_angles=3) for _ in range(40)]
                return [part for mutated, start in results for part in (mutated, [start])]
            return draw

        three_routes(rows(mutate_torsions), rows(oracle.mutate_torsions), 5)

    def test_sigma_and_angles_out_of_range(self, three_routes):
        torsions = population("GAP", 16, 4)
        for kwargs in (dict(sigma=0.0), dict(sigma=25.0), dict(n_angles=0), dict(n_angles=99)):
            three_routes(
                lambda rng: mutate_population(torsions, "GAP", rng, **kwargs),
                lambda rng: oracle.mutate_population(torsions, "GAP", rng, **kwargs),
                6,
            )

    @pytest.mark.parametrize("route", ["compiled", "numpy"])
    def test_rejects_what_the_pass_cannot_draw(self, lib, monkeypatch, route):
        if route == "numpy":
            monkeypatch.setattr(native, "_library", None)
        rng = np.random.default_rng(0)
        residues = MAX_TORSIONS // 2 + 1  # numpy's choice would tail-shuffle
        with pytest.raises(ValueError):
            mutate_population(np.zeros((1, 2 * residues)), "A" * residues, rng)
        with pytest.raises(ValueError):
            mutate_population(np.zeros((2, 6)), "GA", rng)
        with pytest.raises(ValueError):
            mutate_population(np.zeros((2, 6)), "GAP", rng, sigma=-1.0)
        with pytest.raises(ValueError):
            mutate_population(np.zeros(6), "GAP", rng)
        state = np.random.default_rng(0).bit_generator.state
        assert rng.bit_generator.state == state  # rejected before any draw
        residues = MAX_TORSIONS // 2
        mutate_population(np.zeros((2, 2 * residues)), "A" * residues, rng)

    def test_holds_the_generator_lock(self, lib):
        rng = np.random.default_rng(0)
        torsions = population(PAPER_SEQUENCE, 8, 0)
        done = threading.Event()
        worker = threading.Thread(
            target=lambda: (mutate_population(torsions, PAPER_SEQUENCE, rng), done.set())
        )
        with rng.bit_generator.lock:
            worker.start()
            assert not done.wait(0.2)
        worker.join()
        assert done.is_set()


def test_floyd_choice_matches_generator_choice(lib):
    slots = np.empty(64, dtype=np.uint64)
    for seed in range(6):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(1, 49):
            for k in range(1, n + 1):
                idx = np.empty(k, dtype=np.int64)
                with native.bit_generator(ours) as bits:
                    lib.choose(bits, n, k, slots.ctypes.data, idx.ctypes.data)
                expected = numpys.choice(n, size=k, replace=False)
                assert idx.tolist() == expected.tolist(), (seed, n, k)
        assert ours.bit_generator.state == numpys.bit_generator.state


def test_generator_subclass_takes_the_numpy_route(lib):
    class Scripted(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            return 0.0  # every mutation hops; every basin is the first

    torsions = population("GAP", 4, 0)
    rng = Scripted(np.random.PCG64(1))
    expected_rng = Scripted(np.random.PCG64(1))
    mutated, starts = mutate_population(torsions, "GAP", rng, basin_hop_probability=0.5)
    expected = oracle.mutate_population(torsions, "GAP", expected_rng, basin_hop_probability=0.5)
    assert mutated.tobytes() == expected[0].tobytes()
    assert starts.tolist() == expected[1].tolist()
    assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestBuild:
    def test_archive_hash_names_a_new_library(self, lib, tmp_path, monkeypatch):
        compiler = native._compiler()
        archive = tmp_path / "libnpyrandom.a"
        archive.write_bytes(native._archive().read_bytes())
        monkeypatch.setattr(native, "_archive", lambda: archive)
        name = native._library_name(compiler)
        archive.write_bytes(archive.read_bytes() + b"\0")
        assert native._library_name(compiler) != name
        monkeypatch.setattr(native.np, "__version__", "0.0.0")
        assert len({name, native._library_name(compiler)}) == 2

    def test_missing_archive_runs_the_numpy_forms(self, lib, tmp_path, monkeypatch):
        logged = []
        monkeypatch.setattr(native, "_library", native._UNSET)
        monkeypatch.setattr(native, "_archive", lambda: tmp_path / "libnpyrandom.a")
        monkeypatch.setattr(native._LOG, "warning", lambda *args: logged.append(args))
        torsions = population(PAPER_SEQUENCE, 32, 1)
        got = [
            mutate_population(torsions, PAPER_SEQUENCE, np.random.default_rng(3)),
            RamachandranModel().sample_population(PAPER_SEQUENCE, 32, np.random.default_rng(3)),
        ]
        assert native.library() is None
        assert len(logged) == 1  # logged once, not per call
        monkeypatch.setattr(native, "_library", lib)
        want = [
            mutate_population(torsions, PAPER_SEQUENCE, np.random.default_rng(3)),
            RamachandranModel().sample_population(PAPER_SEQUENCE, 32, np.random.default_rng(3)),
        ]
        assert got[0][0].tobytes() == want[0][0].tobytes()
        assert got[0][1].tobytes() == want[0][1].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
