import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats

from ghostsim import (
    ArmPath,
    EnsembleConfig,
    Lens,
    Propagate,
    SetupGeometry,
    make_double_slit,
    make_pinhole,
    mode_decomposition,
)
from ghostsim.experiment import build_arms, scan_indices
from ghostsim import optics
from ghostsim.optics import apply_path_block, propagate_block
from ghostsim.source import _plan, aperture_indices, sample_source_block

from conftest import PATHS, SMALL_GRID, make_config, one_slit


@pytest.fixture(scope="module")
def config(grid, geometry):
    return make_config(grid, geometry, n_realizations=10_000, seed=99)


@pytest.fixture(scope="module")
def intensity_stack(config):
    """Intensities on the aperture samples for the first 10^4 realizations."""
    idx = aperture_indices(config)
    amps = sample_source_block(config, 0, config.n_realizations)
    assert amps.shape == (config.n_realizations, len(idx))
    return idx, amps


class TestDeterminism:
    def test_same_seed_and_index_bit_identical(self, config):
        a = sample_source_block(config, 17, 18)
        b = sample_source_block(config, 17, 18)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k0, k1", [(0, 3), (17, 20), (9997, 10000), (63, 65), (5, 200),
                                        (9990, 10000)])
    def test_rows_follow_the_documented_philox_stream(self, config, k0, k1):
        # realization k is row k % 64 of chunk k // 64, one standard_normal
        # call on Philox counter [0, 0, 0, c]; (re, im) pairs interleaved;
        # m wide by default, or as wide as asked (a range factor's draw)
        key = SeedSequence(config.seed).generate_state(2, dtype=np.uint64)
        for width in (None, 32):
            w = len(aperture_indices(config)) if width is None else width
            chunks = {}
            rows = sample_source_block(config, k0, k1, width=width)
            for row, k in zip(rows, range(k0, k1), strict=True):
                c = k // 64
                if c not in chunks:
                    bitgen = Philox(key=key, counter=[0, 0, 0, c])
                    z = Generator(bitgen).standard_normal((64, 2 * w))
                    chunks[c] = (z[:, 0::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)
                assert np.array_equal(row, chunks[c][k % 64]), (width, k)

    @pytest.mark.parametrize("split", [1, 64, 100, 256])
    def test_rows_do_not_depend_on_the_block_split(self, config, split):
        n = 1000
        whole = sample_source_block(config, 0, n)
        for k0 in range(0, n, split):
            block = sample_source_block(config, k0, min(k0 + split, n))
            assert np.array_equal(block, whole[k0 : k0 + split]), k0

    def test_block_matches_single_draws(self, config):
        block = sample_source_block(config, 5, 8)
        for j, k in enumerate(range(5, 8)):
            assert np.array_equal(block[j], sample_source_block(config, k, k + 1)[0])

    def test_different_indices_differ(self, config):
        a = sample_source_block(config, 0, 1)
        b = sample_source_block(config, 1, 2)
        assert not np.array_equal(a, b)

    def test_index_out_of_range(self, config):
        n = config.n_realizations
        with pytest.raises(ValueError):
            sample_source_block(config, n, n + 1)
        with pytest.raises(ValueError):
            sample_source_block(config, 0, n + 1)
        with pytest.raises(ValueError):
            sample_source_block(config, 3, 2)

    def test_order_independent_access(self, config):
        late_first = sample_source_block(config, 100, 101)[0]
        again = sample_source_block(config, 100, 101)[0]
        assert np.array_equal(late_first, again)


class TestApertureAndStatistics:
    def test_mode_count_matches_aperture(self, config):
        # 200 um aperture at 2 um pitch
        assert len(aperture_indices(config)) == 100

    def test_zero_outside_aperture(self, config):
        # a draw holds one amplitude per aperture sample; the field is zero
        # everywhere else on the grid
        idx = aperture_indices(config)
        x = config.grid.coords()[idx]
        radius = config.geometry.source_diameter / 2
        assert np.all((x >= -radius) & (x < radius))
        amp = sample_source_block(config, 3, 4)[0]
        assert amp.shape == (len(idx),)
        assert np.all(amp != 0)

    def test_mean_intensity_flat_on_aperture(self, intensity_stack):
        _, amps = intensity_stack
        mean_i = (np.abs(amps) ** 2).mean(axis=0)
        assert np.abs(mean_i - 1.0).max() < 0.05

    def test_mean_field_is_zero(self, intensity_stack):
        _, amps = intensity_stack
        n = amps.shape[0]
        mean_e = amps.mean(axis=0)
        # each quadrature has stderr 1/sqrt(2n)
        bound = 4.0 / np.sqrt(2 * n)
        assert np.abs(mean_e.real).max() < bound
        assert np.abs(mean_e.imag).max() < bound

    def test_delta_correlated_across_samples(self, intensity_stack):
        _, amps = intensity_stack
        n = amps.shape[0]
        pairs = [(0, 1), (0, 50), (10, 99), (42, 43)]
        for i, j in pairs:
            cov = (amps[:, i] * amps[:, j].conj()).mean()
            assert abs(cov) < 4.0 / np.sqrt(n)

    def test_intensity_exponentially_distributed(self, intensity_stack):
        _, amps = intensity_stack
        samples = np.abs(amps[:, 37]) ** 2
        ks = stats.kstest(samples, "expon", args=(0, samples.mean())).statistic
        assert ks < 0.02

    def test_realization_streams_uncorrelated(self, intensity_stack):
        _, amps = intensity_stack
        x = np.abs(amps[:-1, 7]) ** 2
        y = np.abs(amps[1:, 7]) ** 2
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 3.0 / np.sqrt(len(x))

    def test_config_validation(self, grid, geometry):
        with pytest.raises(ValueError):
            EnsembleConfig(n_realizations=0, seed=1, geometry=geometry, grid=grid)
        with pytest.raises(ValueError):
            EnsembleConfig(n_realizations=10, seed=2**64, geometry=geometry, grid=grid)

    @pytest.mark.parametrize("n_realizations, seed", [(64, 1.5), (64, 1.0), (64.0, 1), (64, "1")])
    def test_config_refuses_a_non_integral_count_or_seed(self, grid, geometry, n_realizations,
                                                         seed):
        # int(1.5) would draw seed 1's stream, and range(64.0) fails only inside a draw
        with pytest.raises(ValueError, match="must be an integer"):
            EnsembleConfig(n_realizations=n_realizations, seed=seed, geometry=geometry, grid=grid)

    def test_config_accepts_numpy_integers(self, grid, geometry):
        config = EnsembleConfig(n_realizations=np.int32(64), seed=np.uint64(7),
                                geometry=geometry, grid=grid)
        assert np.array_equal(sample_source_block(config, 0, 64),
                              sample_source_block(make_config(grid, geometry, 64, 7), 0, 64))


class TestModeDecomposition:
    def test_zero_length_arms_return_basis(self, grid, geometry):
        config = make_config(grid, geometry, n_realizations=8)
        modes = mode_decomposition(config, ArmPath(()), ArmPath(()))
        assert len(modes) == 100
        j = 11
        expected = np.zeros(grid.n, complex)
        expected[aperture_indices(config)[j]] = 1.0
        assert np.array_equal(modes.g1[j], expected)
        assert np.array_equal(modes.g2[j], expected)

    def test_mode_sum_matches_monte_carlo_intensity(self, grid, geometry):
        # sum_q |g1(x,q)|^2 must equal the ensemble <I1(x)> within MC error
        n_real = 4000
        config = make_config(grid, geometry, n_realizations=n_real, seed=7)
        arm = ArmPath((Propagate(geometry.z_source_object),))
        modes = mode_decomposition(config, arm, ArmPath(()))
        analytic = (np.abs(modes.g1) ** 2).sum(axis=0)

        idx = aperture_indices(config)
        total = np.zeros(grid.n)
        for k0 in range(0, n_real, 500):
            block = np.zeros((500, grid.n), complex)
            block[:, idx] = sample_source_block(config, k0, k0 + 500)
            out = apply_path_block(block, grid, geometry.wavelength, arm)
            total += (np.abs(out) ** 2).sum(axis=0)
        mc = total / n_real

        sel = analytic > 0.1 * analytic.max()
        rel = np.abs(mc[sel] - analytic[sel]) / analytic[sel]
        # thermal intensity: per-point stderr is ~1/sqrt(n_real)
        assert np.median(rel) < 3.0 / np.sqrt(n_real) * 2
        assert rel.max() < 6.0 / np.sqrt(n_real) * 2


COLUMNS = st.lists(st.integers(0, SMALL_GRID.n - 1), min_size=1, max_size=64, unique=True)


def _unit_basis_oracle(config, path):
    """The arm run on the explicit unit field of every aperture sample: whole rows."""
    idx = aperture_indices(config)
    basis = np.zeros((len(idx), config.grid.n), dtype=np.complex128)
    basis[np.arange(len(idx)), idx] = 1.0
    return apply_path_block(basis, config.grid, config.geometry.wavelength, path)


@settings(max_examples=60, deadline=None)
@given(arm1=PATHS, arm2=PATHS, columns1=COLUMNS, columns2=COLUMNS, block_size=st.integers(1, 40))
@example(ArmPath(()), ArmPath(()), [0, 1023, 1024], [2047], 7)
@example(ArmPath((one_slit(900, 200), Propagate(0.3))), ArmPath((Lens(0.1), Propagate(0.25))),
         [1000, 1030], [10, 1024, 2000], 512)
@example(ArmPath((Propagate(0.21), Propagate(0.3), Lens(0.085), Propagate(0.27))),
         ArmPath((Propagate(0.3), Lens(-0.2), one_slit(1000, 40))), [1024], [1010, 1024, 1030], 4)
@example(ArmPath((Propagate(0.25), Lens(0.1), Propagate(0.3), one_slit(1000, 64), Lens(0.2))),
         ArmPath((Propagate(0.3), one_slit(1000, 64))), [999, 1000, 1063, 1064], [1024], 9)
# one arm from both sides: fewer kept columns than the m = 25 modes runs it
# reversed, more runs it forward
@example(ArmPath((Propagate(0.21), one_slit(1000, 64), Lens(0.1), Propagate(0.3))),
         ArmPath((Propagate(0.21), one_slit(1000, 64), Lens(0.1), Propagate(0.3))),
         [1000, 1024, 1050], list(range(1000, 1040)), 5)
@example(ArmPath((Propagate(0.25), Lens(-0.1), Propagate(0.3))),
         ArmPath((Propagate(0.25), Lens(-0.1), Propagate(0.3))),
         list(range(990, 1030)), [1010, 1024, 1030], 2)
# mirror pairs, rows r and 2048 - r on one FFT row: kept columns symmetric about
# the axis (11 rows, fewer than the 13 of the 25 modes, run from the reversed
# side); a symmetric slit in the whole-row segment (forward); an off-centre one,
# which must not pair; duplicate kept columns, run once
@example(ArmPath((Propagate(0.25), Lens(0.1), Propagate(0.3))),
         ArmPath((Propagate(0.21), one_slit(1000, 49), Lens(0.1), Propagate(0.3))),
         list(range(1014, 1035)), list(range(990, 1060)), 3)
@example(ArmPath((Propagate(0.21), one_slit(1000, 48), Lens(0.1), Propagate(0.3))),
         ArmPath((Propagate(0.3), Lens(-0.2), Propagate(0.25))),
         list(range(990, 1060)), [1010, 1038, 1010, 1024, 1038, 2047, 1], 2)
# a kept column far below the field's peak (|G| 6e-6 at column 0 against a peak
# of 0.017): oracle and kernel differ there by 1.1e-17, 5.8e-12 of |G| but 6.6e-16
# of the peak, the FFT rounding of whole rows, so atol scales with their peak
@example(ArmPath(()), ArmPath((Propagate(0.25), Lens(0.109375), Propagate(0.5))), [0], [0], 1)
def test_kernel_equals_paths_run_on_the_unit_basis(small_grid, arm1, arm2, columns1, columns2,
                                                   block_size):
    # the oracle propagates every mode; the kernel propagates one impulse
    # through the leading hops and applies trailing lenses and masks per
    # column, from the source side or the detector side (the reversed path)
    config = make_config(small_grid, SetupGeometry(), n_realizations=1)
    modes = mode_decomposition(config, arm1, arm2, block_size,
                               columns1=np.array(columns1), columns2=np.array(columns2))
    for path, columns, g in ((arm1, columns1, modes.g1), (arm2, columns2, modes.g2)):
        rows = _unit_basis_oracle(config, path)
        expected = rows[:, columns]
        if len(path) == 0:
            assert np.array_equal(g, expected)
        else:
            scale = np.abs(rows).max()
            np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("side, kept, half", [("reversed", 75, 38), ("forward", 100, 51)],
                         ids=["reversed", "forward"])
def test_a_scan_window_centred_on_the_axis_runs_half_its_rows(small_grid, geometry, side, kept,
                                                              half, monkeypatch):
    # arm 2's rows pair off as x <-> -x, so half of them reach propagate_block,
    # plus one impulse per arm through its leading hop; _plan, which picks the
    # side, counts the same rows.  Reversed: a defocused plane's 75 kept
    # columns, 37 pairs and the axis, fewer than its 375 modes.  Forward:
    # fig4's lens arm from 100 modes at -50..49 pitches, 49 pairs, the axis
    # and -50 alone, fewer than the 376 rows of a 751-column window.
    if side == "reversed":
        geometry = replace(geometry, source_diameter=3e-3, d_b_prime=geometry.d_b_prime + 0.02)
        obj, x2 = make_pinhole(small_grid, 0.0, 60e-6), scan_indices(small_grid, 0.3e-3)
    else:
        geometry = replace(geometry, source_diameter=0.8e-3)
        obj, x2 = make_double_slit(small_grid, 1e-3, 0.2e-3), scan_indices(small_grid, 3e-3)
    config = make_config(small_grid, geometry, n_realizations=1)
    arm1, arm2 = build_arms(geometry, obj)
    rows = []

    def counting(amplitudes, *args, **kwargs):
        rows.append(amplitudes.size // small_grid.n)
        return propagate_block(amplitudes, *args, **kwargs)

    monkeypatch.setattr(optics, "propagate_block", counting)
    mode_decomposition(config, arm1, arm2, columns1=obj.support_indices(), columns2=x2)
    if side == "reversed":
        arm2, built = ArmPath(arm2.elements[::-1]), x2
    else:
        built = aperture_indices(config)
    assert len(built) == kept and sum(rows) == half + 2
    assert len(_plan(small_grid.n, arm2, built)[2]) == half


@pytest.mark.parametrize("block_size", [None, 64], ids=["default", "64"])
def test_kernel_build_memory_within_the_documented_bound(small_grid, geometry, block_size):
    # mode_decomposition's docstring: the kept kernel plus
    # 16 * n * (2 * block_size + 16) bytes, from either side; with 75 kept
    # columns arm 2 is built reversed, with 751 forward (m = 375 modes)
    if block_size is None:
        block_size = inspect.signature(mode_decomposition).parameters["block_size"].default
    geometry = replace(geometry, source_diameter=3e-3)
    config = make_config(small_grid, geometry, n_realizations=1)
    obj = make_double_slit(small_grid, 1e-3, 0.2e-3)
    arms = build_arms(geometry, obj)
    assert len(aperture_indices(config)) == 375
    for x2 in (scan_indices(small_grid, 0.3e-3), scan_indices(small_grid, 3e-3)):
        tracemalloc.start()
        try:
            modes = mode_decomposition(config, *arms, block_size,
                                       columns1=obj.support_indices(), columns2=x2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = 16 * len(modes) * (len(modes.columns1) + len(modes.columns2))
        assert peak <= kept + 16 * small_grid.n * (2 * block_size + 16), len(x2)
