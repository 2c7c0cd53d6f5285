import numpy as np
import pytest
from scipy import stats

from ghostsim import ArmPath, EnsembleConfig, Propagate, mode_decomposition
from ghostsim.source import aperture_indices, sample_source_block

from conftest import make_config


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


class TestModeDecomposition:
    def test_zero_length_arms_return_basis(self, grid, geometry):
        config = make_config(grid, geometry, n_realizations=8)
        modes = mode_decomposition(config, ArmPath(()), ArmPath(()))
        assert len(modes) == 100
        j = 11
        expected = np.zeros(grid.n, complex)
        expected[modes.indices[j]] = 1.0
        assert np.array_equal(modes.g1[j], expected)
        assert np.array_equal(modes.g2[j], expected)

    def test_mode_sum_matches_monte_carlo_intensity(self, grid, geometry):
        # sum_q |g1(x,q)|^2 must equal the ensemble <I1(x)> within MC error
        n_real = 4000
        config = make_config(grid, geometry, n_realizations=n_real, seed=7)
        arm = ArmPath((Propagate(geometry.z_source_object),))
        modes = mode_decomposition(config, arm, ArmPath(()))
        analytic = (np.abs(modes.g1) ** 2).sum(axis=0)

        from ghostsim.optics import apply_path_block

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
