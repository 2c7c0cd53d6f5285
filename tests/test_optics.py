import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ghostsim import (
    ArmPath,
    Grid1D,
    Lens,
    Propagate,
    SamplingError,
    SetupGeometry,
    TransmissionMask,
    make_double_slit,
    make_slit,
    validate_sampling,
)
from ghostsim import optics
from ghostsim.experiment import build_arms
from ghostsim.optics import _transfer_function, apply_path_block, lens_phase, propagate_block

from conftest import ELEMENTS, PATHS, SMALL_GRID, one_slit

WL = 633e-9


def gaussian_field(grid, w0=100e-6):
    x = grid.coords()
    return np.exp(-(x**2) / w0**2).astype(complex)


def power(amplitude, grid):
    """Total power sum(|E|^2)*dx."""
    return float((np.abs(amplitude) ** 2).sum() * grid.dx)


def propagate(amplitude, grid, z):
    """One checked free-space hop, as an arm path runs it."""
    return apply_path_block(amplitude, grid, WL, ArmPath((Propagate(z),)))


@pytest.fixture(scope="module")
def g4096():
    return Grid1D(n=4096, dx=2e-6)


class TestFresnelPropagate:
    def test_zero_distance_identity(self, g4096):
        f = gaussian_field(g4096)
        out = propagate(f, g4096, 0.0)
        assert np.array_equal(out, f)

    def test_plane_wave_gains_global_phase_only(self, g4096):
        f = np.ones(g4096.n, complex)
        z = 100e-3
        out = propagate(f, g4096, z)
        expected = np.exp(2j * np.pi * z / WL)
        assert np.abs(out - expected).max() < 1e-9

    def test_gaussian_waist_law(self, g4096):
        # analytic beam oracle: w(z) = w0*sqrt(1+(lambda z/(pi w0^2))^2)
        w0, z = 100e-6, 50e-3
        f = gaussian_field(g4096, w0)
        out = propagate(f, g4096, z)
        intensity = np.abs(out) ** 2
        x = g4096.coords()
        w_fit = 2 * np.sqrt((x**2 * intensity).sum() / intensity.sum())
        w_true = w0 * np.sqrt(1 + (WL * z / (np.pi * w0**2)) ** 2)
        assert abs(w_fit - w_true) / w_true < 0.005

    def test_direct_summation_oracle(self):
        # the FFT path must equal a direct O(n^2) evaluation of the same
        # discrete circular convolution
        grid = Grid1D(n=128, dx=10e-6)
        z = 30e-3
        rng = np.random.default_rng(7)
        amp = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        out = propagate_block(amp, grid, WL, z)

        H = _transfer_function(grid.n, grid.dx, WL, z)
        nu = grid.frequencies()
        n = grid.n
        kernel = np.array(
            [(H * np.exp(2j * np.pi * nu * (l * grid.dx))).sum() / n for l in range(n)]
        )
        direct = np.array(
            [sum(amp[q] * kernel[(l - q) % n] for q in range(n)) for l in range(n)]
        )
        rel = np.linalg.norm(direct - out) / np.linalg.norm(out)
        assert rel < 1e-10

    def test_energy_conserved(self, g4096):
        f = gaussian_field(g4096)
        out = propagate(f, g4096, 150e-3)
        assert abs(power(out, g4096) - power(f, g4096)) / power(f, g4096) < 1e-10

    def test_composition(self, g4096):
        f = gaussian_field(g4096)
        one = propagate(f, g4096, 130e-3)
        two = propagate(propagate(f, g4096, 60e-3), g4096, 70e-3)
        rel = np.linalg.norm(one - two) / np.linalg.norm(one)
        assert rel < 1e-10

    def test_refuses_unresolvable_chirp(self):
        grid = Grid1D(n=64, dx=0.25e-3)
        with pytest.raises(SamplingError):
            propagate(np.ones(grid.n, complex), grid, 337e-3)

    def test_each_distinct_hop_is_checked_once_and_a_refused_one_every_time(self, monkeypatch):
        checks = []

        def counting(*args):
            checks.append(args[2])
            return validate_sampling(*args)

        monkeypatch.setattr(optics, "validate_sampling", counting)
        z = 0.2718281828  # a hop no other test runs, so the cache starts without it
        for _ in range(3):
            propagate(np.ones(SMALL_GRID.n, complex), SMALL_GRID, z)
        assert checks == [z]
        grid = Grid1D(n=64, dx=0.25e-3)  # 337 mm is below its chirp bound
        for _ in range(2):
            with pytest.raises(SamplingError, match="chirp bound"):
                propagate(np.ones(grid.n, complex), grid, 337e-3)
        assert checks == [z, 337e-3, 337e-3]

    def test_refuses_hop_whose_band_limit_keeps_only_dc(self):
        z2 = SMALL_GRID.span**2 / (2 * WL)  # window Fresnel number L^2/(lambda z) = 2
        H = _transfer_function(SMALL_GRID.n, SMALL_GRID.dx, WL, 1.01 * z2)
        assert np.flatnonzero(H).tolist() == [0]  # the band limit passes only DC
        with pytest.raises(SamplingError, match="Fresnel number"):
            propagate(np.ones(SMALL_GRID.n, complex), SMALL_GRID, 1.01 * z2)
        H = _transfer_function(SMALL_GRID.n, SMALL_GRID.dx, WL, 0.99 * z2)
        assert np.flatnonzero(H).tolist() == [0, 1, SMALL_GRID.n - 1]  # DC and +-1/L
        propagate(np.ones(SMALL_GRID.n, complex), SMALL_GRID, 0.99 * z2)

    @settings(max_examples=200, deadline=None)
    @given(log2n=st.integers(1, 12), dx=st.floats(1e-7, 1e-3), wavelength=st.floats(2e-7, 2e-6),
           log_nf=st.floats(-1, 2))
    @example(log2n=11, dx=8e-6, wavelength=633e-9, log_nf=np.log10(1.5))  # a = 282.5 m
    def test_fresnel_check_passes_exactly_the_hops_that_keep_more_than_dc(
        self, log2n, dx, wavelength, log_nf
    ):
        grid = Grid1D(n=2**log2n, dx=dx)
        z = grid.span**2 / (wavelength * 10**log_nf)  # window Fresnel number 10^log_nf
        report = validate_sampling(grid, wavelength, z)
        assume(abs(report.fresnel_number / 2 - 1) > 1e-9)
        H = _transfer_function(grid.n, grid.dx, wavelength, z)
        assert report.fresnel_ok == bool(np.any(H[1:] != 0))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            Propagate(-0.1)


class TestLens:
    def test_focal_spot_of_plane_wave(self):
        # plane wave -> lens -> focal plane: sinc^2 with first zero at lambda*f/L
        grid = Grid1D(n=2048, dx=2e-6)
        f_len = 150e-3
        path = ArmPath((Lens(f_len), Propagate(f_len)))
        focused = apply_path_block(np.ones(grid.n, complex), grid, WL, path)
        intensity = np.abs(focused) ** 2
        ipk = int(np.argmax(intensity))
        assert grid.coords()[ipk] == pytest.approx(0.0, abs=grid.dx)
        zero_pred = WL * f_len / grid.span
        search = intensity[ipk : ipk + int(2 * zero_pred / grid.dx)]
        first_zero = np.argmin(search) * grid.dx
        assert abs(first_zero - zero_pred) <= 2 * grid.dx

    def test_power_conserved_exactly(self, g4096):
        f = gaussian_field(g4096)
        out = f * lens_phase(g4096, WL, 85e-3)
        assert power(out, g4096) == pytest.approx(power(f, g4096), rel=1e-14)

    def test_infinite_focal_length_is_identity(self, g4096):
        f = gaussian_field(g4096)
        out = f * lens_phase(g4096, WL, 1e12)
        assert np.abs(out - f).max() < 1e-12

    def test_inverse_pair(self, g4096):
        f = gaussian_field(g4096)
        out = f * lens_phase(g4096, WL, 85e-3) * lens_phase(g4096, WL, -85e-3)
        assert np.abs(out - f).max() < 1e-12

    def test_zero_focal_length_rejected(self):
        with pytest.raises(ValueError):
            Lens(0.0)


class TestMaskAndSplitter:
    def test_all_ones_identity(self, g4096):
        f = gaussian_field(g4096)
        m = make_slit(g4096, 0.0, g4096.span)
        out = apply_path_block(f, g4096, WL, ArmPath((m,)))
        assert np.array_equal(out, f)

    def test_all_zeros(self, g4096):
        from ghostsim import TransmissionMask

        f = gaussian_field(g4096)
        m = TransmissionMask(g4096, np.zeros(g4096.n))
        assert power(apply_path_block(f, g4096, WL, ArmPath((m,))), g4096) == 0.0

    def test_slit_power_ratio_is_open_fraction(self, g4096):
        f = np.ones(g4096.n, complex)
        m = make_slit(g4096, 0.0, 0.2e-3)
        open_fraction = np.abs(m.t).sum().real / g4096.n
        out = apply_path_block(f, g4096, WL, ArmPath((m,)))
        assert power(out, g4096) / power(f, g4096) == pytest.approx(open_fraction, rel=1e-12)

    def test_mask_twice_equals_t_squared_once(self, g4096):
        from ghostsim import TransmissionMask

        f = gaussian_field(g4096)
        t = np.linspace(0, 1, g4096.n)
        m = TransmissionMask(g4096, t)
        m2 = TransmissionMask(g4096, t**2)
        twice = apply_path_block(f, g4096, WL, ArmPath((m, m)))
        once = apply_path_block(f, g4096, WL, ArmPath((m2,)))
        assert np.abs(twice - once).max() < 1e-15

    def test_grid_mismatch_rejected(self, g4096):
        other = Grid1D(n=2048, dx=2e-6)
        path = ArmPath((make_slit(other, 0.0, 0.2e-3),))
        with pytest.raises(ValueError):
            apply_path_block(gaussian_field(g4096), g4096, WL, path)


class TestRunArm:
    def test_empty_path_identity(self, g4096):
        f = gaussian_field(g4096)
        out = apply_path_block(f, g4096, WL, ArmPath(()))
        assert np.array_equal(out, f)

    def test_linearity(self, g4096):
        path = ArmPath((Propagate(100e-3), Lens(85e-3), Propagate(150e-3)))
        x = g4096.coords()
        f1 = np.exp(-(x**2) / (80e-6) ** 2).astype(complex)
        f2 = np.exp(-((x - 0.3e-3) ** 2) / (120e-6) ** 2) * 1j
        alpha, beta = 0.7, -1.3 + 0.4j
        lhs = apply_path_block(alpha * f1 + beta * f2, g4096, WL, path)
        rhs = alpha * apply_path_block(f1, g4096, WL, path) + beta * apply_path_block(
            f2, g4096, WL, path
        )
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10

    def test_energy_conserved_through_masked_free_path(self, g4096):
        # beam stays well inside the window: propagation and lens are unitary
        path = ArmPath((Propagate(213e-3), Lens(85e-3), Propagate(270e-3)))
        f = gaussian_field(g4096)
        out = apply_path_block(f, g4096, WL, path)
        assert abs(power(out, g4096) - power(f, g4096)) / power(f, g4096) < 1e-10

    def test_bench_arm_orders(self, g4096, geometry):
        obj = make_slit(g4096, 0.0, 0.2e-3)
        arm1 = ArmPath((Propagate(geometry.z_source_object), obj))
        f = gaussian_field(g4096, w0=150e-6)
        out = apply_path_block(f, g4096, WL, arm1)
        assert power(out, g4096) < power(f, g4096)
        assert power(out, g4096) > 0

    def test_path_element_validation(self):
        with pytest.raises(ValueError):
            Propagate(-1.0)
        with pytest.raises(ValueError):
            Lens(0.0)
        with pytest.raises(TypeError):
            ArmPath(("not-an-element",))

    def test_block_rows_run_independently(self, g4096):
        # a (B, n) stack equals its rows run one at a time
        path = ArmPath((Propagate(100e-3), Lens(85e-3), Propagate(150e-3)))
        x = g4096.coords()
        rows = np.stack([gaussian_field(g4096), np.exp(-((x - 0.2e-3) ** 2) / (60e-6) ** 2)])
        block = apply_path_block(rows, g4096, WL, path)
        for row, out in zip(rows, block):
            single = apply_path_block(row, g4096, WL, path)
            assert np.linalg.norm(out - single) / np.linalg.norm(single) < 1e-12


class TestCallersArray:
    """apply_path_block never writes an array its caller passed in, unless
    the caller hands it over as out; every result equals the out-of-place
    form bit for bit."""

    @staticmethod
    def _out_of_place(a, path):
        for el in path:
            if isinstance(el, Propagate):
                if el.distance:
                    H = _transfer_function(SMALL_GRID.n, SMALL_GRID.dx, WL, el.distance)
                    a = np.fft.ifft(np.fft.fft(a, axis=-1) * H, axis=-1)
            elif isinstance(el, Lens):
                a = a * lens_phase(SMALL_GRID, WL, el.focal_length)
            else:
                a = a * el.t
        return a

    @settings(max_examples=60, deadline=None)
    @given(path=PATHS, real=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(ArmPath(()), False, 0)
    @example(ArmPath(()), True, 0)
    @example(ArmPath((one_slit(900, 200), Lens(0.1), Propagate(0.3))), True, 1)
    @example(ArmPath((Propagate(0.0), Lens(-0.2))), True, 2)
    def test_path_leaves_the_callers_array_alone(self, path, real, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, SMALL_GRID.n))
        if not real:
            a = a + 1j * rng.standard_normal((3, SMALL_GRID.n))
        before = a.copy()
        expected = self._out_of_place(before, path)
        got = apply_path_block(a, SMALL_GRID, WL, path)
        assert np.array_equal(a, before) and a.dtype == before.dtype
        assert np.array_equal(got, expected)
        other = np.empty(a.shape, dtype=complex)  # a separate out: a is copied into it first
        assert apply_path_block(a, SMALL_GRID, WL, path, out=other) is other
        assert np.array_equal(other, expected) and np.array_equal(a, before)
        handed = before.astype(complex)  # handed over: the result is written into it
        assert apply_path_block(handed, SMALL_GRID, WL, path, out=handed) is handed
        assert np.array_equal(handed, expected)

    def test_lens_phase_is_cached_and_read_only(self, g4096):
        phase = lens_phase(g4096, WL, 85e-3)
        assert lens_phase(g4096, WL, 85e-3) is phase
        assert not phase.flags.writeable
        # lru_cache keeps no exception: a refused focal length raises on every call
        for _ in range(2):
            with pytest.raises(ValueError, match="lens phase is not finite"):
                lens_phase(g4096, WL, 1e-307)
        assert lens_phase(g4096, WL, 85e-3) is phase


class TestReciprocity:
    """Every element is symmetric (the band-limited transfer function is even
    in frequency, lenses and masks are pointwise), so a path transposed is
    its reversed path: y^T P x = x^T P_reversed y, with no conjugate.  For a
    single element that is y^T P x = x^T P y.  mode_decomposition's
    detector-side build rests on this."""

    @settings(max_examples=100, deadline=None)
    @given(path=ELEMENTS.map(lambda el: ArmPath((el,))) | PATHS,
           seed=st.integers(0, 2**32 - 1))
    def test_path_transposed_is_the_reversed_path(self, path, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, SMALL_GRID.n)) + 1j * rng.standard_normal((2, SMALL_GRID.n))
        reverse = ArmPath(path.elements[::-1])
        lhs = (y * apply_path_block(x, SMALL_GRID, WL, path)).sum()
        rhs = (x * apply_path_block(y, SMALL_GRID, WL, reverse)).sum()
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * scale)


def _adjoint(path, y):
    """P^dagger y on SMALL_GRID: each element's adjoint, last element first.
    A hop's adjoint is propagation by -z, a lens's the lens of focal length
    -f, a mask's the conjugate transmittance."""
    for el in reversed(path.elements):
        if isinstance(el, Propagate):
            y = propagate_block(y, SMALL_GRID, WL, -el.distance)
        elif isinstance(el, Lens):
            y = apply_path_block(y, SMALL_GRID, WL, ArmPath((Lens(-el.focal_length),)))
        else:
            y = y * el.t.conj()
    return y


_CHIRP = np.exp(1j * np.linspace(0, 40, SMALL_GRID.n) ** 1.5)
_PHASE_MASK = TransmissionMask(SMALL_GRID, 0.9 * _CHIRP * one_slit(600, 800).t)
_BENCH = SetupGeometry.default()


class TestAdjoint:
    """<P x, y> = <x, P^dagger y> for every element and composed arm, with
    P^dagger as _adjoint builds it.  A compressed source basis needs this."""

    @settings(max_examples=60, deadline=None)
    @given(path=ELEMENTS.map(lambda el: ArmPath((el,))) | PATHS,
           seed=st.integers(0, 2**32 - 1))
    @example(path=ArmPath((Propagate(0.3),)), seed=1)
    @example(path=ArmPath((Lens(0.085),)), seed=2)
    @example(path=ArmPath((_PHASE_MASK,)), seed=3)
    @example(path=build_arms(_BENCH, make_double_slit(SMALL_GRID, 1e-3, 0.2e-3))[0], seed=4)
    @example(path=build_arms(_BENCH, make_double_slit(SMALL_GRID, 1e-3, 0.2e-3))[1], seed=5)
    def test_inner_product_moves_to_the_adjoint(self, path, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, SMALL_GRID.n)) + 1j * rng.standard_normal((2, SMALL_GRID.n))
        lhs = np.vdot(apply_path_block(x, SMALL_GRID, WL, path), y)
        rhs = np.vdot(x, _adjoint(path, y))
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * scale)
