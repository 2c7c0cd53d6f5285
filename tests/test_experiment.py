import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghostsim import (
    Grid1D,
    SetupGeometry,
    TransmissionMask,
    default_image_window,
    defocus_sweep,
    detector_kernel,
    g2_analytic,
    ghost_image_scan,
    make_double_slit,
    make_pinhole,
    make_slit,
    peak_position,
    predicted_visibility,
    pseudo_object_scan,
    siegert_scan,
    solve_image_plane,
    solve_thin_lens,
    visibility,
)
from ghostsim import optics
from ghostsim.experiment import (
    ImageTrace,
    build_arms,
    eq3_residual,
    fwhm,
    magnification_scale,
    scan_indices,
    speckle_size,
)

from conftest import LAW_BENCHES, make_config


@pytest.fixture(scope="module")
def focused(geometry):
    return solve_image_plane(geometry)


@pytest.fixture(scope="module")
def config(grid, focused):
    return make_config(grid, focused, n_realizations=2)


class TestThinLens:
    def test_solve_image_distance(self):
        sol = solve_thin_lens(s_o=124e-3, f=85e-3)
        assert sol.s_i == pytest.approx(0.27025641025641, rel=1e-12)
        assert sol.magnification == pytest.approx(2.17948717948718, rel=1e-12)

    def test_bench_distances_report_residual(self):
        # as-built distances: slightly off the exact thin-lens surface
        bench = SetupGeometry()
        assert magnification_scale(bench) == pytest.approx(2.165, abs=1e-3)
        f_eff = 1.0 / (1.0 / bench.s_o + 1.0 / bench.d_b_prime)
        assert f_eff == pytest.approx(84.8e-3, abs=0.05e-3)
        assert eq3_residual(bench) == pytest.approx(0.0242, abs=5e-4)
        assert eq3_residual(bench) != 0.0

    def test_symmetric_conjugates(self):
        sol = solve_thin_lens(s_o=170e-3, f=85e-3)
        assert sol.s_i == pytest.approx(170e-3, rel=1e-12)
        assert sol.magnification == pytest.approx(1.0)

    def test_no_real_image_inside_focus(self):
        with pytest.raises(ValueError):
            solve_thin_lens(s_o=80e-3, f=85e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            solve_thin_lens(s_o=-1.0, f=85e-3)

    def test_solved_geometry_has_zero_residual(self, focused):
        assert abs(eq3_residual(focused)) < 1e-12


class TestPredictedVisibility:
    def test_values(self):
        assert predicted_visibility(1) == pytest.approx(1 / 3)
        assert predicted_visibility(2) == pytest.approx(1 / 5)
        assert predicted_visibility(100) < 0.005

    def test_monotone_decreasing(self):
        vals = [predicted_visibility(k) for k in range(1, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_features_rejected(self):
        with pytest.raises(ValueError):
            predicted_visibility(0)


class TestGhostImageScan:
    def test_pinhole_peak_at_minus_m_times_position(self, grid, focused, config):
        obj = make_pinhole(grid, 2e-3, 60e-6)
        trace = ghost_image_scan(obj, config, engine="analytic")
        m = magnification_scale(focused)
        expected = -m * obj.centroid()
        assert abs(peak_position(trace) - expected) <= 2 * grid.dx

    def test_double_slit_two_inverted_peaks(self, grid, focused, config):
        obj = make_double_slit(grid, 1e-3, 0.2e-3)
        trace = ghost_image_scan(obj, config, engine="analytic")
        pos, coin = trace.positions, trace.coincidence
        pk_neg = pos[np.argmax(np.where(pos < 0, coin, -np.inf))]
        pk_pos = pos[np.argmax(np.where(pos > 0, coin, -np.inf))]
        m = magnification_scale(focused)
        assert (pk_pos - pk_neg) == pytest.approx(m * 1e-3, abs=0.05e-3)

    def test_all_ones_object_gives_flat_trace(self, small_grid):
        geo = SetupGeometry()
        config = make_config(small_grid, geo, n_realizations=2)
        obj = make_slit(small_grid, 0.0, small_grid.span)
        trace = ghost_image_scan(obj, config, engine="analytic", scan_halfwidth=2.5e-3)
        coin = trace.coincidence
        assert (coin.max() - coin.min()) / coin.mean() < 0.05

    def test_opaque_object_rejected(self, grid, focused, config):
        from ghostsim import TransmissionMask

        with pytest.raises(ValueError):
            ghost_image_scan(TransmissionMask(grid, np.zeros(grid.n)), config)

    def test_off_surface_geometry_warns(self, grid, geometry, config):
        geo = replace(geometry, d_b_prime=0.22)
        obj = make_pinhole(grid, 0.0, 60e-6)
        cfg = make_config(grid, geo, n_realizations=2)
        with pytest.warns(UserWarning):
            ghost_image_scan(obj, cfg, engine="analytic", scan_halfwidth=2e-3)

    def test_singles_flat_analytic(self, grid, focused, config):
        obj = make_double_slit(grid, 1e-3, 0.2e-3)
        trace = ghost_image_scan(obj, config, engine="analytic")
        s2 = trace.singles2 / trace.singles2.mean()
        assert s2.std() < 0.01
        assert np.all(trace.singles1 == trace.singles1[0])


class TestVisibility:
    def test_single_slit_one_third(self, grid, focused, config):
        obj = make_slit(grid, 0.0, 0.2e-3)
        trace = ghost_image_scan(obj, config, engine="analytic")
        v = visibility(trace, default_image_window(focused, obj))
        assert v == pytest.approx(1 / 3, abs=0.01)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_visibility_law_well_separated_slits(self, grid, focused, config, k):
        sep = 3e-3
        width = 0.04e-3
        centers = (np.arange(k) - (k - 1) / 2) * sep
        t = np.zeros(grid.n)
        for c in centers:
            t = np.maximum(t, np.abs(make_slit(grid, c, width).t))
        from ghostsim import TransmissionMask

        obj = TransmissionMask(grid, t)
        trace = ghost_image_scan(
            obj, config, engine="analytic", scan_halfwidth=7.4e-3
        )
        v = visibility(trace, default_image_window(focused, obj))
        assert v == pytest.approx(predicted_visibility(k), abs=0.02)

    def test_fluctuation_mode_visibility_near_unity(self, grid, focused, config):
        obj = make_slit(grid, 0.0, 0.2e-3)
        trace = ghost_image_scan(obj, config, mode="fluctuation", engine="analytic")
        v = visibility(trace, default_image_window(focused, obj))
        assert v > 0.98

    def test_window_validation(self, grid, focused, config):
        obj = make_slit(grid, 0.0, 0.2e-3)
        trace = ghost_image_scan(obj, config, engine="analytic")
        with pytest.raises(ValueError):
            visibility(trace, (1e-3, 1e-3))
        with pytest.raises(ValueError):
            visibility(trace, (100.0, 101.0))

    def test_raw_vs_fluctuation_contrast(self, grid, focused, config):
        # raw trace keeps the background pedestal; fluctuation removes it
        obj = make_slit(grid, 0.0, 0.2e-3)
        raw = ghost_image_scan(obj, config, mode="raw", engine="analytic")
        flu = ghost_image_scan(obj, config, mode="fluctuation", engine="analytic")
        w = default_image_window(focused, obj)
        assert visibility(raw, w) < 0.35
        assert visibility(flu, w) > 0.95


class TestPseudoObjectScan:
    def test_pinhole_upright_unit_magnification(self, grid, focused, config):
        obj = make_pinhole(grid, 1e-3, 60e-6)
        trace = pseudo_object_scan(obj, config, engine="analytic")
        assert abs(peak_position(trace) - obj.centroid()) <= 2 * grid.dx

    def test_double_slit_reproduced_at_unit_scale(self, grid, focused, config):
        obj = make_double_slit(grid, 1e-3, 0.2e-3)
        trace = pseudo_object_scan(obj, config, engine="analytic")
        pos, coin = trace.positions, trace.coincidence
        pk_neg = pos[np.argmax(np.where(pos < 0, coin, -np.inf))]
        pk_pos = pos[np.argmax(np.where(pos > 0, coin, -np.inf))]
        assert pk_neg == pytest.approx(-0.5e-3, abs=0.05e-3)
        assert pk_pos == pytest.approx(+0.5e-3, abs=0.05e-3)

    def test_sigma_visibility_below_ceiling(self, grid, focused, config):
        obj = make_pinhole(grid, 1e-3, 60e-6)
        trace = pseudo_object_scan(obj, config, engine="analytic")
        w = default_image_window(focused, obj, upright=True)
        assert visibility(trace, w) <= predicted_visibility(1) + 1e-6


class TestDefocus:
    def test_visibility_maximal_in_focus(self, grid, focused):
        geo = replace(focused, source_diameter=3e-3)
        config = make_config(grid, geo, n_realizations=2)
        obj = make_pinhole(grid, 0.0, 60e-6)
        points = defocus_sweep(obj, config, [-30e-3, 0.0, 30e-3])
        vis = [p.visibility for p in points]
        assert np.argmax(vis) == 1
        assert all(p.peak_width > 0 for p in points)

    def test_scan_plane_behind_lens_rejected(self, grid, focused):
        config = make_config(grid, focused, n_realizations=2)
        obj = make_pinhole(grid, 0.0, 60e-6)
        with pytest.raises(ValueError):
            defocus_sweep(obj, config, [-focused.d_b_prime - 0.01])

    @pytest.mark.parametrize("engine", ["mc", "analytic"])
    def test_each_point_equals_a_scan_at_the_shifted_plane(self, small_grid, engine):
        geo = replace(solve_image_plane(SetupGeometry()), source_diameter=3e-3)
        config = make_config(small_grid, geo, n_realizations=256)
        obj = make_pinhole(small_grid, 0.0, 60e-6)
        deltas = [-30e-3, 0.0, 30e-3]
        points = defocus_sweep(obj, config, deltas, engine=engine)
        window = default_image_window(geo, obj)
        for point, delta in zip(points, deltas):
            shifted = replace(config, geometry=replace(geo, d_b_prime=geo.d_b_prime + delta))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # off the thin-lens surface by design
                trace = ghost_image_scan(obj, shifted, engine=engine,
                                         scan_halfwidth=max(abs(window[0]), abs(window[1])))
            sel = (trace.positions >= window[0]) & (trace.positions <= window[1])
            expected = [visibility(trace, window),
                        fwhm(trace.positions[sel], trace.coincidence[sel])]
            assert point.delta == delta
            # the same _correlate call: the same kernel bits (and, for MC, the same draws)
            assert [point.visibility, point.peak_width] == expected

    def test_a_sweep_holds_the_optics_of_the_plane_in_progress_only(self, small_grid):
        # a = 123.4 mm and 1.7 mm steps: hops no other test runs.  An untraced
        # plane first builds the hops all planes share and whatever NumPy sets up
        # once; then one plane and 11 planes (the one among them) are traced.
        # Those 10 more d'_B hops of 16 * n bytes each may add at most two to
        # the one plane's peak, and at most 4 transfer functions stay cached
        geo = replace(solve_image_plane(SetupGeometry(a=123.4e-3)), source_diameter=3e-3)
        config = make_config(small_grid, geo, n_realizations=2)
        obj = make_pinhole(small_grid, 0.0, 60e-6)
        defocus_sweep(obj, config, [-17e-3])
        peaks = []
        for deltas in ([0.0], [k * 1.7e-3 for k in range(-5, 6)]):
            tracemalloc.start()
            try:
                defocus_sweep(obj, config, deltas)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 16 * small_grid.n, peaks
        assert optics._hop.cache_info().currsize <= 4


@pytest.mark.parametrize("procedure", ["ghost", "pseudo", "siegert", "defocus", "mode"])
def test_unknown_engine_is_named(small_grid, procedure):
    config = make_config(small_grid, SetupGeometry(), n_realizations=2)
    obj = make_pinhole(small_grid, 0.0, 60e-6)
    calls = {
        "ghost": lambda: ghost_image_scan(obj, config, engine="quantum", scan_halfwidth=2e-3),
        "pseudo": lambda: pseudo_object_scan(obj, config, engine="quantum", scan_halfwidth=2e-3),
        "siegert": lambda: siegert_scan(config, "quantum"),
        "defocus": lambda: defocus_sweep(obj, config, [0.0], engine="quantum"),
        "mode": lambda: ghost_image_scan(obj, config, mode="quantum", scan_halfwidth=2e-3),
    }
    with pytest.raises(ValueError, match="'quantum'"):
        calls[procedure]()


@pytest.mark.parametrize("name", ["coincidence", "singles2", "eps"])
def test_image_trace_refuses_a_column_of_wrong_length(name):
    columns = {col: np.ones(3) for col in ("coincidence", "singles1", "singles2", "eps")}
    ImageTrace(positions=np.linspace(-1e-3, 1e-3, 3), **columns)
    ImageTrace(positions=np.linspace(-1e-3, 1e-3, 3), **{**columns, "eps": None})
    with pytest.raises(ValueError, match=f"{name} length"):
        ImageTrace(positions=np.linspace(-1e-3, 1e-3, 3), **{**columns, name: np.ones(2)})


def test_speckle_size_default_bench(geometry):
    # lambda * (a + d_A) / D: the ghost-image resolution scale
    assert speckle_size(geometry) == pytest.approx(633e-9 * 0.213 / 200e-6, rel=1e-12)


def test_fwhm_of_triangle():
    x = np.linspace(-1, 1, 201)
    y = np.maximum(1 - np.abs(x), 0.0)
    assert fwhm(x, y) == pytest.approx(1.0, abs=0.02)


def test_fwhm_of_a_peak_at_the_window_edge_spans_sample_to_sample():
    # no half-maximum crossing left of the peak: the width runs from the edge
    # sample to the first sample at or below half maximum
    x = np.linspace(0, 1, 11)
    assert fwhm(x, 1 - x) == pytest.approx(0.5, rel=1e-12)
    assert fwhm(x, x) == pytest.approx(0.5, rel=1e-12)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_thermal_imaging_is_blind_to_the_object_phase(small_grid, seed):
    # two-photon incoherent imaging: the bucket reads |T(x)|^2 column by
    # column, so T e^{i phi} and |T| give one ghost-plane and one sigma-plane
    # trace, to the rounding of the phase factor (measured: 2 ulps at most)
    rng = np.random.default_rng(seed)
    geo = replace(solve_image_plane(SetupGeometry()), source_diameter=1e-3)
    config = make_config(small_grid, geo, n_realizations=2)
    n = small_grid.n
    amplitude = make_double_slit(small_grid, 1e-3, 0.2e-3).t.real * rng.uniform(0.1, 1, n)
    phased = TransmissionMask(small_grid, amplitude * np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
    for scan in (ghost_image_scan, pseudo_object_scan):
        want = scan(TransmissionMask(small_grid, amplitude), config, scan_halfwidth=3e-3)
        got = scan(phased, config, scan_halfwidth=3e-3)
        for name in ("coincidence", "singles1", "singles2"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=8 * np.finfo(float).eps, atol=0, err_msg=name)


def _image_centroid(obj, bench):
    """Centroid of g2 - 1 over default_image_window: the background-free
    image, located between samples where an argmax sits on one."""
    window = default_image_window(bench, obj)
    trace = ghost_image_scan(obj, make_config(obj.grid, bench, n_realizations=2),
                             mode="fluctuation", scan_halfwidth=max(map(abs, window)))
    sel = (trace.positions >= window[0]) & (trace.positions <= window[1])
    return float(np.average(trace.positions[sel], weights=trace.coincidence[sel]))


@settings(max_examples=4, deadline=None)
@given(bench=LAW_BENCHES)
def test_magnification_law_across_benches(small_grid, bench):
    # pinholes at -+0.4 mm image at +-0.4 m mm (measured: within 0.17 pitch)
    shift = 0.4e-3
    left, right = (_image_centroid(make_pinhole(small_grid, x, 60e-6), bench)
                   for x in (-shift, shift))
    measured = (left - right) / (2 * shift)
    assert abs(measured - magnification_scale(bench)) * 2 * shift <= small_grid.dx / 2


def _unconjugated_image(kernel):
    """sum over the bucket's columns of |sum_s g1 g2|^2: the kernel contracted
    without the conjugate of the engines' sum_s g1* g2.  That is the
    coincidence image of a delta-correlated biphoton source, entangled light
    (Klyshko's advanced wave; Pittman, Shih, Strekalov & Sergienko, PRA 52,
    R3429, 1995), where the conjugate makes it thermal light's."""
    return (np.abs(kernel.g1.T @ kernel.g2) ** 2).sum(axis=0)


def _peak_centroid(x, image):
    """Centroid of the contiguous lobe around the image's maximum, down to
    5 % of it: read from the image alone, not from a window set by a law."""
    k = int(np.argmax(image))
    below = np.flatnonzero(image < image[k] / 20)
    lo, hi = below[below < k].max(initial=-1) + 1, below[below > k].min(initial=len(image))
    return float(np.average(x[lo:hi], weights=image[lo:hi]))


@settings(max_examples=4, deadline=None)
@given(bench=LAW_BENCHES)
def test_thermal_and_entangled_light_image_at_their_own_planes(small_grid, bench):
    # the paper's contrast: the conjugate is what makes thermal light image at
    # 1/(d_B - d_A) + 1/d'_B = 1/f, inverted and magnified by d'_B/(d_B - d_A);
    # the same kernel unconjugated (entangled light) images at
    # 1/(2a + d_A + d_B) + 1/d' = 1/f, by d'/(2a + d_A + d_B).  A +0.3 mm
    # pinhole's lobe centroids sit within dx/4 of both laws (measured: 0.041
    # pitch at most on 60 benches), and at the other law's plane each image
    # is defocused: its peak's share of the scan falls at least 2-fold
    # (measured: 2.6-fold thermal, 130-fold entangled, at least)
    x_o, s = 0.3e-3, 2 * bench.a + bench.d_a + bench.d_b
    planes = {"thermal": bench, "entangled": replace(bench, d_b_prime=1 / (1 / bench.f - 1 / s))}
    obj = make_pinhole(small_grid, x_o, 60e-6)
    x2 = scan_indices(small_grid, 3e-3)
    images = {}
    for plane, geometry in planes.items():
        kernel = detector_kernel(make_config(small_grid, geometry, n_realizations=1),
                                 *build_arms(geometry, obj), x2_indices=x2)
        images[plane] = {"thermal": g2_analytic(kernel).term2,
                         "entangled": _unconjugated_image(kernel)}
    x = small_grid.coords()[x2]
    want = {"thermal": -x_o * magnification_scale(bench),
            "entangled": -x_o * planes["entangled"].d_b_prime / s}
    for law, other in (("thermal", "entangled"), ("entangled", "thermal")):
        assert abs(_peak_centroid(x, images[law][law]) - want[law]) <= small_grid.dx / 4, law
        share = {plane: images[plane][law].max() / images[plane][law].sum() for plane in planes}
        assert share[other] < share[law] / 2, law


@settings(max_examples=4, deadline=None)
@given(bench=LAW_BENCHES)
def test_visibility_ceiling_across_benches(small_grid, bench):
    # N equal 120 um slits at a 0.8 mm pitch: v_N <= 1/(2N+1), and v_N falls
    # with N (measured: v_1 0.14-0.26, v_2 0.08-0.15, v_3 0.05-0.11)
    config = make_config(small_grid, bench, n_realizations=2)
    v = []
    for n in (1, 2, 3):
        t = np.zeros(small_grid.n)
        for center in (np.arange(n) - (n - 1) / 2) * 0.8e-3:
            t = np.maximum(t, make_slit(small_grid, center, 120e-6).t.real)
        obj = TransmissionMask(small_grid, t)
        window = default_image_window(bench, obj)
        trace = ghost_image_scan(obj, config, scan_halfwidth=max(map(abs, window)))
        v.append(visibility(trace, window))
        assert v[-1] <= predicted_visibility(n)
    assert v[0] > v[1] > v[2]


@settings(max_examples=4, deadline=None)
@given(bench=LAW_BENCHES)
def test_defocus_optimum_at_the_thin_lens_plane_across_benches(small_grid, bench):
    # 7 planes stepped by a tenth of the image-side depth of focus (M s)^2 / lambda,
    # s the speckle size: the visibility argmax lies within one step of Eq. 3's d'_B.
    # Measured: with a tenth or a twentieth, all 140 benches peak at the centre; with
    # 0.01, 40 benches spread over +-1 step and with 0.005 over +-2 (asymmetric curves)
    step = 0.1 * (magnification_scale(bench) * speckle_size(bench)) ** 2 / bench.wavelength
    points = defocus_sweep(make_pinhole(small_grid, 0.0, 60e-6),
                           make_config(small_grid, bench, n_realizations=2),
                           [k * step for k in range(-3, 4)])
    assert abs(np.argmax([p.visibility for p in points]) - 3) <= 1


def test_fwhm_of_a_flat_trace_is_refused():
    # argmax of a flat trace is index 0, and the crossing read v[-1] through right - 1
    with pytest.raises(ValueError, match="max equals min"):
        fwhm(np.linspace(-1, 1, 11), np.ones(11))
    with pytest.raises(ValueError, match="max equals min"):
        fwhm(np.linspace(-1, 1, 11), np.zeros(11))


def test_all_zero_trace_has_no_visibility():
    zero = np.zeros(5)
    trace = ImageTrace(positions=np.linspace(-1e-3, 1e-3, 5), coincidence=zero,
                       singles1=zero, singles2=zero)
    with pytest.raises(ValueError, match="max \\+ min is zero"):
        visibility(trace, (-1e-3, 1e-3))


def test_opaque_object_has_no_image_window(small_grid, geometry):
    from ghostsim import TransmissionMask

    with pytest.raises(ValueError, match="fully opaque"):
        default_image_window(geometry, TransmissionMask(small_grid, np.zeros(small_grid.n)))
