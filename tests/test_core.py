import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ghostsim import (
    Grid1D,
    SetupGeometry,
    TransmissionMask,
    make_double_slit,
    make_pinhole,
    make_slit,
    validate_sampling,
)


class TestGrid1D:
    @pytest.mark.parametrize("n", [3, 0, 1, 100, 6000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            Grid1D(n=n, dx=1e-6)

    def test_rejects_nonpositive_pitch(self):
        with pytest.raises(ValueError):
            Grid1D(n=64, dx=0.0)

    @pytest.mark.parametrize("n,dx", [(64, 1e-6), (4096, 2e-6), (2, 0.5)])
    def test_coordinate_roundtrip_identity(self, n, dx):
        g = Grid1D(n=n, dx=dx)
        x = g.coords()
        assert x[n // 2] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(np.diff(x), dx)

    def test_span(self):
        assert Grid1D(n=1024, dx=2e-6).span == pytest.approx(2.048e-3)


class TestMasks:
    def test_slit_open_fraction(self, grid):
        m = make_slit(grid, 0.0, 0.2e-3)
        assert m.feature_count() == 1
        n_open = int(np.abs(m.t).sum().real)
        assert n_open == round(0.2e-3 / grid.dx)
        assert n_open / grid.n == pytest.approx(0.2e-3 / grid.span)

    def test_full_span_slit_is_all_ones(self, grid):
        m = make_slit(grid, 0.0, grid.span)
        assert np.all(m.t == 1.0)
        assert m.feature_count() == 1

    def test_two_slits_composed_via_max(self, grid):
        a = make_slit(grid, -0.5e-3, 0.2e-3)
        b = make_slit(grid, +0.5e-3, 0.2e-3)
        m = TransmissionMask(grid, np.maximum(np.abs(a.t), np.abs(b.t)))
        assert m.feature_count() == 2

    def test_slit_outside_window(self, grid):
        with pytest.raises(ValueError):
            make_slit(grid, grid.span, 0.2e-3)

    def test_slit_needs_positive_width(self, grid):
        with pytest.raises(ValueError):
            make_slit(grid, 0.0, 0.0)

    def test_double_slit_bench_parameters(self, grid):
        m = make_double_slit(grid, 1e-3, 0.2e-3)
        assert m.feature_count() == 2

    def test_double_slit_overlap_rejected(self, grid):
        with pytest.raises(ValueError):
            make_double_slit(grid, 1e-3, 0.999e-3)
        with pytest.raises(ValueError):
            make_double_slit(grid, 0.2e-3, 0.3e-3)

    def test_double_slit_open_fraction_doubles_single(self, grid):
        single = np.abs(make_slit(grid, 0.0, 0.2e-3).t).sum()
        double = np.abs(make_double_slit(grid, 2e-3, 0.2e-3).t).sum()
        assert double == pytest.approx(2 * single)

    def test_pinhole_fiber_tip(self, grid):
        m = make_pinhole(grid, 0.0, 60e-6)
        assert m.feature_count() == 1
        assert int(np.abs(m.t).sum().real) == round(60e-6 / grid.dx)

    def test_pinhole_shifted(self, grid):
        m = make_pinhole(grid, 2e-3, 60e-6)
        assert m.centroid() == pytest.approx(2e-3, abs=2 * grid.dx)

    def test_pinhole_zero_diameter(self, grid):
        with pytest.raises(ValueError):
            make_pinhole(grid, 0.0, 0.0)

    def test_transmittance_bound(self, grid):
        for bad in (1.5, np.nan, np.inf):  # NaN and inf fail the bound too
            t = np.full(grid.n, 0.5)
            t[grid.n // 2] = bad
            with pytest.raises(ValueError, match="exceeds 1 or is not finite"):
                TransmissionMask(grid, t)

    def test_mask_length_must_match_grid(self, grid):
        with pytest.raises(ValueError, match="does not match grid size"):
            TransmissionMask(grid, np.ones(grid.n - 1))

    def test_opaque_mask_has_no_features_and_no_centroid(self, grid):
        opaque = TransmissionMask(grid, np.zeros(grid.n))
        assert opaque.feature_count() == 0
        with pytest.raises(ValueError, match="fully opaque"):
            opaque.centroid()

    @settings(max_examples=200, deadline=None)
    @given(log2n=st.integers(1, 14), dx=st.floats(1e-7, 1e-3), u=st.floats(0, 1),
           frac=st.floats(-1, 1) | st.just(float("nan")), pitches=st.floats(1, 64))
    @example(log2n=11, dx=8e-6, u=0.5, frac=1e-9 / 8e-6, pitches=1.0)  # 1 nm slit at x = 0
    # a one-pitch slit whose edges round to the same sample: the interval must not come out empty
    @example(log2n=4, dx=6.215979936155503e-06, u=6.66666721826914e-11, frac=0.5, pitches=1.0)
    def test_slit_refused_below_the_pitch_and_sampled_at_or_above_it(
        self, log2n, dx, u, frac, pitches
    ):
        # a width below the pitch is refused wherever it sits; a width of at
        # least one pitch inside the window holds at least one sample
        grid = Grid1D(n=2**log2n, dx=dx)
        with pytest.raises(ValueError, match="below the grid pitch"):
            make_slit(grid, (u - 0.5) * grid.span, np.nextafter(dx, 0.0) * frac)
        width = min(pitches * dx, grid.span)
        center = (u - 0.5) * (grid.span - width)
        assert make_slit(grid, center, width).support_indices().size >= 1

    @pytest.mark.parametrize("sep,width", [(1e-3, 0.2e-3), (3e-3, 0.04e-3), (2e-3, 0.5e-3)])
    def test_feature_counts_hold_for_all_parameters(self, grid, sep, width):
        assert make_double_slit(grid, sep, width).feature_count() == 2
        assert make_slit(grid, 0.0, width).feature_count() == 1


class TestValidateSampling:
    def test_default_style_grid_passes(self):
        g = Grid1D(n=8192, dx=2e-6)
        rep = validate_sampling(g, 633e-9, 337e-3)
        assert rep.ok and rep.chirp_ok
        # chirp bound lambda*z/L
        assert rep.chirp_dx_max == pytest.approx(633e-9 * 0.337 / g.span, rel=1e-12)
        assert rep.chirp_dx_max == pytest.approx(13.0e-6, rel=0.01)

    def test_coarse_grid_fails_with_wraparound_warning(self):
        g = Grid1D(n=64, dx=0.25e-3)
        rep = validate_sampling(g, 633e-9, 337e-3)
        assert not rep.ok and not rep.chirp_ok
        assert any("wrap" in m for m in rep.messages)

    def test_zero_distance_trivially_passes(self):
        g = Grid1D(n=64, dx=0.25e-3)
        assert validate_sampling(g, 633e-9, 0.0).ok

    def test_window_fresnel_number(self):
        g = Grid1D(n=2048, dx=8e-6)
        rep = validate_sampling(g, 633e-9, 337e-3)
        assert rep.fresnel_number == pytest.approx(g.span**2 / (633e-9 * 0.337), rel=1e-12)
        assert rep.ok and rep.fresnel_ok
        z2 = g.span**2 / (2 * 633e-9)  # N_F = 2: the band edge sits on the first bin
        assert validate_sampling(g, 633e-9, 0.99 * z2).ok
        rep = validate_sampling(g, 633e-9, 1.01 * z2)
        assert not rep.ok and not rep.fresnel_ok and rep.chirp_ok
        assert len(rep.messages) == 1
        assert "Fresnel number" in rep.messages[0] and "zero-frequency" in rep.messages[0]

    def test_guard_band(self, grid):
        rep = validate_sampling(grid, 633e-9, 337e-3, apertures=[grid.span / 2])
        assert not rep.guard_ok
        rep = validate_sampling(grid, 633e-9, 337e-3, apertures=[200e-6])
        assert rep.guard_ok and rep.ok


class TestSetupGeometry:
    def test_default_values(self, geometry):
        assert geometry.s_o == pytest.approx(0.124)
        assert geometry.z_source_object == pytest.approx(0.213)
        assert geometry.z_source_lens == pytest.approx(0.337)
        assert geometry.total_path == pytest.approx(0.6055)

    def test_requires_positive_object_distance(self):
        with pytest.raises(ValueError):
            SetupGeometry(d_b=80e-3)

    def test_requires_positive_lengths(self):
        with pytest.raises(ValueError):
            SetupGeometry(f=-85e-3)
