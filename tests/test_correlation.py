import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghostsim import (
    ArmPath,
    Grid1D,
    Lens,
    Mask,
    Propagate,
    SetupGeometry,
    TransmissionMask,
    accumulate_mc,
    fluctuation_correlation,
    g2_analytic,
    make_pinhole,
    make_double_slit,
    make_slit,
    mode_decomposition,
    siegert_normalize,
)
from ghostsim.experiment import build_arms, scan_indices, sigma_arm
from ghostsim.optics import apply_path_block
from ghostsim.source import aperture_indices, sample_source_block

from conftest import make_config

IDENTITY = ArmPath(())


@pytest.fixture(scope="module")
def src_config(grid, geometry):
    return make_config(grid, geometry, n_realizations=4000, seed=11)


def test_identity_arms_diagonal_g2_is_two(src_config):
    idx = aperture_indices(src_config)
    cmap = accumulate_mc(
        src_config, IDENTITY, IDENTITY, bucket=False, diagonal=True, x2_indices=idx
    )
    g2 = siegert_normalize(cmap).g2
    n = src_config.n_realizations
    # thermal autocorrelation: g2(x,x) = 2, estimator sigma = 2/sqrt(n)
    assert abs(g2.mean() - 2.0) < 3 * 2.0 / np.sqrt(n * len(idx))
    assert np.abs(g2 - 2.0).max() < 5 * 2.0 / np.sqrt(n)


def test_disjoint_source_regions_factorize(grid, geometry):
    config = make_config(grid, geometry, n_realizations=4000, seed=23)
    idx = aperture_indices(config)
    left = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[:50]).astype(float))
    right = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[50:]).astype(float))
    cmap = accumulate_mc(
        config,
        ArmPath((Mask(left),)),
        ArmPath((Mask(right),)),
        bucket=False,
        x1_indices=idx[:50],
        x2_indices=idx[50:],
    )
    g2 = siegert_normalize(cmap).g2
    assert abs(g2.mean() - 1.0) < 3 * 1.0 / np.sqrt(config.n_realizations * g2.size) * 10
    assert np.abs(g2 - 1.0).max() < 5 / np.sqrt(config.n_realizations)


def test_single_mode_analytic_g2_is_two_everywhere(grid):
    geo = SetupGeometry.default(source_diameter=2e-6)  # one grid sample
    config = make_config(grid, geo, n_realizations=2)
    arm1 = ArmPath((Propagate(geo.z_source_object),))
    arm2 = ArmPath((Propagate(geo.z_source_lens), Lens(geo.f), Propagate(geo.d_b_prime)))
    modes = mode_decomposition(config, arm1, arm2)
    assert len(modes) == 1
    sel = np.arange(grid.n // 2 - 512, grid.n // 2 + 512)
    cmap = g2_analytic(modes, bucket=False, x1_indices=sel, x2_indices=sel)
    g2 = siegert_normalize(cmap).g2
    assert np.allclose(g2, 2.0, atol=1e-9)


def test_orthogonal_arms_analytic_g2_is_one(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    idx = aperture_indices(config)
    left = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[:50]).astype(float))
    right = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[50:]).astype(float))
    modes = mode_decomposition(config, ArmPath((Mask(left),)), ArmPath((Mask(right),)))
    cmap = g2_analytic(modes, bucket=False, x1_indices=idx[:50], x2_indices=idx[50:])
    assert np.all(cmap.term2 == 0.0)
    g2 = siegert_normalize(cmap).g2
    assert np.allclose(g2, 1.0, atol=1e-12)


def test_bench_pinhole_mc_matches_mode_sum(grid, geometry):
    config = make_config(grid, geometry, n_realizations=3000, seed=31)
    obj = make_pinhole(grid, 1e-3, 60e-6)
    arm1 = ArmPath((Propagate(geometry.z_source_object), Mask(obj)))
    arm2 = ArmPath(
        (Propagate(geometry.z_source_lens), Lens(geometry.f), Propagate(geometry.d_b_prime))
    )
    x2 = np.flatnonzero(np.abs(grid.coords()) <= 5e-3)
    mc = accumulate_mc(config, arm1, arm2, bucket=True, x2_indices=x2, workers=2)
    modes = mode_decomposition(config, arm1, arm2)
    an = g2_analytic(modes, bucket=True, x2_indices=x2)
    g2_mc = siegert_normalize(mc).g2
    g2_an = siegert_normalize(an).g2
    assert np.all(np.abs(g2_mc - g2_an) < 3 * mc.eps)


def test_analytic_bounds_one_to_two(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    obj = make_slit(grid, 0.0, 0.4e-3)
    arm1 = ArmPath((Propagate(geometry.z_source_object), Mask(obj)))
    arm2 = ArmPath(
        (Propagate(geometry.z_source_lens), Lens(geometry.f), Propagate(geometry.d_b_prime))
    )
    modes = mode_decomposition(config, arm1, arm2)
    x1 = obj.support_indices()
    x2 = np.flatnonzero(np.abs(grid.coords()) <= 3e-3)[::4]
    cmap = g2_analytic(modes, bucket=False, x1_indices=x1, x2_indices=x2)
    g2 = siegert_normalize(cmap).g2
    assert g2.min() >= 1.0 - 1e-12
    assert g2.max() <= 2.0 + 1e-9


def test_symmetry_identical_arms(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    arm = ArmPath((Propagate(geometry.z_source_object),))
    modes = mode_decomposition(config, arm, arm)
    sel = np.flatnonzero(np.abs(grid.coords()) <= 0.5e-3)[::2]
    cmap = g2_analytic(modes, bucket=False, x1_indices=sel, x2_indices=sel)
    assert np.allclose(cmap.g2_raw, cmap.g2_raw.T, rtol=1e-12, atol=0)


def test_worker_count_does_not_change_bits(grid, geometry):
    config = make_config(grid, geometry, n_realizations=600, seed=5)
    obj = make_pinhole(grid, 0.0, 60e-6)
    arm1 = ArmPath((Propagate(geometry.z_source_object), Mask(obj)))
    arm2 = ArmPath(
        (Propagate(geometry.z_source_lens), Lens(geometry.f), Propagate(geometry.d_b_prime))
    )
    x2 = np.flatnonzero(np.abs(grid.coords()) <= 2e-3)
    a = accumulate_mc(config, arm1, arm2, bucket=True, x2_indices=x2, workers=1)
    b = accumulate_mc(config, arm1, arm2, bucket=True, x2_indices=x2, workers=4)
    assert np.array_equal(a.g2_raw, b.g2_raw)
    assert np.array_equal(a.i2_mean, b.i2_mean)
    assert a.i1_mean == b.i1_mean


def test_degenerate_all_blocking_mask(grid, geometry):
    config = make_config(grid, geometry, n_realizations=64, seed=3)
    block = TransmissionMask(grid, np.zeros(grid.n))
    cmap = accumulate_mc(
        config, ArmPath((Mask(block),)), IDENTITY, bucket=True,
        x2_indices=np.arange(0, grid.n, 64),
    )
    assert cmap.degenerate
    assert siegert_normalize(cmap).g2 is None


def test_fluctuation_equals_interference_term(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    obj = make_pinhole(grid, 0.0, 60e-6)
    arm1 = ArmPath((Propagate(geometry.z_source_object), Mask(obj)))
    arm2 = ArmPath(
        (Propagate(geometry.z_source_lens), Lens(geometry.f), Propagate(geometry.d_b_prime))
    )
    modes = mode_decomposition(config, arm1, arm2)
    cmap = g2_analytic(modes, bucket=True, x2_indices=np.arange(0, grid.n, 8))
    assert np.array_equal(fluctuation_correlation(cmap), cmap.term2)


def test_fluctuation_of_independent_arms_vanishes(grid, geometry):
    config = make_config(grid, geometry, n_realizations=4000, seed=41)
    idx = aperture_indices(config)
    left = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[:50]).astype(float))
    right = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[50:]).astype(float))
    cmap = accumulate_mc(
        config,
        ArmPath((Mask(left),)),
        ArmPath((Mask(right),)),
        bucket=False,
        x1_indices=idx[:50],
        x2_indices=idx[50:],
    )
    fluct = fluctuation_correlation(cmap) / cmap.marginal_product()
    assert np.abs(fluct).max() < 3 * cmap.eps.max()


def test_fluctuation_needs_two_realizations(grid, geometry):
    config = make_config(grid, geometry, n_realizations=1, seed=2)
    cmap = accumulate_mc(
        config, IDENTITY, IDENTITY, bucket=False, diagonal=True,
        x2_indices=aperture_indices(config),
    )
    with pytest.raises(ValueError):
        fluctuation_correlation(cmap)


def test_full_map_size_guard(grid, geometry):
    config = make_config(grid, geometry, n_realizations=4, seed=2)
    with pytest.raises(ValueError):
        accumulate_mc(config, IDENTITY, IDENTITY, bucket=False)


def test_mc_g2_stays_above_one_minus_error(src_config):
    idx = aperture_indices(src_config)
    cmap = accumulate_mc(
        src_config, IDENTITY, IDENTITY, bucket=False, diagonal=True, x2_indices=idx
    )
    g2 = siegert_normalize(cmap).g2
    assert np.all(g2 >= 1.0 - 3 * cmap.eps)


def _bench_arms(grid, geometry, scan):
    """fig4 (double slit, lens arm) or sigma-plane (pinhole, no lens) arms."""
    if scan == "fig4":
        obj = make_double_slit(grid, 1e-3, 0.2e-3)
        return (obj, *build_arms(geometry, obj))
    obj = make_pinhole(grid, 1e-3, 60e-6)
    return obj, build_arms(geometry, obj)[0], sigma_arm(geometry)


@pytest.mark.parametrize("scan", ["fig4", "sigma"])
def test_restricted_kernel_reproduces_propagated_draws(grid, geometry, scan):
    config = make_config(grid, geometry, n_realizations=6, seed=13)
    obj, arm1, arm2 = _bench_arms(grid, geometry, scan)
    S = obj.support_indices()
    X = scan_indices(grid, 6e-3)
    kernel = mode_decomposition(config, arm1, arm2, columns1=S, columns2=X)
    assert kernel.g1.shape == (100, len(S)) and kernel.g2.shape == (100, len(X))

    c = sample_source_block(config, 0, config.n_realizations)
    field = np.zeros((config.n_realizations, grid.n), complex)
    field[:, aperture_indices(config)] = c
    E1 = apply_path_block(field, grid, geometry.wavelength, arm1)
    E2 = apply_path_block(field, grid, geometry.wavelength, arm2)
    np.testing.assert_allclose(c @ kernel.g1, E1[:, S], rtol=1e-12, atol=0)
    np.testing.assert_allclose(c @ kernel.g2, E2[:, X], rtol=1e-12, atol=0)


@pytest.mark.parametrize("scan", ["fig4", "sigma"])
def test_bucket_drops_only_columns_that_are_zero_for_every_mode(grid, geometry, scan):
    config = make_config(grid, geometry, n_realizations=2)
    obj, arm1, arm2 = _bench_arms(grid, geometry, scan)
    S = obj.support_indices()
    full = mode_decomposition(config, arm1, arm2)
    dropped = np.setdiff1d(np.arange(grid.n), S)
    assert np.all(full.g1[:, dropped] == 0)
    kernel = mode_decomposition(config, arm1, arm2, columns1=S, columns2=S)
    assert np.array_equal(kernel.g1, full.g1[:, S])
    assert np.array_equal(kernel.g2, full.g2[:, S])


def test_restricted_mode_set_is_refused_where_whole_fields_are_needed(small_grid, geometry):
    config = make_config(small_grid, geometry, n_realizations=2)
    idx = aperture_indices(config)
    modes = mode_decomposition(config, IDENTITY, IDENTITY, columns1=idx, columns2=idx)
    assert np.array_equal(modes.g1, np.eye(len(idx)))
    with pytest.raises(ValueError, match="all grid columns"):
        g2_analytic(modes, bucket=False, diagonal=True, x2_indices=idx)


@settings(max_examples=20, deadline=None)
@given(
    slits=st.lists(
        st.tuples(st.integers(0, 1023), st.integers(1, 256)), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_bucket_i1_over_mask_support_equals_full_grid_sum(small_grid, geometry, slits, seed):
    # slits inside the central half of the window, the 4x guard band of validate_sampling
    n = small_grid.n
    t = np.zeros(n)
    for start, width in slits:
        t[n // 4 + start : min(n // 4 + start + width, 3 * n // 4)] = 1.0
    obj = TransmissionMask(small_grid, t)
    arm1, arm2 = build_arms(geometry, obj)
    config = make_config(small_grid, geometry, n_realizations=8, seed=seed)
    cmap = accumulate_mc(config, arm1, arm2, bucket=True, x2_indices=np.arange(0, n, 64))

    modes = mode_decomposition(config, arm1, arm2)
    c = sample_source_block(config, 0, config.n_realizations)
    full_grid = (np.abs(c @ modes.g1) ** 2).sum(axis=1) * small_grid.dx
    assert cmap.i1_mean == pytest.approx(full_grid.mean(), rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["full", "diagonal"])
def test_worker_count_does_not_change_bits_for_maps(grid, geometry, kind):
    # 257 realizations in blocks of 256: the last block holds a single row
    config = make_config(grid, geometry, n_realizations=257, seed=8)
    obj, arm1, arm2 = _bench_arms(grid, geometry, "fig4")
    options = dict(
        bucket=False,
        diagonal=kind == "diagonal",
        x1_indices=obj.support_indices() if kind == "full" else None,
        x2_indices=scan_indices(grid, 2e-3),
    )
    ref = accumulate_mc(config, arm1, arm2, workers=1, **options)
    assert ref.kind == kind
    for workers in (0, 2, 4):
        out = accumulate_mc(config, arm1, arm2, workers=workers, **options)
        for name in ("g2_raw", "i1_mean", "i2_mean", "eps"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), (workers, name)
