import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox
from hypothesis import example, given, settings, strategies as st

from ghostsim import (
    ArmPath,
    Grid1D,
    Lens,
    ModeSet,
    Propagate,
    SetupGeometry,
    TransmissionMask,
    accumulate_mc,
    detector_kernel,
    fluctuation_correlation,
    g2_analytic,
    make_pinhole,
    make_double_slit,
    make_slit,
    mode_decomposition,
    siegert_normalize,
)
from ghostsim import correlation, optics
from ghostsim.experiment import (
    _correlate,
    build_arms,
    predicted_visibility,
    scan_indices,
    sigma_arm,
    solve_thin_lens,
)
from ghostsim.optics import apply_path_block
from ghostsim.source import aperture_indices, sample_source_block

from conftest import PATHS, SMALL_GRID, make_config, one_slit

IDENTITY = ArmPath(())
# a 3 mm source on the small grid holds m = 375 modes, so the range factor
# (accumulate_mc) can draw fewer than m normals per realization
WIDE_SOURCE = SetupGeometry(source_diameter=3e-3)


@pytest.fixture(scope="module")
def src_config(grid, geometry):
    return make_config(grid, geometry, n_realizations=4000, seed=11)


def test_identity_arms_diagonal_g2_is_two(src_config):
    idx = aperture_indices(src_config)
    cmap = accumulate_mc(
        src_config, IDENTITY, IDENTITY, bucket=False, diagonal=True, x2_indices=idx
    )
    g2 = siegert_normalize(cmap)
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
        ArmPath((left,)),
        ArmPath((right,)),
        bucket=False,
        x1_indices=idx[:50],
        x2_indices=idx[50:],
    )
    g2 = siegert_normalize(cmap)
    assert abs(g2.mean() - 1.0) < 3 * 1.0 / np.sqrt(config.n_realizations * g2.size) * 10
    assert np.abs(g2 - 1.0).max() < 5 / np.sqrt(config.n_realizations)


def test_single_mode_analytic_g2_is_two_everywhere(grid):
    geo = SetupGeometry(source_diameter=2e-6)  # one grid sample
    config = make_config(grid, geo, n_realizations=2)
    arm1 = ArmPath((Propagate(geo.z_source_object),))
    arm2 = ArmPath((Propagate(geo.z_source_lens), Lens(geo.f), Propagate(geo.d_b_prime)))
    sel = np.arange(grid.n // 2 - 512, grid.n // 2 + 512)
    modes = mode_decomposition(config, arm1, arm2, columns1=sel, columns2=sel)
    assert len(modes) == 1
    cmap = g2_analytic(modes, bucket=False)
    g2 = siegert_normalize(cmap)
    assert np.allclose(g2, 2.0, atol=1e-9)


def test_orthogonal_arms_analytic_g2_is_one(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    idx = aperture_indices(config)
    left = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[:50]).astype(float))
    right = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[50:]).astype(float))
    modes = mode_decomposition(
        config, ArmPath((left,)), ArmPath((right,)),
        columns1=idx[:50], columns2=idx[50:],
    )
    cmap = g2_analytic(modes, bucket=False)
    assert np.all(cmap.term2 == 0.0)
    g2 = siegert_normalize(cmap)
    assert np.allclose(g2, 1.0, atol=1e-12)


def test_bench_pinhole_mc_matches_mode_sum(grid, geometry):
    config = make_config(grid, geometry, n_realizations=3000, seed=31)
    obj = make_pinhole(grid, 1e-3, 60e-6)
    arm1 = ArmPath((Propagate(geometry.z_source_object), obj))
    arm2 = ArmPath(
        (Propagate(geometry.z_source_lens), Lens(geometry.f), Propagate(geometry.d_b_prime))
    )
    x2 = np.flatnonzero(np.abs(grid.coords()) <= 5e-3)
    mc = accumulate_mc(config, arm1, arm2, bucket=True, x2_indices=x2, workers=2)
    modes = mode_decomposition(config, arm1, arm2, columns1=obj.support_indices(), columns2=x2)
    an = g2_analytic(modes, bucket=True)
    g2_mc = siegert_normalize(mc)
    g2_an = siegert_normalize(an)
    assert np.all(np.abs(g2_mc - g2_an) < 3 * mc.eps)


def test_analytic_bounds_one_to_two(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    obj = make_slit(grid, 0.0, 0.4e-3)
    arm1 = ArmPath((Propagate(geometry.z_source_object), obj))
    arm2 = ArmPath(
        (Propagate(geometry.z_source_lens), Lens(geometry.f), Propagate(geometry.d_b_prime))
    )
    x1 = obj.support_indices()
    x2 = np.flatnonzero(np.abs(grid.coords()) <= 3e-3)[::4]
    modes = mode_decomposition(config, arm1, arm2, columns1=x1, columns2=x2)
    cmap = g2_analytic(modes, bucket=False)
    g2 = siegert_normalize(cmap)
    assert g2.min() >= 1.0 - 1e-12
    assert g2.max() <= 2.0 + 1e-9


def test_symmetry_identical_arms(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    arm = ArmPath((Propagate(geometry.z_source_object),))
    sel = np.flatnonzero(np.abs(grid.coords()) <= 0.5e-3)[::2]
    modes = mode_decomposition(config, arm, arm, columns1=sel, columns2=sel)
    cmap = g2_analytic(modes, bucket=False)
    assert np.allclose(cmap.g2_raw, cmap.g2_raw.T, rtol=1e-12, atol=0)


def test_worker_count_does_not_change_bits(grid, geometry):
    config = make_config(grid, geometry, n_realizations=600, seed=5)
    obj = make_pinhole(grid, 0.0, 60e-6)
    arm1 = ArmPath((Propagate(geometry.z_source_object), obj))
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
    # a bucket mask open only off the source aperture, with no hop: every
    # realization's I1 is exactly 0, so siegert_normalize refuses the map
    config = make_config(grid, geometry, n_realizations=64, seed=3)
    t = np.ones(grid.n)
    t[aperture_indices(config)] = 0.0
    cmap = accumulate_mc(
        config, ArmPath((TransmissionMask(grid, t),)), IDENTITY, bucket=True,
        x2_indices=np.arange(0, grid.n, 64),
    )
    assert cmap.i1_mean == 0.0
    with pytest.raises(ValueError, match="marginal intensity is zero"):
        siegert_normalize(cmap)


def test_normalize_refuses_a_map_where_some_marginal_is_zero(small_grid, geometry):
    # a full map whose arm-1 columns mix a slit's support with columns off it,
    # where rho1 = 0: the rows on the support alone normalize
    config = make_config(small_grid, geometry, n_realizations=1)
    slit = make_slit(small_grid, 0.0, 0.4e-3)
    arm1 = ArmPath((Propagate(geometry.z_source_object), slit))
    S = slit.support_indices()
    off = np.array([0, S[0] - 1, S[-1] + 1, small_grid.n - 1])
    columns1 = np.concatenate([S[::5], off])
    modes = mode_decomposition(config, arm1, sigma_arm(geometry), columns1=columns1,
                               columns2=scan_indices(small_grid, 1e-3))
    cmap = g2_analytic(modes, bucket=False)
    zero = ~np.isin(columns1, S)
    assert np.array_equal(cmap.i1_mean == 0, zero)
    assert np.all(cmap.i2_mean > 0)
    with pytest.raises(ValueError, match="marginal intensity is zero"):
        siegert_normalize(cmap)
    on = replace(cmap, g2_raw=cmap.g2_raw[~zero], i1_mean=cmap.i1_mean[~zero])
    assert np.array_equal(siegert_normalize(on), on.g2_raw / on.marginal_product())


@pytest.mark.parametrize("engine", ["analytic", "mc"])
def test_opaque_bucket_refused_before_any_kernel_or_draw(small_grid, geometry, engine,
                                                         monkeypatch):
    calls = []
    monkeypatch.setattr(correlation, "mode_decomposition", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(correlation, "sample_source_block", lambda *a, **k: calls.append(a))
    config = make_config(small_grid, geometry, n_realizations=64, seed=3)
    opaque = TransmissionMask(small_grid, np.zeros(small_grid.n))
    arm1 = ArmPath((Propagate(geometry.z_source_object), opaque))
    with pytest.raises(ValueError, match="fully opaque"):
        _correlate(config, arm1, sigma_arm(geometry), engine,
                   x2_indices=scan_indices(small_grid, 1e-3), workers=2)
    assert calls == []


@pytest.mark.parametrize("kind", ["bucket", "diagonal"])
def test_x1_indices_refused_for_a_bucket_or_diagonal_map_before_any_build(small_grid, geometry,
                                                                          kind, monkeypatch):
    # the bucket reads its mask's support and the diagonal x2 itself: an
    # x1_indices there was dropped without a word, so [3, 4] with a bucket
    # still read all 50 slit columns
    calls = []
    monkeypatch.setattr(correlation, "mode_decomposition", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(correlation, "sample_source_block", lambda *a, **k: calls.append(a))
    config = make_config(small_grid, geometry, n_realizations=64, seed=3)
    arms = build_arms(geometry, make_double_slit(small_grid, 1e-3, 0.2e-3))
    options = dict(bucket=kind == "bucket", diagonal=kind == "diagonal",
                   x1_indices=np.array([3, 4]), x2_indices=scan_indices(small_grid, 1e-3))
    for call in (detector_kernel, accumulate_mc):
        with pytest.raises(ValueError, match="x1_indices is read by a full map only"):
            call(config, *arms, **options)
    assert calls == []


def test_both_engines_refuse_a_non_finite_map_alike(small_grid, geometry, monkeypatch):
    # a kernel with one NaN arm-2 column: both engines return the raw map as
    # computed, and siegert_normalize refuses it
    def nan_column(*args, **kwargs):
        modes = mode_decomposition(*args, **kwargs)
        modes.g2[:, 0] = np.nan
        return modes

    monkeypatch.setattr(correlation, "mode_decomposition", nan_column)
    config = make_config(small_grid, geometry, n_realizations=64, seed=3)
    arm1, arm2 = build_arms(geometry, make_slit(small_grid, 0.0, 0.4e-3))
    x2 = scan_indices(small_grid, 1e-3)
    g2_raw = accumulate_mc(config, arm1, arm2, x2_indices=x2).g2_raw
    assert np.isnan(g2_raw[0]) and np.isfinite(g2_raw[1:]).all()
    messages = []
    for engine in ("analytic", "mc"):
        with pytest.raises(ValueError, match="g2 is not finite") as refused:
            _correlate(config, arm1, arm2, engine, x2_indices=x2, workers=2)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_lens_whose_phase_is_not_finite_is_refused(small_grid, geometry, monkeypatch):
    for f in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="focal length must be finite and nonzero"):
            Lens(f)
    # finite, but x^2 / (lambda f) overflows on the grid: refused before any hop runs
    hops = []
    monkeypatch.setattr(optics, "propagate_block", lambda *a, **k: hops.append(a))
    arm2 = ArmPath((Propagate(geometry.z_source_lens), Lens(1e-307),
                    Propagate(geometry.d_b_prime)))
    config = make_config(small_grid, geometry, n_realizations=8)
    with pytest.raises(ValueError, match="lens phase is not finite"):
        detector_kernel(config, IDENTITY, arm2, bucket=False)
    assert hops == []


@pytest.mark.parametrize("x2", [[2048], [3000], [-1], [0.5], [[0, 1]]],
                         ids=["n", "beyond-n", "negative", "float", "2-D"])
def test_kernel_columns_off_the_grid_are_refused_before_any_hop(small_grid, geometry,
                                                                 monkeypatch, x2):
    # unchecked, the mirror rule's (n - r) % n reads column 2048 as column 0
    # and 3000 as 952, and -1 reaches the engines' coordinate lookup
    hops = []
    monkeypatch.setattr(optics, "propagate_block", lambda *a, **k: hops.append(a))
    config = make_config(small_grid, geometry, n_realizations=8)
    arms = build_arms(geometry, make_slit(small_grid, 0.0, 0.4e-3))
    with pytest.raises(ValueError, match="1-D integer array inside"):
        detector_kernel(config, *arms, x2_indices=x2)
    assert hops == []


def test_an_empty_column_array_gives_an_empty_kernel(small_grid, geometry):
    config = make_config(small_grid, geometry, n_realizations=8)
    kernel = detector_kernel(config, IDENTITY, IDENTITY, bucket=False, x2_indices=np.arange(0))
    assert kernel.g1.shape == kernel.g2.shape == (len(kernel), 0)


def test_an_empty_scan_window_or_mode_set_is_refused(small_grid, geometry):
    with pytest.raises(ValueError, match="scan window contains no grid samples"):
        scan_indices(small_grid, -1e-3)
    cols = np.arange(4)
    empty = ModeSet(small_grid, np.zeros((0, 4), complex), np.zeros((0, 4), complex), cols, cols)
    with pytest.raises(ValueError, match="mode set is empty"):
        g2_analytic(empty)


@pytest.mark.parametrize("workers", [0, -3])
def test_mc_refuses_fewer_than_one_worker(small_grid, geometry, workers):
    config = make_config(small_grid, geometry, n_realizations=8)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        accumulate_mc(config, IDENTITY, IDENTITY, workers=workers)


@pytest.mark.parametrize("block_size", [0, -1])
@pytest.mark.parametrize("call", [accumulate_mc, mode_decomposition], ids=["mc", "modes"])
def test_block_size_below_one_is_refused_before_any_build_or_draw(small_grid, geometry, call,
                                                                 block_size, monkeypatch):
    # was a bare StopIteration, a range() error or "negative dimensions"
    calls = []
    for module, name in ((optics, "propagate_block"), (correlation, "mode_decomposition"),
                         (correlation, "sample_source_block")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    config = make_config(small_grid, geometry, n_realizations=8)
    arms = build_arms(geometry, make_slit(small_grid, 0.0, 0.4e-3))
    with pytest.raises(ValueError, match="block_size must be at least 1"):
        call(config, *arms, block_size=block_size)
    assert calls == []


@pytest.mark.parametrize("call", ["kernel", "mc", "analytic"])
def test_bucket_and_diagonal_are_exclusive(small_grid, geometry, call):
    config = make_config(small_grid, geometry, n_realizations=8)
    calls = {
        "kernel": lambda: detector_kernel(config, IDENTITY, IDENTITY, True, diagonal=True),
        "mc": lambda: accumulate_mc(config, IDENTITY, IDENTITY, True, diagonal=True),
        "analytic": lambda: g2_analytic(
            mode_decomposition(config, IDENTITY, IDENTITY), True, diagonal=True),
    }
    with pytest.raises(ValueError, match="mutually exclusive"):
        calls[call]()


def test_mc_threads_capped_at_cpu_count(small_grid, geometry, monkeypatch):
    cpus = os.cpu_count() or 1
    workers = cpus + 4
    config = make_config(small_grid, geometry, n_realizations=8 * workers, seed=6)
    options = dict(bucket=False, diagonal=True, x2_indices=aperture_indices(config),
                   block_size=8)
    ref = accumulate_mc(config, IDENTITY, IDENTITY, workers=1, **options)

    lock, running, peak, drawers, reducers = threading.Lock(), [0], [0], set(), set()
    draw, block_sums = correlation.sample_source_block, correlation._block_sums

    def counted(*args, **kwargs):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            drawers.add(threading.get_ident())
        try:
            time.sleep(0.05)  # long enough for every started thread to pick up a draw
            return draw(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    def reduced(*args):
        reducers.add(threading.get_ident())
        return block_sums(*args)

    monkeypatch.setattr(correlation, "sample_source_block", counted)
    monkeypatch.setattr(correlation, "_block_sums", reduced)
    out = accumulate_mc(config, IDENTITY, IDENTITY, workers=workers, **options)
    assert 1 <= peak[0] <= cpus
    for name in ("g2_raw", "i1_mean", "i2_mean", "eps"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name
    # the pool only draws, and every block is reduced on the calling thread
    assert reducers == {threading.get_ident()} and threading.get_ident() not in drawers


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_block_j_is_drawn_on_thread_j_mod_workers(small_grid, geometry, workers, monkeypatch):
    # an instantaneous draw: with one shared pool a single thread could take
    # every block; striped, each block has its thread whatever the timing
    workers = min(workers, os.cpu_count() or 1)
    config = make_config(small_grid, geometry, n_realizations=4 * 8, seed=8)
    lock, thread_of = threading.Lock(), {}

    def instant(config, k0, k1, *, width):
        with lock:
            thread_of[k0 // 8] = threading.get_ident()
        return np.zeros((k1 - k0, width), dtype=np.complex128)

    monkeypatch.setattr(correlation, "sample_source_block", instant)
    accumulate_mc(config, IDENTITY, IDENTITY, bucket=False, diagonal=True,
                  x2_indices=aperture_indices(config), block_size=8, workers=workers)
    assert sorted(thread_of) == [0, 1, 2, 3]
    assert len(set(thread_of.values())) == workers
    assert threading.get_ident() not in thread_of.values()
    for j in range(4):
        assert thread_of[j] == thread_of[j % workers], j


def test_mc_holds_at_most_workers_blocks_unmerged(small_grid, geometry, monkeypatch):
    # held: drawn or drawing, and not yet reduced on the calling thread; alive:
    # started and not yet reduced, the block being reduced included
    cpus = os.cpu_count() or 1
    blocks = 4 * cpus + 3
    config = make_config(small_grid, geometry, n_realizations=8 * blocks, seed=7)
    options = dict(bucket=False, diagonal=True, x2_indices=aperture_indices(config),
                   block_size=8)
    ref = accumulate_mc(config, IDENTITY, IDENTITY, workers=1, **options)
    draw, block_sums = correlation.sample_source_block, correlation._block_sums

    for workers in sorted({1, cpus}):
        lock, started, held, alive = threading.Lock(), [], [], []
        began = [threading.Event() for _ in range(blocks)]

        def stalled(config, k0, k1, **kwargs):
            with lock:
                started.append(k0)
            began[k0 // 8].set()
            if k0 == 0:
                # long enough for every other draw to run, had it been submitted
                time.sleep(0.3)
                with lock:
                    held.append(len(started))  # nothing is reduced before block 0
            return draw(config, k0, k1, **kwargs)

        def reduced(*args):
            j = len(alive)
            if j + 1 < blocks:
                # block j + 1 is submitted before block j is reduced: let it start
                began[j + 1].wait(timeout=2)
            with lock:
                alive.append(len(started) - j)
            return block_sums(*args)

        monkeypatch.setattr(correlation, "sample_source_block", stalled)
        monkeypatch.setattr(correlation, "_block_sums", reduced)
        out = accumulate_mc(config, IDENTITY, IDENTITY, workers=workers, **options)
        assert 1 <= held[0] <= workers
        assert len(alive) == blocks and max(alive) <= workers + 1, alive
        if workers == 1:
            assert min(alive[:-1]) >= 2, alive
        assert sorted(started) == list(range(0, config.n_realizations, 8))
        for name in ("g2_raw", "i1_mean", "i2_mean", "eps"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name


@pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"workers={w}")
def test_mc_draw_runs_one_block_ahead_of_the_reduction(small_grid, geometry, workers,
                                                       monkeypatch):
    # by events, not timing: the reduction of block j waits for the draw of
    # block j + 1 to start, which it can only do if it was submitted first
    blocks = 6
    config = make_config(small_grid, geometry, n_realizations=8 * blocks, seed=9)
    options = dict(bucket=False, diagonal=True, x2_indices=aperture_indices(config),
                   block_size=8)
    ref = accumulate_mc(config, IDENTITY, IDENTITY, workers=1, **options)
    started = [threading.Event() for _ in range(blocks)]
    ahead = []
    draw, block_sums = correlation.sample_source_block, correlation._block_sums

    def signalled(config, k0, k1, **kwargs):
        started[k0 // 8].set()
        return draw(config, k0, k1, **kwargs)

    def waiting(*args):
        j = len(ahead)
        ahead.append(j + 1 == blocks or started[j + 1].wait(timeout=2))
        return block_sums(*args)

    monkeypatch.setattr(correlation, "sample_source_block", signalled)
    monkeypatch.setattr(correlation, "_block_sums", waiting)
    out = accumulate_mc(config, IDENTITY, IDENTITY, workers=workers, **options)
    assert ahead == [True] * blocks
    for name in ("g2_raw", "i1_mean", "i2_mean", "eps"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["full", "bucket", "diagonal"])
def test_mc_memory_within_the_documented_bound(small_grid, geometry, kind, workers):
    # accumulate_mc's docstring: beyond the kernel build, the range factor's
    # 16*l*(6*m + 2*(n1 + n2)) bytes before the first draw (l its widest
    # basis tried), then the running sums' 16*S + 8*(n1 + n2) and a hop-free
    # side's selection, 16 bytes a column, with either one block of
    # 32*B*W + 16*(B + W) bytes on the calling thread (and a full map's
    # 24*B*n1 + 8*n1*W, and where a side is a selection, the 8*B*w bytes of
    # |c|^2), W the widest column chunk, and `workers` + 1 draws of 16*w*B'
    # bytes (w the draw's width; B = 256 is whole 64-realization chunks, so
    # B' = B), or the tail's one row block, 9*R*n2 (R = min(n1, 32) rows of a
    # full map, 1 of a bucket or a diagonal).  The bound counts `workers`
    # draws, one fewer than the docstring: the block term's margin holds the
    # draw run ahead.
    # The bench's 200 um source (m = 25) is drawn m wide; the wide one
    # (m = 375) is factored, but for Siegert's identity kernel (the
    # diagonal's third case), whose sides are gathered
    cases = [(bench, build_arms(bench, make_double_slit(small_grid, 1e-3, 0.2e-3)))
             for bench in (geometry, WIDE_SOURCE)]
    if kind == "diagonal":
        cases.append((WIDE_SOURCE, (IDENTITY, IDENTITY)))
    for bench, arms in cases:
        config = make_config(small_grid, bench, n_realizations=2048, seed=13)
        x2 = scan_indices(small_grid, 3e-3)
        options = dict(bucket=kind == "bucket", diagonal=kind == "diagonal",
                       x1_indices=x2 if kind == "full" else None, x2_indices=x2)
        kernel_peak = _traced_peak(lambda: detector_kernel(config, *arms, **options))
        mc_peak = _traced_peak(lambda: accumulate_mc(config, *arms, workers=workers, **options))
        kernel = detector_kernel(config, *arms, **options)
        m, n1, n2 = len(kernel), len(kernel.columns1), len(kernel.columns2)
        factored = correlation._range_factor(kernel)[0]
        width = len(factored)
        assert (width < m) == (bench is WIDE_SOURCE and arms[0] is not IDENTITY)
        selected = [g.shape[1] for g in (factored.g1, factored.g2)
                    if correlation._selection(g) is not None]
        assert len(selected) == (2 if arms[0] is IDENTITY else 0)
        # the range finder tries l = 32, 64, ... below m, and stops at the width it
        # keeps; the identity's rank floor pins all m rows, so it tries none
        tried = [32 << k for k in range(6) if 32 << k < m and arms[0] is not IDENTITY]
        factor = 16 * (width if width < m else max(tried, default=0)) * (6 * m + 2 * (n1 + n2))
        factor = max(factor, 40 * max(n1, n2) + 8 * m)  # the floor, first
        S = n1 * n2 if kind == "full" else n2
        tail = 9 * (min(n1, correlation._TAIL_ROWS) if kind == "full" else 1) * n2
        W = min(max(n1, n2), correlation._CHUNK_COLS)
        block = 32 * 256 * W + 16 * (256 + W)
        if kind == "full":
            block += 24 * 256 * n1 + 8 * n1 * W
        if selected:
            block += 8 * 256 * width
        draw = 16 * 256 * width
        slack = 64 * 1024  # Python objects: futures, tuples, the pool
        loop = 16 * S + 8 * (n1 + n2) + 16 * sum(selected) + max(block + workers * draw, tail)
        assert mc_peak <= kernel_peak + max(factor, loop) + slack, m


@pytest.mark.parametrize("kind", ["full", "bucket", "diagonal"])
def test_mc_memory_grows_with_the_window_by_held_columns_only(small_grid, geometry, kind):
    # past _CHUNK_COLS scan columns a block stops growing: one more column
    # costs accumulate_mc, beyond the kernel build, only what it holds for the
    # whole call, the kernel's column and its map entries' sums, and the
    # tail's eps temporaries in one row block of the map (_TAIL_ROWS rows of a
    # full map), not a block's 24*B bytes of fields and intensities (6144 per
    # column, where the narrow bench's m = 25 holds at most 1496)
    config = make_config(small_grid, geometry, n_realizations=512, seed=17)
    obj = make_double_slit(small_grid, 1e-3, 0.2e-3)
    arms = build_arms(geometry, obj)
    grown, held = [], []
    for halfwidth in (4.4e-3, 8e-3):
        x2 = scan_indices(small_grid, halfwidth)
        assert len(x2) > 1024  # so a block's chunk is 1024 columns at either width
        options = dict(bucket=kind == "bucket", diagonal=kind == "diagonal",
                       x1_indices=obj.support_indices() if kind == "full" else None,
                       x2_indices=x2)
        kernel = detector_kernel(config, *arms, **options)
        n1, n2 = len(kernel.columns1), len(kernel.columns2)
        S = n1 * n2 if kind == "full" else n2
        tail = 9 * (min(n1, correlation._TAIL_ROWS) if kind == "full" else 1) * n2
        held.append(kernel.g1.nbytes + kernel.g2.nbytes + 16 * S + tail + 8 * (n1 + n2))
        del kernel
        kernel_peak = _traced_peak(lambda: detector_kernel(config, *arms, **options))
        mc_peak = _traced_peak(lambda: accumulate_mc(config, *arms, **options))
        grown.append(mc_peak - kernel_peak)
    assert grown[1] - grown[0] <= held[1] - held[0] + 64 * 1024, (grown, held)


@pytest.mark.parametrize("bench", [SetupGeometry(), WIDE_SOURCE], ids=["m25", "m375"])
def test_analytic_bucket_term_equals_the_unchunked_sum(small_grid, bench):
    # a 250-column slit (one arm-1 chunk) and 2001 scan columns (two arm-2
    # chunks): the chunked term2 has the bits of the one-product form
    config = make_config(small_grid, bench)
    kernel = detector_kernel(config, *build_arms(bench, make_slit(small_grid, 0.0, 2e-3)),
                             x2_indices=scan_indices(small_grid, 8e-3))
    g1, g2 = kernel.g1, kernel.g2
    assert g1.shape[1] <= correlation._ANALYTIC_CHUNK < correlation._CHUNK_COLS < g2.shape[1]
    term2 = (np.abs(g1.conj().T @ g2) ** 2).sum(axis=0) * small_grid.dx
    assert np.array_equal(g2_analytic(kernel).term2, term2)


def test_analytic_bucket_memory_grows_with_the_window_by_held_columns_only(small_grid,
                                                                            geometry):
    # past _CHUNK_COLS scan columns the bucket's K = g1^H g2 stops growing: one
    # more column costs g2_analytic, beyond the kernel, only |g2| and its
    # square (at most 16*m = 400 bytes, for rho2) and its map entries (rho2,
    # term2, g2_raw, the marginal product and x2), not K's and |K|^2's 24*n1
    # (6000)
    config = make_config(small_grid, geometry)
    arms = build_arms(geometry, make_slit(small_grid, 0.0, 2e-3))
    grown, held = [], []
    for halfwidth in (4.4e-3, 8e-3):
        kernel = detector_kernel(config, *arms, x2_indices=scan_indices(small_grid, halfwidth))
        m, n2 = kernel.g2.shape
        assert n2 > correlation._CHUNK_COLS  # so K is 1024 columns wide at either width
        held.append(16 * m * n2 + 40 * n2)
        grown.append(_traced_peak(lambda: g2_analytic(kernel)))
    assert grown[1] - grown[0] <= held[1] - held[0] + 64 * 1024, (grown, held)


def test_mc_block_bounds_are_not_listed_before_the_first_draw(small_grid, geometry,
                                                               monkeypatch):
    # 10^8 realizations are 390625 blocks: a list of their bounds alone traced 51 MB
    class FirstDraw(Exception):
        pass

    def first_draw(*args, **kwargs):
        raise FirstDraw

    monkeypatch.setattr(correlation, "sample_source_block", first_draw)
    config = make_config(small_grid, geometry, n_realizations=10**8)
    arms = build_arms(geometry, make_slit(small_grid, 0.0, 0.4e-3))

    def until_the_first_draw():
        with pytest.raises(FirstDraw):
            accumulate_mc(config, *arms, x2_indices=scan_indices(small_grid, 1e-3))

    assert _traced_peak(until_the_first_draw) < 20e6


@pytest.mark.parametrize("kind", ["full", "bucket", "diagonal"])
def test_block_sums_equal_the_einsum_and_broadcast_forms(small_grid, kind, monkeypatch):
    # 257 realizations in blocks of 256: the last block holds a single row,
    # drawn as wide as the kernel, as accumulate_mc does.  At 16 columns a
    # chunk, the 501-column window and the bucket's 50 arm-1 columns each span
    # several chunks, the last one ragged.  Three kernels: the double slit's
    # range factor (dense), and two hop-free ones whose sides are selections,
    # which _block_sums gathers from |c|^2 with the dense path's bits:
    # Siegert's identity (m = 375; the bucket reads all 2048 columns, 1673
    # of them empty) and a 32-sample slit read at 64 columns, half of them
    # empty, unfactored (its floor would factor it to 32 dense rows)
    config = make_config(small_grid, WIDE_SOURCE, n_realizations=257, seed=9)
    obj = make_double_slit(small_grid, 1e-3, 0.2e-3)
    slit32 = ArmPath((one_slit(1000, 32),))
    benches = {
        "factor": (build_arms(WIDE_SOURCE, obj), obj.support_indices(),
                   scan_indices(small_grid, 2e-3)),
        "siegert": ((IDENTITY, IDENTITY), None, aperture_indices(config)),
        "slit32": ((slit32, slit32), None, np.arange(984, 1048)),
    }
    dx = small_grid.dx
    for bench, (arms, x1, x2) in benches.items():
        kernel = detector_kernel(
            config, *arms, bucket=kind == "bucket", diagonal=kind == "diagonal",
            x1_indices=(x2 if x1 is None else x1) if kind == "full" else None, x2_indices=x2,
        )
        if bench == "factor":
            kernel, basis = correlation._range_factor(kernel)
            assert basis is not None and len(kernel) < len(aperture_indices(config))
        selections = (correlation._selection(kernel.g1), correlation._selection(kernel.g2))
        assert all((s is None) == (bench == "factor") for s in selections)
        width, n1 = len(kernel), len(kernel.columns1)
        for chunk in (correlation._CHUNK_COLS, 16):
            monkeypatch.setattr(correlation, "_CHUNK_COLS", chunk)
            for k0, k1 in ((0, 256), (256, 257)):
                c = sample_source_block(config, k0, k1, width=width)

                def intensities(g):
                    # |c g|^2 from the column slices _block_sums multiplies: a
                    # slice's GEMM may round apart from the whole one's, by ulps
                    return np.hstack([np.abs(c @ g[:, c0 : c0 + chunk]) ** 2
                                      for c0 in range(0, g.shape[1], chunk)])

                for g in (kernel.g1, kernel.g2):
                    np.testing.assert_allclose(intensities(g), np.abs(c @ g) ** 2,
                                               rtol=1e-13, atol=0)
                # a full map's arm-1 intensities are one GEMM, read whole
                I1 = np.abs(c @ kernel.g1) ** 2 if kind == "full" else intensities(kernel.g1)
                I2 = intensities(kernel.g2)
                if kind == "full":
                    want = [np.einsum("bi,bj->ij", I1, I2), np.einsum("bi,bj->ij", I1**2, I2**2)]
                else:
                    if kind == "bucket":
                        rows = I1.sum(axis=1) * dx
                        I1 = sum(I1[:, c0 : c0 + chunk].sum(axis=1)
                                 for c0 in range(0, n1, chunk)) * dx
                        np.testing.assert_allclose(I1, rows, rtol=1e-13, atol=0)
                    P = I1[:, None] * I2 if kind == "bucket" else I1 * I2
                    want = [P.sum(axis=0), (P**2).sum(axis=0)]
                want += [I1.sum(axis=0), I2.sum(axis=0)]
                got = [np.zeros_like(w) for w in want]
                correlation._block_sums(kernel, kind, c, dx, got, (None, None))
                for name, g, w in zip(("P", "P2", "I1", "I2"), got, want):
                    if kind == "full" and name in ("P", "P2"):
                        # GEMM sums non-negative terms in another order: k1 - k0 ulps at most
                        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0, err_msg=name)
                    else:  # the same elementwise operations
                        assert np.array_equal(g, w), (bench, chunk, k0, name)
                if bench != "factor":
                    gathered = [np.zeros_like(w) for w in want]
                    correlation._block_sums(kernel, kind, c, dx, gathered, selections)
                    for name, g, d in zip(("P", "P2", "I1", "I2"), gathered, got):
                        assert np.array_equal(g, d), (bench, chunk, k0, name)


@pytest.mark.parametrize("kind", ["bucket", "diagonal", "full"])
def test_mc_gathers_hop_free_sides_with_the_dense_bits(small_grid, kind, monkeypatch):
    # identity arms: both sides of Siegert's kernel are selections, so every
    # block's intensities are gathered from |c|^2; with _selection forced to
    # None every block runs the dense GEMMs, and no bit moves, at 1 or 2 workers
    config = make_config(small_grid, WIDE_SOURCE, n_realizations=600, seed=19)
    x2 = aperture_indices(config)
    options = dict(bucket=kind == "bucket", diagonal=kind == "diagonal",
                   x1_indices=x2 if kind == "full" else None, x2_indices=x2)
    passed, block_sums = [], correlation._block_sums

    def spied(*args):
        passed.append(args[5])
        return block_sums(*args)

    monkeypatch.setattr(correlation, "_block_sums", spied)
    gathered = [accumulate_mc(config, IDENTITY, IDENTITY, workers=w, **options) for w in (1, 2)]
    assert len(passed) == 6 and all(s is not None for sel in passed for s in sel)
    monkeypatch.setattr(correlation, "_selection", lambda g: None)
    dense = accumulate_mc(config, IDENTITY, IDENTITY, **options)
    assert passed[6:] == [(None, None)] * 3
    for out in gathered:
        for name in ("g2_raw", "eps", "i1_mean", "i2_mean"):
            assert np.array_equal(getattr(out, name), getattr(dense, name)), name


def _all_tries_factor(kernel):
    """_range_factor with no rank floor: every doubling of its first width
    below m is tried, each on its own fixed-key test matrix."""
    g1, g2 = kernel.g1, kernel.g2
    m = len(kernel)
    total = np.linalg.norm(g1) ** 2 + np.linalg.norm(g2) ** 2
    width = correlation._FACTOR_WIDTH
    while width < m:
        z = Generator(Philox(key=correlation._SKETCH_KEY)).standard_normal((m, 2 * width))
        omega_h = z.view(np.complex128).T.conj()
        sketch = g1 @ (omega_h @ g1).T.conj() + g2 @ (omega_h @ g2).T.conj()
        q_h = np.linalg.qr(sketch)[0].T.conj()
        f1, f2 = q_h @ g1, q_h @ g2
        residual = total - np.linalg.norm(f1) ** 2 - np.linalg.norm(f2) ** 2
        if residual <= correlation._FACTOR_TOL * total:
            return f1, f2, q_h
        width *= 2
    return g1, g2, None


@settings(max_examples=30, deadline=None)
@given(arm1=PATHS, arm2=PATHS)
# both arms read the same 32 source samples: G has rank 32 exactly, so the
# first basis (l = 32) holds it with no direction to spare
@example(arm1=ArmPath((one_slit(1000, 32), Propagate(0.25))),
         arm2=ArmPath((one_slit(1000, 32), Propagate(0.3), Lens(0.1), Propagate(0.25))))
# a hop-free arm: its rank floor (1 here) is below 32, and the kernel is
# drawn at its factor's width, l = 128 of m = 375
@example(arm1=ArmPath((one_slit(1000, 10),)),
         arm2=ArmPath((Propagate(0.3), Lens(0.1), Propagate(0.25))))
def test_range_factor_holds_the_cross_spectral_density(arm1, arm2):
    # F^H F = G^H G on the kept columns to the factor's tolerance, with at most
    # m rows, bit for bit the factor of a finder that tries every width; and
    # accumulate_mc draws len(F) normals on every input
    config = make_config(SMALL_GRID, WIDE_SOURCE, n_realizations=2)
    cols = np.arange(0, SMALL_GRID.n, 16)
    options = dict(bucket=False, x1_indices=cols, x2_indices=cols)
    kernel = detector_kernel(config, arm1, arm2, **options)
    factor, basis = correlation._range_factor(kernel)
    m, width = len(kernel), factor.g1.shape[0]
    assert width <= m and (basis is None) == (width == m)
    G = np.hstack([kernel.g1, kernel.g2])
    F = np.hstack([factor.g1, factor.g2])
    err = np.linalg.norm(G.conj().T @ G - F.conj().T @ F)
    assert err <= correlation._FACTOR_TOL * np.linalg.norm(G) ** 2

    f1, f2, q_h = _all_tries_factor(kernel)
    assert np.array_equal(factor.g1, f1) and np.array_equal(factor.g2, f2)
    assert (basis is None) == (q_h is None) and (q_h is None or np.array_equal(basis, q_h))

    widths, draw = [], correlation.sample_source_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlation, "sample_source_block",
                   lambda *args, width: widths.append(width) or draw(*args, width=width))
        accumulate_mc(config, arm1, arm2, **options)
    assert len(factor) == width and widths == [len(factor)]


@pytest.mark.parametrize("arm, x2, width, sketches", [
    # Siegert's identity kernel pins all m = 375 rows: no basis is tried
    (IDENTITY, None, 375, 0),
    # a hop-free 32-sample slit pins 32 rows of a rank-32 kernel: one try, at 32
    (ArmPath((one_slit(1000, 32),)), np.arange(1000, 1032), 32, 1),
], ids=["siegert", "slit32"])
def test_the_rank_floor_sets_the_first_try(small_grid, monkeypatch, arm, x2, width, sketches):
    config = make_config(small_grid, WIDE_SOURCE, n_realizations=2)
    x2 = aperture_indices(config) if x2 is None else x2
    kernel = detector_kernel(config, arm, arm, bucket=False, diagonal=True, x2_indices=x2)
    f1, f2, q_h = _all_tries_factor(kernel)
    qr_calls, widths, draw, qr = [], [], correlation.sample_source_block, np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(a.shape) or qr(a))
    monkeypatch.setattr(correlation, "sample_source_block",
                        lambda *args, width: widths.append(width) or draw(*args, width=width))
    factor, basis = correlation._range_factor(kernel)
    assert len(qr_calls) == sketches and len(factor) == width
    assert np.array_equal(factor.g1, f1) and np.array_equal(factor.g2, f2)
    assert (basis is None) == (q_h is None) and (q_h is None or np.array_equal(basis, q_h))
    accumulate_mc(config, arm, arm, bucket=False, diagonal=True, x2_indices=x2)
    assert widths == [width]


# the hop's masked side is dense with its column 0 empty, so it is counted whole
@pytest.mark.parametrize("arm1", [IDENTITY, ArmPath((one_slit(1000, 10),)),
                                  ArmPath((Propagate(0.25), one_slit(1000, 512)))],
                         ids=["identity", "mask", "hop"])
def test_rank_floor_forms_no_kernel_sized_array(small_grid, arm1):
    # an identity arm 2 pins all m = 375 rows, so no basis is tried and the
    # trace holds the floor alone: accumulate_mc's docstring gives it at most
    # 40*max(n1, n2) + 8*m bytes, far below the m x n kernel it reads.  The
    # floor reads each side through _selection: the identity's and the mask's
    # arm 1 are selections (|g|^2 of each column's one nonzero), the hop's is None
    config = make_config(small_grid, WIDE_SOURCE, n_realizations=2)
    kernel = detector_kernel(config, arm1, IDENTITY, bucket=False, diagonal=True)
    m, n = len(kernel), len(kernel.columns2)
    peak = _traced_peak(lambda: correlation._range_factor(kernel))
    assert correlation._range_factor(kernel)[1] is None
    assert peak <= 40 * n + 8 * m + 4096 < m * n
    dense = any(isinstance(el, Propagate) for el in arm1)
    for g in (kernel.g1, kernel.g2):
        selection = correlation._selection(g)
        if g is kernel.g1 and dense:
            assert selection is None
            continue
        rows, weights = selection
        cols = np.arange(n)
        assert np.array_equal(np.abs(g[rows, cols]) ** 2, weights)
        g = g.copy()
        g[rows, cols] = 0  # each column's nonzero, if it has one, is the one selected
        assert not g.any()


def test_fluctuation_equals_interference_term(grid, geometry):
    config = make_config(grid, geometry, n_realizations=2)
    obj = make_pinhole(grid, 0.0, 60e-6)
    arm1 = ArmPath((Propagate(geometry.z_source_object), obj))
    arm2 = ArmPath(
        (Propagate(geometry.z_source_lens), Lens(geometry.f), Propagate(geometry.d_b_prime))
    )
    modes = mode_decomposition(
        config, arm1, arm2, columns1=obj.support_indices(), columns2=np.arange(0, grid.n, 8)
    )
    cmap = g2_analytic(modes, bucket=True)
    assert np.array_equal(fluctuation_correlation(cmap), cmap.term2)


def test_fluctuation_of_independent_arms_vanishes(grid, geometry):
    config = make_config(grid, geometry, n_realizations=4000, seed=41)
    idx = aperture_indices(config)
    left = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[:50]).astype(float))
    right = TransmissionMask(grid, np.isin(np.arange(grid.n), idx[50:]).astype(float))
    cmap = accumulate_mc(
        config,
        ArmPath((left,)),
        ArmPath((right,)),
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
    g2 = siegert_normalize(cmap)
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


def test_diagonal_map_of_arms_held_at_different_columns_is_refused(small_grid, geometry):
    config = make_config(small_grid, geometry, n_realizations=2)
    idx = aperture_indices(config)
    modes = mode_decomposition(config, IDENTITY, IDENTITY, columns1=idx, columns2=idx)
    assert np.array_equal(modes.g1, np.eye(len(idx)))
    assert g2_analytic(modes, bucket=False, diagonal=True).kind == "diagonal"
    shifted = mode_decomposition(config, IDENTITY, IDENTITY, columns1=idx, columns2=idx + 1)
    with pytest.raises(ValueError, match="same columns"):
        g2_analytic(shifted, bucket=False, diagonal=True)


def _mode_sum(modes, kind, x1, x2, dx):
    """<I1 I2> from an all-columns kernel: background plus |sum_q g1* g2|^2."""
    G1, G2 = modes.g1, modes.g2[:, x2]
    rho2 = (np.abs(G2) ** 2).sum(axis=0)
    if kind == "bucket":
        i1 = (np.abs(G1) ** 2).sum() * dx
        return i1 * rho2 + dx * (np.abs(G1.conj().T @ G2) ** 2).sum(axis=0)
    G1 = G1[:, x1]
    rho1 = (np.abs(G1) ** 2).sum(axis=0)
    if kind == "diagonal":
        return rho1 * rho2 + np.abs((G1.conj() * G2).sum(axis=0)) ** 2
    return np.multiply.outer(rho1, rho2) + np.abs(G1.conj().T @ G2) ** 2


@pytest.mark.parametrize("kind", ["bucket", "diagonal", "full"])
@pytest.mark.parametrize("scan", ["fig4", "sigma"])
def test_restricted_kernel_mode_sum_equals_all_columns_oracle(small_grid, geometry, scan, kind):
    config = make_config(small_grid, geometry, n_realizations=2)
    obj, arm1, arm2 = _bench_arms(small_grid, geometry, scan)
    if kind == "diagonal":
        X = x1 = scan_indices(small_grid, 3e-3)
    else:
        # a scan window that leaves out the object support, which arm 1 is read on
        x = small_grid.coords()
        X, x1 = np.flatnonzero((x >= -3e-3) & (x <= -0.8e-3)), obj.support_indices()
    bucket, diagonal = kind == "bucket", kind == "diagonal"
    kernel = detector_kernel(
        config, arm1, arm2, bucket, diagonal=diagonal,
        x1_indices=x1 if kind == "full" else None, x2_indices=X,
    )
    cmap = g2_analytic(kernel, bucket, diagonal=diagonal)
    assert cmap.kind == kind and np.array_equal(cmap.x2, small_grid.coords()[X])
    oracle = _mode_sum(mode_decomposition(config, arm1, arm2), kind, x1, X, small_grid.dx)
    np.testing.assert_allclose(cmap.g2_raw, oracle, rtol=1e-12, atol=0)


def _slit_mask(grid, slits):
    # slits inside the central half of the window, the 4x guard band of validate_sampling
    n = grid.n
    t = np.zeros(n)
    for start, width in slits:
        t[n // 4 + start : min(n // 4 + start + width, 3 * n // 4)] = 1.0
    return TransmissionMask(grid, t)


SLITS = st.lists(st.tuples(st.integers(0, 1023), st.integers(1, 256)), min_size=1, max_size=3)


@settings(max_examples=20, deadline=None)
@given(slits=SLITS, seed=st.integers(0, 2**32 - 1))
def test_bucket_i1_over_mask_support_equals_full_grid_sum(small_grid, slits, seed):
    # accumulate_mc factors the bucket's kernel; the full-grid kernel is run
    # through the same basis, and the draw is as wide as the factor
    n = small_grid.n
    obj = _slit_mask(small_grid, slits)
    arm1, arm2 = build_arms(WIDE_SOURCE, obj)
    config = make_config(small_grid, WIDE_SOURCE, n_realizations=8, seed=seed)
    x2 = np.arange(0, n, 64)
    cmap = accumulate_mc(config, arm1, arm2, bucket=True, x2_indices=x2)

    _, basis = correlation._range_factor(detector_kernel(config, arm1, arm2, x2_indices=x2))
    g1 = mode_decomposition(config, arm1, arm2).g1
    if basis is not None:
        g1 = basis @ g1
    c = sample_source_block(config, 0, config.n_realizations, width=len(g1))
    full_grid = (np.abs(c @ g1) ** 2).sum(axis=1) * small_grid.dx
    assert cmap.i1_mean == pytest.approx(full_grid.mean(), rel=1e-12, abs=0)


# benches whose hops a + d_A, a + d_B and d'_B all clear the small grid's
# chirp bound dx * L / lambda = 0.207 m; the image need not be in focus
BENCHES = st.builds(
    lambda a, d_a, s_o, d_b_prime, f: SetupGeometry(
        a=a, d_a=d_a, d_b=d_a + s_o, d_b_prime=d_b_prime, f=f
    ),
    st.floats(0.05, 0.2), st.floats(0.16, 0.3), st.floats(0.02, 0.3),
    st.floats(0.21, 0.5), st.floats(0.03, 0.3),
)


@settings(max_examples=20, deadline=None)
@given(slits=SLITS, bench=BENCHES)
def test_analytic_g2_between_one_and_two_on_random_slits(small_grid, slits, bench):
    # thermal light: 1 <= g2 <= 2 by Cauchy-Schwarz on the mode sum
    obj = _slit_mask(small_grid, slits)
    arm1, arm2 = build_arms(bench, obj)
    config = make_config(small_grid, bench, n_realizations=2)
    X = scan_indices(small_grid, 3e-3)
    for bucket in (True, False):
        kernel = detector_kernel(
            config, arm1, arm2, bucket, x1_indices=None if bucket else obj.support_indices(),
            x2_indices=X,
        )
        g2 = siegert_normalize(g2_analytic(kernel, bucket))
        assert g2.min() >= 1.0 - 1e-12
        assert g2.max() <= 2.0 + 1e-9


@pytest.mark.parametrize("kind", ["full", "diagonal", "bucket"])
def test_worker_count_does_not_change_bits_for_maps(grid, geometry, kind):
    # 257 realizations in blocks of 256: the last block holds a single row
    config = make_config(grid, geometry, n_realizations=257, seed=8)
    obj, arm1, arm2 = _bench_arms(grid, geometry, "fig4")
    options = dict(
        bucket=kind == "bucket",
        diagonal=kind == "diagonal",
        x1_indices=obj.support_indices() if kind == "full" else None,
        x2_indices=scan_indices(grid, 2e-3),
    )
    ref = accumulate_mc(config, arm1, arm2, workers=1, **options)
    assert ref.kind == kind
    for workers in (2, 4):
        out = accumulate_mc(config, arm1, arm2, workers=workers, **options)
        for name in ("g2_raw", "i1_mean", "i2_mean", "eps"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), (workers, name)


def test_mc_tail_row_block_does_not_change_bits(small_grid, geometry, monkeypatch):
    # a full map's eps is formed _TAIL_ROWS rows at a time: one row, 7 rows
    # (the 50 slit columns end in a ragged block) and all n1 rows give the
    # same bits.  Arm 2 ends in a mask dark at one scan column, where <I2> is
    # 0 and eps is 0/0, so the eps = inf rule runs in every block
    config = make_config(small_grid, geometry, n_realizations=300, seed=23)
    obj = make_double_slit(small_grid, 1e-3, 0.2e-3)
    arm1, arm2 = build_arms(geometry, obj)
    x2 = scan_indices(small_grid, 2e-3)
    t = np.ones(small_grid.n)
    t[x2[40]] = 0.0
    arm2 = ArmPath((*arm2, TransmissionMask(small_grid, t)))
    x1 = obj.support_indices()
    assert len(x1) % 7 != 0
    maps = []
    for rows in (1, 7, len(x1)):
        monkeypatch.setattr(correlation, "_TAIL_ROWS", rows)
        maps.append(accumulate_mc(config, arm1, arm2, bucket=False, x1_indices=x1,
                                  x2_indices=x2))
    assert maps[0].i2_mean[40] == 0 and np.all(np.isinf(maps[0].eps[:, 40]))
    assert np.all(np.isfinite(np.delete(maps[0].eps, 40, axis=1)))
    for cmap in maps[1:]:
        for name in ("g2_raw", "eps", "i1_mean", "i2_mean"):
            assert np.array_equal(getattr(cmap, name), getattr(maps[0], name)), name


def _visibility_and_peaks(x, trace, halfwidth):
    sel = np.abs(x) <= halfwidth
    v = trace[sel]
    peaks = (x[np.argmax(np.where(x < 0, trace, -np.inf))],
             x[np.argmax(np.where(x > 0, trace, -np.inf))])
    return (v.max() - v.min()) / (v.max() + v.min()), peaks


def test_entangled_light_images_coherently_thermal_light_incoherently():
    # One kernel per scan plane, reduced both ways.  Entangled (ideal EPR
    # source): G2 = |sum_q g1 g2|^2, no conjugate and no background, imaging
    # through the unfolded path s_o = (a + d_A) + (a + d_B) (Pittman, Shih,
    # Strekalov & Sergienko, PRA 52, R3429, 1995).  Thermal: rho1 rho2 +
    # |sum_q g1* g2|^2, imaging at s_o = d_B - d_A with the 1/(2N+1) ceiling.
    # The 3 mm source resolves the slits at both planes; 8192 x 2 um keeps the
    # short entangled-plane hop inside the chirp bound.
    grid = Grid1D(n=8192, dx=2e-6)
    geometry = SetupGeometry(source_diameter=3e-3)
    obj = make_double_slit(grid, 1e-3, 0.2e-3)
    columns2 = scan_indices(grid, 3e-3)
    x = grid.coords()[columns2]
    s_entangled = geometry.z_source_object + geometry.z_source_lens
    found = {}
    for plane, s_o in (("entangled", s_entangled), ("thermal", geometry.s_o)):
        image = solve_thin_lens(s_o, geometry.f)
        geo = replace(geometry, d_b_prime=image.s_i)
        arm1, arm2 = build_arms(geo, obj)
        kernel = mode_decomposition(make_config(grid, geo, n_realizations=1), arm1, arm2,
                                    columns1=obj.support_indices(), columns2=columns2)
        halfwidth = 1.5 * image.magnification * 0.6e-3  # outer slit edge, mapped, plus half
        entangled = (np.abs(kernel.g1.T @ kernel.g2) ** 2).sum(axis=0)
        thermal = siegert_normalize(g2_analytic(kernel))
        found[plane] = {
            "entangled": _visibility_and_peaks(x, entangled, halfwidth),
            "thermal": _visibility_and_peaks(x, thermal, halfwidth),
            "slit_image": image.magnification * 0.5e-3,
        }

    at = found["entangled"]
    vis, peaks = at["entangled"]
    assert vis > 0.99  # coherent: no background
    assert peaks == pytest.approx((-at["slit_image"], at["slit_image"]), rel=0.1)
    assert at["thermal"][0] < 0.01  # thermal light forms no image here

    at = found["thermal"]
    vis, peaks = at["thermal"]
    assert 0.02 < vis < predicted_visibility(2)
    assert peaks == pytest.approx((-at["slit_image"], at["slit_image"]), rel=0.1)
    assert at["entangled"][0] < vis / 2  # entangled light is defocused here
