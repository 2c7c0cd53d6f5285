"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them).  Monte Carlo runs use the shipped
default seed and 10^4 realizations; analytic runs are deterministic.
"""

import hashlib
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from ghostsim import (
    ArmPath,
    Grid1D,
    Lens,
    Propagate,
    SetupGeometry,
    TransmissionMask,
    accumulate_mc,
    default_image_window,
    defocus_sweep,
    g2_analytic,
    ghost_image_scan,
    make_double_slit,
    make_pinhole,
    make_slit,
    mode_decomposition,
    peak_position,
    predicted_visibility,
    pseudo_object_scan,
    siegert_normalize,
    solve_image_plane,
    solve_thin_lens,
    visibility,
)
from ghostsim.cli import main as cli_main
from ghostsim.experiment import magnification_scale
from ghostsim.optics import _transfer_function, apply_path_block, lens_phase, propagate_block
from ghostsim.source import EnsembleConfig, aperture_indices

SEED = 20040720
N_MC = 10_000
GRID = Grid1D(n=16384, dx=2e-6)
BENCH = SetupGeometry.default()          # verbatim bench distances
FOCUSED = solve_image_plane(BENCH)       # exact thin-lens scan plane
SCAN_STEP = GRID.dx


def econf(geometry, n=N_MC, seed=SEED):
    return EnsembleConfig(n_realizations=n, seed=seed, geometry=geometry, grid=GRID)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{desc}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{desc}]: PASS")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def slit_traces():
    obj = make_slit(GRID, 0.0, 0.2e-3)
    an = ghost_image_scan(FOCUSED, obj, econf(FOCUSED, n=2), engine="analytic")
    mc = ghost_image_scan(FOCUSED, obj, econf(FOCUSED), engine="mc", workers=4)
    return obj, an, mc


@pytest.fixture(scope="module")
def fig4_traces():
    obj = make_double_slit(GRID, 1e-3, 0.2e-3)
    an = ghost_image_scan(FOCUSED, obj, econf(FOCUSED, n=2), engine="analytic")
    mc = ghost_image_scan(FOCUSED, obj, econf(FOCUSED), engine="mc", workers=4)
    mc_small = ghost_image_scan(
        FOCUSED, obj, econf(FOCUSED, n=1000), engine="mc", workers=4
    )
    return obj, an, mc, mc_small


@pytest.fixture(scope="module")
def sigma_traces():
    obj = make_pinhole(GRID, 1e-3, 60e-6)
    an = pseudo_object_scan(FOCUSED, obj, econf(FOCUSED, n=2), engine="analytic")
    mc = pseudo_object_scan(FOCUSED, obj, econf(FOCUSED), engine="mc", workers=4)
    return obj, an, mc


@pytest.fixture(scope="module")
def defocus_geometry():
    return replace(FOCUSED, source_diameter=3e-3)


@pytest.fixture(scope="module")
def defocus_traces(defocus_geometry):
    geo = defocus_geometry
    obj = make_pinhole(GRID, 0.0, 60e-6)
    an = ghost_image_scan(geo, obj, econf(geo, n=2), engine="analytic", scan_halfwidth=2e-3)
    mc = ghost_image_scan(geo, obj, econf(geo), engine="mc", workers=4, scan_halfwidth=2e-3)
    return obj, an, mc


@pytest.fixture(scope="module")
def siegert_maps():
    identity = ArmPath(())
    cfg = econf(BENCH)
    idx = aperture_indices(cfg)
    modes = mode_decomposition(cfg, identity, identity)
    an = siegert_normalize(g2_analytic(modes, bucket=False, diagonal=True, x2_indices=idx))
    mc_map = accumulate_mc(
        cfg, identity, identity, bucket=False, diagonal=True, x2_indices=idx, workers=4
    )
    mc = siegert_normalize(mc_map)
    return an, mc, mc_map


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_magnification_peak_shift():
    with criterion(1, "magnification: pinhole shift maps to -M * shift"):
        sol = solve_thin_lens(s_o=FOCUSED.s_o, f=FOCUSED.f)
        assert FOCUSED.d_b_prime == sol.s_i
        m = sol.magnification
        cfg = econf(FOCUSED, n=2)
        peaks = {}
        for shift in (0.0, 2e-3):
            obj = make_pinhole(GRID, shift, 60e-6)
            trace = ghost_image_scan(FOCUSED, obj, cfg, engine="analytic")
            peaks[shift] = peak_position(trace)
        measured_shift = peaks[2e-3] - peaks[0.0]
        assert abs(measured_shift - (-m * 2e-3)) <= 0.05e-3
        # bench reference: ~4.3 mm shift for 2 mm, magnification ~2.2
        assert abs(measured_shift) == pytest.approx(4.36e-3, abs=0.05e-3)


def test_c02_single_feature_visibility(slit_traces):
    with criterion(2, "single 0.2 mm slit visibility = 1/3"):
        obj, an, mc = slit_traces
        window = default_image_window(FOCUSED, obj)
        v_an = visibility(an, window)
        assert abs(v_an - 1.0 / 3.0) <= 0.01

        # MC agreement, evaluated at the analytic extremum positions to avoid
        # extreme-value bias of max/min over thousands of noisy samples
        sel = (an.positions >= window[0]) & (an.positions <= window[1])
        i_hi = np.flatnonzero(sel)[np.argmax(an.coincidence[sel])]
        i_lo = np.flatnonzero(sel)[np.argmin(an.coincidence[sel])]
        a, b = mc.coincidence[i_hi], mc.coincidence[i_lo]
        v_mc = (a - b) / (a + b)
        ea, eb = mc.eps[i_hi], mc.eps[i_lo]
        eps_v = np.hypot(2 * b * ea, 2 * a * eb) / (a + b) ** 2
        assert abs(v_mc - v_an) <= 3 * eps_v


def test_c03_visibility_law():
    with criterion(3, "visibility 1/(2k+1) for k = 1, 2, 3 separated slits"):
        cfg = econf(FOCUSED, n=2)
        for k in (1, 2, 3):
            centers = (np.arange(k) - (k - 1) / 2) * 3e-3
            t = np.zeros(GRID.n)
            for c in centers:
                t = np.maximum(t, np.abs(make_slit(GRID, c, 0.04e-3).t))
            obj = TransmissionMask(GRID, t)
            trace = ghost_image_scan(
                FOCUSED, obj, cfg, engine="analytic", scan_halfwidth=7.4e-3
            )
            v = visibility(trace, default_image_window(FOCUSED, obj))
            assert abs(v - predicted_visibility(k)) <= 0.02, f"k={k}: {v}"


def test_c04_double_slit_ghost_image(fig4_traces):
    with criterion(4, "double-slit image: peaks, flat singles, R^2 vs mode sum"):
        obj, an, mc, _ = fig4_traces
        m = magnification_scale(FOCUSED)
        pos, coin = an.positions, an.coincidence
        pk_neg = pos[np.argmax(np.where(pos < 0, coin, -np.inf))]
        pk_pos = pos[np.argmax(np.where(pos > 0, coin, -np.inf))]
        assert (pk_pos - pk_neg) == pytest.approx(m * 1e-3, abs=0.05e-3)

        singles = mc.singles2 / mc.singles2.mean()
        assert singles.var() < (3.0 / np.sqrt(N_MC)) ** 2

        resid = mc.coincidence - an.coincidence
        ss_tot = ((mc.coincidence - mc.coincidence.mean()) ** 2).sum()
        r2 = 1.0 - (resid**2).sum() / ss_tot
        assert r2 > 0.99, f"R^2 = {r2}"


def test_c05_siegert_thermal_baseline(siegert_maps):
    with criterion(5, "identical arms: g2 = 2 on the diagonal, 1 <= g2 <= 2"):
        an, mc, mc_map = siegert_maps
        assert np.allclose(an.g2, 2.0, atol=1e-12)

        n = mc_map.n_accumulated
        sigma_pt = 2.0 / np.sqrt(n)
        assert abs(mc.g2.mean() - 2.0) <= 3 * sigma_pt / np.sqrt(len(mc.g2))
        assert np.abs(mc.g2 - 2.0).max() <= 3 * np.maximum(mc_map.eps, sigma_pt).max()

        # global thermal bound on a full analytic map through the bench arms
        cfg = econf(FOCUSED, n=2)
        obj = make_slit(GRID, 0.0, 0.4e-3)
        from ghostsim.experiment import build_arms

        arm1, arm2 = build_arms(FOCUSED, obj)
        modes = mode_decomposition(cfg, arm1, arm2)
        x1 = obj.support_indices()
        x2 = np.flatnonzero(np.abs(GRID.coords()) <= 4e-3)[::4]
        full = siegert_normalize(g2_analytic(modes, bucket=False, x1_indices=x1, x2_indices=x2))
        assert full.g2.min() >= 1.0 - 1e-12
        assert full.g2.max() <= 2.0 + 1e-9
        bucket = siegert_normalize(g2_analytic(modes, bucket=True, x2_indices=x2))
        assert bucket.g2.min() >= 1.0 - 1e-12
        assert bucket.g2.max() <= 2.0 + 1e-9


def test_c06_engine_equivalence(slit_traces, fig4_traces, sigma_traces, defocus_traces,
                                siegert_maps):
    with criterion(6, "MC matches mode sum within 3 eps; error shrinks ~sqrt(10)"):
        pairs = {
            "slit": (slit_traces[1], slit_traces[2]),
            "double-slit": (fig4_traces[1], fig4_traces[2]),
            "sigma": (sigma_traces[1], sigma_traces[2]),
            "defocus-0": (defocus_traces[1], defocus_traces[2]),
        }
        for name, (an, mc) in pairs.items():
            diff = np.abs(mc.coincidence - an.coincidence)
            assert np.all(diff < 3 * mc.eps), (
                f"{name}: worst {np.max(diff / mc.eps):.2f} eps"
            )
        an, mc, mc_map = siegert_maps
        assert np.all(np.abs(mc.g2 - an.g2) < 3 * np.maximum(mc_map.eps, 2.0 / np.sqrt(N_MC)))

        _, an4, mc4, mc4_small = fig4_traces
        rms_small = np.sqrt(((mc4_small.coincidence - an4.coincidence) ** 2).mean())
        rms_big = np.sqrt(((mc4.coincidence - an4.coincidence) ** 2).mean())
        assert 1.5 <= rms_small / rms_big <= 6.0


def test_c07_propagator_oracles():
    with criterion(7, "FFT = direct summation; Gaussian waist; energy conserved"):
        # direct O(n^2) evaluation of the identical discrete operator
        g = Grid1D(n=128, dx=10e-6)
        wl, z = 633e-9, 30e-3
        rng = np.random.default_rng(12)
        amp = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        out = propagate_block(amp, g, wl, z)
        H = _transfer_function(g.n, g.dx, wl, z)
        nu = g.frequencies()
        kernel = np.array(
            [(H * np.exp(2j * np.pi * nu * (l * g.dx))).sum() / g.n for l in range(g.n)]
        )
        direct = np.array(
            [sum(amp[q] * kernel[(l - q) % g.n] for q in range(g.n)) for l in range(g.n)]
        )
        assert np.linalg.norm(direct - out) / np.linalg.norm(out) <= 1e-10

        # Gaussian-beam waist law to < 0.5%
        g2 = Grid1D(n=4096, dx=2e-6)
        w0, z2 = 100e-6, 50e-3
        x = g2.coords()
        beam = np.exp(-(x**2) / w0**2).astype(complex)
        prop = apply_path_block(beam, g2, wl, ArmPath((Propagate(z2),)))
        intensity = np.abs(prop) ** 2
        w_fit = 2 * np.sqrt((x**2 * intensity).sum() / intensity.sum())
        w_true = w0 * np.sqrt(1 + (wl * z2 / (np.pi * w0**2)) ** 2)
        assert abs(w_fit - w_true) / w_true < 0.005

        # energy conservation through a mask-free arm
        def power(a):
            return (np.abs(a) ** 2).sum() * GRID.dx

        field = np.exp(-(GRID.coords() ** 2) / (100e-6) ** 2).astype(complex)
        arm = ArmPath(
            (Propagate(FOCUSED.z_source_lens), Lens(FOCUSED.f), Propagate(FOCUSED.d_b_prime))
        )
        out = apply_path_block(field, GRID, wl, arm)
        assert abs(power(out) - power(field)) / power(field) <= 1e-10
        lens_only = field * lens_phase(GRID, wl, FOCUSED.f)
        assert abs(power(lens_only) - power(field)) / power(field) <= 1e-12


def test_c08_pseudo_object_plane():
    with criterion(8, "sigma-plane scan: upright, unit magnification"):
        cfg = econf(FOCUSED, n=2)
        for shift in (-2e-3, 1e-3, 2e-3):
            obj = make_pinhole(GRID, shift, 60e-6)
            trace = pseudo_object_scan(FOCUSED, obj, cfg, engine="analytic")
            assert abs(peak_position(trace) - obj.centroid()) <= SCAN_STEP


def test_c09_defocus_optimum(defocus_geometry):
    with criterion(9, "visibility maximal at the thin-lens solution"):
        geo = defocus_geometry
        cfg = econf(geo, n=2)
        obj = make_pinhole(GRID, 0.0, 60e-6)
        deltas = [d * 1e-3 for d in range(-50, 51, 10)]
        points = defocus_sweep(geo, obj, cfg, deltas)
        vis = np.array([p.visibility for p in points])
        argmax_delta = points[int(np.argmax(vis))].delta
        assert abs(argmax_delta - 0.0) <= 10e-3
        # unimodal within the sweep
        i = int(np.argmax(vis))
        assert np.all(np.diff(vis[: i + 1]) > 0)
        assert np.all(np.diff(vis[i:]) < 0)


def test_c10_fluctuation_mode_background_free():
    with criterion(10, "fluctuation correlation: visibility > 98%"):
        cfg = econf(FOCUSED, n=2)
        objects = [
            make_pinhole(GRID, 0.0, 60e-6),
            make_slit(GRID, 0.0, 0.2e-3),
            make_double_slit(GRID, 3e-3, 0.04e-3),
        ]
        for obj in objects:
            trace = ghost_image_scan(
                FOCUSED, obj, cfg, mode="fluctuation", engine="analytic",
                scan_halfwidth=7.4e-3,
            )
            v = visibility(trace, default_image_window(FOCUSED, obj))
            assert v > 0.98, f"{obj.feature_count()} features: {v}"


def test_c11_output_determinism(tmp_path):
    with criterion(11, "byte-identical outputs across worker counts"):
        from ghostsim.cli import CONFIG_SCHEMA

        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n_realizations = 1536\nengine = mc\n")
        digests = []
        for workers, sub in ((1, "w1"), (4, "w4")):
            out = tmp_path / sub
            code = cli_main(
                ["run", "fig4-doubleslit", "--config", str(cfg_file),
                 "--out", str(out), "--workers", str(workers)]
            )
            assert code == 0
            files = sorted(p.name for p in out.iterdir())
            assert files == ["fig4_doubleslit.csv", "fig4_doubleslit.pgm", "manifest.txt"]
            digests.append(
                tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files)
            )
        assert digests[0] == digests[1]
