import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import warnings
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghostsim import SetupGeometry
from ghostsim.cli import (
    _LENGTH_UNITS,
    CONFIG_SCHEMA,
    SCENARIOS,
    ConfigError,
    _geometry,
    _parse_length,
    export_image,
    export_trace,
    main,
    parse_config,
)
from ghostsim.experiment import ImageTrace

PAPER_CFG = Path(__file__).resolve().parents[1] / "src" / "ghostsim" / "paper.cfg"


def small_cfg(tmp_path, **overrides):
    """Config with a light ensemble for quick runs."""
    lines = PAPER_CFG.read_text().splitlines()
    values = {"n_realizations": "512", **{k: str(v) for k, v in overrides.items()}}
    out = []
    for line in lines:
        key = line.split("=")[0].strip() if "=" in line else None
        if key in values:
            out.append(f"{key} = {values.pop(key)}")
        else:
            out.append(line)
    out.extend(f"{k} = {v}" for k, v in values.items())
    p = tmp_path / "test.cfg"
    p.write_text("\n".join(out) + "\n")
    return p


# chirp bound dx*L/lambda = 207 mm: just below the 213 mm source -> object hop
SMALL_GRID = {"grid_n": 2048, "grid_dx": "8um"}
# too coarse for every bench hop; its apertures span at least one 0.25 mm pitch
COARSE_GRID = {"grid_n": 64, "grid_dx": "0.25mm", "source_diameter": "0.5mm",
               "pinhole_diameter": "0.5mm"}
# ghost_image_scan's warning for a bench off the thin-lens surface
OFF_FOCUS = partial(pytest.warns, UserWarning, match="off the thin-lens surface")


def trace_of(n=3):
    pos = np.linspace(-1e-3, 1e-3, n) if n else np.empty(0)
    return ImageTrace(
        positions=pos,
        coincidence=np.linspace(1, 2, n) if n else np.empty(0),
        singles1=np.full(n, 0.5),
        singles2=np.full(n, 0.25),
    )


class TestConfig:
    def test_paper_cfg_parses_to_bench_values(self):
        cfg = parse_config(PAPER_CFG)
        assert cfg["a"] == pytest.approx(0.125)
        assert cfg["d_A"] == pytest.approx(0.088)
        assert cfg["d_B"] == pytest.approx(0.212)
        assert cfg["d_B_prime"] == pytest.approx(0.2685)
        assert cfg["f"] == pytest.approx(0.085)
        assert cfg["source_diameter"] == pytest.approx(200e-6)
        assert cfg["wavelength"] == pytest.approx(633e-9)
        assert cfg["grid_n"] == 16384
        assert cfg["engine"] == "analytic"

    def test_paper_cfg_is_the_bench_of_the_defaults(self):
        # "200um" parses to the literal 200e-6, not to 200 * 1e-6, one ulp below
        cfg = parse_config(PAPER_CFG)
        assert cfg == {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
        assert _geometry(cfg) == SetupGeometry()

    def test_each_geometry_field_is_set_by_one_config_key(self):
        from ghostsim.cli import _GEOMETRY_KEYS

        fields = [field.name for field in dataclasses.fields(SetupGeometry)]
        assert sorted(_GEOMETRY_KEYS.values()) == sorted(fields)
        assert list(CONFIG_SCHEMA)[: len(fields)] == list(_GEOMETRY_KEYS)

    @given(number=st.decimals(-10**300, 10**300, allow_nan=False, allow_infinity=False),
           unit=st.sampled_from(sorted(_LENGTH_UNITS)))
    def test_length_is_the_double_nearest_its_decimal_value(self, number, unit):
        exact = Fraction(number) * Fraction(10) ** _LENGTH_UNITS[unit]
        assert _parse_length(f"{number}{unit}") == float(exact)

    def test_unit_suffixes(self, tmp_path):
        p = tmp_path / "u.cfg"
        p.write_text("a = 0.125m\nd_A = 88 mm\nf = 85000um\nwavelength = 633nm\n")
        cfg = parse_config(p)
        assert cfg["a"] == pytest.approx(0.125)
        assert cfg["d_A"] == pytest.approx(0.088)
        assert cfg["f"] == pytest.approx(0.085)

    def test_unknown_key_is_line_anchored_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("a = 125mm\n# comment\nd_Z = 3mm\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(p)

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("seed = 1\n# comment\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"line 3: key 'seed' already set on line 1"):
            parse_config(p)
        assert main(["validate", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_line_without_equals_is_line_anchored_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("a = 125mm\nd_A 88mm\n")
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config(p)
        assert main(["validate", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("seed = notanumber\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(p)

    def test_nonpositive_length_is_line_anchored_error(self, tmp_path, capsys):
        for text, line in (("slit_width = 0mm\n", "line 1"),
                           ("a = 125mm\nscan_halfwidth = -1mm\n", "line 2"),
                           ("d_A = 88mm\na = inf\n", "line 2"),
                           ("f = 1e400mm\n", "line 1"),
                           ("a = nanmm\n", "line 1"),
                           ("a = sNaNmm\n", "line 1"),
                           ("f = 1e9999999mm\n", "line 1"),
                           ("d_A = 88mm\nf = 8x5mm\n", "line 2")):
            p = tmp_path / "bad.cfg"
            p.write_text(text)
            with pytest.raises(ConfigError, match=line):
                parse_config(p)
            assert main(["validate", "--config", str(p)]) == 2
            assert "Traceback" not in capsys.readouterr().err

    def test_bad_engine_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("engine = quantum\n")
        with pytest.raises(ConfigError):
            parse_config(p)


class TestExportTrace:
    def test_three_point_trace_is_four_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        export_trace(trace_of(3), path)
        text = path.read_text()
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0] == "x2_m,coincidence,singles1,singles2"
        assert "\r" not in text

    def test_round_trip_exact(self, tmp_path):
        t = trace_of(7)
        path = tmp_path / "t.csv"
        export_trace(t, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back[:, 0], t.positions)
        assert np.array_equal(back[:, 1], t.coincidence)
        assert np.array_equal(back[:, 2], t.singles1)
        assert np.array_equal(back[:, 3], t.singles2)

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_trace(trace_of(0), path)
        assert path.read_text() == "x2_m,coincidence,singles1,singles2\n"


class TestExportImage:
    def test_constant_field_writes_zero_image_with_warning(self, tmp_path):
        path = tmp_path / "c.pgm"
        with pytest.warns(UserWarning, match="constant"):
            export_image(np.ones((2, 8)), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n8 2\n65535\n")
        assert raw[len(b"P5\n8 2\n65535\n") :] == b"\x00" * 32

    def test_scaling_to_full_range(self, tmp_path):
        path = tmp_path / "s.pgm"
        lo, hi = export_image(np.array([[0.0, 0.5, 1.0]]), path)
        assert (lo, hi) == (0.0, 1.0)
        data = path.read_bytes().split(b"65535\n", 1)[1]
        pix = np.frombuffer(data, dtype=">u2")
        assert list(pix) == [0, 32768, 65535]

    def test_doubleslit_strip_has_two_bright_bands(self, grid, geometry):
        from ghostsim import ghost_image_scan, make_double_slit, solve_image_plane
        from conftest import make_config

        geo = solve_image_plane(geometry)
        obj = make_double_slit(grid, 1e-3, 0.2e-3)
        trace = ghost_image_scan(obj, make_config(grid, geo), engine="analytic",
                                 scan_halfwidth=3e-3)
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "strip.pgm"
            export_image(trace.coincidence[None, :], path)
            data = path.read_bytes().split(b"65535\n", 1)[1]
            pix = np.frombuffer(data, dtype=">u2").astype(float)
        bright = pix > 0.5 * 65535
        bands = int(np.diff(bright.astype(int)).clip(min=0).sum()) + int(bright[0])
        assert bands == 2

    def test_diagonal_map_brightest_on_diagonal(self, grid, geometry, tmp_path):
        # identical arms: g2(x,x) = 2 is the maximum of the map
        from ghostsim import ArmPath, g2_analytic, mode_decomposition, siegert_normalize
        from ghostsim.source import aperture_indices
        from conftest import make_config

        config = make_config(grid, geometry)
        idx = aperture_indices(config)[::4]
        modes = mode_decomposition(config, ArmPath(()), ArmPath(()), columns1=idx, columns2=idx)
        cmap = siegert_normalize(g2_analytic(modes, bucket=False))
        path = tmp_path / "map.pgm"
        export_image(cmap, path)
        data = path.read_bytes().split(b"65535\n", 1)[1]
        pix = np.frombuffer(data, dtype=">u2").reshape(len(idx), len(idx))
        assert np.all(pix.argmax(axis=1) == np.arange(len(idx)))

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_image(np.array([[np.nan, 1.0]]), tmp_path / "x.pgm")


class TestMainCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3-point", "fig4-doubleslit", "sigma-plane", "defocus",
                     "siegert-baseline"):
            assert name in out

    def test_validate_paper_cfg(self, capsys):
        assert main(["validate", "--config", str(PAPER_CFG)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_sampling_failure(self, tmp_path, capsys):
        # a grid too coarse for every hop; a lens -> scan-plane hop too short for the grid
        # and a bench that is fine but whose defocus sweep's d'_B - 50 mm hop is too short
        for override in (
            COARSE_GRID,
            {**SMALL_GRID, "d_B_prime": "1um"},
            {**SMALL_GRID, "f": "80mm"},
        ):
            cfg = small_cfg(tmp_path, **override)
            assert main(["validate", "--config", str(cfg)]) == 3
            err = capsys.readouterr().err
            assert "chirp" in err or "wrap" in err

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense_key = 1\n")
        assert main(["validate", "--config", str(p)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_validate_missing_config_exit_4(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["validate", "--config", str(missing)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "missing.cfg" in err

    def test_run_unknown_scenario_lists_names(self, tmp_path, capsys):
        code = main(
            ["run", "fig9-nope", "--config", str(PAPER_CFG), "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "fig4-doubleslit" in err and "sigma-plane" in err

    def test_run_sampling_violation_exit_3(self, tmp_path, capsys):
        cases = [
            ("fig3-point", "analytic", COARSE_GRID),
            ("fig4-doubleslit", "mc", {**SMALL_GRID, "d_B_prime": "1um"}),
            # the bench hops pass; the sweep's d'_B - 50 mm hop is too short for the grid
            ("defocus", "mc", {**SMALL_GRID, "f": "80mm"}),
            ("defocus", "analytic", {**SMALL_GRID, "f": "80mm"}),
            # the only hop, a + d_A, is too long a chirp for the grid
            ("sigma-plane", "analytic", COARSE_GRID),
            ("sigma-plane", "mc", COARSE_GRID),
        ]
        for scenario, engine, override in cases:
            cfg = small_cfg(tmp_path, **override)
            argv = ["run", scenario, "--config", str(cfg), "--out", str(tmp_path / "o"),
                    "--engine", engine]
            with OFF_FOCUS() if override.get("d_B_prime") == "1um" else nullcontext():
                code = main(argv)
            assert code == 3, (scenario, engine)
            err = capsys.readouterr().err
            assert "chirp" in err and "Traceback" not in err
            assert not (tmp_path / "o").exists(), (scenario, engine)

    def test_defocus_hop_is_checked_only_where_it_is_run(self, tmp_path, capsys):
        # f = 80 mm: the defocus sweep's shortest hop fails, fig4's own hops pass
        cfg = small_cfg(tmp_path, **SMALL_GRID, f="80mm")
        out = tmp_path / "fig4"
        with pytest.warns(UserWarning, match="thin-lens"):
            code = main(["run", "fig4-doubleslit", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "manifest.txt").exists()

    @pytest.mark.filterwarnings("ignore:geometry is off the thin-lens surface")
    @pytest.mark.parametrize(
        "scenario,code",
        [("fig4-doubleslit", 0), ("sigma-plane", 0), ("siegert-baseline", 0), ("defocus", 2)],
    )
    def test_run_without_real_image_writes_manifest_or_exits_2(
        self, tmp_path, capsys, scenario, code
    ):
        # f = 130 mm > s_o = 124 mm: the thin lens forms no real image, so the
        # manifest has no solved d'_B and the defocus sweep has no plane to focus on
        cfg = small_cfg(tmp_path, **SMALL_GRID, f="130mm")
        out = tmp_path / "o"
        assert main(["run", scenario, "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 0:
            manifest = (out / "manifest.txt").read_text()
            assert "geometry.s_o_m = " in manifest
            assert "geometry.d_B_prime_solved_m" not in manifest
        else:
            assert err.startswith("config error: no real image")
            assert not out.exists()

    @pytest.mark.parametrize(
        "command,code",
        [
            (["run", "siegert-baseline"], 0),  # no propagation
            (["run", "sigma-plane"], 0),       # a + d_A only
            (["run", "defocus"], 0),           # re-solves d'_B
            (["run", "fig3-point"], 3),
            (["run", "fig4-doubleslit"], 3),
            (["validate"], 3),                 # every hop of every scenario
        ],
        ids=["siegert", "sigma", "defocus", "fig3", "fig4", "validate"],
    )
    def test_run_checks_only_the_hops_its_scenario_runs(self, tmp_path, capsys, command, code):
        # d'_B = 1 um: a lens -> scan-plane hop too short for the grid, run by fig3/fig4 only
        cfg = small_cfg(tmp_path, **SMALL_GRID, d_B_prime="1um")
        out = tmp_path / "o"
        argv = command + ["--config", str(cfg)]
        if command[0] == "run":
            argv += ["--out", str(out)]
        # d'_B = 1 um puts fig3's and fig4's scans off the thin-lens surface
        off_focus = command[-1] in ("fig3-point", "fig4-doubleslit")
        with OFF_FOCUS() if off_focus else nullcontext():
            assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "manifest.txt").exists() == (code == 0)

    @pytest.mark.parametrize(
        "command,a",
        [
            (["validate"], "1e300m"),
            (["run", "fig4-doubleslit", "--engine", "mc"], "1e300m"),
            (["run", "fig4-doubleslit", "--engine", "analytic"], "1e300m"),
            (["validate"], "282.5m"),
            (["run", "fig4-doubleslit", "--engine", "mc"], "282.5m"),
            (["run", "fig4-doubleslit", "--engine", "analytic"], "282.5m"),
        ],
        ids=["validate", "fig4-mc", "fig4-analytic",
             "validate-NF1.5", "fig4-mc-NF1.5", "fig4-analytic-NF1.5"],
    )
    def test_hop_whose_band_limit_keeps_only_dc_exits_3(self, tmp_path, capsys, command, a):
        # the source hops' window Fresnel number L^2/(lambda z) is ~4e-298 at
        # a = 1e300 m and 1.50 at a = 282.5 m: at or below 2 the band edge
        # L/(2 lambda z) does not pass the first frequency bin 1/L
        cfg = small_cfg(tmp_path, **SMALL_GRID, a=a)
        out = tmp_path / "o"
        argv = command + ["--config", str(cfg)]
        if command[0] == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("sampling validation failed: window Fresnel number")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override,command,code",
        [
            ({"defocus_source_diameter": "5mm"}, ["run", "fig3-point"], 0),
            ({"defocus_source_diameter": "5mm"}, ["run", "fig4-doubleslit"], 0),
            ({"defocus_source_diameter": "5mm"}, ["run", "sigma-plane"], 0),
            ({"defocus_source_diameter": "5mm"}, ["run", "siegert-baseline"], 0),
            ({"defocus_source_diameter": "5mm"}, ["run", "defocus"], 3),
            ({"defocus_source_diameter": "5mm"}, ["validate"], 3),  # every aperture
            ({"pinhole_diameter": "5mm"}, ["run", "fig4-doubleslit"], 0),
            ({"pinhole_diameter": "5mm"}, ["run", "siegert-baseline"], 0),
            ({"pinhole_diameter": "5mm"}, ["run", "fig3-point"], 3),
        ],
        ids=[
            "defocus_source-fig3", "defocus_source-fig4", "defocus_source-sigma",
            "defocus_source-siegert", "defocus_source-defocus", "defocus_source-validate",
            "pinhole-fig4", "pinhole-siegert", "pinhole-fig3",
        ],
    )
    def test_run_checks_only_the_apertures_its_scenario_places(
        self, tmp_path, capsys, override, command, code
    ):
        # a 5 mm aperture needs a 20 mm window; the 2048 x 8 um grid spans 16.4 mm
        cfg = small_cfg(tmp_path, **SMALL_GRID, **override)
        out = tmp_path / "o"
        argv = command + ["--config", str(cfg)]
        if command[0] == "run":
            argv += ["--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("largest aperture (0.005 m)" in err) == (code == 3)
        assert (out / "manifest.txt").exists() == (code == 0)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("scenario", ["fig3-point", "fig4-doubleslit", "sigma-plane",
                                          "siegert-baseline"])
    def test_source_wider_than_the_window_exits_3_at_the_guard_band(
        self, tmp_path, capsys, scenario
    ):
        # the 2048 x 8 um window spans 16.4 mm: the guard band refuses a 20 mm
        # source before anything is built (core.interval_indices would refuse it too)
        cfg = small_cfg(tmp_path, **SMALL_GRID, source_diameter="20mm")
        out = tmp_path / "o"
        assert main(["run", scenario, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("sampling validation failed: window")
        assert "largest aperture (0.02 m)" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario,override",
        [
            ("fig4-doubleslit", {"grid_n": 1000}),
            ("fig4-doubleslit", {"d_B": "50mm"}),
            ("fig4-doubleslit", {"n_realizations": 0}),
            ("fig4-doubleslit", {**SMALL_GRID, "scan_halfwidth": "-1mm"}),
            ("fig3-point", {**SMALL_GRID, "scan_halfwidth": "-1mm"}),
            ("fig4-doubleslit", {**SMALL_GRID, "slit_width": "0mm"}),
            ("fig3-point", {**SMALL_GRID, "pinhole_diameter": "0mm"}),
            ("fig4-doubleslit", {**SMALL_GRID, "slit_width": "2mm", "slit_separation": "1mm"}),
            ("fig4-doubleslit", {**SMALL_GRID, "a": "inf"}),
            # below the 8 um pitch: at x = 0 either would have become one full sample
            ("fig4-doubleslit", {**SMALL_GRID, "source_diameter": "1nm"}),
            ("fig3-point", {**SMALL_GRID, "pinhole_diameter": "1nm"}),
        ],
        ids=[
            "grid_n_not_power_of_two",
            "d_B_before_d_A",
            "zero_realizations",
            "negative_scan_halfwidth_fig4",
            "negative_scan_halfwidth_fig3",
            "zero_slit_width",
            "zero_pinhole_diameter",
            "slits_wider_than_separation",
            "infinite_length",
            "sub_pitch_source",
            "sub_pitch_pinhole",
        ],
    )
    def test_run_bad_config_exit_2(self, tmp_path, capsys, scenario, override):
        cfg = small_cfg(tmp_path, **override)
        out = tmp_path / "o" / "run"
        code = main(["run", scenario, "--config", str(cfg), "--out", str(out), "--engine", "mc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        # also where the objects are built inside the scenario, after --out is made
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("engine", ["analytic", "mc"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_refuses_fewer_than_one_mc_worker(self, tmp_path, capsys, engine, workers):
        # refused under either engine, though only the MC engine runs threads
        out = tmp_path / "o"
        code = main(["run", "siegert-baseline", "--config", str(small_cfg(tmp_path)),
                     "--out", str(out), "--engine", engine, "--workers", workers])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: workers must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["analytic", "mc"])
    @pytest.mark.parametrize("scenario", ["fig3-point", "fig4-doubleslit"])
    def test_run_whose_lens_phase_overflows_exits_2(self, tmp_path, capsys, scenario, engine):
        # f = 1e-307 m: x^2/(lambda f) overflows, so lens_phase refuses the
        # lens before any propagation, with no overflow RuntimeWarning
        cfg = small_cfg(tmp_path, **SMALL_GRID, f="1e-307m")
        out = tmp_path / "o"
        with OFF_FOCUS(), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", scenario, "--config", str(cfg), "--out", str(out),
                         "--engine", engine, "--realizations", "256"])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "config error: lens phase is not finite")
        assert not out.exists()

    def test_failed_run_keeps_an_out_it_did_not_make(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path, **SMALL_GRID, slit_width="2mm", slit_separation="1mm")
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        code = main(["run", "fig4-doubleslit", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_run_io_error_exit_4(self, tmp_path, capsys):
        target = tmp_path / "not_a_dir"
        target.write_text("file in the way")
        cfg = small_cfg(tmp_path)
        code = main(["run", "fig3-point", "--config", str(cfg), "--out", str(target)])
        assert code == 4
        assert "not_a_dir" in capsys.readouterr().err


class TestScenarios:
    def test_fig3_point_writes_three_traces_with_bench_peaks(self, tmp_path, capsys):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "fig3"
        assert main(["run", "fig3-point", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "fig3_shift_+0mm.csv",
            "fig3_shift_+2mm.csv",
            "fig3_shift_-2mm.csv",
        ]
        manifest = (out / "manifest.txt").read_text()
        # verbatim bench distances: peak at -(268.5/124)*2mm = -4.331mm
        peaks = {}
        for line in manifest.splitlines():
            if line.startswith("summary.peak_mm.shift_"):
                key, _, val = line.partition(" = ")
                peaks[key.rsplit("_", 1)[-1]] = float(val)
        assert peaks["+2mm"] == pytest.approx(-4.33, abs=0.05)
        assert peaks["-2mm"] == pytest.approx(+4.33, abs=0.05)
        assert peaks["+0mm"] == pytest.approx(0.0, abs=0.05)
        assert "geometry.eq3_residual_per_m" in manifest

    def test_manifest_echoes_every_config_key(self, tmp_path):
        from ghostsim.cli import CONFIG_SCHEMA

        cfg = small_cfg(tmp_path)
        out = tmp_path / "sigma"
        assert main(["run", "sigma-plane", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        for key in CONFIG_SCHEMA:
            assert f"config.{key} = " in manifest

    def test_engine_and_seed_overrides_land_in_manifest(self, tmp_path):
        cfg = small_cfg(tmp_path)
        out = tmp_path / "o"
        assert main(
            ["run", "sigma-plane", "--config", str(cfg), "--out", str(out),
             "--engine", "mc", "--seed", "7", "--realizations", "256"]
        ) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "config.engine = mc" in manifest
        assert "config.seed = 7" in manifest
        assert "config.n_realizations = 256" in manifest

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_determinism_across_worker_counts(self, tmp_path, scenario):
        # every MC kernel but Siegert's is range-factored: the basis must not
        # depend on the worker count either
        cfg = small_cfg(tmp_path)
        digests = []
        for workers, sub in ((1, "w1"), (3, "w3")):
            out = tmp_path / sub
            code = main(
                ["run", scenario, "--config", str(cfg), "--out", str(out),
                 "--engine", "mc", "--realizations", "384", "--workers", str(workers)]
            )
            assert code == 0
            files = sorted(p.name for p in out.iterdir())
            digests.append(
                {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}
            )
        assert digests[0] == digests[1]

    def test_siegert_baseline_mc(self, tmp_path):
        cfg = small_cfg(tmp_path, n_realizations=2048)
        out = tmp_path / "sg"
        assert main(
            ["run", "siegert-baseline", "--config", str(cfg), "--out", str(out),
             "--engine", "mc"]
        ) == 0
        manifest = (out / "manifest.txt").read_text()
        mean_g2 = float(
            [l for l in manifest.splitlines() if l.startswith("summary.mean_g2")][0]
            .split(" = ")[1]
        )
        assert mean_g2 == pytest.approx(2.0, abs=0.05)


def test_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"]["ghost"] == "ghostsim.cli:main"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-m", "ghostsim.cli", "list-scenarios"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert sorted(res.stdout.split()) == sorted(
        ["fig3-point", "fig4-doubleslit", "sigma-plane", "defocus", "siegert-baseline"]
    )


@pytest.mark.skipif(shutil.which("ghost") is None, reason="console script not installed")
def test_console_entry_point():
    res = subprocess.run(["ghost", "list-scenarios"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "fig3-point" in res.stdout
