"""Batch front end: flat key=value configs, named scenarios, CSV/PGM export
and a deterministic run manifest.

Exit codes: 0 success; 2 config error (ConfigError or any other ValueError,
e.g. an object, scan window or image plane the config values cannot build,
or a g2 map they leave non-finite); 3 sampling-validation failure
(SamplingError: a guard band, chirp bound or window Fresnel number that
core.validate_sampling refuses); 4 I/O error (OSError).  The commands raise
these exceptions and `main` alone maps them to exit codes, with one stderr
line each.  A failed `run` removes the --out directory it made.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import shutil
import sys
import time
import warnings
from dataclasses import replace
from decimal import Context, Decimal, DecimalException
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    Grid1D,
    SetupGeometry,
    make_double_slit,
    make_pinhole,
    validate_sampling,
)
from .experiment import (
    ImageTrace,
    default_image_window,
    defocus_sweep,
    eq3_residual,
    ghost_image_scan,
    magnification_scale,
    peak_position,
    predicted_visibility,
    pseudo_object_scan,
    siegert_scan,
    solve_image_plane,
    visibility,
)
from .optics import SamplingError
from .source import EnsembleConfig

__all__ = ["main", "run_scenario", "export_trace", "export_image", "parse_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SAMPLING = 3
EXIT_IO = 4

_LENGTH_UNITS = {"m": 0, "mm": -3, "um": -6, "µm": -6, "nm": -9}  # powers of ten

_BENCH = SetupGeometry()  # the paper's Fig.-1 bench
# key -> (kind, default); lengths in meters after parsing
CONFIG_SCHEMA: dict[str, tuple[str, object]] = {
    "a": ("length", _BENCH.a),
    "d_A": ("length", _BENCH.d_a),
    "d_B": ("length", _BENCH.d_b),
    "d_B_prime": ("length", _BENCH.d_b_prime),
    "f": ("length", _BENCH.f),
    "wavelength": ("length", _BENCH.wavelength),
    "source_diameter": ("length", _BENCH.source_diameter),
    "grid_n": ("int", 16384),
    "grid_dx": ("length", 2e-6),
    "seed": ("int", 20040720),
    "n_realizations": ("int", 10000),
    "engine": ("engine", "analytic"),
    "pinhole_diameter": ("length", 60e-6),
    "slit_width": ("length", 0.2e-3),
    "slit_separation": ("length", 1e-3),
    "scan_halfwidth": ("length", 6e-3),
    "defocus_source_diameter": ("length", 3e-3),
}

FIG3_SHIFTS_MM = (-2, 0, 2)
DEFOCUS_DELTAS_MM = tuple(range(-50, 51, 10))


class ConfigError(ValueError):
    pass


def _parse_length(text: str) -> float:
    """Meters from a number and an optional unit, whose power of ten joins the
    decimal exponent: the double nearest the value ("200um" is 2e-4, not 200 * 1e-6)."""
    s = text.strip()
    for unit in sorted(_LENGTH_UNITS, key=len, reverse=True):
        if s.endswith(unit):
            num = s[: -len(unit)].strip()
            if num:
                try:  # len(num) digits of precision hold every digit, so scaleb is exact
                    return float(Decimal(num).scaleb(_LENGTH_UNITS[unit], Context(prec=len(num))))
                except DecimalException:  # an ArithmeticError, not a ValueError
                    raise ValueError(f"could not read {num!r} as a number") from None
    return float(s)


def parse_config(path: str | Path) -> dict:
    """Read a flat key = value config; unknown, repeated and bad keys are
    errors reported with their line numbers."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    first_line: dict[str, int] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}: line {lineno}: key {key!r} already set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        kind, _ = CONFIG_SCHEMA[key]
        try:
            if kind == "length":
                cfg[key] = _parse_length(value)
                if not (math.isfinite(cfg[key]) and cfg[key] > 0):
                    raise ValueError(f"length must be finite and positive, got {value!r}")
            elif kind == "int":
                cfg[key] = int(value)
            elif kind == "engine":
                if value not in ("mc", "analytic"):
                    raise ValueError("engine must be 'mc' or 'analytic'")
                cfg[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key!r}: {exc}") from None
    return cfg


def _geometry(cfg: dict) -> SetupGeometry:
    return SetupGeometry(
        a=cfg["a"],
        d_a=cfg["d_A"],
        d_b=cfg["d_B"],
        d_b_prime=cfg["d_B_prime"],
        f=cfg["f"],
        wavelength=cfg["wavelength"],
        source_diameter=cfg["source_diameter"],
    )


def _grid(cfg: dict) -> Grid1D:
    return Grid1D(n=cfg["grid_n"], dx=cfg["grid_dx"])


def _apertures(cfg: dict) -> dict[str, float]:
    return {
        "source": cfg["source_diameter"],
        "defocus_source": cfg["defocus_source_diameter"],
        "pinhole": cfg["pinhole_diameter"],
        "slits": cfg["slit_separation"] + cfg["slit_width"],
    }


def _sampling_reports(cfg: dict):
    """Sampling checks of the shortest hop any scenario runs, with every
    aperture any places (the chirp bound lambda*z/L tightens as z shrinks),
    and of the longest (the window Fresnel number L^2/(lambda*z) falls as z
    grows)."""
    geometry = _geometry(cfg)
    hops = [geometry.z_source_object, geometry.z_source_lens, geometry.d_b_prime]
    if geometry.s_o > geometry.f:
        # the sweep's re-solved d'_B plus its most negative and positive deltas
        d_b_prime = solve_image_plane(geometry).d_b_prime
        hops += [d_b_prime + d * 1e-3 for d in (min(DEFOCUS_DELTAS_MM), max(DEFOCUS_DELTAS_MM))]
    hops = [h for h in hops if h > 0]
    grid, wavelength = _grid(cfg), cfg["wavelength"]
    apertures = list(_apertures(cfg).values())
    return (
        validate_sampling(grid, wavelength, min(hops), apertures=apertures),
        validate_sampling(grid, wavelength, max(hops)),
    )


def _write_lines(path: str | Path, lines) -> None:
    """Text file of the given lines, each ended by LF on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_trace(trace: ImageTrace, path: str | Path) -> None:
    """CSV trace: header + one row per scan point, 17 significant digits, LF.
    Each distinct bit pattern of a column is formatted once (a bucket's
    singles1 is one value at every point); -0.0 and 0.0 stay apart."""
    columns = []
    for col in (trace.positions, trace.coincidence, trace.singles1, trace.singles2):
        bits, inverse = np.unique(np.asarray(col, dtype=float).view(np.uint64),
                                  return_inverse=True)
        text = np.array([f"{v:.17g}" for v in bits.view(float).tolist()], dtype=object)
        columns.append(text[inverse].tolist())
    _write_lines(path, ["x2_m,coincidence,singles1,singles2", *map(",".join, zip(*columns))])


def export_image(data: np.ndarray, path: str | Path) -> tuple[float, float]:
    """Binary 16-bit PGM (P5) of a 1D or 2D array, min -> 0 and max -> 65535;
    returns the scaling constants.  A constant field writes an all-zero image
    with a warning."""
    arr = np.atleast_2d(np.asarray(data, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        warnings.warn(f"constant field: writing all-zero image to {path}")
        pixels = np.zeros(arr.shape, dtype=">u2")
    else:
        pixels = np.round((arr - lo) / (hi - lo) * 65535.0).astype(">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())
    return lo, hi


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_manifest(path: Path, entries: dict) -> None:
    _write_lines(path, [f"{k} = {_fmt(entries[k])}" for k in sorted(entries)])


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _scenario_fig3(cfg, econf, workers, outdir):
    files, summary = [], {}
    peaks = {}
    for shift_mm in FIG3_SHIFTS_MM:
        obj = make_pinhole(econf.grid, shift_mm * 1e-3, cfg["pinhole_diameter"])
        trace = ghost_image_scan(
            obj,
            econf,
            engine=cfg["engine"],
            scan_halfwidth=cfg["scan_halfwidth"],
            workers=workers,
        )
        name = f"fig3_shift_{shift_mm:+d}mm.csv"
        export_trace(trace, outdir / name)
        files.append(name)
        peaks[shift_mm] = peak_position(trace)
        summary[f"summary.peak_mm.shift_{shift_mm:+d}mm"] = peaks[shift_mm] * 1e3
    lo, hi = min(FIG3_SHIFTS_MM), max(FIG3_SHIFTS_MM)
    if peaks[hi] != peaks[lo]:
        summary["summary.magnification_measured"] = (peaks[lo] - peaks[hi]) / ((hi - lo) * 1e-3)
    summary["summary.magnification_scale"] = magnification_scale(econf.geometry)
    return files, summary


def _scenario_fig4(cfg, econf, workers, outdir):
    obj = make_double_slit(econf.grid, cfg["slit_separation"], cfg["slit_width"])
    trace = ghost_image_scan(
        obj,
        econf,
        engine=cfg["engine"],
        scan_halfwidth=cfg["scan_halfwidth"],
        workers=workers,
    )
    export_trace(trace, outdir / "fig4_doubleslit.csv")
    lo, hi = export_image(trace.coincidence[None, :], outdir / "fig4_doubleslit.pgm")
    pos, coin = trace.positions, trace.coincidence
    pk_neg = pos[np.argmax(np.where(pos < 0, coin, -np.inf))]
    pk_pos = pos[np.argmax(np.where(pos > 0, coin, -np.inf))]
    vis = visibility(trace, default_image_window(econf.geometry, obj))
    print(f"fig4-doubleslit: peak separation {(pk_pos - pk_neg) * 1e3:.3f} mm, "
          f"visibility {vis:.4f}")
    summary = {
        "summary.peak_separation_mm": (pk_pos - pk_neg) * 1e3,
        "summary.visibility": vis,
        "summary.visibility_ceiling_n2": predicted_visibility(obj.feature_count()),
        "summary.paper_measured_visibility": 0.12,  # reference metadata, not a target
        "summary.pgm_scale_min": lo,
        "summary.pgm_scale_max": hi,
    }
    return ["fig4_doubleslit.csv", "fig4_doubleslit.pgm"], summary


def _scenario_sigma(cfg, econf, workers, outdir):
    obj = make_pinhole(econf.grid, 1e-3, cfg["pinhole_diameter"])
    trace = pseudo_object_scan(
        obj,
        econf,
        engine=cfg["engine"],
        scan_halfwidth=cfg["scan_halfwidth"],
        workers=workers,
    )
    export_trace(trace, outdir / "sigma_plane.csv")
    vis = visibility(trace, default_image_window(econf.geometry, obj, upright=True))
    summary = {
        "summary.peak_mm": peak_position(trace) * 1e3,
        "summary.visibility": vis,
    }
    return ["sigma_plane.csv"], summary


def _scenario_defocus(cfg, econf, workers, outdir):
    # wider effective source: the 200 um bench source has a multi-meter
    # two-photon depth of focus, far beyond a +-50 mm sweep
    geo = replace(
        solve_image_plane(econf.geometry), source_diameter=cfg["defocus_source_diameter"]
    )
    econf = replace(econf, geometry=geo)
    obj = make_pinhole(econf.grid, 0.0, cfg["pinhole_diameter"])
    deltas = [d * 1e-3 for d in DEFOCUS_DELTAS_MM]
    points = defocus_sweep(obj, econf, deltas, engine=cfg["engine"], workers=workers)
    name = "defocus.csv"
    lines = ["delta_m,visibility,peak_width_m"]
    for p in points:
        lines.append(f"{p.delta:.17g},{p.visibility:.17g},{p.peak_width:.17g}")
    _write_lines(outdir / name, lines)
    best = max(points, key=lambda p: p.visibility)
    summary = {
        "summary.argmax_delta_mm": best.delta * 1e3,
        "summary.visibility_max": best.visibility,
        "summary.visibility_min": min(p.visibility for p in points),
        "summary.d_B_prime_solved_m": geo.d_b_prime,
        "summary.defocus_source_diameter_m": geo.source_diameter,
    }
    return [name], summary


def _scenario_siegert(cfg, econf, workers, outdir):
    trace = siegert_scan(econf, cfg["engine"], workers=workers)
    export_trace(trace, outdir / "siegert_baseline.csv")
    g2 = trace.coincidence
    summary = {
        "summary.mean_g2": float(g2.mean()),
        "summary.max_abs_dev_from_2": float(np.abs(g2 - 2).max()),
    }
    return ["siegert_baseline.csv"], summary


# name -> (scenario, the apertures it places, as named by _apertures)
SCENARIOS = {
    "fig3-point": (_scenario_fig3, ("source", "pinhole")),
    "fig4-doubleslit": (_scenario_fig4, ("source", "slits")),
    "sigma-plane": (_scenario_sigma, ("source", "pinhole")),
    "defocus": (_scenario_defocus, ("defocus_source", "pinhole")),
    "siegert-baseline": (_scenario_siegert, ("source",)),
}


def run_scenario(
    name: str,
    config_path: str | Path,
    out_dir: str | Path,
    engine: str | None = None,
    seed: int | None = None,
    realizations: int | None = None,
    workers: int = 1,
) -> dict:
    """Run a named scenario; writes traces plus a deterministic manifest and
    returns the manifest entries.

    Raises ConfigError for an unknown scenario or a bad config line, and
    ValueError for values the setup cannot be built from; SamplingError for a
    guard band too small for the apertures the scenario places (checked
    before --out is made), or for a hop the scenario runs that
    core.validate_sampling refuses (optics.propagate_block checks each hop
    as it runs);
    OSError, as the file system raised it (naming the path), for unreadable
    config or unwritable output.  On any failure after --out is made, the
    directory it made is removed.  `main` maps these to exits 2-4.
    """
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; valid scenarios: {', '.join(sorted(SCENARIOS))}"
        )
    cfg = parse_config(config_path)
    if engine is not None:
        cfg["engine"] = engine
    if seed is not None:
        cfg["seed"] = seed
    if realizations is not None:
        cfg["n_realizations"] = realizations

    grid = _grid(cfg)
    scenario, places = SCENARIOS[name]
    report = validate_sampling(grid, cfg["wavelength"], 0.0, [_apertures(cfg)[a] for a in places])
    if not report.ok:
        raise SamplingError("; ".join(report.messages))
    econf = EnsembleConfig(
        n_realizations=cfg["n_realizations"],
        seed=cfg["seed"],
        geometry=_geometry(cfg),
        grid=grid,
    )

    outdir = Path(out_dir)
    made = [p for p in (outdir, *outdir.parents) if not p.exists()]
    t0 = time.perf_counter()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        files, summary = scenario(cfg, econf, workers, outdir)
        entries: dict = {"scenario": name, "version": __version__}
        for key, value in cfg.items():
            entries[f"config.{key}"] = value
        geometry = econf.geometry
        entries["geometry.s_o_m"] = geometry.s_o
        entries["geometry.eq3_residual_per_m"] = eq3_residual(geometry)
        if geometry.s_o > geometry.f:  # else the thin lens forms no real image
            entries["geometry.d_B_prime_solved_m"] = solve_image_plane(geometry).d_b_prime
        entries.update(summary)
        for fname in files:
            fpath = outdir / fname
            entries[f"output.{fname}.sha256"] = _digest(fpath)
            entries[f"output.{fname}.bytes"] = fpath.stat().st_size
        write_manifest(outdir / "manifest.txt", entries)
    except BaseException:
        if made:  # a failed run leaves no directory of its own behind
            shutil.rmtree(made[-1], ignore_errors=True)
        raise
    print(f"{name}: wrote {len(files)} file(s) to {outdir} "
          f"(wall time {time.perf_counter() - t0:.1f} s)")
    return entries


def _cmd_run(args) -> int:
    run_scenario(
        args.scenario,
        args.config,
        args.out,
        engine=args.engine,
        seed=args.seed,
        realizations=args.realizations,
        workers=args.workers,
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    """Print the chirp, Fresnel-number and guard-band lines of the config's
    sampling reports to stdout; a failed check raises SamplingError with all
    its messages, so the fault reads as the same one stderr line that `run`
    gives."""
    shortest, longest = _sampling_reports(parse_config(args.config))
    print(f"chirp bound: dx_max = {shortest.chirp_dx_max:.6g} m "
          f"(margin {shortest.chirp_margin:.3g}) -> {'ok' if shortest.chirp_ok else 'FAIL'}")
    print(f"window Fresnel number: L^2/(lambda*z) = {longest.fresnel_number:.3g} "
          f"-> {'ok' if longest.fresnel_ok else 'FAIL'}")
    print(f"guard band: window/(4*aperture) = {shortest.guard_margin:.3g} "
          f"-> {'ok' if shortest.guard_ok else 'FAIL'}")
    # the longest hop passes the chirp bound if the shortest does
    messages = shortest.messages + (() if longest.fresnel_ok else longest.messages)
    if messages:
        raise SamplingError("; ".join(messages))
    return EXIT_OK


def _cmd_list(_args) -> int:
    for name in sorted(SCENARIOS):
        print(name)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghost",
        description="Two-arm pseudo-thermal ghost-imaging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--engine", choices=["mc", "analytic"], default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--realizations", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=1, metavar="N",
                       help="MC draw threads, N at most the CPU count, drawing one "
                            "block ahead of the reduction; outputs are byte-identical "
                            "for any N; < 1 refused by either engine")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse a config and check sampling")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list-scenarios", help="list scenario names")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SamplingError as exc:  # a ValueError, so caught first
        print(f"sampling validation failed: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
