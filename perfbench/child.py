"""One benchmark operation, run as a fresh process the way a user runs `ghost run`.

    PYTHONPATH=src python3 perfbench/child.py SPEC.json

SPEC.json names the workload's entry point, the generated config file, the
output directory and whether to trace ("time", "memory" or false).  Set-up
is interpreter start, `import ghostsim`, config parse and the sampling
check; it ends at the "ready" stamp, taken on the system-wide monotonic
clock so the runner can subtract its own spawn stamp.  The timed part is one call of the public
entry point: `cli.run_scenario`, or `correlation.accumulate_mc` for the
full-map workload.  The result goes to RESULT.json beside the spec.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from ghostsim import cli, core, correlation, experiment, source

from tracer import Tracer


def _setup(spec: dict):
    cfg = cli.parse_config(spec["config"])
    geometry = core.SetupGeometry(
        a=cfg["a"],
        d_a=cfg["d_A"],
        d_b=cfg["d_B"],
        d_b_prime=cfg["d_B_prime"],
        f=cfg["f"],
        wavelength=cfg["wavelength"],
        source_diameter=cfg["source_diameter"],
    )
    grid = core.Grid1D(n=cfg["grid_n"], dx=cfg["grid_dx"])
    apertures = [
        cfg["source_diameter"],
        cfg["defocus_source_diameter"],
        cfg["pinhole_diameter"],
        cfg["slit_separation"] + cfg["slit_width"],
    ]
    report = core.validate_sampling(grid, cfg["wavelength"], geometry.total_path, apertures)
    if not report.ok:
        raise SystemExit("sampling validation failed: " + "; ".join(report.messages))

    if spec["entry"] == "fullmap":
        obj = core.make_double_slit(grid, cfg["slit_separation"], cfg["slit_width"])
        arm1, arm2 = experiment.build_arms(geometry, obj)
        econf = source.EnsembleConfig(cfg["n_realizations"], cfg["seed"], geometry, grid)
        x1 = obj.support_indices()
        x2 = experiment.scan_indices(grid, cfg["scan_halfwidth"])

        def call():
            return correlation.accumulate_mc(
                econf, arm1, arm2, bucket=False,
                x1_indices=x1, x2_indices=x2, workers=spec["workers"],
            )
    else:
        def call():
            return cli.run_scenario(
                spec["scenario"], spec["config"], spec["out"],
                engine=spec["engine"], workers=spec["workers"],
            )
    return cfg, geometry, grid, call


def _sizes(spec: dict, cfg: dict, geometry, grid) -> dict:
    """Problem sizes of the operation, taken from the program's own helpers."""
    scenario = spec["scenario"]
    diameter = cfg["defocus_source_diameter"] if scenario == "defocus" else cfg["source_diameter"]
    geo = replace(geometry, source_diameter=diameter)
    modes = len(source.aperture_indices(source.EnsembleConfig(1, 0, geo, grid)))
    x = grid.coords()
    if scenario == "siegert-baseline":
        support = window = modes  # identity arms, read out on the aperture
    elif scenario == "defocus":
        obj = core.make_pinhole(grid, 0.0, cfg["pinhole_diameter"])
        support = len(obj.support_indices())
        lo, hi = experiment.default_image_window(experiment.solve_image_plane(geo), obj)
        window = int(((x >= lo - 1e-3) & (x <= hi + 1e-3)).sum())  # as defocus_sweep pads
    else:
        obj = core.make_double_slit(grid, cfg["slit_separation"], cfg["slit_width"])
        support = len(obj.support_indices())
        window = len(experiment.scan_indices(grid, cfg["scan_halfwidth"]))
    if spec["engine"] == "mc":
        block = inspect.signature(correlation.accumulate_mc).parameters["block_size"].default
        realizations = cfg["n_realizations"]
    else:
        block = inspect.signature(source.mode_decomposition).parameters["block_size"].default
        realizations = 0
    return {
        "grid_n": grid.n,
        "modes_m": modes,
        "support_S": support,
        "window_X": window,
        "realizations": realizations,
        "block_size": block,
        "workers": spec["workers"],
        "seed": cfg["seed"],
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    cfg, geometry, grid, call = _setup(spec)
    result = {"ready": time.monotonic()}
    if not spec["setup_only"]:
        tracer = Tracer(memory=spec["trace"] == "memory") if spec["trace"] else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        out = call()
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)

        out_dir = Path(spec["out"])
        if spec["entry"] == "fullmap":
            # bucket-reduce the map so it compares with the analytic bucket trace
            g2 = out.g2_raw.sum(axis=0) / (np.sum(out.i1_mean) * out.i2_mean)
            np.savez(
                out_dir / "fullmap.npz",
                x2=out.x2, g2=g2, shape=np.array(out.g2_raw.shape),
                finite=np.array(bool(np.isfinite(out.g2_raw).all())),
            )
            result["bytes_written"] = 0
        else:
            result["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        result["sizes"] = _sizes(spec, cfg, geometry, grid)
        result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
