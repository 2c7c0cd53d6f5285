"""Compute the analytic reference the benchmark checks every output against.

    PYTHONPATH=src python3 perfbench/reference.py

Writes perfbench/reference.npz from the program's analytic engine on the
benchmark's grid:
  fig4_x, fig4_g2  the exact mode-sum bucket ghost image of the double slit,
                   the expectation of the mc_bucket and mc_fullmap outputs;
  defocus          the rows of defocus.csv (delta, visibility, peak width),
                   which analytic_defocus must reproduce to rtol 1e-9.
Regenerate it only when the program's physics is meant to change.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import run


def compute(wl: run.Workload) -> dict:
    """Reference outputs on the grid of `wl` (its grid_n and grid_dx)."""
    from ghostsim import cli

    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        tmp = Path(tmp)
        cfg = tmp / "bench.cfg"
        values = run.config_values(replace(wl, engine="analytic"), 0)
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        cli.run_scenario("fig4-doubleslit", cfg, tmp / "fig4", engine="analytic")
        cli.run_scenario("defocus", cfg, tmp / "defocus", engine="analytic")
        fig4 = run._read_csv(tmp / "fig4" / "fig4_doubleslit.csv")
        defocus = run._read_csv(tmp / "defocus" / "defocus.csv")
    return {
        "grid_n": wl.grid_n,
        "grid_dx": wl.grid_dx,
        "fig4_x": fig4[:, 0],
        "fig4_g2": fig4[:, 1],
        "defocus": defocus,
    }


def main() -> int:
    grids = {(w.grid_n, w.grid_dx) for w in run.WORKLOADS.values()}
    if len(grids) != 1:
        raise SystemExit("workloads use more than one grid; one reference cannot serve them")
    ref = compute(next(iter(run.WORKLOADS.values())))
    np.savez(run.REFERENCE, **ref)
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
