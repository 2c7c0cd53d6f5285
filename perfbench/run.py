"""End-to-end and per-layer benchmark of the ghostsim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ghostsim is imported from `src/`.
Each operation is a fresh child process (perfbench/child.py) that reads a
config generated here from the seed and calls the public entry point, the
way a user runs `ghost run`.  Every output is checked against
perfbench/reference.npz.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  wall_s       median time inside the entry point, set-up excluded;
  setup_s      median time from spawning a child to its "ready" stamp,
               over SETUP_PROBES set-up-only children plus every operation;
  peak_rss_mb  median ru_maxrss of the operation children;
  g2_rms_err   RMS over all scan points of all operations of the normalized
               coincidence minus its reference (see README.md).
--trace 1 reports the per-layer metrics of perfbench/tracer.py, from traced
operations that all use the same inputs, plus trace.overhead_s (fastest
time-traced minus fastest untraced wall_s).

Per-run records (sizes, every operation, failures with their stderr tail,
and the spans of the first traced operation) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from tracer import layer_peaks, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.npz"

SETUP_PROBES = 5
OP_TIMEOUT_S = 150
STDERR_TAIL = 2000

# The paper's bench (src/ghostsim/paper.cfg at the time the benchmark was
# written), fixed here so that a change to the shipped config does not change
# the benchmark's inputs.  Grid, seed and realizations come from the workload.
BENCH_CONFIG = {
    "a": "125mm",
    "d_A": "88mm",
    "d_B": "212mm",
    "d_B_prime": "268.5mm",
    "f": "85mm",
    "source_diameter": "200um",
    "wavelength": "633nm",
    "pinhole_diameter": "60um",
    "slit_width": "0.2mm",
    "slit_separation": "1mm",
    "scan_halfwidth": "6mm",
    "defocus_source_diameter": "3mm",
}
_METERS = {"mm": 1e-3, "um": 1e-6, "nm": 1e-9}


@dataclass(frozen=True)
class Workload:
    entry: str  # "scenario": cli.run_scenario; "fullmap": correlation.accumulate_mc
    scenario: str  # the ghost scenario, or the bench the full map runs on
    engine: str
    realizations: int  # per operation; the analytic engine ignores it
    workers: int
    grid_n: int = 16384
    grid_dx: str = "2um"


# Why each workload is here: perfbench/README.md.
WORKLOADS = {
    "mc_bucket": Workload("scenario", "fig4-doubleslit", "mc", 1024, 2),
    "analytic_defocus": Workload("scenario", "defocus", "analytic", 1, 1),
    "mc_source": Workload("scenario", "siegert-baseline", "mc", 30000, 1),
    "mc_fullmap": Workload("fullmap", "fig4-doubleslit", "mc", 512, 1),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "g2_rms_err": "1"}
PER_LAYER_UNITS = {
    "optics.propagate_s": "s",
    "optics.path_self_s": "s",
    "optics.fft_rows": "count",
    "optics.fft_bytes": "bytes",
    "source.draw_s": "s",
    "source.draw_calls": "count",
    "source.realizations": "count",
    "source.draw_alloc_bytes": "bytes",
    "source.modes_s": "s",
    "source.modes": "count",
    "correlation.analytic_s": "s",
    "correlation.mc_self_s": "s",
    "correlation.blocks": "count",
    "correlation.partials_bytes": "bytes",
    "experiment.self_s": "s",
    "cli.export_s": "s",
    "cli.bytes_written": "bytes",
    "core.validate_s": "s",
    "core.peak_traced_mb": "MB",
    "optics.peak_traced_mb": "MB",
    "source.peak_traced_mb": "MB",
    "correlation.peak_traced_mb": "MB",
    "experiment.peak_traced_mb": "MB",
    "cli.peak_traced_mb": "MB",
    "trace.overhead_s": "s",
}


def length(text: str) -> float:
    """Meters from a BENCH_CONFIG length such as "268.5mm"."""
    return float(text[:-2]) * _METERS[text[-2:]]


def config_values(wl: Workload, seed: int) -> dict:
    values = dict(BENCH_CONFIG, grid_n=str(wl.grid_n), grid_dx=wl.grid_dx, seed=str(seed))
    if wl.engine == "mc":
        values["n_realizations"] = str(wl.realizations)
    return values


# ---------------------------------------------------------------------------
# output checks: each returns (errors, residuals); g2_rms_err pools residuals
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_image(x: np.ndarray, g2: np.ndarray, cfg: dict, reference: dict):
    """MC ghost image of the double slit against the analytic reference: both
    peaks at the two-photon thin-lens positions -M*(+-separation/2), within
    one slit image width M*w."""
    errors = []
    if len(x) != len(reference["fig4_x"]) or not np.allclose(
        x, reference["fig4_x"], rtol=0, atol=1e-12
    ):
        return ["scan positions differ from the reference"], np.empty(0)
    if not np.all(np.isfinite(g2)):
        return ["non-finite coincidence"], np.empty(0)
    mag = length(cfg["d_B_prime"]) / (length(cfg["d_B"]) - length(cfg["d_A"]))
    half_sep, width = length(cfg["slit_separation"]) / 2, length(cfg["slit_width"])
    for side, predicted in ((x < 0, -mag * half_sep), (x > 0, mag * half_sep)):
        peak = x[side][np.argmax(g2[side])]
        if abs(peak - predicted) > mag * width:
            errors.append(
                f"image peak at {peak * 1e3:.4f} mm, thin-lens position {predicted * 1e3:.4f} mm"
            )
    return errors, g2 - reference["fig4_g2"]


def _check_manifest(out: Path, cfg: dict) -> list[str]:
    path = out / "manifest.txt"
    if not path.is_file():
        return ["manifest.txt missing"]
    lines = set(path.read_text().splitlines())
    wanted = [f"config.{key} = {cfg[key]}" for key in ("seed", "n_realizations") if key in cfg]
    return [f"manifest lacks {w!r}" for w in wanted if w not in lines]


def check_outputs(wl: Workload, cfg: dict, out: Path, reference: dict):
    if reference["grid_n"] != wl.grid_n or reference["grid_dx"] != wl.grid_dx:
        return ["reference was computed on another grid"], np.empty(0)
    if wl.entry == "fullmap":
        data = np.load(out / "fullmap.npz")
        errors, residuals = _check_image(data["x2"], data["g2"], cfg, reference)
        if not data["finite"]:
            errors.append("non-finite entries in the full map")
        return errors, residuals
    errors = _check_manifest(out, cfg)
    if wl.scenario == "fig4-doubleslit":
        for name in ("fig4_doubleslit.csv", "fig4_doubleslit.pgm"):
            if not (out / name).is_file():
                errors.append(f"{name} missing")
        if errors:
            return errors, np.empty(0)
        data = _read_csv(out / "fig4_doubleslit.csv")
        more, residuals = _check_image(data[:, 0], data[:, 1], cfg, reference)
        return errors + more, residuals
    if wl.scenario == "defocus":
        data = _read_csv(out / "defocus.csv")
        want = reference["defocus"]
        if data.shape != want.shape or not np.allclose(data, want, rtol=1e-9, atol=0):
            errors.append("defocus sweep differs from the reference beyond rtol 1e-9")
        # no sampling error on the analytic engine: report the visibility
        # shortfall from the 1/(2N+1) ceiling (N = 1 pinhole) over the sweep
        return errors, 1.0 / 3.0 - data[:, 1]
    if wl.scenario == "siegert-baseline":
        g2 = _read_csv(out / "siegert_baseline.csv")[:, 1]
        # thermal light: g2 = 2 exactly; each point's estimate has std 2/sqrt(N)
        tol = 6 * 2 / math.sqrt(len(g2) * wl.realizations)
        if not np.all(np.isfinite(g2)):
            errors.append("non-finite g2")
        elif abs(g2.mean() - 2.0) > tol:
            errors.append(f"mean g2 {g2.mean():.6f} is not 2 within {tol:.2g}")
        return errors, g2 - 2.0
    raise ValueError(f"no output check for scenario {wl.scenario!r}")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


class Runner:
    """Runs operations of one workload and counts attempted and failed ones."""

    def __init__(self, name: str, wl: Workload, seed: int, reference: dict):
        self.name, self.wl, self.seed, self.reference = name, wl, seed, reference
        self.work = HERE / "out" / f"tmp-{name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[dict] = []
        self.ops: list[dict] = []

    def op(self, index: int, op_seed: int, *, trace: str | bool = False, setup_only: bool = False):
        """Run one child; return its record, or None if it failed.  `trace` is
        False, "time" (spans and counts) or "memory" (spans with peaks)."""
        self.attempted += 1
        op_dir = self.work / f"op{index}"
        out = op_dir / "out"
        out.mkdir(parents=True)
        cfg = config_values(self.wl, op_seed)
        cfg_path = op_dir / "bench.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        spec = dict(
            asdict(self.wl),
            config=str(cfg_path),
            out=str(out),
            result=str(op_dir / "result.json"),
            trace=trace,
            setup_only=setup_only,
        )
        spec_path = op_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        record = {"index": index, "seed": op_seed, "trace": trace, "setup_only": setup_only}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path)],
                capture_output=True, text=True, timeout=OP_TIMEOUT_S, env=env, cwd=op_dir,
            )
        except subprocess.TimeoutExpired as exc:
            stderr = exc.stderr or b""  # bytes even with text=True
            if isinstance(stderr, bytes):
                stderr = stderr.decode(errors="replace")
            return self._fail(record, f"timed out after {OP_TIMEOUT_S} s", stderr)
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            return self._fail(record, f"exit code {proc.returncode}", proc.stderr)
        result = json.loads((op_dir / "result.json").read_text())
        record["setup_s"] = result["ready"] - t_spawn
        if not setup_only:
            try:
                errors, residuals = check_outputs(self.wl, cfg, out, self.reference)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                errors = [f"unreadable output: {exc!r}"]
            if errors:
                return self._fail(record, "; ".join(errors), proc.stderr)
            record.update(
                wall_s=result["wall_s"],
                peak_rss_mb=result["maxrss_mb"],
                sq_err=float(np.sum(residuals**2)),
                n_err=int(residuals.size),
                sizes=result["sizes"],
                bytes_written=result["bytes_written"],
            )
            if trace:
                record["spans"] = result["spans"]
                record["counts"] = result["counts"]
        shutil.rmtree(op_dir)
        self.ops.append(record)
        return record

    def _fail(self, record: dict, reason: str, stderr: str) -> None:
        record.update(reason=reason, stderr_tail=stderr[-STDERR_TAIL:])
        self.failures.append(record)
        print(f"{self.name}: operation {record['index']} failed: {reason}\n"
              f"{record['stderr_tail']}", file=sys.stderr)
        return None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _ops(runner: Runner, *, trace: str | bool | None = None) -> list[dict]:
    return [r for r in runner.ops if not r["setup_only"] and (trace is None or r["trace"] == trace)]


def measure(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Untraced run: set-up probes, then operations with distinct seeds until
    `seconds` have passed (at least one)."""
    for i in range(SETUP_PROBES):
        runner.op(i, runner.seed * 1000, setup_only=True)
    deadline = time.monotonic() + seconds
    i = 0
    while i == 0 or time.monotonic() < deadline:
        runner.op(SETUP_PROBES + i, runner.seed * 1000 + i)
        i += 1
    ops = _ops(runner)
    if not ops:
        return {}, []
    sq = sum(r["sq_err"] for r in ops)
    n = sum(r["n_err"] for r in ops)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ops),
        "setup_s": statistics.median(r["setup_s"] for r in runner.ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
        "g2_rms_err": math.sqrt(sq / n),
    }, []


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Traced run on identical inputs: two untraced operations, one traced
    for memory and two traced for time, then time-traced and untraced in
    turn until `seconds` have passed.  Counts must repeat exactly across all
    traced operations."""
    plan = [False, "memory", "time", False, "time"]
    deadline = time.monotonic() + seconds
    i = 0
    while i < len(plan) or time.monotonic() < deadline:
        mode = plan[i] if i < len(plan) else ("time" if i % 2 else False)
        runner.op(i, runner.seed * 1000, trace=mode)
        i += 1
    untraced, memory, timed = (_ops(runner, trace=mode) for mode in (False, "memory", "time"))
    if not (untraced and memory and timed):
        return {}, []
    traced = memory + timed
    errors = [
        f"counts of traced operation {r['index']} differ from operation {traced[0]['index']}"
        for r in traced[1:]
        if r["counts"] != traced[0]["counts"]
    ]
    per_op = [summarize(r["spans"], r["counts"]) for r in timed]
    metrics = {}
    for k in per_op[0]:
        values = [m[k] for m in per_op]
        metrics[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics.update(layer_peaks(memory[0]["spans"]))
    metrics["cli.bytes_written"] = timed[0]["bytes_written"]
    # host stalls only add time, so the fastest operation of each kind is
    # the least disturbed estimate of its cost
    metrics["trace.overhead_s"] = min(r["wall_s"] for r in timed) - min(
        r["wall_s"] for r in untraced
    )
    return metrics, errors


def _trace_record(r: dict) -> dict:
    """The spans of one traced operation with their self times."""
    selfs = self_times(r["spans"])
    t0 = min(s["start"] for s in r["spans"])
    return {
        "counts": r["counts"],
        "spans": [
            dict(s, start=s["start"] - t0, end=s["end"] - t0, self_s=selfs[s["id"]])
            for s in sorted(r["spans"], key=lambda s: s["start"])
        ],
    }


def run(name: str, seed: int, seconds: float, trace: bool, wl: Workload | None = None,
        reference: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full run record."""
    wl = wl or WORKLOADS[name]
    if reference is None:
        with np.load(REFERENCE) as data:
            reference = {k: data[k].item() if data[k].ndim == 0 else data[k] for k in data.files}
    runner = Runner(name, wl, seed, reference)
    try:
        metrics, errors = (measure_traced if trace else measure)(runner, seconds)
    finally:
        runner.close()
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not runner.failures and not errors and bool(metrics),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    ops = _ops(runner)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "sizes": ops[0]["sizes"] if ops else None,
        "errors": errors,
        "failures": runner.failures,
        "operations": [
            {k: v for k, v in r.items() if k not in ("spans", "counts", "sizes")}
            for r in runner.ops
        ],
        "result": result,
    }
    timed = _ops(runner, trace="time")
    if timed:
        record["first_traced_operation"] = _trace_record(timed[0])
    return result, record


def _report(record: dict) -> None:
    ops = [r for r in record["operations"] if not r["setup_only"]]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    if record["sizes"]:
        print("  sizes " + " ".join(f"{k}={v}" for k, v in record["sizes"].items()))
    print(f"  operations {len(ops)} (+ {len(record['operations']) - len(ops)} set-up probes), "
          f"failed {len(record['failures'])}")
    for k, m in record["result"]["metrics"].items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    for e in record["errors"]:
        print(f"  error: {e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**53:
        parser.error("--seed must lie in [0, 2**53)")
    if not (ROOT / "src" / "ghostsim" / "__init__.py").is_file():
        print(f"ghostsim sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    _report(record)
    print(json.dumps(result))
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
