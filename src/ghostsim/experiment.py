"""The bench experiments as procedures: thin-lens geometry, ghost-image scans,
visibility and magnification checks, the conjugate-mirror (sigma-plane) scan,
the Siegert baseline of identical arms, and the defocus sweep.

The scans, siegert_scan and defocus_sweep read the bench (geometry, grid,
wavelength and source aperture) from their EnsembleConfig alone, so the arms
they build and the source they draw always describe one setup.  The arm
builders (build_arms, sigma_arm) and the geometric helpers take a
SetupGeometry and no config.

Every procedure names its engine ("analytic" or "mc") by string; _correlate,
the one step from arms to ImageTrace, alone selects an engine by it and
applies correlation's bucket-column and normalization rules, which refuse an
opaque bucket and a map whose g2 is not finite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Grid1D, SetupGeometry, TransmissionMask
from .correlation import (
    accumulate_mc,
    detector_kernel,
    fluctuation_correlation,
    g2_analytic,
    siegert_normalize,
)
from .optics import ArmPath, Lens, Propagate
from .source import EnsembleConfig, aperture_indices

__all__ = [
    "ThinLensSolution",
    "ImageTrace",
    "DefocusPoint",
    "solve_thin_lens",
    "solve_image_plane",
    "eq3_residual",
    "build_arms",
    "sigma_arm",
    "ghost_image_scan",
    "pseudo_object_scan",
    "siegert_scan",
    "defocus_sweep",
    "visibility",
    "predicted_visibility",
    "default_image_window",
    "speckle_size",
    "peak_position",
    "fwhm",
]

# warn when |1/s_o + 1/s_i - 1/f| * f exceeds this (dimensionless lens-power units)
FOCUS_TOLERANCE = 0.01


@dataclass(frozen=True)
class ThinLensSolution:
    """Conjugate distances of the two-photon thin-lens relation.

    Image coordinate convention: x_image = -magnification * x_object
    (inverted real image).
    """

    s_o: float
    s_i: float
    f: float
    magnification: float


def solve_thin_lens(s_o: float, f: float) -> ThinLensSolution:
    """Solve 1/s_o + 1/s_i = 1/f for the image distance s_i."""
    for name, v in (("s_o", s_o), ("f", f)):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
    if s_o <= f:
        raise ValueError(f"no real image: s_o = {s_o} must exceed f = {f}")
    s_i = 1.0 / (1.0 / f - 1.0 / s_o)
    return ThinLensSolution(s_o, s_i, f, s_i / s_o)


def eq3_residual(geometry: SetupGeometry) -> float:
    """Residual 1/(d_B - d_A) + 1/d'_B - 1/f (1/m) of the geometry as
    configured; zero on the thin-lens surface."""
    return 1.0 / geometry.s_o + 1.0 / geometry.d_b_prime - 1.0 / geometry.f


def solve_image_plane(geometry: SetupGeometry) -> SetupGeometry:
    """Replace d'_B with the exact thin-lens solution for (s_o, f)."""
    sol = solve_thin_lens(s_o=geometry.s_o, f=geometry.f)
    return replace(geometry, d_b_prime=sol.s_i)


def magnification_scale(geometry: SetupGeometry) -> float:
    """Image-plane coordinate scale d'_B / (d_B - d_A); the image is inverted."""
    return geometry.d_b_prime / geometry.s_o


def speckle_size(geometry: SetupGeometry) -> float:
    """Transverse coherence length at the object plane, lambda*(a+d_A)/D.

    Sets both the ghost-image resolution and the pseudo-thermal speckle grain.
    """
    return geometry.wavelength * geometry.z_source_object / geometry.source_diameter


def build_arms(geometry: SetupGeometry, obj: TransmissionMask) -> tuple[ArmPath, ArmPath]:
    """Arm 1: source -> object -> bucket; arm 2: source -> lens -> scan plane."""
    arm1 = ArmPath((Propagate(geometry.z_source_object), obj))
    arm2 = ArmPath(
        (
            Propagate(geometry.z_source_lens),
            Lens(geometry.f),
            Propagate(geometry.d_b_prime),
        )
    )
    return arm1, arm2


def sigma_arm(geometry: SetupGeometry) -> ArmPath:
    """Reference arm scanned at the sigma plane: equal path length, no lens."""
    return ArmPath((Propagate(geometry.z_source_object),))


@dataclass
class ImageTrace:
    """Coincidence trace versus scan position, with the singles of both arms.

    coincidence is g2 = <I1 I2>/(<I1><I2>) in "raw" mode and g2 - 1 in
    "fluctuation" mode; eps is the Monte Carlo error of g2 per position, or
    None for the analytic engine.  eps = sqrt(var(I1 I2)/n)/(<I1><I2>) is a
    conservative per-point bound, about twice the calibrated error: it
    ignores that g2 divides by the sample marginals, whose errors move with
    the numerator (on fig4, 1000 realizations, std of (MC - analytic)/eps
    is 0.47).
    """

    positions: np.ndarray
    coincidence: np.ndarray
    singles1: np.ndarray
    singles2: np.ndarray
    eps: np.ndarray | None = None

    def __post_init__(self):
        m = len(self.positions)
        for name in ("coincidence", "singles1", "singles2", "eps"):
            value = getattr(self, name)
            if value is not None and len(value) != m:
                raise ValueError(f"{name} length does not match scan positions")


def scan_indices(grid: Grid1D, halfwidth: float) -> np.ndarray:
    x = grid.coords()
    idx = np.flatnonzero(np.abs(x) <= halfwidth)
    if len(idx) == 0:
        raise ValueError("scan window contains no grid samples")
    return idx


def _correlate(
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    engine: str,
    *,
    mode: str = "raw",
    diagonal: bool = False,
    x2_indices: np.ndarray,
    workers: int = 1,
) -> ImageTrace:
    """The named engine's bucket map over x2_indices (or x1 = x2 diagonal) as a
    trace of g2 ("raw") or g2 - 1 ("fluctuation"); siegert_normalize refuses
    it in either mode if g2 is not finite.  workers < 1 is refused for both."""
    if mode not in ("raw", "fluctuation"):
        raise ValueError(f"unknown mode {mode!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    bucket = not diagonal
    if engine == "analytic":
        kernel = detector_kernel(config, arm1, arm2, bucket, diagonal=diagonal,
                                 x2_indices=x2_indices)
        cmap = g2_analytic(kernel, bucket, diagonal=diagonal)
    elif engine == "mc":
        cmap = accumulate_mc(config, arm1, arm2, bucket, diagonal=diagonal, x2_indices=x2_indices,
                             workers=workers)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    coincidence = siegert_normalize(cmap)
    if mode == "fluctuation":
        coincidence = fluctuation_correlation(cmap) / cmap.marginal_product()
    return ImageTrace(
        positions=cmap.x2,
        coincidence=coincidence,
        singles1=np.full(cmap.x2.shape, cmap.i1_mean, dtype=float),  # a bucket holds one I1
        singles2=cmap.i2_mean,
        eps=cmap.eps,
    )


def ghost_image_scan(
    obj: TransmissionMask,
    config: EnsembleConfig,
    mode: str = "raw",
    engine: str = "analytic",
    *,
    scan_halfwidth: float = 6e-3,
    workers: int = 1,
) -> ImageTrace:
    """Scan the lens arm's detection plane against a bucket behind the object.

    The bench is config.geometry.  With it on the thin-lens surface the
    coincidence trace carries an inverted image of |T|^2, magnified by
    d'_B/(d_B - d_A), on a constant background; the singles stay flat.
    """
    geometry = config.geometry
    if abs(eq3_residual(geometry)) * geometry.f > FOCUS_TOLERANCE:
        warnings.warn(
            f"geometry is off the thin-lens surface "
            f"(residual {eq3_residual(geometry):.4g} 1/m); the image will be defocused",
            stacklevel=2,
        )
    arm1, arm2 = build_arms(geometry, obj)
    return _correlate(config, arm1, arm2, engine, mode=mode,
                      x2_indices=scan_indices(config.grid, scan_halfwidth), workers=workers)


def pseudo_object_scan(
    obj: TransmissionMask,
    config: EnsembleConfig,
    engine: str = "analytic",
    *,
    scan_halfwidth: float = 6e-3,
    workers: int = 1,
) -> ImageTrace:
    """Scan the sigma plane of config.geometry (equal path length, no lens)
    in the reference arm.

    The source acts as a conjugate mirror: the coincidence trace reproduces
    the object upright at unit magnification.
    """
    geometry = config.geometry
    arm1, _ = build_arms(geometry, obj)
    return _correlate(config, arm1, sigma_arm(geometry), engine,
                      x2_indices=scan_indices(config.grid, scan_halfwidth), workers=workers)


def siegert_scan(
    config: EnsembleConfig, engine: str = "analytic", *, workers: int = 1
) -> ImageTrace:
    """Identical arms with no optics, read out on the source aperture: the
    diagonal g2(x, x), which thermal light holds at 2 (Siegert relation)."""
    return _correlate(
        config, ArmPath(()), ArmPath(()), engine,
        diagonal=True, x2_indices=aperture_indices(config), workers=workers,
    )


def visibility(trace: ImageTrace, window: tuple[float, float]) -> float:
    """(max - min)/(max + min) of the coincidence trace inside the window."""
    lo, hi = window
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    sel = (trace.positions >= lo) & (trace.positions <= hi)
    if sel.sum() < 2:
        raise ValueError("window selects fewer than two scan samples")
    v = trace.coincidence[sel]
    vmax, vmin = float(v.max()), float(v.min())
    if vmax + vmin == 0:
        raise ValueError("degenerate trace: max + min is zero")
    return (vmax - vmin) / (vmax + vmin)


def predicted_visibility(n_features: int) -> float:
    """Visibility ceiling 1/(2N+1) for N transparent features."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    return 1.0 / (2 * n_features + 1)


def default_image_window(
    geometry: SetupGeometry,
    obj: TransmissionMask,
    upright: bool = False,
) -> tuple[float, float]:
    """Scan window for visibility: the object's support mapped to the scan
    plane, padded by max(25% of its extent, 3 image-side speckle sizes) per
    side so the window always reaches the background pedestal."""
    sup = obj.support_indices()
    if len(sup) == 0:
        raise ValueError("object mask is fully opaque")
    x = obj.grid.coords()[sup]
    scale = 1.0 if upright else magnification_scale(geometry)
    mapped = x * scale if upright else -x * scale
    lo, hi = float(mapped.min()), float(mapped.max())
    pad = max(0.25 * (hi - lo), 3.0 * scale * speckle_size(geometry))
    half_span = obj.grid.span / 2 - obj.grid.dx
    return max(lo - pad, -half_span), min(hi + pad, half_span)


def peak_position(trace: ImageTrace) -> float:
    """Scan position of the coincidence maximum (no interpolation)."""
    return float(trace.positions[np.argmax(trace.coincidence)])


def fwhm(positions: np.ndarray, values: np.ndarray) -> float:
    """Full width at half maximum of the dominant peak, by linear crossing;
    a flat trace (max equals min) has no peak and is refused (ValueError)."""
    v = np.asarray(values, dtype=float)
    if v.max() == v.min():
        raise ValueError("degenerate trace: max equals min, no peak to measure")
    i = int(np.argmax(v))
    half = (v[i] + v.min()) / 2.0
    left = i
    while left > 0 and v[left] > half:
        left -= 1
    right = i
    while right < len(v) - 1 and v[right] > half:
        right += 1
    if v[left] > half or v[right] > half:
        return float(positions[right] - positions[left])  # peak hits the window edge
    xl = np.interp(half, [v[left], v[left + 1]], [positions[left], positions[left + 1]])
    xr = np.interp(half, [v[right], v[right - 1]], [positions[right], positions[right - 1]])
    return float(xr - xl)


@dataclass(frozen=True)
class DefocusPoint:
    delta: float
    visibility: float
    peak_width: float


def defocus_sweep(
    obj: TransmissionMask,
    config: EnsembleConfig,
    deltas: Sequence[float],
    *,
    engine: str = "analytic",
    workers: int = 1,
) -> list[DefocusPoint]:
    """Ghost-image visibility and peak width versus scan-plane defocus.

    Each delta shifts the d'_B of config.geometry, the in-focus bench;
    visibility is evaluated in the in-focus image window for every delta so
    the points are comparable.
    """
    geometry = config.geometry
    window = default_image_window(geometry, obj)
    x2_idx = scan_indices(config.grid, max(abs(window[0]), abs(window[1])))
    results: list[DefocusPoint] = []
    for delta in deltas:
        d = geometry.d_b_prime + delta
        if d <= 0:
            raise ValueError(f"defocus {delta} puts the scan plane behind the lens")
        arm1, arm2 = build_arms(replace(geometry, d_b_prime=d), obj)
        trace = _correlate(config, arm1, arm2, engine, x2_indices=x2_idx, workers=workers)
        sel = (trace.positions >= window[0]) & (trace.positions <= window[1])
        width = fwhm(trace.positions[sel], trace.coincidence[sel])
        results.append(DefocusPoint(float(delta), visibility(trace, window), width))
    return results
