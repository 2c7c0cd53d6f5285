"""The bench experiments as procedures: thin-lens geometry, ghost-image scans,
visibility and magnification checks, the conjugate-mirror (sigma-plane) scan,
the Siegert baseline of identical arms, and the defocus sweep.

Every procedure names its engine ("analytic" or "mc") by string; _correlate
is the one place that string selects an engine.  defocus_sweep reads it only
to reuse the analytic source->lens propagation across its deltas.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Grid1D, SetupGeometry, TransmissionMask
from .correlation import (
    CorrelationMap,
    accumulate_mc,
    fluctuation_correlation,
    g2_analytic,
    siegert_normalize,
)
from .optics import ArmPath, Lens, Mask, Propagate, apply_path_block
from .source import EnsembleConfig, aperture_indices, mode_decomposition

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

    residual = 1/s_o + 1/s_i - 1/f (1/m); zero when the relation is met
    exactly.  Image coordinate convention: x_image = -magnification * x_object
    (inverted real image).
    """

    s_o: float
    s_i: float
    f: float
    magnification: float
    residual: float


def solve_thin_lens(
    s_o: float | None = None, s_i: float | None = None, f: float | None = None
) -> ThinLensSolution:
    """Solve 1/s_o + 1/s_i = 1/f for the missing quantity.

    Give exactly two of the three to solve for the third (residual 0), or all
    three to get the residual of the stated values.
    """
    given = [v is not None for v in (s_o, s_i, f)]
    if sum(given) < 2:
        raise ValueError("need at least two of s_o, s_i, f")
    for name, v in (("s_o", s_o), ("s_i", s_i), ("f", f)):
        if v is not None and not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")

    if s_o is not None and s_i is not None and f is not None:
        residual = 1.0 / s_o + 1.0 / s_i - 1.0 / f
        return ThinLensSolution(s_o, s_i, f, s_i / s_o, residual)
    if f is None:
        f = 1.0 / (1.0 / s_o + 1.0 / s_i)
    elif s_i is None:
        if s_o <= f:
            raise ValueError(f"no real image: s_o = {s_o} must exceed f = {f}")
        s_i = 1.0 / (1.0 / f - 1.0 / s_o)
    else:
        if s_i <= f:
            raise ValueError(f"no real object: s_i = {s_i} must exceed f = {f}")
        s_o = 1.0 / (1.0 / f - 1.0 / s_i)
    return ThinLensSolution(s_o, s_i, f, s_i / s_o, 0.0)


def eq3_residual(geometry: SetupGeometry) -> float:
    """Residual 1/(d_B - d_A) + 1/d'_B - 1/f of the geometry as configured."""
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
    arm1 = ArmPath((Propagate(geometry.z_source_object), Mask(obj)))
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
    "fluctuation" mode; eps is the Monte Carlo standard error of g2 per
    position, or None for the analytic engine.
    """

    positions: np.ndarray
    coincidence: np.ndarray
    singles1: np.ndarray
    singles2: np.ndarray
    eps: np.ndarray | None = None

    def __post_init__(self):
        m = len(self.positions)
        for name in ("coincidence", "singles1", "singles2"):
            if len(getattr(self, name)) != m:
                raise ValueError(f"{name} length does not match scan positions")


def scan_indices(grid: Grid1D, halfwidth: float) -> np.ndarray:
    x = grid.coords()
    idx = np.flatnonzero(np.abs(x) <= halfwidth)
    if len(idx) == 0:
        raise ValueError("scan window contains no grid samples")
    return idx


def _trace_from_map(cmap: CorrelationMap, mode: str) -> ImageTrace:
    norm = siegert_normalize(cmap)
    if norm.degenerate:
        raise ValueError("degenerate map: a marginal intensity is zero")
    if mode == "raw":
        coincidence = norm.g2
    elif mode == "fluctuation":
        coincidence = fluctuation_correlation(cmap) / cmap.marginal_product()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # a bucket map holds one I1 for the whole scan
    singles1 = np.broadcast_to(np.asarray(cmap.i1_mean, dtype=float), cmap.x2.shape)
    return ImageTrace(
        positions=cmap.x2,
        coincidence=coincidence,
        singles1=singles1.copy(),
        singles2=cmap.i2_mean.copy(),
        eps=None if cmap.eps is None else cmap.eps.copy(),
    )


def _correlate(
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    engine: str,
    *,
    diagonal: bool = False,
    x2_indices: np.ndarray,
    workers: int = 1,
) -> CorrelationMap:
    """<I1 I2> of the two arms from the named engine: a bucket map over
    x2_indices, or the x1 = x2 diagonal when diagonal is set."""
    if engine == "analytic":
        modes = mode_decomposition(config, arm1, arm2)
        return g2_analytic(modes, not diagonal, diagonal=diagonal, x2_indices=x2_indices)
    if engine == "mc":
        return accumulate_mc(
            config, arm1, arm2, not diagonal,
            diagonal=diagonal, x2_indices=x2_indices, workers=workers,
        )
    raise ValueError(f"unknown engine {engine!r}")


def _scan(
    obj: TransmissionMask,
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    mode: str,
    engine: str,
    scan_halfwidth: float,
    workers: int,
) -> ImageTrace:
    if not np.any(np.abs(obj.t) > 0):
        raise ValueError("object mask is fully opaque")
    x2_idx = scan_indices(config.grid, scan_halfwidth)
    cmap = _correlate(config, arm1, arm2, engine, x2_indices=x2_idx, workers=workers)
    return _trace_from_map(cmap, mode)


def ghost_image_scan(
    geometry: SetupGeometry,
    obj: TransmissionMask,
    config: EnsembleConfig,
    mode: str = "raw",
    engine: str = "analytic",
    *,
    scan_halfwidth: float = 6e-3,
    workers: int = 1,
) -> ImageTrace:
    """Scan the lens arm's detection plane against a bucket behind the object.

    With the geometry on the thin-lens surface the coincidence trace carries
    an inverted image of |T|^2, magnified by d'_B/(d_B - d_A), on a constant
    background; the singles stay flat.
    """
    if abs(eq3_residual(geometry)) * geometry.f > FOCUS_TOLERANCE:
        warnings.warn(
            f"geometry is off the thin-lens surface "
            f"(residual {eq3_residual(geometry):.4g} 1/m); the image will be defocused",
            stacklevel=2,
        )
    arm1, arm2 = build_arms(geometry, obj)
    return _scan(obj, config, arm1, arm2, mode, engine, scan_halfwidth, workers)


def pseudo_object_scan(
    geometry: SetupGeometry,
    obj: TransmissionMask,
    config: EnsembleConfig,
    mode: str = "raw",
    engine: str = "analytic",
    *,
    scan_halfwidth: float = 6e-3,
    workers: int = 1,
) -> ImageTrace:
    """Scan the sigma plane (equal path length, no lens) in the reference arm.

    The source acts as a conjugate mirror: the coincidence trace reproduces
    the object upright at unit magnification.
    """
    arm1, _ = build_arms(geometry, obj)
    return _scan(obj, config, arm1, sigma_arm(geometry), mode, engine, scan_halfwidth, workers)


def siegert_scan(
    config: EnsembleConfig, engine: str = "analytic", *, workers: int = 1
) -> ImageTrace:
    """Identical arms with no optics, read out on the source aperture: the
    diagonal g2(x, x), which thermal light holds at 2 (Siegert relation)."""
    cmap = _correlate(
        config, ArmPath(()), ArmPath(()), engine,
        diagonal=True, x2_indices=aperture_indices(config), workers=workers,
    )
    return _trace_from_map(cmap, "raw")


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
    """Full width at half maximum of the dominant peak, by linear crossing."""
    v = np.asarray(values, dtype=float)
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
    geometry: SetupGeometry,
    obj: TransmissionMask,
    config: EnsembleConfig,
    deltas: Sequence[float],
    *,
    engine: str = "analytic",
    workers: int = 1,
) -> list[DefocusPoint]:
    """Ghost-image visibility and peak width versus scan-plane defocus.

    Each delta shifts d'_B; visibility is evaluated in the in-focus image
    window for every delta so the points are comparable.  The analytic engine
    reuses the source->lens mode propagation across deltas.
    """
    window = default_image_window(geometry, obj)
    x2_idx = scan_indices(config.grid, max(abs(window[0]), abs(window[1])))
    arm1, _ = build_arms(geometry, obj)
    prefix = ArmPath((Propagate(geometry.z_source_lens), Lens(geometry.f)))
    pre = mode_decomposition(config, arm1, prefix) if engine == "analytic" else None
    results: list[DefocusPoint] = []
    for delta in deltas:
        d = geometry.d_b_prime + delta
        if d <= 0:
            raise ValueError(f"defocus {delta} puts the scan plane behind the lens")
        if pre is not None:
            last_hop = ArmPath((Propagate(d),))
            g2 = apply_path_block(pre.g2, config.grid, config.geometry.wavelength, last_hop)
            cmap = g2_analytic(replace(pre, g2=g2), bucket=True, x2_indices=x2_idx)
        else:
            _, arm2 = build_arms(replace(geometry, d_b_prime=d), obj)
            cmap = _correlate(config, arm1, arm2, engine, x2_indices=x2_idx, workers=workers)
        trace = _trace_from_map(cmap, "raw")
        sel = (trace.positions >= window[0]) & (trace.positions <= window[1])
        width = fwhm(trace.positions[sel], trace.coincidence[sel])
        results.append(DefocusPoint(float(delta), visibility(trace, window), width))
    return results
