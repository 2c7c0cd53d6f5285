"""Grids, transmission masks, setup geometry and sampling validation.

Everything here is immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Grid1D",
    "TransmissionMask",
    "SetupGeometry",
    "SamplingReport",
    "make_slit",
    "make_double_slit",
    "make_pinhole",
    "validate_sampling",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D transverse grid. Sample k sits at (k - n/2)*dx."""

    n: int
    dx: float

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 2, got {self.n}")
        if not self.dx > 0:
            raise ValueError(f"grid pitch must be positive, got {self.dx}")

    @property
    def span(self) -> float:
        return self.n * self.dx

    def coords(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    def frequencies(self) -> np.ndarray:
        return np.fft.fftfreq(self.n, self.dx)


@dataclass(frozen=True)
class TransmissionMask:
    """Complex transmittance t(x) with |t| <= 1 on a grid."""

    grid: Grid1D
    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.complex128)
        if t.shape != (self.grid.n,):
            raise ValueError(f"mask length {t.shape} does not match grid size {self.grid.n}")
        if not np.abs(t).max() <= 1.0 + 1e-12:  # NaN and inf fail too
            raise ValueError("transmittance magnitude exceeds 1 or is not finite")
        object.__setattr__(self, "t", _readonly(t))

    def feature_count(self) -> int:
        """Number of disjoint transparent intervals (|t| > 0.5)."""
        open_ = np.abs(self.t) > 0.5
        if not open_.any():
            return 0
        edges = np.diff(open_.astype(np.int8))
        return int((edges == 1).sum()) + int(open_[0])

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(np.abs(self.t) > 0.0)

    def centroid(self) -> float:
        """|t|^2-weighted center of the sampled mask (meters)."""
        w = np.abs(self.t) ** 2
        if w.sum() == 0:
            raise ValueError("mask is fully opaque")
        return float((self.grid.coords() * w).sum() / w.sum())


@dataclass(frozen=True)
class SetupGeometry:
    """Distances, focal length, wavelength and source size of the two-arm setup.

    a: source -> beam splitter; d_a: BS -> object; d_b: BS -> lens;
    d_b_prime: lens -> scan plane; f: focal length.  All in meters.
    The defaults are the paper's Fig.-1 bench: a = 125 mm, d_A = 88 mm, d_B =
    212 mm, d'_B = 268.5 mm (as built, off Eq. 3), f = 85 mm, a 200 um source,
    and He-Ne 633 nm, since the bench states no wavelength.
    """

    a: float = 125e-3
    d_a: float = 88e-3
    d_b: float = 212e-3
    d_b_prime: float = 268.5e-3
    f: float = 85e-3
    wavelength: float = 633e-9
    source_diameter: float = 200e-6

    def __post_init__(self):
        for name in ("a", "d_a", "d_b", "d_b_prime", "f", "wavelength", "source_diameter"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.d_b > self.d_a:
            raise ValueError("d_b must exceed d_a (object distance d_b - d_a must be positive)")

    @property
    def s_o(self) -> float:
        """Object distance of the two-photon imaging system."""
        return self.d_b - self.d_a

    @property
    def z_source_object(self) -> float:
        return self.a + self.d_a

    @property
    def z_source_lens(self) -> float:
        return self.a + self.d_b

    @property
    def total_path(self) -> float:
        return self.a + self.d_b + self.d_b_prime


def interval_indices(grid: Grid1D, center: float, width: float) -> tuple[int, int]:
    """Half-open sample range [i0, i1) covering [center - width/2, center + width/2):
    the one rule for an aperture on the window.  A width below the grid pitch,
    or NaN, is refused (ValueError) wherever the interval sits: it would hold
    one sample or none depending on its centre.  So is an interval that leaves
    the window [0, n): it would be clipped to a smaller aperture."""
    if not width >= grid.dx:
        raise ValueError(f"aperture width {width:.3g} m is below the grid pitch {grid.dx:.3g} m")
    lo = (center - width / 2) / grid.dx + grid.n / 2
    hi = (center + width / 2) / grid.dx + grid.n / 2
    i0 = int(np.ceil(lo - 1e-9))
    # hi - lo >= 1 holds exactly; max() keeps the one sample that rounding can drop
    i1 = max(int(np.ceil(hi - 1e-9)), i0 + 1)
    if i0 < 0 or i1 > grid.n:
        raise ValueError(f"aperture {width:.3g} m at {center:.3g} m leaves the grid window")
    return i0, i1


def make_slit(grid: Grid1D, center: float, width: float) -> TransmissionMask:
    """Binary slit: t = 1 on [center - width/2, center + width/2), 0 outside;
    interval_indices refuses one below the pitch or outside the window."""
    i0, i1 = interval_indices(grid, center, width)
    t = np.zeros(grid.n)
    t[i0:i1] = 1.0
    return TransmissionMask(grid, t)


def make_double_slit(grid: Grid1D, separation: float, width: float) -> TransmissionMask:
    """Two slits of the given width centered at +-separation/2."""
    if not separation > width:
        raise ValueError("slit separation must exceed slit width")
    if separation - width < 2 * grid.dx:
        raise ValueError("slits overlap on the grid (gap below one sample pitch)")
    left = make_slit(grid, -separation / 2, width)
    right = make_slit(grid, +separation / 2, width)
    return TransmissionMask(grid, np.maximum(np.abs(left.t), np.abs(right.t)))


def make_pinhole(grid: Grid1D, center: float, diameter: float) -> TransmissionMask:
    """1D cross-section of a circular aperture of the given diameter."""
    return make_slit(grid, center, diameter)


@dataclass(frozen=True)
class SamplingReport:
    """Outcome of validate_sampling; report only, never raises."""

    ok: bool
    chirp_ok: bool
    chirp_dx_max: float  # largest pitch that still resolves the chirp (m)
    chirp_margin: float  # chirp_dx_max / dx  (>= 1 passes)
    guard_ok: bool
    guard_margin: float  # window / (4 * largest aperture)  (>= 1 passes)
    fresnel_ok: bool
    fresnel_number: float  # window Fresnel number L^2 / (lambda * z); see validate_sampling
    messages: tuple[str, ...] = field(default_factory=tuple)


def validate_sampling(
    grid: Grid1D,
    wavelength: float,
    max_distance: float,
    apertures: Sequence[float] = (),
) -> SamplingReport:
    """Check the discrete-Fresnel sampling constraints for this grid.

    (i)   the pitch resolves the Fresnel chirp over max_distance:
          dx <= wavelength * max_distance / (n * dx);
    (ii)  the window is at least 4x the largest aperture in play;
    (iii) the window Fresnel number N_F = L^2 / (wavelength * max_distance)
          exceeds 2: the propagator's band edge L / (2 lambda z) = N_F / (2 L)
          must pass the first nonzero frequency bin, 1/L.  At N_F <= 2 the hop
          passes only the zero-frequency component, the field's mean.
    The chirp bound tightens as the distance shrinks and N_F falls as it
    grows: check the shortest hop for (i) and the longest for (iii).
    """
    msgs = []
    if max_distance == 0:
        chirp_ok, dx_max, chirp_margin = True, np.inf, np.inf
        fresnel_ok, fresnel_number = True, np.inf
    else:
        fresnel_number = grid.span**2 / (wavelength * abs(max_distance))
        fresnel_ok = fresnel_number > 2.0
        if not fresnel_ok:
            msgs.append(
                f"window Fresnel number L^2/(lambda*z) = {fresnel_number:.3g} is not above 2 "
                f"at z = {max_distance:.3g} m; the band limit passes only the "
                "zero-frequency component"
            )
        dx_max = wavelength * abs(max_distance) / grid.span
        chirp_margin = dx_max / grid.dx
        chirp_ok = grid.dx <= dx_max
        if not chirp_ok:
            msgs.append(
                f"grid pitch {grid.dx:.3g} m exceeds the chirp bound "
                f"lambda*z/L = {dx_max:.3g} m at z = {max_distance:.3g} m; "
                "propagated fields will wrap around the window"
            )
    if apertures:
        biggest = max(apertures)
        guard_margin = grid.span / (4.0 * biggest) if biggest > 0 else np.inf
        guard_ok = guard_margin >= 1.0
        if not guard_ok:
            msgs.append(
                f"window {grid.span:.3g} m is below 4x the largest aperture "
                f"({biggest:.3g} m); guard band against wraparound is too small"
            )
    else:
        guard_ok, guard_margin = True, np.inf
    return SamplingReport(
        ok=chirp_ok and guard_ok and fresnel_ok,
        chirp_ok=chirp_ok,
        chirp_dx_max=float(dx_max),
        chirp_margin=float(chirp_margin),
        guard_ok=guard_ok,
        guard_margin=float(guard_margin),
        fresnel_ok=fresnel_ok,
        fresnel_number=float(fresnel_number),
        messages=tuple(msgs),
    )
