"""Deterministic field transformations: Fresnel propagation, thin lens and
masks, and their composition into detection-arm paths.  Every operator acts
on a (..., n) stack of sampled amplitudes along its last axis.

Propagation uses the frequency-domain Fresnel transfer function
H(nu) = exp(i 2 pi z / lambda) * exp(-i pi lambda z nu^2), band-limited to
|nu| <= L / (2 lambda z) with a raised-cosine taper.  Components steeper than
that bound would travel further than half the (periodic) window in one hop and
re-enter from the other side; physically they leave the simulated region, so
they are discarded instead.  For fields whose spectrum stays inside the bound
(any beam resolved by the grid) the operator is exactly unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .core import Grid1D, TransmissionMask, validate_sampling

__all__ = [
    "SamplingError",
    "Propagate",
    "Lens",
    "ArmPath",
    "propagate_block",
    "lens_phase",
    "apply_path_block",
]

# fraction of the band limit over which the raised-cosine roll-off acts
_BAND_TAPER = 0.10


class SamplingError(ValueError):
    """Propagation refused because the grid violates the sampling bound."""


@dataclass(frozen=True)
class Propagate:
    distance: float

    def __post_init__(self):
        if self.distance < 0:
            raise ValueError("propagation distance must be >= 0")


@dataclass(frozen=True)
class Lens:
    focal_length: float

    def __post_init__(self):
        if self.focal_length == 0 or not np.isfinite(self.focal_length):
            raise ValueError(f"focal length must be finite and nonzero, got {self.focal_length}")


Element = Union[Propagate, Lens, TransmissionMask]


@dataclass(frozen=True)
class ArmPath:
    """Ordered optical elements (Propagate, Lens or TransmissionMask),
    evaluated source -> detector."""

    elements: tuple[Element, ...] = ()

    def __post_init__(self):
        elements = tuple(self.elements)
        for el in elements:
            if not isinstance(el, (Propagate, Lens, TransmissionMask)):
                raise TypeError(f"unsupported path element {el!r}")
        object.__setattr__(self, "elements", elements)

    def __iter__(self) -> Iterable[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _transfer_function(n: int, dx: float, wavelength: float, distance: float) -> np.ndarray:
    nu = np.fft.fftfreq(n, dx)
    H = np.exp(2j * np.pi * distance / wavelength) * np.exp(
        -1j * np.pi * wavelength * distance * nu**2
    )
    if distance != 0:
        # _hop's check keeps 1/L < nu_lim <= Nyquist (validate_sampling)
        nu_lim = (n * dx) / (2 * wavelength * abs(distance))
        anu = np.abs(nu)
        window = np.ones(n)
        lo = (1.0 - _BAND_TAPER) * nu_lim
        ramp = (anu > lo) & (anu <= nu_lim)
        window[ramp] = 0.5 * (1 + np.cos(np.pi * (anu[ramp] - lo) / (nu_lim - lo)))
        window[anu > nu_lim] = 0.0
        H = H * window
    H.setflags(write=False)
    return H


@lru_cache(maxsize=128)
def _hop(grid: Grid1D, wavelength: float, distance: float) -> np.ndarray:
    """The transfer function of a hop that validate_sampling passes, checked
    once per distinct hop; a refused hop raises SamplingError on every call,
    since lru_cache keeps no exception."""
    report = validate_sampling(grid, wavelength, distance)
    if not report.ok:
        raise SamplingError("; ".join(report.messages))
    return _transfer_function(grid.n, grid.dx, wavelength, distance)


def propagate_block(
    amplitudes: np.ndarray, grid: Grid1D, wavelength: float, distance: float, *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fresnel-propagate a (..., n) stack of amplitudes along the last axis;
    a hop that validate_sampling refuses raises SamplingError.  The result
    goes to a new array, or into out (complex, amplitudes' shape; it may be
    amplitudes itself), which is returned."""
    H = _hop(grid, wavelength, distance)
    out = np.fft.fft(amplitudes, axis=-1, out=out)
    out *= H
    return np.fft.ifft(out, axis=-1, out=out)


@lru_cache(maxsize=32)
def lens_phase(grid: Grid1D, wavelength: float, focal_length: float) -> np.ndarray:
    """Thin-lens transmittance exp(-i pi x^2 / (lambda f)) on the grid,
    cached and read-only.  Refused (ValueError) where it is not finite: an f
    so short that x^2 / (lambda f) overflows on the grid; a refusal raises on
    every call, since lru_cache keeps no exception.  Unlike a hop, f is not
    checked against the chirp bound dx * L / lambda: the phase aliases where
    |x| > lambda |f| / (2 dx), on paper.cfg beyond 13.4 of 16.4 mm, yet there
    fig3's magnification and fig4's peak separation equal a 1 um pitch's."""
    x = grid.coords()
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-1j * np.pi * x**2 / (wavelength * focal_length))
    if not np.all(np.isfinite(phase)):
        raise ValueError(
            f"lens phase is not finite: focal length {focal_length} m is too short for the grid"
        )
    phase.setflags(write=False)
    return phase


def apply_path_block(
    amplitudes: np.ndarray,
    grid: Grid1D,
    wavelength: float,
    path: ArmPath,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run a (..., n) stack of amplitudes through an arm path.

    Every element runs in place on out (complex, amplitudes' shape; it may
    be amplitudes itself, handed over), which is returned, or, when no out
    is given, on a fresh complex copy of amplitudes; amplitudes is written
    only when it is out.  Refuses (SamplingError) a propagation hop that
    validate_sampling refuses, as propagate_block checks it, and
    (ValueError) a mask on another grid.
    """
    if out is None:
        out = np.array(amplitudes, dtype=np.complex128)
    elif out is not amplitudes:
        out[...] = amplitudes
    for el in path:
        if isinstance(el, Propagate):
            if el.distance:
                propagate_block(out, grid, wavelength, el.distance, out=out)
        elif isinstance(el, Lens):
            out *= lens_phase(grid, wavelength, el.focal_length)
        else:
            if el.grid != grid:
                raise ValueError("mask grid does not match field grid")
            out *= el.t
    return out
