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
    "Mask",
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
        if self.focal_length == 0:
            raise ValueError("focal length must be nonzero")


@dataclass(frozen=True)
class Mask:
    mask: TransmissionMask


Element = Union[Propagate, Lens, Mask]


@dataclass(frozen=True)
class ArmPath:
    """Ordered optical elements, evaluated source -> detector."""

    elements: tuple[Element, ...] = ()

    def __post_init__(self):
        elements = tuple(self.elements)
        for el in elements:
            if not isinstance(el, (Propagate, Lens, Mask)):
                raise TypeError(f"unsupported path element {el!r}")
        object.__setattr__(self, "elements", elements)

    def __iter__(self) -> Iterable[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=128)
def _transfer_function(n: int, dx: float, wavelength: float, distance: float) -> np.ndarray:
    nu = np.fft.fftfreq(n, dx)
    H = np.exp(2j * np.pi * distance / wavelength) * np.exp(
        -1j * np.pi * wavelength * distance * nu**2
    )
    if distance != 0:
        # propagate_block's checks keep 1/L < nu_lim <= Nyquist (validate_sampling)
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


def propagate_block(
    amplitudes: np.ndarray, grid: Grid1D, wavelength: float, distance: float
) -> np.ndarray:
    """Fresnel-propagate a (..., n) stack of amplitudes along the last axis;
    a hop that validate_sampling refuses raises SamplingError."""
    report = validate_sampling(grid, wavelength, distance)
    if not report.ok:
        raise SamplingError("; ".join(report.messages))
    H = _transfer_function(grid.n, grid.dx, wavelength, distance)
    return np.fft.ifft(np.fft.fft(amplitudes, axis=-1) * H, axis=-1)


def lens_phase(grid: Grid1D, wavelength: float, focal_length: float) -> np.ndarray:
    """Thin-lens transmittance exp(-i pi x^2 / (lambda f)) on the grid."""
    x = grid.coords()
    return np.exp(-1j * np.pi * x**2 / (wavelength * focal_length))


def apply_path_block(
    amplitudes: np.ndarray,
    grid: Grid1D,
    wavelength: float,
    path: ArmPath,
) -> np.ndarray:
    """Run a (..., n) stack of amplitudes through an arm path.

    Refuses (SamplingError) a propagation hop that validate_sampling refuses,
    as propagate_block checks it, and (ValueError) a mask on another grid.
    """
    out = amplitudes
    for el in path:
        if isinstance(el, Propagate):
            if el.distance == 0:
                continue
            out = propagate_block(out, grid, wavelength, el.distance)
        elif isinstance(el, Lens):
            out = out * lens_phase(grid, wavelength, el.focal_length)
        else:
            if el.mask.grid != grid:
                raise ValueError("mask grid does not match field grid")
            out = out * el.mask.t
    return out
