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
# entries each of the hop and lens caches holds: a bench correlation runs at
# most three distinct hops (source -> object, source -> lens, lens -> scan plane)
# and one lens, so a plane rebuilds none of its own and drops the earlier planes'
_CACHE_SIZE = 4
# samples of nu^2 squared at a time while a transfer function forms (512 KB)
_CHIRP_CHUNK = 1 << 16


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
    """H(nu) in place: beside its 16 * n bytes it holds one float n-array
    (nu, then |nu|, then the window) and n-byte masks, and squares nu
    _CHIRP_CHUNK samples at a time, so a new hop peaks below 2 * 16 * n."""
    nu = np.fft.fftfreq(n, dx)
    H = np.empty(n, dtype=np.complex128)
    chirp = -1j * np.pi * wavelength * distance
    for k0 in range(0, n, _CHIRP_CHUNK):
        part = slice(k0, k0 + _CHIRP_CHUNK)
        np.multiply(chirp, np.square(nu[part]), out=H[part])
    np.exp(H, out=H)
    np.multiply(np.exp(2j * np.pi * distance / wavelength), H, out=H)
    if distance != 0:
        # _hop's check keeps 1/L < nu_lim <= Nyquist (validate_sampling)
        nu_lim = (n * dx) / (2 * wavelength * abs(distance))
        anu = np.abs(nu, out=nu)
        lo = (1.0 - _BAND_TAPER) * nu_lim
        ramp = (anu > lo) & (anu <= nu_lim)
        taper = 0.5 * (1 + np.cos(np.pi * (anu[ramp] - lo) / (nu_lim - lo)))
        cut = anu > nu_lim
        window = anu  # |nu| is read out: the window takes its buffer
        window.fill(1.0)
        window[ramp] = taper
        window[cut] = 0.0
        H *= window
    H.setflags(write=False)
    return H


@lru_cache(maxsize=_CACHE_SIZE)
def _hop(grid: Grid1D, wavelength: float, distance: float) -> np.ndarray:
    """The transfer function of a hop that validate_sampling passes, checked
    once per distinct hop while it is cached; a refused hop raises
    SamplingError on every call, since lru_cache keeps no exception.  The
    cache keeps the _CACHE_SIZE = 4 hops used last, 16 * n bytes each: a
    bench correlation runs at most three distinct hops, so none is rebuilt
    within one, and a sweep holds 4 however many planes it runs (an arm pair
    with more hops stays correct and rebuilds some)."""
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
    _scale_rows(out, H)
    return np.fft.ifft(out, axis=-1, out=out)


def _scale_rows(out: np.ndarray, factor: np.ndarray) -> None:
    """out *= factor along the last axis, one row at a time, with the bits
    of the broadcast product.  Over a stack of rows shorter than NumPy's
    8192-element ufunc buffer, that product fills the buffer (128 KB beside
    the stack, 160 KB for a real factor); row by row a complex factor needs
    no temporary and a real one casts one row, so threads that each run
    their own stack (the kernel build's) add at most that row when their
    products meet."""
    for index in np.ndindex(out.shape[:-1]):
        out[index] *= factor


@lru_cache(maxsize=_CACHE_SIZE)
def lens_phase(grid: Grid1D, wavelength: float, focal_length: float) -> np.ndarray:
    """Thin-lens transmittance exp(-i pi x^2 / (lambda f)) on the grid,
    read-only; the cache keeps the _CACHE_SIZE = 4 phases used last, 16 * n
    bytes each, which a correlation's one lens never evicts.  Refused
    (ValueError) where it is not finite: an f so short that x^2 / (lambda f)
    overflows on the grid; a refusal raises on every call, since lru_cache
    keeps no exception.  Unlike a hop, f is not checked against the chirp
    bound dx * L / lambda: the phase aliases where |x| > lambda |f| / (2 dx),
    on paper.cfg beyond 13.4 of 16.4 mm, yet there fig3's magnification and
    fig4's peak separation equal a 1 um pitch's."""
    x = grid.coords()
    with np.errstate(over="ignore", invalid="ignore"):
        # in place: the bits of exp(-1j * pi * x**2 / (lambda f)), x and the phase held
        phase = np.multiply(-1j * np.pi, np.square(x, out=x))
        del x
        phase /= wavelength * focal_length
        np.exp(phase, out=phase)
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
            _scale_rows(out, lens_phase(grid, wavelength, el.focal_length))
        else:
            if el.grid != grid:
                raise ValueError("mask grid does not match field grid")
            _scale_rows(out, el.t)
    return out
