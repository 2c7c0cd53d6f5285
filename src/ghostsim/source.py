"""Pseudo-thermal speckle-field ensemble with counter-based deterministic seeding.

Each realization is one snapshot of a delta-correlated circular complex
Gaussian field on the source aperture (the standard fully-developed-speckle
idealization of a rotating ground glass): one independent complex normal per
grid sample inside the aperture, zero outside.  A draw therefore holds only
the m aperture amplitudes; every field behind an arm is that (m,) vector
times the arm's Green's functions (mode_decomposition).

Randomness is counter-based (Philox): the values of realization k are a pure
function of (seed, k, sample index), so realizations can be generated in any
order, by any number of workers, with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, Philox, SeedSequence

from .core import Grid1D, SetupGeometry, interval_indices
from .optics import ArmPath, Propagate, apply_path_block

__all__ = ["EnsembleConfig", "ModeSet", "sample_source_block", "mode_decomposition"]


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble parameters and the one carrier of the bench: the procedures
    read geometry, wavelength, source aperture and grid from here alone.
    Identical (seed, config) => bit-identical streams."""

    n_realizations: int
    seed: int
    geometry: SetupGeometry
    grid: Grid1D

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")


def aperture_indices(config: EnsembleConfig) -> np.ndarray:
    """Grid samples inside the source aperture [-D/2, D/2), clipped to the window."""
    i0, i1 = interval_indices(config.grid, 0.0, config.geometry.source_diameter)
    return np.arange(max(i0, 0), min(i1, config.grid.n))


def _philox_key(seed: int) -> np.ndarray:
    return SeedSequence(int(seed)).generate_state(2, dtype=np.uint64)


def sample_source_block(config: EnsembleConfig, k0: int, k1: int) -> np.ndarray:
    """Aperture amplitudes for realizations k0..k1-1 as a (k1-k0, m) array.

    Column j belongs to grid sample aperture_indices(config)[j]; the field is
    zero everywhere else on the grid.  Realization k is
    z = Generator(Philox(key, counter=[0, 0, 0, k])).standard_normal(2 m)
    taken as (z[:m] + i z[m:]) / sqrt(2), with
    key = SeedSequence(seed).generate_state(2, uint64); one Philox is
    rewound to that counter for each row, and the complex block is built
    once from the (k1-k0, 2 m) normals.
    """
    if not 0 <= k0 <= k1 <= config.n_realizations:
        raise ValueError(
            f"realization range [{k0}, {k1}) outside [0, {config.n_realizations})"
        )
    m = len(aperture_indices(config))
    bitgen = Philox(key=_philox_key(config.seed))
    rng = Generator(bitgen)
    state = bitgen.state  # as constructed: empty buffer, so a draw starts at the counter
    z = np.empty((k1 - k0, 2 * m))
    for row, k in enumerate(range(k0, k1)):
        # realization index in the high counter word: disjoint counter blocks
        state["state"]["counter"][:] = (0, 0, 0, k)
        bitgen.state = state
        rng.standard_normal(out=z[row])
    # (z[:, :m] + 1j z[:, m:]) / sqrt(2) with one complex array: the same bits, less peak memory
    out = z[:, m:] * 1j
    out += z[:, :m]
    out /= np.sqrt(2.0)
    return out


@dataclass(frozen=True)
class ModeSet:
    """Green's functions of every source mode through the two arms, kept only
    at the grid columns the detectors read: the one kernel both engines use.

    g1[j, k] is the field at arm-1 grid column columns1[k] produced by a unit
    amplitude at source grid sample indices[j]; g2 likewise for arm 2.
    """

    grid: Grid1D
    indices: np.ndarray    # (m,) source-sample grid indices
    g1: np.ndarray         # (m, len(columns1)) complex
    g2: np.ndarray         # (m, len(columns2)) complex
    columns1: np.ndarray   # arm-1 grid columns held by g1
    columns2: np.ndarray   # arm-2 grid columns held by g2

    def __len__(self) -> int:
        return len(self.indices)


def _split(arm: ArmPath) -> tuple[int, int]:
    """(lead, last): arm.elements[:lead] are its leading hops, [lead:last] the
    segment that runs on whole rows, [last:] its trailing lenses and masks."""
    hops = [isinstance(el, Propagate) for el in arm]
    lead = hops.index(False) if False in hops else len(hops)
    last = max((k + 1 for k, hop in enumerate(hops) if hop), default=0)
    return lead, last


def _fft_rows(arm: ArmPath, rows: np.ndarray) -> int:
    """How many of rows _arm_kernel runs through arm's whole-row segment:
    all of them, or none if that segment is empty."""
    lead, last = _split(arm)
    return len(rows) if lead < last else 0


def _arm_kernel(
    grid: Grid1D, wavelength: float, arm: ArmPath, rows: np.ndarray, cols: np.ndarray,
    block_size: int,
) -> np.ndarray:
    """G[rows, cols]: the field at grid columns cols behind arm from a unit
    amplitude at each grid sample in rows.

    Leading Propagate hops commute with grid shifts (the band-limited transfer
    function is circulant), so one centred impulse runs through them and each
    row is that response rolled to its sample.  The elements from there to the
    last hop run on whole rows, block_size at a time.  Lenses and masks after
    the last hop act pointwise, so they are applied to the kept columns alone.
    """
    lead, last = _split(arm)
    impulse = np.zeros(grid.n, dtype=np.complex128)
    impulse[grid.n // 2] = 1.0
    h = apply_path_block(impulse, grid, wavelength, ArmPath(arm.elements[:lead]))
    windows = sliding_window_view(np.concatenate([h, h]), grid.n)
    shifts = (grid.n // 2 - rows) % grid.n  # windows[shifts[j]]: a response rolled to rows[j]
    middle = ArmPath(arm.elements[lead:last])
    g = np.empty((len(rows), len(cols)), dtype=np.complex128)
    for b0 in range(0, len(rows), block_size):
        s = shifts[b0 : b0 + block_size]
        if len(middle):
            g[b0 : b0 + len(s)] = apply_path_block(windows[s], grid, wavelength, middle)[:, cols]
        else:
            g[b0 : b0 + len(s)] = windows[s[:, None], cols]
    g *= apply_path_block(np.ones(grid.n), grid, wavelength, ArmPath(arm.elements[last:]))[cols]
    return g


def mode_decomposition(
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    block_size: int = 512,
    *,
    columns1: np.ndarray | None = None,
    columns2: np.ndarray | None = None,
) -> ModeSet:
    """Green's functions of a unit field at every transparent source sample
    through both arms.  One entry per sample inside the source aperture.

    columns1/columns2 keep only those grid columns of arm 1/arm 2 (None keeps
    all n).  Each arm is built from whichever side sends fewer rows through
    FFTs: forward, one row per source mode, or from the detector side, one
    row per kept column run through the reversed path, then transposed; ties
    go forward.  A side whose hops all precede its first lens or mask sends
    none (its rows are gathered from one propagated impulse).  The detector
    side is exact, not a truncation: every element is symmetric (the
    band-limited transfer function is even in frequency, so its circulant
    kernel is; lenses and masks are pointwise), so an arm's kernel
    transposed is the kernel of its reversed path (Klyshko's advanced wave).
    block_size counts the rows of one whole-row batch: modes forward, kept
    columns reversed.  Working memory is a few block_size * n complex values
    on top of the kept m * (|columns1| + |columns2|).
    """
    idx = aperture_indices(config)
    grid, wl = config.grid, config.geometry.wavelength
    kept = []
    for arm, cols in ((arm1, columns1), (arm2, columns2)):
        cols = np.arange(grid.n) if cols is None else np.asarray(cols)
        reverse = ArmPath(arm.elements[::-1])
        if _fft_rows(reverse, cols) < _fft_rows(arm, idx):
            g = _arm_kernel(grid, wl, reverse, cols, idx, block_size).T
        else:
            g = _arm_kernel(grid, wl, arm, idx, cols, block_size)
        kept.append((g, cols))
    (g1, cols1), (g2, cols2) = kept
    return ModeSet(grid, idx, g1, g2, cols1, cols2)
