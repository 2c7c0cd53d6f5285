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
from numpy.random import Generator, Philox, SeedSequence

from .core import Grid1D, SetupGeometry, interval_indices
from .optics import ArmPath, apply_path_block

__all__ = ["EnsembleConfig", "ModeSet", "sample_source_block", "mode_decomposition"]


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble parameters: identical (seed, config) => bit-identical streams."""

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
    """Grid samples inside the source aperture [-D/2, D/2)."""
    i0, i1 = interval_indices(config.grid, 0.0, config.geometry.source_diameter)
    i0 = max(i0, 0)
    i1 = min(i1, config.grid.n)
    if i1 <= i0:
        raise ValueError("source aperture narrower than one grid sample")
    return np.arange(i0, i1)


def _philox_key(seed: int) -> np.ndarray:
    return SeedSequence(int(seed)).generate_state(2, dtype=np.uint64)


def sample_source_block(config: EnsembleConfig, k0: int, k1: int) -> np.ndarray:
    """Aperture amplitudes for realizations k0..k1-1 as a (k1-k0, m) array.

    Column j belongs to grid sample aperture_indices(config)[j]; the field is
    zero everywhere else on the grid.
    """
    if not 0 <= k0 <= k1 <= config.n_realizations:
        raise ValueError(
            f"realization range [{k0}, {k1}) outside [0, {config.n_realizations})"
        )
    m = len(aperture_indices(config))
    key = _philox_key(config.seed)
    out = np.empty((k1 - k0, m), dtype=np.complex128)
    for row, k in enumerate(range(k0, k1)):
        # realization index in the high counter word: disjoint counter blocks
        rng = Generator(Philox(key=key, counter=[0, 0, 0, k]))
        z = rng.standard_normal(2 * m)
        out[row] = (z[:m] + 1j * z[m:]) / np.sqrt(2.0)
    return out


@dataclass(frozen=True)
class ModeSet:
    """Green's functions of every source mode through the two arms.

    g1[j] is the field at the arm-1 detection plane produced by a unit
    amplitude at source grid sample indices[j]; g2[j] likewise for arm 2.
    columns1/columns2 name the grid columns g1/g2 hold; None means all n.
    A restricted set serves the Monte Carlo engine, which reads each arm at
    a few columns only.
    """

    grid: Grid1D
    indices: np.ndarray    # (m,) source-sample grid indices
    g1: np.ndarray         # (m, n) complex, or (m, len(columns1))
    g2: np.ndarray         # (m, n) complex, or (m, len(columns2))
    columns1: np.ndarray | None = None
    columns2: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def restricted(self) -> bool:
        return self.columns1 is not None or self.columns2 is not None


def mode_decomposition(
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    block_size: int = 512,
    *,
    columns1: np.ndarray | None = None,
    columns2: np.ndarray | None = None,
) -> ModeSet:
    """Propagate a unit basis field from every transparent source sample
    through both arms.  One entry per sample inside the source aperture.

    columns1/columns2 keep only those grid columns of arm 1/arm 2 (None keeps
    all n).  The modes are propagated block_size at a time, so the working
    memory is a few block_size * n complex values on top of the kept
    m * (|columns1| + |columns2|).
    """
    idx = aperture_indices(config)
    m = len(idx)
    n = config.grid.n
    wl = config.geometry.wavelength
    keep1 = slice(None) if columns1 is None else np.asarray(columns1)
    keep2 = slice(None) if columns2 is None else np.asarray(columns2)
    g1 = np.empty((m, n if columns1 is None else len(keep1)), dtype=np.complex128)
    g2 = np.empty((m, n if columns2 is None else len(keep2)), dtype=np.complex128)
    for b0 in range(0, m, block_size):
        b1 = min(b0 + block_size, m)
        basis = np.zeros((b1 - b0, n), dtype=np.complex128)
        basis[np.arange(b1 - b0), idx[b0:b1]] = 1.0
        g1[b0:b1] = apply_path_block(basis, config.grid, wl, arm1)[:, keep1]
        g2[b0:b1] = apply_path_block(basis, config.grid, wl, arm2)[:, keep2]
    return ModeSet(
        grid=config.grid,
        indices=idx,
        g1=g1,
        g2=g2,
        columns1=None if columns1 is None else keep1,
        columns2=None if columns2 is None else keep2,
    )
