"""Pseudo-thermal speckle-field ensemble with counter-based deterministic seeding.

Each realization is one snapshot of a delta-correlated circular complex
Gaussian field on the source aperture (the standard fully-developed-speckle
idealization of a rotating ground glass): one independent complex normal per
grid sample inside the aperture, zero outside.  A draw therefore holds only
the m aperture amplitudes; every field behind an arm is that (m,) vector
times the arm's Green's functions (mode_decomposition).  The amplitudes are
CN(0, I_m), and their coefficients on any l orthonormal vectors are
CN(0, I_l), so a draw holds one coefficient per kernel row (ModeSet): m on
the aperture's samples, or l < m on a basis of the Green's functions' range
(correlation.accumulate_mc's range factor).

Randomness is counter-based (Philox): realizations come in chunks of
_CHUNK = 64, and chunk c is one standard_normal call on a Philox rewound to
counter (0, 0, 0, c).  The values of realization k are therefore a pure
function of (seed, width, k, column), so realizations can be generated in any
order, in any blocks, by any number of workers, with bit-identical results;
a draw of width w reads 2 w normals per realization, so a narrower draw is a
different stream from the same key.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, Philox, SeedSequence

from .core import Grid1D, SetupGeometry, TransmissionMask, interval_indices
from .optics import ArmPath, Lens, Propagate, apply_path_block, lens_phase

__all__ = ["EnsembleConfig", "ModeSet", "sample_source_block", "mode_decomposition"]

_CHUNK = 64  # realizations per Philox counter: part of the stream's definition


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
        for name in ("n_realizations", "seed"):
            value = getattr(self, name)
            try:  # a float would pass int() and draw the truncated seed's stream
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")


def aperture_indices(config: EnsembleConfig) -> np.ndarray:
    """Grid samples inside the source aperture [-D/2, D/2); interval_indices
    refuses (ValueError) a source below the pitch or wider than the window."""
    return np.arange(*interval_indices(config.grid, 0.0, config.geometry.source_diameter))


def _philox_key(seed: int) -> np.ndarray:
    return SeedSequence(int(seed)).generate_state(2, dtype=np.uint64)


def sample_source_block(
    config: EnsembleConfig, k0: int, k1: int, *, width: int | None = None
) -> np.ndarray:
    """Aperture amplitudes for realizations k0..k1-1 as a (k1-k0, width) array
    of independent CN(0, 1) normals; width defaults to m, the aperture size.

    Column j is the amplitude of source mode j: row j of a kernel whose len()
    is width (ModeSet), at width m the grid sample aperture_indices(config)[j]
    (the field is zero elsewhere on the grid).  Realization k is row
    k % _CHUNK of chunk c = k // _CHUNK, which is
    z = Generator(Philox(key, counter=[0, 0, 0, c])).standard_normal((_CHUNK, 2 width))
    taken as (z[:, 0::2] + i z[:, 1::2]) / sqrt(2), with
    key = SeedSequence(seed).generate_state(2, uint64): interleaved (re, im)
    pairs.  One Philox is rewound to each chunk's counter and draws straight
    into the float view of one complex array, which is then scaled in place.
    An unaligned range draws the whole chunks that cover it, at most
    2 * (_CHUNK - 1) rows more, and returns a view of the rows asked for.
    """
    if not 0 <= k0 <= k1 <= config.n_realizations:
        raise ValueError(
            f"realization range [{k0}, {k1}) outside [0, {config.n_realizations})"
        )
    width = len(aperture_indices(config)) if width is None else width
    c0, c1 = k0 // _CHUNK, -(-k1 // _CHUNK)
    out = np.empty(((c1 - c0) * _CHUNK, width), dtype=np.complex128)
    chunks = out.view(np.float64).reshape(c1 - c0, _CHUNK, 2 * width)  # rows of (re, im) pairs
    bitgen = Philox(key=_philox_key(config.seed))
    rng = Generator(bitgen)
    state = bitgen.state  # as constructed: empty buffer, so a draw starts at the counter
    for c, chunk in zip(range(c0, c1), chunks):
        # chunk index in the high counter word: disjoint counter blocks
        state["state"]["counter"][:] = (0, 0, 0, c)
        bitgen.state = state
        rng.standard_normal(out=chunk)
    # the bits of complex division by sqrt(2), in one real pass
    chunks *= 1.0 / np.sqrt(2.0)
    return out[k0 - c0 * _CHUNK : k1 - c0 * _CHUNK]


@dataclass(frozen=True)
class ModeSet:
    """Green's functions of every source mode through the two arms, kept only
    at the grid columns the detectors read: the one kernel both engines use.

    Row j is source mode j and len() counts rows: g1[j, k] is mode j's field
    at arm-1 grid column columns1[k]; g2 likewise for arm 2.  Mode j is a unit
    amplitude at grid sample aperture_indices(config)[j] as mode_decomposition
    builds it, and the basis vector Q[:, j] after correlation's range factor.
    """

    grid: Grid1D
    g1: np.ndarray         # (modes, len(columns1)) complex
    g2: np.ndarray         # (modes, len(columns2)) complex
    columns1: np.ndarray   # arm-1 grid columns held by g1
    columns2: np.ndarray   # arm-2 grid columns held by g2

    def __len__(self) -> int:
        return len(self.g1)


def _plan(n: int, arm: ArmPath, rows: np.ndarray) -> tuple[int, int, np.ndarray, np.ndarray]:
    """How _arm_kernel builds rows through arm: (lead, last, run, inv).

    arm.elements[:lead] are its leading hops, [lead:last] the segment that
    runs on whole rows, [last:] its trailing lenses and masks.  The segment
    runs the distinct rows run (empty when the segment is), and rows[j] is
    read from run[inv[j]].  Mirror rule: when every element of the segment
    is even under x -> -x (grid sample k -> (n - k) % n), row r runs as the
    smaller of r and its mirror (n - r) % n, so the pair shares one FFT row;
    hops and lenses always are, a mask when t[1:] == t[:0:-1].  A duplicated
    row runs once.
    """
    hops = [isinstance(el, Propagate) for el in arm]
    lead = hops.index(False) if False in hops else len(hops)
    last = max((k + 1 for k, hop in enumerate(hops) if hop), default=0)
    if lead == last:
        return lead, last, rows[:0], rows[:0]
    even = all(not isinstance(el, TransmissionMask) or np.array_equal(el.t[1:], el.t[:0:-1])
               for el in arm.elements[lead:last])
    run, inv = np.unique(np.minimum(rows, (n - rows) % n) if even else rows, return_inverse=True)
    return lead, last, run, inv


def _arm_kernel(
    grid: Grid1D, wavelength: float, arm: ArmPath, plan: tuple, rows: np.ndarray,
    cols: np.ndarray, block_size: int,
) -> np.ndarray:
    """G[rows, cols]: the field at grid columns cols behind arm from a unit
    amplitude at each grid sample in rows; plan is _plan(grid.n, arm, rows).

    Leading Propagate hops commute with grid shifts (the band-limited transfer
    function is circulant), so one centred impulse runs through them and each
    row is that response rolled to its sample.  The elements from there to the
    last hop run on the plan's rows, block_size at a time, in place on one
    reused (block_size, n) buffer.  The mirror rule holds because the centred
    response is even when that segment is (the coordinates are (k - n/2) dx,
    and fftfreq negates exactly, so H(nu) is exactly even): row (n - r) % n
    is row r mirrored, read at the mirrored columns (n - cols) % n, and only
    FFT rounding tells the two apart.  Lenses and masks after the last hop
    act pointwise, so they are applied to the kept columns alone.
    """
    n = grid.n
    lead, last, run, inv = plan
    impulse = np.zeros(n, dtype=np.complex128)
    impulse[n // 2] = 1.0
    h = apply_path_block(impulse, grid, wavelength, ArmPath(arm.elements[:lead]))
    hh = np.concatenate([h, h])  # hh[(n // 2 - r) % n:][:n]: the response rolled to sample r
    if lead == last:
        g = sliding_window_view(hh, n)[((n // 2 - rows) % n)[:, None], cols]
    else:
        middle = ArmPath(arm.elements[lead:last])
        mirrored, mcols = rows != run[inv], (n - cols) % n
        g = np.empty((len(rows), len(cols)), dtype=np.complex128)
        buf = np.empty((min(block_size, len(run)), n), dtype=np.complex128)
        for b0 in range(0, len(run), block_size):
            batch = buf[: len(run[b0 : b0 + block_size])]
            for row, shift in zip(batch, (n // 2 - run[b0 : b0 + block_size]) % n):
                row[:] = hh[shift : shift + n]
            apply_path_block(batch, grid, wavelength, middle, out=batch)
            for j in np.flatnonzero((inv >= b0) & (inv < b0 + len(batch))):
                g[j] = batch[inv[j] - b0, mcols if mirrored[j] else cols]
    if arm.elements[last:]:  # an arm that ends in a hop has no trailing factor
        g *= apply_path_block(np.ones(n), grid, wavelength, ArmPath(arm.elements[last:]))[cols]
    return g


def mode_decomposition(
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    block_size: int = 8,
    *,
    columns1: np.ndarray | None = None,
    columns2: np.ndarray | None = None,
) -> ModeSet:
    """Green's functions of a unit field at every transparent source sample
    through both arms.  One entry per sample inside the source aperture.

    columns1/columns2 keep only those grid columns of arm 1/arm 2 (None keeps
    all n); each must be a 1-D integer array inside [0, n), possibly empty.
    Each arm is built from whichever side runs fewer rows through FFTs, as
    its row plan (_plan, computed once per side) runs them:
    forward, one row per source mode, or from the detector side, one row per
    kept column run through the reversed path, then transposed; ties go
    forward.  A side whose hops all precede its first lens or mask runs none
    (its rows are gathered from one propagated impulse).  Rows mirrored
    about the axis share one FFT row under _plan's mirror rule, so rows set
    symmetrically about it run about half of them.  The detector side is exact,
    not a truncation: every element is symmetric (the band-limited transfer
    function is even in frequency, so its circulant kernel is; lenses and
    masks are pointwise), so an arm's kernel transposed is the kernel of its
    reversed path (Klyshko's advanced wave).
    block_size counts the rows of one whole-row batch (modes forward, kept
    columns reversed); the batch holds 16 * n * block_size bytes, which for
    the default 8 rows is 2 MiB (about one core's L2 cache) at n = 16384
    only, and scales with n.  Each arm reuses one (block_size, n) buffer, in
    place, for every batch.  Working memory is at most
    16 * m * (|columns1| + |columns2|) bytes for the kept kernel plus
    16 * n * (2 * block_size + 16) bytes: the batch buffer and the gather of
    its kept columns, and the impulse response (twice), the trailing factor
    and the cached transfer functions and lens phases with their
    temporaries.  block_size < 1 and any other columns are refused
    (ValueError), and every lens phase computed and refused if it is not
    finite, before any propagation.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, got {block_size}")
    idx = aperture_indices(config)
    grid, wl = config.grid, config.geometry.wavelength
    for el in (*arm1, *arm2):
        if isinstance(el, Lens):
            lens_phase(grid, wl, el.focal_length)
    columns = [np.arange(grid.n) if c is None else np.asarray(c) for c in (columns1, columns2)]
    for cols in columns:
        if cols.ndim != 1 or cols.dtype.kind not in "iu" or np.any((cols < 0) | (cols >= grid.n)):
            raise ValueError(f"arm columns must be a 1-D integer array inside [0, {grid.n})")
    kept = []
    for arm, cols in zip((arm1, arm2), columns):
        reverse = ArmPath(arm.elements[::-1])
        back, fore = _plan(grid.n, reverse, cols), _plan(grid.n, arm, idx)
        if len(back[2]) < len(fore[2]):
            g = _arm_kernel(grid, wl, reverse, back, cols, idx, block_size).T
        else:
            g = _arm_kernel(grid, wl, arm, fore, idx, cols, block_size)
        kept.append((g, cols))
    (g1, cols1), (g2, cols2) = kept
    return ModeSet(grid, g1, g2, cols1, cols2)
