"""Second-order intensity correlation estimators.

Two interchangeable engines compute <I1 I2>:

* accumulate_mc    - ensemble average over speckle realizations, drawn by
                     threads in blocks that the calling thread reduces in
                     index order: bit-identical for any worker count;
* g2_analytic      - Gaussian-moment (mode-sum) evaluation, exact in the
                     discrete model, exposing the interference term separately.

Both engines read one kernel (detector_kernel): the two arms' source-mode
Green's functions at the grid columns the detectors read, from which thermal
light gives G2 = <I1><I2> + |sum_q h1* h2|^2 (Gatti, Brambilla, Bache &
Lugiato, PRL 93, 093602, 2004).  An arm's kernel may be built from its
detector side, by reciprocity (mode_decomposition).  The MC result converges
to the analytic one as 1/sqrt(n).

The observable's rules live here alone: the bucket's columns, refused when
its mask is opaque (detector_kernel), and normalization, refused where g2 is
not finite (siegert_normalize); both engines return raw maps as computed.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np

from .core import TransmissionMask
from .optics import ArmPath
from .source import EnsembleConfig, ModeSet, mode_decomposition, sample_source_block

__all__ = [
    "CorrelationMap",
    "detector_kernel",
    "accumulate_mc",
    "g2_analytic",
    "siegert_normalize",
    "fluctuation_correlation",
]

_FULL_MAP_LIMIT = 1 << 24  # refuse full x1-by-x2 maps above this many entries
_ANALYTIC_CHUNK = 256  # arm-1 columns per bucket term2 product in g2_analytic


def _kind(bucket: bool, diagonal: bool) -> str:
    if bucket and diagonal:
        raise ValueError("bucket and diagonal modes are mutually exclusive")
    return "bucket" if bucket else ("diagonal" if diagonal else "full")


def _product(kind: str, a, b) -> np.ndarray:
    """a * b in the shape of a map of this kind: the outer product if full."""
    return np.multiply.outer(a, b) if kind == "full" else a * b


@dataclass(frozen=True)
class CorrelationMap:
    """Accumulated <I1 I2> with first-order marginals.

    kind is "bucket" (I1 spatially integrated, map over x2), "diagonal"
    (x1 = x2) or "full" (x1 by x2 matrix); x2 holds the coordinates of the
    kernel's arm-2 columns.  For the analytic engine n_accumulated is 0, eps
    is None and term2 is the interference part: g2_raw = <I1><I2> + term2.
    detector_kernel picks the bucket's arm-1 columns and siegert_normalize
    alone sets g2.
    """

    kind: str
    x2: np.ndarray
    g2_raw: np.ndarray
    i1_mean: np.ndarray | float
    i2_mean: np.ndarray
    n_accumulated: int
    eps: np.ndarray | None = None
    term2: np.ndarray | None = None
    g2: np.ndarray | None = None

    def marginal_product(self) -> np.ndarray:
        """<I1><I2> with the shape of g2_raw."""
        return _product(self.kind, self.i1_mean, self.i2_mean)


def detector_kernel(
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    bucket: bool = True,
    *,
    diagonal: bool = False,
    x1_indices: np.ndarray | None = None,
    x2_indices: np.ndarray | None = None,
) -> ModeSet:
    """The arms' Green's functions (mode_decomposition) at the grid columns
    the detectors read: the one kernel both engines reduce.  Arm 2 is read at
    x2_indices (None: every column); arm 1 over its last element's support
    if that is a TransmissionMask (else every column) for the bucket, refused
    if that support is empty, at x2_indices for the diagonal, and at
    x1_indices (default x2_indices) for a full map, refused above 2^24.
    x1_indices is refused for a bucket or a diagonal map, which set arm 1's
    columns themselves.  Every refusal comes before any propagation, and so
    does mode_decomposition's of a column off the grid.
    """
    kind = _kind(bucket, diagonal)
    if kind != "full" and x1_indices is not None:
        raise ValueError(f"x1_indices is read by a full map only, not by a {kind} one")
    x2_idx = np.arange(config.grid.n) if x2_indices is None else np.asarray(x2_indices)
    if kind == "bucket":
        end = arm1.elements[-1] if len(arm1) else None
        x1_idx = (end.support_indices() if isinstance(end, TransmissionMask)
                  else np.arange(config.grid.n))
        if len(x1_idx) == 0:
            raise ValueError("bucket arm's mask is fully opaque")
    elif x1_indices is None:
        x1_idx = x2_idx
    else:
        x1_idx = np.asarray(x1_indices)
    if kind == "full" and len(x1_idx) * len(x2_idx) > _FULL_MAP_LIMIT:
        raise ValueError("full correlation map too large; restrict x1_indices/x2_indices")
    return mode_decomposition(config, arm1, arm2, columns1=x1_idx, columns2=x2_idx)


def _block_sums(kernel, kind, c, dx):
    """(sum I1 I2, sum (I1 I2)^2, sum I1, sum I2) over the realizations whose
    source amplitudes are the rows of c; dx weighs the bucket's sum over x1."""
    I1 = np.abs(c @ kernel.g1) ** 2
    I2 = np.abs(c @ kernel.g2) ** 2
    if kind == "full":
        return I1.T @ I2, (I1 * I1).T @ (I2 * I2), I1.sum(axis=0), I2.sum(axis=0)
    if kind == "bucket":
        I1 = I1.sum(axis=1) * dx
    s1, s2 = I1.sum(axis=0), I2.sum(axis=0)
    # P = I1 I2, then P^2, in I2's buffer: the broadcast form's bits with no
    # temporary (a gemv here ran fig4's 2-worker bucket about 10 % slower)
    I2 *= I1[:, None] if kind == "bucket" else I1
    p = I2.sum(axis=0)
    I2 *= I2
    return p, I2.sum(axis=0), s1, s2


def _in_order(pools, fn, items, window):
    """fn(*args) for the j-th args in items on pools[j % len(pools)], yielded
    in order, with at most window calls submitted and not yet yielded: a slow
    call holds back the ones after it."""
    pending = deque()
    for j, args in enumerate(items):
        pending.append(pools[j % len(pools)].submit(fn, *args))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def accumulate_mc(
    config: EnsembleConfig,
    arm1: ArmPath,
    arm2: ArmPath,
    bucket: bool = True,
    *,
    diagonal: bool = False,
    x1_indices: np.ndarray | None = None,
    x2_indices: np.ndarray | None = None,
    block_size: int = 256,
    workers: int = 1,
) -> CorrelationMap:
    """Monte Carlo <I1 I2> over config.n_realizations speckle realizations.

    bucket=True integrates I1 over arm 1's detection plane (bucket detector).
    Otherwise I1 stays position-resolved, at x1_indices for a full map
    (diagonal=True pairs each x2 sample with the same x1 sample, and refuses
    x1_indices, as the bucket does; detector_kernel).
    Deterministic for fixed (seed, n_realizations) for any worker count.

    The arms are propagated once, as the kernel of detector_kernel; each
    realization's fields are then its m source amplitudes times that kernel.
    Draw threads only draw the amplitudes of each block of block_size
    realizations (sample_source_block), block j on thread j mod workers (one
    single-thread executor each, so a fast thread cannot take every block);
    the calling thread reduces every draw, in block-index order, into the
    first block's sums.  A full map's block sums are matrix products,
    I1^T I2 and (I1^2)^T (I2^2) (BLAS gemm); the bucket's and the
    diagonal's are elementwise, in place, with no block-sized temporary.
    Memory stays bounded by the kernel build's working memory (one reused
    batch of mode_decomposition's default 8 rows of n complex samples, plus
    a few n-sample rows; its docstring gives the bytes), the kernel's
    m * (|arm-1 columns| + |x2|), one block on the calling thread and at
    most `workers` draws: draws are submitted through a window of `workers`,
    so at most `workers` are running or unreduced at once, the one being
    reduced included (a slow draw holds back the submission of later ones).
    With B = block_size, m modes, n1 arm-1 columns, n2 = |x2| and S map
    entries (n1 * n2 for a full map, else n2), a draw takes at most 16*m*B'
    bytes, B' being B rounded out to whole 64-realization chunks (at most
    B + 126; the normals are drawn into the complex amplitudes themselves),
    and the block at most 24*B*(n1 + n2) + 16*S (both arms' fields and
    intensities, and its sums).
    The running sums (the first block's) and the final ratios with their
    temporaries add at most 56*(S + n1 + n2) bytes; a later block is dropped
    once merged.  workers < 1 and block_size < 1 are refused (ValueError)
    before any build or draw; at most os.cpu_count() workers run: more hold
    more draws, no faster.  The map is returned as computed;
    siegert_normalize refuses it where g2 is not finite.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, got {block_size}")
    kind = _kind(bucket, diagonal)
    kernel = detector_kernel(
        config, arm1, arm2, bucket, diagonal=diagonal, x1_indices=x1_indices, x2_indices=x2_indices
    )

    n, dx = config.n_realizations, config.grid.dx
    blocks = ((config, k0, min(k0 + block_size, n)) for k0 in range(0, n, block_size))
    workers = min(workers, os.cpu_count() or 1)
    with ExitStack() as stack:
        # one thread per executor, so block j is drawn on thread j mod workers
        pools = [stack.enter_context(ThreadPoolExecutor(max_workers=1)) for _ in range(workers)]
        draws = _in_order(pools, sample_source_block, blocks, workers)
        s_p, s_p2, s_i1, s_i2 = _block_sums(kernel, kind, next(draws), dx)
        for c in draws:
            p, p2, i1, i2 = _block_sums(kernel, kind, c, dx)
            s_p += p
            s_p2 += p2
            s_i1 += i1
            s_i2 += i2
            del c, p, p2, i1, i2  # not held while the next draw is awaited

    g2_raw = s_p / n
    i1_mean = s_i1 / n
    i2_mean = s_i2 / n
    var = np.maximum(s_p2 / n - g2_raw**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.sqrt(var / n) / _product(kind, i1_mean, i2_mean)
    eps[np.isnan(eps)] = np.inf  # no bound where a marginal is 0 (0/0), as for x/0

    return CorrelationMap(
        kind=kind,
        x2=config.grid.coords()[kernel.columns2],
        g2_raw=g2_raw,
        i1_mean=i1_mean if kind != "bucket" else float(i1_mean),
        i2_mean=i2_mean,
        n_accumulated=n,
        eps=eps,
    )


def g2_analytic(modes: ModeSet, bucket: bool = True, *, diagonal: bool = False) -> CorrelationMap:
    """Exact mode-sum G2 over the columns the kernel holds.

    With rho_i = sum_q |g_i|^2 the background is rho1 * rho2 and the
    interference term is term2 = |sum_q g1* g2|^2.  The bucket integrates
    both over every arm-1 column held (so those must cover arm 1's output,
    as detector_kernel's do); the diagonal pairs column k of g1 with column
    k of g2, so both arms must hold the same columns.
    """
    if len(modes) == 0:
        raise ValueError("mode set is empty")
    kind = _kind(bucket, diagonal)
    dx = modes.grid.dx
    rho1 = (np.abs(modes.g1) ** 2).sum(axis=0)
    rho2 = (np.abs(modes.g2) ** 2).sum(axis=0)

    if kind == "bucket":
        i1_mean: np.ndarray | float = float(rho1.sum() * dx)
        term2 = np.zeros(len(modes.columns2))
        for c0 in range(0, len(modes.columns1), _ANALYTIC_CHUNK):
            K = modes.g1[:, c0 : c0 + _ANALYTIC_CHUNK].conj().T @ modes.g2
            term2 += (np.abs(K) ** 2).sum(axis=0)
        term2 *= dx
    elif kind == "diagonal":
        if not np.array_equal(modes.columns1, modes.columns2):
            raise ValueError("a diagonal map needs both arms held at the same columns")
        i1_mean = rho1
        term2 = np.abs(np.einsum("mi,mi->i", modes.g1.conj(), modes.g2)) ** 2
    else:
        i1_mean = rho1
        term2 = np.abs(modes.g1.conj().T @ modes.g2) ** 2

    return CorrelationMap(
        kind=kind,
        x2=modes.grid.coords()[modes.columns2],
        g2_raw=_product(kind, i1_mean, rho2) + term2,
        i1_mean=i1_mean,
        i2_mean=rho2,
        n_accumulated=0,
        term2=term2,
    )


def siegert_normalize(cmap: CorrelationMap) -> CorrelationMap:
    """Normalize: g2 = <I1 I2> / (<I1><I2>), refused (ValueError) where it is
    not finite: a zero marginal, a NaN or an overflow.  Thermal light obeys
    1 <= g2 <= 2 exactly on the analytic path (Cauchy-Schwarz on the mode sum)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g2 = cmap.g2_raw / cmap.marginal_product()
    if not np.all(np.isfinite(g2)):
        raise ValueError("g2 is not finite: a marginal intensity is zero or a field is not finite")
    return replace(cmap, g2=g2)


def fluctuation_correlation(cmap: CorrelationMap) -> np.ndarray:
    """Background-free correlation <I1 I2> - <I1><I2>.

    Equals the interference term exactly on the analytic path; on the MC path
    it is the sample estimate of the same quantity (needs >= 2 realizations).
    """
    if cmap.term2 is not None:  # analytic: the interference term itself
        return cmap.term2.copy()
    if cmap.n_accumulated < 2:
        raise ValueError("fluctuation correlation needs at least 2 realizations")
    return cmap.g2_raw - cmap.marginal_product()
