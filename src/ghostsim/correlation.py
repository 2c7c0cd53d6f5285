"""Second-order intensity correlation estimators.

Two interchangeable engines compute <I1 I2>:

* accumulate_mc    - ensemble average over speckle realizations, drawn by
                     threads in blocks, one block ahead of the calling
                     thread, which reduces them in index order:
                     bit-identical for any worker count;
* g2_analytic      - Gaussian-moment (mode-sum) evaluation, exact in the
                     discrete model, exposing the interference term separately.

Both engines read one kernel (detector_kernel): the two arms' source-mode
Green's functions at the grid columns the detectors read, from which thermal
light gives G2 = <I1><I2> + |sum_q h1* h2|^2 (Gatti, Brambilla, Bache &
Lugiato, PRL 93, 093602, 2004).  An arm's kernel may be built from its
detector side, by reciprocity (mode_decomposition).  G2 depends on the source
only through the kernel's cross-spectral density G^H G, so the MC engine
draws in an orthonormal basis of the kernel's range, a few dozen modes
instead of m, to a fixed tolerance (_range_factor); the analytic engine sums
the unfactored kernel.  The MC result converges to the analytic one as
1/sqrt(n).

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
from functools import partial

import numpy as np
from numpy.random import Generator, Philox

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
_CHUNK_COLS = 1024  # arm-2 columns per product: an MC block's reduction, the analytic bucket
_FACTOR_TOL = 1e-12  # the range factor's bound on ||G^H G - F^H F||_F / ||G||_F^2
_FACTOR_WIDTH = 32  # the range finder's first basis width, doubled until the bound holds
_SKETCH_KEY = 0  # Philox key of the range finder's test matrix: fixed, so (seed, config) fix bits
_TAIL_ROWS = 32  # full-map rows per block of the MC tail's eps: its temporaries are this wide


def _kind(bucket: bool, diagonal: bool) -> str:
    if bucket and diagonal:
        raise ValueError("bucket and diagonal modes are mutually exclusive")
    return "bucket" if bucket else ("diagonal" if diagonal else "full")


def _product(kind: str, a, b, out=None) -> np.ndarray:
    """a * b in the shape of a map of this kind: the outer product if full."""
    return (np.multiply.outer if kind == "full" else np.multiply)(a, b, out=out)


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2, squared in the buffer of |x| (np.square has the bits of ** 2 and of a * a)."""
    a = np.abs(x)
    return np.square(a, out=a)


@dataclass(frozen=True)
class CorrelationMap:
    """Accumulated <I1 I2> with first-order marginals.

    kind is "bucket" (I1 spatially integrated, map over x2), "diagonal"
    (x1 = x2) or "full" (x1 by x2 matrix); x2 holds the coordinates of the
    kernel's arm-2 columns.  For the analytic engine n_accumulated is 0, eps
    is None and term2 is the interference part: g2_raw = <I1><I2> + term2.
    detector_kernel picks the bucket's arm-1 columns, and siegert_normalize
    forms g2 from the map.
    """

    kind: str
    x2: np.ndarray
    g2_raw: np.ndarray
    i1_mean: np.ndarray | float
    i2_mean: np.ndarray
    n_accumulated: int
    eps: np.ndarray | None = None
    term2: np.ndarray | None = None

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


def _selection(g: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, weights) of a hop-free kernel side, one with at most one nonzero
    per column (as an arm with no hop gives: masks and lenses act pointwise),
    else None.  Column k reads source mode rows[k] with weight
    |g[rows[k], k]|^2, 0 for an empty column, so |c g[:, k]|^2 is
    |c[:, rows[k]]|^2 weights[k].  No m x N array is formed: at most 40 * N
    bytes beside the N-column side (its nonzeros and their weights, then the
    two results)."""
    n = g.shape[1]
    # a column with two nonzeros makes a side dense; column 0 shows it on the bench
    if np.count_nonzero(g[:, :1]) > 1 or np.count_nonzero(g) > n:
        return None
    nz_rows, nz_cols = np.nonzero(g)
    if np.any(np.bincount(nz_cols) > 1):
        return None
    values = _abs2(g[nz_rows, nz_cols])
    rows = np.zeros(n, dtype=np.intp)
    rows[nz_cols] = nz_rows
    weights = np.zeros(n)
    weights[nz_cols] = values
    return rows, weights


def _range_factor(kernel: ModeSet) -> tuple[ModeSet, np.ndarray | None]:
    """(kernel with (g1, g2) replaced by (f1, f2) = Q^H (g1, g2), Q^H), or
    (kernel, None) where no basis narrower than m holds it.

    Q (m x l) is an orthonormal basis of the range of G = [g1 | g2], from a
    randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53, 217,
    2011): Q from the QR of the sketch G G^H Omega, Omega an m x l complex
    Gaussian from a fixed-key Philox, with l doubled from _FACTOR_WIDTH until
    ||G||_F^2 - ||F||_F^2 <= _FACTOR_TOL ||G||_F^2.  By Pythagoras that is
    ||(I - Q Q^H) G||_F^2, which bounds ||G^H G - F^H F||_F.  Where l would
    reach m, the kernel is kept.  Row j of the factor is source mode Q[:, j]
    (ModeSet).  The doubling starts at a rank floor: a hop-free side (one
    that _selection reads) has orthogonal rows, so by Ky Fan each of its rows
    above twice the bound (a smaller floor is always safe) is a direction
    every accepted basis holds.  Each try draws its own Omega, so skipped
    widths change no bit; Siegert's identity kernel forms no sketch.  No
    m x N array is formed: the floor reads a side through its selection (the
    row norms being the selection's weights summed by row), and the sketch is
    g (Omega^H g)^H, one arm at a time, with Omega^H g conjugated in place
    and freed before the next arm's (its transpose keeps the layout a
    conjugated copy would have, so the GEMM's bits do not change).
    """
    g1, g2 = kernel.g1, kernel.g2
    m = len(kernel)
    total = np.linalg.norm(g1) ** 2 + np.linalg.norm(g2) ** 2
    width = _FACTOR_WIDTH
    for g in (g1, g2):
        selection = _selection(g)
        if selection is not None:
            norms = np.bincount(*selection, m)
            pinned = np.count_nonzero(norms > 2 * _FACTOR_TOL * total)
            while width < pinned:
                width *= 2
    while width < m:
        z = Generator(Philox(key=_SKETCH_KEY)).standard_normal((m, 2 * width))
        omega_h = z.view(np.complex128).T.conj()
        sketch = _sketch_term(g1, omega_h)
        sketch += _sketch_term(g2, omega_h)
        q_h = np.linalg.qr(sketch)[0].T.conj()
        f1, f2 = q_h @ g1, q_h @ g2
        if total - np.linalg.norm(f1) ** 2 - np.linalg.norm(f2) ** 2 <= _FACTOR_TOL * total:
            return replace(kernel, g1=f1, g2=f2), q_h
        width *= 2
    return kernel, None


def _sketch_term(g: np.ndarray, omega_h: np.ndarray) -> np.ndarray:
    """g (Omega^H g)^H, the one l x N temporary conjugated in place."""
    y = omega_h @ g
    return g @ np.conjugate(y, out=y).T


def _block_sums(kernel, kind, c, dx, sums, selections):
    """Add (sum I1 I2, sum (I1 I2)^2, sum I1, sum I2) over the realizations
    whose source amplitudes are the rows of c into sums, in place; dx weighs
    the bucket's sum over x1.  Arm 2's columns are walked _CHUNK_COLS at a
    time, and arm 1's with them (diagonal) or before them (bucket), so no
    field or intensity is wider than B x _CHUNK_COLS but a full map's arm-1
    intensities, which both its GEMMs read whole.  A side whose selection
    (_selection) is not None is gathered from |c|^2, formed once per block,
    C-ordered (np.take) so that its sums run in the GEMM path's order."""
    s_p, s_p2, s_i1, s_i2 = sums
    if any(s is not None for s in selections):
        a = _abs2(c)  # one array per block

    def intensities(g, selection, cols=slice(None)):
        if selection is None:
            return _abs2(c @ g[:, cols])
        rows, weights = selection
        i = np.take(a, rows[cols], axis=1)
        i *= weights[cols]
        return i

    g1, g2 = kernel.g1, kernel.g2
    sel1, sel2 = selections
    if kind == "full":
        I1 = intensities(g1, sel1)
        s_i1 += I1.sum(axis=0)
        I1_sq = I1 * I1
    elif kind == "bucket":
        I1 = np.zeros(len(c))
        for c0 in range(0, g1.shape[1], _CHUNK_COLS):
            I1 += intensities(g1, sel1, slice(c0, c0 + _CHUNK_COLS)).sum(axis=1)
        I1 *= dx
        s_i1 += I1.sum(axis=0)
        I1 = I1[:, None]
    for c0 in range(0, g2.shape[1], _CHUNK_COLS):
        cols = slice(c0, c0 + _CHUNK_COLS)
        if kind == "diagonal":
            I1 = intensities(g1, sel1, cols)
            s_i1[cols] += I1.sum(axis=0)
        I2 = intensities(g2, sel2, cols)
        s_i2[cols] += I2.sum(axis=0)
        if kind == "full":
            s_p[:, cols] += I1.T @ I2
            I2 *= I2
            s_p2[:, cols] += I1_sq.T @ I2
        else:
            # P = I1 I2, then P^2, in I2's buffer: the broadcast form's bits with no
            # temporary (a gemv here ran fig4's 2-worker bucket about 10 % slower)
            I2 *= I1
            s_p[cols] += I2.sum(axis=0)
            I2 *= I2
            s_p2[cols] += I2.sum(axis=0)
        del I2  # not held while the next chunk's fields form


def _in_order(pools, fn, items):
    """fn(*args) for the j-th args in items on pools[j % len(pools)], yielded
    in order, with at most len(pools) + 1 calls submitted and not yet yielded:
    while the caller works on call j, calls j + 1 to j + len(pools) run or
    wait their turn, so even one pool runs ahead of the caller.  A slow call
    holds back the ones after it."""
    pending = deque()
    for j, args in enumerate(items):
        pending.append(pools[j % len(pools)].submit(fn, *args))
        if len(pending) > len(pools):
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

    The arms are propagated once, as the kernel G = [g1 | g2] of
    detector_kernel (m modes by n1 + n2 columns).  Thermal G2 depends on the
    source only through G^H G (Gatti et al., PRL 93, 093602, 2004), so G is
    replaced by its range factor F = Q^H G (_range_factor: Q an m x l
    orthonormal basis, ||G^H G - F^H F||_F <= 1e-12 ||G||_F^2) and dropped,
    and a realization draws l CN(0, 1) coefficients instead of m amplitudes.
    l is read from the kernel alone: the narrowest doubling of 32 the finder
    accepts (32 or 64 on the bench's kernels), else m, drawn unfactored;
    Siegert's identity kernel pins all m rows (the finder's rank floor),
    forms no sketch and is gathered, not multiplied (below).  The analytic
    engine reads G itself.  The basis comes from a fixed-key sketch, so the
    bits depend on (seed, config) alone; but each call draws in its own
    basis, so two calls with one seed (two defocus planes, say) share no
    source fields.
    Draw threads only draw the w = len(kernel) coefficients of each block of
    block_size realizations (sample_source_block), block j on thread
    j mod workers (one single-thread executor each, so a fast thread cannot
    take every block), one block ahead of the reduction: while the calling
    thread reduces block j, blocks j + 1 to j + workers are drawn or queued,
    so even one draw thread overlaps the reduction.  The calling thread
    reduces every draw, in block-index order, into one set of zeroed running
    sums (_block_sums), 1024 columns at a time (_CHUNK_COLS).  A full map's
    chunk sums are matrix products, I1^T I2 and (I1^2)^T (I2^2) (BLAS gemm);
    the bucket's and the diagonal's are elementwise, in place.  A hop-free
    side (_selection, read after the factor, whose sides are dense) is
    gathered from the block's |c|^2, not multiplied, in the same chunks and
    order: on unit weights (identity arms, binary masks) with the GEMM's
    bits.
    Memory stays bounded by the kernel build's working memory (one reused
    batch of mode_decomposition's default 8 rows of n complex samples, plus
    a few n-sample rows; its docstring gives the bytes) and the kernel's
    16 * m * (n1 + n2) bytes, then by the range factor's working memory
    before the first draw, then by the factored kernel, its selections, the
    running sums and at most `workers` + 1 blocks: the one being reduced,
    with the reduction's working memory, and up to `workers` drawn or
    drawing (a slow draw holds back the submission of later ones); and last
    by the sums and one row block of the tail's temporaries.
    With B = block_size, m modes, n1 arm-1 columns, n2 = |x2|, S map
    entries (n1 * n2 for a full map, else n2) and W = min(max(n1, n2), 1024)
    columns in the widest chunk, the range factor takes at most
    16*l*(6*m + 2*(n1 + n2)) bytes beside G, l being the widest basis
    it tries: m x l arrays (the test matrix, the sketch G G^H Omega, QR's
    work and Q^H), l x (n1 + n2) ones (F, and Omega^H g, formed one arm at a
    time and conjugated in place, so there is no m x (n1 + n2) array) and
    the previous try's Q^H and F; its rank floor, first, takes at most
    40*max(n1, n2) + 8*m (a hop-free side's nonzeros and its rows' norms).
    A draw takes at most 16*w*B' bytes, B' being B rounded out to whole
    64-realization chunks (at most B + 126; the normals are drawn into the
    complex amplitudes themselves), and the block at most
    32*B*W + 16*(B + W) (one chunk's field and intensities beside the
    diagonal's arm-1 intensities or the bucket's B arm-1 sums), and for a
    full map also 24*B*n1 + 8*n1*W (its whole arm-1 intensities and their
    squares, and one chunk's GEMM product), and where a side is a selection
    also 8*B*w (the block's |c|^2).  The selections hold at most
    16*(n1 + n2) bytes (a row index and a weight per column of a hop-free
    side) for the whole call, and the running sums 16*S + 8*(n1 + n2) bytes
    from the first draw on; the ratios are formed in their place, and eps
    in that of sum (I1 I2)^2, one row block at a time, so the tail adds only
    one block's g2_raw^2 (then <I1><I2>) and NaN mask, 9*R*n2 bytes:
    R = min(n1, 32) rows of a full map (_TAIL_ROWS), 1 of a bucket or a
    diagonal.  workers < 1 and block_size < 1 are refused (ValueError)
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
    kernel = _range_factor(kernel)[0]  # the unfactored kernel is dropped here
    draw = partial(sample_source_block, width=len(kernel))
    selections = (_selection(kernel.g1), _selection(kernel.g2))

    n, dx = config.n_realizations, kernel.grid.dx
    n1, n2 = len(kernel.columns1), len(kernel.columns2)
    shape = (n1, n2) if kind == "full" else (n2,)
    sums = (np.zeros(shape), np.zeros(shape), np.zeros(() if kind == "bucket" else n1),
            np.zeros(n2))
    blocks = ((config, k0, min(k0 + block_size, n)) for k0 in range(0, n, block_size))
    workers = min(workers, os.cpu_count() or 1)
    with ExitStack() as stack:
        # one thread per executor, so block j is drawn on thread j mod workers
        pools = [stack.enter_context(ThreadPoolExecutor(max_workers=1)) for _ in range(workers)]
        for c in _in_order(pools, draw, blocks):
            _block_sums(kernel, kind, c, dx, sums, selections)
            del c  # not held while the next draw is awaited

    # the ratios, in place of the sums: g2_raw, <(I1 I2)^2>, <I1> and <I2>; then
    # eps in <(I1 I2)^2>'s place, _TAIL_ROWS rows of a full map at a time (the
    # whole vector of a bucket or a diagonal, indexed by ...), each entry by the
    # same steps
    for s in sums:
        s /= n
    g2_raw, eps, i1_mean, i2_mean = sums
    row_blocks = ([slice(r0, r0 + _TAIL_ROWS) for r0 in range(0, n1, _TAIL_ROWS)]
                  if kind == "full" else [...])
    for rows in row_blocks:
        e, t = eps[rows], np.square(g2_raw[rows])
        np.subtract(e, t, out=e)
        np.maximum(e, 0.0, out=e)
        e /= n
        np.sqrt(e, out=e)
        with np.errstate(divide="ignore", invalid="ignore"):
            e /= _product(kind, i1_mean[rows], i2_mean, out=t)  # t is spent: <I1><I2> in its place
        e[np.isnan(e)] = np.inf  # no bound where a marginal is 0 (0/0), as for x/0

    return CorrelationMap(
        kind=kind,
        x2=kernel.grid.coords()[kernel.columns2],
        g2_raw=g2_raw,
        i1_mean=i1_mean if kind != "bucket" else float(i1_mean),
        i2_mean=i2_mean,
        n_accumulated=n,
        eps=eps,
    )


def g2_analytic(modes: ModeSet, bucket: bool = True, *, diagonal: bool = False) -> CorrelationMap:
    """Exact mode-sum G2 over the columns the kernel holds.

    With rho_i = sum_q |g_i|^2 (|g_i|^2 squared in place, one arm at a
    time) the background is rho1 * rho2 and the interference term is
    term2 = |sum_q g1* g2|^2.  The bucket integrates both over every arm-1
    column held (so those must cover arm 1's output, as detector_kernel's
    do); the diagonal pairs column k of g1 with column k of g2, so both arms
    must hold the same columns.  The bucket's term2
    forms K = g1^H g2 one block of _ANALYTIC_CHUNK arm-1 by _CHUNK_COLS arm-2
    columns at a time, so it holds at most 24 * 256 * 1024 bytes of K and
    |K|^2 (6 MB) whatever the scan window; column slices of 1024 keep the
    GEMM's bits.
    """
    if len(modes) == 0:
        raise ValueError("mode set is empty")
    kind = _kind(bucket, diagonal)
    dx = modes.grid.dx
    rho1 = _abs2(modes.g1).sum(axis=0)  # |g1|^2 freed before |g2|^2 forms
    rho2 = _abs2(modes.g2).sum(axis=0)

    if kind == "bucket":
        i1_mean: np.ndarray | float = float(rho1.sum() * dx)
        term2 = np.zeros(len(modes.columns2))
        for c0 in range(0, len(modes.columns1), _ANALYTIC_CHUNK):
            g1_h = modes.g1[:, c0 : c0 + _ANALYTIC_CHUNK].conj().T
            for k0 in range(0, len(modes.columns2), _CHUNK_COLS):
                cols = slice(k0, k0 + _CHUNK_COLS)
                # K = g1^H g2 is a temporary, not held while the next chunk's forms
                term2[cols] += _abs2(g1_h @ modes.g2[:, cols]).sum(axis=0)
        term2 *= dx
    elif kind == "diagonal":
        if not np.array_equal(modes.columns1, modes.columns2):
            raise ValueError("a diagonal map needs both arms held at the same columns")
        i1_mean = rho1
        term2 = _abs2(np.einsum("mi,mi->i", modes.g1.conj(), modes.g2))
    else:
        i1_mean = rho1
        term2 = _abs2(modes.g1.conj().T @ modes.g2)

    g2_raw = _product(kind, i1_mean, rho2)
    g2_raw += term2
    return CorrelationMap(
        kind=kind,
        x2=modes.grid.coords()[modes.columns2],
        g2_raw=g2_raw,
        i1_mean=i1_mean,
        i2_mean=rho2,
        n_accumulated=0,
        term2=term2,
    )


def siegert_normalize(cmap: CorrelationMap) -> np.ndarray:
    """The map's g2 = <I1 I2> / (<I1><I2>) in g2_raw's shape, refused (ValueError)
    where it is not finite: a zero marginal, a NaN or an overflow.  Thermal light
    obeys 1 <= g2 <= 2 exactly on the analytic path (Cauchy-Schwarz on the mode sum)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g2 = cmap.g2_raw / cmap.marginal_product()
    if not np.all(np.isfinite(g2)):
        raise ValueError("g2 is not finite: a marginal intensity is zero or a field is not finite")
    return g2


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
