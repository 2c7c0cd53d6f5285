"""Second-order intensity correlation estimators.

Two interchangeable engines compute <I1 I2>:

* accumulate_mc    - ensemble average over speckle realizations, drawn by
                     threads in blocks ahead of the calling thread, which
                     draws too when the next block is not ready and
                     reduces them in index order, their columns dealt to
                     helper threads: bit-identical for any worker count;
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

A matrix product changes bits with the BLAS thread count (measured on a
long inner dimension: the range factor's, the mode sum's, and the full MC
map's I1^T I2 over a block's realizations), and OpenBLAS threads by the
host's cores.  Both engines therefore run with NumPy's bundled OpenBLAS held
at one thread (_one_blas_thread) for the whole call.  The MC reduction and
the analytic bucket's interference term deal their arm-2 column products to
up to two threads of their own instead (source.dealer, the kernel build's
fan-out too), each product one slice of a fixed _CHUNK_COLS = 512
columns.  The width is a constant, not read from the host, because
OpenBLAS rounds a product's last N mod 4 (complex) or N mod 8 (real, past
some N) columns apart from the same columns inside a wider product.  So (seed, config) fix every output bit on every host with
that BLAS; where no such handle is found (an MKL, Accelerate or system
BLAS), the hold does nothing and the bits are fixed on one host only.

The observable's rules live here alone: the bucket's columns, refused when
its mask is opaque (detector_kernel), and normalization, refused where g2 is
not finite (siegert_normalize); both engines return raw maps as computed.
"""

from __future__ import annotations

import ctypes
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
from numpy.random import Generator, Philox

from .core import TransmissionMask
from .optics import ArmPath
from .source import (
    EnsembleConfig,
    ModeSet,
    dealer,
    mode_decomposition,
    sample_source_block,
    usable_cpus,
)

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
_CHUNK_COLS = 512  # columns per product slice: an MC block's reduction, the analytic bucket
_RHO_COLS = 64  # widest column block of |g|^2 in g2_analytic's rho: 768 KB at m = 1500
_FACTOR_TOL = 1e-12  # the range factor's bound on ||G^H G - F^H F||_F / ||G||_F^2
_FACTOR_WIDTH = 32  # the range finder's first basis width, doubled until the bound holds
_SKETCH_KEY = 0  # Philox key of the range finder's test matrix: fixed, so (seed, config) fix bits
_TAIL_ROWS = 32  # full-map rows per block of the MC tail's eps: its temporaries are this wide


@cache
def _blas_threads():
    """(get, set) of the thread count of NumPy's bundled OpenBLAS, found
    through the symbols its multiarray module links, or None (another BLAS)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Hold the BLAS at one thread, and restore its previous count on exit;
    a no-op where _blas_threads finds no handle.  A product's bits then
    depend on its operands alone, and no idle OpenBLAS worker is left
    spinning on a core after it (one spins for about 0.15 s after a
    threaded GEMM).  The count is process-wide, so the hold is entered from
    the calling thread only, around every call that starts a thread that
    calls BLAS (the reductions' source.dealer helpers); MC draw threads and
    the kernel build's helpers never call BLAS."""
    handle = _blas_threads()
    if handle is None:
        yield
        return
    get, set_ = handle
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


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


def _column_power(g: np.ndarray) -> np.ndarray:
    """sum_q |g[q, k]|^2 for each column k of g, with the bits of
    _abs2(g).sum(axis=0) but |g|^2 formed in ceil(N / _RHO_COLS) column
    blocks of near-equal width, 8 * m * _RHO_COLS bytes at most.  A block is
    one column wide only where g is: NumPy sums a lone column pairwise, as it
    does every column of an F-ordered side, while a C-ordered side's columns
    are summed row by row."""
    n = g.shape[1]
    out = np.empty(n)
    blocks = -(-n // _RHO_COLS)
    for j in range(blocks):
        cols = slice(j * n // blocks, (j + 1) * n // blocks)
        out[cols] = _abs2(g[:, cols]).sum(axis=0)
    return out


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


@_one_blas_thread()
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
    conjugated copy would have, so the GEMM's bits do not change).  It runs
    with the BLAS held at one thread (_one_blas_thread): its norms, sketch,
    QR and projection have inner dimensions of m or more, so the fixed
    sketch key and (seed, config) fix its bits on every host with NumPy's
    bundled OpenBLAS.
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


def _block_sums(kernel, kind, c, dx, sums, selections, deal):
    """Add (sum I1 I2, sum (I1 I2)^2, sum I1, sum I2) over the realizations
    whose source amplitudes are the rows of c into sums, in place; dx weighs
    the bucket's sum over x1.  Arm 2's columns are walked in _CHUNK_COLS-wide
    slices, dealt in strides over the T threads of deal (a source.dealer's),
    and arm 1's with them (diagonal); the bucket's arm-1 intensities, in
    slices of the same width, and a full map's whole arm-1 intensities,
    which both its GEMMs read, are formed first on the calling thread.  So
    no field or intensity in flight is wider than B x W across the T
    threads, W = min(max(n1, n2), T * _CHUNK_COLS), but a full map's arm-1
    intensities.  Each column's sums are written by one thread, by the same
    products and elementwise steps whatever T, so no bit depends on it.  A side whose selection (_selection) is not None is gathered
    from |c|^2, formed once per block, C-ordered (np.take) so that its sums
    run in the GEMM path's order."""
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
    I1 = None  # the diagonal's arm-1 intensities are formed slice by slice
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

    def reduce(starts):
        for c0 in starts:
            cols = slice(c0, c0 + _CHUNK_COLS)
            i1 = I1
            if kind == "diagonal":
                i1 = intensities(g1, sel1, cols)
                s_i1[cols] += i1.sum(axis=0)
            I2 = intensities(g2, sel2, cols)
            s_i2[cols] += I2.sum(axis=0)
            if kind == "full":
                s_p[:, cols] += I1.T @ I2
                I2 *= I2
                s_p2[:, cols] += I1_sq.T @ I2
            else:
                # P = I1 I2, then P^2, in I2's buffer: the broadcast form's bits with no
                # temporary (a gemv here ran fig4's 2-worker bucket about 10 % slower)
                I2 *= i1
                s_p[cols] += I2.sum(axis=0)
                I2 *= I2
                s_p2[cols] += I2.sum(axis=0)
            del I2  # not held while the next slice's fields form

    deal(reduce, range(0, g2.shape[1], _CHUNK_COLS))


def _in_order(pools, fn, items):
    """fn(*args) for each args in items, yielded in order.  Calls are sent
    to the pools round-robin in submission order until len(pools) + 1 sent
    calls are not yet yielded, so even one pool runs ahead of the caller.
    When the caller asks for the next result and it is not ready, the
    calling thread runs the next call not yet sent itself, and asks again,
    while fewer than len(pools) + 2 calls are alive: sent or run and not yet
    done with, the one the caller works on included (the generator runs only
    between the caller's turns).  A slow call holds back the ones after it."""
    items, pending = iter(items), deque()  # (future, run by a pool), in call order
    turn, in_pools, limit = 0, 0, len(pools) + 2
    while True:
        while in_pools <= len(pools) and len(pending) < limit:
            args = next(items, None)
            if args is None:
                break
            pending.append((pools[turn % len(pools)].submit(fn, *args), True))
            turn, in_pools = turn + 1, in_pools + 1
        if not pending:
            return
        while not pending[0][0].done() and len(pending) < limit:
            args = next(items, None)
            if args is None:
                break
            pending.append((_ready(fn(*args)), False))
        in_pools -= pending[0][1]
        yield pending.popleft()[0].result()  # no reference kept while the caller works


def _ready(value) -> Future:
    """A future that already holds value: a call the calling thread ran."""
    future = Future()
    future.set_result(value)
    return future


@_one_blas_thread()
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
    accepts (32 for every `ghost run` MC kernel on paper.cfg; c06's defocus-0
    kernel needs 64), else m, drawn unfactored;
    Siegert's identity kernel pins all m rows (the finder's rank floor),
    forms no sketch and is gathered, not multiplied (below).  The analytic
    engine reads G itself.  The whole call runs with the BLAS held at one
    thread (_one_blas_thread), and the basis comes from a fixed-key sketch,
    so the bits depend on (seed, config) alone on every host with NumPy's
    bundled OpenBLAS (on one host only where _one_blas_thread finds no
    handle); but each call draws in its own basis, so two calls with one
    seed (two defocus planes, say) share no source fields.
    A draw is the w = len(kernel) coefficients of one block of block_size
    realizations (sample_source_block), a pure function of (seed, w, block).
    Blocks go to `workers` draw threads (one single-thread executor each, so
    a fast thread cannot take every block), round-robin in block order,
    until workers + 1 sent blocks are not yet reduced, so even one draw
    thread overlaps the reduction (_in_order).  When the calling thread is
    ready for block j and block j's draw has not finished, it draws the next
    block not yet sent itself, while fewer than workers + 2 blocks are
    alive: a draw-bound run (Siegert's) keeps it busy too.  Which thread
    draws a block changes no bit.  The calling thread reduces every block,
    in block-index order, into one set of zeroed running sums (_block_sums),
    in arm-2 column slices of 512 (_CHUNK_COLS).  Those slices are dealt
    round-robin over T = min(2, usable CPUs, slices) threads of one
    source.dealer held for the whole call: the calling thread alone at
    T = 1 (n2 fits one slice, or the process has one usable CPU), else two
    single-thread helpers, each writing only its own slices' columns, while
    the calling thread waits for both before the next block.  The slices
    are the same at any thread count, so the helpers change no bit.  The
    bucket's arm-1 intensities (512 columns at a time) and a full map's
    whole arm-1 intensities are formed by the calling thread first.  A full map's slice sums are matrix products, I1^T I2 and
    (I1^2)^T (I2^2) (BLAS gemm); the bucket's and the diagonal's are
    elementwise, in place.
    A hop-free side (_selection, read after the factor, whose sides are
    dense) is gathered from the block's |c|^2, not multiplied, in the same
    slices and order: on unit weights (identity arms, binary masks) with
    the GEMM's bits.
    Memory stays bounded by the kernel build's working memory (one reused
    batch of mode_decomposition's default 8 rows of n complex samples per
    build stride, plus a few n-sample rows; its docstring gives the bytes)
    and the kernel's 16 * m * (n1 + n2) bytes, then by the range factor's
    working memory before the first draw, then by the factored kernel, its
    selections, the running sums and at most `workers` + 2 blocks alive
    (sent or drawn, and not yet reduced): the one being reduced, with the
    reduction's working memory, and up to `workers` + 1 drawn or drawing (a
    slow draw holds back the sending of later ones); and last by the sums
    and one row block of the tail's temporaries.
    With B = block_size, m modes, n1 arm-1 columns, n2 = |x2|, S map
    entries (n1 * n2 for a full map, else n2) and
    W = min(max(n1, n2), T * 512) columns in flight across the T reduction
    threads (one slice on each; at most 1024 while source.MAX_THREADS = 2), the
    range factor takes at most
    16*l*(6*m + 2*(n1 + n2)) bytes beside G, l being the widest basis
    it tries: m x l arrays (the test matrix, the sketch G G^H Omega, QR's
    work and Q^H), l x (n1 + n2) ones (F, and Omega^H g, formed one arm at a
    time and conjugated in place, so there is no m x (n1 + n2) array) and
    the previous try's Q^H and F; its rank floor, first, takes at most
    40*max(n1, n2) + 8*m (a hop-free side's nonzeros and its rows' norms).
    A draw takes at most 16*w*B' bytes, B' being B rounded out to whole
    64-realization chunks (at most B + 126; the normals are drawn into the
    complex amplitudes themselves), and the block at most
    32*B*W + 16*(B + W) (the slices' fields and intensities beside the
    diagonal's arm-1 intensities or the bucket's B arm-1 sums), and for a
    full map also 24*B*n1 + 8*n1*W (its whole arm-1 intensities and their
    squares, and the slices' GEMM products), and where a side is a selection
    also 8*B*w (the block's |c|^2).  The selections hold at most
    16*(n1 + n2) bytes (a row index and a weight per column of a hop-free
    side) for the whole call, and the running sums 16*S + 8*(n1 + n2) bytes
    from the first draw on; the ratios are formed in their place, and eps
    in that of sum (I1 I2)^2, one row block at a time, so the tail adds only
    one block's g2_raw^2 (then <I1><I2>) and NaN mask, 9*R*n2 bytes:
    R = min(n1, 32) rows of a full map (_TAIL_ROWS), 1 of a bucket or a
    diagonal.  workers < 1 and block_size < 1 are refused (ValueError)
    before any build or draw; at most source.usable_cpus() draw threads run
    beside the calling thread and the reduction's helpers: more hold more
    draws, no faster.  The map is
    returned as computed; siegert_normalize refuses it where g2 is not
    finite.
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
    workers = min(workers, usable_cpus())
    with ExitStack() as stack:
        # one thread per executor, so block j is drawn on thread j mod workers
        pools = [stack.enter_context(ThreadPoolExecutor(max_workers=1)) for _ in range(workers)]
        deal = stack.enter_context(dealer(-(-n2 // _CHUNK_COLS)))
        for c in _in_order(pools, draw, blocks):
            _block_sums(kernel, kind, c, dx, sums, selections, deal)
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


@_one_blas_thread()
def g2_analytic(modes: ModeSet, bucket: bool = True, *, diagonal: bool = False) -> CorrelationMap:
    """Exact mode-sum G2 over the columns the kernel holds.

    With rho_i = sum_q |g_i|^2 (_column_power: |g_i|^2 squared in place, at
    most _RHO_COLS = 64 columns at a time, one arm after the other, with the
    bits of the whole side's sum) the background is rho1 * rho2 and the
    interference term is term2 = |sum_q g1* g2|^2.  The bucket integrates
    both over every arm-1 column held (so those must cover arm 1's output, as
    detector_kernel's do); the diagonal pairs column k of g1 with column k of
    g2, so both arms must hold the same columns.  The bucket's term2
    forms K = g1^H g2 one block of _ANALYTIC_CHUNK arm-1 by _CHUNK_COLS
    arm-2 columns at a time (256 x 512).  Each arm-1 block's slices are
    dealt round-robin by one source.dealer: on the calling thread alone, or,
    past one slice with two usable CPUs, on two helper threads while it
    waits, each slice adding into its own columns of term2 in arm-1 block
    order.  So it holds at most 24 * 256 * 512 bytes of K and |K|^2
    (3 MB) on each thread whatever the scan window, and the slices, and
    their bits, do not depend on the threads.  It runs with the
    BLAS held at one thread (_one_blas_thread), so the bucket's and the full
    map's products (inner dimension m) have the same bits on every host
    with NumPy's bundled OpenBLAS.
    """
    if len(modes) == 0:
        raise ValueError("mode set is empty")
    kind = _kind(bucket, diagonal)
    dx = modes.grid.dx
    rho1, rho2 = _column_power(modes.g1), _column_power(modes.g2)

    if kind == "bucket":
        i1_mean: np.ndarray | float = float(rho1.sum() * dx)
        n2 = len(modes.columns2)
        term2 = np.zeros(n2)

        def add_term(g1_h, starts):
            for k0 in starts:
                cols = slice(k0, k0 + _CHUNK_COLS)
                # K = g1^H g2 is a temporary, not held while the next slice's forms
                term2[cols] += _abs2(g1_h @ modes.g2[:, cols]).sum(axis=0)

        slices = range(0, n2, _CHUNK_COLS)
        with dealer(len(slices)) as deal:
            for c0 in range(0, len(modes.columns1), _ANALYTIC_CHUNK):
                g1_h = modes.g1[:, c0 : c0 + _ANALYTIC_CHUNK].conj().T
                deal(partial(add_term, g1_h), slices)
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
    obeys 1 <= g2 <= 2 exactly on the analytic path (Cauchy-Schwarz on the mode sum).
    g2 is formed in the buffer of <I1><I2>: a call holds it and its finiteness mask."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g2 = cmap.marginal_product()
        np.divide(cmap.g2_raw, g2, out=g2)
    if not np.all(np.isfinite(g2)):
        raise ValueError("g2 is not finite: a marginal intensity is zero or a field is not finite")
    return g2


def fluctuation_correlation(cmap: CorrelationMap) -> np.ndarray:
    """Background-free correlation <I1 I2> - <I1><I2>.

    Equals the interference term exactly on the analytic path; on the MC path
    it is the sample estimate of the same quantity (needs >= 2 realizations),
    formed in the buffer of <I1><I2>.
    """
    if cmap.term2 is not None:  # analytic: the interference term itself
        return cmap.term2.copy()
    if cmap.n_accumulated < 2:
        raise ValueError("fluctuation correlation needs at least 2 realizations")
    out = cmap.marginal_product()
    return np.subtract(cmap.g2_raw, out, out=out)
