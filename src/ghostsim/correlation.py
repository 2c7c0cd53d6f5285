"""Second-order intensity correlation estimators.

Two interchangeable engines compute <I1 I2>:

* accumulate_mc    - ensemble average over speckle realizations, accumulated
                     in fixed-size blocks merged in index order, so results
                     are bit-identical for any worker count;
* g2_analytic      - Gaussian-moment (mode-sum) evaluation, exact in the
                     discrete model, exposing the background and interference
                     terms separately.

Both engines read the arms through the source-mode Green's functions of
mode_decomposition, so they estimate the same quantity; the MC result
converges to the analytic one as 1/sqrt(n).  The MC engine keeps only the
columns it reads and forms each realization's fields as draws @ kernel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .optics import ArmPath, Mask
from .source import EnsembleConfig, ModeSet, mode_decomposition, sample_source_block

__all__ = [
    "CorrelationMap",
    "accumulate_mc",
    "g2_analytic",
    "siegert_normalize",
    "fluctuation_correlation",
]

_FULL_MAP_LIMIT = 1 << 24  # refuse full x1-by-x2 maps above this many entries


@dataclass(frozen=True)
class CorrelationMap:
    """Accumulated <I1 I2> with first-order marginals.

    kind is "bucket" (I1 spatially integrated, map over x2), "diagonal"
    (x1 = x2) or "full" (x1 by x2 matrix).  For the analytic engine
    n_accumulated is 0, eps is None and term1/term2 hold the background and
    interference parts; g2_raw == term1 + term2.
    """

    kind: str
    engine: str
    x2: np.ndarray
    x2_indices: np.ndarray
    x1: np.ndarray | None
    g2_raw: np.ndarray
    i1_mean: np.ndarray | float
    i2_mean: np.ndarray
    n_accumulated: int
    eps: np.ndarray | None = None
    term1: np.ndarray | None = None
    term2: np.ndarray | None = None
    degenerate: bool = False
    g2: np.ndarray | None = None

    def marginal_product(self) -> np.ndarray:
        """<I1><I2> with the shape of g2_raw."""
        if self.kind == "bucket":
            return self.i1_mean * self.i2_mean
        if self.kind == "diagonal":
            return np.asarray(self.i1_mean) * self.i2_mean
        return np.multiply.outer(np.asarray(self.i1_mean), self.i2_mean)


def _mc_block(config, kernel, kind, k0, k1):
    c = sample_source_block(config, k0, k1)
    I1 = np.abs(c @ kernel.g1) ** 2
    I2 = np.abs(c @ kernel.g2) ** 2
    if kind == "bucket":
        I1 = I1.sum(axis=1) * config.grid.dx
        P = I1[:, None] * I2
        return (
            P.sum(axis=0),
            (P**2).sum(axis=0),
            I1.sum(),
            I2.sum(axis=0),
        )
    if kind == "diagonal":
        P = I1 * I2
        return P.sum(axis=0), (P**2).sum(axis=0), I1.sum(axis=0), I2.sum(axis=0)
    P = np.einsum("bi,bj->ij", I1, I2)
    P2 = np.einsum("bi,bj->ij", I1**2, I2**2)
    return P, P2, I1.sum(axis=0), I2.sum(axis=0)


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
    strict: bool = True,
) -> CorrelationMap:
    """Monte Carlo <I1 I2> over config.n_realizations speckle realizations.

    bucket=True integrates I1 over arm 1's detection plane (bucket detector):
    over the support of arm 1's final Mask, where the field is exactly zero
    elsewhere, or over the whole grid if the arm does not end in a mask.
    Otherwise I1 stays position-resolved at x1_indices (diagonal=True pairs
    each x2 sample with the same x1 sample).
    Deterministic for fixed (seed, n_realizations) for any worker count.

    The arms are propagated once, as a Green's-function kernel restricted to
    the columns read (mode_decomposition); each realization's fields are
    then its m source amplitudes times that kernel.  Memory stays bounded by
    the kernel build's few block_size * n complex values, the kernel's
    m * (|arm-1 columns| + |x2|), and one block_size * (m + |arm-1 columns| +
    |x2|) block per worker, plus the per-block partial sums.
    """
    if bucket and diagonal:
        raise ValueError("bucket and diagonal modes are mutually exclusive")
    kind = "bucket" if bucket else ("diagonal" if diagonal else "full")
    grid = config.grid
    x2_idx = np.arange(grid.n) if x2_indices is None else np.asarray(x2_indices)
    x1_idx = None
    if kind == "full":
        x1_idx = x2_idx if x1_indices is None else np.asarray(x1_indices)
        if len(x1_idx) * len(x2_idx) > _FULL_MAP_LIMIT:
            raise ValueError(
                "full correlation map too large; restrict x1_indices/x2_indices"
            )

    if kind == "bucket":
        last = arm1.elements[-1] if len(arm1) else None
        cols1 = last.mask.support_indices() if isinstance(last, Mask) else None
    else:
        cols1 = x2_idx if kind == "diagonal" else x1_idx
    kernel = mode_decomposition(
        config, arm1, arm2, block_size, strict, columns1=cols1, columns2=x2_idx
    )

    n = config.n_realizations
    bounds = [(k0, min(k0 + block_size, n)) for k0 in range(0, n, block_size)]

    def job(b):
        return _mc_block(config, kernel, kind, b[0], b[1])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(job, bounds))
    else:
        partials = [job(b) for b in bounds]

    # merge in block-index order: bit-identical for any worker count
    s_p = partials[0][0].copy()
    s_p2 = partials[0][1].copy()
    s_i1 = np.copy(partials[0][2])
    s_i2 = partials[0][3].copy()
    for p, p2, i1, i2 in partials[1:]:
        s_p += p
        s_p2 += p2
        s_i1 += i1
        s_i2 += i2

    g2_raw = s_p / n
    i1_mean = s_i1 / n
    i2_mean = s_i2 / n
    if not (np.all(np.isfinite(g2_raw)) and np.all(np.isfinite(i2_mean))):
        raise FloatingPointError("non-finite accumulator")
    degenerate = bool(np.all(np.asarray(i1_mean) == 0) or np.all(i2_mean == 0))

    denom = i1_mean * i2_mean if kind != "full" else np.multiply.outer(i1_mean, i2_mean)
    var = np.maximum(s_p2 / n - g2_raw**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.where(denom > 0, np.sqrt(var / n) / np.where(denom > 0, denom, 1.0), np.inf)

    return CorrelationMap(
        kind=kind,
        engine="mc",
        x2=grid.coords()[x2_idx],
        x2_indices=x2_idx,
        x1=None if kind == "bucket" else grid.coords()[x2_idx if kind == "diagonal" else x1_idx],
        g2_raw=g2_raw,
        i1_mean=i1_mean if kind != "bucket" else float(i1_mean),
        i2_mean=i2_mean,
        n_accumulated=n,
        eps=eps,
        degenerate=degenerate,
    )


def g2_analytic(
    modes: ModeSet,
    bucket: bool = True,
    *,
    diagonal: bool = False,
    x1_indices: np.ndarray | None = None,
    x2_indices: np.ndarray | None = None,
    chunk: int = 256,
) -> CorrelationMap:
    """Exact mode-sum G2: background term plus interference term.

    term1 = sum_q |g1|^2 * sum_q' |g2|^2 and term2 = |sum_q g1* g2|^2,
    with the bucket mode integrating term1/term2 over x1.
    """
    if len(modes) == 0:
        raise ValueError("mode set is empty")
    if modes.restricted:
        raise ValueError("g2_analytic needs a mode set over all grid columns")
    if bucket and diagonal:
        raise ValueError("bucket and diagonal modes are mutually exclusive")
    kind = "bucket" if bucket else ("diagonal" if diagonal else "full")
    grid = modes.grid
    dx = grid.dx
    x2_idx = np.arange(grid.n) if x2_indices is None else np.asarray(x2_indices)

    rho1 = (np.abs(modes.g1) ** 2).sum(axis=0)
    G2s = modes.g2[:, x2_idx]
    rho2 = (np.abs(G2s) ** 2).sum(axis=0)

    if kind == "bucket":
        i1b = float(rho1.sum() * dx)
        support = np.flatnonzero(rho1 > 1e-12 * rho1.max()) if rho1.max() > 0 else np.array([], int)
        term2 = np.zeros(len(x2_idx))
        for c0 in range(0, len(support), chunk):
            rows = support[c0 : c0 + chunk]
            K = modes.g1[:, rows].conj().T @ G2s
            term2 += (np.abs(K) ** 2).sum(axis=0)
        term2 *= dx
        term1 = i1b * rho2
        i1_mean: np.ndarray | float = i1b
        x1 = None
    elif kind == "diagonal":
        G1s = modes.g1[:, x2_idx]
        term1 = rho1[x2_idx] * rho2
        term2 = np.abs(np.einsum("mi,mi->i", G1s.conj(), G2s)) ** 2
        i1_mean = rho1[x2_idx]
        x1 = grid.coords()[x2_idx]
    else:
        x1_idx = x2_idx if x1_indices is None else np.asarray(x1_indices)
        if len(x1_idx) * len(x2_idx) > _FULL_MAP_LIMIT:
            raise ValueError("full correlation map too large; restrict indices")
        G1s = modes.g1[:, x1_idx]
        term1 = np.multiply.outer(rho1[x1_idx], rho2)
        term2 = np.abs(G1s.conj().T @ G2s) ** 2
        i1_mean = rho1[x1_idx]
        x1 = grid.coords()[x1_idx]

    degenerate = bool(np.all(np.asarray(i1_mean) == 0) or np.all(rho2 == 0))
    return CorrelationMap(
        kind=kind,
        engine="analytic",
        x2=grid.coords()[x2_idx],
        x2_indices=x2_idx,
        x1=x1,
        g2_raw=term1 + term2,
        i1_mean=i1_mean,
        i2_mean=rho2,
        n_accumulated=0,
        term1=term1,
        term2=term2,
        degenerate=degenerate,
    )


def siegert_normalize(cmap: CorrelationMap) -> CorrelationMap:
    """Normalize: g2 = <I1 I2> / (<I1><I2>).  Thermal light obeys 1 <= g2 <= 2
    exactly on the analytic path (Cauchy-Schwarz on the mode sum)."""
    if cmap.degenerate:
        return replace(cmap, g2=None, degenerate=True)
    denom = cmap.marginal_product()
    if np.any(denom == 0):
        # zero marginal somewhere: normalize where possible, flag the map
        with np.errstate(divide="ignore", invalid="ignore"):
            g2 = np.where(denom > 0, cmap.g2_raw / np.where(denom > 0, denom, 1.0), np.nan)
        return replace(cmap, g2=g2, degenerate=True)
    return replace(cmap, g2=cmap.g2_raw / denom)


def fluctuation_correlation(cmap: CorrelationMap) -> np.ndarray:
    """Background-free correlation <I1 I2> - <I1><I2>.

    Equals the interference term exactly on the analytic path; on the MC path
    it is the sample estimate of the same quantity (needs >= 2 realizations).
    """
    if cmap.engine == "analytic":
        return cmap.term2.copy()
    if cmap.n_accumulated < 2:
        raise ValueError("fluctuation correlation needs at least 2 realizations")
    return cmap.g2_raw - cmap.marginal_product()
