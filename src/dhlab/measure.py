"""Monte-Carlo estimation of the moment-map pushforward of Liouville measure.

The sampler draws chart points uniformly from [0,1)^4 x [A,B] x [0,1),
weights each by the Liouville density (the verified top-power coefficient,
evaluated on whichever chart columns the polynomial reads, so nothing here
assumes the density depends on t alone) and bins by the moment-map value t.

Reproducibility contract
------------------------
The stream is Philox (counter-based) under one key, one counter range per
chart axis: axis ax of sample s is word s mod 4 of what numpy's Philox
draws from the 256-bit counter s div 4 + ax * 2**64 (numpy steps the
counter before encrypting it).  Only t and the axes the weight reads are
drawn, a word per sample each, so a chunk of samples [s0, s1) regenerates
exactly the draws of a single-shot run.  Chunk histograms are added in
chunk order, so the merged histogram is bit-identical across thread
counts.  Across chunk sizes it is equal to rounding, as chunk boundaries
regroup the float sums: at 200,000 samples and 30 bins, chunk sizes 999
to 2**15 differ from a single chunk by at most 7e-15 relative in the bin
sums and their squares.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import numpy as np
from numpy.random import Philox, SeedSequence

from .construction import DIM, T_AXIS, CutWindow, DegenerateWindowError
from .exterior import Poly
from .intpoly import integer, nearest_double, rational
from .logconcavity import DomainError

GENERATOR_NAME = "philox4x64-10(counter=s/4+axis*2^64)"


class EmptyMeasureError(DomainError):
    """Raised when a histogram carries no positive weight to normalize."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling plan: size, binning, window and the seed of the Philox key.

    ``chunk_size`` only affects scheduling granularity; the sample stream is
    indexed per sample, so estimates agree across chunk sizes to rounding.
    """

    sample_count: int
    bins: int
    window: CutWindow
    seed: int
    chunk_size: int = 1 << 16

    def __post_init__(self):
        for name in ("sample_count", "bins", "seed", "chunk_size"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if self.bins < 2:
            raise ValueError(f"need at least 2 bins, got {self.bins}")
        if self.sample_count < self.bins:
            raise ValueError(f"sample_count {self.sample_count} must be >= bins {self.bins}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Pushforward weights and their squares, summed in the bins of bin_edges."""

    bin_edges: np.ndarray
    weight_sums: np.ndarray
    weight_sq_sums: np.ndarray
    sample_count: int

    @property
    def bins(self) -> int:
        return len(self.weight_sums)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weight_sums))

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[-1] - self.bin_edges[0]) / self.bins

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return (np.array_equal(self.bin_edges, other.bin_edges)
                and np.array_equal(self.weight_sums, other.weight_sums)
                and np.array_equal(self.weight_sq_sums, other.weight_sq_sums)
                and self.sample_count == other.sample_count)


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Normalized per-bin density (integrates to 1 over the window) with
    standard errors from the per-bin weight variance."""

    bin_centers: np.ndarray
    density: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-bin agreement of an estimate with an exactly normalized analytic
    density; ``worst_bin`` is the bin of largest absolute deviation,
    ``reference`` the exact average of the normalized density over each bin,
    which the errors and z-scores measure against, and ``centre_values``
    the normalized density at the bin centres."""

    max_rel_error: float
    per_bin_z: np.ndarray
    worst_bin: int
    reference: np.ndarray
    centre_values: np.ndarray


def sample_pushforward(top_poly: Poly, cfg: SamplerConfig, threads: int = 1) -> Histogram:
    """Weighted uniform sampling of the moment-map pushforward.

    Deterministic for fixed (top_poly, cfg): see the module docstring for
    the stream-splitting rule.  Bins are half-open [edge, next_edge) with
    the last bin closed.  ``top_poly`` must have the chart's DIM variables.
    Refuses a window too narrow to bin, weights whose squares or bin sums
    overflow, and a negative weight: an unverified or degenerate construction.
    """
    if top_poly.nvars != DIM:
        raise ValueError(f"top_poly has {top_poly.nvars} variables; the chart has {DIM}")
    lo, hi = cfg.window.lo, cfg.window.hi
    scale = cfg.bins / (hi - lo)
    if not np.isfinite(scale):
        raise DomainError(f"window [{lo!r}, {hi!r}] is too narrow for {cfg.bins} float bins")
    starts = list(range(0, cfg.sample_count, cfg.chunk_size))
    key = SeedSequence(int(cfg.seed)).generate_state(2, np.uint64)
    axes = {T_AXIS, *(ax for exps in top_poly.terms for ax, e in enumerate(exps) if e)}

    def one_chunk(start: int):
        with np.errstate(over="ignore", invalid="ignore"):  # the merged sums are checked
            t, w = _chunk_points(top_poly, axes, cfg, key, start)
            idx = ((t - lo) * scale).astype(np.int64)
            np.clip(idx, 0, cfg.bins - 1, out=idx)
            ws = np.bincount(idx, weights=w, minlength=cfg.bins)
            w2 = np.bincount(idx, weights=w * w, minlength=cfg.bins)
        if np.any(w < 0):
            raise DegenerateWindowError(
                f"negative Liouville weight at t={t[int(np.argmin(w))]:.6g}; verify the "
                "construction and window before sampling")
        return ws, w2

    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    # a pool even for one thread: a worker's allocator reuses the chunk
    # temporaries, where the calling thread page-faults them in afresh
    with ThreadPoolExecutor(max_workers=min(threads, len(starts))) as pool:
        partials = list(pool.map(one_chunk, starts))

    # merge in ascending chunk order; normalize sums the bins and squares
    # each bin's sum, so those must be finite too
    sums = np.zeros(cfg.bins)
    sq = np.zeros(cfg.bins)
    with np.errstate(over="ignore", invalid="ignore"):
        for ws, w2 in partials:
            sums += ws
            sq += w2
        if not np.isfinite(np.r_[np.sum(sums), sq, sums * sums]).all():
            j = int(np.argmax([w2.max() for _, w2 in partials]))  # first NaN, else largest
            t, w = _chunk_points(top_poly, axes, cfg, key, starts[j])
            i = int(np.argmax(np.abs(w)))  # likewise among its samples
            raise DomainError(f"Liouville weight {w[i]:.6g} at t={t[i]:.6g}: the weights, "
                              "their squares or their bin sums overflow the float range")

    return Histogram(np.linspace(lo, hi, cfg.bins + 1), sums, sq, cfg.sample_count)


def normalize(h: Histogram) -> DensityEstimate:
    """Normalize a histogram so the density integrates to 1 over the window.

    Standard errors use the usual weighted-histogram estimator: the variance
    of each bin's weight sum is sum(w^2) - (sum w)^2 / N, scaled down by the
    total weight times the bin width.  A window whose bin centres, or whose
    total weight times bin width, overflow the float range is refused.
    """
    if not h.total_weight > 0:
        raise EmptyMeasureError("histogram has no positive weight")
    if h.sample_count <= 0:
        raise EmptyMeasureError("histogram has no samples")
    scale = h.total_weight * h.bin_width
    with np.errstate(over="ignore"):
        centers = 0.5 * (h.bin_edges[:-1] + h.bin_edges[1:])
    if not np.isfinite(np.r_[scale, centers]).all():
        lo, hi = float(h.bin_edges[0]), float(h.bin_edges[-1])
        raise DomainError(f"window [{lo!r}, {hi!r}] is too wide for float densities: its bin "
                          f"centres or the total weight {h.total_weight:.6g} times the bin "
                          "width overflow")
    density = h.weight_sums / scale
    var = np.maximum(h.weight_sq_sums - h.weight_sums ** 2 / h.sample_count, 0.0)
    stderr = np.sqrt(var) / scale
    return DensityEstimate(centers, density, stderr)


def compare(est: DensityEstimate, analytic: Poly, window: CutWindow) -> ComparisonReport:
    """Compare an estimate against an analytic density normalized exactly.

    A histogram bin estimates the density's average over the bin, so the
    reference is that average, integral over the bin / (width * mass), in
    rational arithmetic over the exact bin edges; the density at the bin
    centre would differ from it by O(width^2), a bias that more samples
    only resolve better.  Reported are the maximum relative error, per-bin
    z-scores, and the bin with the largest absolute deviation, all against
    the bin averages, and the density at the bin centres besides.
    """
    if analytic.nvars != 1:
        raise ValueError("analytic density must be univariate in the moment value")
    lo, hi = rational(window.lo), rational(window.hi)
    mass = analytic.integrate(lo, hi)
    if mass <= 0:
        raise ValueError("analytic density must have positive mass on the window")
    bins = len(est.bin_centers)
    edges = [lo + (hi - lo) * k / bins for k in range(bins + 1)]
    scale = bins / ((hi - lo) * mass)
    ref = np.array([nearest_double(analytic.integrate(a, b) * scale)
                    for a, b in zip(edges, edges[1:])])
    if np.any(ref <= 0):
        raise ValueError("analytic density must be strictly positive on the window")
    diff = est.density - ref
    max_rel = float(np.max(np.abs(diff) / ref))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0, 0.0, diff / est.stderr)
    centre_values = np.array([nearest_double(analytic.evaluate_exact((c,)) / mass)
                              for c in est.bin_centers])
    return ComparisonReport(max_rel, z, int(np.argmax(np.abs(diff))), ref, centre_values)


# ---------------------------------------------------------------------------
# sampling internals
# ---------------------------------------------------------------------------

def _chunk_points(top_poly: Poly, axes: set[int], cfg: SamplerConfig, key: np.ndarray,
                  start: int) -> tuple[np.ndarray, np.ndarray]:
    """The t column and the weights of the samples [start, start+chunk).

    Draws the streams of ``axes`` alone (every chart axis top_poly reads, and
    T_AXIS), a word per sample, each made a double by Generator.random's rule.
    """
    n, skip = min(cfg.chunk_size, cfg.sample_count - start), start % 4
    cols = {ax: (Philox(key=key, counter=(start >> 2) + (ax << 64)).random_raw(skip + n)[skip:]
                 >> 11) * 2.0 ** -53 for ax in axes}
    cols[T_AXIS] = cfg.window.lo + (cfg.window.hi - cfg.window.lo) * cols[T_AXIS]
    return cols[T_AXIS], _eval_on_points(top_poly, cols, n)


def _eval_on_points(p: Poly, cols: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Vectorized evaluation at n points given by their columns, summing terms in sorted order."""
    out = np.zeros(n)
    for exps, c in sorted(p.terms.items()):
        term = np.full(n, nearest_double(c))
        for ax, e in enumerate(exps):
            if e == 1:
                term *= cols[ax]
            elif e > 1:
                term *= cols[ax] ** e
        out += term
    return out
