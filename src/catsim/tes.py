"""Transition-edge-sensor response model: pulse synthesis and photon-number
discrimination quality.

Traces are expressed in units of the single-photon pulse height. Absorbing n
photons produces a double-exponential pulse whose height h carries one
Gaussian energy-resolution jitter draw per pulse; white trace noise sits on
top. A trace is classified by its maximum minus the median of its pre-onset
samples, rounded to the nearest integer.

`confusion` estimates the classifier's confusion matrix by Monte Carlo. Each
true photon number's pulses are split into blocks of BLOCK_TRIALS, and block
k of row n draws from its own generator, seeded by
SeedSequence(seed, spawn_key=(n, k)). The blocks are dealt round-robin to one
thread per usable CPU (numpy releases the interpreter lock while it fills
arrays); their counts are integers summed per row, so the matrix depends only
on the arguments and not on the thread count. A block's fixed cost (its
generator, the decision pass and a median over a few rows) holds the
interpreter lock, so blocks are 10 000 pulses: at 1000 that cost, not the
noise, set the run time.

Noise is drawn only where it can change a result, by one bound: no noise
sample lies beyond r = K·noise_floor (K = PEAK_WINDOW_SIGMAS = 13). numpy's
ziggurat sampler cannot draw beyond K sigma. Its tail step returns
R + x with R = 3.6541528853610088 and x = -log1p(-u1)/R, and accepts only
if -2·log1p(-u2) > x^2; every uniform u is at most 1 - 2^-53, so
|z| < R + sqrt(2·53·ln 2) = 12.2258 (Marsaglia and Tsang, J. Stat. Softw.
5(8), 2000, for the method). For an exact normal, P(|z| > 13) = 1.2e-38 per
draw.

Whole pulses. The unit pulse shape s has its peak sample exactly 1.0, every
other sample in [0, 1], and its pre-onset samples exactly 0. So with every
|z| <= r the trace maximum lies in [h+ - r, h+ + r], where h+ = max(h, 0)
(for h <= 0 the baseline samples, not the pulse, set the maximum), and the
baseline median lies in [-r, r]: the classified height lies in
[h+ - 2r, h+ + 2r]. Each rounding step is monotone, so evaluating
floor(h+ - r - r + 0.5) and floor(h+ + r + r + 0.5) in the classifier's own
float operations brackets its class. Where the two ends, clipped to
0..n_max, agree, the pulse is decided: its class is recorded and no trace is
drawn. With noise_floor = 0 every pulse is decided.

Trace columns. The remaining, open, pulses of a block share one noise draw
over the columns that can hold their maximum. With h_min the smallest open
height, a column i with h_min·(1 - s_i) > 2r sits more than 2K noise sigmas
below the peak column, so it could only exceed the peak sample if a draw lay
beyond K sigma. Dropping those columns leaves every maximum unchanged. The
pre-onset columns are always kept for the baseline median, and h_min <= 0
keeps every column.

Streams. Each block draws its pulse heights (rows n >= 1) and then one
normal array of shape (open pulses, window columns), filled in chunks of at
most _TRACE_ROWS rows to bound a block's trace memory. numpy fills normals
in order, so the chunks hold exactly the rows of one draw. When every pulse
is open, as at a large noise_floor, that is exactly the draw of a classifier
that decides nothing; with noise_floor = 0 no noise is drawn at all. In
between, only the open pulses consume noise, so the matrix is a different
Monte Carlo sample of the same distribution.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
BLOCK_TRIALS = 10_000  # pulses per seeded block (see the module docstring)
PEAK_WINDOW_SIGMAS = 13  # K: no noise draw lies beyond K sigma (see the module docstring)
_TRACE_ROWS = 1000  # open pulses traced at once; bounds a block's trace memory


def _integer(value, name: str) -> int:
    """value as an int; DomainError for a bool or anything that is not an integer."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TesParams:
    """Detector figures of merit and trace digitization settings."""

    photon_energy_ev: float = 0.8
    energy_resolution_ev: float = 0.176
    decay_tau_ns: float = 107.0
    rise_tau_ns: float = 15.0
    rep_period_ns: float = 200.0
    samples_per_trace: int = 400
    noise_floor: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                _integer(value, f.name)
            elif f.type == "float" and not (
                isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                raise DomainError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("photon_energy_ev", "energy_resolution_ev", "decay_tau_ns",
                     "rep_period_ns"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if not 0 <= self.rise_tau_ns < self.decay_tau_ns:
            raise DomainError(
                "rise_tau_ns must be >= 0 (0 means an instantaneous rise) and below decay_tau_ns"
            )
        if self.samples_per_trace < 8:
            raise DomainError("samples_per_trace must be >= 8")
        if self.noise_floor < 0:
            raise DomainError("noise_floor must be >= 0")
        if self.energy_resolution_ev >= self.photon_energy_ev:
            raise DomainError("energy resolution must be below the single-photon energy")

    @property
    def sigma_ev(self) -> float:
        """Gaussian sigma of the energy jitter; energy_resolution_ev is its FWHM."""
        return self.energy_resolution_ev / FWHM_TO_SIGMA

    @property
    def dt_ns(self) -> float:
        return self.rep_period_ns / self.samples_per_trace

    @property
    def onset_index(self) -> int:
        return self.samples_per_trace // 8

    def pulse_shape(self) -> np.ndarray:
        """Unit-height pulse sampled over one repetition period."""
        t = (np.arange(self.samples_per_trace) - self.onset_index) * self.dt_ns
        shape = np.zeros(self.samples_per_trace)
        after = t >= 0
        if self.rise_tau_ns == 0.0:
            shape[after] = np.exp(-t[after] / self.decay_tau_ns)
        else:
            raw = np.exp(-t[after] / self.decay_tau_ns) - np.exp(-t[after] / self.rise_tau_ns)
            shape[after] = raw / raw.max()
        return shape


def _heights_from_traces(traces: np.ndarray, params: TesParams) -> np.ndarray:
    """Classified height of each trace row: its maximum minus the median of
    its pre-onset samples, which removes the residual decay of a preceding
    pulse."""
    baseline = np.median(traces[:, : params.onset_index], axis=1)
    return traces.max(axis=1) - baseline


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Row-stochastic matrix: rows are true photon numbers 0..n_max, columns assignments."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"confusion matrix must be square, got shape {m.shape}")
        sums = m.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise DomainError(f"rows must sum to 1, got {sums}")
        object.__setattr__(self, "matrix", m)

    @property
    def n_max(self) -> int:
        return len(self.matrix) - 1

    @property
    def off_diagonal_mass(self) -> float:
        m = self.matrix
        return float(m.sum() - np.trace(m)) / len(m)


def adjacent_confusion_estimate(params: TesParams) -> float:
    """Analytic Gaussian-overlap rate for one half-integer boundary:
    erfc(E / (2·sqrt(2)·sigma)) / 2."""
    return math.erfc(params.photon_energy_ev / (2.0 * math.sqrt(2.0) * params.sigma_ev)) / 2.0


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _peak_window(params: TesParams, h_min: float, shape: np.ndarray) -> np.ndarray:
    """Sorted trace columns that can hold the maximum of a pulse of height >= h_min,
    plus the pre-onset columns; every column when h_min <= 0. `shape` is
    params.pulse_shape()."""
    if h_min <= 0:
        return np.arange(shape.size)
    keep = h_min * (1.0 - shape) <= 2 * PEAK_WINDOW_SIGMAS * params.noise_floor
    keep[: params.onset_index] = True
    return np.flatnonzero(keep)


def _classes(heights: np.ndarray, n_max: int) -> np.ndarray:
    """Nearest-integer classes of classified heights, clipped to 0..n_max (as floats)."""
    return np.clip(np.floor(heights + 0.5), 0, n_max)


def _decide(params: TesParams, heights: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Class of each pulse of true height h under any noise within K sigma, and
    the mask of open pulses, whose class that noise can change.

    The two ends h+ - 2r and h+ + 2r (r = K·noise_floor) are evaluated in the
    order of the classifier's own float operations, so the bracket holds
    after rounding too (see the module docstring).
    """
    reach = PEAK_WINDOW_SIGMAS * params.noise_floor
    top = np.maximum(heights, 0.0)
    est = _classes(top - reach - reach, n_max)
    return est, est != _classes(top + reach + reach, n_max)


def _block_counts(params: TesParams, shape: np.ndarray, n_max: int, n: int, k: int,
                  size: int, entropy: int) -> np.ndarray:
    """Assignment counts of block k of true photon number n, on its own stream;
    only the open pulses draw noise, on their peak window, _TRACE_ROWS at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(n, k)))
    sigma_rel = params.sigma_ev / params.photon_energy_ev
    heights = np.zeros(size) if n == 0 else n + rng.normal(0.0, sigma_rel, size)
    est, is_open = _decide(params, heights, n_max)
    if is_open.any():
        open_heights = heights[is_open]
        window = shape[_peak_window(params, open_heights.min(), shape)]
        open_est = np.empty(open_heights.size)
        for start in range(0, open_heights.size, _TRACE_ROWS):
            chunk = slice(start, start + _TRACE_ROWS)
            traces = open_heights[chunk, None] * window
            traces += rng.normal(0.0, params.noise_floor, traces.shape)
            open_est[chunk] = _classes(_heights_from_traces(traces, params), n_max)
        est[is_open] = open_est
    return np.bincount(est.astype(int), minlength=n_max + 1)


def confusion(params: TesParams, n_max: int, trials: int, seed: int = 0) -> ConfusionMatrix:
    """Monte Carlo confusion matrix over `trials` pulses split evenly across
    true photon numbers 0..n_max (rounded up to a whole number per row).

    Each row runs in blocks of BLOCK_TRIALS pulses on seeded per-block
    streams. A pulse whose class noise within K sigma cannot change (its
    height h+ = max(h, 0) rounds to the same class at h+ - 2r and h+ + 2r,
    r = K·noise_floor) is classified from its height alone. The rest draw
    noise only in their peak window. With noise_floor = 0 no noise is drawn;
    when no pulse is decided, the draws are those of the full-trace
    estimator. The result is the same for any number of threads (see the
    module docstring).
    """
    n_max = _integer(n_max, "n_max")
    trials = _integer(trials, "trials")
    seed = _integer(seed, "seed")
    if trials < 1000:
        raise DomainError("trials must be >= 1000 for a meaningful estimate")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    per_row = -(-trials // (n_max + 1))  # ceil split
    entropy = np.random.SeedSequence(seed).entropy
    shape = params.pulse_shape()
    blocks = [
        (n, k, min(BLOCK_TRIALS, per_row - start))
        for n in range(n_max + 1)
        for k, start in enumerate(range(0, per_row, BLOCK_TRIALS))
    ]
    threads = _cpu_count()

    def stripe(first: int) -> np.ndarray:
        # one task per thread, not per block: a pending future costs about 2 kB
        part = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
        for n, k, size in blocks[first::threads]:
            part[n] += _block_counts(params, shape, n_max, n, k, size, entropy)
        return part

    with ThreadPoolExecutor(max_workers=threads) as pool:
        counts = sum(pool.map(stripe, range(threads)))
    return ConfusionMatrix(counts / per_row)
