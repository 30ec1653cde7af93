"""Maximum-likelihood reconstruction of a Fock-basis density matrix from
homodyne records, with stratified-bootstrap error bars.

The estimator maximizes LL(rho) = sum_j w_j ln Tr(Pi_j rho), where Pi_j is
the rank-1 projector onto the truncated quadrature eigenvector of record j.
It runs L-BFGS on a complex factor A with rho = A A^†/Tr(A A^†), so every
iterate is a state. A binned fit starts from A = I/sqrt(dim), the maximally
mixed state. A pointwise fit (one projector per record) starts from the
factor of a binned fit of the same records, with bins _PREFIT_BIN_WIDTH
wide: a binned iteration costs about a twelfth of a pointwise one and brings
the fit most of the way. If that pre-fit fails, or leaves a record with a
vanishing probability, the pointwise fit starts from I/sqrt(dim). With
R(rho) = sum_j w_j Pi_j / Tr(Pi_j rho) and N = sum_j w_j, the gradient of
-LL/N in A is -2 (R - N·I) A / (N·Tr(A A^†)). LL is concave in rho, so
g = lambda_max(R) - N bounds LL* - LL(rho) from above (Glancy, Knill and
Girard, NJP 14, 095017, 2012). The iteration stops once g is at most the
configured gap tolerance. No efficiency or loss compensation of any kind
is applied.

The kernel works in real arithmetic on the product basis of
catsim.phasespace: <n|q,theta> = psi_n(q)·u_n with u = e^{i n theta}
shared by every record of a phase, and psi_n·psi_m = sum_k A[k, n, m]·phi_k
with phi_k(q) = 2^{1/4}·psi_k(sqrt(2)·q), k = 0..2·cutoff. With U = diag(u),
M_theta = Re(U^† rho U) and Phi the real ((2·cutoff+1) x records) table of
phi_k(q_j) at a phase,
  p = (A·M_theta)^T Phi,
  R = sum_theta U (A^T·(Phi w/p)) U^†,
where A·M_theta contracts (n, m) and A^T·c sums over k. Each iteration
costs one (2·cutoff+1)-row GEMV per phase and direction, about 2(2d - 1)
flops per record and product for dim d = cutoff + 1, against 2d^2 for
the projectors themselves; the d x d work is one small GEMM over all
phases. The tables are built once per dataset; w is 1 per record, or the
bin count when records are histogrammed. A bootstrap replica reuses the
tables with each phase's w drawn from a multinomial of its n records with
probabilities w/n, the law of resampling those records with replacement.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BootstrapError,
    CatsimError,
    DomainError,
    IdentifiabilityWarning,
    NonConvergenceWarning,
    SingularLikelihoodError,
)
from .fock import DensityMatrix, HilbertConfig, _phase_factors, mean_photon
from .fock import quadrature_basis  # noqa: F401  (benchmarks/tracing.py patches this name)
from .phasespace import (
    _coefficients,
    _phase_table,
    _phi_table,
    _product_map,
    coherence_peak,
    origin_parity,
)
from .sampler import SHOT_NOISE_VARIANCE, HomodyneDataset

_PROB_FLOOR = 1e-290
_MONOTONE_TOL = 1e-9  # relative round-off allowance on the likelihood climb
_LBFGS_PAIRS = 10  # (s, y) pairs kept by the two-loop recursion
_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
_MAX_BACKTRACKS = 60  # halvings of the step before the line search gives up
_LL_RESOLUTION = 1e-12  # a gain below this fraction of |LL| may be round-off
# Bin width, in vacuum units, of the binned pre-fit that starts a pointwise
# fit: of 0.02, 0.05 and 0.1, 0.05 gave the fastest pointwise fits (BENCH_22.json).
_PREFIT_BIN_WIDTH = 0.05


@dataclass(frozen=True)
class MleConfig:
    """Reconstruction settings.

    bin_width = None keeps one projector per record; a positive width
    histograms records per phase and weights bin-center projectors by their
    counts, trading a little resolution for a large speedup. The iteration
    stops once the certified likelihood gap is at most gap_tolerance nats.
    A pointwise fit starts from a binned pre-fit of the same records, run
    with the same cutoff, max_iterations and gap_tolerance.
    """

    cutoff: int = 15
    max_iterations: int = 2000
    gap_tolerance: float = 1e-3
    bin_width: float | None = None

    def __post_init__(self):
        if self.cutoff < 1:
            raise DomainError("cutoff must be >= 1")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if not (0.0 < self.gap_tolerance < math.inf):
            raise DomainError("gap_tolerance must be positive and finite")
        if self.bin_width is not None and not (0.0 < self.bin_width < math.inf):
            raise DomainError("bin_width must be positive and finite, or None")


class MeanStd(NamedTuple):
    mean: float
    std: float


class MedianMax(NamedTuple):
    median: float
    max: int


@dataclass(frozen=True)
class BootstrapReport:
    """Mean and 1-sigma spread of reconstructed quantities over replicas,
    and how the successful replicas' MLE runs ended."""

    replicas: int
    successful: int
    diagonal_mean: np.ndarray
    diagonal_std: np.ndarray
    mean_photon: MeanStd
    origin_wigner: MeanStd
    peak_coherence: MeanStd
    iterations: MedianMax  # over the successful replicas
    unconverged: int  # replicas that stopped above the gap tolerance
    max_likelihood_gap: float

    def to_dict(self) -> dict:
        """Each field by name: arrays as lists, named pairs as objects."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            out[f.name] = value._asdict() if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class _PhaseTables:
    """Real measurement tables on the phi basis, one per distinct phase.

    <n|q_j,theta> = psi_n(q_j)·u_n with u = e^{i n theta}, so every record
    of one phase shares u, and p_j = b_theta · phi(q_j) with
    b_theta = A·vec(Re(U^† rho U)) (see catsim.phasespace). `amap` is A
    with (n, m) flattened, exactly zero unless k <= n + m and k = n + m
    (mod 2). `weights` and `index` run phase by phase, in the column order
    of `phi`. At 60k records and cutoff 15 the phi tables hold 14.2 MB.
    """

    phases: np.ndarray  # conj(u_n)·u_m, u = e^{i n theta}, shape (phases, dim, dim)
    amap: np.ndarray  # A[k, n·dim + m], shape (2·cutoff + 1, dim^2)
    phi: list[np.ndarray]  # real phi_k(q_j), shape (2·cutoff + 1, rows), per phase
    weights: np.ndarray  # records counted per column: 1 per record, or per bin
    index: np.ndarray  # dataset record index per column, or the bin number
    unit: str  # what `index` counts, for error messages

    @cached_property
    def columns(self) -> list[slice]:
        """Each phase's columns of `weights` and `index`."""
        ends = np.cumsum([phi.shape[1] for phi in self.phi])
        return [slice(end - phi.shape[1], end) for phi, end in zip(self.phi, ends)]

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """p = (A·Re(U^† rho U))^T Phi: one small GEMM, then one GEMV per phase."""
        b = _coefficients(rho, self.phases)
        return np.concatenate([bk @ phi for bk, phi in zip(b, self.phi)])

    def r_operator(self, p: np.ndarray) -> np.ndarray:
        """R = sum_theta conj(phases_theta) ∘ (A^T·Phi_theta(w/p)): one GEMV
        per phase, then one small GEMM and one broadcast product."""
        c = self.weights / p
        moments = np.stack([phi @ c[cols] for phi, cols in zip(self.phi, self.columns)])
        g = (moments @ self.amap).reshape(self.phases.shape)
        return np.einsum("tnm,tnm->nm", self.phases, g).conj()

    def log_likelihood(self, rho: np.ndarray, when: str) -> tuple[np.ndarray, float]:
        """Probabilities and sum_j w_j ln p_j; a vanishing p_j is an error."""
        p = self.probabilities(rho)
        bad = np.sort(self.index[p <= _PROB_FLOOR])
        if bad.size:
            raise SingularLikelihoodError(
                f"{bad.size} {self.unit} have vanishing probability {when} "
                f"(first offenders: {bad[:10].tolist()})",
                record_indices=bad.tolist(),
            )
        return p, float(np.dot(self.weights, np.log(p)))

    def reweighted(self, weights: np.ndarray) -> _PhaseTables:
        """The same columns under other weights, zero-weight columns dropped.

        A dropped column enters neither the probability floor nor the
        likelihood, so the tables stand for exactly the records counted.
        """
        keep = weights > 0
        phi = [phi[:, keep[cols]] for phi, cols in zip(self.phi, self.columns)]
        return replace(self, phi=phi, weights=weights[keep], index=self.index[keep])


def _phase_tables(
    dataset: HomodyneDataset, cutoff: int, bin_width: float | None
) -> _PhaseTables:
    """Tables for the records, or for histogram bins of width bin_width.

    Records are first rescaled to vacuum variance 1/2. This is the input
    guard of every entry point: an empty dataset, or a shot-noise variance
    that is not a finite positive number, is a DomainError. Bin edges are
    integer multiples of bin_width, so a record falls in the same bin
    whichever other records share its phase.
    """
    if len(dataset) == 0:
        raise DomainError("dataset is empty")
    snv = float(dataset.meta.get("shot_noise_variance", SHOT_NOISE_VARIANCE))
    if not (np.isfinite(snv) and snv > 0):
        raise DomainError(f"shot_noise_variance must be finite and positive, got {snv}")
    theta_deg, q = dataset.theta_deg, dataset.q * float(np.sqrt(SHOT_NOISE_VARIANCE / snv))
    phases = np.unique(theta_deg)
    phi, weights, index = [], [], []
    for t in phases:
        idx = np.nonzero(theta_deg == t)[0]
        if bin_width is None:
            points, counts = q[idx], np.ones(idx.size)
            index.append(idx)
        else:
            # bin k holds k·w <= q < (k+1)·w, as those float products compare; a
            # record whose q / w overflows is binned at +-inf, and its table row is 0
            with np.errstate(over="ignore"):
                k = np.floor(q[idx] / bin_width)
            k -= k * bin_width > q[idx]
            k += (k + 1) * bin_width <= q[idx]
            occupied, counts = np.unique(k, return_counts=True)
            points = 0.5 * (occupied * bin_width + (occupied + 1) * bin_width)
        phi.append(_phi_table(cutoff, points))
        weights.append(counts)
    weights = np.concatenate(weights, dtype=float)
    factors = _phase_table(_phase_factors(np.deg2rad(phases), cutoff + 1))
    amap = _product_map(cutoff)
    if bin_width is None:
        return _PhaseTables(factors, amap, phi, weights, np.concatenate(index), "records")
    unit = "histogram bins (numbered phase by phase, ascending q)"
    return _PhaseTables(factors, amap, phi, weights, np.arange(weights.size), unit)


def _real(x: np.ndarray) -> np.ndarray:
    """A complex matrix as the real vector of its Re/Im pairs (a view), so
    that x @ y is Re<x, y>."""
    return x.view(np.float64).ravel()


def _direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """-H·grad by the L-BFGS two-loop recursion over the stored (s, y, 1/<s, y>)."""
    q = -grad
    alphas = []
    for s, y, inv in reversed(pairs):
        alpha = inv * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, inv), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - inv * (y @ q)) * s
    return q


def _state(a: np.ndarray) -> np.ndarray:
    """rho = A A^† / Tr(A A^†): Hermitian, unit-trace and PSD by construction."""
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _gradient(r_op: np.ndarray, a: np.ndarray, total: float) -> np.ndarray:
    """Gradient of f = -LL/N in A, as a real vector; it uses Tr(R rho) = N."""
    return _real(-2.0 * (r_op @ a - total * a) / (total * np.vdot(a, a).real))


def _gain(weights: np.ndarray, p: np.ndarray, trial_p: np.ndarray) -> float:
    """LL(trial) - LL as sum_j w_j ln(1 + (p'_j - p_j)/p_j), which keeps its
    precision where two sums of logs would cancel."""
    return float(np.dot(weights, np.log1p((trial_p - p) / p)))


def _line_search(
    tables: _PhaseTables,
    a: np.ndarray,
    p: np.ndarray,
    ll: float,
    direction: np.ndarray,
    slope: float,
) -> tuple | None:
    """Backtrack from step 1 until the Armijo rule holds on f = -LL/N.

    A trial with a vanishing probability counts as f = +inf. Near the
    maximum the gain falls below what a sum of logs resolves, while the
    gradient keeps its precision: a trial whose gain is within that
    resolution passes if the slope along the step passes the Armijo rule's
    derivative form, which is exact for a quadratic. Returns the accepted
    (A, p, LL, R), or None after _MAX_BACKTRACKS halvings.
    """
    total = float(tables.weights.sum())
    resolution = _LL_RESOLUTION * abs(ll)
    t = 1.0
    for _ in range(_MAX_BACKTRACKS):
        trial = a + t * direction.view(complex).reshape(a.shape)
        trial_p = tables.probabilities(_state(trial))
        if np.all(trial_p > _PROB_FLOOR):
            gain = _gain(tables.weights, p, trial_p)
            if gain > 0 and gain >= -_ARMIJO * t * slope * total:
                return trial, trial_p, ll + gain, tables.r_operator(trial_p)
            if gain >= -resolution:
                r_op = tables.r_operator(trial_p)
                if _gradient(r_op, trial, total) @ direction <= (1 - 2 * _ARMIJO) * -slope:
                    return trial, trial_p, ll + gain, r_op
        t *= 0.5
    return None


def _iterate(
    tables: _PhaseTables, cfg: MleConfig, start: np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """L-BFGS on the factor A of rho from `start`, by default I/sqrt(dim);
    returns the last A and the diagnostics. See `mle_reconstruct`."""
    diag_warnings: list[str] = []
    if len(tables.phases) < 2:
        msg = (
            "dataset contains a single phase: off-diagonal elements are not "
            "identifiable; the reconstruction is reliable only on the diagonal "
            "of the measured quadrature"
        )
        warnings.warn(msg, IdentifiabilityWarning)
        diag_warnings.append(msg)
    dim = cfg.cutoff + 1
    total = float(tables.weights.sum())
    if start is None:
        a, when = _mixed_factor(dim), "at the maximally mixed start"
    else:
        a, when = start, "at the start"
    p, ll = tables.log_likelihood(_state(a), when)
    r_op = tables.r_operator(p)
    history = [ll]
    pairs: deque = deque(maxlen=_LBFGS_PAIRS)
    grad = step = None
    monotone = True
    converged = False
    stop = f"hit the iteration cap ({cfg.max_iterations})"
    while True:
        gap = float(np.linalg.eigvalsh(r_op)[-1]) - total
        new_grad = _gradient(r_op, a, total)
        if grad is not None:
            y = new_grad - grad
            sy = step @ y
            if sy > 0:
                pairs.append((step, y, 1.0 / sy))
        grad = new_grad
        if gap <= cfg.gap_tolerance:
            converged = True
            break
        if len(history) >= cfg.max_iterations:
            break
        direction = _direction(grad, pairs)
        slope = float(grad @ direction)
        if not slope < 0:
            pairs.clear()
            direction = -grad
            slope = -float(grad @ grad)
        accepted = _line_search(tables, a, p, ll, direction, slope)
        if accepted is None:
            stop = f"the line search could not raise the likelihood at iteration {len(history)}"
            break
        new_a, p, new_ll, r_op = accepted
        if ll - new_ll > _MONOTONE_TOL * max(1.0, abs(ll)):
            monotone = False
        step, a, ll = _real(new_a - a), new_a, new_ll
        history.append(ll)
    if not converged:
        msg = f"{stop} with the likelihood gap at {gap:.3g} > {cfg.gap_tolerance:g} nats"
        warnings.warn(msg, NonConvergenceWarning)
        diag_warnings.append(msg)
    diagnostics = {
        "iterations": len(history),
        "final_log_likelihood": ll,
        "likelihood_gap": gap,
        "converged": converged,
        "monotone": monotone,
        "log_likelihood_history": history,
        "warnings": diag_warnings,
    }
    return a, diagnostics


def _mixed_factor(dim: int) -> np.ndarray:
    """A = I/sqrt(dim), the factor of the maximally mixed state."""
    return np.eye(dim, dtype=complex) / np.sqrt(dim)


def _density(a: np.ndarray) -> DensityMatrix:
    """The state A A^†/Tr(A A^†) of a factor."""
    return DensityMatrix(_state(a), HilbertConfig(a.shape[0] - 1))


def _prefit(
    dataset: HomodyneDataset, tables: _PhaseTables, cfg: MleConfig
) -> tuple[np.ndarray | None, int]:
    """The factor A of a binned fit of the same records, and its iteration
    count; (None, 0) if that fit fails or leaves a record of `tables` with a
    vanishing probability. The binned fit's own warnings are dropped: the
    pointwise fit gives its own."""
    try:
        binned = _phase_tables(dataset, cfg.cutoff, _PREFIT_BIN_WIDTH)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IdentifiabilityWarning)
            warnings.simplefilter("ignore", NonConvergenceWarning)
            a, diag = _iterate(binned, cfg)
    except (CatsimError, np.linalg.LinAlgError):
        return None, 0
    if np.any(tables.probabilities(_state(a)) <= _PROB_FLOOR):
        return None, 0
    return a, diag["iterations"]


def mle_reconstruct(
    dataset: HomodyneDataset, cfg: MleConfig
) -> tuple[DensityMatrix, dict]:
    """Maximize the likelihood until its certified gap is at most cfg.gap_tolerance.

    Returns the reconstructed state and a diagnostics dict with the iteration
    count, the final log-likelihood and its gap bound, the convergence flag,
    the full log-likelihood history (one entry per accepted iterate, the
    start included) and any warnings. These describe this fit's own
    iteration; `prefit_iterations` counts the iterations of the binned fit
    that started a pointwise one, and is 0 when the fit started from the
    maximally mixed state. The state is A A^†/Tr(A A^†), so it is
    Hermitian, unit-trace and positive semidefinite at every iterate.
    """
    tables = _phase_tables(dataset, cfg.cutoff, cfg.bin_width)
    start, prefit_iterations = None, 0
    if cfg.bin_width is None:
        # a record that vanishes at the mixed state is an error, whatever the pre-fit does
        tables.log_likelihood(_state(_mixed_factor(cfg.cutoff + 1)), "at the maximally mixed start")
        start, prefit_iterations = _prefit(dataset, tables, cfg)
    a, diagnostics = _iterate(tables, cfg, start)
    diagnostics["prefit_iterations"] = prefit_iterations
    return _density(a), diagnostics


def _replica_quantities(rho: DensityMatrix) -> dict:
    return {
        "diagonal": rho.diagonal,
        "mean_photon": mean_photon(rho),
        "origin_wigner": origin_parity(rho),
        "peak_coherence": coherence_peak(rho).off_diagonal_value,
    }


def bootstrap(
    dataset: HomodyneDataset, cfg: MleConfig, replicas: int = 1000, seed: int = 0
) -> BootstrapReport:
    """Rerun the MLE on stratified bootstrap replicas of the records.

    The tables are built once. Per phase, a replica's weights are one
    multinomial draw of the phase's n records over its columns with
    probabilities w/n, which in law resamples its records with replacement
    (Efron and Tibshirani, An Introduction to the Bootstrap, 1993). Replicas
    run in turn, each from its own seed, so the report depends only on
    `seed`. A replica that fails with a CatsimError or LinAlgError is
    counted and skipped; at least 90% must succeed.
    """
    if replicas < 2:
        raise DomainError("replicas must be >= 2")
    tables = _phase_tables(dataset, cfg.cutoff, cfg.bin_width)
    draws = [(int(w.sum()), w / w.sum()) for w in (tables.weights[c] for c in tables.columns)]
    results: list[dict] = []
    runs: list[dict] = []
    failures: list[tuple[str, str]] = []
    for i in range(replicas):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(i,))
        rng = np.random.default_rng(int(ss.generate_state(1)[0]))
        weights = np.concatenate([rng.multinomial(n, p) for n, p in draws]).astype(float)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonConvergenceWarning)
                a, run = _iterate(tables.reweighted(weights), cfg)
            results.append(_replica_quantities(_density(a)))
            runs.append(run)
        except (CatsimError, np.linalg.LinAlgError) as exc:
            failures.append((type(exc).__name__, str(exc)))
    if len(results) < 0.9 * replicas:
        by_type = Counter(name for name, _ in failures)
        raise BootstrapError(
            f"only {len(results)}/{replicas} replicas succeeded; failures by type: "
            f"{dict(by_type)}; first failure: {': '.join(failures[0])}"
        )
    diagonals = np.stack([r["diagonal"] for r in results])
    scalars = {
        key: np.array([r[key] for r in results])
        for key in ("mean_photon", "origin_wigner", "peak_coherence")
    }

    def stat(a: np.ndarray) -> MeanStd:
        return MeanStd(float(np.mean(a)), float(np.std(a, ddof=1)))

    iterations = [run["iterations"] for run in runs]
    return BootstrapReport(
        replicas=replicas,
        successful=len(results),
        diagonal_mean=np.mean(diagonals, axis=0),
        diagonal_std=np.std(diagonals, axis=0, ddof=1),
        mean_photon=stat(scalars["mean_photon"]),
        origin_wigner=stat(scalars["origin_wigner"]),
        peak_coherence=stat(scalars["peak_coherence"]),
        iterations=MedianMax(float(np.median(iterations)), max(iterations)),
        unconverged=sum(not run["converged"] for run in runs),
        max_likelihood_gap=max(run["likelihood_gap"] for run in runs),
    )
