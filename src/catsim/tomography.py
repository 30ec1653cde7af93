"""Maximum-likelihood reconstruction of a Fock-basis density matrix from
homodyne records, with stratified-bootstrap error bars.

The estimator is the iterative sandwich update rho <- N[R(rho)·rho·R(rho)]
with R(rho) = sum_j Pi_j / Tr(Pi_j rho), started from the maximally mixed
state. Pi_j is the rank-1 projector onto the truncated quadrature
eigenvector of record j. No efficiency or loss compensation of any kind is
applied.

The kernel works in real arithmetic, one phase at a time. The quadrature
eigenvector is <n|q,theta> = psi_n(q)·u_n with psi_n real and
u = e^{i n theta} shared by every record of a phase, so with U = diag(u)
and Psi the real (dim x records) table of psi_n(q_j) at that phase:
  p_j = psi_j^T · Re(U^† rho U) · psi_j,
  R   = sum_theta U · (Psi diag(w/p) Psi^T) · U^†,
each one real matrix product per phase. The tables are built once per
dataset; w is 1 per record, or the bin count when records are histogrammed.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BootstrapError,
    DomainError,
    IdentifiabilityWarning,
    NonConvergenceWarning,
    SingularLikelihoodError,
)
from .fock import (
    DensityMatrix,
    HilbertConfig,
    hermite_functions,
    mean_photon,
    quadrature_basis,
)
from .phasespace import coherence_peak, origin_parity
from .sampler import SHOT_NOISE_VARIANCE, HomodyneDataset

_PROB_FLOOR = 1e-290
_MONOTONE_TOL = 1e-9  # relative round-off allowance on the likelihood climb
_PSD_FIX_TOL = 1e-9


@dataclass(frozen=True)
class MleConfig:
    """Reconstruction settings.

    bin_width = None keeps one projector per record; a positive width
    histograms records per phase and weights bin-center projectors by their
    counts, trading a little resolution for a large speedup.
    """

    cutoff: int = 15
    max_iterations: int = 2000
    log_likelihood_tolerance: float = 1e-10
    bin_width: float | None = None

    def __post_init__(self):
        if self.cutoff < 1:
            raise DomainError("cutoff must be >= 1")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if self.log_likelihood_tolerance <= 0:
            raise DomainError("log_likelihood_tolerance must be > 0")
        if self.bin_width is not None and self.bin_width <= 0:
            raise DomainError("bin_width must be positive or None")


@dataclass(frozen=True)
class BootstrapReport:
    """Mean and 1-sigma spread of reconstructed quantities over replicas."""

    replicas: int
    successful: int
    diagonal_mean: np.ndarray
    diagonal_std: np.ndarray
    mean_photon: tuple[float, float]
    origin_wigner: tuple[float, float]
    peak_coherence: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "successful": self.successful,
            "diagonal_mean": self.diagonal_mean.tolist(),
            "diagonal_std": self.diagonal_std.tolist(),
            "mean_photon": {"mean": self.mean_photon[0], "std": self.mean_photon[1]},
            "origin_wigner": {"mean": self.origin_wigner[0], "std": self.origin_wigner[1]},
            "peak_coherence": {"mean": self.peak_coherence[0], "std": self.peak_coherence[1]},
        }


def povm_projector(theta_deg: float, q: float, cutoff: int) -> np.ndarray:
    """Rank-1 homodyne projector |q_theta><q_theta| truncated at the cutoff."""
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    v = quadrature_basis(cutoff, np.array([q]), np.deg2rad(theta_deg))[:, 0]  # <n|q_theta>
    return np.outer(v, v.conj())


def _record_scale(dataset: HomodyneDataset) -> float:
    """Rescale ingested data to the vacuum-variance-1/2 normalization."""
    snv = float(dataset.meta.get("shot_noise_variance", SHOT_NOISE_VARIANCE))
    if snv <= 0:
        raise DomainError(f"shot_noise_variance must be positive, got {snv}")
    return float(np.sqrt(SHOT_NOISE_VARIANCE / snv))


@dataclass(frozen=True)
class _PhaseTables:
    """Real measurement tables, one per distinct phase.

    <n|q_j,theta> = psi_n(q_j)·u_n with u = e^{i n theta}, so every record
    of one phase shares u and only the real psi depends on the record.
    `weights` and `index` run phase by phase, in the column order of `psi`.
    """

    u: list[np.ndarray]  # e^{i n theta}, shape (dim,), per phase
    psi: list[np.ndarray]  # real psi_n(q_j), shape (dim, rows), per phase
    weights: np.ndarray  # 1 per record, or histogram counts per bin
    index: np.ndarray  # dataset record index per column, or the bin number
    unit: str  # what `index` counts, for error messages

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """p_j = psi_j^T Re(U^† rho U) psi_j, one real GEMM per phase."""
        return np.concatenate([
            np.einsum("nj,nj->j", (u.conj()[:, None] * rho * u).real @ psi, psi)
            for u, psi in zip(self.u, self.psi)
        ])

    def r_operator(self, p: np.ndarray) -> np.ndarray:
        """R = sum_theta U (Psi diag(w/p) Psi^T) U^†, one real GEMM per phase."""
        c = self.weights / p
        r = np.zeros((self.u[0].size,) * 2, dtype=complex)
        start = 0
        for u, psi in zip(self.u, self.psi):
            stop = start + psi.shape[1]
            r += ((psi * c[start:stop]) @ psi.T) * np.outer(u, u.conj())
            start = stop
        return r

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


def _phase_tables(
    theta_deg: np.ndarray, q: np.ndarray, cutoff: int, bin_width: float | None
) -> _PhaseTables:
    """Tables for the records, or for histogram bins of width bin_width."""
    u, psi, weights, index = [], [], [], []
    for t in np.unique(theta_deg):
        u.append(np.exp(1j * np.arange(cutoff + 1) * np.deg2rad(t)))
        idx = np.nonzero(theta_deg == t)[0]
        if bin_width is None:
            points, counts = q[idx], np.ones(idx.size)
            index.append(idx)
        else:
            vals = q[idx]
            lo = np.floor(vals.min() / bin_width) - 1
            hi = np.ceil(vals.max() / bin_width) + 1
            edges = np.arange(lo, hi + 1) * bin_width
            hist, _ = np.histogram(vals, bins=edges)
            keep = hist > 0
            points = (0.5 * (edges[:-1] + edges[1:]))[keep]
            counts = hist[keep].astype(float)
        psi.append(hermite_functions(cutoff, points))
        weights.append(counts)
    weights = np.concatenate(weights)
    if bin_width is None:
        return _PhaseTables(u, psi, weights, np.concatenate(index), "records")
    return _PhaseTables(
        u, psi, weights, np.arange(weights.size),
        "histogram bins (numbered phase by phase, ascending q)",
    )


def log_likelihood(rho: DensityMatrix | np.ndarray, dataset: HomodyneDataset) -> float:
    """Sum over records of ln Tr(Pi_j rho); order-independent."""
    elements = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho)
    scale = _record_scale(dataset)
    tables = _phase_tables(dataset.theta_deg, dataset.q * scale, elements.shape[0] - 1, None)
    return tables.log_likelihood(elements, "under the state")[1]


def mle_reconstruct(
    dataset: HomodyneDataset, cfg: MleConfig
) -> tuple[DensityMatrix, dict]:
    """Iterate the sandwich update until the log-likelihood plateaus.

    Returns the reconstructed state and a diagnostics dict with the iteration
    count, convergence flag, full log-likelihood history, and any warnings.
    The state is re-hermitized and trace-renormalized every iteration;
    positivity is only enforced at the output, and only if round-off pushed
    an eigenvalue below tolerance.
    """
    if len(dataset) == 0:
        raise DomainError("dataset is empty")
    diag_warnings: list[str] = []
    if len(set(dataset.theta_deg.tolist())) < 2:
        msg = (
            "dataset contains a single phase: off-diagonal elements are not "
            "identifiable; the reconstruction is reliable only on the diagonal "
            "of the measured quadrature"
        )
        warnings.warn(msg, IdentifiabilityWarning)
        diag_warnings.append(msg)
    scale = _record_scale(dataset)
    tables = _phase_tables(dataset.theta_deg, dataset.q * scale, cfg.cutoff, cfg.bin_width)
    dim = cfg.cutoff + 1
    rho = np.eye(dim, dtype=complex) / dim
    history: list[float] = []
    monotone = True
    converged = False
    for _ in range(cfg.max_iterations):
        p, ll = tables.log_likelihood(rho, f"at iteration {len(history)}")
        if history:
            drop = history[-1] - ll
            if drop > _MONOTONE_TOL * max(1.0, abs(history[-1])):
                monotone = False
            if abs(ll - history[-1]) < cfg.log_likelihood_tolerance * max(1.0, abs(history[-1])):
                history.append(ll)
                converged = True
                break
        history.append(ll)
        r_op = tables.r_operator(p)
        rho = r_op @ rho @ r_op
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    if not converged:
        msg = f"hit the iteration cap ({cfg.max_iterations}) before the likelihood plateaued"
        warnings.warn(msg, NonConvergenceWarning)
        diag_warnings.append(msg)
    psd_fixed = False
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -_PSD_FIX_TOL:
        vals, vecs = np.linalg.eigh(rho)
        vals = np.clip(vals, 0.0, None)
        vals /= vals.sum()
        rho = (vecs * vals) @ vecs.conj().T
        psd_fixed = True
    final_ll = float(np.dot(tables.weights, np.log(tables.probabilities(rho))))
    diagnostics = {
        "iterations": len(history),
        "final_log_likelihood": final_ll,
        "converged": converged,
        "monotone": monotone,
        "log_likelihood_history": history,
        "psd_projection_applied": psd_fixed,
        "warnings": diag_warnings,
    }
    return DensityMatrix(rho, HilbertConfig(cfg.cutoff)), diagnostics


def _replica_quantities(rho: DensityMatrix) -> dict:
    peak = coherence_peak(rho)
    return {
        "diagonal": rho.diagonal,
        "mean_photon": mean_photon(rho),
        "origin_wigner": origin_parity(rho),
        "peak_coherence": peak.off_diagonal_value,
    }


def _bootstrap_replica(args) -> tuple[bool, object]:
    theta, q, snv, cfg, seed = args
    rng = np.random.default_rng(seed)
    idx_parts = []
    for t in np.unique(theta):
        idx = np.nonzero(theta == t)[0]
        idx_parts.append(rng.choice(idx, size=idx.size, replace=True))
    pick = np.concatenate(idx_parts)
    resampled = HomodyneDataset(
        theta[pick], q[pick], {"shot_noise_variance": snv}
    )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            rho, _ = mle_reconstruct(resampled, cfg)
        return True, _replica_quantities(rho)
    except Exception as exc:  # noqa: BLE001 - replica failures are recorded, not fatal
        return False, f"{type(exc).__name__}: {exc}"


def bootstrap(
    dataset: HomodyneDataset,
    cfg: MleConfig,
    replicas: int = 1000,
    seed: int = 0,
    workers: int | None = None,
) -> BootstrapReport:
    """Resample records with replacement (stratified per phase) and rerun the MLE.

    Failed replicas are recorded and skipped; at least 90% must succeed.
    Results are deterministic for a fixed seed regardless of worker count.
    """
    if replicas < 2:
        raise DomainError("replicas must be >= 2")
    snv = float(dataset.meta.get("shot_noise_variance", SHOT_NOISE_VARIANCE))
    seeds = [
        int(np.random.SeedSequence(entropy=int(seed), spawn_key=(i,)).generate_state(1)[0])
        for i in range(replicas)
    ]
    jobs = [(dataset.theta_deg, dataset.q, snv, cfg, s) for s in seeds]
    if workers is None:
        import os

        workers = min(os.cpu_count() or 1, replicas)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_bootstrap_replica, jobs, chunksize=max(1, replicas // (4 * workers))))
    else:
        outcomes = [_bootstrap_replica(j) for j in jobs]
    results = [payload for ok, payload in outcomes if ok]
    failures = [payload for ok, payload in outcomes if not ok]
    if len(results) < 0.9 * replicas:
        raise BootstrapError(
            f"only {len(results)}/{replicas} replicas succeeded; first failure: "
            f"{failures[0] if failures else 'n/a'}"
        )
    diag = np.stack([r["diagonal"] for r in results])
    scalars = {
        key: np.array([r[key] for r in results])
        for key in ("mean_photon", "origin_wigner", "peak_coherence")
    }

    def stat(a: np.ndarray) -> tuple[float, float]:
        return float(np.mean(a)), float(np.std(a, ddof=1))

    return BootstrapReport(
        replicas=replicas,
        successful=len(results),
        diagonal_mean=np.mean(diag, axis=0),
        diagonal_std=np.std(diag, axis=0, ddof=1),
        mean_photon=stat(scalars["mean_photon"]),
        origin_wigner=stat(scalars["origin_wigner"]),
        peak_coherence=stat(scalars["peak_coherence"]),
    )
