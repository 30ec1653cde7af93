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
A bootstrap replica resamples each phase's records with replacement and
reuses the tables: w becomes how often its draw picked each record or bin.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    BootstrapError,
    CatsimError,
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


@dataclass(frozen=True)
class _PhaseTables:
    """Real measurement tables, one per distinct phase.

    <n|q_j,theta> = psi_n(q_j)·u_n with u = e^{i n theta}, so every record
    of one phase shares u and only the real psi depends on the record.
    `weights` and `index` run phase by phase, in the column order of `psi`.
    """

    u: list[np.ndarray]  # e^{i n theta}, shape (dim,), per phase
    uu: list[np.ndarray]  # u u^†, the phase factor of R, shape (dim, dim), per phase
    psi: list[np.ndarray]  # real psi_n(q_j), shape (dim, rows), per phase
    weights: np.ndarray  # records counted per column: 1 per record, or per bin
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
        for uu, psi in zip(self.uu, self.psi):
            stop = start + psi.shape[1]
            r += ((psi * c[start:stop]) @ psi.T) * uu
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

    def reweighted(self, weights: np.ndarray) -> _PhaseTables:
        """The same columns under other weights, zero-weight columns dropped.

        A dropped column enters neither the probability floor nor the
        likelihood, so the tables stand for exactly the records counted.
        """
        keep = weights > 0
        ends = np.cumsum([psi.shape[1] for psi in self.psi])[:-1]
        psi = [psi[:, k] for psi, k in zip(self.psi, np.split(keep, ends))]
        return _PhaseTables(self.u, self.uu, psi, weights[keep], self.index[keep], self.unit)


def _phase_tables(
    dataset: HomodyneDataset, cutoff: int, bin_width: float | None
) -> tuple[_PhaseTables, np.ndarray]:
    """Tables for the records, or for histogram bins of width bin_width,
    and the table column of each record.

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
    u, psi, weights, index = [], [], [], []
    column = np.empty(q.size, dtype=np.intp)
    start = 0
    for t in np.unique(theta_deg):
        u.append(np.exp(1j * np.arange(cutoff + 1) * np.deg2rad(t)))
        idx = np.nonzero(theta_deg == t)[0]
        if bin_width is None:
            points, counts, col = q[idx], np.ones(idx.size), np.arange(idx.size)
            index.append(idx)
        else:
            vals = q[idx]
            lo = np.floor(vals.min() / bin_width) - 1
            hi = np.ceil(vals.max() / bin_width) + 1
            edges = np.arange(lo, hi + 1) * bin_width
            bins = np.searchsorted(edges, vals, side="right") - 1
            hist = np.bincount(bins, minlength=edges.size - 1)
            keep = hist > 0
            points = (0.5 * (edges[:-1] + edges[1:]))[keep]
            counts = hist[keep].astype(float)
            col = (np.cumsum(keep) - 1)[bins]
        column[idx] = start + col
        start += counts.size
        psi.append(hermite_functions(cutoff, points))
        weights.append(counts)
    weights = np.concatenate(weights)
    uu = [np.outer(v, v.conj()) for v in u]
    if bin_width is None:
        return _PhaseTables(u, uu, psi, weights, np.concatenate(index), "records"), column
    unit = "histogram bins (numbered phase by phase, ascending q)"
    return _PhaseTables(u, uu, psi, weights, np.arange(weights.size), unit), column


def log_likelihood(rho: DensityMatrix | np.ndarray, dataset: HomodyneDataset) -> float:
    """Sum over records of ln Tr(Pi_j rho); order-independent."""
    elements = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho)
    tables, _ = _phase_tables(dataset, elements.shape[0] - 1, None)
    return tables.log_likelihood(elements, "under the state")[1]


def _iterate(tables: _PhaseTables, cfg: MleConfig) -> tuple[DensityMatrix, dict]:
    """The sandwich update on fixed weighted tables; see `mle_reconstruct`."""
    diag_warnings: list[str] = []
    if len(tables.u) < 2:
        msg = (
            "dataset contains a single phase: off-diagonal elements are not "
            "identifiable; the reconstruction is reliable only on the diagonal "
            "of the measured quadrature"
        )
        warnings.warn(msg, IdentifiabilityWarning)
        diag_warnings.append(msg)
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
    tables, _ = _phase_tables(dataset, cfg.cutoff, cfg.bin_width)
    return _iterate(tables, cfg)


def _replica_quantities(rho: DensityMatrix) -> dict:
    peak = coherence_peak(rho)
    return {
        "diagonal": rho.diagonal,
        "mean_photon": mean_photon(rho),
        "origin_wigner": origin_parity(rho),
        "peak_coherence": peak.off_diagonal_value,
    }


def bootstrap(
    dataset: HomodyneDataset, cfg: MleConfig, replicas: int = 1000, seed: int = 0
) -> BootstrapReport:
    """Resample records with replacement (stratified per phase) and rerun the MLE.

    A replica reweights the dataset's tables by how often its draw picked
    each record, so the tables are built once. Replicas run in turn, each
    from its own seed, so the report depends only on `seed`. A replica
    that fails with a CatsimError or LinAlgError is counted and skipped;
    at least 90% must succeed.
    """
    if replicas < 2:
        raise DomainError("replicas must be >= 2")
    tables, column = _phase_tables(dataset, cfg.cutoff, cfg.bin_width)
    phases = [np.nonzero(dataset.theta_deg == t)[0] for t in np.unique(dataset.theta_deg)]
    results: list[dict] = []
    failures: list[tuple[str, str]] = []
    for i in range(replicas):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(i,))
        rng = np.random.default_rng(int(ss.generate_state(1)[0]))
        pick = np.concatenate([rng.choice(idx, size=idx.size, replace=True) for idx in phases])
        weights = np.bincount(column[pick], minlength=tables.weights.size).astype(float)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonConvergenceWarning)
                rho, _ = _iterate(tables.reweighted(weights), cfg)
            results.append(_replica_quantities(rho))
        except (CatsimError, np.linalg.LinAlgError) as exc:
            failures.append((type(exc).__name__, str(exc)))
    if len(results) < 0.9 * replicas:
        by_type = Counter(name for name, _ in failures)
        raise BootstrapError(
            f"only {len(results)}/{replicas} replicas succeeded; failures by type: "
            f"{dict(by_type)}; first failure: {': '.join(failures[0])}"
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
