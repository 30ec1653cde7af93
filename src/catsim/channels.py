"""Quantum channels and the heralded photon-subtraction pipeline.

A squeezed vacuum is degraded by the source loss, tapped by a beam splitter,
and the tapped (idler) arm is read out by a lossy photon-number-resolving
detector; detecting n photons collapses the kept (signal) arm into an
approximate cat state, which then suffers the measurement-side loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    TruncationBudgetError,
    ZeroProbabilityError,
)
from .fock import (
    DEFAULT_TAIL_TOL,
    DensityMatrix,
    SqueezeSpec,
    StateVector,
    squeezed_vacuum,
)

_MAX_JOINT_DIM = 4096  # signal x idler amplitudes; guards cutoffs read from an INI file

_EIGENBRANCH_FLOOR = 1e-15  # mixture weights below this carry no probability


@dataclass(frozen=True)
class ExperimentParams:
    """Source, tap, detection, and timing figures of one subtraction setup.

    Defaults reproduce the as-built experiment: 6.5 dB of squeezing, 5%
    source loss, tap reflectivity 0.81, 40% idler and 85% signal efficiency,
    5 MHz repetition chopped at 50% duty.
    """

    squeeze: SqueezeSpec = SqueezeSpec.from_db(6.5)
    opa_loss: float = 0.05
    bs_reflectivity: float = 0.81
    idler_efficiency: float = 0.40
    signal_efficiency: float = 0.85
    herald_n: int = 4
    rep_rate_hz: float = 5e6
    duty_cycle: float = 0.5
    cutoff: int = 30
    idler_cutoff: int = 12

    def __post_init__(self):
        for name in ("opa_loss", "idler_efficiency", "signal_efficiency"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must be in [0, 1], got {v}")
        if not (0.0 < self.bs_reflectivity <= 1.0):
            raise DomainError(f"bs_reflectivity must be in (0, 1], got {self.bs_reflectivity}")
        if self.herald_n < 0:
            raise DomainError(f"herald_n must be >= 0, got {self.herald_n}")
        if not (0.0 < self.rep_rate_hz < math.inf):
            raise DomainError(f"rep_rate_hz must be positive and finite, got {self.rep_rate_hz}")
        if not (0.0 < self.duty_cycle <= 1.0):
            raise DomainError(f"duty_cycle must be in (0, 1], got {self.duty_cycle}")
        if self.cutoff < 1 or self.idler_cutoff < 1:
            raise DomainError("cutoff and idler_cutoff must be >= 1")
        if self.herald_n > self.idler_cutoff:
            raise DomainError(f"herald_n {self.herald_n} exceeds idler_cutoff {self.idler_cutoff}")
        joint = (self.cutoff + 1) * (self.idler_cutoff + 1)
        if joint > _MAX_JOINT_DIM:
            raise TruncationBudgetError(
                f"joint dimension {joint} of cutoff {self.cutoff} and idler_cutoff "
                f"{self.idler_cutoff} exceeds the budget {_MAX_JOINT_DIM}"
            )

    def with_herald(self, n: int) -> "ExperimentParams":
        return replace(self, herald_n=n)


@dataclass(frozen=True)
class HeraldResult:
    """Conditioned signal state plus heralding probability and event rate."""

    state: DensityMatrix
    herald_probability: float
    estimated_rate: float


def _loss_kraus(dim: int, eta: float) -> list[np.ndarray]:
    """Kraus operators K_k[n-k, n] = sqrt(C(n,k)·eta^{n-k}·(1-eta)^k)."""
    ops = []
    for k in range(dim):
        m = np.zeros((dim, dim))
        for n in range(k, dim):
            m[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        ops.append(m)
    return ops


def loss_channel(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Pure-loss channel with transmission eta (eta = 1 is the identity)."""
    if not (0.0 <= eta <= 1.0):
        raise DomainError(f"transmission must be in [0, 1], got {eta}")
    if eta == 1.0:
        return rho
    out = np.zeros_like(np.asarray(rho.elements))
    for k_op in _loss_kraus(len(out), eta):
        out += k_op @ rho.elements @ k_op.T
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out)


def _bs_amplitudes(c: np.ndarray, reflectivity: float, idler_cutoff: int) -> np.ndarray:
    """Split signal amplitudes against a vacuum idler port: out[s, k] on
    |s>_signal ⊗ |k>_idler.

    |n, 0>  ->  sum_k sqrt(C(n,k)) · R^{(n-k)/2} (1-R)^{k/2} |n-k, k>,
    keeping sqrt(R) of the field in the signal output.
    """
    dim = c.size
    out = np.zeros((dim, idler_cutoff + 1), dtype=complex)
    sr = math.sqrt(reflectivity)
    st = math.sqrt(1.0 - reflectivity)
    for n in range(dim):
        if c[n] == 0:
            continue
        amp = c[n] * sr**n
        out[n, 0] += amp
        for k in range(1, min(n, idler_cutoff) + 1):
            # ratio between consecutive k: sqrt((n-k+1)/k) · st/sr
            amp = amp * math.sqrt((n - k + 1) / k) * st / sr
            out[n - k, k] += amp
    return out


def _povm_diagonal(n: int, eta_i: float, idler_cutoff: int) -> np.ndarray:
    """Diagonal of the POVM element for 'n photons seen by a detector of
    efficiency eta_i': Pi_n = sum_{m>=n} C(m,n)·eta_i^n·(1-eta_i)^{m-n} |m><m|.
    The family n = 0..idler_cutoff sums to the identity on the idler space."""
    diag = np.zeros(idler_cutoff + 1)
    for m in range(n, idler_cutoff + 1):
        diag[m] = math.comb(m, n) * eta_i**n * (1.0 - eta_i) ** (m - n)
    return diag


def _tapped_branches(
    params: ExperimentParams, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[tuple[float, np.ndarray], ...]:
    """Pure-state decomposition of the lossy source after the tap.

    The source state after the OPA loss is mixed; each eigenvector is sent
    through the beam splitter separately, giving (weight, two-mode amplitude
    matrix) pairs over which heralding outcomes are summed, heaviest first.

    A squeezed vacuum after pure loss has exact zeros wherever n - m is odd,
    so it is the direct sum of its even-n and odd-n blocks. Each block is
    eigendecomposed on its own: a full `eigh` would mix the blocks at
    round-off, while per-block eigenvectors keep every conditioned state
    exactly zero between even and odd photon numbers.

    The branches depend on neither the herald number nor the efficiencies, so
    they are built once per source and tap and shared, read-only.
    """
    return _source_branches(
        params.cutoff, params.squeeze, params.opa_loss, params.bs_reflectivity,
        params.idler_cutoff, tail_tol,
    )


@lru_cache(maxsize=8)
def _source_branches(
    cutoff: int, squeeze: SqueezeSpec, opa_loss: float, bs_reflectivity: float,
    idler_cutoff: int, tail_tol: float,
) -> tuple[tuple[float, np.ndarray], ...]:
    psi = squeezed_vacuum(squeeze, cutoff, tail_tol)
    rho = np.asarray(loss_channel(psi.to_density(), 1.0 - opa_loss).elements)
    n = np.arange(cutoff + 1)
    if np.any(rho[(n[:, None] + n[None, :]) % 2 == 1]):
        raise DomainError("the source couples even and odd photon numbers")
    pure = []
    for block in (n[0::2], n[1::2]):
        vals, vecs = np.linalg.eigh(rho[np.ix_(block, block)])
        for w, v in zip(vals, vecs.T):
            if w >= _EIGENBRANCH_FLOOR:
                full = np.zeros(cutoff + 1, dtype=vecs.dtype)
                full[block] = v
                pure.append((float(w), full))
    pure.sort(key=lambda branch: -branch[0])
    branches = []
    for w, v in pure:
        signal = StateVector.normalize(v)
        amps = _bs_amplitudes(np.asarray(signal.amplitudes), bs_reflectivity, idler_cutoff)
        amps.setflags(write=False)
        branches.append((w, amps))
    return tuple(branches)


def _conditioned_signal(
    branches: tuple[tuple[float, np.ndarray], ...], povm_diag: np.ndarray
) -> tuple[np.ndarray, float]:
    """Unnormalized signal state and probability for one idler POVM element."""
    dim = branches[0][1].shape[0]
    rho_u = np.zeros((dim, dim), dtype=complex)
    for w, amps in branches:
        weighted = amps * povm_diag[None, :]
        rho_u += w * (weighted @ amps.conj().T)
    return rho_u, float(np.trace(rho_u).real)


def herald_subtract(params: ExperimentParams, tail_tol: float = DEFAULT_TAIL_TOL) -> HeraldResult:
    """Run the full subtraction pipeline and condition on herald_n idler photons.

    Order: squeezed source -> source loss -> beam-splitter tap -> lossy
    photon-number POVM on the idler -> partial trace and renormalization ->
    signal-side loss. The heralding probability is the conditioned trace
    before renormalization; the event rate multiplies in repetition rate and
    duty cycle.
    """
    branches = _tapped_branches(params, tail_tol)
    povm = _povm_diagonal(params.herald_n, params.idler_efficiency, params.idler_cutoff)
    rho_u, prob = _conditioned_signal(branches, povm)
    if prob < 1e-300:
        raise ZeroProbabilityError(
            f"herald probability for n={params.herald_n} underflowed ({prob})"
        )
    rho = DensityMatrix(0.5 * (rho_u + rho_u.conj().T) / prob)
    rho = loss_channel(rho, params.signal_efficiency)
    rate = prob * params.rep_rate_hz * params.duty_cycle
    return HeraldResult(state=rho, herald_probability=prob, estimated_rate=rate)


def herald_probabilities(params: ExperimentParams) -> np.ndarray:
    """Probability of each idler outcome n = 0..idler_cutoff (sums to ~1)."""
    branches = _tapped_branches(params)
    idler = np.zeros(params.idler_cutoff + 1)
    for w, amps in branches:
        idler += w * np.sum(np.abs(amps) ** 2, axis=0)
    probs = np.zeros(params.idler_cutoff + 1)
    for n in range(params.idler_cutoff + 1):
        povm = _povm_diagonal(n, params.idler_efficiency, params.idler_cutoff)
        probs[n] = float(np.dot(povm, idler))
    return probs


def count_rate_table(params: ExperimentParams, n_max: int) -> list[tuple[int, float, float]]:
    """(n, herald probability, estimated rate in counts/s) for n = 0..n_max."""
    if n_max > params.idler_cutoff:
        raise DomainError(f"n_max {n_max} exceeds idler cutoff {params.idler_cutoff}")
    probs = herald_probabilities(params)
    scale = params.rep_rate_hz * params.duty_cycle
    return [(n, float(probs[n]), float(probs[n] * scale)) for n in range(n_max + 1)]


def input_state(params: ExperimentParams) -> DensityMatrix:
    """The unconditioned source as seen by the measurement chain (tap fully closed)."""
    psi = squeezed_vacuum(params.squeeze, params.cutoff)
    rho = loss_channel(psi.to_density(), 1.0 - params.opa_loss)
    return loss_channel(rho, params.signal_efficiency)
