"""Truncated Fock-basis states, elementary operators, and scalar metrics.

A state holds only its array on Fock indices 0..cutoff; constructors take
the cutoff as an int, and `DensityMatrix.config` derives it from the array.

Conventions used throughout the package (hbar = 1):
  x = (a + a†)/√2,  p = (a − a†)/(i√2),  [x, p] = i, vacuum variance 1/2.
The quadrature eigenfunction at angle theta is expanded as
  <n|q_theta> = psi_n(q) · exp(i·n·theta)
with psi_n the real harmonic-oscillator wavefunction, so theta = 0 is the
position basis and theta = pi/2 the momentum basis. Every e^{i n theta} in
the package comes from `_phase_factors`, exact at theta = 0 and pi/2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import DimensionMismatch, DomainError, SchemaError, TruncationError, ZeroStateError
from .export import read_json, write_text

DEFAULT_TAIL_TOL = 1e-6

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

# level_db = 10·log10(e^{2r})  <=>  r = level_db · ln(10)/20
_R_PER_DB = math.log(10.0) / 20.0


@dataclass(frozen=True)
class HilbertConfig:
    """Truncated single-mode Fock space: indices 0..cutoff, hbar fixed at 1."""

    cutoff: int


@dataclass(frozen=True)
class SqueezeSpec:
    """Squeezing strength, constructed from the parameter r or a dB level."""

    r: float

    def __post_init__(self):
        r = (self.r / _R_PER_DB) * _R_PER_DB  # the r its dB text reads back as
        if not (0.0 <= r < math.inf):
            raise DomainError(f"squeezing r must be >= 0 with a finite dB level, got {self.r}")
        object.__setattr__(self, "r", r)

    @classmethod
    def from_db(cls, level_db: float) -> "SqueezeSpec":
        if not (0.0 <= level_db < math.inf):
            raise DomainError(f"squeezing level must be finite and >= 0 dB, got {level_db}")
        return cls(r=float(level_db) * _R_PER_DB)

    @property
    def level_db(self) -> float:
        return self.r / _R_PER_DB


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _check_shape(shape: tuple[int, ...], axes: int) -> None:
    """A state array has `axes` axes of one length dim = cutoff + 1 >= 2."""
    if len(shape) != axes or len(set(shape)) != 1:
        raise DimensionMismatch(f"state array has shape {shape}, expected {axes} equal axes")
    if shape[0] < 2:
        raise DomainError(f"cutoff must be >= 1, got {shape[0] - 1}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state amplitudes c_n with unit norm in a truncated Fock basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        _check_shape(amps.shape, 1)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN too
            raise DomainError(f"state vector norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @classmethod
    def normalize(cls, amplitudes: np.ndarray) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ZeroStateError("cannot normalize the zero vector")
        return cls(amps / norm)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix rho_{n,m}."""

    elements: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.elements, dtype=complex)
        _check_shape(rho.shape, 2)
        herm = np.max(np.abs(rho - rho.conj().T))
        if not herm <= HERMITICITY_TOL:  # NaN too
            raise DomainError(f"matrix deviates from Hermitian by {herm}")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -PSD_TOL:
            raise DomainError(f"smallest eigenvalue {lo} below -{PSD_TOL}")
        object.__setattr__(self, "elements", _readonly(rho))

    @property
    def config(self) -> HilbertConfig:
        return HilbertConfig(len(self.elements) - 1)

    @property
    def diagonal(self) -> np.ndarray:
        return self.elements.diagonal().real

    def embed(self, cutoff: int) -> "DensityMatrix":
        """Pad with zero rows/columns up to a larger cutoff (trace preserved)."""
        d = len(self.elements)
        if cutoff < d - 1:
            raise DomainError(f"embed target cutoff {cutoff} is below the current {d - 1}")
        out = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        out[:d, :d] = self.elements
        return DensityMatrix(out)

    def to_dict(self) -> dict:
        return {
            "cutoff": len(self.elements) - 1,
            "re": self.elements.real.tolist(),
            "im": self.elements.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DensityMatrix":
        cutoff = payload["cutoff"]
        rho = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
        if type(cutoff) is not int or rho.shape[:1] != (cutoff + 1,):
            raise DimensionMismatch(f"cutoff {cutoff!r} does not fit a {rho.shape} matrix")
        return cls(rho)


def save_density_matrix(rho: DensityMatrix, path: str | Path) -> None:
    write_text(path, [json.dumps(rho.to_dict())])


def load_density_matrix(path: str | Path) -> DensityMatrix:
    """The state save_density_matrix wrote; SchemaError naming the file otherwise."""
    try:
        return DensityMatrix.from_dict(read_json(path))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path} holds no density matrix ({exc})") from None


def _check_tail(tail: float, what: str) -> None:
    if not tail <= DEFAULT_TAIL_TOL:
        raise TruncationError(
            f"{what}: truncated tail weight {tail:.3e} exceeds {DEFAULT_TAIL_TOL:.1e}; "
            "raise the cutoff"
        )


def squeezed_vacuum(spec: SqueezeSpec, cutoff: int) -> StateVector:
    """Squeezed vacuum with the position quadrature squeezed below 1/2.

    Even amplitudes follow c_{2k} = N·(−tanh r)^k·√((2k)!)/(2^k k!); the sign
    makes the momentum quadrature the anti-squeezed one, so photon-subtracted
    states develop their two lobes along p.
    """
    r = spec.r
    d = cutoff + 1
    amps = np.zeros(d, dtype=complex)
    amps[0] = 1.0
    t = math.tanh(r)
    for k in range(1, (d - 1) // 2 + 1):
        # c_{2k} = -tanh(r)·sqrt((2k-1)/(2k)) · c_{2k-2}
        amps[2 * k] = -t * math.sqrt((2 * k - 1) / (2 * k)) * amps[2 * k - 2]
    try:
        amps /= math.sqrt(math.cosh(r))  # exact untruncated normalization
    except OverflowError:  # r > 710.47: no cutoff holds any of the weight
        amps[:] = 0.0
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    _check_tail(tail, f"squeezed_vacuum(r={r:.4g}, cutoff={cutoff})")
    return StateVector.normalize(amps)


def _modulus_squared(alpha: complex) -> float:
    """|alpha|^2, or inf beyond the float range (no cutoff holds any weight there)."""
    try:
        return abs(alpha) ** 2
    except OverflowError:
        return math.inf


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent amplitudes e^{-|a|^2/2}·a^n/√(n!) by stable recurrence."""
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-_modulus_squared(alpha) / 2.0)
    for n in range(dim - 1):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1)
    return c


def coherent_state(alpha: complex, cutoff: int) -> StateVector:
    """Coherent state |alpha>, renormalized after truncation."""
    c = _coherent_amplitudes(complex(alpha), cutoff + 1)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    _check_tail(tail, f"coherent_state(|alpha|={abs(alpha):.4g}, cutoff={cutoff})")
    return StateVector.normalize(c)


def cat_state(alpha: complex, parity: Literal["even", "odd"], cutoff: int) -> StateVector:
    """Normalized |alpha> ± |-alpha| superposition.

    The even cat has support only on even photon numbers and tends to the
    vacuum as alpha -> 0; the odd cat is undefined where |alpha|^2 is 0,
    also where it underflows to 0.
    """
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")
    alpha = complex(alpha)
    sign = 1.0 if parity == "even" else -1.0
    modulus2 = _modulus_squared(alpha)
    if parity == "odd" and modulus2 == 0:
        raise DomainError(f"odd cat state is undefined where |alpha|^2 is 0 (alpha = {alpha})")
    c = _coherent_amplitudes(alpha, cutoff + 1)
    n = np.arange(cutoff + 1)
    raw = c * (1.0 + sign * (-1.0) ** n)
    # exact norm of |a> ± |-a> is 2(1 ± e^{-2|a|^2}), written with expm1 so that
    # the odd cat's does not cancel at small |a|; the tail is measured against it
    norm2_exact = 2.0 * (1.0 + sign) + 2.0 * sign * math.expm1(-2.0 * modulus2)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(raw) ** 2)) / norm2_exact)
    _check_tail(tail, f"cat_state(|alpha|={abs(alpha):.4g}, cutoff={cutoff})")
    return StateVector.normalize(raw)


def mixed_coherent(alpha: complex, cutoff: int) -> DensityMatrix:
    """Equal-weight classical mixture of |alpha><alpha| and |-alpha><-alpha|."""
    plus = coherent_state(alpha, cutoff)
    minus = coherent_state(-alpha, cutoff)
    rho = 0.5 * (
        np.outer(plus.amplitudes, plus.amplitudes.conj())
        + np.outer(minus.amplitudes, minus.amplitudes.conj())
    )
    return DensityMatrix(rho)


def mean_photon(rho: DensityMatrix) -> float:
    """Sum of n·rho_{n,n}."""
    return float(np.sum(np.arange(len(rho.diagonal)) * rho.diagonal))


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a)·b·sqrt(a)))^2, clipped to [0, 1]."""
    if a.elements.shape != b.elements.shape:
        raise DimensionMismatch("density matrices live in different truncated spaces")
    sa = _sqrtm_psd(a.elements)
    inner = sa @ b.elements @ sa
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    f = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)


def hermite_functions(cutoff: int, q) -> np.ndarray:
    """Real matrix psi[n, i] = psi_n(q_i), the harmonic-oscillator wavefunctions.

    Evaluated with the normalized upward Hermite recurrence
      psi_{n+1}(q) = sqrt(2/(n+1))·q·psi_n(q) − sqrt(n/(n+1))·psi_{n-1}(q),
    which stays finite far past the factorial-overflow range. It runs on
    psi_n·e^{q^2/4} from pi^{-1/4}·e^{-q^2/4}, and each row takes the other
    e^{-q^2/4} at the end: the start is a normal float out to |q| ≈ 53, where
    e^{-q^2/2} is subnormal beyond |q| ≈ 37.6. Every psi_n is exactly 0 beyond
    |q| ≈ 54.6, so q is clipped to [-60, 60], and q = ±inf gives 0, not NaN.
    """
    if cutoff < 0:
        raise DomainError(f"cutoff must be >= 0, got {cutoff}")
    q = np.clip(np.atleast_1d(np.asarray(q, dtype=float)), -60.0, 60.0)
    half = np.exp(-0.25 * q * q)
    psi = np.zeros((cutoff + 1, q.size))
    psi[0] = np.pi ** -0.25 * half
    if cutoff >= 1:
        psi[1] = math.sqrt(2.0) * q * psi[0]
    tmp = np.empty_like(q)
    for n in range(1, cutoff):  # in place, in the float order of a·q·psi_n - b·psi_{n-1}
        row = np.multiply(math.sqrt(2.0 / (n + 1)), q, out=psi[n + 1])
        row *= psi[n]
        row -= np.multiply(math.sqrt(n / (n + 1)), psi[n - 1], out=tmp)
    psi *= half
    return psi


def _phase_factors(thetas, dim: int) -> np.ndarray:
    """u[t, n] = e^{i n theta_t} for n < dim, one row per angle (radians);
    exactly 1 at theta = 0 and i^n at theta = pi/2."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    n = np.arange(dim)
    u = np.exp(1j * thetas[:, None] * n)
    u[thetas == 0.0] = 1.0
    u[thetas == math.pi / 2] = np.array([1.0, 1j, -1.0, -1j])[n % 4]
    return u


def quadrature_basis(cutoff: int, q, theta: float = 0.0) -> np.ndarray:
    """Matrix W[n, i] = <n|q_i, theta> = psi_n(q_i)·e^{i n theta}."""
    return hermite_functions(cutoff, q) * _phase_factors(theta, cutoff + 1)[0][:, None]

