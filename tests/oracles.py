"""Independent reference computations that the tests compare catsim's kernels with.

None of these is used by catsim itself; each reaches its result by a
different route from the kernel it checks, and none checks its inputs:
  laguerre_wigner, wigner_integral_oracle   phasespace.wigner
  beam_splitter_amplitude                   phasespace._beam_splitter_map, channels._bs_amplitudes
  idler_loss                                channels._povm_diagonal
  apply_annihilation                        channels.herald_subtract (single subtraction)
  phase_rotated                             phasespace.marginal's phase factors
  povm_projector                            tomography._PhaseTables (likelihood, R and gap)
  trace_distance                            tomography.mle_reconstruct (large-sample limit)
  sample_phase                              sampler.synth_dataset (one marginal per phase,
                                            not one sweep; the sampler's own inverse CDF)
"""

import math

import numpy as np

from catsim.fock import DensityMatrix, StateVector, quadrature_basis
from catsim.phasespace import marginal
from catsim.sampler import _CDF_GRID, _inverse_cdf_draws


class QuadratureError(ArithmeticError):
    """wigner_integral_oracle's grid refinement did not settle."""


def laguerre_wigner(rho: np.ndarray, x, p) -> np.ndarray:
    """W at paired points via the Fock-basis Laguerre expansion.

    The |m><n| kernel (m >= n, d = m - n) is
      (1/pi)·e^{-x^2-p^2}·(x-ip)^d·l_n^d(2(x^2+p^2)),
      l_n^d = (-1)^n·sqrt(2^d n!/m!)·L_n^d,
    with the m < n kernel its complex conjugate. For each d the normalized
    l_n^d come from the upward three-term Laguerre recurrence
      l_{n+1} = ((arg - 2n - 1 - d)·l_n - sqrt(n(n+d))·l_{n-1}) / sqrt((n+1)(n+d+1)),
    started at l_0 = sqrt(2^d/d!), as in QuTiP's Laguerre summation
    (Johansson, Nation, Nori, CPC 184, 1234 (2013)).
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = x * x + p * p
    arg = 2.0 * r2
    z = x - 1j * p
    w = np.zeros(np.broadcast(x, p).shape, dtype=complex)
    zpow = np.ones_like(w)
    for d in range(dim):
        upper = np.zeros(w.shape, dtype=complex)
        lower = np.zeros(w.shape, dtype=complex)
        prev = np.zeros(w.shape)
        lag = np.full(w.shape, math.exp(0.5 * (d * math.log(2.0) - math.lgamma(d + 1))))
        for n, (a, b) in enumerate(zip(np.diagonal(rho, -d), np.diagonal(rho, d))):
            upper += a * lag  # rho[n+d, n]
            lower += b * lag  # rho[n, n+d]
            nxt = (arg - (2 * n + 1 + d)) * lag - math.sqrt(n * (n + d)) * prev
            prev, lag = lag, nxt / math.sqrt((n + 1) * (n + d + 1))
        w += zpow * upper
        if d > 0:
            w += np.conj(zpow) * lower
        zpow = zpow * z
    return (np.exp(-r2) / np.pi * w).real


def wigner_integral_oracle(rho: DensityMatrix, x: float, p: float) -> float:
    """W(x, p) by direct quadrature of (1/pi)·∫ e^{2·i·p'·x} rho(p+p', p-p') dp'.

    The momentum-basis matrix elements come from the quadrature wavefunctions
    at theta = pi/2; the trapezoid grid is refined until two successive
    refinements agree to 1e-8.
    """
    dim = len(rho.diagonal)
    half_width = np.sqrt(2.0 * rho.config.cutoff + 1.0) + 6.0 + abs(p)
    rho_m = np.asarray(rho.elements)
    previous = None
    points = 1025
    while points <= 2**17 + 1:
        pp = np.linspace(-half_width, half_width, points)
        wa = quadrature_basis(dim - 1, p + pp, np.pi / 2)  # <n|a>
        wb = quadrature_basis(dim - 1, p - pp, np.pi / 2)
        kernel = np.einsum("ni,nm,mi->i", wa.conj(), rho_m, wb)
        integrand = np.exp(2j * pp * x) * kernel / np.pi
        value = complex(np.trapezoid(integrand, pp))
        if previous is not None and abs(value - previous) <= 1e-8 * max(1.0, abs(value)):
            if abs(value.imag) > 1e-6:
                raise QuadratureError(f"imaginary residue {value.imag} in Wigner quadrature")
            return float(value.real)
        previous = value
        points = 2 * (points - 1) + 1
    raise QuadratureError("Wigner quadrature did not converge under grid refinement")


def beam_splitter_amplitude(n: int, m: int, k: int) -> float:
    """<k, N-k| BS |n, m>, N = n + m, for the 50:50 beam splitter
    a^† -> (c^† + d^†)/sqrt(2), b^† -> (c^† - d^†)/sqrt(2), from the binomial
    sum in exact integers and one rounding of the exact ratio:
      2^{-N/2}·sqrt(k!(N-k)!/(n!m!))·sum_j C(n, j)·C(m, k-j)·(-1)^{m-k+j}.
    """
    total = n + m
    if not 0 <= k <= total:
        return 0.0
    terms = range(max(0, k - m), min(n, k) + 1)
    s = sum(math.comb(n, j) * math.comb(m, k - j) * (-1) ** (m - k + j) for j in terms)
    ratio = math.factorial(k) * math.factorial(total - k) / (math.factorial(n) * math.factorial(m))
    return s * math.sqrt(ratio) * 2.0 ** (-total / 2)


def idler_loss(amps: np.ndarray, eta_i: float) -> np.ndarray:
    """rho[s, k, t, l] of the two-mode amplitudes amps[s, k] after loss eta_i
    on the idler, by the Kraus operators K_j[m-j, m] = sqrt(C(m,j)·eta_i^{m-j}·(1-eta_i)^j).
    Counting n idler photons ideally then leaves rho[:, n, :, n]."""
    dim = amps.shape[1]
    rho = np.einsum("sk,tl->sktl", amps, amps.conj())
    out = np.zeros_like(rho)
    for j in range(dim):
        kraus = np.zeros((dim, dim))
        for m in range(j, dim):
            kraus[m - j, m] = math.sqrt(math.comb(m, j) * eta_i ** (m - j) * (1 - eta_i) ** j)
        out += np.einsum("ab,sbtc,dc->satd", kraus, rho, kraus)
    return out


def apply_annihilation(state: StateVector) -> tuple[StateVector, float]:
    """a|psi>, renormalized, and its squared norm <psi|a^†a|psi>
    (StateVector.normalize refuses a|0> = 0)."""
    c = state.amplitudes
    lowered = np.append(np.sqrt(np.arange(1, c.size)) * c[1:], 0.0)
    return StateVector.normalize(lowered), float(np.vdot(lowered, lowered).real)


def phase_rotated(rho: DensityMatrix, theta: float) -> DensityMatrix:
    """e^{-i·theta·n} rho e^{+i·theta·n}: measured at phase 0 it gives the
    quadrature statistics of rho at phase theta."""
    u = np.exp(1j * theta * np.arange(len(rho.diagonal)))
    return DensityMatrix(u.conj()[:, None] * rho.elements * u[None, :])


def povm_projector(theta_deg: float, q: float, cutoff: int) -> np.ndarray:
    """Rank-1 homodyne projector |q_theta><q_theta| truncated at the cutoff."""
    v = quadrature_basis(cutoff, np.array([q]), np.deg2rad(theta_deg))[:, 0]
    return np.outer(v, v.conj())


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.elements - b.elements))))


def sample_phase(rho: DensityMatrix, theta_deg: float, count: int, seed: int) -> np.ndarray:
    """count quadrature draws at one phase, by the sampler's inverse CDF of the
    single-phase marginal on the sampler's grid, from default_rng(seed)."""
    return _inverse_cdf_draws(marginal(rho, np.deg2rad(theta_deg), _CDF_GRID), count, seed)
