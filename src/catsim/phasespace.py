"""Continuous-variable pictures: Wigner functions, quadrature-basis density
matrices, and marginal distributions, all derived from a Fock-basis state.

The Wigner function is normalized so that its double integral is 1 and the
vacuum peaks at 1/pi; its value at the origin is 1/pi times the photon-number
parity expectation. W is evaluated without per-element special functions:
it sums the Fock-basis Laguerre kernels band by band (d = m - n), with the
normalized Laguerre factors of each band taken from their upward three-term
recurrence over n, as in QuTiP's Laguerre summation (Johansson, Nation,
Nori, CPC 184, 1234 (2013)).

Every read of the quadrature diagonal goes through one product basis. With
<n|q,theta> = psi_n(q)·u_n, psi_n real, u = e^{i n theta}, U = diag(u) and
M_theta = Re(U^† rho U),
  Pr(q | theta) = sum_{n,m} M_theta[n, m]·psi_n(q)·psi_m(q).
psi_n·psi_m is e^{-q^2} times a polynomial of degree n + m and parity
n + m, so it lies exactly in the span of the orthonormal functions
phi_k(q) = 2^{1/4}·psi_k(sqrt(2)·q), k = 0..2·cutoff:
  psi_n·psi_m = sum_k A[k, n, m]·phi_k,   A[k, n, m] = ∫ psi_n psi_m phi_k dq,
with A exactly zero unless k <= n + m and k = n + m (mod 2). So
Pr(q | theta) = b_theta · Phi(q), with b_theta = A·vec(M_theta) and Phi the
table of phi_k(q): a marginal sweep is one product, and the tomography
likelihood reads its records the same way. As psi_m(-q) = (-1)^m psi_m(q),
the ket phases (-1)^m·u_m give Re rho(q, -q), the coherence read-out, with
no q x q table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .export import fields, write_rows
from .fock import DensityMatrix, _phase_factors, hermite_functions, quadrature_basis

_IMAG_RESIDUE_TOL = 1e-10

_COHERENCE_AXIS = np.linspace(-6.0, 6.0, 241)  # the one axis coherence_peak reads on
_COHERENCE_AXIS.setflags(write=False)


@dataclass(frozen=True)
class WignerGrid:
    """W(x_i, p_j) sampled on a rectangular grid; values[i, j] pairs x_i with p_j."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def riemann_integral(self) -> float:
        dx = self.x_axis[1] - self.x_axis[0]
        dp = self.p_axis[1] - self.p_axis[0]
        return float(np.sum(self.values) * dx * dp)

    def value_at(self, x: float, p: float) -> float:
        i = int(np.argmin(np.abs(self.x_axis - x)))
        j = int(np.argmin(np.abs(self.p_axis - p)))
        return float(self.values[i, j])


@dataclass(frozen=True)
class QuadDensityMatrix:
    """rho(q_i, q_j') in the rotated quadrature basis at angle theta."""

    axis: np.ndarray
    values: np.ndarray
    theta: float

    @property
    def diagonal(self) -> np.ndarray:
        return self.values.diagonal().real


def _wigner_values(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate W at paired points via the Fock-basis Laguerre expansion.

    The |m><n| kernel (m >= n, d = m - n) is
      (1/pi)·e^{-x^2-p^2}·(x-ip)^d·l_n^d(2(x^2+p^2)),
      l_n^d = (-1)^n·sqrt(2^d n!/m!)·L_n^d,
    with the m < n kernel its complex conjugate. For each d the normalized
    l_n^d come from the upward three-term Laguerre recurrence
      l_{n+1} = ((arg - 2n - 1 - d)·l_n - sqrt(n(n+d))·l_{n-1}) / sqrt((n+1)(n+d+1)),
    started at l_0 = sqrt(2^d/d!), so no factorial or polynomial is ever
    evaluated on its own. A real rho keeps the sums in real arithmetic.
    """
    if not np.any(np.imag(rho)):
        rho = np.real(rho)
    dim = rho.shape[0]
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = x * x + p * p
    arg = 2.0 * r2
    envelope = np.exp(-r2) / np.pi
    z = x - 1j * p
    w = np.zeros(np.broadcast(x, p).shape, dtype=complex)
    zpow = np.ones_like(w)
    for d in range(dim):
        a_diag = np.diagonal(rho, -d)  # rho[n+d, n]
        b_diag = np.diagonal(rho, d)  # rho[n, n+d]
        if a_diag.any() or b_diag.any():
            upper = np.zeros(w.shape, dtype=rho.dtype)
            lower = np.zeros(w.shape, dtype=rho.dtype)
            prev = np.zeros(w.shape)
            lag = np.full(w.shape, math.exp(0.5 * (d * math.log(2.0) - math.lgamma(d + 1))))
            for n, (a, b) in enumerate(zip(a_diag, b_diag)):
                if a != 0:
                    upper += a * lag
                if d > 0 and b != 0:
                    lower += b * lag
                if n + 1 < a_diag.size:
                    nxt = (arg - (2 * n + 1 + d)) * lag
                    nxt -= math.sqrt(n * (n + d)) * prev
                    nxt /= math.sqrt((n + 1) * (n + d + 1))
                    prev, lag = lag, nxt
            w += zpow * upper
            if d > 0:
                w += np.conj(zpow) * lower
        if d + 1 < dim:
            zpow = zpow * z
    w = envelope * w
    residue = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if residue > _IMAG_RESIDUE_TOL:
        raise DomainError(f"Wigner evaluation left an imaginary residue of {residue}")
    return w.real


def wigner(rho: DensityMatrix, x_axis: np.ndarray, p_axis: np.ndarray) -> WignerGrid:
    """Wigner function on the rectangular grid of two axes."""
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    values = _wigner_values(np.asarray(rho.elements), xg, pg)
    return WignerGrid(x_axis, p_axis, values)


def wigner_integral_oracle(rho: DensityMatrix, x: float, p: float) -> float:
    """W(x, p) by direct quadrature of (1/pi)·∫ e^{2·i·p'·x} rho(p+p', p-p') dp'.

    The momentum-basis matrix elements come from the quadrature wavefunctions
    at theta = pi/2; the trapezoid grid is refined until two successive
    refinements agree to 1e-8.
    """
    dim = rho.config.dim
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
                raise ConvergenceError(f"imaginary residue {value.imag} in Wigner quadrature")
            return float(value.real)
        previous = value
        points = 2 * (points - 1) + 1
    raise ConvergenceError("Wigner quadrature did not converge under grid refinement")


def _phi_table(cutoff: int, q: np.ndarray) -> np.ndarray:
    """phi[k, j] = phi_k(q_j) = 2^{1/4}·psi_k(sqrt(2)·q_j) for k <= 2·cutoff."""
    phi = hermite_functions(2 * cutoff, math.sqrt(2.0) * q)
    phi *= 2.0**0.25
    return phi


@lru_cache(maxsize=None)
def _product_map(cutoff: int) -> np.ndarray:
    """A[k, n, m] = ∫ psi_n psi_m phi_k dq for k <= 2·cutoff, as a read-only
    (2·cutoff+1, dim^2) array, built once per cutoff.

    In x = sqrt(2)·q the integrand is e^{-x^2} times a polynomial of degree
    n + m + k <= 4·cutoff, which Gauss-Hermite quadrature on 2·cutoff + 1
    nodes integrates exactly. Entries outside k <= n + m, k = n + m (mod 2)
    vanish by orthogonality and parity and are set to exact zero; left at
    their ~1e-15 round-off, they would swamp the density far out in the tails.
    """
    x, w = np.polynomial.hermite.hermgauss(2 * cutoff + 1)
    q = x / math.sqrt(2.0)
    psi = hermite_functions(cutoff, q)
    pairs = (psi[:, None, :] * psi[None, :, :]).reshape(-1, x.size)
    a = (_phi_table(cutoff, q) * (w * np.exp(x * x) / math.sqrt(2.0))) @ pairs.T
    k, n, m = np.ogrid[: 2 * cutoff + 1, : cutoff + 1, : cutoff + 1]
    a[((k > n + m) | ((k + n + m) % 2 == 1)).reshape(a.shape)] = 0.0
    a.setflags(write=False)
    return a


def _coefficients(rho: np.ndarray, u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """b[t] = A·vec(Re(U_t^† rho V_t)), one row per row of the phase factors
    u (and v, which defaults to u), so that
      b[t] · Phi(q) = Re sum_{n,m} conj(u[t, n])·rho[n, m]·v[t, m]·psi_n(q)·psi_m(q).
    With v = u that is Pr(q | theta_t)."""
    v = u if v is None else v
    m = (u.conj()[:, :, None] * rho * v[:, None, :]).real
    return m.reshape(len(m), -1) @ _product_map(rho.shape[0] - 1).T


def rho_quad(rho: DensityMatrix, theta: float, axis: np.ndarray) -> QuadDensityMatrix:
    """Density matrix in the rotated quadrature basis.

    rho(q, q') = sum_{n,m} <q_theta|n> rho_{n,m} <m|q'_theta>, with theta = 0
    the position basis and theta = pi/2 the momentum basis. With
    psi[n, i] = psi_n(q_i) real and M = U^† rho U, U = diag(e^{i n theta}),
    the table is psi^T Re(M) psi + i psi^T Im(M) psi, in real arithmetic.
    The real part is symmetrised and the imaginary part antisymmetrised, so
    the table is exactly Hermitian. The imaginary part is computed only when
    Im(M) has a nonzero element; otherwise it is exact +0.0. With the exact
    phase factors that holds for any real rho at theta = 0, and at theta =
    pi/2 for a real rho that vanishes wherever n - m is odd.
    """
    q = np.asarray(axis, dtype=float)
    elements = np.asarray(rho.elements)
    dim = elements.shape[0]
    psi = hermite_functions(dim - 1, q)
    u = _phase_factors(theta, dim)[0]
    m = u.conj()[:, None] * elements * u[None, :]
    values = np.zeros((q.size, q.size), dtype=complex)
    re = psi.T @ m.real @ psi
    values.real = 0.5 * (re + re.T)
    if np.any(m.imag):
        im = psi.T @ m.imag @ psi
        values.imag = 0.5 * (im - im.T)
    return QuadDensityMatrix(axis=q, values=values, theta=theta)


def _marginals(rho: DensityMatrix, thetas, q: np.ndarray) -> np.ndarray:
    """Pr(q | theta) = b_theta · Phi(q), one row per angle (radians)."""
    elements = np.asarray(rho.elements)
    dim = elements.shape[0]
    return _coefficients(elements, _phase_factors(thetas, dim)) @ _phi_table(dim - 1, q)


def marginal(rho: DensityMatrix, theta: float, axis: np.ndarray) -> np.ndarray:
    """Probability density Pr(q | theta), the diagonal of rho_quad: one angle of the sweep."""
    return _marginals(rho, theta, axis)[0]


def marginal_sweep(rho: DensityMatrix, angles_deg: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Stack of marginals, one row per angle (degrees): one product of the
    angles' coefficients with the phi table of the axis, with the phase
    factors exact at 0 and 90 degrees."""
    thetas = np.deg2rad(np.asarray(angles_deg, dtype=float))
    return _marginals(rho, thetas, axis)


def origin_parity(rho: DensityMatrix) -> float:
    """(1/pi)·sum_n (-1)^n rho_{n,n}; equals the Wigner function at the origin."""
    signs = (-1.0) ** np.arange(rho.config.dim)
    return float(np.dot(signs, rho.diagonal) / np.pi)


def _basis_label(theta: float) -> str:
    if abs(theta) < 1e-12:
        return "position"
    if abs(theta - np.pi / 2) < 1e-12:
        return "momentum"
    return "angle"


def _grid_blocks(axis1, axis2, *columns):
    """Row blocks of a grid CSV: axis1 value, axis2 column, then each grid column's row.

    Every grid column is formatted in one batch, so each distinct value of the
    whole grid is formatted once, and then sliced by row.
    """
    first, second = fields(axis1), fields(axis2)
    texts = [fields(c) for c in columns]
    n = len(second)
    for i, a in enumerate(first):
        yield (a, second, *(t[i * n : (i + 1) * n] for t in texts))


def save_quad_csv(qdm: QuadDensityMatrix, path) -> None:
    """Grid CSV: '# basis=<...> theta=<deg>' header, then axis1,axis2,re,im rows."""
    theta_deg = float(np.rad2deg(qdm.theta))
    head = [f"# basis={_basis_label(qdm.theta)} theta={theta_deg!r}", "axis1,axis2,re,im"]
    write_rows(path, head, _grid_blocks(qdm.axis, qdm.axis, qdm.values.real, qdm.values.imag))


def save_wigner_csv(grid: WignerGrid, path) -> None:
    """Grid CSV for W(x, p): axis1 = x, axis2 = p, re = W."""
    head = ["# basis=wigner theta=0.0", "axis1,axis2,re"]
    write_rows(path, head, _grid_blocks(grid.x_axis, grid.p_axis, grid.values))


def save_marginal_sweep_csv(angles_deg, axis, sweep: np.ndarray, path) -> None:
    """Long-format CSV of a marginal sweep: theta_deg, q, density."""
    head = ["# basis=marginal-sweep", "theta_deg,q,density"]
    write_rows(path, head, _grid_blocks(angles_deg, axis, sweep))


class CoherencePeak(NamedTuple):
    position: float
    diagonal_value: float
    off_diagonal_value: float


def _coherence_profile(rho: DensityMatrix, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re rho(q, q) and Re rho(q, -q) in the momentum basis, along q; the
    second is sum M[n, m]·(-1)^m·psi_n(q)·psi_m(q), M = Re(U^† rho U)."""
    elements = np.asarray(rho.elements)
    dim = elements.shape[0]
    u = _phase_factors(math.pi / 2, dim)
    b = _coefficients(elements, np.vstack([u, u]), np.vstack([u, u * (-1.0) ** np.arange(dim)]))
    diagonal, antidiagonal = b @ _phi_table(dim - 1, q)
    return diagonal, antidiagonal


def coherence_peak(rho: DensityMatrix) -> CoherencePeak:
    """Locate the non-negative peak of the momentum diagonal rho(p, p) and read
    rho(p, -p) there.

    The off-diagonal value at the diagonal peaks is the interference witness
    separating coherent superpositions from classical mixtures. It is read on
    one fixed axis, -6..6 with 241 points, so it is a property of the state
    alone; a peak beyond |p| = 6 is read at the edge.
    """
    q = _COHERENCE_AXIS
    diagonal, antidiagonal = _coherence_profile(rho, q)
    half = np.flatnonzero(q >= 0.0)
    idx = half[np.argmax(diagonal[half])]
    return CoherencePeak(float(q[idx]), float(diagonal[idx]), float(antidiagonal[idx]))
