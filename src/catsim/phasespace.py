"""Continuous-variable pictures: Wigner functions, quadrature-basis density
matrices, and marginal distributions, all derived from a Fock-basis state.

The Wigner function is normalized so that its double integral is 1 and the
vacuum peaks at 1/pi; its value at the origin is 1/pi times the photon-number
parity expectation. W is a real bilinear form on the phi_k table below:
  W(x, p) = sum_{a,b} C[a, b]·phi_a(x)·phi_b(p),
so a grid is two real matrix products. It follows from
W = (1/pi)·∫ e^{-2ipy} <x+y|rho|x-y> dy and the 50:50 beam-splitter identity
  psi_n(x+y)·psi_m(x-y) = sum_k B^{nm}_k·psi_k(sqrt(2)·x)·psi_{N-k}(sqrt(2)·y),
N = n + m, with the Fourier transform of psi_j(sqrt(2)·y) equal to
sqrt(pi)·(-i)^j·psi_j(sqrt(2)·p). C[a, b] is nonzero only where a + b = n + m
for some element rho[n, m].

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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .export import fields, write_rows
from .fock import DensityMatrix, _phase_factors, hermite_functions
from .fock import quadrature_basis  # noqa: F401  (benchmarks/tracing.py patches this name)


def grid_axis(lo: float, hi: float, points: int) -> np.ndarray:
    """np.linspace(lo, hi, points), made exactly antisymmetric when lo = -hi.

    linspace's upper half differs from the negated lower half in the last
    bits. On a symmetric axis the upper half is the exact negation of the
    lower one and an odd axis has an exact 0.0 centre, so values that
    mirror each other on a grid of a parity-definite state are bitwise
    equal and formatted once.
    """
    axis = np.linspace(lo, hi, points)
    if lo == -hi:
        half = points // 2
        axis[points - half :] = -axis[:half][::-1]
        if points % 2:
            axis[half] = 0.0
    return axis


_COHERENCE_AXIS = grid_axis(-6.0, 6.0, 241)  # the one axis coherence_peak reads on
_COHERENCE_AXIS.setflags(write=False)


@lru_cache(maxsize=None)
def _beam_splitter_map(cutoff: int) -> np.ndarray:
    """G[N, n, a] = B^{n, N-n}_a, the 50:50 beam-splitter amplitude
    <a, N-a| BS |n, N-n>, for N <= 2·cutoff and n, N - n <= cutoff (exact
    zero elsewhere), as a read-only (2·cutoff+1, cutoff+1, 2·cutoff+1) array
    built once per cutoff.

    B^{nm}_a is 2^{-N/2}·sqrt(a!(N-a)!/(n!m!)) times the coefficient of c^a in
    (c + 1)^n·(c - 1)^m. Those integer coefficients come from the two
    polynomial recurrences in Python integers, so they are exact, and
    sqrt(a!(N-a)!/(n!m!)) = sqrt(C(N, n)/C(N, a)) keeps the scale in float
    range: each entry is a few ulp from the exact value.
    """
    dim, big = cutoff + 1, 2 * cutoff + 1
    t = np.zeros((dim, dim, big), dtype=object)
    t[0, 0, 0] = 1
    for m in range(cutoff):  # (c - 1)^(m+1) = c·(c - 1)^m - (c - 1)^m
        t[0, m + 1, 1:] = t[0, m, :-1]
        t[0, m + 1] -= t[0, m]
    for n in range(cutoff):  # (c + 1)^(n+1)·(c - 1)^m, for every m at once
        t[n + 1, :, 1:] = t[n, :, :-1]
        t[n + 1] += t[n]
    binom = np.array([[float(math.comb(N, a)) for a in range(big)] for N in range(big)])
    n, m, a = np.ogrid[:dim, :dim, :big]
    total = n + m
    ratio = binom[total, n] / np.where(a <= total, binom[total, a], 1.0)  # t is 0 for a > n + m
    b = t.astype(float) * np.sqrt(ratio) * 0.5 ** (total / 2)  # b[n, m, a]
    total, n = np.ogrid[:big, :dim]  # regroup by N = n + m
    inside = (total - n >= 0) & (total - n <= cutoff)
    g = b[n, np.clip(total - n, 0, cutoff)] * inside[:, :, None]
    g.setflags(write=False)
    return g


def _wigner_coefficients(rho: np.ndarray) -> np.ndarray:
    """The real matrix C with W(x, p) = sum_{a,b} C[a, b]·phi_a(x)·phi_b(p).

    C[a, N-a] = (2·pi)^{-1/2}·sum_{n+m=N} rho[n, m]·B^{nm}_a·(-i)^{N-a}. As
    B^{mn}_a = (-1)^{N-a}·B^{nm}_a and rho is Hermitian, the sum takes Re rho
    on even b = N - a and i·Im rho on odd b, so C is real: with the phase,
    C[a, b] = (-1)^{floor(b/2)}·(2·pi)^{-1/2}·sum_n B^{n,N-n}_a·(Re or Im)rho[n, N-n].
    """
    cutoff = rho.shape[0] - 1
    big = 2 * cutoff + 1
    n = np.arange(cutoff + 1)
    pairs = rho[n, np.clip(np.arange(big)[:, None] - n, 0, cutoff)]  # rho[n, N-n] where G is nonzero
    sums = np.zeros((2 * big, 2, big))  # [N, Re/Im, a]; rows N > 2·cutoff stay zero
    sums[:big] = np.stack([pairs.real, pairs.imag], axis=1) @ _beam_splitter_map(cutoff)
    a, b = np.ogrid[:big, :big]
    return sums[a + b, b % 2, a] * ((-1.0) ** (b // 2) / math.sqrt(2.0 * math.pi))


def wigner(rho: DensityMatrix, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """W[i, j] = W(x_i, p_j) on the grid of two axes: Phi(x)^T·C·Phi(p)."""
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    elements = np.asarray(rho.elements)
    cutoff = elements.shape[0] - 1
    c = _wigner_coefficients(elements)
    return (_phi_table(cutoff, x_axis).T @ c) @ _phi_table(cutoff, p_axis)


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


def _phase_table(u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """P[t, n, m] = conj(u[t, n])·v[t, m] for each row of the phase factors u
    (and v, which defaults to u), so that P[t] ∘ rho = U_t^† rho V_t."""
    v = u if v is None else v
    return u.conj()[:, :, None] * v[:, None, :]


def _coefficients(rho: np.ndarray, phases: np.ndarray, in_place: bool = False) -> np.ndarray:
    """b[t] = A·vec(Re(phases[t] ∘ rho)), one row per phase table of
    `_phase_table(u, v)`, so that
      b[t] · Phi(q) = Re sum_{n,m} conj(u[t, n])·rho[n, m]·v[t, m]·psi_n(q)·psi_m(q).
    With v = u that is Pr(q | theta_t). A caller that built `phases` for
    this one call passes in_place=True: the product then overwrites the
    table instead of filling a second array of its size, whose fresh pages
    cost more than the product (about 1700 page faults, 3 ms, for 181
    angles at cutoff 30)."""
    m = np.multiply(phases, rho, out=phases if in_place else None).real
    return m.reshape(len(m), -1) @ _product_map(rho.shape[0] - 1).T


def rho_quad(rho: DensityMatrix, theta: float, axis: np.ndarray) -> np.ndarray:
    """Table rho(q_i, q_j) of the density matrix in the rotated quadrature basis.

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
    return values


def _marginals(rho: DensityMatrix, thetas, q: np.ndarray) -> np.ndarray:
    """Pr(q | theta) = b_theta · Phi(q), one row per angle (radians)."""
    elements = np.asarray(rho.elements)
    dim = elements.shape[0]
    phases = _phase_table(_phase_factors(thetas, dim))
    return _coefficients(elements, phases, in_place=True) @ _phi_table(dim - 1, q)


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
    signs = (-1.0) ** np.arange(len(rho.diagonal))
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


def save_quad_csv(axis, theta: float, values: np.ndarray, path) -> None:
    """Grid CSV of rho_quad at theta: '# basis=<...> theta=<deg>', then axis1,axis2,re,im rows."""
    theta_deg = float(np.rad2deg(theta))
    head = [f"# basis={_basis_label(theta)} theta={theta_deg!r}", "axis1,axis2,re,im"]
    write_rows(path, head, _grid_blocks(axis, axis, values.real, values.imag))


def save_wigner_csv(x_axis, p_axis, values: np.ndarray, path) -> None:
    """Grid CSV for W(x, p): axis1 = x, axis2 = p, re = W."""
    head = ["# basis=wigner theta=0.0", "axis1,axis2,re"]
    write_rows(path, head, _grid_blocks(x_axis, p_axis, values))


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
    phases = _phase_table(np.vstack([u, u]), np.vstack([u, u * (-1.0) ** np.arange(dim)]))
    b = _coefficients(elements, phases, in_place=True)
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
