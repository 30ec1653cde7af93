import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from catsim.channels import ExperimentParams, herald_subtract, input_state, loss_channel
from catsim.config import preset
from catsim.fock import (
    DensityMatrix,
    SqueezeSpec,
    StateVector,
    cat_state,
    quadrature_basis,
    squeezed_vacuum,
)
from catsim.phasespace import (
    _beam_splitter_map,
    _coherence_profile,
    _wigner_coefficients,
    coherence_peak,
    grid_axis,
    marginal,
    marginal_sweep,
    origin_parity,
    rho_quad,
    save_marginal_sweep_csv,
    save_quad_csv,
    save_wigner_csv,
    wigner,
)
from catsim.pipeline import _build_states
from oracles import beam_splitter_amplitude, laguerre_wigner, phase_rotated, wigner_integral_oracle

CUTOFF = 30


def fock_dm(n, cutoff=CUTOFF):
    amps = np.zeros(cutoff + 1)
    amps[n] = 1.0
    return StateVector(amps).to_density()


def random_dm(seed, cutoff=8):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


# the default [grids] quadrature axis, and the one coherence_peak reads on
AXIS = grid_axis(-6.0, 6.0, 241)
# the default [grids] Wigner axis
W_AXIS = grid_axis(-5.0, 5.0, 201)


def test_wigner_fock_state_origin_values():
    origin = 100  # W_AXIS[100] is exactly 0
    for n, want in ((0, 1 / math.pi), (1, -1 / math.pi)):
        assert wigner(fock_dm(n), W_AXIS, W_AXIS)[origin, origin] == pytest.approx(want, abs=1e-10)


def riemann_integral(rho, axis):
    return float(np.sum(wigner(rho, axis, axis))) * (axis[1] - axis[0]) ** 2


def test_wigner_normalization():
    sv = squeezed_vacuum(SqueezeSpec(0.576), CUTOFF)
    assert riemann_integral(sv.to_density(), W_AXIS) == pytest.approx(1.0, abs=2e-3)
    # the alpha = 2.5i cat lobes sit at +-3.54, so give them a wider window
    even = cat_state(2.5j, "even", CUTOFF)
    axis = np.linspace(-7.0, 7.0, 281)
    assert riemann_integral(even.to_density(), axis) == pytest.approx(1.0, abs=2e-3)


def test_wigner_integral_oracle_reference_points():
    assert wigner_integral_oracle(fock_dm(0, 6), 0.0, 0.0) == pytest.approx(
        1 / math.pi, abs=1e-8
    )
    sv = squeezed_vacuum(SqueezeSpec(0.576), 20)
    assert wigner_integral_oracle(sv.to_density(), 0.0, 0.0) == pytest.approx(
        1 / math.pi, abs=1e-8
    )


def test_wigner_cross_method_agreement():
    rng = np.random.default_rng(99)
    for seed in (1, 2, 3):
        rho = random_dm(seed, cutoff=6)
        pts = rng.normal(scale=1.3, size=(6, 2))
        for x, p in pts:
            direct = wigner(rho, [x], [p])[0, 0]
            oracle = wigner_integral_oracle(rho, float(x), float(p))
            assert direct == pytest.approx(oracle, abs=1e-6)


def _wigner_cases():
    cases = []
    for cutoff in (1, 2, 5, 15, 30):
        cases += [(f"fock_{n}_of_{cutoff}", fock_dm(n, cutoff)) for n in sorted({0, 1, cutoff})]
        cases.append((f"random_{cutoff}", random_dm(cutoff, cutoff=cutoff)))
    cases.append(("cat", cat_state(2.5j, "even", CUTOFF).to_density()))
    cases += list(_build_states(preset("default")).items())
    return dict(cases)


WIGNER_CASES = _wigner_cases()  # Fock, random complex, cat and every default state


@pytest.mark.parametrize("rho", list(WIGNER_CASES.values()), ids=list(WIGNER_CASES))
def test_wigner_bilinear_form_matches_laguerre_oracle(rho):
    xg, pg = np.meshgrid(W_AXIS[::4], W_AXIS[::4], indexing="ij")
    expected = laguerre_wigner(np.asarray(rho.elements), xg, pg)
    assert np.max(np.abs(wigner(rho, W_AXIS[::4], W_AXIS[::4]) - expected)) < 1e-14


@pytest.mark.parametrize("cutoff", [1, 2, 5, 15])
def test_beam_splitter_map_matches_exact_integer_formula(cutoff):
    g = _beam_splitter_map(cutoff)
    expected = np.zeros(g.shape)
    for total in range(2 * cutoff + 1):
        for n in range(max(0, total - cutoff), min(total, cutoff) + 1):
            for a in range(2 * cutoff + 1):
                expected[total, n, a] = beam_splitter_amplitude(n, total - n, a)
    assert np.max(np.abs(g - expected)) < 1e-15
    assert np.array_equal(g == 0.0, expected == 0.0)  # exact zeros where no pair n + m = N exists


def test_wigner_coefficients_are_the_real_form_of_the_complex_sum():
    rho = np.asarray(random_dm(5, cutoff=6).elements)
    big = 2 * 6 + 1
    expected = np.zeros((big, big), dtype=complex)
    for n in range(7):
        for m in range(7):
            for a in range(n + m + 1):
                b = n + m - a
                amp = beam_splitter_amplitude(n, m, a)
                expected[a, b] += rho[n, m] * amp * (-1j) ** b / math.sqrt(2.0 * math.pi)
    c = _wigner_coefficients(rho)
    assert c.dtype == float
    assert np.max(np.abs(expected.imag)) < 1e-15  # the complex sum is real for a Hermitian rho
    assert np.max(np.abs(c - expected.real)) < 1e-15


def test_beam_splitter_map_is_built_once_per_cutoff_and_read_only():
    g = _beam_splitter_map(7)
    assert _beam_splitter_map(7) is g
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0, 0] = 2.0


@pytest.mark.parametrize("points", [240, 241])
def test_grid_axis_is_exactly_antisymmetric_on_a_symmetric_range(points):
    axis = grid_axis(-6.0, 6.0, points)
    assert np.array_equal(axis, -axis[::-1])
    assert np.array_equal(np.signbit(axis), np.arange(points) < points // 2)  # no -0.0 centre
    assert np.max(np.abs(axis - np.linspace(-6.0, 6.0, points))) <= 2 * np.spacing(6.0)
    if points % 2:
        assert axis[points // 2] == 0.0


@pytest.mark.parametrize("bounds", [(-5.0, 6.0, 111), (0.0, 3.0, 31), (-6.0, 5.0, 241)])
def test_grid_axis_is_linspace_on_an_asymmetric_range(bounds):
    assert np.array_equal(grid_axis(*bounds), np.linspace(*bounds))


def test_default_state_tables_are_mirror_equal_on_a_symmetric_axis():
    rho = _build_states(preset("default"))["herald_3"]
    for theta in (0.0, math.pi / 2):
        values = rho_quad(rho, theta, AXIS)
        assert np.max(np.abs(values - values[::-1, ::-1])) < 1e-15
    sweep = marginal_sweep(rho, np.array([-90.0, -45.0, 0.0, 30.0, 90.0]), AXIS)
    assert np.max(np.abs(sweep - sweep[:, ::-1])) < 1e-15


def laguerre_expansion_wigner(rho, x, p):
    """W by the closed-form kernel with one eval_genlaguerre call per (n, d)."""
    r2 = x * x + p * p
    z = x - 1j * p
    w = np.zeros(np.broadcast(x, p).shape, dtype=complex)
    for d in range(rho.shape[0]):
        for n in range(rho.shape[0] - d):
            coef = np.exp(0.5 * (d * np.log(2.0) + gammaln(n + 1) - gammaln(n + d + 1)))
            lag = (-1.0) ** n * coef * eval_genlaguerre(n, d, 2.0 * r2)
            w += rho[n + d, n] * z**d * lag
            if d > 0:
                w += rho[n, n + d] * np.conj(z) ** d * lag
    return (np.exp(-r2) / np.pi * w).real


@pytest.mark.parametrize(
    "rho",
    [
        phase_rotated(cat_state(2.0 + 0.5j, "odd", CUTOFF).to_density(), 0.7),
        fock_dm(30),
    ],
    ids=["rotated_complex_cat", "fock_30"],
)
def test_wigner_recurrence_matches_laguerre_expansion(rho):
    axis = np.linspace(-5.0, 5.0, 41)
    xg, pg = np.meshgrid(axis, axis, indexing="ij")
    expected = laguerre_expansion_wigner(np.asarray(rho.elements), xg, pg)
    assert np.max(np.abs(wigner(rho, axis, axis) - expected)) < 1e-12


def einsum_marginal(rho, theta, q):
    """Oracle: Pr(q | theta) = sum_{n,m} conj(w_n(q)) rho_{n,m} w_m(q), w = <n|q_theta>."""
    w = quadrature_basis(rho.config.cutoff, q, theta)
    return np.einsum("ni,nm,mi->i", w.conj(), np.asarray(rho.elements), w).real


def test_marginal_sweep_matches_per_angle_marginals():
    rho = random_dm(5, cutoff=12)
    assert np.abs(rho.elements.imag).max() > 0.01
    angles = np.arange(-90.0, 91.0, 7.5)
    grid = np.linspace(-5, 5, 101)
    expected = np.stack([einsum_marginal(rho, np.deg2rad(a), grid) for a in angles])
    sweep = marginal_sweep(rho, angles, grid)
    assert np.max(np.abs(sweep - expected)) < 1e-12
    # marginal is the one-angle case of the sweep
    for a, row in zip(angles, sweep):
        assert np.max(np.abs(marginal(rho, np.deg2rad(a), grid) - row)) < 1e-14


def default_states():
    params = ExperimentParams()
    return [input_state(params)] + [herald_subtract(params.with_herald(n)).state for n in range(5)]


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 0.7])
def test_rho_quad_is_bitwise_hermitian_and_matches_the_complex_product(theta):
    rho = random_dm(11, cutoff=10)
    q = np.linspace(-4, 4, 61)
    values = rho_quad(rho, theta, q)
    assert np.array_equal(values, values.conj().T)
    assert np.all(values.diagonal().imag == 0)
    w = quadrature_basis(rho.config.cutoff, q, theta)  # the old w^† rho w table
    assert np.max(np.abs(values - w.conj().T @ np.asarray(rho.elements) @ w)) < 1e-13


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_rho_quad_of_default_states_has_exact_zero_imaginary_part(theta):
    for rho in default_states():
        im = rho_quad(rho, theta, AXIS).imag
        assert np.all(im == 0) and not np.any(np.signbit(im))


def test_rho_quad_vacuum_momentum_basis():
    values = rho_quad(fock_dm(0), math.pi / 2, AXIS)
    i0 = np.argmin(np.abs(AXIS))
    assert values[i0, i0].real == pytest.approx(1 / math.sqrt(math.pi), abs=1e-12)


def test_rho_quad_hermitian_structure():
    rho = random_dm(7)
    values = rho_quad(rho, 0.3, AXIS)
    assert np.max(np.abs(values - values.conj().T)) < 1e-12
    assert np.all(values.diagonal().real >= -1e-9)


def test_even_cat_momentum_peaks_and_overlap():
    even = cat_state(2.5j, "even", CUTOFF).to_density()
    pk = coherence_peak(even)
    assert pk.position == pytest.approx(math.sqrt(2) * 2.5, abs=0.05)
    # even-parity pure state: diagonal and anti-diagonal coincide at the peak
    assert pk.off_diagonal_value == pytest.approx(pk.diagonal_value, rel=0.02)


def test_even_parity_states_have_equal_diag_antidiag():
    for state in (
        squeezed_vacuum(SqueezeSpec(0.576), CUTOFF),
        cat_state(2.5j, "even", CUTOFF),
    ):
        diagonal, antidiagonal = _coherence_profile(state.to_density(), AXIS)
        assert np.max(np.abs(diagonal - antidiagonal)) < 1e-10


def coherence_states(source):
    if source == "default":
        return default_states()
    if source == "cat_panels":
        return list(_build_states(preset("cat_panels")).values())
    return [random_dm(seed, cutoff) for seed, cutoff in ((31, 8), (32, 15), (33, 30))]


@pytest.mark.parametrize("source", ["default", "cat_panels", "random"])
def test_coherence_peak_reads_the_rho_quad_table(source):
    q = AXIS
    for rho in coherence_states(source):
        table = rho_quad(rho, math.pi / 2, q)
        table_diagonal = table.diagonal().real
        diagonal, antidiagonal = _coherence_profile(rho, q)
        assert np.max(np.abs(diagonal - table_diagonal)) <= 1e-14
        assert np.max(np.abs(antidiagonal - table[:, ::-1].diagonal().real)) <= 1e-14
        half = np.flatnonzero(q >= 0.0)
        idx = half[np.argmax(table_diagonal[half])]
        peak = coherence_peak(rho)
        assert peak.position == q[idx]
        assert abs(peak.diagonal_value - table_diagonal[idx]) <= 1e-14
        assert abs(peak.off_diagonal_value - table[idx, q.size - 1 - idx].real) <= 1e-14


def test_loss_degrades_interference():
    even = cat_state(2.5j, "even", CUTOFF).to_density()
    before = abs(coherence_peak(even).off_diagonal_value)
    after = abs(coherence_peak(loss_channel(even, 0.7)).off_diagonal_value)
    assert after < before


def test_marginal_vacuum_variance():
    for theta in (0.0, 0.41, math.pi / 2):
        pdf = marginal(fock_dm(0), theta, AXIS)
        var = np.trapezoid(AXIS**2 * pdf, AXIS)
        assert var == pytest.approx(0.5, abs=1e-9)


def test_marginal_squeezed_variances():
    r = 0.576
    rho = squeezed_vacuum(SqueezeSpec(r), CUTOFF).to_density()
    squeezed_var = np.trapezoid(AXIS**2 * marginal(rho, 0.0, AXIS), AXIS)
    anti_var = np.trapezoid(AXIS**2 * marginal(rho, math.pi / 2, AXIS), AXIS)
    assert squeezed_var == pytest.approx(math.exp(-2 * r) / 2, rel=1e-6)
    assert anti_var == pytest.approx(math.exp(2 * r) / 2, rel=1e-4)


def test_marginal_is_normalized_density():
    rho = random_dm(3, cutoff=8)
    pdf = marginal(rho, 0.7, AXIS)
    assert np.all(pdf >= -1e-9)
    assert np.trapezoid(pdf, AXIS) == pytest.approx(1.0, abs=2e-3)


def test_radon_projection_matches_marginal():
    # marginal(theta)(q) = integral of W along the line
    # (q cos t - s sin t, q sin t + s cos t)
    rho = random_dm(21, cutoff=6)
    s = np.linspace(-8.0, 8.0, 1601)
    qs = np.linspace(-3.5, 3.5, 29)
    for theta in (0.0, 0.6, math.pi / 2, -0.8):
        pdf = marginal(rho, theta, qs)
        proj = np.empty_like(qs)
        for i, q in enumerate(qs):
            xs = q * math.cos(theta) - s * math.sin(theta)
            ps = q * math.sin(theta) + s * math.cos(theta)
            proj[i] = np.trapezoid(laguerre_wigner(rho.elements, xs, ps), s)
        assert np.max(np.abs(pdf - proj)) < 1e-4


def test_origin_parity_equals_wigner_origin():
    for rho in (fock_dm(0), fock_dm(1), random_dm(17, cutoff=8)):
        assert origin_parity(rho) == pytest.approx(wigner(rho, [0.0], [0.0])[0, 0], abs=1e-10)


def test_origin_parity_cat_values():
    even = cat_state(2.5j, "even", CUTOFF).to_density()
    odd = cat_state(2.5j, "odd", CUTOFF).to_density()
    assert origin_parity(even) == pytest.approx(1 / math.pi, abs=1e-12)
    assert origin_parity(odd) == pytest.approx(-1 / math.pi, abs=1e-12)


def test_marginal_sweep_shape():
    rho = squeezed_vacuum(SqueezeSpec(0.3), 12).to_density()
    angles = np.arange(-90.0, 91.0, 15.0)
    grid = np.linspace(-4, 4, 81)
    sweep = marginal_sweep(rho, angles, grid)
    assert sweep.shape == (angles.size, 81)
    sums = np.trapezoid(sweep, grid, axis=1)
    assert np.allclose(sums, 1.0, atol=2e-3)


def test_csv_exports(tmp_path):
    rho = squeezed_vacuum(SqueezeSpec(0.3), 8, tail_tol=1e-3).to_density()
    grid = np.linspace(-2, 2, 5)
    p_quad = tmp_path / "quad.csv"
    save_quad_csv(grid, math.pi / 2, rho_quad(rho, math.pi / 2, grid), p_quad)
    text = p_quad.read_text().splitlines()
    assert text[0].startswith("# basis=momentum theta=90.0")
    assert text[1] == "axis1,axis2,re,im"
    assert len(text) == 2 + 25

    w = wigner(rho, grid, grid)
    p_wig = tmp_path / "wig.csv"
    save_wigner_csv(grid, grid, w, p_wig)
    lines = p_wig.read_text().splitlines()
    assert lines[1] == "axis1,axis2,re"
    # values round-trip at full precision
    x, p, v = lines[2].split(",")
    assert float(v) == w[0, 0]

    sweep = marginal_sweep(rho, np.array([0.0, 90.0]), grid)
    p_sweep = tmp_path / "sweep.csv"
    save_marginal_sweep_csv(np.array([0.0, 90.0]), grid, sweep, p_sweep)
    assert len(p_sweep.read_text().splitlines()) == 2 + 2 * 5


# values whose text is easy to get wrong: signed zero, a subnormal, and one
# that needs all 17 significant digits
AWKWARD = np.array([-0.0, 5e-324, 0.1 + 0.2, -1.2345678901234567e-300, 3.0])


def f_string_grid_csv(head, axis1, axis2, columns):
    """The per-element writer that the batched rows must reproduce byte for byte."""
    lines = list(head)
    for i, a in enumerate(axis1):
        for j, b in enumerate(axis2):
            vals = "".join(f",{float(c[i, j])!r}" for c in columns)
            lines.append(f"{float(a)!r},{float(b)!r}{vals}")
    return ("\n".join(lines) + "\n").encode("ascii")


def test_quad_csv_bytes_match_per_element_writer(tmp_path):
    axis = np.array([-0.0, 5e-324, 0.30000000000000004, 1.0, 2.5])
    values = np.outer(AWKWARD, AWKWARD[::-1]) + 1j * np.outer(AWKWARD[::-1], AWKWARD)
    values[0, 0] = complex(-0.0, 5e-324)
    save_quad_csv(axis, math.pi / 2, values, tmp_path / "q.csv")
    expected = f_string_grid_csv(
        ["# basis=momentum theta=90.0", "axis1,axis2,re,im"], axis, axis, [values.real, values.imag]
    )
    assert (tmp_path / "q.csv").read_bytes() == expected


def test_wigner_csv_bytes_match_per_element_writer(tmp_path):
    x = AWKWARD.copy()
    p = np.array([-2.0, -0.0, 0.1 + 0.2])
    values = np.outer(AWKWARD, [1.0, -1.0, 5e-324])
    save_wigner_csv(x, p, values, tmp_path / "w.csv")
    expected = f_string_grid_csv(["# basis=wigner theta=0.0", "axis1,axis2,re"], x, p, [values])
    assert (tmp_path / "w.csv").read_bytes() == expected


def test_marginal_sweep_csv_bytes_match_per_element_writer(tmp_path):
    angles = np.array([-90.0, -0.0, 0.1 + 0.2])
    axis = AWKWARD.copy()
    sweep = np.outer([1.0, -0.0, 1.0 / 3.0], AWKWARD)
    save_marginal_sweep_csv(angles, axis, sweep, tmp_path / "m.csv")
    expected = f_string_grid_csv(
        ["# basis=marginal-sweep", "theta_deg,q,density"], angles, axis, [sweep]
    )
    assert (tmp_path / "m.csv").read_bytes() == expected
