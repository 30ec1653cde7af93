import json
import math

import numpy as np
import pytest

from catsim.errors import (
    CatsimError,
    DimensionMismatch,
    DomainError,
    SchemaError,
    TruncationError,
    ZeroStateError,
)
from catsim.fock import (
    DensityMatrix,
    SqueezeSpec,
    StateVector,
    _phase_factors,
    cat_state,
    coherent_state,
    fidelity,
    hermite_functions,
    load_density_matrix,
    mean_photon,
    mixed_coherent,
    quadrature_basis,
    save_density_matrix,
    squeezed_vacuum,
)
from oracles import apply_annihilation

CUTOFF = 30
R_6P5_DB = 6.5 * math.log(10.0) / 20.0


def vacuum(cutoff=CUTOFF):
    amps = np.zeros(cutoff + 1)
    amps[0] = 1.0
    return StateVector(amps)


def fock(n, cutoff=CUTOFF):
    amps = np.zeros(cutoff + 1)
    amps[n] = 1.0
    return StateVector(amps)


# ---------------------------------------------------------------- configs


def test_a_state_takes_its_cutoff_from_its_array(tmp_path):
    assert DensityMatrix(np.diag([1.0, 0, 0, 0, 0, 0])).config.cutoff == 5
    for bad in (np.ones((3, 4)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(bad)
    with pytest.raises(DimensionMismatch):
        StateVector(np.eye(3)[:1])
    with pytest.raises(DomainError, match="cutoff must be >= 1, got 0"):
        StateVector(np.ones(1))
    with pytest.raises(DomainError, match="cutoff must be >= 1, got 0"):
        DensityMatrix(np.ones((1, 1)))
    payload = vacuum(6).to_density().to_dict()
    path = tmp_path / "rho.json"
    for cutoff in (5, 6.9, "6", 6.0, True):  # only the int 6 fits the 7-row matrix
        path.write_text(json.dumps(dict(payload, cutoff=cutoff)))
        with pytest.raises(SchemaError, match=f"cutoff {cutoff!r} does not fit"):
            load_density_matrix(path)


def test_squeeze_spec_db_conversion():
    spec = SqueezeSpec.from_db(5.0)
    assert abs(spec.r - 0.5756) < 1e-4
    assert abs(SqueezeSpec.from_db(6.5).r - R_6P5_DB) < 1e-15
    # round trip db -> r -> db
    for db in (0.0, 3.0, 5.0, 6.5, 13.7):
        assert SqueezeSpec.from_db(db).level_db == pytest.approx(db, rel=1e-14, abs=1e-14)
    for r in (0.0, 0.3, 0.576, 1.2):
        assert SqueezeSpec.from_db(SqueezeSpec(r).level_db).r == pytest.approx(r, rel=1e-14, abs=1e-14)
    with pytest.raises(DomainError):
        SqueezeSpec(-0.1)
    with pytest.raises(DomainError):
        SqueezeSpec.from_db(-1.0)


# ---------------------------------------------------------------- squeezed vacuum


def squeezed_coeff_oracle(r, k):
    """Closed form c_{2k} = (-tanh r)^k sqrt((2k)!)/(2^k k!) / sqrt(cosh r)."""
    return (
        (-math.tanh(r)) ** k
        * math.sqrt(math.factorial(2 * k))
        / (2**k * math.factorial(k))
        / math.sqrt(math.cosh(r))
    )


def test_squeezed_vacuum_identity_case():
    sv = squeezed_vacuum(SqueezeSpec(0.0), CUTOFF)
    assert sv.amplitudes[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.abs(sv.amplitudes[1:]) == 0.0)


def test_squeezed_vacuum_matches_closed_form():
    r = R_6P5_DB
    sv = squeezed_vacuum(SqueezeSpec(r), CUTOFF)
    # ratios are free of the post-truncation renormalization
    for k in range(1, 15):
        got = (sv.amplitudes[2 * k] / sv.amplitudes[0]).real
        want = squeezed_coeff_oracle(r, k) / squeezed_coeff_oracle(r, 0)
        assert got == pytest.approx(want, rel=1e-10)
    # absolute values agree up to the discarded tail weight
    for k in range(0, 15):
        assert sv.amplitudes[2 * k].real == pytest.approx(squeezed_coeff_oracle(r, k), rel=1e-6)
    ratio = abs(sv.amplitudes[2] / sv.amplitudes[0])
    assert ratio == pytest.approx(math.tanh(r) / math.sqrt(2.0), rel=1e-10)


def test_squeezed_vacuum_even_support():
    sv = squeezed_vacuum(SqueezeSpec(0.9), 40)
    assert np.all(np.abs(sv.amplitudes[1::2]) < 1e-14)


def test_squeezed_vacuum_mean_photon_is_sinh_squared():
    r = R_6P5_DB
    sv = squeezed_vacuum(SqueezeSpec(r), CUTOFF)
    assert mean_photon(sv.to_density()) == pytest.approx(math.sinh(r) ** 2, abs=1e-4)


def test_squeezed_vacuum_truncation_error():
    with pytest.raises(TruncationError, match="raise the cutoff$"):
        squeezed_vacuum(SqueezeSpec(1.5), 8)


@pytest.mark.parametrize("r, cutoff", [(0.3, 10), (0.4, 12), (0.5, 14)])
def test_squeezed_vacuum_tail_bound_sits_at_one_in_a_million(r, cutoff):
    squeezed_vacuum(SqueezeSpec(r), cutoff)
    with pytest.raises(TruncationError, match="exceeds 1.0e-06"):
        squeezed_vacuum(SqueezeSpec(r), cutoff - 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "make",
    [
        lambda: coherent_state(math.nan, 5),
        lambda: coherent_state(math.inf, 5),
        lambda: cat_state(math.nan, "even", 5),
    ],
    ids=["coherent-nan", "coherent-inf", "cat-nan"],
)
def test_non_finite_alpha_is_refused(make):
    with pytest.raises(CatsimError):
        make()


# ---------------------------------------------------------------- coherent / cat / mixture


def test_coherent_state_vacuum_case():
    st = coherent_state(0.0, CUTOFF)
    assert st.amplitudes[0] == pytest.approx(1.0)


def test_coherent_state_mean_photon():
    st = coherent_state(2.5j, CUTOFF)
    assert mean_photon(st.to_density()) == pytest.approx(6.25, abs=1e-4)


def test_coherent_state_opposite_overlap():
    # |<a|-a>| = exp(-2|a|^2); at a = 2.5i the oracle value is 3.7267e-6
    plus = coherent_state(2.5j, CUTOFF)
    minus = coherent_state(-2.5j, CUTOFF)
    assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) == pytest.approx(math.exp(-12.5), rel=1e-3)


def test_cat_state_parity_support():
    even = cat_state(2.5j, "even", CUTOFF)
    odd = cat_state(2.5j, "odd", CUTOFF)
    assert np.all(np.abs(even.amplitudes[1::2]) == 0.0)
    assert np.all(np.abs(odd.amplitudes[0::2]) == 0.0)


def test_cat_state_small_alpha_limit_is_vacuum():
    even = cat_state(1e-4, "even", CUTOFF)
    assert abs(even.amplitudes[0]) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("alpha", [1e-4j, 1e-8j, 1e-9j, 1e-150])
def test_odd_cat_small_alpha_limit_is_one_photon(alpha):
    # 1 - e^{-2|alpha|^2} loses its digits as alpha -> 0, and is 0 below |alpha| ~ 7e-9
    odd = cat_state(alpha, "odd", CUTOFF)
    assert abs(odd.amplitudes[1]) == pytest.approx(1.0, abs=1e-7)


def test_odd_cat_at_zero_alpha_rejected():
    with pytest.raises(DomainError):
        cat_state(0.0, "odd", CUTOFF)


@pytest.mark.parametrize("alpha", [1e-200j, 1e-163])
def test_odd_cat_where_alpha_squared_underflows_is_rejected(alpha):
    with pytest.raises(DomainError, match="undefined where"):
        cat_state(alpha, "odd", CUTOFF)


def test_mixed_coherent_vacuum_case():
    rho = mixed_coherent(0.0, CUTOFF)
    assert rho.elements[0, 0].real == pytest.approx(1.0)


def test_mixed_coherent_purity():
    rho = mixed_coherent(2.5j, CUTOFF)
    purity = np.sum(np.abs(rho.elements) ** 2)
    assert purity == pytest.approx((1.0 + math.exp(-4 * 6.25)) / 2.0, abs=1e-10)
    assert np.trace(rho.elements).real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- annihilation


def test_annihilation_single_photon():
    st, norm2 = apply_annihilation(fock(1))
    assert norm2 == pytest.approx(1.0, abs=1e-12)
    assert abs(st.amplitudes[0]) == pytest.approx(1.0)


def test_annihilation_of_vacuum_rejected():
    with pytest.raises(ZeroStateError):
        apply_annihilation(vacuum())


def test_annihilation_norm_is_mean_photon():
    sv = squeezed_vacuum(SqueezeSpec(0.576), CUTOFF)
    _, norm2 = apply_annihilation(sv)
    assert norm2 == pytest.approx(mean_photon(sv.to_density()), rel=1e-12)


def test_four_annihilations_keep_even_support():
    st = squeezed_vacuum(SqueezeSpec(0.576), CUTOFF)
    parity = 0
    for _ in range(4):
        st, _ = apply_annihilation(st)
        parity ^= 1
    # four subtractions return to even support
    assert np.all(np.abs(st.amplitudes[1::2]) < 1e-14)


def test_annihilation_parity_bookkeeping():
    st = squeezed_vacuum(SqueezeSpec(0.576), CUTOFF)
    for k in range(1, 5):
        st, _ = apply_annihilation(st)
        wrong = st.amplitudes[(1 - k % 2) :: 2] if k % 2 == 1 else st.amplitudes[1::2]
        assert np.all(np.abs(wrong) < 1e-14)


# ---------------------------------------------------------------- metrics


def test_mean_photon_values():
    assert mean_photon(vacuum().to_density()) == 0.0
    r = R_6P5_DB
    sv = squeezed_vacuum(SqueezeSpec(r), CUTOFF)
    assert mean_photon(sv.to_density()) == pytest.approx(math.sinh(r) ** 2, abs=1e-4)


def test_fidelity_basic_cases():
    v = vacuum().to_density()
    one = fock(1).to_density()
    assert fidelity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(v, one) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(v, one) == fidelity(one, v)


def test_fidelity_vacuum_vs_lossy_photon():
    # loss eta=0.85 on |1><1| leaves diag(0.15, 0.85); overlap with vacuum = 0.15
    lossy = DensityMatrix(np.diag([0.15, 0.85]).astype(complex))
    v = np.zeros(2)
    v[0] = 1.0
    assert fidelity(StateVector(v).to_density(), lossy) == pytest.approx(0.15, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(vacuum().to_density(), vacuum(5).to_density())


# ---------------------------------------------------------------- quadrature wavefunctions


def hermite_series(n, x):
    """H_n(x) by the explicit factorial series, usable up to n ~ 10."""
    total = 0.0
    for m in range(n // 2 + 1):
        total += (
            (-1) ** m
            * math.factorial(n)
            / (math.factorial(m) * math.factorial(n - 2 * m))
            * (2 * x) ** (n - 2 * m)
        )
    return total


def psi_series(n, x):
    return (
        math.pi**-0.25
        / math.sqrt(2.0**n * math.factorial(n))
        * hermite_series(n, x)
        * math.exp(-0.5 * x * x)
    )


def test_quadrature_wavefunction_reference_values():
    assert quadrature_basis(0, 0.0, 0.0)[0, 0] == pytest.approx(math.pi**-0.25, abs=1e-12)
    for theta in (0.0, 0.7, math.pi / 2):
        assert abs(quadrature_basis(1, 0.0, theta)[1, 0]) < 1e-14


def test_quadrature_wavefunction_momentum_phase():
    # theta = pi/2 multiplies psi_n by i^n
    q = 0.83
    for n in range(6):
        val = quadrature_basis(n, q, math.pi / 2)[n, 0]
        assert val == pytest.approx((1j) ** n * psi_series(n, q), rel=1e-10)


def test_recurrence_matches_factorial_series():
    qs = np.linspace(-3.0, 3.0, 11)
    basis = quadrature_basis(10, qs, 0.0)
    for n in range(11):
        for i, q in enumerate(qs):
            assert basis[n, i].real == pytest.approx(psi_series(n, q), abs=1e-10)


def test_hermite_functions_match_the_row_expression_bitwise():
    q = np.concatenate([[-np.inf, np.inf, -0.0, 60.0, -54.6, 37.6], np.linspace(-9.0, 9.0, 37)])
    qc = np.clip(q, -60.0, 60.0)
    half = np.exp(-0.25 * qc * qc)
    psi = np.zeros((37, q.size))
    psi[0] = np.pi**-0.25 * half
    psi[1] = math.sqrt(2.0) * qc * psi[0]
    for n in range(1, 36):
        psi[n + 1] = math.sqrt(2.0 / (n + 1)) * qc * psi[n] - math.sqrt(n / (n + 1)) * psi[n - 1]
    assert np.array_equal(hermite_functions(36, q), psi * half)


def test_quadrature_basis_is_hermite_functions_times_phases():
    qs = np.linspace(-4.0, 4.0, 9)
    psi = hermite_functions(12, qs)
    assert psi.dtype == np.float64
    assert np.array_equal(quadrature_basis(12, qs, 0.0), psi)
    phases = np.exp(1j * np.arange(13) * 0.7)
    assert np.array_equal(quadrature_basis(12, qs, 0.7), psi * phases[:, None])
    # e^{i n pi/2} is exactly i^n, as in every other phase factor of the package
    i_n = np.array([1.0, 1j, -1.0, -1j])[np.arange(13) % 4]
    assert np.array_equal(quadrature_basis(12, qs, math.pi / 2), psi * i_n[:, None])


def test_phase_rotation_by_a_quarter_turn_is_exact():
    # a real state with no elements between odd and even n stays exactly real
    rho = squeezed_vacuum(SqueezeSpec(0.5), 20).to_density()
    u = _phase_factors(math.pi / 2, 21)[0]
    rotated = u.conj()[:, None] * rho.elements * u[None, :]
    assert np.all(rotated.imag == 0)
    signs = (-1.0) ** (np.arange(21)[:, None] // 2 + np.arange(21)[None, :] // 2)
    assert np.array_equal(rotated.real, signs * rho.elements.real)


def test_wavefunction_normalization():
    # numeric quadrature oracle; wider grid so the n = 30 orbit fits
    q = np.linspace(-10.0, 10.0, 2001)
    basis = quadrature_basis(30, q, 0.0).real
    for n in range(31):
        assert np.trapezoid(basis[n] ** 2, q) == pytest.approx(1.0, abs=1e-8)
    # the default -6..6 window holds the full norm to 1e-8 up to n = 6;
    # beyond that the orbit tail spills past the window edge
    q6 = np.linspace(-6.0, 6.0, 241)
    b6 = quadrature_basis(6, q6, 0.0).real
    for n in range(7):
        assert np.trapezoid(b6[n] ** 2, q6) == pytest.approx(1.0, abs=1e-8)


def test_wavefunction_rejects_negative_index():
    with pytest.raises(DomainError):
        quadrature_basis(-1, 0.0)


# ---------------------------------------------------------------- type invariants and IO


def test_state_vector_rejects_bad_norm():
    with pytest.raises(DomainError):
        StateVector(np.ones(CUTOFF + 1))


def test_density_matrix_invariants_enforced():
    bad_trace = np.eye(CUTOFF + 1, dtype=complex)
    with pytest.raises(DomainError):
        DensityMatrix(bad_trace)
    non_herm = np.zeros((CUTOFF + 1, CUTOFF + 1), dtype=complex)
    non_herm[0, 0] = 1.0
    non_herm[0, 1] = 0.1
    with pytest.raises(DomainError):
        DensityMatrix(non_herm)


def test_density_matrix_embed_truncate():
    sv = squeezed_vacuum(SqueezeSpec(0.5), 20)
    rho = sv.to_density()
    big = rho.embed(30)
    assert big.config.cutoff == 30
    assert np.trace(big.elements).real == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(big.elements[:21, :21], rho.elements)
    with pytest.raises(DomainError, match="below the current 20"):
        rho.embed(10)


def test_density_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    dm = DensityMatrix(rho)
    path = tmp_path / "rho.json"
    save_density_matrix(dm, path)
    back = load_density_matrix(path)
    assert np.array_equal(back.elements, dm.elements)
    assert back.config == dm.config


def test_states_compare_by_identity_and_hash():
    a, b = coherent_state(1.0, 10), coherent_state(1.0, 10)
    for x, y in ((a, b), (a.to_density(), b.to_density())):
        assert x == x and x != y  # equal values, two objects: no ambiguous array truth value
        assert len({x, y, x}) == 2


def test_states_are_immutable():
    sv = squeezed_vacuum(SqueezeSpec(0.3), 12)
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.0
    rho = sv.to_density()
    with pytest.raises(ValueError):
        rho.elements[0, 0] = 0.0
