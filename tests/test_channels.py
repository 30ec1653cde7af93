import configparser
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from catsim import channels
from catsim.channels import (
    ExperimentParams,
    _bs_amplitudes,
    _povm_diagonal,
    _tapped_branches,
    count_rate_table,
    herald_probabilities,
    herald_subtract,
    input_state,
    loss_channel,
)
from catsim.config import RunConfig
from catsim.errors import DomainError, TruncationBudgetError, ZeroProbabilityError
from catsim.fock import (
    DensityMatrix,
    SqueezeSpec,
    StateVector,
    coherent_state,
    fidelity,
    squeezed_vacuum,
)
from oracles import apply_annihilation, beam_splitter_amplitude, idler_loss

PAPER = ExperimentParams()
UNIT = st.floats(0.0, 1.0)


def fock_state(n, cutoff):
    amps = np.zeros(cutoff + 1)
    amps[n] = 1.0
    return StateVector(amps)


# ---------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(DomainError):
        ExperimentParams(opa_loss=1.2)
    with pytest.raises(DomainError):
        ExperimentParams(bs_reflectivity=0.0)
    with pytest.raises(DomainError):
        ExperimentParams(duty_cycle=0.0)
    with pytest.raises(DomainError):
        ExperimentParams(herald_n=-1)


def test_params_ini_section_roundtrip():
    text = RunConfig(experiment=PAPER).to_ini()
    cp = configparser.ConfigParser()
    cp.read_string(text)
    assert set(cp["experiment"]) == {
        "squeeze_db",
        "opa_loss",
        "bs_reflectivity",
        "idler_efficiency",
        "signal_efficiency",
        "herald_n",
        "rep_rate_hz",
        "duty_cycle",
        "cutoff",
        "idler_cutoff",
    }
    assert RunConfig.from_ini(text).experiment == PAPER


def test_paper_defaults():
    assert PAPER.squeeze.level_db == pytest.approx(6.5)
    assert PAPER.opa_loss == 0.05
    assert PAPER.bs_reflectivity == 0.81
    assert PAPER.idler_efficiency == 0.40
    assert PAPER.signal_efficiency == 0.85
    assert PAPER.rep_rate_hz == 5e6
    assert PAPER.duty_cycle == 0.5


# ---------------------------------------------------------------- loss channel


def test_loss_identity_and_total_loss():
    sv = squeezed_vacuum(SqueezeSpec(0.3), 10)
    rho = sv.to_density()
    out = loss_channel(rho, 1.0)
    assert np.allclose(out.elements, rho.elements)
    dark = loss_channel(rho, 0.0)
    assert dark.elements[0, 0].real == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(dark.elements)) == pytest.approx(1.0, abs=1e-10)


def test_loss_single_photon_two_kraus_oracle():
    # K_0 = diag(1, sqrt(eta)); K_1 = sqrt(1-eta)|0><1|: by hand diag(0.15, 0.85)
    one = fock_state(1, 1).to_density()
    out = loss_channel(one, 0.85)
    assert np.allclose(out.elements, np.diag([0.15, 0.85]), atol=1e-14)


def test_loss_trace_preserving():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    dm = DensityMatrix(rho)
    for eta in (0.0, 0.25, 0.6, 0.93, 1.0):
        out = loss_channel(dm, eta)
        assert np.trace(out.elements).real == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 0.8), eta1=UNIT, eta2=UNIT)
def test_loss_composition_identity(r, eta1, eta2):
    rho = squeezed_vacuum(SqueezeSpec(r), 28).to_density()
    a = loss_channel(loss_channel(rho, eta1), eta2)
    b = loss_channel(rho, eta1 * eta2)
    assert np.max(np.abs(a.elements - b.elements)) < 1e-10


def test_loss_rejects_bad_eta():
    rho = fock_state(0, 2).to_density()
    with pytest.raises(DomainError):
        loss_channel(rho, 1.5)


# ---------------------------------------------------------------- beam splitter


def split(state, reflectivity, idler_cutoff):
    return _bs_amplitudes(np.asarray(state.amplitudes), reflectivity, idler_cutoff)


def test_beamsplitter_full_reflection():
    sv = squeezed_vacuum(SqueezeSpec(0.2), 6)
    amps = split(sv, 1.0, 4)
    assert np.allclose(amps[:, 0], sv.amplitudes)
    assert np.all(amps[:, 1:] == 0)


def test_beamsplitter_single_photon_split():
    probs = np.abs(split(fock_state(1, 3), 0.81, 3)) ** 2
    assert probs[1, 0] == pytest.approx(0.81, abs=1e-14)
    assert probs[0, 1] == pytest.approx(0.19, abs=1e-14)


def test_beamsplitter_matches_the_50_50_oracle():
    # |n, 0> -> sum_s <s, n-s| BS |n, 0> |s, n-s>, the signal keeping s photons
    for n in range(11):
        amps = split(fock_state(n, 10), 0.5, 10)
        want = np.zeros(amps.shape)
        for s in range(n + 1):
            want[s, n - s] = beam_splitter_amplitude(n, 0, s)
        assert np.max(np.abs(amps - want)) < 1e-14


def test_beamsplitter_conserves_total_photon_number():
    sv = squeezed_vacuum(SqueezeSpec(0.4), 12)
    for refl in (0.3, 0.81, 0.97):
        amps = split(sv, refl, 12)
        total = np.add.outer(np.arange(13), np.arange(13)).ravel()
        marg = np.bincount(total, (np.abs(amps) ** 2).ravel())[:13]
        assert np.max(np.abs(marg - np.abs(sv.amplitudes) ** 2)) < 1e-10


def test_beamsplitter_budget():
    with pytest.raises(TruncationBudgetError):
        herald_subtract(replace(PAPER, idler_cutoff=200))  # 31 x 201 amplitudes


# ---------------------------------------------------------------- POVM


def test_povm_perfect_detector():
    for n in range(3):
        assert np.array_equal(_povm_diagonal(n, 1.0, 6), np.eye(7)[n])


def test_povm_binomial_table():
    assert np.allclose(_povm_diagonal(0, 0.4, 6)[:4], [1.0, 0.6, 0.36, 0.216], atol=1e-14)
    pi_1 = _povm_diagonal(1, 0.4, 6)
    # C(m,1)·0.4·0.6^{m-1}
    assert pi_1[1] == pytest.approx(0.4)
    assert pi_1[2] == pytest.approx(2 * 0.4 * 0.6)
    assert pi_1[3] == pytest.approx(3 * 0.4 * 0.36)


@given(eta=UNIT, idler_cutoff=st.integers(1, 40))
def test_povm_completeness(eta, idler_cutoff):
    total = sum(_povm_diagonal(n, eta, idler_cutoff) for n in range(idler_cutoff + 1))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_povm_bounds_and_errors():
    d = _povm_diagonal(2, 0.4, 8)
    assert np.all(d >= 0) and np.all(d <= 1)
    # herald number and efficiency are checked once, where the parameters are made
    ExperimentParams(herald_n=8, idler_cutoff=8)
    with pytest.raises(DomainError, match="herald_n 9 exceeds idler_cutoff 8"):
        ExperimentParams(herald_n=9, idler_cutoff=8)
    with pytest.raises(DomainError, match="idler_efficiency"):
        ExperimentParams(idler_efficiency=1.4)


# ---------------------------------------------------------------- heralding


def test_herald_trivial_passthrough():
    params = ExperimentParams(
        squeeze=SqueezeSpec(0.4),
        opa_loss=0.0,
        bs_reflectivity=1.0,
        idler_efficiency=1.0,
        signal_efficiency=1.0,
        herald_n=0,
        cutoff=16,
    )
    res = herald_subtract(params)
    assert res.herald_probability == pytest.approx(1.0, abs=1e-12)
    sv = squeezed_vacuum(SqueezeSpec(0.4), 16)
    assert fidelity(res.state, sv.to_density()) > 1 - 1e-12


def brute_force_two_mode_projection(c, refl, k):
    """Independent oracle: explicit binomial amplitudes, project idler on |k>."""
    dim = c.size
    out = np.zeros(dim, dtype=complex)
    for n in range(k, dim):
        out[n - k] = (
            c[n]
            * math.sqrt(math.comb(n, k))
            * refl ** ((n - k) / 2.0)
            * (1.0 - refl) ** (k / 2.0)
        )
    prob = float(np.sum(np.abs(out) ** 2))
    return out / math.sqrt(prob), prob


def test_herald_lossless_single_subtraction_oracles():
    r, refl = 0.3, 0.9
    params = ExperimentParams(
        squeeze=SqueezeSpec(r),
        opa_loss=0.0,
        bs_reflectivity=refl,
        idler_efficiency=1.0,
        signal_efficiency=1.0,
        herald_n=1,
        cutoff=10,
        idler_cutoff=8,
    )
    res = herald_subtract(params)

    # oracle 1: brute-force projection of the joint state
    sv = squeezed_vacuum(SqueezeSpec(r), 10)
    c_proj, _ = brute_force_two_mode_projection(np.asarray(sv.amplitudes), refl, 1)
    brute = StateVector(c_proj).to_density()
    assert fidelity(res.state, brute) > 1 - 1e-8

    # oracle 2: annihilation applied to the re-squeezed signal-arm state,
    # tanh r' = R tanh r
    r_eff = math.atanh(refl * math.tanh(r))
    resq = squeezed_vacuum(SqueezeSpec(r_eff), 10)
    sub, _ = apply_annihilation(resq)
    assert fidelity(res.state, sub.to_density()) > 1 - 1e-8


def test_zero_loss_heralding_parity():
    params = ExperimentParams(
        squeeze=SqueezeSpec(0.5),
        opa_loss=0.0,
        bs_reflectivity=0.8,
        idler_efficiency=1.0,
        signal_efficiency=1.0,
        cutoff=14,
        idler_cutoff=8,
    )
    for n in range(4):
        res = herald_subtract(params.with_herald(n))
        diag = res.state.diagonal
        wrong = diag[1::2] if n % 2 == 0 else diag[0::2]
        assert np.sum(np.abs(wrong)) < 1e-12


PARITY_CASES = [
    PAPER,
    ExperimentParams(opa_loss=0.0, idler_efficiency=1.0, signal_efficiency=1.0),
    ExperimentParams(
        squeeze=SqueezeSpec.from_db(3.0), opa_loss=0.2, bs_reflectivity=0.9,
        idler_efficiency=0.8, signal_efficiency=0.7, cutoff=20, idler_cutoff=6,
    ),
    ExperimentParams(squeeze=SqueezeSpec(0.3), opa_loss=0.5, bs_reflectivity=0.5, cutoff=15),
]


def odd_elements(rho):
    n = np.arange(rho.shape[0])
    return rho[(n[:, None] + n[None, :]) % 2 == 1]


def full_eigh_herald(params):
    """Oracle: herald states and idler probabilities from one eigh of the whole source."""
    source = squeezed_vacuum(params.squeeze, params.cutoff).to_density()
    source = loss_channel(source, 1.0 - params.opa_loss)
    vals, vecs = np.linalg.eigh(np.asarray(source.elements))
    branches = [
        (w, split(StateVector.normalize(v), params.bs_reflectivity, params.idler_cutoff))
        for w, v in zip(vals, vecs.T)
        if w >= 1e-15
    ]
    idler = sum(w * np.sum(np.abs(a) ** 2, axis=0) for w, a in branches)
    states, probs = [], []
    for n in range(params.idler_cutoff + 1):
        pi_n = _povm_diagonal(n, params.idler_efficiency, params.idler_cutoff)
        probs.append(float(pi_n @ idler))
        rho_u = sum(w * (a * pi_n) @ a.conj().T for w, a in branches)
        prob = np.trace(rho_u).real
        if prob > 1e-300:
            rho = DensityMatrix(0.5 * (rho_u + rho_u.conj().T) / prob)
            states.append(np.asarray(loss_channel(rho, params.signal_efficiency).elements))
        else:
            states.append(None)
    return states, np.array(probs)


@pytest.mark.parametrize("params", PARITY_CASES)
def test_herald_states_are_parity_exact_and_match_full_eigh(params):
    states, probs = full_eigh_herald(params)
    assert not np.any(odd_elements(np.asarray(input_state(params).elements)))
    for w, amps in _tapped_branches(params):
        s, k = np.nonzero(amps)
        assert np.unique((s + k) % 2).size == 1  # each branch has one photon-number parity
    for n in range(min(4, params.idler_cutoff) + 1):
        rho = np.asarray(herald_subtract(params.with_herald(n)).state.elements)
        assert not np.any(odd_elements(rho))
        assert np.max(np.abs(rho - states[n])) < 1e-12
    assert np.max(np.abs(herald_probabilities(params) - probs)) < 1e-12


def test_source_coupling_parities_is_refused(monkeypatch):
    monkeypatch.setattr(
        channels, "squeezed_vacuum", lambda spec, cutoff: coherent_state(0.5, cutoff)
    )
    channels._source_branches.cache_clear()  # build the branches from the patched source
    with pytest.raises(DomainError, match="even and odd"):
        herald_subtract(PAPER.with_herald(1))


def test_povm_equals_idler_loss_channel():
    # brute force at idler cutoff 8: idler loss as a Kraus channel then an ideal
    # |n><n| projection must equal the deformed-POVM shortcut
    sv = squeezed_vacuum(SqueezeSpec(0.4), 12)
    amps = split(sv, 0.8, 8)
    lossy = idler_loss(amps, 0.4)
    for n in range(4):
        povm_route = (amps * _povm_diagonal(n, 0.4, 8)) @ amps.conj().T
        assert np.max(np.abs(lossy[:, n, :, n] - povm_route)) < 1e-10


def test_bs_phase_convention_independence():
    # heralded outcomes are identical for both signs of the beam-splitter
    # generator because the idler POVM is diagonal
    cut = 10
    dim = cut + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    down = np.kron(a, np.eye(dim))  # signal
    up = np.kron(np.eye(dim), a)  # idler
    refl = 0.75
    theta = math.acos(math.sqrt(refl))
    gen = down.conj().T @ up - down @ up.conj().T
    sv = squeezed_vacuum(SqueezeSpec(0.35), cut)
    joint_in = np.kron(np.asarray(sv.amplitudes), np.eye(dim)[0])
    for sign in (+1.0, -1.0):
        u = expm(sign * theta * gen)
        out = u @ joint_in
        amp = out.reshape(dim, dim)
        probs = np.sum(np.abs(amp) ** 2, axis=0)
        if sign > 0:
            ref = probs
        else:
            assert np.max(np.abs(probs - ref)) < 1e-12


def test_herald_probabilities_sum_to_one():
    probs = herald_probabilities(PAPER)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_count_rate_table_lossless_full_reflection():
    params = ExperimentParams(
        squeeze=SqueezeSpec(0.4),
        opa_loss=0.0,
        bs_reflectivity=1.0,
        idler_efficiency=1.0,
        signal_efficiency=1.0,
        cutoff=16,
        idler_cutoff=6,
    )
    table = count_rate_table(params, 4)
    assert table[0][1] == pytest.approx(1.0, abs=1e-12)
    for n, p, _rate in table[1:]:
        assert p < 1e-14


def test_count_rate_table_paper_regime():
    table = count_rate_table(PAPER, 4)
    probs = [p for _, p, _ in table]
    # monotone decreasing in the experimental regime
    assert all(probs[i] > probs[i + 1] for i in range(4))
    # the three-photon rate lands within x10 of the reported 200 cps
    rate3 = table[3][2]
    assert 20.0 <= rate3 <= 2000.0
    # rates follow probability x repetition x duty
    for n, p, rate in table:
        assert rate == pytest.approx(p * 2.5e6, rel=1e-12)
    # table probabilities agree with the heralded-state route
    res3 = herald_subtract(PAPER.with_herald(3))
    assert table[3][1] == pytest.approx(res3.herald_probability, rel=1e-10)


def test_count_rate_table_bounds():
    with pytest.raises(DomainError):
        count_rate_table(PAPER, PAPER.idler_cutoff + 1)


def test_lossy_n0_state_gains_odd_weight():
    res = herald_subtract(PAPER.with_herald(0))
    odd = res.state.diagonal[1::2].sum()
    assert odd > 0.01


def test_herald_zero_probability_error():
    params = ExperimentParams(
        squeeze=SqueezeSpec(0.0),  # vacuum input: no photons to subtract
        opa_loss=0.0,
        bs_reflectivity=0.9,
        idler_efficiency=1.0,
        signal_efficiency=1.0,
        herald_n=3,
        cutoff=8,
        idler_cutoff=6,
    )
    with pytest.raises(ZeroProbabilityError):
        herald_subtract(params)


def test_input_state_matches_loss_chain():
    rho = input_state(PAPER)
    sv = squeezed_vacuum(PAPER.squeeze, PAPER.cutoff)
    want = loss_channel(loss_channel(sv.to_density(), 0.95), 0.85)
    assert np.max(np.abs(rho.elements - want.elements)) < 1e-12


def test_tapped_branches_are_built_once_per_source_and_tap():
    channels._source_branches.cache_clear()
    for n in range(5):
        herald_subtract(PAPER.with_herald(n))
    herald_probabilities(replace(PAPER, idler_efficiency=0.3, signal_efficiency=0.5))
    assert channels._source_branches.cache_info().misses == 1
    branches = _tapped_branches(PAPER)
    assert all(not amps.flags.writeable for _, amps in branches)
    assert _tapped_branches(replace(PAPER, bs_reflectivity=0.8)) is not branches


@settings(max_examples=25, deadline=None)
@given(
    db=st.floats(1.0, 7.0), opa_loss=st.floats(0.0, 0.9), reflectivity=st.floats(0.5, 0.95),
    idler_efficiency=st.floats(0.05, 1.0), signal_efficiency=UNIT,
    idler_cutoff=st.integers(4, 12), herald_n=st.integers(0, 4),
)
def test_herald_state_is_a_state_over_random_params(
    db, opa_loss, reflectivity, idler_efficiency, signal_efficiency, idler_cutoff, herald_n
):
    params = ExperimentParams(
        squeeze=SqueezeSpec.from_db(db), opa_loss=opa_loss, bs_reflectivity=reflectivity,
        idler_efficiency=idler_efficiency, signal_efficiency=signal_efficiency,
        herald_n=herald_n, cutoff=40, idler_cutoff=idler_cutoff,
    )
    rho = np.asarray(herald_subtract(params).state.elements)
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12
