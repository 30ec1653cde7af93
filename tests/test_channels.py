import configparser
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from catsim import channels
from catsim.channels import (
    ExperimentParams,
    _tapped_branches,
    beamsplitter_join,
    count_rate_table,
    herald_probabilities,
    herald_subtract,
    input_state,
    loss_channel,
    lossy_number_povm,
)
from catsim.config import RunConfig
from catsim.errors import DomainError, TruncationBudgetError, ZeroProbabilityError
from catsim.fock import (
    DensityMatrix,
    HilbertConfig,
    SqueezeSpec,
    StateVector,
    coherent_state,
    fidelity,
    squeezed_vacuum,
)

PAPER = ExperimentParams()


def fock_state(n, cfg):
    amps = np.zeros(cfg.dim)
    amps[n] = 1.0
    return StateVector(amps, cfg)


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
    cfg = HilbertConfig(8)
    sv = squeezed_vacuum(SqueezeSpec(0.3), cfg, tail_tol=1e-4)
    rho = sv.to_density()
    out = loss_channel(rho, 1.0)
    assert np.allclose(out.elements, rho.elements)
    dark = loss_channel(rho, 0.0)
    assert dark.elements[0, 0].real == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(dark.elements)) == pytest.approx(1.0, abs=1e-10)


def test_loss_single_photon_two_kraus_oracle():
    # K_0 = diag(1, sqrt(eta)); K_1 = sqrt(1-eta)|0><1|: by hand diag(0.15, 0.85)
    cfg = HilbertConfig(1)
    one = fock_state(1, cfg).to_density()
    out = loss_channel(one, 0.85)
    assert np.allclose(out.elements, np.diag([0.15, 0.85]), atol=1e-14)


def test_loss_trace_preserving():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    dm = DensityMatrix(rho, HilbertConfig(12))
    for eta in (0.0, 0.25, 0.6, 0.93, 1.0):
        out = loss_channel(dm, eta)
        assert np.trace(out.elements).real == pytest.approx(1.0, abs=1e-10)


def test_loss_composition_identity():
    cfg = HilbertConfig(12)
    sv = squeezed_vacuum(SqueezeSpec(0.5), cfg, tail_tol=1e-3)
    rho = sv.to_density()
    a = loss_channel(loss_channel(rho, 0.8), 0.55)
    b = loss_channel(rho, 0.8 * 0.55)
    assert np.max(np.abs(a.elements - b.elements)) < 1e-10


def test_loss_rejects_bad_eta():
    cfg = HilbertConfig(2)
    rho = fock_state(0, cfg).to_density()
    with pytest.raises(DomainError):
        loss_channel(rho, 1.5)


# ---------------------------------------------------------------- beam splitter


def test_beamsplitter_full_reflection():
    cfg = HilbertConfig(6)
    sv = squeezed_vacuum(SqueezeSpec(0.2), cfg, tail_tol=1e-3)
    tm = beamsplitter_join(sv, 1.0, idler_cutoff=4)
    assert np.allclose(tm.amplitudes[:, 0], sv.amplitudes)
    assert np.all(tm.amplitudes[:, 1:] == 0)


def test_beamsplitter_single_photon_split():
    cfg = HilbertConfig(3)
    tm = beamsplitter_join(fock_state(1, cfg), 0.81, idler_cutoff=3)
    probs = np.abs(tm.amplitudes) ** 2
    assert probs[1, 0] == pytest.approx(0.81, abs=1e-14)
    assert probs[0, 1] == pytest.approx(0.19, abs=1e-14)


def test_beamsplitter_conserves_total_photon_number():
    cfg = HilbertConfig(8)
    sv = squeezed_vacuum(SqueezeSpec(0.4), cfg, tail_tol=1e-3)
    for refl in (0.3, 0.81, 0.97):
        tm = beamsplitter_join(sv, refl, idler_cutoff=8)
        marg = tm.total_photon_marginal()[: cfg.dim]
        assert np.max(np.abs(marg - np.abs(sv.amplitudes) ** 2)) < 1e-10


def test_beamsplitter_budget():
    cfg = HilbertConfig(30)
    sv = squeezed_vacuum(SqueezeSpec(0.3), cfg)
    with pytest.raises(TruncationBudgetError):
        beamsplitter_join(sv, 0.8, idler_cutoff=200)  # 31 x 201 amplitudes


# ---------------------------------------------------------------- POVM


def test_povm_perfect_detector():
    for n in range(3):
        pi_n = lossy_number_povm(n, 1.0, 6)
        want = np.zeros((7, 7))
        want[n, n] = 1.0
        assert np.allclose(pi_n, want)


def test_povm_binomial_table():
    pi_0 = lossy_number_povm(0, 0.4, 6)
    assert np.allclose(np.diag(pi_0)[:4], [1.0, 0.6, 0.36, 0.216], atol=1e-14)
    pi_1 = lossy_number_povm(1, 0.4, 6)
    # C(m,1)·0.4·0.6^{m-1}
    assert np.diag(pi_1)[1] == pytest.approx(0.4)
    assert np.diag(pi_1)[2] == pytest.approx(2 * 0.4 * 0.6)
    assert np.diag(pi_1)[3] == pytest.approx(3 * 0.4 * 0.36)


def test_povm_completeness():
    for eta in (0.17, 0.4, 1.0):
        total = sum(lossy_number_povm(n, eta, 10) for n in range(11))
        assert np.max(np.abs(total - np.eye(11))) < 1e-12


def test_povm_bounds_and_errors():
    pi_2 = lossy_number_povm(2, 0.4, 8)
    d = np.diag(pi_2)
    assert np.all(d >= 0) and np.all(d <= 1)
    with pytest.raises(DomainError):
        lossy_number_povm(9, 0.4, 8)
    with pytest.raises(DomainError):
        lossy_number_povm(1, 1.4, 8)


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
    sv = squeezed_vacuum(SqueezeSpec(0.4), HilbertConfig(16))
    assert fidelity(res.state, sv.to_density()) > 1 - 1e-12


def test_herald_rate_invariant():
    res = herald_subtract(PAPER.with_herald(2))
    assert res.estimated_rate == pytest.approx(
        res.herald_probability * PAPER.rep_rate_hz * PAPER.duty_cycle, rel=1e-12
    )


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
        cutoff=8,
        idler_cutoff=8,
    )
    res = herald_subtract(params, tail_tol=1e-4)
    cfg = HilbertConfig(8)

    # oracle 1: brute-force projection of the joint state
    sv = squeezed_vacuum(SqueezeSpec(r), cfg, tail_tol=1e-4)
    c_proj, _ = brute_force_two_mode_projection(np.asarray(sv.amplitudes), refl, 1)
    brute = StateVector(c_proj, cfg).to_density()
    assert fidelity(res.state, brute) > 1 - 1e-8

    # oracle 2: annihilation applied to the re-squeezed signal-arm state,
    # tanh r' = R tanh r
    from catsim.fock import apply_annihilation

    r_eff = math.atanh(refl * math.tanh(r))
    resq = squeezed_vacuum(SqueezeSpec(r_eff), cfg, tail_tol=1e-4)
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
        res = herald_subtract(params.with_herald(n), tail_tol=1e-3)
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
    cfg = HilbertConfig(params.cutoff)
    source = loss_channel(squeezed_vacuum(params.squeeze, cfg).to_density(), 1.0 - params.opa_loss)
    vals, vecs = np.linalg.eigh(np.asarray(source.elements))
    branches = [
        (w, beamsplitter_join(StateVector.normalize(v, cfg), params.bs_reflectivity,
                              params.idler_cutoff).amplitudes)
        for w, v in zip(vals, vecs.T)
        if w >= 1e-15
    ]
    idler = sum(w * np.sum(np.abs(a) ** 2, axis=0) for w, a in branches)
    states, probs = [], []
    for n in range(params.idler_cutoff + 1):
        povm = np.diag(lossy_number_povm(n, params.idler_efficiency, params.idler_cutoff))
        probs.append(float(povm @ idler))
        rho_u = sum(w * (a * povm) @ a.conj().T for w, a in branches)
        prob = np.trace(rho_u).real
        if prob > 1e-300:
            rho = DensityMatrix(0.5 * (rho_u + rho_u.conj().T) / prob, cfg)
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
        channels, "squeezed_vacuum", lambda spec, cfg, tail_tol: coherent_state(0.5, cfg)
    )
    channels._source_branches.cache_clear()  # build the branches from the patched source
    with pytest.raises(DomainError, match="even and odd"):
        herald_subtract(PAPER.with_herald(1))


def two_mode_density(amps):
    flat = amps.reshape(-1)
    return np.outer(flat, flat.conj()).reshape(
        amps.shape[0], amps.shape[1], amps.shape[0], amps.shape[1]
    )


def test_povm_equals_idler_loss_channel():
    # brute force at cutoff 8: idler loss as a Kraus channel then an ideal
    # |n><n| projection must equal the deformed-POVM shortcut
    cfg = HilbertConfig(8)
    idler_cut = 8
    eta_i = 0.4
    sv = squeezed_vacuum(SqueezeSpec(0.4), cfg, tail_tol=1e-3)
    tm = beamsplitter_join(sv, 0.8, idler_cutoff=idler_cut)
    rho2 = two_mode_density(np.asarray(tm.amplitudes))

    kraus = []
    for k in range(idler_cut + 1):
        m = np.zeros((idler_cut + 1, idler_cut + 1))
        for mm in range(k, idler_cut + 1):
            m[mm - k, mm] = math.sqrt(math.comb(mm, k) * eta_i ** (mm - k) * (1 - eta_i) ** k)
        kraus.append(m)
    lossy = np.zeros_like(rho2)
    for m in kraus:
        lossy += np.einsum("ab,sbtc,dc->satd", m, rho2, m.conj())

    for n in range(4):
        channel_route = lossy[:, n, :, n]
        povm = np.diag(lossy_number_povm(n, eta_i, idler_cut))
        povm_route = np.einsum("sktl,k,kl->st", rho2, povm, np.eye(idler_cut + 1))
        assert np.max(np.abs(channel_route - povm_route)) < 1e-10


def test_bs_phase_convention_independence():
    # heralded outcomes are identical for both signs of the beam-splitter
    # generator because the idler POVM is diagonal
    cut = 6
    dim = cut + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    down = np.kron(a, np.eye(dim))  # signal
    up = np.kron(np.eye(dim), a)  # idler
    refl = 0.75
    theta = math.acos(math.sqrt(refl))
    gen = down.conj().T @ up - down @ up.conj().T
    sv = squeezed_vacuum(SqueezeSpec(0.35), HilbertConfig(cut), tail_tol=1e-3)
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
    sv = squeezed_vacuum(PAPER.squeeze, HilbertConfig(PAPER.cutoff))
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
