"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Expected values marked as derived were computed from the independent oracles
in the module test files (closed-form coefficients, brute-force enumeration,
quadrature, Gaussian overlap integrals) before being frozen here.
"""

import math
import time
import warnings

import numpy as np
import pytest

from catsim.channels import (
    ExperimentParams,
    _bs_amplitudes,
    _povm_diagonal,
    count_rate_table,
    herald_subtract,
    loss_channel,
)
from catsim.errors import NonConvergenceWarning
from catsim.fock import (
    DensityMatrix,
    SqueezeSpec,
    cat_state,
    fidelity,
    mixed_coherent,
    squeezed_vacuum,
)
from catsim.phasespace import coherence_peak, grid_axis, marginal, origin_parity, wigner
from catsim.sampler import PhasePlan, synth_dataset
from catsim.tes import TesParams, adjacent_confusion_estimate, confusion
from catsim.tomography import MleConfig, bootstrap, mle_reconstruct
from oracles import idler_loss, laguerre_wigner, wigner_integral_oracle

PAPER = ExperimentParams()  # 6.5 dB, opa loss 0.05, R = 0.81, eta_i = 0.4, eta_s = 0.85
SEED = 20240811
W_AXIS = grid_axis(-5.0, 5.0, 201)  # the default [grids] Wigner axis


def _finish(number, name, failures, t0):
    elapsed = time.time() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number:02d} [{name}]: {status} ({elapsed:.1f}s)")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {number} failed: {failures}"


@pytest.fixture(scope="module")
def herald_states():
    return {n: herald_subtract(PAPER.with_herald(n)).state for n in range(5)}


def test_criterion_01_parity_sign_pattern(herald_states):
    t0 = time.time()
    failures = []
    for n in range(5):
        w00 = origin_parity(herald_states[n])
        want_positive = n % 2 == 0
        if (w00 > 0) != want_positive:
            failures.append(f"n={n}: W(0,0)={w00:+.5f} has the wrong sign")
        if abs(w00) <= 0.005:
            failures.append(f"n={n}: |W(0,0)|={abs(w00):.5f} not above 0.005")
    for n in range(1, 5):
        w_min = float(wigner(herald_states[n], W_AXIS, W_AXIS).min())
        if not w_min < -0.002:
            failures.append(f"n={n}: min W={w_min:+.5f} not below -0.002")
    _finish(1, "parity sign pattern", failures, t0)


def test_criterion_02_mean_photon_monotonicity(herald_states):
    t0 = time.time()
    failures = []
    means = [float(np.sum(np.arange(31) * herald_states[n].diagonal)) for n in range(5)]
    for n in range(4):
        if not means[n] < means[n + 1]:
            failures.append(f"mean photon not increasing at n={n}: {means}")
    odd_weight = float(herald_states[0].diagonal[1::2].sum())
    if not odd_weight > 0.01:
        failures.append(f"n=0 odd-photon weight {odd_weight:.4f} not above 0.01")
    _finish(2, "mean photon monotonicity", failures, t0)


def test_criterion_03_count_rates():
    t0 = time.time()
    failures = []
    table = count_rate_table(PAPER, 4)
    rate3 = table[3][2]
    rate4 = table[4][2]
    if not (20.0 <= rate3 <= 2000.0):
        failures.append(f"rate(3)={rate3:.1f} cps not within x10 of 200 cps")
    if not (0.15 <= rate4 <= 15.0):
        failures.append(f"rate(4)={rate4:.2f} cps not within x10 of 1.5 cps")
    ratio = rate3 / rate4
    if not (30.0 <= ratio <= 500.0):
        failures.append(f"rate(3)/rate(4)={ratio:.1f} not in [30, 500]")
    _finish(3, "count rates", failures, t0)


def test_criterion_04_cat_coherence_signature(herald_states):
    t0 = time.time()
    failures = []
    peak4 = coherence_peak(herald_states[4])
    if not peak4.off_diagonal_value > 0:
        failures.append(f"n=4 off-diagonal {peak4.off_diagonal_value:+.5f} not positive")
    if not peak4.off_diagonal_value > 0.25 * peak4.diagonal_value:
        failures.append(
            f"n=4 off-diagonal {peak4.off_diagonal_value:+.5f} below 25% of the "
            f"diagonal peak {peak4.diagonal_value:.5f}"
        )
    for n in (1, 3):
        peak = coherence_peak(herald_states[n])
        if not peak.off_diagonal_value < 0:
            failures.append(f"n={n} off-diagonal {peak.off_diagonal_value:+.5f} not negative")
    _finish(4, "cat coherence signature", failures, t0)


def test_criterion_05_cat_panels():
    t0 = time.time()
    failures = []
    alpha = 2.5j
    even = cat_state(alpha, "even", 30).to_density()
    odd = cat_state(alpha, "odd", 30).to_density()
    if abs(origin_parity(even) - 1 / math.pi) > 1e-6:
        failures.append(f"even cat W(0,0)={origin_parity(even):.8f} vs +1/pi beyond 1e-6")
    if abs(origin_parity(odd) + 1 / math.pi) > 1e-6:
        failures.append(f"odd cat W(0,0)={origin_parity(odd):.8f} vs -1/pi beyond 1e-6")
    ideal = abs(coherence_peak(even).off_diagonal_value)
    lossy = abs(coherence_peak(loss_channel(even, 0.7)).off_diagonal_value)
    if not lossy < ideal:
        failures.append(f"loss did not reduce the peak off-diagonal: {lossy} vs {ideal}")
    mixed = coherence_peak(mixed_coherent(alpha, 30))
    if not abs(mixed.off_diagonal_value) < 0.02 * mixed.diagonal_value:
        failures.append(
            f"mixture off-diagonal {mixed.off_diagonal_value:+.2e} above 2% of the peak"
        )
    _finish(5, "ideal cat panels", failures, t0)


def test_criterion_06_tomography_closed_loop(herald_states):
    t0 = time.time()
    failures = []
    for n in range(5):
        truth = herald_states[n]
        ds = synth_dataset(truth, PhasePlan(), seed=SEED + n, source_id=f"herald_{n}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            rho_hat, diag = mle_reconstruct(ds, MleConfig(cutoff=15))
        fid = fidelity(rho_hat.embed(30), truth)
        if not fid >= 0.98:
            failures.append(f"n={n}: fidelity {fid:.4f} below 0.98")
        w00 = origin_parity(rho_hat)
        if (w00 > 0) != (n % 2 == 0):
            failures.append(f"n={n}: reconstructed W(0,0)={w00:+.5f} has the wrong sign")
        hist = np.asarray(diag["log_likelihood_history"])
        drops = hist[:-1] - hist[1:]
        tol = 1e-9 * np.maximum(1.0, np.abs(hist[:-1]))
        if not np.all(drops <= tol):
            failures.append(f"n={n}: log-likelihood decreased by {float(drops.max()):.2e}")
    _finish(6, "tomography closed loop", failures, t0)


def test_criterion_07_bootstrap_sanity(herald_states):
    t0 = time.time()
    failures = []
    truth = herald_states[2]
    cfg = MleConfig(cutoff=10, bin_width=0.05, max_iterations=1000, gap_tolerance=1e-3)
    ds1 = synth_dataset(truth, PhasePlan(samples_per_phase=10_000), seed=501, source_id="h2")
    rep1 = bootstrap(ds1, cfg, replicas=100, seed=601)
    if not rep1.origin_wigner[1] < 0.05:
        failures.append(f"bootstrap sigma of W(0,0) = {rep1.origin_wigner[1]:.4f} not below 0.05")
    ds4 = synth_dataset(truth, PhasePlan(samples_per_phase=40_000), seed=502, source_id="h2x4")
    rep4 = bootstrap(ds4, cfg, replicas=100, seed=602)
    ratio = rep4.origin_wigner[1] / rep1.origin_wigner[1]
    if not (0.4 <= ratio <= 0.6):
        failures.append(f"sigma shrink ratio {ratio:.3f} not in [0.4, 0.6]")
    _finish(7, "bootstrap sanity", failures, t0)


def test_criterion_08_cross_method_oracle():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(SEED)
    for state_idx in range(10):
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho_m = a @ a.conj().T
        rho_m /= np.trace(rho_m).real
        rho = DensityMatrix(rho_m)
        pts = rng.normal(scale=1.3, size=(25, 2))
        for x, p in pts:
            direct = wigner(rho, [x], [p])[0, 0]
            oracle = wigner_integral_oracle(rho, float(x), float(p))
            if abs(direct - oracle) > 1e-6:
                failures.append(
                    f"state {state_idx} at ({x:.2f},{p:.2f}): |direct-oracle|="
                    f"{abs(direct - oracle):.2e}"
                )
    # Radon consistency: marginal(theta) equals the line integral of W
    s = np.linspace(-8.0, 8.0, 1601)
    qs = np.linspace(-3.5, 3.5, 29)
    for seed in (1, 2):
        a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        rho_m = a @ a.conj().T
        rho_m /= np.trace(rho_m).real
        rho = DensityMatrix(rho_m)
        for theta in (0.0, 0.6, math.pi / 2, -0.8):
            pdf = marginal(rho, theta, qs)
            proj = np.empty_like(qs)
            for i, q in enumerate(qs):
                xs = q * math.cos(theta) - s * math.sin(theta)
                ps = q * math.sin(theta) + s * math.cos(theta)
                proj[i] = np.trapezoid(laguerre_wigner(rho.elements, xs, ps), s)
            err = float(np.max(np.abs(pdf - proj)))
            if err > 1e-4:
                failures.append(f"Radon mismatch {err:.2e} at theta={theta:.2f}")
    _finish(8, "cross-method oracle", failures, t0)


def test_criterion_09_channel_algebra():
    t0 = time.time()
    failures = []
    # loss composition
    rho = squeezed_vacuum(SqueezeSpec(0.5), 12, tail_tol=1e-3).to_density()
    a = loss_channel(loss_channel(rho, 0.8), 0.55)
    b = loss_channel(rho, 0.8 * 0.55)
    err = float(np.max(np.abs(a.elements - b.elements)))
    if err > 1e-10:
        failures.append(f"loss composition error {err:.2e} above 1e-10")

    # POVM route equals idler-loss-channel route at cutoff 8, on the
    # beam-splitter amplitudes and POVM diagonal that herald_subtract uses
    eta_i = 0.4
    sv = squeezed_vacuum(SqueezeSpec(0.4), 8, tail_tol=1e-3)
    amps = _bs_amplitudes(np.asarray(sv.amplitudes), 0.8, 8)
    lossy = idler_loss(amps, eta_i)
    for n in range(4):
        channel_route = lossy[:, n, :, n]
        povm_route = (amps * _povm_diagonal(n, eta_i, 8)) @ amps.conj().T
        err = float(np.max(np.abs(channel_route - povm_route)))
        if err > 1e-10:
            failures.append(f"POVM/channel mismatch {err:.2e} for n={n}")

    # zero-loss heralding parity purity
    lossless = ExperimentParams(
        squeeze=SqueezeSpec(0.5),
        opa_loss=0.0,
        bs_reflectivity=0.8,
        idler_efficiency=1.0,
        signal_efficiency=1.0,
        cutoff=14,
        idler_cutoff=8,
    )
    for n in range(4):
        res = herald_subtract(lossless.with_herald(n), tail_tol=1e-3)
        diag = res.state.diagonal
        wrong = diag[1::2] if n % 2 == 0 else diag[0::2]
        leak = float(np.sum(np.abs(wrong)))
        if leak > 1e-12:
            failures.append(f"off-parity weight {leak:.2e} for lossless n={n}")
    _finish(9, "channel algebra", failures, t0)


def test_criterion_10_tes_discrimination():
    t0 = time.time()
    failures = []
    cm = confusion(TesParams(), n_max=4, trials=1_000_000, seed=SEED)
    mass = float(cm.matrix.sum() - np.trace(cm.matrix))
    if not mass < 1e-5:
        failures.append(f"off-diagonal mass {mass:.2e} not below 1e-5")
    coarse = TesParams(energy_resolution_ev=0.4, noise_floor=0.0)
    want = adjacent_confusion_estimate(coarse)
    cm2 = confusion(coarse, n_max=4, trials=1_000_000, seed=SEED + 1)
    for n in (1, 2, 3):
        got = cm2.matrix[n, n + 1]
        if abs(got - want) / want > 0.2:
            failures.append(
                f"adjacent confusion at n={n}: {got:.5f} vs analytic {want:.5f} beyond 20%"
            )
    _finish(10, "TES discrimination", failures, t0)
