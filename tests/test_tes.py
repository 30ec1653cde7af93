import math

import numpy as np
import pytest
from scipy.special import erfc

from catsim import tes
from catsim.errors import DomainError, SaturationWarning
from catsim.tes import (
    BLOCK_TRIALS,
    PEAK_WINDOW_SIGMAS,
    ConfusionMatrix,
    TesParams,
    _heights_from_traces,
    _peak_window,
    adjacent_confusion_estimate,
    classify_pulse,
    confusion,
    pulse_trace,
)

DEFAULTS = TesParams()
QUIET = TesParams(noise_floor=0.0)


def test_params_validation():
    with pytest.raises(DomainError):
        TesParams(energy_resolution_ev=0.9)  # resolution above the photon energy
    with pytest.raises(DomainError):
        TesParams(decay_tau_ns=0.0)
    with pytest.raises(DomainError):
        TesParams(samples_per_trace=4)


@pytest.mark.parametrize(
    "name",
    ["photon_energy_ev", "energy_resolution_ev", "decay_tau_ns", "rise_tau_ns",
     "rep_period_ns", "noise_floor"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_refuse_non_finite_values(name, value):
    with pytest.raises(DomainError, match=name):
        TesParams(**{name: value})


def test_sigma_interpretation_flag():
    fwhm = TesParams()
    direct = TesParams(resolution_is_fwhm=False)
    assert fwhm.sigma_ev == pytest.approx(0.176 / (2 * math.sqrt(2 * math.log(2))), rel=1e-12)
    assert direct.sigma_ev == 0.176


def test_zero_photon_quiet_trace_is_zero():
    trace = pulse_trace(0, QUIET, seed=1)
    assert np.all(trace == 0.0)


def test_exponential_decay_with_instant_rise():
    params = TesParams(rise_tau_ns=0.0, noise_floor=0.0, energy_resolution_ev=1e-9)
    trace = pulse_trace(1, params, seed=0)
    onset = params.onset_index
    # decay_tau = 107 ns is an exact number of 0.5 ns samples
    steps = int(round(params.decay_tau_ns / params.dt_ns))
    assert trace[onset] == pytest.approx(1.0, rel=1e-9)
    assert trace[onset + steps] == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_residual_after_one_repetition_period():
    # e^{-200/107} of the peak remains one repetition period later
    assert math.exp(-200.0 / 107.0) == pytest.approx(0.1541, abs=5e-4)
    params = TesParams(rise_tau_ns=0.0, noise_floor=0.0, energy_resolution_ev=1e-9)
    shape = params.pulse_shape()
    t_after_peak = (params.samples_per_trace - 1 - params.onset_index) * params.dt_ns
    assert shape[-1] == pytest.approx(math.exp(-t_after_peak / 107.0), rel=1e-9)


def test_classify_clean_pulses():
    params = TesParams(noise_floor=0.0, energy_resolution_ev=1e-9)
    for n in range(7):
        assert classify_pulse(pulse_trace(n, params, seed=n), params) == n


def test_classify_zero_trace():
    assert classify_pulse(np.zeros(DEFAULTS.samples_per_trace), DEFAULTS) == 0


def test_classify_noisy_n3():
    trace = pulse_trace(3, DEFAULTS, seed=42)
    assert classify_pulse(trace, DEFAULTS) == 3


def test_classify_length_mismatch():
    with pytest.raises(DomainError):
        classify_pulse(np.zeros(10), DEFAULTS)


def test_saturation_warning():
    params = TesParams(noise_floor=0.0, energy_resolution_ev=1e-9)
    trace = pulse_trace(6, params, seed=0)
    with pytest.warns(SaturationWarning):
        assert classify_pulse(trace, params, n_max=4) == 4


def test_pileup_baseline_subtraction():
    # a preceding n=4 pulse leaves a decaying residual across the next window;
    # the pre-onset baseline removes the bias for all n <= 4
    params = TesParams(noise_floor=0.0, energy_resolution_ev=1e-9)
    shape = params.pulse_shape()
    t = np.arange(params.samples_per_trace) * params.dt_ns
    t_peak = params.onset_index * params.dt_ns
    residual = 4.0 * np.exp(-(t + params.rep_period_ns - t_peak) / params.decay_tau_ns)
    assert residual[0] == pytest.approx(4.0 * math.exp(-200.0 / 107.0) * math.exp(t_peak / 107.0), rel=1e-9)
    for n in range(5):
        piled = n * shape + residual
        assert classify_pulse(piled, params) == n


def test_confusion_identity_at_tiny_resolution():
    params = TesParams(energy_resolution_ev=1e-6, noise_floor=0.0)
    cm = confusion(params, n_max=3, trials=4000, seed=0)
    assert np.allclose(cm.matrix, np.eye(4))


def test_confusion_rows_and_defaults():
    cm = confusion(DEFAULTS, n_max=4, trials=100_000, seed=1)
    assert np.allclose(cm.matrix.sum(axis=1), 1.0, atol=1e-9)
    # resolution 4.5x below the photon energy: no misassignments at this depth
    assert cm.off_diagonal_mass < 1e-5


def test_confusion_matches_gaussian_overlap_at_coarse_resolution():
    params = TesParams(energy_resolution_ev=0.4, noise_floor=0.0)
    want = adjacent_confusion_estimate(params)
    assert want == pytest.approx(
        erfc(0.8 / (2 * math.sqrt(2) * 0.4 / (2 * math.sqrt(2 * math.log(2))))) / 2
    )
    assert want == pytest.approx(0.0092, abs=3e-4)
    cm = confusion(params, n_max=4, trials=500_000, seed=7)
    for n in range(1, 4):
        up = cm.matrix[n, n + 1]
        down = cm.matrix[n, n - 1]
        assert abs(up - want) / want < 0.2
        assert abs(down - want) / want < 0.2


def test_adjacent_confusion_estimate_defaults():
    # E/sigma = 0.8/(0.176/2.3548) -> erfc(3.785)/2 ~ 4.4e-8
    assert adjacent_confusion_estimate(DEFAULTS) == pytest.approx(4.4e-8, rel=0.05)


def test_confusion_requires_enough_trials():
    with pytest.raises(DomainError):
        confusion(DEFAULTS, n_max=2, trials=10, seed=0)


def test_confusion_matrix_validation_and_csv(tmp_path):
    with pytest.raises(DomainError):
        ConfusionMatrix(np.array([[0.5, 0.2], [0.0, 1.0]]), 1)
    cm = confusion(TesParams(energy_resolution_ev=1e-6, noise_floor=0.0), 2, trials=3000, seed=3)
    path = tmp_path / "confusion.csv"
    cm.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "true\\assigned,0,1,2"
    assert len(lines) == 4


def test_trace_determinism():
    a = pulse_trace(3, DEFAULTS, seed=5)
    b = pulse_trace(3, DEFAULTS, seed=5)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_peak_window_heights_equal_full_trace_heights(n):
    params = DEFAULTS
    sigma = params.noise_floor
    shape = params.pulse_shape()
    rng = np.random.default_rng(100 + n)
    heights = n + rng.normal(0.0, params.sigma_ev / params.photon_energy_ev, BLOCK_TRIALS)
    noise = rng.normal(0.0, sigma, (BLOCK_TRIALS, shape.size))
    cols = _peak_window(params, heights.min())
    pulse = cols[cols >= params.onset_index]
    assert np.array_equal(pulse, np.arange(pulse[0], pulse[-1] + 1))
    assert params.onset_index < pulse[0] and pulse[-1] + 1 < shape.size  # a real cut
    outside = np.setdiff1d(np.arange(shape.size), cols)
    full = heights[:, None] * shape + noise
    windowed = heights[:, None] * shape[cols] + noise[:, cols]
    assert np.array_equal(_heights_from_traces(windowed, params), _heights_from_traces(full, params))

    def windowed_and_full(z):
        # on the lowest pulses: z sigma down on the window's pulse columns (the
        # peak and both edges among them), z sigma up on every column left out
        planted = noise.copy()
        rows = heights.argsort()[:20, None]
        planted[rows, pulse] = -z * sigma
        planted[rows, outside] = z * sigma
        windowed = heights[:, None] * shape[cols] + planted[:, cols]
        full = heights[:, None] * shape + planted
        return _heights_from_traces(windowed, params), _heights_from_traces(full, params)

    assert np.array_equal(*windowed_and_full(PEAK_WINDOW_SIGMAS - 1e-6))
    # one sigma further, a column left out takes the maximum: the bound is tight
    assert not np.array_equal(*windowed_and_full(PEAK_WINDOW_SIGMAS + 1.0))


def test_noiseless_window_is_baseline_and_peak():
    peak = int(QUIET.pulse_shape().argmax())
    assert _peak_window(QUIET, 0.5).tolist() == [*range(QUIET.onset_index), peak]
    assert _peak_window(QUIET, 0.0).size == QUIET.samples_per_trace
    assert _peak_window(DEFAULTS, -0.1).size == DEFAULTS.samples_per_trace


def test_confusion_is_independent_of_thread_count(monkeypatch):
    params = TesParams(energy_resolution_ev=0.4)
    runs = []
    for threads in (1, 2, 3, 3):
        monkeypatch.setattr(tes, "_cpu_count", lambda: threads)
        runs.append(confusion(params, 3, 10_003, seed=5).matrix.tobytes())
    assert len(set(runs)) == 1
    assert confusion(params, 3, 10_003, seed=6).matrix.tobytes() != runs[0]


def test_confusion_equals_full_trace_estimator_on_the_same_streams():
    params = TesParams(noise_floor=0.15)
    n_max, trials, seed = 2, 5_001, 9
    shape = params.pulse_shape()
    assert _peak_window(params, n_max).size == shape.size  # every block draws the whole trace
    sigma_rel = params.sigma_ev / params.photon_energy_ev
    per_row = -(-trials // (n_max + 1))
    counts = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    for n in range(n_max + 1):
        for k, start in enumerate(range(0, per_row, BLOCK_TRIALS)):
            size = min(BLOCK_TRIALS, per_row - start)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, k)))
            heights = np.zeros(size) if n == 0 else n + rng.normal(0.0, sigma_rel, size)
            traces = heights[:, None] * shape + rng.normal(0.0, params.noise_floor, (size, shape.size))
            est = np.clip(np.floor(_heights_from_traces(traces, params) + 0.5).astype(int), 0, n_max)
            counts[n] += np.bincount(est, minlength=n_max + 1)
    want = counts / per_row
    assert 0.01 < want[0, 1] < 0.99  # the noise misassigns: the comparison has content
    assert confusion(params, n_max, trials, seed).matrix.tobytes() == want.tobytes()
