import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from catsim import tes
from catsim.errors import DomainError
from catsim.tes import (
    BLOCK_TRIALS,
    PEAK_WINDOW_SIGMAS,
    ConfusionMatrix,
    TesParams,
    _classes,
    _decide,
    _heights_from_traces,
    _peak_window,
    adjacent_confusion_estimate,
    confusion,
)

DEFAULTS = TesParams()
QUIET = TesParams(noise_floor=0.0)
TIGHT_HEIGHT = 1.5 - 2 * PEAK_WINDOW_SIGMAS * DEFAULTS.noise_floor - 1e-4  # class 1, 1e-4 to spare


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


@pytest.mark.parametrize(
    "name, value",
    [
        ("samples_per_trace", 400.5),
        ("samples_per_trace", 400.0),
        ("samples_per_trace", "400"),
        ("samples_per_trace", True),
        ("noise_floor", "0.01"),
        ("rise_tau_ns", None),
    ],
)
def test_params_refuse_wrong_types(name, value):
    with pytest.raises(DomainError, match=name):
        TesParams(**{name: value})


@pytest.mark.parametrize("rise", [107.0, 200.0])
def test_params_refuse_rise_not_below_decay(rise):
    # the double exponential is normalized by its maximum, which needs rise < decay
    with pytest.raises(DomainError, match="rise_tau_ns"):
        TesParams(rise_tau_ns=rise)


def test_params_accept_numpy_scalars():
    params = TesParams(samples_per_trace=np.int64(200), noise_floor=np.float64(0.02))
    assert params.pulse_shape().shape == (200,)


def test_sigma_interpretation_flag():
    # energy_resolution_ev is a FWHM
    sigma = 0.176 / (2 * math.sqrt(2 * math.log(2)))
    assert TesParams().sigma_ev == pytest.approx(sigma, rel=1e-12)


def test_zero_photon_quiet_trace_is_zero():
    # the unit pulse peaks at exactly 1.0 over pre-onset samples of exactly 0
    shape = QUIET.pulse_shape()
    assert shape.max() == 1.0 and np.all(shape[: QUIET.onset_index] == 0.0)
    cm = confusion(QUIET, n_max=2, trials=3000, seed=1)
    assert np.array_equal(cm.matrix[0], [1.0, 0.0, 0.0])


def test_exponential_decay_with_instant_rise():
    params = TesParams(rise_tau_ns=0.0, noise_floor=0.0, energy_resolution_ev=1e-9)
    shape = params.pulse_shape()
    onset = params.onset_index
    # decay_tau = 107 ns is an exact number of 0.5 ns samples
    steps = int(round(params.decay_tau_ns / params.dt_ns))
    assert shape[onset] == 1.0
    assert shape[onset + steps] == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_residual_after_one_repetition_period():
    # e^{-200/107} of the peak remains one repetition period later
    assert math.exp(-200.0 / 107.0) == pytest.approx(0.1541, abs=5e-4)
    params = TesParams(rise_tau_ns=0.0, noise_floor=0.0, energy_resolution_ev=1e-9)
    shape = params.pulse_shape()
    t_after_peak = (params.samples_per_trace - 1 - params.onset_index) * params.dt_ns
    assert shape[-1] == pytest.approx(math.exp(-t_after_peak / 107.0), rel=1e-9)


def classified(traces, params=DEFAULTS, n_max=10):
    """The confusion estimator's class of each trace row."""
    return _classes(_heights_from_traces(np.atleast_2d(traces), params), n_max)


def test_classify_clean_pulses():
    shape = QUIET.pulse_shape()
    assert classified(np.arange(7)[:, None] * shape, QUIET).tolist() == list(range(7))


def test_classify_zero_trace():
    assert classified(np.zeros(DEFAULTS.samples_per_trace)).tolist() == [0]


def test_classify_noisy_n3():
    rng = np.random.default_rng(42)
    shape = DEFAULTS.pulse_shape()
    height = 3 + rng.normal(0.0, DEFAULTS.sigma_ev / DEFAULTS.photon_energy_ev)
    assert classified(height * shape + rng.normal(0.0, DEFAULTS.noise_floor, shape.size)).tolist() == [3]


def test_classes_saturate_at_n_max():
    heights = np.array([-0.7, 0.49, 3.5, 4.49, 6.0, 1e9])
    assert _classes(heights, 4).tolist() == [0, 0, 4, 4, 4, 4]


@pytest.mark.parametrize("n_max", [2.5, 4.0, "4", True, -1])
def test_classify_refuses_bad_n_max(n_max):
    # confusion is where pulses are classified, and where n_max is checked
    with pytest.raises(DomainError, match="n_max"):
        confusion(DEFAULTS, n_max, 3000, seed=0)


def test_classify_accepts_numpy_integer_n_max():
    cm = confusion(QUIET, np.int64(4), 5000, seed=0)
    assert cm.n_max == 4 and type(cm.n_max) is int


def test_pileup_baseline_subtraction():
    # a preceding n=4 pulse leaves a decaying residual across the next window;
    # the pre-onset baseline removes the bias for all n <= 4
    params = QUIET
    shape = params.pulse_shape()
    t = np.arange(params.samples_per_trace) * params.dt_ns
    t_peak = params.onset_index * params.dt_ns
    residual = 4.0 * np.exp(-(t + params.rep_period_ns - t_peak) / params.decay_tau_ns)
    assert residual[0] == pytest.approx(4.0 * math.exp(-200.0 / 107.0) * math.exp(t_peak / 107.0), rel=1e-9)
    assert classified(np.arange(5)[:, None] * shape + residual, params).tolist() == list(range(5))


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


@pytest.mark.parametrize(
    "n_max, trials, name",
    [(4, 1e6, "trials"), (4, 10_000.0, "trials"), (4.0, 10_000, "n_max"), ("4", 10_000, "n_max"),
     (True, 10_000, "n_max")],
)
def test_confusion_refuses_non_integer_counts(n_max, trials, name):
    with pytest.raises(DomainError, match=name):
        confusion(DEFAULTS, n_max, trials, seed=0)


def test_confusion_accepts_numpy_integers():
    params = TesParams(energy_resolution_ev=0.4)
    want = confusion(params, 2, 3000, seed=4).matrix.tobytes()
    assert confusion(params, np.int64(2), np.int32(3000), seed=4).matrix.tobytes() == want


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None, np.float64(2.0)])
def test_confusion_refuses_bad_seed(seed):
    with pytest.raises(DomainError, match="seed"):
        confusion(DEFAULTS, 2, 3000, seed=seed)


def test_confusion_accepts_numpy_integer_seed():
    params = TesParams(energy_resolution_ev=0.4)
    want = confusion(params, 2, 3000, seed=4).matrix.tobytes()
    assert confusion(params, 2, 3000, seed=np.uint32(4)).matrix.tobytes() == want


def test_confusion_matrix_validation_and_csv(tmp_path):
    for bad in ([[0.5, 0.2], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0], [[[1.0]]]):
        with pytest.raises(DomainError):
            ConfusionMatrix(np.array(bad))
    assert ConfusionMatrix(np.eye(3)).n_max == 2
    cm = confusion(TesParams(energy_resolution_ev=1e-6, noise_floor=0.0), 2, trials=3000, seed=3)
    path = tmp_path / "confusion.csv"
    cm.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "true\\assigned,0,1,2"
    assert len(lines) == 4


@pytest.mark.parametrize("n", [1, 2, 4])
def test_peak_window_heights_equal_full_trace_heights(n):
    params = DEFAULTS
    sigma = params.noise_floor
    shape = params.pulse_shape()
    rng = np.random.default_rng(100 + n)
    heights = n + rng.normal(0.0, params.sigma_ev / params.photon_energy_ev, BLOCK_TRIALS)
    noise = rng.normal(0.0, sigma, (BLOCK_TRIALS, shape.size))
    cols = _peak_window(params, heights.min(), shape)
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
    shape = QUIET.pulse_shape()
    peak = int(shape.argmax())
    assert _peak_window(QUIET, 0.5, shape).tolist() == [*range(QUIET.onset_index), peak]
    assert _peak_window(QUIET, 0.0, shape).size == QUIET.samples_per_trace
    assert _peak_window(DEFAULTS, -0.1, DEFAULTS.pulse_shape()).size == DEFAULTS.samples_per_trace


def test_confusion_is_independent_of_thread_count(monkeypatch):
    params = TesParams(energy_resolution_ev=0.4)
    n_max, trials = 3, 4 * (2 * BLOCK_TRIALS + BLOCK_TRIALS // 2) + 3
    assert 2 * BLOCK_TRIALS < -(-trials // (n_max + 1)) < 3 * BLOCK_TRIALS  # the last block partial
    runs = []
    for threads in (1, 2, 3, 3):
        monkeypatch.setattr(tes, "_cpu_count", lambda: threads)
        runs.append(confusion(params, n_max, trials, seed=5).matrix.tobytes())
    assert len(set(runs)) == 1
    assert confusion(params, n_max, trials, seed=6).matrix.tobytes() != runs[0]


def test_confusion_equals_full_trace_estimator_on_the_same_streams():
    # every pulse is open, and a row's 1667 pulses are traced in two chunks
    params = TesParams(noise_floor=0.15)
    n_max, trials, seed = 2, 5_001, 9
    shape = params.pulse_shape()
    assert _peak_window(params, n_max, shape).size == shape.size  # every block draws the whole trace
    sigma_rel = params.sigma_ev / params.photon_energy_ev
    per_row = -(-trials // (n_max + 1))
    assert tes._TRACE_ROWS < per_row <= BLOCK_TRIALS
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


def test_sampler_cap_lies_below_the_bound():
    # numpy's largest accepted ziggurat tail draw: R + x with x = -log1p(-u1)/R,
    # accepted while -2·log1p(-u2) > x^2, at u2 = 1 - 2^-53 and u1 just below
    # the value where that test fails
    r = 3.6541528853610088
    x_cap = math.sqrt(2 * 53 * math.log(2))
    u1 = int(-math.expm1(-r * x_cap) * 2**53)
    while (-math.log1p(-u1 / 2**53) / r) ** 2 >= 2 * 53 * math.log(2):
        u1 -= 1
    # one uint64 with layer index 0 and |bits| in the tail, then u1 and u2,
    # each double from two 32-bit outputs (27 and 26 bits)
    words = [0xFFFFFF00, 0xFFFFFF00, (u1 >> 26) << 5, (u1 % 2**26) << 6, 0xFFFFFFFF, 0xFFFFFFFF]
    bits = np.random.MT19937(0)
    state = bits.state
    state["state"]["key"][: len(words)] = [_untempered(w) for w in words]
    state["state"]["pos"] = 0
    bits.state = state
    z = np.random.Generator(bits).standard_normal()
    assert abs(abs(z) - (r + x_cap)) < 1e-2
    assert abs(z) < PEAK_WINDOW_SIGMAS


def _untempered(y):
    """The MT19937 state word whose tempered output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def _planted(params, heights, z, pattern):
    """Full-trace classified heights of the given pulses with noise of size z:
    'up' makes the height h+ + 2z, 'down' pulls the peak down and the baseline
    up, 'random' is uniform in [-z, z]."""
    shape = params.pulse_shape()
    onset = params.onset_index
    noise = np.empty((heights.size, shape.size))
    if pattern == "up":
        noise[:] = z
        noise[:, 1:onset] = -z  # one baseline column at +z keeps max >= z when h <= 0
    elif pattern == "down":
        noise[:] = -z
        noise[:, :onset] = z
    else:
        noise = np.random.default_rng(0).uniform(-z, z, noise.shape)
    return _heights_from_traces(heights[:, None] * shape + noise, params)


DECISION_HEIGHTS = np.array(
    [-0.3, -0.05, 0.0, 0.04, 0.3, 0.75, 0.9, 0.99, 1.0, TIGHT_HEIGHT, 1.25, 1.7, 2.05, 2.5,
     3.91, 4.3, 6.2]
)


@pytest.mark.parametrize("pattern", ["up", "down", "random"])
def test_decided_pulses_keep_their_class_under_noise_within_the_bound(pattern):
    params = DEFAULTS
    sigma = params.noise_floor
    n_max = 4
    est, is_open = _decide(params, DECISION_HEIGHTS, n_max)
    decided = ~is_open
    assert decided[DECISION_HEIGHTS <= 0].all() and is_open.any()  # h <= 0 is decided here
    z = (PEAK_WINDOW_SIGMAS - 1e-6) * sigma
    heights = DECISION_HEIGHTS[decided]
    full = _classes(_planted(params, heights, z, pattern), n_max)
    assert np.array_equal(full, est[decided])


def test_pulse_decision_bound_is_tight():
    # h = 1.5 - 2·K·noise_floor - 1e-4 is decided as class 1 with 0.0001 to spare;
    # one sigma past the bound the planted noise lifts its full-trace height past 1.5
    params = DEFAULTS
    heights = np.array([TIGHT_HEIGHT])
    est, is_open = _decide(params, heights, 4)
    assert not is_open[0] and est[0] == 1
    z = (PEAK_WINDOW_SIGMAS + 1.0) * params.noise_floor
    assert _classes(_planted(params, heights, z, "up"), 4)[0] == 2


def test_non_positive_height_is_open_when_the_bound_reaches_half_a_photon():
    # 2·K·noise_floor = 0.6: h = -0.2 would look decided as class 0 from h itself, but
    # the baseline sets the maximum, and noise within the bound lifts the height to 0.6
    params = TesParams(noise_floor=0.3 / PEAK_WINDOW_SIGMAS)
    heights = np.array([-0.2, 0.0])
    est, is_open = _decide(params, heights, 4)
    assert is_open.all()
    z = (PEAK_WINDOW_SIGMAS - 1e-6) * params.noise_floor
    assert np.array_equal(_classes(_planted(params, heights, z, "up"), 4), [1, 1])


def test_noiseless_confusion_equals_full_trace_estimator_on_the_same_streams():
    params = TesParams(energy_resolution_ev=0.4, noise_floor=0.0)
    n_max, trials, seed = 3, 6_001, 11
    shape = params.pulse_shape()
    sigma_rel = params.sigma_ev / params.photon_energy_ev
    per_row = -(-trials // (n_max + 1))
    counts = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
    for n in range(n_max + 1):
        for k, start in enumerate(range(0, per_row, BLOCK_TRIALS)):
            size = min(BLOCK_TRIALS, per_row - start)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, k)))
            heights = np.zeros(size) if n == 0 else n + rng.normal(0.0, sigma_rel, size)
            traces = heights[:, None] * shape
            est = np.clip(np.floor(_heights_from_traces(traces, params) + 0.5).astype(int), 0, n_max)
            counts[n] += np.bincount(est, minlength=n_max + 1)
    want = counts / per_row
    assert 0.001 < want[1, 2] < 0.1  # the jitter misassigns: the comparison has content
    assert confusion(params, n_max, trials, seed).matrix.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    noise_floor=st.floats(0.0, 0.05),
    resolution=st.floats(1e-3, 0.7),
    n_max=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_confusion_rows_sum_to_one_and_ignore_thread_count(noise_floor, resolution, n_max, seed):
    params = TesParams(energy_resolution_ev=resolution, noise_floor=noise_floor)
    runs = []
    for threads in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tes, "_cpu_count", lambda: threads)
            runs.append(confusion(params, n_max, 3000, seed).matrix)
    assert np.allclose(runs[0].sum(axis=1), 1.0, atol=1e-12)
    assert runs[0].tobytes() == runs[1].tobytes()
