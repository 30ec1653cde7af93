import math
import warnings

import numpy as np
import pytest

from catsim import tomography

from catsim.channels import ExperimentParams, herald_subtract
from catsim.errors import (
    BootstrapError,
    DomainError,
    IdentifiabilityWarning,
    NonConvergenceWarning,
    SingularLikelihoodError,
)
from catsim.fock import (
    DensityMatrix,
    hermite_functions,
    SqueezeSpec,
    StateVector,
    fidelity,
    quadrature_basis,
    squeezed_vacuum,
)
from catsim.phasespace import _phi_table, _product_map, marginal, marginal_sweep, origin_parity
from catsim.sampler import SHOT_NOISE_VARIANCE, HomodyneDataset, PhasePlan, synth_dataset
from catsim.tomography import (
    BootstrapReport,
    MleConfig,
    _phase_tables,
    bootstrap,
    mle_reconstruct,
)
from oracles import povm_projector, trace_distance

CUTOFF = 30


def vacuum_dm():
    amps = np.zeros(CUTOFF + 1)
    amps[0] = 1.0
    return StateVector(amps).to_density()


@pytest.fixture(scope="module")
def herald2_state():
    return herald_subtract(ExperimentParams().with_herald(2)).state


@pytest.fixture(scope="module")
def herald2_dataset(herald2_state):
    return synth_dataset(herald2_state, PhasePlan(), seed=7411, source_id="herald_2")


@pytest.fixture(scope="module")
def herald2_recon(herald2_dataset):
    return mle_reconstruct(herald2_dataset, MleConfig(cutoff=15, bin_width=0.05))


# ---------------------------------------------------------------- projectors


def test_povm_projector_reference_elements():
    pi = povm_projector(0.0, 0.0, 12)
    assert pi[0, 0].real == pytest.approx(1 / math.sqrt(math.pi), abs=1e-12)
    assert abs(pi[1, 1]) < 1e-28


def test_povm_projector_trace_matches_direct_sum():
    for theta, q in ((0.0, 0.3), (37.0, -1.2), (90.0, 2.0)):
        pi = povm_projector(theta, q, 20)
        direct = np.sum(np.abs(quadrature_basis(20, q, math.radians(theta))) ** 2)
        assert np.trace(pi).real == pytest.approx(direct, abs=1e-12)


def test_povm_projector_is_rank_one_psd():
    pi = povm_projector(22.5, 0.7, 10)
    assert np.max(np.abs(pi - pi.conj().T)) < 1e-14
    vals = np.linalg.eigvalsh(pi)
    assert np.all(vals >= -1e-14)
    assert np.sum(vals > 1e-12) == 1


# ---------------------------------------------------------------- likelihood


def log_likelihood(rho, dataset):
    """The kernel's sum of ln p_j over the records, one table column per record."""
    elements = np.asarray(getattr(rho, "elements", rho))
    tables = _phase_tables(dataset, elements.shape[0] - 1, None)
    return tables.log_likelihood(elements, "under the state")[1]


def test_log_likelihood_single_record_maximally_mixed():
    dim = 9
    mixed = np.eye(dim, dtype=complex) / dim
    from catsim.fock import DensityMatrix

    rho = DensityMatrix(mixed)
    ds = HomodyneDataset(np.array([30.0]), np.array([0.4]))
    pi = povm_projector(30.0, 0.4, dim - 1)
    want = math.log(np.trace(pi).real / dim)
    assert log_likelihood(rho, ds) == pytest.approx(want, abs=1e-12)


def test_log_likelihood_reorder_invariance():
    rho = squeezed_vacuum(SqueezeSpec(0.4), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(samples_per_phase=500), seed=8)
    perm = np.random.default_rng(0).permutation(len(ds))
    shuffled = HomodyneDataset(ds.theta_deg[perm], ds.q[perm], dict(ds.meta))
    del shuffled.meta["counts_per_phase"]  # counts no longer contiguous, still valid
    assert log_likelihood(rho, ds) == pytest.approx(log_likelihood(rho, shuffled), rel=1e-12)


def test_true_state_beats_vacuum_on_squeezed_data():
    rho = squeezed_vacuum(SqueezeSpec(0.576), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(samples_per_phase=1667), seed=10)
    assert log_likelihood(rho, ds) > log_likelihood(vacuum_dm(), ds)


def test_singular_record_reported_by_dataset_index():
    # phases are interleaved, so the offending record (q = 40, index 2) is
    # not at the same position once records are grouped by phase
    ds = HomodyneDataset(np.array([45.0, 0.0, 45.0, 0.0]), np.array([0.1, 0.2, 40.0, 0.3]))
    with pytest.raises(SingularLikelihoodError) as err:
        log_likelihood(vacuum_dm(), ds)
    assert err.value.record_indices == [2]
    with pytest.raises(SingularLikelihoodError) as err:
        mle_reconstruct(ds, MleConfig(cutoff=8))
    assert err.value.record_indices == [2]
    # raised on the records themselves, before any binned pre-fit
    assert "records have vanishing probability at the maximally mixed start" in str(err.value)
    assert "bins" not in str(err.value)
    with pytest.raises(SingularLikelihoodError) as err:
        mle_reconstruct(ds, MleConfig(cutoff=8, bin_width=0.5))
    assert "bins" in str(err.value)


def dense_bins(vals, width):
    """Reference binning: searchsorted over every edge k·width in the records' range."""
    lo = np.floor(vals.min() / width) - 1
    hi = np.ceil(vals.max() / width) + 1
    edges = np.arange(lo, hi + 1) * width
    bins = np.searchsorted(edges, vals, side="right") - 1
    hist = np.bincount(bins, minlength=edges.size - 1)
    keep = hist > 0
    return (0.5 * (edges[:-1] + edges[1:]))[keep], hist[keep], (np.cumsum(keep) - 1)[bins]


@pytest.mark.parametrize("width", [0.05, 0.1, 0.3])
def test_binning_matches_the_dense_edges(width):
    # records on and one ulp either side of the edges, and random ones
    edges = np.arange(-60, 61) * width
    q = np.concatenate(
        [np.random.default_rng(7).normal(scale=3.0, size=500), edges,
         np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    )
    tables = _phase_tables(HomodyneDataset(np.zeros(q.size), q), 4, width)
    points, counts, _ = dense_bins(q, width)
    assert np.array_equal(tables.phi[0], _phi_table(4, points))
    assert np.array_equal(tables.weights, counts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q", [1e308, -1e308, 1e200])
@pytest.mark.parametrize("bin_width", [None, 0.1, 1e-300])
def test_record_beyond_the_float_range_is_singular(q, bin_width):
    # sqrt(2)·q, or q / bin_width, is inf: the record's table row is 0, not NaN,
    # and no numpy warning comes before the typed error
    ds = HomodyneDataset(np.array([45.0, 0.0, 45.0]), np.array([0.1, 0.2, q]))
    with pytest.raises(SingularLikelihoodError):
        mle_reconstruct(ds, MleConfig(cutoff=8, bin_width=bin_width))


# ---------------------------------------------------------------- kernel oracle


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def interleaved_records(seed, size=40):
    rng = np.random.default_rng(seed)
    return rng.choice([-30.0, 0.0, 45.0, 90.0], size=size), rng.normal(0.0, 1.2, size=size)


def brute_force_p_and_r(rho, theta, q, cutoff):
    """p_j = Tr(Pi_j rho) and R = sum_j Pi_j / p_j, one projector per record."""
    projectors = [povm_projector(t, x, cutoff) for t, x in zip(theta, q)]
    p = np.array([np.trace(pi @ rho).real for pi in projectors])
    return p, sum(pi / pj for pi, pj in zip(projectors, p))


def test_phase_tables_match_brute_force_pointwise():
    cutoff = 8
    rho = random_density(cutoff + 1, seed=3)
    theta, q = interleaved_records(seed=4)
    tables = _phase_tables(HomodyneDataset(theta, q), cutoff, None)
    want_p, want_r = brute_force_p_and_r(rho, theta, q, cutoff)
    p = tables.probabilities(rho)
    assert sorted(tables.index.tolist()) == list(range(q.size))
    assert np.allclose(p, want_p[tables.index], rtol=0, atol=1e-12)
    assert np.allclose(tables.r_operator(p), want_r, rtol=0, atol=1e-12)


def test_phase_tables_match_brute_force_binned():
    # a bin stands for its records placed at the bin center
    cutoff, width = 8, 0.25
    rho = random_density(cutoff + 1, seed=5)
    theta, q = interleaved_records(seed=6)
    centers = (np.floor(q / width) + 0.5) * width
    tables = _phase_tables(HomodyneDataset(theta, q), cutoff, width)
    want_p, want_r = brute_force_p_and_r(rho, theta, centers, cutoff)
    p = tables.probabilities(rho)
    assert tables.weights.sum() == q.size
    assert np.dot(tables.weights, np.log(p)) == pytest.approx(np.log(want_p).sum(), abs=1e-12)
    assert np.allclose(tables.r_operator(p), want_r, rtol=0, atol=1e-12)


def phi_table(cutoff, q):
    """phi_k(q) = 2^{1/4} psi_k(sqrt(2) q) for k <= 2·cutoff."""
    return 2.0**0.25 * hermite_functions(2 * cutoff, math.sqrt(2.0) * np.asarray(q))


@pytest.mark.parametrize("cutoff", [1, 2, 15, 18, 30])
def test_product_map_expands_hermite_products(cutoff):
    q = np.linspace(-12.0, 12.0, 2401)
    psi = hermite_functions(cutoff, q)
    want = psi[:, None, :] * psi[None, :, :]
    got = np.einsum("kx,kj->xj", _product_map(cutoff), phi_table(cutoff, q))
    assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-14


@pytest.mark.parametrize("cutoff", [1, 2, 15, 18, 30])
def test_product_map_structural_zeros_are_exact(cutoff):
    a = _product_map(cutoff).reshape(2 * cutoff + 1, cutoff + 1, cutoff + 1)
    k, n, m = np.ogrid[: 2 * cutoff + 1, : cutoff + 1, : cutoff + 1]
    allowed = (k <= n + m) & ((k - n - m) % 2 == 0)
    assert np.all(a[np.broadcast_to(~allowed, a.shape)] == 0.0)
    assert np.array_equal(a, a.transpose(0, 2, 1))
    # the diagonal ∫ psi_n^2 phi_0 dq is positive for every n
    assert np.all(np.diagonal(a[0]) > 0)


def longdouble_hermite(cutoff, q):
    """psi_n(q) by the normalized recurrence, in extended precision."""
    q = np.asarray(q, dtype=np.longdouble)
    psi = np.zeros((cutoff + 1, q.size), dtype=np.longdouble)
    psi[0] = np.longdouble(np.pi) ** np.longdouble(-0.25) * np.exp(-q * q / 2)
    psi[1] = np.sqrt(np.longdouble(2)) * q * psi[0]
    for n in range(1, cutoff):
        psi[n + 1] = (
            np.sqrt(np.longdouble(2) / (n + 1)) * q * psi[n]
            - np.sqrt(np.longdouble(n) / (n + 1)) * psi[n - 1]
        )
    return psi


def longdouble_probabilities(rho, theta, q, cutoff):
    """p_j = psi_j^T Re(U^† rho U) psi_j, the projector form, in extended precision."""
    n = np.arange(cutoff + 1, dtype=np.longdouble)
    re, im = rho.real.astype(np.longdouble), rho.imag.astype(np.longdouble)
    p = np.empty(q.size, dtype=np.longdouble)
    for t in np.unique(theta):
        sel = theta == t
        angle = (n[:, None] - n[None, :]) * np.deg2rad(np.longdouble(t))
        m = re * np.cos(angle) + im * np.sin(angle)  # Re(e^{-i n t} rho_nm e^{i m t})
        psi = longdouble_hermite(cutoff, q[sel])
        p[sel] = np.einsum("nj,nm,mj->j", psi, m, psi)
    return p


@pytest.mark.parametrize("cutoff", [15, 18])
@pytest.mark.parametrize("state", ["vacuum", "thermal", "random"])
def test_probabilities_match_extended_precision_projectors(cutoff, state):
    # far tails included: without the exact zeros of A, round-off in the
    # high-k entries swamps p there
    dim = cutoff + 1
    if state == "vacuum":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
    elif state == "thermal":
        rho = np.diag((0.8 / 1.8) ** np.arange(dim)).astype(complex)
        rho /= np.trace(rho).real
    else:
        rho = random_density(dim, seed=cutoff)
    q = np.linspace(-10.0, 10.0, 1201)
    theta = np.resize(np.array([-45.0, 0.0, 22.5, 90.0, 131.0]), q.size)
    tables = _phase_tables(HomodyneDataset(theta, q), cutoff, None)
    want = longdouble_probabilities(rho, theta, q, cutoff)
    p = tables.probabilities(rho)[np.argsort(tables.index)]
    assert np.max(np.abs(p - want) / want) <= 1e-12
    # the likelihood and the marginal sweep read one coefficient function and one phi table
    state = DensityMatrix(rho)
    swept = np.empty(q.size)
    for t in np.unique(theta):
        sel = theta == t
        swept[sel] = marginal_sweep(state, [t], q[sel])[0]
    assert np.max(np.abs(p - swept)) <= 1e-15


@pytest.mark.parametrize("cutoff", [15, 30])
def test_far_records_keep_their_probability(cutoff):
    # phi_k(q) = 2^{1/4} psi_k(sqrt(2) q) carries e^{-q^2}, itself subnormal beyond
    # |q| ≈ 26.6; a value that is a normal float must keep its digits there
    q = np.array([27.0, -27.0, 28.0, -28.0, 35.0])
    theta = np.array([0.0, -45.0, 22.5, 131.0, 90.0])
    tiny = np.finfo(float).tiny
    ref = 2 ** np.longdouble(0.25) * longdouble_hermite(2 * cutoff, math.sqrt(2.0) * q)
    phi = _phi_table(cutoff, q)
    normal = np.abs(ref) > tiny
    assert np.max(np.abs((phi[normal] - ref[normal]) / ref[normal])) <= 1e-13
    assert np.max(np.abs(phi[~normal] - ref[~normal])) <= tiny
    rho = random_density(cutoff + 1, seed=cutoff)
    want = longdouble_probabilities(rho, theta, q, cutoff)
    tables = _phase_tables(HomodyneDataset(theta, q), cutoff, None)
    p = tables.probabilities(rho)[np.argsort(tables.index)]
    normal = want > tiny
    assert normal[:4].all() and not normal[4]  # q = 35 is below the double range
    assert np.max(np.abs(p[normal] - want[normal]) / want[normal]) <= 1e-12
    assert np.max(np.abs(p[~normal] - want[~normal])) <= tiny


def complex_rrr(dataset, cutoff, tolerance, max_iterations):
    """The sandwich update rho <- N[R rho R] on a complex record-by-Fock
    measurement matrix, run until the log-likelihood changes by less than
    `tolerance` relative to its size."""
    phases = np.unique(dataset.theta_deg)
    w = np.vstack([
        quadrature_basis(cutoff, dataset.q[dataset.theta_deg == t], np.deg2rad(t)).T for t in phases
    ])
    dim = cutoff + 1
    rho = np.eye(dim, dtype=complex) / dim
    history = []
    for _ in range(max_iterations):
        p = np.einsum("jn,nm,jm->j", w.conj(), rho, w).real
        ll = float(np.sum(np.log(p)))
        if history and abs(ll - history[-1]) < tolerance * max(1.0, abs(history[-1])):
            history.append(ll)
            break
        history.append(ll)
        r_op = w.T @ (w.conj() / p[:, None])
        rho = r_op @ rho @ r_op
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    return rho, history


@pytest.fixture(scope="module")
def squeezed_two_phase():
    rho = squeezed_vacuum(SqueezeSpec(0.4), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(phases_deg=(0.0, 90.0), samples_per_phase=300), seed=12)
    cfg = MleConfig(cutoff=8, max_iterations=400)
    return ds, cfg, mle_reconstruct(ds, cfg)


def test_mle_matches_complex_update(squeezed_two_phase):
    # the sandwich update, run to a tight plateau, is an independent climb
    # to the same maximum: the certified gap bounds it from above, and the
    # L-BFGS result is within the gap tolerance of where it ends
    ds, cfg, (rho_hat, diag) = squeezed_two_phase
    rrr_rho, rrr_history = complex_rrr(ds, cfg.cutoff, tolerance=1e-14, max_iterations=20_000)
    ll_rrr = rrr_history[-1]
    ll = diag["final_log_likelihood"]
    assert diag["converged"] and diag["likelihood_gap"] <= cfg.gap_tolerance
    assert ll == pytest.approx(log_likelihood(rho_hat, ds), abs=1e-9)
    assert ll_rrr == pytest.approx(log_likelihood(rrr_rho, ds), abs=1e-9)
    assert ll_rrr <= ll + diag["likelihood_gap"]
    assert ll >= ll_rrr - cfg.gap_tolerance


def test_reported_gap_is_recomputed_from_the_state(squeezed_two_phase):
    # lambda_max(R) - N from one povm_projector per record, at the returned rho
    ds, cfg, (rho_hat, diag) = squeezed_two_phase
    _, r_op = brute_force_p_and_r(rho_hat.elements, ds.theta_deg, ds.q, cfg.cutoff)
    gap = np.linalg.eigvalsh(r_op)[-1] - len(ds)
    assert diag["likelihood_gap"] == pytest.approx(gap, abs=1e-9)
    assert 0.0 <= gap <= cfg.gap_tolerance


# ---------------------------------------------------------------- reconstruction


def test_vacuum_closed_loop():
    ds = synth_dataset(vacuum_dm(), PhasePlan(), seed=13, source_id="vac")
    rho_hat, diag = mle_reconstruct(ds, MleConfig(cutoff=12, bin_width=0.05))
    assert diag["converged"]
    assert fidelity(rho_hat.embed(30), vacuum_dm()) > 0.999


def test_herald2_closed_loop(herald2_state, herald2_recon):
    rho_hat, diag = herald2_recon
    assert fidelity(rho_hat.embed(30), herald2_state) >= 0.99
    assert diag["converged"]
    assert np.sign(origin_parity(rho_hat)) == np.sign(origin_parity(herald2_state))


def test_likelihood_monotone(herald2_recon):
    _, diag = herald2_recon
    assert diag["monotone"]
    hist = np.asarray(diag["log_likelihood_history"])
    drops = hist[:-1] - hist[1:]
    assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(hist[:-1])))


@pytest.mark.parametrize("samples, seed", [(20_000, 503), (40_000, 504)])
def test_gap_closes_below_the_likelihood_resolution(herald2_state, samples, seed):
    # with 1e5 records and more, the last gains before the gap reaches
    # 1e-3 nats are below what a sum of that many logs resolves, so the
    # line search has to judge those steps by their slope
    ds = synth_dataset(herald2_state, PhasePlan(samples_per_phase=samples), seed=seed)
    _, diag = mle_reconstruct(ds, MleConfig(cutoff=10, bin_width=0.05, max_iterations=300))
    assert diag["converged"] and diag["likelihood_gap"] <= 1e-3
    assert diag["monotone"]


def test_single_phase_identifiability_warning():
    rho = squeezed_vacuum(SqueezeSpec(0.3), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(phases_deg=(0.0,), samples_per_phase=2000), seed=2)
    with pytest.warns(IdentifiabilityWarning):
        _, diag = mle_reconstruct(ds, MleConfig(cutoff=8, bin_width=0.05))
    assert any("single phase" in w for w in diag["warnings"])


def test_fixed_point_large_sample_proxy():
    truth = herald_subtract(ExperimentParams().with_herald(1)).state
    ds = synth_dataset(truth, PhasePlan(samples_per_phase=20_000), seed=44, source_id="h1")
    rho_hat, _ = mle_reconstruct(ds, MleConfig(cutoff=10, bin_width=0.05))
    assert trace_distance(rho_hat.embed(30), truth) < 0.05


def test_reconstruction_marginals_pass_ks(herald2_dataset, herald2_recon):
    from scipy import stats

    rho_hat, _ = herald2_recon
    q = np.linspace(-8, 8, 8001)
    dq = q[1] - q[0]
    for theta in herald2_dataset.meta["phases_deg"]:
        pdf = np.clip(marginal(rho_hat, math.radians(theta), q), 0, None)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dq)))
        cdf /= cdf[-1]
        draws = herald2_dataset.q[herald2_dataset.theta_deg == theta]
        stat = stats.kstest(draws, lambda x: np.interp(x, q, cdf)).statistic
        assert stat < 0.02


def test_mle_output_satisfies_state_invariants(herald2_recon):
    rho_hat, _ = herald2_recon
    elements = np.asarray(rho_hat.elements)
    assert np.max(np.abs(elements - elements.conj().T)) < 1e-12
    assert np.trace(elements).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(elements)[0] > -1e-9


# ---------------------------------------------------------------- the pointwise start


def cold_fit(dataset, cfg):
    """The pointwise fit from the maximally mixed state, as it ran before
    it started from a binned pre-fit."""
    tables = _phase_tables(dataset, cfg.cutoff, None)
    a, diag = tomography._iterate(tables, cfg)
    tomography._warn(diag)
    return tomography._density(a), diag


@pytest.mark.parametrize("n", range(5))
def test_prefit_start_reaches_the_cold_maximum(n):
    # the acceptance suite's criterion-06 datasets
    truth = herald_subtract(ExperimentParams().with_herald(n)).state
    ds = synth_dataset(truth, PhasePlan(), seed=20240811 + n, source_id=f"herald_{n}")
    cfg = MleConfig(cutoff=15)
    rho, diag = mle_reconstruct(ds, cfg)
    cold_rho, cold = cold_fit(ds, cfg)
    assert diag["prefit_iterations"] > 0 and diag["converged"] and diag["monotone"]
    assert fidelity(rho, cold_rho) >= 1 - 1e-8
    assert diag["final_log_likelihood"] >= cold["final_log_likelihood"] - cfg.gap_tolerance


def test_prefit_iterations_are_counted(monkeypatch, squeezed_two_phase):
    ds, cfg, _ = squeezed_two_phase
    runs = []
    iterate = tomography._iterate

    def spy(tables, cfg, start=None):
        a, diag = iterate(tables, cfg, start)
        runs.append((tables, start, a, diag))
        return a, diag

    monkeypatch.setattr(tomography, "_iterate", spy)
    _, diag = mle_reconstruct(ds, cfg)
    (binned, cold_start, prefit_a, prefit), (tables, warm_start, _, own) = runs
    assert cold_start is None and warm_start is prefit_a
    assert binned.weights.size < len(ds) == tables.weights.size
    assert diag is own and diag["prefit_iterations"] == prefit["iterations"] > 0
    # the history is the pointwise fit's own, from the LL of the pre-fit's state
    _, ll = tables.log_likelihood(tomography._state(prefit_a), "")
    assert diag["log_likelihood_history"][0] == ll
    assert len(diag["log_likelihood_history"]) == diag["iterations"]
    runs.clear()
    _, diag = mle_reconstruct(ds, MleConfig(cutoff=cfg.cutoff, bin_width=0.05))
    assert len(runs) == 1 and runs[0][1] is None and diag["prefit_iterations"] == 0


@pytest.mark.parametrize(
    "far",
    [
        27.054,  # its bin centre, 27.075, vanishes at the pre-fit's mixed start
        27.049,  # its bin, centred at 27.025, does not; the record vanishes at the pre-fit's end
    ],
)
def test_pointwise_fit_starts_cold_when_the_prefit_fails(far):
    # at cutoff 12 the mixed state's probability crosses the 1e-290 floor at
    # |q| = 27.0557; the fit cannot keep the record above the floor, so it stalls
    assert tomography._PREFIT_BIN_WIDTH == 0.05  # the bin centres above
    rng = np.random.default_rng(5)
    q = np.append(rng.normal(0.0, math.sqrt(0.5), 600), far)
    theta = np.append(rng.choice([0.0, 60.0, 120.0], 600), 0.0)
    ds = HomodyneDataset(theta, q)
    cfg = MleConfig(cutoff=12)
    with pytest.warns(NonConvergenceWarning) as caught:
        rho, diag = mle_reconstruct(ds, cfg)
    assert len(caught) == 1 and diag["prefit_iterations"] == 0
    with pytest.warns(NonConvergenceWarning):
        cold_rho, cold = cold_fit(ds, cfg)
    assert np.array_equal(rho.elements, cold_rho.elements)
    assert diag["log_likelihood_history"] == cold["log_likelihood_history"]


@pytest.mark.parametrize("max_iterations", [3, 2000])
def test_pointwise_fit_warns_once(max_iterations):
    # the pre-fit reads the same single phase and, at 3 iterations, stops short
    # too: the fit gives each warning once
    rho = squeezed_vacuum(SqueezeSpec(0.3), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(phases_deg=(0.0,), samples_per_phase=500), seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, diag = mle_reconstruct(ds, MleConfig(cutoff=6, max_iterations=max_iterations))
    kinds = [w.category for w in caught]
    assert kinds.count(IdentifiabilityWarning) == 1
    assert kinds.count(NonConvergenceWarning) == (max_iterations == 3)
    assert len(diag["warnings"]) == len(caught)
    assert diag["prefit_iterations"] > 0
    assert max_iterations > 3 or diag["prefit_iterations"] == 3


def test_nonconvergence_warning_and_best_iterate():
    rho = squeezed_vacuum(SqueezeSpec(0.4), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(samples_per_phase=2000), seed=3)
    with pytest.warns(NonConvergenceWarning):
        rho_hat, diag = mle_reconstruct(
            ds, MleConfig(cutoff=10, max_iterations=5, bin_width=0.05)
        )
    assert not diag["converged"]
    assert diag["iterations"] == 5
    assert np.trace(rho_hat.elements).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("tolerance", [0.0, -1e-3, float("nan"), float("inf")])
def test_gap_tolerance_must_be_positive(tolerance):
    with pytest.raises(DomainError, match="gap_tolerance"):
        MleConfig(gap_tolerance=tolerance)


def test_empty_dataset_rejected():
    empty = HomodyneDataset(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        log_likelihood(vacuum_dm(), empty)
    with pytest.raises(DomainError):
        mle_reconstruct(empty, MleConfig(cutoff=5))
    with pytest.raises(DomainError):
        bootstrap(empty, MleConfig(cutoff=5), replicas=2)


@pytest.mark.parametrize("snv", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_shot_noise_variance_rejected(snv):
    ds = HomodyneDataset(np.array([0.0, 90.0]), np.array([0.1, -0.2]), {"shot_noise_variance": snv})
    with pytest.raises(DomainError):
        log_likelihood(vacuum_dm(), ds)
    with pytest.raises(DomainError):
        mle_reconstruct(ds, MleConfig(cutoff=5))
    with pytest.raises(DomainError):
        bootstrap(ds, MleConfig(cutoff=5), replicas=2)


def test_shot_noise_rescaling():
    # the same records expressed at vacuum variance 1 reconstruct the same state
    rho = squeezed_vacuum(SqueezeSpec(0.5), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(samples_per_phase=4000), seed=6)
    scaled = HomodyneDataset(
        ds.theta_deg,
        ds.q * math.sqrt(2.0),
        {"shot_noise_variance": 1.0},
    )
    a, _ = mle_reconstruct(ds, MleConfig(cutoff=10, bin_width=0.05))
    b, _ = mle_reconstruct(scaled, MleConfig(cutoff=10, bin_width=0.05))
    assert fidelity(a, b) > 1 - 1e-6


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_smoke_tiny():
    ds = synth_dataset(vacuum_dm(), PhasePlan(samples_per_phase=200), seed=5, source_id="tiny")
    rep = bootstrap(ds, MleConfig(cutoff=6, bin_width=0.1), replicas=2, seed=1)
    assert isinstance(rep, BootstrapReport)
    assert rep.successful == 2
    assert np.isfinite(rep.mean_photon[1]) and rep.mean_photon[1] >= 0.0
    assert rep.diagonal_std.shape == (7,)


def test_bootstrap_vacuum_sigma():
    ds = synth_dataset(vacuum_dm(), PhasePlan(), seed=19, source_id="vac")
    cfg = MleConfig(cutoff=8, bin_width=0.05, gap_tolerance=1e-3)
    rep = bootstrap(ds, cfg, replicas=100, seed=77)
    assert rep.successful == 100
    assert rep.mean_photon[1] < 0.01


def replica_dataset(dataset, tables, weights, bin_width):
    """The dataset a replica's weights describe: w_j copies of record j, or,
    when binned, w_b copies of one record of bin b."""
    if bin_width is None:
        records = tables.index
    else:
        snv = dataset.meta["shot_noise_variance"]
        q = dataset.q * float(np.sqrt(SHOT_NOISE_VARIANCE / snv))
        records = []
        for t in np.unique(dataset.theta_deg):
            idx = np.nonzero(dataset.theta_deg == t)[0]
            _, _, col = dense_bins(q[idx], bin_width)
            records.append(idx[np.unique(col, return_index=True)[1]])
        records = np.concatenate(records)
    pick = np.repeat(records, weights.astype(int))
    return HomodyneDataset(dataset.theta_deg[pick], dataset.q[pick], dict(dataset.meta))


@pytest.mark.parametrize("bin_width", [None, 0.1])
def test_bootstrap_replicas_match_resampled_datasets(monkeypatch, herald2_state, bin_width):
    # a replica reweights the full dataset's tables; the oracle fits the
    # dataset its weights describe from scratch, from the maximally mixed
    # state as replicas start (a pointwise `mle_reconstruct` would start
    # from a binned pre-fit)
    ds = synth_dataset(herald2_state, PhasePlan(samples_per_phase=300), seed=31, source_id="h2")
    cfg = MleConfig(cutoff=8, bin_width=bin_width, gap_tolerance=1e-3)
    seen, drawn = [], []
    quantities = tomography._replica_quantities
    reweighted = tomography._PhaseTables.reweighted

    def spy(rho):
        seen.append(rho)
        return quantities(rho)

    def spy_weights(tables, weights):
        drawn.append((tables, weights))
        return reweighted(tables, weights)

    monkeypatch.setattr(tomography, "_replica_quantities", spy)
    monkeypatch.setattr(tomography._PhaseTables, "reweighted", spy_weights)
    rep = bootstrap(ds, cfg, replicas=4, seed=9)
    assert rep.successful == 4 and len(seen) == 4 and len(drawn) == 4
    phases = np.unique(ds.theta_deg)
    records = [np.sum(ds.theta_deg == t) for t in phases]
    oracle = []
    for tables, weights in drawn:
        resampled = replica_dataset(ds, tables, weights, bin_width)
        # each phase's weights sum to its record count
        assert [np.sum(resampled.theta_deg == t) for t in phases] == records
        a, _ = tomography._iterate(_phase_tables(resampled, cfg.cutoff, bin_width), cfg)
        oracle.append(tomography._density(a))
    for got, want in zip(seen, oracle):
        assert np.max(np.abs(got.elements - want.elements)) < 1e-12
    w00 = [origin_parity(rho) for rho in oracle]
    assert rep.origin_wigner == pytest.approx((np.mean(w00), np.std(w00, ddof=1)), abs=1e-12)


@pytest.mark.parametrize("max_iterations", [3, 2000])
def test_bootstrap_reports_replica_convergence(monkeypatch, max_iterations):
    ds = synth_dataset(vacuum_dm(), PhasePlan(samples_per_phase=300), seed=23)
    cfg = MleConfig(cutoff=5, bin_width=0.1, max_iterations=max_iterations)
    runs = []
    iterate = tomography._iterate

    def spy(tables, cfg):
        rho, diag = iterate(tables, cfg)
        runs.append(diag)
        return rho, diag

    monkeypatch.setattr(tomography, "_iterate", spy)
    rep = bootstrap(ds, cfg, replicas=5, seed=3).to_dict()
    iterations = [d["iterations"] for d in runs]
    gaps = [d["likelihood_gap"] for d in runs]
    assert len(runs) == 5
    assert rep["iterations"] == {"median": float(np.median(iterations)), "max": max(iterations)}
    assert rep["unconverged"] == sum(not d["converged"] for d in runs)
    assert rep["max_likelihood_gap"] == max(gaps)
    if max_iterations == 3:
        assert rep["unconverged"] == 5 and rep["iterations"]["max"] == 3
        assert rep["max_likelihood_gap"] > cfg.gap_tolerance
    else:
        assert rep["unconverged"] == 0 and rep["max_likelihood_gap"] <= cfg.gap_tolerance


def test_single_phase_bootstrap_warns_once():
    rho = squeezed_vacuum(SqueezeSpec(0.3), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(phases_deg=(0.0,), samples_per_phase=300), seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = bootstrap(ds, MleConfig(cutoff=5, bin_width=0.1, max_iterations=3), replicas=4)
    assert rep.successful == 4 and rep.unconverged == 4
    assert [w.category for w in caught] == [IdentifiabilityWarning]


def test_bootstrap_same_seed_same_report():
    ds = synth_dataset(vacuum_dm(), PhasePlan(samples_per_phase=300), seed=23)
    cfg = MleConfig(cutoff=5, bin_width=0.1)
    first = bootstrap(ds, cfg, replicas=6, seed=9).to_dict()
    assert bootstrap(ds, cfg, replicas=6, seed=9).to_dict() == first
    assert bootstrap(ds, cfg, replicas=6, seed=10).to_dict() != first


def test_bootstrap_counts_failures_by_type(monkeypatch):
    ds = synth_dataset(vacuum_dm(), PhasePlan(samples_per_phase=100), seed=2)
    failing = iter(
        [DomainError("first"), DomainError("second"), np.linalg.LinAlgError("third")]
    )

    def fail(rho):
        raise next(failing)

    monkeypatch.setattr(tomography, "_replica_quantities", fail)
    with pytest.raises(BootstrapError) as err:
        bootstrap(ds, MleConfig(cutoff=4, bin_width=0.1), replicas=3)
    message = str(err.value)
    assert "{'DomainError': 2, 'LinAlgError': 1}" in message
    assert "first failure: DomainError: first" in message


def test_bootstrap_propagates_programming_errors(monkeypatch):
    ds = synth_dataset(vacuum_dm(), PhasePlan(samples_per_phase=100), seed=2)

    def broken(rho):
        raise KeyError("not a replica failure")

    monkeypatch.setattr(tomography, "_replica_quantities", broken)
    with pytest.raises(KeyError):
        bootstrap(ds, MleConfig(cutoff=4, bin_width=0.1), replicas=2)


def test_bootstrap_rejects_too_few_replicas():
    ds = synth_dataset(vacuum_dm(), PhasePlan(samples_per_phase=100), seed=1)
    with pytest.raises(DomainError):
        bootstrap(ds, MleConfig(cutoff=5), replicas=1, seed=0)


def test_bootstrap_report_serializes():
    ds = synth_dataset(vacuum_dm(), PhasePlan(samples_per_phase=200), seed=5)
    rep = bootstrap(ds, MleConfig(cutoff=5, bin_width=0.1), replicas=3, seed=4)
    payload = rep.to_dict()
    assert payload["replicas"] == 3
    assert set(payload["mean_photon"]) == {"mean", "std"}
