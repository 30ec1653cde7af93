import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from catsim.channels import ExperimentParams, herald_subtract
from catsim.errors import (
    DegenerateDistributionError,
    DomainError,
    ParseError,
    SchemaError,
)
from catsim.fock import (
    SqueezeSpec,
    StateVector,
    cat_state,
    coherent_state,
    quadrature_basis,
    squeezed_vacuum,
)
from catsim.phasespace import marginal
from catsim.sampler import (
    DEFAULT_PHASES_DEG,
    HomodyneDataset,
    PhasePlan,
    _META,
    _subseed,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from oracles import phase_rotated, sample_phase

CUTOFF = 30


def vacuum_dm():
    amps = np.zeros(CUTOFF + 1)
    amps[0] = 1.0
    return StateVector(amps).to_density()


def einsum_marginal(rho, theta, q):
    """Oracle: Pr(q | theta) = sum_{n,m} conj(w_n(q)) rho_{n,m} w_m(q), w = <n|q_theta>."""
    w = quadrature_basis(rho.config.cutoff, q, theta)
    return np.einsum("ni,nm,mi->i", w.conj(), np.asarray(rho.elements), w).real


def exact_cdf(rho, theta_deg, grid=None):
    q = np.linspace(-8, 8, 8001) if grid is None else grid
    pdf = np.clip(einsum_marginal(rho, math.radians(theta_deg), q), 0, None)
    dq = q[1] - q[0]
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dq)))
    cdf /= cdf[-1]
    return lambda x: np.interp(x, q, cdf)


def test_phase_plan_defaults_and_validation():
    plan = PhasePlan()
    assert plan.phases_deg == DEFAULT_PHASES_DEG == (-45.0, -22.5, 0.0, 22.5, 45.0, 90.0)
    with pytest.raises(DomainError):
        PhasePlan(phases_deg=())
    with pytest.raises(DomainError):
        PhasePlan(samples_per_phase=0)


def test_vacuum_sample_variance():
    draws = sample_phase(vacuum_dm(), 30.0, 100_000, seed=21)
    # variance estimator sigma ~ var*sqrt(2/(N-1))
    assert abs(draws.var() - 0.5) < 3 * 0.5 * math.sqrt(2 / 99_999)
    assert abs(draws.mean()) < 3 * math.sqrt(0.5 / 100_000) + 1e-3


def test_squeezed_sample_variance():
    rho = squeezed_vacuum(SqueezeSpec(0.576), CUTOFF).to_density()
    draws = sample_phase(rho, 0.0, 100_000, seed=22)
    want = math.exp(-2 * 0.576) / 2
    assert abs(draws.var() - want) / want < 0.05


def test_sampling_is_deterministic():
    rho = vacuum_dm()
    a = sample_phase(rho, 12.5, 1000, seed=77)
    b = sample_phase(rho, 12.5, 1000, seed=77)
    assert a.tobytes() == b.tobytes()
    c = sample_phase(rho, 12.5, 1000, seed=78)
    assert a.tobytes() != c.tobytes()


def test_kolmogorov_smirnov_against_exact_cdf():
    params = ExperimentParams()
    herald2 = herald_subtract(params.with_herald(2)).state
    cases = [
        (vacuum_dm(), 0.0),
        (squeezed_vacuum(SqueezeSpec(0.576), CUTOFF).to_density(), 0.0),
        (herald2, 90.0),
    ]
    for i, (rho, theta) in enumerate(cases):
        draws = sample_phase(rho, theta, 100_000, seed=100 + i)
        stat = stats.kstest(draws, exact_cdf(rho, theta)).statistic
        assert stat < 0.01


def test_phase_covariance():
    # sampling rho at theta equals sampling the rotated state at 0
    params = ExperimentParams()
    rho = herald_subtract(params.with_herald(1)).state
    theta_deg = 22.5
    rotated = phase_rotated(rho, math.radians(theta_deg))
    grid = np.linspace(-6, 6, 1001)
    direct = marginal(rho, math.radians(theta_deg), grid)
    via_rotation = marginal(rotated, 0.0, grid)
    assert np.max(np.abs(direct - via_rotation)) < 1e-12
    a = sample_phase(rho, theta_deg, 20_000, seed=5)
    b = sample_phase(rotated, 0.0, 20_000, seed=6)
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_subseed_independence():
    rho = squeezed_vacuum(SqueezeSpec(0.5), CUTOFF).to_density()
    plan = PhasePlan(phases_deg=(0.0, 90.0), samples_per_phase=100_000)
    ds = synth_dataset(rho, plan, seed=9)
    a, b = ds.q.reshape(2, -1)  # the 0 and 90 degree records
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_synth_dataset_draws_equal_sample_phase_per_phase():
    rho = herald_subtract(ExperimentParams().with_herald(3)).state
    plan = PhasePlan(samples_per_phase=2000)
    ds = synth_dataset(rho, plan, seed=41)
    for i, theta in enumerate(plan.phases_deg):
        alone = sample_phase(rho, theta, plan.samples_per_phase, _subseed(41, i))
        assert np.max(np.abs(ds.q[ds.theta_deg == theta] - alone)) < 1e-12


def test_synth_dataset_single_record():
    plan = PhasePlan(phases_deg=(0.0,), samples_per_phase=1)
    ds = synth_dataset(vacuum_dm(), plan, seed=1)
    assert len(ds) == 1
    assert ds.meta["counts_per_phase"] == [1]


def test_synth_dataset_chi_squared_against_exact_marginal():
    params = ExperimentParams()
    rho = herald_subtract(params.with_herald(2)).state
    plan = PhasePlan(samples_per_phase=10_000)
    ds = synth_dataset(rho, plan, seed=33, source_id="herald_2")
    grid = np.linspace(-8, 8, 8001)
    for theta in plan.phases_deg:
        draws = ds.q[ds.theta_deg == theta]
        edges = np.linspace(-5.0, 5.0, 26)
        observed, _ = np.histogram(draws, bins=edges)
        cdf = exact_cdf(rho, theta, grid)
        probs = np.diff([cdf(e) for e in edges])
        # fold the tail mass into the end bins so probabilities sum to 1
        probs[0] += cdf(edges[0])
        probs[-1] += 1.0 - cdf(edges[-1])
        expected = probs * draws.size
        keep = expected > 5
        chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        pvalue = 1.0 - stats.chi2.cdf(chi2, keep.sum() - 1)
        assert pvalue > 0.01


def test_even_cat_momentum_samples_are_bimodal():
    rho = cat_state(2.5j, "even", CUTOFF).to_density()
    draws = sample_phase(rho, 90.0, 20_000, seed=12)
    peak = math.sqrt(2) * 2.5
    hist, edges = np.histogram(draws, bins=np.linspace(-6, 6, 121))
    centers = 0.5 * (edges[:-1] + edges[1:])
    top = centers[np.argsort(hist)[-20:]]
    assert np.any(np.abs(top - peak) < 0.2)
    assert np.any(np.abs(top + peak) < 0.2)
    near_zero = np.abs(draws) < 0.5
    assert near_zero.mean() < 0.05


def test_dataset_validation_errors():
    with pytest.raises(SchemaError):
        HomodyneDataset(np.array([0.0, 0.0]), np.array([1.0, np.inf]))
    with pytest.raises(SchemaError):
        HomodyneDataset(np.array([np.nan, 0.0]), np.array([0.1, 0.2]))
    with pytest.raises(SchemaError):
        HomodyneDataset(
            np.array([0.0, 10.0]),
            np.array([0.1, 0.2]),
            {"phases_deg": [0.0], "counts_per_phase": [2]},
        )


def test_save_load_roundtrip(tmp_path):
    rho = squeezed_vacuum(SqueezeSpec(0.4), CUTOFF).to_density()
    plan = PhasePlan(phases_deg=(0.0, 45.0), samples_per_phase=64)
    ds = synth_dataset(rho, plan, seed=4, source_id="roundtrip")
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.theta_deg, ds.theta_deg)
    assert np.array_equal(back.q, ds.q)
    assert back.meta["source_id"] == "roundtrip"
    assert back.meta["seed"] == 4
    assert back.meta["phases_deg"] == [0.0, 45.0]
    assert back.meta["counts_per_phase"] == [64, 64]
    assert back.meta["shot_noise_variance"] == 0.5


def test_dataset_csv_bytes_match_per_record_writer(tmp_path):
    theta = np.array([0.0, -0.0, 22.5, 0.1 + 0.2, 0.0, -0.0, 5e-324, 22.5])
    q = np.array([-0.0, 5e-324, 0.1 + 0.2, -1.2345678901234567e-300, 1e22, 3.0, -2.5, 0.0])
    ds = HomodyneDataset(theta, q, {"source_id": "awkward", "seed": 3})
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    lines = [
        "#source_id=awkward",
        "#seed=3",
        f"#shot_noise_variance={0.5!r}",
        "theta_deg,q",
        *(f"{float(t)!r},{float(v)!r}" for t, v in zip(theta, q)),
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_dataset_csv_bytes_match_per_record_writer_over_many_blocks(tmp_path):
    rho = squeezed_vacuum(SqueezeSpec(0.4), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(phases_deg=(-45.0, 0.0, 90.0), samples_per_phase=9000), seed=2)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    records = [f"{float(t)!r},{float(v)!r}" for t, v in zip(ds.theta_deg, ds.q)]
    assert path.read_text().splitlines()[-len(records) - 1 :] == ["theta_deg,q", *records]


def test_empty_dataset_roundtrip(tmp_path):
    ds = HomodyneDataset(np.array([]), np.array([]), {"source_id": "empty"})
    path = tmp_path / "empty.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == 0


def test_malformed_records(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta_deg,q\n0.0,0.5\nnope,0.4\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 3

    path.write_text("theta_deg,q\n0.0\n")
    with pytest.raises(ParseError):
        load_dataset(path)

    path.write_text("angle,value\n0.0,0.5\n")
    with pytest.raises(SchemaError):
        load_dataset(path)

    # a byte that is not ASCII, in the records or in the metadata
    for text in ("theta_deg,q\n0.0,0.5\u00e9\n", "#source_id=\u00e9\ntheta_deg,q\n0.0,0.5\n"):
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(SchemaError, match="not ASCII"):
            load_dataset(path)


@pytest.mark.parametrize(
    "line",
    ["#seed=abc", "#phases_deg=1.0,x", "#counts_per_phase=1.5", "#shot_noise_variance=zz"],
)
def test_malformed_metadata_names_its_line(tmp_path, line):
    ds = synth_dataset(vacuum_dm(), PhasePlan(phases_deg=(0.0, 1.0), samples_per_phase=3), seed=1)
    path = tmp_path / "meta.csv"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    key = line.partition("=")[0]
    index = next(i for i, text in enumerate(lines) if text.startswith(key + "="))
    lines[index] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=key) as err:
        load_dataset(path)
    assert err.value.line_number == index + 1


def test_non_finite_phase_token_rejected(tmp_path):
    path = tmp_path / "nan_theta.csv"
    path.write_text("theta_deg,q\n0.0,0.5\nnan,0.4\n")
    with pytest.raises(SchemaError, match="phases must be finite"):
        load_dataset(path)


def test_degenerate_distribution_rejected():
    # a strongly displaced state leaves the default sampling window
    rho = coherent_state(5.5j, 70).to_density()
    with pytest.raises(DegenerateDistributionError):
        sample_phase(rho, 90.0, 10, seed=0)


def load_dataset_line_by_line(path):
    """The reader as it was before the record block went to np.loadtxt: one
    float() per token, kept here as the oracle of `load_dataset`."""
    meta: dict = {}
    thetas: list[float] = []
    values: list[float] = []
    header_seen = False
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" not in line:
                    raise ParseError(f"malformed metadata comment {line!r}", line_no)
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = (val.strip(), line_no)
                continue
            if not header_seen:
                if line != "theta_deg,q":
                    raise SchemaError(
                        f"expected header 'theta_deg,q' at line {line_no}, found {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected two comma-separated fields, found {len(parts)}", line_no)
            try:
                thetas.append(float(parts[0]))
            except ValueError:
                raise ParseError(f"unreadable theta token {parts[0]!r}", line_no) from None
            try:
                values.append(float(parts[1]))
            except ValueError:
                raise ParseError(f"unreadable quadrature token {parts[1]!r}", line_no) from None
    if not header_seen:
        raise SchemaError("file contains no 'theta_deg,q' header line")
    typed: dict = {}
    for key, _, parse in _META:
        if key in meta:
            text, line_no = meta[key]
            try:
                typed[key] = parse(text)
            except ValueError:
                raise ParseError(f"unreadable #{key} value {text!r}", line_no) from None
    return HomodyneDataset(np.asarray(thetas), np.asarray(values), typed)


# tokens where float() and a C number parser may disagree
AWKWARD_TOKENS = [
    "1_0", "0x1p3", "1d5", "1e", "e5", ".", "+.5", "5.", "-0", "0001", "1e-400", "1e400",
    "inf", "-Infinity", "nAn", "nan(1)", "", " ", "1.5j", "in f", "#1", "theta_deg", "1,",
]
PADDING = ["", " ", "\t", "\v", "\f", "\x1c", "\x1f", "\x00", "\r"]
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
TOKENS = st.one_of(
    FLOATS.map(repr), FLOATS.map(str), st.sampled_from(AWKWARD_TOKENS),
    st.text(alphabet="0123456789.eE+-_ni", max_size=8),
)
FIELD = st.builds(lambda a, t, b: a + t + b, st.sampled_from(PADDING), TOKENS, st.sampled_from(PADDING))
CLEAN_RECORD = st.one_of(
    st.builds(lambda t, q: f"{t!r},{q!r}", st.sampled_from([0.0, 22.5, -45.0]), FLOATS),
    st.builds(
        lambda a, t, b, q, c: f"{a}{t},{b}{q}{c}",
        st.sampled_from(PADDING[:5]), FLOATS.map(str), st.sampled_from(PADDING[:5]),
        st.one_of(FLOATS.map(repr), st.sampled_from(["-0", "+.5", "5.", "1E5", "0001", "1e-400"])),
        st.sampled_from(PADDING[:5]),
    ),
    st.sampled_from(["", "  "]),
)
RECORD = st.one_of(
    CLEAN_RECORD,
    st.builds(lambda t, q: f"{t},{q}", FIELD, FIELD),
    st.sampled_from(["#seed=2", "#bad", "theta_deg,q", "1.0", "1.0,2.0,3.0", "\x1c", "inf,1", "0,nan"]),
)
META_LINES = [
    "#source_id=fuzz", "#seed=3", "#phases_deg=0.0,22.5,-45.0", "#shot_noise_variance=0.5", "",
]
HEAD = st.one_of(
    st.lists(st.sampled_from(META_LINES), max_size=4),
    st.lists(st.sampled_from(META_LINES + ["#seed=x", "#counts_per_phase=1,1", "#bad", " \t", "0.0,1.0"]), max_size=4),
)
HEADER = st.one_of(
    st.just("theta_deg,q"),
    st.sampled_from([" theta_deg,q", "theta_deg,q\f", "angle,value", None]),
)
BODY = st.one_of(st.lists(CLEAN_RECORD, max_size=12), st.lists(RECORD, max_size=12))
NEWLINE = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(head=HEAD, header=HEADER, body=BODY, newline=NEWLINE, last=st.booleans())
def test_load_dataset_reads_as_the_line_reader(tmp_path_factory, head, header, body, newline, last):
    lines = head + ([] if header is None else [header]) + body
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes((newline.join(lines) + (newline if last else "")).encode("ascii"))
    try:
        want = load_dataset_line_by_line(path)
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        with pytest.raises(type(exc)) as err:
            load_dataset(path)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "line_number", None) == getattr(exc, "line_number", None)
        return
    got = load_dataset(path)
    assert got.theta_deg.tobytes() == want.theta_deg.tobytes()
    assert got.q.tobytes() == want.q.tobytes()
    assert got.theta_deg.dtype == want.theta_deg.dtype and got.q.shape == want.q.shape
    assert repr(got.meta) == repr(want.meta)


@pytest.mark.parametrize(
    "meta, message",
    [
        ("#phases_deg=0.0,90.0\n#counts_per_phase=1\n", "has 1 entries but phases_deg has 2"),
        ("#phases_deg=0.0,90.0,45.0\n#counts_per_phase=1,1\n", "has 2 entries but phases_deg has 3"),
        ("#counts_per_phase=1,1\n", "counts_per_phase has 2 entries but phases_deg is missing"),
    ],
)
def test_counts_per_phase_must_pair_with_phases_deg(tmp_path, meta, message):
    path = tmp_path / "data.csv"
    path.write_text(meta + "theta_deg,q\n0.0,0.5\n90.0,0.4\n")
    for reader in (load_dataset, load_dataset_line_by_line):
        with pytest.raises(SchemaError, match=message):
            reader(path)


def test_load_dataset_reads_a_pipeline_file_as_the_line_reader(tmp_path):
    rho = squeezed_vacuum(SqueezeSpec(0.4), CUTOFF).to_density()
    ds = synth_dataset(rho, PhasePlan(samples_per_phase=2000), seed=9)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    got, want = load_dataset(path), load_dataset_line_by_line(path)
    assert got.theta_deg.tobytes() == want.theta_deg.tobytes() == ds.theta_deg.tobytes()
    assert got.q.tobytes() == want.q.tobytes() == ds.q.tobytes()
    assert got.meta == want.meta


@pytest.mark.parametrize(
    "body, line",
    [
        ("0.0,0.5\n0.0,\x1c0.4\n", 3),  # a separator float() refuses
        ("0.0,0.5\n0.0,1_0.4\n", None),  # an underscore float() takes
        ("0.0,0.5\n#seed=abc\n0.0,0.4\n", 3),  # metadata among the records
        ("0.0,0.5\n\n0.0,0.4,1\n", 4),
    ],
)
def test_records_the_block_parser_would_misread_go_line_by_line(tmp_path, body, line):
    path = tmp_path / "data.csv"
    path.write_text("theta_deg,q\n" + body)
    if line is None:
        assert load_dataset(path).q.tolist() == [0.5, 10.4]
        return
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line_number == line
