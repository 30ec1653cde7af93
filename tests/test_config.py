"""The INI form of RunConfig: exact round trips, pinned preset hashes, and
refusal of malformed text with ConfigError only."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catsim.channels import ExperimentParams
from catsim.cli import main as cli_main
from catsim.config import CAT_PANELS_MODE, SUBTRACTION_MODE, CatSpec, GridSpec, RunConfig, preset
from catsim.errors import ConfigError, DomainError
from catsim.fock import SqueezeSpec, _modulus_squared
from catsim.sampler import PhasePlan
from catsim.tomography import MleConfig

# run directories record these hashes; a codec change must not move them, a
# change of a preset's values does
PRESET_HASHES = {
    "default": "6a2b979436918258119ff8f9d1532ac9027f2db1c2f5201c899ba5e3d38a07c2",
    "lossless": "84ff090d822cf2f46cd4919227027d282bc4cc3efc823e3dc58c28094d0baed4",
    "pure_subtraction": "00cbb49f0a99a5e92b4ebf4b85d43210408d51e46aa3960c6fc32cf044f0582c",
    "cat_panels": "36ce36f5cfca2f91012b79c4a29ebc309e3daf73282f81ad730a7181939162a5",
}

# the keys an INI may leave out; every other key is required
OPTIONAL_KEYS = {"alpha_re", "alpha_im", "loss", "mode", "bootstrap_replicas"}

FINITE = st.floats(allow_nan=False, allow_infinity=False)
R_PER_DB = math.log(10.0) / 20.0
# any finite r >= 0 whose dB level, r / R_PER_DB, is finite too
SQUEEZE_R = st.floats(min_value=0.0, allow_infinity=False).filter(lambda r: r / R_PER_DB < math.inf)
UNIT = st.floats(0.0, 1.0)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
BOUNDS = st.tuples(FINITE, FINITE).filter(lambda b: b[0] < b[1])

CONFIGS = st.builds(
    RunConfig,
    experiment=st.builds(
        dict,
        squeeze=st.floats(0.0, 30.0).map(SqueezeSpec.from_db) | SQUEEZE_R.map(SqueezeSpec),
        opa_loss=UNIT,
        bs_reflectivity=st.floats(0.0, 1.0, exclude_min=True),
        idler_efficiency=UNIT,
        signal_efficiency=UNIT,
        herald_n=st.integers(0, 20),
        rep_rate_hz=POSITIVE,
        duty_cycle=st.floats(0.0, 1.0, exclude_min=True),
        cutoff=st.integers(1, 200),
        idler_cutoff=st.integers(1, 50),
    )
    .filter(
        lambda kw: kw["herald_n"] <= kw["idler_cutoff"]
        and (kw["cutoff"] + 1) * (kw["idler_cutoff"] + 1) <= 4096  # the joint-dimension budget
    )
    .map(lambda kw: ExperimentParams(**kw)),
    plan=st.builds(
        PhasePlan,
        phases_deg=st.lists(FINITE, min_size=1, max_size=8, unique=True).map(tuple),
        samples_per_phase=st.integers(1, 10**9),
    ),
    mle=st.builds(
        MleConfig,
        cutoff=st.integers(1, 60),
        max_iterations=st.integers(1, 10**6),
        gap_tolerance=POSITIVE,
        bin_width=st.none() | POSITIVE,
    ),
    grids=st.builds(
        lambda quad, wigner, quad_points, wigner_points, step: GridSpec(
            *quad, quad_points, *wigner, wigner_points, step
        ),
        BOUNDS,
        BOUNDS,
        st.integers(3, 10**5),
        st.integers(3, 10**5),
        POSITIVE,
    ),
    cat=st.tuples(FINITE, FINITE, UNIT)
    .filter(lambda c: _modulus_squared(complex(c[0], c[1])) > 0)  # CatSpec refuses |alpha|^2 = 0
    .map(lambda c: CatSpec(*c)),
    mode=st.sampled_from([SUBTRACTION_MODE, CAT_PANELS_MODE]),
    seed=st.integers(0, 2**64),
    bootstrap_replicas=st.integers(2, 10**6),
)


def with_value(text: str, key: str, value: str) -> str:
    changed, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    assert n == 1
    return changed


@pytest.mark.parametrize("name", sorted(PRESET_HASHES))
def test_preset_config_hash_is_pinned(name):
    assert preset(name).config_hash() == PRESET_HASHES[name]


@given(SQUEEZE_R)
def test_squeeze_r_is_the_value_its_db_text_reads_back_as(r):
    spec = SqueezeSpec(r)
    assert SqueezeSpec.from_db(float(repr(spec.level_db))) == spec
    assert SqueezeSpec(spec.r) == spec


def test_squeeze_r_with_an_overflowing_db_level_is_refused():
    with pytest.raises(DomainError, match="finite dB level"):
        SqueezeSpec(1e308)


@given(CONFIGS)
def test_generated_configs_roundtrip(cfg):
    text = cfg.to_ini()
    again = RunConfig.from_ini(text)
    assert again == cfg
    assert again.to_ini() == text


@given(
    st.sampled_from(sorted(PRESET_HASHES)),
    st.data(),
    st.text() | st.sampled_from(["nan", "inf", "-inf"]),
)
def test_mutated_preset_text_raises_only_config_error(name, data, noise):
    lines = preset(name).to_ini().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.booleans()):
        del lines[i]
    else:
        lines[i] = f"{lines[i].partition(' = ')[0]} = {noise}"
    try:
        RunConfig.from_ini("\n".join(lines))
    except ConfigError:
        pass


@pytest.mark.parametrize("name", sorted(PRESET_HASHES))
def test_only_cat_and_two_run_keys_may_be_missing(name):
    lines = preset(name).to_ini().splitlines()
    for i, line in enumerate(lines):
        key, sep, _ = line.partition(" = ")
        if not sep:
            continue
        text = "\n".join(lines[:i] + lines[i + 1 :])
        if key not in OPTIONAL_KEYS:
            with pytest.raises(ConfigError):
                RunConfig.from_ini(text)
            continue
        cfg = RunConfig.from_ini(text)
        owner, default = (cfg.cat, CatSpec()) if hasattr(CatSpec(), key) else (cfg, RunConfig())
        assert getattr(owner, key) == getattr(default, key)
    without_cat = "\n".join(lines[: lines.index("[cat]")])
    assert RunConfig.from_ini(without_cat) == preset(name)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("marginal_step_deg", "nan", "marginal_step_deg"),
        ("marginal_step_deg", "inf", "marginal_step_deg"),
        ("binning", "nan", "bin_width"),
        ("binning", "inf", "bin_width"),
        ("rep_rate_hz", "nan", "rep_rate_hz"),
        ("rep_rate_hz", "inf", "rep_rate_hz"),
        ("loss", "nan", "cat needs"),
        ("loss", "-0.1", "cat needs"),
        ("loss", "1.5", "cat needs"),
        ("alpha_re", "nan", "cat needs"),
        ("alpha_im", "-inf", "cat needs"),
        ("alpha_im", "0.0", "cat needs a finite nonzero alpha"),  # alpha_re is 0.0 too
        ("alpha_im", "1e-200", "cat needs a finite nonzero alpha"),  # |alpha|^2 underflows
        ("seed", "-5", "seed must be >= 0, got -5"),
        ("wigner_max", "inf", "grid bounds must be finite"),
        ("wigner_min", "nan", "grid bounds must be finite"),
        ("quad_min", "-inf", "grid bounds must be finite"),
        ("squeeze_db", "inf", "squeezing level"),
        ("squeeze_db", "nan", "squeezing level"),
        ("phases_deg", "0.0, nan", "phases_deg must be finite"),
        ("phases_deg", "0.0, inf", "phases_deg must be finite"),
        ("phases_deg", "0.0, 0.0, 90.0", "phases_deg repeats a phase"),
        ("phases_deg", "0.0, 90.0, -0.0", "phases_deg repeats a phase"),
        ("herald_n", "13", "herald_n 13 exceeds idler_cutoff 12"),
    ],
)
def test_non_finite_and_out_of_range_values_are_refused(tmp_path, capsys, key, value, message):
    text = with_value(preset("default").to_ini(), key, value)
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_ini(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # refused before anything is written


def test_a_negative_seed_override_is_refused(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        preset("default").with_seed(-1)
    argv = ["simulate", "--config", "default", "--out", str(tmp_path / "run"), "--seed", "-1"]
    assert cli_main(argv) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_config_file_that_is_not_ascii_is_refused(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(preset("default").to_ini() + "# caf\u00e9\n", encoding="utf-8")
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "is not ASCII text" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # refused before anything is written


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("gap_tolerance = 0.001", "gap_tolerance = 0.001\ngap_tol = 0.01", "[mle] gap_tol is no"),
        ("[cat]", "[gridz]\nquad_points = 81\n\n[cat]", "section [gridz] is not read"),
        ("[cat]", "[cat]\nalpha = 2.5", "[cat] alpha is no longer read"),
        ("[run]", "[run]\nworkers = 2", "[run] workers is no longer read"),
    ],
    ids=["key_typo", "added_section", "cat_key", "run_key"],
)
def test_unknown_keys_and_sections_are_refused(tmp_path, capsys, old, new, message):
    text = preset("default").to_ini()
    assert text.count(old) == 1
    path = tmp_path / "bad.ini"
    path.write_text(text.replace(old, new))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # refused before anything is written
