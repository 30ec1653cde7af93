import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catsim import phasespace, pipeline
from catsim.channels import ExperimentParams
from catsim.cli import main as cli_main
from catsim.config import (
    CatSpec,
    GridSpec,
    RunConfig,
    load_config,
    preset,
    resolve_config,
    save_config,
)
from catsim.errors import ConfigError, MissingInputError, SchemaError
from catsim.fock import fidelity, load_density_matrix
from catsim.phasespace import coherence_peak
from catsim.sampler import PhasePlan
from catsim.tomography import MleConfig


def test_import_catsim_loads_no_scipy():
    # scipy is a test dependency only: the package and its CLI run on numpy
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, catsim, catsim.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    assert done.stdout.strip() == "[]"


def light_config(**overrides):
    base = dict(
        experiment=ExperimentParams(herald_n=1, idler_cutoff=8),
        plan=PhasePlan(samples_per_phase=1500),
        mle=MleConfig(cutoff=10, bin_width=0.05, max_iterations=400, gap_tolerance=1e-3),
        grids=GridSpec(quad_points=81, wigner_points=41, marginal_step_deg=45.0),
        bootstrap_replicas=2,
        seed=7,
    )
    base.update(overrides)
    return RunConfig(**base)


def run_all(cfg, out):
    pipeline.simulate(cfg, out)
    pipeline.sample(cfg, out)
    pipeline.reconstruct(cfg, out)
    pipeline.analyze(cfg, out)
    return pipeline.report(cfg, out)


# ---------------------------------------------------------------- config


def test_config_roundtrip_is_identity():
    cfg = light_config()
    text = cfg.to_ini()
    again = RunConfig.from_ini(text)
    assert again == cfg
    assert again.to_ini() == text


def test_config_file_roundtrip(tmp_path):
    cfg = preset("default")
    path = tmp_path / "run.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_presets():
    d = preset("default")
    assert d.experiment.squeeze.level_db == pytest.approx(6.5)
    assert d.experiment.bs_reflectivity == 0.81
    assert d.mode == "subtraction"
    ll = preset("lossless")
    assert ll.experiment.opa_loss == 0.0
    assert ll.experiment.idler_efficiency == 1.0
    assert ll.experiment.signal_efficiency == 1.0
    ps = preset("pure_subtraction")
    assert ps.experiment.squeeze.r == pytest.approx(0.576)
    assert ps.experiment.bs_reflectivity == 0.81
    cat = preset("cat_panels")
    assert cat.mode == "cat_panels"
    assert cat.cat.alpha == 2.5j
    with pytest.raises(ConfigError):
        preset("nope")


def test_default_herald_4_at_seed_312_reconstructs_above_the_fidelity_bar(tmp_path):
    # at MLE cutoff 15 this state reconstructed at 0.979, below report's 0.98 bar
    cfg = preset("default").with_seed(312)
    index = pipeline.state_names(cfg).index("herald_4")
    rho = pipeline._build_states(cfg)["herald_4"]
    seed = pipeline._subseed(312, 1, index)
    ds = pipeline.synth_dataset(rho, cfg.plan, seed, source_id="herald_4")
    pipeline.save_dataset(ds, tmp_path / "herald_4.csv")
    rho_hat, _ = pipeline.mle_reconstruct(pipeline.load_dataset(tmp_path / "herald_4.csv"), cfg.mle)
    common = max(rho.config.cutoff, rho_hat.config.cutoff)
    assert fidelity(rho.embed(common), rho_hat.embed(common)) >= 0.98

def test_resolve_config_prefers_files(tmp_path):
    path = tmp_path / "c.ini"
    save_config(light_config(), path)
    assert resolve_config(str(path)) == light_config()
    assert resolve_config("lossless") == preset("lossless")
    with pytest.raises(ConfigError):
        resolve_config("definitely_not_a_preset")


def test_config_seed_override():
    cfg = light_config()
    assert cfg.with_seed(123).seed == 123


def test_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        RunConfig(mode="wat")


def test_config_refuses_the_replaced_tolerance_key():
    # an INI written before the MLE stopped on its likelihood gap
    text = light_config().to_ini()
    old = text.replace("gap_tolerance = 0.001", "log_likelihood_tolerance = 1e-08")
    assert "gap_tolerance" not in old
    refused = "log_likelihood_tolerance is no longer read.*gap_tolerance"
    with pytest.raises(ConfigError, match=refused):
        RunConfig.from_ini(old)
    both = text.replace(
        "gap_tolerance = 0.001", "gap_tolerance = 0.001\nlog_likelihood_tolerance = 1e-08"
    )
    with pytest.raises(ConfigError, match=refused):
        RunConfig.from_ini(both)


@pytest.mark.parametrize("value", ["0.0", "-0.001", "nan", "inf"])
def test_config_rejects_non_positive_gap_tolerance(value):
    text = light_config().to_ini().replace("gap_tolerance = 0.001", f"gap_tolerance = {value}")
    with pytest.raises(ConfigError, match="gap_tolerance"):
        RunConfig.from_ini(text)


@pytest.mark.parametrize("key, value", [("idler_cutoff", "200"), ("cutoff", "500")])
def test_joint_dimension_over_budget_is_a_config_error(tmp_path, capsys, key, value):
    # refused with the other config errors: exit 2, and nothing written
    text = light_config().to_ini()
    changed = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    assert changed != text
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(changed)
    out = tmp_path / "run"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "exceeds the budget 4096" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, key, value",
    [("subtraction", "squeeze_db", "6172.0"), ("cat_panels", "alpha_im", "1.4e154")],
)
def test_a_state_beyond_the_float_range_is_a_truncation_error(tmp_path, capsys, mode, key, value):
    # cosh(r) and |alpha|^2 overflow here; a value just below ends the same way
    text = light_config(mode=mode).to_ini()
    changed = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    assert changed != text
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(changed)
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    assert cli_main(argv) == 3
    assert "truncated tail weight 1.000e+00 exceeds 1.0e-06" in capsys.readouterr().err


# ---------------------------------------------------------------- stages


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = light_config()
    payload, ok = run_all(cfg, out)
    return cfg, out, payload, ok


def test_simulate_outputs(finished_run):
    cfg, out, _, _ = finished_run
    for name in ("input", "herald_0", "herald_1"):
        d = out / "states" / name
        for fname in (
            "density_matrix.json",
            "photon_distribution.csv",
            "rho_pp.csv",
            "rho_xx.csv",
            "coherence.csv",
            "wigner.csv",
            "wigner_xsection.csv",
            "marginals.csv",
        ):
            assert (d / fname).exists(), fname
    assert (out / "rates.csv").exists()
    assert (out / "manifest.json").exists()


def test_quadrature_grids_have_exact_zero_imaginary_part(finished_run):
    _, out, _, _ = finished_run
    for path in sorted(out.glob("states/*/rho_??.csv")):
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[1] == "axis1,axis2,re,im"
        assert {line.rsplit(",", 1)[1] for line in lines[2:]} == {"0.0"}, path


def test_simulate_twice_gives_the_same_bytes(tmp_path):
    cfg = light_config()
    for out in (tmp_path / "a", tmp_path / "b"):
        pipeline.simulate(cfg, out)
    a = {f.relative_to(tmp_path / "a"): f.read_bytes() for f in (tmp_path / "a").rglob("*.csv")}
    b = {f.relative_to(tmp_path / "b"): f.read_bytes() for f in (tmp_path / "b").rglob("*.csv")}
    assert a.keys() == b.keys() and len(a) > 10
    assert a == b


def test_manifest_lists_all_files_with_checksums(finished_run):
    _, out, _, _ = finished_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"simulate", "sample", "reconstruct", "analyze", "report"}
    for entry in manifest["stages"].values():
        assert entry["wall_seconds"] >= 0
        for rel, digest in entry["files"].items():
            assert (out / rel).exists()
            assert len(digest) == 64


def test_all_checks_pass_on_fresh_light_run(finished_run):
    _, _, payload, ok = finished_run
    assert ok, [c for c in payload["checks"] if not c["passed"]]


def test_analyze_summary_contents(finished_run):
    _, out, _, _ = finished_run
    summary = json.loads((out / "analysis" / "summary.json").read_text())
    assert set(summary["states"]) == {"input", "herald_0", "herald_1"}
    block = summary["states"]["herald_1"]
    assert 0.9 < block["fidelity"] <= 1.0
    assert block["origin_wigner"]["sigma"] >= 0.0
    # the count rates live in rates.csv alone, one row per state
    assert "count_rates" not in summary
    rates = (out / "rates.csv").read_text(encoding="ascii").splitlines()
    assert [line.split(",")[0] for line in rates[1:]] == ["input", "herald_0", "herald_1"]
    assert float(rates[2].split(",")[3]) > 0.0
    # the coherence read-out is a property of the state, not of the [grids]
    # axis (81 points here), so it is the quantity bootstrap's sigma spreads
    for name, block in summary["states"].items():
        sim = coherence_peak(load_density_matrix(out / "states" / name / "density_matrix.json"))
        rec = coherence_peak(load_density_matrix(out / "recon" / name / "density_matrix.json"))
        assert block["peak_coherence"]["simulated"] == sim.off_diagonal_value
        assert block["peak_coherence"]["simulated_diag"] == sim.diagonal_value
        assert block["peak_coherence"]["reconstructed"] == rec.off_diagonal_value


def test_reconstruction_and_bootstrap_report_convergence(finished_run):
    cfg, out, _, _ = finished_run
    for name in ("input", "herald_0", "herald_1"):
        diag = json.loads((out / "recon" / name / "diagnostics.json").read_text())
        assert diag["converged"]
        assert 0.0 <= diag["likelihood_gap"] <= cfg.mle.gap_tolerance
        assert diag["iterations"] == len(diag["log_likelihood_history"])
        boot = json.loads((out / "recon" / name / "bootstrap.json").read_text())
        assert boot["unconverged"] == 0
        assert 0.0 <= boot["max_likelihood_gap"] <= cfg.mle.gap_tolerance
        iterations = boot["iterations"]
        assert 1 <= iterations["median"] <= iterations["max"] <= cfg.mle.max_iterations


def test_missing_input_errors(tmp_path):
    cfg = light_config()
    with pytest.raises(MissingInputError):
        pipeline.sample(cfg, tmp_path / "empty")
    with pytest.raises(MissingInputError):
        pipeline.reconstruct(cfg, tmp_path / "empty")
    with pytest.raises(MissingInputError):
        pipeline.report(cfg, tmp_path / "empty")


def test_stage_with_mismatched_config_rejected(tmp_path):
    cfg = light_config()
    out = tmp_path / "mix"
    pipeline.simulate(cfg, out)
    with pytest.raises(ConfigError):
        pipeline.sample(cfg.with_seed(999), out)


def test_reconstruct_with_other_seed_keeps_manifest(tmp_path, capsys):
    cfg = light_config()
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    out = tmp_path / "kept"
    pipeline.simulate(cfg, out)
    pipeline.sample(cfg, out)
    argv = ["reconstruct", "--config", str(cfg_path), "--out", str(out), "--seed", "5"]
    assert cli_main(argv) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"simulate", "sample"}
    capsys.readouterr()


def test_reconstruct_rejects_non_finite_phase(tmp_path, capsys):
    cfg = light_config()
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    out = tmp_path / "nan"
    pipeline.simulate(cfg, out)
    pipeline.sample(cfg, out)
    victim = out / "datasets" / "herald_0.csv"
    lines = victim.read_text().splitlines()
    first = lines.index("theta_deg,q") + 1
    lines[first] = "nan," + lines[first].split(",")[1]
    victim.write_text("\n".join(lines) + "\n")
    assert cli_main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "phases must be finite" in capsys.readouterr().err


def test_reconstruct_rejects_malformed_metadata(finished_run, tmp_path, capsys):
    cfg, done, _, _ = finished_run
    out = tmp_path / "meta"
    shutil.copytree(done, out)
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    victim = out / "datasets" / "herald_0.csv"
    pristine = victim.read_text().splitlines()
    malformed = ["#seed=abc", "#phases_deg=1.0,x", "#counts_per_phase=1.5", "#shot_noise_variance=zz"]
    for line in malformed:
        key = line.partition("=")[0]
        index = next(i for i, text in enumerate(pristine) if text.startswith(key + "="))
        victim.write_text("\n".join(pristine[:index] + [line] + pristine[index + 1 :]) + "\n")
        assert cli_main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert f"line {index + 1}: unreadable {key} value" in capsys.readouterr().err


def test_reconstruct_reads_only_datasets(tmp_path):
    # stage isolation: after deleting every simulated state file, the
    # reconstruction still runs purely from the sampled records
    cfg = light_config()
    out = tmp_path / "iso"
    pipeline.simulate(cfg, out)
    pipeline.sample(cfg, out)
    shutil.rmtree(out / "states")
    files = pipeline.reconstruct(cfg, out)
    assert any(f.name == "density_matrix.json" for f in files)


def test_determinism_same_seed_same_bytes(tmp_path):
    cfg = light_config()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_all(cfg, out_a)
    run_all(cfg, out_b)
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    for stage in man_a["stages"]:
        assert man_a["stages"][stage]["files"] == man_b["stages"][stage]["files"]
    assert (out_a / "report" / "report.json").read_bytes() == (
        out_b / "report" / "report.json"
    ).read_bytes()
    assert (out_a / "analysis" / "summary.json").read_bytes() == (
        out_b / "analysis" / "summary.json"
    ).read_bytes()


def test_different_seed_changes_datasets(tmp_path):
    cfg = light_config()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    pipeline.simulate(cfg, out_a)
    pipeline.sample(cfg, out_a)
    cfg2 = cfg.with_seed(8)
    pipeline.simulate(cfg2, out_b)
    pipeline.sample(cfg2, out_b)
    a = (out_a / "datasets" / "herald_1.csv").read_bytes()
    b = (out_b / "datasets" / "herald_1.csv").read_bytes()
    assert a != b


def test_tampered_file_fails_integrity(tmp_path):
    cfg = light_config()
    out = tmp_path / "t"
    run_all(cfg, out)
    victim = out / "states" / "herald_1" / "wigner.csv"
    victim.write_text(victim.read_text() + "# tampered\n")
    payload, ok = pipeline.report(cfg, out)
    integrity = next(c for c in payload["checks"] if c["check"] == "manifest_integrity")
    assert not integrity["passed"]
    assert "wigner.csv" in integrity["detail"]
    # a failed check maps to the numeric-failure exit code
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3


def test_corrupt_summary_fails_integrity(tmp_path, capsys):
    cfg = light_config()
    out = tmp_path / "c"
    run_all(cfg, out)
    (out / "analysis" / "summary.json").write_text("{not json")
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    payload = json.loads((out / "report" / "report.json").read_text())
    assert [c["check"] for c in payload["checks"]] == ["manifest_integrity"]
    assert not payload["checks"][0]["passed"]
    assert "analysis/summary.json unreadable" in payload["checks"][0]["detail"]
    printed = capsys.readouterr().out
    assert printed == (out / "report" / "report.txt").read_text()
    assert "manifest_integrity  FAIL" in printed


@pytest.mark.parametrize("text", ["{}", "[]", '{"states": {}}'])
def test_summary_without_its_fields_fails_integrity(finished_run, tmp_path, capsys, text):
    cfg, done, _, _ = finished_run
    out = tmp_path / "s"
    shutil.copytree(done, out)
    (out / "analysis" / "summary.json").write_text(text)
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    payload = json.loads((out / "report" / "report.json").read_text())
    assert [c["check"] for c in payload["checks"]] == ["manifest_integrity"]
    assert "analysis/summary.json lacks its fields" in payload["checks"][0]["detail"]
    printed = capsys.readouterr().out
    assert printed == (out / "report" / "report.txt").read_text()
    assert "manifest_integrity  FAIL" in printed


def test_report_reads_wigner_minima_instead_of_recomputing(tmp_path, monkeypatch):
    cfg = light_config()
    out = tmp_path / "r"
    payload, ok = run_all(cfg, out)
    # oracle: the verdict from a fresh Wigner grid of each subtracted state
    axis = np.linspace(cfg.grids.wigner_min, cfg.grids.wigner_max, cfg.grids.wigner_points)
    minima = []
    for n in range(1, cfg.experiment.herald_n + 1):
        rho = load_density_matrix(out / "states" / f"herald_{n}" / "density_matrix.json")
        minima.append(float(pipeline.wigner(rho, axis, axis).min()))
    expected = {
        "check": "wigner_negativity",
        "passed": all(m < -0.002 for m in minima),
        "detail": "min W < -0.002 for every n >= 1: " + ", ".join(f"{m:+.4f}" for m in minima),
    }

    def no_wigner(*args, **kwargs):
        raise AssertionError("report recomputed a Wigner grid")

    monkeypatch.setattr(pipeline, "wigner", no_wigner)
    again, ok_again = pipeline.report(cfg, out)
    assert ok_again == ok
    assert next(c for c in again["checks"] if c["check"] == "wigner_negativity") == expected
    assert again == payload


def test_report_rejects_rates_without_wigner_minima(tmp_path):
    cfg = light_config()
    out = tmp_path / "old"
    run_all(cfg, out)
    rates = out / "rates.csv"
    rows = [line.rsplit(",", 1)[0] for line in rates.read_text().splitlines()]
    rates.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="wigner_min"):
        pipeline.report(cfg, out)


@pytest.fixture(scope="module")
def four_photon_run(tmp_path_factory):
    """A finished light run up to herald_4, where report checks the count rates."""
    out = tmp_path_factory.mktemp("four")
    cfg = light_config(experiment=ExperimentParams(herald_n=4, idler_cutoff=8))
    run_all(cfg, out)
    return cfg, out


def edit_rates(done, out, edits: dict) -> None:
    """Copy the run `done` to `out` and set rates.csv's (state, column) cells to
    the given texts."""
    shutil.copytree(done, out)
    path = out / "rates.csv"
    rows = [line.split(",") for line in path.read_text(encoding="ascii").splitlines()]
    for (state, column), text in edits.items():
        row = next(row for row in rows if row[0] == state)
        row[rows[0].index(column)] = text
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def test_report_reads_count_rates_from_rates_csv(four_photon_run, tmp_path):
    cfg, done = four_photon_run
    out = tmp_path / "run"
    edit_rates(done, out, {("herald_3", "rate_cps"): "200.0", ("herald_4", "rate_cps"): "1.5"})
    payload, _ = pipeline.report(cfg, out)
    check = next(c for c in payload["checks"] if c["check"] == "count_rates")
    assert check["passed"]
    assert check["detail"].startswith("rate(3)=200.0 cps vs 200.0, rate(4)=1.50 cps vs 1.5,")


@pytest.mark.parametrize(
    "state, column, text, message",
    [
        ("herald_4", "rate_cps", "x", "line 7: unreadable rate_cps in rates.csv"),
        ("herald_2", "wigner_min", "", "line 5: unreadable wigner_min in rates.csv"),
        ("herald_4", "rate_cps", "1.5\u00e9", "rates.csv is not ASCII text"),
    ],
)
def test_report_names_an_unreadable_rates_cell(
    four_photon_run, tmp_path, capsys, state, column, text, message
):
    _, done = four_photon_run
    out = tmp_path / "run"
    edit_rates(done, out, {(state, column): text})
    argv = ["report", "--config", str(out / "config.ini"), "--out", str(out)]
    assert cli_main(argv) == 3
    assert message in capsys.readouterr().err


def test_single_phase_warning_reaches_report(tmp_path):
    import warnings as _warnings

    from catsim.fock import fidelity, load_density_matrix
    from catsim.sampler import save_dataset, synth_dataset

    cfg = light_config()
    out = tmp_path / "warned"
    pipeline.simulate(cfg, out)
    pipeline.sample(cfg, out)
    # a user-supplied dataset with one phase cannot constrain off-diagonals
    rho = load_density_matrix(out / "states" / "herald_1" / "density_matrix.json")
    single = synth_dataset(
        rho, PhasePlan(phases_deg=(0.0,), samples_per_phase=1500), seed=3, source_id="herald_1"
    )
    save_dataset(single, out / "datasets" / "herald_1.csv")
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        pipeline.reconstruct(cfg, out)
        pipeline.analyze(cfg, out)
        payload, _ = pipeline.report(cfg, out)
    assert "herald_1" in payload["reconstruction_warnings"]
    assert any("single phase" in w for w in payload["reconstruction_warnings"]["herald_1"])
    text = (out / "report" / "report.txt").read_text()
    assert "warning [herald_1]" in text


def test_cat_panels_mode(tmp_path):
    cfg = RunConfig(
        plan=PhasePlan(samples_per_phase=400),
        mle=MleConfig(cutoff=12, bin_width=0.1, max_iterations=200, gap_tolerance=1e-3),
        grids=GridSpec(quad_points=121, wigner_points=41, marginal_step_deg=45.0),
        cat=CatSpec(alpha_im=2.0),
        mode="cat_panels",
        bootstrap_replicas=2,
        seed=11,
    )
    out = tmp_path / "cats"
    payload, ok = run_all(cfg, out)
    names = {"cat_even", "cat_odd", "cat_even_lossy", "cat_mixed"}
    assert {p.name for p in (out / "states").iterdir()} == names
    by_name = {c["check"]: c for c in payload["checks"]}
    assert by_name["cat_origin_values"]["passed"]
    assert by_name["loss_degrades_coherence"]["passed"]
    assert by_name["mixture_has_no_coherence"]["passed"]


# ---------------------------------------------------------------- CLI


def test_cli_stage_flow(tmp_path):
    # the second quadrature axis is not symmetric about zero: it sets only the
    # output tables, so analyze reads the coherence witness as usual
    asymmetric = GridSpec(-5.0, 6.0, quad_points=45, wigner_points=41, marginal_step_deg=45.0)
    for i, cfg in enumerate((light_config(), light_config(grids=asymmetric))):
        cfg_path = tmp_path / f"cfg{i}.ini"
        save_config(cfg, cfg_path)
        out = tmp_path / f"cli_run{i}"
        for stage in ("simulate", "sample", "reconstruct", "analyze"):
            code = cli_main([stage, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
        code = cli_main(["report", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0


def test_cli_exit_codes(tmp_path, capsys):
    # unknown config/preset -> 2
    assert cli_main(["simulate", "--config", "no_such_thing", "--out", str(tmp_path / "x")]) == 2
    # missing upstream stage -> 4
    cfg_path = tmp_path / "cfg.ini"
    save_config(light_config(), cfg_path)
    assert cli_main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "y")]) == 4
    capsys.readouterr()
    # unreadable manifest: a later stage names it (4), simulate starts a fresh record
    out = tmp_path / "z"
    out.mkdir()
    (out / "manifest.json").write_text("{not json")
    assert cli_main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 4
    assert f"{out / 'manifest.json'} is unreadable" in capsys.readouterr().err
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert set(json.loads((out / "manifest.json").read_text())["stages"]) == {"simulate"}
    assert cli_main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_cli_preset_print(capsys):
    assert cli_main(["preset", "default"]) == 0
    text = capsys.readouterr().out
    assert "[experiment]" in text
    assert "squeeze_db" in text
    assert RunConfig.from_ini(text) == preset("default")


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    save_config(light_config(), cfg_path)
    out = tmp_path / "seeded"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "42"]) == 0
    stored = load_config(out / "config.ini")
    assert stored.seed == 42


# ---------------------------------------------------------------- malformed run-directory JSON


def _copied_run(finished_run, tmp_path):
    cfg, done, _, _ = finished_run
    out = tmp_path / "run"
    shutil.copytree(done, out)
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    return out, cfg_path


VACUUM_ROWS = '"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]'


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"cutoff": 30, "im": []}',
        '{"cutoff": 1.9, %s}' % VACUUM_ROWS,
        '{"cutoff": "1", %s}' % VACUUM_ROWS,
    ],
    ids=["not_json", "no_re", "float_cutoff", "str_cutoff"],
)
def test_sample_names_a_malformed_state_file(finished_run, tmp_path, capsys, text):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    victim = out / "states" / "input" / "density_matrix.json"
    victim.write_text(text)
    assert cli_main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert str(victim) in capsys.readouterr().err


def test_analyze_names_a_malformed_reconstruction(finished_run, tmp_path, capsys):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    victim = out / "recon" / "input" / "density_matrix.json"
    victim.write_text("{not json")
    assert cli_main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert str(victim) in capsys.readouterr().err


def _tree(root):
    return {f.relative_to(root).as_posix(): f.read_bytes() for f in root.rglob("*") if f.is_file()}


def test_a_stage_that_dies_mid_write_leaves_the_old_files(finished_run, tmp_path, monkeypatch):
    out, _ = _copied_run(finished_run, tmp_path)
    before = _tree(out)
    grid_blocks = phasespace._grid_blocks

    def one_block_then_fail(*args):
        yield next(grid_blocks(*args))
        raise RuntimeError("write failed")

    monkeypatch.setattr(phasespace, "_grid_blocks", one_block_then_fail)
    with pytest.raises(RuntimeError, match="write failed"):
        pipeline.simulate(finished_run[0], out)  # dies inside states/input/rho_pp.csv
    assert _tree(out) == before  # every old file, manifest.json too, and no temp file


def test_simulate_records_no_temp_file_a_killed_run_left(tmp_path):
    stale = tmp_path / "states" / "input" / ".rho_pp.csv.4242.tmp"
    stale.parent.mkdir(parents=True)
    stale.write_text("0.0,0.0,")
    pipeline.simulate(light_config(), tmp_path)
    files = json.loads((tmp_path / "manifest.json").read_text())["stages"]["simulate"]["files"]
    assert sorted(Path(f).name for f in files if f.startswith("states/input/")) == [
        "coherence.csv", "density_matrix.json", "marginals.csv", "photon_distribution.csv",
        "rho_pp.csv", "rho_xx.csv", "wigner.csv", "wigner_xsection.csv",
    ]


@pytest.mark.parametrize(
    "stage, gone, upstream",
    [
        ("sample", "states/herald_1/density_matrix.json", "simulate"),
        ("reconstruct", "datasets/herald_1.csv", "sample"),
        ("analyze", "states/herald_1/density_matrix.json", "simulate"),
        ("analyze", "datasets/herald_1.csv", "sample"),
        ("analyze", "recon/herald_1/density_matrix.json", "reconstruct"),
    ],
)
def test_a_stage_names_the_input_that_is_gone(
    finished_run, tmp_path, capsys, stage, gone, upstream
):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    (out / gone).unlink()
    manifest = (out / "manifest.json").read_bytes()
    assert cli_main([stage, "--config", str(cfg_path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"missing outputs of stage '{upstream}'" in err and str(out / gone) in err
    assert (out / "manifest.json").read_bytes() == manifest


def test_reconstruct_refuses_only_a_recorded_dataset_that_is_gone(finished_run, tmp_path, capsys):
    # a CSV the user adds reconstructs; one that sample recorded must be there
    out, cfg_path = _copied_run(finished_run, tmp_path)
    shutil.rmtree(out / "recon")
    datasets = out / "datasets"
    shutil.copy(datasets / "herald_0.csv", datasets / "mine.csv")
    (datasets / "herald_1.csv").unlink()
    argv = ["reconstruct", "--config", str(cfg_path), "--out", str(out)]
    assert cli_main(argv) == 4
    assert not (out / "recon").exists()  # refused before any fit
    shutil.copy(datasets / "herald_0.csv", datasets / "herald_1.csv")
    assert cli_main(argv) == 0
    assert (out / "recon" / "mine" / "density_matrix.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("text", ["{not json", "[1]", '{"warnings": 1}'])
def test_unreadable_diagnostics_fail_integrity(finished_run, tmp_path, capsys, text):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    (out / "recon" / "herald_0" / "diagnostics.json").write_text(text)
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    payload = json.loads((out / "report" / "report.json").read_text())
    integrity = payload["checks"][0]
    assert integrity["check"] == "manifest_integrity" and not integrity["passed"]
    assert "recon/herald_0/diagnostics.json unreadable" in integrity["detail"]
    assert capsys.readouterr().out == (out / "report" / "report.txt").read_text()


@pytest.mark.parametrize(
    "key, value", [("reconstructed", []), ("simulated", 10**400)], ids=["list", "huge_int"]
)
def test_summary_value_of_another_kind_fails_integrity(finished_run, tmp_path, key, value):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    path = out / "analysis" / "summary.json"
    summary = json.loads(path.read_text())
    summary["states"]["herald_0"]["origin_wigner"][key] = value
    path.write_text(json.dumps(summary))
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    payload = json.loads((out / "report" / "report.json").read_text())
    assert "analysis/summary.json lacks its fields" in payload["checks"][0]["detail"]


def test_report_text_escapes_characters_beyond_ascii(finished_run, tmp_path, capsys):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    victim = out / "recon" / "herald_0" / "diagnostics.json"
    victim.write_text(json.dumps({"warnings": ["\u00e9 \ud800"]}))
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    text = (out / "report" / "report.txt").read_text(encoding="ascii")
    assert "warning [herald_0]: \\xe9 \\ud800" in text
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "stage, entry",
    [
        ("simulate", 1),
        ("analyze", {"files": [], "wall_seconds": 1.0}),
        ("sample", {"files": {"a.csv": 1}, "wall_seconds": 1.0}),
        ("sample", {"files": {}, "wall_seconds": float("nan")}),
        ("sample", {"files": {}, "wall_seconds": "1"}),
        ("sample", {"files": {}}),
    ],
    ids=["entry_int", "files_list", "digest_int", "wall_nan", "wall_text", "wall_missing"],
)
def test_malformed_manifest_entry_is_an_unreadable_manifest(
    finished_run, tmp_path, capsys, stage, entry
):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stages"][stage] = entry
    path.write_text(json.dumps(manifest))
    assert pipeline._read_manifest(path) is None
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 4
    assert f"{path} is unreadable" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["absolute", "../outside.txt"])
def test_report_opens_no_recorded_name_outside_the_run(finished_run, tmp_path, capsys, name):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    outside = tmp_path / "outside.txt"
    outside.write_text("not a run file\n")
    name = str(outside) if name == "absolute" else name
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stages"]["simulate"]["files"][name] = pipeline._sha256(outside)  # a matching digest
    path.write_text(json.dumps(manifest))
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    integrity = json.loads((out / "report" / "report.json").read_text())["checks"][0]
    assert integrity["check"] == "manifest_integrity" and not integrity["passed"]
    assert f"{name} outside the run directory" in integrity["detail"]
    assert capsys.readouterr().out == (out / "report" / "report.txt").read_text()


@pytest.mark.parametrize(
    "name, problem", [("states", "not a regular file"), ("a\x00b", "not a file name")]
)
def test_report_names_a_recorded_name_that_is_no_file(finished_run, tmp_path, capsys, name, problem):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stages"]["simulate"]["files"][name] = "0" * 64
    path.write_text(json.dumps(manifest))
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    integrity = json.loads((out / "report" / "report.json").read_text())["checks"][0]
    assert integrity["check"] == "manifest_integrity" and not integrity["passed"]
    assert f"{name} {problem}" in integrity["detail"]
    assert capsys.readouterr().out == (out / "report" / "report.txt").read_text()


@pytest.mark.parametrize("rel", ["analysis/summary.json", "recon/herald_0/diagnostics.json"])
def test_report_file_replaced_by_a_directory_fails_integrity(finished_run, tmp_path, capsys, rel):
    out, cfg_path = _copied_run(finished_run, tmp_path)
    (out / rel).unlink()
    (out / rel).mkdir()
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 3
    integrity = json.loads((out / "report" / "report.json").read_text())["checks"][0]
    assert integrity["check"] == "manifest_integrity" and not integrity["passed"]
    assert f"{rel} unreadable" in integrity["detail"]
    assert capsys.readouterr().out == (out / "report" / "report.txt").read_text()
