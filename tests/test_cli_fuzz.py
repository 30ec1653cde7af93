"""Fuzzed run-directory files through the CLI: whatever the text of one file,
the stage that reads it ends in a documented exit code (0, 2, 3 or 4) and
raises nothing else."""

import contextlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catsim import pipeline
from catsim.channels import ExperimentParams
from catsim.cli import main as cli_main
from catsim.config import GridSpec, RunConfig, save_config
from catsim.sampler import PhasePlan
from catsim.tomography import MleConfig

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}

FUZZ = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def edits(original: str):
    """The original text with one slice replaced by a short random text."""
    return st.tuples(
        st.integers(0, len(original)), st.integers(0, 6), st.text(max_size=6)
    ).map(lambda e: original[: e[0]] + e[2] + original[e[0] + e[1] :])


def texts(original: str):
    return st.one_of(st.text(max_size=30), JSON.map(json.dumps), edits(original))


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A finished light run and its config file."""
    base = tmp_path_factory.mktemp("fuzz")
    cfg = RunConfig(
        experiment=ExperimentParams(herald_n=1, idler_cutoff=6),
        plan=PhasePlan(phases_deg=(0.0, 45.0, 90.0), samples_per_phase=200),
        mle=MleConfig(cutoff=6, bin_width=0.1, max_iterations=200),
        grids=GridSpec(quad_points=21, wigner_points=11, marginal_step_deg=90.0),
        bootstrap_replicas=2,
        seed=5,
    )
    cfg_path = base / "cfg.ini"
    save_config(cfg, cfg_path)
    out = base / "run"
    for stage in ("simulate", "sample", "reconstruct", "analyze"):
        getattr(pipeline, stage)(cfg, out)
    pipeline.report(cfg, out)
    return out, cfg_path


def run_stage(run, rel: str, text: str, stage: str) -> int:
    """Run one stage on a copy of the run whose file rel holds text."""
    done, cfg_path = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(done, out)
        (out / rel).write_bytes(text.encode("utf-8"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the CLI reports warnings; it does not raise them
                return cli_main([stage, "--config", str(cfg_path), "--out", str(out)])


def original(run, rel: str) -> str:
    return (run[0] / rel).read_text(encoding="ascii")


@FUZZ
@given(data=st.data())
def test_fuzzed_manifest(run, data):
    manifest = json.loads(original(run, "manifest.json"))
    stage = data.draw(st.sampled_from(sorted(manifest["stages"])))
    field = data.draw(st.sampled_from([None, "files", "wall_seconds"]))
    value = data.draw(JSON)
    if field is None:
        manifest["stages"][stage] = value
    else:
        manifest["stages"][stage][field] = value
    text = data.draw(st.just(json.dumps(manifest)) | texts(original(run, "manifest.json")))
    assert run_stage(run, "manifest.json", text, "report") in DOCUMENTED_EXIT_CODES


@FUZZ
@given(data=st.data())
def test_fuzzed_summary(run, data):
    summary = json.loads(original(run, "analysis/summary.json"))
    block = summary["states"][data.draw(st.sampled_from(sorted(summary["states"])))]
    key = data.draw(st.sampled_from(sorted(block)))
    if isinstance(block[key], dict):
        block[key][data.draw(st.sampled_from(sorted(block[key])))] = data.draw(JSON)
    else:
        block[key] = data.draw(JSON)
    if data.draw(st.booleans()):
        summary["count_rates"] = data.draw(JSON)
    text = data.draw(st.just(json.dumps(summary)) | texts(original(run, "analysis/summary.json")))
    assert run_stage(run, "analysis/summary.json", text, "report") in DOCUMENTED_EXIT_CODES


@FUZZ
@given(data=st.data())
def test_fuzzed_diagnostics(run, data):
    rel = "recon/herald_1/diagnostics.json"
    diag = json.loads(original(run, rel))
    diag[data.draw(st.sampled_from(sorted(diag)))] = data.draw(JSON)
    text = data.draw(st.just(json.dumps(diag)) | texts(original(run, rel)))
    assert run_stage(run, rel, text, "report") in DOCUMENTED_EXIT_CODES


MATRICES = st.fixed_dictionaries(
    {"cutoff": st.integers(-1, 3) | JSON, "re": JSON, "im": JSON}
) | st.integers(1, 3).flatmap(
    lambda d: st.fixed_dictionaries(
        {
            "cutoff": st.just(d - 1),
            "re": st.lists(st.lists(st.floats(), min_size=d, max_size=d), min_size=d, max_size=d),
            "im": st.lists(st.lists(st.floats(), min_size=d, max_size=d), min_size=d, max_size=d),
        }
    )
)


@FUZZ
@given(data=st.data())
def test_fuzzed_density_matrix(run, data):
    rel = "states/input/density_matrix.json"
    text = data.draw(MATRICES.map(json.dumps) | texts(original(run, rel)))
    assert run_stage(run, rel, text, "sample") in DOCUMENTED_EXIT_CODES


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset(run, data):
    # herald_0 is the first dataset reconstruct reads
    rel = "datasets/herald_0.csv"
    lines = original(run, rel).splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines) - 1))
    line = data.draw(edits(lines[at]) | st.sampled_from(["", "\n", "nan,1\n", "0.0,1e308\n"]))
    text = "".join(lines[:at] + [line] + lines[at + 1 :])
    assert run_stage(run, rel, text, "reconstruct") in DOCUMENTED_EXIT_CODES
