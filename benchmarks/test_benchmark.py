"""Tests of the benchmark itself: tracing is transparent, self time is
computed correctly, `wall_s` leaves out a workload's ungated time, and a
failing output check is counted, not raised.

Run with `python -m pytest -q benchmarks/test_benchmark.py` from the
repository root. The workloads run here on reduced sizes.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from catsim import pipeline  # noqa: E402
from catsim.config import GridSpec  # noqa: E402
from catsim.sampler import PhasePlan  # noqa: E402
from catsim.tomography import MleConfig  # noqa: E402
from tracing import Span, Tracer, self_times, summarize  # noqa: E402

SMALL_STAGES = dict(
    grids=GridSpec(quad_points=41, wigner_points=21, marginal_step_deg=30.0),
    plan=PhasePlan(samples_per_phase=1500),
    mle=MleConfig(cutoff=8, bin_width=0.1),
)


def _tree(root: Path) -> dict[str, bytes]:
    files = {}
    for f in sorted(root.rglob("*")):
        if f.is_file():
            data = f.read_bytes()
            if f.name == "manifest.json":  # wall-clock timings live only here
                manifest = json.loads(data)
                for stage in manifest["stages"].values():
                    stage.pop("wall_seconds")
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(f.relative_to(root))] = data
    return files


def _stages_run(work: Path, tracer: Tracer | None):
    """One small pass; the work directory is removed after, so both runs use the same paths."""
    wl = workloads.StagesDefault(work, **SMALL_STAGES)
    with tracer.patched() if tracer else contextlib.nullcontext():
        wl.setup(7)
        wl.prepare_pass()
        outcomes = wl.run_pass()
    result = [(o.op, o.ok, o.detail) for o in outcomes], _tree(wl.out)
    shutil.rmtree(work)
    return result


def test_tracing_is_transparent_on_stages(tmp_path):
    tracer = Tracer()
    plain = _stages_run(tmp_path / "run", None)
    traced = _stages_run(tmp_path / "run", tracer)
    assert plain == traced
    names = {s.name for s in tracer.spans}
    assert {"pipeline.simulate", "phasespace.wigner", "tomography.bootstrap"} <= names
    assert not hasattr(pipeline.wigner, "__wrapped__")  # wrappers removed on exit


def test_tracing_is_transparent_on_kernels(tmp_path):
    def results(tracer):
        loop = workloads.ClosedLoopPointwise(tmp_path, plan=PhasePlan(samples_per_phase=400), cutoff=6)
        tes = workloads.TesDiscrimination(tmp_path, trials=5000)
        with tracer.patched() if tracer else contextlib.nullcontext():
            loop.setup(3)
            tes.setup(3)
            rhos = [loop.reconstruct(n) for n in loop.STATES]
            cms = [workloads.tes.confusion(p, 4, 5000, s) for p, s in zip((tes.fine, tes.coarse), tes.seeds)]
        return rhos, cms

    tracer = Tracer()
    plain, traced = results(None), results(tracer)
    for (rho_a, diag_a), (rho_b, diag_b) in zip(plain[0], traced[0]):
        assert np.array_equal(rho_a.elements, rho_b.elements)
        assert diag_a == diag_b
    for a, b in zip(plain[1], traced[1]):
        assert np.array_equal(a.matrix, b.matrix)
    table = summarize(tracer.spans)
    assert table["tomography.mle_reconstruct"]["calls"] == 2
    assert table["tomography.mle_reconstruct"]["iterations"] == sum(d["iterations"] for _, d in plain[0])
    assert table["tes.confusion"]["pulses"] == 2 * 5000


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, None, "p"),
        Span("a", 1.0, 4.0, 0, "p"),
        Span("a.child", 2.0, 3.0, 1, "p"),
        Span("b", 4.5, 6.0, 0, "p"),
        Span("b.child", 4.5, 5.0, 3, "p"),
        Span("b.child", 5.0, 6.0, 3, "p"),  # b has no time of its own
        Span("a", 20.0, 21.0, None, "p"),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 0.0, 0.5, 1.0, 1.0])
    table = summarize(spans)
    assert table["a"]["calls"] == 2
    assert table["a"]["s"] == pytest.approx(4.0)
    assert table["a"]["self_s"] == pytest.approx(3.0)
    assert table["b.child"]["self_s"] == pytest.approx(1.5)


def test_wall_s_leaves_out_the_ungated_part():
    class Fake(workloads.Workload):
        def run_pass(self):
            return [workloads.Outcome("op", True)]

        def ungated_seconds(self):
            return 0.25

    walls, gated, outcomes = run.timed_passes(Fake(), 0.0)
    assert len(walls) == len(outcomes) == 1
    assert gated == [walls[0] - 0.25]


class _FailingTes(workloads.TesDiscrimination):
    def __init__(self, work):
        super().__init__(work, trials=5000)

    def check_coarse(self, cm):
        return False, "forced failure"

    def check_fine(self, cm):
        raise RuntimeError("check crashed")


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_failing_check_is_counted_not_raised(monkeypatch, tmp_path, trace, kind):
    monkeypatch.setitem(workloads.WORKLOADS, "tes_discrimination", _FailingTes)
    monkeypatch.setattr(run, "WORK", tmp_path)  # the trace file lands here, not in the checkout
    out = io.StringIO()
    argv = ["--workload", "tes_discrimination", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    passes = 1 + trace  # a traced run makes one untraced and one traced pass
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2 * passes, 2 * passes)
    assert f"error_rate 1.000000 ratio ({2 * passes}/{2 * passes})" in out.getvalue()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
