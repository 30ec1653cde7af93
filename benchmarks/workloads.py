"""The benchmark's three workloads, driven in-process.

Each workload has a `setup(seed)` that builds its inputs and a `run_pass()`
that does the timed work and checks its outputs. A pass returns one
`Outcome` per operation (a CLI stage, a state reconstruction or a confusion
matrix); an operation fails if it raises or its output check fails, and a
failure is recorded rather than raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import traceback
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from catsim import channels, cli, config, sampler, tes, tomography
from catsim.errors import NonConvergenceWarning
from catsim.fock import fidelity
from catsim.phasespace import origin_parity
from catsim.sampler import PhasePlan
from catsim.tomography import MleConfig

STAGES = cli.STAGES
# report exits 3 on the as-built parameters: these two checks fail by design
# (README, "Known limits of the single-mode model").
EXPECTED_REPORT_FAILURES = {"count_rates", "coherence_signs"}
CRITERION_SEED = 20240811  # the acceptance suite's seed


@dataclass
class Outcome:
    op: str
    ok: bool
    detail: str = ""


def attempt(op: str, fn) -> Outcome:
    """Run fn() -> (ok, detail); an exception counts as a failed operation."""
    try:
        ok, detail = fn()
    except Exception:  # noqa: BLE001 - a benchmark operation failure is data
        return Outcome(op, False, traceback.format_exc(limit=3))
    return Outcome(op, bool(ok), detail)


class Workload:
    """Interface of a workload; `prepare_pass` runs before each pass, untimed."""

    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare_pass(self) -> None:
        pass

    def run_pass(self) -> list[Outcome]:
        raise NotImplementedError

    def ungated_seconds(self) -> float:
        """Seconds of the last pass that `wall_s` leaves out."""
        return 0.0


class StagesDefault(Workload):
    """simulate -> sample -> reconstruct -> analyze -> report through catsim.cli.main."""

    name = "stages_default"
    REPLICAS = 2  # the lowest bootstrap_replicas allowed: README's quicker pass

    def __init__(self, work: Path, **overrides):
        """`overrides` replace RunConfig fields of the default preset."""
        self.work = work
        self.overrides = overrides
        self.passes = 0
        self.stage_s: dict[str, float] = {}
        self.out: Path | None = None

    def setup(self, seed: int) -> None:
        self.seed = seed
        cfg = replace(
            config.resolve_config("default"), bootstrap_replicas=self.REPLICAS, **self.overrides
        )
        self.work.mkdir(parents=True, exist_ok=True)
        self.ini = self.work / "run.ini"
        config.save_config(cfg, self.ini)

    def _stage(self, stage: str) -> tuple[int, str]:
        argv = [stage, "--config", str(self.ini), "--out", str(self.out), "--seed", str(self.seed)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        self.stage_s[stage] = time.perf_counter() - t0
        return rc, sink.getvalue()

    def check_report(self, rc: int) -> tuple[bool, str]:
        payload = json.loads((self.out / "report" / "report.json").read_text(encoding="ascii"))
        failed = {c["check"] for c in payload["checks"] if not c["passed"]}
        ok = rc == cli.EXIT_NUMERIC and failed == EXPECTED_REPORT_FAILURES
        return ok, f"exit {rc}, failed checks {sorted(failed)}"

    def prepare_pass(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
        self.passes += 1
        self.out = self.work / f"run{self.passes}"

    def run_pass(self) -> list[Outcome]:
        outcomes = []
        for stage in STAGES:
            def op(stage=stage):
                rc, text = self._stage(stage)
                if stage == "report":
                    return self.check_report(rc)
                return rc == cli.EXIT_OK, f"exit {rc}: {text.strip()[-300:]}"

            outcomes.append(attempt(stage, op))
        return outcomes

    def ungated_seconds(self) -> float:
        # analyze runs and is checked in every pass, and its time is printed
        # and traced, but wall_s leaves it out: one bootstrap call of 2
        # replicas takes 0.9-9 s at random for 0.34 s of MLE work (pool
        # workers times multithreaded OpenBLAS on 2 cores), so no run length
        # the benchmark can afford gives it a steady median (NOTES.md).
        return self.stage_s.get("analyze", 0.0)


class ClosedLoopPointwise(Workload):
    """Pointwise MLE of herald-state datasets, checked against the truth.

    The record values are the acceptance suite's criterion-06 draws; the
    seed permutes their order. Iteration counts of the same state differ
    2-3x between draws, so seed-drawn values would make the pass length a
    property of the seed rather than of the program.
    """

    name = "closed_loop_pointwise"
    STATES = (2, 3)  # one even and one odd herald, 580 and 252 iterations today

    def __init__(self, work: Path, plan: PhasePlan = PhasePlan(), cutoff: int = 15):
        self.work = work
        self.plan = plan
        self.mle = MleConfig(cutoff=cutoff)

    def setup(self, seed: int) -> None:
        base = channels.ExperimentParams()
        self.truth, self.datasets = {}, {}
        for n in self.STATES:
            truth = channels.herald_subtract(base.with_herald(n)).state
            ds = sampler.synth_dataset(
                truth, self.plan, seed=CRITERION_SEED + n, source_id=f"herald_{n}"
            )
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
            perm = rng.permutation(len(ds))
            self.truth[n] = truth
            self.datasets[n] = sampler.HomodyneDataset(ds.theta_deg[perm], ds.q[perm], ds.meta)

    def check(self, n: int, rho_hat, diag) -> tuple[bool, str]:
        truth = self.truth[n]
        fid = fidelity(rho_hat.embed(truth.config.cutoff), truth)
        hist = np.asarray(diag["log_likelihood_history"])
        drops = hist[:-1] - hist[1:]
        monotone = bool(np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(hist[:-1]))))
        w00 = origin_parity(rho_hat)
        sign_ok = (w00 > 0) == (n % 2 == 0)
        ok = fid >= 0.98 and monotone and sign_ok
        return ok, (
            f"fidelity {fid:.4f}, monotone {monotone}, W(0,0) {w00:+.5f}, "
            f"{diag['iterations']} iterations"
        )

    def reconstruct(self, n: int):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            return tomography.mle_reconstruct(self.datasets[n], self.mle)

    def run_pass(self) -> list[Outcome]:
        return [
            attempt(f"herald_{n}", lambda n=n: self.check(n, *self.reconstruct(n)))
            for n in self.STATES
        ]


class TesDiscrimination(Workload):
    """tes.confusion at the acceptance criterion-10 settings."""

    name = "tes_discrimination"
    N_MAX = 4

    def __init__(self, work: Path, trials: int = 1_000_000):
        self.work = work
        self.trials = trials

    def setup(self, seed: int) -> None:
        self.fine = tes.TesParams()
        self.coarse = tes.TesParams(energy_resolution_ev=0.4, noise_floor=0.0)
        self.want = tes.adjacent_confusion_estimate(self.coarse)
        s1, s2 = np.random.SeedSequence(seed).generate_state(2)
        self.seeds = (int(s1), int(s2))

    def check_fine(self, cm) -> tuple[bool, str]:
        mass = cm.off_diagonal_mass
        return mass < 1e-5, f"off-diagonal mass per row {mass:.2e}"

    def check_coarse(self, cm) -> tuple[bool, str]:
        rel = [abs(cm.matrix[n, n + 1] - self.want) / self.want for n in range(1, self.N_MAX)]
        return max(rel) <= 0.2, f"adjacent confusion off the analytic {self.want:.5f} by {max(rel):.1%}"

    def run_pass(self) -> list[Outcome]:
        def matrix(params, seed):
            return tes.confusion(params, self.N_MAX, self.trials, seed)

        fine, coarse = self.seeds
        return [
            attempt("fine", lambda: self.check_fine(matrix(self.fine, fine))),
            attempt("coarse", lambda: self.check_coarse(matrix(self.coarse, coarse))),
        ]


WORKLOADS = {w.name: w for w in (StagesDefault, ClosedLoopPointwise, TesDiscrimination)}
