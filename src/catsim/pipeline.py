"""Pipeline stages: simulate, sample, reconstruct, analyze, report.

Each stage reads the run configuration and the outputs of earlier stages
under one output directory, writes its own files, and records them with
checksums in manifest.json. Fixed seeds make every stage reproducible
file-for-file; wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channels import count_rate_table, herald_subtract, input_state, loss_channel
from .config import CAT_PANELS_MODE, RunConfig, save_config
from .errors import ConfigError, MissingInputError, ParseError, SchemaError
from .export import fields, read_json, write_rows
from .fock import (
    DensityMatrix,
    HilbertConfig,
    cat_state,
    fidelity,
    load_density_matrix,
    mean_photon,
    mixed_coherent,
    save_density_matrix,
)
from .phasespace import (
    _coherence_profile,
    coherence_peak,
    grid_axis,
    marginal_sweep,
    origin_parity,
    rho_quad,
    save_marginal_sweep_csv,
    save_quad_csv,
    save_wigner_csv,
    wigner,
)
from .sampler import load_dataset, save_dataset, synth_dataset
from .tomography import bootstrap, mle_reconstruct

_STAGE_IDS = {"sample": 1, "bootstrap": 2}

# reference event rates (counts/s) the analysis compares against
REFERENCE_RATE_3 = 200.0
REFERENCE_RATE_4 = 1.5

RATES_HEADER = "state,mean_photon,herald_probability,rate_cps,wigner_min"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _recorded_file_problem(out: Path, rel: str, digest: str) -> str | None:
    """Why the manifest's file name `rel` fails the integrity check, or None.
    Only a regular file inside the run directory is opened."""
    path = out / rel
    try:
        inside = Path(os.path.realpath(path)).is_relative_to(os.path.realpath(out))
    except ValueError:  # a name that holds a NUL character
        return "not a file name"
    if not inside:
        return "outside the run directory"
    if not path.exists():
        return "missing"
    if not path.is_file():
        return "not a regular file"
    if _sha256(path) != digest:
        return "checksum mismatch"
    return None


def _stage_seed(seed: int, stage: str, index: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_STAGE_IDS[stage], int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="ascii")


def _stage_entry_ok(entry) -> bool:
    """A stage record: files maps names to digests, wall_seconds is a finite number."""
    if not isinstance(entry, dict) or not isinstance(entry.get("files"), dict):
        return False
    wall = entry.get("wall_seconds")
    finite = type(wall) is int or (type(wall) is float and math.isfinite(wall))
    return finite and all(isinstance(v, str) for v in entry["files"].values())


def _read_manifest(path: Path) -> dict | None:
    """The run record in manifest.json; None if it is absent or unreadable."""
    try:
        manifest = read_json(path)
    except (FileNotFoundError, SchemaError):
        return None
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    readable = isinstance(stages, dict) and all(map(_stage_entry_ok, stages.values()))
    return manifest if readable else None


def _update_manifest(out: Path, cfg: RunConfig, stage: str, files: list[Path], wall: float) -> None:
    manifest_path = out / "manifest.json"
    manifest = _read_manifest(manifest_path)
    if manifest is None or manifest.get("config_hash") != cfg.config_hash():
        # a new or unreadable record, or another configuration, starts a fresh run record
        manifest = {"version": __version__, "config_hash": cfg.config_hash(), "stages": {}}
    manifest["stages"][stage] = {
        "files": {str(f.relative_to(out)): _sha256(f) for f in sorted(files)},
        "wall_seconds": wall,
    }
    _write_json(manifest, manifest_path)


def _require(out: Path, stage: str, needed: str, cfg: RunConfig) -> dict:
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise MissingInputError(needed, f"no manifest under {out}; run '{needed}' first")
    manifest = _read_manifest(manifest_path)
    if manifest is None:
        raise MissingInputError(needed, f"{manifest_path} is unreadable; rerun from 'simulate'")
    if manifest.get("config_hash") != cfg.config_hash():
        raise ConfigError(
            f"stage '{stage}' was given a different configuration (or seed) than the "
            f"earlier stages recorded under {out}"
        )
    if needed not in manifest["stages"]:
        raise MissingInputError(needed, f"stage '{stage}' needs '{needed}' outputs first")
    return manifest


def _input(out: Path, stage: str, rel: str) -> Path:
    """out / rel, an output of `stage`; a MissingInputError naming it if it is gone."""
    path = out / rel
    if not path.exists():
        raise MissingInputError(stage, f"{path} missing; rerun '{stage}'")
    return path


def state_names(cfg: RunConfig) -> list[str]:
    if cfg.mode == CAT_PANELS_MODE:
        return ["cat_even", "cat_odd", "cat_even_lossy", "cat_mixed"]
    return ["input"] + [f"herald_{n}" for n in range(cfg.experiment.herald_n + 1)]


def _build_states(cfg: RunConfig) -> dict[str, DensityMatrix]:
    if cfg.mode == CAT_PANELS_MODE:
        config = HilbertConfig(cfg.experiment.cutoff)
        alpha = cfg.cat.alpha
        even = cat_state(alpha, "even", config).to_density()
        return {
            "cat_even": even,
            "cat_odd": cat_state(alpha, "odd", config).to_density(),
            "cat_even_lossy": loss_channel(even, 1.0 - cfg.cat.loss),
            "cat_mixed": mixed_coherent(alpha, config),
        }
    states: dict[str, DensityMatrix] = {"input": input_state(cfg.experiment)}
    for n in range(cfg.experiment.herald_n + 1):
        states[f"herald_{n}"] = herald_subtract(cfg.experiment.with_herald(n)).state
    return states


def _write_photon_distribution(rho: DensityMatrix, path: Path) -> None:
    n = [str(k) for k in range(rho.diagonal.size)]
    write_rows(path, ["n,probability"], [(n, fields(rho.diagonal))])


def _write_coherence_profile(rho: DensityMatrix, axis: np.ndarray, path: Path) -> None:
    """Re rho(p, p) and Re rho(p, -p) along the axis, as coherence_peak reads them."""
    diagonal, antidiagonal = _coherence_profile(rho, axis)
    columns = (fields(axis), fields(diagonal), fields(antidiagonal))
    write_rows(path, ["p,re_diag,re_antidiag"], [columns])


def _write_wigner_xsection(grid, path: Path) -> None:
    j0 = int(np.argmin(np.abs(grid.p_axis)))
    write_rows(path, ["x,w"], [(fields(grid.x_axis), fields(grid.values[:, j0]))])


def simulate(cfg: RunConfig, out: str | Path) -> list[Path]:
    """Generate every model state with its phase-space exports."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    files: list[Path] = []

    config_path = out / "config.ini"
    save_config(cfg, config_path)
    files.append(config_path)

    g = cfg.grids
    quad_axis = grid_axis(g.quad_min, g.quad_max, g.quad_points)
    wx = grid_axis(g.wigner_min, g.wigner_max, g.wigner_points)
    angles = np.arange(-90.0, 90.0 + g.marginal_step_deg / 2, g.marginal_step_deg)

    states = _build_states(cfg)
    wigner_min: dict[str, float] = {}
    for name, rho in states.items():
        d = out / "states" / name
        d.mkdir(parents=True, exist_ok=True)
        save_density_matrix(rho, d / "density_matrix.json")
        _write_photon_distribution(rho, d / "photon_distribution.csv")
        save_quad_csv(rho_quad(rho, math.pi / 2, quad_axis), d / "rho_pp.csv")
        save_quad_csv(rho_quad(rho, 0.0, quad_axis), d / "rho_xx.csv")
        _write_coherence_profile(rho, quad_axis, d / "coherence.csv")
        wg = wigner(rho, wx, wx)
        wigner_min[name] = float(wg.values.min())
        save_wigner_csv(wg, d / "wigner.csv")
        _write_wigner_xsection(wg, d / "wigner_xsection.csv")
        sweep = marginal_sweep(rho, angles, quad_axis)
        save_marginal_sweep_csv(angles, quad_axis, sweep, d / "marginals.csv")
        files.extend(sorted(d.iterdir()))

    if cfg.mode != CAT_PANELS_MODE:
        _, probs, rates = zip(*count_rate_table(cfg.experiment, cfg.experiment.herald_n))
        names = state_names(cfg)  # input, then herald_0.. as the table's rows
        means = fields([mean_photon(states[n]) for n in names])
        minima = fields([wigner_min[n] for n in names])
        columns = (names, means, [""] + fields(probs), [""] + fields(rates), minima)
        write_rows(out / "rates.csv", [RATES_HEADER], [columns])
        files.append(out / "rates.csv")

    _update_manifest(out, cfg, "simulate", files, time.perf_counter() - t0)
    return files


def sample(cfg: RunConfig, out: str | Path) -> list[Path]:
    """Draw synthetic homodyne datasets from each simulated state."""
    out = Path(out)
    _require(out, "sample", "simulate", cfg)
    t0 = time.perf_counter()
    files: list[Path] = []
    ds_dir = out / "datasets"
    ds_dir.mkdir(parents=True, exist_ok=True)
    for i, name in enumerate(state_names(cfg)):
        rho = load_density_matrix(_input(out, "simulate", f"states/{name}/density_matrix.json"))
        ds = synth_dataset(rho, cfg.plan, _stage_seed(cfg.seed, "sample", i), source_id=name)
        path = ds_dir / f"{name}.csv"
        save_dataset(ds, path)
        files.append(path)
    _update_manifest(out, cfg, "sample", files, time.perf_counter() - t0)
    return files


def reconstruct(cfg: RunConfig, out: str | Path) -> list[Path]:
    """Maximum-likelihood reconstruction from the datasets alone.

    This stage never opens the simulated density matrices; the closed loop
    stays honest by consuming nothing but the sampled records.
    """
    out = Path(out)
    manifest = _require(out, "reconstruct", "sample", cfg)
    for rel in manifest["stages"]["sample"]["files"]:
        _input(out, "sample", rel)
    t0 = time.perf_counter()
    files: list[Path] = []
    for path in sorted((out / "datasets").glob("*.csv")):
        ds = load_dataset(path)
        name = path.stem
        rho_hat, diag = mle_reconstruct(ds, cfg.mle)
        d = out / "recon" / name
        d.mkdir(parents=True, exist_ok=True)
        save_density_matrix(rho_hat, d / "density_matrix.json")
        _write_json(diag, d / "diagnostics.json")
        files.extend([d / "density_matrix.json", d / "diagnostics.json"])
    _update_manifest(out, cfg, "reconstruct", files, time.perf_counter() - t0)
    return files


def analyze(cfg: RunConfig, out: str | Path) -> list[Path]:
    """Compare simulation against reconstruction, with bootstrap error bars."""
    out = Path(out)
    _require(out, "analyze", "simulate", cfg)
    _require(out, "analyze", "reconstruct", cfg)
    t0 = time.perf_counter()
    files: list[Path] = []
    summary: dict = {"config_hash": cfg.config_hash(), "mode": cfg.mode, "states": {}}
    for i, name in enumerate(state_names(cfg)):
        sim = load_density_matrix(_input(out, "simulate", f"states/{name}/density_matrix.json"))
        rec = load_density_matrix(_input(out, "reconstruct", f"recon/{name}/density_matrix.json"))
        common = max(sim.config.cutoff, rec.config.cutoff)
        ds = load_dataset(_input(out, "sample", f"datasets/{name}.csv"))
        seed = _stage_seed(cfg.seed, "bootstrap", i)
        rep = bootstrap(ds, cfg.mle, replicas=cfg.bootstrap_replicas, seed=seed)
        boot_path = out / "recon" / name / "bootstrap.json"
        _write_json(rep.to_dict(), boot_path)
        files.append(boot_path)
        sim_peak = coherence_peak(sim)
        rec_peak = coherence_peak(rec)
        summary["states"][name] = {
            "fidelity": fidelity(sim.embed(common), rec.embed(common)),
            "mean_photon": {
                "simulated": mean_photon(sim),
                "reconstructed": mean_photon(rec),
                "sigma": rep.mean_photon.std,
            },
            "origin_wigner": {
                "simulated": origin_parity(sim),
                "reconstructed": origin_parity(rec),
                "sigma": rep.origin_wigner.std,
            },
            "peak_coherence": {
                "simulated": sim_peak.off_diagonal_value,
                "simulated_diag": sim_peak.diagonal_value,
                "reconstructed": rec_peak.off_diagonal_value,
                "sigma": rep.peak_coherence.std,
            },
        }
    if cfg.mode != CAT_PANELS_MODE:
        table = count_rate_table(cfg.experiment, cfg.experiment.herald_n)
        summary["count_rates"] = [
            {"n": n, "probability": p, "rate_cps": rate} for n, p, rate in table
        ]
    summary_path = out / "analysis" / "summary.json"
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(summary, summary_path)
    files.append(summary_path)
    _update_manifest(out, cfg, "analyze", files, time.perf_counter() - t0)
    return files


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"check": name, "passed": bool(passed), "detail": detail}


def _read_wigner_min(out: Path, names: list[str]) -> list[float]:
    """Min W of each named state on the simulated grid, as simulate wrote it to rates.csv."""
    path = _input(out, "simulate", "rates.csv")
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != RATES_HEADER:
        raise SchemaError(f"{path} lacks the header {RATES_HEADER!r}; rerun 'simulate'")
    values = {}
    for line_no, line in enumerate(lines[1:], start=2):
        row = line.split(",")
        try:
            values[row[0]] = float(row[4])
        except (IndexError, ValueError):
            raise ParseError(f"unreadable wigner_min in {path.name}: {line!r}", line_no) from None
    missing = [n for n in names if n not in values]
    if missing:
        raise SchemaError(f"{path} has no row for {missing}")
    return [values[n] for n in names]


def _subtraction_checks(cfg: RunConfig, out: Path, summary: dict) -> list[dict]:
    checks = []
    n_max = cfg.experiment.herald_n
    names = [f"herald_{n}" for n in range(n_max + 1)]
    w00 = [summary["states"][n]["origin_wigner"]["simulated"] for n in names]
    signs_ok = all(
        (v > 0) == (n % 2 == 0) and abs(v) > 0.005 for n, v in enumerate(w00)
    )
    checks.append(
        _check(
            "parity_sign_pattern",
            signs_ok,
            "W(0,0) alternates +,-,... with |W(0,0)| > 0.005: "
            + ", ".join(f"{v:+.4f}" for v in w00),
        )
    )

    minima = _read_wigner_min(out, names[1:])
    checks.append(
        _check(
            "wigner_negativity",
            all(m < -0.002 for m in minima),
            "min W < -0.002 for every n >= 1: " + ", ".join(f"{m:+.4f}" for m in minima),
        )
    )

    means = [summary["states"][n]["mean_photon"]["simulated"] for n in names]
    checks.append(
        _check(
            "mean_photon_monotone",
            all(means[i] < means[i + 1] for i in range(len(means) - 1)),
            "simulated mean photon strictly increases: "
            + ", ".join(f"{m:.3f}" for m in means),
        )
    )

    rho0 = load_density_matrix(_input(out, "simulate", "states/herald_0/density_matrix.json"))
    odd = float(rho0.diagonal[1::2].sum())
    checks.append(
        _check("odd_weight_n0", odd > 0.01, f"odd-photon weight of the n=0 state: {odd:.4f}")
    )

    rates = {row["n"]: row["rate_cps"] for row in summary.get("count_rates", [])}
    if 3 in rates and 4 in rates:
        r3, r4 = rates[3], rates[4]
        ratio = r3 / r4 if r4 > 0 else float("inf")
        ok = (
            REFERENCE_RATE_3 / 10 <= r3 <= REFERENCE_RATE_3 * 10
            and REFERENCE_RATE_4 / 10 <= r4 <= REFERENCE_RATE_4 * 10
            and 30.0 <= ratio <= 500.0
        )
        checks.append(
            _check(
                "count_rates",
                ok,
                f"rate(3)={r3:.1f} cps vs {REFERENCE_RATE_3}, rate(4)={r4:.2f} cps vs "
                f"{REFERENCE_RATE_4}, ratio={ratio:.1f} (expected within x10 and ratio in [30, 500])",
            )
        )

    if n_max >= 4:
        c4 = summary["states"]["herald_4"]["peak_coherence"]
        c1 = summary["states"]["herald_1"]["peak_coherence"]["simulated"]
        c3 = summary["states"]["herald_3"]["peak_coherence"]["simulated"]
        ok = (
            c4["simulated"] > 0
            and c4["simulated"] >= 0.25 * c4["simulated_diag"]
            and c1 < 0
            and c3 < 0
        )
        checks.append(
            _check(
                "coherence_signs",
                ok,
                f"n=4 off-diagonal {c4['simulated']:+.4f} vs 25% of diagonal peak "
                f"{0.25 * c4['simulated_diag']:.4f}; n=1 {c1:+.4f} < 0, n=3 {c3:+.4f} < 0",
            )
        )

    fids = {n: summary["states"][n]["fidelity"] for n in summary["states"]}
    checks.append(
        _check(
            "closed_loop_fidelity",
            all(f >= 0.98 for f in fids.values()),
            "reconstruction fidelity >= 0.98 for every state: "
            + ", ".join(f"{k}={v:.4f}" for k, v in fids.items()),
        )
    )

    sign_ok = all(
        np.sign(summary["states"][n]["origin_wigner"]["reconstructed"])
        == np.sign(summary["states"][n]["origin_wigner"]["simulated"])
        for n in names
    )
    checks.append(
        _check(
            "reconstructed_sign_match",
            sign_ok,
            "reconstructed W(0,0) signs match the simulated states",
        )
    )

    sigmas = [summary["states"][n]["origin_wigner"]["sigma"] for n in names]
    checks.append(
        _check(
            "bootstrap_sigma",
            all(s < 0.05 for s in sigmas),
            "bootstrap sigma of W(0,0) < 0.05: " + ", ".join(f"{s:.4f}" for s in sigmas),
        )
    )
    return checks


def _cat_checks(cfg: RunConfig, summary: dict) -> list[dict]:
    checks = []
    w_even = summary["states"]["cat_even"]["origin_wigner"]["simulated"]
    w_odd = summary["states"]["cat_odd"]["origin_wigner"]["simulated"]
    checks.append(
        _check(
            "cat_origin_values",
            abs(w_even - 1 / math.pi) < 1e-6 and abs(w_odd + 1 / math.pi) < 1e-6,
            f"W(0,0) = {w_even:+.6f} (even) and {w_odd:+.6f} (odd) vs +-1/pi",
        )
    )
    ideal = summary["states"]["cat_even"]["peak_coherence"]["simulated"]
    lossy = summary["states"]["cat_even_lossy"]["peak_coherence"]["simulated"]
    checks.append(
        _check(
            "loss_degrades_coherence",
            abs(lossy) < abs(ideal),
            f"peak off-diagonal {lossy:+.4f} (lossy) vs {ideal:+.4f} (ideal)",
        )
    )
    mixed = summary["states"]["cat_mixed"]["peak_coherence"]
    checks.append(
        _check(
            "mixture_has_no_coherence",
            abs(mixed["simulated"]) < 0.02 * mixed["simulated_diag"],
            f"mixture off-diagonal {mixed['simulated']:+.2e} vs 2% of diagonal peak",
        )
    )
    return checks


def report(cfg: RunConfig, out: str | Path) -> tuple[dict, bool]:
    """Summarize the run: integrity of all recorded files plus physics checks.

    Returns the report payload and whether every check passed.
    """
    out = Path(out)
    manifest = _require(out, "report", "analyze", cfg)
    t0 = time.perf_counter()

    integrity_failures = [
        f"{rel} {problem}"
        for entry in manifest["stages"].values()
        for rel, digest in entry["files"].items()
        if (problem := _recorded_file_problem(out, rel, digest))
    ]
    recon_warnings = {}
    for diag_path in sorted((out / "recon").glob("*/diagnostics.json")):
        try:
            diag = read_json(diag_path)
        except (SchemaError, OSError):  # not JSON, or not a readable file
            diag = None
        if not isinstance(diag, dict) or not isinstance(diag.get("warnings", []), list):
            integrity_failures.append(f"{diag_path.relative_to(out).as_posix()} unreadable")
        elif diag.get("warnings"):
            recon_warnings[diag_path.parent.name] = diag["warnings"]
    physics: list[dict] = []
    try:
        summary = read_json(out / "analysis" / "summary.json")
    except (SchemaError, OSError) as exc:  # no physics check can read it
        integrity_failures.insert(0, f"analysis/summary.json unreadable ({exc})")
    else:
        try:
            if cfg.mode == CAT_PANELS_MODE:
                physics = _cat_checks(cfg, summary)
            else:
                physics = _subtraction_checks(cfg, out, summary)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:  # not analyze's record
            integrity_failures.insert(0, f"analysis/summary.json lacks its fields ({exc!r})")
    checks = [
        _check(
            "manifest_integrity",
            not integrity_failures,
            "all recorded files present with matching checksums"
            if not integrity_failures
            else "; ".join(integrity_failures[:5]),
        )
    ] + physics

    all_pass = all(c["passed"] for c in checks)
    payload = {
        "config_hash": cfg.config_hash(),
        "mode": cfg.mode,
        "checks": checks,
        "reconstruction_warnings": recon_warnings,
        "all_passed": all_pass,
    }
    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    _write_json(payload, report_dir / "report.json")

    width = max(len(c["check"]) for c in checks)
    lines = ["check".ljust(width) + "  result  detail", "-" * (width + 60)]
    for c in checks:
        lines.append(
            c["check"].ljust(width)
            + ("  PASS    " if c["passed"] else "  FAIL    ")
            + c["detail"]
        )
    lines.append("-" * (width + 60))
    for state, msgs in recon_warnings.items():
        for msg in msgs:
            lines.append(f"warning [{state}]: {msg}")
    lines.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
    text = "\n".join(lines) + "\n"  # a name or message read from a file may hold any character
    (report_dir / "report.txt").write_text(text, encoding="ascii", errors="backslashreplace")

    _update_manifest(
        out, cfg, "report", [report_dir / "report.json", report_dir / "report.txt"],
        time.perf_counter() - t0,
    )
    return payload, all_pass
