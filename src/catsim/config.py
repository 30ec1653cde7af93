"""Run configuration: one INI file describes one reproducible pipeline run.

The [experiment] section carries the flat serialization of ExperimentParams
(keys squeeze_db, opa_loss, bs_reflectivity, idler_efficiency,
signal_efficiency, herald_n, rep_rate_hz, duty_cycle, cutoff, idler_cutoff);
[plan], [mle], [grids], [run], and [cat] hold the remaining stage settings.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

from .channels import ExperimentParams
from .errors import ConfigError
from .fock import SqueezeSpec
from .sampler import PhasePlan
from .tomography import MleConfig

SUBTRACTION_MODE = "subtraction"
CAT_PANELS_MODE = "cat_panels"


@dataclass(frozen=True)
class GridSpec:
    quad_min: float = -6.0
    quad_max: float = 6.0
    quad_points: int = 241
    wigner_min: float = -5.0
    wigner_max: float = 5.0
    wigner_points: int = 201
    marginal_step_deg: float = 1.0

    def __post_init__(self):
        if self.quad_points < 3 or self.wigner_points < 3:
            raise ConfigError("grids need at least 3 points per axis")
        if self.quad_min >= self.quad_max or self.wigner_min >= self.wigner_max:
            raise ConfigError("grid bounds must be increasing")
        if self.marginal_step_deg <= 0:
            raise ConfigError("marginal_step_deg must be positive")


@dataclass(frozen=True)
class CatSpec:
    alpha_re: float = 0.0
    alpha_im: float = 2.5
    loss: float = 0.3

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)


@dataclass(frozen=True)
class RunConfig:
    experiment: ExperimentParams = field(default_factory=ExperimentParams)
    plan: PhasePlan = field(default_factory=PhasePlan)
    mle: MleConfig = field(default_factory=lambda: MleConfig(cutoff=15, bin_width=0.05))
    grids: GridSpec = field(default_factory=GridSpec)
    cat: CatSpec = field(default_factory=CatSpec)
    mode: str = SUBTRACTION_MODE
    seed: int = 20240811
    bootstrap_replicas: int = 100

    def __post_init__(self):
        if self.mode not in (SUBTRACTION_MODE, CAT_PANELS_MODE):
            raise ConfigError(f"mode must be {SUBTRACTION_MODE!r} or {CAT_PANELS_MODE!r}")
        if self.bootstrap_replicas < 2:
            raise ConfigError("bootstrap_replicas must be >= 2")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=int(seed))

    # -------------------------------------------------------------- serialization

    def to_ini(self) -> str:
        cp = configparser.ConfigParser()
        cp["experiment"] = {k: repr(v) for k, v in self.experiment.to_flat_dict().items()}
        cp["plan"] = {
            "phases_deg": ", ".join(repr(t) for t in self.plan.phases_deg),
            "samples_per_phase": repr(self.plan.samples_per_phase),
        }
        cp["mle"] = {
            "cutoff": repr(self.mle.cutoff),
            "max_iterations": repr(self.mle.max_iterations),
            "gap_tolerance": repr(self.mle.gap_tolerance),
            "binning": "pointwise" if self.mle.bin_width is None else repr(self.mle.bin_width),
        }
        g = self.grids
        cp["grids"] = {
            "quad_min": repr(g.quad_min),
            "quad_max": repr(g.quad_max),
            "quad_points": repr(g.quad_points),
            "wigner_min": repr(g.wigner_min),
            "wigner_max": repr(g.wigner_max),
            "wigner_points": repr(g.wigner_points),
            "marginal_step_deg": repr(g.marginal_step_deg),
        }
        cp["run"] = {
            "mode": self.mode,
            "seed": repr(self.seed),
            "bootstrap_replicas": repr(self.bootstrap_replicas),
        }
        cp["cat"] = {
            "alpha_re": repr(self.cat.alpha_re),
            "alpha_im": repr(self.cat.alpha_im),
            "loss": repr(self.cat.loss),
        }
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unreadable config: {exc}") from exc
        try:
            exp = ExperimentParams(
                squeeze=SqueezeSpec.from_db(cp.getfloat("experiment", "squeeze_db")),
                opa_loss=cp.getfloat("experiment", "opa_loss"),
                bs_reflectivity=cp.getfloat("experiment", "bs_reflectivity"),
                idler_efficiency=cp.getfloat("experiment", "idler_efficiency"),
                signal_efficiency=cp.getfloat("experiment", "signal_efficiency"),
                herald_n=cp.getint("experiment", "herald_n"),
                rep_rate_hz=cp.getfloat("experiment", "rep_rate_hz"),
                duty_cycle=cp.getfloat("experiment", "duty_cycle"),
                cutoff=cp.getint("experiment", "cutoff"),
                idler_cutoff=cp.getint("experiment", "idler_cutoff"),
            )
            phases = tuple(
                float(tok) for tok in cp.get("plan", "phases_deg").split(",") if tok.strip()
            )
            plan = PhasePlan(
                phases_deg=phases,
                samples_per_phase=cp.getint("plan", "samples_per_phase"),
            )
            if cp.has_option("mle", "log_likelihood_tolerance"):
                raise ConfigError(
                    "[mle] log_likelihood_tolerance is no longer read: the MLE now stops on "
                    "gap_tolerance, the certified likelihood gap in nats (default 1e-3)"
                )
            binning = cp.get("mle", "binning").strip()
            mle = MleConfig(
                cutoff=cp.getint("mle", "cutoff"),
                max_iterations=cp.getint("mle", "max_iterations"),
                gap_tolerance=cp.getfloat("mle", "gap_tolerance"),
                bin_width=None if binning == "pointwise" else float(binning),
            )
            grids = GridSpec(
                quad_min=cp.getfloat("grids", "quad_min"),
                quad_max=cp.getfloat("grids", "quad_max"),
                quad_points=cp.getint("grids", "quad_points"),
                wigner_min=cp.getfloat("grids", "wigner_min"),
                wigner_max=cp.getfloat("grids", "wigner_max"),
                wigner_points=cp.getint("grids", "wigner_points"),
                marginal_step_deg=cp.getfloat("grids", "marginal_step_deg"),
            )
            cat = CatSpec(
                alpha_re=cp.getfloat("cat", "alpha_re", fallback=0.0),
                alpha_im=cp.getfloat("cat", "alpha_im", fallback=2.5),
                loss=cp.getfloat("cat", "loss", fallback=0.3),
            )
            return cls(
                experiment=exp,
                plan=plan,
                mle=mle,
                grids=grids,
                cat=cat,
                mode=cp.get("run", "mode", fallback=SUBTRACTION_MODE),
                seed=cp.getint("run", "seed"),
                bootstrap_replicas=cp.getint("run", "bootstrap_replicas", fallback=100),
            )
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_ini().encode("ascii")).hexdigest()


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(cfg.to_ini(), encoding="ascii")


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    return RunConfig.from_ini(p.read_text(encoding="ascii"))


def preset(name: str) -> RunConfig:
    """Named parameter sets: the as-built experiment, its lossless twin, the
    pure four-subtraction pair, and the ideal/lossy cat comparison panels."""
    if name == "default":
        return RunConfig()
    if name == "lossless":
        return RunConfig(
            experiment=ExperimentParams(
                opa_loss=0.0, idler_efficiency=1.0, signal_efficiency=1.0
            )
        )
    if name == "pure_subtraction":
        return RunConfig(
            experiment=ExperimentParams(
                squeeze=SqueezeSpec(0.576),
                opa_loss=0.0,
                idler_efficiency=1.0,
                signal_efficiency=1.0,
            )
        )
    if name == "cat_panels":
        return RunConfig(mode=CAT_PANELS_MODE)
    raise ConfigError(
        f"unknown preset {name!r}; choose from default, lossless, pure_subtraction, cat_panels"
    )


def resolve_config(spec: str) -> RunConfig:
    """Interpret a --config argument: a path to an INI file or a preset name."""
    p = Path(spec)
    if p.exists():
        return load_config(p)
    try:
        return preset(spec)
    except ConfigError:
        raise ConfigError(
            f"{spec!r} is neither an existing config file nor a known preset"
        ) from None
