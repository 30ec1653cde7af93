"""Run configuration: one INI file describes one reproducible pipeline run.

Each section holds one dataclass (see _SECTIONS), and each of its fields one
key `name = repr(value)`, parsed back by the field's type. _CODECS holds the
fields whose key or text differ; a key may be missing only where _OPTIONAL
allows, keeping the field's default. Other keys and sections are refused.
"""

from __future__ import annotations

import cmath
import configparser
import hashlib
import io
import math
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .channels import ExperimentParams
from .errors import ConfigError
from .export import write_text
from .fock import SqueezeSpec, _modulus_squared
from .sampler import PhasePlan
from .tomography import MleConfig

SUBTRACTION_MODE = "subtraction"
CAT_PANELS_MODE = "cat_panels"

# INI section order; [run] holds RunConfig's scalars, every other one the field so named
_SECTIONS = ("experiment", "plan", "mle", "grids", "run", "cat")

# field -> (INI key, format, parse) for the fields not written `name = repr(value)`
_CODECS = {
    "squeeze": ("squeeze_db", lambda s: repr(s.level_db), lambda t: SqueezeSpec.from_db(float(t))),
    "phases_deg": (
        "phases_deg",
        lambda v: ", ".join(map(repr, v)),
        lambda t: tuple(float(tok) for tok in t.split(",") if tok.strip()),
    ),
    "bin_width": (
        "binning",
        lambda v: "pointwise" if v is None else repr(v),
        lambda t: None if t.strip() == "pointwise" else float(t),
    ),
    "mode": ("mode", str, str),
}

# "section.key" an INI may leave out, or a section name for all of its keys
_OPTIONAL = {"cat", "run.mode", "run.bootstrap_replicas"}


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
        bounds = (self.quad_min, self.quad_max, self.wigner_min, self.wigner_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ConfigError(f"grid bounds must be finite, got {bounds}")
        if self.quad_min >= self.quad_max or self.wigner_min >= self.wigner_max:
            raise ConfigError("grid bounds must be increasing")
        if not (0.0 < self.marginal_step_deg < math.inf):
            raise ConfigError("marginal_step_deg must be positive and finite")


@dataclass(frozen=True)
class CatSpec:
    alpha_re: float = 0.0
    alpha_im: float = 2.5
    loss: float = 0.3

    def __post_init__(self):
        # the odd cat is undefined where |alpha|^2 is 0, also where it underflows
        nonzero = cmath.isfinite(self.alpha) and _modulus_squared(self.alpha) > 0
        if not (nonzero and 0.0 <= self.loss <= 1.0):
            raise ConfigError(f"cat needs a finite nonzero alpha and a loss in [0, 1], got {self}")

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)


def _codec(cls):
    """(field, INI key, format, parse) for each field of cls held in its own section."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name not in _SECTIONS:
            yield (f.name, *_CODECS.get(f.name, (f.name, repr, hints[f.name])))


def _read(cp: configparser.ConfigParser, section: str, cls):
    """Build cls from its keys in `section`, and its dataclass fields from their sections."""
    hints = typing.get_type_hints(cls)
    values = {s: _read(cp, s, hints[s]) for s in _SECTIONS if s in hints}
    keys = [key for _, key, _, _ in _codec(cls)]
    for key in cp.options(section) if cp.has_section(section) else ():
        if key not in keys:
            known = ", ".join(keys)
            raise ConfigError(f"[{section}] {key} is no longer read, or never was; it reads {known}")
    for name, key, _, parse in _codec(cls):
        if cp.has_option(section, key) or not {section, f"{section}.{key}"} & _OPTIONAL:
            values[name] = parse(cp.get(section, key))
    return cls(**values)


@dataclass(frozen=True)
class RunConfig:
    experiment: ExperimentParams = field(default_factory=ExperimentParams)
    plan: PhasePlan = field(default_factory=PhasePlan)
    mle: MleConfig = field(default_factory=lambda: MleConfig(cutoff=18, bin_width=0.05))
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=int(seed))

    # -------------------------------------------------------------- serialization

    def to_ini(self) -> str:
        cp = configparser.ConfigParser()
        for section in _SECTIONS:
            obj = self if section == "run" else getattr(self, section)
            cp[section] = {key: fmt(getattr(obj, name)) for name, key, fmt, _ in _codec(type(obj))}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
            if unknown := [s for s in cp.sections() if s not in _SECTIONS]:
                known = ", ".join(_SECTIONS)
                raise ConfigError(f"section [{unknown[0]}] is not read; the sections are {known}")
            return _read(cp, "run", cls)
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_ini().encode("ascii")).hexdigest()


def save_config(cfg: RunConfig, path: str | Path) -> None:
    write_text(path, [cfg.to_ini()])


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        text = p.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not ASCII text ({exc})") from None
    return RunConfig.from_ini(text)


# named parameter sets: the as-built experiment, the same with no loss, the pure
# four-subtraction pair, and the ideal/lossy cat comparison panels
PRESETS = {
    "default": RunConfig,
    "lossless": lambda: RunConfig(
        experiment=ExperimentParams(opa_loss=0.0, idler_efficiency=1.0, signal_efficiency=1.0)
    ),
    "pure_subtraction": lambda: RunConfig(
        experiment=ExperimentParams(
            squeeze=SqueezeSpec(0.576),
            opa_loss=0.0,
            idler_efficiency=1.0,
            signal_efficiency=1.0,
        )
    ),
    "cat_panels": lambda: RunConfig(mode=CAT_PANELS_MODE),
}


def preset(name: str) -> RunConfig:
    """The RunConfig that PRESETS names `name`."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    return PRESETS[name]()


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
