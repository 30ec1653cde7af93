"""Synthetic homodyne datasets: the stand-in for the laboratory digitizer.

Quadrature values are drawn by tabulated inverse-CDF sampling from the exact
marginal of a known density matrix, with reproducible per-phase sub-seeds;
one marginal sweep tabulates every phase of a dataset. Phases are expressed in degrees everywhere records are
read or written.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateDistributionError, DomainError, ParseError, SchemaError
from .export import fields, write_rows
from .fock import DensityMatrix
from .phasespace import marginal, marginal_sweep

DEFAULT_PHASES_DEG = (-45.0, -22.5, 0.0, 22.5, 45.0, 90.0)
DEFAULT_SAMPLES_PER_PHASE = 10_000

SHOT_NOISE_VARIANCE = 0.5  # vacuum quadrature variance in this normalization

# the inverse-CDF table's q grid; -8..8 covers the anti-squeezed tails of every pipeline state
_CDF_GRID = np.linspace(-8.0, 8.0, 4096)
_CDF_GRID.setflags(write=False)
_MIN_GRID_MASS = 0.999
_BLOCK_ROWS = 8192  # records formatted and written at a time
_HEADER = "theta_deg,q"

# the '#key=value' metadata lines of a dataset CSV, in file order: key, format, parse
_META = (
    ("source_id", str, str),
    ("seed", lambda v: str(int(v)), int),
    (
        "phases_deg",
        lambda v: ",".join(repr(float(t)) for t in v),
        lambda s: [float(t) for t in s.split(",") if t],
    ),
    (
        "counts_per_phase",
        lambda v: ",".join(str(int(c)) for c in v),
        lambda s: [int(c) for c in s.split(",") if c],
    ),
    ("shot_noise_variance", lambda v: repr(float(v)), float),
)


@dataclass(frozen=True)
class PhasePlan:
    """Measurement design: local-oscillator phases and draws per phase."""

    phases_deg: tuple[float, ...] = DEFAULT_PHASES_DEG
    samples_per_phase: int = DEFAULT_SAMPLES_PER_PHASE

    def __post_init__(self):
        if len(self.phases_deg) == 0:
            raise DomainError("phase plan must contain at least one phase")
        if self.samples_per_phase < 1:
            raise DomainError("samples_per_phase must be >= 1")
        object.__setattr__(self, "phases_deg", tuple(float(t) for t in self.phases_deg))
        if not np.all(np.isfinite(self.phases_deg)):
            raise DomainError(f"phases_deg must be finite, got {self.phases_deg}")
        if len(set(self.phases_deg)) < len(self.phases_deg):  # 0.0 == -0.0
            raise DomainError(f"phases_deg repeats a phase, got {self.phases_deg}")


@dataclass(eq=False)
class HomodyneDataset:
    """Flat record list (theta_deg, q) plus acquisition metadata."""

    theta_deg: np.ndarray
    q: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.theta_deg = np.asarray(self.theta_deg, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.meta.setdefault("shot_noise_variance", SHOT_NOISE_VARIANCE)
        self.validate()

    def validate(self) -> None:
        if self.theta_deg.shape != self.q.shape or self.theta_deg.ndim != 1:
            raise SchemaError("theta and q must be one-dimensional arrays of equal length")
        if not np.all(np.isfinite(self.theta_deg)):
            raise SchemaError("phases must be finite")
        if self.q.size and not np.all(np.isfinite(self.q)):
            raise SchemaError("quadrature values must be finite")
        phases = self.meta.get("phases_deg")
        counts = self.meta.get("counts_per_phase")
        if counts is not None and len(counts) != len(phases or ()):
            raise SchemaError(
                f"counts_per_phase has {len(counts)} entries but phases_deg "
                + ("is missing" if phases is None else f"has {len(phases)}")
            )
        if phases is not None:
            declared = set(float(t) for t in phases)
            present = set(np.unique(self.theta_deg).tolist())
            if not present.issubset(declared):
                raise SchemaError(f"records contain undeclared phases {sorted(present - declared)}")
            for t, c in zip(phases, counts or ()):
                actual = int(np.sum(self.theta_deg == float(t)))
                if actual != int(c):
                    raise SchemaError(f"phase {t}: {actual} records but metadata declares {c}")

    def __len__(self) -> int:
        return int(self.q.size)


def _subseed(seed: int, index: int) -> int:
    """Order-independent 64-bit sub-seed for stream `index` of a dataset."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _inverse_cdf_draws(pdf: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Draw count values from a pdf tabulated on _CDF_GRID by inverse-CDF interpolation."""
    pdf = np.clip(pdf, 0.0, None)
    dq = _CDF_GRID[1] - _CDF_GRID[0]
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dq)))
    mass = cdf[-1]
    if mass < _MIN_GRID_MASS:
        raise DegenerateDistributionError(
            f"marginal mass on the sampling grid is {mass:.6f} < {_MIN_GRID_MASS}"
        )
    cdf /= mass
    u = np.random.default_rng(seed).random(count)
    return np.interp(u, cdf, _CDF_GRID)


def sample_phase(rho: DensityMatrix, theta_deg: float, count: int, seed: int) -> np.ndarray:
    """Draw i.i.d. quadrature values at one phase by inverse-CDF interpolation."""
    if count < 1:
        raise DomainError("count must be >= 1")
    pdf = marginal(rho, np.deg2rad(theta_deg), _CDF_GRID)
    return _inverse_cdf_draws(pdf, count, seed)


def synth_dataset(
    rho: DensityMatrix, plan: PhasePlan, seed: int, source_id: str = "state"
) -> HomodyneDataset:
    """Concatenated per-phase draws with derived sub-seeds and full metadata.

    Every phase's pdf comes from one marginal sweep on the sampling grid; the
    draws at each phase are those `sample_phase` makes with the sub-seed.
    """
    pdfs = marginal_sweep(rho, plan.phases_deg, _CDF_GRID)
    count = plan.samples_per_phase
    values = [_inverse_cdf_draws(pdf, count, _subseed(seed, i)) for i, pdf in enumerate(pdfs)]
    meta = {
        "source_id": source_id,
        "seed": int(seed),
        "phases_deg": list(plan.phases_deg),
        "counts_per_phase": [count] * len(plan.phases_deg),
        "shot_noise_variance": SHOT_NOISE_VARIANCE,
    }
    return HomodyneDataset(np.repeat(plan.phases_deg, count), np.concatenate(values), meta)


def save_dataset(dataset: HomodyneDataset, path: str | Path) -> None:
    """Write the canonical CSV: '#key=value' metadata, 'theta_deg,q' header, records."""
    meta = dataset.meta
    lines = [f"#{key}={fmt(meta[key])}" for key, fmt, _ in _META if meta.get(key) is not None]
    lines.append(_HEADER)
    blocks = (
        (fields(dataset.theta_deg[s : s + _BLOCK_ROWS]), fields(dataset.q[s : s + _BLOCK_ROWS]))
        for s in range(0, len(dataset), _BLOCK_ROWS)
    )
    write_rows(path, lines, blocks)


def _read_lines(lines) -> tuple[dict, list[float], list[float], bool]:
    """The line-by-line reader: raw metadata with line numbers, records, and
    whether the header was seen. Raises ParseError or SchemaError at the
    first offending line."""
    meta: dict = {}
    thetas: list[float] = []
    values: list[float] = []
    header_seen = False
    for line_no, raw in enumerate(lines, start=1):
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
            if line != _HEADER:
                raise SchemaError(
                    f"expected header '{_HEADER}' at line {line_no}, found {line!r}"
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
    return meta, thetas, values, header_seen


def _record_block(body: str) -> np.ndarray | None:
    """The (rows, 2) records of a body that holds records and blank lines
    only, parsed in one call; None where the line reader might differ.

    np.loadtxt skips the ASCII separators 0x1c-0x1f around a field, where
    float() refuses them, so a body holding any of them is left to the line
    reader.
    """
    if not body.strip():
        return np.empty((0, 2))
    if any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == 2 else None


def load_dataset(path: str | Path) -> HomodyneDataset:
    """Read the canonical CSV; raises ParseError with the offending line number.

    The metadata lines before a bare header line are read line by line and
    the records after it in one np.loadtxt call. Where that call fails, or
    the file is laid out otherwise, the line reader reads the whole file, so
    every file reads as it does line by line and every error keeps its
    message and line number.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not ASCII text ({exc})") from None
    at = ("\n" + text).find(f"\n{_HEADER}\n")
    rows = None
    if at >= 0:
        meta, _, _, header_seen = _read_lines(text[:at].split("\n"))
        if not header_seen:
            rows = _record_block(text[at + len(_HEADER) + 1 :])
    if rows is None:
        meta, thetas, values, header_seen = _read_lines(text.split("\n"))
        if not header_seen:
            raise SchemaError(f"file contains no '{_HEADER}' header line")
        rows = np.column_stack([np.asarray(thetas, dtype=float), np.asarray(values, dtype=float)])
    typed: dict = {}
    for key, _, parse in _META:
        if key in meta:
            value, line_no = meta[key]
            try:
                typed[key] = parse(value)
            except ValueError:
                raise ParseError(f"unreadable #{key} value {value!r}", line_no) from None
    return HomodyneDataset(np.ascontiguousarray(rows[:, 0]), np.ascontiguousarray(rows[:, 1]), typed)
