"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.patched()` replaces
public catsim functions with timing wrappers at the name each caller looks
up (pipeline, phasespace, sampler and tomography import their helpers by
name, so a helper is patched in every module that calls it). The wrappers
return the wrapped function's result unchanged.

Bootstrap pool workers are forked, so spans recorded inside them stay in
the child and are lost; `tomography.bootstrap` is therefore one
parent-side span that includes its workers' time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from catsim.cli import STAGES


def _mle_attrs(args, kwargs, result) -> dict:
    _, diag = result
    return {"iterations": diag["iterations"], "converged": int(diag["converged"])}


def _bootstrap_attrs(args, kwargs, result) -> dict:
    return {"replicas": result.replicas, "successful": result.successful}


def _confusion_attrs(args, kwargs, result) -> dict:
    trials = kwargs["trials"] if "trials" in kwargs else args[2]
    rows = result.n_max + 1
    return {"pulses": -(-trials // rows) * rows}


def _files_attrs(args, kwargs, result) -> dict:
    return {"bytes_written": sum(Path(f).stat().st_size for f in result)}


def _report_attrs(args, kwargs, result) -> dict:
    out = Path(kwargs["out"] if "out" in kwargs else args[1])
    return {"bytes_written": sum(f.stat().st_size for f in (out / "report").iterdir())}


# (module, attribute, span name, attribute hook). A hook turns the call's
# arguments and result into numbers stored on the span.
PATCHES = [
    ("catsim.cli", "resolve_config", "config.resolve_config", None),
    ("catsim.config", "resolve_config", "config.resolve_config", None),
    *[
        ("catsim.pipeline", s, f"pipeline.{s}", _report_attrs if s == "report" else _files_attrs)
        for s in STAGES
    ],
    ("catsim.pipeline", "herald_subtract", "channels.herald_subtract", None),
    ("catsim.channels", "herald_subtract", "channels.herald_subtract", None),
    ("catsim.pipeline", "count_rate_table", "channels.count_rate_table", None),
    ("catsim.pipeline", "wigner", "phasespace.wigner", None),
    ("catsim.pipeline", "marginal_sweep", "phasespace.marginal_sweep", None),
    ("catsim.phasespace", "marginal", "phasespace.marginal", None),
    ("catsim.sampler", "marginal", "phasespace.marginal", None),
    ("catsim.pipeline", "rho_quad", "phasespace.rho_quad", None),
    ("catsim.phasespace", "rho_quad", "phasespace.rho_quad", None),
    ("catsim.pipeline", "coherence_peak", "phasespace.coherence_peak", None),
    ("catsim.pipeline", "save_quad_csv", "phasespace.csv_write", None),
    ("catsim.pipeline", "save_wigner_csv", "phasespace.csv_write", None),
    ("catsim.pipeline", "save_marginal_sweep_csv", "phasespace.csv_write", None),
    ("catsim.phasespace", "quadrature_basis", "fock.quadrature_basis", None),
    ("catsim.tomography", "quadrature_basis", "fock.quadrature_basis", None),
    ("catsim.pipeline", "synth_dataset", "sampler.synth_dataset", None),
    ("catsim.sampler", "synth_dataset", "sampler.synth_dataset", None),
    ("catsim.pipeline", "save_dataset", "sampler.save_dataset", None),
    ("catsim.pipeline", "load_dataset", "sampler.load_dataset", None),
    ("catsim.pipeline", "mle_reconstruct", "tomography.mle_reconstruct", _mle_attrs),
    ("catsim.tomography", "mle_reconstruct", "tomography.mle_reconstruct", _mle_attrs),
    ("catsim.pipeline", "bootstrap", "tomography.bootstrap", _bootstrap_attrs),
    ("catsim.tes", "confusion", "tes.confusion", _confusion_attrs),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of one benchmark run; `pass_id` tags every new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.pass_id)
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
        finally:
            self._open.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if hook is not None:
                    rec.attrs.update(hook(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for mod_name, attr, name, hook in PATCHES:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="ascii")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one stack, so children are nested in their parent and
    run one after another.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and summed attributes."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        row = table[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own
        for key, value in s.attrs.items():
            row[key] += value
    return table
