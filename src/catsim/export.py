"""CSV rows for the stage outputs, formatted in batches, the one file writer
and the one JSON reader.

Every value is written as `repr` of a Python float, so it reads back
exactly. Each distinct value of a batch is formatted once: a phase-space
grid repeats most of its values (a Hermitian table its mirror half, a
parity-definite state's imaginary part is all zeros), and a column shared
by many rows (an axis) is formatted once and reused. Rows are written block
by block, so no more than one block's rows are joined at a time.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError


def read_json(path: str | Path):
    """The JSON value in a file; SchemaError naming the file if it is not ASCII JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="ascii"))
    except (ValueError, RecursionError) as exc:  # not ASCII, not JSON, or nested too deep
        raise SchemaError(f"{path} is not readable JSON ({exc})") from None


def fields(values) -> list[str]:
    """Exact round-trip text of each value, as `repr(float(v))` gives it.

    Each distinct bit pattern is formatted once, so -0.0 stays apart from 0.0.
    """
    flat = np.ascontiguousarray(np.asarray(values, dtype=float).ravel())
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return text[inverse].tolist()


def write_text(path: str | Path, parts: Iterable[str]) -> None:
    """Write the text parts, in order, to a hidden temp file beside `path`, then
    rename it over `path`. If a part raises, the temp file is removed and `path`
    keeps its old bytes, so a stage that dies mid-write leaves no partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: str | Path, head: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write the head lines, then each block's rows.

    A block is a sequence of columns. A column is a list of fields, one per
    row of the block, or a single field (str) repeated on every row.
    """
    write_text(path, _row_text(head, blocks))


def _row_text(head: Sequence[str], blocks: Iterable[Sequence]):
    yield "".join(line + "\n" for line in head)
    for block in blocks:
        columns = [repeat(c) if isinstance(c, str) else c for c in block]
        text = "\n".join(map(",".join, zip(*columns)))
        if text:
            yield text + "\n"
