"""CSV rows for the stage outputs, formatted in batches.

Every value is written as `repr` of a Python float, so it reads back
exactly. A column shared by many rows (an axis, a phase) is formatted once
and reused; rows are written block by block, so no more than one block's
strings are held at a time.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

def fields(values) -> list[str]:
    """Exact round-trip text of each value, as `repr(float(v))` gives it."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def write_rows(path: str | Path, head: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write the head lines, then each block's rows.

    A block is a sequence of columns. A column is a list of fields, one per
    row of the block, or a single field (str) repeated on every row.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in head))
        for block in blocks:
            columns = [repeat(c) if isinstance(c, str) else c for c in block]
            text = "\n".join(map(",".join, zip(*columns)))
            if text:
                fh.write(text + "\n")
