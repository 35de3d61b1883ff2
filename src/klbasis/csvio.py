"""CSV helpers and the file writers shared by the serializers and the CLI.

Numeric cells carry 17 significant digits so every double round-trips
exactly; the delimiter is a comma, line endings are LF, and a header row
is always present.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def csv_text(header: Sequence[str], rows: np.ndarray | Iterable[Sequence]) -> str:
    """Header line, then one line per row of a 2-D array or an iterable of
    rows. The first row sets each column's template, `%s` for a string cell
    and `%.17g` for a number, and one `%` formats the whole table."""
    table = rows.tolist() if isinstance(rows, np.ndarray) else [list(row) for row in rows]
    line = ",".join("%s" if isinstance(c, str) else "%.17g" for c in table[0]) if table else ""
    cells = tuple(itertools.chain.from_iterable(table))
    return ",".join(header) + "\n" + ((line + "\n") * len(table)) % cells


def write_text(path: str | Path, text: str) -> Path:
    """Write text as is, UTF-8 with LF line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return Path(path)


def write_json(path: str | Path, doc: dict) -> Path:
    """JSON with sorted keys, two-space indent and a trailing newline."""
    return write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by this module; cells stay as strings."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
