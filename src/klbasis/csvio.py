"""CSV helpers and the file writers shared by the serializers and the CLI.

Numeric cells carry 17 significant digits so every double round-trips
exactly; the delimiter is a comma, line endings are LF, and a header row
is always present.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence


def fmt(value: float) -> str:
    """Format one number with 17 significant digits."""
    return f"{float(value):.17g}"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, text: str) -> Path:
    """Write text as is, with LF line endings on every platform."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def write_json(path: str | Path, doc: dict) -> Path:
    """JSON with sorted keys, two-space indent and a trailing newline."""
    return write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by this module; cells stay as strings."""
    with open(path, "r", newline="\n") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
