"""Deterministic report writers.

Each report embeds the run manifest it is given (built by
`cli.write_reports`), so a result can be re-run from the report alone.
Writers are byte-stable: no timestamps, sorted JSON keys, and shortest
round-trip decimal formatting for floats.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path


def format_cell(value) -> str:
    """A bool as true/false, else `str`: a float's shortest round-trip form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_json(path: Path, payload: dict) -> None:
    """`payload` as JSON, a dataclass in it as the dict of its fields; NaN
    and infinity, which JSON lacks, raise ValueError."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=asdict,
                               allow_nan=False) + "\n")


def write_csv(path: Path, header: list[str], rows, manifest: dict,
              footer: list | None = None) -> None:
    """CSV with the manifest embedded as a leading comment line and an
    optional footer block of (name, value) rows. `rows` may be any iterable,
    a generator too: each row is written as it is read."""
    with open(path, "w") as f:
        f.write("# manifest " + json.dumps(manifest, sort_keys=True) + "\n")
        blank = [()] if footer else []  # a footer follows one empty line
        for block in ([header], rows, blank, footer or []):
            f.writelines(",".join(map(format_cell, row)) + "\n" for row in block)
