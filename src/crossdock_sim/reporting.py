"""Deterministic report files.

Every report embeds its run manifest (command, resolved configuration,
seed, version, output paths) so a result can be re-run from the report
alone. Writers are byte-stable: no timestamps, sorted JSON keys, and
shortest round-trip decimal formatting for floats.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from . import __version__


def make_manifest(command: str, seed: int, params: dict, outputs: list[str]) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "parameters": params,
        "outputs": outputs,
    }


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_json(path: Path, payload: dict) -> None:
    """`payload` as JSON; a dataclass in it becomes the dict of its fields."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=asdict) + "\n")


def write_csv(path: Path, header: list[str], rows: list, manifest: dict,
              footer: list | None = None) -> None:
    """CSV with the manifest embedded as a leading comment line and an
    optional footer block of (name, value) rows."""
    lines = ["# manifest " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    if footer:
        lines.append("")
        for name, value in footer:
            lines.append(f"{name},{format_cell(value)}")
    path.write_text("\n".join(lines) + "\n")
