"""Locate the checkout the benchmark runs in and import its own package.

The benchmark must measure the source tree next to it, never an installed
copy, so `src/` goes first on the import path and the imported module's
location is checked.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "crossdock_sim"
CONFIG = ROOT / "configs" / "paper-base.json"


class MissingSource(RuntimeError):
    """The checkout lacks the package source or the paper config."""


def use_checkout_source() -> None:
    """Import `crossdock_sim` from this checkout, or raise MissingSource."""
    for needed in (PACKAGE_DIR / "__init__.py", CONFIG):
        if not needed.is_file():
            raise MissingSource(f"{needed.relative_to(ROOT)} not found under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crossdock_sim

    found = Path(crossdock_sim.__file__).resolve().parent
    if found != PACKAGE_DIR:
        raise MissingSource(f"crossdock_sim imported from {found}, not {PACKAGE_DIR}")
