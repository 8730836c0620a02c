"""Locations inside the checkout, and the guard that the library is there.

The benchmark imports ``fishergeom`` from the checkout's own ``src/`` and
nowhere else, writes only under ``.perfbench/`` at the checkout root, and
refuses to run (exit status 2, no result line) when ``src/`` or the golden
figures are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fishergeom" / "__init__.py"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench"


class MissingCheckout(RuntimeError):
    """The library sources or the golden figures are not in the checkout."""


def require_checkout() -> None:
    """Check that the checkout holds the library, and put ``src/`` first on
    ``sys.path``. Importing is left to the caller, so that it can be timed."""
    if not PACKAGE.is_file():
        raise MissingCheckout(f"no fishergeom package at {PACKAGE}")
    if not GOLDEN.is_dir():
        raise MissingCheckout(f"no golden figures at {GOLDEN}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported_from_checkout() -> None:
    import fishergeom

    if Path(fishergeom.__file__).resolve() != PACKAGE.resolve():
        raise MissingCheckout(f"fishergeom imports from {fishergeom.__file__}, not {PACKAGE}")


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path
