"""Import the primpair sources of the checkout this benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_primpair():
    """Put ``src/`` first on the path and import primpair from there only.

    Exits with an error when the checkout has no sources, rather than
    measuring some other installed copy.
    """
    package = SRC / "primpair"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no primpair sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import primpair
    if Path(primpair.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported primpair from {primpair.__file__}")
    return primpair
