"""Write primpair's rho hint file from a factor-cache file.

    python3 tools/derive_rho_hints.py CACHE [OUT]

A hint is a prime above HINT_FLOOR that a complete line of CACHE lists
below the line's largest prime.  Trial division (bound 2^16) cannot reach
such a prime and rho takes long to split it off, while the line's largest
prime is what is left once the others are divided out.  ``factorize`` tries
each hint as a divisor of a composite cofactor before running rho, and
still sends both pieces through ``is_prime``, so the file only saves time.

OUT defaults to ``src/primpair/data/rho_hints.txt``.  The committed file
is what a cache filled by cold ``primpair --cache PATH survey --t T`` runs
for every T in 7..62 gives, and also what ``perfbench/data/
warm_factor_cache.txt`` gives.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from primpair.ntheory import _decode_cache_line, _parse_cache_line  # noqa: E402

HINT_FLOOR = 10 ** 8
DEFAULT_OUT = ROOT / "src" / "primpair" / "data" / "rho_hints.txt"


def derive(lines) -> list[int]:
    """The sorted, distinct hints of the cache lines ``lines``."""
    hints = set()
    for line in lines:
        fac = _parse_cache_line(line)
        if fac is not None:
            hints.update(p for p in fac.primes()[:-1] if p > HINT_FLOOR)
    return sorted(hints)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: derive_rho_hints.py CACHE [OUT]", file=sys.stderr)
        return 2
    # read as FactorCache reads: bytes, decoded line by line, so a line that
    # is no UTF-8 is skipped like any other corrupt line
    with open(argv[0], "rb") as fh:
        hints = derive(map(_decode_cache_line, fh.read().splitlines()))
    out = Path(argv[1]) if len(argv) == 2 else DEFAULT_OUT
    out.write_text("".join(f"{h}\n" for h in hints))
    print(f"{len(hints)} hints -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
