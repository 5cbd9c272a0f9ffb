"""Time the exact kernels on inputs whose denominators are all distinct large primes.

    python3 scripts/prime_guard.py              # best of 3
    python3 scripts/prime_guard.py --repeat 9

The case: a rational banded map at n = 256, column j holding rows j..j+7
mod n, and a dense vector on 0..255, each of the 2,048 entries and 256
coordinates over its own 7-digit prime denominator (2,304 in all), with
numerators +-(1..9); then two dense vectors on 0..511, whose 1,024
coordinates take the next 7-digit primes.  No two terms share a
denominator, so every exact sum meets unrelated big denominators.  The
script times ``apply`` of the map to the vector, ``compose`` of the map
with itself, ``l1_total`` of the map and ``add``, the sum of the two long
vectors, each the best of ``--repeat`` runs of ``time.process_time``, and
prints one line per operation in milliseconds.  The inputs are seeded, so
two trees time the same case.

falg is imported from ``src/`` next to this script, so a copy of the script
in another checkout times that checkout.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from falg import RATIONAL, ColumnFiniteMap, HamelVector  # noqa: E402

N, WIDTH, LONG = 256, 8, 512
FIRST = 10**6  # the primes are the first ones above this


def primes(count: int) -> list[int]:
    """The first `count` primes above FIRST, by a segmented sieve."""
    span = 20 * count + 1000  # primes near 10^6 are about 1 in 14 integers
    root = math.isqrt(FIRST + span)
    small = [p for p in range(2, root + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    alive = bytearray([1]) * span
    for p in small:
        for m in range(-FIRST % p, span, p):
            alive[m] = 0
    out = [FIRST + i for i in range(span) if alive[i]]
    if len(out) < count:
        raise ValueError(f"sieve span {span} holds only {len(out)} primes")
    return out[:count]


def case() -> tuple[ColumnFiniteMap, HamelVector, HamelVector, HamelVector]:
    rng = random.Random(5)
    dens = iter(primes(N * WIDTH + N + 2 * LONG))

    def value() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), next(dens))

    cols = {j: {(j + d) % N: value() for d in range(WIDTH)} for j in range(N)}
    f, x = ColumnFiniteMap(RATIONAL, cols), HamelVector(RATIONAL, {i: value() for i in range(N)})
    y, z = (HamelVector(RATIONAL, {i: value() for i in range(LONG)}) for _ in range(2))
    return f, x, y, z


def best_ms(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        call()
        best = min(best, time.process_time() - start)
    return best * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per operation; the best is printed")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    f, x, y, z = case()
    for name, call in (("apply", lambda: f.apply(x)), ("compose", lambda: f.compose(f)),
                       ("l1_total", f.l1_total), ("add", lambda: y + z)):
        print(f"{name:9s}{best_ms(call, args.repeat):9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
