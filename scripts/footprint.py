"""Bytes falg keeps alive per rule-memo pair, per stored vector and per stored map.

    python3 scripts/footprint.py                  # rat
    python3 scripts/footprint.py --backend f64

Each line is one ``tracemalloc`` reading: the bytes still allocated after a
batch of objects is built, less those allocated before, over the batch's
size, with a full collection before each reading.  The inputs are made
before the first reading, so a line counts what falg itself stores.

- ``memo``: the rule memos of the builtins ``polynomial`` (pairs 64 x 64),
  ``free:2`` and ``group_z`` (32 x 32 each), filled by ``lookup`` on every
  pair, as the benchmark's dense_exact plan warms them: each pair's entry
  in ``entries`` and its row in ``_rows``.
- ``vector``: 1,000 vectors of 8 entries, each built from a raw table: the
  value and the table it keeps.
- ``map``: 8 banded maps of 256 columns, column j holding rows j..j+7 mod
  256: the value, its column dict and each column's vector and table.

Coefficients are seeded ``+-(1..9)/(1..5)`` (integers on int), so two trees
measure the same case.  falg is imported from ``src/`` next to this script,
so a copy of the script in another checkout measures that checkout.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from falg import BACKENDS, ColumnFiniteMap, HamelVector, load_builtin  # noqa: E402

MEMOS = (("polynomial", 64), ("free:2", 32), ("group_z", 32))
VECTORS, ENTRIES = 1000, 8
MAPS, COLUMNS, WIDTH = 8, 256, 8


def traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def per_item(fill, items: list) -> float:
    """Bytes that fill leaves allocated, over len(items): fill(out) sets out[n] from items[n]."""
    out = [None] * len(items)
    before = traced()
    fill(out)
    return (traced() - before) / len(items)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=sorted(BACKENDS), default="rat", help="coefficient backend (default rat)")
    args = parser.parse_args(argv)
    backend = BACKENDS[args.backend]
    rng = random.Random(7)

    def value():
        n = rng.choice((-1, 1)) * rng.randint(1, 9)
        return n if args.backend == "int" else backend.from_rational(n, rng.randint(1, 5))

    tracemalloc.start()
    tables = [load_builtin(name, backend).table for name, _ in MEMOS]
    pairs = [(t, i, j) for t, (_, n) in zip(tables, MEMOS) for i in range(n) for j in range(n)]
    raws = [{3 * k: value() for k in range(ENTRIES)} for _ in range(VECTORS)]
    cols = [{j: {(j + d) % COLUMNS: value() for d in range(WIDTH)} for j in range(COLUMNS)} for _ in range(MAPS)]

    def lookups(out):
        for n, (t, i, j) in enumerate(pairs):
            out[n] = t.lookup(i, j)

    def vectors(out):
        for n, raw in enumerate(raws):
            out[n] = HamelVector(backend, raw)

    def maps(out):
        for n, c in enumerate(cols):
            out[n] = ColumnFiniteMap(backend, c)

    memo, vector, banded = per_item(lookups, pairs), per_item(vectors, raws), per_item(maps, cols)
    tracemalloc.stop()

    print(f"memo {args.backend}: {memo:.0f} B per pair "
          f"({len(pairs)} pairs: " + ", ".join(f"{name} {n}x{n}" for name, n in MEMOS) + ")")
    print(f"vector {args.backend}: {vector:.0f} B per {ENTRIES}-entry vector ({VECTORS} vectors)")
    print(f"map {args.backend}: {banded:.0f} B per {COLUMNS}-column banded map ({MAPS} maps, {WIDTH} entries per column)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
