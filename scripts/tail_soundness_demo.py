"""How much certified tail bounds overshoot the true error.

Draws random expression trees from the tail-soundness harness in
tests/support.py, the generator acceptance criterion 8 runs: each tree is
evaluated once exactly (long prefixes, tails 0) and once with truncated
inputs, and the report shows the gap between the true l1 error and the
certified bound.  Everything is exact rational arithmetic, so the reported
slack is the propagation formulas' own conservatism, not rounding.

Usage: PYTHONPATH=src python scripts/tail_soundness_demo.py --trials 200 --depth 4 --seed 0
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from support import soundness_trial  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--depth", type=int, default=4, help="trees are 1 to DEPTH levels deep")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.depth < 1:
        parser.error("--depth must be >= 1")

    rng = random.Random(args.seed)
    ratios = []
    violations = 0
    exact_hits = 0
    for _ in range(args.trials):
        err, bound = soundness_trial(rng, max_depth=args.depth)
        if err > bound:
            violations += 1
        if bound == 0:
            exact_hits += 1
        else:
            ratios.append(err / bound)

    print(f"trials          {args.trials} (depth <= {args.depth}, seed {args.seed})")
    print(f"violations      {violations}")
    print(f"exact results   {exact_hits} (bound 0, error 0)")
    if ratios:
        ratios.sort()
        mean = sum(ratios) / len(ratios)
        print(f"error/bound     mean {float(mean):.4f}")
        for q in (0.5, 0.9, 1.0):
            idx = min(len(ratios) - 1, int(q * len(ratios)))
            print(f"                p{int(q * 100):<3} {float(ratios[idx]):.4f}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
