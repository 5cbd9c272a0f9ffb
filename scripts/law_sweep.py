"""Probe the algebra laws of every builtin fixture across backends.

Runs the seeded law checker on each (fixture, backend) pair and prints one
row per pair.  Exit code 1 if anything fails, so this doubles as a smoke
test after touching the structure tables.

Usage: python scripts/law_sweep.py --trials 200 --seed 0

falg is imported from the ``src/`` next to this script.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from falg import BACKENDS, load_builtin  # noqa: E402

FIXTURES = ["polynomial", "complex", "quaternion", "group_z", "free:1", "free:2", "free:3"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-index", type=int, default=16)
    args = parser.parse_args(argv)

    failed = False
    header = f"{'fixture':<12} {'backend':<8} {'laws':<44} result"
    print(header)
    print("-" * len(header))
    for name in FIXTURES:
        for backend in BACKENDS.values():
            table = load_builtin(name, backend).table
            report = table.check_laws(
                trials=args.trials, max_index=args.max_index, seed=args.seed
            )
            laws = ",".join(r.law.replace("_distributive", "_dist") for r in report.results)
            verdict = "ok" if report.ok else "FAIL"
            print(f"{name:<12} {backend.name:<8} {laws:<44} {verdict}")
            if not report.ok:
                failed = True
                for r in report.results:
                    if not r.ok:
                        print(f"  {r.law} counterexample: {r.counterexample}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
