"""Per-class in-process times of the benchmark's dense_exact and acceptance_mix plans.

    python3 scripts/op_classes.py                                   # both workloads, seed 1
    python3 scripts/op_classes.py --workload acceptance_mix --seed 3 --rounds 2 --repeat 9

The plans are those ``bench/inproc.py`` builds for the benchmark, from the
same seeds.  After a plan is built, one full collection runs and the
collector is frozen (``gc.freeze``), so the plan's own objects are never
traversed inside a timed call.  Each operation of the plan's first
``--rounds`` rounds is then run ``--repeat`` times back to back, each call
timed with ``time.perf_counter``, and its best time is kept.  For each
operation class the script prints the number of operations, the sum of
their best times in ms and the mean per operation in microseconds, classes
ordered by that sum, then the workload's total.  Results are not checked
against the oracles; ``bench/run.py`` does that.

No span tracer is installed, so the times carry no tracing overhead: a
change to one layer shows in the classes that use it.  falg is imported
from ``src/`` and the plans from ``bench/`` next to this script, so a copy
of the script in another checkout times that checkout.  Nothing is written
to disk: bytecode caching is off for the imports.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inproc  # noqa: E402

WORKLOADS = tuple(inproc.WORKLOAD_PLANS)


def class_times(workload: str, seed: int, rounds: int, repeat: int) -> dict[str, list[float]]:
    """Class -> the best time in seconds of each of its operations, over `rounds` rounds."""
    plan = inproc.WORKLOAD_PLANS[workload](seed, rounds)
    gc.collect()
    gc.freeze()
    try:
        best: dict[str, list[float]] = defaultdict(list)
        clock = time.perf_counter
        for windows in plan.rounds:
            for window in windows:
                for op in window:
                    run, fastest = op.run, float("inf")
                    for _ in range(repeat):
                        start = clock()
                        run()
                        fastest = min(fastest, clock() - start)
                    best[op.cls].append(fastest)
        return best
    finally:
        gc.unfreeze()


def report(workload: str, best: dict[str, list[float]]) -> list[str]:
    lines = [f"{workload}: {'class':28s} {'ops':>5s} {'sum ms':>9s} {'mean us':>9s}"]
    for cls, times in sorted(best.items(), key=lambda item: -sum(item[1])):
        lines.append(f"{'':{len(workload) + 2}s}{cls:28s} {len(times):5d} {sum(times) * 1e3:9.3f} "
                     f"{sum(times) / len(times) * 1e6:9.1f}")
    total = [t for times in best.values() for t in times]
    lines.append(f"{'':{len(workload) + 2}s}{'total':28s} {len(total):5d} {sum(total) * 1e3:9.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="a workload to time (repeatable; default: both)")
    parser.add_argument("--seed", type=int, default=1, help="the plan's seed, as bench/run.py takes it")
    parser.add_argument("--rounds", type=int, default=1, help="rounds of the plan to time")
    parser.add_argument("--repeat", type=int, default=5, help="runs per operation; the best is kept")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeat < 1:
        parser.error("--rounds and --repeat must be at least 1")
    for workload in args.workload or WORKLOADS:
        print("\n".join(report(workload, class_times(workload, args.seed, args.rounds, args.repeat))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
