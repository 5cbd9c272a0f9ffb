"""Where the collector's full passes land in the benchmark's in-process runs.

    python3 scripts/gc_passes.py                                         # both workloads, seeds 1-10
    python3 scripts/gc_passes.py --workload dense_exact --seeds 3-4 --seconds 20

For each workload and seed, the plan is built and timed by ``bench/run.py``'s
own ``setup_inproc`` and ``measure_inproc``, unchanged, over the rounds that
``bench/run.py --seconds N`` runs, each workload and seed in a fresh
interpreter (the script runs itself once per workload and seed).  While
``measure_inproc`` runs, a ``gc.callbacks`` hook records every generation-2
(full) collection: its duration, and the class of the operation whose timed
``op.run()`` it started in, or ``outside`` when it started anywhere else
(the harness's own ``gc.collect()``, an oracle, a check, a reference
reading).

The probe must not move the passes it reports, so it adds no object that
lives past a collection while the plan is timed.  The operation is read from
``measure_inproc``'s own frame, captured once by a profile hook that is
removed at the frame's first event, before the harness's first
``gc.collect()``: a pass started in a timed call when that frame stands on
the line that calls ``op.run()``, and ``op`` is read from its locals, a dict
made at that first event, then filled and emptied in place.  A young
collection returns from the hook at once; the full ones it records keep
only floats and existing strings.

Each run prints one line: its ops_per_s as ``bench/run.py`` computes it, the
number of full passes and how many of them started in a timed call, with
their total ms; then one line per full pass.  falg is imported from ``src/``
and the harness from ``bench/`` next to this script, so a copy of the script
in another checkout probes that checkout.  Nothing is written to disk:
bytecode caching is off and ``.bench_out/`` is not touched.
"""

from __future__ import annotations

import argparse
import gc
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench  # noqa: E402

WORKLOADS = ("dense_exact", "acceptance_mix")


def _seeds(text: str) -> list[int]:
    """'1-10' or '3' as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _timed_line() -> int:
    """The line of measure_inproc that calls op.run() between its two clock readings."""
    code = bench.measure_inproc.__code__
    lines = Path(code.co_filename).read_text().splitlines()
    found = {n for _, _, n in code.co_lines() if n and "op.run()" in lines[n - 1]}
    if len(found) != 1:
        raise SystemExit("bench/run.py: measure_inproc no longer calls op.run() on one line of its own")
    return found.pop()


def probe(workload: str, seed: int, seconds: int) -> list[str]:
    """Build and time one benchmark run; one line for the run, then one per full pass."""
    rounds = bench.rounds_for(workload, seconds)
    plan, _ = bench.setup_inproc(workload, seed, rounds)
    timed_line = _timed_line()
    starts: list[float] = []
    durations: list[float] = []
    where: list[str] = []
    frame = None
    clock = time.perf_counter

    def capture(f, event, arg):
        nonlocal frame
        if f.f_code is bench.measure_inproc.__code__:
            frame = f  # the hook's caller fills frame.f_locals: that dict now exists, before anything is timed
            sys.setprofile(None)

    def on_collection(phase, info):
        if info["generation"] != 2 or frame is None:
            return
        if phase == "start":
            cls = "outside"
            if frame.f_lineno == timed_line:
                names = frame.f_locals
                cls = names["op"].cls
                names.clear()  # keep no harness value alive past this pass
            where.append(cls)
            starts.append(clock())
        else:
            durations.append(clock() - starts[-1])

    gc.callbacks.append(on_collection)
    sys.setprofile(capture)
    try:
        run = bench.measure_inproc(plan, rounds)
    finally:
        sys.setprofile(None)
        gc.callbacks.remove(on_collection)
    inside = [d for d, cls in zip(durations, where) if cls != "outside"]
    lines = [f"{workload} seed {seed}: {rounds} rounds, ops_per_s {run.timing(2)['ops_per_s']:.1f}, "
             f"{len(durations)} full passes, {len(inside)} in timed ops ({sum(inside) * 1e3:.1f} ms)"]
    lines += [f"  full pass {d * 1e3:7.1f} ms  {cls}" for d, cls in zip(durations, where)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="a workload to probe (repeatable; default: both)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="seeds, as 1-10 or 3 (default 1-10)")
    parser.add_argument("--seconds", type=int, default=20, help="bench/run.py's --seconds (default 20)")
    args = parser.parse_args(argv)
    pairs = [(w, s) for w in args.workload or WORKLOADS for s in args.seeds]
    if len(pairs) == 1:
        print("\n".join(probe(*pairs[0], args.seconds)), flush=True)
        return 0
    for workload, seed in pairs:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seeds", str(seed),
                               "--seconds", str(args.seconds)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        print(proc.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
