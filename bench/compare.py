"""Two sets of benchmark runs of the same code, compared against the bounds.

    python3 bench/compare.py

For every workload in BENCHMARK.json each set runs `bench/run.py` once per
seed 1-10, one run at a time, with `run_seconds` from BENCHMARK.json.  For
each end-to-end metric it prints every set's median and quartile spread
(Q3 - Q1 over the median, from `statistics.quantiles(values, n=4)`), the
same spread for the raw CPU figures, and whether:

  - each set's spread stays within the metric's bound,
  - the second set's median is no worse than the first set's by more than
    the bound,
  - the share of failed operations is identical in every run.

Exits 1 when a check fails.  Results go to .bench_out/compare.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import spread

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads((ROOT / ".bench_out" / f"result-{workload}-s{seed}-t0.json").read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            runs = [run_once(workload, seed, spec["run_seconds"]) for seed in SEEDS]
            sets.append(runs)
            print(f"{workload} set {k + 1}: done", flush=True)
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        if len({f / a for f, a in shares}) != 1:
            ok = False
            print(f"  FAIL failed share differs between runs: {sorted(shares)}")
        rows = {}
        for name, m in metrics.items():
            lower = m["better"] == "lower"
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            raw = [spread([r["raw_cpu"][name] for r in runs]) if name in runs[0]["raw_cpu"] else None
                   for runs in sets]
            worse = [(md / medians[0] - 1) if lower else (medians[0] / md - 1) for md in medians]
            checks = [s <= m["bound"] for s in spreads] + [w <= m["bound"] for w in worse[1:]]
            ok &= all(checks)
            rows[name] = {"medians": medians, "spreads": spreads, "raw_spreads": raw,
                          "worse_than_first": worse, "bound": m["bound"], "ok": all(checks),
                          "values": per_set}
            raw_text = " ".join("-" if x is None else f"{x:.3f}" for x in raw)
            print(f"  {name:12s} medians {' '.join(f'{x:.5g}' for x in medians)}  "
                  f"spread {' '.join(f'{x:.3f}' for x in spreads)} (raw {raw_text})  "
                  f"worse {' '.join(f'{x:+.3f}' for x in worse[1:])}  bound {m['bound']}  "
                  f"{'ok' if all(checks) else 'FAIL'}")
        report[workload] = {"failed_attempted": sorted(shares), "metrics": rows}
    (ROOT / ".bench_out" / "compare.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
