"""Paired benchmark runs of two commits, written as a BENCH_<pr>.json file.

    python3 scripts/pairs.py PARENT CHANGE --workload W [--workload W2 ...]
                             --seeds 1-10 --seconds 20 --out BENCH_<pr>.json
                             [--traced SEED]

PARENT and CHANGE are commits; CHANGE may also be WORKTREE, the files of
this checkout that git tracks or would track (committed, staged or not,
and untracked files that no .gitignore names).  Each side is extracted with
`git archive` (WORKTREE: copied) into its own temporary directory, since
`bench/run.py` imports falg from the `src/` of its own checkout.  For every
workload and seed both sides run `python3 bench/run.py --workload W --seed S
--seconds N --trace 0` one after the other: the parent first on odd seeds,
the change first on even ones.  `--traced SEED` adds one `--trace 1` run per
side on each workload, for its per-layer metrics.  After the pairs, each
side runs `scripts/prime_guard.py`, `scripts/op_classes.py` and
`scripts/gc_passes.py` once, with their defaults, and the output keeps their
stdout lines under `layers`, per side and script.  A script the parent's
tree lacks is copied in from the change's tree first, so both sides are
read by the same script; null where neither tree has it.

The output has BENCH_20.json's layout: per workload its seeds, which side ran
first, the failed/attempted counts of every run, and per end-to-end metric
both sides' values, their median and quartiles (statistics.quantiles, the
inclusive method), the pairs the change wins (higher ops_per_s, lower
otherwise) and the relative change of the medians.  When --out already holds
a run of the same two commits, the workloads run now replace theirs and the
others are kept, so workloads may be run with different seeds.  Nothing but
--out is written into this checkout.  Exits 1 when a run is not correct.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SIDES = ("parent", "change")
LAYER_SCRIPTS = ("prime_guard.py", "op_classes.py", "gc_passes.py")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _seeds(text: str) -> list[int]:
    """'1-10' or '3' as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _extract(rev: str, dest: Path) -> None:
    dest.mkdir()
    if rev == WORKTREE:
        listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
        for name in filter(None, listed):
            if (ROOT / name).is_file():  # a tracked file deleted in the worktree is gone
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600 + 20 * seconds,
    )
    if proc.returncode != 0:  # bench/run.py exits 0 only when every output was correct
        raise SystemExit(f"{tree.name}: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads((tree / ".bench_out" / f"result-{workload}-s{seed}-t{trace}.json").read_text())


def _layers(tree: Path, change: Path) -> dict:
    """The stdout lines of each layer script run once in tree, copied from change where tree lacks it.

    None where neither tree has the script.
    """
    out = {}
    for name in LAYER_SCRIPTS:
        script = tree / "scripts" / name
        if not script.is_file():
            if not (change / "scripts" / name).is_file():
                out[name] = None
                continue
            shutil.copy2(change / "scripts" / name, script)
        proc = subprocess.run([sys.executable, f"scripts/{name}"], cwd=tree, capture_output=True, text=True,
                              timeout=1200)
        if proc.returncode != 0:
            raise SystemExit(f"{tree.name}: {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out[name] = proc.stdout.splitlines()
    return out


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def _workload(trees: dict, workload: str, seeds: list[int], seconds: int, units: dict, better: dict) -> dict:
    runs = {side: [] for side in SIDES}
    first_run = {}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        first_run[str(seed)] = order[0]
        for side in order:
            runs[side].append(_run(trees[side], workload, seed, seconds, 0))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.5g} ops/s" for side in SIDES), flush=True)
    metrics = {}
    for name, unit in units.items():
        values = {side: [round(r["metrics"][name]["value"], 5) for r in runs[side]] for side in SIDES}
        before, after = _summary(values["parent"]), _summary(values["change"])
        higher = better[name] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {"unit": unit, **values, "before": before, "after": after, "change_wins": wins,
                         "median_change": round(after["median"] / before["median"] - 1, 4)}
    return {
        "seeds": seeds,
        "first_run": first_run,
        "failed_attempted": {side: [[r["failed"], r["attempted"]] for r in runs[side]] for side in SIDES},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="commit of the parent side")
    p.add_argument("change", help=f"commit of the change side, or {WORKTREE}")
    p.add_argument("--workload", action="append", required=True, help="a workload of BENCHMARK.json (repeatable)")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="seeds, as 1-10 or 3 (default 1-10)")
    p.add_argument("--seconds", type=int, default=20, help="--seconds of every run (default 20)")
    p.add_argument("--traced", type=int, metavar="SEED", help="also one traced run per side and workload")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<pr>.json to write or update")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
    if unknown:
        p.error(f"unknown workload {sorted(unknown)[0]!r}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent = _git("rev-parse", "--short", args.parent)
    change = WORKTREE if args.change == WORKTREE else _git("rev-parse", "--short", args.change)
    if change == WORKTREE:
        title = f"the working tree on {_git('rev-parse', '--short', 'HEAD')}"
    else:
        title = _git("log", "-1", "--format=%s", change)

    out = args.out if args.out.is_absolute() else Path.cwd() / args.out
    report = json.loads(out.read_text()) if out.is_file() else {}
    if (report.get("before_commit"), report.get("after_commit")) != (parent, change):
        report = {}
    report.update({
        "change": title,
        "before_commit": parent,
        "after_commit": change,
        "machine": f"{os.cpu_count()} CPU {platform.system()}, Python {platform.python_version()}",
        "method": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} --trace 0, each side "
                  "from its own extracted copy (scripts/pairs.py), pairs alternating which side runs first "
                  "(odd seeds parent first). change_wins counts the pairs where the change is better "
                  "(higher ops_per_s, lower otherwise); median_change is after / before - 1 on the medians.",
    })
    with tempfile.TemporaryDirectory(prefix="falg-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        _extract(parent, trees["parent"])
        _extract(change, trees["change"])
        for workload in args.workload:
            report.setdefault("end_to_end", {})[workload] = _workload(
                trees, workload, args.seeds, args.seconds, units, better)
            if args.traced is not None:
                traced = report.setdefault("per_layer_traced", {})
                traced[workload] = {"seed": args.traced, **{
                    side: _run(trees[side], workload, args.traced, args.seconds, 1)["metrics"] for side in SIDES}}
        report["layers"] = {side: _layers(trees[side], trees["change"]) for side in SIDES}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
