"""falg benchmark: three workloads, end-to-end metrics, and a traced mode.

    python3 bench/run.py --workload {dense_exact,acceptance_mix,cli_cold}
                         --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout (it imports falg from `src/`).
A run performs a fixed sequence of whole rounds of operations generated from
the seed; `--seconds` only sets how many rounds, through each workload's
nominal round length, never by watching the clock.  Closed loop, one client:
each operation starts when the previous one returns, and cli_cold spawns its
children one at a time.  Every output is checked against the oracles.

Timings are CPU times scaled to a nominal machine speed (measure.py).  The
last stdout line is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`).  The lines before it show raw CPU, wall time and the
reference readings next to the scaled figures.  Full results and spans are
written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import cli_cold
import measure
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("dense_exact", "acceptance_mix", "cli_cold")
# nominal scaled seconds of one round, and the least rounds that time 100 operations
NOMINAL_ROUND_S = {"dense_exact": 2.5, "acceptance_mix": 0.145, "cli_cold": 2.2}
MIN_ROUNDS = {"dense_exact": 3, "acceptance_mix": 1, "cli_cold": 9}
SETUP_REPS = 5
# in process, a run cycles through at most this many generated rounds
DISTINCT_ROUNDS = 16
MAX_PROBLEMS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS[workload], round(seconds / NOMINAL_ROUND_S[workload]))


# statistics ------------------------------------------------------------------


class Run:
    """Samples of one measured phase."""

    def __init__(self):
        self.samples: list[tuple[str, float, float, float, float]] = []  # cls, cpu, scaled, wall, ref
        self.oracle: dict[str, list[float]] = defaultdict(list)
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failed_classes: dict[str, int] = defaultdict(int)
        self.problems: list[str] = []
        self.wrong = 0
        self.ratios: list = []
        self.records: list = []  # (call, cli_child record, scale) in child modes

    def add(self, cls, cpu, wall, ref, r_nom, problem, known_fault=False):
        self.samples.append((cls, cpu, cpu * r_nom / ref, wall, ref))
        self.attempted += 1
        if problem is None:
            return
        if known_fault:
            self.failed += 1
            self.failed_classes[cls] += 1
        else:
            self.wrong += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{cls}: {problem}")

    @property
    def correct(self) -> bool:
        return not self.problems

    def class_median_ms(self, cls: str) -> float:
        values = [s for c, _, s, _, _ in self.samples if c == cls]
        return statistics.median(values) * 1e3 if values else 0.0

    def timing(self, column: int) -> dict:
        """Throughput and percentiles over one time column (1 raw CPU, 2 scaled)."""
        times = [s[column] for s in self.samples]
        deciles = statistics.quantiles(times, n=10, method="inclusive")
        return {
            "ops_per_s": (self.attempted - self.failed) / sum(times),
            "op_p50_ms": deciles[4] * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
        }

    def e2e(self, setups: list[float], rss_mb: float) -> dict:
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        out = {name: {"value": v, "unit": units[name]} for name, v in self.timing(2).items()}
        out["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        out["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        return out

    def drift_lines(self, setups) -> list[str]:
        cpu = sum(s[1] for s in self.samples)
        scaled = sum(s[2] for s in self.samples)
        wall = sum(s[3] for s in self.samples)
        refs = sorted(self.refs)
        lines = [
            f"operations {self.attempted} (failed {self.failed}), raw cpu {cpu:.3f} s, "
            f"wall {wall:.3f} s, scaled {scaled:.3f} s",
            f"R_win ms: min {refs[0] * 1e3:.3f} median {statistics.median(refs) * 1e3:.3f} "
            f"max {refs[-1] * 1e3:.3f} over {len(refs)} readings",
            "setup_s per repetition: " + ", ".join(f"{s:.4f}" for s in setups),
        ]
        by_class = defaultdict(list)
        for cls, c, s, _, _ in self.samples:
            by_class[cls].append((c, s))
        for cls, pairs in by_class.items():
            lines.append(
                f"  {cls:28s} n={len(pairs):4d}  raw p50 {statistics.median(p[0] for p in pairs) * 1e3:9.3f} ms"
                f"  scaled p50 {statistics.median(p[1] for p in pairs) * 1e3:9.3f} ms"
            )
        return lines


# in-process workloads --------------------------------------------------------


def setup_inproc(workload: str, seed: int, rounds: int):
    """Build the plan SETUP_REPS times; returns the last plan and the scaled times."""
    import inproc

    setups, plan = [], None
    for _ in range(SETUP_REPS):
        plan = None
        gc.collect()
        r0 = measure.read_ref()
        start = time.process_time()
        plan = inproc.WORKLOAD_PLANS[workload](seed, min(rounds, DISTINCT_ROUNDS))
        cpu = time.process_time() - start
        r1 = measure.read_ref()
        setups.append(cpu * measure.R_NOM_INPROC / ((r0 + r1) / 2))
    return plan, setups


def measure_inproc(plan, rounds: int, tracer=None) -> Run:
    from inproc import F64_VIOLATION

    r_nom, read_ref = measure.R_NOM_INPROC, measure.read_ref
    run = Run()
    gc.collect()
    r_prev = read_ref()
    run.refs.append(r_prev)
    op_id = 0
    for r in range(rounds):
        for window in plan.rounds[r % len(plan.rounds)]:
            timed = []
            for op in window:
                if tracer is not None:
                    tracer.op_id = op_id
                op_id += 1
                wall0, cpu0 = time.perf_counter(), time.process_time()
                result = op.run()
                cpu1, wall1 = time.process_time(), time.perf_counter()
                timed.append((op, result, cpu1 - cpu0, wall1 - wall0))
            r_next = read_ref()
            run.refs.append(r_next)
            ref = (r_prev + r_next) / 2
            r_prev = r_next
            for op, result, cpu, wall in timed:
                expected = None
                if op.expect is not None:
                    start = time.process_time()
                    expected = op.expect()
                    run.oracle[op.cls].append((time.process_time() - start) * r_nom / ref)
                try:
                    problem = op.verify(result, expected)
                    known = op.known_fault and problem is not None and problem.startswith(F64_VIOLATION)
                except Exception as e:  # a malformed result is a wrong result
                    problem, known = f"verification raised {type(e).__name__}: {e}", False
                run.add(op.cls, cpu, wall, ref, r_nom, problem, known)
                run.ratios.extend(op.ratios)
                op.ratios.clear()
    return run


def run_inproc(workload: str, seed: int, seconds: int, trace: bool):
    rounds = rounds_for(workload, seconds)
    plan, setups = setup_inproc(workload, seed, rounds)
    run = measure_inproc(plan, rounds)
    rss = measure.self_peak_rss_mb()
    first_round = sum(len(w) for w in plan.rounds[0])
    del plan
    result = {"run": run, "e2e": run.e2e(setups, rss), "setups": setups, "rounds": rounds}
    if not trace:
        return result

    import inproc

    plan = inproc.WORKLOAD_PLANS[workload](seed, 1)
    tracer = spans.Tracer()
    tracer.install()
    for table in plan.tables:
        tracer.wrap_rule(table)
    traced = measure_inproc(plan, 1, tracer)
    tracer.uninstall()
    untraced_s = sum(s[2] for s in run.samples[:first_round])
    traced_s = sum(s[2] for s in traced.samples)
    scale = measure.R_NOM_INPROC / statistics.median(traced.refs)
    result.update(
        overhead=traced_s / untraced_s,
        layers=layer_metrics(tracer.aggregates(), scale, run, cli=None),
    )
    tracer.dump(str(ROOT / ".bench_out" / f"trace-{workload}-s{seed}.jsonl"))
    if not traced.correct:
        run.problems.extend(f"traced: {p}" for p in traced.problems)
    return result


# cli_cold --------------------------------------------------------------------


def setup_cli(seed: int, rounds: int, out_dir: str):
    env = measure.child_env(str(ROOT))
    setups, plan = [], None
    for _ in range(SETUP_REPS):
        r0 = measure.read_ref()
        start, child0 = time.process_time(), measure.children_cpu()
        plan = cli_cold.build(seed, rounds, out_dir)
        compileall.compile_dir(str(ROOT / "src" / "falg"), force=True, quiet=1)
        measure.spawn(["-m", "falg", *plan[0][0].argv], env, str(ROOT))  # warm the file cache
        cpu = time.process_time() - start + measure.children_cpu() - child0
        r1 = measure.read_ref()
        setups.append(cpu * measure.R_NOM_INPROC / ((r0 + r1) / 2))
    return plan, setups, env


def measure_cli(plan, env, child_mode=None, record_dir=None) -> Run:
    """Spawn every call once, a bare interpreter start between calls.

    With `child_mode`, calls go through cli_child.py and its records are kept.
    """
    r_nom, read_cli_ref = measure.R_NOM_CLI, measure.read_cli_ref
    run = Run()
    cwd = str(ROOT)
    r_prev = read_cli_ref(env, cwd)
    run.refs.append(r_prev)
    for r, calls in enumerate(plan):
        for k, call in enumerate(calls):
            if child_mode is None:
                argv = ["-m", "falg", *call.argv]
            else:
                record = os.path.join(record_dir, f"{child_mode}-r{r}-c{k}.json")
                argv = [str(BENCH / "cli_child.py"), child_mode, record, "--", *call.argv]
            cpu, wall, code, out, err = measure.spawn(argv, env, cwd)
            r_next = read_cli_ref(env, cwd)
            run.refs.append(r_next)
            ref = (r_prev + r_next) / 2
            r_prev = r_next
            problem = None
            if code != 0:
                problem = f"exit {code}: {err.strip()[-300:]}"
            elif out != call.expected:
                problem = f"stdout {out[:120]!r} != expected {call.expected[:120]!r}"
            run.add(call.cls, cpu, wall, ref, r_nom, problem)
            if child_mode is not None and code == 0:
                with open(record, encoding="utf-8") as fh:
                    run.records.append((call, json.load(fh), r_nom / ref))
    return run


def run_cli(seed: int, seconds: int, trace: bool):
    rounds = rounds_for("cli_cold", seconds)
    out_dir = str(ROOT / ".bench_out" / f"cli_cold-s{seed}")
    plan, setups, env = setup_cli(seed, rounds, out_dir)
    run = measure_cli(plan, env)
    result = {"run": run, "e2e": run.e2e(setups, measure.children_peak_rss_mb()),
              "setups": setups, "rounds": rounds}
    if not trace:
        return result

    main_only = measure_cli(plan[:1], env, "main", out_dir)
    traced = measure_cli(plan[:1], env, "trace", out_dir)
    aggregates = spans.merge([rec["aggregates"] for _, rec, _ in traced.records])
    scale = measure.R_NOM_CLI / statistics.median(traced.refs)
    result.update(
        overhead=sum(s[2] for s in traced.samples) / sum(s[2] for s in main_only.samples),
        layers=layer_metrics(aggregates, scale, run, cli=main_only),
    )
    for extra in (main_only, traced):
        run.problems.extend(f"child: {p}" for p in extra.problems)
    return result


# per-layer metrics -----------------------------------------------------------

SCALAR_OPS = ("ring.Scalar.__add__", "ring.Scalar.__sub__", "ring.Scalar.__mul__", "ring.Scalar.__neg__")
PER_SIZE = {
    "hamel.apply.n64_ms": "apply.n64",
    "hamel.apply.n256_ms": "apply.n256",
    "hamel.compose.n64_ms": "compose.n64",
    "hamel.compose.n256_ms": "compose.n256",
    "algebra.mul.poly_n16_ms": "mul.poly_n16",
    "algebra.mul.poly_n32_ms": "mul.poly_n32",
    "algebra.mul.poly_n64_ms": "mul.poly_n64",
    "algebra.mul.free2_n16_ms": "mul.free2_n16",
    "algebra.mul.free2_n32_ms": "mul.free2_n32",
    "tensor.pure.n16_ms": "tensor_pure.n16",
}
SELF_MS = {
    "ring.is_zero.self_ms": ("ring.Scalar.is_zero",),
    "ring.scalar_ops.self_ms": SCALAR_OPS,
    "algebra.check_laws.self_ms": ("algebra.StructureTable.check_laws",),
    "catalog.rule.self_ms": ("catalog.rule",),
    "tensor.map_via_tensor.self_ms": ("tensor.map_via_tensor",),
    "schauder.tail_mul.self_ms": ("schauder.tail_mul",),
    "schauder.tailmap_apply.self_ms": ("schauder.TailMap.apply",),
    "schauder.tailmap_compose.self_ms": ("schauder.TailMap.compose",),
    "schauder.tpoly_apply.self_ms": ("schauder.tpoly_apply",),
    "cli.parse_expr.self_ms": ("cli.parse_expr",),
}


def _overhead(run, prefixes) -> float:
    """falg time over oracle time, summed over the classes' medians."""
    falg_ms = oracle_ms = 0.0
    for cls, times in run.oracle.items():
        if cls.startswith(prefixes):
            falg_ms += run.class_median_ms(cls)
            oracle_ms += statistics.median(times) * 1e3
    return falg_ms / oracle_ms if oracle_ms else 0.0


def layer_metrics(agg: dict, scale: float, run, cli) -> dict:
    """Per-layer figures; 0 where the workload does not reach that layer."""
    count, self_ns, total_ns = agg["count"], agg["self_ns"], agg["total_ns"]

    def n(*names):
        return sum(count.get(x, 0) for x in names)

    def ms(ns):
        return ns * 1e-6 * scale

    norm_names = [x for x in count if x.endswith((".norm_add", ".norm_mul", ".norm_add_low"))]
    out = {
        "ring.scalar_ops": (n(*SCALAR_OPS), "count"),
        "ring.is_zero": (n("ring.Scalar.is_zero"), "count"),
        "ring.norm_ops": (n("ring.Scalar.norm", *norm_names), "count"),
        "hamel.vector_builds": (n("hamel.HamelVector.__post_init__"), "count"),
        "hamel.coeffs_checked": (agg["coeffs_checked"], "count"),
        "hamel.checked_per_output": (agg["coeffs_checked"] / agg["outputs"] if agg["outputs"] else 0.0, "ratio"),
        "hamel.apply.overhead_x": (_overhead(run, ("apply.", "oracle.apply")), "ratio"),
        "algebra.mul.overhead_x": (_overhead(run, ("mul.", "oracle.mul")), "ratio"),
        "algebra.lookups": (agg["lookups"], "count"),
        "algebra.memo_hit_ratio": (agg["memo_hits"] / agg["lookups"] if agg["lookups"] else 0.0, "ratio"),
        "algebra.memo_entries": (agg["memo_entries"], "count"),
        "catalog.rule_calls": (n("catalog.rule"), "count"),
        "catalog.load_builtin_ms": (ms(total_ns.get("catalog.load_builtin", 0)), "ms"),
        "tensor.assoc_spot_check_ms": (
            ms(agg["child_ns"].get("tensor.map_via_tensor > algebra.StructureTable.associator", 0)), "ms"),
        "schauder.mass_recomputes": (agg["mass_recomputes"], "count"),
        "schauder.err_over_bound_p50": (float(statistics.median(run.ratios)) if run.ratios else 0.0, "ratio"),
    }
    for name, cls in PER_SIZE.items():
        out[name] = (run.class_median_ms(cls), "ms")
    for name, names in SELF_MS.items():
        out[name] = (ms(sum(self_ns.get(x, 0) for x in names)), "ms")
    wire = sum(ns for key, ns in agg["child_ns"].items()
               if key.startswith("cli.") and key.endswith(".from_data"))
    out["cli.wire_parse.self_ms"] = (ms(wire + self_ns.get("cli.json.load", 0)), "ms")
    out["cli.python_start_ms"] = (statistics.median(run.refs) * 1e3 if cli is not None else 0.0, "ms")
    records = cli.records if cli is not None else []
    imports = [rec["import_ms"] * k for _, rec, k in records]
    out["cli.import_ms"] = (statistics.median(imports) if imports else 0.0, "ms")
    for sub in ("eval", "check", "apply"):
        mains = [rec["main_ms"] * k for call, rec, k in records if call.argv[0] == sub]
        out[f"cli.main.{sub}_ms"] = (statistics.median(mains) if mains else 0.0, "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "falg" / "__init__.py").is_file():
        print(f"no falg sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import falg

    if Path(falg.__file__).resolve().parent != ROOT / "src" / "falg":
        print(f"imported falg from {falg.__file__}, not from this checkout", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    if args.workload == "cli_cold":
        result = run_cli(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_inproc(args.workload, args.seed, args.seconds, bool(args.trace))
    run = result["run"]

    print(f"workload {args.workload}, seed {args.seed}, {result['rounds']} rounds")
    for line in run.drift_lines(result["setups"]):
        print(line)
    for name, m in result["e2e"].items():
        print(f"{name:12s} {m['value']:.6g} {m['unit']}")
    if run.failed:
        print("failed (known float64 certificate fault): "
              + ", ".join(f"{c} x{k}" for c, k in sorted(run.failed_classes.items())))
    if run.wrong:
        print(f"WRONG: {run.wrong} operations, first of them:")
    for problem in run.problems:
        print(f"  {problem}")
    if args.trace:
        print(f"tracing overhead: traced / untraced duration of round 0 = {result['overhead']:.2f}x")
        metrics = result["layers"]
    else:
        metrics = result["e2e"]
    line = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    out = ROOT / ".bench_out" / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps({**line, "e2e": result["e2e"], "raw_cpu": run.timing(1),
                               "setups": result["setups"], "refs": run.refs,
                               "rounds": result["rounds"]}, indent=1))
    print(json.dumps(line))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
