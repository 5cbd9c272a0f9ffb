"""CPU timing scaled to a nominal machine speed.

On a shared VM the same CPU work drifts by 10-30% between windows of a few
seconds, so raw CPU times cannot be compared between runs.  Every timing is
therefore divided by the CPU time of a fixed reference kernel measured in the
same window and multiplied by that kernel's nominal time:

    scaled = cpu * R_nom / R_win

In process the reference is `reference_kernel` below: pure Python, a few
thousand dict updates and integer steps, no falg code and few allocations.
For cold CLI calls it is a bare interpreter start, `python -c pass`, spawned
the same way as the measured calls.

Run this file to measure R_nom again on the current machine:

    python3 bench/measure.py
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time

# Nominal reference times, fixed when the benchmark was made (see README).
R_NOM_INPROC = 0.0062
R_NOM_CLI = 0.0600

REF_ITERS = 24_000


def reference_kernel() -> int:
    counts: dict[int, int] = {}
    x = 1
    for _ in range(REF_ITERS):
        x = (x * 75 + 74) % 65537
        key = x & 511
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def read_ref() -> float:
    """CPU seconds of one reference-kernel run in this process."""
    start = time.process_time()
    reference_kernel()
    return time.process_time() - start


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(root: str) -> dict[str, str]:
    """Environment of every spawned interpreter: falg from src, fixed hashing."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


def spawn(argv: list[str], env: dict[str, str], cwd: str) -> tuple[float, float, int, str, str]:
    """Run `sys.executable argv` to completion; (cpu s, wall s, code, out, err).

    Children run one at a time, so the RUSAGE_CHILDREN delta is this child's.
    """
    cpu0, wall0 = children_cpu(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True, timeout=60
    )
    return (
        children_cpu() - cpu0,
        time.perf_counter() - wall0,
        proc.returncode,
        proc.stdout,
        proc.stderr,
    )


def read_cli_ref(env: dict[str, str], cwd: str) -> float:
    cpu, _, code, _, err = spawn(["-c", "pass"], env, cwd)
    if code != 0:
        raise RuntimeError(f"bare interpreter start failed: {err.strip()}")
    return cpu


def spread(values: list[float]) -> float:
    """Quartile spread: (Q3 - Q1) / median, from statistics.quantiles(n=4)."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1]


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = child_env(root)
    inproc = [read_ref() for _ in range(200)]
    cli = [read_cli_ref(env, root) for _ in range(30)]
    for name, values, fixed in (("R_NOM_INPROC", inproc, R_NOM_INPROC), ("R_NOM_CLI", cli, R_NOM_CLI)):
        print(
            f"{name}: median {statistics.median(values):.6f} s  "
            f"IQR/median {spread(values):.3f}  (fixed value {fixed} s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
