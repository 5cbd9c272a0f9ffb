"""One cold `falg` call in a fresh interpreter, timed from the inside.

    python3 bench/cli_child.py {main|trace} RECORD.json -- FALG-ARGS...

Imports `falg.cli` (timed: the import cost of a cold call), then runs
`falg.cli.main(FALG-ARGS)` with its stdout passed through.  In `main` mode
only `main` is timed; in `trace` mode every public falg callable is wrapped
first (see spans.py) and `json.load` as the CLI looks it up.  The record
holds the import and main CPU times, plus the span aggregates in `trace`
mode; the kept spans go to RECORD with the suffix `.spans.jsonl`.
"""

from __future__ import annotations

import json
import sys
import time
import types


def main() -> int:
    mode, record_path, sep, *argv = sys.argv[1:]
    if mode not in ("main", "trace") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    start = time.process_time()
    import falg.cli

    record: dict = {"import_ms": (time.process_time() - start) * 1e3}
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op_id = 0
        falg.cli.json = types.SimpleNamespace(
            load=tracer.wrap("cli.json.load", json.load),
            dumps=json.dumps,
            JSONDecodeError=json.JSONDecodeError,
        )
    start = time.process_time()
    code = falg.cli.main(argv)
    record["main_ms"] = (time.process_time() - start) * 1e3
    if tracer is not None:
        tracer.uninstall()
        falg.cli.json = json
        record["aggregates"] = tracer.aggregates()
        tracer.dump(record_path + ".spans.jsonl")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
