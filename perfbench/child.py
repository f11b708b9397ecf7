"""Fresh-interpreter steps of the benchmark; run.py starts these.

    python3 perfbench/child.py setup <workload>
        Import eistrig and set up the workload up to its first operation,
        then print "ready <seconds the import took>" and exit.
    python3 perfbench/child.py verify-traced <summary.json> <spans.tsv>
        Run `eistrig verify --format json` with every public function
        wrapped, print the report as the CLI does, and write the per-layer
        summary and the spans.

Both expect eistrig on the path (PYTHONPATH=src), as run.py arranges.
"""

from __future__ import annotations

import sys
from time import perf_counter


def setup(workload: str) -> int:
    t0 = perf_counter()
    import eistrig  # noqa: F401  (the import is what is being timed)
    import_s = perf_counter() - t0
    from workloads import SPECS, prepare, public_functions
    prepare(SPECS[workload], public_functions())
    print(f"ready {import_s!r}", flush=True)
    return 0


def verify_traced(summary_path: str, spans_path: str) -> int:
    import json
    from tracer import Tracer
    import eistrig.cli
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = eistrig.cli.main(["verify", "--format", "json"])
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "verify-traced":
        sys.exit(verify_traced(sys.argv[2], sys.argv[3]))
    sys.exit(f"usage: {sys.argv[0]} setup <workload> | verify-traced <summary> <spans>")
