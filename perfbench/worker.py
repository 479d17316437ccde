"""One pass of one workload in a fresh interpreter.

Reads a job as JSON on stdin, prints one JSON result on stdout. Started
by run.py, which puts the program's ``src`` on PYTHONPATH. The result
holds the set-up time, the timed section's wall time, operation count and
latencies, the peak RSS at the end of the timed section, the check
outcome and, for a traced pass, the spans and counts.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import chswitch.cli  # noqa: F401  the program's import is part of set-up
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]
    workload.warm_up()
    result = {"setup_s": time.perf_counter() - t0}
    if job["setup_only"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        timed = workload.timed(job)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, errors = workload.check(job, timed.outputs)
    result.update(
        timed_s=timed.seconds,
        ops=timed.ops,
        latencies_ms=timed.latencies_ms,
        peak_rss_mb=peak_rss_mb,
        failed=failed,
        errors=errors[:5],
    )
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
