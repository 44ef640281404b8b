"""One workload in one process: solve it (timed), check it, write a record.

`run.py` starts this as

    python3 -m perfbench.child --workload NAME --seed N --trace 0|1 \
        --out RECORD.json [--spans SPANS.json.gz]

with TORICRES_CACHE_DIR, HOME and TMPDIR pointing into the run's temp dir.
The record holds the wall time of the solve, its work in seconds at the
nominal speed of `calibrate` (`work_s`, what the end-to-end times report),
the process's peak resident memory, the problems the check found and,
when traced, the per-layer metrics.  A solve that raises is recorded as a
failed check.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback

from perfbench import calibrate, trace
from perfbench.workloads import WORKLOADS, answer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    record: dict = {"workload": args.workload, "ok": False}
    try:
        from toricres import cech
        rec = trace.Recorder() if args.trace else None
        if rec is not None:
            trace.install(rec)
        meter = calibrate.Speedometer()
        meter.start()
        try:
            problem, outputs = workload.solve()
        finally:
            meter.stop()
        record["seconds"] = meter.wall_s
        record["work_s"] = meter.work_s()
        record["speed"] = meter.speed()
        record["samples"] = len(meter.samples)
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = workload.check([answer(o) for o in outputs], problem, args.seed)
        record["problems"] = problems
        record["ok"] = not problems
        if rec is not None:
            record["layers"] = trace.layer_metrics(rec, outputs,
                                                   dict(cech.cache_counters))
            if args.spans:
                rec.write(args.spans)
    except Exception:
        # the run is reported as failed, with the traceback, never as timed
        record["problems"] = [traceback.format_exc()]
    with open(args.out, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
