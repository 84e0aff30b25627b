"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --root CHECKOUT --plan PLAN.json \
        --pass-dir DIR --report REPORT.json [--trace]
    python3 perfbench/worker.py --root CHECKOUT --pass-dir DIR \
        --report REPORT.json --replay MANIFEST --replay-out OUT

The pass imports ``lzguess`` from CHECKOUT/src, writes the plan's inputs into
DIR, then runs the jobs one after another through ``cli_dispatch``, each
under a wall-clock limit of JOB_LIMIT_S.  ``ready`` in the report is the
CLOCK_MONOTONIC reading when the first job could start; the parent subtracts
its own reading taken just before it spawned this process, which gives the
set-up time.  ``cal_s`` holds the time of the calibration loop taken right
after set-up and after every job, outside the job timings.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

JOB_LIMIT_S = 60.0


class JobTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work: small-int
    arithmetic, dict updates, bigint products and list building, the
    operations the workloads spend their time in.  The host is shared, and
    its speed can halve for minutes at a time; this loop slows with it, so
    a job's time divided by the loop's time around it stays steady."""
    t0 = time.perf_counter()
    s = 0
    for i in range(80000):
        s += i * i
    d = {}
    for i in range(8000):
        k = (i * 7919) & 4095
        d[k] = d.get(k, 0) + 1
    x = (1 << 6000) - 12345
    y = x
    for _ in range(150):
        y = (y * x) >> 6000
    out = []
    for i in range(6000):
        out.append(i & 255)
    bytes(out)
    return time.perf_counter() - t0


def run_jobs(cli, jobs, tracer=None):
    """Run the jobs in order.  Returns one record per job and the
    calibration times taken before the first job and after each job."""
    records = []
    cal = [calibrate()]
    signal.signal(signal.SIGALRM, _on_alarm)
    for job in jobs:
        rec = {"id": job["id"], "status": "ok", "error": None, "outdir": None}
        records.append(rec)
        if job.get("refused"):
            rec["status"] = "refused"
            rec["error"] = "expected attempts exceed the per-job budget"
            rec["wall_s"] = 0.0
            cal.append(cal[-1])
            continue
        if tracer is not None:
            tracer.begin_job(job["id"])
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            record = cli.cli_dispatch(job["argv"])
            rec["outdir"] = record["outdir"]
        except JobTimeout:
            rec["status"] = "timeout"
            rec["error"] = "over the %g s job limit" % JOB_LIMIT_S
        except (Exception, SystemExit) as exc:
            rec["status"] = "error"
            rec["error"] = "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc(file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["wall_s"] = time.perf_counter() - t0
        cal.append(calibrate())
    return records, cal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--pass-dir", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--plan")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--replay")
    ap.add_argument("--replay-out")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import lzguess.cli
    from jobs import write_inputs

    os.makedirs(args.pass_dir, exist_ok=True)
    os.chdir(args.pass_dir)
    if args.replay:
        record = lzguess.cli.cli_dispatch(["replay", "--manifest", args.replay,
                                           "--out-dir", args.replay_out])
        report = {"outdir": record["outdir"]}
    else:
        with open(args.plan, encoding="utf-8") as fh:
            plan = json.load(fh)
        write_inputs(plan, plan["seed"], ".")
        tracer = None
        if args.trace:
            from tracer import Tracer, dir_bytes
            tracer = Tracer(plan)
            tracer.install()
        ready = time.monotonic()
        records, cal = run_jobs(lzguess.cli, plan["jobs"], tracer)
        wall = sum(rec["wall_s"] for rec in records)
        report = {"ready": ready, "wall_s": wall, "cal_s": cal,
                  "jobs": records}
        if tracer is not None:
            tracer.uninstall()
            report["trace"] = tracer.summary(wall, dir_bytes("runs"))
            tracer.write_spans("spans.json")
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
