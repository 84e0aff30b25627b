"""The lzguess benchmark: one workload, timed passes, checked outputs.

    python3 perfbench/run.py --workload exact_law --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke              # every workload, tiny sizes
    python3 perfbench/run.py --record-reference   # rewrite reference.json

Run it from the root of a checkout; it imports ``lzguess`` from ./src and
writes only under ./.perfbench_out.  A run is a closed loop with one client:
each pass is a fresh worker process that runs the workload's CLI jobs one
after another (see jobs.py).  Passes repeat until the next one would end
after --seconds (at least MIN_PASSES).  Every pass's outputs are checked
(checks.py), and one manifest per run is replayed and must reproduce its
results.json byte for byte.

With --trace 0 the last stdout line reports the end-to-end metrics, each the
median over passes, with set-up and wall times scaled to a reference host
speed measured by a calibration loop between jobs (scaled_times); the
report keeps the measured times beside them.  With --trace 1 one untraced
pass is followed by one traced pass (tracer.py) and the line reports the
per-layer metrics.  The line before it is the provenance record; the full
report, with quartiles, per-job timings and expected against actual Monte
Carlo attempts, is written to the run's folder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import jobs as jobs_mod
from checks import FLOAT_REL_TOL, Checker, condense, strip_mc
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_PASSES = 3
# Times in the result line are scaled to a host on which the worker's
# calibration loop takes CAL_REF_S, about its time on a lightly loaded
# 2-vCPU x86-64 host where the bounds in BENCHMARK.json were set.
CAL_REF_S = 0.015
RUN_LIMIT_S = 170.0          # the whole run, passes and checks included
DEFAULT_SEED = 1
OUT_DIR = ".perfbench_out"
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "throughput": "work/s"}
# What "work" counts in `throughput`, per workload.
WORK = {"exact_law": "exact_symbols_per_s", "mc_game": "mc_attempts_per_s",
        "codec_large": "codec_symbols_per_s"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken pass)."""


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def load_program(root: str):
    """Put the checkout's src/ first on sys.path and import lzguess."""
    if not os.path.isfile(os.path.join(root, "src", "lzguess", "cli.py")):
        raise BenchError("no lzguess sources under %s/src; run from the root "
                         "of a checkout" % root)
    sys.path.insert(0, os.path.join(root, "src"))
    import lzguess
    if not os.path.abspath(lzguess.__file__).startswith(root + os.sep):
        raise BenchError("imported lzguess from %s, not from the checkout"
                         % lzguess.__file__)


def exact_q_log2_fn():
    """log2 of the exact per-round success probability of an MC target,
    from the same guesser the CLI builds for the job."""
    from lzguess.cli import _make_guesser
    from lzguess.seqcore import Alphabet, SymbolSeq, parse_corpus_spec
    from lzguess.sideinfo import cond_guess_prob

    machine = os.path.join(HERE, jobs_mod.MACHINE["source"])
    binary = Alphabet("01")

    def q_log2(guesser: str, text: str) -> float:
        n = len(text)
        if guesser == "cond-periodic":
            x = parse_corpus_spec("periodic:ab", n)
            return cond_guess_prob(x, x).log2()
        spec = "fsgm:" + machine if guesser == "fsgm" else guesser
        g = _make_guesser({"guesser": spec}, binary, n)
        return g.guess_prob(SymbolSeq.from_text(text, g.alphabet)).log2()

    return q_log2


def corpus_fn():
    from lzguess.seqcore import parse_corpus_spec

    def sequence(spec: str, n: int) -> list[int]:
        return list(parse_corpus_spec(spec, n).indices)

    return sequence


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def spawn_wait(argv, limit: float):
    """Run argv to completion; kill it past `limit` seconds.  Returns the
    exit code and the child's resource usage from wait4."""
    pid = os.posix_spawn(argv[0], argv, dict(os.environ),
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])

    def kill(signum, frame):
        os.kill(pid, signal.SIGKILL)

    old = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(limit, 1.0))
    try:
        _pid, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return os.waitstatus_to_exitcode(status), usage


def run_pass(root, run_dir, k, trace, limit):
    pass_dir = os.path.join(run_dir, "pass-%d" % k)
    report_path = os.path.join(run_dir, "pass-%d.json" % k)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
            "--plan", os.path.join(run_dir, "plan.json"),
            "--pass-dir", pass_dir, "--report", report_path]
    if trace:
        argv.append("--trace")
    spawned = time.monotonic()
    code, usage = spawn_wait(argv, limit)
    if code != 0 or not os.path.exists(report_path):
        raise BenchError("pass %d worker exited with %d" % (k, code))
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["setup_s"] = report["ready"] - spawned
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    report["scaled"] = scaled_times(report)
    report["dir"] = pass_dir
    return report


def scaled_times(report) -> dict:
    """Set-up and job-list wall time at the reference speed.  Set-up is
    scaled by the calibration time taken right after it, each job by the
    mean of the calibration times just before and just after it."""
    cal = report["cal_s"]
    wall = sum(rec["wall_s"] * 2 * CAL_REF_S / (cal[i] + cal[i + 1])
               for i, rec in enumerate(report["jobs"]))
    return {"setup_s": report["setup_s"] * CAL_REF_S / cal[0],
            "wall_s": wall}


def replay(root, run_dir, pass_dir, manifest, limit) -> list[str]:
    out = os.path.join(run_dir, "replay")
    report_path = os.path.join(run_dir, "replay.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
            "--pass-dir", pass_dir, "--report", report_path,
            "--replay", manifest, "--replay-out", out]
    code, _usage = spawn_wait(argv, limit)
    if code != 0:
        return ["replay exited with %d" % code]
    with open(report_path, encoding="utf-8") as fh:
        outdir = os.path.join(pass_dir, json.load(fh)["outdir"])
    original = os.path.join(os.path.dirname(manifest), "results.json")
    if _digest(os.path.join(outdir, "results.json")) != _digest(original):
        return ["replayed results.json differs from the original"]
    return []


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _outdir(report, rec) -> str:
    return os.path.join(report["dir"], rec["outdir"])


def check_pass(report, plan, checker, first_digests):
    """Per job: problems found.  The first pass is checked in full; later
    passes of the same plan must reproduce its results.json bytes."""
    problems = {}
    by_id = {j["id"]: j for j in plan["jobs"]}
    for rec in report["jobs"]:
        job = by_id[rec["id"]]
        if rec["status"] != "ok":
            problems[rec["id"]] = ["%s: %s" % (rec["status"], rec["error"])]
            continue
        digest = _digest(os.path.join(_outdir(report, rec), "results.json"))
        if rec["id"] in first_digests:
            if digest != first_digests[rec["id"]]:
                problems[rec["id"]] = ["results.json differs from pass 1"]
            continue
        first_digests[rec["id"]] = digest
        found = checker.check(job, _outdir(report, rec))
        if found:
            problems[rec["id"]] = found
    return problems


def work_done(workload, plan, report) -> float:
    """Exact-law symbols, MC attempts or codec symbols of one pass."""
    by_id = {j["id"]: j for j in plan["jobs"]}
    total = 0.0
    for rec in report["jobs"]:
        if rec["status"] != "ok":
            continue
        job = by_id[rec["id"]]
        if workload == "exact_law":
            total += job["exact_n"]
        elif workload == "codec_large":
            total += job["codec_n"]
        elif job.get("mc"):
            with open(os.path.join(_outdir(report, rec), "results.json")) as fh:
                row = json.load(fh)["rows"][0]
            total += round(row["mc_mean"] * row["rounds"])
    return total


def attempts_per_job(plan, report):
    """Expected (from exact q) against actual attempts, per MC job."""
    by_id = {j["id"]: j for j in plan["jobs"]}
    out = {}
    for rec in report["jobs"]:
        mc = by_id[rec["id"]].get("mc")
        if not mc:
            continue
        actual = None
        if rec["status"] == "ok":
            with open(os.path.join(_outdir(report, rec), "results.json")) as fh:
                rows = json.load(fh)["rows"]
            # every zeta pass replays the same substreams, so the same G's
            actual = len(rows) * round(rows[0]["mc_mean"] * rows[0]["rounds"])
        out[rec["id"]] = {"expected": mc["expected_attempts"],
                          "budget": mc["budget"], "actual": actual,
                          "wall_s": rec["wall_s"]}
    return out


# ---------------------------------------------------------------------------
# statistics and provenance
# ---------------------------------------------------------------------------

def describe(values):
    vals = sorted(values)
    q1, _q2, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                   else vals * 3)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "min": vals[0], "max": vals[-1], "count": len(vals)}


def _git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root, workload, seed, trace):
    files = []
    for dirpath, _dirs, names in os.walk(os.path.join(root, "src")):
        files += [os.path.join(dirpath, f) for f in names if f.endswith(".py")]
    h = hashlib.sha256()
    lines = 0
    for path in sorted(files):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, root).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_commit": _git_commit(root), "src_sha256": h.hexdigest(),
            "src_lines": lines, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()), "workload": workload,
            "seed": seed, "trace": trace, "trace_overhead_share": None}


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def make_plan(workload, seed, size):
    return jobs_mod.plan(workload, seed, size,
                         exact_q_log2=exact_q_log2_fn()
                         if workload == "mc_game" else None)


def run_workload(root, workload, seed, seconds, trace, size="full",
                 reference=None, keep=False, min_passes=MIN_PASSES):
    t_start = time.monotonic()
    run_dir = os.path.join(root, OUT_DIR, "%s-s%d-t%d-%s-%d" % (
        workload, seed, trace, size, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    prov = provenance(root, workload, seed, trace)
    plan = make_plan(workload, seed, size)
    with open(os.path.join(run_dir, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1)

    passes, problems, digests = [], {}, {}
    attempted = failed = 0
    checker = None

    def budget_left():
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    def one_pass(traced):
        nonlocal attempted, failed, checker
        k = len(passes) + 1
        rep = run_pass(root, run_dir, k, traced, budget_left() - 10)
        if checker is None:
            checker = Checker(plan, rep["dir"], corpus_fn(), reference)
        found = check_pass(rep, plan, checker, digests)
        attempted += len(rep["jobs"])
        failed += len(found)
        for jid, msgs in found.items():
            problems.setdefault("pass-%d %s" % (k, jid), msgs)
        passes.append(rep)
        if k > 1 and not keep:
            shutil.rmtree(rep["dir"], ignore_errors=True)
        return rep

    if trace:
        untraced = one_pass(False)
        traced = one_pass(True)
    else:
        while True:
            rep = one_pass(False)
            elapsed = time.monotonic() - t_start
            last = rep["setup_s"] + rep["wall_s"]
            if len(passes) >= min_passes and elapsed + last > seconds:
                break
            if elapsed + 2 * last + 15 > RUN_LIMIT_S:
                break

    first = passes[0]
    rec = next(r for r in first["jobs"] if r["id"] == plan["replay"])
    attempted += 1
    replay_problems = (["replay job did not run"] if rec["status"] != "ok"
                       else replay(root, run_dir, first["dir"],
                                   os.path.join(_outdir(first, rec),
                                                "manifest.json"),
                                   budget_left() - 2))
    if replay_problems:
        failed += 1
        problems["replay " + plan["replay"]] = replay_problems

    if trace and checker.reference is not None:
        attempted += 1
        want = checker.reference.get("forward", {})
        got = traced["trace"]["forward_digests"]
        bad = [j["id"] for j in plan["jobs"]
               if want.get(j["id"]) != got.get(j["id"])]
        if bad:
            failed += 1
            problems["forward-pass digests"] = bad

    untimed = [p for p in passes if "trace" not in p]
    # later passes reproduce pass 1's results, so they did the same work
    work = work_done(workload, plan, first)
    stats = {
        "setup_s": describe([p["scaled"]["setup_s"] for p in untimed]),
        "wall_s": describe([p["scaled"]["wall_s"] for p in untimed]),
        "peak_rss_mb": describe([p["peak_rss_mb"] for p in untimed]),
        "throughput": describe([work / p["scaled"]["wall_s"]
                                for p in untimed]),
    }
    measured = {
        "setup_s": describe([p["setup_s"] for p in untimed]),
        "wall_s": describe([p["wall_s"] for p in untimed]),
        "calibration_s": describe([c for p in untimed for c in p["cal_s"]]),
    }
    report = {
        "provenance": prov, "plan_size": size, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "problems": problems,
        "end_to_end": stats, WORK[workload]: stats["throughput"],
        "measured": measured, "cal_ref_s": CAL_REF_S,
        "work": work,
        "job_wall_s": {r["id"]: describe([
            next(j for j in p["jobs"] if j["id"] == r["id"])["wall_s"]
            for p in untimed]) for r in first["jobs"]},
        "mc_attempts": attempts_per_job(plan, first),
    }
    if trace:
        layer = dict(traced["trace"]["metrics"])
        layer["trace.overhead_share"] = (
            traced["scaled"]["wall_s"] - untraced["scaled"]["wall_s"]
        ) / untraced["scaled"]["wall_s"]
        report["per_layer"] = layer
        report["scaling_points"] = traced["trace"]["scaling_points"]
        prov["trace_overhead_share"] = layer["trace.overhead_share"]
        report["forward_digests"] = traced["trace"]["forward_digests"]
    prov["loadavg_end"] = list(os.getloadavg())
    if not keep:
        shutil.rmtree(first["dir"], ignore_errors=True)
        shutil.rmtree(os.path.join(run_dir, "replay"), ignore_errors=True)
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    report["run_dir"] = run_dir
    report["plan"] = plan
    return report


def result_line(report, trace) -> dict:
    if trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["median"],
                          "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def smoke(root) -> int:
    """Every workload once at tiny sizes, untraced and traced, checked."""
    ok = True
    for workload in jobs_mod.WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            rep = run_workload(root, workload, DEFAULT_SEED, 0, trace,
                               size="smoke", min_passes=1)
            line = result_line(rep, trace)
            missing = [m for m, v in line["metrics"].items()
                       if not isinstance(v["value"], (int, float))]
            good = line["correct"] and not missing
            ok = ok and good
            print("%-12s trace=%d %s  %d jobs, %.1f s%s" % (
                workload, trace, "ok" if good else "FAILED",
                line["attempted"], time.monotonic() - t0,
                "" if good else "  %r" % (rep["problems"] or missing)))
    return 0 if ok else 1


def record_reference(root, seed) -> int:
    """Rewrite reference.json from one traced pass of every workload."""
    ref = {"seed": seed, "float_rel_tol": FLOAT_REL_TOL, "jobs": {},
           "forward": {}}
    for workload in jobs_mod.WORKLOADS:
        rep = run_workload(root, workload, seed, 0, 1, keep=True)
        if rep["failed"]:
            print("not recording: %s failed %r" % (workload, rep["problems"]),
                  file=sys.stderr)
            return 1
        traced = os.path.join(rep["run_dir"], "pass-2.json")
        with open(traced) as fh:
            records = json.load(fh)["jobs"]
        by_id = {j["id"]: j for j in rep["plan"]["jobs"]}
        for rec in records:
            job = by_id[rec["id"]]
            outdir = os.path.join(rep["run_dir"], "pass-2", rec["outdir"])
            with open(os.path.join(outdir, "results.json")) as fh:
                res = json.load(fh)
            ref["jobs"][rec["id"]] = {"argv": job["argv"],
                                      "results": condense(strip_mc(job, res))}
        ref["forward"].update(rep["forward_digests"])
        shutil.rmtree(rep["run_dir"], ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % REFERENCE)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        load_program(root)
        if args.smoke:
            return smoke(root)
        if args.record_reference:
            return record_reference(root, args.seed)
        if not args.workload:
            ap.error("--workload is required")
        reference = None
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                reference = json.load(fh)
        rep = run_workload(root, args.workload, args.seed,
                           args.seconds, args.trace, reference=reference)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    for msg in rep["problems"].items():
        print("problem: %s: %s" % msg, file=sys.stderr)
    print(json.dumps({"provenance": rep["provenance"]}, sort_keys=True))
    print(json.dumps(result_line(rep, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
