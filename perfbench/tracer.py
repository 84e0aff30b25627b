"""Spans and counters around the public functions of each lzguess module.

The tracer measures the package from outside.  It wraps each function listed
in LAYERS and rebinds the name in every ``lzguess`` module namespace that
holds it, so both module-attribute calls and ``from .x import f`` bindings go
through the wrapper.  ``BitSource.next_bits`` and ``DyadicProb.__init__`` are
patched on their classes to count only (bits and calls; constructions, which
include every add/mul result), and the attempt callable returned by
``make_runner`` is wrapped to count attempts; none of those three is timed
per call.

A span records (name, job, parent span, start, end).  Spans stay in memory
and are written out at the end; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time

# (module, function, layer name)
LAYERS = (
    ("lzguess.cli", "cli_dispatch", "cli"),
    ("lzguess.seqcore", "ingest", "seqcore.ingest"),
    ("lzguess.seqcore", "parse_corpus_spec", "seqcore.parse_corpus_spec"),
    ("lzguess.lz78", "incremental_parse", "lz78.incremental_parse"),
    ("lzguess.lz78", "encode", "lz78.encode"),
    ("lzguess.lz78", "decode", "lz78.decode"),
    ("lzguess.lz78", "pack_bits", "lz78.pack"),
    ("lzguess.lz78", "unpack_bits", "lz78.pack"),
    ("lzguess.fsgm", "sequence_prob", "fsgm.sequence_prob"),
    ("lzguess.fsgm", "output_distribution", "fsgm.output_distribution"),
    ("lzguess.guessers", "lz_guess_prob", "guessers.lz_guess_prob"),
    ("lzguess.guessers", "block_guess_prob", "guessers.block_guess_prob"),
    ("lzguess.guessers", "moment_exact", "guessers.moment_exact"),
    ("lzguess.guessers", "make_runner", "guessers.make_runner"),
    ("lzguess.guessers", "run_game", "guessers.run_game"),
    ("lzguess.bounds", "sandwich", "bounds.sandwich"),
    ("lzguess.bounds", "block_entropy", "bounds.block_entropy"),
    ("lzguess.sideinfo", "cond_guess_prob", "sideinfo.cond_guess_prob"),
    ("lzguess.sideinfo", "cond_sample", "sideinfo.cond_sample"),
    ("lzguess.sideinfo", "joint_parse", "sideinfo.joint_parse"),
    ("lzguess.sideinfo", "cond_code", "sideinfo.cond_code"),
    ("lzguess.sideinfo", "cond_decode", "sideinfo.cond_decode"),
)

# Exact forward passes: the outermost call of one of these is one pass.
FORWARD = {"guessers.lz_guess_prob", "guessers.block_guess_prob",
           "fsgm.sequence_prob", "sideinfo.cond_guess_prob"}

SHARES = {
    "trace.share.exact": FORWARD | {"fsgm.output_distribution",
                                    "guessers.moment_exact"},
    "trace.share.mc": {"guessers.run_game", "guessers.make_runner",
                       "sideinfo.cond_sample"},
    "trace.share.codec": {"cli", "seqcore.ingest", "seqcore.parse_corpus_spec",
                          "lz78.incremental_parse", "lz78.encode",
                          "lz78.decode", "lz78.pack", "sideinfo.joint_parse",
                          "sideinfo.cond_code", "sideinfo.cond_decode"},
}

# Scaling fits: metric name -> (grid tag in the plan, layer whose self time
# per forward pass is fitted against n).
SCALING = {
    "guessers.lz_guess_prob.scaling_exp.periodic":
        ("lz.periodic", "guessers.lz_guess_prob"),
    "guessers.lz_guess_prob.scaling_exp.bernoulli":
        ("lz.bernoulli", "guessers.lz_guess_prob"),
    "sideinfo.cond_guess_prob.scaling_exp": ("cond", "sideinfo.cond_guess_prob"),
    "fsgm.sequence_prob.scaling_exp": ("fsgm", "fsgm.sequence_prob"),
}

# Every per-layer metric: name -> unit.  Timed layers report self time.
PER_LAYER = {
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "seqcore.ingest.self_s": "s",
    "seqcore.ingest.symbols": "count",
    "seqcore.parse_corpus_spec.self_s": "s",
    "seqcore.BitSource.bits": "count",
    "seqcore.BitSource.calls": "count",
    "seqcore.DyadicProb.ops": "count",
    "seqcore.DyadicProb.max_bits": "bits",
    "lz78.incremental_parse.self_s": "s",
    "lz78.incremental_parse.calls": "count",
    "lz78.encode.self_s": "s",
    "lz78.decode.self_s": "s",
    "lz78.pack.self_s": "s",
    "fsgm.sequence_prob.self_s": "s",
    "fsgm.sequence_prob.symbols": "count",
    "fsgm.sequence_prob.scaling_exp": "slope",
    "fsgm.output_distribution.self_s": "s",
    "guessers.lz_guess_prob.self_s": "s",
    "guessers.lz_guess_prob.calls": "count",
    "guessers.lz_guess_prob.symbols": "count",
    "guessers.lz_guess_prob.scaling_exp.periodic": "slope",
    "guessers.lz_guess_prob.scaling_exp.bernoulli": "slope",
    "guessers.block_guess_prob.self_s": "s",
    "guessers.guess_prob.repeat_share": "ratio",
    "guessers.moment_exact.self_s": "s",
    "guessers.moment_exact.calls": "count",
    "guessers.make_runner.self_s": "s",
    "guessers.run_game.self_s": "s",
    "guessers.attempts": "count",
    "guessers.bits_per_attempt": "bits/attempt",
    "guessers.mc_passes_per_job": "count",
    "guessers.censored_share": "ratio",
    "bounds.sandwich.self_s": "s",
    "bounds.block_entropy.self_s": "s",
    "bounds.block_entropy.calls": "count",
    "sideinfo.cond_guess_prob.self_s": "s",
    "sideinfo.cond_guess_prob.symbols": "count",
    "sideinfo.cond_guess_prob.scaling_exp": "slope",
    "sideinfo.cond_sample.self_s": "s",
    "sideinfo.cond_sample.calls": "count",
    "sideinfo.cond_sample.useful_symbol_share": "ratio",
    "sideinfo.joint_parse.self_s": "s",
    "sideinfo.cond_code.self_s": "s",
    "sideinfo.cond_decode.self_s": "s",
    "trace.share.exact": "ratio",
    "trace.share.mc": "ratio",
    "trace.share.codec": "ratio",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}

# Counters whose better direction is up; everything else is better lower.
HIGHER_IS_BETTER = {"sideinfo.cond_sample.useful_symbol_share"}


def fit_slope(points) -> float:
    """Least-squares slope of log(t) against log(n); 0.0 below two points."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _forward_key(name, args):
    if name == "guessers.lz_guess_prob":
        return name, args[0].alphabet.size, args[0].indices
    if name == "guessers.block_guess_prob":
        return name, args[1], args[0].indices
    if name == "fsgm.sequence_prob":
        return name, id(args[0]), args[1].indices
    return name, args[0].indices, args[1].indices


def _forward_n(name, args):
    return len(args[1] if name == "fsgm.sequence_prob" else args[0])


class Tracer:
    """Install with :meth:`install`, mark jobs with :meth:`begin_job`,
    restore with :meth:`uninstall`, then read :meth:`summary`."""

    def __init__(self, plan: dict):
        self.grid = {j["id"]: j["grid"] for j in plan["jobs"] if j["grid"]}
        self.spans: list[list] = []       # [name, job, parent, t0, t1]
        self.stack: list[int] = []
        self.jobs: list[str] = []
        self.bits = [0, 0]                # BitSource bits, calls
        self.dyadic = [0]                 # DyadicProb constructions
        self.attempts = [0]
        self.symbols = {}                 # layer -> symbols seen
        self.max_bits = 0
        self.forward_depth = 0
        self.forward_passes = 0
        self.forward_repeats = 0
        self.forward_seen: set = set()
        self.forward_passes_by_job: dict = {}   # job -> [[layer, n, e, sha]]
        self.mc_bits = 0
        self.mc_runs = {}                 # job -> MC passes
        self.mc_rounds = 0
        self.mc_censored = 0
        self.cond_target = b""
        self.cond_useful = 0
        self.cond_total = 0
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def _rebind(self, orig, new):
        for mname, mod in list(sys.modules.items()):
            if mname != "lzguess" and not mname.startswith("lzguess."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, orig))

    def install(self):
        for mname, fname, layer in LAYERS:
            orig = getattr(sys.modules[mname], fname)
            self._rebind(orig, self._wrap(layer, orig))
        seqcore = sys.modules["lzguess.seqcore"]
        bits, dyadic = self.bits, self.dyadic
        next_bits = seqcore.BitSource.next_bits
        dyadic_init = seqcore.DyadicProb.__init__

        def counted_next_bits(src, k):
            bits[0] += k
            bits[1] += 1
            return next_bits(src, k)

        def counted_init(obj, m, e):
            dyadic[0] += 1
            dyadic_init(obj, m, e)

        for cls, attr, new in ((seqcore.BitSource, "next_bits",
                                counted_next_bits),
                               (seqcore.DyadicProb, "__init__", counted_init)):
            self._restore.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, new)

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def begin_job(self, job_id: str):
        self.jobs.append(job_id)
        self.forward_seen = set()
        self.forward_passes_by_job[job_id] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self.stack
        before = getattr(self, "_before_" + layer.split(".")[-1], None)
        after = getattr(self, "_after_" + layer.split(".")[-1], None)
        forward = layer in FORWARD
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [layer, len(self.jobs) - 1, stack[-1] if stack else -1,
                    0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            outermost = forward and self.forward_depth == 0
            if forward:
                self.forward_depth += 1
            state = before(args, kwargs) if before else None
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if forward:
                    self.forward_depth -= 1
            if forward:
                self._forward_done(layer, args, result, outermost)
            if after:
                result = after(args, kwargs, result, state)
            return result

        return wrapper

    def _forward_done(self, layer, args, q, outermost):
        n = _forward_n(layer, args)
        self.symbols[layer] = self.symbols.get(layer, 0) + n
        if not outermost:
            return
        self.max_bits = max(self.max_bits, q.m.bit_length())
        self.forward_passes += 1
        key = _forward_key(layer, args)
        if key in self.forward_seen:
            self.forward_repeats += 1
        self.forward_seen.add(key)
        raw = q.m.to_bytes((q.m.bit_length() + 7) // 8, "big")
        sha = hashlib.sha256(raw).hexdigest()[:16]
        self.forward_passes_by_job[self.jobs[-1]].append([layer, n, q.e, sha])

    def _after_ingest(self, args, kwargs, seq, state):
        self.symbols["seqcore.ingest"] = (
            self.symbols.get("seqcore.ingest", 0) + len(seq))
        return seq

    def _after_cond_guess_prob(self, args, kwargs, q, state):
        self.cond_target = args[0].indices
        return q

    def _after_cond_sample(self, args, kwargs, seq, state):
        out, target = seq.indices, self.cond_target
        n = len(out)
        i = 0
        while i < n and i < len(target) and out[i] == target[i]:
            i += 1
        self.cond_useful += min(i + 1, n)
        self.cond_total += n
        return seq

    def _after_make_runner(self, args, kwargs, attempt, state):
        counter = self.attempts

        def counted(bits):
            counter[0] += 1
            return attempt(bits)

        return counted

    def _before_run_game(self, args, kwargs):
        return self.bits[0]

    def _after_run_game(self, args, kwargs, est, state):
        self.mc_bits += self.bits[0] - state
        if est.rounds:
            job = self.jobs[-1]
            self.mc_runs[job] = self.mc_runs.get(job, 0) + 1
            self.mc_rounds += est.rounds
            self.mc_censored += est.censored
        return est

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per span, its duration minus its direct children's."""
        selfs = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                selfs[s[2]] -= s[4] - s[3]
        return selfs

    def summary(self, wall: float, bytes_written: int) -> dict:
        """Every per-layer metric except trace.overhead_share, which needs the
        untraced wall time, plus the forward-pass digests per job."""
        selfs = self.self_times()
        self_s: dict = {}
        calls: dict = {}
        per_job: dict = {}
        top = 0.0
        for s, st in zip(self.spans, selfs):
            self_s[s[0]] = self_s.get(s[0], 0.0) + st
            calls[s[0]] = calls.get(s[0], 0) + 1
            key = (s[0], s[1])
            per_job[key] = per_job.get(key, 0.0) + st
            if s[2] < 0:
                top += s[4] - s[3]
        m = {name: 0.0 for name in PER_LAYER}
        for name in PER_LAYER:
            if name.endswith(".self_s"):
                m[name] = self_s.get(name[:-len(".self_s")], 0.0)
            elif name.endswith(".calls") and name.count(".") == 2:
                m[name] = calls.get(name[:-len(".calls")], 0)
        m["cli.bytes_written"] = bytes_written
        m["seqcore.ingest.symbols"] = self.symbols.get("seqcore.ingest", 0)
        m["seqcore.BitSource.bits"], m["seqcore.BitSource.calls"] = self.bits
        m["seqcore.DyadicProb.ops"] = self.dyadic[0]
        m["seqcore.DyadicProb.max_bits"] = self.max_bits
        for layer in ("fsgm.sequence_prob", "guessers.lz_guess_prob",
                      "sideinfo.cond_guess_prob"):
            m[layer + ".symbols"] = self.symbols.get(layer, 0)
        m["guessers.guess_prob.repeat_share"] = (
            self.forward_repeats / self.forward_passes
            if self.forward_passes else 0.0)
        m["guessers.attempts"] = self.attempts[0]
        m["guessers.bits_per_attempt"] = (
            self.mc_bits / self.attempts[0] if self.attempts[0] else 0.0)
        m["guessers.mc_passes_per_job"] = (
            sum(self.mc_runs.values()) / len(self.mc_runs)
            if self.mc_runs else 0.0)
        m["guessers.censored_share"] = (
            self.mc_censored / self.mc_rounds if self.mc_rounds else 0.0)
        m["sideinfo.cond_sample.useful_symbol_share"] = (
            self.cond_useful / self.cond_total if self.cond_total else 0.0)
        for name, layers in SHARES.items():
            m[name] = sum(self_s.get(layer, 0.0) for layer in layers) / wall
        m["trace.unattributed_share"] = max(wall - top, 0.0) / wall
        grids = {}
        for metric, (tag, layer) in SCALING.items():
            points = []
            for job_idx, job in enumerate(self.jobs):
                grid = self.grid.get(job)
                passes = sum(1 for d in self.forward_passes_by_job[job]
                             if d[0] == layer) or 1
                if grid and grid[0] == tag:
                    points.append((grid[1],
                                   per_job.get((layer, job_idx), 0.0) / passes))
            m[metric] = fit_slope(points)
            grids[metric] = [[n, t] for n, t in points]
        return {"metrics": m, "scaling_points": grids,
                "forward_digests": self.forward_digests()}

    def forward_digests(self) -> dict:
        """Per job, the distinct [n, e, sha] results of its forward passes,
        sorted.  Which layer computed a result and how often it was
        recomputed are left out: a correct program may share one kernel
        between guessers or drop a repeated pass."""
        return {job: sorted({tuple(d[1:]) for d in passes})
                for job, passes in self.forward_passes_by_job.items()}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": self.jobs,
                       "fields": ["name", "job", "parent", "start", "end"],
                       "spans": self.spans}, fh)


def dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total
