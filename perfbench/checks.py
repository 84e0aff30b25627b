"""Output checks for one job's run folder.

Two kinds of check:

* invariants that hold on every seed, recomputed here where possible with an
  independent standard-library LZ78 parse (code lengths, phrase counts,
  round trips, q >= 2**-code_length, sandwich ordering, Monte Carlo means
  within 5 standard errors of the exact moment, all-censored rounds);
* for the reference seed, equality with ``reference.json``, recorded from
  the seed commit: integers, strings and booleans exactly, floats to
  FLOAT_REL_TOL.  Monte Carlo values are not pinned.

Every check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

FLOAT_REL_TOL = 1e-9
MC_FIELDS = ("mc_mean", "mc_ci", "censored")
SLACK = 1e-9


def lz78_parse(symbols, alpha: int):
    """(phrase count, complete phrases, code length in bits) of the
    incremental parse, with the package's code layout: complete phrase j
    costs ceil(log2 j) + ceil(log2 alpha) bits, an incomplete tail
    ceil(log2 t) bits for t dictionary nodes."""
    a_bits = max(1, (alpha - 1).bit_length())
    children = [{}]
    node = 0
    phrases = 0
    bits = 0
    for s in symbols:
        if node == 0:
            phrases += 1
        nxt = children[node].get(s)
        if nxt is None:
            bits += (len(children) - 1).bit_length() + a_bits
            children[node][s] = len(children)
            children.append({})
            node = 0
        else:
            node = nxt
    complete = len(children) - 1
    if node != 0:
        bits += (len(children) - 1).bit_length()
    return phrases, complete, bits


def thue_morse(n: int) -> list[int]:
    return [bin(k).count("1") & 1 for k in range(n)]


def _read(outdir: str, name: str = "results.json"):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks one workload's jobs; `sequence(job)` gives the target symbols
    of corpus-spec jobs (the checker needs the program's corpus generator
    for those, and nothing else from the program)."""

    def __init__(self, plan: dict, pass_dir: str, sequence, reference=None):
        self.pass_dir = pass_dir
        self.sequence = sequence
        self.reference = reference if (
            reference and reference.get("seed") == plan["seed"]
            and plan["size"] == "full") else None

    def _input(self, path: str) -> str:
        with open(os.path.join(self.pass_dir, path), encoding="utf-8") as fh:
            return fh.read()

    def target(self, job):
        """(symbol indices, alphabet size) of the job's target."""
        if job.get("input"):
            text = self._input(job["input"])
            if job["kind"] == "parse":
                return list(text.encode()), 256
            text = text.strip()
            tokens = "abc" if job.get("guesser") == "fsgm" else "01"
            return [tokens.index(c) for c in text], len(tokens)
        if job["corpus"] == "thue_morse":
            return thue_morse(job["n"]), 2
        return self.sequence(job["corpus"], job["n"]), 2

    def check(self, job, outdir) -> list[str]:
        try:
            res = _read(outdir)
            problems = getattr(self, "_check_" + job["kind"].replace("-", "_"))(
                job, res, outdir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return ["unreadable or malformed output: %s: %s"
                    % (type(exc).__name__, exc)]
        if self.reference is not None:
            problems += self.compare_reference(job, res)
        return problems

    # -- invariants -------------------------------------------------------

    def _lz_floor(self, job) -> float:
        """-log2 of the smallest q the guesser may assign: the LZ code
        length of the target (per block for block guessers)."""
        seq, alpha = self.target(job)
        g = job.get("guesser", "lz")
        if g == "lz":
            return lz78_parse(seq, alpha)[2]
        ell = 1 if g == "uniform" else int(g.split(":")[1])
        return sum(lz78_parse(seq[b:b + ell], alpha)[2]
                   for b in range(0, len(seq), ell))

    def _check_bounds(self, job, res, outdir):
        problems = []
        floor = self._lz_floor(job)
        for row in res["summary"]:
            if row["q_log2"] < -floor - SLACK:
                problems.append("q = 2^%r below 2^-code_length = 2^-%d"
                                % (row["q_log2"], floor))
            if job["argv"][0] == "sandwich" and row["ordering_ok"] is not True:
                problems.append("sandwich ordering violated at zeta=%r"
                                % row["zeta"])
        return problems

    def _check_cond_bounds(self, job, res, outdir):
        return ["conditional ordering violated at zeta=%r" % r["zeta"]
                for r in res["rows"] if r["ordering_ok"] is not True]

    def _check_guess(self, job, res, outdir):
        problems = []
        rows = res["rows"]
        if job.get("guesser") != "fsgm":
            floor = self._lz_floor(job)
            if rows[0]["q_log2"] < -floor - SLACK:
                problems.append("q below 2^-code_length")
        mc = job.get("mc")
        if not mc:
            return problems
        for row in rows:
            if row["rounds"] != mc["rounds"]:
                problems.append("rounds %r != %r" % (row["rounds"],
                                                     mc["rounds"]))
            if job.get("censored"):
                if row["censored"] != row["rounds"]:
                    problems.append("censored %r of %r rounds"
                                    % (row["censored"], row["rounds"]))
                continue
            problems += _mc_within(row)
        return problems

    def _check_cond_guess(self, job, res, outdir):
        problems = []
        for row in res["rows"]:
            if row["rounds"] != job["mc"]["rounds"]:
                problems.append("rounds mismatch")
            problems += _mc_within(row)
        return problems

    def _check_fsgm_dist(self, job, res, outdir):
        rows = res["distribution"]
        total = sum(Fraction(r["numerator"], 1 << r["exp2"]) for r in rows)
        problems = [] if total == 1 else ["law sums to %s, not 1" % total]
        if any(len(r["x"]) != job["n"] for r in rows):
            problems.append("outputs of the wrong length")
        return problems

    def _check_moments(self, job, res, outdir):
        problems = []
        for row in res["rows"]:
            if not row["rel_err"] <= 1e-12:
                problems.append("rel_err %r above 1e-12" % row["rel_err"])
            if not row["exact"] >= row["lower_bound"]:
                problems.append("moment below its lower bound")
        return problems

    def _check_codelen(self, job, res, outdir):
        seq, alpha = self.target(job)
        _phrases, _complete, bits = lz78_parse(seq, alpha)
        problems = []
        if res["roundtrip_ok"] is not True:
            problems.append("round trip failed")
        if res["n"] != len(seq) or res["code_length_bits"] != bits:
            problems.append("code length %r != reference %d"
                            % (res["code_length_bits"], bits))
        packed = os.path.getsize(os.path.join(outdir, res["encoded_file"]))
        if res["packed_bytes"] != 8 + -(-bits // 8) or packed != res["packed_bytes"]:
            problems.append("packed size %r / file %d for %d bits"
                            % (res["packed_bytes"], packed, bits))
        return problems

    def _check_parse(self, job, res, outdir):
        seq, alpha = self.target(job)
        phrases, _complete, bits = lz78_parse(seq, alpha)
        problems = []
        if res["c_lz"] != phrases or res["code_length_bits"] != bits:
            problems.append("c_lz/code length %r/%r != reference %d/%d"
                            % (res["c_lz"], res["code_length_bits"],
                               phrases, bits))
        if len(res["phrases"]) != phrases:
            problems.append("phrase list length")
        return problems

    def _check_cond_complexity(self, job, res, outdir):
        problems = [] if res["roundtrip_ok"] is True else ["round trip failed"]
        if res["L_bits"] < 1 or res["n"] != job["codec_n"]:
            problems.append("implausible code length")
        return problems

    def _check_joint_parse(self, job, res, outdir):
        x = self._input(job["input"]).strip()
        y = self._input(job["input_y"]).strip()
        pairs = [2 * int(a) + int(b) for a, b in zip(x, y)]
        _phrases, complete, _bits = lz78_parse(pairs, 4)
        problems = []
        if res["c_xy"] != complete or sum(res["c_j"]) != complete:
            problems.append("c_xy %r != reference %d" % (res["c_xy"], complete))
        u = math.fsum(c * math.log2(c) for c in res["c_j"] if c > 1)
        if not math.isclose(u, res["u"], rel_tol=FLOAT_REL_TOL):
            problems.append("u inconsistent with c_j")
        return problems

    # -- reference --------------------------------------------------------

    def compare_reference(self, job, res) -> list[str]:
        ref = self.reference["jobs"].get(job["id"])
        if ref is None:
            return ["job missing from reference.json"]
        if ref["argv"] != job["argv"]:
            return ["argv differs from reference.json (stale reference)"]
        diffs = list(_diff(condense(strip_mc(job, res)), ref["results"], "$"))
        return ["reference mismatch at %s" % d for d in diffs[:5]]


def _mc_within(row) -> list[str]:
    """|MC mean - exact moment| <= 5 standard errors (mc_ci is 3 SE)."""
    exact = 2.0 ** row["exact_moment_log2"]
    se = row["mc_ci"] / 3.0
    if abs(row["mc_mean"] - exact) <= 5.0 * se + SLACK * exact:
        return []
    return ["MC mean %r vs exact %r beyond 5 SE (%r) at zeta=%r"
            % (row["mc_mean"], exact, se, row["zeta"])]


def strip_mc(job, res):
    """Results without the Monte Carlo values, which are not pinned."""
    if not job.get("mc"):
        return res
    return {**res, "rows": [{k: v for k, v in row.items()
                             if k not in MC_FIELDS} for row in res["rows"]]}


def _has_float(obj) -> bool:
    if isinstance(obj, float):
        return True
    if isinstance(obj, dict):
        obj = obj.values()
    return isinstance(obj, (list, type({}.values()))) and any(
        _has_float(v) for v in obj)


def condense(obj):
    """Long float-free lists become a digest so the reference stays small."""
    if isinstance(obj, dict):
        return {k: condense(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if len(obj) > 64 and not _has_float(obj):
            blob = json.dumps(obj, sort_keys=True).encode()
            return {"sha256": hashlib.sha256(blob).hexdigest(),
                    "len": len(obj)}
        return [condense(v) for v in obj]
    return obj


def _diff(got, want, path):
    if isinstance(want, float) or isinstance(got, float):
        if not (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and math.isclose(got, want, rel_tol=FLOAT_REL_TOL,
                                 abs_tol=1e-300)):
            yield "%s: %r != %r" % (path, got, want)
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            yield "%s: keys %s != %s" % (path, sorted(got), sorted(want))
            return
        for k in want:
            yield from _diff(got[k], want[k], "%s.%s" % (path, k))
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield "%s: length %d != %d" % (path, len(got), len(want))
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _diff(g, w, "%s[%d]" % (path, i))
    elif got != want or type(got) is not type(want):
        yield "%s: %r != %r" % (path, got, want)
