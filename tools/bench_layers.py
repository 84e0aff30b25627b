"""Layer timings of the exact forward passes, the Monte Carlo engine and
the codec, for one source tree at a time.

Times the exact laws on a fixed grid, best of k calls per point, and
records each law as (exponent, sha256 of the numerator) beside the
numerator's bit width, so that two trees can be compared point by point:

- ``lz_guess_prob`` on ``periodic:ab``, ``thue_morse`` and
  ``bernoulli:0.5:1`` at n = 2048 ... 16384;
- ``cond_guess_prob`` on a Bernoulli pair (x fair, y = x with 10 % of
  its symbols flipped) at n = 4096 ... 32768;
- ``fsgm.sequence_prob`` on an output of the example machine at
  n = 4096 ... 32768;
- 2048 tiny passes: ``lz_guess_prob`` on each 8-symbol block of
  ``bernoulli:0.5:9`` at n = 16384, timed together;
- ``seqcore.play`` per guesser kind (``lz``, ``block:4``, ``uniform``,
  ``fsgm`` on the example machine, and the conditional LZ guesser with
  x = y = ``periodic:ab``) at n = 8, 12, 16, 24: 300 rounds of seed 7,
  cap 1000, against a target the guesser drew itself
  (``Guesser.sample(BitSource(1000 + n))``) or x for the conditional
  kind.  The automaton is compiled outside the timed part.  A point
  records its attempts (the sum of min(G, cap)) and the sha256 of its
  count list in place of a law;
- ``compile``: ``compile_automaton`` for the whole LZ guesser followed by
  20 rounds of seed 7 with cap 1000, timed together, against
  ``bernoulli:0.5:1`` at n = 512 ... 8192.  Such a target is far too
  unlikely to be guessed, so every round is censored and the game reads
  only short prefixes of x.  A point records the automaton rows that
  were built by the end (each a plain list, where a tree that builds rows
  on first read leaves the others as stand-ins) and the sha256 of the
  count list;
- ``codec``: ``lz78.encode`` and ``lz78.decode`` on the fair bits x of
  the Bernoulli pair above, and ``sideinfo.joint_parse``, ``cond_code``
  and ``cond_decode`` on the pair, at n = 16384 ... 262144.
  The decoders read the code of the same tree, made outside the timing.
  The grid also times sequences going in and out at the same n:
  ``seqcore.ingest`` of x's text with the alphabet ``ab`` and with the
  alphabet inferred, of random bytes over all 256 values and over the
  subset ``acgt``; ``SymbolSeq`` construction from x's indices; and
  ``SymbolSeq.render`` of x (``chars``) and of the 256-value bytes.
  A point records the sha256 of the output (the code, the decoded or
  ingested symbols, the rendered text or the joint parse's counts) in
  place of a law.

Each call appends one round, under ``--label``, to the JSON file ``--out``
and rewrites its summary: per label the median over rounds of each
point's best time and the least-squares slope of log time (per attempt,
for ``play``) against log n, the attempts/s of each ``play`` point, the
line counts (``wc -l``) of ``lzguess/*.py`` under ``--src`` that its
rounds ran, and whether every label computed the same laws and counts.  Run it from any
directory; ``--src`` names the checkout (or its ``src/``) to import
``lzguess`` from.  Alternate the trees when comparing two, for example::

    for i in 1 2 3; do
        python3 tools/bench_layers.py --src ../old --label parent --out B.json
        python3 tools/bench_layers.py --src . --label change --out B.json
    done

``--shrink K`` divides every n of the exact passes and of the codec, the
number of tiny passes and the ``play`` rounds by K, for a quick check of
the script itself.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import random
import statistics
import sys
import time

LZ_CORPORA = ("periodic:ab", "thue_morse", "bernoulli:0.5:1")
LZ_SIZES = (2048, 4096, 8192, 16384)
PASS_SIZES = (4096, 8192, 16384, 32768)
TINY_CORPUS, TINY_N, TINY_BLOCK = "bernoulli:0.5:9", 16384, 8
PLAY_SIZES = (8, 12, 16, 24)
PLAY_ROUNDS, PLAY_SEED, PLAY_CAP = 300, 7, 1000
COMPILE_CORPUS, COMPILE_SIZES = "bernoulli:0.5:1", (512, 1024, 2048, 4096,
                                                    8192)
COMPILE_ROUNDS, COMPILE_CAP = 20, 1000
CODEC_SIZES = (16384, 32768, 65536, 131072, 262144)


def _import_lzguess(src):
    """Put the tree's src/ first on sys.path and import lzguess from it."""
    if os.path.isdir(os.path.join(src, "src", "lzguess")):
        src = os.path.join(src, "src")
    src = os.path.abspath(src)
    if not os.path.isfile(os.path.join(src, "lzguess", "__init__.py")):
        raise SystemExit("error: no lzguess package under %s" % src)
    sys.path.insert(0, src)
    import lzguess
    if not os.path.abspath(lzguess.__file__).startswith(src + os.sep):
        raise SystemExit("error: imported lzguess from %s, not from %s"
                         % (lzguess.__file__, src))
    return src


def _law(p):
    """A law as its exponent, numerator width and numerator digest."""
    raw = p.m.to_bytes((p.m.bit_length() + 7) // 8, "big")
    return {"e": p.e, "m_bits": p.m.bit_length(),
            "sha256": hashlib.sha256(raw).hexdigest()}


def _best_of(k, call):
    best, out = math.inf, None
    for _ in range(k):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _point(k, call):
    best, law = _best_of(k, call)
    return dict(best_s=best, **_law(law))


def measure(k, shrink):
    """One round over the grid: {layer: {case: {n: point}}}."""
    from lzguess.fsgm import build_fig1_machine, run, sequence_prob
    from lzguess.guessers import lz_guess_prob
    from lzguess.seqcore import BitSource, parse_corpus_spec
    from lzguess.sideinfo import cond_guess_prob

    layers = {"lz_guess_prob": {}, "cond_guess_prob": {},
              "fsgm.sequence_prob": {}, "tiny_lz_passes": {}}
    for spec in LZ_CORPORA:
        row = layers["lz_guess_prob"][spec] = {}
        for n in LZ_SIZES:
            x = parse_corpus_spec(spec, n // shrink)
            row[str(n // shrink)] = _point(k, lambda: lz_guess_prob(x))
    row = layers["cond_guess_prob"]["bernoulli pair, 10% flips"] = {}
    for n in PASS_SIZES:
        x, y = _flip_pair(n // shrink)
        row[str(n // shrink)] = _point(k, lambda: cond_guess_prob(x, y))
    fig1 = build_fig1_machine()
    row = layers["fsgm.sequence_prob"]["fig1 output, BitSource(3)"] = {}
    for n in PASS_SIZES:
        out = run(fig1, BitSource(3), n // shrink).output
        row[str(n // shrink)] = _point(k, lambda: sequence_prob(fig1, out))
    x = parse_corpus_spec(TINY_CORPUS, TINY_N // shrink)
    blocks = [x[b:b + TINY_BLOCK] for b in range(0, len(x), TINY_BLOCK)]
    best, laws = _best_of(k, lambda: [lz_guess_prob(u) for u in blocks])
    digest = hashlib.sha256(repr([(p.m, p.e) for p in laws]).encode())
    layers["tiny_lz_passes"]["%d-blocks of %s" % (TINY_BLOCK, TINY_CORPUS)] = {
        str(len(blocks)): {"best_s": best, "sha256": digest.hexdigest()}}
    layers["play"] = measure_play(k, shrink)
    layers["compile"] = measure_compile(k, shrink)
    layers["codec"] = measure_codec(k, shrink)
    return layers


def _flip_pair(n):
    """x fair bits and y = x with 10 % of its symbols flipped."""
    from lzguess.seqcore import SymbolSeq, generate_corpus

    x = generate_corpus("bernoulli", n, p=0.5, seed=1)
    noise = generate_corpus("bernoulli", n, p=0.1, seed=2)
    return x, SymbolSeq(x.alphabet, bytes(
        a ^ b for a, b in zip(x.indices, noise.indices)))


def measure_play(k, shrink):
    """{kind: {n: point}} for seqcore.play, compiled outside the timing."""
    from lzguess.fsgm import build_fig1_machine
    from lzguess.guessers import Guesser, compile_automaton
    from lzguess.seqcore import Alphabet, BitSource, parse_corpus_spec, play

    binary, fig1 = Alphabet("01"), build_fig1_machine()
    kinds = {
        "lz": lambda n: Guesser("lz_full", binary, n),
        "block:4": lambda n: Guesser("lz_block", binary, n, ell=4),
        "uniform": lambda n: Guesser("uniform", binary, n),
        "fsgm": lambda n: Guesser("fsgm", fig1.alphabet, n, spec=fig1),
        "cond periodic:ab": lambda n: Guesser(
            "lz_full", Alphabet("ab"), n,
            side=parse_corpus_spec("periodic:ab", n)),
    }
    rounds = max(1, PLAY_ROUNDS // shrink)
    out = {}
    for kind, make in kinds.items():
        row = out[kind] = {}
        for n in PLAY_SIZES:
            g = make(n)
            x = g.side if g.side is not None else g.sample(BitSource(1000 + n))
            game = compile_automaton(g, x)
            best, counts = _best_of(k, lambda: list(
                play(game, rounds, PLAY_SEED, PLAY_CAP)))
            row[str(n)] = {
                "best_s": best,
                "attempts": sum(min(c, PLAY_CAP) for c in counts),
                "sha256": hashlib.sha256(repr(counts).encode()).hexdigest()}
    return out


def measure_compile(k, shrink):
    """{case: {n: point}} for compile_automaton and a censored game."""
    from lzguess.guessers import Guesser, compile_automaton
    from lzguess.seqcore import parse_corpus_spec, play

    row = {}
    for n in COMPILE_SIZES:
        x = parse_corpus_spec(COMPILE_CORPUS, n // shrink)
        g = Guesser("lz_full", x.alphabet, len(x))

        def game():
            automaton = compile_automaton(g, x)
            return automaton, list(play(automaton, COMPILE_ROUNDS, PLAY_SEED,
                                        COMPILE_CAP))
        best, (automaton, counts) = _best_of(k, game)
        row[str(len(x))] = {
            "best_s": best,
            "rows_built": sum(type(t) is list for t in automaton[1]),
            "sha256": hashlib.sha256(repr(counts).encode()).hexdigest()}
    return {"lz, %s, %d rounds, cap %d" % (COMPILE_CORPUS, COMPILE_ROUNDS,
                                           COMPILE_CAP): row}


def measure_codec(k, shrink):
    """{layer and input: {n: point}} for ingest, SymbolSeq, render and
    the coders and decoders, each point with the sha256 of what it
    returned."""
    from lzguess import lz78, sideinfo
    from lzguess.seqcore import SymbolSeq, ingest

    def digest(out):
        if isinstance(out, sideinfo.JointParseResult):
            out = repr((out.c_xy, out.c_j, out.u, out.last_complete,
                        out.tail_len))
        elif not isinstance(out, str):
            out = out.indices.hex()
        return hashlib.sha256(out.encode()).hexdigest()

    rows = {}
    for n in CODEC_SIZES:
        x, y = _flip_pair(n // shrink)
        code, cond = lz78.encode(x), sideinfo.cond_code(x, y)
        text = x.render()
        data = random.Random(n).randbytes(len(x))
        acgt = data.translate(b"acgt" * 64)
        octets = ingest(data, mode="bytes")
        calls = {
            "seqcore.ingest, text, alphabet ab": lambda: ingest(text, "ab"),
            "seqcore.ingest, text, inferred alphabet": lambda: ingest(text),
            "seqcore.ingest, bytes, all 256 values":
                lambda: ingest(data, mode="bytes"),
            "seqcore.ingest, bytes, subset acgt":
                lambda: ingest(acgt, b"acgt", mode="bytes"),
            "seqcore.SymbolSeq, fair bits":
                lambda: SymbolSeq(x.alphabet, x.indices),
            "seqcore.render, chars, fair bits": x.render,
            "seqcore.render, bytes, all 256 values": octets.render,
            "lz78.encode, fair bits": lambda: lz78.encode(x),
            "lz78.decode, fair bits": lambda: lz78.decode(
                code, len(x), x.alphabet),
            "sideinfo.joint_parse, bernoulli pair, 10% flips":
                lambda: sideinfo.joint_parse(x, y),
            "sideinfo.cond_code, bernoulli pair, 10% flips":
                lambda: sideinfo.cond_code(x, y),
            "sideinfo.cond_decode, bernoulli pair, 10% flips":
                lambda: sideinfo.cond_decode(cond, y, len(x), x.alphabet),
        }
        for case, call in calls.items():
            best, out = _best_of(k, call)
            rows.setdefault(case, {})[str(len(x))] = {
                "best_s": best, "sha256": digest(out)}
    return rows


def _slope(points):
    """Least-squares slope of log time against log n."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((a - mx) ** 2 for a in xs)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sxx


def summarize(runs):
    """Per label, layer and case: each n's median best time and the fitted
    exponent (of the time per attempt where a point counts attempts, with
    the attempts/s, or with the rows built where a point counts them);
    per label, the line count of its lzguess/*.py beside them; each
    point's law or counts, and whether every round of every label
    computed that same law or those counts."""
    out, laws = {}, {}
    for label, rounds in runs.items():
        mine = out[label] = {}
        for layer, cases in rounds[0]["layers"].items():
            for case, points in cases.items():
                medians, per = {}, {}
                for n in points:
                    got = [r["layers"][layer][case][n] for r in rounds]
                    medians[n] = statistics.median(g["best_s"] for g in got)
                    per[n] = got[0].get("attempts", 1)
                    laws.setdefault((layer, case, n), []).extend(
                        {key: v for key, v in g.items()
                         if key not in ("best_s", "rows_built")}
                        for g in got)
                entry = {"median_best_s": medians}
                if "rows_built" in got[0]:
                    # the work a tree did, not what it computed
                    entry["rows_built"] = {
                        n: points[n]["rows_built"] for n in points}
                if "attempts" in got[0]:
                    entry["median_attempts_per_s"] = {
                        n: round(per[n] / s) for n, s in medians.items()}
                if len(medians) > 1:
                    entry["fitted_exponent"] = round(_slope(
                        [(int(n), s / per[n]) for n, s in medians.items()]),
                        3)
                mine.setdefault(layer, {})[case] = entry
    # each later label's medians over the first label's, point by point
    first, *others = out
    for label in others:
        for layer, cases in out[label].items():
            for case, entry in cases.items():
                base = out[first][layer][case]["median_best_s"]
                entry["ratio_to_%s" % first] = {
                    n: round(s / base[n], 3)
                    for n, s in entry["median_best_s"].items()}
    same = all(len({json.dumps(law, sort_keys=True) for law in seen}) == 1
               for seen in laws.values())
    return {"per_label": out,
            "src_lines": {label: sorted({r["src_lines"] for r in rounds})
                          for label, rounds in runs.items()},
            "laws_identical_across_labels": same,
            "laws": {"%s | %s | n=%s" % key: seen[0] if same else seen
                     for key, seen in laws.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True,
                    help="checkout (or its src/) to import lzguess from")
    ap.add_argument("--label", required=True,
                    help="name of this tree in the output, e.g. parent")
    ap.add_argument("--out", required=True, help="JSON file to update")
    ap.add_argument("--best-of", type=int, default=3, metavar="K")
    ap.add_argument("--shrink", type=int, default=1, metavar="K",
                    help="divide every exact-pass and codec n, the "
                         "tiny-pass count and the play rounds by K")
    args = ap.parse_args(argv)
    if args.best_of < 1 or args.shrink < 1:
        raise SystemExit("error: --best-of and --shrink must be >= 1")
    src = _import_lzguess(args.src)
    lines = 0
    for path in sorted(glob.glob(os.path.join(src, "lzguess", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    t0 = time.perf_counter()
    layers = measure(args.best_of, args.shrink)
    record = {"src_lines": lines, "best_of": args.best_of,
              "shrink": args.shrink, "loadavg": list(os.getloadavg()),
              "round_s": time.perf_counter() - t0, "layers": layers}
    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("what", "exact forward-pass, Monte Carlo and codec "
                            "layer timings, tools/bench_layers.py")
    data["host"] = {"python": platform.python_version(),
                    "platform": platform.platform(),
                    "nproc": os.cpu_count()}
    data.setdefault("runs", {}).setdefault(args.label, []).append(record)
    data["summary"] = summarize(data["runs"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print("%s: round %d in %.1f s, laws identical across labels: %s"
          % (args.label, len(data["runs"][args.label]), record["round_s"],
             data["summary"]["laws_identical_across_labels"]))


if __name__ == "__main__":
    main()
