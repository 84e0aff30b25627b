"""Layer timings of the exact forward passes, the Monte Carlo engine and
the codec, for one source tree at a time.

Times the exact laws on a fixed grid, best of k calls per point, and
records each law as (exponent, sha256 of the numerator) beside the
numerator's bit width, so that two trees can be compared point by point:

- ``lz_guess_prob`` on ``periodic:ab``, ``thue_morse`` and
  ``bernoulli:0.5:1`` at n = 2048 ... 16384;
- ``cond_guess_prob`` on a Bernoulli pair (x fair, y = x with 10 % of
  its symbols flipped) at n = 4096 ... 32768, and on an independent fair
  pair (``bernoulli:0.5:1`` given ``bernoulli:0.5:2``) at n = 1024 ...
  4096, the sizes and kind of pair of the benchmark's ``cond-bounds``
  jobs;
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
  count list in place of a law, and the byte rows its game built as
  work done (``byte_rows``, left out for a tree without them);
- ``play`` on a dense 16-bit start field: state 0 reads 16 bits, a third
  of whose values lead to a one-bit state that wins on a 1, one in 4096
  win at once and the rest FAIL (``random.Random(6)`` draws the table),
  with the rounds, seed and cap of the points above;
- ``compile``: ``compile_automaton`` for the whole LZ guesser followed by
  20 rounds of seed 7 with cap 1000, timed together, against
  ``bernoulli:0.5:1`` at n = 512 ... 8192.  Such a target is far too
  unlikely to be guessed, so every round is censored and the game reads
  only short prefixes of x.  A point records the automaton rows that
  were built by the end (the rows a lazy ``dict`` store holds, or the
  plain lists among a tree's stand-ins), the byte rows of its game and
  the sha256 of the count list;
- ``codec``: ``lz78.incremental_parse`` on the fair bits x of the
  Bernoulli pair above and on ``thue_morse``, ``lz78.encode`` on x,
  ``lz78.decode`` on x and on ``thue_morse``, and
  ``sideinfo.joint_parse``, ``cond_code`` and ``cond_decode`` on the
  pair, at n = 16384 ... 262144.
  The decoders read the code of the same tree, made outside the timing.
  The grid also times sequences going in and out at the same n:
  ``seqcore.ingest`` of x's text with the alphabet ``ab`` and with the
  alphabet inferred, of random bytes over all 256 values and over the
  subset ``acgt``; ``SymbolSeq`` construction from x's indices; and
  ``SymbolSeq.render`` of x (``chars``) and of the 256-value bytes.
  A point records the sha256 of the output (the code, the decoded or
  ingested symbols, the rendered text, the parse's phrase starts and
  trie, or the joint parse's counts) in place of a law;
- ``moments``: ``cli._run_moments``, the handler of ``lzguess moments``,
  on the benchmark's seed-1 ``moments-window`` parameters (two q near
  2^-12.5, zeta 1.5 and 3; four rows of the float series).  The point
  records the sha256 of its rows.
- ``corpus``: ``seqcore.generate_corpus("bernoulli", n, p=P, seed=1)`` at
  P = 0.5 and 0.1, n = 16384 ... 1048576.  A point records the sha256 of
  the symbol indices.
- ``import``: ``import lzguess.cli`` in each of n = 20 fresh interpreters
  started with ``-I -S`` (no environment, no site imports), timed inside
  each and reported as the median.  Two cases: from source, importing a
  copy of the package's ``.py`` files in a temporary folder under ``-B``
  (the flag of ``PYTHONDONTWRITEBYTECODE=1``), so the package compiles
  every time while the standard library reads its installed cache; and
  cached, under ``-X pycache_prefix`` (the flag of
  ``PYTHONPYCACHEPREFIX``) at a temporary folder that one untimed import
  filled.  No cache is read from or written into the tree.  A point
  records the modules the import added to ``sys.modules`` as work done,
  not as output.

:func:`grid` lists the points, each building its inputs from the
``lzguess`` package it is given, so ``tools/bench_ab.py`` runs the same
points on two trees in one process.

Each call appends one round, under ``--label``, to the JSON file ``--out``
and rewrites its summary: per label the median over rounds of each
point's best time and the least-squares slope of log time (per attempt,
for ``play``) against log n, the attempts/s of each ``play`` point, the
line counts (``wc -l``) of ``lzguess/*.py`` under ``--src`` that its
rounds ran, and whether every label computed the same laws and counts.
Run it from any directory; ``--src`` names the checkout (or its ``src/``)
to import ``lzguess`` from.  Alternate the trees when comparing two, for
example::

    for i in 1 2 3; do
        python3 tools/bench_layers.py --src ../old --label parent --out B.json
        python3 tools/bench_layers.py --src . --label change --out B.json
    done

``--shrink K`` divides every n of the exact passes and of the codec, the
number of tiny passes, the ``play`` rounds, the corpus n and the
interpreters of the ``import`` point by K, for a quick check of the
script itself; the ``moments`` point keeps its parameters.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

LZ_CORPORA = ("periodic:ab", "thue_morse", "bernoulli:0.5:1")
LZ_SIZES = (2048, 4096, 8192, 16384)
PASS_SIZES = (4096, 8192, 16384, 32768)
FAIR_PAIR_SIZES = (1024, 2048, 4096)
TINY_CORPUS, TINY_N, TINY_BLOCK = "bernoulli:0.5:9", 16384, 8
PLAY_SIZES = (8, 12, 16, 24)
PLAY_ROUNDS, PLAY_SEED, PLAY_CAP = 300, 7, 1000
DENSE_BITS = 16
COMPILE_CORPUS, COMPILE_SIZES = "bernoulli:0.5:1", (512, 1024, 2048, 4096,
                                                    8192)
COMPILE_ROUNDS, COMPILE_CAP = 20, 1000
CODEC_SIZES = (16384, 32768, 65536, 131072, 262144)
CORPUS_PS, CORPUS_SIZES = (0.5, 0.1), (16384, 65536, 262144, 1048576)
# perfbench's moments-window job at seed 1
MOMENTS_PARAMS = {"q": [0.00021094531388311813, 0.00014127985039861263],
                  "zeta": [1.5, 3.0]}
IMPORT_RUNS = 20
# fields of a point that count the work a tree did, not what it computed:
# they may differ between trees that compute the same
WORK_FIELDS = ("rows_built", "byte_rows", "modules_loaded")


class ChildTimed(namedtuple("ChildTimed", "seconds out")):
    """What the call of a point timed in child processes returns: the
    time to report in place of the call's own, and its output."""

    __slots__ = ()


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
        took = time.perf_counter() - t0
        if isinstance(out, ChildTimed):
            took, out = out
        best = min(best, took)
    return best, out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def grid(shrink):
    """Every point of the grid as (layer, case, n, prepare), in the order
    of the output.  prepare(lz), given an imported ``lzguess`` package,
    builds the point's inputs from that package and returns (call,
    record): call() is the timed part, or returns a :class:`ChildTimed`,
    and record(out) the point's fields besides its time (a law, counts or
    a digest of what call returned)."""
    for spec in LZ_CORPORA:
        for n in LZ_SIZES:
            yield ("lz_guess_prob", spec, str(n // shrink),
                   _lz_pass(spec, n // shrink))
    for n in PASS_SIZES:
        yield ("cond_guess_prob", "bernoulli pair, 10% flips",
               str(n // shrink), _cond_pass(_flip_pair, n // shrink))
    for n in FAIR_PAIR_SIZES:
        yield ("cond_guess_prob", "independent fair pair, seeds 1 and 2",
               str(n // shrink), _cond_pass(_fair_pair, n // shrink))
    for n in PASS_SIZES:
        yield ("fsgm.sequence_prob", "fig1 output, BitSource(3)",
               str(n // shrink), _fsgm_pass(n // shrink))
    blocks = len(range(0, TINY_N // shrink, TINY_BLOCK))
    yield ("tiny_lz_passes", "%d-blocks of %s" % (TINY_BLOCK, TINY_CORPUS),
           str(blocks), _tiny_passes(TINY_N // shrink))
    rounds = max(1, PLAY_ROUNDS // shrink)
    for kind in PLAY_KINDS:
        for n in PLAY_SIZES:
            yield "play", kind, str(n), _play_point(kind, n, rounds)
    yield ("play", "dense start field", str(DENSE_BITS),
           _dense_play_point(rounds))
    case = "lz, %s, %d rounds, cap %d" % (COMPILE_CORPUS, COMPILE_ROUNDS,
                                          COMPILE_CAP)
    for n in COMPILE_SIZES:
        yield "compile", case, str(n // shrink), _compile_point(n // shrink)
    inputs = {}                 # the codec inputs, per package and n
    for n in CODEC_SIZES:
        for case in CODEC_CASES:
            yield ("codec", case, str(n // shrink),
                   _codec_point(case, n, shrink, inputs))
    yield ("moments", "cli._run_moments, moments-window of seed 1",
           str(len(MOMENTS_PARAMS["q"]) * len(MOMENTS_PARAMS["zeta"])),
           _moments_point)
    for p in CORPUS_PS:
        for n in CORPUS_SIZES:
            yield ("corpus", "generate_corpus bernoulli, p=%r, seed 1" % p,
                   str(n // shrink), _corpus_point(p, n // shrink))
    runs = max(1, IMPORT_RUNS // shrink)
    for case, cached in (("lzguess.cli, from source", False),
                         ("lzguess.cli, cached", True)):
        yield "import", case, str(runs), _import_point(runs, cached)


def measure(k, shrink, lz):
    """One round over the grid: {layer: {case: {n: point}}}."""
    layers = {}
    for layer, case, n, prepare in grid(shrink):
        call, record = prepare(lz)
        best, out = _best_of(k, call)
        layers.setdefault(layer, {}).setdefault(case, {})[n] = dict(
            best_s=best, **record(out))
    return layers


def _lz_pass(spec, n):
    def prepare(lz):
        x = lz.seqcore.parse_corpus_spec(spec, n)
        return (lambda: lz.guessers.lz_guess_prob(x)), _law
    return prepare


def _cond_pass(pair, n):
    def prepare(lz):
        x, y = pair(lz, n)
        return (lambda: lz.sideinfo.cond_guess_prob(x, y)), _law
    return prepare


def _fsgm_pass(n):
    def prepare(lz):
        fig1 = lz.fsgm.build_fig1_machine()
        out = lz.fsgm.run(fig1, lz.seqcore.BitSource(3), n).output
        return (lambda: lz.fsgm.sequence_prob(fig1, out)), _law
    return prepare


def _tiny_passes(n):
    def prepare(lz):
        x = lz.seqcore.parse_corpus_spec(TINY_CORPUS, n)
        blocks = [x[b:b + TINY_BLOCK] for b in range(0, len(x), TINY_BLOCK)]

        def record(laws):
            return {"sha256": _sha(repr([(p.m, p.e) for p in laws]))}
        return (lambda: [lz.guessers.lz_guess_prob(u) for u in blocks]), record
    return prepare


def _flip_pair(lz, n):
    """x fair bits and y = x with 10 % of its symbols flipped."""
    x = lz.seqcore.generate_corpus("bernoulli", n, p=0.5, seed=1)
    noise = lz.seqcore.generate_corpus("bernoulli", n, p=0.1, seed=2)
    return x, lz.seqcore.SymbolSeq(x.alphabet, bytes(
        a ^ b for a, b in zip(x.indices, noise.indices)))


def _fair_pair(lz, n):
    """x and y fair bits, drawn independently."""
    return (lz.seqcore.generate_corpus("bernoulli", n, p=0.5, seed=1),
            lz.seqcore.generate_corpus("bernoulli", n, p=0.5, seed=2))


# each play kind's guesser at n, from the package lz
PLAY_KINDS = {
    "lz": lambda lz, n: lz.guessers.Guesser(
        "lz_full", lz.seqcore.Alphabet("01"), n),
    "block:4": lambda lz, n: lz.guessers.Guesser(
        "lz_block", lz.seqcore.Alphabet("01"), n, ell=4),
    "uniform": lambda lz, n: lz.guessers.Guesser(
        "uniform", lz.seqcore.Alphabet("01"), n),
    "fsgm": lambda lz, n: _fig1_guesser(lz, n),
    "cond periodic:ab": lambda lz, n: lz.guessers.Guesser(
        "lz_full", lz.seqcore.Alphabet("ab"), n,
        side=lz.seqcore.parse_corpus_spec("periodic:ab", n)),
}


def _fig1_guesser(lz, n):
    fig1 = lz.fsgm.build_fig1_machine()
    return lz.guessers.Guesser("fsgm", fig1.alphabet, n, spec=fig1)


def _counted_play(lz):
    """A list() of ``lz.seqcore.play``, and a list that holds the byte-row
    game (``seqcore._ByteGame``) of its last call; it stays empty for a
    tree without byte rows."""
    base = getattr(lz.seqcore, "_ByteGame", None)
    games = []
    if base is None:
        return (lambda *args: list(lz.seqcore.play(*args))), games

    class Counted(base):
        __slots__ = ()

        def __init__(self, *parts):
            super().__init__(*parts)
            games[:] = [self]

    def play(*args):
        lz.seqcore._ByteGame = Counted
        try:
            return list(lz.seqcore.play(*args))
        finally:
            lz.seqcore._ByteGame = base
    return play, games


def _game_point(make, rounds):
    """seqcore.play over the automaton make(lz) returns, made outside the
    timing."""
    def prepare(lz):
        game = make(lz)
        play, games = _counted_play(lz)

        def record(counts):
            out = {"attempts": sum(min(c, PLAY_CAP) for c in counts),
                   "sha256": _sha(repr(counts))}
            if games:
                out["byte_rows"] = games[0].built
            return out
        return (lambda: play(game, rounds, PLAY_SEED, PLAY_CAP)), record
    return prepare


def _play_point(kind, n, rounds):
    """seqcore.play of one guesser kind, compiled outside the timing."""
    def make(lz):
        g = PLAY_KINDS[kind](lz, n)
        x = g.side if g.side is not None else g.sample(
            lz.seqcore.BitSource(1000 + n))
        return lz.guessers.compile_automaton(g, x)
    return _game_point(make, rounds)


def _dense_play_point(rounds):
    """seqcore.play on a dense start field of DENSE_BITS bits."""
    def make(lz):
        fail, win = lz.seqcore.FAIL, lz.seqcore.WIN
        rng = random.Random(6)
        first = [win if rng.random() < 1 / 4096 else rng.choice((1, fail,
                                                                 fail))
                 for _ in range(1 << DENSE_BITS)]
        return [DENSE_BITS, 1], [first, [fail, win]]
    return _game_point(make, rounds)


def _compile_point(n):
    """compile_automaton and a censored game, timed together."""
    def prepare(lz):
        x = lz.seqcore.parse_corpus_spec(COMPILE_CORPUS, n)
        g = lz.guessers.Guesser("lz_full", x.alphabet, len(x))
        play, games = _counted_play(lz)

        def game():
            automaton = lz.guessers.compile_automaton(g, x)
            return automaton, play(automaton, COMPILE_ROUNDS, PLAY_SEED,
                                   COMPILE_CAP)

        def record(out):
            automaton, counts = out
            tables = automaton[1]
            got = {"rows_built": len(tables) if isinstance(tables, dict)
                   else sum(type(t) is list for t in tables),
                   "sha256": _sha(repr(counts))}
            if games:
                got["byte_rows"] = games[0].built
            return got
        return game, record
    return prepare


def _codec_inputs(lz, size, shrink, memo):
    """The codec grid's inputs at n = size // shrink, built once per
    package and n into `memo`; the random bytes are seeded by size."""
    key = (lz.__name__, size)
    if key not in memo:
        x, y = _flip_pair(lz, size // shrink)
        thue = lz.seqcore.parse_corpus_spec("thue_morse", size // shrink)
        data = random.Random(size).randbytes(size // shrink)
        memo[key] = {
            "x": x, "y": y, "thue": thue, "text": x.render(), "data": data,
            "acgt": data.translate(b"acgt" * 64),
            "octets": lz.seqcore.ingest(data, mode="bytes"),
            "code": lz.lz78.encode(x), "thue_code": lz.lz78.encode(thue),
            "cond": lz.sideinfo.cond_code(x, y)}
    return memo[key]


# each codec case's timed call, from the package lz and the inputs v
CODEC_CASES = {
    "seqcore.ingest, text, alphabet ab":
        lambda lz, v: lambda: lz.seqcore.ingest(v["text"], "ab"),
    "seqcore.ingest, text, inferred alphabet":
        lambda lz, v: lambda: lz.seqcore.ingest(v["text"]),
    "seqcore.ingest, bytes, all 256 values":
        lambda lz, v: lambda: lz.seqcore.ingest(v["data"], mode="bytes"),
    "seqcore.ingest, bytes, subset acgt":
        lambda lz, v: lambda: lz.seqcore.ingest(v["acgt"], b"acgt",
                                                mode="bytes"),
    "seqcore.SymbolSeq, fair bits":
        lambda lz, v: lambda: lz.seqcore.SymbolSeq(v["x"].alphabet,
                                                   v["x"].indices),
    "seqcore.render, chars, fair bits": lambda lz, v: v["x"].render,
    "seqcore.render, bytes, all 256 values": lambda lz, v: v["octets"].render,
    "lz78.incremental_parse, fair bits":
        lambda lz, v: lambda: lz.lz78.incremental_parse(v["x"]),
    "lz78.incremental_parse, thue_morse":
        lambda lz, v: lambda: lz.lz78.incremental_parse(v["thue"]),
    "lz78.encode, fair bits": lambda lz, v: lambda: lz.lz78.encode(v["x"]),
    "lz78.decode, fair bits":
        lambda lz, v: lambda: lz.lz78.decode(v["code"], len(v["x"]),
                                             v["x"].alphabet),
    "lz78.decode, thue_morse":
        lambda lz, v: lambda: lz.lz78.decode(v["thue_code"], len(v["thue"]),
                                             v["thue"].alphabet),
    "sideinfo.joint_parse, bernoulli pair, 10% flips":
        lambda lz, v: lambda: lz.sideinfo.joint_parse(v["x"], v["y"]),
    "sideinfo.cond_code, bernoulli pair, 10% flips":
        lambda lz, v: lambda: lz.sideinfo.cond_code(v["x"], v["y"]),
    "sideinfo.cond_decode, bernoulli pair, 10% flips":
        lambda lz, v: lambda: lz.sideinfo.cond_decode(
            v["cond"], v["y"], len(v["x"]), v["x"].alphabet),
}


def _codec_digest(out):
    """sha256 of a codec output: the code, the symbols, the rendered
    text, a parse's phrase starts, tail, code length and trie, or the
    joint parse's counts."""
    if hasattr(out, "c_j"):
        out = repr((out.c_xy, out.c_j, out.u, out.last_complete,
                    out.tail_len))
    elif hasattr(out, "boundaries"):
        out = repr((out.boundaries, out.tail, out.code_length_bits,
                    out.trie.parent, out.trie.sym))
    elif not isinstance(out, str):
        out = out.indices.hex()
    return {"sha256": _sha(out)}


def _codec_point(case, size, shrink, memo):
    def prepare(lz):
        return (CODEC_CASES[case](lz, _codec_inputs(lz, size, shrink, memo)),
                _codec_digest)
    return prepare


def _moments_point(lz):
    """The moments table of the CLI, from the package's own handler."""
    cli = importlib.import_module(lz.__name__ + ".cli")

    def record(out):
        return {"sha256": _sha(repr(out[0]["rows"]))}
    return (lambda: cli._run_moments(MOMENTS_PARAMS, None)), record


def _corpus_point(p, n):
    def prepare(lz):
        def record(seq):
            return {"sha256": hashlib.sha256(seq.indices).hexdigest()}
        return (lambda: lz.seqcore.generate_corpus("bernoulli", n, p=p,
                                                   seed=1)), record
    return prepare


# one fresh interpreter's import: the seconds it took and the modules it
# added to sys.modules
_IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "before = len(sys.modules); t0 = time.perf_counter(); "
                "import lzguess.cli; "
                "print(time.perf_counter() - t0, len(sys.modules) - before)")


def _import_point(runs, cached):
    """The median time of ``import lzguess.cli`` over `runs` fresh
    interpreters, from source or from a bytecode cache in a temporary
    folder."""
    def prepare(lz):
        package = os.path.dirname(os.path.abspath(lz.__file__))
        # a bytecode cache, or a copy of the package's sources with none;
        # the folder goes when the closures that read it go
        tmp = tempfile.TemporaryDirectory(prefix="lzguess-import-")
        if not cached:
            shutil.copytree(package, os.path.join(tmp.name, "lzguess"),
                            ignore=shutil.ignore_patterns("__pycache__"))

        def once():
            flags = ["-X", "pycache_prefix=" + tmp.name] if cached else ["-B"]
            src = os.path.dirname(package) if cached else tmp.name
            argv = [sys.executable, "-I", "-S", *flags, "-c", _IMPORT_CODE, src]
            seconds, modules = subprocess.run(
                argv, check=True, capture_output=True, text=True).stdout.split()
            return float(seconds), int(modules)
        if cached:
            once()

        def call():
            times, modules = zip(*(once() for _ in range(runs)))
            return ChildTimed(statistics.median(times), max(modules))
        return call, lambda modules: {"modules_loaded": modules}
    return prepare


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
                         if key != "best_s" and key not in WORK_FIELDS}
                        for g in got)
                entry = {"median_best_s": medians}
                for work in WORK_FIELDS:
                    if work in got[0]:
                        entry[work] = {n: points[n][work] for n in points}
                if "attempts" in got[0]:
                    entry["median_attempts_per_s"] = {
                        n: round(per[n] / s) for n, s in medians.items()}
                if len(medians) > 1:
                    entry["fitted_exponent"] = round(_slope(
                        [(int(n), s / per[n]) for n, s in medians.items()]),
                        3)
                mine.setdefault(layer, {})[case] = entry
    # each later label's medians over the first label's, point by point
    # (points the first label's grid lacks get none)
    first, *others = out
    for label in others:
        for layer, cases in out[label].items():
            for case, entry in cases.items():
                base = out[first].get(layer, {}).get(case)
                if base is None:
                    continue
                entry["ratio_to_%s" % first] = {
                    n: round(s / base["median_best_s"][n], 3)
                    for n, s in entry["median_best_s"].items()
                    if n in base["median_best_s"]}
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
    import lzguess
    lines = 0
    for path in sorted(glob.glob(os.path.join(src, "lzguess", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    t0 = time.perf_counter()
    layers = measure(args.best_of, args.shrink, lzguess)
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
