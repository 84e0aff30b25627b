"""Workload definitions: seeded input files and the CLI job list of each one.

Inputs are generated here with the standard library only, from the workload
seed, so the program under test receives nothing but the generated files and
corpus specs.  A plan is plain JSON: the parent process builds it once per
run and every pass (one fresh worker process each) replays it.

Each job is one ``lzguess`` argv run in-process through ``cli_dispatch`` with
``--jobs 1``.  Besides its argv a job carries what the checks and the metrics
need: the symbols whose exact law it computes (``exact_n``), the symbols it
parses or codes (``codec_n``), its n-grid tag for scaling fits, and for Monte
Carlo jobs the expected attempts derived from the exact success probability.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("exact_law", "mc_game", "codec_large")

HERE = os.path.dirname(os.path.abspath(__file__))
# The example machine of the paper's Figure 1 (the same table as
# demos/three_word_machine.fsm), copied into every pass as an input file.
MACHINE = {"path": "inputs/fig1.fsm", "kind": "file", "source": "data/fig1.fsm"}

# Monte Carlo sizing: each guess job expects MC_ATTEMPTS attempts per zeta
# pass; a job whose expected attempts exceed MC_BUDGET is refused unrun.
MC_ATTEMPTS = {"full": 250_000, "smoke": 2_000}
COND_DRAWS = {"full": 3_000, "smoke": 200}
MC_BUDGET = {"full": 3_000_000, "smoke": 50_000}
TARGET_Q_LOG2 = (-10.0, -8.0)    # exact q window for drawn MC targets

MACHINE_WORDS = ("ab", "ab", "bac", "ca")   # input words 00, 01, 10, 11


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random("%d/%s" % (seed, stream))


def binary_text(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), "0%db" % n)


def noisy_copy(rng: random.Random, x: str, flip: float) -> str:
    return "".join(("1" if c == "0" else "0") if rng.random() < flip else c
                   for c in x)


def machine_output(rng: random.Random, n: int) -> str:
    """A length-n prefix of the example machine's output on random bits."""
    out = ["ab"]
    size = 2
    while size < n:
        word = MACHINE_WORDS[rng.getrandbits(2)]
        out.append(word)
        size += len(word)
    return "".join(out)[:n]


def word_text(rng: random.Random, nbytes: int) -> str:
    """Space-separated words from a Zipf-like 2000-word vocabulary."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = ["".join(rng.choice(letters) for _ in range(2 + rng.getrandbits(3)))
             for _ in range(2000)]
    out = []
    size = 0
    while size < nbytes:
        w = vocab[min(int(rng.paretovariate(1.1)) - 1, len(vocab) - 1)]
        out.append(w)
        size += len(w) + 1
    return " ".join(out)[:nbytes]


def render_input(spec: dict, seed: int) -> str:
    """The text of one input file from its plan entry."""
    kind = spec["kind"]
    if kind == "literal":
        return spec["text"]
    if kind == "file":
        with open(os.path.join(HERE, spec["source"]), encoding="utf-8") as fh:
            return fh.read()
    rng = _rng(seed, spec["stream"])
    if kind == "binary":
        return binary_text(rng, spec["n"])
    if kind == "noisy":
        x = binary_text(_rng(seed, spec["of"]), spec["n"])
        return noisy_copy(rng, x, spec["flip"])
    if kind == "machine":
        return machine_output(rng, spec["n"])
    if kind == "words":
        return word_text(rng, spec["n"])
    raise ValueError("unknown input kind %r" % kind)


def write_inputs(plan: dict, seed: int, root: str):
    for spec in plan["inputs"]:
        path = os.path.join(root, spec["path"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_input(spec, seed))


def _job(jid, argv, kind, exact_n=0, codec_n=0, grid=None, **extra):
    job = {"id": jid, "argv": list(argv) + ["--out-dir", "runs"],
           "kind": kind, "exact_n": exact_n, "codec_n": codec_n,
           "grid": grid}
    job.update(extra)
    return job


# ---------------------------------------------------------------------------
# exact_law: forward passes, moments, bounds; no Monte Carlo
# ---------------------------------------------------------------------------

def _exact_law(seed: int, size: str):
    small = size == "smoke"
    periodic_grid = (64, 128, 256) if small else (512, 1024, 2048)
    bern_grid = (64, 128, 256) if small else (1024, 2048, 4096)
    cond_grid = (64, 128, 256) if small else (1024, 2048, 4096)
    fsgm_grid = (256, 512, 1024) if small else (4096, 8192, 16384)
    n_thue = 256 if small else 4096
    n_block = 1024 if small else 16384
    n_window = 8 if small else 16
    dist_n = 4 if small else 8
    q_hi = 7 if small else 12
    rng = _rng(seed, "exact")
    machine = MACHINE["path"]
    inputs, jobs = [MACHINE], []
    for n in periodic_grid:
        jobs.append(_job("sandwich-periodic-%d" % n,
                         ["sandwich", "--corpus", "periodic:ab", "--n", str(n)],
                         "bounds", exact_n=n, grid=("lz.periodic", n),
                         corpus="periodic:ab", n=n, guesser="lz"))
    for n in bern_grid:
        spec = "bernoulli:0.5:%d" % rng.getrandbits(31)
        jobs.append(_job("bounds-bernoulli-%d" % n,
                         ["bounds", "--corpus", spec, "--n", str(n),
                          "--zeta", "1", "--zeta", "2"],
                         "bounds", exact_n=n, grid=("lz.bernoulli", n),
                         corpus=spec, n=n, guesser="lz"))
    jobs.append(_job("bounds-thue-%d" % n_thue,
                     ["bounds", "--corpus", "thue_morse", "--n", str(n_thue)],
                     "bounds", exact_n=n_thue, corpus="thue_morse",
                     n=n_thue, guesser="lz"))
    for n in cond_grid:
        sx, sy = rng.getrandbits(31), rng.getrandbits(31)
        jobs.append(_job("cond-bounds-%d" % n,
                         ["sideinfo", "cond-bounds",
                          "--corpus-x", "bernoulli:0.5:%d" % sx,
                          "--corpus-y", "bernoulli:0.5:%d" % sy,
                          "--n", str(n)],
                         "cond-bounds", exact_n=n, grid=("cond", n)))
    for n in fsgm_grid:
        path = "inputs/machine-%d.txt" % n
        inputs.append({"path": path, "kind": "machine", "n": n,
                       "stream": "machine-%d" % n})
        jobs.append(_job("guess-fsgm-%d" % n,
                         ["guess", "--guesser", "fsgm:" + machine,
                          "--input", path, "--alphabet", "abc", "--jobs", "1"],
                         "guess", exact_n=n, grid=("fsgm", n),
                         input=path, guesser="fsgm"))
    spec = "bernoulli:0.5:%d" % rng.getrandbits(31)
    jobs.append(_job("guess-block8-%d" % n_block,
                     ["guess", "--guesser", "block:8", "--corpus", spec,
                      "--n", str(n_block), "--jobs", "1"],
                     "guess", exact_n=n_block, corpus=spec, n=n_block,
                     guesser="block:8"))
    jobs.append(_job("fsgm-dist-%d" % dist_n,
                     ["fsgm-dist", "--machine", machine, "--n", str(dist_n)],
                     "fsgm-dist", exact_n=dist_n, n=dist_n))
    window = ["--n", str(n_window), "--zeta", "1.5", "--zeta", "3"]
    jobs.append(_job("sandwich-window-periodic",
                     ["sandwich", "--corpus", "periodic:ab"] + window,
                     "bounds", exact_n=n_window, corpus="periodic:ab",
                     n=n_window, guesser="lz"))
    jobs.append(_job("bounds-window-thue",
                     ["bounds", "--corpus", "thue_morse"] + window,
                     "bounds", exact_n=n_window, corpus="thue_morse",
                     n=n_window, guesser="lz"))
    # q1 * q2 = 2**-(2*q_hi + 1), so the series cost 1/q1 + 1/q2 barely
    # moves with the seed while both values sweep [2**-(q_hi+1), 2**-q_hi]
    u = rng.random()
    qs = [2.0 ** -(q_hi + u), 2.0 ** -(q_hi + 1 - u)]
    jobs.append(_job("moments-window",
                     ["moments", "--q", repr(qs[0]), "--q", repr(qs[1]),
                      "--zeta", "1.5", "--zeta", "3"], "moments"))
    return inputs, jobs


# ---------------------------------------------------------------------------
# mc_game: seeded guessing games sized from the exact q
# ---------------------------------------------------------------------------

GUESSERS = (("lz", 12, "01"), ("block:4", 12, "01"), ("uniform", 10, "01"),
            ("fsgm", 12, "abc"))


def _draw_target(rng, guesser, n, exact_q_log2):
    """A target inside the guesser's support whose exact q lies in the
    TARGET_Q_LOG2 window (the uniform guesser has q = 2**-n regardless)."""
    lo, hi = TARGET_Q_LOG2
    for _ in range(1000):
        text = (machine_output(rng, n) if guesser == "fsgm"
                else binary_text(rng, n))
        q_log2 = exact_q_log2(guesser, text)
        if guesser == "uniform" or lo <= q_log2 <= hi:
            return text, q_log2
    raise RuntimeError("no %s target with q in the window" % guesser)


def _mc_game(seed: int, size: str, exact_q_log2):
    small = size == "smoke"
    per_pass = MC_ATTEMPTS[size]
    budget = MC_BUDGET[size]
    rng = _rng(seed, "mc")
    machine = MACHINE["path"]
    inputs, jobs = [MACHINE], []
    for guesser, n, alphabet in GUESSERS:
        text, q_log2 = _draw_target(rng, guesser, n, exact_q_log2)
        path = "inputs/target-%s.txt" % guesser.replace(":", "")
        inputs.append({"path": path, "kind": "literal", "text": text})
        rounds = max(1, round(per_pass * 2.0 ** q_log2))
        gspec = "fsgm:" + machine if guesser == "fsgm" else guesser
        jobs.append(_job(
            "guess-mc-%s" % guesser.replace(":", ""),
            ["guess", "--guesser", gspec, "--input", path,
             "--alphabet", alphabet, "--zeta", "1", "--zeta", "2",
             "--rounds", str(rounds), "--seed", str(rng.getrandbits(31)),
             "--jobs", "1"],
            "guess", exact_n=n, input=path, guesser=guesser,
            # the two zeta passes replay the same rounds
            mc={"rounds": rounds, "q_log2": q_log2,
                "expected_attempts": 2 * rounds * 2.0 ** -q_log2}))
    n_long = 256 if small else 2048
    spec = "bernoulli:0.5:%d" % rng.getrandbits(31)
    rounds, cap = 20, 1000
    jobs.append(_job(
        "guess-censored-%d" % n_long,
        ["guess", "--guesser", "lz", "--corpus", spec, "--n", str(n_long),
         "--rounds", str(rounds), "--cap", str(cap),
         "--seed", str(rng.getrandbits(31)), "--jobs", "1"],
        "guess", exact_n=n_long, corpus=spec, n=n_long, guesser="lz",
        censored=True,
        mc={"rounds": rounds, "q_log2": None,
            "expected_attempts": float(rounds * cap)}))
    for n in ((8, 16) if small else (16, 32)):
        q_log2 = exact_q_log2("cond-periodic", "ab" * (n // 2))
        rounds = max(1, round(COND_DRAWS[size] * 2.0 ** q_log2))
        jobs.append(_job(
            "cond-guess-%d" % n,
            ["sideinfo", "cond-guess", "--corpus-x", "periodic:ab",
             "--corpus-y", "periodic:ab", "--n", str(n),
             "--rounds", str(rounds), "--seed", str(rng.getrandbits(31))],
            "cond-guess", exact_n=n,
            mc={"rounds": rounds, "q_log2": q_log2,
                "expected_attempts": rounds * 2.0 ** -q_log2}))
    for job in jobs:
        job["mc"]["budget"] = budget
        job["refused"] = job["mc"]["expected_attempts"] > budget
    return inputs, jobs


# ---------------------------------------------------------------------------
# codec_large: parse, code and decode long sequences
# ---------------------------------------------------------------------------

def _codec_large(seed: int, size: str):
    small = size == "smoke"
    n_bin = 1 << (12 if small else 18)
    n_words = 1 << (11 if small else 17)
    n_cond = 1 << (12 if small else 16)
    n_joint = 1 << (12 if small else 18)
    inputs = [
        {"path": "inputs/bits.txt", "kind": "binary", "n": n_bin,
         "stream": "bits"},
        {"path": "inputs/words.txt", "kind": "words", "n": n_words,
         "stream": "words"},
        {"path": "inputs/x.txt", "kind": "binary", "n": n_joint,
         "stream": "x"},
        {"path": "inputs/y.txt", "kind": "noisy", "n": n_joint, "of": "x",
         "flip": 0.1, "stream": "y"},
        {"path": "inputs/x-cond.txt", "kind": "binary", "n": n_cond,
         "stream": "x-cond"},
        {"path": "inputs/y-cond.txt", "kind": "noisy", "n": n_cond,
         "of": "x-cond", "flip": 0.1, "stream": "y-cond"},
    ]
    jobs = [
        _job("codelen-bits-%d" % n_bin,
             ["codelen", "--input", "inputs/bits.txt", "--alphabet", "01"],
             "codelen", codec_n=n_bin, input="inputs/bits.txt"),
        _job("codelen-thue-%d" % n_bin,
             ["codelen", "--corpus", "thue_morse", "--n", str(n_bin)],
             "codelen", codec_n=n_bin, corpus="thue_morse", n=n_bin),
        _job("parse-words-%d" % n_words,
             ["parse", "--input", "inputs/words.txt", "--mode", "bytes"],
             "parse", codec_n=n_words, input="inputs/words.txt"),
        _job("cond-complexity-%d" % n_cond,
             ["sideinfo", "cond-complexity", "--input-x", "inputs/x-cond.txt",
              "--input-y", "inputs/y-cond.txt", "--alphabet", "01"],
             "cond-complexity", codec_n=n_cond),
        _job("joint-parse-%d" % n_joint,
             ["sideinfo", "joint-parse", "--input-x", "inputs/x.txt",
              "--input-y", "inputs/y.txt", "--alphabet", "01"],
             "joint-parse", codec_n=n_joint, input="inputs/x.txt",
             input_y="inputs/y.txt"),
    ]
    return inputs, jobs


# Per workload, the job whose manifest is replayed after the timed passes.
REPLAY_JOB = {"exact_law": "fsgm-dist", "mc_game": "guess-mc-fsgm",
              "codec_large": "parse-words"}


def plan(workload: str, seed: int, size: str, exact_q_log2=None) -> dict:
    """The inputs and job list of one workload at one seed.

    `exact_q_log2(guesser, text)` gives log2 of the exact success
    probability of a Monte Carlo target (needed by mc_game only).
    """
    if workload == "exact_law":
        inputs, jobs = _exact_law(seed, size)
    elif workload == "mc_game":
        inputs, jobs = _mc_game(seed, size, exact_q_log2)
    elif workload == "codec_large":
        inputs, jobs = _codec_large(seed, size)
    else:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    replay = next(j["id"] for j in jobs
                  if j["id"].startswith(REPLAY_JOB[workload]))
    return {"workload": workload, "seed": seed, "size": size,
            "inputs": inputs, "jobs": jobs, "replay": replay}
