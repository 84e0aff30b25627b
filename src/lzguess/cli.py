"""Command-line front end with reproducible run folders.

Every invocation writes runs/<id>/manifest.json plus results.json (and
results.csv for tabular sweeps).  The run id is a digest of the subcommand,
its resolved parameters, and the input-file digests, so identical inputs
land on identical ids; `replay --manifest <path>` re-executes a manifest and
must reproduce the result files byte for byte (Monte Carlo included, thanks
to per-round substreams).  All probabilities and moments are reported in the
base-2 log domain to survive any n.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone

from . import __version__
from .seqcore import Alphabet, BitSource, SymbolSeq, ingest, parse_corpus_spec
from . import lz78, fsgm, guessers, bounds, sideinfo

DEFAULT_CAP = 1 << 20
MAX_N = 1 << 24     # the largest --n, checked before anything is allocated


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})


def _alphabet_from(params) -> Alphabet | str | None:
    if params.get("alphabet_file"):
        with open(params["alphabet_file"], "r", encoding="utf-8") as fh:
            tokens = [ln for ln in fh.read().splitlines() if ln != ""]
        return Alphabet(tuple(tokens))
    return params.get("alphabet")


def _strip_blanks(text: str, alphabet) -> str:
    """`text` without the whitespace at its ends that is not a token:
    all of it with no declared alphabet, else only the characters that
    the alphabet does not list."""
    if alphabet is None:
        return text.strip()
    lead = text[:len(text) - len(text.lstrip())]
    trail = text[len(text.rstrip()):]
    return text.strip("".join(c for c in set(lead + trail)
                              if c not in alphabet))


def _load_sequence(params: dict, key_input="input",
                   key_corpus="corpus") -> SymbolSeq:
    """A --target, --input or --corpus sequence: text takes the tokens of
    --alphabet or --alphabet-file, bytes the byte subset of --alphabet."""
    if params.get("target") is not None:
        if not params["target"]:
            raise ValueError("--target is empty")
        return ingest(params["target"], _alphabet_from(params))
    if params.get(key_input):
        mode = params.get("mode", "text")
        if mode == "bytes":
            if params.get("alphabet_file"):
                raise ValueError("--mode bytes takes --alphabet, not "
                                 "--alphabet-file")
            alphabet = params.get("alphabet", "").encode("latin-1") or None
            with open(params[key_input], "rb") as fh:
                data = fh.read()
        else:
            with open(params[key_input], "r", encoding="utf-8") as fh:
                data = fh.read()
            alphabet = _alphabet_from(params)
            if mode == "text":
                data = _strip_blanks(data, alphabet)
        # a file with no symbols is refused by name, as an empty --target
        if not (any(data.splitlines()) if mode == "lines" else data):
            raise ValueError("--%s is empty" % key_input.replace("_", "-"))
        return ingest(data, alphabet, mode=mode)
    if params.get(key_corpus):
        n = params.get("n")
        if n is None:
            raise ValueError("--corpus needs --n")
        if n < 1:
            raise ValueError("need --n >= 1, got %d" % n)
        return parse_corpus_spec(params[key_corpus], n)
    raise ValueError("one of --%s or --%s is required"
                     % (key_input, key_corpus))


def _make_guesser(params: dict, alphabet: Alphabet, n: int) -> guessers.Guesser:
    spec_str = params.get("guesser") or "lz"
    if spec_str == "lz":
        return guessers.Guesser("lz_full", alphabet, n)
    if spec_str == "uniform":
        return guessers.Guesser("uniform", alphabet, n)
    if spec_str.startswith("block:"):
        return guessers.Guesser("lz_block", alphabet, n,
                                ell=int(spec_str.split(":")[1]))
    if spec_str.startswith("fsgm:"):
        machine = _read_machine(spec_str.split(":", 1)[1])
        return guessers.Guesser("fsgm", machine.alphabet, n, spec=machine)
    raise ValueError("unknown guesser %r (use lz, uniform, block:ELL, "
                     "fsgm:PATH)" % spec_str)


def _input_paths(params: dict) -> list[str]:
    """Every file a run reads, for the manifest's digests."""
    paths = []
    for key in ("input", "input_x", "input_y", "alphabet_file"):
        if params.get(key):
            paths.append(params[key])
    if params.get("machine") not in (None, "fig1"):
        paths.append(params["machine"])
    for key, prefix in (("corpus", "file:"), ("corpus_x", "file:"),
                        ("corpus_y", "file:"), ("guesser", "fsgm:")):
        if (params.get(key) or "").startswith(prefix):
            paths.append(params[key][len(prefix):])
    return paths


# ---------------------------------------------------------------------------
# subcommand implementations: params dict -> (results dict, extra files)
# ---------------------------------------------------------------------------

def _run_corpus(params, outdir):
    seq = _load_sequence(params)
    path = os.path.join(outdir, "sequence.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(seq.render() + "\n")
    return {"n": len(seq), "alpha": seq.alphabet.size,
            "sequence_file": "sequence.txt"}, None


def _run_parse(params, outdir):
    seq = _load_sequence(params)
    r = lz78.incremental_parse(seq)
    return {"n": len(seq), "alpha": seq.alphabet.size, "c_lz": r.c_lz,
            "last_complete": r.last_complete,
            "phrases": r.phrase_texts(),
            "code_length_bits": r.code_length_bits}, None


def _run_codelen(params, outdir):
    seq = _load_sequence(params)
    code = lz78.encode(seq)
    packed = lz78.pack_bits(code)
    with open(os.path.join(outdir, "encoded.bin"), "wb") as fh:
        fh.write(packed)
    ok = lz78.decode(code, len(seq), seq.alphabet) == seq
    return {"n": len(seq), "alpha": seq.alphabet.size,
            "code_length_bits": len(code),
            "packed_bytes": len(packed), "encoded_file": "encoded.bin",
            "roundtrip_ok": ok}, None


def _read_machine(path: str) -> fsgm.FSGMSpec:
    """The machine in a file, named by the file's basename."""
    with open(path, "r", encoding="utf-8") as fh:
        return fsgm.parse_machine(fh.read(), name=os.path.basename(path))


def _machine_from(params) -> fsgm.FSGMSpec:
    if params.get("machine") == "fig1":
        return fsgm.build_fig1_machine()
    return _read_machine(params["machine"])


def _run_fsgm_run(params, outdir):
    spec = _machine_from(params)
    bits = BitSource(params.get("seed") or 0)
    trace = fsgm.run(spec, bits, params["n"])
    return {"machine": spec.name, "states": spec.state_count,
            "n": params["n"], "seed": params.get("seed") or 0,
            "output": trace.output.render(),
            "state_path": list(trace.states),
            "bits_consumed": trace.bits_consumed}, None


def _run_fsgm_dist(params, outdir):
    spec = _machine_from(params)
    dist = fsgm.output_distribution(spec, params["n"])
    rows = sorted(({"x": s.render(), "numerator": p.m, "exp2": p.e,
                    "log2": p.log2()} for s, p in dist.items()),
                  key=lambda r: r["x"])
    return {"machine": spec.name, "n": params["n"], "distribution": rows}, None


_MOMENT_FIELDS = list(guessers.MomentEstimate._fields)


def _expected_guesses(rounds: int, q_log2: float, cap: int) -> float:
    """rounds * E[min(G, cap)] = rounds * (1 - (1 - q)**cap) / q for G
    geometric with success probability q, with (1 - q)**cap taken in the
    log domain.  When cap * q is too small to move it (q may underflow),
    the value is rounds * cap."""
    q = 2.0 ** q_log2
    log_miss = cap * math.log1p(-q) if q < 1.0 else -math.inf
    if log_miss > -2.0 ** -40:
        return float(rounds * cap)
    return rounds * -math.expm1(log_miss) / q


def _moment_rows(params, g: guessers.Guesser, x: SymbolSeq) -> list[dict]:
    """The zeta rows of `guess` and `sideinfo cond-guess`: the exact q
    once, one pass of rounds (:func:`guessers.play_counts`), and each row
    folds the same counts."""
    q = g.guess_prob(x)
    cap, rounds, jobs = (params.get("cap", DEFAULT_CAP),
                         params.get("rounds", 0), params.get("jobs", 1))
    if cap < 1:
        raise ValueError("need cap >= 1, got %r" % (cap,))
    if jobs < 1:
        raise ValueError("need jobs >= 1, got %r" % (jobs,))
    # exact fields first: a zero q fails before any round is played
    ests = [guessers.estimate_moment(q, zeta, len(x))
            for zeta in params.get("zeta") or [1.0]]
    if rounds > 0:
        # the forecast comes once every argument has passed
        print("note: about %d guesses expected"
              % round(_expected_guesses(rounds, ests[0].q_log2, cap)),
              file=sys.stderr)
    counts = guessers.play_counts(g, x, rounds, params.get("seed") or 0, cap,
                                  jobs)
    return [est.fold(counts, cap)._asdict() for est in ests]


def _run_guess(params, outdir):
    seq = _load_sequence(params)
    g = _make_guesser(params, seq.alphabet, len(seq))
    rows = [{"guesser": g.describe(), **row}
            for row in _moment_rows(params, g, seq)]
    return {"rows": rows}, ("results.csv", ["guesser"] + _MOMENT_FIELDS, rows)


def _run_moments(params, outdir):
    qs, zetas = params.get("q") or [0.5], params.get("zeta") or [1.0]
    # one moment_grid call: its rows share the series' per-chunk lists
    rows = [{"q": q, "zeta": zeta, "exact": res.value, "rel_err": res.rel_err,
             "lower_bound": guessers.moment_lower_bound(q, zeta)
             if q <= 0.5 else None}
            for (q, zeta), res in zip(itertools.product(qs, zetas),
                                      guessers.moment_grid(qs, zetas))]
    fields = ["q", "zeta", "exact", "rel_err", "lower_bound"]
    return {"rows": rows}, ("results.csv", fields, rows)


def _check_ells(ells, n: int):
    """Refuse an --ell that is not a divisor of n, the block lengths at
    which the converse is stated."""
    for ell in ells:
        if ell < 1:
            raise ValueError("need --ell >= 1, got %d" % ell)
        if n % ell:
            raise ValueError("--ell %d does not divide n=%d" % (ell, n))


def _run_bounds(params, outdir, require_ordering=False):
    seq = _load_sequence(params)
    g = _make_guesser(params, seq.alphabet, len(seq))
    ells = params.get("ell")
    _check_ells(ells or [], len(seq))
    reports = bounds.sandwich_sweep(seq, params.get("zeta") or [1.0],
                                    params["s"], g,
                                    sequence_id=params.get("corpus")
                                    or params.get("input") or "")
    rows = [{"zeta": rep.zeta, **row._asdict()} for rep in reports
            for row in rep.rows if not ells or row.ell in ells]
    summary = [{"zeta": r.zeta, "s": r.s, "q_log2": r.q_log2,
                "measured": r.measured,
                "converse_entropy": r.converse_entropy,
                "converse_clogc": r.converse_clogc, "direct": r.direct,
                "chosen_ell": r.chosen_ell, "ordering_ok": r.ordering_ok}
               for r in reports]
    fields = ["zeta", "ell", "H_ell", "converse_entropy", "converse_clogc",
              "direct", "measured"]
    if require_ordering and not all(r.ordering_ok for r in reports):
        raise ValueError("sandwich ordering violated: %r" % summary)
    return {"summary": summary}, ("results.csv", fields, rows)


def _run_sideinfo(params, outdir):
    sub = params["action"]
    x = _load_sequence(params, key_input="input_x", key_corpus="corpus_x")
    y = _load_sequence(params, key_input="input_y", key_corpus="corpus_y")
    if sub == "joint-parse":
        jp = sideinfo.joint_parse(x, y)
        return {"n": len(x), "c_xy": jp.c_xy,
                "y_phrase_count": len(jp.c_j), "c_j": jp.c_j,
                "u": jp.u, "last_complete": jp.last_complete,
                "tail_len": jp.tail_len}, None
    if sub == "cond-complexity":
        jp = sideinfo.joint_parse(x, y)
        code = sideinfo.cond_code(x, y, jp)
        ok = sideinfo.cond_decode(code, y, len(x), x.alphabet) == x
        return {"n": len(x), "u": jp.u, "L_bits": len(code),
                "u_plus_envelope": jp.u + len(x) * sideinfo.epsilon1(len(x)),
                "roundtrip_ok": ok}, None
    if sub == "cond-guess":
        g = guessers.Guesser("lz_full", x.alphabet, len(x), side=y)
        rows = _moment_rows(params, g, x)
        return {"rows": rows}, ("results.csv", _MOMENT_FIELDS, rows)
    if sub == "cond-bounds":
        ells = params.get("ell") or [1]
        _check_ells(ells, len(x))
        g = guessers.Guesser("lz_full", x.alphabet, len(x), side=y)
        reports = bounds.sandwich_sweep(x, params.get("zeta") or [1.0],
                                        params["s"], g, ells=ells)
        rows = [{"zeta": rep.zeta, "ell": row.ell, "s": rep.s,
                 "u": rep.complexity, "H_ell_cond": row.H_ell,
                 "q_log2": rep.q_log2, "measured": row.measured,
                 "converse_entropy": row.converse_entropy,
                 "converse_u": row.converse_clogc, "direct": row.direct,
                 "ordering_ok": rep.ordered(row)}
                for rep in reports for row in rep.rows]
        fields = ["zeta", "ell", "s", "u", "H_ell_cond", "q_log2",
                  "measured", "converse_entropy", "converse_u", "direct",
                  "ordering_ok"]
        return {"rows": rows}, ("results.csv", fields, rows)
    raise ValueError("unknown sideinfo action %r" % sub)


_EXECUTORS = {
    "corpus": _run_corpus,
    "parse": _run_parse,
    "codelen": _run_codelen,
    "fsgm-run": _run_fsgm_run,
    "fsgm-dist": _run_fsgm_dist,
    "guess": _run_guess,
    "moments": _run_moments,
    "bounds": _run_bounds,
    "sandwich": lambda p, o: _run_bounds(p, o, require_ordering=True),
    "sideinfo": _run_sideinfo,
}


# ---------------------------------------------------------------------------
# dispatch, manifests, replay
# ---------------------------------------------------------------------------

def _out_root(params) -> str:
    return (params.get("out_dir") or os.environ.get("LZGUESS_OUT_DIR")
            or "runs")


def run_id_for(subcommand: str, params: dict, digests: dict) -> str:
    blob = json.dumps([subcommand, params, digests], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _execute(subcommand: str, params: dict, out_root: str,
             run_dir: str | None = None) -> dict:
    if subcommand not in _EXECUTORS:
        raise ValueError("unknown subcommand %r" % subcommand)
    if params.get("n", 0) > MAX_N:
        raise ValueError("need --n <= %d, got %d" % (MAX_N, params["n"]))
    digests = {p: _sha256(p) for p in _input_paths(params)}
    run_id = run_id_for(subcommand, params, digests)
    outdir = run_dir or os.path.join(out_root, run_id)
    # the topmost folder this call creates, removed again if the run fails
    created, parent = None, os.path.abspath(outdir)
    while not os.path.isdir(parent):
        created, parent = parent, os.path.dirname(parent)
    os.makedirs(outdir, exist_ok=True)
    try:
        results, table = _EXECUTORS[subcommand](params, outdir)
    except BaseException:
        if created:
            import shutil       # only a failed run needs it
            shutil.rmtree(created, ignore_errors=True)
        raise
    results_path = os.path.join(outdir, "results.json")
    with open(results_path, "wb") as fh:
        fh.write(_json_bytes(results))
    artifacts = {"results.json": results_path}
    if table is not None:
        name, fields, rows = table
        csv_path = os.path.join(outdir, name)
        _write_csv(csv_path, fields, rows)
        artifacts[name] = csv_path
    manifest = {
        "run_id": run_id,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "params": params,
        "master_seed": params.get("seed") or 0,
        "input_digests": digests,
        "artifact_version": __version__,
    }
    with open(os.path.join(outdir, "manifest.json"), "wb") as fh:
        fh.write(_json_bytes(manifest))
    return {"run_id": run_id, "outdir": outdir, "artifacts": artifacts,
            "results": results}


def replay(manifest_path: str, out_dir: str | None = None) -> dict:
    """Re-run a recorded invocation; inputs are digest-checked first."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict) and all(
            isinstance(manifest.get(key), kind) for key, kind in (
                ("run_id", str), ("subcommand", str), ("params", dict),
                ("input_digests", dict)))):
        raise ValueError("not a run manifest: %s" % manifest_path)
    for path, digest in manifest["input_digests"].items():
        if not os.path.exists(path):
            raise ValueError("replay input missing: %s" % path)
        if _sha256(path) != digest:
            raise ValueError("replay digest mismatch for %s" % path)
    params = manifest["params"]
    out_root = out_dir or os.path.join(os.path.dirname(manifest_path) or ".",
                                       "replay")
    return _execute(manifest["subcommand"], params, out_root,
                    run_dir=os.path.join(out_root, manifest["run_id"]))


def _add_common(p: argparse.ArgumentParser, which=("seq",)):
    if "seq" in which:
        p.add_argument("--input", help="sequence file")
        p.add_argument("--corpus", help="periodic:PAT | bernoulli:P:SEED | "
                                        "thue_morse | file:PATH")
        p.add_argument("--alphabet", help="inline alphabet, e.g. ab")
        p.add_argument("--alphabet-file", dest="alphabet_file",
                       help="file with one token per line")
        p.add_argument("--mode", choices=("text", "lines", "bytes"),
                       default="text", help="input interpretation")
        p.add_argument("--n", type=int, help="corpus length")
    p.add_argument("--out-dir", dest="out_dir",
                   help="run folder root (default $LZGUESS_OUT_DIR or ./runs)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lzguess",
        description="guessing individual sequences with finite-state "
                    "machines and LZ78 samplers")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("corpus", help="materialize a corpus sequence")
    _add_common(p)

    p = sub.add_parser("parse", help="incremental parse report")
    _add_common(p)

    p = sub.add_parser("codelen", help="exact code length and packed bits")
    _add_common(p)

    p = sub.add_parser("fsgm-run", help="drive a machine on seeded bits")
    p.add_argument("--machine", required=True,
                   help="machine table file, or 'fig1'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, which=())

    p = sub.add_parser("fsgm-dist", help="exact output law of a machine")
    p.add_argument("--machine", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, which=())

    p = sub.add_parser("guess", help="guessing game moments for one target")
    p.add_argument("--target", help="literal target over --alphabet")
    p.add_argument("--guesser", default="lz",
                   help="lz | uniform | block:ELL | fsgm:PATH")
    p.add_argument("--zeta", type=float, action="append")
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("moments", help="geometric moment table")
    p.add_argument("--q", type=float, action="append", required=True)
    p.add_argument("--zeta", type=float, action="append")
    _add_common(p, which=())

    for name in ("bounds", "sandwich"):
        p = sub.add_parser(name, help="converse/direct bound report"
                           + (" with ordering check" if name == "sandwich"
                              else ""))
        p.add_argument("--zeta", type=float, action="append")
        p.add_argument("--s", type=int, default=2)
        p.add_argument("--ell", type=int, action="append")
        p.add_argument("--guesser", default="lz")
        _add_common(p)

    p = sub.add_parser("sideinfo", help="conditional (side information) tools")
    p.add_argument("action", choices=("joint-parse", "cond-complexity",
                                      "cond-guess", "cond-bounds"))
    p.add_argument("--input-x", dest="input_x")
    p.add_argument("--input-y", dest="input_y")
    p.add_argument("--corpus-x", dest="corpus_x")
    p.add_argument("--corpus-y", dest="corpus_y")
    p.add_argument("--n", type=int)
    p.add_argument("--alphabet")
    p.add_argument("--zeta", type=float, action="append")
    p.add_argument("--ell", type=int, action="append")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, which=())

    p = sub.add_parser("replay", help="re-run a manifest byte-identically")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` parser, built on the first dispatch and
    reused by later ones in the process: ``parse_args`` fills a fresh
    namespace each call and leaves the parser as it was."""
    return build_parser()


def cli_dispatch(argv) -> dict:
    """Parse argv, execute, and return the run record (paths + results)."""
    ns = _parser().parse_args(argv)
    params = {k: v for k, v in vars(ns).items()
              if k not in ("subcommand",) and v is not None}
    subcommand = ns.subcommand
    if subcommand == "replay":
        return replay(ns.manifest, ns.out_dir)
    out_root = _out_root(params)
    params.pop("out_dir", None)
    return _execute(subcommand, params, out_root)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # one "warning: ..." line per library warning, without its source
        warnings.showwarning = lambda message, *_: print(
            "warning: %s" % message, file=sys.stderr)
        try:
            record = cli_dispatch(sys.argv[1:] if argv is None else argv)
        except (ValueError, OSError, MemoryError) as exc:
            msg = "out of memory" if isinstance(exc, MemoryError) else exc
            print("error: %s" % msg, file=sys.stderr)
            return 1
    print(json.dumps({"run_id": record["run_id"], "outdir": record["outdir"]},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
