import argparse
import concurrent.futures
import contextlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import (HealthCheck, event, example, given, settings,
                        strategies as st)

from lzguess import cli, guessers, seqcore, sideinfo
from lzguess.cli import build_parser, cli_dispatch, main, replay
from lzguess.fsgm import build_fig1_machine, format_machine, parse_machine
from conftest import readme_commands

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dispatch(tmp_path, *argv):
    return cli_dispatch(list(argv) + ["--out-dir", str(tmp_path)])


def read_json(record, name="results.json"):
    with open(record["artifacts"][name]) as fh:
        return json.load(fh)


def read_bytes(record, name):
    with open(record["artifacts"][name], "rb") as fh:
        return fh.read()


def test_parse_subcommand_example_string(tmp_path):
    src = tmp_path / "example15.txt"
    src.write_text("abbabaabbaaabaa\n")
    rec = dispatch(tmp_path, "parse", "--input", str(src), "--alphabet", "ab")
    res = read_json(rec)
    assert res["c_lz"] == 8
    assert res["phrases"] == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
    assert res["code_length_bits"] == 24
    assert os.path.exists(os.path.join(rec["outdir"], "manifest.json"))


def test_input_text_keeps_whitespace_tokens_of_the_declared_alphabet(tmp_path):
    # whitespace at the ends is stripped only where the alphabet does not
    # list it; with an inferred alphabet all of it is
    src = tmp_path / "sp.txt"
    src.write_text(" ab ba \n")
    res = read_json(dispatch(tmp_path, "parse", "--input", str(src),
                             "--alphabet", "ab "))
    assert res["n"] == 7
    assert res["phrases"] == [" ", "a", "b", " b", "a "]
    res = read_json(dispatch(tmp_path, "parse", "--input", str(src)))
    assert res["n"] == 5 and res["phrases"] == ["a", "b", " ", "ba"]
    src.write_text("abba\n")
    for argv in (["--alphabet", "ab"], ["--alphabet", "ab "], []):
        res = read_json(dispatch(tmp_path, "parse", "--input", str(src),
                                 *argv))
        assert res["n"] == 4 and res["phrases"] == ["a", "b", "ba"]
    # a newline token keeps the trailing newlines
    src.write_text("ab\n\n")
    res = read_json(dispatch(tmp_path, "parse", "--input", str(src),
                             "--alphabet", "ab\n"))
    assert res["n"] == 4 and res["phrases"] == ["a", "b", "\n", "\n"]


def test_corpus_and_codelen(tmp_path):
    rec = dispatch(tmp_path, "corpus", "--corpus", "thue_morse", "--n", "8")
    with open(os.path.join(rec["outdir"], "sequence.txt")) as fh:
        assert fh.read().strip() == "abbabaab"
    rec2 = dispatch(tmp_path, "codelen", "--corpus", "periodic:ab", "--n", "16")
    res = read_json(rec2)
    assert res["roundtrip_ok"] is True
    assert os.path.exists(os.path.join(rec2["outdir"], "encoded.bin"))


def test_fsgm_subcommands(tmp_path):
    machine = tmp_path / "fig1.fsm"
    machine.write_text(format_machine(build_fig1_machine()))
    rec = dispatch(tmp_path, "fsgm-run", "--machine", str(machine),
                   "--n", "6", "--seed", "5")
    res = read_json(rec)
    assert len(res["output"]) == 6
    assert res["output"].startswith("ab")
    rec2 = dispatch(tmp_path, "fsgm-dist", "--machine", str(machine),
                    "--n", "3")
    dist = read_json(rec2)["distribution"]
    total = sum(r["numerator"] / 2 ** r["exp2"] for r in dist)
    assert total == pytest.approx(1.0)


def test_guess_subcommand_schema(tmp_path):
    rec = dispatch(tmp_path, "guess", "--target", "00", "--alphabet", "01",
                   "--guesser", "lz", "--zeta", "1", "--zeta", "2",
                   "--rounds", "2000", "--seed", "7")
    rows = read_json(rec)["rows"]
    assert len(rows) == 2
    assert rows[0]["q_log2"] == pytest.approx(-1.415, abs=1e-3)
    assert {"q_log2", "zeta", "exact_moment_log2", "exponent", "mc_mean",
            "mc_ci", "censored"} <= set(rows[0])
    assert os.path.exists(rec["artifacts"]["results.csv"])


def test_moment_columns_keep_their_order(tmp_path):
    # the CSV columns are the fields of MomentEstimate in their order (the
    # bound columns are pinned in test_bounds_and_sandwich), and each row
    # dict lists its keys in that order
    moment = ["n", "zeta", "q_log2", "exact_moment_log2", "exponent",
              "mc_mean", "mc_ci", "censored", "rounds"]
    assert cli._MOMENT_FIELDS == moment
    rec = dispatch(tmp_path, "guess", "--target", "0110", "--alphabet", "01",
                   "--zeta", "1", "--zeta", "2", "--rounds", "20")
    header, *body = read_bytes(rec, "results.csv").decode().splitlines()
    assert header == ",".join(["guesser"] + moment) and len(body) == 2
    row = read_json(rec)["rows"][0]
    assert set(row) == {"guesser", *moment} and row["rounds"] == 20
    x = seqcore.ingest("0110", "01")
    rows = cli._moment_rows({"zeta": [1.0], "rounds": 3},
                            guessers.Guesser("lz_full", x.alphabet, 4), x)
    assert [list(r) for r in rows] == [moment]
    rec = dispatch(tmp_path, "sideinfo", "cond-guess", "--corpus-x",
                   "periodic:ab", "--corpus-y", "periodic:ab", "--n", "8")
    header = read_bytes(rec, "results.csv").decode().splitlines()[0]
    assert header == ",".join(moment)


def test_moments_subcommand(tmp_path):
    rec = dispatch(tmp_path, "moments", "--q", "0.5", "--q", "0.25",
                   "--zeta", "1", "--zeta", "2")
    rows = read_json(rec)["rows"]
    by = {(r["q"], r["zeta"]): r for r in rows}
    assert by[(0.5, 1.0)]["exact"] == 2.0
    assert by[(0.5, 2.0)]["exact"] == 6.0
    assert by[(0.25, 2.0)]["exact"] == 28.0
    assert all(r["lower_bound"] <= r["exact"] for r in rows)


def test_bounds_and_sandwich(tmp_path):
    rec = dispatch(tmp_path, "sandwich", "--corpus", "periodic:ab",
                   "--n", "1024", "--zeta", "1", "--s", "4")
    summary = read_json(rec)["summary"]
    assert summary[0]["ordering_ok"] is True
    csv_text = read_bytes(rec, "results.csv").decode()
    header = csv_text.splitlines()[0]
    assert header == "zeta,ell,H_ell,converse_entropy,converse_clogc," \
                     "direct,measured"


def test_sandwich_scopes_direct_bound_to_the_lz_sampler(tmp_path):
    # the direct value bounds the full LZ sampler only, so other guessers
    # are not held to it
    for guesser in ("uniform", "block:8"):
        assert main(["sandwich", "--corpus", "periodic:ab", "--n", "4096",
                     "--guesser", guesser, "--out-dir", str(tmp_path)]) == 0
    rec = dispatch(tmp_path, "sandwich", "--corpus", "periodic:ab", "--n",
                   "4096", "--guesser", "uniform")
    summary = read_json(rec)["summary"][0]
    assert summary["measured"] > summary["direct"]
    assert summary["ordering_ok"] is True


def test_moments_overflow_exits_cleanly(tmp_path, capsys):
    assert main(["moments", "--q", "0.5", "--zeta", "2000",
                 "--out-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_moments_rows_equal_per_pair_calls(tmp_path):
    # one grid call for the table; each row as moment_exact gives it alone
    rec = dispatch(tmp_path, "moments", "--q", "0.01", "--q", "0.3",
                   "--q", "0.01", "--zeta", "1.5", "--zeta", "2",
                   "--zeta", "3")
    rows = read_json(rec)["rows"]
    assert [(r["q"], r["zeta"]) for r in rows] == [
        (q, zeta) for q in (0.01, 0.3, 0.01) for zeta in (1.5, 2.0, 3.0)]
    for r in rows:
        assert (r["exact"], r["rel_err"]) == tuple(
            guessers.moment_exact(r["q"], r["zeta"]))


def test_moments_grid_error_is_the_first_failing_row(tmp_path, capsys):
    # q-major: the overflow of (0.5, 1000) comes before q = 0 diverges;
    # one error line and no run folder
    out = tmp_path / "out"
    assert main(["moments", "--q", "0.5", "--q", "0", "--zeta", "1000",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: E[G^1000.0] at q = 0.5 overflows a double"]
    assert not out.exists()


@pytest.mark.parametrize("q, zeta", [
    # q * q underflows to 0 or to a subnormal whose inverse is inf, 1 / q
    # is inf, and moment_log2's value passes 2**1024
    ("1e-200", "2"), ("1e-160", "2"), ("5e-324", "1"), ("5e-324", "2"),
    ("1e-300", "1.5")])
def test_moments_overflow_at_tiny_q_is_one_error_line(tmp_path, capsys, q,
                                                      zeta):
    out = tmp_path / "out"
    assert main(["moments", "--q", q, "--zeta", zeta,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: E[G^%r] at q = %r overflows a double"
        % (float(zeta), float(q))]
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    [], ["--alphabet", "ab"], ["--corpus", "periodic:ab", "--n", "4"],
    ["--input", "ab.txt"]], ids=["alone", "alphabet", "corpus", "input"])
def test_empty_target_is_one_error_line(tmp_path, capsys, extra):
    # an empty --target is a target, not a missing one: it once read as
    # no target, so a --corpus beside it was guessed in its place
    (tmp_path / "ab.txt").write_text("abba")
    extra = [str(tmp_path / a) if a == "ab.txt" else a for a in extra]
    out = tmp_path / "out"
    assert main(["guess", "--target", ""] + extra
                + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --target is empty"]
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["guess", "--input", "E", "--alphabet", "01"], "--input"),
    (["bounds", "--input", "E", "--alphabet", "01"], "--input"),
    (["codelen", "--input", "E"], "--input"),
    (["codelen", "--input", "B"], "--input"),
    (["codelen", "--input", "E", "--mode", "bytes"], "--input"),
    (["codelen", "--input", "N", "--mode", "lines"], "--input"),
    (["sideinfo", "cond-complexity", "--input-x", "E", "--input-y", "E",
      "--alphabet", "01"], "--input-x"),
    (["sideinfo", "cond-complexity", "--corpus-x", "periodic:01", "--n", "4",
      "--input-y", "E", "--alphabet", "01"], "--input-y"),
], ids=["guess", "bounds", "codelen", "codelen-blank", "codelen-bytes",
        "codelen-blank-lines", "cond-complexity-x", "cond-complexity-y"])
def test_empty_input_file_is_one_error_line(tmp_path, capsys, argv, flag):
    # a file with no symbols once failed later, on a block length
    # ("need ell >= 1") or a parse size ("need n >= 4")
    (tmp_path / "E").write_text("")
    (tmp_path / "B").write_text(" \n\t\n")     # blanks, no --alphabet
    (tmp_path / "N").write_text("\n\n\n")      # no nonempty line
    argv = [str(tmp_path / a) if a in ("E", "B", "N") else a for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: %s is empty" % flag]
    assert not out.exists()


def test_moments_lower_bound_where_q_to_the_minus_zeta_overflows(tmp_path):
    # E[G^zeta] fits a double, and so does the bound, though q**-zeta
    # alone does not
    rec = dispatch(tmp_path, "moments", "--q", "5e-324", "--zeta", "0.95345")
    row, = read_json(rec)["rows"]
    assert row["exact"] < math.inf
    assert row["lower_bound"] == 2.0 ** guessers.moment_lower_bound_log2(
        math.log2(5e-324), 0.95345)
    assert row["lower_bound"] <= row["exact"]


def test_moments_at_q_where_one_minus_q_rounds_to_one(tmp_path):
    # 1 - 1e-17 == 1.0, so the series' tail bound never stops it; a child
    # process with a timeout turns a hang into a failure
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "lzguess.cli", "moments", "--q", "1e-17",
         "--zeta", "1.5", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    outdir = json.loads(done.stdout)["outdir"]
    with open(os.path.join(outdir, "results.json")) as fh:
        row = json.load(fh)["rows"][0]
    assert row["rel_err"] == 1e-12
    assert row["exact"] == pytest.approx(
        math.gamma(2.5) * 1e-17 ** -1.5, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["guess", "--target", "00", "--alphabet", "01", "--rounds", "-3"],
    ["guess", "--target", "00", "--alphabet", "01", "--jobs", "-2"],
    ["guess", "--target", "00", "--alphabet", "01", "--rounds", "5",
     "--jobs", "0"],
    ["sideinfo", "cond-guess", "--corpus-x", "periodic:ab", "--corpus-y",
     "periodic:ab", "--n", "4", "--rounds", "-1"],
], ids=["guess-rounds", "guess-jobs", "guess-jobs-zero", "cond-guess-rounds"])
def test_bad_rounds_or_jobs_exit_cleanly(argv, tmp_path, capsys):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need ")
    assert "Traceback" not in err


@pytest.mark.parametrize("rounds", ["0", "3"])
@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["guess", "--target", "0110", "--alphabet", "01"],
    ["sideinfo", "cond-guess", "--corpus-x", "periodic:ab", "--corpus-y",
     "periodic:ab", "--n", "4"],
], ids=["guess", "cond-guess"])
def test_cap_below_one_is_an_error(argv, cap, rounds, tmp_path, capsys):
    # checked before any round is played, so --rounds 0 does not hide it
    argv = argv + ["--cap", cap, "--rounds", rounds, "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need cap >= 1")


@pytest.mark.parametrize("argv", [
    ["guess", "--target", "0110", "--alphabet", "01"],
    ["sideinfo", "cond-guess", "--corpus-x", "periodic:ab", "--corpus-y",
     "periodic:ab", "--n", "4"],
], ids=["guess", "cond-guess"])
def test_failed_run_leaves_no_run_folder(argv, tmp_path):
    root = tmp_path / "D"
    assert main(argv + ["--cap", "0", "--out-dir", str(root)]) == 1
    assert not root.exists()
    # an out-dir that was there before stays, empty
    root.mkdir()
    assert main(argv + ["--cap", "0", "--out-dir", str(root)]) == 1
    assert list(root.iterdir()) == []
    assert main(argv + ["--out-dir", str(root)]) == 0
    assert len(list(root.iterdir())) == 1


@pytest.mark.parametrize("flag", [["--s", "0"], ["--s", "-1"],
                                  ["--ell", "0"], ["--ell", "-2"]],
                         ids=["s0", "s-1", "ell0", "ell-2"])
@pytest.mark.parametrize("argv", [
    ["bounds", "--corpus", "periodic:ab", "--n", "8"],
    ["sandwich", "--corpus", "periodic:ab", "--n", "8"],
    ["sideinfo", "cond-bounds", "--corpus-x", "periodic:ab", "--corpus-y",
     "periodic:ab", "--n", "8"],
], ids=["bounds", "sandwich", "cond-bounds"])
def test_bad_s_or_ell_is_an_error(argv, flag, tmp_path, capsys):
    root = tmp_path / "D"
    assert main(argv + flag + ["--out-dir", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need ")
    assert "Traceback" not in err
    assert not root.exists()


@pytest.mark.parametrize("n,message", [(["--n", "0"], "need --n >= 1, got 0"),
                                       ([], "--corpus needs --n")])
def test_corpus_length_errors(n, message, tmp_path, capsys):
    root = tmp_path / "D"
    assert main(["bounds", "--corpus", "periodic:ab"] + n
                + ["--out-dir", str(root)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not root.exists()


def test_library_warning_is_one_line_on_stderr(tmp_path, capsys):
    # eps_n >= 1 at n = 8: the run still succeeds, and the warning reads as
    # one "warning: ..." line, without the source file or its code line
    assert main(["bounds", "--corpus", "periodic:ab", "--n", "8",
                 "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == (
        "warning: eps_n >= 1 at n=8; clamped (bounds are vacuous here)\n")


def test_fsgm_dist_negative_length_is_an_error(tmp_path, capsys):
    # at n = -1 the law was once empty, summing to 0, and the run exited 0
    root = tmp_path / "D"
    assert main(["fsgm-dist", "--machine", "fig1", "--n", "-1",
                 "--out-dir", str(root)]) == 1
    assert capsys.readouterr().err == "error: need n >= 0, got -1\n"
    assert not root.exists()
    rec = dispatch(tmp_path, "fsgm-dist", "--machine", "fig1", "--n", "0")
    assert read_json(rec)["distribution"] == [
        {"x": "", "numerator": 1, "exp2": 0, "log2": 0.0}]


@pytest.mark.parametrize("target,alphabet", [("ba", "ba"), ("ca", "cab")])
def test_machine_guesser_compares_targets_by_token(target, alphabet,
                                                   tmp_path, capsys):
    # the example machine's output always opens with "ab"; read by index
    # over these alphabets, either target once passed for "ab" (q = 1)
    machine = os.path.join(ROOT, "demos", "three_word_machine.fsm")
    assert main(["guess", "--guesser", "fsgm:" + machine, "--target", target,
                 "--alphabet", alphabet, "--rounds", "5",
                 "--out-dir", str(tmp_path / "D")]) == 1
    assert capsys.readouterr().err == "error: zero-probability target\n"
    assert not (tmp_path / "D").exists()
    # over the inferred alphabet "ab" the indices agree with the machine's
    rows = read_json(dispatch(tmp_path, "guess", "--guesser",
                              "fsgm:" + machine, "--target", "ababab"))["rows"]
    spec = build_fig1_machine()
    assert rows[0]["q_log2"] == guessers.Guesser(
        "fsgm", spec.alphabet, 6, spec=spec).guess_prob(
            seqcore.SymbolSeq.from_text("ababab", spec.alphabet)).log2()


def test_moments_at_small_q_does_not_sum_the_series(tmp_path):
    # the series needs about zeta/q terms: 1e12 here; a child process with
    # a timeout turns a hang into a failure
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "lzguess.cli", "moments", "--q", "1e-12",
         "--zeta", "1.5", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    outdir = json.loads(done.stdout)["outdir"]
    with open(os.path.join(outdir, "results.json")) as fh:
        row = json.load(fh)["rows"][0]
    assert row["rel_err"] == 1e-12
    assert row["exact"] == pytest.approx(
        2.0 ** guessers.moment_log2(math.log2(1e-12), 1.5), rel=1e-15)
    assert row["exact"] == pytest.approx(math.gamma(2.5) * 1e-12 ** -1.5,
                                         rel=1e-9)


def _count_mc_passes(monkeypatch):
    """Count automaton builds and play loops in this process, and pool maps
    (a worker's own calls happen in its own process)."""
    calls = {"compile_automaton": 0, "play": 0, "pool_map": 0}
    compile_automaton, play = guessers.compile_automaton, seqcore.play

    def counted_compile_automaton(*args, **kwargs):
        calls["compile_automaton"] += 1
        return compile_automaton(*args, **kwargs)

    def counted_play(*args, **kwargs):
        calls["play"] += 1
        return play(*args, **kwargs)

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            calls["pool_map"] += 1
            return super().map(*args, **kwargs)

    monkeypatch.setattr(guessers, "compile_automaton",
                        counted_compile_automaton)
    monkeypatch.setattr(guessers, "play", counted_play)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountedPool)
    return calls


_MC_FIELDS = ("q_log2", "exact_moment_log2", "exponent", "mc_mean", "mc_ci",
              "censored", "rounds")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("guesser,target", [
    ("lz", "01101001"), ("block:3", "01101001"), ("uniform", "01101001"),
    ("fsgm:demos/three_word_machine.fsm", "ababab")])
def test_guess_plays_one_pass_for_every_zeta(guesser, target, jobs, tmp_path,
                                             monkeypatch):
    if guesser.startswith("fsgm:"):
        guesser = "fsgm:" + os.path.join(ROOT, guesser[len("fsgm:"):])
    zetas = [1.0, 1.5, 2.0, 3.0]
    rounds, seed, cap = 300, 5, 1 << 12
    calls = _count_mc_passes(monkeypatch)
    argv = ["guess", "--guesser", guesser, "--target", target,
            "--rounds", str(rounds), "--seed", str(seed), "--cap", str(cap),
            "--jobs", str(jobs)]
    if not guesser.startswith("fsgm:"):
        argv += ["--alphabet", "01"]
    for zeta in zetas:
        argv += ["--zeta", str(zeta)]
    rows = read_json(dispatch(tmp_path, *argv))["rows"]
    if jobs == 1:
        assert calls == {"compile_automaton": 1, "play": 1, "pool_map": 0}
    else:
        assert calls == {"compile_automaton": 0, "play": 0, "pool_map": 1}
    params = {"target": target, "guesser": guesser}
    if not guesser.startswith("fsgm:"):
        params["alphabet"] = "01"
    x = cli._load_sequence(params)
    g = cli._make_guesser(params, x.alphabet, len(x))
    assert [row["zeta"] for row in rows] == zetas
    for row in rows:
        est = guessers.run_game(g, x, zeta=row["zeta"], rounds=rounds,
                                seed=seed, cap=cap)
        assert {f: row[f] for f in _MC_FIELDS} == {
            f: getattr(est, f) for f in _MC_FIELDS}
        assert row["rounds"] == rounds


def test_cond_guess_plays_one_pass_for_every_zeta(tmp_path, monkeypatch):
    rounds, seed, cap = 40, 6, 1 << 12
    calls = _count_mc_passes(monkeypatch)
    rows = read_json(dispatch(
        tmp_path, "sideinfo", "cond-guess", "--corpus-x", "periodic:ab",
        "--corpus-y", "periodic:ab", "--n", "8", "--zeta", "1", "--zeta",
        "2", "--rounds", str(rounds), "--seed", str(seed)))["rows"]
    assert calls == {"compile_automaton": 1, "play": 1, "pool_map": 0}
    x = seqcore.parse_corpus_spec("periodic:ab", 8)
    q = sideinfo.cond_guess_prob(x, x)
    game = guessers.compile_automaton(
        guessers.Guesser("lz_full", x.alphabet, len(x), side=x), x)
    for row in rows:
        est = guessers.estimate_moment(q, row["zeta"], len(x)).fold(
            seqcore.play(game, rounds, seed, cap), cap)
        assert {f: row[f] for f in _MC_FIELDS} == {
            f: getattr(est, f) for f in _MC_FIELDS}
        assert row["rounds"] == rounds


@pytest.mark.parametrize("rounds", [5, 0])
def test_guess_forecasts_its_cost(rounds, tmp_path, capsys):
    # q = 1/4: E[min(G, 3)] = 1 + 3/4 + 9/16 guesses per round
    machine = os.path.join(ROOT, "demos", "three_word_machine.fsm")
    rec = dispatch(tmp_path, "guess", "--guesser", "fsgm:" + machine,
                   "--target", "abbac", "--alphabet", "abc", "--rounds",
                   str(rounds), "--cap", "3")
    notes = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("note:")]
    if rounds:
        assert notes == ["note: about 12 guesses expected"]
    else:
        assert notes == []
        assert read_json(rec)["rows"][0]["rounds"] is None


def test_expected_guesses_in_the_log_domain():
    # rounds * (1 - (1 - q)**cap) / q, against the sum of Pr{G >= k}
    for q_log2, cap in ((-2.0, 3), (-1.0, 50), (-9.5, 1 << 12), (0.0, 7)):
        q = 2.0 ** q_log2
        direct = 10 * sum((1 - q) ** k for k in range(cap))
        assert cli._expected_guesses(10, q_log2, cap) == pytest.approx(
            direct, rel=1e-12)
    # q far below 1/cap, even below the float range: rounds * cap
    for q_log2 in (-80.0, -2000.0):
        assert cli._expected_guesses(10, q_log2, 1 << 20) == 10 * (1 << 20)


def test_bounds_ell_filter(tmp_path):
    rec = dispatch(tmp_path, "bounds", "--corpus", "thue_morse", "--n", "64",
                   "--zeta", "1", "--ell", "4", "--ell", "8")
    csv_text = read_bytes(rec, "results.csv").decode()
    body = csv_text.splitlines()[1:]
    assert sorted(int(line.split(",")[1]) for line in body) == [4, 8]
    with pytest.raises(ValueError, match="divide"):
        dispatch(tmp_path, "bounds", "--corpus", "thue_morse", "--n", "64",
                 "--ell", "5")


def test_sideinfo_subcommands(tmp_path):
    rec = dispatch(tmp_path, "sideinfo", "joint-parse",
                   "--corpus-x", "periodic:ab", "--corpus-y", "periodic:ab",
                   "--n", "64")
    res = read_json(rec)
    assert res["u"] == 0.0
    rec2 = dispatch(tmp_path, "sideinfo", "cond-guess",
                    "--corpus-x", "periodic:ab", "--corpus-y", "periodic:ab",
                    "--n", "16", "--zeta", "1", "--rounds", "500", "--seed",
                    "3")
    rows = read_json(rec2)["rows"]
    assert rows[0]["mc_mean"] is not None
    rec3 = dispatch(tmp_path, "sideinfo", "cond-bounds",
                    "--corpus-x", "bernoulli:0.5:7",
                    "--corpus-y", "bernoulli:0.5:8",
                    "--n", "512", "--zeta", "1", "--ell", "4")
    rows = read_json(rec3)["rows"]
    assert rows[0]["ordering_ok"] is True


def test_replay_reproduces_bytes(tmp_path):
    rec = dispatch(tmp_path, "guess", "--target", "0110", "--alphabet", "01",
                   "--guesser", "block:2", "--zeta", "1",
                   "--rounds", "3000", "--seed", "11")
    manifest = os.path.join(rec["outdir"], "manifest.json")
    rep = replay(manifest, str(tmp_path / "replayed"))
    assert read_bytes(rec, "results.json") == read_bytes(rep, "results.json")
    assert read_bytes(rec, "results.csv") == read_bytes(rep, "results.csv")


def test_replay_detects_digest_mismatch(tmp_path):
    src = tmp_path / "x.txt"
    src.write_text("abab\n")
    rec = dispatch(tmp_path, "parse", "--input", str(src), "--alphabet", "ab")
    src.write_text("abba\n")
    with pytest.raises(ValueError, match="digest"):
        replay(os.path.join(rec["outdir"], "manifest.json"))


def test_replay_detects_changed_file_corpus(tmp_path):
    src = tmp_path / "c.txt"
    src.write_text("abbabaabbaaabaa\n")
    for argv in (["parse", "--corpus", "file:%s" % src, "--n", "15"],
                 ["sideinfo", "joint-parse", "--corpus-x", "file:%s" % src,
                  "--corpus-y", "periodic:ab", "--n", "15"]):
        src.write_text("abbabaabbaaabaa\n")
        rec = dispatch(tmp_path, *argv)
        src.write_text("abbabaabbaaabab\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            replay(os.path.join(rec["outdir"], "manifest.json"))


def test_replay_detects_missing_input(tmp_path):
    src = tmp_path / "x.txt"
    src.write_text("abab\n")
    rec = dispatch(tmp_path, "parse", "--input", str(src), "--alphabet", "ab")
    src.unlink()
    with pytest.raises(ValueError, match="missing"):
        replay(os.path.join(rec["outdir"], "manifest.json"))


def test_identical_args_identical_run_id(tmp_path):
    a = dispatch(tmp_path / "a", "parse", "--corpus", "thue_morse", "--n", "32")
    b = dispatch(tmp_path / "b", "parse", "--corpus", "thue_morse", "--n", "32")
    assert a["run_id"] == b["run_id"]
    assert read_bytes(a, "results.json") == read_bytes(b, "results.json")


def test_mc_fields_change_with_seed_exact_fields_do_not(tmp_path):
    base = ["guess", "--target", "000", "--alphabet", "01", "--zeta", "1",
            "--rounds", "1000"]
    a = dispatch(tmp_path / "a", *base, "--seed", "1")
    b = dispatch(tmp_path / "b", *base, "--seed", "2")
    ra, rb = read_json(a)["rows"][0], read_json(b)["rows"][0]
    assert ra["q_log2"] == rb["q_log2"]
    assert ra["exact_moment_log2"] == rb["exact_moment_log2"]
    assert ra["mc_mean"] != rb["mc_mean"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["nonsense"])
    assert exc.value.code == 2


def test_dispatches_in_one_process_share_no_parser_state(tmp_path):
    # cli_dispatch reuses one parser: an appended option of one call must
    # not reach the next, and a bad argv still fails as with a fresh parser
    def same_parse(*argv):
        assert cli._parser().parse_args(argv) == build_parser().parse_args(
            argv)

    def params(record):
        with open(os.path.join(record["outdir"], "manifest.json")) as fh:
            return json.load(fh)["params"]

    assert cli._parser() is cli._parser()
    target = ["guess", "--target", "0110", "--alphabet", "01"]
    rec = dispatch(tmp_path, *target, "--zeta", "1", "--zeta", "2")
    assert [r["zeta"] for r in read_json(rec)["rows"]] == [1.0, 2.0]
    rec = dispatch(tmp_path, *target)
    assert [r["zeta"] for r in read_json(rec)["rows"]] == [1.0]
    same_parse(*target)
    rec = dispatch(tmp_path, "moments", "--q", "0.5", "--q", "0.25")
    assert {r["q"] for r in read_json(rec)["rows"]} == {0.5, 0.25}
    rec = dispatch(tmp_path, "moments", "--q", "0.125")
    assert {r["q"] for r in read_json(rec)["rows"]} == {0.125}
    corpus = ["bounds", "--corpus", "thue_morse", "--n", "64", "--zeta", "1"]
    rec = dispatch(tmp_path, *corpus, "--ell", "4", "--ell", "8")
    assert params(rec)["ell"] == [4, 8]
    rec = dispatch(tmp_path, *corpus)
    assert "ell" not in params(rec)
    same_parse(*corpus)
    for bad in (["guess", "--zeta", "x"], ["moments"], ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(bad)
        assert exc.value.code == 2
    rec = dispatch(tmp_path, *target, "--zeta", "3")
    assert [r["zeta"] for r in read_json(rec)["rows"]] == [3.0]


def test_main_error_path(tmp_path, capsys):
    code = main(["parse", "--input", str(tmp_path / "missing.txt"),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_fsgm_dist_builtin_machine(tmp_path):
    assert main(["fsgm-dist", "--machine", "fig1", "--n", "4",
                 "--out-dir", str(tmp_path)]) == 0


def test_side_alphabet_larger_than_target_alphabet(tmp_path):
    pair = ["--corpus-x", "periodic:ab", "--corpus-y", "periodic:xyz",
            "--n", "12", "--out-dir", str(tmp_path)]
    for action in ("cond-bounds", "cond-guess", "cond-complexity"):
        assert main(["sideinfo", action] + pair) == 0
    rec = dispatch(tmp_path, "sideinfo", "cond-complexity", *pair[:-2])
    assert read_json(rec)["roundtrip_ok"] is True
    rec = dispatch(tmp_path, "sideinfo", "cond-guess", *pair[:-2],
                   "--zeta", "1", "--zeta", "1.5")
    rows = read_json(rec)["rows"]
    assert rows[0]["exact_moment_log2"] < rows[1]["exact_moment_log2"]


def test_cond_complexity_builds_one_joint_index(tmp_path, monkeypatch):
    # cond_code reads the index joint_parse returned; the results are
    # those of joint_parse and cond_code each building their own
    calls = []
    build = sideinfo._joint_index

    def counted(x, y):
        calls.append(len(x))
        return build(x, y)

    monkeypatch.setattr(sideinfo, "_joint_index", counted)
    pair = ["--corpus-x", "bernoulli:0.5:3", "--corpus-y",
            "bernoulli:0.5:4", "--n", "2000"]
    res = read_json(dispatch(tmp_path, "sideinfo", "cond-complexity", *pair))
    assert calls == [2000]
    x = seqcore.parse_corpus_spec("bernoulli:0.5:3", 2000)
    y = seqcore.parse_corpus_spec("bernoulli:0.5:4", 2000)
    u = sideinfo.joint_parse(x, y).u
    assert res == {"n": 2000, "u": u, "L_bits": len(sideinfo.cond_code(x, y)),
                   "u_plus_envelope": u + 2000 * sideinfo.epsilon1(2000),
                   "roundtrip_ok": True}


_MACHINE_WORDS = st.sampled_from(["alphabet", "initial", "ab", "a", "b",
                                  "z", "y", "-", "0", "1", "01", "-1", "#"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_MACHINE_WORDS | st.text(max_size=4), max_size=5)
                .map(" ".join), max_size=6).map("\n".join))
def test_machine_file_errors_exit_cleanly(text):
    try:
        parse_machine(text)
    except ValueError:
        pass
    else:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.fsm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["fsgm-run", "--machine", path, "--n", "3",
                     "--out-dir", tmp]) == 1


@pytest.mark.parametrize("argv", [argv for argv in readme_commands()
                                  if argv[0] != "replay"],
                         ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_line_block(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.txt").write_text("abbabaabbaaabaa\n")
    argv = [a if not os.path.exists(os.path.join(ROOT, a))
            else os.path.join(ROOT, a) for a in argv]
    if "--rounds" in argv:
        i = argv.index("--rounds") + 1
        argv[i] = str(min(int(argv[i]), 20))
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0


def test_main_success_prints_run_record(tmp_path, capsys):
    code = main(["parse", "--corpus", "periodic:ab", "--n", "8",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert "run_id" in out and "outdir" in out


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("LZGUESS_OUT_DIR", str(tmp_path / "envruns"))
    rec = cli_dispatch(["parse", "--corpus", "periodic:ab", "--n", "8"])
    assert str(tmp_path / "envruns") in rec["outdir"]


def test_alphabet_file_and_lines_mode(tmp_path):
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("north\nsouth\n")
    src = tmp_path / "seq.txt"
    src.write_text("north\nsouth\nnorth\nnorth\n")
    rec = dispatch(tmp_path, "parse", "--input", str(src),
                   "--alphabet-file", str(alpha), "--mode", "lines")
    res = read_json(rec)
    assert res["n"] == 4
    assert res["alpha"] == 2


def test_bytes_mode_input(tmp_path):
    src = tmp_path / "blob.bin"
    src.write_bytes(b"\x00\x01\x01\x00\x02")
    rec = dispatch(tmp_path, "parse", "--input", str(src), "--mode", "bytes")
    assert read_json(rec)["alpha"] == 256


def test_bytes_mode_inline_alphabet_is_a_byte_subset(tmp_path, capsys):
    src = tmp_path / "abba.txt"
    src.write_bytes(b"abba")
    got = read_json(dispatch(tmp_path, "parse", "--input", str(src),
                             "--mode", "bytes", "--alphabet", "ab"))
    want = read_json(dispatch(tmp_path, "parse", "--input", str(src),
                              "--alphabet", "ab"))
    assert got["alpha"] == 2
    assert (got["c_lz"], got["code_length_bits"]) == (
        want["c_lz"], want["code_length_bits"])
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("a\nb\n")
    root = tmp_path / "D"
    assert main(["parse", "--input", str(src), "--mode", "bytes",
                 "--alphabet-file", str(alpha), "--out-dir", str(root)]) == 1
    assert capsys.readouterr().err.startswith("error: --mode bytes")
    assert not root.exists()


def test_target_takes_the_alphabet_file(tmp_path):
    alpha = tmp_path / "abc.txt"
    alpha.write_text("a\nb\nc\n")
    rows = [read_json(dispatch(tmp_path, "guess", "--target", "abab", *flag))
            ["rows"][0] for flag in (["--alphabet-file", str(alpha)],
                                     ["--alphabet", "abc"])]
    assert rows[0]["q_log2"] == rows[1]["q_log2"] == pytest.approx(
        -6.678, abs=1e-3)


def test_huge_n_is_refused_before_anything_is_allocated(tmp_path, capsys):
    root = tmp_path / "D"
    for argv in (["codelen", "--corpus", "periodic:ab"],
                 ["fsgm-run", "--machine", "fig1"]):
        assert main(argv + ["--n", str(1 << 40), "--out-dir", str(root)]) == 1
        assert capsys.readouterr().err == (
            "error: need --n <= 16777216, got 1099511627776\n")
        assert not root.exists()


def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def encode(seq):
        raise MemoryError

    monkeypatch.setattr(cli.lz78, "encode", encode)
    root = tmp_path / "D"
    assert main(["codelen", "--corpus", "periodic:ab", "--n", "8",
                 "--out-dir", str(root)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not root.exists()


# --- the CLI contract over drawn argv ----------------------------------------

# "{dir}" stands for the folder of the contract's input files
_CONTRACT_FILES = (["{dir}/ab.txt", "{dir}/ab24.txt"],
                   ["{dir}/empty.txt", "{dir}/bad-utf8.txt", "{dir}/wide.txt",
                    "{dir}/missing"])
_CONTRACT_MACHINE = os.path.join(ROOT, "demos", "three_word_machine.fsm")
_CONTRACT_CORPORA = (
    ["periodic:ab", "periodic:abc", "bernoulli", "bernoulli:0.5:1",
     "thue_morse", "file:{dir}/ab.txt"],
    ["periodic:", "periodic:ab:cd", "bernoulli:2", "bernoulli:nan",
     "bernoulli:x", "bernoulli:0.5:1:junk", "thue_morse:junk", "file",
     "file:{dir}/empty.txt", "file:{dir}/missing", "nope"])
# each option's (valid, hostile) values, small, by its dest; an option
# with choices draws from them.  --n = MAX_N + 1 tests only the guard,
# --jobs stays at two workers or fewer
_CONTRACT_VALUES = {
    "n": (["1", "2", "3", "8", "24"], ["-1", "0", str(cli.MAX_N + 1)]),
    "rounds": (["0", "1", "5", "20"], ["-1"]),
    "cap": (["1", "2", "1000"], ["-1", "0"]),
    "jobs": (["1", "2"], ["-1", "0"]),
    "seed": (["0", "3"], ["-1"]),
    "zeta": (["0.5", "1", "1.5", "3"],
             ["0", "-1", "nan", "inf", "100", "3e305"]),
    "q": (["0.5", "1"], ["0", "-1", "nan", "inf", "1.5", "3", "100", "3e305"]),
    "s": (["1", "3"], ["-1", "0"]),
    "ell": (["1", "2", "3", "8"], ["-1", "0"]),
    "input": _CONTRACT_FILES,
    "input_x": _CONTRACT_FILES,
    "input_y": _CONTRACT_FILES,
    "corpus": _CONTRACT_CORPORA,
    "corpus_x": _CONTRACT_CORPORA,
    "corpus_y": _CONTRACT_CORPORA,
    "alphabet_file": (["{dir}/alphabet.txt"],
                      ["{dir}/empty.txt", "{dir}/bad-utf8.txt",
                       "{dir}/missing"]),
    "alphabet": (["ab", "ba", "abc", "01"], ["", "a"]),
    "target": (["ab", "abab", "aaaaaaaa"], ["", "abcab"]),
    "machine": (["fig1", _CONTRACT_MACHINE],
                ["{dir}/junk.fsm", "{dir}/missing"]),
    "guesser": (["lz", "uniform", "block:2", "fsgm:" + _CONTRACT_MACHINE],
                ["block:0", "block:x", "nope", "fsgm:{dir}/junk.fsm",
                 "fsgm:{dir}/missing"]),
    "manifest": (["{dir}/manifest.json"],
                 ["{dir}/empty.txt", "{dir}/list.json", "{dir}/object.json",
                  "{dir}/missing"]),
}


@st.composite
def _cli_argv(draw):
    """A subcommand of :func:`build_parser` with some of its options
    (every required one), each as --option=value, but not --out-dir; a
    value is hostile with a drawn chance of 0, 1 or 5 in 10."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    name = draw(st.sampled_from(sorted(subparsers)))
    hostility = draw(st.sampled_from([0, 1, 5]))

    def value(action):
        if action.choices:
            return draw(st.sampled_from(action.choices))
        valid, hostile = _CONTRACT_VALUES[action.dest]
        return draw(st.sampled_from(
            hostile if draw(st.integers(0, 9)) < hostility else valid))

    argv = [name]
    for action in subparsers[name]._actions:
        if action.dest in ("help", "out_dir"):
            continue
        if not action.option_strings:
            argv.append(value(action))
        elif action.required or draw(st.booleans()):
            repeat = 2 if isinstance(action, argparse._AppendAction) else 1
            for _ in range(draw(st.integers(1, repeat))):
                argv.append("%s=%s" % (action.option_strings[0],
                                       value(action)))
    return argv


@pytest.fixture
def contract_dir(tmp_path):
    """The contract's input files, and one manifest of a real run."""
    for name, text in {"ab.txt": "abbabaab\n", "ab24.txt": "ab" * 12,
                       "empty.txt": "", "wide.txt": "abcdefghijklmnopq",
                       "junk.fsm": "alphabet a b\nnonsense\n",
                       "list.json": "[]", "object.json": "{}",
                       "alphabet.txt": "a\nb\n"}.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "bad-utf8.txt").write_bytes(b"ab\xff\xfe")
    rec = dispatch(tmp_path / "made", "parse", "--corpus", "periodic:ab",
                   "--n", "8")
    shutil.copy(os.path.join(rec["outdir"], "manifest.json"),
                tmp_path / "manifest.json")
    return tmp_path


class _CallTimedOut(BaseException):
    """Raised by :func:`_time_limit`'s timer: a BaseException, which
    cli.main re-raises after its cleanup and never turns into an exit
    code."""


_CALL_SECONDS = 30      # far above what any contract call needs


@contextlib.contextmanager
def _time_limit(seconds, argv):
    """Fail the test with `argv` if the block outlives `seconds`; the
    timer is disarmed on the way out, however the block ends."""
    def expire(signum, frame):
        raise _CallTimedOut

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _CallTimedOut:
        pytest.fail("%r ran longer than %g s" % (argv, seconds))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_time_limit_fails_a_call_that_outlives_it(tmp_path, monkeypatch):
    # a hanging subcommand fails the test with its argv, leaves no run
    # folder, and leaves no timer armed
    monkeypatch.setitem(cli._EXECUTORS, "codelen",
                        lambda params, outdir: time.sleep(10))
    argv = ["codelen", "--corpus", "periodic:ab", "--n", "8",
            "--out-dir", str(tmp_path / "runs")]
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="codelen"):
        with _time_limit(0.2, argv):
            main(argv)
    assert time.monotonic() - start < 5
    assert not (tmp_path / "runs").exists()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _no_special_floats(text):
    json.loads(text, parse_constant=lambda c: pytest.fail(
        "results.json holds %s" % c))


_REFUSED_REPROS = [
    # a moment, or a round's G^zeta, too large for a double
    ["guess", "--corpus", "periodic:ab", "--n", "4", "--zeta", "3e305"],
    ["guess", "--corpus", "periodic:ab", "--n", "4", "--zeta", "2.5e305"],
    ["guess", "--corpus", "periodic:ab", "--n", "6", "--zeta", "100",
     "--rounds", "5", "--seed", "3"],
    ["guess", "--corpus", "periodic:ab", "--n", "6", "--zeta", "150",
     "--rounds", "5", "--seed", "3"],
    ["bounds", "--corpus", "periodic:ab", "--n", "4", "--zeta", "3e305"],
    ["sandwich", "--corpus", "periodic:ab", "--n", "4", "--zeta", "3e305"],
    ["sideinfo", "cond-guess", "--corpus-x", "periodic:ab", "--corpus-y",
     "periodic:ab", "--n", "4", "--zeta", "3e305"],
    ["sideinfo", "cond-bounds", "--corpus-x", "periodic:ab", "--corpus-y",
     "periodic:ab", "--n", "4", "--zeta", "3e305"],
    # the converse is stated only at block lengths that divide n
    ["sideinfo", "cond-bounds", "--corpus-x", "periodic:ab", "--corpus-y",
     "periodic:ab", "--n", "8", "--ell", "3"],
    ["bounds", "--corpus", "periodic:ab", "--n", "8", "--ell", "3"],
    # a field the corpus kind does not take
    ["codelen", "--corpus", "thue_morse:junk", "--n", "8"],
    ["codelen", "--corpus", "bernoulli:0.5:1:junk", "--n", "8"],
]


def _pin(test):
    for argv in reversed(_REFUSED_REPROS):
        test = example(argv=argv, refused=True)(test)
    return test


# the input files are made once and only read, so the fixture may outlive
# an example; each example writes under its own folder
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv(), refused=st.just(False))
@_pin
def test_cli_contract(argv, refused, contract_dir):
    # either exit 0 with results that hold no NaN or Infinity and replay
    # byte for byte, or exit 1 with one error line and no run folder
    argv = [arg.replace("{dir}", str(contract_dir)) for arg in argv]
    work = tempfile.mkdtemp(dir=contract_dir)
    root = os.path.join(work, "runs")
    out, err = io.StringIO(), io.StringIO()
    with _time_limit(_CALL_SECONDS, argv), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--out-dir", root])
    lines = err.getvalue().splitlines()
    event("%s exits %d" % (argv[0], code))
    if code == 0 and not refused:
        outdir = json.loads(out.getvalue())["outdir"]
        assert os.listdir(root) == [os.path.basename(outdir)]
        again = replay(os.path.join(outdir, "manifest.json"),
                       os.path.join(work, "replayed"))
        names = sorted(set(os.listdir(outdir)) - {"manifest.json"})
        assert names == sorted(set(os.listdir(again["outdir"]))
                               - {"manifest.json"})
        for name in names:
            with open(os.path.join(outdir, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(again["outdir"], name), "rb") as fh:
                assert fh.read() == first, name
        with open(os.path.join(outdir, "results.json")) as fh:
            _no_special_floats(fh.read())
    else:
        assert code == 1, (argv, lines)
        assert lines and lines[-1].startswith("error: "), (argv, lines)
        assert all(line.startswith(("warning: ", "note: "))
                   for line in lines[:-1]), (argv, lines)
        assert not os.path.exists(root)
    shutil.rmtree(work)
