import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

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
    """Count runner builds and play loops in this process, and pool maps
    (a worker's own calls happen in its own process)."""
    calls = {"make_runner": 0, "play": 0, "pool_map": 0}
    make_runner, play = guessers.make_runner, seqcore.play

    def counted_make_runner(*args, **kwargs):
        calls["make_runner"] += 1
        return make_runner(*args, **kwargs)

    def counted_play(*args, **kwargs):
        calls["play"] += 1
        return play(*args, **kwargs)

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            calls["pool_map"] += 1
            return super().map(*args, **kwargs)

    monkeypatch.setattr(guessers, "make_runner", counted_make_runner)
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
        assert calls == {"make_runner": 1, "play": 1, "pool_map": 0}
    else:
        assert calls == {"make_runner": 0, "play": 0, "pool_map": 1}
    params = {"target": target, "guesser": guesser}
    if not guesser.startswith("fsgm:"):
        params["alphabet"] = "01"
    x = cli._target_sequence(params)
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
    assert calls == {"make_runner": 1, "play": 1, "pool_map": 0}
    x = seqcore.parse_corpus_spec("periodic:ab", 8)
    q = sideinfo.cond_guess_prob(x, x)

    def attempt(bits):
        return sideinfo.cond_sample(x, len(x), bits, x.alphabet) == x

    for row in rows:
        est = guessers.estimate_moment(q, row["zeta"], len(x)).fold(
            seqcore.play(attempt, rounds, seed, cap), cap)
        assert {f: row[f] for f in _MC_FIELDS} == {
            f: getattr(est, f) for f in _MC_FIELDS}
        assert row["rounds"] == rounds


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
