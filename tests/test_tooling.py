"""Checks that the benchmark's tooling, the layer harness in tools/ and the
README still match the package.

perfbench/tracer.py wraps functions by (module, name); a rename inside
src/ would make a traced benchmark run crash on a missing attribute.  The
benchmark compares every job's results.json with perfbench/reference.json,
so a renamed or dropped output key fails it as an incorrect output.  The
README's command examples must stay accepted by the CLI parser.  Every
top-level definition in src/ is reached from a user-facing entry point:
code that only tests call lives in tests/oracles.py, where each oracle
names the src/ function it checks and some test calls it.  The helpers
that a refactor retired stay gone.
"""

import ast
import glob
import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import readme_commands
from lzguess.cli import build_parser, cli_dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_constant(filename, name):
    """A literal module constant of perfbench/<filename>, read from its
    source without importing or executing the file."""
    path = os.path.join(ROOT, "perfbench", filename)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/%s defines no %s" % (filename, name))


def test_tracer_layers_resolve_in_src():
    layers = _perfbench_constant("tracer.py", "LAYERS")
    assert layers
    for module, function, _layer in layers:
        assert module.startswith("lzguess.")
        target = getattr(importlib.import_module(module), function, None)
        assert callable(target), "%s.%s is gone" % (module, function)


def test_bench_imports_resolve_in_src():
    # perfbench/run.py imports private helpers (the CLI's guesser parser,
    # the exact conditional law) next to code that moves between modules
    path = os.path.join(ROOT, "perfbench", "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("lzguess")
             for alias in node.names]
    assert names
    for module, name in names:
        target = getattr(importlib.import_module(module), name, None)
        assert target is not None, "%s.%s is gone" % (module, name)


# top-level definitions that only the tests call, each kept on purpose;
# none is: test-only code belongs in tests/oracles.py
TEST_ONLY = {}


# top-level definitions that a newer mechanism replaced; src/ must not grow
# them back (the per-draw LZ walk lives on only as the oracle
# lz_draws_per_draw in tests/oracles.py)
RETIRED = {
    "_run_tail": "forward takes spans from its step instead of finding runs",
    "_cond_run_tables": "the conditional automaton reads _cond_draws' moves",
    "_lz_draws": "_lz_draws_at gives the draws of the lengths a reader asks for",
    "aligned_guess_prob": "a witness between q and 2**-L(x) that only tests "
                          "read; dominance is tested on q itself",
    "survival_curve": "tests fold play_counts into Pr{G >= k} themselves",
    "chain_code_len": "len(chain_encode(gap, size))",
    "cond_code_length": "len(cond_code(x, y))",
    "code_length": "ParseResult.code_length_bits; no caller re-priced a "
                   "parse under another alphabet",
    "block_sample": "Guesser.sample joins lz_sample per block",
    "_target_sequence": "_load_sequence reads --target first",
    "_ptr_count": "chain_gap_probs and cond_guess_prob count index patterns "
                  "inline",
    "fig1_word_expansion": "the example machine's word map is a test oracle "
                           "in tests/oracles.py",
    "tree_run": "the tree semantics run bit by bit is a test oracle in "
                "tests/oracles.py",
    "_moment_series": "one series row alone is the test oracle "
                      "moment_series in tests/oracles.py",
    "_Row": "LZ rows are built on first read by the _LazyRows dict",
}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _used_names(node, strings=False):
    """Every name a syntax tree mentions: identifiers, attributes, imported
    names and, with strings=True, string constants."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str)):
            names.add(n.value)
    return names


def unreached_definitions(root=ROOT):
    """The top-level defs and classes of src/lzguess that nothing reaches,
    by name, from the console entry point `cli.main`, the package's
    exports, module-level code, demos/ or perfbench/ (tracer strings
    included; its tests are not entry points)."""
    defs, roots = {}, {"main"}
    for path in glob.glob(os.path.join(root, "src", "lzguess", "*.py")):
        exports = os.path.basename(path) == "__init__.py"
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif exports or not isinstance(node, (ast.Import,
                                                  ast.ImportFrom)):
                roots |= _used_names(node)
    for path in glob.glob(os.path.join(root, "demos", "*.py")):
        roots |= _used_names(_parse(path))
    for path in glob.glob(os.path.join(root, "perfbench", "*.py")):
        if not os.path.basename(path).startswith("test_"):
            roots |= _used_names(_parse(path), strings=True)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for node in defs[name]:
                todo.extend(_used_names(node))
    return set(defs) - reached


def test_every_definition_is_reached_or_a_named_oracle():
    unreached = unreached_definitions()
    assert not unreached - set(TEST_ONLY), (
        "only tests reach these; wire them in, delete them, or name them "
        "in TEST_ONLY with a reason: %s" % sorted(unreached - set(TEST_ONLY)))
    assert not set(TEST_ONLY) - unreached, (
        "reached or gone, so drop them from TEST_ONLY: %s"
        % sorted(set(TEST_ONLY) - unreached))


# an oracle's docstring names what it checks as ``lzguess.<module>.<name>``
_CHECKED = re.compile(r"``(lzguess(?:\.\w+)+)``")


def _resolve(dotted):
    """The object a dotted lzguess name refers to, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts), 1, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def test_every_oracle_is_called_and_names_what_it_checks():
    called = set()
    for path in glob.glob(os.path.join(ROOT, "tests", "test_*.py")):
        called |= {n.id for n in ast.walk(_parse(path))
                   if isinstance(n, ast.Name)}
    oracles = [node for node in _parse(os.path.join(ROOT, "tests",
                                                    "oracles.py")).body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")]
    assert oracles
    for node in oracles:
        assert node.name in called, "no test calls %s" % node.name
        checked = _CHECKED.findall(ast.get_docstring(node) or "")
        assert checked, "%s names no lzguess function" % node.name
        for name in checked:
            assert _resolve(name) is not None, "%s: %s is gone" % (
                node.name, name)


def test_retired_helpers_stay_gone():
    defined = {node.name
               for path in glob.glob(os.path.join(ROOT, "src", "lzguess",
                                                  "*.py"))
               for node in _parse(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & set(RETIRED), sorted(defined & set(RETIRED))


def test_no_function_imports_a_sibling_module():
    # an import of lzguess inside a function hides an import cycle; the
    # standard library may still be imported where it is needed
    lazy = []
    for path in glob.glob(os.path.join(ROOT, "src", "lzguess", "*.py")):
        for func in ast.walk(_parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                    sibling = node.level > 0
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                    sibling = False
                else:
                    continue
                if sibling or any(name.split(".")[0] == "lzguess"
                                  for name in names):
                    lazy.append("%s:%d %s" % (os.path.basename(path),
                                              node.lineno, func.name))
    assert not lazy, lazy


def test_import_cli_loads_no_module_that_no_command_calls():
    # standard-library modules that no command calls stay off the start of
    # every run (dataclasses loads inspect, fractions decimal); -S keeps
    # the site's own imports, typing among them on some hosts, out of the
    # fresh interpreter
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lzguess.cli;"
            " print(' '.join(sorted(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code,
                          os.path.join(ROOT, "src")],
                         check=True, capture_output=True, text=True)
    loaded = set(run.stdout.split())
    assert "lzguess.cli" in loaded
    absent = {"dataclasses", "inspect", "fractions", "decimal", "shutil",
              "typing"}
    assert not loaded & absent, sorted(loaded & absent)


def test_bench_layers_runs_on_a_shrunk_grid(tmp_path):
    # two labels over the same tree: every grid point is timed, exponents
    # are fitted, and the laws and play counts agree
    out = tmp_path / "bench.json"
    script = os.path.join(ROOT, "tools", "bench_layers.py")
    for label in ("a", "b"):
        subprocess.run([sys.executable, script, "--src", ROOT, "--label",
                        label, "--out", str(out), "--shrink", "64",
                        "--best-of", "1"], check=True, capture_output=True)
    data = json.loads(out.read_text())
    assert list(data["runs"]) == ["a", "b"]
    summary = data["summary"]
    assert summary["laws_identical_across_labels"]
    # each round records the wc -l of the tree's lzguess/*.py, and the
    # summary puts it beside each label's timings
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "lzguess", "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += len(fh.readlines())
    assert [r["src_lines"] for r in data["runs"]["b"]] == [lines]
    assert summary["src_lines"] == {"a": [lines], "b": [lines]}
    lz = summary["per_label"]["b"]["lz_guess_prob"]
    assert set(lz) == {"periodic:ab", "thue_morse", "bernoulli:0.5:1"}
    for case in lz.values():
        assert list(case["median_best_s"]) == ["32", "64", "128", "256"]
        assert "fitted_exponent" in case and "ratio_to_a" in case
    law = summary["laws"]["lz_guess_prob | periodic:ab | n=256"]
    assert set(law) == {"e", "m_bits", "sha256"} and law["m_bits"] <= law["e"]
    assert list(summary["per_label"]["a"]["tiny_lz_passes"]
                ["8-blocks of bernoulli:0.5:9"]["median_best_s"]) == ["32"]
    # both conditional pairs, the independent one at cond-bounds' sizes
    cond = summary["per_label"]["b"]["cond_guess_prob"]
    assert {case: list(entry["median_best_s"]) for case, entry in
            cond.items()} == {
        "bernoulli pair, 10% flips": ["64", "128", "256", "512"],
        "independent fair pair, seeds 1 and 2": ["16", "32", "64"]}
    law = summary["laws"]["cond_guess_prob | independent fair pair, seeds 1 "
                          "and 2 | n=64"]
    assert set(law) == {"e", "m_bits", "sha256"} and law["m_bits"] <= law["e"]
    # the play grid keeps its n and shrinks its rounds; counts agree, and
    # the byte rows each game built are work done, not output
    play = summary["per_label"]["b"]["play"]
    dense = play.pop("dense start field")
    assert set(play) == {"lz", "block:4", "uniform", "fsgm",
                         "cond periodic:ab"}
    for case in play.values():
        assert list(case["median_attempts_per_s"]) == ["8", "12", "16", "24"]
        assert "fitted_exponent" in case and "ratio_to_a" in case
        assert all(rows >= 1 for rows in case["byte_rows"].values())
    point = summary["laws"]["play | lz | n=24"]
    assert set(point) == {"attempts", "sha256"}
    assert 4 <= point["attempts"] <= 4 * 1000
    # the dense 16-bit start field is read whole, outside the byte rows
    assert list(dense["median_attempts_per_s"]) == ["16"]
    assert dense["byte_rows"]["16"] == 0
    # the compile grid reports the rows each tree built beside its counts
    case = "lz, bernoulli:0.5:1, 20 rounds, cap 1000"
    grid = summary["per_label"]["b"]["compile"][case]
    assert list(grid["rows_built"]) == ["8", "16", "32", "64", "128"]
    assert all(1 <= rows <= int(n) for n, rows in grid["rows_built"].items())
    assert all(rows >= 1 for rows in grid["byte_rows"].values())
    assert set(summary["laws"]["compile | %s | n=128" % case]) == {"sha256"}
    # the codec grid: the parse, each coder and decoder, ingest, SymbolSeq
    # and render per n, outputs by digest
    codec = summary["per_label"]["b"]["codec"]
    assert len(codec) == 15
    assert {"lz78.incremental_parse, fair bits",
            "lz78.incremental_parse, thue_morse",
            "lz78.decode, thue_morse"} <= set(codec)
    assert sum(case.startswith(("seqcore.ingest", "seqcore.SymbolSeq",
                                "seqcore.render")) for case in codec) == 7
    for case in codec.values():
        assert list(case["median_best_s"]) == ["256", "512", "1024", "2048",
                                               "4096"]
        assert "fitted_exponent" in case and "ratio_to_a" in case
    for case in ("lz78.decode, fair bits", "seqcore.render, chars, fair bits",
                 "lz78.incremental_parse, fair bits",
                 "lz78.incremental_parse, thue_morse",
                 "lz78.decode, thue_morse"):
        assert set(summary["laws"]["codec | %s | n=4096" % case]) == {"sha256"}
    # the moments point: the CLI handler on the benchmark's moments-window
    # rows, unshrunk, its rows by digest
    case = "cli._run_moments, moments-window of seed 1"
    assert list(summary["per_label"]["b"]["moments"][case]
                ["median_best_s"]) == ["4"]
    assert set(summary["laws"]["moments | %s | n=4" % case]) == {"sha256"}
    # the corpus point: Bernoulli corpora at two p, by digest
    corpus = summary["per_label"]["b"]["corpus"]
    assert set(corpus) == {"generate_corpus bernoulli, p=0.5, seed 1",
                           "generate_corpus bernoulli, p=0.1, seed 1"}
    for case in corpus.values():
        assert list(case["median_best_s"]) == ["256", "1024", "4096",
                                               "16384"]
        assert "fitted_exponent" in case and "ratio_to_a" in case
    assert set(summary["laws"]["corpus | generate_corpus bernoulli, p=0.1, "
                               "seed 1 | n=16384"]) == {"sha256"}
    # the import point: one fresh interpreter per case at this shrink, and
    # the modules the import added beside its time, as work done
    imports = summary["per_label"]["b"]["import"]
    assert set(imports) == {"lzguess.cli, from source", "lzguess.cli, cached"}
    for case in imports.values():
        assert list(case["median_best_s"]) == ["1"]
        assert 0 < case["median_best_s"]["1"] < 60
        assert case["modules_loaded"]["1"] >= 9       # lzguess's own
    assert summary["laws"]["import | lzguess.cli, cached | n=1"] == {}


def test_bench_ab_reads_a_tree_against_itself_as_even(tmp_path):
    # a git checkout whose HEAD holds this tree's src/lzguess, compared
    # with this tree in one process: same outputs, ratios near 1
    repo = tmp_path / "repo"
    shutil.copytree(os.path.join(ROOT, "src", "lzguess"),
                    repo / "src" / "lzguess",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c",
           "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "tree"]):
        subprocess.run(git + args, check=True, capture_output=True)
    out = tmp_path / "ab.json"
    points = ["lz78.incremental_parse, thue_morse | n=65536",
              "lz78.decode, fair bits | n=65536"]
    base = [sys.executable, os.path.join(ROOT, "tools", "bench_ab.py"),
            "--parent", "HEAD", "--repo", str(repo), "--src", ROOT,
            "--out", str(out)]
    argv = base + ["--shrink", "4", "--rounds", "7", "--best-of", "3"]
    for point in points:
        argv += ["--point", point]
    run = subprocess.run(argv, check=True, capture_output=True, text=True)
    results = json.loads(out.read_text())["points"]
    assert sorted(results) == sorted("codec | " + p for p in points)
    for key, res in results.items():
        assert res["identical"], key
        assert 0.8 <= res["median_ratio"] <= 1.25, (key, res)
        assert res["rounds"] == 7 and 0 <= res["rounds_won"] <= 7
        assert len(res["parent_s"]) == len(res["tree_s"]) == 7
        assert key in run.stdout
    # the import point runs on both trees, each from its own sources: a
    # parent whose import loads one more module still computes the same
    cli = repo / "src" / "lzguess" / "cli.py"
    cli.write_text(cli.read_text() + "import fractions\n")
    subprocess.run(git + ["commit", "-qam", "fractions"], check=True,
                   capture_output=True)
    subprocess.run(base + ["--shrink", "20", "--rounds", "2", "--best-of",
                           "1", "--point", "import |"],
                   check=True, capture_output=True, text=True)
    results = json.loads(out.read_text())["points"]
    assert sorted(results) == ["import | lzguess.cli, cached | n=1",
                               "import | lzguess.cli, from source | n=1"]
    for res in results.values():
        assert res["identical"] and res["rounds"] == 2
        assert all(s > 0 for s in res["parent_s"] + res["tree_s"])


def test_readme_commands_parse():
    # parsed only, never run: every example, replay included
    commands = readme_commands()
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            raise AssertionError("README command rejected: lzguess %s"
                                 % " ".join(argv)) from None


def _key_shape(obj, ignore):
    """The dict keys of a JSON value at every level, a list by its first
    element; keys in `ignore` are dropped."""
    if isinstance(obj, dict):
        return {k: _key_shape(v, ignore) for k, v in obj.items()
                if k not in ignore}
    if isinstance(obj, list):
        return [_key_shape(obj[0], ignore)] if obj else []
    return None


MACHINE = os.path.join(ROOT, "demos", "three_word_machine.fsm")


# each exact-only job kind of the benchmark, as (reference argv prefix,
# a desk-size argv of the same kind)
@pytest.mark.filterwarnings("ignore:eps_n")
@pytest.mark.parametrize("prefix,argv", [
    (["bounds"], ["bounds", "--corpus", "thue_morse", "--n", "16",
                  "--zeta", "1.5", "--zeta", "3"]),
    (["sandwich"], ["sandwich", "--corpus", "periodic:ab", "--n", "32"]),
    (["sideinfo", "cond-bounds"],
     ["sideinfo", "cond-bounds", "--corpus-x", "bernoulli:0.5:1",
      "--corpus-y", "bernoulli:0.5:2", "--n", "64"]),
    (["moments"], ["moments", "--q", "0.25", "--zeta", "1.5"]),
    (["fsgm-dist"], ["fsgm-dist", "--machine", "fig1", "--n", "4"]),
    (["guess"], ["guess", "--guesser", "fsgm:" + MACHINE, "--target",
                 "ababbac", "--alphabet", "abc", "--jobs", "1"]),
], ids=["bounds", "sandwich", "cond-bounds", "moments", "fsgm-dist", "guess"])
def test_results_keys_match_the_bench_reference(prefix, argv, tmp_path):
    with open(os.path.join(ROOT, "perfbench", "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)["jobs"]
    ignore = set(_perfbench_constant("checks.py", "MC_FIELDS"))
    # the exact-only jobs of this kind: no Monte Carlo rounds
    shapes = [_key_shape(job["results"], ignore) for job in reference.values()
              if job["argv"][:len(prefix)] == prefix
              and "--rounds" not in job["argv"]]
    assert shapes
    record = cli_dispatch(argv + ["--out-dir", str(tmp_path)])
    with open(record["artifacts"]["results.json"], encoding="utf-8") as fh:
        got = _key_shape(json.load(fh), ignore)
    for shape in shapes:
        assert got == shape
