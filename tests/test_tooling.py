"""Checks that the benchmark's tooling and the README still match the
package.

perfbench/tracer.py wraps functions by (module, name); a rename inside
src/ would make a traced benchmark run crash on a missing attribute.  The
benchmark compares every job's results.json with perfbench/reference.json,
so a renamed or dropped output key fails it as an incorrect output.  The
README's command examples must stay accepted by the CLI parser.  Every
top-level definition in src/ is reached from a user-facing entry point, or
is a test oracle named below.
"""

import ast
import glob
import importlib
import json
import os

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


# top-level definitions that only the tests call, each kept on purpose
TEST_ONLY = {
    "tree_run": "the bit-by-bit tree semantics, oracle for the expansion",
    "fig1_word_expansion": "the example machine's word map, its oracle",
    "aligned_guess_prob": "the aligned witness between q and 2**-L(x)",
    "moment_lower_bound_log2": "moment_lower_bound in the log domain",
    "survival_curve": "empirical Pr{G >= k}, the geometric-tail check",
    "chain_code_len": "one chain field's width, oracle for its law",
    "cond_code_length": "L(x|y), the conditional dominance bound",
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
