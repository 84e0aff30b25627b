"""Checks that the benchmark's tooling and the README still match the
package.

perfbench/tracer.py wraps functions by (module, name); a rename inside
src/ would make a traced benchmark run crash on a missing attribute.  The
README's command examples must stay accepted by the CLI parser.
"""

import ast
import importlib
import os

from conftest import readme_commands
from lzguess.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer_layers():
    """LAYERS of perfbench/tracer.py, read from its source without
    importing or executing the file."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "LAYERS"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_tracer_layers_resolve_in_src():
    layers = _tracer_layers()
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
