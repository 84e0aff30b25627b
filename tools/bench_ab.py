"""In-process A/B timing of ``tools/bench_layers.py`` points: a source
tree against a git revision of ``src/lzguess``.

``git archive REF src/lzguess`` is unpacked into a temporary folder and
imported as the package ``lzguess_parent``; the tree under ``--src`` is
imported as ``lzguess``.  Each chosen point of the ``bench_layers`` grid
builds its inputs once per tree, outside the timing, and then runs on the
two trees alternately, ``--rounds`` times in this one process, with the
tree that goes first swapped every round.  A round's time is the best of
``--best-of`` calls.  Per point it prints the median over rounds of the
time ratio (tree over parent), the rounds the tree won, and whether the
two trees computed the same law, counts or digest in every round.  For
example, from the checkout::

    python3 tools/bench_ab.py --parent HEAD~1 --rounds 15 \\
        --point "codec | lz78.decode" --point "codec | lz78.incremental_parse"

A point is chosen when one of the ``--point`` strings occurs in its key,
``"<layer> | <case> | n=<n>"`` as ``bench_layers`` writes it; with no
``--point`` every point runs.  ``--shrink K`` shrinks the grid as
``bench_layers`` does.  ``--out FILE`` also writes the per-round times
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_layers  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_revision(repo, ref, into):
    """``src/lzguess`` of revision `ref` of the git checkout `repo`,
    unpacked under `into` and imported as the package ``lzguess_parent``."""
    archive = subprocess.run(["git", "-C", repo, "archive", "--format=tar",
                              ref, "src/lzguess"], capture_output=True)
    if archive.returncode:
        raise SystemExit("error: git archive %s: %s"
                         % (ref, archive.stderr.decode().strip()))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)
    path = os.path.join(into, "src", "lzguess")
    spec = importlib.util.spec_from_file_location(
        "lzguess_parent", os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules["lzguess_parent"] = package
    spec.loader.exec_module(package)
    return package


def compare(trees, points, rounds, k):
    """{key: result} for each point: per tree its best-of-k time of each
    round, the median ratio of the second tree over the first, the rounds
    the second won, and whether every round of both computed the same."""
    results = {}
    for key, prepare in points:
        calls = [prepare(lz) for lz in trees]
        times = [[], []]
        records = set()
        for r in range(rounds):
            for side in ((0, 1) if r % 2 else (1, 0)):
                call, record = calls[side]
                best, out = bench_layers._best_of(k, call)
                times[side].append(best)
                fields = record(out)
                fields.pop("rows_built", None)   # work done, not output
                records.add(json.dumps(fields, sort_keys=True))
        ratios = [b / a for a, b in zip(*times)]
        results[key] = {
            "median_ratio": round(statistics.median(ratios), 4),
            "rounds_won": sum(ratio < 1 for ratio in ratios),
            "rounds": rounds, "identical": len(records) == 1,
            "parent_s": times[0], "tree_s": times[1]}
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, metavar="REF",
                    help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--repo", default=ROOT,
                    help="git checkout to archive REF from (default: the "
                         "checkout this script is in)")
    ap.add_argument("--src", default=None,
                    help="checkout (or its src/) to import lzguess from "
                         "(default: --repo)")
    ap.add_argument("--rounds", type=int, default=10, metavar="N")
    ap.add_argument("--best-of", type=int, default=1, metavar="K")
    ap.add_argument("--shrink", type=int, default=1, metavar="K")
    ap.add_argument("--point", action="append", default=[], metavar="TEXT",
                    help="run the points whose key contains TEXT "
                         "(repeatable; default: every point)")
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args(argv)
    if min(args.rounds, args.best_of, args.shrink) < 1:
        raise SystemExit("error: --rounds, --best-of and --shrink must be "
                         ">= 1")
    bench_layers._import_lzguess(args.src or args.repo)
    import lzguess
    points = []
    for layer, case, n, prepare in bench_layers.grid(args.shrink):
        key = "%s | %s | n=%s" % (layer, case, n)
        if not args.point or any(text in key for text in args.point):
            points.append((key, prepare))
    if not points:
        raise SystemExit("error: no point matches %r" % args.point)
    with tempfile.TemporaryDirectory() as tmp:
        parent = load_revision(args.repo, args.parent, tmp)
        results = compare((parent, lzguess), points, args.rounds,
                          args.best_of)
    width = max(len(key) for key in results)
    print("%-*s  %7s  %5s  %s" % (width, "point", "ratio", "won",
                                  "identical"))
    for key, res in results.items():
        print("%-*s  %7.3f  %2d/%-2d  %s"
              % (width, key, res["median_ratio"], res["rounds_won"],
                 res["rounds"], "yes" if res["identical"] else "NO"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"parent": args.parent, "rounds": args.rounds,
                       "best_of": args.best_of, "shrink": args.shrink,
                       "host": {"python": platform.python_version(),
                                "platform": platform.platform(),
                                "nproc": os.cpu_count(),
                                "loadavg": list(os.getloadavg())},
                       "points": results}, fh, indent=1)
            fh.write("\n")
    return results


if __name__ == "__main__":
    main()
