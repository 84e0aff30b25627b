"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

The smoke test runs every workload once at tiny sizes, untraced and traced,
with all output checks and the replay check (a few seconds).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from checks import lz78_parse, condense  # noqa: E402
from run import CAL_REF_S, END_TO_END, scaled_times  # noqa: E402
from tracer import HIGHER_IS_BETTER, PER_LAYER, Tracer, fit_slope  # noqa: E402


def test_smoke_every_workload():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert proc.stdout.count(" ok ") == 2 * len(jobs.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mc_game", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    for m in spec["per_layer"]:
        want = "higher" if m["name"] in HIGHER_IS_BETTER else "lower"
        assert m["better"] == want, m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_lz78_reference_parse():
    text = "abbabaabbaaabaa"   # phrases a|b|ba|baa|bb|aa|ab|aa
    phrases, complete, bits = lz78_parse(["ab".index(c) for c in text], 2)
    assert (phrases, complete) == (8, 7)
    # complete phrase j costs ceil(log2 j) + 1 bits; the tail ceil(log2 8)
    assert bits == sum((j - 1).bit_length() + 1 for j in range(1, 8)) + 3


def test_inputs_depend_only_on_the_seed():
    spec = {"kind": "noisy", "n": 512, "of": "x", "flip": 0.1,
            "stream": "y"}
    assert jobs.render_input(spec, 5) == jobs.render_input(spec, 5)
    assert jobs.render_input(spec, 5) != jobs.render_input(spec, 6)
    out = jobs.machine_output(jobs._rng(3, "m"), 40)
    assert len(out) == 40 and out.startswith("ab")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_plans_are_deterministic(workload):
    def q_log2(guesser, text):
        return -9.0

    a = jobs.plan(workload, 11, "smoke", exact_q_log2=q_log2)
    b = jobs.plan(workload, 11, "smoke", exact_q_log2=q_log2)
    assert a == b
    assert all(j["argv"][-2:] == ["--out-dir", "runs"] for j in a["jobs"])


def test_fit_slope_and_condense():
    assert fit_slope([(n, 3.0 * n * n) for n in (16, 32, 64)]) == \
        pytest.approx(2.0)
    assert fit_slope([(16, 1.0)]) == 0.0
    long_ints = list(range(100))
    assert condense({"a": long_ints})["a"]["len"] == 100
    assert condense([0.5] * 100) == [0.5] * 100


def test_scaled_times_follow_the_calibration_loop():
    jobs_ = [{"wall_s": 1.0}, {"wall_s": 3.0}]
    at_ref = {"setup_s": 0.2, "cal_s": [CAL_REF_S] * 3, "jobs": jobs_}
    assert scaled_times(at_ref) == pytest.approx({"setup_s": 0.2,
                                                  "wall_s": 4.0})
    # a host at half speed: every time and every loop time doubles
    slow = {"setup_s": 0.4, "cal_s": [2 * CAL_REF_S] * 3,
            "jobs": [{"wall_s": 2.0}, {"wall_s": 6.0}]}
    assert scaled_times(slow) == pytest.approx(scaled_times(at_ref))


def test_forward_digests_ignore_layer_and_repeats():
    tracer = Tracer({"jobs": []})
    tracer.forward_passes_by_job = {
        "j": [["guessers.lz_guess_prob", 8, 3, "ab"],
              ["guessers.lz_guess_prob", 8, 3, "ab"],
              ["fsgm.sequence_prob", 4, 1, "cd"]],
        "k": [["fsgm.sequence_prob", 8, 3, "ab"]]}
    assert tracer.forward_digests() == {"j": [(4, 1, "cd"), (8, 3, "ab")],
                                        "k": [(8, 3, "ab")]}
