import itertools
import math
import os
import random
import warnings

import pytest

from lzguess.seqcore import Alphabet, BitSource, BudgetError, DyadicProb, SymbolSeq
from lzguess.fsgm import (FSGMSpec, TreeFSGMSpec, automaton,
                          build_fig1_machine, expand_tree_machine,
                          format_machine,
                          output_distribution, parse_machine, run,
                          sequence_prob)
from lzguess.guessers import (Guesser, compile_block_guesser_to_fsgm,
                              play_counts, run_game)
from lzguess.bounds import block_entropy
from lzguess.cli import main
from conftest import FixedBits, all_seqs, seq
from oracles import (fig1_word_expansion, sampler_law,
                     sequence_prob_per_state, tree_run)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

B01 = Alphabet(("0", "1"))
ABC = Alphabet(("a", "b", "c"))


def uniform_machine():
    return FSGMSpec(B01, ["z"], "z", {"z": 1}, {"z": [(0, "z"), (1, "z")]},
                    name="uniform1")


def test_run_one_state_machine():
    spec = uniform_machine()
    trace = run(spec, FixedBits("011"), 3)
    assert trace.output.render() == "011"
    assert trace.bits_consumed == 3
    assert trace.cursors == [0, 1, 2, 3]
    assert trace.words == ["0", "1", "1"]
    assert trace.states == ["z"] * 4


def test_run_idle_machine_consumes_no_bits():
    spec = FSGMSpec(B01, ["p", "q"], "p",
                    {"p": 0, "q": 0},
                    {"p": [(0, "q")], "q": [(1, "p")]}, name="flip")
    trace = run(spec, FixedBits(""), 6)
    assert trace.output.render() == "010101"
    assert trace.bits_consumed == 0


def test_totality_validation():
    with pytest.raises(ValueError, match="total"):
        FSGMSpec(B01, ["z"], "z", {"z": 2}, {"z": [(0, "z")]})
    with pytest.raises(ValueError, match="initial"):
        FSGMSpec(B01, ["z"], "w", {"z": 0}, {"z": [(0, "z")]})


def test_unreachable_states_pruned_with_warning():
    with pytest.warns(UserWarning, match="unreachable"):
        spec = FSGMSpec(B01, ["a", "b"], "a", {"a": 0, "b": 0},
                        {"a": [(0, "a")], "b": [(1, "b")]})
    assert spec.state_count == 1


# --- exact distributions ------------------------------------------------------

def test_uniform_distribution_n3():
    dist = output_distribution(uniform_machine(), 3)
    assert len(dist) == 8
    assert all(p == DyadicProb(1, 3) for p in dist.values())


def test_distribution_normalization_random_machines():
    for seed in range(5):
        spec = random_machine(3, seed)
        dist = output_distribution(spec, 5)
        total = DyadicProb.zero()
        for p in dist.values():
            total = total + p
        assert total == DyadicProb.one()


def test_deterministic_machine_point_mass():
    spec = FSGMSpec(B01, ["p", "q"], "p", {"p": 0, "q": 0},
                    {"p": [(0, "q")], "q": [(1, "p")]})
    dist = output_distribution(spec, 4)
    assert dist[seq("0101", B01)] == DyadicProb.one()
    assert len(dist) == 1


def test_sequence_prob_matches_enumeration():
    for seed in range(3):
        spec = random_machine(3, seed)
        dist = output_distribution(spec, 6)
        for x in all_seqs(B01, 6):
            expect = dist.get(x, DyadicProb.zero())
            assert sequence_prob(spec, x) == expect


def test_sequence_prob_unreachable_is_zero():
    fig1 = build_fig1_machine()
    x = SymbolSeq(fig1.alphabet, bytes([1, 0]))  # "ba": first symbol forced
    assert sequence_prob(fig1, x).is_zero()


@pytest.mark.parametrize("tokens", ["ba", "ab", "abcd"])
def test_target_over_another_alphabet_is_refused(tokens):
    # "ba" by index over {b, a} would read as "ab", which fig1 always opens
    # with; a target must be over the machine's own alphabet
    fig1 = build_fig1_machine()
    x = SymbolSeq.from_text("ba", Alphabet(tokens))
    with pytest.raises(ValueError, match="machine's alphabet"):
        sequence_prob(fig1, x)
    with pytest.raises(ValueError, match="machine's alphabet"):
        automaton(fig1, x)


def test_distribution_budget_guard():
    with pytest.raises(BudgetError, match="sequence_prob"):
        output_distribution(uniform_machine(), 40)


def random_machine(s, seed, max_delta=2, alphabet=B01):
    rng = random.Random(seed * 9173 + s)
    names = ["z%d" % i for i in range(s)]
    delta = {z: rng.randrange(0, max_delta + 1) for z in names}
    table = {}
    for z in names:
        rows = []
        for _ in range(1 << delta[z]):
            rows.append((rng.randrange(alphabet.size), rng.choice(names)))
        table[z] = rows
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return FSGMSpec(alphabet, names, names[0], delta, table,
                        name="rand-%d-%d" % (s, seed))


def idle_machine(rng, alphabet):
    """A random plain machine of 1 to 4 states, half of its rows idle
    (Delta = 0) on average, so that idle chains, idle cycles and an idle
    start row all occur."""
    names = ["z%d" % i for i in range(rng.randint(1, 4))]
    delta = {z: rng.choice((0, 0, 1, 2)) for z in names}
    table = {z: [(rng.randrange(alphabet.size), rng.choice(names))
                 for _ in range(1 << delta[z])] for z in names}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return FSGMSpec(alphabet, names, names[0], delta, table)


def test_sequence_prob_equals_the_per_state_pass_on_idle_rows():
    # every x with n <= 6 on 150 random machines, and on one made to
    # start idle and to end in an idle loop that runs into n
    tail = FSGMSpec(B01, "ABC", "A", {"A": 0, "B": 1, "C": 0},
                    {"A": [(0, "B")], "B": [(0, "A"), (1, "C")],
                     "C": [(1, "C")]})
    rng = random.Random(29)
    machines = [tail] + [idle_machine(rng, (B01, ABC)[k % 2])
                         for k in range(150)]
    cases = idle_starts = 0
    for spec in machines:
        idle_starts += spec.delta[spec.start] == 0
        for n in range(7):
            for x in all_seqs(spec.alphabet, n):
                assert sequence_prob(spec, x) == sequence_prob_per_state(
                    spec, x), (spec.names, spec.table, x.render())
                cases += 1
    assert cases > 80000 and idle_starts > 30
    assert sequence_prob(tail, seq("0111", B01)) == DyadicProb(1, 1)
    assert sequence_prob(tail, seq("0110", B01)).is_zero()


def test_sequence_prob_equals_the_per_state_pass_on_fig1_outputs():
    fig1 = build_fig1_machine()
    for n in list(range(1, 41)) + [64, 257, 1024, 4096]:
        x = run(fig1, BitSource(n), n).output
        q = sequence_prob(fig1, x)
        assert q == sequence_prob_per_state(fig1, x) > DyadicProb.zero()
        # one symbol changed near the end: an idle row or a reader misses
        bad = bytearray(x.indices)
        bad[-1] = (bad[-1] + 1) % 3
        miss = SymbolSeq(fig1.alphabet, bytes(bad))
        assert sequence_prob(fig1, miss) == sequence_prob_per_state(fig1,
                                                                    miss)


# --- tree machines -------------------------------------------------------------

def test_tree_expansion_inherits_labels():
    t = TreeFSGMSpec(B01, "z", {"z": {"0": ("0", "z"), "10": ("1", "z"),
                                      "11": ("0", "z")}})
    spec = expand_tree_machine(t)
    assert spec.delta == (2,)
    assert spec.table[0][0b00] == spec.table[0][0b01]


def test_tree_expansion_identity_on_full_tree():
    t = TreeFSGMSpec(B01, "z", {"z": {"00": ("0", "z"), "01": ("1", "z"),
                                      "10": ("1", "z"), "11": ("0", "z")}})
    spec = expand_tree_machine(t)
    assert spec.delta == (2,)
    assert [spec.table[0][w][0] for w in range(4)] == [0, 1, 1, 0]


def test_tree_expansion_distribution_equality():
    trees = {
        "p": {"0": ("0", "p"), "10": ("1", "q"), "11": ("0", "q")},
        "q": {"1": ("1", "p"), "00": ("0", "q"), "01": ("1", "p")},
    }
    t = TreeFSGMSpec(B01, "p", trees)
    spec = expand_tree_machine(t)
    for n in range(1, 7):
        # the tree semantics' law, each leaf of T(z) at 2**-depth
        oracle = sampler_law(lambda bits: tree_run(t, bits, n))
        assert output_distribution(spec, n) == oracle


def test_tree_run_matches_expansion_statistics():
    trees = {"z": {"0": ("0", "z"), "10": ("1", "z"), "11": ("0", "z")}}
    t = TreeFSGMSpec(B01, "z", trees)
    # the tree walk must never waste bits: word '0' costs one bit
    src = FixedBits("0" * 8)
    out = tree_run(t, src, 8)
    assert out.render() == "00000000"
    assert src.consumed == 8


def test_tree_validation_errors():
    with pytest.raises(ValueError, match="prefix-free"):
        TreeFSGMSpec(B01, "z", {"z": {"0": ("0", "z"), "01": ("1", "z")}})
    with pytest.raises(ValueError, match="unlabeled"):
        TreeFSGMSpec(B01, "z", {"z": {"0": ("0", "z"), "10": ("1", "z")}})


# --- the three-word example machine ---------------------------------------------

def test_fig1_all_zero_bits():
    spec = build_fig1_machine()
    out = run(spec, FixedBits("0" * 12), 6).output
    assert out.render() == "ababab"


def test_fig1_word_streams():
    spec = build_fig1_machine()
    # words 0,0 -> abab; the reads land on the final symbol of each word
    assert run(spec, FixedBits("0000", pad=True), 4).output.render() == "abab"
    # first read 11 -> the "ca" continuation
    assert run(spec, FixedBits("11", pad=True), 4).output.render() == "abca"
    # first read 10 -> "bac"
    assert run(spec, FixedBits("10", pad=True), 5).output.render() == "abbac"


def test_fig1_brute_force_four_bit_inputs():
    spec = build_fig1_machine()
    for bits4 in itertools.product("01", repeat=4):
        text = "".join(bits4)
        expected = fig1_word_expansion(text, n_words=2)
        got = run(spec, FixedBits(text, pad=True), len(expected)).output
        assert got.render() == expected


def test_fig1_first_two_symbols_forced():
    spec = build_fig1_machine()
    dist = output_distribution(spec, 2)
    ab = SymbolSeq(spec.alphabet, bytes([0, 1]))
    assert dist[ab] == DyadicProb.one()


# --- machine description files ---------------------------------------------------

def test_machine_file_roundtrip():
    for spec, n in ((build_fig1_machine(), 6),
                    (compile_block_guesser_to_fsgm(3, B01), 7)):
        back = parse_machine(format_machine(spec))
        assert back.alphabet == spec.alphabet
        assert back.names == spec.names
        assert back.delta == spec.delta
        assert back.table == spec.table
        assert output_distribution(back, n) == output_distribution(spec, n)


@pytest.mark.parametrize("tokens,state", [
    (("a", "b", "ab"), "z"), (("x y", "z"), "z"), ((0, 1, 2), "z"),
    (("a", " "), "z"), (("a", "#"), "z"), (("a", "b"), "z 1"),
    (("a", "b"), "z#"), (("a", "b"), "initial")])
def test_machine_file_refuses_what_it_cannot_read_back(tokens, state):
    spec = FSGMSpec(Alphabet(tokens), [state], state, {state: 1},
                    {state: [(0, state), (1, state)]})
    with pytest.raises(ValueError, match="machine files need"):
        format_machine(spec)


def test_machine_file_rejects_partial_tables():
    text = "alphabet 01\ninitial z\nz 0 0 z\n"
    with pytest.raises(ValueError, match="rows"):
        parse_machine(text)


def test_machine_file_rejects_mixed_word_lengths():
    text = "alphabet 01\ninitial z\nz 0 0 z\nz 10 1 z\n"
    with pytest.raises(ValueError, match="word lengths"):
        parse_machine(text)


@pytest.mark.parametrize("text,message", [
    ("alphabet ab\ninitial A\nA 0 a A\nA 1 b A\nA 0 b A\n",
     "line 5: state A has a second row for word 0"),
    ("alphabet ab\ninitial A\nA - a A\nA - b A\n",
     "line 4: state A has a second row for word -"),
    ("alphabet ab\ninitial A extra junk\nA - a A\n",
     "line 2: 'initial' takes one value, got 3"),
    ("alphabet ab cd\ninitial A\nA - a A\n",
     "line 1: 'alphabet' takes one value, got 2"),
])
def test_machine_file_rejects_repeated_rows_and_header_junk(text, message,
                                                            tmp_path, capsys):
    # each was read as another machine without an error
    with pytest.raises(ValueError) as err:
        parse_machine(text)
    assert str(err.value) == message
    path = tmp_path / "m.fsm"
    path.write_text(text)
    assert main(["fsgm-run", "--machine", str(path), "--n", "1",
                 "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == "error: " + message


def test_machine_files_written_and_shipped_still_parse():
    text = format_machine(build_fig1_machine())
    assert parse_machine(text).table == build_fig1_machine().table
    # a trailing comment on a header line is not a second value
    assert parse_machine(text.replace("\n", "  # note\n", 2)).table == \
        build_fig1_machine().table
    for path in ("demos/three_word_machine.fsm", "perfbench/data/fig1.fsm"):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            spec = parse_machine(fh.read())
        assert output_distribution(spec, 6) == \
            output_distribution(build_fig1_machine(), 6)


# --- guessing against a machine ---------------------------------------------------

def fsgm_guesser(spec, n):
    return Guesser("fsgm", spec.alphabet, n, spec=spec)


def test_simulate_guessing_deterministic_match():
    spec = FSGMSpec(B01, ["p"], "p", {"p": 0}, {"p": [(1, "p")]})
    x = seq("111", B01)
    samples = play_counts(fsgm_guesser(spec, 3), x, rounds=20, seed=1, cap=10)
    assert samples == [1] * 20


def test_simulate_guessing_unreachable_target():
    spec = FSGMSpec(B01, ["p"], "p", {"p": 0}, {"p": [(1, "p")]})
    with pytest.raises(ValueError, match="zero-probability"):
        run_game(fsgm_guesser(spec, 1), seq("0", B01), rounds=5, seed=1,
                 cap=10)


def test_simulate_guessing_geometric_mean():
    spec = uniform_machine()
    x = seq("01", B01)
    rounds, cap = 20000, 1 << 16
    samples = play_counts(fsgm_guesser(spec, 2), x, rounds=rounds, seed=3,
                          cap=cap)
    assert all(g <= cap for g in samples)      # no round censored
    mean = sum(samples) / rounds
    # q = 1/4: mean 4, sd sqrt(12); 3 sigma band
    assert abs(mean - 4.0) <= 3 * math.sqrt(12.0 / rounds)


def test_simulate_guessing_tail_matches_geometric():
    spec = uniform_machine()
    x = seq("00", B01)
    rounds = 20000
    samples = play_counts(fsgm_guesser(spec, 2), x, rounds=rounds, seed=5,
                          cap=1 << 16)
    q = 0.25
    for k in (2, 5, 10):
        emp = sum(1 for g in samples if g >= k) / rounds
        expect = (1 - q) ** (k - 1)
        sigma = math.sqrt(expect * (1 - expect) / rounds)
        assert abs(emp - expect) <= 3.5 * sigma


def test_trace_satisfies_recursion_invariants():
    for sd in range(4):
        spec = random_machine(3, sd)
        bits = BitSource(77, substream=sd)
        trace = run(spec, bits, 24)
        idx = {z: i for i, z in enumerate(spec.names)}
        assert trace.cursors[0] == 0
        for i in range(24):
            z = idx[trace.states[i]]
            d = spec.delta[z]
            assert trace.cursors[i + 1] - trace.cursors[i] == d
            assert len(trace.words[i]) == d
            w = int(trace.words[i], 2) if d else 0
            out, nxt = spec.table[z][w]
            assert trace.output[i] == out
            assert trace.states[i + 1] == spec.names[nxt]
        assert trace.bits_consumed == sum(
            spec.delta[idx[z]] for z in trace.states[:-1])


# --- the hidden-Markov entropy inequality -----------------------------------------

def test_entropy_converse_inequality_small_machines():
    # -log2 P(x^8) >= (8/ell) * [H_ell(x^8) - log2(s^3 e)] for ell | 8
    for s, seeds in ((2, range(5)), (3, range(5))):
        for sd in seeds:
            spec = random_machine(s, sd)
            dist = output_distribution(spec, 8)
            sc = spec.state_count
            slack = math.log2(sc ** 3 * math.e)
            for x, p in dist.items():
                if p.is_zero():
                    continue
                lhs = -p.log2()
                for ell in (2, 4):
                    rhs = (8 / ell) * (block_entropy(x, ell) - slack)
                    assert lhs >= rhs - 1e-9
