"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import itertools
import math
import random
from fractions import Fraction

from lzguess.seqcore import (Alphabet, BitSource, DyadicProb, SymbolSeq,
                             generate_corpus)
from lzguess.lz78 import c_max_oracle, incremental_parse
from lzguess.fsgm import build_fig1_machine, fig1_word_expansion, \
    output_distribution, run as fsgm_run
from lzguess.guessers import (Guesser, compile_block_guesser_to_fsgm,
                              block_guess_prob, lz_guess_prob, moment_exact,
                              moment_lower_bound, survival_curve)
from lzguess.bounds import block_entropy, sandwich, sandwich_sweep
from lzguess.sideinfo import (cond_code, cond_decode, cond_guess_prob,
                              joint_parse)
from conftest import FixedBits, all_seqs

B01 = Alphabet(("0", "1"))
AB = Alphabet(("a", "b"))


def _report(num, text):
    print("PASS criterion %d: %s" % (num, text))


def test_criterion_01_parse_example_string():
    r = incremental_parse(SymbolSeq.from_text("abbabaabbaaabaa", AB))
    assert r.phrase_texts() == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
    assert r.c_lz == 8
    assert r.last_complete is False
    _report(1, "incremental parse of the 15-symbol example gives "
               "a,b,ba,baa,bb,aa,ab,aa with c_lz=8, incomplete tail")


def test_criterion_02_kraft_suite():
    for n in range(1, 13):
        total = Fraction(0)
        for x in all_seqs(B01, n):
            total += Fraction(1, 2 ** incremental_parse(x).code_length_bits)
        assert total <= 1, n
    for n in range(1, 9):
        total = DyadicProb.zero()
        for x in all_seqs(B01, n):
            total = total + lz_guess_prob(x)
        assert total == DyadicProb.one(), n
    _report(2, "code-length Kraft sums <= 1 for n=1..12; sampler "
               "probabilities sum to exactly 1 (dyadic) for n=1..8")


def test_criterion_03_dominance():
    for n in range(1, 11):
        for x in all_seqs(B01, n):
            q = lz_guess_prob(x)
            L = incremental_parse(x).code_length_bits
            assert q.as_fraction() >= Fraction(1, 2 ** L), (n, x)
    rng = random.Random(303)
    for _ in range(1000):
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(256)))
        assert -lz_guess_prob(x).log2() <= incremental_parse(x).code_length_bits + 1e-9
    _report(3, "guess probability >= 2^-code_length, exhaustive n<=10 and "
               "1000 random n=256 sequences")


def _geometric_sample(q, bits):
    u = 1.0 - bits.next_float()          # in (0, 1]
    if u >= 1.0:
        return 1
    g = int(math.log(u) / math.log1p(-q)) + 1
    return max(g, 1)


def test_criterion_04_moment_correctness():
    for q in [i / 40 for i in range(1, 40)]:
        for zeta, closed in ((1.0, 1 / q), (2.0, (2 - q) / q ** 2)):
            got = moment_exact(q, zeta, force_series=True)
            assert abs(got.value - closed) / closed < 1e-12 + got.rel_err
            assert moment_exact(q, zeta).value == closed
    rounds = 100000
    for q in (0.5, 0.1, 0.01):
        bits = BitSource(404)
        mean = sum(_geometric_sample(q, bits) for _ in range(rounds)) / rounds
        sigma = math.sqrt((1 - q) / q ** 2 / rounds)
        assert abs(mean - 1 / q) <= 3 * sigma, q
    rng = random.Random(405)
    for _ in range(1000):
        q = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
        zeta = rng.uniform(0.25, 3.0)
        assert moment_lower_bound(q, zeta) <= moment_exact(q, zeta).value
    _report(4, "series matches closed forms to 1e-12; Monte-Carlo means "
               "within 3 sigma at q=0.5/0.1/0.01; lower bound holds on "
               "1000 random (q, zeta) pairs")


def test_criterion_05_sandwich_ordering():
    corpora = {
        "periodic(ab)": generate_corpus("periodic", 4096, pattern="ab"),
        "thue_morse": generate_corpus("thue_morse", 4096),
        "bernoulli(0.5)": generate_corpus("bernoulli", 4096, p=0.5, seed=7),
    }
    measured_z1 = {}
    for name, x in corpora.items():
        g = Guesser("lz_full", x.alphabet, len(x))
        for zeta in (0.5, 1.0, 2.0):
            for s in (2, 4):
                rep = sandwich(x, zeta, s, g, sequence_id=name)
                assert rep.converse_entropy <= rep.measured + 1e-12, (name, zeta, s)
                assert rep.converse_clogc <= rep.measured + 1e-12, (name, zeta, s)
                assert rep.measured <= rep.direct + 1e-12, (name, zeta, s)
                if zeta == 1.0:
                    measured_z1[name] = rep.measured
    assert measured_z1["periodic(ab)"] <= 0.15
    assert measured_z1["bernoulli(0.5)"] >= 0.8
    _report(5, "converse <= measured <= direct on 3 corpora x zeta "
               "{0.5,1,2} x s {2,4}; periodic exponent %.3f <= 0.15, "
               "random exponent %.3f >= 0.8"
               % (measured_z1["periodic(ab)"], measured_z1["bernoulli(0.5)"]))


def test_criterion_06_block_guesser_realizability():
    spec = compile_block_guesser_to_fsgm(2, B01)
    dist = output_distribution(spec, 4)
    for x in all_seqs(B01, 4):
        assert dist.get(x, DyadicProb.zero()) == block_guess_prob(x, 2), x
    assert spec.state_count <= 2 * 2 ** 2
    _report(6, "compiled ell=2 machine matches the block product law "
               "exactly (dyadic) on all 16 length-4 sequences; %d states "
               "<= ell*alpha^ell = 8" % spec.state_count)


def test_criterion_07_hidden_markov_converse():
    from test_fsgm import random_machine
    count = 0
    for s, seeds in ((2, range(5)), (3, range(5, 10))):
        for sd in seeds:
            spec = random_machine(s, sd)
            dist = output_distribution(spec, 8)
            slack = math.log2(spec.state_count ** 3 * math.e)
            for x, p in dist.items():
                if p.is_zero():
                    continue
                lhs = -p.log2()
                for ell in (2, 4):
                    rhs = (8 / ell) * (block_entropy(x, ell) - slack)
                    assert lhs >= rhs - 1e-9, (spec.name, x, ell)
            count += 1
    assert count == 10
    _report(7, "-log2 P(x^8) >= (8/ell)[H_ell - log2(s^3 e)] for all "
               "positive-probability outputs of 10 random machines, "
               "ell in {2,4}")


def test_criterion_08_fig1_machine():
    spec = build_fig1_machine()
    for bits4 in itertools.product("01", repeat=4):
        text = "".join(bits4)
        expected = fig1_word_expansion(text, n_words=2)
        got = fsgm_run(spec, FixedBits(text, pad=True), len(expected)).output
        assert got.render() == expected, text
    assert fsgm_run(spec, FixedBits("0000", pad=True),
                    4).output.render() == "abab"
    _report(8, "all 16 four-bit inputs reproduce the word-mapping "
               "concatenations (words 0,0 -> abab) under the documented "
               "timing convention")


def test_criterion_09_side_information():
    for x in (generate_corpus("periodic", 4096, pattern="ab"),
              generate_corpus("thue_morse", 4096),
              generate_corpus("bernoulli", 4096, p=0.5, seed=7)):
        assert joint_parse(x, x).u == 0.0
    n = 6
    for y in all_seqs(B01, n):
        kraft = Fraction(0)
        for x in all_seqs(B01, n):
            code = cond_code(x, y)
            assert cond_decode(code, y, n) == x, (x, y)
            kraft += Fraction(1, 2 ** len(code))
        assert kraft <= 1, y
    xb = generate_corpus("bernoulli", 4096, p=0.5, seed=7)
    ratio = len(cond_code(xb, xb)) / 4096
    assert ratio <= 0.25
    yb = generate_corpus("bernoulli", 4096, p=0.5, seed=8)
    xt = generate_corpus("thue_morse", 4096)
    for xx, yy in ((xb, xb), (xb, yb), (xt, xb), (xt, xt)):
        rep = sandwich_sweep(xx, [1.0], 2, Guesser(
            "lz_full", xx.alphabet, 4096, side=yy), ells=[4])[0]
        assert rep.ordering_ok, (rep.measured, rep.direct)
    _report(9, "u(x,x)=0 on corpora; conditional Kraft and exact round "
               "trips exhaustive at n=6; L(x|x)/n = %.3f <= 0.25; "
               "conditional sandwich ordering holds" % ratio)


def test_criterion_10_concentration_spot_check():
    x = SymbolSeq.from_text("0" * 16, B01)
    g = Guesser("lz_full", B01, 16)
    qf = float(lz_guess_prob(x))
    rounds = 100000
    curve = survival_curve(g, x, ks=(2, 10, 100), rounds=rounds, seed=1010,
                           cap=100)
    devs = {}
    for k, emp in curve.items():
        expect = (1 - qf) ** (k - 1)
        sigma = math.sqrt(expect * (1 - expect) / rounds)
        devs[k] = abs(emp - expect) / sigma
        assert devs[k] <= 3.0, (k, emp, expect)
    _report(10, "empirical Pr{G>=k} matches (1-q)^(k-1) at k=2/10/100 "
                "within 3 sigma (worst %.2f sigma) over 1e5 rounds"
                % max(devs.values()))


def test_criterion_11_oracle_consistency():
    for n in range(1, 11):
        for x in all_seqs(B01, n):
            assert incremental_parse(x).c_lz <= c_max_oracle(x) + 1, x
    rng = random.Random(1111)
    for _ in range(1000):
        n = rng.randrange(11, 15)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        assert incremental_parse(x).c_lz <= c_max_oracle(x) + 1, x
    _report(11, "c_lz <= c_max + 1 exhaustively for n<=10 and on 1000 "
                "random sequences with n in 11..14")
