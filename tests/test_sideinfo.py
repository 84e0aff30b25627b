import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lzguess.seqcore import (Alphabet, BitSource, DyadicProb, SymbolSeq,
                             generate_corpus, parse_corpus_spec)
from lzguess.lz78 import BitReader, DecodeError
from lzguess.fsgm import (FSGMSpec, automaton, build_fig1_machine,
                          run as fsgm_run, sequence_prob)
from lzguess.guessers import (Guesser, compile_automaton, make_runner,
                              play_counts)
from lzguess.bounds import (block_entropy, delta_n_at, direct_clogc,
                            sandwich_sweep)
from lzguess.sideinfo import (_JointDict, _cond_draws, chain_decode,
                              chain_encode, chain_gap_probs, chain_draw,
                              cond_code, cond_decode, cond_guess_prob,
                              cond_sample, epsilon1, joint_parse, pack_pairs)
from conftest import FixedBits, all_seqs, seq, xor_machine
from oracles import (block_law_per_block, chain_decode_per_bit,
                     cond_code_by_feed, sampler_law, sequence_prob_per_state)

AB = Alphabet(("a", "b"))
B01 = Alphabet(("0", "1"))
ABC = Alphabet(("a", "b", "c"))


def all_pairs(n, alphabet=B01):
    for x in all_seqs(alphabet, n):
        for y in all_seqs(alphabet, n):
            yield x, y


# --- joint parsing ------------------------------------------------------------

def test_joint_parse_example():
    jp = joint_parse(seq("abab", AB), seq("aaaa", AB))
    assert jp.c_xy == 3
    assert len(jp.c_j) == 2
    assert jp.c_j == [2, 1]
    assert jp.u == 2.0


def test_joint_parse_result_compares_and_prints_without_its_index():
    x, y = seq("abbab", AB), seq("aabba", AB)
    a = joint_parse(x, y)
    assert isinstance(a.index, _JointDict)
    for index in (joint_parse(x, y).index, None):
        b = a._replace(index=index)
        assert a == b and not a != b
    other = joint_parse(x, x)._replace(joint=a.joint)
    assert a != other and not a == other
    # the repr names the three compared fields only
    shown = a._replace(joint="J", index="INDEX")
    assert repr(shown) == "JointParseResult(joint='J', c_j=%r, u=%r)" % (
        a.c_j, a.u)


def test_pair_sequence_renders_each_pair_and_prints():
    # a pair token renders as its two tokens joined by a comma, one pair
    # per line, so a pair stream and a joint parse have a repr
    x, y = seq("abbab", AB), seq("01101", B01)
    pairs = pack_pairs(x, y)
    assert pairs.render() == "a,0\nb,1\nb,1\na,0\nb,1"
    assert repr(pairs) == "SymbolSeq(%r)" % pairs.render()
    assert "SymbolSeq('a,0\\nb,1" in repr(joint_parse(x, y))
    long = pack_pairs(generate_corpus("thue_morse", 40),
                      generate_corpus("periodic", 40, pattern="ab"))
    assert repr(long) == "SymbolSeq(n=40, 'a,a\\nb,b\\nb,a\\na,b\\n'...)"
    # a lines alphabet of strings renders its tokens as they are
    words = SymbolSeq(Alphabet(("ab", "c")), b"\x00\x01\x00")
    assert words.render() == "ab\nc\nab"


def test_u_of_x_given_x_is_zero():
    rng = random.Random(1)
    cases = [generate_corpus("periodic", 64, pattern="ab"),
             generate_corpus("thue_morse", 64),
             generate_corpus("bernoulli", 64, p=0.5, seed=4)]
    for _ in range(20):
        n = rng.randrange(1, 40)
        cases.append(SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n))))
    for x in cases:
        jp = joint_parse(x, x)
        assert jp.u == 0.0
        assert all(c == 1 for c in jp.c_j)


def test_counts_sum_to_phrase_count():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(1, 50)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        y = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        jp = joint_parse(x, y)
        assert sum(jp.c_j) == jp.c_xy


def test_u_at_most_c_log_c():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 60)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        y = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        jp = joint_parse(x, y)
        if jp.c_xy > 1:
            assert jp.u <= jp.c_xy * math.log2(jp.c_xy) + 1e-9


def test_pack_pairs_guard():
    big = Alphabet(tuple(range(20)))
    x = SymbolSeq(big, bytes(range(20)))
    with pytest.raises(ValueError, match="product"):
        pack_pairs(x, x)
    # the coder reads the parse of the packed pair stream
    with pytest.raises(ValueError, match="product"):
        cond_code(x, x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (2, 5), (16, 16), (2, 128), (128, 2),
                        (17, 15)])
       .flatmap(lambda ab: st.lists(
           st.tuples(st.integers(0, ab[0] - 1), st.integers(0, ab[1] - 1)),
           max_size=40).map(lambda pairs: (ab, pairs))))
def test_pack_pairs_equals_per_pair_packing(case):
    (alpha, beta), pairs = case
    x = SymbolSeq(Alphabet(tuple(range(alpha))), bytes(a for a, _ in pairs))
    y = SymbolSeq(Alphabet(tuple(range(beta))), bytes(b for _, b in pairs))
    packed = pack_pairs(x, y)
    assert packed.indices == bytes(a * beta + b for a, b in pairs)
    assert packed.alphabet.size == alpha * beta
    # the largest pair of a full product alphabet is byte 255
    top = SymbolSeq(x.alphabet, bytes([alpha - 1] * 3))
    assert pack_pairs(top, SymbolSeq(y.alphabet, bytes([beta - 1] * 3))
                      ).indices == bytes([alpha * beta - 1] * 3)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        joint_parse(seq("ab", AB), seq("a", AB))
    # an empty target has no draws to read, and is still checked
    for x, y in ((seq("", AB), seq("ab", AB)), (seq("ab", AB), seq("a", AB))):
        with pytest.raises(ValueError, match="equal length"):
            cond_guess_prob(x, y)


# --- the chain index code -------------------------------------------------------

def test_chain_code_complete_and_decodable():
    for L in range(1, 20):
        probs = chain_gap_probs(L)
        assert sum(p.as_fraction() for p in probs) == 1
        kraft = Fraction(0)
        for g in range(L):
            code = chain_encode(g, L)
            r = BitReader(code)
            assert chain_decode(r, L) == g and r.pos == len(code)
            assert probs[g].as_fraction() >= Fraction(1, 2 ** len(code))
            kraft += Fraction(1, 2 ** len(code))
        assert kraft <= 1
        assert len(chain_encode(0, L)) == (1 if L > 1 else 0)


def test_chain_decode_and_draw_read_one_layout():
    # the same bits through both readers: the decoder rejects a top-level
    # value past the chain exactly where the sampler folds it
    for L in range(1, 20):
        Z = L.bit_length() - 1
        for pattern in itertools.product("01", repeat=8):
            text = "".join(pattern)
            reader, fixed = BitReader(text), FixedBits(text)
            drawn = chain_draw(fixed, L)
            try:
                assert chain_decode(reader, L) == drawn
            except DecodeError:
                assert (1 << Z) - 1 <= drawn < L
            assert reader.pos == fixed.pos


def _chain_outcome(decoder, bits, skip, size):
    """The gap and reader position after one read from bit `skip`, or the
    message and bit position the read failed at."""
    reader = BitReader(bits)
    reader.pos = min(skip, len(bits))
    try:
        return decoder(reader, size), reader.pos
    except DecodeError as exc:
        return str(exc), exc.bit_position


@settings(max_examples=500, deadline=None)
@given(bits=st.text("01", max_size=40), skip=st.integers(0, 8),
       size=st.integers(1, 2000))
def test_chain_decode_equals_per_bit_read(bits, skip, size):
    assert (_chain_outcome(chain_decode, bits, skip, size)
            == _chain_outcome(chain_decode_per_bit, bits, skip, size))


def test_chain_draw_matches_probs():
    L = 6
    probs = chain_gap_probs(L)
    counts = [0] * L
    rounds = 40000
    for k in range(rounds):
        counts[chain_draw(BitSource(31, substream=k), L)] += 1
    for g in range(L):
        pf = float(probs[g])
        sigma = math.sqrt(pf * (1 - pf) / rounds)
        assert abs(counts[g] / rounds - pf) <= 3.5 * sigma


# --- conditional code ------------------------------------------------------------

def test_cond_roundtrip_exhaustive_n5():
    for n in range(0, 6):
        for x, y in all_pairs(n):
            code = cond_code(x, y)
            assert cond_decode(code, y, n) == x


def test_cond_roundtrip_random_longer():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(50, 300)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        y = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        assert cond_decode(cond_code(x, y), y, n) == x


def test_cond_roundtrip_ternary_x_binary_y():
    abc = Alphabet(("a", "b", "c"))
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randrange(5, 80)
        x = SymbolSeq(abc, bytes(rng.randrange(3) for _ in range(n)))
        y = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        assert cond_decode(cond_code(x, y), y, n, abc) == x


def test_cond_code_equals_feed_coder_exhaustive():
    for n in range(9):
        for x, y in all_pairs(n):
            assert cond_code(x, y) == cond_code_by_feed(x, y)
    for n in range(6):
        for x in all_seqs(ABC, n):
            for y in all_seqs(B01, n):
                assert cond_code(x, y) == cond_code_by_feed(x, y)


@settings(max_examples=300, deadline=None)
@given(alpha=st.integers(2, 16), beta=st.integers(2, 16), data=st.data())
def test_cond_code_equals_feed_coder_on_any_pair(alpha, beta, data):
    n = data.draw(st.integers(0, 200))
    x_alphabet = Alphabet(tuple("abcdefghijklmnop"[:alpha]))
    y_alphabet = Alphabet(tuple("ABCDEFGHIJKLMNOP"[:beta]))
    # few distinct symbols make long phrases, many make short ones
    x_top = data.draw(st.integers(0, alpha - 1))
    y_top = data.draw(st.integers(0, beta - 1))
    x = SymbolSeq(x_alphabet, bytes(data.draw(st.lists(
        st.integers(0, x_top), min_size=n, max_size=n))))
    y = SymbolSeq(y_alphabet, bytes(data.draw(st.lists(
        st.integers(0, y_top), min_size=n, max_size=n))))
    code = cond_code(x, y)
    assert code == cond_code_by_feed(x, y)
    assert cond_decode(code, y, n, x_alphabet) == x


def test_cond_kraft_per_y():
    for n in (3, 4, 5):
        for y in all_seqs(B01, n):
            total = Fraction(0)
            for x in all_seqs(B01, n):
                total += Fraction(1, 2 ** len(cond_code(x, y)))
            assert total <= 1


def test_cond_decode_errors():
    x, y = seq("0011", B01), seq("0101", B01)
    code = cond_code(x, y)
    with pytest.raises(DecodeError):
        cond_decode(code[:-1], y, 4)
    with pytest.raises(DecodeError):
        cond_decode(code + "0", y, 4)


_FUZZ_Y = st.integers(2, 5).flatmap(
    lambda size: st.lists(st.integers(0, size - 1), max_size=20)
    .map(lambda idx: SymbolSeq(Alphabet(tuple("pqrst"[:size])), bytes(idx))))


@settings(max_examples=400, deadline=None)
@given(bits=st.text("01", max_size=60) | st.text("01 _2", max_size=10),
       y=_FUZZ_Y, n=st.integers(-1, 22), alpha=st.integers(2, 5))
def test_cond_decode_fuzz_rejects_cleanly_and_accepts_only_codes(
        bits, y, n, alpha):
    x_alphabet = Alphabet(tuple("abcde"[:alpha]))
    try:
        x = cond_decode(bits, y, n, x_alphabet)
    except ValueError:          # DecodeError included
        return
    assert len(x) == max(n, 0)
    assert cond_code(x, y[:len(x)]) == bits


@settings(max_examples=200, deadline=None)
@given(y=_FUZZ_Y, alpha=st.integers(2, 5), data=st.data())
def test_cond_code_decode_roundtrip_fuzz(y, alpha, data):
    x_alphabet = Alphabet(tuple("abcde"[:alpha]))
    idx = data.draw(st.lists(st.integers(0, alpha - 1), min_size=len(y),
                             max_size=len(y)))
    x = SymbolSeq(x_alphabet, bytes(idx))
    assert cond_decode(cond_code(x, y), y, len(x), x_alphabet) == x


def test_side_alphabet_larger_than_target_alphabet():
    # a side symbol with no counterpart in x's alphabet has no copy
    # candidate; code, decoder and exact law must still agree
    y = seq("cabcba", ABC)
    for n in range(1, 7):
        yn = y[:n]
        total = DyadicProb.zero()
        for x in all_seqs(B01, n):
            q = cond_guess_prob(x, yn)
            code = cond_code(x, yn)
            assert cond_decode(code, yn, n, B01) == x
            assert q.as_fraction() >= Fraction(1, 2 ** len(code))
            total = total + q
        assert total == DyadicProb.one()


def test_cond_code_self_is_cheap():
    x = generate_corpus("bernoulli", 4096, p=0.5, seed=7)
    assert len(cond_code(x, x)) / 4096 <= 0.25


def test_cond_length_envelope_on_corpora():
    n = 4096
    xb = generate_corpus("bernoulli", n, p=0.5, seed=7)
    yb = generate_corpus("bernoulli", n, p=0.5, seed=8)
    xt = generate_corpus("thue_morse", n)
    xp = generate_corpus("periodic", n, pattern="ab")
    budget = n * epsilon1(n)
    for x, y in ((xb, xb), (xb, yb), (xt, xt), (xp, xp), (xp, xb),
                 (xt, xb), (xb, xt), (xt, xp)):
        jp = joint_parse(x, y)
        assert len(cond_code(x, y)) <= jp.u + budget


# --- conditional sampler and guess probability ------------------------------------

@pytest.mark.parametrize("alpha, beta", itertools.product((2, 3), (2, 3, 4)))
def test_cond_guess_prob_is_the_sampler_law_on_every_short_pair(alpha, beta):
    # every pair up to n = 5; with beta > alpha the side symbols from
    # alpha on have no copy among x's symbols.  cond_sample's default x
    # alphabet, y's own, is drawn in test_cond_sample_empirical
    x_alphabet = Alphabet(tuple("abc"[:alpha]))
    y_alphabet = Alphabet(tuple("0123"[:beta]))
    for n in range(1, 6):
        xs = list(all_seqs(x_alphabet, n))
        for y in all_seqs(y_alphabet, n):
            law = sampler_law(lambda bits: cond_sample(y, n, bits,
                                                       x_alphabet))
            assert set(law) <= set(xs)
            assert sum(law.values(), DyadicProb.zero()) == DyadicProb.one()
            for x in xs:
                assert cond_guess_prob(x, y) == law.get(
                    x, DyadicProb.zero()), (x.render(), y.render())


def test_cond_guess_prob_sums_to_one():
    for n in (3, 6):
        for y in all_seqs(B01, n):
            total = DyadicProb.zero()
            for x in all_seqs(B01, n):
                total = total + cond_guess_prob(x, y)
            assert total == DyadicProb.one()


def test_cond_dominance_exhaustive():
    for n in range(1, 7):
        for x, y in all_pairs(n):
            q = cond_guess_prob(x, y)
            L = len(cond_code(x, y))
            assert q.as_fraction() >= Fraction(1, 2 ** L)


def test_cond_dominance_on_corpora():
    n = 4096
    xb = generate_corpus("bernoulli", n, p=0.5, seed=7)
    yb = generate_corpus("bernoulli", n, p=0.5, seed=8)
    xt = generate_corpus("thue_morse", n)
    for x, y in ((xb, xb), (xb, yb), (xt, xb)):
        assert -cond_guess_prob(x, y).log2() <= len(cond_code(x, y))


@pytest.mark.parametrize("beta", [2, 3], ids=["binary-side", "ternary-side"])
def test_cond_draws_answer_lengths_in_any_order(beta):
    # the draw rule is random access: asked for in reversed or in shuffled
    # order, each matched length gets the in-order answer
    rng = random.Random(20 + beta)
    side = Alphabet(tuple("012"[:beta]))
    for _ in range(40):
        n = rng.randrange(1, 48)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        y = SymbolSeq(side, bytes(rng.randrange(beta) for _ in range(n)))
        at = _cond_draws(x, y)
        want = [at(b) for b in range(n)]
        for order in (range(n - 1, -1, -1), rng.sample(range(n), n)):
            at = _cond_draws(x, y)
            assert {b: at(b) for b in order} == dict(enumerate(want))


def test_cond_guess_counts_pinned():
    # the count list that `sideinfo cond-guess --corpus-x thue_morse
    # --corpus-y periodic:abc --n 10 --rounds 200 --seed 11 --cap 10000`
    # plays; the automaton reads the draw rule, so a change to either
    # shows here.  The side has a symbol with no copy.  Recorded before
    # the rule read flat tables.
    x = parse_corpus_spec("thue_morse", 10)
    y = parse_corpus_spec("periodic:abc", 10)
    g = Guesser("lz_full", x.alphabet, 10, side=y)
    counts = play_counts(g, x, 200, seed=11, cap=10000)
    assert (sum(counts), max(counts)) == (83185, 2612)
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == (
        "489cf76bd46fdd5134b08e3cb289298544f18eb913363ced22e0d01cf7802ecc")


def test_cond_sample_empirical():
    y = seq("0110", B01)
    rounds = 60000
    counts = {}
    for k in range(rounds):
        out = cond_sample(y, 4, BitSource(23, substream=k))
        counts[out] = counts.get(out, 0) + 1
    for x in all_seqs(B01, 4):
        qf = float(cond_guess_prob(x, y))
        emp = counts.get(x, 0) / rounds
        sigma = math.sqrt(max(qf * (1 - qf), 1e-12) / rounds)
        assert abs(emp - qf) <= 3.8 * sigma


def test_cond_self_guessing_beats_unconditional():
    from lzguess.guessers import lz_guess_prob
    for x in (generate_corpus("periodic", 64, pattern="ab"),
              generate_corpus("bernoulli", 64, p=0.5, seed=5)):
        q_cond = cond_guess_prob(x, x)
        q_plain = lz_guess_prob(x)
        assert q_cond > q_plain


def test_cond_block_product():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(1, 24)
        ell = rng.randrange(1, 7)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        y = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        expect = Fraction(1)
        for b in range(0, n, ell):
            e = min(b + ell, n)
            expect *= cond_guess_prob(x[b:e], y[b:e]).as_fraction()
        g = Guesser("lz_block", B01, n, ell=ell, side=y)
        assert g.guess_prob(x).as_fraction() == expect
    g = Guesser("lz_full", B01, n, side=y)
    assert g.guess_prob(x) == cond_guess_prob(x, y)


def test_cond_block_sample_runs():
    y = generate_corpus("bernoulli", 32, p=0.5, seed=6)
    out = Guesser("lz_block", y.alphabet, 32, ell=8, side=y).sample(
        BitSource(3))
    assert len(out) == 32
    # the blocks are independent cond_sample draws, one after the other
    bits = BitSource(3)
    assert out.indices == b"".join(
        cond_sample(y[b:b + 8], 8, bits, y.alphabet).indices
        for b in range(0, 32, 8))


def test_side_guesser_arguments():
    y = seq("abab", AB)
    with pytest.raises(ValueError, match="side length"):
        Guesser("lz_full", AB, 3, side=y)
    for kind, extra in (("uniform", {}),
                        ("fsgm", {"spec": build_fig1_machine()})):
        with pytest.raises(ValueError, match="LZ guesser"):
            Guesser(kind, AB, 4, side=y, **extra)
    assert Guesser("lz_full", AB, 4, side=y).describe() == "cond_lz_full"
    assert (Guesser("lz_block", AB, 4, ell=2, side=y).describe()
            == "cond_lz_block(ell=2)")


def test_sandwich_does_not_take_a_side_guesser_for_the_lz_sampler():
    # a side guesser is held to its own, conditional direct value: u(x, x)
    # = 0 here, so that value is zeta * epsilon1(n), and it applies
    x = generate_corpus("periodic", 64, pattern="ab")
    plain, cond = (sandwich_sweep(x, [1.0], 2, Guesser(
        "lz_full", x.alphabet, 64, side=side))[0] for side in (None, x))
    assert plain.direct_applies and cond.direct_applies
    assert cond.q_log2 == cond_guess_prob(x, x).log2() > plain.q_log2
    assert plain.direct == direct_clogc(x, 1.0)
    assert cond.complexity == 0.0
    assert cond.direct == epsilon1(64) != plain.direct
    assert cond.ordering_ok
    block = sandwich_sweep(x, [1.0], 2, Guesser(
        "lz_block", x.alphabet, 64, ell=8, side=x))[0]
    assert not block.direct_applies and block.direct == cond.direct


# --- conditional bounds -------------------------------------------------------------

def cond_sandwich(x, y, s, ells, zetas):
    """The conditional sandwich: :func:`sandwich_sweep` on a side guesser."""
    g = Guesser("lz_full", x.alphabet, len(x), side=y)
    return sandwich_sweep(x, zetas, s, g, ells=ells)


def cond_bounds(x, y, s, ell, zeta):
    return cond_sandwich(x, y, s, [ell], [zeta])[0]


def test_cond_bounds_self_clamps_and_orders():
    x = generate_corpus("bernoulli", 1024, p=0.5, seed=7)
    rep = cond_bounds(x, x, s=2, ell=4, zeta=1.0)
    assert rep.converse_clogc == 0.0
    assert rep.ordering_ok
    assert rep.complexity == 0.0


def test_cond_bounds_ordering_on_corpus_pairs():
    n = 1024
    xb = generate_corpus("bernoulli", n, p=0.5, seed=7)
    yb = generate_corpus("bernoulli", n, p=0.5, seed=8)
    xt = generate_corpus("thue_morse", n)
    xp = generate_corpus("periodic", n, pattern="ab")
    for x, y in ((xb, xb), (xb, yb), (xt, xb), (xp, xb), (xt, xt)):
        for zeta in (0.5, 1.0, 2.0):
            rep = cond_bounds(x, y, s=2, ell=4, zeta=zeta)
            assert rep.ordering_ok, (zeta, rep)


def test_cond_bounds_sweep_matches_single_calls():
    x = generate_corpus("bernoulli", 96, p=0.5, seed=1)
    y = generate_corpus("bernoulli", 96, p=0.5, seed=2)
    zetas, ells = (1.0, 1.5, 2.0), (1, 2, 5)
    with pytest.warns(UserWarning):
        sweep = cond_sandwich(x, y, 2, ells, zetas)
        single = [cond_bounds(x, y, 2, ell, zeta)
                  for zeta in zetas for ell in ells]
    assert [row for rep in sweep for row in rep.rows] == [
        rep.rows[0] for rep in single]
    for rep in sweep:
        assert rep.converse_entropy == max(r.converse_entropy
                                           for r in rep.rows)
        assert all(r.measured == rep.measured and r.direct == rep.direct
                   for r in rep.rows)


@pytest.mark.filterwarnings("ignore:eps_n")
def test_cond_bounds_fractional_zeta_random_ternary_pairs():
    # once a 5-minute stall: zeta = 1.5 at q above 2**-40 summed ~1/q terms
    from lzguess.guessers import moment_log2
    rng = random.Random(15)
    for k in range(20):
        n = rng.randrange(4, 41 if k < 15 else 301)
        x = SymbolSeq(ABC, bytes(rng.randrange(3) for _ in range(n)))
        y = SymbolSeq(ABC, bytes(rng.randrange(3) for _ in range(n)))
        rep = cond_bounds(x, y, 2, 1, 1.5)
        assert rep.q_log2 == cond_guess_prob(x, y).log2()
        # Jensen and Lyapunov: E[G]^1.5 <= E[G^1.5] <= E[G^2]^0.75
        lo = 1.5 * moment_log2(rep.q_log2, 1.0)
        hi = 0.75 * moment_log2(rep.q_log2, 2.0)
        assert lo <= rep.measured * n <= hi


def test_cond_bounds_independent_close_to_unconditional():
    # only meaningful in the well-sampled regime: at large ell the m = n/ell
    # joint blocks are almost all distinct and the empirical conditional
    # entropy collapses, so the comparison is made at ell = 2
    from lzguess.guessers import lz_guess_prob, moment_log2
    n = 4096
    x = generate_corpus("bernoulli", n, p=0.5, seed=7)
    y = generate_corpus("bernoulli", n, p=0.5, seed=8)
    rep = cond_bounds(x, y, s=2, ell=2, zeta=1.0)
    h_plain = block_entropy(x, 2)
    assert rep.rows[0].H_ell == pytest.approx(h_plain, abs=0.1)
    measured_plain = moment_log2(lz_guess_prob(x).log2(), 1.0) / n
    assert rep.measured == pytest.approx(measured_plain, abs=0.35)


def _oracle_rows(x, y, s, ells, zetas):
    """The conditional rows by the formulas written out inline, as they
    stood before the conditional bounds ran on :func:`sandwich_sweep`."""
    from lzguess.guessers import LOG2E, moment_log2
    n = len(x)
    u = joint_parse(x, y).u
    q_log2 = cond_guess_prob(x, y).log2()
    pair_alpha = x.alphabet.size * y.alphabet.size
    rows = []
    for zeta in zetas:
        measured = moment_log2(q_log2, zeta) / n
        for ell in ells:
            h = block_entropy(pack_pairs(x, y), ell) - block_entropy(y, ell)
            conv_h = max(zeta * (h - 3 * math.log2(s) - LOG2E) / ell
                         - (2 * LOG2E + zeta) / n, 0.0)
            conv_u = max(zeta * (u / n - delta_n_at(n, pair_alpha, s, zeta,
                                                    ell)), 0.0)
            rows.append((zeta, ell, u, h, q_log2, measured, conv_h, conv_u,
                         zeta * (u / n + epsilon1(n))))
    return rows


@pytest.mark.filterwarnings("ignore:eps_n")
@pytest.mark.parametrize("xspec,yspec,n,alphabets", [
    ("bernoulli:0.3:5", "thue_morse", 512, (2, 2)),
    ("thue_morse", "bernoulli:0.3:5", 512, (2, 2)),
    ("thue_morse", "bernoulli:0.5:8", 96, (2, 2)),
    ("bernoulli:0.5:1", "bernoulli:0.5:1", 64, (2, 2)),
    ("ternary", "binary", 90, (3, 2)),
], ids=["bern-thue", "thue-bern", "thue-bern96", "copy", "ternary"])
def test_cond_sandwich_matches_the_old_formulas(xspec, yspec, n, alphabets):
    from lzguess.seqcore import parse_corpus_spec
    rng = random.Random(n)
    pick = {"ternary": ABC, "binary": B01}
    x, y = (SymbolSeq(pick[spec], bytes(rng.randrange(size)
                                        for _ in range(n)))
            if spec in pick else parse_corpus_spec(spec, n)
            for spec, size in zip((xspec, yspec), alphabets))
    zetas, ells = (0.5, 1.0, 1.5, 3.0), [1, 2, 3, 4, 5]
    truncated = {"ell=%d does not divide n=%d; truncating the tail"
                 % (ell, n) for ell in ells if n % ell}
    assert truncated
    for s in (1, 2, 4):
        with pytest.warns(UserWarning, match="truncating") as caught:
            reports = cond_sandwich(x, y, s, ells, zetas)
            want = _oracle_rows(x, y, s, ells, zetas)
        assert {str(w.message) for w in caught
                if "truncating" in str(w.message)} == truncated
        got = [(rep.zeta, row.ell, rep.complexity, row.H_ell, rep.q_log2,
                row.measured, row.converse_entropy, row.converse_clogc,
                row.direct) for rep in reports for row in rep.rows]
        assert len(got) == len(want) == len(zetas) * len(ells)
        for g, w in zip(got, want):
            assert g[:6] == w[:6] and g[7:] == w[7:], (g, w)
            assert g[6] == pytest.approx(w[6], rel=1e-15, abs=0.0), (g, w)
        assert all(rep.s == s and rep.direct_applies for rep in reports)


# --- machines that read side information ------------------------------------

def lift(plain, side_alphabet):
    """The plain machine as a side machine that ignores y."""
    keys = [(zi, (z, b)) for zi, z in enumerate(plain.names)
            for b in range(side_alphabet.size)]
    return FSGMSpec(
        plain.alphabet, plain.names, plain.initial,
        {key: plain.delta[zi] for zi, key in keys},
        {key: [(out, plain.names[nxt]) for out, nxt in plain.table[zi]]
         for zi, key in keys},
        name="lifted-" + (plain.name or "fsgm"), side_alphabet=side_alphabet)


def copy_machine(alphabet):
    """Delta = 0 everywhere; the output symbol is the side symbol."""
    return FSGMSpec(alphabet, ["z"], "z",
                    {("z", b): 0 for b in range(alphabet.size)},
                    {("z", b): [(b, "z")] for b in range(alphabet.size)},
                    name="copy", side_alphabet=alphabet)


def test_lifted_machine_equals_plain_run():
    plain = FSGMSpec(B01, ["z"], "z", {"z": 1}, {"z": [(0, "z"), (1, "z")]})
    lifted = lift(plain, B01)
    y = seq("0101", B01)
    out_plain = fsgm_run(plain, FixedBits("0110"), 4)
    out_cond = fsgm_run(lifted, FixedBits("0110"), 4, side=y)
    assert out_plain == out_cond
    for x in all_seqs(B01, 4):
        assert sequence_prob(lifted, x, y) == sequence_prob(plain, x)


def test_copy_machine_reproduces_y():
    spec = copy_machine(B01)
    y = seq("011010", B01)
    out = fsgm_run(spec, FixedBits(""), 6, side=y).output
    assert out == y
    assert sequence_prob(spec, y, y) == DyadicProb.one()
    other = seq("011011", B01)
    assert sequence_prob(spec, other, y).is_zero()


def test_cond_fsgm_forward_matches_enumeration():
    # 2-state machine that reads one bit and xors it with y
    spec = xor_machine()
    y = seq("0110", B01)
    total = DyadicProb.zero()
    law = sampler_law(lambda bits: fsgm_run(spec, bits, 4, side=y).output)
    for x in all_seqs(B01, 4):
        got = sequence_prob(spec, x, y)
        assert got == law.get(x, DyadicProb.zero())
        total = total + got
    assert total == DyadicProb.one()


def test_side_machine_laws_equal_the_per_state_pass():
    # the lifted example machine (idle rows per side symbol), the copy
    # machine (idle everywhere, so every chain runs into n) and the xor
    # machine, on every pair up to n = 5
    fig1 = build_fig1_machine()
    for spec in (lift(fig1, B01), copy_machine(B01), copy_machine(ABC),
                 xor_machine()):
        side = spec.side_alphabet
        for n in range(6):
            for y in all_seqs(side, n):
                for x in all_seqs(spec.alphabet, n):
                    assert sequence_prob(spec, x, y) == \
                        sequence_prob_per_state(spec, x, y)


def test_cond_fsgm_run_requires_divisibility():
    # a side machine reads one side symbol per output symbol: a side shorter
    # than n, a side over another alphabet, or none at all is refused, and
    # a plain machine takes no side
    spec = xor_machine()
    x = seq("0101", B01)
    for side in (seq("010", B01), seq("abab", AB)):
        for call in (lambda: fsgm_run(spec, FixedBits(""), 4, side=side),
                     lambda: sequence_prob(spec, x, side),
                     lambda: automaton(spec, x, side)):
            with pytest.raises(ValueError, match="length >= 4 over the side"):
                call()
    plain = build_fig1_machine()
    abab = seq("abab", ABC)
    for machine, target, side in ((spec, x, None), (plain, abab, abab)):
        with pytest.raises(ValueError, match="exactly when it has a side"):
            sequence_prob(machine, target, side)


def _blocks_of(alphabet, ell):
    """The ell-blocks over `alphabet` as bytes, in packing order."""
    return [bytes(t) for t in itertools.product(range(alphabet.size),
                                                repeat=ell)]


def _pack(s, ell, block_alphabet):
    """The ell-blocks of s as one symbol each over the block alphabet."""
    size = s.alphabet.size
    return SymbolSeq(block_alphabet, bytes(
        sum(c * size ** (ell - 1 - i)
            for i, c in enumerate(s.indices[b:b + ell]))
        for b in range(0, len(s), ell)))


def _random_block_machine(rng, ell, states):
    """An old-style ell-block conditional machine over binary x and y."""
    delta, table = {}, {}
    xblocks = _blocks_of(B01, ell)
    for z in states:
        for yb in _blocks_of(B01, ell):
            d = rng.randrange(3)
            delta[(z, yb)] = d
            table[(z, yb)] = [(rng.choice(xblocks), rng.choice(states))
                              for _ in range(1 << d)]
    return delta, table


@pytest.mark.filterwarnings("ignore:pruning")
@pytest.mark.parametrize("ell", [1, 2])
def test_block_machine_packed_law_equals_the_old_block_law(ell):
    # an ell-block conditional machine is a side machine over the block
    # alphabets: pack x and y into 2**ell-symbol blocks and compare laws
    rng = random.Random(40 + ell)
    xs_alpha = Alphabet(tuple(range(1 << ell)))
    ys_alpha = Alphabet(tuple(range(1 << ell)))
    for trial in range(3):
        states = ["s%d" % i for i in range(1 + trial)]
        delta, table = _random_block_machine(rng, ell, states)
        keys = [(z, yi, yb) for z in states
                for yi, yb in enumerate(_blocks_of(B01, ell))]
        spec = FSGMSpec(
            xs_alpha, states, "s0",
            {(z, yi): delta[(z, yb)] for z, yi, yb in keys},
            {(z, yi): [(_pack(SymbolSeq(B01, xb), ell, xs_alpha)[0], nxt)
                       for xb, nxt in table[(z, yb)]]
             for z, yi, yb in keys},
            side_alphabet=ys_alpha)
        for n in range(ell, 7, ell):
            for y in all_seqs(B01, n):
                total = DyadicProb.zero()
                for x in all_seqs(B01, n):
                    got = sequence_prob(spec, _pack(x, ell, xs_alpha),
                                        _pack(y, ell, ys_alpha))
                    assert got == block_law_per_block(ell, "s0", delta, table,
                                                 x, y)
                    total = total + got
                assert total == DyadicProb.one()


@pytest.mark.filterwarnings("ignore:eps_n")
def test_copy_machine_sandwich_measures_zero():
    x = generate_corpus("periodic", 8, pattern="ab")
    g = Guesser("fsgm", x.alphabet, 8, spec=copy_machine(x.alphabet), side=x)
    assert g.describe() == "cond_fsgm(copy)"
    for rep in sandwich_sweep(x, [1.0, 2.0], 2, g):
        assert rep.q_log2 == 0.0 and rep.measured == 0.0
        assert rep.complexity == 0.0 and not rep.direct_applies
        assert rep.ordering_ok


def test_lifted_fig1_guesser_gives_the_plain_law():
    fig1 = build_fig1_machine()
    lifted = lift(fig1, B01)
    y = generate_corpus("bernoulli", 12, p=0.5, seed=3)
    y = SymbolSeq(B01, y.indices)
    plain = Guesser("fsgm", fig1.alphabet, 12, spec=fig1)
    side = Guesser("fsgm", fig1.alphabet, 12, spec=lifted, side=y)
    outputs = {fsgm_run(fig1, BitSource(9, substream=k), 12).output
               for k in range(40)}
    assert len(outputs) > 5
    for x in outputs:
        assert side.guess_prob(x) == plain.guess_prob(x) > DyadicProb.zero()
    miss = seq("ab" * 6, ABC)
    assert side.guess_prob(miss) == plain.guess_prob(miss)


def test_side_machine_guesser_refusals():
    fig1 = build_fig1_machine()
    y = seq("0110", B01)
    for spec, side in ((xor_machine(), None), (fig1, y)):
        with pytest.raises(ValueError, match="or a side machine, and a side"):
            Guesser("fsgm", spec.alphabet, 4, spec=spec, side=side)
    with pytest.raises(ValueError, match="side length"):
        Guesser("fsgm", B01, 3, spec=xor_machine(), side=y)
    # targets and sides are read token by token over the machine's alphabets
    with pytest.raises(ValueError, match="not in the alphabet"):
        Guesser("fsgm", B01, 4, spec=xor_machine(), side=seq("abba", AB))
    g = Guesser("fsgm", B01, 4, spec=xor_machine(), side=y)
    with pytest.raises(ValueError, match="not in the alphabet"):
        g.guess_prob(seq("abba", AB))
    yb = Alphabet(("1", "0"))
    g = Guesser("fsgm", B01, 4, spec=xor_machine(),
                side=SymbolSeq.from_text("0110", yb))
    x = seq("1100", B01)
    assert g.guess_prob(x) == sequence_prob(xor_machine(), x, y)
    assert make_runner(compile_automaton(g, x))(BitSource(1)) == (
        g.sample(BitSource(1)) == x)
