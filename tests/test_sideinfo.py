import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lzguess.seqcore import (Alphabet, BitSource, DyadicProb, SymbolSeq,
                             forward, generate_corpus)
from lzguess.lz78 import BitReader, DecodeError, incremental_parse
from lzguess.fsgm import (FSGMSpec, build_fig1_machine, run as fsgm_run,
                          runner, sequence_prob)
from lzguess.guessers import Guesser, make_runner
from lzguess.bounds import (block_entropy, delta_n_at, direct_clogc,
                            sandwich_sweep)
from lzguess.sideinfo import (chain_code_len, chain_decode,
                              chain_encode, chain_gap_probs, chain_draw,
                              cond_code, cond_code_length, cond_decode,
                              cond_guess_prob, cond_sample, epsilon1,
                              joint_parse, pack_pairs)
from conftest import FixedBits, all_seqs, seq, xor_machine

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
    assert len(jp.y_phrases) == 2
    assert jp.c_j == [2, 1]
    assert jp.u == 2.0


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


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        joint_parse(seq("ab", AB), seq("a", AB))


# --- the chain index code -------------------------------------------------------

def test_chain_code_complete_and_decodable():
    for L in range(1, 20):
        probs = chain_gap_probs(L)
        assert sum(p.as_fraction() for p in probs) == 1
        kraft = Fraction(0)
        for g in range(L):
            code = chain_encode(g, L)
            assert len(code) == chain_code_len(g, L)
            r = BitReader(code)
            assert chain_decode(r, L) == g and r.pos == len(code)
            assert probs[g].as_fraction() >= Fraction(1, 2 ** len(code))
            kraft += Fraction(1, 2 ** len(code))
        assert kraft <= 1
        assert chain_code_len(0, L) == (1 if L > 1 else 0)


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


def test_side_alphabet_larger_sampler_matches_law():
    y = seq("cac", ABC)
    dist = blackbox_cond_distribution(y, 3, 12, B01)
    assert sum(dist.values()) == 1
    for x in all_seqs(B01, 3):
        assert dist.get(x, Fraction(0)) == \
            cond_guess_prob(x, y).as_fraction(), x.render()


def test_cond_code_self_is_cheap():
    x = generate_corpus("bernoulli", 4096, p=0.5, seed=7)
    assert cond_code_length(x, x) / 4096 <= 0.25


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
        L = cond_code_length(x, y)
        assert L <= jp.u + budget


# --- conditional sampler and guess probability ------------------------------------

def blackbox_cond_distribution(y, n, bit_len, x_alphabet=None):
    counts = {}
    for v in range(1 << bit_len):
        bits = FixedBits(format(v, "0%db" % bit_len))
        out = cond_sample(y, n, bits, x_alphabet)
        counts[out] = counts.get(out, 0) + 1
    return {x: Fraction(c, 1 << bit_len) for x, c in counts.items()}


def test_cond_guess_prob_matches_blackbox_enumeration():
    for ytext in ("000", "010", "111", "001"):
        y = seq(ytext, B01)
        dist = blackbox_cond_distribution(y, 3, 11)
        for x in all_seqs(B01, 3):
            assert dist.get(x, Fraction(0)) == \
                cond_guess_prob(x, y).as_fraction(), (x.render(), ytext)


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
        assert -cond_guess_prob(x, y).log2() <= cond_code_length(x, y)


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
    counts = {}
    for v in range(1 << 4):
        out = fsgm_run(spec, FixedBits(format(v, "04b")), 4, side=y).output
        counts[out] = counts.get(out, 0) + 1
    for x in all_seqs(B01, 4):
        expect = Fraction(counts.get(x, 0), 16)
        got = sequence_prob(spec, x, y)
        assert got.as_fraction() == expect
        total = total + got
    assert total == DyadicProb.one()


def test_cond_fsgm_run_requires_divisibility():
    # a side machine reads one side symbol per output symbol: a side shorter
    # than n, a side over another alphabet, or none at all is refused, and
    # a plain machine takes no side
    spec = xor_machine()
    x = seq("0101", B01)
    for side in (seq("010", B01), seq("abab", AB)):
        for call in (lambda: fsgm_run(spec, FixedBits(""), 4, side=side),
                     lambda: sequence_prob(spec, x, side),
                     lambda: runner(spec, x, side)):
            with pytest.raises(ValueError, match="length >= 4 over the side"):
                call()
    plain = build_fig1_machine()
    abab = seq("abab", ABC)
    for machine, target, side in ((spec, x, None), (plain, abab, abab)):
        with pytest.raises(ValueError, match="exactly when it has a side"):
            sequence_prob(machine, target, side)


def _old_block_law(ell, initial, delta, table, x, y):
    """Test-local copy of the removed ``cond_fsgm_sequence_prob``: the
    forward pass over (block start, state) of an ell-block conditional
    machine keyed by (state, y-block), one move per matching table entry."""
    n = len(x)
    if n % ell or len(y) != n:
        raise ValueError("need len(x) = len(y) = multiple of ell")

    def step(b, z):
        nxt_b = b + ell
        xb = x.indices[b:nxt_b]
        yb = y.indices[b:nxt_b]
        for out, zp in table[(z, yb)]:
            if out == xb:
                yield nxt_b, zp if nxt_b < n else None, 1, delta[(z, yb)]

    start = initial if n else None
    return forward(n, start, step).get(None, DyadicProb.zero())


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
                    assert got == _old_block_law(ell, "s0", delta, table,
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
    assert make_runner(g, x)(BitSource(1)) == (
        g.sample(BitSource(1)) == x)
