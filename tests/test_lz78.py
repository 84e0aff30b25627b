import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lzguess.seqcore import Alphabet, BudgetError, SymbolSeq, generate_corpus
from lzguess.lz78 import (DecodeError, c_max_oracle, code_length, decode,
                          encode, incremental_parse, pack_bits, unpack_bits)
from conftest import all_seqs, seq

AB = Alphabet(("a", "b"))
B01 = Alphabet(("0", "1"))
EXAMPLE15 = "abbabaabbaaabaa"


def test_parse_example_string():
    r = incremental_parse(seq(EXAMPLE15, AB))
    assert r.phrase_texts() == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
    assert r.c_lz == 8
    assert r.last_complete is False


def test_parse_single_symbol():
    r = incremental_parse(seq("a", AB))
    assert r.phrase_texts() == ["a"]
    assert r.c_lz == 1
    assert r.last_complete is True


def test_parse_forced_repeat():
    r = incremental_parse(seq("aaaa", AB))
    assert r.phrase_texts() == ["a", "aa", "a"]
    assert r.c_lz == 3
    assert r.last_complete is False


def test_parse_empty():
    r = incremental_parse(seq("", AB))
    assert r.c_lz == 0
    assert r.last_complete is True
    assert r.code_length_bits == 0


def test_phrases_reconstruct_input():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(0, 60)
        text = "".join(rng.choice("ab") for _ in range(n))
        r = incremental_parse(seq(text, AB))
        assert "".join(r.phrase_texts()) == text


def test_complete_phrases_distinct_and_incremental():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randrange(1, 80)
        text = "".join(rng.choice("ab") for _ in range(n))
        r = incremental_parse(seq(text, AB))
        phrases = r.phrase_texts()
        complete = phrases[:r.complete_count]
        assert len(set(complete)) == len(complete)
        earlier = {""}
        for p in complete:
            assert p[:-1] in earlier
            earlier.add(p)
        if not r.last_complete:
            assert phrases[-1] in earlier


# --- code length ------------------------------------------------------------

def test_code_length_example_string():
    # pointer bits 0,1,2,2,3,3,3 + 7 symbol bits + 3 final-pointer bits
    r = incremental_parse(seq(EXAMPLE15, AB))
    assert r.code_length_bits == 24
    assert code_length(r) == 24


def test_code_length_single_bit():
    r = incremental_parse(seq("0", B01))
    assert r.code_length_bits == 1


def test_code_length_matches_per_phrase_formula():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 100)
        text = "".join(rng.choice("01") for _ in range(n))
        r = incremental_parse(seq(text, B01))
        expect = sum(max(0, (j - 1).bit_length()) + 1
                     for j in range(1, r.complete_count + 1))
        if not r.last_complete:
            expect += (r.complete_count).bit_length()
        assert r.code_length_bits == expect


def test_code_length_clogc_bound():
    r = incremental_parse(seq(EXAMPLE15, AB))
    c = 8
    assert r.code_length_bits <= (c + 1) * math.log2(2 * 2 * (c + 1))


def test_code_length_alphabet_override():
    r = incremental_parse(seq(EXAMPLE15, AB))
    # pricing the same parse over a 4-letter alphabet doubles symbol bits
    assert code_length(r, alpha=4) == 24 + 7
    assert code_length(r, alpha=2) == 24


# --- encode / decode ---------------------------------------------------------

def test_roundtrip_exhaustive_n8():
    for n in range(0, 9):
        for x in all_seqs(B01, n):
            bits = encode(x)
            assert len(bits) == incremental_parse(x).code_length_bits
            assert decode(bits, n, B01) == x


def test_roundtrip_random_longer():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(100, 400)
        text = "".join(rng.choice("ab") for _ in range(n))
        x = seq(text, AB)
        assert decode(encode(x), n, AB) == x


def test_roundtrip_ternary():
    abc = Alphabet(("a", "b", "c"))
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randrange(1, 120)
        x = SymbolSeq(abc, bytes(rng.randrange(3) for _ in range(n)))
        assert decode(encode(x), n, abc) == x


def test_decode_empty():
    assert decode("", 0, B01) == seq("", B01)


def test_decode_errors_carry_bit_position():
    x = seq(EXAMPLE15, AB)
    bits = encode(x)
    with pytest.raises(DecodeError):
        decode(bits[:-1], len(x), AB)
    with pytest.raises(DecodeError):
        decode(bits + "0", len(x), AB)
    err = None
    try:
        decode(bits[:5], len(x), AB)
    except DecodeError as exc:
        err = exc
    assert err is not None and err.bit_position <= len(bits)


def test_kraft_inequality_small_n():
    # prefix-freeness per target length forces sum <= 1
    for n in range(1, 10):
        total = Fraction(0)
        for x in all_seqs(B01, n):
            total += Fraction(1, 2 ** incremental_parse(x).code_length_bits)
        assert total <= 1


def test_pack_unpack():
    bits = "10110100111"
    blob = pack_bits(bits)
    assert blob[:8] == (11).to_bytes(8, "little")
    assert unpack_bits(blob) == bits
    assert unpack_bits(pack_bits("")) == ""
    with pytest.raises(DecodeError):
        unpack_bits(b"\x01\x00")
    with pytest.raises(DecodeError):
        unpack_bits((99).to_bytes(8, "little") + b"\x00")


# --- decoder fuzzing --------------------------------------------------------------

_TOKENS = "abcdefghijklmnopqrstuvwxyz"
_BITS = st.text("01", max_size=80) | st.text("01 _2", max_size=12)


@settings(max_examples=400, deadline=None)
@given(bits=_BITS, n=st.integers(-1, 40), size=st.integers(2, 26))
def test_decode_fuzz_rejects_cleanly_and_accepts_only_codes(bits, n, size):
    alphabet = Alphabet(tuple(_TOKENS[:size]))
    try:
        x = decode(bits, n, alphabet)
    except ValueError:          # DecodeError included
        return
    # an accepted stream is exactly the code of what it decodes to
    assert len(x) == max(n, 0)
    assert encode(x) == bits


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 26).flatmap(
    lambda size: st.lists(st.integers(0, size - 1), max_size=60)
    .map(lambda idx: SymbolSeq(Alphabet(tuple(_TOKENS[:size])), bytes(idx)))))
def test_encode_decode_roundtrip_fuzz(x):
    bits = encode(x)
    assert decode(bits, len(x), x.alphabet) == x
    assert unpack_bits(pack_bits(bits)) == bits


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=24)
       | st.tuples(st.integers(0, 80), st.binary(max_size=12))
       .map(lambda t: t[0].to_bytes(8, "little") + t[1]))
def test_unpack_bits_fuzz(blob):
    try:
        bits = unpack_bits(blob)
    except ValueError:
        return
    assert set(bits) <= {"0", "1"}
    assert pack_bits(bits) == blob


# --- the exhaustive distinct-phrase oracle -----------------------------------

def test_c_max_trivial_cases():
    assert c_max_oracle(seq("aa", AB)) == 1
    assert c_max_oracle(seq("ab", AB)) == 2
    assert c_max_oracle(seq("", AB)) == 0
    assert c_max_oracle(seq("a", AB)) == 1


def test_c_max_known_values():
    # aab -> a|ab ; aaab -> a|aa|b ; abab -> a|b|ab
    assert c_max_oracle(seq("aab", AB)) == 2
    assert c_max_oracle(seq("aaab", AB)) == 3
    assert c_max_oracle(seq("abab", AB)) == 3


def test_c_max_vs_brute_force_compositions():
    # independent oracle: enumerate every composition, keep all-distinct ones
    def brute(text):
        n = len(text)
        best = 0
        for mask in range(1 << max(n - 1, 0)):
            cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
            parts = [text[a:b] for a, b in zip(cuts, cuts[1:])]
            if len(set(parts)) == len(parts):
                best = max(best, len(parts))
        return best

    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 11)
        text = "".join(rng.choice("ab") for _ in range(n))
        assert c_max_oracle(seq(text, AB)) == brute(text)


def test_c_lz_at_most_c_max_plus_one():
    r = incremental_parse(seq(EXAMPLE15, AB))
    v = c_max_oracle(seq(EXAMPLE15, AB))
    assert r.c_lz <= v + 1


def test_c_max_refuses_large_inputs():
    with pytest.raises(BudgetError, match="c_lz"):
        c_max_oracle(seq("ab" * 20, AB))


def test_code_length_bound_on_corpora():
    from lzguess.bounds import epsilon_lz
    for x in (generate_corpus("periodic", 4096, pattern="ab"),
              generate_corpus("thue_morse", 4096),
              generate_corpus("bernoulli", 4096, p=0.5, seed=7),
              generate_corpus("bernoulli", 1024, p=0.2, seed=3)):
        r = incremental_parse(x)
        n = len(x)
        c = r.c_lz
        assert r.code_length_bits <= c * math.log2(c) + n * epsilon_lz(n, 2)
