import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lzguess.seqcore import (Alphabet, BudgetError, SymbolSeq, generate_corpus,
                             ingest)
from lzguess.lz78 import (DecodeError, c_max_oracle, decode, encode,
                          incremental_parse, pack_bits, unpack_bits)
from conftest import all_seqs, seq
from oracles import (decode_by_trie_walk, encode_per_symbol,
                     pack_bits_per_byte, parse_per_symbol)

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


# --- the per-phrase codec against the former per-symbol one -----------------

def _decode_outcome(fn, bits, n, alphabet):
    """A decoder's result, or the message and bit position it failed at."""
    try:
        return fn(bits, n, alphabet)
    except DecodeError as exc:
        return str(exc), exc.bit_position


@pytest.mark.parametrize("alphabet", [B01, Alphabet(("a", "b", "c"))],
                         ids=["binary", "ternary"])
def test_codec_equals_per_symbol_reference_exhaustive(alphabet):
    for n in range(11):
        for x in all_seqs(alphabet, n):
            bits = encode(x)
            assert bits == encode_per_symbol(x)
            assert decode(bits, n, alphabet) == x
            assert decode_by_trie_walk(bits, n, alphabet) == x
            assert pack_bits(bits) == pack_bits_per_byte(bits)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 26).flatmap(
    lambda size: st.text(_TOKENS[:size], max_size=120)
    .map(lambda text: seq(text, Alphabet(tuple(_TOKENS[:size]))))))
def test_encode_equals_per_symbol_reference_on_strings(x):
    bits = encode(x)
    assert bits == encode_per_symbol(x)
    assert decode(bits, len(x), x.alphabet) == x
    assert pack_bits(bits) == pack_bits_per_byte(bits)


@settings(max_examples=400, deadline=None)
@given(bits=_BITS, n=st.integers(-1, 40), size=st.integers(2, 26))
def test_decode_equals_trie_walk_reference_on_any_stream(bits, n, size):
    alphabet = Alphabet(tuple(_TOKENS[:size]))
    assert (_decode_outcome(decode, bits, n, alphabet)
            == _decode_outcome(decode_by_trie_walk, bits, n, alphabet))


def _long_code_cases(alphabet, n, rng):
    """(bits, n) streams around the code of one random length-n sequence:
    the code itself, every cut within 64 bits of its end, 150 cuts through
    the whole of it, 150 single-bit flips, the target length one off each
    way, and trailing bits."""
    x = SymbolSeq(alphabet, bytes(rng.randrange(alphabet.size)
                                  for _ in range(n)))
    bits = encode(x)
    L = len(bits)
    cases = [(bits, n), (bits, n - 1), (bits, n + 1)]
    cases += [(bits + tail, n) for tail in ("0", "1", "01", "1" * 9)]
    cases += [(bits[:cut], n) for cut in range(max(0, L - 64), L)]
    cases += [(bits[:rng.randrange(L + 1)], n) for _ in range(150)]
    for at in [rng.randrange(L) for _ in range(150)] if L else []:
        flip = "1" if bits[at] == "0" else "0"
        cases.append((bits[:at] + flip + bits[at + 1:], n))
    return cases


@pytest.mark.parametrize("size", [2, 3, 26], ids=["binary", "ternary",
                                                  "26 letters"])
def test_decode_equals_trie_walk_reference_on_long_codes(size):
    # thousands of phrases: every whole field of a pointer width is read
    # before the checks run, so an error past the first phrase of a width,
    # a cut inside a field and the surplus of a final pointer must come
    # out as the field-by-field walk raises them, at the same bit
    alphabet = Alphabet(tuple(_TOKENS[:size]))
    rng = random.Random(size)
    accepted = 0
    for n in (1, 2, 3, 5, 8, 33, 100, 257, 1000, 2000, 5000):
        for bits, m in _long_code_cases(alphabet, n, rng):
            got = _decode_outcome(decode, bits, m, alphabet)
            assert got == _decode_outcome(decode_by_trie_walk, bits, m,
                                          alphabet), (n, m, len(bits))
            accepted += isinstance(got, SymbolSeq)
    assert accepted >= 11


# --- the one-pass parse against the former per-symbol one -------------------

def _parse_fields(x):
    r = incremental_parse(x)
    return (r.boundaries, r.c_lz, r.last_complete, r.code_length_bits,
            r.trie.parent, r.trie.sym, r.trie.children)


@pytest.mark.parametrize("alphabet", [B01, Alphabet(("a", "b", "c"))],
                         ids=["binary", "ternary"])
def test_parse_equals_per_symbol_reference_exhaustive(alphabet):
    for n in range(10):
        for x in all_seqs(alphabet, n):
            assert _parse_fields(x) == parse_per_symbol(x)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 26).flatmap(
    lambda size: st.text(_TOKENS[:size], max_size=400)
    .map(lambda text: seq(text, Alphabet(tuple(_TOKENS[:size]))))))
def test_parse_equals_per_symbol_reference_on_strings(x):
    assert _parse_fields(x) == parse_per_symbol(x)


def test_parse_equals_per_symbol_reference_on_long_corpora():
    # thousands of phrases: pointer widths past every small power of two
    for kind, kw in (("bernoulli", {"p": 0.5}), ("thue_morse", {}),
                     ("periodic", {"pattern": "ab"})):
        x = generate_corpus(kind, 1 << 14, seed=5, **kw)
        assert _parse_fields(x) == parse_per_symbol(x)


def test_phrase_texts_of_a_bytes_parse_are_hex():
    x = ingest(b"\x00\x00\xff\x00\xff\x10", mode="bytes")
    assert incremental_parse(x).phrase_texts() == ["00", "00ff", "00ff10"]
    subset = ingest(b"ab\x00", b"\x00ab", mode="bytes")
    assert incremental_parse(subset).phrase_texts() == ["61", "62", "00"]


_RENDER_ALPHABETS = {
    "chars": Alphabet(("a", "b", "c")),
    "full-bytes": Alphabet.bytes_alphabet(),
    "subset-bytes": Alphabet.bytes_alphabet(b"\x00ab\xff"),
    "lines": Alphabet(("ab", "c", "d e")),
}


@pytest.mark.parametrize("kind", list(_RENDER_ALPHABETS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_phrase_texts_equal_per_phrase_renderings(kind, data):
    alphabet = _RENDER_ALPHABETS[kind]
    idx = data.draw(st.lists(st.integers(0, alphabet.size - 1), max_size=80))
    for x in (SymbolSeq(alphabet, bytes(idx)),
              SymbolSeq(alphabet, bytes([0, 1, 0]))):
        r = incremental_parse(x)
        assert r.phrase_texts() == [p.render() for p in r.phrases()]
    assert not r.last_complete      # the fixed case ends inside a phrase


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
