import hashlib
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lzguess import seqcore
from lzguess.seqcore import (AB, Alphabet, BitSource, DyadicProb, SymbolSeq,
                             derive_substream_seed, forward, generate_corpus,
                             ingest, parse_corpus_spec, thue_morse_bits)
from conftest import all_seqs
from oracles import (automaton_law, bernoulli_per_symbol, forward_per_move,
                     ingest_per_token, render_per_symbol)


def test_ingest_basic():
    s = ingest("abba", "ab")
    assert list(s) == [0, 1, 1, 0]
    assert len(s) == 4
    assert s.alphabet.size == 2


def test_ingest_unknown_token_position():
    with pytest.raises(ValueError, match="position 3"):
        ingest("abc", "ab")


def test_ingest_empty_with_alphabet():
    s = ingest("", "ab")
    assert len(s) == 0


def test_ingest_render_roundtrip():
    for text in ("abba", "", "bbbb", "abab"):
        assert ingest(text, "ab").render() == text


def test_ingest_infers_alphabet_in_first_appearance_order():
    s = ingest("baab")
    assert s.alphabet.tokens == ("b", "a")
    assert list(s) == [0, 1, 1, 0]


def test_ingest_lines_mode():
    s = ingest("north\nsouth\nnorth\n", mode="lines")
    assert s.alphabet.tokens == ("north", "south")
    assert list(s) == [0, 1, 0]
    assert s.render() == "north\nsouth\nnorth"


def test_ingest_bytes_mode():
    s = ingest(b"\x00\xff\x10", mode="bytes")
    assert s.alphabet.size == 256
    assert list(s) == [0, 255, 16]


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("a",))
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    # byte tokens are byte values, so the translate tables can hold them
    for tokens in ((0, 256), (-1, 0)):
        with pytest.raises(ValueError, match=r"^byte tokens must be in "
                                             r"range\(0, 256\)$"):
            Alphabet(tokens)


def test_symbolseq_slicing_and_equality():
    s = ingest("abbab", "ab")
    assert s[1:3].render() == "bb"
    assert s[1:3] == ingest("bb", "ab")
    assert hash(s) == hash(ingest("abbab", "ab"))


def test_symbolseq_rejects_out_of_range_index_from_bytes_or_list():
    for indices in (b"\x00\x02\x01", [0, 2, 1], b"\xff", [255]):
        with pytest.raises(ValueError, match="out of range for alphabet of "
                                             "size 2"):
            SymbolSeq(AB, indices)
    assert SymbolSeq(AB, [1, 0]).indices == b"\x01\x00"


def test_symbolseq_accepts_empty_sequence():
    for empty in (b"", [], bytearray()):
        s = SymbolSeq(AB, empty)
        assert len(s) == 0 and s.indices == b"" and s.render() == ""
    assert SymbolSeq.from_tokens((), AB) == SymbolSeq(AB, b"")
    assert ingest("", "ab") == SymbolSeq(AB, b"")


def test_render_for_each_alphabet_kind():
    chars = Alphabet.from_spec("xyz")
    assert SymbolSeq(chars, b"\x02\x00\x01\x02").render() == "zxyz"
    # multi-character tokens, as an --alphabet-file lists them
    words = Alphabet(("north", "south", "e"))
    assert SymbolSeq(words, b"\x01\x02\x00").render() == "south\ne\nnorth"
    subset = Alphabet.bytes_alphabet(b"\x10\xff\x00")
    s = SymbolSeq(subset, b"\x00\x01\x02\x00")
    assert s.render() == "10ff0010"
    assert ingest(bytes.fromhex(s.render()), b"\x10\xff\x00",
                  mode="bytes") == s
    full = Alphabet.bytes_alphabet()
    assert SymbolSeq(full, b"\x00\x7f\xff").render() == "007fff"


def _outcome(fn, *args, **kwargs):
    """A call's result, or the type and message of the ValueError it
    raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("alphabet", [AB, Alphabet(("a", "b", "c"))],
                         ids=["binary", "ternary"])
def test_ingest_equals_per_token_loop_exhaustive(alphabet):
    spec = "".join(alphabet.tokens)
    for n in range(11):
        for x in all_seqs(alphabet, n):
            text = x.render()
            assert ingest(text, spec) == ingest_per_token(text, spec) == x
            assert SymbolSeq.from_text(text, alphabet) == x
            assert _outcome(ingest, text) == _outcome(ingest_per_token, text)


@given(st.text("abc\nxy", max_size=40), st.sampled_from([None, "ab", "abc"]),
       st.sampled_from(["text", "lines"]))
def test_ingest_equals_per_token_loop_on_strings(text, spec, mode):
    assert (_outcome(ingest, text, spec, mode=mode)
            == _outcome(ingest_per_token, text, spec, mode=mode))


@given(st.binary(max_size=40), st.sampled_from([None, b"\x00\x01", b"ab\xff"]))
def test_ingest_equals_per_token_loop_on_bytes(data, allowed):
    assert (_outcome(ingest, data, allowed, mode="bytes")
            == _outcome(ingest_per_token, data, allowed, mode="bytes"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.characters(max_codepoint=0x17f), min_size=1, max_size=300),
       st.lists(st.characters(min_codepoint=0x180, max_codepoint=0x2ff),
                max_size=300), st.integers(0, 3))
@example(["a"], [], 3)
@example(["a", "b"] * 99, [chr(0x180 + i) for i in range(200)], 0)
@example(list("ab"), [chr(0x180 + i) for i in range(255)], 1)
def test_inferred_text_alphabet_is_first_appearance_order(body, late, repeat):
    # tokens first seen at the very end included; one distinct token and
    # more than 256 of them fail as Alphabet and the dict order fail
    text = "".join(body) * (repeat + 1) + "".join(late)
    order = tuple(dict.fromkeys(text))
    if len(order) < 2:
        with pytest.raises(ValueError, match="from 1 distinct tokens"):
            ingest(text)
    elif len(order) > 256:
        with pytest.raises(ValueError, match="larger than 256 tokens"):
            ingest(text)
    else:
        s = ingest(text)
        assert s.alphabet.tokens == order
        assert s.render() == text
    assert _outcome(ingest, text) == _outcome(ingest_per_token, text)


def test_unknown_token_message_and_position_in_every_mode():
    cases = [("abcab", "ab", "text", "unknown token 'c' at position 3"),
             ("north\n\nsouth\nq\nnorth", Alphabet(("north", "south")),
              "lines", "unknown token 'q' at position 3"),
             (b"\x01\x00\x07\x00", b"\x00\x01", "bytes",
              "unknown token 7 at position 3")]
    for data, spec, mode, message in cases:
        for fn in (ingest, ingest_per_token):
            with pytest.raises(ValueError) as info:
                fn(data, spec, mode=mode)
            assert str(info.value) == message
    with pytest.raises(ValueError, match=r"^token 'c' is not in the alphabet$"):
        SymbolSeq.from_text("abca", AB)
    with pytest.raises(ValueError, match=r"^token 'q' is not in the alphabet$"):
        SymbolSeq.from_tokens(["north", "q"], Alphabet(("north", "south")))


# single-character alphabets past ASCII and Latin-1, with the two Latin-1
# extremes as tokens, and one of all 256 Latin-1 characters
_WIDE_ALPHABETS = ["αβγ", "\x00\xffa", "abĀ\U0001f600",
                   "".join(map(chr, range(256)))]


@pytest.mark.parametrize("spec", _WIDE_ALPHABETS,
                         ids=["greek", "latin1-ends", "astral", "latin1-all"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ingest_equals_per_token_loop_on_wide_alphabets(spec, data):
    # text over the alphabet, with unknown characters at and above U+0100
    # and below it mixed in now and then
    chars = st.sampled_from(spec)
    if data.draw(st.booleans()):
        chars = chars | st.sampled_from("c\x7f\x80Āā￿\U00010000")
    text = "".join(data.draw(st.lists(chars, max_size=60)))
    alphabet = Alphabet.from_spec(spec)
    got = _outcome(ingest, text, spec)
    assert got == _outcome(ingest_per_token, text, spec)
    assert (_outcome(SymbolSeq.from_text, text, alphabet)
            == _outcome(SymbolSeq.from_tokens, list(text), alphabet))
    if isinstance(got, SymbolSeq):
        assert got.render() == render_per_symbol(got) == text
        assert SymbolSeq.from_text(text, alphabet) == got


def test_ingest_reports_the_first_of_several_unknown_tokens():
    cases = [("abĀaā", "ab", "unknown token 'Ā' at position 3"),
             ("abcdĀ", "ab", "unknown token 'c' at position 3"),
             ("\U0001f600ab", "ab", "unknown token '😀' at position 1"),
             ("ab\x00", "ab", "unknown token '\\x00' at position 3"),
             ("αβc", "αβ", "unknown token 'c' at position 3"),
             ("a\xffb", "ab", "unknown token 'ÿ' at position 2")]
    for text, spec, message in cases:
        for fn in (ingest, ingest_per_token):
            with pytest.raises(ValueError) as info:
                fn(text, spec)
            assert str(info.value) == message
    with pytest.raises(ValueError, match=r"^token 'Ā' is not in the alphabet$"):
        SymbolSeq.from_text("abĀc", AB)
    # bytes: the first unknown of several, and \xff outside a subset of 255
    cases = [(b"\x01\x07\x00\x08", b"\x00\x01", 7, 2),
             (b"\x00\xff\x01", bytes(range(255)), 255, 2),
             (b"ab\x00c", b"abc", 0, 3)]
    for data, allowed, token, pos in cases:
        for fn in (ingest, ingest_per_token):
            with pytest.raises(ValueError) as info:
                fn(data, allowed, mode="bytes")
            assert str(info.value) == ("unknown token %d at position %d"
                                       % (token, pos))


def test_ingest_of_text_over_multi_character_tokens():
    # text mode reads one character per token, so only the single-character
    # tokens of a mixed alphabet can match
    mixed = Alphabet(("ab", "a", "b"))
    for text in ("abba", "", "ab c"):
        assert (_outcome(ingest, text, mixed)
                == _outcome(ingest_per_token, text, mixed))
    assert ingest("abba", mixed).indices == b"\x01\x02\x02\x01"
    with pytest.raises(ValueError, match="^unknown token 'n' at position 1$"):
        ingest("north", Alphabet(("north", "south")))


@given(st.binary(max_size=60),
       st.sampled_from([b"\x00", b"\x00\x01", b"\xff\x00", b"\x00ab\xff",
                        bytes(range(255)), bytes(range(255, -1, -1))]))
def test_ingest_equals_per_token_loop_on_byte_subsets(data, allowed):
    # subsets with \x00, subsets with \xff and one without it, and all 256
    # values in reverse order, where index and byte differ
    spec = allowed if len(allowed) > 1 else allowed + b"\x07"
    got = _outcome(ingest, data, spec, mode="bytes")
    assert got == _outcome(ingest_per_token, data, spec, mode="bytes")
    assert got == _outcome(ingest, bytearray(data), spec, mode="bytes")
    if isinstance(got, SymbolSeq):
        assert got.render() == render_per_symbol(got) == data.hex()


def test_render_equals_per_symbol_render_for_every_alphabet_kind():
    alphabets = [AB, Alphabet.from_spec("αβγ"), Alphabet(("ab", "c", "d e")),
                 Alphabet.bytes_alphabet(), Alphabet.bytes_alphabet(b"\x00a\xff"),
                 Alphabet(tuple(range(255, -1, -1))),
                 Alphabet.from_spec("".join(map(chr, range(256))))]
    for alphabet in alphabets:
        for indices in (b"", bytes([alphabet.size - 1]),
                        bytes(range(alphabet.size)) * 2):
            x = SymbolSeq(alphabet, indices)
            text = x.render()
            assert text == render_per_symbol(x)
            mode = {"bytes": "bytes", "chars": "text",
                    "lines": "lines"}[alphabet._render_kind]
            data = bytes.fromhex(text) if mode == "bytes" else text
            assert ingest(data, alphabet, mode=mode) == x


def test_symbolseq_range_check_on_bytes_bytearray_and_list():
    message = "^symbol index out of range for alphabet of size %d$"
    ternary = Alphabet.from_spec("abc")
    for alphabet in (AB, ternary, Alphabet.bytes_alphabet(b"\x00\xff")):
        size = alphabet.size
        for bad in (size, 255):
            for indices in (bytes([0, bad, 1]), bytearray([bad]),
                            [0, 1, bad], [bad, 256], [300]):
                with pytest.raises(ValueError, match=message % size):
                    SymbolSeq(alphabet, indices)
        ok = list(range(size)) * 3
        for indices in (bytes(ok), bytearray(ok), ok):
            x = SymbolSeq(alphabet, indices)
            assert type(x.indices) is bytes and x.indices == bytes(ok)
    full = Alphabet.bytes_alphabet()
    assert SymbolSeq(full, bytes(range(256))).indices == bytes(range(256))
    with pytest.raises(ValueError, match=message % 256):
        SymbolSeq(full, [0, 256])
    # an iterator is read once, not emptied by the range check
    assert SymbolSeq(AB, iter([0, 1, 1])).indices == b"\x00\x01\x01"
    assert SymbolSeq(AB, (i % 2 for i in range(4))).indices == b"\x00\x01" * 2
    with pytest.raises(ValueError, match=message % 2):
        SymbolSeq(AB, iter([0, 2]))


@given(st.lists(st.integers(0, 2), max_size=30), st.integers(-35, 35),
       st.integers(-35, 35), st.sampled_from([None, 1, 2, -1]))
def test_symbolseq_slice_equals_sequence_of_sliced_indices(idx, i, j, step):
    alphabet = Alphabet.from_spec("abc")
    x = SymbolSeq(alphabet, bytes(idx))
    part = x[i:j:step]
    assert part == SymbolSeq(alphabet, x.indices[i:j:step])
    assert type(part.indices) is bytes and part.alphabet is alphabet


# --- corpora ---------------------------------------------------------------

def test_periodic_corpus():
    assert generate_corpus("periodic", 6, pattern="ab").render() == "ababab"
    assert generate_corpus("periodic", 5, pattern="ab").render() == "ababa"


def test_thue_morse_against_recurrence():
    # independent oracle: t(2k) = t(k), t(2k+1) = 1 - t(k)
    t = [0] * 64
    for k in range(1, 64):
        t[k] = t[k // 2] if k % 2 == 0 else 1 - t[k // 2]
    assert list(thue_morse_bits(64)) == t
    assert generate_corpus("thue_morse", 8).render() == "abbabaab"


def test_thue_morse_equals_popcount_parity():
    # the former per-symbol definition: t(k) = parity of k's one bits
    ref = bytes(bin(k).count("1") & 1 for k in range(4100))
    for n in range(4101):
        assert thue_morse_bits(n) == ref[:n]
    for k in range(13):
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            assert thue_morse_bits(n) == ref[:n]


def test_bernoulli_reproducible():
    a = generate_corpus("bernoulli", 16, p=0.5, seed=7)
    b = generate_corpus("bernoulli", 16, p=0.5, seed=7)
    c = generate_corpus("bernoulli", 16, p=0.5, seed=8)
    assert a == b
    assert a != c
    assert len(a) == 16


_BERNOULLI_PS = (0.0, 2.0 ** -53, 0.1, 0.3, 1 / 3, 0.5, 1 - 2.0 ** -53, 1.0)
_BERNOULLI_SEEDS = (0, 7, 2 ** 31 - 1, 2 ** 64 - 1, -3)


def test_bernoulli_blocks_equal_the_per_symbol_rule():
    # every n from 1 to two blocks and three symbols, each (p, seed) at
    # every 40th n and at the block and word edges
    top = 2 * seqcore._BLOCK + 3
    edges = {1, 2, 52, 53, 54, 63, 64, 65, 1023, 1024, 1025, 2047, 2048,
             2049, top}
    cases = list(itertools.product(_BERNOULLI_PS, _BERNOULLI_SEEDS))
    for i, (p, seed) in enumerate(cases):
        want = bernoulli_per_symbol(top, p, seed)
        for n in sorted(edges.union(range(1 + i, top + 1, len(cases)))):
            got = generate_corpus("bernoulli", n, p=p, seed=seed)
            assert got.indices == want[:n], (n, p, seed)
            assert got.alphabet == AB


def test_bernoulli_ties_at_a_draws_own_value_follow_the_per_symbol_rule():
    # p = v_j / 2**53 makes symbol j 0, and the next float above it makes
    # it 1: v_j < ceil(p * 2**53), decided only by v_j's last bit.  Below
    # 2**52 that next float times 2**53 is not whole
    bits = BitSource(11)
    draws = [bits.next_bits(53) for _ in range(1500)]
    low = [j for j, v in enumerate(draws) if v < 2 ** 52]
    for j in (low[0], next(j for j in low if j >= 1000), low[-1]):
        on = draws[j] / 2.0 ** 53
        for p, want in ((on, 0), (math.nextafter(on, 1.0), 1)):
            got = generate_corpus("bernoulli", 1500, p=p, seed=11).indices
            assert got == bernoulli_per_symbol(1500, p, 11), (j, p)
            assert got[j] == want, (j, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.floats(0.0, 1.0),
       st.integers(-2 ** 70, 2 ** 70))
@example(5, 5e-324, 1)
@example(70, 2.0 ** -60, 2)
def test_bernoulli_blocks_equal_the_per_symbol_rule_anywhere(n, p, seed):
    assert (generate_corpus("bernoulli", n, p=p, seed=seed).indices
            == bernoulli_per_symbol(n, p, seed))


def test_bernoulli_corpora_pinned():
    # recorded with the per-symbol rule
    for spec, n, digest in (
            ("bernoulli:0.5:7", 65536, "5bb0303517a29f3002e3d5d31c89ab40"
             "b6d9f36b9c13b7c9b1cc1e0cde67373e"),
            ("bernoulli:0.1:3", 4096, "8d3b6b7b9965c1b23dafaa956e7e6177"
             "1a092ea6efaee60c9e5a2e00c0b3a648")):
        got = parse_corpus_spec(spec, n).indices
        assert hashlib.sha256(got).hexdigest() == digest, spec


def test_bernoulli_lanes_put_word_zero_on_top():
    # built from big-endian bytes, whatever the machine's byte order
    ones, steps, mask = seqcore._lanes()
    words = seqcore._BLOCK_WORDS
    assert words * 64 == seqcore._BLOCK * 53
    for i in (0, 1, 2, words - 1):
        shift = 128 * (words - 1 - i)
        assert (ones >> shift) & (2 ** 128 - 1) == 1
        assert (steps >> shift) & (2 ** 128 - 1) == (i * 0x9E3779B97F4A7C15
                                                    % 2 ** 64)
        assert (mask >> shift) & (2 ** 128 - 1) == 2 ** 64 - 1
    assert ones.bit_length() == 128 * (words - 1) + 1


def test_corpus_argument_errors():
    with pytest.raises(ValueError):
        generate_corpus("periodic", 0, pattern="ab")
    with pytest.raises(ValueError):
        generate_corpus("bernoulli", 4, p=1.5)
    with pytest.raises(ValueError):
        generate_corpus("periodic", 4, pattern="")


def test_corpus_spec_strings():
    assert parse_corpus_spec("periodic:ab", 4).render() == "abab"
    assert parse_corpus_spec("thue_morse", 4).render() == "abba"
    assert parse_corpus_spec("bernoulli:0.5:7", 8) == \
        generate_corpus("bernoulli", 8, p=0.5, seed=7)


@pytest.mark.parametrize("spec,message", [
    ("periodic", "periodic spec is periodic:PATTERN"),
    ("periodic:ab:cd", "periodic spec is periodic:PATTERN"),
    ("bernoulli:0.5:1:junk", r"bernoulli spec is bernoulli\[:P\[:SEED\]\]"),
    ("thue_morse:junk", "thue_morse spec takes no fields"),
    ("thue_morse:", "thue_morse spec takes no fields"),
    ("file", "file spec is file:PATH"),
])
def test_corpus_spec_refuses_fields_its_kind_does_not_take(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_corpus_spec(spec, 8)


def test_corpus_spec_takes_each_kind_with_its_fields():
    assert parse_corpus_spec("bernoulli", 8) == parse_corpus_spec(
        "bernoulli:0.5:0", 8)
    assert parse_corpus_spec("bernoulli:0.25", 8) == generate_corpus(
        "bernoulli", 8, p=0.25, seed=0)


def test_file_corpus(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("abbab\n")
    got = parse_corpus_spec("file:%s" % path, 5)
    assert got.render() == "abbab"
    assert generate_corpus("file", 3, path=str(path)).render() == "abb"
    # everything after the first colon is the path, colons included
    odd = tmp_path / "a:b:c.txt"
    odd.write_text("ba\n")
    assert parse_corpus_spec("file:%s" % odd, 2).render() == "ba"


# --- bit source ------------------------------------------------------------

def test_bitsource_determinism():
    a = BitSource(123, substream=5)
    b = BitSource(123, substream=5)
    assert [a.next_bits(7) for _ in range(100)] == \
        [b.next_bits(7) for _ in range(100)]


def test_bitsource_substreams_differ():
    a = BitSource(123, substream=0)
    b = BitSource(123, substream=1)
    assert [a.next_bit() for _ in range(64)] != \
        [b.next_bit() for _ in range(64)]


def test_bitsource_prefix_consistency_across_read_sizes():
    a = BitSource(9, substream=2)
    b = BitSource(9, substream=2)
    whole = a.next_bits(24)
    parts = (b.next_bits(5) << 19) | (b.next_bits(13) << 6) | b.next_bits(6)
    assert whole == parts
    assert a.consumed == b.consumed == 24


def test_substream_seed_is_documented_mix():
    assert derive_substream_seed(0, 0) == derive_substream_seed(0, 0)
    seen = {derive_substream_seed(42, k) for k in range(1000)}
    assert len(seen) == 1000


def test_bitsource_float_range():
    src = BitSource(1)
    vals = [src.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


# --- dyadic probabilities --------------------------------------------------

def test_dyadic_basics():
    half = DyadicProb(1, 1)
    assert float(half) == 0.5
    assert half + half == DyadicProb.one()
    assert half * half == DyadicProb(1, 2)
    assert DyadicProb(3, 8).log2() == pytest.approx(math.log2(3 / 256))


def test_dyadic_normalization():
    assert DyadicProb(4, 8) == DyadicProb(1, 6)
    assert DyadicProb(0, 5) == DyadicProb.zero()
    assert DyadicProb(256, 8) == DyadicProb.one()


def test_dyadic_rejects_values_above_one():
    with pytest.raises(ValueError):
        DyadicProb(3, 1)


def test_dyadic_log2_huge_exponent():
    p = DyadicProb(1, 5000)
    assert p.log2() == -5000
    q = DyadicProb(3, 5000)
    assert q.log2() == pytest.approx(math.log2(3) - 5000)


@given(st.integers(0, 1 << 20), st.integers(0, 24),
       st.integers(0, 1 << 20), st.integers(0, 24))
def test_dyadic_matches_fraction_arithmetic(m1, e1, m2, e2):
    # brute-force rational oracle
    m1 = min(m1, 1 << e1)
    m2 = min(m2, 1 << e2)
    a, b = DyadicProb(m1, e1), DyadicProb(m2, e2)
    fa, fb = Fraction(m1, 1 << e1), Fraction(m2, 1 << e2)
    assert a.as_fraction() == fa
    assert (a * b).as_fraction() == fa * fb
    if fa + fb <= 1:
        assert (a + b).as_fraction() == fa + fb
    assert float(a) == float(fa)        # m < 2**21: both are exact
    for op in (operator.lt, operator.le, operator.eq, operator.ne,
               operator.gt, operator.ge):
        assert op(a, b) == op(fa, fb)


# --- the forward-pass kernel -------------------------------------------------

def _moves(table):
    """A step function from {(pos, state): [(first_pos, last_pos,
    next_state, count, bits), ...]}."""
    return lambda pos, state: iter(table.get((pos, state), ()))


@pytest.mark.parametrize("first, second", [((1, 1), (3, 3)),
                                           ((3, 3), (1, 1))])
def test_forward_merges_meeting_paths(first, second):
    # two paths of unequal exponent meet at (2, "z"); either may arrive
    # first, so both alignments of the kernel's merge run
    step = _moves({(0, "a"): [(1, 1, "b", 1, 1), (1, 1, "c", 1, 1)],
                   (1, "b"): [(2, 2, "z", *first), (2, 2, "y", 1, 1)],
                   (1, "c"): [(2, 2, "z", *second)]})
    out = forward(2, "a", step)
    expect = (Fraction(1, 2) * Fraction(first[0], 1 << first[1])
              + Fraction(1, 2) * Fraction(second[0], 1 << second[1]))
    assert out["z"].as_fraction() == expect
    assert out["y"] == DyadicProb(1, 2)
    assert set(out) == {"y", "z"}


def test_forward_skips_positions_and_keeps_zero_length():
    step = _moves({(0, "a"): [(3, 3, "z", 1, 2), (1, 1, "b", 3, 2)],
                   (1, "b"): [(3, 3, "z", 1, 0)]})
    assert forward(3, "a", step) == {"z": DyadicProb.one()}
    assert forward(0, "a", step) == {"a": DyadicProb.one()}


def test_forward_rejects_bad_moves_and_excess_mass():
    with pytest.raises(ValueError):      # count > 2**bits
        forward(1, "a", _moves({(0, "a"): [(1, 1, "b", 3, 1)]}))
    with pytest.raises(ValueError):      # no pattern moves it
        forward(1, "a", _moves({(0, "a"): [(1, 1, "b", 0, 1)]}))
    with pytest.raises(ValueError):      # past position n
        forward(1, "a", _moves({(0, "a"): [(2, 2, "b", 1, 1)]}))
    with pytest.raises(ValueError):      # not forward
        forward(2, "a", _moves({(0, "a"): [(1, 1, "b", 1, 0)],
                                (1, "b"): [(1, 1, "c", 1, 1)]}))
    with pytest.raises(ValueError):      # a span that ends before it starts
        forward(3, "a", _moves({(0, "a"): [(2, 1, "b", 1, 1)]}))
    with pytest.raises(ValueError):      # a span that starts at its source
        forward(3, "a", _moves({(0, "a"): [(1, 1, "b", 1, 0)],
                                (1, "b"): [(1, 2, "c", 1, 1)]}))
    with pytest.raises(ValueError):      # a span that runs past n
        forward(2, "a", _moves({(0, "a"): [(1, 3, "b", 1, 2)]}))
    double = [(1, 1, "b", 1, 0), (1, 1, "b", 1, 0)]
    with pytest.raises(ValueError):      # mass 2 checked before expansion
        forward(2, "a", _moves({(0, "a"): double, (1, "b"): []}))
    with pytest.raises(ValueError):      # and in the final layer
        forward(1, "a", _moves({(0, "a"): double}))
    with pytest.raises(ValueError):      # mass 3/2, though 3/4 reaches n
        forward(2, "a", _moves({(0, "a"): [(1, 1, "b", 1, 1),
                                           (1, 1, "b", 2, 1)],
                                (1, "b"): [(2, 2, "c", 1, 1)]}))
    doubled = [(1, 3, "b", 1, 0), (1, 3, "b", 1, 0)]
    with pytest.raises(ValueError):      # spans that add up past 1
        forward(4, "a", _moves({(0, "a"): doubled}))


def test_forward_unreachable_end_is_empty_and_callers_return_zero():
    from lzguess.fsgm import build_fig1_machine, sequence_prob
    step = _moves({(0, "a"): [(1, 1, "b", 1, 1)]})
    assert forward(2, "a", step) == {}
    fig1 = build_fig1_machine()
    assert sequence_prob(fig1, SymbolSeq(fig1.alphabet, bytes([1, 1]))) \
        == DyadicProb.zero()


def test_forward_spans_overlap_end_at_n_and_keep_single_moves():
    # from (0, "a"): a single move, a span over 1..3 and one ending at n;
    # from (1, "b"), at another exponent, a span over 2..4 that overlaps
    # the first on (2, "z") and (3, "z"), and a repeated single move
    step = _moves({(0, "a"): [(1, 1, "b", 1, 2), (1, 3, "z", 1, 3),
                              (4, 5, "z", 1, 4), (3, 3, "y", 1, 4)],
                   (1, "b"): [(2, 4, "z", 3, 5), (5, 5, "z", 1, 3),
                              (5, 5, "z", 1, 3)],
                   (2, "z"): [(3, 4, "y", 1, 1)],
                   (3, "z"): [(4, 4, "z", 1, 0)],
                   (4, "z"): [(5, 5, "z", 1, 0)]})
    assert forward(5, "a", step) == forward_per_move(5, "a", step) \
        == {"z": DyadicProb(23, 6)}


@st.composite
def _random_steps(draw):
    """A random step table over positions 0..n and states 0..2 whose moves
    from each (position, state) split at most its mass: spans of one to
    four consecutive positions, some ending at n, some overlapping others
    from the same or another source, and some repeated."""
    n = draw(st.integers(1, 9))
    table = {}
    for pos in range(n):
        for state in range(3):
            bits = draw(st.integers(0, 6))
            budget = 1 << bits
            moves = []
            for _ in range(draw(st.integers(0, 4))):
                first = draw(st.integers(pos + 1, n))
                length = draw(st.integers(1, min(4, n - first + 1)))
                if budget < length:
                    break
                count = draw(st.integers(1, budget // length))
                budget -= count * length
                moves.append((first, first + length - 1,
                              draw(st.integers(0, 2)), count, bits))
            table[pos, state] = moves
    return n, table


@given(_random_steps())
def test_forward_spans_equal_per_move_pass(case):
    n, table = case
    step = _moves(table)
    assert forward(n, 0, step) == forward_per_move(n, 0, step)


@pytest.mark.parametrize("alphabet", [Alphabet("01"), Alphabet("abc")],
                         ids=["binary", "ternary"])
def test_lz_laws_equal_per_move_pass(alphabet, monkeypatch):
    """lz_guess_prob on every x up to n = 10 equals the per-move pass over
    the same moves bit for bit (ternary symbol counts (2, 1, 1) break
    runs), and block_guess_prob is the product of those laws, computed
    once per distinct block."""
    from lzguess import guessers

    def checked_forward(n, start, step):
        # an LZ pass has one state and asks for the positions in order
        step = _moves({(pos, start): list(step(pos, start))
                       for pos in range(n)})
        law = forward(n, start, step)
        assert law == forward_per_move(n, start, step)
        return law

    laws = {}
    calls = []

    def known_law(block):
        calls.append(block.indices)
        return laws[block.indices]

    lz_guess_prob = guessers.lz_guess_prob
    monkeypatch.setattr(guessers, "forward", checked_forward)
    monkeypatch.setattr(guessers, "lz_guess_prob", known_law)
    for n in range(1, 11):
        for x in all_seqs(alphabet, n):
            laws[x.indices] = lz_guess_prob(x)
            blocks = [x.indices[b:b + 3] for b in range(0, n, 3)]
            calls.clear()
            block = guessers.block_guess_prob(x, 3)
            assert sorted(calls) == sorted(set(blocks)), x
            want = DyadicProb.one()
            for u in blocks:
                want = want * laws[u]
            assert block == want, x


def _pin(p):
    raw = p.m.to_bytes((p.m.bit_length() + 7) // 8, "big")
    return p.e, hashlib.sha256(raw).hexdigest()


def test_forward_laws_pinned_at_large_n():
    """Exact laws at n >= 2048, pinned as (exponent, sha256 of the
    numerator) from the per-pass dyadic loops the kernel replaced."""
    from lzguess.fsgm import build_fig1_machine, run, sequence_prob
    from lzguess.guessers import lz_guess_prob
    from lzguess.sideinfo import cond_guess_prob
    assert _pin(lz_guess_prob(parse_corpus_spec("periodic:ab", 2048))) == (
        12971,
        "3ac2ffb5ced380bf9724a5faf5be2e23070a962a02aa1cd6d6b7816dc0eb2976")
    assert _pin(lz_guess_prob(parse_corpus_spec("bernoulli:0.3:5", 4096))) \
        == (33798,
            "2c29c064c7324deac502923ee375513ae84bca5d92ba770734215abd567792ba")
    x = generate_corpus("bernoulli", 2048, p=0.5, seed=11)
    y = generate_corpus("bernoulli", 2048, p=0.5, seed=12)
    assert _pin(cond_guess_prob(x, y)) == (
        11304,
        "676b5bbdee1d162903c15e76fa1e79672930a2361f2bafdbac0a7186f1c0bf32")
    fig1 = build_fig1_machine()
    out = run(fig1, BitSource(3), 4096).output
    assert _pin(sequence_prob(fig1, out)) == (
        2712,
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a")


def test_fsgm_run_pinned_on_fig1():
    """Traces of the plain example machine on substreams 0-49, pinned from
    the machine model that kept its tables by state alone."""
    from lzguess.fsgm import build_fig1_machine, run
    fig1 = build_fig1_machine()
    h = hashlib.sha256()
    for k in range(50):
        t = run(fig1, BitSource(7, substream=k), 300)
        h.update(("%s|%s|%s|%s;" % (t.output.render(), ",".join(t.states),
                                    ",".join(t.words),
                                    ",".join(map(str, t.cursors)))).encode())
    assert h.hexdigest() == (
        "da0e2e386eea95ba29931587ac49eda5ebb0bd049e3a36f1710e76ea9f3a14da")


def _tables_sha(automaton):
    widths, tables = automaton
    h = hashlib.sha256()
    for s, width in enumerate(widths):
        h.update(("%d:%s;" % (width, ",".join(map(str, tables[s])))).encode())
    return h.hexdigest()


def test_lz_draw_paths_pinned_at_large_n():
    """The Monte Carlo run tables at n >= 2048, pinned from the separate
    trie walks that the one draw rule replaced."""
    from lzguess.guessers import _lz_run_tables
    pins = {
        ("periodic:ab", 2048):
            "29451217be9947eb3976c0c4899ecb03584ed7005a851cefeb3c480748657c70",
        ("bernoulli:0.3:5", 4096):
            "25128e750aee7489ae3dffa20baf2dc64f101a79377193ca54e1af386a5e1f4f",
        ("thue_morse", 4096):
            "df55f99fb16ed92051fe72dac52fe8cc24215e332350b9f73af22aa735854a08",
    }
    for (spec, n), tables in pins.items():
        x = parse_corpus_spec(spec, n)
        assert _tables_sha(_lz_run_tables(x)) == tables


@pytest.mark.parametrize("size,max_n", [(2, 8), (3, 5)])
def test_run_tables_law_is_the_exact_law(size, max_n):
    # every target up to max_n, so each overshoot and modulo case shows up
    from lzguess.guessers import _lz_run_tables, lz_guess_prob
    alphabet = Alphabet(tuple("abc"[:size]))
    for n in range(1, max_n + 1):
        for word in itertools.product(range(size), repeat=n):
            x = SymbolSeq(alphabet, bytes(word))
            assert (automaton_law(*_lz_run_tables(x))
                    == lz_guess_prob(x).as_fraction())


def _noisy_pair(n, seed, flip):
    """A fair-coin x and y = x with each symbol flipped with prob. flip."""
    x = generate_corpus("bernoulli", n, p=0.5, seed=seed)
    noise = generate_corpus("bernoulli", n, p=flip, seed=seed + 1)
    return x, SymbolSeq(x.alphabet, bytes(
        a ^ b for a, b in zip(x.indices, noise.indices)))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_conditional_paths_pinned_at_large_n():
    """The conditional code, joint parse and sampler at large n, pinned
    from the separate coder, history and sampler dictionaries that the one
    joint dictionary replaced."""
    from lzguess.sideinfo import cond_code, cond_decode, cond_sample, joint_parse
    x, y = _noisy_pair(4096, 31, 0.1)
    code = cond_code(x, y)
    assert _sha(code.encode()) == (
        "9c497a2b5ce660688404a295c0d904a4aec694ca1a07cae5b5fbfb0a145c83b4")
    assert cond_decode(code, y, len(x), x.alphabet) == x
    # a ternary x against a 4-ary y: side symbol 3 has no copy candidate
    bits = BitSource(33)
    x = SymbolSeq(Alphabet(("a", "b", "c")),
                  bytes(bits.next_bits(2) % 3 for _ in range(4096)))
    y = SymbolSeq(Alphabet(("0", "1", "2", "3")),
                  bytes((c + bits.next_bits(1)) % 4 for c in x.indices))
    code = cond_code(x, y)
    assert (len(code), _sha(code.encode())) == (
        5227,
        "be52e39bf011b22ceeb7d60abe48a402eb8bf15535a408e4690f55d6b4f86bcf")
    assert cond_decode(code, y, len(x), x.alphabet) == x
    c_j = joint_parse(*_noisy_pair(65536, 35, 0.1)).c_j
    assert (len(c_j), _sha(",".join(map(str, c_j)).encode())) == (
        2991,
        "be6aa562374b10cb535ee9307df957ed08bbbc27f5469dd830f4e98e51814836")
    _, y = _noisy_pair(32, 37, 0.05)
    samples = [cond_sample(y, 32, BitSource(39, k)) for k in range(50)]
    assert samples[0].render() == "bbbbbabbabbaabababbbbbabababbbbb"
    assert _sha(b"".join(s.indices for s in samples)) == (
        "6bafd671ff8d7153de74d0ffec765566f13e574e12413fff313ed5c8887553a5")
