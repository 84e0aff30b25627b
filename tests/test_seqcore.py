import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lzguess.seqcore import (AB, Alphabet, BitSource, DyadicProb, SymbolSeq,
                             derive_substream_seed, forward, generate_corpus,
                             ingest, parse_corpus_spec, thue_morse_bits)


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


def test_symbolseq_slicing_and_equality():
    s = ingest("abbab", "ab")
    assert s[1:3].render() == "bb"
    assert s[1:3] == ingest("bb", "ab")
    assert hash(s) == hash(ingest("abbab", "ab"))


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


def test_bernoulli_reproducible():
    a = generate_corpus("bernoulli", 16, p=0.5, seed=7)
    b = generate_corpus("bernoulli", 16, p=0.5, seed=7)
    c = generate_corpus("bernoulli", 16, p=0.5, seed=8)
    assert a == b
    assert a != c
    assert len(a) == 16


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


def test_file_corpus(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("abbab\n")
    got = parse_corpus_spec("file:%s" % path, 5)
    assert got.render() == "abbab"
    assert generate_corpus("file", 3, path=str(path)).render() == "abb"


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
    assert half.complement() == half
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
    assert (a <= b) == (fa <= fb)
    assert (a == b) == (fa == fb)


# --- the forward-pass kernel -------------------------------------------------

def _moves(table):
    """A step function from {(pos, state): [(next_pos, next_state, count,
    bits), ...]}."""
    return lambda pos, state: iter(table.get((pos, state), ()))


@pytest.mark.parametrize("first, second", [((1, 1), (3, 3)),
                                           ((3, 3), (1, 1))])
def test_forward_merges_meeting_paths(first, second):
    # two paths of unequal exponent meet at (2, "z"); either may arrive
    # first, so both alignments of the kernel's merge run
    step = _moves({(0, "a"): [(1, "b", 1, 1), (1, "c", 1, 1)],
                   (1, "b"): [(2, "z", *first), (2, "y", 1, 1)],
                   (1, "c"): [(2, "z", *second)]})
    out = forward(2, "a", step)
    expect = (Fraction(1, 2) * Fraction(first[0], 1 << first[1])
              + Fraction(1, 2) * Fraction(second[0], 1 << second[1]))
    assert out["z"].as_fraction() == expect
    assert out["y"] == DyadicProb(1, 2)
    assert set(out) == {"y", "z"}


def test_forward_skips_positions_and_keeps_zero_length():
    step = _moves({(0, "a"): [(3, "z", 1, 2), (1, "b", 3, 2)],
                   (1, "b"): [(3, "z", 1, 0)]})
    assert forward(3, "a", step) == {"z": DyadicProb.one()}
    assert forward(0, "a", step) == {"a": DyadicProb.one()}


def test_forward_rejects_bad_moves_and_excess_mass():
    with pytest.raises(ValueError):      # count > 2**bits
        forward(1, "a", _moves({(0, "a"): [(1, "b", 3, 1)]}))
    with pytest.raises(ValueError):      # no pattern moves it
        forward(1, "a", _moves({(0, "a"): [(1, "b", 0, 1)]}))
    with pytest.raises(ValueError):      # past position n
        forward(1, "a", _moves({(0, "a"): [(2, "b", 1, 1)]}))
    with pytest.raises(ValueError):      # not forward
        forward(2, "a", _moves({(0, "a"): [(1, "b", 1, 0)],
                                (1, "b"): [(1, "c", 1, 1)]}))
    double = [(1, "b", 1, 0), (1, "b", 1, 0)]
    with pytest.raises(ValueError):      # mass 2 checked before expansion
        forward(2, "a", _moves({(0, "a"): double, (1, "b"): []}))
    with pytest.raises(ValueError):      # and in the final layer
        forward(1, "a", _moves({(0, "a"): double}))


def test_forward_unreachable_end_is_empty_and_callers_return_zero():
    from lzguess.fsgm import build_fig1_machine, sequence_prob
    step = _moves({(0, "a"): [(1, "b", 1, 1)]})
    assert forward(2, "a", step) == {}
    fig1 = build_fig1_machine()
    assert sequence_prob(fig1, SymbolSeq(fig1.alphabet, bytes([1, 1]))) \
        == DyadicProb.zero()


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


def _tables_sha(tables):
    h = hashlib.sha256()
    for width, table in zip(*tables):
        h.update(("%d:%s;" % (width, ",".join(map(str, table)))).encode())
    return h.hexdigest()


def test_lz_draw_paths_pinned_at_large_n():
    """The aligned witness and the Monte Carlo run tables at n >= 2048,
    pinned from the separate trie walks that the one draw rule replaced."""
    from lzguess.guessers import _lz_run_tables, aligned_guess_prob
    pins = {
        ("periodic:ab", 2048): (
            (586, "e7cf46a078fed4fafd0b5e3aff144802"
                  "b853f8ae459a4f0c14add3314b7cc3a6"),
            "29451217be9947eb3976c0c4899ecb03584ed7005a851cefeb3c480748657c70"),
        ("bernoulli:0.3:5", 4096): (
            (4399, "ca358758f6d27e6cf45272937977a748"
                   "fd88391db679ceda7dc7bf1f005ee879"),
            "25128e750aee7489ae3dffa20baf2dc64f101a79377193ca54e1af386a5e1f4f"),
        ("thue_morse", 4096): (
            (3025, "2b4c342f5433ebe591a1da77e013d1b7"
                   "2475562d48578dca8b84bac6651c3cb9"),
            "df55f99fb16ed92051fe72dac52fe8cc24215e332350b9f73af22aa735854a08"),
    }
    for (spec, n), (aligned, tables) in pins.items():
        x = parse_corpus_spec(spec, n)
        assert _pin(aligned_guess_prob(x)) == aligned
        assert _tables_sha(_lz_run_tables(x)) == tables


def _table_law(x):
    """Pr(the run tables reach WIN from matched length 0), by a dynamic
    program over table-entry counts: every raw field is equally likely."""
    from lzguess.guessers import _lz_run_tables
    widths, tables = _lz_run_tables(x)
    mass = [Fraction(0)] * len(x)
    mass[0] = Fraction(1)
    win = Fraction(0)
    for e, (width, table) in enumerate(zip(widths, tables)):
        assert len(table) == 1 << width
        share = mass[e] / len(table)
        for code in table:
            if code == -2:
                win += share
            elif code >= 0:
                assert e < code < len(x)
                mass[code] += share
    return win


@pytest.mark.parametrize("size,max_n", [(2, 8), (3, 5)])
def test_run_tables_law_is_the_exact_law(size, max_n):
    # every target up to max_n, so each overshoot and modulo case shows up
    from lzguess.guessers import lz_guess_prob
    alphabet = Alphabet(tuple("abc"[:size]))
    for n in range(1, max_n + 1):
        for word in itertools.product(range(size), repeat=n):
            x = SymbolSeq(alphabet, bytes(word))
            assert _table_law(x) == lz_guess_prob(x).as_fraction()


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
