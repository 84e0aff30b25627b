import collections
import itertools
import math
import pickle
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lzguess.seqcore import (_START_BITS, FAIL, WIN, Alphabet, BitSource,
                             BudgetError, DyadicProb, SymbolSeq,
                             _start_window, derive_substream_seed,
                             parse_corpus_spec, play)
from lzguess import guessers, seqcore, series
from lzguess.lz78 import incremental_parse
from lzguess.fsgm import (FSGMSpec, automaton, build_fig1_machine,
                          output_distribution)
from lzguess.guessers import (Guesser, MomentEstimate, _lz_draws_at,
                              _lz_run_tables, _moment_series,
                              block_guess_prob, compile_automaton,
                              compile_block_guesser_to_fsgm, estimate_moment,
                              lz_guess_prob, lz_sample, make_runner,
                              moment_exact, moment_grid, moment_log2,
                              moment_lower_bound, moment_lower_bound_log2,
                              play_counts, run_game)
from conftest import FixedBits, all_seqs, seq, xor_machine

B01 = Alphabet(("0", "1"))
ABC = Alphabet(("a", "b", "c"))
T012 = Alphabet(("0", "1", "2"))


# --- independent oracles for the sampling process ---------------------------

def process_distribution(alphabet, n):
    """Exact law of the dictionary sampler, by enumerating every draw path.

    Re-derives the process from its definition: the dictionary is the
    incremental parse of the emitted output (computed here by naive string
    reparsing), a draw reads ceil(log2 t) pointer bits (mod t) and
    ceil(log2 alpha) symbol bits (mod alpha), and the final draw may
    overshoot.  Exact rational arithmetic throughout.
    """
    alpha = alphabet.size
    a = alphabet.bits_per_symbol
    dist = {}

    def dictionary(out):
        words = [b""]
        seen = {b""}
        node = b""
        for c in out:
            cand = node + bytes([c])
            if cand in seen:
                node = cand
            else:
                words.append(cand)
                seen.add(cand)
                node = b""
        return words

    def rec(out, p):
        if len(out) >= n:
            key = bytes(out[:n])
            dist[key] = dist.get(key, Fraction(0)) + p
            return
        words = dictionary(out)
        t = len(words)
        width = (t - 1).bit_length()
        step = Fraction(1, 1 << (width + a))
        for raw_ptr in range(1 << width):
            for raw_sym in range(1 << a):
                w = words[raw_ptr % t] + bytes([raw_sym % alpha])
                rec(out + w, p * step)

    rec(b"", Fraction(1))
    return {SymbolSeq(alphabet, k): v for k, v in dist.items()}


def blackbox_distribution(sample_fn, alphabet, n, bit_len):
    """Second oracle: run the sampler itself over every scripted bit string
    of a fixed length and count outcomes.  Only valid when no path consumes
    more than bit_len bits, which FixedBits enforces by raising."""
    counts = {}
    for v in range(1 << bit_len):
        bits = FixedBits(format(v, "0%db" % bit_len))
        out = sample_fn(bits)
        counts[out] = counts.get(out, 0) + 1
    return {x: Fraction(c, 1 << bit_len) for x, c in counts.items()}


def test_guess_prob_matches_path_enumeration_binary():
    for n in range(1, 6):
        oracle = process_distribution(B01, n)
        assert sum(oracle.values()) == 1
        for x in all_seqs(B01, n):
            assert lz_guess_prob(x).as_fraction() == oracle.get(x, Fraction(0))


def test_guess_prob_matches_path_enumeration_ternary():
    for n in range(1, 4):
        oracle = process_distribution(ABC, n)
        assert sum(oracle.values()) == 1
        for x in all_seqs(ABC, n):
            assert lz_guess_prob(x).as_fraction() == oracle.get(x, Fraction(0))


def test_sampler_blackbox_distribution_n3():
    dist = blackbox_distribution(lambda b: lz_sample(B01, 3, b), B01, 3, 10)
    for x in all_seqs(B01, 3):
        assert dist.get(x, Fraction(0)) == lz_guess_prob(x).as_fraction()


def test_known_values():
    assert lz_guess_prob(seq("0", B01)).as_fraction() == Fraction(1, 2)
    assert lz_guess_prob(seq("00", B01)).as_fraction() == Fraction(3, 8)
    assert lz_guess_prob(seq("000", B01)).as_fraction() == Fraction(7, 32)


def test_guess_prob_sums_to_one():
    for n in range(1, 9):
        total = DyadicProb.zero()
        for x in all_seqs(B01, n):
            total = total + lz_guess_prob(x)
        assert total == DyadicProb.one()


def test_dominance_over_code_length():
    for n in range(1, 11):
        for x in all_seqs(B01, n):
            q = lz_guess_prob(x)
            L = incremental_parse(x).code_length_bits
            assert q.as_fraction() >= Fraction(1, 2 ** L)


def _lz_draws_per_draw(x):
    """Test-local copy of the per-draw LZ draw rule that the run form
    replaced: yields (e, t, draws), one (node, sym, e', count, bits) per
    draw and the overshoot as (nodes, None, n, count, bits)."""
    n = len(x)
    a_bits = x.alphabet.bits_per_symbol
    alpha = x.alphabet.size
    sym_counts = [((1 << a_bits) - 1 - s) // alpha + 1 for s in range(alpha)]
    parse = incremental_parse(x)
    t_at = parse.node_counts()
    children = parse.trie.children
    idx = x.indices
    for e in range(n):
        t = t_at[e]
        width = (t - 1).bit_length()

        def ptr_count(node):
            return ((1 << width) - 1 - node) // t + 1
        draws = []
        node = 0
        for p in range(e, n):
            sym = idx[p]
            draws.append((node, sym, p + 1, ptr_count(node) * sym_counts[sym],
                          width + a_bits))
            node = children[node].get(sym)
            if node is None or node >= t:
                break
        else:
            nodes = [node]
            for v in nodes:
                nodes.extend(c for c in children[v].values() if c < t)
            draws.append((nodes, None, n, sum(map(ptr_count, nodes)), width))
        yield e, t, draws


def _check_runs_against_per_draw_rule(x):
    """The runs of _lz_draws_at, expanded draw by draw over the path they
    carry, are the per-draw rule's draws; each run starts where the last
    ended, two runs in a row differ in count, and the overshoot, reading
    pointer bits alone, comes last."""
    n = len(x)
    _t_at, at = _lz_draws_at(x)
    runs_at = [(e, *at(e)) for e in range(n)]
    want_at = list(_lz_draws_per_draw(x))
    assert len(runs_at) == len(want_at) == n
    for (e, t, moves, path, over), (we, wt, want) in zip(runs_at, want_at):
        assert (e, t) == (we, wt)
        width = (t - 1).bit_length()
        runs = moves[:-1] if over else moves
        got = []
        reach = e + 1
        for i, (first, last, state, count, bits) in enumerate(runs):
            assert state is None and bits > width
            assert first == reach <= last
            assert i == 0 or runs[i - 1][3] != count
            got.extend((path[p - e - 1], x.indices[p - 1], p, count, bits)
                       for p in range(first, last + 1))
            reach = last + 1
        assert reach == e + len(path) + 1
        if over:
            first, last, state, count, bits = moves[-1]
            assert (first, last, state, bits) == (n, n, None, width)
            got.append((over, None, n, count, bits))
        assert got == want, (x, e)


@pytest.mark.parametrize("alphabet", [B01, ABC], ids=["binary", "ternary"])
def test_lz_draw_runs_expand_to_the_per_draw_rule(alphabet):
    # ternary symbol counts (2, 1, 1) break runs where the pointer count
    # does not
    for n in range(1, 11):
        for x in all_seqs(alphabet, n):
            _check_runs_against_per_draw_rule(x)


@pytest.mark.parametrize("spec,n", [("periodic:ab", 2048),
                                    ("bernoulli:0.3:5", 4096),
                                    ("thue_morse", 4096)])
def test_lz_draw_runs_expand_to_the_per_draw_rule_at_large_n(spec, n):
    # the corpora of test_lz_draw_paths_pinned_at_large_n
    _check_runs_against_per_draw_rule(parse_corpus_spec(spec, n))


def test_sampler_empirical_frequencies_n5():
    counts = {}
    rounds = 1000000
    for k in range(rounds):
        out = lz_sample(B01, 5, BitSource(17, substream=k))
        counts[out] = counts.get(out, 0) + 1
    for x in all_seqs(B01, 5):
        qf = float(lz_guess_prob(x))
        emp = counts.get(x, 0) / rounds
        sigma = math.sqrt(qf * (1 - qf) / rounds)
        assert abs(emp - qf) <= 3 * sigma


# --- block guesser ------------------------------------------------------------

def test_block_equals_full_when_ell_is_n():
    for n in range(1, 8):
        for x in all_seqs(B01, n):
            assert block_guess_prob(x, n) == lz_guess_prob(x)


def test_block_ell1_is_symbolwise_uniform():
    for n in range(1, 7):
        for x in all_seqs(B01, n):
            assert block_guess_prob(x, 1) == DyadicProb(1, n)


def test_block_product_property():
    x = seq("0000", B01)
    assert block_guess_prob(x, 2).as_fraction() == Fraction(9, 64)
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 20)
        ell = rng.randrange(1, 8)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        expect = Fraction(1)
        for b in range(0, n, ell):
            expect *= lz_guess_prob(x[b:min(b + ell, n)]).as_fraction()
        assert block_guess_prob(x, ell).as_fraction() == expect


def test_block_guess_prob_sums_to_one():
    for ell in (1, 2, 3):
        for n in (5, 6):
            total = DyadicProb.zero()
            for x in all_seqs(B01, n):
                total = total + block_guess_prob(x, ell)
            assert total == DyadicProb.one()


def test_block_sampler_blackbox_distribution():
    dist = blackbox_distribution(
        Guesser("lz_block", B01, 4, ell=2).sample, B01, 4, 8)
    for x in all_seqs(B01, 4):
        assert dist.get(x, Fraction(0)) == block_guess_prob(x, 2).as_fraction()


# --- compiling the block guesser to a machine -----------------------------------

def test_compile_ell1_single_state():
    spec = compile_block_guesser_to_fsgm(1, B01)
    assert spec.state_count == 1
    dist = output_distribution(spec, 3)
    assert all(p == DyadicProb(1, 3) for p in dist.values())


def test_compile_ell2_distribution_equality():
    spec = compile_block_guesser_to_fsgm(2, B01)
    assert spec.state_count <= 2 * 2 ** 2
    dist = output_distribution(spec, 4)
    for x in all_seqs(B01, 4):
        assert dist.get(x, DyadicProb.zero()) == block_guess_prob(x, 2)


def test_compile_ell3_distribution_equality():
    spec = compile_block_guesser_to_fsgm(3, B01)
    assert spec.state_count <= 3 * 2 ** 3
    dist = output_distribution(spec, 6)
    for x in all_seqs(B01, 6):
        assert dist.get(x, DyadicProb.zero()) == block_guess_prob(x, 3)


def test_compile_budget_guard():
    with pytest.raises(BudgetError):
        compile_block_guesser_to_fsgm(12, B01)


def test_compile_law_when_tokens_spell_each_other():
    # the prefixes (a, b) and (ab) spell alike, yet are distinct states
    alph = Alphabet(("a", "b", "ab"))
    spec = compile_block_guesser_to_fsgm(3, alph)
    for n in range(1, 7):
        dist = output_distribution(spec, n)
        for x in all_seqs(alph, n):
            assert dist.get(x, DyadicProb.zero()) == block_guess_prob(x, 3)


def test_compile_every_admissible_size_within_half_the_budget():
    pairs = [(alpha, ell) for ell in range(1, 13) for alpha in range(2, 257)
             if ell * alpha ** ell <= 4096]
    assert len(pairs) == 318
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, ell in pairs:
            spec = compile_block_guesser_to_fsgm(ell, Alphabet(range(alpha)))
            assert spec.state_count <= ell * alpha ** ell // 2, (alpha, ell)


# --- moments --------------------------------------------------------------------

def test_moment_closed_forms():
    assert moment_exact(1.0, 1).value == 1.0
    assert moment_exact(0.5, 1).value == 2.0
    assert moment_exact(0.5, 2).value == 6.0
    assert moment_exact(0.25, 2).value == (2 - 0.25) / 0.25 ** 2 == 28.0


def test_moment_series_matches_closed_forms():
    for q in (0.9, 0.5, 0.2, 0.05, 0.01):
        for zeta, closed in ((1, 1 / q), (2, (2 - q) / q ** 2)):
            got = _moment_series(q, zeta)
            assert got.value == pytest.approx(closed, rel=1e-11)
            assert got.rel_err < 1e-12


def test_moment_series_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = random.Random(4)
    for _ in range(20):
        q = rng.uniform(0.02, 0.9)
        zeta = rng.uniform(0.25, 3.0)
        oracle = float(mp.nsum(
            lambda k: mp.power(k, zeta) * mp.power(1 - q, k - 1) * q,
            [1, mp.inf]))
        got = moment_exact(q, zeta)
        assert got.value == pytest.approx(oracle, rel=1e-9)


def test_moment_divergence_and_domain():
    with pytest.raises(ValueError):
        moment_exact(0.0, 1)
    with pytest.raises(ValueError):
        moment_exact(0.5, 0)
    with pytest.raises(ValueError):
        moment_lower_bound(0.6, 1)


def test_moment_overflow_is_value_error():
    with pytest.raises(ValueError, match="overflow"):
        moment_exact(0.5, 1000)
    # a k**zeta of the series overflows but E[G^150] does not: the value
    # comes from moment_log2; the reference is a 50-digit mpmath sum
    got = moment_exact(0.5, 150)
    assert got.rel_err == 1e-12
    assert math.log2(got.value) == pytest.approx(952.7032286617588, abs=1e-12)
    # q > 0.957 takes the log-domain series of moment_log2, which reaches
    # any value; the reference is a 50-digit mpmath sum
    assert moment_log2(-0.01, 2000.0) == pytest.approx(14428.362, abs=1e-3)


def test_moment_when_one_minus_q_rounds_to_one():
    # the series cannot stop here: (1 + 1/k)^zeta * (1 - q) stays >= 1
    for q, zeta in itertools.chain(
            itertools.product((1e-17, 2.0 ** -80), (0.5, 1.5, 3.0)),
            [(5e-324, 0.5)]):
        assert 1.0 - q == 1.0
        got = moment_exact(q, zeta)
        assert got.rel_err == 1e-12
        # E[G^zeta] -> Gamma(zeta + 1) / q^zeta as q -> 0
        want = math.exp(math.lgamma(zeta + 1) - zeta * math.log(q))
        assert got.value == pytest.approx(want, rel=1e-12)
    assert _moment_series(1e-17, 1.5).rel_err == 1e-12
    with pytest.raises(ValueError, match="overflow"):
        moment_exact(1e-300, 4.0)


def test_moment_below_series_threshold_reads_the_evaluator():
    # the series needs about zeta/q terms, over a million below q = 2**-20
    for q in (0.99 * 2.0 ** -20, 1e-9, 1e-12):
        for zeta in (0.5, 1.5, 3.0):
            got = moment_exact(q, zeta)
            assert got.rel_err == 1e-12
            assert got.value == 2.0 ** moment_log2(math.log2(q), zeta)


def test_moment_lower_bound_values():
    assert moment_lower_bound(0.5, 1) == pytest.approx(math.e ** -2)
    assert moment_lower_bound(0.25, 2) == pytest.approx(4 / math.e ** 2)
    assert moment_exact(0.5, 1).value >= moment_lower_bound(0.5, 1)
    assert moment_exact(0.25, 2).value >= moment_lower_bound(0.25, 2)


def test_moment_lower_bound_sweep():
    rng = random.Random(8)
    for _ in range(1000):
        q = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
        zeta = rng.uniform(0.25, 3.0)
        assert moment_lower_bound(q, zeta) <= moment_exact(q, zeta).value


def test_moment_overflow_at_tiny_q_is_value_error():
    # closed forms whose q * q or 1 / q overflows, a series row past
    # 2**1024, and a lower bound whose q**-zeta overflows
    for qs, zetas in (([1e-200], [2]), ([1e-160], [2]), ([5e-324], [1]),
                      ([0.5, 1e-300], [1.5, 2])):
        with pytest.raises(ValueError, match="overflows a double"):
            moment_grid(qs, zetas)
    with pytest.raises(ValueError) as info:
        moment_grid([0.5, 1e-160, 0.0], [1, 2])
    assert str(info.value) == "E[G^2] at q = 1e-160 overflows a double"
    for q, zeta in ((5e-324, 1), (1e-300, 1.1), (0.25, 1500)):
        with pytest.raises(ValueError, match="lower bound .* overflows"):
            moment_lower_bound(q, zeta)
    # q**-zeta overflows, the bound does not: it comes from its log2
    assert moment_lower_bound(5e-324, 0.95345) == 2.0 ** (
        guessers.moment_lower_bound_log2(math.log2(5e-324), 0.95345))
    assert moment_lower_bound(0.5, 2000) == pytest.approx(math.e ** -2)


def _series_term_by_term(qf, zeta, tol=1e-12):
    """moment_exact's series as one term per loop iteration: the reference
    the chunked series must equal bit for bit."""
    one_minus = 1.0 - qf
    total, term_geom, k = 0.0, qf, 1
    while True:
        total += (k ** zeta) * term_geom
        r = ((1.0 + 1.0 / k) ** zeta) * one_minus
        if r < 1.0:
            tail = (((k + 1) ** zeta) * term_geom * one_minus) / (1.0 - r)
            if tail <= tol * total:
                return total + 0.5 * tail, tail / total
        term_geom *= one_minus
        k += 1


# the benchmark's moments-window qs at seed 1, with zeta 1.5 and 3
_WINDOW_QS = (0.00021094531388311813, 0.00014127985039861263)


@pytest.mark.parametrize("q", (1 - 1e-9, 0.999, 0.75, 0.5, 0.1, 0.01,
                               2.0 ** -7.3, 1e-3) + _WINDOW_QS)
def test_moment_series_equals_term_by_term_loop(q):
    for zeta in (0.01, 0.5, 1, 1.5, 2, 3, 7.7, 170, 1100):
        if q < 1e-3 and zeta not in (1.5, 3):
            continue
        try:
            want = _series_term_by_term(q, zeta)
        except OverflowError:
            # a k**zeta overflows: the value is moment_log2's, if it fits
            m_log2 = moment_log2(math.log2(q), zeta)
            if m_log2 >= 1024:
                with pytest.raises(ValueError, match="overflows a double"):
                    _moment_series(q, zeta)
            else:
                assert tuple(_moment_series(q, zeta)) == (
                    2.0 ** m_log2, 1e-12), zeta
            continue
        assert tuple(_moment_series(q, zeta)) == want, zeta


# the grid of the oracle tests below: the qs above, q = 1, and a q below
# the series' threshold
_GRID_QS = (1 - 1e-9, 0.999, 0.75, 0.5, 0.1, 0.01, 2.0 ** -7.3,
            1e-3) + _WINDOW_QS + (1.0, 0.99 * 2.0 ** -20)
_GRID_ZETAS = (0.01, 0.5, 1, 1.5, 2, 3, 7.7, 170, 1100)


def _costly(q, zeta):
    """A series row skipped as above: 10^4 terms and more."""
    return 2.0 ** -20 <= q < 1e-3 and zeta not in (1.5, 3)


def _outcome(call, *args):
    """A moment call's (value, rel_err), or its ValueError's message."""
    try:
        return tuple(call(*args))
    except ValueError as exc:
        return str(exc)


def _row_reference(q, zeta, closed):
    """Row (q, zeta) by its own case: the closed forms at zeta in {1, 2}
    when `closed`, and at q = 1; the term-by-term loop; moment_log2 below
    2**-20 and where a k**zeta overflows, or its overflow message."""
    if closed and zeta == 1:
        return 1.0 / q, 0.0
    if closed and zeta == 2:
        return (2.0 - q) / (q * q), 0.0
    if q == 1.0:
        return 1.0, 0.0
    if q >= 2.0 ** -20:
        try:
            return _series_term_by_term(q, zeta)
        except OverflowError:
            pass
    m_log2 = moment_log2(math.log2(q), zeta)
    if m_log2 >= 1024:
        return "E[G^%r] at q = %r overflows a double" % (zeta, q)
    return 2.0 ** m_log2, 1e-12


def test_series_grid_rows_equal_their_own_calls_and_the_oracle():
    # one lockstep series over every row at once; a row left to
    # moment_log2 (None) takes the fallback that moment_grid gives it
    rows = [(q, zeta) for q in _GRID_QS for zeta in _GRID_ZETAS
            if not _costly(q, zeta)]
    found = series.series_grid(rows)
    assert len(found) == len(rows)
    for (q, zeta), got in zip(rows, found):
        got = (tuple(got) if got is not None else
               _outcome(guessers._moment_from_log2, q, zeta))
        want = _row_reference(q, zeta, closed=False)
        assert got == _outcome(_moment_series, q, zeta) == want, (q, zeta)


def _stop_term(qf, zeta, tol=1e-12):
    """The k at which the term-by-term loop above stops."""
    one_minus = 1.0 - qf
    total, term_geom, k = 0.0, qf, 1
    while True:
        total += (k ** zeta) * term_geom
        r = ((1.0 + 1.0 / k) ** zeta) * one_minus
        if r < 1.0 and ((((k + 1) ** zeta) * term_geom * one_minus)
                        / (1.0 - r)) <= tol * total:
            return k
        term_geom *= one_minus
        k += 1


# (q, zeta, k): rows whose series stops at term k, the first, second,
# next-to-last or last term of a chunk of series_grid: chunk sizes 16,
# 32, 256, 512, 1024, 2048 and two of 4096
_EDGE_ROWS = (
    (0.80294, 3, 23), (0.749192, 1.5, 24), (0.701897, 0.5, 25),
    (0.843185, 7.7, 26), (0.442858, 1.5, 56), (0.476567, 3, 57),
    (0.070469, 3, 503), (0.089991, 7.7, 505), (0.045749, 7.7, 1016),
    (0.031573, 1.5, 1017), (0.017845, 3, 2040), (0.015856, 1.5, 2041),
    (0.008944883, 3, 4088), (0.0079450001, 1.5, 4089),
    (0.00359308, 0.5, 8184), (0.00579591014, 7.7, 8185),
    (0.0044773, 3, 8186), (0.002653003, 1.5, 12279))


def test_series_rows_stopping_at_chunk_edges_equal_the_oracle():
    # the bisection of the stopping chunk finds the loop's first k at
    # either end of a chunk, and in chunks of every size
    edges, k, size = set(), 1, 8
    while k < 20000:
        edges.update((k, k + 1, k + size - 2, k + size - 1))
        k += size
        size = min(2 * size, series._SERIES_CHUNK)
    assert {k for _, _, k in _EDGE_ROWS} <= edges
    rows = [(q, zeta) for q, zeta, _ in _EDGE_ROWS]
    for (q, zeta, k), got in zip(_EDGE_ROWS, series.series_grid(rows)):
        assert _stop_term(q, zeta) == k, (q, zeta)
        assert tuple(got) == _series_term_by_term(q, zeta), (q, zeta)


@pytest.mark.parametrize("qs, zetas", [
    (_GRID_QS[:8] + (1.0, 0.99 * 2.0 ** -20),
     (0.01, 0.5, 1, 1.5, 2, 3, 7.7)),
    (_WINDOW_QS + (1.0, 0.5), (1.5, 1, 3, 2)),
    ((0.999, 1 - 1e-9, 0.75, 1.0), (170, 3, 170)),
    # repeated values, and an int zeta beside the equal float: at q = 0.003
    # 5 and 5.0 give two values, as k**5 and pow(k, 5.0) round apart
    ((0.5, 0.003, 0.5, 0.003), (3, 1.5, 3, 3.0, 1, 5, 5.0)),
], ids=["series-qs", "window-qs", "zeta-170", "repeats"])
def test_moment_grid_rows_equal_their_own_calls(qs, zetas):
    got = moment_grid(qs, zetas)
    assert len(got) == len(qs) * len(zetas)
    for (q, zeta), row in zip(itertools.product(qs, zetas), got):
        assert (tuple(row) == tuple(moment_exact(q, zeta))
                == _row_reference(q, zeta, closed=True)), (q, zeta)


def test_moment_grid_memory_is_one_chunk_list_per_zeta_and_per_q():
    # at the largest chunk a call holds one list of 4096 floats (about
    # 130 KB) per live zeta and one for the current q: three here
    tracemalloc.start()
    try:
        moment_grid(_WINDOW_QS, [1.5, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 4096 * 32


def test_moment_grid_raises_the_first_failing_row_error():
    # q-major: the overflow of (0.5, 1000) is met before q = 0 diverges
    with pytest.raises(ValueError) as info:
        moment_grid([0.5, 0.0], [1000])
    assert str(info.value) == "E[G^1000] at q = 0.5 overflows a double"
    for qs, zetas in (([0.0, 0.5], [1000]), ([0.5], [1.5, 0, 1000]),
                      ([0.5], [1000, 0]), ([0.25, 1e-300], [1, 4.0]),
                      ([0.5, 2.0, 0.25], [1.5, 3]), ([0.1], [math.nan])):
        want = next(msg for msg in (_outcome(moment_exact, q, zeta)
                                    for q in qs for zeta in zetas)
                    if isinstance(msg, str))
        with pytest.raises(ValueError) as info:
            moment_grid(qs, zetas)
        assert str(info.value) == want, (qs, zetas)
    assert moment_grid([], [1.5]) == moment_grid([0.5], []) == []


def test_moment_log2_consistency():
    for q in (0.5, 0.01, 1e-6):
        for zeta in (0.5, 1.0, 2.0, 2.5):
            direct = math.log2(moment_exact(q, zeta).value)
            assert moment_log2(math.log2(q), zeta) == pytest.approx(
                direct, rel=1e-6)
    # deep log domain: the Gamma form, checked against the analytic limit
    got = moment_log2(-4000.0, 1.5)
    expect = math.lgamma(2.5) / math.log(2) + 1.5 * 4000.0
    assert got == pytest.approx(expect, rel=1e-12)
    assert moment_lower_bound_log2(-4000.0, 1.5) <= got


def test_moment_monotone_in_zeta():
    for qlog2 in (-3.0, -300.0):
        vals = [moment_log2(qlog2, z) for z in (0.25, 0.5, 1, 2, 3)]
        assert vals == sorted(vals)


_MU_PI_Q_LOG2 = math.log2(-math.expm1(-math.pi))      # mu = -ln(1-q) = pi
_POLYLOG_Q_LOG2 = (-4000.0, -1074.0, -60.0, -40.5, -40.0, -39.5, -22.0,
                   -16.4, -14.42, -5.0, -1.0, -0.1, -1e-3,
                   _MU_PI_Q_LOG2 - 1e-12, _MU_PI_Q_LOG2 + 1e-12)
_POLYLOG_ZETAS = (0.25, 0.5, 1.5, 2.5, 3.0, 4.0, 4.7)


def _polylog_moment_log2(mp, q_log2, zeta):
    """log2 of (q/(1-q)) Li_{-zeta}(1-q) by mpmath.polylog at 40 digits;
    1 - q is formed exactly first, which takes |q_log2| + 200 bits."""
    with mp.workprec(int(-q_log2) + 200):
        q = mp.mpf(2) ** q_log2
        z = 1 - q
    with mp.workdps(40):
        return mp.log(q / z * mp.polylog(-zeta, z), 2)


def test_moment_log2_against_polylog():
    mp = pytest.importorskip("mpmath")
    for q_log2 in _POLYLOG_Q_LOG2:
        for zeta in _POLYLOG_ZETAS:
            ref = float(_polylog_moment_log2(mp, q_log2, zeta))
            got = moment_log2(q_log2, zeta)
            # relative error of E at most 1e-12; a double near log2 E > 8192
            # cannot resolve E that finely, so its own ulp is allowed there
            tol = max(1e-12 / math.log(2), math.ulp(ref))
            assert abs(got - ref) <= tol, (q_log2, zeta, got, ref)


def _mu(q_log2):
    return -math.log1p(-2.0 ** q_log2)


def test_moment_log2_monotone_and_continuous_at_switch():
    zetas = sorted(_POLYLOG_ZETAS + (1.0, 2.0))
    for q_log2 in _POLYLOG_Q_LOG2:
        vals = [moment_log2(q_log2, z) for z in zetas]
        assert all(a < b for a, b in zip(vals, vals[1:])), q_log2
    lo, hi = _POLYLOG_Q_LOG2[-2:]
    assert _mu(lo) <= math.pi < _mu(hi)   # the grid straddles the switch
    # adjacent doubles on either side of mu = pi: E barely moves between
    # them, so the two evaluators must agree
    below = _MU_PI_Q_LOG2
    while _mu(below) > math.pi:
        below = math.nextafter(below, -math.inf)
    above = below
    while _mu(above) <= math.pi:
        above = math.nextafter(above, 0.0)
    assert above - below < 1e-14
    for zeta in _POLYLOG_ZETAS:
        a, b = moment_log2(below, zeta), moment_log2(above, zeta)
        assert abs(a - b) * math.log(2) <= 2e-12, zeta


def test_moment_log2_near_q_one_at_large_zeta():
    # once a log2(1 + (2 pi / mu)^2) passes 116, the Gamma form with R = 0
    # replaces the log-domain series; the two agree across that switch,
    # and no zeta, however large, makes the series long
    for q_log2 in (-0.05, -1e-3, -1e-9):
        mu = -math.log(-math.expm1(q_log2 * math.log(2)))
        switch = 116 / math.log2(1 + (2 * math.pi / mu) ** 2) - 1
        below = moment_log2(q_log2, math.nextafter(switch, 0.0))
        above = moment_log2(q_log2, math.nextafter(switch, math.inf))
        assert abs(above - below) * math.log(2) <= 2e-12, q_log2
        vals = [moment_log2(q_log2, z) for z in (1e4, 1e8, 1e16, 1e300)]
        assert vals == sorted(vals) and math.isfinite(vals[-1])


def test_moment_log2_domain():
    for zeta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            moment_log2(-100.0, zeta)
        with pytest.raises(ValueError):
            moment_exact(0.5, zeta)
    with pytest.raises(ValueError):
        moment_log2(0.5, 1.5)
    assert moment_log2(0.0, 1.5) == 0.0


# --- the game -------------------------------------------------------------------

def test_run_game_uniform_mean():
    g = Guesser("uniform", B01, 2)
    est = run_game(g, seq("01", B01), zeta=1.0, rounds=100000, seed=11)
    assert est.q_log2 == -2.0
    assert est.exact_moment_log2 == 2.0
    sigma = math.sqrt((1 - 0.25) / 0.25 ** 2 / est.rounds)
    assert abs(est.mc_mean - 4.0) <= 3 * sigma
    assert est.censored == 0


def test_run_game_lz_00():
    g = Guesser("lz_full", B01, 2)
    est = run_game(g, seq("00", B01), zeta=1.0, rounds=100000, seed=7)
    q = 3 / 8
    sigma = math.sqrt((1 - q) / q ** 2 / est.rounds)
    assert abs(est.mc_mean - 8 / 3) <= 3 * sigma


def test_run_game_censoring_rate():
    g = Guesser("lz_block", B01, 8, ell=1)   # q = 2^-8
    x = seq("01100101", B01)
    est = run_game(g, x, zeta=1.0, rounds=20000, seed=13, cap=2)
    q = 1 / 256
    expect = (1 - q) ** 2
    sigma = math.sqrt(expect * (1 - expect) / est.rounds)
    assert abs(est.censored / est.rounds - expect) <= 3.5 * sigma


def test_run_game_zero_probability_target():
    fig1 = __import__("lzguess.fsgm", fromlist=["build_fig1_machine"])
    spec = fig1.build_fig1_machine()
    g = Guesser("fsgm", spec.alphabet, 2, spec=spec)
    with pytest.raises(ValueError):
        run_game(g, SymbolSeq(spec.alphabet, bytes([1, 0])), rounds=10)


def test_run_game_jobs_equivalence():
    # workers hand back their rounds' counts and the parent folds them in
    # round order, so no Monte Carlo field depends on the worker count
    g = Guesser("lz_full", B01, 4)
    x = seq("0110", B01)
    for zeta, jobs in ((1.0, 3), (1.5, 2), (3.0, 2)):
        a = run_game(g, x, zeta=zeta, rounds=4000, seed=3, jobs=1)
        b = run_game(g, x, zeta=zeta, rounds=4000, seed=3, jobs=jobs)
        assert a.mc_mean == b.mc_mean
        assert a.mc_ci == b.mc_ci
        assert a.censored == b.censored


def test_guesser_validates_and_pickles():
    spec = build_fig1_machine()
    side_machine = xor_machine()
    y = seq("0110", B01)
    for args, kwargs, message in (
            (("lz_tree", B01, 4), {}, "unknown guesser kind"),
            (("lz_block", B01, 4), {}, "lz_block needs ell >= 1"),
            (("lz_block", B01, 4), {"ell": 0}, "lz_block needs ell >= 1"),
            (("fsgm", B01, 4), {}, "needs a machine spec"),
            (("uniform", B01, 4), {"side": y}, "side information needs"),
            (("fsgm", spec.alphabet, 4), {"spec": spec, "side": y},
             "side information needs"),
            (("fsgm", side_machine.alphabet, 4), {"spec": side_machine},
             "side information needs"),
            (("lz_full", B01, 5), {"side": y}, "side length 4 != guesser")):
        with pytest.raises(ValueError, match=message):
            Guesser(*args, **kwargs)
    # --jobs sends guessers to worker processes: a pickle round trip keeps
    # every field, a side machine's side included, and equality and hash
    # where no machine (compared by identity) is held
    for g in (Guesser("lz_full", B01, 4), Guesser("lz_block", B01, 4, ell=2),
              Guesser("uniform", B01, 4), Guesser("lz_full", B01, 4, side=y),
              Guesser("fsgm", spec.alphabet, 4, spec=spec),
              Guesser("fsgm", side_machine.alphabet, 4, spec=side_machine,
                      side=y)):
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Guesser
        assert (back.kind, back.alphabet, back.n, back.ell, back.side) == (
            g.kind, g.alphabet, g.n, g.ell, g.side)
        assert back.describe() == g.describe()
        if g.spec is None:
            assert back == g and hash(back) == hash(g)
    assert Guesser("lz_full", B01, 4) == Guesser("lz_full", B01, 4)
    assert len({Guesser("uniform", B01, 4), Guesser("uniform", B01, 4)}) == 1


def test_moment_estimate_fields_and_fold():
    # fold returns a filled copy and leaves the estimate it was called on
    # as it was; _asdict keeps the field order, the CLI's column order
    est = estimate_moment(DyadicProb(3, 3), 2.0, 2)
    assert (est.mc_mean, est.mc_ci, est.censored, est.rounds) == (
        None, None, None, None)
    assert list(est._asdict()) == list(MomentEstimate._fields)
    cap = 4
    full = est.fold([1, 2, 5, 3], cap)       # 5 = cap + 1: censored
    assert type(full) is MomentEstimate and full is not est
    assert full[:5] == est[:5]
    assert est.mc_mean is None and est.rounds is None
    squares = [1.0, 4.0, 16.0, 9.0]
    mean = sum(squares) / 4
    var = sum(g * g for g in squares) / 4 - mean * mean
    assert full.mc_mean == mean
    assert full.mc_ci == 3.0 * math.sqrt(var / 4)
    assert (full.censored, full.rounds) == (1, 4)
    assert est.fold([], cap) is est


def test_play_counts_in_round_order_for_any_worker_count():
    g = Guesser("lz_full", B01, 4)
    x = seq("0110", B01)
    counts = play_counts(g, x, 500, seed=3, cap=50)
    assert counts == list(play(compile_automaton(g, x), 500, 3, 50))
    assert play_counts(g, x, 500, seed=3, cap=50, jobs=2) == counts
    assert play_counts(g, x, 0) == []
    est = run_game(g, x, zeta=2.0)
    assert (est.mc_mean, est.mc_ci, est.censored, est.rounds) == (
        None, None, None, None)
    with pytest.raises(ValueError, match="rounds"):
        play_counts(g, x, -1)
    with pytest.raises(ValueError, match="jobs"):
        play_counts(g, x, 10, jobs=0)
    with pytest.raises(ValueError, match="rounds"):
        next(play(compile_automaton(g, x), -1, 0, 10))


def test_play_counts_agree_with_every_game_view():
    spec = build_fig1_machine()
    x = SymbolSeq.from_text("abbac", spec.alphabet)    # q = 1/4
    g = Guesser("fsgm", spec.alphabet, len(x), spec=spec)
    rounds, seed, cap = 400, 17, 3
    counts = list(play(automaton(spec, x), rounds, seed, cap))
    assert all(1 <= c <= cap + 1 for c in counts)
    censored = sum(c > cap for c in counts)
    assert 0 < censored < rounds
    est = run_game(g, x, zeta=1.0, rounds=rounds, seed=seed, cap=cap)
    assert est.censored == censored
    assert est.mc_mean == sum(min(c, cap) for c in counts) / rounds
    assert play_counts(g, x, rounds, seed, cap) == counts
    with pytest.raises(ValueError, match="cap"):
        next(play(automaton(spec, x), rounds, seed, 0))


def _fig1_case():
    spec = build_fig1_machine()
    return (Guesser("fsgm", spec.alphabet, 5, spec=spec),
            SymbolSeq.from_text("abbac", spec.alphabet))


_RUNNER_CASES = {
    "lz": lambda: (Guesser("lz_full", B01, 4), seq("0011", B01)),
    "block:3": lambda: (Guesser("lz_block", B01, 5, ell=3), seq("00101", B01)),
    "uniform": lambda: (Guesser("uniform", B01, 4), seq("0110", B01)),
    "fsgm": _fig1_case,
    "fsgm-side": lambda: (
        Guesser("fsgm", B01, 8, spec=xor_machine(),
                side=SymbolSeq(B01, bytes(random.Random(8).randrange(2)
                                          for _ in range(8)))),
        seq("01100110", B01)),
    "cond": lambda: (Guesser("lz_full", B01, 6, side=seq("011010", B01)),
                     seq("011011", B01)),
    "cond-block:3": lambda: (Guesser("lz_block", B01, 7, ell=3,
                                     side=seq("0110100", B01)),
                             seq("0110110", B01)),
    # a ternary side for a binary target: side symbol 2 has no copy
    "cond-tern": lambda: (Guesser("lz_full", B01, 6, side=seq("021201", T012)),
                          seq("011001", B01)),
    "cond-tern-block:3": lambda: (
        Guesser("lz_block", B01, 6, ell=3, side=seq("021201", T012)),
        seq("011001", B01)),
}


@pytest.mark.parametrize("case", list(_RUNNER_CASES))
def test_runner_matches_direct_comparison(case):
    # the early-abort runner and literal sample-and-compare agree on every
    # fresh substream, and the runner reads a prefix of the sampler's bits:
    # all of them when it wins
    g, x = _RUNNER_CASES[case]()
    attempt = make_runner(g, x)
    fast, slow = [], []
    for k in range(3000):
        run_bits, sample_bits = BitSource(5, k), BitSource(5, k)
        fast.append(attempt(run_bits))
        slow.append(g.sample(sample_bits) == x)
        assert run_bits.consumed <= sample_bits.consumed
        assert run_bits.consumed == sample_bits.consumed or not fast[-1]
    assert fast == slow
    assert 0 < sum(fast) < len(fast)


@pytest.mark.parametrize("case", list(_RUNNER_CASES))
def test_play_reads_the_bits_of_the_runner_oracle(case):
    # the inline reader of play against make_runner attempts, one after
    # another over BitSource(seed, k), the way play met them before it
    # read bits inline: equal counts, censored rounds included, and the
    # same for two workers
    g, x = _RUNNER_CASES[case]()
    attempt, game = make_runner(g, x), compile_automaton(g, x)
    rounds, cap = 60, 4
    seen = set()
    for seed in (0, 1, 7, 2 ** 40 + 3):
        want = []
        for k in range(rounds):
            bits = BitSource(seed, k)
            guesses = 1
            while not attempt(bits):
                if guesses > cap:
                    break
                guesses += 1
            want.append(guesses)
        assert list(play(game, rounds, seed, cap)) == want
        assert list(play(game, rounds - 5, seed, cap, start=5)) == want[5:]
        seen.update(c > cap for c in want)
    assert seen == {False, True}
    assert play_counts(g, x, rounds, seed, cap, jobs=2) == want


def _play_per_field(automaton, rounds, seed, cap, start=0):
    """play as one step per field, with no start window: the oracle for
    the window.  Bits are read from the substreams' splitmix64 words as
    BitSource.next_bits reads them."""
    widths, tables = automaton
    mask = (1 << 64) - 1
    out = []
    for k in range(start, start + rounds):
        counter = derive_substream_seed(seed, k)
        buf = avail = 0
        g, state = 1, 0
        while True:
            width = widths[state]
            while avail < width:
                counter = (counter + 0x9E3779B97F4A7C15) & mask
                z = ((counter ^ (counter >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                buf = (buf << 64) | z ^ (z >> 31)
                avail += 64
            avail -= width
            state = tables[state][buf >> avail]
            buf &= (1 << avail) - 1
            if state < 0:
                if state == WIN:
                    break
                if g >= cap:
                    g = cap + 1
                    break
                g += 1
                state = 0
        out.append(g)
    return out


def test_per_field_oracle_reads_the_runner_bits():
    # the oracle itself against make_runner attempts over BitSource
    g, x = _RUNNER_CASES["block:3"]()
    attempt = make_runner(g, x)
    want = []
    for k in range(200):
        bits, guesses = BitSource(3, k), 1
        while not attempt(bits) and guesses <= 5:
            guesses += 1
        want.append(guesses)
    assert _play_per_field(compile_automaton(g, x), 200, 3, 5) == want


@st.composite
def _random_automata(draw):
    """A random automaton whose states only lead to later states, FAIL or
    WIN, with fields of 0-12 bits; some start with zero-width states that
    FAIL."""
    widths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    tables = []
    for state, width in enumerate(widths):
        later = list(range(state + 1, len(widths)))
        weights = [rng.random(), rng.random() / 2] + [rng.random()] * len(later)
        tables.append(rng.choices([FAIL, WIN] + later, weights,
                                  k=1 << width))
    return widths, tables


@settings(max_examples=300, deadline=None)
@given(_random_automata(), st.integers(1, 6), st.integers(0, 2 ** 64),
       st.integers(0, 2 ** 40), st.integers(0, 40))
def test_play_window_matches_per_field_play(game, cap, seed, start, rounds):
    assert list(play(game, rounds, seed, cap, start)) == _play_per_field(
        game, rounds, seed, cap, start)


def _window_entry(widths, tables, k, pattern):
    """One start-window entry walked field by field: from state 0, restart
    after each FAIL, stop at WIN or at the first field that does not fit
    in the k bits of `pattern`.  A walk that stops inside an unfinished
    attempt after a FAIL ends at its last FAIL."""
    fails = used = state = at_fail = 0
    while used + widths[state] <= k:
        width = widths[state]
        used += width
        state = tables[state][(pattern >> (k - used)) & ((1 << width) - 1)]
        if state == WIN:
            return fails, used, WIN
        if state == FAIL:
            fails, at_fail, state = fails + 1, used, 0
    return (fails, at_fail, 0) if fails else (0, used, state)


@settings(max_examples=150, deadline=None)
@given(_random_automata(), st.integers(0, 12))
def test_start_window_entries_end_at_their_last_fail(game, k):
    widths, tables = game
    k = max(k, widths[0])
    window = _start_window(widths, tables, k, 7)
    state = 0
    while state >= 0 and not widths[state]:
        state = tables[state][0]
    if state == FAIL:       # every attempt fails without reading a bit
        assert window == [(7, 0, FAIL)] * (1 << k)
        return
    assert window == [_window_entry(widths, tables, k, pattern)
                      for pattern in range(1 << k)]


def test_start_window_entry_stops_before_an_unfinished_attempt():
    # four attempts 10 and one attempt 0 fail in the first nine bits; the
    # tenth bit starts an attempt that the window leaves to the next lookup
    game = ([1, 1], [[FAIL, 1], [FAIL, WIN]])
    assert _start_window(*game, 10, 100)[0b1010101001] == (5, 9, 0)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", list(_RUNNER_CASES))
def test_play_counts_equal_per_field_play(case, jobs):
    g, x = _RUNNER_CASES[case]()
    game = compile_automaton(g, x)
    for cap in (1, 3, 1000):
        want = _play_per_field(game, 200, 11, cap)
        assert play_counts(g, x, 200, 11, cap, jobs=jobs) == want
        assert list(play(game, 150, 11, cap, start=50)) == want[50:]


def _wide_start():
    """State 0 reads a field wider than the window's least width; a
    sixteenth of its fields lead to a one-bit state, one in 512 wins."""
    wide = _START_BITS + 2
    rng = random.Random(4)
    first = [1 if rng.random() < 1 / 16 else
             WIN if rng.random() < 1 / 512 else FAIL
             for _ in range(1 << wide)]
    return [wide, 1], [first, [FAIL, WIN]]


def test_play_window_wider_than_start_bits():
    game = _wide_start()
    wide = game[0][0]
    # each pattern is one whole field of state 0: a FAIL restarts there
    entry = {FAIL: (1, wide, 0), 1: (0, wide, 1), WIN: (0, wide, WIN)}
    assert _start_window(*game, wide, 1000) == [entry[nxt]
                                                 for nxt in game[1][0]]
    want = _play_per_field(game, 300, 2, 1000)
    assert list(play(game, 300, 2, 1000)) == want
    assert max(want) > 10


def test_play_window_fails_then_wins_within_one_window():
    # one bit per attempt, 1 wins: the pattern 0001... is three FAILs
    # and a WIN in its first four bits
    game = ([1], [[FAIL, WIN]])
    k = _START_BITS
    window = _start_window(*game, k, 100)
    assert window[0b0001 << (k - 4)] == (3, 4, WIN)
    assert window[0] == (k, k, 0)
    assert window[(1 << k) - 1] == (0, 1, WIN)
    want = _play_per_field(game, 2000, 5, 100)
    assert list(play(game, 2000, 5, 100)) == want
    assert max(want) > k            # rounds that look up several windows


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_play_window_censors_part_way_through_its_fails(cap):
    # a window holds up to _START_BITS fails; the cap falls inside them
    game = ([1, 1], [[FAIL, 1], [FAIL, WIN]])
    want = _play_per_field(game, 3000, 9, cap)
    assert list(play(game, 3000, 9, cap)) == want
    assert set(want) == set(range(1, cap + 2))


def test_play_one_round_with_a_16_bit_start_field(monkeypatch):
    # a start field as wide as the window is one field per pattern: the
    # window looks each entry of tables[0] up among one walk per distinct
    # entry instead of walking 2**16 patterns
    rng = random.Random(6)
    first = [WIN if rng.random() < 1 / 4096 else rng.choice((1, FAIL, FAIL))
             for _ in range(1 << 16)]
    game = ([16, 1], [first, [FAIL, WIN]])
    walks, calls = seqcore._walks, []

    def counted(*args):
        calls.append(args[3:])
        return walks(*args)

    monkeypatch.setattr(seqcore, "_walks", counted)
    list(play(game, 1, 3, 1000))
    assert calls and len(calls) <= len(set(first))
    monkeypatch.undo()
    monkeypatch.setattr(guessers, "compile_automaton", lambda _g, _x: game)
    attempt = make_runner(None, None)
    cap, want = 4, []
    for k in range(60):
        bits, guesses = BitSource(3, k), 1
        while not attempt(bits) and guesses <= cap:
            guesses += 1
        want.append(guesses)
    assert list(play(game, 60, 3, cap)) == want
    assert {1, cap + 1} <= set(want)


def _built(tables):
    return sum(type(table) is list for table in tables)


def _forced(automaton):
    widths, tables = automaton
    return widths, [list(table) for table in tables]


def test_lazy_rows_read_like_the_lists_they_become():
    x = parse_corpus_spec("thue_morse", 64)
    widths, tables = _lz_run_tables(x)
    assert _built(tables) == 0
    stand_in = tables[9]
    assert len(stand_in) == 1 << widths[9]
    row = tables[9]
    assert type(row) is list and _built(tables) == 1
    assert list(stand_in) == row and stand_in[5] == row[5]
    assert _forced(_lz_run_tables(x)) == (widths, [list(t) for t in tables])


def test_block_chain_over_lazy_rows_equals_the_forced_chain():
    # the chain reads its blocks' rows, building each, and plays as the
    # chain of fully built rows does
    n, ell = 64, 4
    x = parse_corpus_spec("bernoulli:0.5:3", n)
    game = compile_automaton(Guesser("lz_block", B01, n, ell=ell), x)
    want = guessers._chain([_forced(_lz_run_tables(x[b:b + ell]))
                            for b in range(0, n, ell)])
    assert game == want
    assert list(play(game, 200, 5, 1000)) == list(play(want, 200, 5, 1000))


def test_censored_lz_game_builds_few_rows():
    # a game capped long before it wins reads only short prefixes of x
    x = parse_corpus_spec("bernoulli:0.5:155227456", 2048)
    g = Guesser("lz_full", B01, len(x))
    game = compile_automaton(g, x)
    counts = list(play(game, 20, 7, 1000))
    assert _built(game[1]) < 64
    assert list(play(_forced(compile_automaton(g, x)), 20, 7, 1000)) == counts


def _silent_fail_machine():
    """A machine whose start state reads no bits and emits b, then reads
    one bit per symbol: every attempt at a target starting with a fails
    without reading a bit."""
    ab = Alphabet("ab")
    return FSGMSpec(ab, ["s", "t"], "s", {"s": 0, "t": 1},
                    {"s": [(1, "t")], "t": [(0, "t"), (1, "t")]})


def test_play_ends_when_every_attempt_fails_without_a_bit():
    spec = _silent_fail_machine()
    x = SymbolSeq.from_text("abab", spec.alphabet)
    game = automaton(spec, x)
    assert game[0][0] == 0 and game[1][0] == [FAIL]
    assert _play_per_field(game, 5, 1, 7) == [8] * 5
    assert list(play(game, 5, 1, 7)) == [8] * 5
    # the cap is never walked: a huge one ends as fast
    huge = 1 << 62
    assert list(play(game, 1000, 1, huge)) == [huge + 1] * 1000
    g = Guesser("fsgm", spec.alphabet, 4, spec=spec)
    assert play_counts(g, x, 3, 0, huge) == [huge + 1] * 3
    # a target the machine can emit still plays as before
    y = SymbolSeq.from_text("baab", spec.alphabet)
    want = _play_per_field(automaton(spec, y), 500, 1, 50)
    assert play_counts(g, y, 500, 1, 50) == want


def _automaton_law(widths, tables):
    """Pr(an attempt of the automaton wins), every raw field equally
    likely: a dynamic program over its states in reverse topological
    order, which raises KeyError on a cycle."""
    win = {WIN: Fraction(1), FAIL: Fraction(0)}
    order, seen, stack = [], set(), [(0, False)]
    while stack:
        state, done = stack.pop()
        if done:
            order.append(state)
        elif state not in seen:
            seen.add(state)
            assert len(tables[state]) == 1 << widths[state]
            stack.append((state, True))
            stack.extend((nxt, False) for nxt in set(tables[state])
                         if nxt >= 0)
    for state in order:
        hits = collections.Counter(tables[state])
        win[state] = sum(win[nxt] * c for nxt, c in hits.items()) / len(
            tables[state])
    return win[0]


def _with_every_side(guesser, side_alphabet):
    def cases(n):
        for y in all_seqs(side_alphabet, n):
            for x in all_seqs(B01, n):
                yield guesser(n, y), x
    return cases


_LAW_CASES = {
    "lz": (8, lambda n: ((Guesser("lz_full", B01, n), x)
                         for x in all_seqs(B01, n))),
    # three symbols in a 2-bit symbol field, overshoots over three symbols
    "lz-tern": (5, lambda n: ((Guesser("lz_full", ABC, n), x)
                              for x in all_seqs(ABC, n))),
    "block:3": (7, lambda n: ((Guesser("lz_block", B01, n, ell=3), x)
                              for x in all_seqs(B01, n))),
    # three symbols in a 2-bit field: the modulo counts differ
    "uniform": (4, lambda n: ((Guesser("uniform", ABC, n), x)
                              for x in all_seqs(ABC, n))),
    # most targets are outside the machine's support: law 0
    "fsgm": (5, lambda n: ((Guesser("fsgm", ABC, n,
                                    spec=build_fig1_machine()), x)
                           for x in all_seqs(ABC, n))),
    "fsgm-side": (5, _with_every_side(
        lambda n, y: Guesser("fsgm", B01, n, spec=xor_machine(), side=y),
        B01)),
    "cond": (6, _with_every_side(
        lambda n, y: Guesser("lz_full", B01, n, side=y), B01)),
    "cond-block:3": (6, _with_every_side(
        lambda n, y: Guesser("lz_block", B01, n, ell=3, side=y), B01)),
    # side symbol 2 has no copy candidate
    "cond-tern": (5, _with_every_side(
        lambda n, y: Guesser("lz_full", B01, n, side=y), T012)),
}


@pytest.mark.parametrize("kind", list(_LAW_CASES))
def test_automaton_law_is_the_exact_law(kind):
    # every target (and side) up to a small n: block chaining, idle machine
    # states and the chain-field states all show up
    max_n, cases = _LAW_CASES[kind]
    for n in range(1, max_n + 1):
        for g, x in cases(n):
            assert (_automaton_law(*compile_automaton(g, x))
                    == g.guess_prob(x).as_fraction())


def test_cond_automaton_law_on_longer_pairs():
    # index fields over three or more x-phrases, whose modulo counts differ
    # by position, need longer pairs than the exhaustive test reaches
    rng = random.Random(15)
    for n in (16, 24, 32):
        for side_alphabet in (B01, T012):
            for _ in range(6):
                y = SymbolSeq(side_alphabet, bytes(
                    rng.randrange(side_alphabet.size) for _ in range(n)))
                x = SymbolSeq(B01, bytes(min(b, 1) ^ (rng.random() < 0.2)
                                         for b in y.indices))
                for ell in (n, 8):
                    g = Guesser("lz_block", B01, n, ell=ell, side=y)
                    assert (_automaton_law(*compile_automaton(g, x))
                            == g.guess_prob(x).as_fraction())


def test_survival_curve_matches_geometric_tail():
    x = seq("0" * 8, B01)
    g = Guesser("lz_full", B01, 8)
    qf = float(lz_guess_prob(x))
    rounds = 30000
    counts = play_counts(g, x, rounds, seed=19, cap=20)
    for k in (2, 5, 20):
        emp = sum(c >= k for c in counts) / rounds
        expect = (1 - qf) ** (k - 1)
        sigma = math.sqrt(expect * (1 - expect) / rounds)
        assert abs(emp - expect) <= 3.5 * sigma
