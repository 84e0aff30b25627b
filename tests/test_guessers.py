import itertools
import math
import pickle
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lzguess.seqcore import (FAIL, WIN, Alphabet, BitSource, BudgetError,
                             DyadicProb, SymbolSeq, parse_corpus_spec, play)
from lzguess import bytegame, guessers, seqcore, series
from lzguess.lz78 import incremental_parse
from lzguess.fsgm import (FSGMSpec, automaton, build_fig1_machine,
                          output_distribution)
from lzguess.guessers import (Guesser, MomentEstimate, _lz_draws_at,
                              _lz_run_tables, block_guess_prob,
                              compile_automaton, compile_block_guesser_to_fsgm,
                              estimate_moment,
                              lz_guess_prob, lz_sample, make_runner,
                              moment_exact, moment_grid, moment_log2,
                              moment_lower_bound, moment_lower_bound_log2,
                              play_counts, run_game)
from conftest import all_seqs, seq, xor_machine
from oracles import (automaton_law, byte_entry_by_bits, lz_draws_per_draw,
                     moment_series, narrow_by_count, play_by_runner,
                     polylog_moment_log2, process_distribution, sampler_law,
                     series_term_by_term)

B01 = Alphabet(("0", "1"))
ABC = Alphabet(("a", "b", "c"))
T012 = Alphabet(("0", "1", "2"))


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


@pytest.mark.parametrize("alphabet, max_n", [(B01, 6), (ABC, 4)],
                         ids=["binary", "ternary"])
def test_lz_sample_law_is_lz_guess_prob(alphabet, max_n):
    # the sampler itself, run on every sequence of answers to its reads
    for n in range(1, max_n + 1):
        law = sampler_law(lambda bits: lz_sample(alphabet, n, bits))
        assert sum(law.values(), DyadicProb.zero()) == DyadicProb.one()
        xs = list(all_seqs(alphabet, n))
        assert set(law) == set(xs)
        for x in xs:
            assert law[x] == lz_guess_prob(x), x.render()


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


def _check_runs_against_per_draw_rule(x):
    """The runs of _lz_draws_at are the per-draw rule's draws, each
    longest stretch of one count made one run: so each run starts where
    the last ended and two runs in a row differ in count.  The path holds
    each draw's node, and the overshoot, reading pointer bits alone,
    comes last with the nodes it may point to."""
    n = len(x)
    _t_at, at = _lz_draws_at(x)
    for e, t, draws in lz_draws_per_draw(x):
        got_t, moves, path, over = at(e)
        assert got_t == t, (x, e)
        runs, nodes, ends = [], [], []
        for node, sym, reach, count, bits in draws:
            if sym is None:                 # the overshoot
                ends = node
                runs.append((n, n, None, count, bits))
            elif runs and runs[-1][3] == count:
                runs[-1] = (runs[-1][0], reach, None, count, bits)
                nodes.append(node)
            else:
                runs.append((reach, reach, None, count, bits))
                nodes.append(node)
        assert (moves, path, over) == (runs, nodes, ends), (x, e)


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
    law = sampler_law(Guesser("lz_block", B01, 4, ell=2).sample)
    for x in all_seqs(B01, 4):
        assert law.get(x, DyadicProb.zero()) == block_guess_prob(x, 2)


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
            got = moment_series(q, zeta)
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
    assert moment_series(1e-17, 1.5).rel_err == 1e-12
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


# the benchmark's moments-window qs at seed 1, with zeta 1.5 and 3
_WINDOW_QS = (0.00021094531388311813, 0.00014127985039861263)


@pytest.mark.parametrize("q", (1 - 1e-9, 0.999, 0.75, 0.5, 0.1, 0.01,
                               2.0 ** -7.3, 1e-3) + _WINDOW_QS)
def test_moment_series_equals_term_by_term_loop(q):
    for zeta in (0.01, 0.5, 1, 1.5, 2, 3, 7.7, 170, 1100):
        if q < 1e-3 and zeta not in (1.5, 3):
            continue
        try:
            want = series_term_by_term(q, zeta)[:2]
        except OverflowError:
            # a k**zeta overflows: the value is moment_log2's, if it fits
            m_log2 = moment_log2(math.log2(q), zeta)
            if m_log2 >= 1024:
                with pytest.raises(ValueError, match="overflows a double"):
                    moment_series(q, zeta)
            else:
                assert tuple(moment_series(q, zeta)) == (
                    2.0 ** m_log2, 1e-12), zeta
            continue
        assert tuple(moment_series(q, zeta)) == want, zeta


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
            return series_term_by_term(q, zeta)[:2]
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
        assert got == _outcome(moment_series, q, zeta) == want, (q, zeta)


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
        assert series_term_by_term(q, zeta) == (*got, k), (q, zeta)


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


def test_moment_log2_against_polylog():
    mp = pytest.importorskip("mpmath")
    for q_log2 in _POLYLOG_Q_LOG2:
        for zeta in _POLYLOG_ZETAS:
            ref = float(polylog_moment_log2(mp, q_log2, zeta))
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
    attempt = make_runner(compile_automaton(g, x))
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
    game = compile_automaton(g, x)
    rounds, cap = 60, 4
    seen = set()
    for seed in (0, 1, 7, 2 ** 40 + 3):
        want = play_by_runner(game, rounds, seed, cap)
        assert list(play(game, rounds, seed, cap)) == want
        assert list(play(game, rounds - 5, seed, cap, start=5)) == want[5:]
        seen.update(c > cap for c in want)
    assert seen == {False, True}
    assert play_counts(g, x, rounds, seed, cap, jobs=2) == want


@st.composite
def _random_automata(draw):
    """A random automaton whose states only lead to later states, FAIL or
    WIN, with fields of 0-12 bits; some start with zero-width states that
    FAIL, and in some nearly every entry FAILs, so that wide fields are
    sparse."""
    widths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    fail = 256.0 if draw(st.booleans()) else 1.0
    tables = []
    for state, width in enumerate(widths):
        later = list(range(state + 1, len(widths)))
        weights = ([fail * rng.random(), rng.random() / 2]
                   + [rng.random()] * len(later))
        tables.append(rng.choices([FAIL, WIN] + later, weights,
                                  k=1 << width))
    return widths, tables


@settings(max_examples=300, deadline=None)
@given(_random_automata(), st.integers(1, 6), st.integers(0, 2 ** 64),
       st.integers(0, 2 ** 40), st.integers(0, 40))
def test_play_window_matches_per_field_play(game, cap, seed, start, rounds):
    assert list(play(game, rounds, seed, cap, start)) == play_by_runner(
        game, rounds, seed, cap, start)


def _meaning(game, entry):
    """A byte row entry of `game` in the terms of :func:`byte_entry_by_bits`."""
    fails, nxt = entry
    if nxt == bytegame._WON:
        return fails, WIN
    if nxt >= 0:
        return fails, game._keys[nxt]
    return fails, ("wide", *game.special[-2 - nxt])


def _rows_agree_with_bit_walks(widths, tables, most=40):
    """Build the byte rows of every narrow state's field start and of the
    keys they lead to, at most `most` rows, and check each entry against
    :func:`byte_entry_by_bits`; the number of rows checked."""
    game = bytegame._ByteGame(widths, tables)
    narrow = [narrow_by_count(widths, tables, s) for s in range(len(widths))]
    todo = [game.index((s, 0, 0)) for s in range(len(widths))
            if widths[s] and narrow[s]]
    done = set()
    while todo and len(done) < most:
        i = todo.pop()
        if i in done:
            continue
        done.add(i)
        game.build(i)
        for byte, entry in enumerate(game.rows[i]):
            got = _meaning(game, entry)
            assert got == byte_entry_by_bits(widths, tables, narrow,
                                             game._keys[i], byte)
            if entry[1] >= 0:
                todo.append(entry[1])
    return len(done)


@settings(max_examples=150, deadline=None)
@given(_random_automata())
def test_byte_rows_match_a_per_bit_walk(game):
    widths, tables = game
    if bytegame._ByteGame(widths, tables).first >= 0:
        _rows_agree_with_bit_walks(widths, tables)


def test_byte_rows_of_sparse_and_dense_fields_match_a_per_bit_walk():
    # a 9-bit field with 3 non-FAIL entries, whose dead prefixes are one
    # skip state per length; a dense 3-bit field; a dense 6-bit field,
    # read whole; zero-width states between them
    rng = random.Random(11)
    sparse = [FAIL] * 512
    sparse[0b110000001], sparse[0b110000010], sparse[0b011111111] = 1, 3, WIN
    widths = [9, 3, 0, 6, 1]
    tables = [sparse, [rng.choice((2, 4, FAIL, WIN)) for _ in range(8)],
              [4], [rng.choice((4, FAIL, FAIL, WIN)) for _ in range(64)],
              [FAIL, WIN]]
    assert (narrow_by_count(widths, tables, 0)
            and not narrow_by_count(widths, tables, 3))
    assert _rows_agree_with_bit_walks(widths, tables) > 10
    want = play_by_runner((widths, tables), 300, 4, 6)
    assert list(play((widths, tables), 300, 4, 6)) == want


def test_byte_row_entry_ends_inside_an_unfinished_attempt():
    # attempts 10, 10, 10 and 0 fail in the byte's first seven bits; the
    # eighth starts an attempt that the entry leaves in state 1
    game = bytegame._ByteGame([1, 1], [[FAIL, 1], [FAIL, WIN]])
    start = game.index((0, 0, 0))
    game.build(start)
    fails, nxt = game.rows[start][0b10101001]
    assert fails == 4 and game._keys[nxt] == (1, 0, 0)
    assert game.rows[start][0b10101010] == (4, start)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", list(_RUNNER_CASES))
def test_play_counts_equal_per_field_play(case, jobs):
    g, x = _RUNNER_CASES[case]()
    game = compile_automaton(g, x)
    for cap in (1, 3, 1000):
        want = play_by_runner(game, 200, 11, cap)
        assert play_counts(g, x, 200, 11, cap, jobs=jobs) == want
        assert list(play(game, 150, 11, cap, start=50)) == want[50:]


def _wide_start():
    """State 0 reads a 12-bit field, too wide and dense for the byte rows;
    a sixteenth of its fields lead to a one-bit state, one in 512 wins."""
    wide = 12
    rng = random.Random(4)
    first = [1 if rng.random() < 1 / 16 else
             WIN if rng.random() < 1 / 512 else FAIL
             for _ in range(1 << wide)]
    return [wide, 1], [first, [FAIL, WIN]]


def _played(monkeypatch, automaton, *args):
    """play's counts over `automaton`, with the _ByteGame that ran them."""
    made = []

    class Recorded(seqcore._ByteGame):
        __slots__ = ()

        def __init__(self, *parts):
            super().__init__(*parts)
            made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(seqcore, "_ByteGame", Recorded)
        counts = list(play(automaton, *args))
    return counts, made[0]


def test_play_window_wider_than_start_bits(monkeypatch):
    # state 0 is too wide and dense for byte rows, so every round is read
    # one field per step and builds none
    game = _wide_start()
    assert not narrow_by_count(*game, 0)
    want = play_by_runner(game, 300, 2, 1000)
    counts, bytes_game = _played(monkeypatch, game, 300, 2, 1000)
    assert counts == want
    assert bytes_game.built == 0 and not bytes_game._keys
    assert max(want) > 10


def test_play_window_fails_then_wins_within_one_window():
    # one bit per attempt, 1 wins: the byte 0001.... is three FAILs and a
    # WIN in its first four bits
    game = ([1], [[FAIL, WIN]])
    bytes_game = bytegame._ByteGame(*game)
    start = bytes_game.index((0, 0, 0))
    bytes_game.build(start)
    row = bytes_game.rows[start]
    assert row[0b00010110] == (3, bytegame._WON)
    assert row[0] == (8, start)
    assert row[0xFF] == (0, bytegame._WON)
    want = play_by_runner(game, 2000, 5, 100)
    assert list(play(game, 2000, 5, 100)) == want
    assert max(want) > 10           # rounds whose fails span several bytes


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_play_window_censors_part_way_through_its_fails(cap):
    # a byte holds up to 8 fails; the cap falls inside them
    game = ([1, 1], [[FAIL, 1], [FAIL, WIN]])
    want = play_by_runner(game, 3000, 9, cap)
    assert list(play(game, 3000, 9, cap)) == want
    assert set(want) == set(range(1, cap + 2))


def _dense_start(bits):
    """State 0 reads a dense field of `bits` bits: a third of its fields
    lead to a one-bit state, one in 4096 wins."""
    rng = random.Random(6)
    first = [WIN if rng.random() < 1 / 4096 else rng.choice((1, FAIL, FAIL))
             for _ in range(1 << bits)]
    return [bits, 1], [first, [FAIL, WIN]]


def test_play_one_round_with_a_16_bit_start_field(monkeypatch):
    # a dense 16-bit start field is read whole: a round walks none of its
    # 2**16 patterns and builds no byte row
    game = _dense_start(16)
    _, bytes_game = _played(monkeypatch, game, 1, 3, 1000)
    assert bytes_game.built == 0 and not any(bytes_game._walks)
    cap = 4
    want = play_by_runner(game, 60, 3, cap)
    assert list(play(game, 60, 3, cap)) == want
    assert {1, cap + 1} <= set(want)


@pytest.mark.parametrize("bits", [12, 16])
def test_play_reads_dense_wide_fields_whole(monkeypatch, bits):
    # a dense start field, whose games are read one field per step and
    # build no byte rows; and a dense field behind a narrow first state,
    # read from the byte loop's last bits on, whose games build at most
    # the 8 rows inside the first state's 3-bit field
    rng = random.Random(bits)
    dense = [rng.choice((WIN, FAIL, FAIL, FAIL)) for _ in range(1 << bits)]
    widths, tables = _dense_start(bits)
    tables[1] = [2, WIN]
    start = widths + [2, bits], tables + [[FAIL, 3, WIN, 3], dense]
    behind = [3, bits], [[FAIL, 1, WIN, 1, FAIL, FAIL, 1, FAIL], dense]
    for game, rows, longest in ((start, 0, 20), (behind, 8, 20)):
        for cap, seed in ((3, 1), (1000, 2)):
            want = play_by_runner(game, 200, seed, cap)
            counts, bytes_game = _played(monkeypatch, game, 200, seed, cap)
            assert counts == want
            assert bytes_game.built <= rows
            assert max(want) >= min(longest, cap + 1)


def _forced(automaton):
    """The automaton with every row built, as a list of rows by state."""
    widths, tables = automaton
    return widths, [tables[s] for s in range(len(widths))]


def test_lazy_rows_read_like_the_lists_they_become():
    x = parse_corpus_spec("thue_morse", 64)
    widths, tables = _lz_run_tables(x)
    assert not tables                   # no row built yet
    row = tables[9]
    assert type(row) is list and len(row) == 1 << widths[9]
    assert list(tables) == [9] and tables[9] is row     # built once, kept
    assert _forced(_lz_run_tables(x)) == _forced((widths, tables))
    assert len(tables) == len(widths)


def test_block_chain_over_lazy_rows_equals_the_forced_chain():
    # the chain reads its blocks' rows by state, building each, and plays
    # as the chain of fully built rows does; where ell does not divide n
    # the last block is short.  Each block's WIN starts the next block, so
    # the chain's law is the block guesser's and a capped game wins
    for spec, n, ell, cap in (("bernoulli:0.5:3", 64, 4, 1000),
                              ("bernoulli:0.5:3", 64, 5, 1000),
                              ("periodic:aab", 7, 3, 50)):
        x = parse_corpus_spec(spec, n)
        g = Guesser("lz_block", x.alphabet, n, ell=ell)
        game = compile_automaton(g, x)
        want = guessers._chain([_forced(_lz_run_tables(x[b:b + ell]))
                                for b in range(0, n, ell)])
        assert game == want
        counts = list(play(game, 200, 5, cap))
        assert counts == play_by_runner(want, 200, 5, cap)
    assert automaton_law(*game) == g.guess_prob(x).as_fraction()
    assert min(counts) <= cap < max(counts)


def test_censored_lz_game_builds_few_rows():
    # a game capped long before it wins reads only short prefixes of x
    x = parse_corpus_spec("bernoulli:0.5:155227456", 2048)
    g = Guesser("lz_full", B01, len(x))
    game = compile_automaton(g, x)
    counts = list(play(game, 20, 7, 1000))
    assert len(game[1]) < 64            # the rows built
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
    assert play_by_runner(game, 5, 1, 7) == [8] * 5
    assert list(play(game, 5, 1, 7)) == [8] * 5
    # the cap is never walked: a huge one ends as fast
    huge = 1 << 62
    assert list(play(game, 1000, 1, huge)) == [huge + 1] * 1000
    g = Guesser("fsgm", spec.alphabet, 4, spec=spec)
    assert play_counts(g, x, 3, 0, huge) == [huge + 1] * 3
    # a target the machine can emit still plays as before
    y = SymbolSeq.from_text("baab", spec.alphabet)
    want = play_by_runner(automaton(spec, y), 500, 1, 50)
    assert play_counts(g, y, 500, 1, 50) == want


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
            assert (automaton_law(*compile_automaton(g, x))
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
                    assert (automaton_law(*compile_automaton(g, x))
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
