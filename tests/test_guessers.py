import itertools
import math
import random
from fractions import Fraction

import pytest

from lzguess.seqcore import (Alphabet, BitSource, BudgetError, DyadicProb,
                             SymbolSeq, play)
from lzguess.lz78 import incremental_parse
from lzguess.fsgm import build_fig1_machine, output_distribution, runner
from lzguess.guessers import (Guesser, aligned_guess_prob, block_guess_prob,
                              block_sample, compile_block_guesser_to_fsgm,
                              lz_guess_prob, lz_sample, make_runner,
                              moment_exact, moment_log2, moment_lower_bound,
                              moment_lower_bound_log2, play_counts,
                              run_game, survival_curve)
from conftest import FixedBits, all_seqs, seq, xor_machine

B01 = Alphabet(("0", "1"))
ABC = Alphabet(("a", "b", "c"))


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


def test_aligned_path_is_a_lower_bound():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(1, 40)
        x = SymbolSeq(B01, bytes(rng.randrange(2) for _ in range(n)))
        q = lz_guess_prob(x)
        a = aligned_guess_prob(x)
        L = incremental_parse(x).code_length_bits
        assert q >= a
        assert a.as_fraction() >= Fraction(1, 2 ** L)


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
        lambda b: block_sample(B01, 4, 2, b), B01, 4, 8)
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


# --- moments --------------------------------------------------------------------

def test_moment_closed_forms():
    assert moment_exact(1.0, 1).value == 1.0
    assert moment_exact(0.5, 1).value == 2.0
    assert moment_exact(0.5, 2).value == 6.0
    assert moment_exact(0.25, 2).value == (2 - 0.25) / 0.25 ** 2 == 28.0


def test_moment_series_matches_closed_forms():
    for q in (0.9, 0.5, 0.2, 0.05, 0.01):
        for zeta, closed in ((1, 1 / q), (2, (2 - q) / q ** 2)):
            got = moment_exact(q, zeta, force_series=True)
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
    # q > 0.957 takes the series branch of moment_log2
    with pytest.raises(ValueError, match="overflow"):
        moment_log2(-0.01, 2000.0)


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
    assert moment_exact(1e-17, 1.5, force_series=True).rel_err == 1e-12
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
    assert est.q == DyadicProb(1, 2)
    assert est.exact_moment == 4.0
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


def test_play_counts_in_round_order_for_any_worker_count():
    g = Guesser("lz_full", B01, 4)
    x = seq("0110", B01)
    counts = play_counts(g, x, 500, seed=3, cap=50)
    assert counts == list(play(make_runner(g, x), 500, 3, 50))
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
        next(play(make_runner(g, x), -1, 0, 10))


def test_play_counts_agree_with_every_game_view():
    spec = build_fig1_machine()
    x = SymbolSeq.from_text("abbac", spec.alphabet)    # q = 1/4
    g = Guesser("fsgm", spec.alphabet, len(x), spec=spec)
    rounds, seed, cap = 400, 17, 3
    counts = list(play(runner(spec, x), rounds, seed, cap))
    assert all(1 <= c <= cap + 1 for c in counts)
    censored = sum(c > cap for c in counts)
    assert 0 < censored < rounds
    est = run_game(g, x, zeta=1.0, rounds=rounds, seed=seed, cap=cap)
    assert est.censored == censored
    assert est.mc_mean == sum(min(c, cap) for c in counts) / rounds
    ks = (1, 2, 3, cap + 1)
    curve = survival_curve(g, x, ks=ks, rounds=rounds, seed=seed, cap=cap)
    assert curve == {k: sum(c >= k for c in counts) / rounds for k in ks}
    assert play_counts(g, x, rounds, seed, cap) == counts
    with pytest.raises(ValueError, match="cap"):
        next(play(runner(spec, x), rounds, seed, 0))


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
}


@pytest.mark.parametrize("case", list(_RUNNER_CASES))
def test_runner_matches_direct_comparison(case):
    # the early-abort runner and literal sample-and-compare agree on every
    # fresh substream
    g, x = _RUNNER_CASES[case]()
    attempt = make_runner(g, x)
    fast = [attempt(BitSource(5, substream=k)) for k in range(3000)]
    slow = [g.sample(BitSource(5, substream=k)) == x for k in range(3000)]
    assert fast == slow
    assert 0 < sum(fast) < len(fast)


def test_survival_curve_matches_geometric_tail():
    x = seq("0" * 8, B01)
    g = Guesser("lz_full", B01, 8)
    qf = float(lz_guess_prob(x))
    rounds = 30000
    curve = survival_curve(g, x, ks=(2, 5, 20), rounds=rounds, seed=19)
    for k, emp in curve.items():
        expect = (1 - qf) ** (k - 1)
        sigma = math.sqrt(expect * (1 - expect) / rounds)
        assert abs(emp - expect) <= 3.5 * sigma
