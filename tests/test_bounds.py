import math

import pytest

from lzguess.seqcore import Alphabet, generate_corpus
from lzguess.lz78 import incremental_parse
from lzguess.guessers import Guesser, moment_log2
from lzguess.bounds import (BoundReport, K_of_ell, block_entropy,
                            converse_clogc, converse_entropy, delta_n,
                            direct_clogc, divisors, epsilon_lz, epsilon_n,
                            entropy_converse_at, rho_upper, sandwich,
                            sandwich_sweep)
from conftest import seq

AB = Alphabet(("a", "b"))
CORPORA = {
    "periodic": generate_corpus("periodic", 4096, pattern="ab"),
    "thue_morse": generate_corpus("thue_morse", 4096),
    "bernoulli": generate_corpus("bernoulli", 4096, p=0.5, seed=7),
}


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(4096) == [2 ** k for k in range(13)]


def test_block_entropy_trivial_cases():
    assert block_entropy(seq("ab" * 8, AB), 2) == 0.0
    assert block_entropy(seq("aabb", AB), 2) == 1.0
    assert block_entropy(seq("abab", AB), 1) == 1.0


def test_block_entropy_range_and_errors():
    x = generate_corpus("bernoulli", 256, p=0.5, seed=1)
    for ell in (1, 2, 4, 8):
        h = block_entropy(x, ell)
        assert 0.0 <= h <= ell * math.log2(2)
    with pytest.raises(ValueError):
        block_entropy(seq("ab", AB), 3)
    with pytest.warns(UserWarning, match="truncating"):
        block_entropy(seq("aabba", AB), 2)


def test_K_of_ell_values_and_power_sum():
    assert K_of_ell(3, 2) == 15
    assert K_of_ell(1, 3) == 4
    assert K_of_ell(0, 2) == 1
    for alpha in (2, 3, 5):
        for ell in range(0, 21):
            assert K_of_ell(ell, alpha) == sum(alpha ** j
                                               for j in range(ell + 1))


def test_epsilon_n_properties():
    # < 1 from 2^10 up, decreasing on doubling, matches the textbook form
    prev = None
    for k in range(10, 21):
        v = epsilon_n(2 ** k, 2)
        assert 0 < v < 1
        if prev is not None:
            assert v < prev
        prev = v
    assert epsilon_n(4096, 2) == pytest.approx(
        (math.log2(12) + 4) / 12)


def test_epsilon_n_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamped"):
        v = epsilon_n(4, 2)
    assert v < 1


def test_phrase_count_bound_on_corpora():
    for name, x in CORPORA.items():
        n = len(x)
        c = incremental_parse(x).c_lz
        bound = n * math.log2(2) / ((1 - epsilon_n(n, 2)) * math.log2(n))
        assert c <= bound, name
    y = generate_corpus("bernoulli", 1024, p=0.5, seed=2)
    c = incremental_parse(y).c_lz
    assert c <= 1024 / ((1 - epsilon_n(1024, 2)) * 10)


def test_epsilon_lz_positive_and_decreasing():
    import warnings
    vals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(1, 21):
            assert epsilon_lz(2 ** k, 2) > 0
    for k in range(8, 21):
        vals.append(epsilon_lz(2 ** k, 2))
    assert vals == sorted(vals, reverse=True)


def test_converse_entropy_periodic_clamps_to_zero():
    x = generate_corpus("periodic", 256, pattern="ab")
    assert converse_entropy(x, 2, 1.0) == 0.0


def test_converse_entropy_monotone_in_s():
    x = CORPORA["bernoulli"]
    vals = [converse_entropy(x, s, 1.0) for s in (1, 2, 4, 8)]
    assert vals == sorted(vals, reverse=True)


def test_converse_entropy_positive_for_random():
    assert converse_entropy(CORPORA["bernoulli"], 2, 1.0) > 0.3


def test_delta_n_decreasing_on_doubling():
    xs = [2 ** k for k in range(10, 18)]
    vals = [delta_n(n, 2, 2, 1.0) for n in xs]
    assert vals == sorted(vals, reverse=True)


def test_converse_clogc_clamps_at_moderate_n():
    # periodic x: c log c / n is tiny, the bound clamps to zero
    x = generate_corpus("periodic", 1024, pattern="ab")
    assert converse_clogc(x, 2, 1.0) == 0.0


def test_rho_upper_values():
    assert rho_upper(seq("ab" * 8, AB), 2) == 0.5
    x = generate_corpus("bernoulli", 4096, p=0.5, seed=7)
    vals = [rho_upper(x, e) for e in (1, 2, 4, 8)]
    assert all(v >= 0 for v in vals)
    assert vals == sorted(vals, reverse=True)


def test_direct_clogc_frozen_values():
    # frozen from the implementation at these corpora (the c log c / n term
    # alone already exceeds 0.2 for the periodic sequence, so the direct
    # value necessarily sits well above it at n = 4096)
    per = direct_clogc(CORPORA["periodic"], 1.0)
    rnd = direct_clogc(CORPORA["bernoulli"], 1.0)
    assert per == pytest.approx(0.6735, abs=2e-3)
    assert 1.0 <= rnd <= 1.8


def test_moment_bound_restatement():
    # (1/n) log2 E[G^z] >= z*(-log2 q)/n - log2(e^2 2^z)/n for q <= 1/2
    for qlog2 in (-1.0, -8.0, -300.0):
        for zeta in (0.5, 1.0, 2.0):
            for n in (8, 4096):
                lhs = moment_log2(qlog2, zeta) / n
                rhs = (zeta * (-qlog2) - math.log2(
                    math.e ** 2 * 2 ** zeta)) / n
                assert lhs >= rhs - 1e-12


def test_sandwich_reports():
    x = CORPORA["bernoulli"]
    g = Guesser("lz_full", x.alphabet, len(x))
    rep = sandwich(x, 1.0, 2, g, sequence_id="bernoulli")
    assert isinstance(rep, BoundReport)
    assert rep.ordering_ok
    assert rep.converse_entropy <= rep.measured <= rep.direct
    assert {r.ell for r in rep.rows} == set(divisors(4096))
    assert rep.chosen_ell in {r.ell for r in rep.rows}
    assert all(r.ell and 4096 % r.ell == 0 for r in rep.rows)
    assert all(r.converse_entropy >= 0 and r.converse_clogc >= 0
               for r in rep.rows)


def test_entropy_converse_below_fsgm_guesser_exponent():
    # the converse applies to machine guessers; the compiled block guesser
    # is one, so its measured exponent must sit above the bound
    from lzguess.guessers import block_guess_prob
    x = CORPORA["bernoulli"]
    measured = -block_guess_prob(x, 2).log2() / len(x)
    assert converse_entropy(x, 2, 1.0) <= measured


def test_sandwich_zeta_sweep_monotone():
    x = generate_corpus("bernoulli", 512, p=0.5, seed=9)
    g = Guesser("lz_full", x.alphabet, len(x))
    measured = []
    for zeta in (0.5, 1.0, 2.0):
        rep = sandwich(x, zeta, 2, g)
        assert rep.ordering_ok
        measured.append(rep.measured)
    assert measured == sorted(measured)


def test_sandwich_sweep_matches_single_calls():
    x = generate_corpus("thue_morse", 96)
    for g in (Guesser("lz_full", x.alphabet, 96),
              Guesser("lz_block", x.alphabet, 96, ell=8)):
        zetas = (0.5, 1.0, 1.5, 2.0, 3.0)
        sweep = sandwich_sweep(x, zetas, 2, g, sequence_id="thue")
        assert sweep == [sandwich(x, z, 2, g, sequence_id="thue")
                         for z in zetas]
        for rep, zeta in zip(sweep, zetas):
            assert rep.direct == direct_clogc(x, zeta)
            for row in rep.rows:
                assert row.converse_entropy == entropy_converse_at(
                    x, 2, zeta, row.ell)
