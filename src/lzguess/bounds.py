"""Finite-n converse and direct bound calculators.

Everything is reported in bits per symbol (base-2 logs throughout, converting
the mixed natural-log statements once and for all).  The uncomputable
max-distinct phrase count c(x) is replaced by the incremental-parse count
c_lz(x), which never undershoots it by more than one; the K-state
compressibility rho_K is bracketed by computable surrogates instead of being
minimized over encoders.

Converse side, for any s-state machine generating x with probability at most
one half and any divisor ell of n:

  * entropy form:   zeta * [H_ell(x)/ell - log2(s^3 e)/ell] - log2(e^2 2^zeta)/n
  * c-log-c form:   zeta * [c_lz log2 c_lz / n - delta_n(s)]

with delta_n(s) minimized over divisors ell of n using
K(ell) = (alpha^(ell+1) - 1)/(alpha - 1).  Negative values are clamped to
zero since E[G^zeta] >= 1 forces nonnegative exponents.

Direct side, for the full-sequence LZ sampler:

  * zeta * [c_lz log2 c_lz / n + eps(n)]

where eps(n) collects the per-phrase overhead of the concrete code via the
phrase-count bound c_lz <= n log2(alpha) / ((1 - eps_n) log2 n); the eps_n
closed form follows the Cover-Thomas style estimate adapted to alphabet
size alpha and is clamped (with a warning) when n is too small for it to be
meaningful.

Side information.  For a guesser given a side sequence y, each term takes
the paper's conditional form: Ziv's u(x, y) from sideinfo.joint_parse
replaces c_lz log2 c_lz, H_ell is the pair stream's minus y's, delta_n runs
over the pair alphabet (alpha * beta symbols), and the direct value uses
sideinfo.epsilon1(n), a calibrated envelope, not a proven one.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

from .seqcore import SymbolSeq
from .lz78 import incremental_parse
from .guessers import LOG2E, Guesser, moment_log2
from .sideinfo import epsilon1, joint_parse


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def block_entropy(x: SymbolSeq, ell: int) -> float:
    """Empirical entropy (bits) of the non-overlapping ell-blocks of x.

    If ell does not divide n the trailing partial block is dropped with a
    warning; ell > n is an error.
    """
    n = len(x)
    if ell < 1 or ell > n:
        raise ValueError("need 1 <= ell <= n, got ell=%d, n=%d" % (ell, n))
    if n % ell:
        warnings.warn("ell=%d does not divide n=%d; truncating the tail"
                      % (ell, n))
    m = n // ell
    counts: dict = {}
    idx = x.indices
    for i in range(m):
        block = idx[i * ell:(i + 1) * ell]
        counts[block] = counts.get(block, 0) + 1
    h = 0.0
    for c in counts.values():
        p = c / m
        h -= p * math.log2(p)
    return h


def K_of_ell(ell: int, alpha: int) -> int:
    """(alpha**(ell+1) - 1) // (alpha - 1): states of the ell-block Shannon
    encoder, exactly the power sum 1 + alpha + ... + alpha**ell."""
    if ell < 0:
        raise ValueError("need ell >= 0")
    return (alpha ** (ell + 1) - 1) // (alpha - 1)


def epsilon_n(n: int, alpha: int) -> float:
    """eps_n in the phrase-count bound c(x) <= n log2(alpha)/((1-eps_n) log2 n).

    Closed form (log2 log2 n + 2 log2 alpha + 2) / log2 n, the Cover-Thomas
    style estimate with the alphabet worked in; at alpha = 2 it is the
    textbook (log log n + 4)/log n.  Values >= 1 (tiny n) are clamped just
    below 1 with a warning, which only weakens the bounds that use it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    log_n = math.log2(n)
    value = (math.log2(max(log_n, 1.0)) + 2 * math.log2(alpha) + 2) / log_n
    if value >= 1.0:
        warnings.warn("eps_n >= 1 at n=%d; clamped (bounds are vacuous here)"
                      % n)
        return 1.0 - 1.0 / (4 * log_n)
    return value


def epsilon_lz(n: int, alpha: int) -> float:
    """eps(n) in code_length(x) <= c_lz log2 c_lz + n*eps(n).

    [log2 e + n log2(alpha) log2(2 alpha) / ((1-eps_n) log2 n)
     + log2(2 alpha (n+1))] / n, which tends to zero like 1/log n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    en = epsilon_n(n, alpha)
    mid = n * math.log2(alpha) * math.log2(2 * alpha) / ((1.0 - en) * math.log2(n))
    return (LOG2E + mid + math.log2(2 * alpha * (n + 1))) / n


def _entropy_converse(h: float, n: int, s: int, zeta: float,
                      ell: int) -> float:
    value = zeta * (h / ell - (3 * math.log2(s) + LOG2E) / ell) \
        - (2 * LOG2E + zeta) / n
    return max(value, 0.0)


def entropy_converse_at(x: SymbolSeq, s: int, zeta: float, ell: int) -> float:
    """The entropy-form converse evaluated at one block length, clamped."""
    return _entropy_converse(block_entropy(x, ell), len(x), s, zeta, ell)


def converse_entropy(x: SymbolSeq, s: int, zeta: float) -> float:
    """Best entropy-form converse over all divisors of n (bits/symbol)."""
    if s < 1:
        raise ValueError("need s >= 1")
    return max(entropy_converse_at(x, s, zeta, ell) for ell in divisors(len(x)))


def delta_n_at(n: int, alpha: int, s: int, zeta: float, ell: int) -> float:
    """One candidate of the delta_n(s) minimization."""
    if (ell + 1) * math.log2(alpha) > 500:
        return math.inf
    K = K_of_ell(ell, alpha)
    log4K2 = math.log2(4 * K * K)
    en = epsilon_n(n, alpha)
    return (log4K2 * math.log2(alpha) / ((1.0 - en) * math.log2(n))
            + K * K * log4K2 / n
            + (1 + 3 * math.log2(s) + LOG2E) / ell
            + (2 * LOG2E + zeta) / n)


def delta_n(n: int, alpha: int, s: int, zeta: float) -> float:
    """delta_n(s): vanishes as n grows at fixed s, minimized over divisors."""
    return min(delta_n_at(n, alpha, s, zeta, ell) for ell in divisors(n))


def _clogc(x: SymbolSeq) -> float:
    """c_lz log2(c_lz) in bits, the parse's c-log-c complexity."""
    c = incremental_parse(x).c_lz
    return c * math.log2(c) if c > 1 else 0.0


def _complexity_converse(rate: float, delta: float, zeta: float) -> float:
    return max(zeta * (rate - delta), 0.0)


def _direct(rate: float, eps: float, zeta: float) -> float:
    return zeta * (rate + eps)


def converse_clogc(x: SymbolSeq, s: int, zeta: float) -> float:
    """The computable c-log-c converse, normalized per symbol and clamped."""
    if s < 1:
        raise ValueError("need s >= 1")
    n = len(x)
    return _complexity_converse(_clogc(x) / n,
                                delta_n(n, x.alphabet.size, s, zeta), zeta)


def direct_clogc(x: SymbolSeq, zeta: float) -> float:
    """Upper bound on the full-sequence LZ sampler's exponent (bits/symbol)."""
    if len(x) < 2:
        raise ValueError("need n >= 2")
    return _direct(_clogc(x) / len(x), epsilon_lz(len(x), x.alphabet.size),
                   zeta)


def rho_upper(x: SymbolSeq, ell: int) -> float:
    """(H_ell(x) + 1)/ell: the Shannon-code surrogate upper bound on the
    K(ell)-state compressibility of x."""
    return (block_entropy(x, ell) + 1.0) / ell


class BoundRow(namedtuple("BoundRow", "ell H_ell converse_entropy "
                                       "converse_clogc direct measured")):
    """The bounds at one block length ell: the block entropy H_ell, the
    entropy and c log c converses, the direct value and the measured
    exponent.  The fields are the columns of the CLI's bound rows, after
    zeta, in order."""

    __slots__ = ()


class BoundReport(namedtuple(
        "BoundReport", "sequence_id n zeta s guesser q_log2 measured "
                       "complexity converse_entropy converse_clogc direct "
                       "chosen_ell direct_applies rows",
        defaults=(None,))):
    """Converse and direct values around one measured guessing exponent.
    For a side guesser, `direct` rests on the calibrated epsilon1 envelope,
    not on a theorem.

    `measured` is (1/n) log2 E[G^zeta] from the exact q; `complexity` is
    c_lz log2 c_lz bits, or u(x, y) with side information; `chosen_ell`
    maximizes the entropy converse; `direct_applies` says that the
    guesser's law is the sampler's that `direct` bounds.  `rows`, a list
    of :class:`BoundRow` (a fresh empty one when left out), holds the
    bounds at each ell.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        return report if report.rows is not None else report._replace(rows=[])

    def ordered(self, row: BoundRow) -> bool:
        """converse <= measured, and measured <= direct where it applies."""
        return (row.converse_entropy <= row.measured + 1e-12
                and row.converse_clogc <= row.measured + 1e-12
                and (not self.direct_applies
                     or row.measured <= row.direct + 1e-12))

    @property
    def ordering_ok(self) -> bool:
        return all(self.ordered(row) for row in self.rows)


def sandwich(x: SymbolSeq, zeta: float, s: int, guesser: Guesser,
             sequence_id: str = "") -> BoundReport:
    """Evaluate converse <= measured <= direct for one guesser and target.

    The measured exponent uses the guesser's exact per-round success
    probability; the direct value applies only to a guesser with the
    full-sequence sampler's law (``guesser.block == n``), with or without
    side information.
    """
    return sandwich_sweep(x, [zeta], s, guesser, sequence_id)[0]


def sandwich_sweep(x: SymbolSeq, zetas, s: int, guesser: Guesser,
                   sequence_id: str = "", ells=None) -> list[BoundReport]:
    """:func:`sandwich` at each zeta, one row per ell in `ells` (default:
    every divisor of n); a side guesser gets the conditional terms.  q, the
    parse and every block entropy are computed once."""
    if s < 1:
        raise ValueError("need s >= 1, got %r" % (s,))
    n = len(x)
    q = guesser.guess_prob(x)
    if q.is_zero():
        raise ValueError("guesser cannot emit the target")
    q_log2 = q.log2()
    ells = divisors(n) if ells is None else ells
    y = guesser.side
    if y is None:
        complexity, alpha = _clogc(x), x.alphabet.size
        eps = epsilon_lz(n, alpha)
        entropies = [(ell, block_entropy(x, ell)) for ell in ells]
    else:
        jp = joint_parse(x, y)
        complexity, alpha = jp.u, x.alphabet.size * y.alphabet.size
        eps = epsilon1(n)
        entropies = [(ell, block_entropy(jp.joint.seq, ell)
                      - block_entropy(y, ell)) for ell in ells]
    rate = complexity / n
    reports = []
    for zeta in zetas:
        measured = moment_log2(q_log2, zeta) / n
        direct = _direct(rate, eps, zeta)
        rows = [BoundRow(ell, h, _entropy_converse(h, n, s, zeta, ell),
                         _complexity_converse(
                             rate, delta_n_at(n, alpha, s, zeta, ell), zeta),
                         direct, measured) for ell, h in entropies]
        best = max(rows, key=lambda r: r.converse_entropy)
        reports.append(BoundReport(
            sequence_id=sequence_id or repr(x),
            n=n, zeta=zeta, s=s, guesser=guesser.describe(),
            q_log2=q_log2, measured=measured, complexity=complexity,
            converse_entropy=best.converse_entropy,
            converse_clogc=max(r.converse_clogc for r in rows),
            direct=direct, chosen_ell=best.ell,
            direct_applies=guesser.block == n, rows=rows))
    return reports
