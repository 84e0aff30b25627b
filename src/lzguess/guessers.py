"""Randomized guessers built on the LZ78 dictionary, and their moments.

The full-sequence sampler feeds fair bits to an LZ78-style decoder: with t
nodes in the dictionary it reads ceil(log2(t)) bits for a pointer (value mod
t) and ceil(log2(alpha)) bits for a symbol (value mod alpha), emits the
pointed word plus the symbol, and keeps the dictionary equal to the
incremental parse of everything emitted so far (the parse cursor carries
across draws, so a draw that lands on an already-seen word simply deepens the
cursor instead of adding a node).  The final draw may overshoot the target
length; surplus symbols are discarded.  Modulo mapping keeps every
probability dyadic and gives each phrase probability at least 2**-(pointer
bits + symbol bits), which is what makes the sampler dominate 2**-LZ(x).

Because the dictionary state is a function of the emitted prefix alone, the
exact probability of emitting a given x is a forward pass over positions
0..n, far cheaper than enumerating draw sequences; it runs through
:func:`lzguess.seqcore.forward`, the package's one exact forward pass.
Guess probabilities sum to one exactly over each length-n alphabet power.

The block guesser restarts the dictionary every ell symbols (a final short
block just uses a shorter target), multiplying per-block probabilities, and
compiles to an explicit finite-state machine whose states are (determined
block prefix, symbols still pending emission).

Each family's module owns its draw rule, exact law and automaton: this
one the LZ sampler's, ``sideinfo`` the conditional sampler's and ``fsgm``
a machine's.  :class:`Guesser` dispatches to them, and a block-restarted
guesser computes the law or automaton of each distinct block once.  The
moments of the number of guesses are evaluated here too, with the float
series of :func:`moment_grid` in :mod:`lzguess.series`.
"""

from __future__ import annotations

import bisect
import cmath
import math
from collections import namedtuple
from collections.abc import Callable
from functools import reduce
from itertools import groupby
from operator import mul

from .seqcore import (FAIL, WIN, Alphabet, BitSource, BudgetError, DyadicProb,
                      SymbolSeq, forward, play)
from . import fsgm, lz78
from .fsgm import FSGMSpec
from .series import REL_TOL, MomentResult, series_grid
from .sideinfo import _cond_automaton, cond_guess_prob, cond_sample

LOG2E = math.log2(math.e)
_COMPILE_STATE_BUDGET = 4096    # ell * alpha**ell states at most


# ---------------------------------------------------------------------------
# full-sequence sampler and its exact emission probability
# ---------------------------------------------------------------------------

def lz_sample(alphabet: Alphabet, n: int, bits: BitSource) -> SymbolSeq:
    """Draw one length-n guess from the LZ dictionary sampler."""
    if n < 1:
        raise ValueError("need n >= 1")
    a_bits = alphabet.bits_per_symbol
    alpha = alphabet.size
    trie = lz78.ParseTrie()
    children = trie.children
    cursor = 0
    out = bytearray()
    while len(out) < n:
        t = len(children)
        ptr = bits.next_bits((t - 1).bit_length()) % t
        sym = bits.next_bits(a_bits) % alpha
        for c in (trie.word(ptr) + bytes([sym]))[:n - len(out)]:
            out.append(c)
            child = children[cursor].get(c)
            if child is None:
                trie.add(cursor, c)
                cursor = 0
            else:
                cursor = child
    return SymbolSeq(alphabet, bytes(out))


def _lz_draws_at(x: SymbolSeq):
    """The draws of :func:`lz_sample` that keep matching x, in runs: the one
    draw rule behind its two readers, the exact law and the run tables.

    Returns (t_at, at): t_at[e] is the dictionary size after x[:e], and
    at(e) gives (t, moves, path, over) for a matched length e in 0..n-1,
    t being t_at[e].  Lengths may be asked for in any order, so a reader
    asks only for the lengths it reaches.  The depth-d draw points to
    path[d], the depth-d node on the trie path of x[e:], reads width(t) +
    bits per symbol bits, and needs x[e+d], reaching e+d+1; its count is
    path[d]'s pointer count times x[e+d]'s symbol count.  Ids grow along
    the path, so the pointer count (2 below id 2**width - t, else 1)
    changes at most once.  Each longest stretch of depths with one count
    is one :func:`~lzguess.seqcore.forward` move (first, last, None,
    count, bits).  When the path covers the whole residual, the last move
    is the overshoot (n, n, None, count, width(t)): a pointer to any node
    of `over` (else empty), the full-residual node and its descendants
    below t, wins with any symbol.
    """
    n, alpha = len(x), x.alphabet.size
    a_bits = x.alphabet.bits_per_symbol
    # how many raw symbol-field patterns map to each symbol under mod
    sym_counts = [((1 << a_bits) - 1 - s) // alpha + 1 for s in range(alpha)]
    parse = lz78.incremental_parse(x)
    t_at = parse.node_counts()
    children = parse.trie.children
    idx = x.indices
    ends = None     # ends[p]: where the stretch from p of x[p]'s count ends
    if len(set(sym_counts)) > 1:
        ends = []
        for _count, stretch in groupby(map(sym_counts.__getitem__, idx)):
            k = len(list(stretch))
            ends += [len(ends) + k] * k
    view = memoryview(idx)

    def at(e):
        t = t_at[e]
        width = (t - 1).bit_length()
        bits = width + a_bits
        path, over, node = [0], [], 0
        for sym in view[e:]:
            node = children[node].get(sym, t)
            if node >= t:
                break
            path.append(node)
        else:
            over.append(path.pop())
        low = (1 << width) - t      # ids below it have pointer count 2
        split = bisect.bisect_left(path, low)
        if ends is None:
            # every symbol count is 1: the pointer split is the one break
            moves = [(e + 1, e + split, None, 2, bits)] if split else []
            if split < len(path):
                moves.append((e + split + 1, e + len(path), None, 1, bits))
        else:
            moves, lo = [], 0
            for hi, ptr in ((split, 2), (len(path), 1)):
                while lo < hi:
                    top = min(hi, ends[e + lo] - e)
                    count = ptr * sym_counts[idx[e + lo]]
                    if moves and moves[-1][3] == count:
                        # across the split, 2 * 1 and 1 * 2 draw alike
                        lo = moves.pop()[0] - e - 1
                    moves.append((e + lo + 1, e + top, None, count, bits))
                    lo = top
        if over:
            # descendant ids exceed ancestor ids: an id >= t prunes a subtree
            for v in over:
                over.extend(filter(t.__gt__, children[v].values()))
            moves.append((n, n, None, len(over) + sum(map(low.__gt__, over)),
                          width))
        return t, moves, path, over

    return t_at, at


def lz_guess_prob(x: SymbolSeq) -> DyadicProb:
    """Exact probability that :func:`lz_sample` emits x.

    A :func:`~lzguess.seqcore.forward` pass over emitted-prefix lengths e:
    the dictionary after a matching prefix of length e is the parse trie of
    x[0:e], so the length is the whole state, and the moves from e are the
    :func:`_lz_draws_at` draws at e, one move per run.
    """
    _t_at, at = _lz_draws_at(x)
    return forward(len(x), None, lambda e, _state: at(e)[1]).get(
        None, DyadicProb.zero())


# ---------------------------------------------------------------------------
# block-restarted guesser
# ---------------------------------------------------------------------------

def _blocks(n: int, ell: int):
    for b in range(0, n, ell):
        yield b, min(b + ell, n)


def _per_block(f, ell: int, *seqs: SymbolSeq) -> list:
    """f of each ell-block of the equal-length `seqs` (a target, or a
    target and its side), in block order; equal blocks are computed once."""
    done, out = {}, []
    for b, e in _blocks(len(seqs[0]), ell):
        key = tuple(s.indices[b:e] for s in seqs)
        if key not in done:
            done[key] = f(*(s[b:e] for s in seqs))
        out.append(done[key])
    return out


def block_guess_prob(x: SymbolSeq, ell: int) -> DyadicProb:
    """Product of per-block emission probabilities (trie reset per block),
    each distinct block's law computed once."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    return reduce(mul, _per_block(lz_guess_prob, ell, x), DyadicProb.one())


def compile_block_guesser_to_fsgm(ell: int, alphabet: Alphabet) -> FSGMSpec:
    """An explicit machine whose output law equals the block guesser's.

    State (u, k): the block's first |u| symbols are determined to be u and
    the last k of them are still pending emission.  Draw states (k = 0) read
    a whole pointer+symbol field at once and spread the word over idle
    states; the block resets to the empty state every ell symbols.  A
    state is named by u's symbol indices, so distinct prefixes never share
    a name, whatever the tokens spell.
    """
    alpha = alphabet.size
    if ell < 1:
        raise ValueError("need ell >= 1")
    if ell * alpha ** ell > _COMPILE_STATE_BUDGET:
        raise BudgetError("compile budget exceeded: ell*alpha**ell = %d > %d"
                          % (ell * alpha ** ell, _COMPILE_STATE_BUDGET))
    a_bits = alphabet.bits_per_symbol

    def name(u: bytes, k: int) -> str:
        return "%s|%d" % (u.hex() or ".", k)

    start = (b"", 0)
    delta: dict = {}
    table: dict = {}
    pending = [start]
    seen = {start}
    while pending:
        u, k = pending.pop()
        z = name(u, k)
        if k > 0:
            nxt = (u, k - 1)
            if len(u) == ell and k - 1 == 0:
                nxt = start
            delta[z] = 0
            table[z] = [(u[len(u) - k], name(*nxt))]
            if nxt not in seen:
                seen.add(nxt)
                pending.append(nxt)
            continue
        # draw state: dictionary is the parse trie of u
        trie = lz78.incremental_parse(SymbolSeq(alphabet, u)).trie
        t = len(trie)
        width = (t - 1).bit_length()
        delta[z] = width + a_bits
        rows = []
        for w in range(1 << (width + a_bits)):
            ptr = (w >> a_bits) % t
            sym = (w & ((1 << a_bits) - 1)) % alpha
            word = trie.word(ptr) + bytes([sym])
            u_full = (u + word)[:ell]
            kp = len(u_full) - len(u) - 1
            nxt = (u_full, kp)
            if len(u_full) == ell and kp == 0:
                nxt = start
            rows.append((u_full[len(u)], name(*nxt)))
            if nxt not in seen:
                seen.add(nxt)
                pending.append(nxt)
        table[z] = rows

    return FSGMSpec(alphabet, sorted(name(*s) for s in seen), name(*start),
                    delta, table, name="block-guesser-ell%d" % ell)


# ---------------------------------------------------------------------------
# guesser objects
# ---------------------------------------------------------------------------

def _onto(s: SymbolSeq, alphabet: Alphabet) -> SymbolSeq:
    """s over `alphabet`, token by token (a missing token is an error)."""
    return (s if s.alphabet == alphabet
            else SymbolSeq.from_tokens(s.tokens(), alphabet))


class Guesser(namedtuple("Guesser", "kind alphabet n ell spec side")):
    """A randomized guessing distribution over length-n sequences: a
    `kind`, the target `alphabet` and length `n`, and per kind an `ell`, a
    machine `spec` (:class:`FSGMSpec`) or a `side` sequence.  Validated
    on construction; immutable, hashable and picklable (``--jobs`` sends
    it to worker processes).

    kinds: "lz_full" (one dictionary for the whole guess), "lz_block"
    (dictionary restarts every ell symbols), "uniform" (one fresh symbol
    per position; exactly uniform when alpha is a power of two), "fsgm"
    (an explicit machine).  lz_full is the block guesser with ell = n and
    uniform the one with ell = 1; :attr:`block` is that restart period
    and None for a machine.

    Given a length-n side sequence, an LZ guesser is the conditional
    sampler instead: each block draws ``sideinfo.cond_sample`` against its
    slice of `side`, and its law is the product of the blocks' laws.  A
    machine with a side alphabet needs `side` (a plain one refuses it);
    it reads targets and sides token by token over its own alphabets.
    Against a target, every kind compiles to one automaton form
    (:func:`compile_automaton`): states that each read a field of fair
    bits and look the raw field up in a table of next states, FAIL and
    WIN.  ``seqcore.play``, the one Monte Carlo engine, runs it; an
    attempt stops at the first draw that leaves the target.
    """

    __slots__ = ()

    def __new__(cls, kind: str, alphabet: Alphabet, n: int,
                ell: int | None = None, spec: FSGMSpec | None = None,
                side: SymbolSeq | None = None):
        if kind not in ("lz_full", "lz_block", "uniform", "fsgm"):
            raise ValueError("unknown guesser kind %r" % kind)
        if kind == "lz_block" and (ell is None or ell < 1):
            raise ValueError("lz_block needs ell >= 1")
        if kind == "fsgm" and spec is None:
            raise ValueError("fsgm guesser needs a machine spec")
        if (kind == "uniform" and side is not None) or (
                kind == "fsgm"
                and (side is None) != (spec.side_alphabet is None)):
            raise ValueError("side information needs an LZ guesser or a "
                             "side machine, and a side machine needs it")
        if side is not None and len(side) != n:
            raise ValueError("side length %d != guesser length %d"
                             % (len(side), n))
        if kind == "fsgm" and side is not None:
            side = _onto(side, spec.side_alphabet)
        return super().__new__(cls, kind, alphabet, n, ell, spec, side)

    @property
    def block(self) -> int | None:
        """The restart period: n, ell or 1; None for a machine."""
        return {"lz_full": self.n, "uniform": 1}.get(self.kind, self.ell)

    def describe(self) -> str:
        if self.kind == "fsgm":
            name = "fsgm(%s)" % (self.spec.name or "anonymous")
        else:
            name = ("lz_block(ell=%d)" % self.ell if self.kind == "lz_block"
                    else self.kind)
        return name if self.side is None else "cond_" + name

    def sample(self, bits: BitSource) -> SymbolSeq:
        if self.block is None:
            return fsgm.run(self.spec, bits, self.n, self.side).output
        return SymbolSeq(self.alphabet, b"".join(
            (lz_sample(self.alphabet, e - b, bits) if self.side is None else
             cond_sample(self.side[b:e], e - b, bits, self.alphabet)).indices
            for b, e in _blocks(self.n, self.block)))

    def guess_prob(self, x: SymbolSeq) -> DyadicProb:
        if len(x) != self.n:
            raise ValueError("target length %d != guesser length %d"
                             % (len(x), self.n))
        if self.block is None:
            return fsgm.sequence_prob(self.spec, _onto(x, self.spec.alphabet),
                                      self.side)
        if self.side is None:
            return block_guess_prob(x, self.block)
        return reduce(mul, _per_block(cond_guess_prob, self.block, x,
                                      self.side), DyadicProb.one())


# ---------------------------------------------------------------------------
# geometric moments
# ---------------------------------------------------------------------------

def moment_exact(q, zeta: float) -> MomentResult:
    """E[G^zeta] for G geometric with success probability q: the 1 x 1
    case of :func:`moment_grid`.  A ValueError says that q or zeta is out
    of range or that E[G^zeta] overflows a double.
    """
    return moment_grid([q], [zeta])[0]


def moment_grid(qs, zetas) -> list[MomentResult]:
    """E[G^zeta] for every (q, zeta) in q-major order.

    Closed forms for zeta in {1, 2}, (1, 0) at q = 1; every other row
    comes from one :func:`~lzguess.series.series_grid` call over the
    whole grid, whose rows share the lists of each chunk of the series,
    or from :func:`moment_log2` where the series cannot run.  A row's value and
    rel_err do not depend on the other rows.  A ValueError says that a q
    or zeta is out of range or that an E[G^zeta] overflows a double; when
    several rows fail, the error is that of the first in q-major order.
    """
    zetas = list(zetas)
    rows, error = [], None
    try:
        for q in qs:
            for zeta in zetas:
                qf = float(q)
                if not 0.0 < qf <= 1.0:
                    raise ValueError("divergent moment: need 0 < q <= 1, "
                                     "got %r" % (qf,))
                if not 0 < zeta < math.inf:
                    raise ValueError("need 0 < zeta < inf, got %r"
                                     % (zeta,))
                rows.append((qf, zeta))
    except (TypeError, ValueError) as exc:
        error = exc         # raised after the rows before it, which may fail
    series = iter(series_grid([(qf, zeta) for qf, zeta in rows
                                if zeta not in (1, 2)]))
    out = []
    for qf, zeta in rows:
        if zeta in (1, 2):
            try:
                value = 1.0 / qf if zeta == 1 else (2.0 - qf) / (qf * qf)
            except ZeroDivisionError:       # q * q underflows to 0
                value = math.inf
            if value == math.inf:
                raise _overflow(qf, zeta)
            out.append(MomentResult(value, 0.0))
        else:
            out.append(next(series) or _moment_from_log2(qf, zeta))
    if error is not None:
        raise error
    return out


def _moment_series(qf: float, zeta: float) -> MomentResult:
    """The series row (qf, zeta) alone, at zeta in {1, 2} too: the 1 x 1
    case of :func:`~lzguess.series.series_grid`, with the same fallback
    as :func:`moment_grid`; tests check it against the closed forms."""
    return series_grid([(qf, zeta)])[0] or _moment_from_log2(qf, zeta)


def _moment_from_log2(qf: float, zeta: float) -> MomentResult:
    """A series row that the series cannot give, from moment_log2."""
    try:
        return MomentResult(2.0 ** moment_log2(math.log2(qf), zeta), 1e-12)
    except OverflowError:
        raise _overflow(qf, zeta) from None


def _overflow(qf: float, zeta: float) -> ValueError:
    return ValueError("E[G^%r] at q = %r overflows a double" % (zeta, qf))


def moment_lower_bound(q, zeta: float) -> float:
    """(2**-zeta / e**2) * q**-zeta, valid for q <= 1/2; from its log2
    where q**-zeta alone overflows.  A ValueError says that q or zeta is
    out of range or that the bound overflows a double."""
    qf = float(q)
    if not 0.0 < qf <= 0.5:
        raise ValueError("the lower bound needs 0 < q <= 1/2, got %r" % (qf,))
    if zeta <= 0:
        raise ValueError("need zeta > 0")
    try:
        return (2.0 ** -zeta) / math.e ** 2 * qf ** -zeta
    except OverflowError:
        pass
    try:
        return 2.0 ** moment_lower_bound_log2(math.log2(qf), zeta)
    except OverflowError:
        raise ValueError("the lower bound at q = %r, zeta = %r overflows a "
                         "double" % (qf, zeta)) from None


# B_2j / (2j)! for j = 1..6: the Euler-Maclaurin corrections of moment_log2
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)
_EM_TOL = 2.0 ** -56


def moment_log2(q_log2: float, zeta: float) -> float:
    """log2 E[G^zeta] from log2 q, for any q, even one that underflows.

    zeta = 1 and 2 use the closed forms.  Otherwise, with mu = -ln(1-q),
    E[G^zeta] = (e^mu - 1) Li_{-zeta}(e^-mu).  When mu > pi (q > 0.957) the
    series sum_k k^zeta (1-q)^(k-1) q is summed from the logs of its terms
    and stopped once a geometric bound on its rest, also formed in logs, is
    below 1e-12 of the sum; past about zeta = 2 mu^2 + 80 the Gamma form
    below holds with R = 0 for this mu too, so the series never needs more
    than about 90 terms.  Otherwise take the expansion Li_s(e^-mu) =
    Gamma(1-s) mu^(s-1) + sum_k zeta_R(s-k) (-mu)^k / k! (DLMF 25.12.12,
    s = -zeta), write each zeta_R(-zeta-k) through the functional equation
    as a multiple of zeta_R(1+zeta+k) = sum_n n^-(1+zeta+k), and sum the
    binomial series over k in closed form.  With a = 1 + zeta and
    r = mu / (2 pi) <= 1/2 that leaves

        Li_{-zeta}(e^-mu) = Gamma(a) mu^-a (1 + R),
        R = -2 r^a Im(e^(i pi zeta / 2) sum_{n>=1} (n + i r)^-a).

    The sum over n is Euler-Maclaurin (DLMF 2.10.1) at a cut-off N with six
    corrections.  N comes from the proven remainder bound
    |B_12|/12! * integral_N^inf |f^(12)|, so the truncation error in R is
    below 2**-56, whatever zeta is; no sum stops on a small term.  When
    2 r^a a/zeta, a bound on |R|, is below that, R is 0.  Everything is
    formed from q_log2, so q below 2**-1074 costs nothing extra.

    Error: at most 1e-12 relative in E[G^zeta].  The series' tail bounds
    certify that; the expansion side is within 1e-13 of mpmath.polylog at
    40 digits from q = 2**-4000 up to the switch.  The returned float adds
    its own rounding, which is more than 1e-12 relative once log2 E passes
    8192.  A ValueError says that log2 E[G^zeta] overflows a double.
    """
    if not q_log2 <= 0:
        raise ValueError("q_log2 must be <= 0")
    if zeta == 1:
        return -q_log2
    if zeta == 2:
        if q_log2 >= -40:
            q = 2.0 ** q_log2
            return math.log2((2.0 - q) / (q * q))
        return 1.0 - 2.0 * q_log2
    if not 0 < zeta < math.inf:
        raise ValueError("need 0 < zeta < inf, got %r" % (zeta,))
    q = 2.0 ** q_log2
    if q == 1.0:
        return 0.0
    mu = -math.log1p(-q)
    a = zeta + 1.0
    R = 0.0
    if mu > math.pi:
        # 1 - q from q_log2, not from q, which has lost its low bits
        l1 = math.log2(-math.expm1(q_log2 / LOG2E))     # log2(1 - q)
        mu = -l1 / LOG2E
        # |R| <= 4 (1 + c2)^(-a/2), c2 = (2 pi / mu)^2, since ln(1 + c2 n^2)
        # is convex in ln n; past 2**-56, R is 0 and the series is skipped
        if a * math.log2(1.0 + (2.0 * math.pi / mu) ** 2) <= 116:
            # so zeta < 2.1 mu^2 + 81, and mu < 38 as q < 1: at most about
            # 90 terms.  g is log2 of term k over term kp, near the peak, so
            # no term overflows; past the peak the ratio of neighbours only
            # falls, so a geometric series bounds the rest
            kp, k, total = max(1, math.floor(zeta / mu)), 0, 0.0
            while True:
                k += 1
                g = zeta * math.log1p((k - kp) / kp) * LOG2E + (k - kp) * l1
                total += 2.0 ** g
                lr = zeta * math.log1p(1.0 / k) * LOG2E + l1
                if lr < 0:
                    tail = 2.0 ** (g + lr) / -math.expm1(lr / LOG2E)
                    if tail <= REL_TOL * total:
                        return (zeta * math.log2(kp) + (kp - 1) * l1 + q_log2
                                + math.log2(total + 0.5 * tail))
    else:
        r = mu / (2.0 * math.pi)
        scale = 2.0 * r ** a
        if scale * a / zeta > _EM_TOL:
            m = len(_EM_COEFFS)
            rising = [1.0]               # rising[p] = a (a+1) ... (a+p-1)
            for p in range(2 * m):
                rising.append(rising[-1] * (a + p))
            order = a + 2 * m - 1
            rem = abs(_EM_COEFFS[-1]) * rising[2 * m] / order
            N = max(1, math.ceil((scale * rem / _EM_TOL) ** (1.0 / order)))
            w = complex(N, r)
            s = sum(complex(k, r) ** -a for k in range(1, N))
            s += w ** (1.0 - a) / zeta + 0.5 * w ** -a
            for j, b in enumerate(_EM_COEFFS, start=1):
                s += b * rising[2 * j - 1] * w ** (1.0 - a - 2 * j)
            R = -scale * (cmath.exp(0.5j * math.pi * zeta) * s).imag
    # log2(e^mu - 1) - a log2(mu) = -zeta log2(q) + mu log2(e) - a log2(mu/q),
    # so the large part is one product of the inputs; mu/q -> 1 as q -> 0
    ratio = mu / q if q else 1.0
    try:
        value = (-zeta * q_log2 + mu * LOG2E - a * math.log2(ratio)
                 + (math.lgamma(a) + math.log1p(R)) * LOG2E)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("log2 E[G^%r] at log2 q = %r overflows a double"
                         % (zeta, q_log2))
    return value


def moment_lower_bound_log2(q_log2: float, zeta: float) -> float:
    """log2 of :func:`moment_lower_bound`."""
    if q_log2 > -1:
        raise ValueError("the lower bound needs q <= 1/2")
    return -zeta - 2.0 * LOG2E - zeta * q_log2


# ---------------------------------------------------------------------------
# the guessing game, Monte Carlo side
# ---------------------------------------------------------------------------

class _Row:
    """An automaton row built on first read.  It stands in tables[i] until
    its first index, iteration or len, which builds the row with build(i)
    and puts it in its place, so every later read, play's among them,
    indexes a plain list."""

    __slots__ = ("tables", "i", "build", "row")

    def __init__(self, tables, i, build):
        self.tables, self.i, self.build = tables, i, build
        self.row = None

    def _built(self):
        if self.row is None:
            self.row = self.tables[self.i] = self.build(self.i)
            # the row no longer needs its list, which would keep a cycle
            self.tables = self.build = None
        return self.row

    def __getitem__(self, field):
        return self._built()[field]

    def __iter__(self):
        return iter(self._built())

    def __len__(self):
        return len(self._built())


def _lz_run_tables(x: SymbolSeq):
    """The whole LZ guess against x in the automaton form of
    :func:`~lzguess.seqcore.play`, with the matched length e as the state.

    tables[e] is indexed by the raw pointer+symbol field; entries are the
    next matched length, WIN or FAIL.  Only the raw patterns of the
    :func:`_lz_draws_at` draws at e are filled in.  The widths come from
    the parse at once; each row is a :class:`_Row`, built when an attempt
    first reaches its length, so a game that only ever meets short
    prefixes of x builds only their rows."""
    n, alpha, idx = len(x), x.alphabet.size, x.indices
    a_bits = x.alphabet.bits_per_symbol
    span = 1 << a_bits
    t_at, at = _lz_draws_at(x)
    widths = [(t - 1).bit_length() + a_bits for t in t_at[:n]]

    def row(e):
        t, _moves, path, over = at(e)
        bits = widths[e]
        table = [FAIL] * (1 << bits)
        # (pointers, first raw symbol, stride, next e) of each draw: a draw
        # takes the raw symbols that map to its symbol, the overshoot every
        # raw symbol
        draws = [((v,), idx[e + d], alpha, e + d + 1)
                 for d, v in enumerate(path)]
        for nodes, sym, stride, nxt in draws + [(over, 0, 1, n)]:
            fill = [WIN if nxt == n else nxt] * len(range(sym, span, stride))
            for v in nodes:
                for base in range(v << a_bits, 1 << bits, t << a_bits):
                    table[base + sym:base + span:stride] = fill
        return table

    tables = []
    tables.extend(_Row(tables, e, row) for e in range(n))
    return widths, tables


def _chain(parts):
    """Blocks' automata played in turn as one: each block's states follow
    the last block's, and its WIN is the next block's start."""
    if len(parts) == 1:
        return parts[0]
    widths, tables = [], []
    for k, (ws, ts) in enumerate(parts):
        base = len(tables)
        win = base + len(ts) if k + 1 < len(parts) else WIN
        widths.extend(ws)
        tables.extend([v + base if v >= 0 else win if v == WIN else FAIL
                       for v in table] for table in ts)
    return widths, tables


def compile_automaton(guesser: Guesser, x: SymbolSeq):
    """The guesser against target x as the automaton that
    :func:`~lzguess.seqcore.play` runs.

    A whole LZ guess is its :func:`_lz_run_tables` as they are, a
    conditional one its ``sideinfo._cond_automaton``, a machine its
    ``fsgm.automaton``; a block-restarted guesser chains its blocks'
    automata, each distinct block compiled once.  An attempt stops at the
    first draw that leaves x: the unread bits are independent, so the
    per-attempt success law is unchanged, and an attempt reads a prefix of
    the bits the guesser's sampler reads, all of them when it wins."""
    if guesser.block is None:
        return fsgm.automaton(guesser.spec, _onto(x, guesser.spec.alphabet),
                              guesser.side)
    if guesser.side is None:
        return _chain(_per_block(_lz_run_tables, guesser.block, x))
    return _chain(_per_block(_cond_automaton, guesser.block, x, guesser.side))


def make_runner(guesser: Guesser, x: SymbolSeq) -> Callable[[BitSource], bool]:
    """One attempt of :func:`compile_automaton`'s automaton, its fields
    read through ``BitSource.next_bits``: the oracle for the inline
    reader of :func:`~lzguess.seqcore.play`."""
    widths, tables = compile_automaton(guesser, x)

    def attempt(bits: BitSource) -> bool:
        state = 0
        while state >= 0:
            state = tables[state][bits.next_bits(widths[state])]
        return state == WIN

    return attempt


class MomentEstimate(namedtuple(
        "MomentEstimate", "n zeta q_log2 exact_moment_log2 exponent "
                          "mc_mean mc_ci censored rounds",
        defaults=(None, None, None, None))):
    """Exact and Monte-Carlo views of E[G^zeta] for one guesser and target:
    the fields are the columns of the CLI's moment rows, in order.

    `exponent` is exact_moment_log2 / n.  The Monte Carlo fields, None
    until :meth:`fold` fills them, are the mean of G^zeta over the rounds
    (`mc_mean`), 3 standard errors of that mean (`mc_ci`), the rounds
    censored at the cap and the rounds played.
    """

    __slots__ = ()

    def fold(self, counts, cap: int) -> "MomentEstimate":
        """A copy with the Monte Carlo fields filled from per-round guess
        counts in round order, as :func:`play` yields them; a censored
        round (cap + 1) enters the mean at the cap.  No counts return
        this estimate as it is.  A ValueError says that a G^zeta, or the
        sum of their squares, overflows a double."""
        total = total_sq = 0.0
        censored = rounds = 0
        try:
            for g in counts:
                if g > cap:
                    censored += 1
                    g = cap
                gz = float(g) ** self.zeta
                total += gz
                total_sq += gz * gz
                rounds += 1
        except OverflowError:
            total_sq = math.inf
        if total_sq == math.inf:
            raise ValueError("G^%r of a round overflows a double"
                             % (self.zeta,))
        if not rounds:
            return self
        mean = total / rounds
        var = max(total_sq / rounds - mean * mean, 0.0)
        return self._replace(mc_mean=mean,
                             mc_ci=3.0 * math.sqrt(var / rounds),
                             censored=censored, rounds=rounds)


def estimate_moment(q: DyadicProb, zeta: float, n: int) -> MomentEstimate:
    """Exact fields only."""
    if q.is_zero():
        raise ValueError("zero-probability target")
    q_log2 = q.log2()
    m_log2 = moment_log2(q_log2, zeta)
    return MomentEstimate(n, zeta, q_log2, m_log2, m_log2 / n)


def _mc_chunk(args):
    """The guess counts of one contiguous block of rounds; a top-level
    function so worker processes can receive it."""
    guesser, x, start, count, seed, cap = args
    return list(play(compile_automaton(guesser, x), count, seed, cap, start))


def play_counts(guesser: Guesser, x: SymbolSeq, rounds: int, seed: int = 0,
                cap: int = 1 << 20, jobs: int = 1) -> list[int]:
    """The guess count of each of `rounds` rounds, in round order (substream
    k drives round k; a censored round counts cap + 1).

    jobs > 1 fans contiguous blocks of rounds out to worker processes and
    joins their counts in round order, so the list is the same for any
    worker count.  One list serves every zeta: fold it with
    :meth:`MomentEstimate.fold`.
    """
    if rounds < 0:
        raise ValueError("need rounds >= 0, got %r" % (rounds,))
    if jobs < 1:
        raise ValueError("need jobs >= 1, got %r" % (jobs,))
    if rounds == 0:
        return []
    if jobs == 1:
        return _mc_chunk((guesser, x, 0, rounds, seed, cap))
    from concurrent.futures import ProcessPoolExecutor
    step = -(-rounds // jobs)
    chunks = [(guesser, x, start, min(step, rounds - start), seed, cap)
              for start in range(0, rounds, step)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [g for part in pool.map(_mc_chunk, chunks) for g in part]


def run_game(guesser: Guesser, x: SymbolSeq, zeta: float = 1.0,
             rounds: int = 0, seed: int = 0, cap: int = 1 << 20,
             jobs: int = 1) -> MomentEstimate:
    """Play the guessing game at one zeta: the exact moment from the
    guesser's exact q, folded with the Monte Carlo counts of
    :func:`play_counts` (none when rounds is 0).

    Rounds are censored at `cap` guesses; censored rounds enter the mean at
    the cap, so pick caps large enough for the q at hand or read the
    censored count.  Results are identical for any worker count.  For
    several zeta, call :func:`play_counts` once and fold its list at each
    zeta, as the ``guess`` subcommand does.
    """
    est = estimate_moment(guesser.guess_prob(x), zeta, len(x))
    return est.fold(play_counts(guesser, x, rounds, seed, cap, jobs), cap)

