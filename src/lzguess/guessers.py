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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .seqcore import (Alphabet, BitSource, BudgetError, DyadicProb, SymbolSeq,
                      forward, play)
from . import fsgm, lz78
from .fsgm import FSGMSpec

LOG2E = math.log2(math.e)
_COMPILE_STATE_BUDGET = 4096    # ell * alpha**ell states at most
_SERIES_REL_TOL = 1e-12         # moment_exact's series stop


def _sym_counts(alphabet: Alphabet) -> list[int]:
    """How many raw symbol-field patterns map to each symbol under mod."""
    a = alphabet.bits_per_symbol
    return [((1 << a) - 1 - s) // alphabet.size + 1 for s in range(alphabet.size)]


def _ptr_count(node: int, t: int, width: int) -> int:
    """How many raw pointer-field patterns map to node id under mod t."""
    return ((1 << width) - 1 - node) // t + 1


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


def _lz_draws(x: SymbolSeq):
    """The draws of :func:`lz_sample` that keep matching x, the one draw
    rule behind the exact law, the aligned witness and the run tables.

    Yields (e, t, draws) for each matched length e = 0..n-1, t being the
    dictionary size after x[:e].  A draw (node, sym, e', count, bits)
    points to the depth-d node on the trie path of x[e:] and needs the
    symbol sym = x[e+d], reaching e' = e+d+1; `count` of the 2**bits
    pointer+symbol patterns make it.  When the path covers the whole
    residual, the last draw is the overshoot (nodes, None, n, count, bits):
    a pointer to the full-residual node or any descendant wins with any
    symbol, so only its pointer bits count.  The last draw at e is always
    the one x's own parse takes.
    """
    n = len(x)
    a_bits = x.alphabet.bits_per_symbol
    sym_counts = _sym_counts(x.alphabet)
    parse = lz78.incremental_parse(x)
    t_at = parse.node_counts()
    children = parse.trie.children
    idx = x.indices
    for e in range(n):
        t = t_at[e]
        width = (t - 1).bit_length()
        draws = []
        node = 0
        for p in range(e, n):
            sym = idx[p]
            draws.append((node, sym, p + 1, _ptr_count(node, t, width)
                          * sym_counts[sym], width + a_bits))
            node = children[node].get(sym)
            if node is None or node >= t:
                break
        else:
            # descendant ids exceed ancestor ids: an id >= t prunes a subtree
            nodes = [node]
            for v in nodes:
                nodes.extend(c for c in children[v].values() if c < t)
            draws.append((nodes, None, n, sum(_ptr_count(v, t, width)
                                              for v in nodes), width))
        yield e, t, draws


def lz_guess_prob(x: SymbolSeq) -> DyadicProb:
    """Exact probability that :func:`lz_sample` emits x.

    A :func:`~lzguess.seqcore.forward` pass over emitted-prefix lengths e:
    the dictionary after a matching prefix of length e is the parse trie of
    x[0:e], so the length is the whole state, and the moves from e are the
    :func:`_lz_draws` at e.
    """
    draws_at = _lz_draws(x)

    def step(e, _state):
        # the root draw always reaches e + 1, so every e is asked for in turn
        for _node, _sym, nxt, count, bits in next(draws_at)[2]:
            yield nxt, None, count, bits

    return forward(len(x), None, step).get(None, DyadicProb.zero())


def aligned_guess_prob(x: SymbolSeq) -> DyadicProb:
    """Probability of the single draw path aligned with x's own parse.

    One factor per phrase, the last of the :func:`_lz_draws` at its start:
    pointer patterns hitting the parent node times symbol patterns hitting
    the innovation, or the overshoot for an incomplete tail.  A lower bound
    on lz_guess_prob and at least 2**-code_length(x)."""
    prob = DyadicProb.one()
    start = 0
    for e, _t, draws in _lz_draws(x):
        if e == start:
            _node, _sym, start, count, bits = draws[-1]
            prob = prob * DyadicProb(count, bits)
    return prob


# ---------------------------------------------------------------------------
# block-restarted guesser
# ---------------------------------------------------------------------------

def _blocks(n: int, ell: int):
    for b in range(0, n, ell):
        yield b, min(b + ell, n)


def block_sample(alphabet: Alphabet, n: int, ell: int,
                 bits: BitSource) -> SymbolSeq:
    """Independent dictionary restarts every ell symbols."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    out = bytearray()
    for b, e in _blocks(n, ell):
        out.extend(lz_sample(alphabet, e - b, bits).indices)
    return SymbolSeq(alphabet, bytes(out))


def block_guess_prob(x: SymbolSeq, ell: int) -> DyadicProb:
    """Product of per-block emission probabilities (trie reset per block)."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    prob = DyadicProb.one()
    for b, e in _blocks(len(x), ell):
        prob = prob * lz_guess_prob(x[b:e])
    return prob


def compile_block_guesser_to_fsgm(ell: int, alphabet: Alphabet) -> FSGMSpec:
    """An explicit machine whose output law equals the block guesser's.

    State (u, k): the block's first |u| symbols are determined to be u and
    the last k of them are still pending emission.  Draw states (k = 0) read
    a whole pointer+symbol field at once and spread the word over idle
    states; the block resets to the empty state every ell symbols.  The
    construction is compared against the ell * alpha**ell budget and flags
    any excess.
    """
    alpha = alphabet.size
    if ell < 1:
        raise ValueError("need ell >= 1")
    if ell * alpha ** ell > _COMPILE_STATE_BUDGET:
        raise BudgetError("compile budget exceeded: ell*alpha**ell = %d > %d"
                          % (ell * alpha ** ell, _COMPILE_STATE_BUDGET))
    a_bits = alphabet.bits_per_symbol

    def name(u: bytes, k: int) -> str:
        text = "".join(str(alphabet.tokens[c]) for c in u) or "."
        return "%s|%d" % (text, k)

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

    names = [name(*s) for s in seen]
    spec = FSGMSpec(alphabet, sorted(set(names)), name(*start), delta, table,
                    name="block-guesser-ell%d" % ell)
    if spec.state_count > ell * alpha ** ell:
        import warnings
        warnings.warn("compiled machine uses %d states, above the "
                      "ell*alpha**ell = %d budget"
                      % (spec.state_count, ell * alpha ** ell))
    return spec


# ---------------------------------------------------------------------------
# guesser objects
# ---------------------------------------------------------------------------

def _onto(s: SymbolSeq, alphabet: Alphabet) -> SymbolSeq:
    """s over `alphabet`, token by token (a missing token is an error)."""
    return (s if s.alphabet == alphabet
            else SymbolSeq.from_tokens(s.tokens(), alphabet))


@dataclass(frozen=True)
class Guesser:
    """A randomized guessing distribution over length-n sequences.

    kinds: "lz_full" (one dictionary for the whole guess), "lz_block"
    (dictionary restarts every ell symbols), "uniform" (one fresh symbol
    per position; exactly uniform when alpha is a power of two), "fsgm"
    (an explicit machine).  lz_full is the block guesser with ell = n and
    uniform the one with ell = 1; `block` holds that restart period and is
    None for a machine.

    Given a length-n side sequence, an LZ guesser is the conditional
    sampler instead: each block draws ``sideinfo.cond_sample`` against its
    slice of `side`, and its law is the product of the blocks' laws.  A
    machine with a side alphabet needs `side` (a plain one refuses it);
    it reads targets and sides token by token over its own alphabets.
    """

    kind: str
    alphabet: Alphabet
    n: int
    ell: int | None = None
    spec: FSGMSpec | None = None
    side: SymbolSeq | None = None
    block: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("lz_full", "lz_block", "uniform", "fsgm"):
            raise ValueError("unknown guesser kind %r" % self.kind)
        if self.kind == "lz_block" and (self.ell is None or self.ell < 1):
            raise ValueError("lz_block needs ell >= 1")
        if self.kind == "fsgm" and self.spec is None:
            raise ValueError("fsgm guesser needs a machine spec")
        if (self.kind == "uniform" and self.side is not None) or (
                self.kind == "fsgm"
                and (self.side is None) != (self.spec.side_alphabet is None)):
            raise ValueError("side information needs an LZ guesser or a "
                             "side machine, and a side machine needs it")
        if self.side is not None and len(self.side) != self.n:
            raise ValueError("side length %d != guesser length %d"
                             % (len(self.side), self.n))
        if self.kind == "fsgm" and self.side is not None:
            object.__setattr__(self, "side",
                               _onto(self.side, self.spec.side_alphabet))
        block = {"lz_full": self.n, "uniform": 1}.get(self.kind, self.ell)
        object.__setattr__(self, "block", block)

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
        if self.side is None:
            return block_sample(self.alphabet, self.n, self.block, bits)
        from .sideinfo import cond_sample
        return SymbolSeq(self.alphabet, b"".join(
            cond_sample(self.side[b:e], e - b, bits, self.alphabet).indices
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
        from .sideinfo import cond_guess_prob
        prob = DyadicProb.one()
        for b, e in _blocks(self.n, self.block):
            prob = prob * cond_guess_prob(x[b:e], self.side[b:e])
        return prob


# ---------------------------------------------------------------------------
# geometric moments
# ---------------------------------------------------------------------------

class MomentResult(NamedTuple):
    value: float
    rel_err: float


def moment_exact(q, zeta: float, force_series: bool = False) -> MomentResult:
    """E[G^zeta] for G geometric with success probability q.

    Closed forms for zeta in {1, 2}; otherwise the series
    sum_k k^zeta (1-q)^(k-1) q, stopped once a geometric tail bound
    certifies relative error below 1e-12.  force_series skips the closed
    forms (used to cross-check the series against them).  The series needs
    about zeta/q terms, so below q = 2**-20 the value comes from
    :func:`moment_log2` with its documented 1e-12 relative error.
    """
    qf = float(q)
    if not 0.0 < qf <= 1.0:
        raise ValueError("divergent moment: need 0 < q <= 1, got %r" % (qf,))
    if not 0 < zeta < math.inf:
        raise ValueError("need 0 < zeta < inf, got %r" % (zeta,))
    if not force_series:
        if zeta == 1:
            return MomentResult(1.0 / qf, 0.0)
        if zeta == 2:
            return MomentResult((2.0 - qf) / (qf * qf), 0.0)
    if qf == 1.0:
        return MomentResult(1.0, 0.0)
    one_minus = 1.0 - qf
    try:
        if qf < 2.0 ** -20:
            return MomentResult(2.0 ** moment_log2(math.log2(qf), zeta),
                                1e-12)
        total = 0.0
        term_geom = qf          # q * (1-q)^(k-1)
        k = 1
        while True:
            total += (k ** zeta) * term_geom
            # past the peak, terms shrink at least geometrically with ratio r
            r = ((1.0 + 1.0 / k) ** zeta) * one_minus
            if r < 1.0:
                tail = (((k + 1) ** zeta) * term_geom * one_minus) / (1.0 - r)
                if tail <= _SERIES_REL_TOL * total:
                    return MomentResult(total + 0.5 * tail, tail / total)
            term_geom *= one_minus
            k += 1
    except OverflowError:
        raise ValueError("E[G^%r] at q = %r overflows a double"
                         % (zeta, qf)) from None


def moment_lower_bound(q, zeta: float) -> float:
    """(2**-zeta / e**2) * q**-zeta, valid for q <= 1/2."""
    qf = float(q)
    if not 0.0 < qf <= 0.5:
        raise ValueError("the lower bound needs 0 < q <= 1/2, got %r" % (qf,))
    if zeta <= 0:
        raise ValueError("need zeta > 0")
    return (2.0 ** -zeta) / math.e ** 2 * qf ** -zeta


# B_2j / (2j)! for j = 1..6: the Euler-Maclaurin corrections of moment_log2
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)
_EM_TOL = 2.0 ** -56


def moment_log2(q_log2: float, zeta: float) -> float:
    """log2 E[G^zeta] from log2 q, for any q, even one that underflows.

    zeta = 1 and 2 use the closed forms.  Otherwise, with mu = -ln(1-q),
    E[G^zeta] = (e^mu - 1) Li_{-zeta}(e^-mu).  When mu > pi (q > 0.957) the
    series of :func:`moment_exact` needs a few dozen terms and is used.
    Otherwise take the expansion Li_s(e^-mu) = Gamma(1-s) mu^(s-1) +
    sum_k zeta_R(s-k) (-mu)^k / k! (DLMF 25.12.12, s = -zeta), write each
    zeta_R(-zeta-k) through the functional equation as a multiple of
    zeta_R(1+zeta+k) = sum_n n^-(1+zeta+k), and sum the binomial series over
    k in closed form.  With a = 1 + zeta and r = mu / (2 pi) <= 1/2 that
    leaves

        Li_{-zeta}(e^-mu) = Gamma(a) mu^-a (1 + R),
        R = -2 r^a Im(e^(i pi zeta / 2) sum_{n>=1} (n + i r)^-a).

    The sum over n is Euler-Maclaurin (DLMF 2.10.1) at a cut-off N with six
    corrections.  N comes from the proven remainder bound
    |B_12|/12! * integral_N^inf |f^(12)|, so the truncation error in R is
    below 2**-56, whatever zeta is; no sum stops on a small term.  When
    2 r^a a/zeta, a bound on |R|, is below that, R is 0.  Everything is
    formed from q_log2, so q below 2**-1074 costs nothing extra.

    Error: at most 1e-12 relative in E[G^zeta].  The series certifies
    that; the expansion side is within 1e-13 of mpmath.polylog at 40 digits
    from q = 2**-4000 up to the switch.  The returned float adds its own
    rounding, which is more than 1e-12 relative once log2 E passes 8192.
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
    mu = -math.log1p(-q) if q < 1.0 else math.inf
    if mu > math.pi:
        return math.log2(moment_exact(q, zeta).value)
    a = zeta + 1.0
    r = mu / (2.0 * math.pi)
    scale = 2.0 * r ** a
    R = 0.0
    if scale * a / zeta > _EM_TOL:
        m = len(_EM_COEFFS)
        rising = [1.0]                   # rising[p] = a (a+1) ... (a+p-1)
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
    return (-zeta * q_log2 + mu * LOG2E - a * math.log2(ratio)
            + (math.lgamma(a) + math.log1p(R)) * LOG2E)


def moment_lower_bound_log2(q_log2: float, zeta: float) -> float:
    """log2 of :func:`moment_lower_bound`."""
    if q_log2 > -1:
        raise ValueError("the lower bound needs q <= 1/2")
    return -zeta - 2.0 * LOG2E - zeta * q_log2


# ---------------------------------------------------------------------------
# the guessing game, Monte Carlo side
# ---------------------------------------------------------------------------

def _lz_run_tables(x: SymbolSeq):
    """Per-position draw outcome tables for fast game simulation.

    tables[e] is indexed by the raw pointer+symbol field; entries are the
    next matched length, WIN (-2), or FAIL (-1).  Only the raw patterns of
    the :func:`_lz_draws` at e are filled in."""
    n = len(x)
    alpha = x.alphabet.size
    a_bits = x.alphabet.bits_per_symbol
    span = 1 << a_bits
    widths = []
    tables = []
    for _e, t, draws in _lz_draws(x):
        bits = (t - 1).bit_length() + a_bits
        table = [-1] * (1 << bits)
        for node, sym, nxt, _count, _bits in draws:
            code = -2 if nxt == n else nxt
            nodes, first, stride = (((node,), sym, alpha) if sym is not None
                                    else (node, 0, 1))
            fill = [code] * len(range(first, span, stride))
            for v in nodes:
                for base in range(v << a_bits, 1 << bits, t << a_bits):
                    table[base + first:base + span:stride] = fill
        widths.append(bits)
        tables.append(table)
    return widths, tables


def _lz_full_runner(x: SymbolSeq) -> Callable[[BitSource], bool]:
    widths, tables = _lz_run_tables(x)

    def attempt(bits: BitSource) -> bool:
        e = 0
        while True:
            e = tables[e][bits.next_bits(widths[e])]
            if e == -2:
                return True
            if e == -1:
                return False

    return attempt


def _cond_runner(x: SymbolSeq, y: SymbolSeq) -> Callable[[BitSource], bool]:
    from .sideinfo import cond_sample
    n, alphabet = len(x), x.alphabet
    return lambda bits: cond_sample(y, n, bits, alphabet) == x


def make_runner(guesser: Guesser, x: SymbolSeq) -> Callable[[BitSource], bool]:
    """A single-guess attempt function.  The LZ and machine runners stop
    at the first mismatched draw (the unread bits are independent, so the
    per-run success law is unchanged); the conditional runner compares
    whole ``cond_sample`` draws, one block at a time."""
    if guesser.block is None:
        return fsgm.runner(guesser.spec, _onto(x, guesser.spec.alphabet),
                           guesser.side)
    side = guesser.side
    runners = [_lz_full_runner(x[b:e]) if side is None
               else _cond_runner(x[b:e], side[b:e])
               for b, e in _blocks(len(x), guesser.block)]
    if len(runners) == 1:
        return runners[0]

    def attempt(bits: BitSource) -> bool:
        for r in runners:
            if not r(bits):
                return False
        return True

    return attempt


@dataclass
class MomentEstimate:
    """Exact and Monte-Carlo views of E[G^zeta] for one guesser and target."""

    q: DyadicProb | None
    q_log2: float
    zeta: float
    exact_moment: float          # inf when it overflows a double
    exact_moment_log2: float
    exponent: float              # exact_moment_log2 / n
    mc_mean: float | None = None
    mc_ci: float | None = None   # 3 standard errors of the mean
    censored: int | None = None
    rounds: int | None = None

    def fold(self, counts, cap: int) -> "MomentEstimate":
        """Fill the Monte Carlo fields from per-round guess counts in round
        order, as :func:`play` yields them; a censored round (cap + 1)
        enters the mean at the cap.  No counts leave the fields None."""
        total = total_sq = 0.0
        censored = rounds = 0
        for g in counts:
            if g > cap:
                censored += 1
                g = cap
            gz = float(g) ** self.zeta
            total += gz
            total_sq += gz * gz
            rounds += 1
        if not rounds:
            return self
        mean = total / rounds
        var = max(total_sq / rounds - mean * mean, 0.0)
        self.mc_mean = mean
        self.mc_ci = 3.0 * math.sqrt(var / rounds)
        self.censored = censored
        self.rounds = rounds
        return self


def estimate_moment(q: DyadicProb, zeta: float, n: int) -> MomentEstimate:
    """Exact fields only."""
    if q.is_zero():
        raise ValueError("zero-probability target")
    q_log2 = q.log2()
    m_log2 = moment_log2(q_log2, zeta)
    value = 2.0 ** m_log2 if m_log2 < 1020 else math.inf
    return MomentEstimate(q, q_log2, zeta, value, m_log2, m_log2 / n)


def _mc_chunk(args):
    """The guess counts of one contiguous block of rounds; a top-level
    function so worker processes can receive it."""
    guesser, x, start, count, seed, cap = args
    return list(play(make_runner(guesser, x), count, seed, cap, start))


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


def survival_curve(guesser: Guesser, x: SymbolSeq, ks, rounds: int,
                   seed: int, cap: int | None = None) -> dict[int, float]:
    """Empirical Pr{G >= k} at the requested k values.

    Each round runs the real game (censored at max(ks)); Pr{G >= k} is the
    fraction of rounds whose first k-1 attempts all failed.
    """
    ks = sorted(ks)
    counts = play_counts(guesser, x, rounds, seed, cap or ks[-1])
    return {k: sum(g >= k for g in counts) / rounds for k in ks}
